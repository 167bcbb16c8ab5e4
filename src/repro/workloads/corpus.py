"""Synthetic Wikipedia-like corpora (deterministic, seeded).

The paper counts a 3-character string across a 96 GiB English Wikipedia
dump sharded into 984 x 100 MiB chunks.  Real text at that scale is
neither available offline nor necessary: the experiment's behaviour
depends on shard *sizes and placement*, while operator correctness only
needs *some* text.  This module generates:

* miniature **real** shards (pseudo-English from a fixed vocabulary) for
  correctness tests of the count/merge codelets, and
* **declared-size** shard descriptors for the simulator at paper scale.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..dist.graph import DataSpec

MIB = 1 << 20
#: The paper's corpus: 984 shards of 100 MiB (section 5.3.2).
PAPER_SHARDS = 984
PAPER_SHARD_BYTES = 100 * MIB

#: A small fixed vocabulary; enough to make substring counting
#: non-trivial (overlaps, punctuation, repeated trigrams).
VOCABULARY = (
    "the of and to in a is that for it as was with be by on not he this are "
    "or his from at which but have an had they you were their one all we can "
    "her has there been if more when will would who so no out up into than "
    "its time only could other these two may then do first any my now such "
    "like our over man me even most made after also did many before must "
    "through back years where much your way well down should because each "
    "just those people how too little state good very make world still own "
    "see men work long get here between both life being under never day same "
    "another know while last might us great old year off come since against "
    "go came right used take three"
).split()


def make_shard(size: int, seed: int) -> bytes:
    """One pseudo-text shard of exactly ``size`` bytes."""
    rng = random.Random(seed)
    words: List[str] = []
    length = 0
    while length < size + 16:
        word = rng.choice(VOCABULARY)
        words.append(word)
        length += len(word) + 1
    text = " ".join(words).encode("ascii")
    return text[:size]


def make_corpus(shards: int, shard_size: int, seed: int = 42) -> List[bytes]:
    """``shards`` real shards of ``shard_size`` bytes each."""
    return [make_shard(shard_size, seed * 1_000_003 + i) for i in range(shards)]


def declare_shards(
    shards: int,
    shard_size: int,
    nodes: Sequence[str],
    seed: int = 42,
) -> List[DataSpec]:
    """Paper-scale shard descriptors scattered randomly across ``nodes``
    (section 5.3.2: "the 100 MiB chunks are scattered among the 10 nodes
    randomly")."""
    rng = random.Random(seed)
    return [
        DataSpec(
            name=f"wiki-chunk-{i:04d}",
            size=shard_size,
            location=rng.choice(list(nodes)),
        )
        for i in range(shards)
    ]


def paper_shards(nodes: Sequence[str]) -> List[DataSpec]:
    """The paper's configuration: 984 shards of 100 MiB."""
    return declare_shards(PAPER_SHARDS, PAPER_SHARD_BYTES, nodes)


def reference_count(shards: Sequence[bytes], needle: bytes) -> int:
    """Ground truth: non-overlapping occurrences across all shards."""
    return sum(shard.count(needle) for shard in shards)
