"""Deterministic article-title generation (the fig. 9 key set).

The paper uses the list of English Wikipedia article titles: about six
million entries averaging 22 bytes.  This generator produces a
deterministic set with the same statistics; tests use tens of thousands,
the analytic fig. 9 model uses the full six million (counts only, no
materialization; :data:`repro.bench.paperdata.FIG9_KEY_COUNT` and
``FIG9_MEAN_KEY_BYTES``).
"""

from __future__ import annotations

import random
from typing import List

_TOPICS = (
    "Battle Treaty River Lake County Museum Castle Album Song Opera "
    "Island Comet Bridge Abbey Canal Tower Creek Ridge Point Bay Fort "
    "Mill Park Hall Cove Glen Peak Vale Moor Marsh Dale Firth"
).split()

_QUALIFIERS = "North South East West Upper Lower New Old Great Little".split()


def make_titles(count: int, seed: int = 7) -> List[bytes]:
    """``count`` unique, sorted titles averaging ~22 bytes."""
    rng = random.Random(seed)
    titles: set[bytes] = set()
    while len(titles) < count:
        topic = rng.choice(_TOPICS)
        if rng.random() < 0.55:
            title = f"{topic}_{rng.randrange(10**15):015d}"
        else:
            qualifier = rng.choice(_QUALIFIERS)
            title = f"{qualifier}_{topic}_{rng.randrange(10**11):011d}"
        titles.add(title.encode("ascii"))
    return sorted(titles)[:count]
