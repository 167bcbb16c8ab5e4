"""Computational garbage collection ("delayed-availability storage").

Paper section 6: *"Because Fix computations are deterministic products of
known dependencies, users who opt for 'delayed-availability' storage
would grant the provider the ability to delete stored objects as long as
the provider knows how to recompute them on demand."*

This module implements that idea over the repository's memoized Encode
results:

* :class:`RecomputeIndex` records, for every memoized result, the Encode
  that produced it - the recipe;
* :func:`collect` evicts data whose recipes are known (biggest first,
  until a byte budget is met), keeping *roots* (recipes' own inputs must
  remain recoverable, so eviction walks in dependency order);
* :class:`RecoveringRepository` is a repository wrapper that, on a miss,
  transparently re-evaluates the recorded recipe - the "SLA window" where
  deleted data flows back into existence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .data import Datum
from .errors import MissingObjectError, StorageError
from .handle import Handle
from .storage import Repository


@dataclass
class RecomputeIndex:
    """content key -> the Encode whose evaluation produces that datum."""

    recipes: Dict[bytes, Handle] = field(default_factory=dict)

    def learn(self, encode: Handle, result: Handle) -> None:
        if result.is_data and not result.is_literal:
            self.recipes[result.key] = encode

    def recipe_for(self, handle: Handle) -> Optional[Handle]:
        return self.recipes.get(handle.key)

    def recoverable(self, handle: Handle) -> bool:
        return handle.key in self.recipes


def index_from_repository(repo: Repository) -> RecomputeIndex:
    """Build the recipe index from a repository's memoized results."""
    index = RecomputeIndex()
    with repo._lock:  # snapshot; Repository is our own class
        results = dict(repo._results)
    for encode, result in results.items():
        index.learn(encode, result)
    return index


@dataclass
class CollectionReport:
    """What one GC pass did."""

    evicted: List[Handle] = field(default_factory=list)
    bytes_freed: int = 0
    kept_unrecoverable: int = 0

    def __str__(self) -> str:
        return (
            f"evicted {len(self.evicted)} objects / {self.bytes_freed} bytes; "
            f"{self.kept_unrecoverable} objects kept (no recipe)"
        )


def collect(
    repo: Repository,
    index: RecomputeIndex,
    target_bytes: int,
) -> CollectionReport:
    """Evict recoverable data, biggest first, until ``target_bytes`` freed.

    Data without a recipe is never touched.
    """
    if target_bytes < 0:
        raise StorageError("cannot free a negative byte count")
    report = CollectionReport()
    candidates = []
    for handle in repo.handles():
        if not index.recoverable(handle):
            report.kept_unrecoverable += 1
            continue
        candidates.append(handle)
    candidates.sort(key=lambda h: (-h.byte_size(), h.key))
    for handle in candidates:
        if report.bytes_freed >= target_bytes:
            break
        if repo.forget_data(handle):
            report.evicted.append(handle)
            report.bytes_freed += handle.byte_size()
    return report


class RecoveringRepository(Repository):
    """A repository that recomputes evicted data on demand.

    ``recompute`` is called with the recipe Encode and must re-evaluate
    it (typically ``evaluator.eval_encode`` with memoization *disabled*
    for that call, since the memo is what got us here).  Recoveries are
    counted for the provider's SLA accounting.  The recipe index starts
    empty and learns from every :meth:`put_result`.
    """

    def __init__(self):
        super().__init__("recovering")
        self.index = RecomputeIndex()
        self._recompute: Optional[Callable[[Handle], Handle]] = None
        self.recoveries = 0

    def set_recompute(self, fn: Callable[[Handle], Handle]) -> None:
        self._recompute = fn

    def put_result(self, encode: Handle, result: Handle) -> None:
        super().put_result(encode, result)
        self.index.learn(encode, result)

    def get(self, handle: Handle) -> Datum:
        try:
            return super().get(handle)
        except MissingObjectError:
            recipe = self.index.recipe_for(handle)
            if recipe is None or self._recompute is None:
                raise
            self.recoveries += 1
            self._recompute(recipe)
            return super().get(handle)
