"""The Fix evaluator: forcing Thunks and applying Encodes.

Implements the semantics of paper section 3:

* An **Identification** thunk forces to the datum it names.
* A **Selection** thunk forces to a child Handle (Tree target), a sub-Tree
  (Tree range), or a Blob subrange - without materializing anything else.
* An **Application** thunk's definition Tree is first *resolved*: every
  Encode entry is replaced by its result (Strict entries become Objects,
  Shallow entries become Refs).  The function codelet is then applied to
  the resolved Tree.  A result that is itself a Thunk is a tail call and is
  forced in a trampoline loop, so arbitrarily long chains (paper fig. 7b)
  never grow the Python stack.
* A **Strict** Encode forces its thunk, then deep-resolves the result:
  Trees are descended and every Thunk or Encode inside is strictly
  evaluated; the top-level result is delivered as an accessible Object.
* A **Shallow** Encode forces its thunk until the result is no longer a
  Thunk and delivers it as a Ref - the minimum work needed for a consumer
  to make progress.

Results of Encodes are memoized in the repository, so identical
computations are never repeated (and a provider may "forget" a datum it
knows how to recompute).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .errors import EvaluationError, SelectionError
from .handle import EncodeStyle, Handle, ThunkStyle
from .storage import Repository
from .thunks import Invocation, parse_invocation, parse_selection

#: Applies one invocation: ``apply_fn(evaluator, resolved_definition) -> Handle``.
ApplyFn = Callable[["Evaluator", Handle, Invocation], Handle]

_MAX_TAIL_CALLS = 1_000_000
#: Linear dependency chains (fig. 7b nests 500 encodes) recurse through
#: argument resolution; the ceiling bounds runaway programs while leaving
#: legitimate deep chains plenty of room.
_MAX_DEPTH = 20_000
_PY_FRAMES_PER_LEVEL = 16


class _DeepRecursion:
    """Temporarily widen CPython's recursion limit for deep encode chains."""

    __slots__ = ("_old",)

    def __enter__(self) -> "_DeepRecursion":
        self._old = sys.getrecursionlimit()
        needed = _MAX_DEPTH * _PY_FRAMES_PER_LEVEL
        if self._old < needed:
            sys.setrecursionlimit(needed)
        return self

    def __exit__(self, *exc) -> None:
        if sys.getrecursionlimit() > self._old:
            sys.setrecursionlimit(self._old)


@dataclass
class EvalStats:
    """Counters describing one evaluator's activity.

    Used by the tests, the ablation benches, and the fig. 9 cost model
    (which converts operation counts into simulated time).
    """

    applications: int = 0
    identifications: int = 0
    selections: int = 0
    strict_encodes: int = 0
    shallow_encodes: int = 0
    memo_hits: int = 0
    tail_calls: int = 0
    bytes_selected: int = 0

    def snapshot(self) -> "EvalStats":
        return EvalStats(**vars(self))

class Evaluator:
    """Evaluates Fix objects against a repository and an apply hook."""

    def __init__(
        self,
        repo: Repository,
        apply_fn: Optional[ApplyFn] = None,
        memoize: bool = True,
        thunk_cache: Optional[Dict[Handle, Handle]] = None,
    ):
        self.repo = repo
        self.apply_fn = apply_fn
        self.memoize = memoize
        self.stats = EvalStats()
        # May be shared across evaluators (e.g. Fixpoint worker threads);
        # writes are idempotent because evaluation is deterministic.
        self._thunk_cache: Dict[Handle, Handle] = (
            thunk_cache if thunk_cache is not None else {}
        )

    # ------------------------------------------------------------------
    # Public entry points

    def eval(self, handle: Handle) -> Handle:
        """Evaluate ``handle`` under strict semantics; return an Object.

        Data handles are deep-resolved (inner Thunks/Encodes evaluated);
        Thunks are forced then deep-resolved; Encodes are applied.
        """
        with _DeepRecursion():
            return self._eval_strict(handle, depth=0)

    def eval_encode(self, encode: Handle) -> Handle:
        """Apply one Encode (Strict or Shallow) and return its result."""
        with _DeepRecursion():
            return self._eval_encode(encode, depth=0)

    # ------------------------------------------------------------------
    # Encode semantics

    def _eval_encode(self, encode: Handle, depth: int) -> Handle:
        if not encode.is_encode:
            raise EvaluationError(f"{encode!r} is not an Encode")
        if self.memoize:
            cached = self.repo.get_result(encode)
            if cached is not None:
                self.stats.memo_hits += 1
                return cached
        thunk = encode.unwrap_encode()
        forced = self._force(thunk, depth)
        if encode.encode_style is EncodeStyle.STRICT:
            self.stats.strict_encodes += 1
            result = self._eval_strict(forced, depth)
        else:
            self.stats.shallow_encodes += 1
            result = self._to_ref(forced)
        if self.memoize:
            self.repo.put_result(encode, result)
        return result

    def _to_ref(self, handle: Handle) -> Handle:
        if handle.is_data:
            return handle.as_ref()
        raise EvaluationError(f"shallow evaluation produced a non-datum: {handle!r}")

    def _eval_strict(self, handle: Handle, depth: int) -> Handle:
        """Deliver the fully-evaluated Object for ``handle``."""
        if depth > _MAX_DEPTH:
            raise EvaluationError(f"evaluation exceeded depth {_MAX_DEPTH}")
        if handle.is_encode:
            inner = self._eval_encode(handle, depth + 1)
            return self._eval_strict(inner, depth + 1)
        if handle.is_thunk:
            forced = self._force(handle, depth)
            return self._eval_strict(forced, depth + 1)
        # Plain data: blobs are final; trees are descended.
        if handle.is_blob:
            return handle.as_object()
        return self._deep_resolve_tree(handle, depth)

    def _deep_resolve_tree(self, handle: Handle, depth: int) -> Handle:
        tree = self.repo.get_tree(handle)
        changed = False
        resolved = []
        for child in tree:
            if child.is_encode or child.is_thunk:
                new = self._eval_strict(child, depth + 1)
                changed = changed or new != child
                resolved.append(new)
            elif child.is_tree:
                new = self._deep_resolve_tree(child, depth + 1)
                changed = changed or new.content_key() != child.content_key()
                # Preserve the original accessibility view of the entry.
                resolved.append(new.as_ref() if child.is_ref else new)
            else:
                resolved.append(child)
        if not changed:
            return handle.as_object()
        return self.repo.put_tree(resolved)

    # ------------------------------------------------------------------
    # Thunk forcing (the trampoline)

    def _force(self, thunk: Handle, depth: int) -> Handle:
        """Force ``thunk`` until the result is no longer a Thunk."""
        current = thunk
        for _ in range(_MAX_TAIL_CALLS):
            if not current.is_thunk:
                if current.is_encode:
                    current = self._eval_encode(current, depth + 1)
                    continue
                return current
            cached = self._thunk_cache.get(current) if self.memoize else None
            if cached is not None:
                self.stats.memo_hits += 1
                current = cached
                continue
            result = self._step(current, depth)
            if self.memoize:
                self._thunk_cache[current] = result
            self.stats.tail_calls += result.is_thunk
            current = result
        raise EvaluationError("tail-call budget exhausted; diverging computation?")

    def _step(self, thunk: Handle, depth: int) -> Handle:
        style = thunk.thunk_style
        if style is ThunkStyle.IDENTIFICATION:
            self.stats.identifications += 1
            return thunk.definition()
        if style is ThunkStyle.SELECTION:
            self.stats.selections += 1
            return self._select(thunk, depth)
        if style is ThunkStyle.APPLICATION:
            self.stats.applications += 1
            return self._apply(thunk, depth)
        raise EvaluationError(f"cannot step {thunk!r}")

    # ------------------------------------------------------------------
    # Selection

    def _select(self, thunk: Handle, depth: int) -> Handle:
        sel = parse_selection(self.repo, thunk.definition())
        target = sel.target
        # The target may itself require evaluation before selecting.
        if target.is_encode:
            target = self._eval_encode(target, depth + 1)
        if target.is_thunk:
            target = self._force(target, depth + 1)
        if target.is_tree:
            return self._select_tree(target, sel.start, sel.end)
        return self._select_blob(target, sel.start, sel.end)

    def _select_tree(self, target: Handle, start: int, end: Optional[int]) -> Handle:
        tree = self.repo.get_tree(target)
        if end is None:
            if start >= len(tree):
                raise SelectionError(
                    f"index {start} out of range for tree of {len(tree)}"
                )
            self.stats.bytes_selected += 32
            return tree[start]
        if end > len(tree) or start > end:
            raise SelectionError(f"range [{start}, {end}) out of tree of {len(tree)}")
        self.stats.bytes_selected += 32 * (end - start)
        return self.repo.put_tree(tree.children[start:end])

    def _select_blob(self, target: Handle, start: int, end: Optional[int]) -> Handle:
        blob = self.repo.get_blob(target)
        if end is None:
            end = start + 1
        if end > len(blob) or start > end:
            raise SelectionError(f"range [{start}, {end}) out of blob of {len(blob)}")
        self.stats.bytes_selected += end - start
        return self.repo.put_blob(blob.data[start:end])

    # ------------------------------------------------------------------
    # Application

    def _apply(self, thunk: Handle, depth: int) -> Handle:
        if self.apply_fn is None:
            raise EvaluationError(
                "this evaluator has no apply hook; application thunks "
                "require a runtime (see repro.fixpoint)"
            )
        resolved = self.resolve_invocation(thunk.definition(), depth)
        invocation = parse_invocation(self.repo, resolved)
        result = self.apply_fn(self, resolved, invocation)
        if not isinstance(result, Handle):
            raise EvaluationError(
                f"codelet returned {type(result).__name__}, expected a Handle"
            )
        return result

    def resolve_invocation(self, definition: Handle, depth: int = 0) -> Handle:
        """Replace every Encode entry of an invocation Tree by its result.

        This is the step that performs (or, on a distributed runtime,
        *schedules*) all the I/O a child function needs: after resolution
        the minimum repository of the invocation is fully available.
        """
        tree = self.repo.get_tree(definition)
        changed = False
        resolved = []
        for child in tree:
            if child.is_encode:
                new = self._eval_encode(child, depth + 1)
                changed = changed or new != child
                resolved.append(new)
            else:
                resolved.append(child)
        if not changed:
            return definition.as_object()
        return self.repo.put_tree(resolved)
