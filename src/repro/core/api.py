"""The Fix API surface handed to running codelets.

Reproduces the pseudocode API of the paper's Table 1 and the Fixpoint API
of Listing 1.  A :class:`FixAPI` instance is the single capability a
codelet receives (alongside its input handle); everything a function may
observe or produce flows through it:

* ``read_blob`` / ``read_tree`` (the paper's ``attach_blob`` /
  ``attach_tree``) map accessible data into the function;
* ``create_blob`` / ``create_tree`` build new data, metered against the
  invocation's memory limit;
* ``application`` / ``identification`` / ``selection`` build Thunks;
* ``strict`` / ``shallow`` build Encodes;
* ``is_*`` / ``get_size`` query Handles (the only operations allowed on
  Refs).

Accessibility is enforced exactly as in paper section 4.1.3: a procedure
may only map data whose handles it obtained by recursively mapping Trees,
starting from its input - plus anything it created itself.  Attempting to
read a Ref, or a handle conjured out of thin air, raises
:class:`~repro.core.errors.AccessError` (the moral equivalent of a Wasm
trap).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import AccessError, ResourceLimitError
from .handle import Handle
from .limits import DEFAULT_LIMITS, ResourceLimits
from .storage import Repository
from .thunks import (
    make_identification,
    make_invocation_tree,
    make_selection,
    make_selection_range,
    shallow,
    strict,
)


class FixAPI:
    """Capability object given to one codelet invocation."""

    def __init__(
        self,
        repo: Repository,
        input_handle: Handle,
        limits: ResourceLimits = DEFAULT_LIMITS,
    ):
        self._repo = repo
        self._limits = limits
        self._used_bytes = 0
        self._accessible: set[bytes] = set()
        self.input = input_handle
        self._grant(input_handle)

    # ------------------------------------------------------------------
    # Accessibility bookkeeping

    def _grant(self, handle: Handle) -> None:
        if handle.is_data and handle.is_object:
            self._accessible.add(handle.content_key())

    def _require_accessible(self, handle: Handle, action: str) -> None:
        if not handle.is_data:
            raise AccessError(f"cannot {action} {handle!r}: not a data handle")
        if handle.is_ref:
            raise AccessError(
                f"cannot {action} {handle!r}: Refs are inaccessible "
                "(only type and size may be inspected)"
            )
        if handle.is_literal:
            return  # literals carry their own payload
        if handle.content_key() not in self._accessible:
            raise AccessError(
                f"cannot {action} {handle!r}: outside this invocation's "
                "minimum repository"
            )

    def _meter(self, nbytes: int) -> None:
        self._used_bytes += nbytes
        if self._used_bytes > self._limits.memory_bytes:
            raise ResourceLimitError(self._used_bytes, self._limits.memory_bytes)

    @property
    def bytes_used(self) -> int:
        return self._used_bytes

    @property
    def limits(self) -> ResourceLimits:
        return self._limits

    # ------------------------------------------------------------------
    # Table 1: reading and creating data

    def read_blob(self, handle: Handle) -> bytes:
        """Read a Blob into the function (zero-copy in spirit)."""
        self._require_accessible(handle, "read blob")
        blob = self._repo.get_blob(handle)
        self._meter(len(blob))
        return blob.data

    def read_tree(self, handle: Handle) -> tuple[Handle, ...]:
        """Read a Tree into the function; its Object children become accessible."""
        self._require_accessible(handle, "read tree")
        tree = self._repo.get_tree(handle)
        self._meter(tree.byte_size())
        for child in tree:
            self._grant(child)
        return tree.children

    # Listing 1 names the same operations attach_blob / attach_tree.
    attach_blob = read_blob
    attach_tree = read_tree

    def create_blob(self, data: bytes) -> Handle:
        self._meter(len(data))
        handle = self._repo.put_blob(data)
        self._grant(handle)
        return handle

    def create_tree(self, children: Iterable[Handle]) -> Handle:
        children = tuple(children)
        self._meter(32 * len(children))
        handle = self._repo.put_tree(children)
        self._grant(handle)
        return handle

    # ------------------------------------------------------------------
    # Table 1: thunks and encodes

    def application(self, definition: Handle) -> Handle:
        """Apply a function lazily: a Thunk over an invocation Tree."""
        return definition.make_application()

    def identification(self, value: Handle) -> Handle:
        return make_identification(value)

    def selection(self, target: Handle, index: int) -> Handle:
        """Select one child (Tree target) or byte (Blob target)."""
        thunk = make_selection(self._repo, target, index)
        return thunk

    def selection_range(self, target: Handle, start: int, end: int) -> Handle:
        return make_selection_range(self._repo, target, start, end)

    def strict(self, thunk: Handle) -> Handle:
        return strict(thunk)

    def shallow(self, thunk: Handle) -> Handle:
        return shallow(thunk)

    # ------------------------------------------------------------------
    # Convenience composition (sugar over Table 1, used by examples)

    def invoke(
        self,
        function: Handle,
        args: Sequence[Handle],
        limits: ResourceLimits | None = None,
    ) -> Handle:
        """Build an Application thunk for ``function(*args)``."""
        limits = limits if limits is not None else self._limits
        tree = make_invocation_tree(self._repo, function, args, limits)
        self._grant(tree)
        return tree.make_application()

    # ------------------------------------------------------------------
    # Listing 1: handle queries (legal on every handle, including Refs)

    @staticmethod
    def is_blob(handle: Handle) -> bool:
        return handle.is_data and handle.is_blob

    @staticmethod
    def is_tree(handle: Handle) -> bool:
        return handle.is_data and handle.is_tree

    @staticmethod
    def is_ref(handle: Handle) -> bool:
        return handle.is_ref

    @staticmethod
    def is_thunk(handle: Handle) -> bool:
        return handle.is_thunk

    @staticmethod
    def is_encode(handle: Handle) -> bool:
        return handle.is_encode

    @staticmethod
    def get_size(handle: Handle) -> int:
        """Blob byte length or Tree entry count - visible even for Refs."""
        return handle.size
