"""Constructors and structural accessors for Thunks and Encodes.

The paper (section 3.2, fig. 1) defines three thunk styles:

* **Application** - a Tree in the *invocation format*
  ``[resource_limits, function, arg...]`` describing the execution of a
  function in a container of available data.
* **Identification** - the identity function on a datum; evaluating it
  yields the datum itself.  Its purpose is to let a function ask the
  runtime to perform I/O: an Encode of an Identification of a Ref makes the
  referent available to a child.
* **Selection** - a "pinpoint" data dependency: a Tree in the *selection
  format* ``[target, index]`` or ``[target, start, end]`` extracting a
  child, a sub-Tree, or a Blob subrange without materializing the whole
  target.

and two encode styles, **Strict** (fully evaluate, recursing into Trees,
deliver an Object) and **Shallow** (evaluate until the result is no longer
a Thunk, deliver a Ref).

Integers embedded in selection trees are packed as 8-byte little-endian
literal blobs, so a selection costs no storage round-trips beyond its
describing Tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import HandleError, SelectionError
from .handle import Handle, ThunkStyle
from .limits import DEFAULT_LIMITS, ResourceLimits
from .storage import Repository

_INT_LEN = 8


def pack_index(value: int) -> Handle:
    """A literal handle carrying a non-negative 64-bit integer."""
    if value < 0:
        raise SelectionError(f"selection indices must be non-negative, got {value}")
    return Handle.of_blob(value.to_bytes(_INT_LEN, "little"))


def unpack_index(handle: Handle) -> int:
    if not handle.is_literal or len(handle.literal_data) != _INT_LEN:
        raise SelectionError("selection index must be an 8-byte literal blob")
    return int.from_bytes(handle.literal_data, "little")


# ----------------------------------------------------------------------
# Application thunks


@dataclass(frozen=True)
class Invocation:
    """Parsed view of an Application definition Tree."""

    limits: ResourceLimits
    function: Handle
    args: tuple[Handle, ...]


def make_invocation_tree(
    repo: Repository,
    function: Handle,
    args: Sequence[Handle],
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> Handle:
    """Store the ``[rlimits, function, arg...]`` Tree; return its handle."""
    return repo.put_tree([limits.handle(), function, *args])


def make_application(
    repo: Repository,
    function: Handle,
    args: Sequence[Handle],
    limits: ResourceLimits = DEFAULT_LIMITS,
) -> Handle:
    """An Application thunk for ``function(*args)`` under ``limits``."""
    return make_invocation_tree(repo, function, args, limits).make_application()


def parse_invocation(repo: Repository, definition: Handle) -> Invocation:
    """Decode an invocation Tree back into its parts."""
    tree = repo.get_tree(definition)
    if len(tree) < 2:
        raise HandleError("invocation trees hold at least [rlimits, function]")
    limits_handle = tree[0]
    if limits_handle.is_literal:
        limits = ResourceLimits.unpack(limits_handle.literal_data)
    else:
        limits = ResourceLimits.unpack(repo.get_blob(limits_handle).data)
    return Invocation(limits=limits, function=tree[1], args=tuple(tree[2:]))


# ----------------------------------------------------------------------
# Selection thunks


@dataclass(frozen=True)
class Selection:
    """Parsed view of a Selection definition Tree.

    ``end is None`` means a single-element selection (a child Handle for a
    Tree target, a single byte for a Blob target); otherwise the half-open
    range ``[start, end)``.
    """

    target: Handle
    start: int
    end: Optional[int]

def make_selection(repo: Repository, target: Handle, index: int) -> Handle:
    """A Selection thunk extracting ``target[index]``."""
    tree = repo.put_tree([target, pack_index(index)])
    return tree.make_selection()


def make_selection_range(
    repo: Repository, target: Handle, start: int, end: int
) -> Handle:
    """A Selection thunk extracting the half-open subrange ``[start, end)``."""
    if end < start:
        raise SelectionError(f"empty-reversed range [{start}, {end})")
    tree = repo.put_tree([target, pack_index(start), pack_index(end)])
    return tree.make_selection()


def parse_selection(repo: Repository, definition: Handle) -> Selection:
    tree = repo.get_tree(definition)
    if len(tree) == 2:
        return Selection(target=tree[0], start=unpack_index(tree[1]), end=None)
    if len(tree) == 3:
        return Selection(
            target=tree[0], start=unpack_index(tree[1]), end=unpack_index(tree[2])
        )
    raise HandleError("selection trees are [target, index] or [target, start, end]")


# ----------------------------------------------------------------------
# Identification thunks


def make_identification(value: Handle) -> Handle:
    """An Identification thunk over a datum (the identity function)."""
    if not value.is_data:
        raise HandleError("identification thunks refer to data handles")
    return value.make_identification()


def identified_value(thunk: Handle) -> Handle:
    """The datum an Identification thunk refers to (as an Object view)."""
    if thunk.thunk_style is not ThunkStyle.IDENTIFICATION:
        raise HandleError("not an identification thunk")
    return thunk.definition()


# ----------------------------------------------------------------------
# Encodes


def strict(thunk: Handle) -> Handle:
    """Request the maximum evaluation: deliver a fully-resolved Object."""
    return thunk.wrap_strict()


def shallow(thunk: Handle) -> Handle:
    """Request the minimum evaluation to make progress: deliver a Ref."""
    return thunk.wrap_shallow()
