"""Minimum repositories (paper section 3.3).

The *minimum repository* of a Thunk is the bounded set of Fix data that
must be resident before its function starts, so the function can always
run to completion without blocking on I/O.  It is computed purely from the
Thunk's handle graph:

* data reachable through **Object** handles is included (recursively
  through Trees);
* **Refs** contribute only their metadata - the referent stays remote;
* bare **Thunks** contribute their describing Tree but nothing they would
  compute - they are somebody else's problem;
* **Encodes** are *pending work*: the runtime must evaluate them before
  the invocation, and their own minimum repositories are needed
  transitively.

A function may not change its own minimum repository, but it can create
child Thunks that grow it (by including an Encode) or shrink it (by
dropping entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Set

from .handle import Handle
from .storage import Repository


@dataclass(frozen=True)
class Footprint:
    """The data footprint of evaluating a handle.

    ``data`` holds content keys of data that must be resident;
    ``pending`` holds Encode handles that must be evaluated first;
    ``data_bytes`` approximates the wire size of the resident set.
    """

    data: FrozenSet[bytes]
    pending: FrozenSet[Handle]
    data_bytes: int

    def __contains__(self, handle: Handle) -> bool:
        return handle.key in self.data

    def is_subset_of(self, other: "Footprint") -> bool:
        return self.data <= other.data


def footprint(repo: Repository, handle: Handle) -> Footprint:
    """Compute the minimum repository of ``handle``.

    Tolerates missing data: a referenced-but-absent datum is still counted
    in ``data`` (by content key) using the size recorded in its handle, so
    schedulers can cost placements before any transfer happens.

    Only the handle being evaluated needs its definition resident (paper
    fig. 2).  At the root, an Encode is pending work and, like a bare
    Thunk, is walked as its definition.  Below the root, an Encode is
    only pending, and a bare Thunk, a Ref or a literal adds nothing:
    the Thunk is somebody else's problem, the Ref is metadata only and
    the literal's payload rides inside its handle.  The walk is one
    loop over a stack of handles that reads their kind slots.
    """
    data: Set[bytes] = set()
    pending: Set[Handle] = set()
    total = 0
    if handle.is_encode:
        pending.add(handle)
    if not handle.is_data:
        handle = handle.definition()
    stack = [handle]
    while stack:
        h = stack.pop()
        if h.is_encode:
            pending.add(h)
        elif h.is_object and not h.is_literal:
            key = h.key
            if key not in data:
                data.add(key)
                total += h.byte_size()
                if h.is_tree and repo.contains(h):
                    stack.extend(repo.get_tree(h).children)
    return Footprint(frozenset(data), frozenset(pending), total)


def transitive_footprint(repo: Repository, handle: Handle) -> Footprint:
    """The closure of :func:`footprint` over pending Encodes.

    ``footprint`` treats an Encode entry as somebody else's problem -
    correct for placement costing, where the platform may evaluate it
    anywhere.  A *delegatee* asked to evaluate the whole object, however,
    needs everything required to evaluate every nested Encode as well.
    ``data_bytes`` here is what of ``data`` is *resident* in ``repo`` (an
    absent key adds 0), looked up by key: it costs the footprint's size.
    """
    data: Set[bytes] = set()
    # The root's own footprint lists the root as pending; seeding it
    # here keeps the loop from queueing it for a second walk.
    pending: Set[Handle] = {handle} if handle.is_encode else set()
    queue = [handle]
    while queue:
        fp = footprint(repo, queue.pop())
        for key in fp.data:
            if key not in data:
                data.add(key)
        for encode in fp.pending:
            if encode not in pending:
                pending.add(encode)
                queue.append(encode)
    total = sum(repo.held_sizes(data).values())
    return Footprint(frozenset(data), frozenset(pending), total)
