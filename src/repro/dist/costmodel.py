"""One placement policy: believed bytes moved, then load, then name.

The paper's central scheduling mechanism (section 4.2.2) is a single
cost model: price every candidate location by the bytes the local
*belief* says would have to move, spread genuine ties by outstanding
load, and stay deterministic by breaking what remains on the candidate
name.  Both runtimes in this repo resolve placements here:

* the simulator's :class:`~repro.dist.scheduler.DataflowScheduler`
  prices cluster machines for :class:`~repro.dist.engine.FixpointSim`;
* the executing runtime's
  :meth:`~repro.fixpoint.net.FixpointNode.delegate_best` prices peers by
  the believed missing bytes of a Fix footprint.

Keeping the policy in one module means a delegation-policy change is
made exactly once and both the perf conclusions (simulated) and the
executing code follow it: the ``(priced bytes, load, name)`` order is
written in :func:`choose` (and, for ranking whole quotes, in
:meth:`Quote.sort_key` beside it), the output-size hint in
:func:`hint_bytes`, the pricing pass in :func:`price_held`.

What a decision costs: :func:`choose` compares its candidates in one
pass and builds the winner's :class:`Quote` only.  :func:`price_held`
walks the inputs once and reports only the candidates believed to hold
some of them (O(needs + believed replicas)); :func:`price_moves` is the
same pass laid out densely, one entry per candidate, for callers that
want the whole table - the executing runtime's peer quotes.
:func:`contenders` turns the sparse form into the candidates that can
still be the minimum, so that every candidate is looked at only when
all of them tie on bytes (nothing believed held), where the spread by
``(load, name)`` has to see them all; the simulated scheduler places
through it, so one of its placements costs O(needs + believed replicas
+ contenders).

Everything here is pure: no cluster, no repository, no I/O.  Beliefs
arrive as callables/pairs so any view representation can plug in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Collection,
    Container,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Tuple,
)

from ..core.errors import SchedulingError


@dataclass(frozen=True)
class Quote:
    """The priced option for running one task at one candidate location.

    ``move_bytes`` is what the belief says must travel *to* the
    candidate; ``hint_bytes`` is the output's onward journey when the
    consumer's location is known (the output-size-hint lever); ``load``
    is the outstanding work already assigned there.
    """

    candidate: str
    move_bytes: int
    hint_bytes: int
    load: int

    @property
    def priced_bytes(self) -> int:
        """The quantity the policy minimises: input + hinted output bytes."""
        return self.move_bytes + self.hint_bytes

    def sort_key(self) -> Tuple[int, int, str]:
        """The order :func:`choose` minimises, for ranking built quotes
        (``sorted(quotes, key=Quote.sort_key)[0]`` is its answer)."""
        return (self.priced_bytes, self.load, self.candidate)


def price_held(
    needs: Iterable[Tuple[Hashable, int]],
    locations: Callable[[Hashable], Iterable[str]],
    candidates: Container[str],
) -> Tuple[int, Dict[str, int]]:
    """The pricing pass in its sparse form: ``(total, held)``.

    ``needs`` is ``(object, size)`` pairs; ``locations(object)`` yields
    the believed replica holders.  ``total`` is every needed byte and
    ``held[candidate]`` the part of it ``candidate`` is believed to
    hold already, so ``total - held.get(candidate, 0)`` must move there.
    Only candidates believed to hold *some* need have an entry (it is 0
    for a holder of zero-size objects only): the pass costs
    O(needs + believed replicas) whatever the number of candidates,
    which is why ``candidates`` is only asked ``in`` - pass a set.

    Each object is visited once and charged by subtraction, never per
    candidate - O(candidates x needs) is what made fig. 10's 1,987-input
    link task a scheduler hot spot.  This is the only accumulation
    loop; :func:`price_moves` is the same pass spread over a dense dict.

    Concurrency contract: this function is pure but iterates whatever
    ``locations`` returns, so the *caller* must keep those collections
    stable for the duration of the pass.  Belief stores that mutate on
    other threads (the executing runtime's async delegation absorbs
    replies concurrently) satisfy this by holding their own lock around
    the whole call - see :meth:`repro.dist.objectview.ObjectView.price_held`.
    """
    held: Dict[str, int] = {}
    total = 0
    for name, size in needs:
        total += size
        for location in locations(name):
            if location in candidates:
                held[location] = held.get(location, 0) + size
    return total, held


def price_moves(
    needs: Iterable[Tuple[Hashable, int]],
    locations: Callable[[Hashable], Iterable[str]],
    candidates: Iterable[str],
) -> Dict[str, int]:
    """Believed bytes that must move to each candidate: the dense view
    of :func:`price_held` (same pass, same concurrency contract), one
    entry per candidate, O(needs + believed replicas + candidates)."""
    present = dict.fromkeys(candidates)
    total, held = price_held(needs, locations, present)
    prices = dict.fromkeys(present, total)
    for candidate, size in held.items():
        prices[candidate] = total - size
    return prices


def contenders(
    candidates: Collection[str],
    held: Dict[str, int],
    *,
    consumer_location: Optional[str] = None,
    exclude: Optional[Container[str]] = None,
) -> Collection[str]:
    """The candidates that can still win :func:`choose`, given the
    sparse prices of :func:`price_held`.

    A candidate that holds nothing and is not the consumer moves every
    byte and pays the full hint, so any live candidate holding even one
    byte prices strictly below it: when such a holder exists, only the
    live holders and the consumer (the one candidate the hint can
    favour) need a price.  With no live byte-holder - nothing believed
    anywhere, zero-size inputs only, every holder tombstoned - everyone
    ties on input bytes and it is all ``candidates``.  Either way the
    result goes through :func:`choose`, which applies ``exclude`` and
    the order itself; this only spares it the candidates that cannot be
    its answer, so a placement costs its contenders, not the cluster.
    """
    live = [
        candidate
        for candidate, size in held.items()
        if size > 0 and (exclude is None or candidate not in exclude)
    ]
    if not live:
        return candidates
    if (
        consumer_location is not None
        and consumer_location not in live
        and consumer_location in candidates
    ):
        live.append(consumer_location)
    return live


def hint_bytes(
    candidate: str, output_size: int, consumer_location: Optional[str]
) -> int:
    """The output-size hint: the output's journey to its consumer,
    charged only when the consumer's location is known and is not
    ``candidate``."""
    if consumer_location is None or candidate == consumer_location:
        return 0
    return output_size


def quote(
    candidate: str,
    move_bytes: int,
    load: int,
    *,
    output_size: int = 0,
    consumer_location: Optional[str] = None,
) -> Quote:
    """Price one candidate; the output hint applies only off-consumer."""
    return Quote(
        candidate=candidate,
        move_bytes=move_bytes,
        hint_bytes=hint_bytes(candidate, output_size, consumer_location),
        load=load,
    )


def choose(
    candidates: Iterable[str],
    move_bytes: Callable[[str], int],
    load: Callable[[str], int],
    *,
    output_size: int = 0,
    consumer_location: Optional[str] = None,
    exclude: Optional[Container[str]] = None,
) -> Quote:
    """The shared decision: the cheapest :class:`Quote`.

    Minimises ``(priced bytes, load, name)`` - cheapest bytes first,
    ties spread by load, then name - in one pass that keeps the best key
    and builds a :class:`Quote` for the winner alone.  A candidate
    believed to hold *nothing* is still priced (the full footprint),
    never skipped: staleness costs a redundant transfer, not a
    scheduling failure.  (Callers may pre-filter with
    :func:`contenders`, which drops only candidates that provably
    cannot be the minimum.)

    ``exclude`` is the one exception, and it is about *liveness*, not
    staleness: membership tombstones (:mod:`repro.dist.membership`)
    name candidates that are confirmed dead, and pricing a dead machine
    is not a redundant transfer but a lost delegation.  Keeping the
    exclusion here - rather than in each caller - preserves the repo's
    one-placement-policy invariant: the simulated scheduler and the
    executing runtime drop dead candidates by exactly the same rule.
    """
    best: Optional[Tuple[int, int, str]] = None
    seen = 0
    for seen, candidate in enumerate(candidates, 1):
        if exclude is not None and candidate in exclude:
            continue
        key = (
            move_bytes(candidate)
            + hint_bytes(candidate, output_size, consumer_location),
            load(candidate),
            candidate,
        )
        if best is None or key < best:
            best = key
    if best is None:
        raise SchedulingError(
            f"all {seen} candidate locations are excluded (confirmed dead)"
            if seen
            else "no candidate locations to place on"
        )
    _priced, busy, winner = best
    return quote(
        winner,
        move_bytes(winner),
        busy,
        output_size=output_size,
        consumer_location=consumer_location,
    )
