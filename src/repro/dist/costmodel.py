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
executing code follow it.  Both drivers take one path: :func:`bid`
prices (under the view's lock, :meth:`ObjectView.bid
<repro.dist.objectview.ObjectView.bid>`) and :func:`choose` decides
``(priced bytes, load, name)``, building the winner's :class:`Quote`
only (:meth:`Quote.sort_key` ranks whole quotes by the same order).
:func:`price_held` is the one accumulation loop: it walks the inputs
once and reports only the believed holders, so a placement costs
O(needs + believed replicas + contenders), not the cluster.
:func:`price_moves` is that pass laid out densely, one entry per
candidate.

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
    the whole call - see :meth:`repro.dist.objectview.ObjectView.bid`.
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


def bid(
    needs: Iterable[Tuple[Hashable, int]],
    locations: Callable[[Hashable], Iterable[str]],
    candidates: Collection[str],
    *,
    unshippable: Collection[Hashable] = (),
    consumer_location: Optional[str] = None,
    exclude: Optional[Container[str]] = None,
) -> Tuple[Collection[str], Callable[[str], int]]:
    """The pricing half of a placement: ``(contenders, move_bytes)``,
    the first two arguments of :func:`choose`.

    *Viability*: ``unshippable`` names data the placing node cannot
    send, so a candidate not believed to hold all of it would strand
    the evaluation and is dropped - counted in keys, never bytes (a key
    nobody reported a size for prices at zero and would let a dead end
    through).  When no candidate is viable all stay: the belief may be
    stale, and delegating is the only way to find out.

    *Contenders*: a candidate that holds nothing and is not the consumer
    moves every byte and pays the full hint, so any live holder of one
    byte prices strictly below it.  The live holders plus the consumer
    contend; with no live holder every candidate ties on bytes and all
    contend.  :func:`choose` applies ``exclude`` itself.

    Two :func:`price_held` passes, so O(needs + unshippable + believed
    replicas + contenders): ``candidates`` is only asked ``in`` unless
    everyone ties.  Same concurrency contract as :func:`price_held`.
    """
    if unshippable:
        count, keys = price_held(
            ((key, 1) for key in unshippable), locations, candidates
        )
        candidates = (
            dict.fromkeys(c for c, held in keys.items() if held == count)
            or candidates
        )
    total, held = price_held(needs, locations, candidates)
    live = [
        candidate
        for candidate, size in held.items()
        if size > 0 and (exclude is None or candidate not in exclude)
    ]
    hint = consumer_location
    if live and hint in candidates and hint not in live:
        live.append(hint)
    return live or candidates, lambda candidate: total - held.get(candidate, 0)


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
    scheduling failure.  (Callers may pre-filter with :func:`bid`,
    which drops only candidates that provably cannot be the minimum.)

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
