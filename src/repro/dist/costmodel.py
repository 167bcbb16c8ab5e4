"""One placement policy: believed bytes moved, then load, then name.

The paper's central scheduling mechanism (section 4.2.2) is a single
cost model: price every candidate location by the bytes the local
*belief* says would have to move, spread genuine ties by outstanding
load, and stay deterministic by breaking what remains on the candidate
name.  Every platform in this repo resolves placements here:

* the simulator's :class:`~repro.dist.scheduler.DataflowScheduler`
  prices cluster machines for :class:`~repro.dist.engine.FixpointSim`;
* the executing runtime's
  :meth:`~repro.fixpoint.net.FixpointNode.delegate_best` prices peers by
  the believed missing bytes of a Fix footprint;
* the simulated baselines'
  :meth:`~repro.baselines.base.Platform._choose` prices machines from
  the cluster registry's true locations: a task's inputs (Ray CPS) or a
  chained step's largest trigger bucket (Pheromone).  Faasm, Ray Popen,
  OpenWhisk and Pheromone's external-data functions price nothing and
  place least-loaded; only Ray blocking draws at random.

Keeping the policy in one module means a delegation-policy change is
made exactly once and both the perf conclusions (simulated) and the
executing code follow it.  Every driver takes one path, one pass from
a task's inputs to the winning key: :func:`bid` prices (a belief under
the view's lock, :meth:`ObjectView.bid
<repro.dist.objectview.ObjectView.bid>`) and :func:`choose` decides
``(priced bytes, load, name)``, building the winner's :class:`Quote`
only (:meth:`Quote.sort_key` ranks whole quotes by the same order).
:func:`price_held` is the one accumulation loop: it walks ``(holders,
bytes)`` needs once and reports only the believed holders.  The view
hands it one need per distinct set of holders, its bytes summed over
the inputs held there, so a placement costs O(inputs + unshippable +
distinct holder sets x their holders + contenders), not the cluster.
:func:`bid` returns the contenders' prices as a dict, and :func:`choose`
reads them and the loads through ``map`` and takes ``min`` of the
keys: with C-level reads (a dict's ``__getitem__``) no Python frame
runs per contender.  :func:`price_moves` is the pricing pass laid out
densely, one entry per candidate.

Everything here is pure: no cluster, no repository, no I/O.  Beliefs
arrive as callables/pairs so any view representation can plug in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse, repeat
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
    candidate; ``hint_bytes`` is the output's onward journey (the
    output-size-hint lever): the output's size when the consumer's
    location is known and is not ``candidate``, else 0; ``load`` is the
    outstanding work already assigned there.
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
    needs: Iterable[Tuple[Iterable[str], int]],
    candidates: Container[str],
) -> Tuple[int, Dict[str, int]]:
    """The pricing pass in its sparse form: ``(total, held)``.

    ``needs`` is ``(holders, size)`` pairs: the believed replica holders
    of some bytes and how many bytes they are.  The bytes may be one
    object's or, as :meth:`ObjectView.bid
    <repro.dist.objectview.ObjectView.bid>` hands them over, the sum of
    every input held by one distinct holder set, so each set's holders
    are walked once however many inputs share it.  ``total`` is every
    needed byte and ``held[candidate]`` the part of it ``candidate`` is
    believed to hold already, so ``total - held.get(candidate, 0)`` must
    move there.  Only candidates believed to hold *some* need have an
    entry (it is 0 for a holder of zero-size objects only): the pass
    costs O(needs + their holders) whatever the number of candidates,
    which is why ``candidates`` is only asked ``in`` - pass a set.

    Each need is visited once and charged by subtraction, never per
    candidate - O(candidates x needs) is what made fig. 10's 1,987-input
    link task a scheduler hot spot.  This is the only accumulation
    loop; :func:`price_moves` and :func:`bid` both run it.

    Concurrency contract: this function is pure but iterates the holder
    collections it is handed, so the *caller* must keep them stable for
    the duration of the pass.  Belief stores that mutate on other
    threads (the executing runtime's async delegation absorbs replies
    concurrently) satisfy this by holding their own lock around the
    whole call - see :meth:`repro.dist.objectview.ObjectView.bid`.
    """
    held: Dict[str, int] = {}
    total = 0
    for holders, size in needs:
        total += size
        for location in holders:
            if location in candidates:
                held[location] = held.get(location, 0) + size
    return total, held


def price_moves(
    needs: Iterable[Tuple[Hashable, int]],
    locations: Callable[[Hashable], Iterable[str]],
    candidates: Iterable[str],
) -> Dict[str, int]:
    """Believed bytes that must move to each candidate: the dense view
    of :func:`price_held` over ``(object, size)`` pairs whose holders
    ``locations(object)`` yields (same pass, same concurrency contract),
    one entry per candidate, O(needs + believed replicas + candidates)."""
    present = dict.fromkeys(candidates)
    return _dense(
        present,
        *price_held(((locations(name), size) for name, size in needs), present),
    )


def _dense(
    candidates: Iterable[str], total: int, held: Dict[str, int]
) -> Dict[str, int]:
    """:func:`price_held`'s result laid out densely: ``total`` less what
    each candidate holds, one entry per candidate, in their order."""
    prices = dict.fromkeys(candidates, total)
    for candidate, size in held.items():
        prices[candidate] = total - size
    return prices


class _Prices(dict):
    """The contenders' bytes to move, read by :func:`choose` without a
    Python frame; another candidate is priced on the miss, from
    :func:`price_held`'s ``total`` and ``held``."""

    __slots__ = ("total", "held")

    def __missing__(self, candidate: str) -> int:
        return self.total - self.held.get(candidate, 0)


def bid(
    needs: Iterable[Tuple[Iterable[str], int]],
    candidates: Collection[str],
    *,
    unshippable: Iterable[Iterable[str]] = (),
    consumer_location: Optional[str] = None,
    exclude: Optional[Container[str]] = None,
) -> Tuple[Collection[str], Callable[[str], int]]:
    """The pricing half of a placement: ``(contenders, move_bytes)``,
    the first two arguments of :func:`choose`.

    ``needs`` is :func:`price_held`'s ``(holders, bytes)`` pairs and
    ``unshippable`` the holder collections of the keys the placing node
    cannot send.  *Viability*: a candidate not believed to hold every
    such key would strand the evaluation and is dropped - counted in
    keys, never bytes (a key nobody reported a size for prices at zero
    and would let a dead end through).  A candidate is in every key's
    collection exactly when it is in every distinct one, so the view
    passes each distinct set once.  When no candidate is viable all
    stay: the belief may be stale, and delegating is the only way to
    find out.

    *Contenders*: a candidate that holds nothing and is not the consumer
    moves every byte and pays the full hint, so any live holder of one
    byte prices strictly below it.  The live holders plus the consumer
    contend; with no live holder every candidate ties on bytes and all
    contend.  :func:`choose` applies ``exclude`` itself.

    ``move_bytes`` prices every candidate, and is a dict's
    ``__getitem__`` with every contender a key, so pricing the
    contenders runs no Python code: the contenders' prices, which
    compute any other candidate's on the miss, or, when all tie, every
    candidate's.  Two :func:`price_held` passes, so O(needs +
    unshippable + their holders + contenders):
    ``candidates`` is only asked ``in`` unless everyone ties.  Same
    concurrency contract as :func:`price_held`.
    """
    viable = candidates
    if unshippable:
        count, keys = price_held(zip(unshippable, repeat(1)), candidates)
        viable = (
            dict.fromkeys(c for c, held in keys.items() if held == count)
            or candidates
        )
    total, held = price_held(needs, viable)
    prices = _Prices()
    prices.total, prices.held = total, held
    for candidate, size in held.items():
        if size > 0 and (exclude is None or candidate not in exclude):
            prices[candidate] = total - size
    if prices:
        hint = consumer_location
        if hint in viable and hint not in prices:
            prices[hint] = total
        return prices, prices.__getitem__
    return viable, _dense(candidates, total, held).__getitem__


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
    ties spread by load, then name - and builds a :class:`Quote` for
    the winner alone.  The contenders' ``(move bytes, load, name)`` keys
    are built and compared by ``map``, ``zip`` and ``min``, so with
    C-level ``move_bytes`` and ``load`` (a dict's ``__getitem__``, what
    :func:`bid` returns) no Python code runs per contender.  The output
    hint needs no per-contender pass either: it charges every candidate
    but the consumer the same ``output_size``, which cannot change their
    order, so the least key is the winner unless the consumer, hint
    removed, beats it - one comparison.  A candidate believed to hold
    *nothing* is still priced (the full footprint), never skipped:
    staleness costs a redundant transfer, not a scheduling failure.
    (Callers may pre-filter with :func:`bid`, which drops only
    candidates that provably cannot be the minimum.)

    ``exclude`` is the one exception, and it is about *liveness*, not
    staleness: membership tombstones (:mod:`repro.dist.membership`)
    name candidates that are confirmed dead, and pricing a dead machine
    is not a redundant transfer but a lost delegation.  Keeping the
    exclusion here - rather than in each caller - preserves the repo's
    one-placement-policy invariant: the simulated scheduler and the
    executing runtime drop dead candidates by exactly the same rule.
    """
    pool = list(candidates)
    seen = len(pool)
    if exclude:
        pool = list(filterfalse(exclude.__contains__, pool))
    if not pool:
        raise SchedulingError(
            f"all {seen} candidate locations are excluded (confirmed dead)"
            if seen
            else "no candidate locations to place on"
        )
    keys = list(zip(map(move_bytes, pool), map(load, pool), pool))
    moved, busy, winner = min(keys)
    hint = 0
    if consumer_location is not None and winner != consumer_location:
        hint = output_size
        if hint and consumer_location in pool:
            there = keys[pool.index(consumer_location)]
            if there < (moved + hint, busy, winner):
                (moved, busy, winner), hint = there, 0
    return Quote(winner, moved, hint, busy)
