"""Tests for the section-6 extensions: computational GC, pay-for-results
billing, signed results, and Asyncify continuation capture."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.attestation import (
    AttestationError,
    Auditor,
    Provider,
    sign,
    verify,
)
from repro.core.errors import MissingObjectError
from repro.core.eval import Evaluator
from repro.core.gc import (
    RecoveringRepository,
    collect,
    index_from_repository,
)
from repro.core.thunks import (
    make_identification,
    make_selection,
    make_selection_range,
    strict,
)
from repro.codelets.stdlib import int_blob
from repro.fixpoint.billing import (
    MAX_DEADLINE_DISCOUNT,
    Bill,
    BillingError,
    InvocationMeter,
    bill_effort,
    bill_results,
    job_bill,
)
from repro.fixpoint.runtime import Fixpoint
from repro.flatware.asyncify import compile_io_program, run_io_program


class TestComputationalGC:
    def _populate(self, repo):
        """Store a blob reachable through a memoized selection."""
        evaluator = Evaluator(repo)
        payload = b"recomputable" * 10
        base = repo.put_blob(payload)
        target = repo.put_tree([base])
        encode = strict(make_selection(repo, target, 0))
        result = evaluator.eval_encode(encode)
        return base, target, encode, result

    def test_index_learns_recipes(self, repo):
        base, target, encode, result = self._populate(repo)
        index = index_from_repository(repo)
        assert index.recoverable(result)
        assert index.recipe_for(result) == encode

    def test_collect_frees_recoverable_bytes(self, repo):
        base, target, encode, result = self._populate(repo)
        index = index_from_repository(repo)
        report = collect(repo, index, target_bytes=1)
        assert report.bytes_freed > 0
        assert not repo.contains(base)

    def test_unrecoverable_data_never_evicted(self, repo):
        orphan = repo.put_blob(b"no recipe for me" * 4)
        index = index_from_repository(repo)
        report = collect(repo, index, 10**9)
        assert repo.contains(orphan)
        assert report.kept_unrecoverable >= 1

    def test_recovery_on_demand(self):
        repo = RecoveringRepository()
        evaluator = Evaluator(repo)
        source = repo.put_blob(b"....bring me back...." * 8)  # stays resident
        encode = strict(make_selection_range(repo, source, 4, 104))
        derived = evaluator.eval_encode(encode)
        payload = repo.get_blob(derived).data
        repo.set_recompute(
            lambda recipe: Evaluator(repo, memoize=False).eval_encode(recipe)
        )
        assert repo.forget_data(derived)
        # The datum is gone... and comes back through its recipe.
        assert repo.get_blob(derived).data == payload
        assert repo.recoveries == 1

    def test_recovery_through_an_application(self):
        """A forgotten codelet output is recomputed by re-invocation."""
        repo = RecoveringRepository()
        fp = Fixpoint(repo=repo)
        doubler = fp.compile(
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    return fix.create_blob(fix.read_blob(entries[2]) * 2)\n",
            "doubler",
        )
        arg = repo.put_blob(b"y" * 40)
        encode = fp.invoke(doubler, [arg]).wrap_strict()
        result = fp.eval(encode)
        # Recovery must bypass every cache and truly re-invoke.
        repo.set_recompute(
            lambda recipe: Evaluator(
                repo, apply_fn=fp._apply, memoize=False
            ).eval_encode(recipe)
        )
        assert repo.forget_data(result)
        invocations_before = fp.trace.invocation_count("doubler")
        assert repo.get_blob(result).data == b"y" * 80
        assert repo.recoveries == 1
        assert fp.trace.invocation_count("doubler") == invocations_before + 1

    def test_recovery_without_recipe_fails(self):
        repo = RecoveringRepository()
        repo.set_recompute(lambda recipe: recipe)
        orphan = repo.put_blob(b"x" * 100)
        repo.forget_data(orphan)
        with pytest.raises(MissingObjectError):
            repo.get(orphan)


class TestBilling:
    METER = InvocationMeter(
        input_bytes=100 << 20,
        reserved_memory_bytes=1 << 30,
        user_cpu_seconds=0.5,
        bytes_mapped=100 << 20,
        wall_seconds=0.6,
    )

    def test_results_bill_components(self):
        bill = bill_results(self.METER)
        assert bill.upfront > 0
        assert bill.runtime > 0
        assert bill.total == pytest.approx(bill.upfront + bill.runtime)

    def test_effort_scales_with_wall_clock(self):
        slow = InvocationMeter(
            self.METER.input_bytes,
            self.METER.reserved_memory_bytes,
            self.METER.user_cpu_seconds,
            self.METER.bytes_mapped,
            wall_seconds=6.0,  # 10x worse placement
        )
        assert bill_effort(slow).total == pytest.approx(
            10 * bill_effort(self.METER).total
        )

    def test_results_bill_immune_to_wall_clock(self):
        slow = InvocationMeter(
            self.METER.input_bytes,
            self.METER.reserved_memory_bytes,
            self.METER.user_cpu_seconds,
            self.METER.bytes_mapped,
            wall_seconds=6.0,
        )
        assert bill_results(slow).total == pytest.approx(
            bill_results(self.METER).total
        )

    def test_deadline_discount(self):
        relaxed = InvocationMeter(
            self.METER.input_bytes,
            self.METER.reserved_memory_bytes,
            self.METER.user_cpu_seconds,
            self.METER.bytes_mapped,
            self.METER.wall_seconds,
            deadline_slack_hours=4.0,
        )
        assert bill_results(relaxed).total < bill_results(self.METER).total

    def test_discount_capped(self):
        very_relaxed = InvocationMeter(
            1, 1, 0.001, 1, 0.001, deadline_slack_hours=1000.0
        )
        bill = bill_results(very_relaxed)
        assert bill.total >= (bill.upfront + bill.runtime) * 0.5 - 1e-12

    def test_job_bill_models(self):
        meters = [self.METER] * 3
        assert job_bill(meters, "results") == pytest.approx(
            3 * bill_results(self.METER).total
        )
        assert job_bill(meters, "effort") == pytest.approx(
            3 * bill_effort(self.METER).total
        )
        with pytest.raises(BillingError):
            job_bill(meters, "vibes")

    def test_negative_meter_rejected(self):
        with pytest.raises(BillingError):
            InvocationMeter(-1, 0, 0, 0, 0)

    def test_placement_immunity_ratio_is_computed(self):
        """The same invocation placed well (0.6 s) and badly (6 s): the
        effort bill scales with the wall-clock blow-up, the results bill
        does not move - both measured from the bills themselves."""
        good = replace(self.METER, wall_seconds=0.6)
        bad = replace(self.METER, wall_seconds=6.0)
        assert bill_effort(bad).total == pytest.approx(
            10.0 * bill_effort(good).total
        )
        assert bill_results(bad) == bill_results(good)

    def test_immunity_ratio_zero_compute_meter(self):
        """A meter with no billable work bills nothing under either
        model, however long placement made it wait."""
        for wall in (1.0, 10.0):
            nothing = InvocationMeter(0, 0, 0.0, 0, wall)
            assert bill_results(nothing).total == 0.0
            assert bill_effort(nothing).total == 0.0

    def test_immunity_ratio_rejects_bad_walls(self):
        with pytest.raises(BillingError):
            replace(self.METER, wall_seconds=-1.0)

    def test_discount_clamped_exactly_at_cap(self):
        """Past the cap, the discount is exactly MAX_DEADLINE_DISCOUNT of
        the pre-discount charge - not a fraction more."""
        capped = InvocationMeter(
            self.METER.input_bytes,
            self.METER.reserved_memory_bytes,
            self.METER.user_cpu_seconds,
            self.METER.bytes_mapped,
            self.METER.wall_seconds,
            deadline_slack_hours=1_000.0,
        )
        bill = bill_results(capped)
        assert bill.discount == pytest.approx(
            (bill.upfront + bill.runtime) * MAX_DEADLINE_DISCOUNT
        )
        assert bill.total == pytest.approx(
            (bill.upfront + bill.runtime) * (1 - MAX_DEADLINE_DISCOUNT)
        )

    def test_bill_total_floors_at_zero(self):
        """A discount larger than the charge never produces a negative
        bill - the provider eats it, the customer owes nothing."""
        assert Bill(upfront=0.1, runtime=0.2, discount=5.0).total == 0.0


class TestAttestation:
    def _provider(self, fixpoint, name="Z", key=b"secret-key"):
        return Provider(name, key, lambda encode: fixpoint.eval(encode))

    def _encode(self, fixpoint):
        a = fixpoint.repo.put_blob(int_blob(20, 1))
        b = fixpoint.repo.put_blob(int_blob(22, 1))
        return fixpoint.invoke(fixpoint.stdlib["add_u8"], [a, b]).wrap_strict()

    def test_sign_and_verify(self, fixpoint):
        provider = self._provider(fixpoint)
        attestation = provider.run(self._encode(fixpoint))
        assert verify(attestation, b"secret-key")
        assert not verify(attestation, b"wrong-key")
        assert fixpoint.repo.get_blob(attestation.result).data == int_blob(42, 1)

    def test_tampered_result_fails_verification(self, fixpoint):
        provider = self._provider(fixpoint)
        attestation = provider.run(self._encode(fixpoint))
        forged = sign(
            "Z", b"attacker-key", attestation.encode, attestation.result
        )
        assert not verify(forged, b"secret-key")

    def test_auditor_confirms_honest_provider(self, fixpoint):
        provider = self._provider(fixpoint)
        reference = self._provider(fixpoint, name="ref", key=b"ref-key")
        auditor = Auditor(reference)
        finding = auditor.observe(provider.run(self._encode(fixpoint)), b"secret-key")
        assert finding is None
        assert auditor.checked == 1

    def test_auditor_catches_wrong_answer(self, fixpoint):
        encode = self._encode(fixpoint)
        wrong = fixpoint.repo.put_blob(b"\x00")
        lying = sign("liar", b"liar-key", encode, wrong)
        reference = self._provider(fixpoint, name="ref", key=b"ref-key")
        auditor = Auditor(reference)
        finding = auditor.observe(lying, b"liar-key")
        assert finding is not None
        assert finding.recomputed != wrong

    def test_auditor_rejects_bad_signature(self, fixpoint):
        encode = self._encode(fixpoint)
        wrong_sig = sign("Z", b"not-the-key", encode, encode.definition())
        auditor = Auditor(self._provider(fixpoint))
        with pytest.raises(AttestationError):
            auditor.observe(wrong_sig, b"the-real-key")


LINKED_LIST_WALK = '''\
def io_main(fix, args, env):
    """Blocking-style linked-list walk (the paper's Listing 2 shape)."""
    hops = int.from_bytes(args, "little")
    nodes = fix.read_tree(env)
    node = yield nodes[0]
    for _ in range(hops):
        pair = fix.read_tree(node)
        node = yield pair[1]
    pair = fix.read_tree(node)
    value = yield pair[0]
    return value
'''

NO_IO_PROGRAM = '''\
def io_main(fix, args, env):
    return fix.create_blob(args[::-1])
    yield  # make it a generator; never reached
'''


class TestAsyncify:
    def _build_list(self, fixpoint, length):
        """value_i -> node_i; node_i = [value_ref, next_ref]."""
        repo = fixpoint.repo
        tail = repo.put_tree([])
        node = tail
        for i in reversed(range(length)):
            value = repo.put_blob(b"item-%d!" % i + b"x" * 40)
            node = repo.put_tree([value.as_ref(), node.as_ref()])
        return node

    def test_walks_list_with_automatic_splitting(self, fixpoint):
        head = self._build_list(fixpoint, 6)
        program = compile_io_program(fixpoint, LINKED_LIST_WALK, "walk")
        env = [head.make_identification().wrap_shallow()]
        result = run_io_program(
            fixpoint, program, int_blob(3), [strict(make_identification(head))]
        )
        assert fixpoint.repo.get_blob(result).data.startswith(b"item-3!")

    def test_invocation_count_tracks_io_points(self, fixpoint):
        head = self._build_list(fixpoint, 5)
        program = compile_io_program(fixpoint, LINKED_LIST_WALK, "walk")
        before = fixpoint.trace.invocation_count("walk")
        run_io_program(
            fixpoint, program, int_blob(2), [strict(make_identification(head))]
        )
        after = fixpoint.trace.invocation_count("walk")
        # hops + head + value = 4 I/O points -> 5 invocations (one per
        # suspension plus the final completed run).
        assert after - before == 5

    def test_program_without_io(self, fixpoint):
        program = compile_io_program(fixpoint, NO_IO_PROGRAM, "pure")
        result = run_io_program(fixpoint, program, b"abc", [])
        assert fixpoint.repo.get_blob(result).data == b"cba"

    def test_deterministic_replay_memoizes(self, fixpoint):
        head = self._build_list(fixpoint, 4)
        program = compile_io_program(fixpoint, LINKED_LIST_WALK, "walk")
        args = int_blob(1)
        env = [strict(make_identification(head))]
        first = run_io_program(fixpoint, program, args, env)
        count_after_first = fixpoint.trace.invocation_count("walk")
        second = run_io_program(fixpoint, program, args, env)
        assert first == second
        # The whole chain is memoized: zero new invocations.
        assert fixpoint.trace.invocation_count("walk") == count_after_first
