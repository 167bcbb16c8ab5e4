"""Tests for ultra-high-density multitenancy packing (paper section 6)."""

from __future__ import annotations

import inspect
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SchedulingError
from repro.dist import multitenancy
from repro.dist.multitenancy import (
    AppProfile,
    Phase,
    density_ratio,
    fits_online,
    footprint_aware_packing,
    peak_reservation_packing,
    spiky_workload,
    validate_packing,
)

GB = 1 << 30


class TestProfiles:
    def test_profile_queries(self):
        app = AppProfile("a", (Phase(1.0, 4 * GB), Phase(9.0, 1 * GB)))
        assert app.peak_bytes == 4 * GB
        assert app.lifetime == 10.0
        assert app.memory_at(0.5) == 4 * GB
        assert app.memory_at(5.0) == 1 * GB
        assert app.memory_at(100.0) == 0
        assert app.mem_time_integral() == 1.0 * 4 * GB + 9.0 * 1 * GB

    def test_invalid_phases_rejected(self):
        with pytest.raises(SchedulingError):
            Phase(0.0, 1)
        with pytest.raises(SchedulingError):
            Phase(1.0, -1)
        with pytest.raises(SchedulingError):
            AppProfile("empty", ())


class TestPacking:
    def test_peak_packing_reserves_peaks(self):
        apps = [AppProfile(f"a{i}", (Phase(1.0, 3 * GB),)) for i in range(4)]
        packing = peak_reservation_packing(apps, capacity_bytes=8 * GB)
        assert packing.bin_count == 2  # 2 x 3 GB per 8 GB bin
        validate_packing(packing)

    def test_footprint_packing_interleaves_staggered_spikes(self):
        apps = spiky_workload(
            16, peak_bytes=4 * GB, sustained_bytes=256 << 20, stagger_slots=8
        )
        aware, peak, ratio = density_ratio(apps, capacity_bytes=8 * GB)
        assert ratio > 2.0, f"expected big density win, got {ratio}"
        assert aware.apps_per_bin() > peak.apps_per_bin()

    def test_aligned_spikes_cannot_overlap(self):
        # All spikes at t=0: profile knowledge cannot conjure capacity.
        apps = spiky_workload(
            8, peak_bytes=4 * GB, sustained_bytes=256 << 20, stagger_slots=1
        )
        aware, peak, ratio = density_ratio(apps, capacity_bytes=8 * GB)
        assert aware.bin_count == peak.bin_count  # 2 spikes per bin, both models

    def test_oversized_app_rejected(self):
        giant = AppProfile("g", (Phase(1.0, 100 * GB),))
        with pytest.raises(SchedulingError):
            peak_reservation_packing([giant], 8 * GB)
        with pytest.raises(SchedulingError):
            footprint_aware_packing([giant], 8 * GB)

    def test_validate_catches_bad_packing(self):
        from repro.dist.multitenancy import Packing

        a = AppProfile("a", (Phase(1.0, 6 * GB),))
        b = AppProfile("b", (Phase(1.0, 6 * GB),))
        bad = Packing(capacity_bytes=8 * GB, bins=[[a, b]])
        with pytest.raises(SchedulingError):
            validate_packing(bad)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),  # peak GB
                st.integers(min_value=0, max_value=2),  # sustained GB
                st.integers(min_value=0, max_value=5),  # offset slots
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_packings_always_valid_property(self, specs):
        apps = []
        for i, (peak_gb, sustained_gb, offset) in enumerate(specs):
            phases = []
            if offset:
                phases.append(Phase(float(offset), sustained_gb * GB))
            phases.append(Phase(1.0, peak_gb * GB))
            phases.append(Phase(3.0, min(sustained_gb, peak_gb) * GB))
            apps.append(AppProfile(f"app{i}", tuple(phases)))
        aware, peak, ratio = density_ratio(apps, capacity_bytes=8 * GB)
        # Both packings hold every app exactly once.
        for packing in (aware, peak):
            names = [a.name for members in packing.bins for a in members]
            assert sorted(names) == sorted(a.name for a in apps)
        # Footprint knowledge never needs MORE machines.
        assert aware.bin_count <= peak.bin_count


# ----------------------------------------------------------------------
# fits_online is the packing check, started late


def ref_fits_online(active, candidate, start, capacity_bytes):
    """``fits_online`` as it was, its own loop over the shifted
    breakpoints."""
    points = {start + t for t in candidate.breakpoints()}
    for profile, started_at in active:
        points.update(started_at + t for t in profile.breakpoints())
    for t in points:
        if t < start:
            continue
        total = candidate.memory_at(t - start) + sum(
            profile.memory_at(t - started_at)
            for profile, started_at in active
        )
        if total > capacity_bytes:
            return False
    return True


def ref_peak_demand(members):
    """The co-start peak as it was, before it took start offsets."""
    points = sorted({t for app in members for t in app.breakpoints()})
    worst = 0
    for t in points:
        worst = max(worst, sum(app.memory_at(t) for app in members))
    return worst


def fits_online_with(old, new):
    """``fits_online`` over a ``_peak_demand`` whose source has ``old``
    replaced by ``new``."""
    namespace = dict(vars(multitenancy))
    for function in (multitenancy._peak_demand, multitenancy.fits_online):
        source = textwrap.dedent(inspect.getsource(function))
        if function is multitenancy._peak_demand:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        code = "from __future__ import annotations\n" + source
        exec(compile(code, multitenancy.__file__, "exec"), namespace)
    return namespace["fits_online"]


#: Durations and starts that do not add up exactly in binary: 1/3 and
#: 0.1 shifted by 0.2 land between, not on, each other's breakpoints.
INSTANTS = st.sampled_from([0.0, 0.1, 0.2, 1 / 3, 0.5, 2 / 3, 1.0, 1.5, 2.0, 7.0])
PROFILES = st.lists(
    st.tuples(
        st.sampled_from([0.1, 0.2, 1 / 3, 0.5, 1.0, 2.5]), st.integers(0, 6)
    ),
    min_size=1,
    max_size=4,
).map(lambda phases: AppProfile("p", tuple(Phase(s, b) for s, b in phases)))
HISTORIES = st.tuples(
    st.lists(st.tuples(PROFILES, INSTANTS), max_size=4),
    PROFILES,
    INSTANTS,
    st.integers(0, 16),
)

SPIKE = AppProfile("spike", (Phase(1.0, 4), Phase(2.0, 1)))
#: Two spikes that overlapped above capacity before ``start``: only the
#: instants from ``start`` on decide, and from there the sum is 1+1+4.
LATE_CASES = [
    ([(SPIKE, 0.0), (SPIKE, 0.0)], SPIKE, 1.0, 6, True),
    ([(SPIKE, 0.0), (SPIKE, 1 / 3)], SPIKE, 4.0, 4, True),
    ([(SPIKE, 0.0)], SPIKE, 0.5, 5, False),
]


class TestFitsOnlineIsThePackingCheck:
    """``fits_online`` is ``_peak_demand`` over ``(profile, started_at)``
    members from ``start`` on; the reference is its own loop."""

    @settings(max_examples=300, deadline=None)
    @given(HISTORIES)
    def test_same_verdict_as_its_own_loop(self, history):
        active, candidate, start, capacity = history
        want = ref_fits_online(active, candidate, start, capacity)
        assert fits_online(active, candidate, start, capacity) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(PROFILES, max_size=5))
    def test_the_packings_peak_is_the_co_start_peak(self, apps):
        members = [(app, 0.0) for app in apps]
        assert multitenancy._peak_demand(members) == ref_peak_demand(apps)

    @pytest.mark.parametrize("case", range(len(LATE_CASES)))
    def test_the_cases_read_the_same(self, case):
        active, candidate, start, capacity, fits = LATE_CASES[case]
        assert ref_fits_online(active, candidate, start, capacity) is fits
        assert fits_online(active, candidate, start, capacity) is fits

    def test_the_oracle_catches_since_ignored(self):
        """Counting the instants before ``start`` rejects a candidate
        for a past overlap it cannot change."""
        ignores_since = fits_online_with("if t >= since", "")
        assert ignores_since is not fits_online
        with pytest.raises(AssertionError):
            for active, candidate, start, capacity, fits in LATE_CASES:
                assert ignores_since(active, candidate, start, capacity) is fits
