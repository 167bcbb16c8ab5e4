"""Section-6 extension bench: ultra-high-density multitenancy.

How many machines does a fleet of spiky serverless applications need
under peak reservation (status quo) vs footprint-aware packing (what
Fix's declared, time-varying footprints enable)?
"""

from __future__ import annotations

from repro.dist.multitenancy import density_ratio, spiky_workload

GB = 1 << 30


def test_density_headroom(benchmark, run_once):
    def pack():
        apps = spiky_workload(
            count=128,
            peak_bytes=4 * GB,
            sustained_bytes=256 << 20,
            stagger_slots=16,
        )
        return density_ratio(apps, capacity_bytes=16 * GB)

    aware, peak, ratio = run_once(benchmark, pack)
    print(
        f"peak reservation: {peak.bin_count} machines "
        f"({peak.apps_per_bin():.1f} apps/machine)\n"
        f"footprint-aware:  {aware.bin_count} machines "
        f"({aware.apps_per_bin():.1f} apps/machine)\n"
        f"density headroom: {ratio:.1f}x"
    )
    # Spiky fleets pack several times denser with profile knowledge.
    assert ratio >= 3.0
    # And the packing is *proven* valid at every instant (validated in
    # density_ratio) - density never comes from overcommitting.
