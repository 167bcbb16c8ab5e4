"""Section-6 end-to-end bench: multi-job admission on one shared cluster.

Two shapes, both on *executed* jobs (not synthetic profiles):

* **density** - a staggered-spike fleet admitted by the pointwise
  footprint check finishes the whole batch faster and reaches higher
  peak concurrency than the same fleet under the peak-reservation
  ablation (the acceptance ratio > 1);
* **fairness** - under deficit-round-robin a light tenant rides through
  a heavy tenant's burst with a bounded wait, where the single global
  FIFO queue makes it wait behind the entire burst.

The two ablations live here, as subclasses of the one controller, and
nowhere else: ``tests/test_admission.py`` and
``examples/admission_billing.py`` load them from this file by path.
"""

from __future__ import annotations

from repro.dist.admission import AdmissionController, spike_job
from repro.dist.engine import FixpointSim
from repro.dist.multitenancy import validate_timeline

GB = 1 << 30


class PeakReservation(AdmissionController):
    """The status quo footprint admission beats: every admitted job
    reserves its peak for its whole lifetime."""

    def _admits(self, ticket):
        reserved = sum(t.profile.peak_bytes for t in self._active)
        return reserved + ticket.profile.peak_bytes <= self.capacity_bytes

    def _schedule_retry(self):
        """A reservation frees only at completion: nothing to wake for."""


class GlobalFifo(AdmissionController):
    """One queue for every tenant: the head-of-line blocking that
    deficit round robin exists to avoid."""

    def _drain(self):
        while self._fifo and self._admits(self._fifo[0]):
            self._launch(self._fifo[0])
        if self._fifo:
            self._schedule_retry()


def _submit_spike_fleet(ctrl, tenants, jobs_per_tenant, step=0.5):
    for t, tenant in enumerate(tenants):
        for i in range(jobs_per_tenant):
            ctrl.submit(
                tenant,
                spike_job(location=f"node{(t + i) % 4}"),
                at=(t + i * len(tenants)) * step,
            )


def _run_density(controller):
    platform = FixpointSim.build(nodes=4, cores=16)
    ctrl = controller(platform, capacity_bytes=13 * GB)
    _submit_spike_fleet(ctrl, ["t0", "t1", "t2", "t3"], jobs_per_tenant=8)
    report = ctrl.run()
    validate_timeline(report.timeline, 13 * GB)
    return report


def test_admission_density(benchmark, run_once):
    def both():
        return _run_density(AdmissionController), _run_density(PeakReservation)

    aware, peak = run_once(benchmark, both)
    ratio = peak.makespan / aware.makespan
    print(
        f"peak reservation:  makespan {peak.makespan:7.1f}s, "
        f"max {peak.max_concurrent} concurrent\n"
        f"footprint-aware:   makespan {aware.makespan:7.1f}s, "
        f"max {aware.max_concurrent} concurrent\n"
        f"density headroom:  {ratio:.2f}x"
    )
    # The acceptance criterion: footprint-aware admission packs strictly
    # denser than the peak-reservation ablation on staggered spikes.
    assert ratio > 1.0
    assert aware.max_concurrent > peak.max_concurrent


def _run_fairness(controller):
    platform = FixpointSim.build(nodes=4, cores=16)
    ctrl = controller(platform, capacity_bytes=5 * GB)
    # A heavy tenant dumps a burst at t=0; a light tenant wants one job.
    for i in range(10):
        ctrl.submit("heavy", spike_job(location=f"node{i % 4}"))
    light = ctrl.submit("light", spike_job(location="node1"))
    ctrl.run()
    return light.queue_delay


def test_admission_fairness(benchmark, run_once):
    def both():
        return _run_fairness(AdmissionController), _run_fairness(GlobalFifo)

    drr_wait, fifo_wait = run_once(benchmark, both)
    print(
        f"light tenant wait behind a 10-job burst:\n"
        f"  global FIFO:          {fifo_wait:7.1f}s (the whole burst)\n"
        f"  deficit round robin:  {drr_wait:7.1f}s (its fair share)"
    )
    # DRR bounds the light tenant's wait to a fraction of the burst.
    assert drr_wait < fifo_wait / 3
