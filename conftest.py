"""Repo-wide pytest wiring: the benchmark suite is opt-in.

``benchmarks/bench_*.py`` regenerate the paper's tables/figures and
assert their *shape*; they are orders of magnitude slower than the unit
suite, so plain ``pytest`` collects them (they stay visible and
importable) but skips them.  Opt in with::

    pytest --benchmarks            # everything
    pytest benchmarks/ --benchmarks -m bench   # just the figures

CI runs the opt-in suite on a schedule (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--benchmarks",
        action="store_true",
        default=False,
        help="run the paper-figure benchmark suite (benchmarks/bench_*.py)",
    )
    parser.addoption(
        "--race",
        action="store_true",
        default=False,
        help=(
            "enable the repro.analysis lock-order tracker for the whole "
            "run: every TrackedLock site feeds the acquisition graph, and "
            "a test fails if a lock-order inversion or hold-while-blocking "
            "event is recorded while it runs (see repro/analysis/sync.py)"
        ),
    )


def pytest_configure(config):
    if config.getoption("--race"):
        # Enable *before* collection imports the src tree: the tracked
        # factories bind a lock to the tracker at creation time, so the
        # tracker must exist before the system under test builds locks.
        from repro.analysis.sync import enable_tracking

        config._race_tracker = enable_tracking()


@pytest.fixture(autouse=True)
def _race_clean(request):
    """Under ``--race``: fail the test during which the suite-wide
    tracker recorded a new inversion or hold-while-blocking event, with
    those reports.  Failing here, rather than at session end, stops
    ``-x`` at the test that made the hazard - before a later test can
    wedge on it and take the report down with the process.

    Tests that *intentionally* reconstruct deadlocks (test_analysis.py)
    run them against private ``LockTracker`` instances via
    ``tracking(...)``, so the suite-wide tracker only sees the real
    system's behavior.
    """
    tracker = getattr(request.config, "_race_tracker", None)
    if tracker is None:
        yield
        return
    before = tracker.report()
    yield
    after = tracker.report()
    new = [
        *after.cycles[len(before.cycles):],
        *after.blocking[len(before.blocking):],
    ]
    if new:
        pytest.fail(
            "--race found concurrency hazards:\n"
            + "\n".join(hazard.format() for hazard in new),
            pytrace=False,
        )


def pytest_sessionfinish(session, exitstatus):
    # A hazard recorded outside any test (a module fixture's teardown)
    # still fails the run.
    tracker = getattr(session.config, "_race_tracker", None)
    if tracker is not None and not tracker.report().clean and exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tracker = getattr(config, "_race_tracker", None)
    if tracker is not None:
        terminalreporter.write_sep("-", "race detector (--race)")
        terminalreporter.write_line(tracker.report().format())


def pytest_collection_modifyitems(config, items):
    bench_root = config.rootpath / "benchmarks"
    opted_in = config.getoption("--benchmarks")
    skip = pytest.mark.skip(
        reason="benchmark suite is opt-in: pass --benchmarks"
    )
    for item in items:
        if bench_root not in item.path.parents:
            continue
        item.add_marker(pytest.mark.bench)
        if not opted_in:
            item.add_marker(skip)
