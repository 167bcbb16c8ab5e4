"""Import smoke tests: a missing module fails here with a clear message
instead of detonating five unrelated test modules at collection time
(the seed's original failure mode: ``No module named 'repro.dist'``)."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

#: Every module in the package, spelled out so a deletion is a visible
#: diff here - pkgutil walking below catches *additions* we forgot.
EXPECTED_MODULES = [
    "repro.analysis",
    "repro.analysis.callgraph",
    "repro.analysis.crosscheck",
    "repro.analysis.flow",
    "repro.analysis.lint",
    "repro.analysis.sync",
    "repro.baselines",
    "repro.baselines.base",
    "repro.baselines.calibration",
    "repro.baselines.faasm",
    "repro.baselines.kubernetes",
    "repro.baselines.linuxproc",
    "repro.baselines.minio",
    "repro.baselines.openwhisk",
    "repro.baselines.pheromone",
    "repro.baselines.ray",
    "repro.bench",
    "repro.bench.fig7a",
    "repro.bench.fig7b",
    "repro.bench.fig8a",
    "repro.bench.fig8b",
    "repro.bench.fig9",
    "repro.bench.fig10",
    "repro.bench.harness",
    "repro.bench.paperdata",
    "repro.bench.summary",
    "repro.bench.table2",
    "repro.codelets",
    "repro.codelets.linker",
    "repro.codelets.sandbox",
    "repro.codelets.stdlib",
    "repro.codelets.toolchain",
    "repro.core",
    "repro.core.api",
    "repro.core.attestation",
    "repro.core.data",
    "repro.core.errors",
    "repro.core.eval",
    "repro.core.gc",
    "repro.core.handle",
    "repro.core.limits",
    "repro.core.minrepo",
    "repro.core.serialize",
    "repro.core.storage",
    "repro.core.thunks",
    "repro.dist",
    "repro.dist.admission",
    "repro.dist.costmodel",
    "repro.dist.engine",
    "repro.dist.gossip",
    "repro.dist.graph",
    "repro.dist.membership",
    "repro.dist.multitenancy",
    "repro.dist.objectview",
    "repro.dist.scheduler",
    "repro.fixpoint",
    "repro.fixpoint.billing",
    "repro.fixpoint.jobs",
    "repro.fixpoint.net",
    "repro.fixpoint.runtime",
    "repro.fixpoint.tracing",
    "repro.flatware",
    "repro.flatware.archive",
    "repro.flatware.asyncify",
    "repro.flatware.fs",
    "repro.flatware.template",
    "repro.flatware.wasi",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.sim",
    "repro.sim.cluster",
    "repro.sim.engine",
    "repro.sim.network",
    "repro.sim.resources",
    "repro.sim.stats",
    "repro.sim.storage_service",
    "repro.workloads",
    "repro.workloads.bptree",
    "repro.workloads.chain",
    "repro.workloads.compilejob",
    "repro.workloads.corpus",
    "repro.workloads.oneoff",
    "repro.workloads.sebs",
    "repro.workloads.titles",
    "repro.workloads.wordcount",
]


@pytest.mark.parametrize("module_name", EXPECTED_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


def test_no_unlisted_modules():
    """New modules must be added to EXPECTED_MODULES (and keep importing)."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        found.add(info.name)
    unlisted = found - set(EXPECTED_MODULES)
    assert not unlisted, f"modules missing from EXPECTED_MODULES: {sorted(unlisted)}"


class TestDistExports:
    def test_all_names_resolve(self):
        """Every name in repro.dist.__all__ must actually exist (including
        the lazily-loaded engine exports)."""
        dist = importlib.import_module("repro.dist")
        missing = [name for name in dist.__all__ if not hasattr(dist, name)]
        assert not missing, f"repro.dist.__all__ names that fail: {missing}"

    def test_exports_match_public_surface(self):
        """__all__ covers exactly the public (non-underscore, non-module)
        names the package exposes."""
        dist = importlib.import_module("repro.dist")
        submodules = {
            "admission",
            "costmodel",
            "gossip",
            "graph",
            "membership",
            "objectview",
            "scheduler",
            "engine",
            "multitenancy",
        }
        public = {
            name
            for name in dir(dist)
            if not name.startswith("_")
            and name not in submodules
            and name not in {"annotations"}
        }
        assert public == set(dist.__all__)

    def test_dist_reachable_from_top_level(self):
        assert repro.dist.FixpointSim.build(nodes=1).name == "Fixpoint"

    def test_baselines_first_import_order(self):
        """Importing baselines before dist must not deadlock on the
        baselines <-> dist cycle (engine is lazy for exactly this)."""
        import repro.baselines  # noqa: F401
        import repro.dist  # noqa: F401

        assert repro.baselines.Platform is not None
        assert repro.dist.JobGraph is not None


class TestSpanRecorderTargets:
    """``benchmarks/perf/spans.py`` measures each layer *from outside*:
    it rebinds ``owner.__dict__[attr]`` for every ``TARGETS`` entry and
    relies on the runtime calling through that very binding.  A refactor
    that renames a target crashes the traced run; one that moves its
    caller out of ``fixpoint.net``'s namespace silently attributes 0 ms
    to a layer.  Both fail here, in seconds."""

    @staticmethod
    def _targets():
        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "perf" / "spans.py"
        )
        spec = importlib.util.spec_from_file_location("_perf_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        return spans.TARGETS

    def test_every_target_resolves_where_the_recorder_patches_it(self):
        for owner, attr, _layer in self._targets():
            assert attr in owner.__dict__, (owner, attr)

    def test_net_targets_are_reached_through_net_globals(self):
        """The recorder's rebinding is seen by any function whose
        ``__globals__`` is ``vars(net)`` - a ``FixpointNode`` method or a
        module-level codec (``pack_syn`` calling ``pack_digest``)."""
        from repro.fixpoint import net

        def global_names(code):
            names = set(code.co_names)
            for const in code.co_consts:
                if hasattr(const, "co_names"):  # nested def / comprehension
                    names |= global_names(const)
            return names

        functions = [
            fn
            for scope in (vars(net), vars(net.FixpointNode))
            for fn in scope.values()
            if hasattr(fn, "__code__") and fn.__module__ == net.__name__
        ]
        assert all(fn.__globals__ is vars(net) for fn in functions)
        reached = set().union(
            *(global_names(fn.__code__) for fn in functions)
        )
        for owner, attr, layer in self._targets():
            if owner is net:
                assert attr in reached, (
                    f"no function defined in net calls net.{attr} by its "
                    f"module-global name: the {layer} span would record 0"
                )
