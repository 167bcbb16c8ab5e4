"""Import smoke tests: a missing module fails here with a clear message
instead of detonating five unrelated test modules at collection time
(the seed's original failure mode: ``No module named 'repro.dist'``)."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code: str) -> str:
    """Run ``code`` in a cold interpreter with ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()

#: Every module in the package, spelled out so a deletion is a visible
#: diff here - pkgutil walking below catches *additions* we forgot.
EXPECTED_MODULES = [
    "repro.analysis",
    "repro.analysis.lint",
    "repro.analysis.sync",
    "repro.baselines",
    "repro.baselines.base",
    "repro.baselines.calibration",
    "repro.baselines.faasm",
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
    "repro.core.frames",
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
    "repro.fixpoint.net",
    "repro.fixpoint.runtime",
    "repro.fixpoint.tracing",
    "repro.flatware",
    "repro.flatware.archive",
    "repro.flatware.asyncify",
    "repro.flatware.fs",
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


class TestOneImportPathPerName:
    """No package re-exports its submodules, so the import graph of
    ``src/repro`` is its module graph - and that graph needs no lazy
    loader to stay acyclic."""

    @staticmethod
    def _import_time_imports(tree):
        """Import nodes a module's body executes on import: function
        bodies and ``if TYPE_CHECKING:`` blocks are skipped."""
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node
            elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
                stack.extend(node.orelse)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _graph(cls):
        """module -> modules whose bodies must run first.  Importing
        ``a.b.c`` runs ``a`` and ``a.b`` too; a module's own ancestors
        are already executing, so they count only when it pulls a name
        out of one (``from repro import Fixpoint``)."""
        sources = {}
        for path in SRC.rglob("*.py"):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            if parts[-1] != "__main__":
                sources[".".join(parts)] = path

        def ancestors(name):  # "a.b.c" -> {"a", "a.b"}
            return {name[:i] for i, ch in enumerate(name) if ch == "."}

        graph = {}
        for name, path in sources.items():
            package = name if path.name == "__init__.py" else name.rpartition(".")[0]
            own, imported, pulled_from = ancestors(name), set(), set()
            for node in cls._import_time_imports(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported |= {alias.name for alias in node.names}
                    continue
                base = node.module or ""
                if node.level:
                    up = package.split(".")
                    up = up[: len(up) - node.level + 1]
                    base = ".".join(up + ([base] if base else []))
                for alias in node.names:
                    submodule = f"{base}.{alias.name}"
                    if submodule in sources:
                        imported.add(submodule)
                    else:
                        imported.add(base)
                        pulled_from.add(base)
            run_first = set().union(*(ancestors(m) | {m} for m in imported))
            graph[name] = (
                (run_first & sources.keys()) - own | (pulled_from & own)
            ) - {name}
        return graph

    def test_import_graph_is_acyclic(self):
        graph = self._graph()
        assert set(graph) == {"repro", *EXPECTED_MODULES}
        done, path = set(), []

        def visit(module):
            if module in done:
                return
            assert module not in path, " -> ".join(
                path[path.index(module):] + [module]
            )
            path.append(module)
            for dep in sorted(graph[module]):
                visit(dep)
            path.pop()
            done.add(module)

        for module in sorted(graph):
            visit(module)

    def test_no_package_has_a_lazy_loader(self):
        for init in SRC.rglob("__init__.py"):
            defined = {
                node.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.FunctionDef)
            }
            assert not defined & {"__getattr__", "__dir__"}, init

    @pytest.mark.parametrize(
        "first, second",
        [
            ("repro.baselines.base", "repro.dist.engine"),
            ("repro.dist.engine", "repro.baselines.base"),
        ],
    )
    def test_baselines_and_dist_import_in_either_order(self, first, second):
        """``dist.engine`` builds on ``baselines.base``, which consumes
        ``dist.graph``: a package-level re-export on either side would
        close that into a cycle only one import order survives."""
        assert _fresh_python(f"import {first}\nimport {second}\nprint('ok')") == "ok"

    def test_tracking_enabled_first_tracks_the_module_level_lock(self):
        """What ``conftest.pytest_configure`` relies on under ``--race``:
        importing ``repro.analysis.sync`` must not drag in
        ``fixpoint.net`` (through ``repro/__init__``) before tracking is
        on, or ``_TOPOLOGY_LOCK`` is a raw lock for the whole session."""
        code = (
            "from repro.analysis.sync import enable_tracking\n"
            "enable_tracking()\n"
            "from repro.fixpoint import net\n"
            "print(type(net._TOPOLOGY_LOCK).__name__)\n"
        )
        assert _fresh_python(code) == "_TrackedLock"


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
