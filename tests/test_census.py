"""Every definition and every settable value in ``src/repro`` is in use
outside the tests.

``tools/option_census.py --readers`` lists the functions, methods and
classes that only tests read; each one left must be excused in the
tool's ``KEPT`` table, and each ``KEPT`` entry must still excuse
something.  A bare name reads only a module-level definition, so a
parameter or local named like a method does not keep the method.

``tools/option_census.py`` lists the defaulted parameters and frozen
dataclass fields with fewer than two values in use at call sites in
``src/``, ``benchmarks/`` and ``examples/``; each one left must be
excused in ``KEPT_VALUES``, and each entry there must still excuse
something.  Omitting an argument or passing a constant equal to the
default passes the default, and a same-named forward (through
``**kwargs`` too) passes what reaches the forwarding parameter.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "option_census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("option_census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEveryDefinitionHasAReader:
    def test_no_definition_is_read_only_by_tests(self):
        unexplained, _stale = load_census().unread()
        assert [qual for qual, *_ in unexplained] == []

    def test_every_kept_entry_still_excuses_a_definition(self):
        _unexplained, stale = load_census().unread()
        assert stale == []

    def test_a_same_named_parameter_reads_no_method(self, tmp_path):
        source = tmp_path / "src" / "repro" / "box.py"
        source.parent.mkdir(parents=True)
        source.write_text(
            "class Box:\n"
            "    def meta(self):\n"
            "        return 1\n"
            "\n"
            "    def size(self):\n"
            "        return 2\n"
            "\n"
            "\n"
            "def grow(meta):\n"
            "    return meta + 1\n"
        )
        example = tmp_path / "examples" / "run.py"
        example.parent.mkdir()
        example.write_text(
            "from repro.box import grow\n"
            "\n"
            "meta = grow(3)\n"
            "print(Box().size())\n"
        )
        census = load_census()
        census.ROOT = tmp_path
        unexplained, _stale = census.unread()
        assert [qual for qual, *_ in unexplained] == ["repro.box.Box.meta"]

    def test_a_read_through_a_foreign_module_reads_nothing(self, tmp_path):
        source = tmp_path / "src" / "repro" / "gc.py"
        source.parent.mkdir(parents=True)
        source.write_text(
            "def collect(repo):\n"
            "    return 0\n"
            "\n"
            "\n"
            "def sweep(repo):\n"
            "    return 1\n"
            "\n"
            "\n"
            "def join(*parts):\n"
            "    return parts\n"
        )
        example = tmp_path / "examples" / "run.py"
        example.parent.mkdir()
        example.write_text(
            "import gc\n"
            "import os as system\n"
            "from os.path import join\n"
            "\n"
            "gc.collect()\n"
            "system.path.join('a', 'b')\n"
            "join('a', 'b')\n"
            "from repro.gc import sweep\n"
        )
        census = load_census()
        census.ROOT = tmp_path
        unexplained, _stale = census.unread()
        assert [qual for qual, *_ in unexplained] == [
            "repro.gc.collect",
            "repro.gc.join",
        ]


def flagged(tmp_path, files):
    """The values the census lists for a project of ``files`` (path ->
    source) under ``tmp_path``, with nothing kept."""
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    census = load_census()
    census.ROOT = tmp_path
    census.KEPT_VALUES = {}
    unexplained, _stale = census.unset()
    return unexplained


class TestEverySettableValueIsInUse:
    def test_no_value_is_unexplained(self):
        unexplained, _stale = load_census().unset()
        assert unexplained == []

    def test_every_kept_entry_still_excuses_a_value(self):
        _unexplained, stale = load_census().unset()
        assert stale == []

    def test_tests_are_not_callers(self, tmp_path):
        assert flagged(
            tmp_path,
            {
                "src/repro/box.py": "def grow(n, step=1):\n    return n + step\n",
                "examples/run.py": "from repro.box import grow\n\ngrow(3)\n",
                "tests/test_box.py": "from repro.box import grow\n\ngrow(3, step=2)\n",
            },
        ) == ["repro.box.grow(step)"]

    def test_a_constant_equal_to_the_default_is_the_default(self, tmp_path):
        assert flagged(
            tmp_path,
            {
                "src/repro/box.py": (
                    "def spiky(count, spike=1.0, tail=15.0):\n"
                    "    return count * (spike + tail)\n"
                ),
                "examples/run.py": (
                    "from repro.box import spiky\n"
                    "\n"
                    "spiky(3, spike=1.0, tail=16.0)\n"
                    "spiky(4)\n"
                ),
            },
        ) == ["repro.box.spiky(spike)"]

    def test_a_subclass_constructor_sets_its_bases_fields(self, tmp_path):
        assert flagged(
            tmp_path,
            {
                "src/repro/box.py": (
                    "from dataclasses import dataclass\n"
                    "\n"
                    "\n"
                    "@dataclass(frozen=True)\n"
                    "class Stats:\n"
                    "    sent: int = 0\n"
                    "    membership_bytes: int = 0\n"
                    "\n"
                    "\n"
                    "@dataclass(frozen=True)\n"
                    "class RoundStats(Stats):\n"
                    "    pairs: int = 0\n"
                ),
                "examples/run.py": (
                    "from repro.box import RoundStats, Stats\n"
                    "\n"
                    "Stats(5)\n"
                    "RoundStats(membership_bytes=7, pairs=2)\n"
                ),
            },
        ) == ["repro.box.RoundStats(pairs)"]

    def test_a_rebound_parameter_is_not_forwarded(self, tmp_path):
        assert flagged(
            tmp_path,
            {
                "src/repro/box.py": (
                    "def profile(graph, name='job'):\n"
                    "    return name\n"
                    "\n"
                    "\n"
                    "def submit(tenant, graph, name='job'):\n"
                    "    name = f'{tenant}-{len(graph)}'\n"
                    "    return profile(graph, name)\n"
                ),
                "examples/run.py": (
                    "from repro.box import submit\n"
                    "\n"
                    "submit('a', [1])\n"
                ),
            },
        ) == ["repro.box.submit(name)"]

    def test_a_forward_passes_what_reaches_it(self, tmp_path):
        """A same-named forward, through ``**kwargs`` too, passes on the
        values the forwarding function's callers pass."""
        assert flagged(
            tmp_path,
            {
                "src/repro/box.py": (
                    "class Platform:\n"
                    "    def __init__(self, obs=None, mode='a'):\n"
                    "        self.obs, self.mode = obs, mode\n"
                    "\n"
                    "    @classmethod\n"
                    "    def build(cls, nodes=1, seed=0, **kwargs):\n"
                    "        return cls(**kwargs), make(nodes, seed=seed)\n"
                    "\n"
                    "\n"
                    "def make(nodes, seed=0):\n"
                    "    return [seed] * nodes\n"
                ),
                "examples/run.py": (
                    "from repro.box import Platform\n"
                    "\n"
                    "Platform.build(nodes=2, mode='b')\n"
                    "Platform.build(nodes=3)\n"
                ),
            },
        ) == [
            "repro.box.Platform.__init__(obs)",
            "repro.box.Platform.build(seed)",
            "repro.box.make(seed)",
        ]
