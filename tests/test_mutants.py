"""``tools/mutants.py`` over a tree of its own, and its ``EQUIVALENT``
table against the real targets (generating mutants runs no test)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def load_tool(root=None, **tables):
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if root is not None:
        module.ROOT = root
        module.TARGETS = ("box.py",)
    for name, value in tables.items():
        setattr(module, name, value)
    return module


def ids_of(tmp_path, source):
    box = tmp_path / "src" / "repro" / "box.py"
    box.parent.mkdir(parents=True, exist_ok=True)
    # A regular package, so it shadows a ``repro`` installed elsewhere
    # on ``sys.path`` the way a copy of the real ``src/`` does.
    (box.parent / "__init__.py").write_text("")
    box.write_text(source)
    return [m.id for m in load_tool(tmp_path).mutants("box.py")]


BOX = (
    "def clamp(x, top):\n"
    "    if x > top:\n"
    "        return top\n"
    "    return x\n"
    "\n"
    "\n"
    "def label(x, top):\n"
    '    return "big" if x >= top else "small"\n'
)
TESTS = (
    "from repro.box import clamp, label\n"
    "\n"
    "assert clamp(5, 3) == 3  # at import: a mutant failing it fails collection\n"
    "\n"
    "\n"
    "def test_clamp():\n"
    "    assert clamp(5, 3) == 3\n"
    "    assert clamp(2, 3) == 2\n"
    "\n"
    "\n"
    "def test_label():\n"
    '    assert label(5, 3) == "big"\n'
)


class TestTheMutationTool:
    def test_each_operator(self, tmp_path):
        ids = ids_of(
            tmp_path,
            "def pick(a, b):\n"
            '    """A docstring is no statement to drop."""\n'
            "    total = a + 1\n"
            "    if a or not b:\n"
            "        pass\n"
            "    return (a < b, a <= b, a > b, a >= b, a == b, a != b,\n"
            "            a in b, a not in b, a is b, a is not b)\n",
        )
        flips = [
            ("<", "<="), ("<=", "<"), (">", ">="), (">=", ">"), ("==", "!="),
            ("!=", "=="), ("in", "not in"), ("not in", "in"), ("is", "is not"),
            ("is not", "is"),
        ]
        assert ids == [
            "box.pick: total = a + 1 -> return",
            "box.pick: total = a + 1 -> pass",
            "box.pick: a + 1 -> a + 2",
            "box.pick: if a or not b: -> pass",
            "box.pick: a or not b -> a and (not b)",
            "box.pick: not b -> b",
            "box.pick: return (a < b, a <= b, a > b, a >= b, a == b, a != b, "
            "a in b, a not in b, a is b, a is not b) -> pass",
        ] + [f"box.pick: a {op} b -> a {to} b" for op, to in flips]

    def test_a_repeated_edit_is_numbered_and_methods_are_qualified(self, tmp_path):
        ids = ids_of(
            tmp_path,
            "class Box:\n"
            "    def put(self, x):\n"
            "        return x\n"
            "\n"
            "    def twice(self, x):\n"
            "        self.put(x)\n"
            "        self.put(x)\n",
        )
        assert ids == [
            "box.Box.put: return x -> pass",
            "box.Box.twice: self.put(x) -> return",
            "box.Box.twice: self.put(x) -> pass",
            "box.Box.twice: self.put(x) -> pass #2",
        ]

    def test_a_line_inserted_above_keeps_every_id(self, tmp_path):
        source = "def f(a):\n    if a > 1:\n        return a\n    return 0\n"
        before = ids_of(tmp_path, source)
        after = ids_of(tmp_path, "LIMIT = 3\n\n\n" + source)
        assert after == before and len(before) == 6

    def test_verdicts_and_an_untouched_tree(self, tmp_path, capsys):
        ids_of(tmp_path, BOX)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_box.py").write_text(TESTS)
        files = {
            path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()
        }
        tool = load_tool(
            tmp_path,
            EQUIVALENT={"box.clamp: x > top -> x >= top": "at x == top both return top"},
        )
        found, verdicts, kills, tests = tool.campaign()
        assert verdicts == {
            "box.clamp: if x > top: -> return": "collection",
            "box.clamp: if x > top: -> pass": "collection",
            "box.clamp: x > top -> x >= top": "survived",
            "box.clamp: return top -> pass": "collection",
            "box.clamp: return x -> pass": "killed",
            "box.label: return 'big' if x >= top else 'small' -> pass": "killed",
            "box.label: x >= top -> x > top": "survived",
        }
        assert kills["box.clamp: return x -> pass"] == ["tests/test_box.py::test_clamp"]
        assert tool.report(found, verdicts, kills, tests) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (
            "# mutants: 7; killed 5; survived 2 (1 equivalent, 1 unexplained); "
            "stale EQUIVALENT entries: 0"
        )
        assert {
            path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()
        } == files


class TestEveryEquivalenceStillNamesAMutant:
    def test_every_entry_is_a_mutant_of_a_target(self):
        tool = load_tool()
        ids = {m.id for path in tool.TARGETS for m in tool.mutants(path)}
        assert sorted(set(tool.EQUIVALENT) - ids) == []

    def test_every_mutant_compiles(self):
        tool = load_tool()
        for path in tool.TARGETS:
            source = (tool.ROOT / "src" / "repro" / path).read_bytes()
            for mutant in tool.mutants(path):
                compile(tool.apply(source, mutant), path, "exec")
