"""Every definition in ``src/repro`` has a reader outside the tests.

``tools/option_census.py --readers`` lists the functions, methods and
classes that only tests read; each one left must be excused in the
tool's ``KEPT`` table, and each ``KEPT`` entry must still excuse
something.  A bare name reads only a module-level definition, so a
parameter or local named like a method does not keep the method.
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
