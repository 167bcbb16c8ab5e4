"""Every definition in ``src/repro`` has a reader outside the tests.

``tools/option_census.py --readers`` lists the functions, methods and
classes that only tests read; each one left must be excused in the
tool's ``KEPT`` table, and each ``KEPT`` entry must still excuse
something.
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
