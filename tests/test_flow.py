"""repro.analysis.flow: the interprocedural static layer.

Companion to tests/test_analysis.py.  There the historical deadlocks
(PR 4's one-worker dispatch wedge, PR 5's double-dial) are
reconstructed as *dynamic* miniatures under a live ``LockTracker``
(``TestHistoricalDeadlocks``); here the same two shapes are detected
from **source alone** - no thread ever runs - with call-chain witnesses
naming every edge.  The two suites are the two halves of one contract:
what the tracker can observe, the flow analysis must be able to derive
(``conftest.py`` asserts exactly that under ``--race``).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import build_program
from repro.analysis.crosscheck import CrossCheck, crosscheck
from repro.analysis.flow import analyze_source, analyze_tree, main
from repro.analysis.sync import LockTracker, base_label

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def report(source: str, relpath: str = "mod.py"):
    return analyze_source(source, relpath)


def rules(r):
    return [f.rule for f in r.findings]


@pytest.fixture(scope="module")
def src_report():
    """One flow analysis of the real tree, shared by the src-level tests."""
    return analyze_tree([SRC])


# ----------------------------------------------------------------------
# may-block and hold-blocking


class TestMayBlock:
    def test_direct_blocking_fact(self):
        r = report("import time\ndef nap():\n    time.sleep(1)\n")
        assert r.may_block.get("mod.nap") == "time.sleep"
        # blocking with no lock held is an effect, not a finding
        assert r.findings == []

    def test_transitive_propagation(self):
        src = (
            "import time\n"
            "def a():\n    b()\n"
            "def b():\n    c()\n"
            "def c():\n    time.sleep(0)\n"
        )
        r = report(src)
        assert r.may_block.get("mod.a") == "time.sleep"

    def test_hold_blocking_three_frames_down(self):
        src = '''
from repro.analysis.sync import TrackedLock
import time

class Pool:
    def __init__(self):
        self._lock = TrackedLock(name="Pool.lock")

    def flush(self):
        with self._lock:
            self._drain()

    def _drain(self):
        self._settle()

    def _settle(self):
        time.sleep(0.1)
'''
        r = report(src, "pool.py")
        assert rules(r) == ["hold-blocking"]
        f = r.findings[0]
        assert "Pool.lock" in f.message and "time.sleep" in f.message
        chain = "\n".join(f.chain)
        # the witness walks every frame from the lock to the sleep
        assert "Pool.flush" in chain
        assert "Pool._drain" in chain
        assert "Pool._settle" in chain
        assert chain.index("Pool.flush") < chain.index("Pool._settle")

    WORKER = (
        "import time\n"
        "class Worker:\n"
        "    def slow(self):\n"
        "        time.sleep(1)"
    )

    #: The lexical shapes lint's deleted ``lock-held-blocking`` rule
    #: decided, as the body of a method on a class with a tracked lock:
    #: (import line, method body, expected blocking sites).
    LEXICAL = {
        "sleep-result-join": (
            "import time",
            """
            with self._lock:
                time.sleep(1)
                self.future.result()
                self.thread.join()
            """,
            ["time.sleep", ".result()", ".join()"],
        ),
        "aliased-sleep": (
            "from time import sleep as pause",
            """
            with self._lock:
                pause(0.1)
            """,
            ["time.sleep"],
        ),
        "blocking-after-the-lock-is-released": (
            "import time",
            """
            with self._lock:
                x = 1
            time.sleep(0)
            self.future.result()
            """,
            [],
        ),
        # string plumbing, not a thread join
        "str-join": (
            "SEP = ':'",
            """
            with self._lock:
                a = ', '.join(parts)
                b = SEP.join(p for p in parts)
            """,
            [],
        ),
        # a callback built under the lock does not run under it
        "lambda-under-lock": (
            "",
            """
            with self._lock:
                cb = lambda: self.future.result()
                self.spawn(cb)
            """,
            [],
        ),
        # A container of workers types the same whether it is bound to
        # an attribute or to a local: one walker evaluates both.
        "attribute-dict-of-workers": (
            WORKER,
            """
            self.table = {"w": Worker()}
            with self._lock:
                self.table["w"].slow()
            """,
            ["time.sleep"],
        ),
        "local-dict-of-workers": (
            WORKER,
            """
            table = {"w": Worker()}
            with self._lock:
                table["w"].slow()
            """,
            ["time.sleep"],
        ),
        "local-list-of-workers": (
            WORKER,
            """
            workers = [Worker()]
            with self._lock:
                for w in workers:
                    w.slow()
            """,
            ["time.sleep"],
        ),
    }

    @pytest.mark.parametrize("shape", sorted(LEXICAL))
    def test_lexical_blocking_shapes_under_a_tracked_lock(self, shape):
        imports, body, expected = self.LEXICAL[shape]
        src = (
            f"{imports}\n"
            "from repro.analysis.sync import TrackedLock\n"
            "class N:\n"
            "    def __init__(self):\n"
            "        self._lock = TrackedLock(name='N.lock')\n"
            "    def f(self, parts):\n"
            + textwrap.indent(textwrap.dedent(body), " " * 8)
        )
        r = report(src)
        assert r.errors == []
        assert rules(r) == ["hold-blocking"] * len(expected)
        assert [u.reason for u in r.unresolved if "slow" in u.callee] == []
        for finding, site in zip(r.findings, expected):
            # "f blocks on <site> while holding" directly, or "f calls
            # <callee> while holding ..., and it blocks on <site> down ..."
            assert f"blocks on {site} " in finding.message
            assert "while holding ['N.lock']" in finding.message

    def test_condition_wait_exempts_its_own_lock(self):
        src = '''
from repro.analysis.sync import TrackedCondition

class Q:
    def __init__(self):
        self._cond = TrackedCondition(name="Q.cond")

    def get(self):
        with self._cond:
            while self._empty():
                self._cond.wait()

    def _empty(self):
        return True
'''
        assert report(src, "q.py").findings == []

    def test_condition_wait_under_a_foreign_lock_still_flags(self):
        src = '''
from repro.analysis.sync import TrackedCondition, TrackedLock

class Q:
    def __init__(self):
        self._lock = TrackedLock(name="Q.lock")
        self._cond = TrackedCondition(name="Q.cond")

    def bad(self):
        with self._lock:
            with self._cond:
                self._cond.wait()
'''
        r = report(src, "q.py")
        hold = [f for f in r.findings if f.rule == "hold-blocking"]
        assert len(hold) == 1
        # the foreign lock is held across the wait; the condition's own
        # lock is not (the wait releases it - that is the point)
        assert "Q.lock" in hold[0].message
        assert "Q.cond" not in hold[0].message

    def test_hold_blocking_suppression(self):
        src = (
            "from repro.analysis.sync import TrackedLock\n"
            "import time\n"
            "LOCK = TrackedLock(name='L')\n"
            "def f():\n"
            "    with LOCK:\n"
            "        time.sleep(0)  # flow: skip[hold-blocking] warm-up only\n"
        )
        assert report(src).findings == []
        # the wrong rule name does not suppress
        wrong = src.replace("skip[hold-blocking]", "skip[lock-cycle]")
        assert rules(report(wrong)) == ["hold-blocking"]


# ----------------------------------------------------------------------
# The historical deadlocks, detected from source alone


PR4_DISPATCH = '''
from repro.analysis.sync import TrackedLock


class Peer:
    """PR 4's one-worker dispatch wedge: the frame-k serve task owns its
    delivery turn and needs the worker slot; the worker occupies the
    slot and parks waiting for frame k's turn.  Two resources, opposite
    orders."""

    def __init__(self):
        self._worker_slot = TrackedLock(name="peer-worker-slot")
        self._frame_k_turn = TrackedLock(name="frame-k-delivery-turn")

    def serve_frame_k(self):
        with self._frame_k_turn:
            self._run_on_worker()

    def _run_on_worker(self):
        with self._worker_slot:
            pass

    def worker_loop(self):
        with self._worker_slot:
            self._await_turn()

    def _await_turn(self):
        with self._frame_k_turn:
            pass
'''


PR5_DOUBLE_DIAL = '''
from repro.analysis.sync import TrackedLock


class Node:
    """PR 5's double-dial: ``alpha.connect(beta)`` races
    ``beta.connect(alpha)``; per-node peer locks nest in both orders
    across the two instances."""

    def __init__(self):
        self._peers = TrackedLock(name="node.peers")

    def connect(self, other: "Node"):
        with self._peers:
            other._accept()

    def _accept(self):
        with self._peers:
            pass
'''


class TestHistoricalDeadlocksStatic:
    """Static editions of test_analysis.py's dynamic miniatures."""

    def test_pr4_dispatch_wedge_found_from_source(self):
        r = report(PR4_DISPATCH, "peer.py")
        cycles = [f for f in r.findings if f.rule == "lock-cycle"]
        assert len(cycles) == 1, "\n".join(f.format() for f in r.findings)
        f = cycles[0]
        assert "peer-worker-slot" in f.message
        assert "frame-k-delivery-turn" in f.message
        chain = "\n".join(f.chain)
        # every cycle edge is named, with its interprocedural witness
        assert "edge frame-k-delivery-turn -> peer-worker-slot:" in chain
        assert "edge peer-worker-slot -> frame-k-delivery-turn:" in chain
        assert "Peer.serve_frame_k" in chain and "Peer._run_on_worker" in chain
        assert "Peer.worker_loop" in chain and "Peer._await_turn" in chain

    def test_pr5_double_dial_found_from_source(self):
        r = report(PR5_DOUBLE_DIAL, "node.py")
        cycles = [f for f in r.findings if f.rule == "lock-cycle"]
        assert len(cycles) == 1, "\n".join(f.format() for f in r.findings)
        f = cycles[0]
        # the instance-symmetric self-cycle: one label, two instances
        assert "node.peers" in f.message
        assert "instance-symmetric" in f.message
        assert "double-dial" in f.message
        chain = "\n".join(f.chain)
        assert "Node.connect" in chain and "Node._accept" in chain

    def test_pr5_shape_on_an_rlock_is_not_flagged(self):
        # Label-level analysis cannot tell reentry on one instance from
        # nesting across two; RLock self-edges are skipped by design.
        src = PR5_DOUBLE_DIAL.replace("TrackedLock", "TrackedRLock")
        r = report(src, "node.py")
        assert [f for f in r.findings if f.rule == "lock-cycle"] == []

    def test_lock_cycle_suppression_on_a_witness_head(self):
        # the justification may sit on any line heading a cycle witness
        src = PR4_DISPATCH.replace(
            "            self._run_on_worker()",
            "            self._run_on_worker()"
            "  # flow: skip[lock-cycle] wire order == queue order",
        )
        assert src != PR4_DISPATCH
        r = report(src, "peer.py")
        assert [f for f in r.findings if f.rule == "lock-cycle"] == []


# ----------------------------------------------------------------------
# Call-graph edge cases: documented blind spots, never crashes


class TestCallGraphEdgeCases:
    def test_decorated_functions_are_modeled(self):
        src = (
            "import functools\n"
            "def deco(fn):\n"
            "    @functools.wraps(fn)\n"
            "    def inner(*a, **k):\n"
            "        return fn(*a, **k)\n"
            "    return inner\n"
            "@deco\n"
            "def target():\n"
            "    pass\n"
            "def caller():\n"
            "    target()\n"
        )
        r = report(src)
        assert r.errors == [] and r.findings == []

    def test_dict_stored_callables_are_unresolved_not_a_crash(self):
        src = (
            'HANDLERS = {"x": lambda: 1}\n'
            "def dispatch(key):\n"
            "    return HANDLERS[key]()\n"
        )
        r = report(src)
        assert r.errors == [] and r.findings == []
        reasons = {u.reason for u in r.unresolved}
        assert "container-callable" in reasons

    def test_opaque_parameters_are_unresolved_not_a_crash(self):
        src = "def indirect(fn):\n    return fn()\n"
        r = report(src)
        assert r.errors == []
        assert {u.reason for u in r.unresolved} == {"unknown-name"}

    def test_lambda_bodies_are_walked_standalone(self):
        # a lambda registered as a callback creates no call edge at the
        # registration site, but its body is still analyzed
        src = (
            "import time\n"
            "def f(spawn):\n"
            "    spawn(lambda: time.sleep(1))\n"
        )
        r = report(src)
        assert r.errors == []
        assert any("<lambda" in q for q in r.may_block)

    def test_syntax_error_is_reported_not_raised(self):
        r = report("def broken(:\n")
        assert r.errors and not r.clean

    def test_unreadable_file_is_reported_not_analysed_as_empty(
        self, tmp_path
    ):
        (tmp_path / "good.py").write_text("def f():\n    pass\n")
        (tmp_path / "gone.py").symlink_to(tmp_path / "nowhere.py")
        (tmp_path / "latin.py").write_bytes(b"x = '\xe9'\n")
        program = build_program([tmp_path])
        assert [Path(m).name for m in program.modules] == ["good.py"]
        assert len(program.errors) == 2
        assert "gone.py" in program.errors[0]
        assert "latin.py" in program.errors[1]
        r = analyze_tree([tmp_path])
        assert r.functions == 1 and not r.clean


# ----------------------------------------------------------------------
# The real tree


class TestSrcTree:
    def test_src_tree_is_flow_clean(self, src_report):
        assert src_report.errors == []
        assert src_report.findings == [], "\n".join(
            f.format() for f in src_report.findings
        )

    def test_src_static_graph_speaks_tracker_labels(self, src_report):
        # the same creation-site vocabulary the runtime tracker uses
        assert "FixpointNode._lock" in src_report.labels
        assert "Channel._cond" in src_report.labels
        assert "JobQueue._lock" in src_report.labels
        for src_label, dst_label in src_report.edge_pairs():
            assert src_label in src_report.labels
            assert dst_label in src_report.labels

    def test_src_derives_the_send_path_order(self, src_report):
        # FixpointNode.send: channel entered while the node lock is held
        assert (
            "FixpointNode._lock",
            "Channel._cond",
        ) in src_report.edge_pairs()

    def test_src_static_graph_is_the_committed_one(self, src_report):
        # RACE_lockgraph_diff.json is what `-m stress --race` last wrote
        # (CI regenerates it weekly and fails on a diff).  Every static
        # edge is in it as matched or static-only, and nothing else is:
        # an inference feature lost (say, the second attribute round,
        # which carries FixpointNode._lock -> Counter._lock) shows here,
        # without the stress run.
        diff = json.loads((ROOT / "RACE_lockgraph_diff.json").read_text())
        committed = {tuple(e) for e in diff["matched"] + diff["static_only"]}
        assert src_report.edge_pairs() == committed


# ----------------------------------------------------------------------
# CLI


class TestCLI:
    def test_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "from repro.analysis.sync import TrackedLock\n"
            "import time\n"
            "LOCK = TrackedLock(name='L')\n"
            "def f():\n"
            "    with LOCK:\n"
            "        time.sleep(1)\n"
        )
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "hold-blocking" in out
        assert main([str(tmp_path / "missing")]) == 2

    def test_json_output(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "from repro.analysis.sync import TrackedLock\n"
            "import time\n"
            "LOCK = TrackedLock(name='L')\n"
            "def f():\n"
            "    with LOCK:\n"
            "        time.sleep(1)\n"
        )
        assert main([str(dirty), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "hold-blocking"
        assert "L" in payload["labels"]


# ----------------------------------------------------------------------
# static <-> dynamic cross-check


class TestCrossCheck:
    def test_base_label_strips_instance_serial(self):
        assert base_label("Channel._cond#12") == "Channel._cond"
        assert base_label("Channel._cond") == "Channel._cond"
        # only a digit tail is a serial
        assert base_label("a#b") == "a#b"

    def test_buckets(self):
        diff = crosscheck(
            static_edges={("A", "B"), ("B", "C")},
            known_labels={"A", "B", "C"},
            dynamic_edges=[("A#1", "B#2"), ("A#1", "C#3"), ("T#9", "A#1")],
        )
        assert diff.matched == (("A", "B"),)
        assert diff.dynamic_only == (("A", "C"),)
        assert diff.static_only == (("B", "C"),)
        assert diff.foreign == (("T", "A"),)
        assert not diff.clean
        text = diff.format()
        assert "1 dynamic-only" in text and "STATIC MODEL IS INCOMPLETE" in text

    def test_clean_when_static_covers_dynamic(self):
        diff = crosscheck({("A", "B")}, {"A", "B"}, [("A#1", "B#1")])
        assert diff.clean
        assert diff.matched == (("A", "B"),)

    def test_race_report_exposes_normalizable_edge_pairs(self):
        t = LockTracker()
        a, b = t.lock("A"), t.lock("B")
        with a:
            with b:
                pass
        assert ("A", "B") in t.report().edge_pairs

    def test_dump_roundtrip(self, tmp_path):
        diff = crosscheck({("A", "B")}, {"A", "B"}, [("A#1", "B#1")])
        out = diff.dump(tmp_path / "diff.json")
        payload = json.loads(out.read_text())
        assert payload["clean"] is True
        assert payload["matched"] == [["A", "B"]]

    def test_src_static_graph_covers_the_send_path_dynamically(self):
        """End-to-end miniature of the --race session assertion: drive
        the real system, diff observed orders against the static graph."""
        from repro.analysis.sync import tracking
        from repro.fixpoint.net import FixpointNode

        with tracking() as t:
            alpha, beta = FixpointNode("alpha"), FixpointNode("beta")
            channel = alpha.connect(beta)
            channel.send(alpha, b"frame")
        static = analyze_tree([SRC])
        diff = crosscheck(
            static.edge_pairs(), static.labels, t.report().edge_pairs
        )
        assert diff.clean, diff.format()
