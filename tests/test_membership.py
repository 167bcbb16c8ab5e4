"""Tests for gossiped membership: failure detection, tombstone eviction,
and the lost-work re-delegation loop.

The bug under test (PR 8): before membership existed, one dead node's
gossiped holdings kept winning placement quotes forever - staleness was
"safe" for inventory but fatal for liveness.  These tests pin the whole
fix: detection (suspect -> confirm over gossip rounds), eviction (views,
channels, directories), exclusion (the one placement policy), and
recovery (in-flight work re-delegated to survivors).

PR 10 makes the tombstone refutable: SWIM incarnation numbers let a
restarted node outrank its own death and a falsely-accused node refute
it, views readmit rejoined locations (keeping the per-incarnation
anti-resurrection caps), and the rejoin handshake re-seeds a returning
node - pinned here end to end, from the lattice to kill -> restart ->
readmission over real channels.
"""

from __future__ import annotations

import ast
import collections
import importlib
import inspect
import pathlib
import random
import struct
import sys
import textwrap
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codelets.stdlib import blob_int, int_blob
from repro.core.errors import FixError, SchedulingError, SerializationError
from repro.core.minrepo import transitive_footprint
from repro.core.serialize import decode_bundle, decode_frame, encode_bundle
from repro.core.storage import Repository
from repro.core.thunks import make_application, make_identification, strict
from repro.dist import membership as membership_module
from repro.dist.gossip import (
    GossipConfig,
    GossipCoordinator,
    GossipError,
    pack_delta,
    pack_digest,
    unpack_delta,
    unpack_digest,
)
from repro.dist.membership import (
    ALIVE,
    DEAD,
    SUSPECT,
    Member,
    MembershipError,
    MembershipView,
    join_members,
    members_wire_bytes,
    pack_members,
    unpack_members,
)
from repro.dist.objectview import EMPTY_DIGEST, Digest, ObjectView
from repro.dist.scheduler import DataflowScheduler
from repro.fixpoint import net
from repro.fixpoint.net import (
    Delegation,
    FixpointNode,
    NetworkError,
    NodeDirectory,
)
from repro.sim.cluster import Cluster, MachineSpec
from repro.sim.engine import Simulator

MB = 1 << 20


# ----------------------------------------------------------------------
# The member lattice and its wire codec


class TestMemberLattice:
    def test_fresher_heartbeat_wins(self):
        old = Member("n", 3, ALIVE)
        new = Member("n", 7, ALIVE)
        assert join_members(old, new) == new
        assert join_members(new, old) == new

    def test_suspicion_wins_at_equal_heartbeat(self):
        alive = Member("n", 5, ALIVE)
        suspect = Member("n", 5, SUSPECT)
        assert join_members(alive, suspect) == suspect

    def test_fresher_beat_refutes_suspicion(self):
        suspect = Member("n", 5, SUSPECT)
        refuted = Member("n", 6, ALIVE)
        assert join_members(suspect, refuted) == refuted

    def test_tombstone_beats_any_heartbeat(self):
        dead = Member("n", 1, DEAD)
        fresh = Member("n", 10 ** 6, ALIVE)
        assert join_members(dead, fresh) == dead
        assert join_members(fresh, dead) == dead

    def test_higher_incarnation_outranks_tombstone(self):
        """The rejoin primitive: a node's fresh life beats its old
        death, regardless of the tombstone's heartbeat."""
        dead = Member("n", 10 ** 6, DEAD, incarnation=1)
        reborn = Member("n", 1, ALIVE, incarnation=2)
        assert join_members(dead, reborn) == reborn
        assert join_members(reborn, dead) == reborn

    def test_tombstone_is_terminal_within_its_incarnation(self):
        dead = Member("n", 1, DEAD, incarnation=2)
        stale_optimism = Member("n", 10 ** 6, ALIVE, incarnation=2)
        assert join_members(dead, stale_optimism) == dead

    def test_incarnation_dominates_heartbeat_and_status(self):
        old_doubt = Member("n", 10 ** 6, SUSPECT, incarnation=1)
        fresh = Member("n", 1, ALIVE, incarnation=2)
        assert join_members(old_doubt, fresh) == fresh

    def test_join_rejects_mismatched_nodes(self):
        with pytest.raises(MembershipError):
            join_members(Member("a", 1), Member("b", 1))

    def test_codec_roundtrip(self):
        members = (
            Member("alpha", 12, ALIVE),
            Member("beta", 3, SUSPECT, incarnation=3),
            Member("gamma", 9, DEAD, incarnation=2),
        )
        raw = pack_members(members)
        decoded, offset = unpack_members(raw)
        assert decoded == members  # pack sorts by node; input was sorted
        assert offset == len(raw)

    def test_codec_offset_respects_surrounding_frame(self):
        prefix, suffix = b"HEAD", b"TAIL"
        raw = prefix + pack_members([Member("n", 1, ALIVE)]) + suffix
        decoded, offset = unpack_members(raw, len(prefix))
        assert decoded == (Member("n", 1, ALIVE),)
        assert raw[offset:] == suffix

    def test_codec_rejects_bad_status_byte(self):
        raw = bytearray(pack_members([Member("n", 1, ALIVE)]))
        raw[-1] = 0xFF
        with pytest.raises(MembershipError):
            unpack_members(bytes(raw))

    def test_wire_bytes_matches_packed_length(self):
        members = [Member("a-node", 7, SUSPECT), Member("b", 1, ALIVE)]
        assert members_wire_bytes(members) == len(pack_members(members))
        assert members_wire_bytes(members) == 4 + (2 + 6 + 17) + (2 + 1 + 17)


def _three_entry_delta():
    view = ObjectView("origin-node")
    view.learn(b"\x07" * 32, "holder-b", 7)  # bytes name, sized
    view.learn("string-name", "c")  # str name, sizeless
    view.learn("third", "a-much-longer-location-name", 1 << 40)
    return view.delta_since(EMPTY_DIGEST)


def _bundled(unpack):
    """A frame decoder whose last field is a bundle: decode that too,
    as ``FixpointNode`` does, so a cut inside the bundle is refused."""

    def decode(raw):
        *fields, bundle = unpack(raw)
        return fields, decode_bundle(Repository(), bundle)

    return decode


class TestCodecTruncation:
    """Satellite (PR 10, widened in PR 12 to every decoder and in PR 14
    to the five ``fixpoint.net`` frames): an ``unpack_*`` on a truncated
    frame used to raise a bare ``struct.error``, slice a short field and
    misparse the tail as garbage, or - ``net._unpack_error`` - silently
    return a truncated message.  Every read is now bounds-checked
    through the one :class:`repro.core.frames.FrameReader` and refuses
    with the decoder's own error type, naming the field and the
    offset; so is every string field that does not decode.

    This class is the one checker of the wire format (no lint rule
    reads codecs): it also decodes every full frame back to the value
    it was packed from and pairs every writer with its reader."""

    MEMBERS = [
        Member("alpha", 12, ALIVE),
        Member("a-much-longer-node-name", 3, SUSPECT, incarnation=2),
        Member("z", 9, DEAD, incarnation=7),
    ]
    FRAME = pack_members(MEMBERS)
    DIGEST = Digest({"a": 3, "node#2": 9, "z" * 40: 1})
    ENTRIES = _three_entry_delta()
    DELTA = pack_delta(ENTRIES)

    CTX = struct.pack("<QQ", 7, 9)
    REPO = Repository()
    BLOB = REPO.put_blob(b"x" * 40)
    BUNDLE = encode_bundle(REPO, [BLOB])
    ENCODE = strict(make_identification(BLOB))
    ERROR = ValueError("boom: " + "x" * 20)
    #: [u16 length]["sender-node"][16-byte ctx]: where a request's
    #: handle, and (one tag byte later) a SYN's or PUSH's body, starts.
    HEADER = 2 + 11 + 16

    #: name -> (full frame, decoder(raw), its error type - plus those of
    #: the codecs it nests - and the offsets of the u32 counts / u16
    #: lengths a corrupt frame could inflate).
    CODECS = {
        "members": (FRAME, unpack_members, MembershipError, [(0, 4), (4, 2)]),
        "digest": (
            pack_digest(DIGEST),
            unpack_digest,
            GossipError,
            [(0, 4), (4, 2)],
        ),
        "delta": (
            DELTA,
            unpack_delta,
            GossipError,
            # caps count, first cap's length, entry count, first
            # entry's origin length, its name length.
            [(0, 4), (4, 2), (25, 4), (29, 2), (51, 2)],
        ),
        "bundle": (
            BUNDLE,
            lambda raw: decode_bundle(Repository(), raw),
            SerializationError,
            # frame count; the first frame's payload length.
            [(4, 4), (8 + 32, 4)],
        ),
        "frame": (
            BUNDLE[8:],
            lambda raw: decode_frame(Repository(), raw),
            SerializationError,
            [(32, 4)],
        ),
        "error": (
            net._pack_error(ERROR),
            net._unpack_error,
            NetworkError,
            [(0, 2), (12, 4)],
        ),
        "header": (
            net._pack_header("sender-node", CTX),
            lambda raw: net._unpack_header(raw, 0),
            NetworkError,
            [(0, 2)],
        ),
        "request": (
            net.pack_request("sender-node", CTX, ENCODE, BUNDLE),
            _bundled(net.unpack_request),
            (NetworkError, SerializationError),
            # sender length; the bundle's frame count, its payload length.
            [(0, 2), (HEADER + 32 + 4, 4), (HEADER + 32 + 8 + 32, 4)],
        ),
        "reply": (
            net.pack_reply(CTX, BLOB, BUNDLE),
            _bundled(net.unpack_reply),
            (NetworkError, SerializationError),
            [(16 + 1 + 32 + 4, 4), (16 + 1 + 32 + 8 + 32, 4)],
        ),
        "reply-error": (
            net.pack_reply(CTX, ERROR),
            net.unpack_reply,
            NetworkError,
            [(17, 2), (17 + 12, 4)],
        ),
        "syn": (
            net.pack_syn("sender-node", CTX, DIGEST, MEMBERS),
            net.unpack_syn,
            (NetworkError, GossipError, MembershipError),
            # sender length, origin count, first origin's length, and
            # (from the end) the member count.
            [(1, 2), (1 + HEADER, 4), (1 + HEADER + 4, 2), (-len(FRAME), 4)],
        ),
        "ack": (
            net.pack_ack(CTX, DIGEST, ENTRIES, MEMBERS),
            net.unpack_ack,
            (NetworkError, GossipError, MembershipError),
            # origin count; from the end, entry count and member count.
            [(17, 4), (-len(FRAME) - len(DELTA) + 25, 4), (-len(FRAME), 4)],
        ),
        "push": (
            net.pack_push("sender-node", CTX, ENTRIES),
            net.unpack_push,
            (NetworkError, GossipError),
            [(1, 2), (1 + HEADER, 4), (-len(DELTA) + 25, 4)],
        ),
    }

    #: Stands in ``VALUES`` for the offset a decoder returns beside what
    #: it read: a full frame must be read to its last byte.
    END = object()
    SORTED_MEMBERS = tuple(sorted(MEMBERS, key=lambda m: m.node))  # as packed
    RAISED = ("ValueError", str(ERROR))  # what crosses for an exception

    #: name -> the value the row's frame was packed from, in the shape
    #: its decoder returns it (a ``_bundled`` decoder: its fields as a
    #: list, then the bundle's handles).
    VALUES = {
        "members": (SORTED_MEMBERS, END),
        "digest": (DIGEST, END),
        "delta": (ENTRIES, END),
        "bundle": [BLOB],
        "frame": (BLOB, END),
        "error": RAISED,
        "header": ("sender-node", CTX, END),
        "request": (["sender-node", CTX, ENCODE], [BLOB]),
        "reply": ([CTX, BLOB], [BLOB]),
        "reply-error": (CTX, RAISED, b""),
        "syn": ("sender-node", CTX, DIGEST, SORTED_MEMBERS),
        "ack": (CTX, DIGEST, ENTRIES, SORTED_MEMBERS),
        "push": ("sender-node", CTX, ENTRIES),
    }

    #: The same frames as the parent of PR 14 built them inline at its
    #: send sites (``header + encode.pack() + encode_bundle(...)`` and so
    #: on): the wire format is frozen, so a layout drift fails here and
    #: not only in the benchmark's exact ``wire_bytes_per_op``.
    GOLDEN = {
        "request": (
            "0b0073656e6465722d6e6f64650700000000000000090000000000000019"
            "15e0c42f927083e4068b0839309e4fa0a5cf8b413541d528000000000018"
            "0046495842010000001915e0c42f927083e4068b0839309e4fa0a5cf8b41"
            "3541d5280000000000000028000000787878787878787878787878787878"
            "78787878787878787878787878787878787878787878787878"
        ),
        "reply": (
            "07000000000000000900000000000000001915e0c42f927083e4068b0839"
            "309e4fa0a5cf8b413541d5280000000000000046495842010000001915e0"
            "c42f927083e4068b0839309e4fa0a5cf8b413541d5280000000000000028"
            "000000787878787878787878787878787878787878787878787878787878"
            "78787878787878787878787878"
        ),
        "reply-error": (
            "07000000000000000900000000000000010a0056616c75654572726f721a"
            "000000626f6f6d3a207878787878787878787878787878787878787878"
        ),
        "syn": (
            "100b0073656e6465722d6e6f646507000000000000000900000000000000"
            "03000000010061030000000000000006006e6f6465233209000000000000"
            "0028007a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
            "7a7a7a7a7a7a7a7a7a7a7a7a7a0100000000000000030000001700612d6d"
            "7563682d6c6f6e6765722d6e6f64652d6e616d6502000000000000000300"
            "000000000000010500616c70686101000000000000000c00000000000000"
            "0001007a0700000000000000090000000000000002"
        ),
        "ack": (
            "110700000000000000090000000000000003000000010061030000000000"
            "000006006e6f64652332090000000000000028007a7a7a7a7a7a7a7a7a7a"
            "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
            "0100000000000000010000000b006f726967696e2d6e6f64650300000000"
            "000000030000000b006f726967696e2d6e6f646501000000000000000120"
            "000707070707070707070707070707070707070707070707070707070707"
            "0707070800686f6c6465722d620107000000000000000b006f726967696e"
            "2d6e6f64650200000000000000000b00737472696e672d6e616d65010063"
            "000b006f726967696e2d6e6f646503000000000000000005007468697264"
            "1b00612d6d7563682d6c6f6e6765722d6c6f636174696f6e2d6e616d6501"
            "0000000000010000030000001700612d6d7563682d6c6f6e6765722d6e6f"
            "64652d6e616d6502000000000000000300000000000000010500616c7068"
            "6101000000000000000c000000000000000001007a070000000000000009"
            "0000000000000002"
        ),
        "push": (
            "120b0073656e6465722d6e6f646507000000000000000900000000000000"
            "010000000b006f726967696e2d6e6f64650300000000000000030000000b"
            "006f726967696e2d6e6f6465010000000000000001200007070707070707"
            "070707070707070707070707070707070707070707070707070800686f6c"
            "6465722d620107000000000000000b006f726967696e2d6e6f6465020000"
            "0000000000000b00737472696e672d6e616d65010063000b006f72696769"
            "6e2d6e6f6465030000000000000000050074686972641b00612d6d756368"
            "2d6c6f6e6765722d6c6f636174696f6e2d6e616d65010000000000010000"
        ),
    }

    @pytest.mark.parametrize("frame", sorted(GOLDEN))
    def test_frame_bytes_are_frozen(self, frame):
        assert self.CODECS[frame][0].hex() == self.GOLDEN[frame]

    @pytest.mark.parametrize("codec", sorted(CODECS))
    def test_every_frame_decodes_to_what_was_packed(self, codec):
        """The fuzz below asks that a bad frame is refused; this asks
        that a good one reads back the value it was packed from.  A
        width or field-order drift between the two sides can still
        refuse every strict prefix (the error message's length read as
        a u16 is caught there only by accident), but not this."""
        assert self.VALUES.keys() == self.CODECS.keys()
        frame, unpack, _error, _fields = self.CODECS[codec]
        expected = self.VALUES[codec]
        if isinstance(expected, tuple) and expected[-1] is self.END:
            expected = (*expected[:-1], len(frame))
        assert unpack(frame) == expected

    @pytest.mark.parametrize("codec", sorted(CODECS))
    def test_every_strict_prefix_is_refused_with_the_offset(self, codec):
        import struct as _struct

        frame, unpack, error, _fields = self.CODECS[codec]
        unpack(frame)  # the full frame parses
        for cut in range(len(frame)):
            try:
                unpack(frame[:cut])
            except error as exc:
                assert "offset" in str(exc)
                assert "truncated" in str(exc)
            except _struct.error as exc:  # pragma: no cover - the bug
                raise AssertionError(
                    f"bare struct.error leaked at cut={cut}: {exc}"
                )
            else:
                raise AssertionError(
                    f"truncated frame of {cut} bytes parsed silently"
                )

    @pytest.mark.parametrize("codec", sorted(CODECS))
    def test_inflated_count_or_length_never_over_reads(self, codec):
        """A full frame whose count/length field is garbage must refuse
        at the first read past the end - not spin through 2^32 phantom
        entries, and not hand back bytes that were never sent."""
        frame, unpack, error, fields = self.CODECS[codec]
        for offset, width in fields:
            offset %= len(frame)  # a negative offset counts from the end
            corrupt = bytearray(frame)
            corrupt[offset : offset + width] = b"\xff" * width
            with pytest.raises(error, match="offset"):
                unpack(bytes(corrupt))

    #: Rows whose decoder does not own the frame's end: ``request`` and
    #: ``reply`` return their remainder as the bundle (whose own row
    #: refuses trailing bytes), and the offset-returning codecs hand
    #: the end to the frame that nests them.
    TRAILING_EXEMPT = {
        "request": "the remainder is the bundle",
        "reply": "the remainder is the bundle",
        "members": "returns its end offset",
        "digest": "returns its end offset",
        "delta": "returns its end offset",
        "frame": "returns its end offset",
        "header": "returns its end offset",
    }

    @pytest.mark.parametrize(
        "codec", sorted(CODECS.keys() - TRAILING_EXEMPT.keys())
    )
    def test_trailing_bytes_are_refused_with_the_offset(self, codec):
        """A whole frame with bytes after its last field used to decode
        as if they were not there: ``unpack_push(frame + b"GARBAGE")``
        equalled ``unpack_push(frame)``."""
        assert self.TRAILING_EXEMPT.keys() <= self.CODECS.keys()
        frame, unpack, error, _fields = self.CODECS[codec]
        for tail in (b"\x00", b"GARBAGE"):
            with pytest.raises(
                error, match=f"trailing bytes: .* at offset {len(frame)} "
            ):
                unpack(frame + tail)

    #: (codec, string field as its refusal names it, text the frame
    #: carries there) - one row per ``FrameReader.text`` read site.
    TEXT_FIELDS = [
        ("header", "sender", b"sender-node"),
        ("error", "error type", b"ValueError"),
        ("error", "error message", b"boom"),
        ("digest", "origin", b"node#2"),
        ("delta", "origin", b"origin-node"),
        ("delta", "name", b"string-name"),
        ("delta", "location", b"holder-b"),
        ("members", "node name", b"alpha"),
        ("push", "location", b"holder-b"),  # nested, through a frame
    ]

    @pytest.mark.parametrize(
        "codec, field, text",
        TEXT_FIELDS,
        ids=[f"{codec}-{field}" for codec, field, _ in TEXT_FIELDS],
    )
    def test_a_non_utf8_string_is_refused_with_the_offset(
        self, codec, field, text
    ):
        """A string field that is not UTF-8 used to leave every decoder
        as a bare ``UnicodeDecodeError``."""
        frame, unpack, error, _fields = self.CODECS[codec]
        offset = frame.rindex(text)  # the last one is the decoder's own
        corrupt = bytearray(frame)
        corrupt[offset] = 0xFF
        with pytest.raises(
            error, match=f"{field} at offset {offset} is not UTF-8"
        ):
            unpack(bytes(corrupt))

    @pytest.mark.parametrize("codec", sorted(CODECS))
    def test_a_substituted_byte_decodes_or_is_refused_typed(self, codec):
        """Every byte of every frame set to 0x00, to 0xFF, to its
        complement and to each of its eight one-bit neighbours: the
        decoder may accept what it reads (a flipped heartbeat is still
        a heartbeat) or refuse it, but only with a :class:`FixError` -
        a ``ValueError`` out of an enum, an ``IndexError`` or a
        ``struct.error`` is a malformed frame leaving the decoder
        untyped.  The one-bit flips are what reach a handle's reserved
        encoding: bit 7 of its metadata byte is reserved, so the three
        whole-byte values are all refused there, while ``0x18 ^ 0x20``
        (encode bits ``0b11``) used to build a handle whose first
        property read raised ``ValueError``."""
        frame, unpack, _error, _fields = self.CODECS[codec]
        for offset, byte in enumerate(frame):
            flips = {byte ^ (1 << bit) for bit in range(8)}
            for value in sorted((flips | {0x00, 0xFF, byte ^ 0xFF}) - {byte}):
                corrupt = bytearray(frame)
                corrupt[offset] = value
                try:
                    repr(unpack(bytes(corrupt)))  # read what it decoded
                except FixError:
                    pass
                except Exception as exc:  # the bug, with its coordinates
                    raise AssertionError(
                        f"{codec}: byte {offset} = {value:#04x} left the "
                        f"decoder as {type(exc).__name__}: {exc}"
                    ) from exc

    #: Module-level ``unpack_*`` / ``decode_*`` names under ``src/repro``
    #: that read no wire frame, each with why the fuzz above skips it.
    NOT_A_FRAME_DECODER = {
        # Reads a selection index out of an already-decoded literal
        # Handle: its input is a typed value, checked by length, not
        # bytes off a channel.
        "repro.core.thunks.unpack_index",
    }

    @staticmethod
    def _module_functions():
        """(module, its module-level function names) for every module
        under ``src/repro``, by an AST sweep of the tree."""
        root = pathlib.Path(net.__file__).resolve().parents[1]
        for path in sorted(root.rglob("*.py")):
            module = ".".join(["repro", *path.relative_to(root).with_suffix("").parts])
            tree = ast.parse(path.read_text())
            yield module, [
                node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            ]

    def test_every_unpack_definition_is_reached_by_a_codec(self):
        """A module-level ``unpack_*`` / ``_unpack_*`` / ``decode_*``
        added anywhere under ``src/repro`` must join ``CODECS``
        (directly, or as a helper a listed decoder calls) or
        ``NOT_A_FRAME_DECODER`` - else the prefix, inflated-field and
        substituted-byte fuzz above silently skip it.  Found by an AST
        sweep of the tree, then measured, not listed: decode every full
        frame under a profiler and require each definition's code
        object among the calls."""
        defined = set()
        for module, names in self._module_functions():
            for name in names:
                if (
                    name.lstrip("_").startswith(("unpack_", "decode_"))
                    and f"{module}.{name}" not in self.NOT_A_FRAME_DECODER
                ):
                    decoder = getattr(importlib.import_module(module), name)
                    defined.add(decoder.__code__)
        # The sweep finds public decoders and private helpers alike,
        # outside the three wire modules too.
        assert {
            unpack_members.__code__,
            net._unpack_tag.__code__,
            decode_frame.__code__,
        } <= defined
        called = set()

        def on_event(frame, event, _arg):
            if event == "call":
                called.add(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(on_event)
        try:
            for frame, unpack, _error, _fields in self.CODECS.values():
                unpack(frame)
        finally:
            sys.setprofile(previous)
        assert sorted(code.co_name for code in defined - called) == []

    def test_every_pack_definition_has_its_unpack(self):
        """A module-level ``pack_X`` / ``_pack_X`` needs an ``unpack_X``
        / ``_unpack_X`` in the same module, and an ``encode_X`` a
        ``decode_X``: a format one side can write and no side can read
        is half a protocol, and the sweep above can only hold decoders
        that exist to a row."""
        writers, unpaired = set(), []
        for module, names in self._module_functions():
            bare = {name.lstrip("_") for name in names}
            for name in names:
                stem = name.lstrip("_")
                for write, read in (("pack_", "unpack_"), ("encode_", "decode_")):
                    if stem.startswith(write):
                        writers.add(f"{module}.{name}")
                        if read + stem[len(write):] not in bare:
                            unpaired.append(f"{module}.{name}")
        assert {
            "repro.core.thunks.pack_index",
            "repro.core.serialize.encode_frame",
            "repro.fixpoint.net._pack_error",
        } <= writers
        assert unpaired == []

    def test_full_frame_still_parses(self):
        decoded, offset = unpack_members(self.FRAME)
        assert len(decoded) == 3
        assert offset == len(self.FRAME)

    def test_offset_past_the_buffer_is_refused(self):
        with pytest.raises(MembershipError, match="offset"):
            unpack_members(self.FRAME, len(self.FRAME) + 1)

    def test_truncated_name_cannot_misparse_the_tail(self):
        """Cut inside the node name: the old slice silently shortened
        the name and then read incarnation bytes out of what remained,
        fabricating members.  Now it refuses."""
        frame = pack_members([Member("abcdefghij", 5, ALIVE)])
        cut = 4 + 2 + 4  # count + len prefix + 4 name bytes of 10
        with pytest.raises(MembershipError, match="node name"):
            unpack_members(frame[:cut])


# ----------------------------------------------------------------------
# One node's failure detector


class TestMembershipView:
    def test_self_is_seeded_alive(self):
        view = MembershipView("me")
        assert view.status("me") == ALIVE
        assert view.live_nodes() == {"me"}
        assert len(view) == 1

    def test_beat_advances_own_heartbeat(self):
        view = MembershipView("me")
        first = view.heartbeat()
        assert view.beat() == first + 1
        assert view.heartbeat() == first + 1

    def test_merge_learns_peers(self):
        view = MembershipView("me")
        applied = view.merge([Member("peer", 4, ALIVE)])
        assert applied == 1
        assert view.status("peer") == ALIVE
        # Replay applies nothing: the lattice is idempotent.
        assert view.merge([Member("peer", 4, ALIVE)]) == 0

    def test_silence_ages_into_suspicion_then_death(self):
        view = MembershipView("me", suspect_after=2, confirm_after=2)
        view.merge([Member("peer", 1, ALIVE)])
        view.tick()
        assert view.status("peer") == ALIVE
        view.tick()
        assert view.status("peer") == SUSPECT
        view.tick()
        newly = view.tick()
        assert newly == ["peer"]
        assert view.is_dead("peer")
        assert view.dead_nodes() == {"peer"}

    def test_fresh_heartbeat_refutes_suspicion(self):
        view = MembershipView("me", suspect_after=2, confirm_after=2)
        view.merge([Member("peer", 1, ALIVE)])
        view.tick()
        view.tick()
        assert view.status("peer") == SUSPECT
        view.merge([Member("peer", 2, ALIVE)])  # it beat: still alive
        assert view.status("peer") == ALIVE
        view.tick()  # the refutation also reset the staleness age
        assert view.status("peer") == ALIVE

    def test_self_defense_beats_past_gossiped_suspicion(self):
        view = MembershipView("me")
        heartbeat = view.heartbeat()
        view.merge([Member("me", heartbeat, SUSPECT)])
        assert view.status("me") == ALIVE
        assert view.heartbeat() > heartbeat

    def test_suspect_records_at_believed_heartbeat(self):
        view = MembershipView("me")
        view.merge([Member("peer", 3, ALIVE)])
        view.suspect("peer")
        assert view.status("peer") == SUSPECT
        members = {m.node: m for m in view.members()}
        assert members["peer"].heartbeat == 3

    def test_suspect_ignores_unknown_and_self(self):
        view = MembershipView("me")
        view.suspect("ghost")
        view.suspect("me")
        assert view.status("ghost") is None
        assert view.status("me") == ALIVE

    def test_tombstone_is_terminal(self):
        view = MembershipView("me")
        view.merge([Member("peer", 1, ALIVE)])
        view.declare_dead("peer")
        view.merge([Member("peer", 10 ** 6, ALIVE)])  # stale optimism
        assert view.is_dead("peer")

    def test_self_defense_refutes_own_tombstone_on_merge(self):
        """Tentpole: a merged self-tombstone used to brick the node for
        good (``beat()`` became a no-op).  Now the node bumps its
        incarnation and reasserts ALIVE on the spot."""
        refuted = []
        view = MembershipView("me", on_refute=refuted.append)
        view.merge([Member("me", view.heartbeat(), DEAD)])
        assert not view.is_dead("me")
        assert view.status("me") == ALIVE
        assert view.incarnation("me") == 2
        assert refuted == [2]

    def test_beat_refutes_a_locally_stored_tombstone(self):
        refuted = []
        view = MembershipView("me", on_refute=refuted.append)
        view.declare_dead("me")  # no merge in flight: stored silently
        assert view.is_dead("me")
        view.beat()
        assert not view.is_dead("me")
        assert view.status("me") == ALIVE
        assert view.incarnation("me") == 2
        assert refuted == [2]

    def test_refuted_tombstone_replay_applies_nothing(self):
        view = MembershipView("me")
        tombstone = Member("me", view.heartbeat(), DEAD)
        view.merge([tombstone])
        assert view.incarnation("me") == 2
        # The incarnation-1 tombstone is strictly below the refutation.
        assert view.merge([tombstone]) == 0
        assert not view.is_dead("me")
        assert view.incarnation("me") == 2

    def test_self_tombstone_never_fires_on_dead(self):
        """Satellite: the self-tombstone routes to refutation, never to
        the on_dead eviction path (which would self-destruct)."""
        dead, refuted = [], []
        view = MembershipView("me", on_dead=dead.append, on_refute=refuted.append)
        view.merge([Member("me", view.heartbeat(), DEAD)])
        assert dead == []
        assert refuted == [2]

    def test_higher_incarnation_heartbeat_lifts_peer_tombstone(self):
        rejoined = []
        view = MembershipView("me", on_rejoin=rejoined.append)
        view.merge([Member("peer", 5, ALIVE)])
        view.declare_dead("peer")
        assert view.is_dead("peer")
        view.merge([Member("peer", 1, ALIVE, incarnation=2)])
        assert not view.is_dead("peer")
        assert view.status("peer") == ALIVE
        assert rejoined == ["peer"]

    def test_on_rejoin_fires_once_per_readmission(self):
        rejoined = []
        view = MembershipView("me", on_rejoin=rejoined.append)
        view.merge([Member("peer", 5, ALIVE)])
        view.merge([Member("peer", 5, DEAD)])
        refutation = Member("peer", 1, ALIVE, incarnation=2)
        view.merge([refutation])
        view.merge([refutation])  # re-delivery: no refire
        assert rejoined == ["peer"]

    def test_on_dead_fires_again_for_a_later_incarnation(self):
        dead, rejoined = [], []
        view = MembershipView("me", on_dead=dead.append, on_rejoin=rejoined.append)
        view.merge([Member("peer", 5, DEAD)])
        view.merge([Member("peer", 1, ALIVE, incarnation=2)])
        view.merge([Member("peer", 9, DEAD, incarnation=2)])
        assert dead == ["peer", "peer"]
        assert rejoined == ["peer"]
        # Replaying the second tombstone announces nothing new.
        view.merge([Member("peer", 9, DEAD, incarnation=2)])
        assert dead == ["peer", "peer"]

    def test_on_dead_fires_exactly_once(self):
        fired = []
        view = MembershipView("me", on_dead=fired.append)
        view.merge([Member("peer", 1, ALIVE)])
        view.declare_dead("peer")
        view.declare_dead("peer")
        view.merge([Member("peer", 1, DEAD)])  # tombstone re-delivered
        assert fired == ["peer"]

    def test_on_dead_callback_may_reenter_the_view(self):
        """Callbacks run outside the lock: one that reads the view back
        (as FixpointNode's eviction path does) must not deadlock."""
        seen = []
        view = MembershipView(
            "me", on_dead=lambda node: seen.append(view.dead_nodes())
        )
        view.merge([Member("peer", 1, DEAD)])
        assert seen == [{"peer"}]


# ----------------------------------------------------------------------
# The merge skips what the join would keep


class _JoinEveryMember(MembershipView):
    """``merge`` as it was: every member goes through ``_store`` (a join
    and an equality test), and is counted by comparing the record
    before and after."""

    def merge(self, members):
        newly_dead, rejoined, refuted = [], [], None
        with self._lock:
            applied = 0
            for member in members:
                before = self._members.get(member.node)
                dead, back = self._store(member)
                newly_dead.extend(dead)
                rejoined.extend(back)
                if self._members[member.node] != before:
                    applied += 1
            me = self._members[self.node]
            if me.status == SUSPECT or me.is_dead:
                _, refuted = self._beat_locked()
        self._fire(newly_dead, rejoined, refuted)
        return applied


def _view_mutant(method, old, new):
    """A ``MembershipView`` whose ``method`` is the shipped source with
    ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(MembershipView, method)))
    assert source.count(old) == 1, old
    namespace = dict(vars(membership_module))
    code = "from __future__ import annotations\n" + source.replace(old, new)
    exec(compile(code, membership_module.__file__, "exec"), namespace)
    return type("Mutant", (MembershipView,), {method: namespace[method]})




MERGE_NODES = ("me", "a", "b")


def merge_world(cls):
    """One view of ``cls`` over ``me`` whose hooks log, in order, every
    death, rejoin and refutation they are handed."""
    calls = []
    view = cls(
        "me",
        suspect_after=2,
        confirm_after=2,
        on_dead=lambda node: calls.append(("dead", node)),
        on_rejoin=lambda node: calls.append(("rejoin", node)),
        on_refute=lambda incarnation: calls.append(("refute", incarnation)),
    )
    return view, calls


def merge_state(view, calls):
    return (
        dict(view._members),
        dict(view._since),
        view._ticks,
        list(calls),
    )


def apply_membership_op(view, op):
    kind, *args = op
    if kind == "merge":
        return view.merge(args[0])
    return getattr(view, kind)(*args)


_MEMBER = st.builds(
    Member,
    st.sampled_from(MERGE_NODES),
    st.integers(0, 5),
    st.sampled_from([ALIVE, SUSPECT, DEAD]),
    st.integers(1, 3),
)
MEMBERSHIP_OPS = st.one_of(
    st.tuples(st.just("beat")),
    st.tuples(st.just("tick")),
    st.tuples(
        st.sampled_from(["suspect", "declare_dead"]), st.sampled_from(MERGE_NODES)
    ),
    st.tuples(st.just("merge"), st.lists(_MEMBER, max_size=6)),
)


def run_merge_twins(ops, candidate=MembershipView):
    """The parent's merge and ``candidate``'s, op for op: same returns,
    same records and ages, same hook calls in order."""
    reference, ref_calls = merge_world(_JoinEveryMember)
    shipped, calls = merge_world(candidate)
    for step, op in enumerate(ops):
        want = apply_membership_op(reference, op)
        assert apply_membership_op(shipped, op) == want, (step, op)
        state = merge_state(shipped, calls)
        assert state == merge_state(reference, ref_calls), (step, op)


#: Every case the skip decides, including doubts about ``me``: a lower,
#: an equal and a higher record, a tombstone, a rejoin one incarnation
#: up, and a suspicion and a tombstone about the view's own node.
MERGE_SCRIPT = [
    ("merge", [Member("a", 3, ALIVE), Member("b", 1, ALIVE)]),
    ("merge", [Member("a", 2, ALIVE), Member("a", 3, ALIVE)]),
    ("merge", [Member("a", 3, SUSPECT), Member("me", 1, SUSPECT)]),
    ("tick",),
    ("merge", [Member("b", 1, DEAD), Member("b", 1, DEAD)]),
    ("merge", [Member("b", 1, ALIVE, 2), Member("me", 2, DEAD)]),
    ("beat",),
    ("tick",),
    ("tick",),
]


class TestMergeSkipsWhatTheJoinKeeps:
    """``MembershipView.merge`` skips a member whose ``order_key`` is not
    above the held record's; the reference stores every member."""

    def test_the_script_reads_the_same(self):
        run_merge_twins(MERGE_SCRIPT)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(MEMBERSHIP_OPS, max_size=25))
    def test_same_records_and_hooks_as_joining_every_member(self, ops):
        run_merge_twins(ops)

    def test_the_oracle_catches_an_equal_record_counted(self):
        """The mutant skips only a lower record: an equal one reaches
        ``_store``, which keeps the held record, and is counted anyway."""
        skips_only_the_lower = _view_mutant(
            "merge",
            "member.order_key() <= current.order_key()",
            "member.order_key() < current.order_key()",
        )
        with pytest.raises(AssertionError):
            run_merge_twins(MERGE_SCRIPT, skips_only_the_lower)


# ----------------------------------------------------------------------
# A tombstone is announced from the record it replaces


class _AnnouncedTable(MembershipView):
    """``_store`` and ``suspect`` as they were: a side table holds, per
    node, the highest incarnation whose tombstone was announced, and
    ``suspect`` joins its record before ``_store`` joins it again."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._announced = {}

    def suspect(self, node):
        with self._lock:
            member = self._members.get(node)
            if member is None or member.is_dead or node == self.node:
                return
            self._store(
                join_members(
                    member,
                    Member(node, member.heartbeat, SUSPECT, member.incarnation),
                )
            )

    def _store(self, member):
        current = self._members.get(member.node)
        merged = member if current is None else join_members(current, member)
        if current is not None and merged == current:
            return [], []
        self._members[member.node] = merged
        self._since[member.node] = self._ticks
        if merged.is_dead:
            if (
                merged.node != self.node
                and self._announced.get(merged.node, 0) < merged.incarnation
            ):
                self._announced[merged.node] = merged.incarnation
                return [merged.node], []
        elif current is not None and current.is_dead and merged.node != self.node:
            return [], [merged.node]
        return [], []


def run_tombstone_twins(ops, candidate=MembershipView):
    """The side-table reference and ``candidate``, op for op: same
    returns, records and ages, and the same ``on_dead``/``on_rejoin``/
    ``on_refute`` calls in order."""
    reference, ref_calls = merge_world(_AnnouncedTable)
    shipped, calls = merge_world(candidate)
    for step, op in enumerate(ops):
        want = apply_membership_op(reference, op)
        assert apply_membership_op(shipped, op) == want, (step, op)
        state = merge_state(shipped, calls)
        assert state == merge_state(reference, ref_calls), (step, op)


#: A death, the same tombstone re-delivered at a higher heartbeat, a
#: rejoin, a suspicion that ages into a re-death one incarnation up (and
#: is re-delivered too), a death straight over a tombstone at a higher
#: incarnation, a death of a node never heard from, and a tombstone
#: about ``me`` that ``me`` refutes.
TOMBSTONE_SCRIPT = [
    ("merge", [Member("a", 2, ALIVE), Member("b", 1, ALIVE)]),
    ("declare_dead", "a"),
    ("merge", [Member("a", 5, DEAD)]),
    ("declare_dead", "a"),
    ("merge", [Member("a", 1, ALIVE, 2)]),
    ("suspect", "a"),
    ("suspect", "a"),
    ("tick",),
    ("tick",),
    ("merge", [Member("a", 9, DEAD, 2)]),
    ("merge", [Member("a", 0, DEAD, 3), Member("b", 3, SUSPECT)]),
    ("merge", [Member("a", 4, DEAD, 3)]),
    ("declare_dead", "ghost"),
    ("merge", [Member("me", 3, DEAD)]),
    ("beat",),
    ("tick",),
    ("tick",),
]


class TestTombstonesAnnouncedFromTheRecord:
    """``on_dead`` fires once per ``(node, incarnation)``: ``_store``
    announces a tombstone unless the record it replaces was already one
    at that incarnation.  The reference keeps the side table."""

    def test_the_script_reads_the_same(self):
        run_tombstone_twins(TOMBSTONE_SCRIPT)

    def test_the_script_announces_once_per_incarnation(self):
        view, calls = merge_world(MembershipView)
        for op in TOMBSTONE_SCRIPT:
            apply_membership_op(view, op)
        # ``a`` dies at incarnations 1, 2 and 3, once each.
        assert calls == [
            ("dead", "a"),
            ("rejoin", "a"),
            ("dead", "a"),
            ("dead", "a"),
            ("dead", "ghost"),
            ("refute", 2),
            ("dead", "b"),
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(MEMBERSHIP_OPS, max_size=30))
    def test_same_records_and_hooks_as_the_side_table(self, ops):
        run_tombstone_twins(ops)

    def test_the_oracle_catches_announce_on_every_tombstone(self):
        announces_every_store = _view_mutant(
            "_store",
            "if not (was_dead and current.incarnation == merged.incarnation):",
            "if True:",
        )
        with pytest.raises(AssertionError):
            run_tombstone_twins(TOMBSTONE_SCRIPT, announces_every_store)


# ----------------------------------------------------------------------
# Tombstone eviction in the ObjectView


class TestObjectViewEviction:
    def test_evict_purges_every_belief_about_the_node(self):
        view = ObjectView("me")
        view.learn("x", "dead", 100)
        view.learn("x", "alive", 100)
        view.learn("y", "dead", 50)
        evicted = view.evict("dead")
        assert evicted == 2
        assert view.where("x") == {"alive"}
        assert view.where("y") == set()
        assert view.is_evicted("dead")
        assert view.stats()["evicted"] == 1

    def test_evict_is_idempotent(self):
        view = ObjectView("me")
        view.learn("x", "dead", 100)
        assert view.evict("dead") == 1
        assert view.evict("dead") == 0
        assert view.own_retractions == 0
        view.evict("me")
        view.evict("me")
        assert view.own_retractions == 1

    def test_learn_is_gated_after_eviction(self):
        view = ObjectView("me")
        view.evict("dead")
        view.learn("x", "dead", 100)
        assert view.where("x") == set()


class TestObjectViewEpochs:
    """Tentpole: eviction and version caps are per-(origin, incarnation)
    epoch.  ``readmit`` lifts the eviction gate but keeps the old
    epoch's caps (pre-death replays still apply nothing); a fresh or
    advanced epoch stamps under a new origin the survivors hold no caps
    for, so its beliefs merge normally."""

    def test_readmit_lifts_the_gate_but_keeps_the_caps(self):
        source = ObjectView("back")
        source.learn("x", "back", 100)
        stale_delta = source.delta_since(EMPTY_DIGEST)

        survivor = ObjectView("survivor")
        survivor.merge_delta(stale_delta)
        survivor.evict("back")
        assert survivor.where("x") == set()

        assert survivor.readmit("back") is True
        assert not survivor.is_evicted("back")
        assert survivor.readmit("back") is False  # idempotent
        # The pre-death delta was already applied (then evicted): the
        # caps survive readmission, so the replay cannot resurrect it.
        assert survivor.merge_delta(stale_delta) == 0
        assert survivor.where("x") == set()

    def test_advance_epoch_restamps_own_holdings(self):
        view = ObjectView("me")
        view.learn("mine", "me", 5)
        view.learn("theirs", "peer", 7)
        before = view.stats()["epoch"]
        assert before == 1
        restamped = view.advance_epoch(3)
        assert restamped == 1  # only location == self.node holdings
        assert view.stats()["epoch"] == 3
        assert view.where("mine") == {"me"}
        assert view.where("theirs") == {"peer"}

        # The restamped entry rides a delta under the new origin, so a
        # survivor who evicted "me" (dropping its old entries) and then
        # readmits still receives "mine".
        survivor = ObjectView("survivor")
        survivor.evict("me")
        survivor.readmit("me")
        survivor.merge_delta(view.delta_since(survivor.digest()))
        assert survivor.where("mine") == {"me"}

    def test_advance_epoch_is_monotone(self):
        view = ObjectView("me", epoch=2)
        view.learn("mine", "me", 5)
        assert view.advance_epoch(2) == 0
        assert view.advance_epoch(1) == 0
        assert view.stats()["epoch"] == 2

    def test_re_eviction_after_readmission_works(self):
        """A rejoined node can die again: the second tombstone evicts
        the fresh epoch's beliefs just like the first did."""
        reborn = ObjectView("back", epoch=2)
        reborn.learn("new", "back", 20)
        survivor = ObjectView("survivor")
        survivor.evict("back")
        survivor.readmit("back")
        survivor.merge_delta(reborn.delta_since(survivor.digest()))
        assert survivor.where("new") == {"back"}
        assert survivor.evict("back") == 1
        assert survivor.where("new") == set()


# ----------------------------------------------------------------------
# Coordinator-driven epidemic detection (the simulated side)


class TestCoordinatorMembership:
    def _coordinator(self, n=8, **kw):
        views = [ObjectView(f"n{i}") for i in range(n)]
        kw.setdefault("membership", True)
        kw.setdefault("suspect_after", 3)
        kw.setdefault("confirm_after", 3)
        return views, GossipCoordinator(views, seed=7, **kw)

    def test_no_false_positives_while_everyone_gossips(self):
        _views, coordinator = self._coordinator()
        for _ in range(40):
            coordinator.round()
        for i in range(8):
            assert not coordinator.membership_view(f"n{i}").dead_nodes()

    def test_membership_bytes_are_counted(self):
        _views, coordinator = self._coordinator()
        stats = coordinator.round()
        assert stats.membership_bytes > 0
        assert stats.bytes_shipped >= stats.membership_bytes

    def test_killed_node_is_tombstoned_by_every_survivor(self):
        views, coordinator = self._coordinator()
        views[0].learn("obj", "n3", 100)  # a belief the death invalidates
        for _ in range(5):  # everyone hears everyone's heartbeat first
            coordinator.round()
        coordinator.kill("n3")
        rounds = 0
        while len(coordinator.declared_dead("n3")) < 7:
            coordinator.round()
            rounds += 1
            assert rounds < 32, "tombstone never converged"
        # Detection + eviction: the dead node's holdings are gone from
        # the observer that believed them.
        assert views[0].where("obj") == set()
        assert views[0].is_evicted("n3")
        # Bounded: suspect + confirm + epidemic spread, with slack.
        assert rounds <= 3 + 3 + 2 * 3 + 4  # log2(8) = 3

    def test_survivors_never_tombstone_each_other(self):
        _views, coordinator = self._coordinator()
        for _ in range(5):
            coordinator.round()
        coordinator.kill("n5")
        for _ in range(30):
            coordinator.round()
        for i in range(8):
            if i == 5:
                continue
            detector = coordinator.membership_view(f"n{i}")
            assert detector.dead_nodes() <= {"n5"}

    def test_restart_requires_a_prior_kill(self):
        _views, coordinator = self._coordinator()
        with pytest.raises(GossipError, match="never killed"):
            coordinator.restart("n2")
        with pytest.raises(GossipError, match="unknown node 'ghost'"):
            coordinator.kill("ghost")
        with pytest.raises(GossipError, match="never killed"):
            coordinator.restart("ghost")

    def test_never_hearing_of_the_death_is_no_readmission(self):
        _views, coordinator = self._coordinator()
        coordinator.round()
        coordinator.kill("n3")
        coordinator.restart("n3")
        assert coordinator.readmitted("n3") == set()

    def test_without_membership_there_is_no_detector(self):
        _views, coordinator = self._coordinator(membership=False)
        with pytest.raises(KeyError):
            coordinator.membership_view("n0")

    def test_restarted_node_is_readmitted_everywhere(self):
        """Tentpole e2e (simulated side): kill -> tombstone-converge ->
        restart one incarnation up -> ordinary gossip readmits the node
        at every survivor, its fresh holdings spread, and its first
        life's beliefs stay buried."""
        views, coordinator = self._coordinator()
        views[3].learn("old-obj", "n3", 100)  # dies with the first life
        for _ in range(5):
            coordinator.round()
        coordinator.kill("n3")
        rounds = 0
        while len(coordinator.declared_dead("n3")) < 7:
            coordinator.round()
            rounds += 1
            assert rounds < 32, "tombstone never converged"

        fresh = coordinator.restart("n3")
        assert fresh is not views[3]
        assert fresh.node == "n3"
        assert fresh.stats()["epoch"] == 2
        fresh.learn("new-obj", "n3", 64)  # the reboot's own disk

        rounds = 0
        while len(coordinator.readmitted("n3")) < 7:
            coordinator.round()
            rounds += 1
            assert rounds < 32, "readmission never converged"
        for _ in range(8):  # let the fresh inventory finish spreading
            coordinator.round()
        for i in range(8):
            detector = coordinator.membership_view(f"n{i}")
            assert not detector.is_dead("n3")
        # Survivors merged the fresh epoch's holdings...
        assert views[0].where("new-obj") == {"n3"}
        # ...and the dead epoch stayed dead: no resurrection.
        assert views[0].where("old-obj") == set()

    @pytest.mark.parametrize("seed", range(8))
    def test_false_positive_partition_heals(self, seed):
        """The coordinator twin of ``TestNetRejoin``'s end-to-end heal.

        The simulated driver used to merge the ACK's members *before*
        computing the PUSH delta: the refuting node's restamped entries
        rode the same handshake to a peer that still believed it dead,
        whose eviction gate dropped them while its caps advanced - and
        the poisoned caps then spread epidemically (never converged; 1-3
        of 3 survivors lost all of the accused node's holdings for
        good).  Both drivers now run the one step order in
        :class:`repro.dist.gossip.Participant`.
        """
        views = [ObjectView(f"n{i}") for i in range(4)]
        for view in views:
            for j in range(5):
                view.learn(f"obj-{view.node}-{j}", view.node, 100)
        coordinator = GossipCoordinator(
            views, seed=seed, membership=True, suspect_after=2, confirm_after=2
        )
        coordinator.run()
        others = {"n1", "n2", "n3"}
        rounds = 0
        while coordinator.declared_dead("n0") != others:
            coordinator.round(participants=others)  # n0 is partitioned out
            rounds += 1
            assert rounds < 16, "survivors never tombstoned the silent node"
        assert all(view.is_evicted("n0") for view in views[1:])

        healed = 0
        while not coordinator.converged():
            coordinator.round()  # the partition heals
            healed += 1
            assert healed <= 4, "views never re-converged after the heal"
        for view in views:
            detector = coordinator.membership_view(view.node)
            assert detector.incarnation("n0") == 2
            assert not detector.dead_nodes()
            for j in range(5):
                assert view.where(f"obj-n0-{j}") == {"n0"}

    def test_second_death_after_rejoin_is_detected_again(self):
        _views, coordinator = self._coordinator()
        for _ in range(5):
            coordinator.round()
        coordinator.kill("n1")
        rounds = 0
        while len(coordinator.declared_dead("n1")) < 7:
            coordinator.round()
            rounds += 1
            assert rounds < 32
        coordinator.restart("n1")
        rounds = 0
        while len(coordinator.readmitted("n1")) < 7:
            coordinator.round()
            rounds += 1
            assert rounds < 32
        coordinator.kill("n1")  # the second life ends too
        rounds = 0
        while len(coordinator.declared_dead("n1")) < 7:
            coordinator.round()
            rounds += 1
            assert rounds < 48, "second tombstone never converged"


def _rounds_until(done, step, budget, what):
    """Run ``step`` until ``done()``; fails naming ``what`` past ``budget``."""
    rounds = 0
    while not done():
        step()
        rounds += 1
        assert rounds <= budget, f"{what} never converged"
    return rounds


def _refute_then_die(coordinator, node, kill):
    """Drive ``node`` to a tombstone at incarnation 2 that it *refuted*
    its way to: partition it out until every survivor tombstones it,
    heal until it refutes (1 -> 2) and is readmitted everywhere, then
    ``kill`` it until every survivor tombstones it again, at 2."""
    survivors = {view.node for view in coordinator.views} - {node}

    def tombstoned():
        return coordinator.declared_dead(node) == survivors

    coordinator.run_rounds(5)  # everyone hears everyone's heartbeat first
    _rounds_until(
        tombstoned,
        lambda: coordinator.round(participants=survivors),
        16,
        "the false tombstone",
    )
    _rounds_until(
        lambda: coordinator.readmitted(node) == survivors,
        coordinator.round,
        16,
        "the refutation",
    )
    assert coordinator.membership_view(node).incarnation(node) == 2
    kill(node)
    _rounds_until(tombstoned, coordinator.round, 24, "the second tombstone")
    for survivor in survivors:
        assert coordinator.membership_view(survivor).incarnation(node) == 2
    return survivors


class TestOneRecordPerNode:
    """A coordinator keeps one record per node - its view and the
    detector paired with it - so nothing can disagree with them: the
    incarnation is the view's epoch, and liveness is the constructor's
    flag, not a side table's emptiness."""

    @staticmethod
    def _assert_reborn_above_the_tombstone(coordinator, fresh, node, survivors):
        observer = min(survivors)
        mine = coordinator.membership_view(node).incarnation(node)
        assert mine == 3 > coordinator.membership_view(observer).incarnation(node)
        assert fresh.epoch == 3
        fresh.learn("reborn", node, 64)
        views = [v for v in coordinator.views if v.node in survivors]
        _rounds_until(
            lambda: coordinator.readmitted(node) == survivors
            and all(view.where("reborn") == {node} for view in views),
            coordinator.round,
            8,
            "readmission of the reborn node",
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_restart_after_a_refuted_tombstone_outranks_it(self, seed):
        views = [ObjectView(name) for name in "abcde"]
        coordinator = GossipCoordinator(
            views, seed=seed, membership=True, suspect_after=2, confirm_after=2
        )
        survivors = _refute_then_die(coordinator, "c", coordinator.kill)
        fresh = coordinator.restart("c")
        self._assert_reborn_above_the_tombstone(coordinator, fresh, "c", survivors)
        assert coordinator.views[2] is fresh  # same place, same draws

    def test_restart_machine_after_a_refuted_tombstone_outranks_it(self):
        from repro.dist.engine import FixpointSim

        platform = FixpointSim.build(
            nodes=4,
            cores=4,
            gossip=GossipConfig(
                seed=3, membership=True, suspect_after=2, confirm_after=2
            ),
        )
        coordinator = platform.gossip
        survivors = _refute_then_die(coordinator, "node2", platform.fail_machine)
        platform.restart_machine("node2")
        fresh = coordinator.view("node2")
        self._assert_reborn_above_the_tombstone(
            coordinator, fresh, "node2", survivors
        )
        assert not platform.membership.is_dead("node2")

    def test_liveness_on_from_an_empty_start(self):
        coordinator = GossipCoordinator([], membership=True)
        coordinator.add_view(ObjectView("a"))
        coordinator.add_view(ObjectView("b"))
        assert coordinator.membership_enabled
        assert coordinator.round().membership_bytes > 0
        assert coordinator.membership_view("a").live_nodes() == {"a", "b"}

    def test_a_node_registers_once(self):
        coordinator = GossipCoordinator([ObjectView("a")])
        with pytest.raises(GossipError, match="already registered"):
            coordinator.add_view(ObjectView("a"))


# ----------------------------------------------------------------------
# Placement exclusion (the one cost model, both runtimes)


class TestSchedulerExcludesDead:
    def _setup(self):
        sim = Simulator()
        cluster = Cluster(
            sim, [MachineSpec(f"node{i}", cores=4) for i in range(3)]
        )
        view = ObjectView("sched")
        membership = MembershipView("sched")
        for i in range(3):
            membership.merge([Member(f"node{i}", 1, ALIVE)])
        scheduler = DataflowScheduler(cluster, view, membership=membership)
        return cluster, view, membership, scheduler

    def _task(self, name, inputs=()):
        from repro.dist.graph import TaskSpec

        return TaskSpec(
            name=name,
            fn="f",
            inputs=tuple(inputs),
            output=f"{name}.out",
            output_size=8,
            compute_seconds=0.1,
        )

    def test_dead_machine_loses_placement_even_with_the_data(self):
        cluster, view, membership, scheduler = self._setup()
        cluster.add_object("big", 500 * MB, "node2")
        view.sync_from_cluster(cluster)
        assert scheduler.place(self._task("t", ["big"])).machine == "node2"
        membership.declare_dead("node2")
        placement = scheduler.place(self._task("t2", ["big"]))
        assert placement.machine != "node2"
        # Every holder dead (a second replica's machine too): the data
        # is out of reach, not the cluster - placement falls back to a
        # live non-holder at full price instead of raising.
        cluster.add_object("big", 500 * MB, "node1")
        view.sync_from_cluster(cluster)
        membership.declare_dead("node1")
        placement = scheduler.place(self._task("t3", ["big"]))
        assert placement.machine == "node0"
        assert placement.predicted_move_bytes == 500 * MB

    def test_random_ablation_also_excludes_dead(self):
        _cluster, _view, membership, scheduler = self._setup()
        scheduler.locality = False
        membership.declare_dead("node1")
        chosen = {
            scheduler.place(self._task(f"t{i}")).machine for i in range(20)
        }
        assert "node1" not in chosen

    def test_all_dead_raises_scheduling_error(self):
        _cluster, _view, membership, scheduler = self._setup()
        for i in range(3):
            membership.declare_dead(f"node{i}")
        # Both paths name the cause: tombstones, not an empty cluster.
        with pytest.raises(SchedulingError, match="all 3 .*confirmed dead"):
            scheduler.place(self._task("t"))
        scheduler.locality = False
        with pytest.raises(SchedulingError, match="confirmed dead"):
            scheduler.place(self._task("t"))


class TestEngineFailMachine:
    def _graph(self):
        from repro.dist.graph import JobGraph, TaskSpec

        graph = JobGraph()
        graph.add_data("big", 10 * MB, "node0")
        graph.add_task(
            TaskSpec(
                name="t",
                fn="f",
                inputs=("big",),
                output="t.out",
                output_size=8,
                compute_seconds=0.1,
            )
        )
        return graph

    def test_fail_machine_requires_membership(self):
        from repro.dist.engine import FixpointSim

        platform = FixpointSim.build(nodes=3, cores=4)
        with pytest.raises(SchedulingError):
            platform.fail_machine("node1")

    def test_failed_machine_is_excluded_after_detection(self):
        from repro.dist.engine import FixpointSim

        platform = FixpointSim.build(
            nodes=3,
            cores=4,
            gossip=GossipConfig(
                startup_rounds=3,
                rounds_per_output=2,
                seed=0,
                membership=True,
                suspect_after=2,
                confirm_after=2,
            ),
        )
        for _ in range(5):  # heartbeats must spread before they can stop
            platform.gossip.round()
        platform.fail_machine("node0")  # the machine holding "big"
        for _ in range(12):  # detection: suspect + confirm + spread
            platform.gossip.round()
        assert platform.membership.is_dead("node0")
        result = platform.run(self._graph())
        assert set(result.task_finish) == {"t"}
        # Ground truth: the output landed on a survivor.
        locations = platform.cluster.object("t.out").locations
        assert locations and "node0" not in locations

    def test_fail_unknown_machine_raises(self):
        from repro.dist.engine import FixpointSim

        platform = FixpointSim.build(
            nodes=2, cores=4, gossip=GossipConfig(membership=True)
        )
        with pytest.raises(SchedulingError):
            platform.fail_machine("ghost")

    def test_restart_machine_requires_membership(self):
        from repro.dist.engine import FixpointSim

        platform = FixpointSim.build(nodes=3, cores=4)
        with pytest.raises(SchedulingError):
            platform.restart_machine("node1")

    def test_restarted_machine_is_placed_on_again(self):
        """Tentpole e2e (scheduling side): fail the machine holding the
        input, let detection exclude it, restart it, let gossip readmit
        it - and the scheduler's locality placement lands on it again
        because its relearned disk outranks the eviction."""
        from repro.dist.engine import FixpointSim

        platform = FixpointSim.build(
            nodes=3,
            cores=4,
            gossip=GossipConfig(
                startup_rounds=3,
                rounds_per_output=2,
                seed=0,
                membership=True,
                suspect_after=2,
                confirm_after=2,
            ),
        )
        for _ in range(5):
            platform.gossip.round()
        platform.fail_machine("node0")  # the machine holding "big"
        for _ in range(12):
            platform.gossip.round()
        assert platform.membership.is_dead("node0")

        platform.restart_machine("node0")
        rounds = 0
        while len(platform.gossip.readmitted("node0")) < 2:
            platform.gossip.round()
            rounds += 1
            assert rounds < 24, "readmission never converged"
        for _ in range(6):  # let the relearned disk spread
            platform.gossip.round()
        assert not platform.membership.is_dead("node0")

        result = platform.run(self._graph())
        assert set(result.task_finish) == {"t"}
        # The input never moved; locality places the task back on the
        # readmitted machine.
        locations = platform.cluster.object("t.out").locations
        assert "node0" in locations


# ----------------------------------------------------------------------
# The executing runtime: crash, detect, evict, retry


def add_encode(node, x, y):
    repo = node.repo
    fn = node.runtime.stdlib["add_u8"]
    return node.runtime.invoke(
        fn, [repo.put_blob(int_blob(x, 1)), repo.put_blob(int_blob(y, 1))]
    ).wrap_strict()


@pytest.fixture
def trio():
    nodes = [FixpointNode(n) for n in ("a", "b", "c")]
    a, b, c = nodes
    a.connect(b)
    a.connect(c)
    b.connect(c)
    yield a, b, c
    for node in nodes:
        node.close()


class TestNetFailureDetection:
    def _sweep_until_dead(self, survivors, victim, budget=20):
        rounds = 0
        while not all(s.membership.is_dead(victim) for s in survivors):
            for survivor in survivors:
                survivor.gossip_sweep()
            rounds += 1
            assert rounds < budget, "detector never confirmed the death"
        return rounds

    def test_sweeps_keep_live_peers_alive(self, trio):
        a, b, c = trio
        for _ in range(10):
            for node in (a, b, c):
                node.gossip_sweep()
        for node in (a, b, c):
            assert not node.membership.dead_nodes()

    def test_sweep_survives_a_short_ack(self, trio):
        """A peer answering a SYN with a malformed ACK - cut at any
        byte, or carrying a name that is not UTF-8 - used to leak a
        ``struct.error``, then (past the span context) a nested codec's
        ``GossipError`` / ``MembershipError`` or a bare
        ``UnicodeDecodeError`` out of the sweep, skipping the remaining
        peers and the detector's tick.  Every decoder refuses with a
        ``FixError`` and the sweep catches exactly that: the peer is
        suspected and the sweep goes on."""
        a, b, c = trio
        real_serve = c._serve_gossip_syn

        def refused(mangle):
            sizes = []

            def bad_ack(wire):
                ack_wire, ack_seq = real_serve(wire)
                sizes.append(len(ack_wire))
                return mangle(ack_wire), ack_seq

            c._serve_gossip_syn = bad_ack
            assert [t.peer for t in a.gossip_sweep()] == ["b"]
            assert a.membership.status("c") == SUSPECT
            # The refused ACK still left its delivery window: the link
            # is not wedged, and an honest round refutes the suspicion.
            c._serve_gossip_syn = real_serve
            assert [t.peer for t in a.gossip_sweep()] == ["b", "c"]
            assert a.membership.status("c") == ALIVE
            return sizes[0]

        # The frame ends [name "c"][u64 incarnation][u64 heartbeat][u8].
        size = refused(lambda ack: ack[:-18] + b"\xff" + ack[-17:])
        for cut in range(size):
            assert refused(lambda ack: ack[:cut]) == size

    def test_crash_is_detected_evicted_and_excluded(self, trio):
        a, b, c = trio
        c.crash()
        self._sweep_until_dead([a, b], "c")
        # Eviction ran everywhere it should:
        assert "c" not in a.peers and "c" not in b.peers
        assert a.view.is_evicted("c") and b.view.is_evicted("c")
        # And placement never quotes the corpse:
        assert a.quote_best(add_encode(a, 1, 2)).candidate == "b"

    def test_delegating_to_a_tombstoned_peer_fails_fast(self, trio):
        a, b, c = trio
        c.crash()
        self._sweep_until_dead([a, b], "c")
        with pytest.raises(NetworkError, match="dead"):
            a.delegate("c", add_encode(a, 3, 4))

    def test_directory_forgets_the_dead(self):
        directory = NodeDirectory()
        nodes = [
            FixpointNode(n, directory=directory) for n in ("a", "b", "c")
        ]
        a, b, c = nodes
        a.connect(b)
        a.connect(c)
        b.connect(c)
        try:
            c.crash()
            TestNetFailureDetection()._sweep_until_dead([a, b], "c")
            assert directory.get("c") is None
        finally:
            for node in nodes:
                node.close()

    def test_in_flight_delegation_dies_and_retries_elsewhere(self, trio):
        a, b, c = trio
        encode = add_encode(a, 7, 8)
        a.peers["c"].latency = 0.5  # park the frame in transit
        future = a.delegate_async("c", encode)
        c.crash()  # closes the channel mid-flight
        with pytest.raises(NetworkError):
            future.result(timeout=10.0)
        # The rollback freed the load signal...
        assert a.outstanding["c"] == 0
        # ...and the retry completes on the survivor.
        retry = a.retry_elsewhere(future)
        assert retry.peer == "b"
        result = retry.result(timeout=10.0)
        assert blob_int(a.repo.get_blob(result).data) == 15
        # The transport failure registered as first-hand suspicion.
        assert a.membership.status("c") in (SUSPECT, DEAD)

    def test_retry_of_an_unsettled_delegation_is_refused(self, trio):
        a, b, c = trio
        a.peers["c"].latency = 0.5
        future = a.delegate_async("c", add_encode(a, 1, 1))
        try:
            with pytest.raises(NetworkError, match="in flight"):
                a.retry_elsewhere(future)
        finally:
            future.wait(timeout=10.0)

    def test_retry_with_no_survivors_raises(self):
        a = FixpointNode("a")
        b = FixpointNode("b")
        channel = a.connect(b)
        try:
            channel.latency = 0.5
            future = a.delegate_async("b", add_encode(a, 1, 1))
            b.crash()
            with pytest.raises(NetworkError):
                future.result(timeout=10.0)
            with pytest.raises(NetworkError, match="no surviving"):
                a.retry_elsewhere(future)
        finally:
            a.close()
            b.close()


class TestSelfTombstoneDefense:
    """Satellite: a merged tombstone *about this node* must route to
    refutation, never to the ``_on_peer_dead`` eviction path - the old
    guard-free wiring would have made the node evict its own view,
    close its own channels, and unregister itself (self-destruct on a
    false accusation)."""

    def test_merged_self_tombstone_does_not_self_destruct(self):
        directory = NodeDirectory()
        a = FixpointNode("a", directory=directory)
        b = FixpointNode("b", directory=directory)
        a.connect(b)
        try:
            # The poison frame: someone gossiped a's death back to a.
            a.membership.merge([Member("a", a.membership.heartbeat(), DEAD)])
            # No self-destruct:
            assert not a.view.is_evicted("a")
            assert "b" in a.peers and not a.peers["b"].closed
            assert directory.get("a") is a
            # And an active refutation instead:
            assert a.membership.status("a") == ALIVE
            assert a.membership.incarnation("a") == 2
            assert a.incarnation == 2
            assert a.view.stats()["epoch"] == 2
        finally:
            a.close()
            b.close()

    def test_refutation_spreads_and_peer_readmits(self, trio):
        a, b, c = trio
        # b somehow came to believe a is dead (e.g. a partitioned
        # minority detector): it evicts a and closes the channel.
        b.membership.merge([Member("a", a.membership.heartbeat(), DEAD)])
        assert b.membership.is_dead("a")
        assert b.view.is_evicted("a")
        # a rejoins through b: it hears of its own death on the first
        # exchange, refutes it one incarnation up, and the follow-up
        # rounds carry the refutation back - b readmits.
        a.rejoin(b)
        assert not b.membership.is_dead("a")
        assert b.membership.status("a") == ALIVE
        assert b.membership.incarnation("a") == 2
        assert not b.view.is_evicted("a")


class TestNetRejoin:
    """Tentpole e2e (executing runtime): a false positive is recovered
    from completely - partition, tombstone, heal, refute, readmit,
    replacement, and the rejoined node wins placements again."""

    SUSPECT_AFTER = 2
    CONFIRM_AFTER = 2

    def _mesh(self, names, directory):
        nodes = [
            FixpointNode(
                n,
                directory=directory,
                suspect_after=self.SUSPECT_AFTER,
                confirm_after=self.CONFIRM_AFTER,
            )
            for n in names
        ]
        for i, node in enumerate(nodes):
            for other in nodes[i + 1 :]:
                node.connect(other)
        return nodes

    def test_false_positive_partition_heals_end_to_end(self):
        directory = NodeDirectory()
        a, b, c = self._mesh(("a", "b", "c"), directory)
        try:
            for _ in range(3):  # everyone knows everyone's heartbeat
                for node in (a, b, c):
                    node.gossip_sweep()

            # Partition c: every link drops, but c itself keeps running
            # (it does NOT sweep, so it never suspects the others).
            for channel in list(c.peers.values()):
                channel.close()
            rounds = 0
            while not (a.membership.is_dead("c") and b.membership.is_dead("c")):
                a.gossip_sweep()
                b.gossip_sweep()
                rounds += 1
                assert rounds < 20, "survivors never confirmed the death"
            assert a.view.is_evicted("c")
            assert directory.get("c") is None

            # Meanwhile the isolated node keeps doing useful work: it
            # compiles a codelet the survivors have never seen (padded,
            # so data gravity toward its holder is visible in bytes).
            fat_inc = c.runtime.compile(
                '"""' + "p" * 600 + '"""\n'
                "def _fix_apply(fix, input):\n"
                "    entries = fix.read_tree(input)\n"
                "    n = int.from_bytes(fix.read_blob(entries[2]), 'little')\n"
                "    return fix.create_blob((n + 1).to_bytes(8, 'little'))\n",
                "fat-inc",
            )

            # Heal: the rejoin handshake dials a survivor, learns of
            # its own tombstone, refutes it one incarnation up, and
            # re-seeds both directions.
            c.rejoin(a)
            assert c.membership.incarnation("c") == 2
            assert not a.membership.is_dead("c")
            assert a.membership.incarnation("c") == 2
            assert not a.view.is_evicted("c")
            assert directory.get("c") is c

            # Epidemic spread readmits c at the other survivor too.
            rounds = 0
            while b.membership.is_dead("c"):
                a.gossip_sweep()
                b.gossip_sweep()
                rounds += 1
                assert rounds < 10, "readmission never reached b"

            # The partition-time codelet reached the survivors under
            # the fresh epoch (the retained caps could not swallow the
            # belief), so placement prices c cheapest for work on it...
            for _ in range(3):
                for node in (a, b, c):
                    node.gossip_sweep()
            arg = a.repo.put_blob(int_blob(6))
            encode = make_application(a.repo, fat_inc, [arg]).wrap_strict()
            assert a.quote_best(encode).candidate == "c"
            # ...and delegation to the readmitted node works, including
            # from the survivor that lost its channel (directory dial).
            result = a.delegate("c", encode)
            assert (
                int.from_bytes(a.repo.get_blob(result).data, "little") == 7
            )
            other = b.delegate("c", add_encode(b, 2, 3))
            assert blob_int(b.repo.get_blob(other).data) == 5
            # Nobody holds a tombstone anymore.
            for node in (a, b, c):
                assert node.membership.dead_nodes() == set()
        finally:
            for node in (a, b, c):
                node.close()

    @pytest.mark.parametrize("seed", range(3))
    def test_sim_and_wire_drivers_agree_step_by_step(self, seed):
        """Differential: one scripted scenario - writes, a crash, a false
        accusation + refutation, a restart at incarnation 2 - applied to
        a :class:`GossipCoordinator` over N views and to N
        ``FixpointNode``s handshaking the same pairs in the same order.
        Both drive the one ``Participant`` core, so after every step
        each node's beliefs, liveness statuses/incarnations and dead
        set must be equal across the drivers.

        Every pair meets every round (``fanout = N - 1``): *when* a
        suspicion starts is round policy (the wire driver beats per
        handshake, the simulated one per round), and an all-pairs round
        leaves no transient suspicion to disagree about at a step end.
        """
        names = [f"n{i}" for i in range(5)]
        knobs = dict(
            suspect_after=self.SUSPECT_AFTER, confirm_after=self.CONFIRM_AFTER
        )
        directory = NodeDirectory()
        nodes = {n: FixpointNode(n, directory=directory, **knobs) for n in names}
        views = {n: ObjectView(n) for n in names}
        coordinator = GossipCoordinator(
            list(views.values()),
            seed=seed,
            fanout=len(names) - 1,
            membership=True,
            **knobs,
        )
        down = set()

        def write(name, payload):
            """A write lands in the node's store; the simulated view
            mirrors the store (what ``_refresh_self`` does on a wire)."""
            nodes[name].repo.put_blob(payload)
            for key, size in nodes[name].runtime.holdings().items():
                views[name].learn(key, name, size)

        def rounds(count, participants=None):
            for _ in range(count):
                for a, b in coordinator.round(participants).pairs:
                    channel = nodes[a].peers.get(b)
                    if channel is None or channel.closed:
                        nodes[a].connect(nodes[b])  # the dial is a round
                    else:
                        nodes[a].gossip_with(b)
                for name in participants or names:
                    if name not in down:
                        nodes[name].membership.tick()

        def state(view, detector):
            return (
                view.snapshot(),
                [(m.node, m.status, m.incarnation) for m in detector.members()],
                detector.dead_nodes(),
            )

        def assert_agree(step, among=None):
            for name in among or names:
                if name not in down:
                    assert state(
                        views[name], coordinator.membership_view(name)
                    ) == state(nodes[name].view, nodes[name].membership), (
                        step,
                        name,
                    )

        settle = self.SUSPECT_AFTER + self.CONFIRM_AFTER + 3
        try:
            for index, name in enumerate(names):
                write(name, b"w%d" % index * 40)
            rounds(3)
            assert_agree("writes")
            assert coordinator.converged()

            coordinator.kill("n1")
            nodes["n1"].crash()
            down.add("n1")
            rounds(settle)
            assert_agree("crash")
            assert nodes["n0"].membership.dead_nodes() == {"n1"}

            others = set(names) - {"n1", "n2"}  # n2 is partitioned out
            write("n2", b"partition-time" * 30)
            rounds(settle, participants=others)
            assert_agree("false accusation", among=others)
            assert nodes["n0"].membership.dead_nodes() == {"n1", "n2"}

            rounds(3)  # heal: n2 hears of its death, refutes, respreads
            assert_agree("refutation")
            assert nodes["n0"].membership.incarnation("n2") == 2
            assert nodes["n0"].view.snapshot() == nodes["n2"].view.snapshot()

            views["n1"] = coordinator.restart("n1")
            nodes["n1"] = FixpointNode(
                "n1", directory=directory, incarnation=2, **knobs
            )
            down.discard("n1")
            write("n1", b"reborn" * 50)
            rounds(3)
            assert_agree("restart")
            assert coordinator.converged()
            assert not nodes["n0"].membership.dead_nodes()
        finally:
            for node in nodes.values():
                node.close()

    def test_restarted_node_rejoins_with_bumped_incarnation(self):
        """The reboot path: the old process died for real, and a fresh
        node is built with ``incarnation = old + 1``.  One handshake
        readmits it and re-seeds its empty view from the survivor."""
        directory = NodeDirectory()
        a, b, c = self._mesh(("a", "b", "c"), directory)
        reborn = None
        try:
            for _ in range(3):
                for node in (a, b, c):
                    node.gossip_sweep()
            c.crash()
            rounds = 0
            while not (a.membership.is_dead("c") and b.membership.is_dead("c")):
                a.gossip_sweep()
                b.gossip_sweep()
                rounds += 1
                assert rounds < 20

            reborn = FixpointNode(
                "c",
                directory=directory,
                suspect_after=self.SUSPECT_AFTER,
                confirm_after=self.CONFIRM_AFTER,
                incarnation=a.membership.incarnation("c") + 1,
            )
            reborn.rejoin(a)
            assert not a.membership.is_dead("c")
            # The handshake re-seeded the empty view from the survivor:
            # the reborn node believes where the cluster's data lives.
            assert reborn.view.stats()["entries"] > 0
            rounds = 0
            while b.membership.is_dead("c"):
                a.gossip_sweep()
                b.gossip_sweep()
                rounds += 1
                assert rounds < 10
            # Work flows to the reborn node again.
            result = a.delegate("c", add_encode(a, 4, 5))
            assert blob_int(a.repo.get_blob(result).data) == 9
        finally:
            for node in (a, b, reborn):
                if node is not None:
                    node.close()


class TestDelegationRollback:
    """Satellite (a): a timed-out/cancelled delegation must roll back
    BOTH the optimistic view advance and the per-peer load count.

    The old code path raised NetworkError from ``result(timeout=...)``
    and simply returned: ``outstanding[peer]`` stayed raised forever
    (poisoning every later load tiebreak) and the view kept believing
    the peer held the shipped keys (poisoning every later byte quote).
    """

    def _believed_by(self, node, peer):
        return {
            h.key
            for h in node.repo.handles()
            if node.view.knows(h.key, peer)
        }

    def test_timeout_rolls_back_view_and_outstanding(self):
        x, y = FixpointNode("x"), FixpointNode("y")
        channel = x.connect(y)
        try:
            channel.latency = 5.0  # nothing completes inside the test
            encode = add_encode(x, 1, 1)
            before = self._believed_by(x, "y")
            future = x.delegate_async("y", encode)
            assert x.outstanding["y"] == 1
            assert self._believed_by(x, "y") > before  # bytes shipped
            with pytest.raises(NetworkError, match="timed out"):
                future.result(timeout=0.05)
            assert x.outstanding["y"] == 0
            assert self._believed_by(x, "y") == before
        finally:
            channel.close()
            x.close()
            y.close()

    def test_settle_is_one_shot(self):
        x, y = FixpointNode("x"), FixpointNode("y")
        channel = x.connect(y)
        try:
            channel.latency = 5.0
            future = x.delegate_async("y", add_encode(x, 1, 1))
            assert future.cancel()
            assert not future.cancel()  # second cancel refuses
            assert x.outstanding["y"] == 0  # exactly one decrement
        finally:
            channel.close()
            x.close()
            y.close()

    def test_cancel_after_completion_refuses(self):
        x, y = FixpointNode("x"), FixpointNode("y")
        x.connect(y)
        try:
            future = x.delegate_async("y", add_encode(x, 2, 3))
            result = future.result(timeout=10.0)
            assert blob_int(x.repo.get_blob(result).data) == 5
            assert not future.cancel()
            assert x.outstanding["y"] == 0
        finally:
            x.close()
            y.close()


#: A codelet whose result (an 8-byte literal) names nothing it was
#: shipped, so a reply absorbed after a rollback re-learns no belief.
LEN_SOURCE = (
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    size = len(fix.read_blob(entries[2]))\n"
    "    return fix.create_blob(size.to_bytes(8, 'little'))\n"
)


class TestOneSettle:
    """Every way a delegation ends goes through ``Delegation._settle``:
    for its first caller only, it drops ``outstanding``, rolls the
    shipped beliefs back on failure, and resolves the future."""

    @pytest.fixture
    def linked(self):
        x, y = FixpointNode("x"), FixpointNode("y")
        fn = x.runtime.compile(LEN_SOURCE, "len")
        assert y.runtime.compile(LEN_SOURCE, "len") == fn  # never shipped
        channel = x.connect(y)
        yield x, y, channel, fn
        channel.close()
        x.close()
        y.close()

    @staticmethod
    def _len_of(node, fn, payload):
        blob = node.repo.put_blob(payload)
        return node.runtime.invoke(fn, [blob]).wrap_strict()

    def test_cancel_racing_the_reply_settles_once(self, linked, monkeypatch):
        x, y, channel, fn = linked
        channel.latency = 0.005
        settled = []  # every settling call, kept alive so ids stay unique

        def counted(future, outcome, real=Delegation._settle):
            won = real(future, outcome)
            if won:
                settled.append(future)
            return won

        monkeypatch.setattr(Delegation, "_settle", counted)
        # y's serves, each marked done when it returns: the late settles
        # all happen before the checks below.  (A parked serve thread
        # outlives its task, so joining threads would wait out its idle
        # timeout - and those of other nodes' parked threads.)
        served = []

        def spawn(task, real=y.runtime.spawn):
            done = threading.Event()
            served.append(done)

            def serve():
                try:
                    task()
                finally:
                    done.set()

            real(serve)

        monkeypatch.setattr(y.runtime, "spawn", spawn)
        start = time.monotonic()
        x.delegate_async("y", self._len_of(x, fn, b"c" * 64)).result(10.0)
        trip = time.monotonic() - start
        rng = random.Random(34)
        # Timeouts around the round trip race the cancel against the
        # reply; 0 and 10 s make sure each side wins at least once.
        timeouts = [0.0, 10.0]
        timeouts += [rng.uniform(0.5, 1.5) * trip for _ in range(40)]
        rng.shuffle(timeouts)
        futures, winners = [], set()
        for i, timeout in enumerate(timeouts):
            encode = self._len_of(x, fn, b"%03d" % i * 16)
            future = x.delegate_async("y", encode)
            futures.append(future)
            assert future.shipped
            try:
                future.result(timeout)
                caller_won = False
            except NetworkError as exc:
                assert "timed out" in str(exc)
                caller_won = True
            winners.add(caller_won)
            assert x.outstanding["y"] == 0
            believed = [x.view.knows(key, "y") for key in future.shipped]
            assert believed == [not caller_won] * len(believed)
        assert winners == {True, False}
        for done in served:
            done.wait(10.0)
        # The losers' late settles changed nothing.
        counts = collections.Counter(map(id, settled))
        assert [counts[id(f)] for f in futures] == [1] * len(futures)
        assert x.outstanding["y"] == 0

    def test_spawn_failure_settles_and_frees_the_sequence(
        self, linked, monkeypatch
    ):
        x, y, channel, fn = linked
        encode = self._len_of(x, fn, b"s" * 64)
        fp = transitive_footprint(x.repo, encode)
        before = {key for key in fp.data if x.view.knows(key, "y")}
        assert fp.data - before  # the dispatch ships something

        def refuse(task):
            raise RuntimeError("the pool refused the serve")

        monkeypatch.setattr(y.runtime, "spawn", refuse)
        with pytest.raises(RuntimeError, match="refused"):
            x.delegate_async("y", encode)
        monkeypatch.undo()
        assert x.outstanding["y"] == 0
        assert {key for key in fp.data if x.view.knows(key, "y")} == before
        (span,) = [
            s for s in x.obs.tracer.spans if s.name == "delegate.dispatch"
        ]
        assert span.status == "error" and "refused" in span.error
        # The refused request's sequence number was released: the next
        # request on the channel is delivered instead of waiting on it.
        result = x.delegate_async("y", encode).result(10.0)
        assert blob_int(x.repo.get_blob(result).data) == 64


class TestChannelCloseWakesWaiters:
    """Satellite (b): eviction must close the dead node's channels so
    frames parked in delivery windows and callers blocked in transit
    wake with a NetworkError naming the dead endpoint - not hang until
    an unrelated timeout."""

    def test_parked_transit_wakes_on_close(self):
        x, y = FixpointNode("x"), FixpointNode("y")
        channel = x.connect(y)
        try:
            channel.latency = 30.0  # way past any test budget
            errors = []

            def waiter():
                try:
                    channel.transit()
                except NetworkError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            time.sleep(0.05)  # the waiter is parked mid-latency
            channel.close()
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "transit never woke on close"
            assert errors and "x<->y" in str(errors[0])
        finally:
            x.close()
            y.close()

    def test_eviction_closes_the_channel(self, trio):
        a, b, c = trio
        channel = a.peers["c"]
        c.crash()
        TestNetFailureDetection()._sweep_until_dead([a, b], "c")
        assert channel.closed
        with pytest.raises(NetworkError):
            channel.send(a, b"frame")


# ----------------------------------------------------------------------
# Stress: kill a node mid-scatter; survivors finish everything


@pytest.mark.stress
class TestChurnStress:
    NODES = 4
    ENCODES = 12

    def test_kill_a_node_mid_scatter(self):
        nodes = [
            FixpointNode(f"n{i}", suspect_after=2, confirm_after=2)
            for i in range(self.NODES)
        ]
        a = nodes[0]
        victim = nodes[-1]
        try:
            for i, node in enumerate(nodes):
                for other in nodes[i + 1 :]:
                    node.connect(other)
            # Slow the victim's link so some frames are genuinely in
            # flight when it dies.
            a.peers[victim.name].latency = 0.2
            encodes = [
                add_encode(a, i, i + 1) for i in range(self.ENCODES)
            ]
            futures = a.scatter(encodes)
            victim.crash()
            # Drive detection concurrently with the in-flight work.
            for _ in range(10):
                for node in nodes[:-1]:
                    node.gossip_sweep()
            results = {}
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result(timeout=30.0)
                except NetworkError:
                    retry = a.retry_elsewhere(future)
                    assert retry.peer != victim.name
                    results[index] = retry.result(timeout=30.0)
            for index, handle in results.items():
                assert (
                    blob_int(a.repo.get_blob(handle).data) == 2 * index + 1
                )
            # The survivors tombstoned the victim; nobody tombstoned a
            # survivor.
            for node in nodes[:-1]:
                assert node.membership.is_dead(victim.name)
                assert node.membership.dead_nodes() == {victim.name}
        finally:
            for node in nodes:
                node.close()


@pytest.mark.stress
class TestRejoinStress:
    """Stress the whole rejoin cycle under concurrency: kill a node
    mid-scatter, re-delegate the losses, then bring the node back one
    incarnation up and prove the cluster trusts it with work again."""

    NODES = 4
    ENCODES = 12

    def test_kill_restart_readmit_under_load(self):
        directory = NodeDirectory()
        nodes = [
            FixpointNode(
                f"n{i}",
                directory=directory,
                suspect_after=2,
                confirm_after=2,
            )
            for i in range(self.NODES)
        ]
        a = nodes[0]
        victim = nodes[-1]
        survivors = nodes[:-1]
        reborn = None
        try:
            for i, node in enumerate(nodes):
                for other in nodes[i + 1 :]:
                    node.connect(other)
            a.peers[victim.name].latency = 0.2
            encodes = [add_encode(a, i, i + 1) for i in range(self.ENCODES)]
            futures = a.scatter(encodes)
            victim.crash()
            for _ in range(10):
                for node in survivors:
                    node.gossip_sweep()
            for index, future in enumerate(futures):
                try:
                    handle = future.result(timeout=30.0)
                except NetworkError:
                    retry = a.retry_elsewhere(future)
                    assert retry.peer != victim.name
                    handle = retry.result(timeout=30.0)
                assert blob_int(a.repo.get_blob(handle).data) == 2 * index + 1
            for node in survivors:
                assert node.membership.is_dead(victim.name)

            # The machine comes back: a fresh process, one incarnation
            # past its tombstone, dials a survivor and rejoins.
            reborn = FixpointNode(
                victim.name,
                directory=directory,
                suspect_after=2,
                confirm_after=2,
                incarnation=a.membership.incarnation(victim.name) + 1,
            )
            reborn.rejoin(a)
            rounds = 0
            while any(
                s.membership.is_dead(victim.name) for s in survivors
            ):
                for node in survivors:
                    node.gossip_sweep()
                rounds += 1
                assert rounds < 20, "readmission never converged"

            # Every survivor trusts the reborn node with work again -
            # including ones that dial it through the directory.
            for offset, node in enumerate(survivors):
                handle = node.delegate(
                    victim.name, add_encode(node, offset, offset + 1)
                )
                assert (
                    blob_int(node.repo.get_blob(handle).data)
                    == 2 * offset + 1
                )
            for node in survivors:
                assert node.membership.dead_nodes() == set()
        finally:
            for node in nodes + ([reborn] if reborn is not None else []):
                node.close()
