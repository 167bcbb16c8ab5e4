"""The one-pass gossip and membership decoders against the field reads.

``unpack_digest``, ``unpack_delta`` and ``unpack_members`` read a
well-formed entry in one pass (combined structs, inline bounds, origin
and location strings decoded once per run, a run of sized bytes-named
entries read an entry per struct call) and fall back to reading
field by field only for an entry that pass refuses.  The reference here
is the codec they replaced, kept as it was: every field read through
the :class:`~repro.core.frames.FrameReader`, ``_pack_name`` /
``_unpack_name`` as their own pair.

On every drawn value both sides must pack the same bytes and decode the
same value, and on every strict prefix and every byte substitution of
every frame they must raise the same exception type with the same
message or return equal values.  The GOSSIP frames that nest the
codecs (SYN, ACK, PUSH) are held to the same rule with one allowed
difference: the shipped decoder refuses bytes after a whole frame,
where the reference returned what came before them.
"""

from __future__ import annotations

import inspect
import re
import struct
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frames import FrameReader
from repro.dist import gossip, membership
from repro.dist.gossip import GossipError
from repro.dist.membership import ALIVE, DEAD, SUSPECT, Member, MembershipError
from repro.dist.objectview import Delta, Digest
from repro.fixpoint import net
from repro.fixpoint.net import NetworkError

# ----------------------------------------------------------------------
# The reference: the per-field codec the one-pass decoders replaced

_COUNT = struct.Struct("<I")
_LEN = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_STATUS = struct.Struct("<B")
_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}
_BY_RANK = {rank: status for status, rank in _RANK.items()}

_frame = FrameReader(GossipError)
_members_frame = FrameReader(MembershipError)


def ref_pack_digest(digest):
    parts = [_COUNT.pack(len(digest.versions))]
    for origin in sorted(digest.versions):
        raw = origin.encode("utf-8")
        parts.append(_LEN.pack(len(raw)) + raw + _U64.pack(digest.versions[origin]))
    return b"".join(parts)


def ref_unpack_digest(raw, offset=0):
    count, offset = _frame.unpack(_COUNT, raw, offset, "origin count")
    versions = {}
    for _ in range(count):
        length, offset = _frame.unpack(_LEN, raw, offset, "origin length")
        origin, offset = _frame.text(raw, offset, length, "origin")
        version, offset = _frame.unpack(_U64, raw, offset, "version cap")
        versions[origin] = version
    return Digest(versions), offset


def ref_pack_name(name):
    if isinstance(name, bytes):
        return b"\x01" + _LEN.pack(len(name)) + name
    if isinstance(name, str):
        raw = name.encode("utf-8")
        return b"\x00" + _LEN.pack(len(raw)) + raw
    raise GossipError(
        f"cannot serialize object name of type {type(name).__name__!r} "
        "(wire gossip carries str or bytes names)"
    )


def ref_unpack_name(raw, offset):
    tag, offset = _frame.take(raw, offset, 1, "name tag")
    length, offset = _frame.unpack(_LEN, raw, offset, "name length")
    if tag == b"\x00":
        return _frame.text(raw, offset, length, "name")
    body, offset = _frame.take(raw, offset, length, "name")
    if tag == b"\x01":
        return bytes(body), offset
    raise GossipError(f"bad name tag byte {tag!r} in gossip delta")


def ref_pack_delta(delta):
    parts = [ref_pack_digest(Digest(delta.versions)), _COUNT.pack(len(delta.entries))]
    for origin, version, name, location, size in delta.entries:
        origin_raw = origin.encode("utf-8")
        location_raw = location.encode("utf-8")
        parts.append(_LEN.pack(len(origin_raw)) + origin_raw + _U64.pack(version))
        parts.append(ref_pack_name(name))
        parts.append(_LEN.pack(len(location_raw)) + location_raw)
        if size is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + _U64.pack(size))
    return b"".join(parts)


def ref_unpack_delta(raw, offset=0):
    caps, offset = ref_unpack_digest(raw, offset)
    count, offset = _frame.unpack(_COUNT, raw, offset, "entry count")
    entries = []
    for _ in range(count):
        length, offset = _frame.unpack(_LEN, raw, offset, "origin length")
        origin, offset = _frame.text(raw, offset, length, "origin")
        version, offset = _frame.unpack(_U64, raw, offset, "version")
        name, offset = ref_unpack_name(raw, offset)
        length, offset = _frame.unpack(_LEN, raw, offset, "location length")
        location, offset = _frame.text(raw, offset, length, "location")
        flag, offset = _frame.take(raw, offset, 1, "size flag")
        size = None
        if flag == b"\x01":
            size, offset = _frame.unpack(_U64, raw, offset, "size")
        elif flag != b"\x00":
            raise GossipError(f"bad size flag byte {flag!r} in gossip delta")
        entries.append((origin, version, name, location, size))
    return Delta(tuple(entries), dict(caps.versions)), offset


def ref_pack_members(members):
    entries = sorted(members, key=lambda m: m.node)
    parts = [_COUNT.pack(len(entries))]
    for member in entries:
        raw = member.node.encode("utf-8")
        parts.append(
            _LEN.pack(len(raw))
            + raw
            + _U64.pack(member.incarnation)
            + _U64.pack(member.heartbeat)
            + _STATUS.pack(_RANK[member.status])
        )
    return b"".join(parts)


def ref_unpack_members(raw, offset=0):
    frame = _members_frame
    count, offset = frame.unpack(_COUNT, raw, offset, "count")
    members = []
    for _ in range(count):
        length, offset = frame.unpack(_LEN, raw, offset, "node length")
        node, offset = frame.text(raw, offset, length, "node name")
        incarnation, offset = frame.unpack(_U64, raw, offset, "incarnation")
        heartbeat, offset = frame.unpack(_U64, raw, offset, "heartbeat")
        rank, offset = frame.unpack(_STATUS, raw, offset, "status")
        status = _BY_RANK.get(rank)
        if status is None:
            raise MembershipError(f"bad membership status byte {rank}")
        members.append(Member(node, heartbeat, status, incarnation))
    return tuple(members), offset


def ref_unpack_syn(wire):
    offset = net._unpack_tag(wire, b"\x10", "gossip syn tag")
    sender, ctx, offset = net._unpack_header(wire, offset)
    digest, offset = ref_unpack_digest(wire, offset)
    return sender, ctx, digest, ref_unpack_members(wire, offset)[0]


def ref_unpack_ack(wire):
    offset = net._unpack_tag(wire, b"\x11", "gossip ack tag")
    ctx, offset = net._unpack_ctx(wire, offset)
    digest, offset = ref_unpack_digest(wire, offset)
    delta, offset = ref_unpack_delta(wire, offset)
    return ctx, digest, delta, ref_unpack_members(wire, offset)[0]


def ref_unpack_push(wire):
    offset = net._unpack_tag(wire, b"\x12", "gossip push tag")
    sender, ctx, offset = net._unpack_header(wire, offset)
    return sender, ctx, ref_unpack_delta(wire, offset)[0]


# ----------------------------------------------------------------------
# The rule both sides are held to


def outcome(decode, raw):
    """What ``decode(raw)`` did, as a comparable value."""
    try:
        return "value", decode(raw)
    except Exception as exc:  # any refusal, typed or not, is compared
        return "refused", type(exc), str(exc)


def substitutes(byte):
    """A byte's eight one-bit neighbours, 0x00, 0xFF and its complement."""
    flips = {byte ^ (1 << bit) for bit in range(8)}
    return sorted((flips | {0x00, 0xFF, byte ^ 0xFF}) - {byte})


def damaged(frame):
    """Every strict prefix of ``frame``, then every byte substitution."""
    for cut in range(len(frame)):
        yield frame[:cut]
    for at, byte in enumerate(frame):
        for value in substitutes(byte):
            yield frame[:at] + bytes((value,)) + frame[at + 1 :]


TRAILING = re.compile(r"trailing bytes: .* ends at offset (\d+) but")


def same_reading(raw, reference, shipped, whole_frame=False):
    """``shipped`` reads ``raw`` as ``reference`` does.  For a whole
    frame, it may instead refuse bytes after the frame's end - and then
    reading up to that end must give what the reference returned."""
    want, got = outcome(reference, raw), outcome(shipped, raw)
    if got == want:
        return
    if whole_frame and want[0] == "value" and got[1] is NetworkError:
        end = TRAILING.match(got[2])
        if end is not None and int(end.group(1)) < len(raw):
            assert shipped(raw[: int(end.group(1))]) == want[1], raw.hex()
            return
    raise AssertionError(f"{raw.hex()}: reference {want!r}, shipped {got!r}")


def check_codec(value, ref_pack, ref_unpack, pack, unpack):
    """Same bytes, same value, and the same reading of every damaged
    frame, for one offset-returning codec."""
    frame = ref_pack(value)
    assert pack(value) == frame
    decoded = unpack(frame)
    assert decoded == ref_unpack(frame)
    assert decoded[1] == len(frame)
    for raw in damaged(frame):
        same_reading(raw, ref_unpack, unpack)


def check_frame(frame, reference, shipped):
    """The same reading of a whole GOSSIP frame and of every damaged one."""
    assert shipped(frame) == reference(frame)
    for raw in damaged(frame):
        same_reading(raw, reference, shipped, whole_frame=True)


CTX = struct.pack("<QQ", 7, 9)


def check_digest(digest, members, decoders):
    check_codec(
        digest,
        ref_pack_digest,
        ref_unpack_digest,
        gossip.pack_digest,
        decoders["digest"],
    )
    syn = net.pack_syn("sé#2", CTX, digest, members)
    check_frame(syn, ref_unpack_syn, decoders["syn"])


def check_delta(delta, decoders):
    check_codec(
        delta, ref_pack_delta, ref_unpack_delta, gossip.pack_delta, decoders["delta"]
    )
    push = net.pack_push("n0", CTX, delta)
    check_frame(push, ref_unpack_push, decoders["push"])


def check_members(members, digest, decoders):
    check_codec(
        members,
        ref_pack_members,
        ref_unpack_members,
        membership.pack_members,
        decoders["members"],
    )
    syn = net.pack_syn("sé#2", CTX, digest, members)
    check_frame(syn, ref_unpack_syn, decoders["syn"])


def check_frames(digest, delta, members, decoders):
    """The three codecs, then the three GOSSIP frames that nest them."""
    check_digest(digest, members, decoders)
    check_delta(delta, decoders)
    check_members(members, digest, decoders)
    ack = net.pack_ack(CTX, digest, delta, members)
    check_frame(ack, ref_unpack_ack, decoders["ack"])


SHIPPED = {
    "digest": gossip.unpack_digest,
    "delta": gossip.unpack_delta,
    "members": membership.unpack_members,
    "syn": net.unpack_syn,
    "ack": net.unpack_ack,
    "push": net.unpack_push,
}


# ----------------------------------------------------------------------
# Values: non-ASCII nodes, node#epoch origins, str and bytes names,
# sizeless entries, runs of one origin and location, 0-64 entries

NODES = st.one_of(
    st.sampled_from(["n0", "n1", "n10", "nö", "节点", "Ω", ""]),
    st.text(max_size=6),
)
ORIGINS = st.builds(
    lambda node, epoch: node if epoch == 1 else f"{node}#{epoch}",
    NODES,
    st.integers(1, 3),
)
U64 = st.one_of(st.integers(0, 300), st.integers(0, (1 << 64) - 1))
NAMES = st.one_of(st.text(max_size=6), st.binary(max_size=12))
ENTRIES = st.lists(
    st.tuples(ORIGINS, U64, NAMES, NODES, st.none() | U64), max_size=64
) | st.lists(  # runs: repeated origins and locations, one name length
    st.tuples(
        st.sampled_from(["n0", "n1"]),
        U64,
        st.binary(min_size=2, max_size=2),
        st.sampled_from(["n0", "n1"]),
        st.none() | U64,
    ),
    max_size=64,
)
DIGESTS = st.dictionaries(ORIGINS, U64, max_size=64).map(Digest)
DELTAS = st.builds(
    Delta, ENTRIES.map(tuple), st.dictionaries(ORIGINS, U64, max_size=4)
)
MEMBERS = st.dictionaries(
    NODES,
    st.tuples(U64, st.sampled_from([ALIVE, SUSPECT, DEAD]), U64),
    max_size=64,
).map(lambda rows: [Member(node, *row) for node, row in rows.items()])

#: One value that trips each mutant below: a run of one origin read
#: whole after its first entry, then origins and locations of one
#: length but other bytes (what a reused prefix or layout must tell
#: apart), a sized entry (its flag byte substituted), and enough fields
#: that an off-by-one read reads something else.
RICH_DELTA = Delta(
    (
        ("n0", 1, b"\x07" * 32, "n1", 7),
        ("n0", 2, b"\x08" * 32, "n1", 1 << 40),
        ("n0", 3, b"\x09" * 32, "n2", 5),
        ("n0", 4, "str-name", "n2", None),
        ("n1", 3, "", "n10", 1 << 40),
        ("nö#2", 2, b"", "n1", None),
    ),
    {"n0": 4, "n1": 3, "nö#2": 2},
)
RICH_DIGEST = Digest({"n0": 1, "n0#2": 2, "节点": 9})
RICH_MEMBERS = [
    Member("n0", 12, ALIVE),
    Member("nö", 3, SUSPECT, 2),
    Member("z", 9, DEAD, 7),
]


# ----------------------------------------------------------------------
# Mutants of the shipped decoders, cut from their own source


def mutant(function, old, new):
    """``function`` recompiled in its module with ``old`` replaced."""
    module = inspect.getmodule(function)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function.__name__, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[function.__name__]


def decoders_with(**delta_mutant):
    """The shipped decoders, ``unpack_delta`` replaced by ``mutant(...)``
    - in the codec row and in the frames that nest it."""
    unpack_delta = mutant(gossip.unpack_delta, **delta_mutant)
    frames = {
        name: mutant(
            getattr(net, f"unpack_{name}"), "unpack_delta(", "mutated_delta("
        )
        for name in ("ack", "push")
    }
    for frame in frames.values():
        frame.__globals__["mutated_delta"] = unpack_delta
    return dict(SHIPPED, delta=unpack_delta, **frames)


CODEC_MUTANTS = {
    # The name starts one byte early: the combined struct is 11 bytes.
    "stamp_read_off_by_one": dict(
        old="name_at = stamp + 11", new="name_at = stamp + 10"
    ),
    # The previous location reused when only its length bytes repeat:
    # "n1" then "n2" reads "n1".
    "memo_keyed_on_length": dict(
        old="if startswith(location_raw, name_end):",
        new="if startswith(location_raw[:2], name_end):",
    ),
    # An entry that fits the previous layout read whole whatever its
    # location: "n1" then "n2" reads "n1".
    "layout_ignores_location": dict(
        old="and at_location == location_raw\n", new=""
    ),
    # Any flag byte but 1 reads as sizeless.
    "size_flag_unchecked": dict(
        old="if flag == _NO_SIZE:", new="if flag != _HAS_SIZE:"
    ),
}


class TestOnePassDecodersAreTheFieldReads:
    """Each damaged frame is decoded whole by both sides, so a sweep is
    quadratic in the frame: a 64-entry delta alone is ~30 000 decodes.
    Hence few examples per codec, one codec drawn at a time."""

    @settings(max_examples=12, deadline=None)
    @given(DIGESTS)
    def test_digests(self, digest):
        check_digest(digest, RICH_MEMBERS, SHIPPED)

    @settings(max_examples=12, deadline=None)
    @given(DELTAS)
    def test_deltas(self, delta):
        check_delta(delta, SHIPPED)

    @settings(max_examples=12, deadline=None)
    @given(MEMBERS)
    def test_member_maps(self, members):
        check_members(members, RICH_DIGEST, SHIPPED)

    def test_the_rich_value_reads_the_same(self):
        check_frames(RICH_DIGEST, RICH_DELTA, RICH_MEMBERS, SHIPPED)

    @pytest.mark.parametrize("name", sorted(CODEC_MUTANTS))
    def test_the_oracle_catches_a_mutant(self, name):
        decoders = decoders_with(**CODEC_MUTANTS[name])
        assert decoders["delta"] is not gossip.unpack_delta
        with pytest.raises(AssertionError):
            check_frames(RICH_DIGEST, RICH_DELTA, RICH_MEMBERS, decoders)

    def test_a_pushed_frame_with_a_tail_is_the_one_difference(self):
        """The reference read a PUSH with bytes after it as the PUSH;
        the shipped decoder refuses it, naming where the frame ended."""
        frame = net.pack_push("n0", CTX, RICH_DELTA)
        raw = frame + b"GARBAGE"
        assert ref_unpack_push(raw) == ref_unpack_push(frame)
        with pytest.raises(NetworkError, match=f"at offset {len(frame)} but"):
            net.unpack_push(raw)
        same_reading(raw, ref_unpack_push, net.unpack_push, whole_frame=True)
