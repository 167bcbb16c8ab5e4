"""``repro.core.frames``: a ``Rows`` declaration is its whole layout.

The digest and member-map declarations are built at import, so the
gossip and membership suites never see a declaration being made.  Here
one is made inside the test, with a two-field row and a tag byte, and
everything the declaration derives - packing, the one-pass read, the
field-by-field refusal and the byte size - is checked against bytes
written out by hand.
"""

from __future__ import annotations

import struct

import pytest

from repro.core.errors import FixError
from repro.core.frames import FrameReader, Rows


class RowError(FixError):
    pass


def declare(tag):
    return Rows(
        count="pair count",
        key=("name length", "name"),
        fields=(("weight", "H"), ("flag", "B")),
        tag=tag,
    )


#: ``[u32 2]``, then ``[u16 1]a[u16 7][u8 0]`` and ``[u16 3]bé[u16 9][u8 1]``.
FRAME = (
    struct.pack("<I", 2)
    + struct.pack("<H", 1) + b"a" + struct.pack("<HB", 7, 0)
    + struct.pack("<H", 3) + "bé".encode() + struct.pack("<HB", 9, 1)
)
KEYS = ["a", "bé"]
ROWS = [(7, 0), (9, 1)]


class TestRowsAreTheirDeclaration:
    def test_pack_read_and_size_agree_with_the_bytes(self):
        rows = declare(({0, 1}, "bad flag byte {}"))
        frame = FrameReader(RowError)
        assert rows.pack(KEYS, ROWS) == FRAME
        assert rows.unpack(frame, FRAME + b"tail", 0) == (KEYS, ROWS, len(FRAME))
        assert rows.size(KEYS) == len(FRAME)
        assert rows.pack([], []) == struct.pack("<I", 0)
        assert rows.unpack(frame, struct.pack("<I", 0), 0) == ([], [], 4)
        assert rows.size([]) == 4

    def test_refusals_name_the_declared_fields(self):
        rows = declare(({0, 1}, "bad flag byte {}"))
        frame = FrameReader(RowError)
        # Cuts in either row, in each of its fields.
        for cut, field, at in ((3, "pair count", 0), (5, "name length", 4),
                               (6, "name", 6), (8, "weight", 7),
                               (9, "flag", 9), (11, "name length", 10),
                               (14, "name", 12), (16, "weight", 15),
                               (17, "flag", 17)):
            with pytest.raises(
                RowError, match=f"truncated frame: {field} needs .* offset {at} "
            ):
                rows.unpack(frame, FRAME[:cut], 0)
        bad_name = bytearray(FRAME)
        bad_name[6] = 0xFF
        with pytest.raises(RowError, match="name at offset 6 is not UTF-8"):
            rows.unpack(frame, bytes(bad_name), 0)
        bad_flag = FRAME[:-1] + b"\x07"
        with pytest.raises(RowError, match="^bad flag byte 7$"):
            rows.unpack(frame, bad_flag, 0)

    def test_a_bad_tag_is_refused_before_a_later_cut(self):
        rows = declare(({0, 1}, "bad flag byte {}"))
        frame = bytearray(FRAME[:-2])  # the second row is cut short...
        frame[9] = 5  # ...after the first row's flag went bad
        with pytest.raises(RowError, match="^bad flag byte 5$"):
            rows.unpack(FrameReader(RowError), bytes(frame), 0)

    def test_without_a_tag_every_last_field_is_read(self):
        rows = declare(None)
        frame = FRAME[:-1] + b"\x07"
        assert rows.unpack(FrameReader(RowError), frame, 0) == (
            KEYS, [(7, 0), (9, 7)], len(FRAME)
        )
