"""Wire frames: the reader every decoder refuses through, and
:class:`Rows`, the keyed layout a digest and a member map are declared
as - once, for packing, reading, refusing and sizing alike."""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import starmap
from typing import Collection, Iterable, List, Optional, Sequence, Tuple

#: The widths every layout shares: a ``u32`` count, a ``u16`` length
#: prefix and a ``u64`` version, size or stamp.
COUNT = struct.Struct("<I")
LEN = struct.Struct("<H")
U64 = struct.Struct("<Q")


class FrameReader:
    """The refusals every ``unpack_*`` raises: a read past the frame, a
    string field that is not UTF-8, or bytes left after a whole frame
    raise ``error`` (the decoder's own :class:`~repro.core.errors.FixError`
    subclass) naming the field and the offset, instead of letting
    ``struct`` or ``decode`` raise a bare error - or a slice silently
    come back short and the tail misparse as garbage fields.

    The gossip and membership decoders read a well-formed row or entry
    in one pass with their bounds checked inline, and come here only for
    the one that pass refused: re-read field by field, it raises the
    error that names what was wrong.
    """

    def __init__(self, error: type):
        self.error = error

    def take(self, raw: bytes, offset: int, size: int, field: str):
        """``size`` bytes at ``offset``: ``(bytes, end offset)``."""
        end = offset + size
        if end > len(raw):
            raise self.error(
                f"truncated frame: {field} needs {size} byte(s) at offset "
                f"{offset} but only {len(raw)} byte(s) total"
            )
        return raw[offset:end], end

    def unpack(self, fmt, raw: bytes, offset: int, field: str):
        """One single-field ``struct.Struct``: ``(value, end offset)``."""
        try:
            return fmt.unpack_from(raw, offset)[0], offset + fmt.size
        except struct.error:
            self.take(raw, offset, fmt.size, field)  # raises: it ran short

    def done(self, raw: bytes, offset: int, frame: str) -> None:
        """Refuse bytes past ``offset``, where a whole ``frame`` ends."""
        if offset != len(raw):
            raise self.error(
                f"trailing bytes: {frame} ends at offset {offset} but "
                f"{len(raw)} byte(s) arrived"
            )

    def text(self, raw: bytes, offset: int, size: int, field: str):
        """``size`` bytes of UTF-8 at ``offset``: ``(str, end offset)``."""
        end = offset + size
        if end <= len(raw):
            try:
                return raw[offset:end].decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise self.error(
                    f"malformed frame: {field} at offset {offset} is not "
                    f"UTF-8 ({exc.reason} at byte {exc.start})"
                ) from None
        self.take(raw, offset, size, field)  # raises: it ran short


# Memoised: they take node, codelet and exception type names, a handful
# per cluster that every frame repeats, never object names.
@lru_cache(maxsize=4096)
def utf8_size(text: str) -> int:
    return len(text.encode("utf-8"))


@lru_cache(maxsize=4096)
def prefixed(text: str) -> bytes:
    """``[u16 len][utf-8]``"""
    raw = text.encode("utf-8")
    return LEN.pack(len(raw)) + raw


class Rows:
    """A keyed map on the wire: ``[u32 count]``, then per row
    ``[u16 len][utf-8 key][fixed fields as one struct]``, declared with
    the names its refusals use: ``count``, ``key`` as ``(length name,
    key name)``, ``fields`` as ``(name, struct code)`` pairs in wire
    order, and ``tag`` - ``None``, or when the last field is a tag
    byte, its valid values and the refusal (a format of the byte) that
    names another."""

    def __init__(
        self,
        count: str,
        key: Tuple[str, str],
        fields: Sequence[Tuple[str, str]],
        tag: Optional[Tuple[Collection[int], str]],
    ):
        self.count = count
        self.key = key
        self.fields = [(n, struct.Struct("<" + c)) for n, c in fields]
        self.fixed = struct.Struct("<" + "".join(c for _, c in fields))
        self.valid, self.refusal = (None, "") if tag is None else tag

    def pack(self, keys: Sequence[str], rows: Iterable[tuple]) -> bytes:
        """Rows keyed ``keys``, in that order, whose fixed fields are
        ``rows`` (one tuple per key, its fields in wire order)."""
        parts = [COUNT.pack(len(keys))] * (2 * len(keys) + 1)
        parts[1::2] = map(prefixed, keys)
        parts[2::2] = starmap(self.fixed.pack, rows)
        return b"".join(parts)

    def unpack(self, frame: FrameReader, raw: bytes, offset: int):
        """``(keys, rows, end offset)``: the keys in wire order and one
        tuple of fixed fields per key, as :meth:`pack` takes them.  One
        pass: a row's length prefix, its key, then its fixed fields
        through one struct, the reads checking the bounds.  The row the
        pass cannot read - short, not UTF-8, or a bad tag -
        :meth:`_refuse` re-reads field by field."""
        count, offset = frame.unpack(COUNT, raw, offset, self.count)
        keys: List[str] = []
        rows: List[tuple] = []
        length_from, fixed_from = LEN.unpack_from, self.fixed.unpack_from
        width, valid = self.fixed.size, self.valid
        try:
            for _ in range(count):
                at = offset + 2
                stop = at + length_from(raw, offset)[0]
                row = fixed_from(raw, stop)
                if valid is not None and row[-1] not in valid:
                    break
                keys.append(raw[at:stop].decode("utf-8"))
                rows.append(row)
                offset = stop + width
            else:
                return keys, rows, offset
        except (struct.error, UnicodeDecodeError):
            pass
        self._refuse(frame, raw, offset)

    def _refuse(self, frame: FrameReader, raw: bytes, offset: int) -> None:
        """The row :meth:`unpack`'s pass stopped at, read field by field:
        the pass stops only at a row one of these reads refuses, naming
        the field and the offset, or at a bad tag."""
        length, offset = frame.unpack(LEN, raw, offset, self.key[0])
        _, offset = frame.text(raw, offset, length, self.key[1])
        for name, fmt in self.fields:
            value, offset = frame.unpack(fmt, raw, offset, name)
        raise frame.error(self.refusal.format(value))  # each read passed

    def size(self, keys: Collection[str]) -> int:
        """``len(self.pack(keys, ...))`` without packing."""
        row = LEN.size + self.fixed.size
        return COUNT.size + row * len(keys) + sum(map(utf8_size, keys))
