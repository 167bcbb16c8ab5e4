"""Wire format for shipping Fix objects between nodes.

A Fixpoint node delegates jobs to remote nodes by sending Fix values -
Blobs and Trees - in a packed binary format that any node can parse
without consulting a scheduler (paper section 4.2.1).  A *frame* carries
one datum; a *bundle* carries a set of frames (for example, a Thunk's
minimum repository shipped alongside the invocation).

Frame layout::

    [32-byte handle][u32 payload length][payload]

The payload is the Blob's bytes or the Tree's serialized children.  The
receiver verifies content addresses: a frame whose payload does not hash
to its handle is rejected.
"""

from __future__ import annotations

import struct
from typing import Iterable, List

from .data import Blob, Tree
from .errors import SerializationError
from .handle import HANDLE_BYTES, Handle
from .storage import Repository

_LEN = struct.Struct("<I")
MAGIC = b"FIXB"  # bundle magic


def encode_frame(repo: Repository, handle: Handle) -> bytes:
    """Serialize one datum (by its handle) into a frame."""
    if not handle.is_data:
        raise SerializationError(f"frames carry data, not {handle!r}")
    if handle.is_literal:
        return handle.pack() + _LEN.pack(0)
    datum = repo.get(handle)
    payload = datum.serialize()
    return handle.pack() + _LEN.pack(len(payload)) + payload


def decode_frame(repo: Repository, raw: bytes, offset: int = 0) -> tuple[Handle, int]:
    """Parse one frame, verify it, store the datum; return (handle, next offset)."""
    if len(raw) - offset < HANDLE_BYTES + _LEN.size:
        raise SerializationError(f"truncated frame header at offset {offset}")
    handle = Handle.unpack(raw[offset : offset + HANDLE_BYTES])
    offset += HANDLE_BYTES
    (length,) = _LEN.unpack_from(raw, offset)
    offset += _LEN.size
    if len(raw) - offset < length:
        raise SerializationError(f"truncated frame payload at offset {offset}")
    payload = raw[offset : offset + length]
    offset += length
    if handle.is_literal:
        if length:
            raise SerializationError("literal frames carry no payload")
        return handle, offset
    datum = Tree.deserialize(payload) if handle.is_tree else Blob(payload)
    if datum.handle().content_key() != handle.content_key():
        raise SerializationError(f"payload does not match handle {handle!r}")
    repo.put(datum)
    return handle, offset


def encode_bundle(repo: Repository, handles: Iterable[Handle]) -> bytes:
    """Serialize several data (deduplicated by content) into one bundle."""
    frames: List[bytes] = []
    seen: set[bytes] = set()
    count = 0
    for handle in handles:
        key = handle.content_key()
        if key in seen:
            continue
        seen.add(key)
        frames.append(encode_frame(repo, handle))
        count += 1
    return MAGIC + _LEN.pack(count) + b"".join(frames)


def decode_bundle(repo: Repository, raw: bytes) -> List[Handle]:
    """Parse a bundle into the repository; return the handles in order."""
    if len(raw) < 4 + _LEN.size:
        raise SerializationError("truncated bundle header at offset 0")
    if raw[:4] != MAGIC:
        raise SerializationError("bad bundle magic")
    (count,) = _LEN.unpack_from(raw, 4)
    offset = 4 + _LEN.size
    handles: List[Handle] = []
    for _ in range(count):
        handle, offset = decode_frame(repo, raw, offset)
        handles.append(handle)
    if offset != len(raw):
        raise SerializationError("trailing bytes after bundle")
    return handles
