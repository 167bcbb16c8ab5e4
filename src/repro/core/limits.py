"""Resource-limit blobs.

Every Application tree's first entry is a resource-limits Blob (paper
fig. 1: "resource limits").  It bounds the hardware resources a Thunk may
use, and optionally carries an *output-size hint* that the scheduler uses
to include the cost of moving a result when choosing a placement (paper
section 4.2.2: "Applications can 'hint' an estimated output size of a
Thunk").

The packed format is 16 bytes - small enough to inline as a literal handle,
so limits never cost a storage round-trip::

    bytes[0:8]   memory limit in bytes (LE; 0 means the platform default)
    bytes[8:16]  output size hint in bytes (LE; 0 means no hint)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import HandleError
from .handle import Handle

DEFAULT_MEMORY_LIMIT = 1 << 30  # 1 GiB, matching the paper's fig. 8a tasks
_PACKED_LEN = 16


@dataclass(frozen=True)
class ResourceLimits:
    """Memory budget and optional output-size hint for one invocation."""

    memory_bytes: int = DEFAULT_MEMORY_LIMIT
    output_size_hint: int = 0

    def __post_init__(self):
        if self.memory_bytes < 0 or self.output_size_hint < 0:
            raise HandleError("resource limits must be non-negative")

    def pack(self) -> bytes:
        return self.memory_bytes.to_bytes(8, "little") + self.output_size_hint.to_bytes(
            8, "little"
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "ResourceLimits":
        if len(raw) != _PACKED_LEN:
            raise HandleError(f"resource limits are {_PACKED_LEN} bytes, got {len(raw)}")
        return cls(
            memory_bytes=int.from_bytes(raw[0:8], "little"),
            output_size_hint=int.from_bytes(raw[8:16], "little"),
        )

    def handle(self) -> Handle:
        """The literal handle carrying this limits blob, built once per
        value: every Application tree's first entry is one, and a
        program uses a handful of values."""
        return _literal(self)


@lru_cache(maxsize=256)
def _literal(limits: ResourceLimits) -> Handle:
    return Handle.of_blob(limits.pack())


DEFAULT_LIMITS = ResourceLimits()
