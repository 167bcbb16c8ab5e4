"""The ahead-of-time trusted toolchain (paper section 4.1.1).

The original Fixpoint compiles Wasm modules to x86-64 machine codelets via
wasm2c + libclang + liblld, producing ELF files stored as Fix data.  Our
analog "compiles" deterministic Python source into a *codelet blob*: a
self-describing Fix Blob holding the validated source, stored
content-addressed in a repository.  The toolchain runs entirely ahead of
time - nothing it does is on the invocation critical path.

Codelet blob format::

    b"FIXCODELET\\x00" [u16 name length] [name utf-8] [source utf-8]

The blob's content handle *is* the function's identity: two copies of the
same source anywhere in the system share one handle, so code moves around
the cluster exactly like data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..core.errors import NotAFunctionError, SandboxError
from ..core.handle import Handle
from ..core.storage import Repository
from .sandbox import validate_source

MAGIC = b"FIXCODELET\x00"
_NAME_LEN = struct.Struct("<H")


@dataclass(frozen=True)
class CodeletImage:
    """A parsed codelet blob: the unit the linker consumes."""

    name: str
    source: str

    def pack(self) -> bytes:
        name_bytes = self.name.encode("utf-8")
        return MAGIC + _NAME_LEN.pack(len(name_bytes)) + name_bytes + self.source.encode(
            "utf-8"
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "CodeletImage":
        if not raw.startswith(MAGIC):
            raise NotAFunctionError("blob is not a codelet (bad magic)")
        offset = len(MAGIC)
        (name_len,) = _NAME_LEN.unpack_from(raw, offset)
        offset += _NAME_LEN.size
        name = raw[offset : offset + name_len].decode("utf-8")
        source = raw[offset + name_len :].decode("utf-8")
        return cls(name=name, source=source)


def is_codelet_blob(raw: bytes) -> bool:
    return raw.startswith(MAGIC)


class Toolchain:
    """Compiles codelet source into content-addressed codelet blobs."""

    def __init__(self, repo: Repository):
        self.repo = repo

    def compile(self, source: str, name: str = "codelet") -> Handle:
        """Validate ``source`` and store it as a codelet blob.

        Raises :class:`~repro.core.errors.SandboxError` when the source
        violates the sandbox rules; nothing invalid is ever stored.
        """
        validate_source(source, source_name=name)
        image = CodeletImage(name=name, source=source)
        return self.repo.put_blob(image.pack())

    def compile_many(self, sources: dict[str, str]) -> dict[str, Handle]:
        """Compile a mapping of name -> source; returns name -> handle."""
        return {name: self.compile(src, name) for name, src in sources.items()}

    def recompile_check(self, handle: Handle) -> CodeletImage:
        """Re-validate an existing codelet blob (defense in depth)."""
        raw = self.repo.get_blob(handle).data
        image = CodeletImage.unpack(raw)
        try:
            validate_source(image.source, source_name=image.name)
        except SandboxError as exc:
            raise SandboxError(
                f"stored codelet {image.name!r} failed re-validation: {exc}"
            ) from exc
        return image
