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

The same identity keys the toolchain's verdict.  :func:`admit` validates
and compiles one ``(name, source)`` - exactly the content a codelet
blob's handle hashes - once per process: every later node that boots
the stdlib, and every peer that links a shipped codelet, reuses the
immutable code object instead of re-running the validator.  A refusal
is never remembered, so a refused source is refused on every attempt.
What stays per node is the repository (:meth:`Toolchain.compile` stores
the blob; a linker still needs it present) and the linker's own cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import CodeType

from ..core.errors import NotAFunctionError
from ..core.frames import LEN, FrameReader, prefixed
from ..core.handle import Handle
from ..core.storage import Repository
from .sandbox import validate_source

MAGIC = b"FIXCODELET\x00"
_READ = FrameReader(NotAFunctionError)


@lru_cache(maxsize=256)
def admit(name: str, source: str) -> CodeType:
    """Validate ``source`` and compile its validated AST: the module code
    of the codelet whose blob holds ``name`` and ``source``.

    Memoised on that content (call it positionally), so each codelet is
    parsed once per process.  ``lru_cache`` stores no exception, so a
    :class:`~repro.core.errors.SandboxError` is raised afresh on every
    call and nothing refused is ever returned.  Code objects are
    immutable: sharing one across nodes shares no state, because every
    invocation executes it in fresh sealed globals.
    """
    tree = validate_source(source, source_name=name)
    return compile(tree, f"<codelet:{name}>", "exec")


@dataclass(frozen=True)
class CodeletImage:
    """A parsed codelet blob: the unit the linker consumes."""

    name: str
    source: str

    def pack(self) -> bytes:
        return MAGIC + prefixed(self.name) + self.source.encode("utf-8")

    @classmethod
    def unpack(cls, raw: bytes) -> "CodeletImage":
        """Read a codelet blob; a malformed one (short header, a name
        running past the end, text that is not UTF-8) raises
        :class:`NotAFunctionError` naming the field and the offset."""
        if not raw.startswith(MAGIC):
            raise NotAFunctionError("blob is not a codelet (bad magic)")
        name_len, offset = _READ.unpack(LEN, raw, len(MAGIC), "name length")
        name, offset = _READ.text(raw, offset, name_len, "name")
        source, _ = _READ.text(raw, offset, len(raw) - offset, "source")
        return cls(name=name, source=source)


class Toolchain:
    """Compiles codelet source into content-addressed codelet blobs."""

    def __init__(self, repo: Repository):
        self.repo = repo

    def compile(self, source: str, name: str = "codelet") -> Handle:
        """Admit ``source`` (:func:`admit`) and store it as a codelet blob.

        Raises :class:`~repro.core.errors.SandboxError` when the source
        violates the sandbox rules; nothing invalid is ever stored.
        """
        admit(name, source)
        image = CodeletImage(name=name, source=source)
        return self.repo.put_blob(image.pack())

    def compile_many(self, sources: dict[str, str]) -> dict[str, Handle]:
        """Compile a mapping of name -> source; returns name -> handle."""
        return {name: self.compile(src, name) for name, src in sources.items()}
