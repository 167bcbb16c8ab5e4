"""The in-memory linker: codelet blobs -> ready-to-run entrypoints.

Fixpoint contains a small in-memory ELF linker that links codelets against
the Fixpoint API ahead of time, off the critical path (paper section
4.1.1).  Our analog reads the codelet blob from its repository, takes the
module code from :func:`~repro.codelets.toolchain.admit` - the same
verdict the toolchain reached, validated and compiled once per content
in the process - and caches the linked codelet keyed by the blob's
content.  Invoking a linked codelet is then a direct function call,
exactly like Fixpoint jumping to ``_fix_apply``.

Each linker keeps its own cache and ``links`` count, and links only
blobs its own repository holds: another node having linked the same
codelet does not excuse a missing blob here.

Isolation note: each *invocation* executes the module body in a fresh
sealed-globals namespace, so no mutable state survives between
invocations (the sandbox additionally rejects module-level mutable
state, making the re-execution cheap: only ``def`` statements run).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import CodeType
from typing import Callable, Dict

from ..analysis.sync import TrackedLock
from ..core.api import FixAPI
from ..core.errors import CodeletError, FixError, NotAFunctionError
from ..core.handle import Handle
from ..core.storage import Repository
from .sandbox import ENTRYPOINT, seal_globals
from .toolchain import CodeletImage, admit

Entrypoint = Callable[[FixAPI, Handle], Handle]


@dataclass
class LinkedCodelet:
    """A codelet ready to run: compiled module code plus metadata."""

    name: str
    handle: Handle
    module_code: CodeType

    def instantiate(self) -> Entrypoint:
        """Fresh entrypoint with a sealed, isolated namespace."""
        env = seal_globals()
        exec(self.module_code, env)  # runs only def-statements (validated)
        entry = env.get(ENTRYPOINT)
        if not callable(entry):
            raise NotAFunctionError(f"codelet {self.name!r} lost its entrypoint")
        return entry

    def run(self, fix: FixAPI, input_handle: Handle) -> Handle:
        """Invoke ``_fix_apply``; wrap escaped exceptions as CodeletError."""
        entry = self.instantiate()
        try:
            result = entry(fix, input_handle)
        except FixError:
            # Platform errors (access violations, resource limits, missing
            # objects) propagate as themselves - they are the runtime
            # speaking, not the codelet.
            raise
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise CodeletError(
                f"codelet {self.name!r} raised {type(exc).__name__}: {exc}",
                codelet=self.handle,
            ) from exc
        if not isinstance(result, Handle):
            raise CodeletError(
                f"codelet {self.name!r} returned {type(result).__name__}, "
                "expected a Handle",
                codelet=self.handle,
            )
        return result


class Linker:
    """Thread-safe cache of linked codelets, keyed by blob content."""

    def __init__(self, repo: Repository):
        self.repo = repo
        self._lock = TrackedLock("Linker._lock")
        self._cache: Dict[bytes, LinkedCodelet] = {}
        self.links = 0  # number of cold links performed

    def link(self, handle: Handle) -> LinkedCodelet:
        """Link (or fetch the cached link of) the codelet blob at ``handle``."""
        key = handle.content_key()
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        image = CodeletImage.unpack(self.repo.get_blob(handle).data)
        # Defense in depth: the linker refuses anything the toolchain
        # would, because both ask ``admit`` for one verdict per content.
        module_code = admit(image.name, image.source)
        linked = LinkedCodelet(name=image.name, handle=handle, module_code=module_code)
        with self._lock:
            # Racing first links: the first insert wins and is counted.
            winner = self._cache.setdefault(key, linked)
            if winner is linked:
                self.links += 1
        return winner

    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)
