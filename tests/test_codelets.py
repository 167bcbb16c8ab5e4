"""Tests for the sandbox, trusted toolchain, and in-memory linker."""

from __future__ import annotations

import threading

import pytest

from repro.codelets import linker as linker_module
from repro.codelets import toolchain as toolchain_module
from repro.codelets.linker import LinkedCodelet, Linker
from repro.codelets.sandbox import SAFE_BUILTINS, validate_source
from repro.codelets.stdlib import SOURCES, blob_int, compile_stdlib, int_blob
from repro.codelets.toolchain import (
    MAGIC,
    CodeletImage,
    Toolchain,
    admit,
)
from repro.core.errors import (
    CodeletError,
    MissingObjectError,
    NotAFunctionError,
    SandboxError,
)
from repro.core.storage import Repository
from repro.fixpoint.runtime import Fixpoint

VALID = """
def _fix_apply(fix, input):
    return input
"""


class TestSandboxRejections:
    @pytest.mark.parametrize(
        "source, reason",
        [
            ("import os\ndef _fix_apply(fix, input):\n    return input", "import"),
            (
                "from time import time\ndef _fix_apply(fix, input):\n    return input",
                "import-from",
            ),
            ("def _fix_apply(fix, input):\n    return open('/etc/passwd')", "open"),
            ("def _fix_apply(fix, input):\n    return eval('1')", "eval"),
            ("def _fix_apply(fix, input):\n    return __import__('os')", "dunder import"),
            (
                "def _fix_apply(fix, input):\n    return input.__class__",
                "dunder attribute",
            ),
            (
                "def _fix_apply(fix, input):\n    x = getattr(input, 'pack')\n    return input",
                "getattr laundering",
            ),
            (
                "counter = []\ndef _fix_apply(fix, input):\n    return input",
                "mutable module state",
            ),
            (
                "def _fix_apply(fix, input, acc=[]):\n    return input",
                "mutable default",
            ),
            (
                "def _fix_apply(fix, input):\n    global x\n    return input",
                "global statement",
            ),
            ("def _fix_apply(fix, input):\n    return hash(input)", "salted hash"),
            ("def other(fix, input):\n    return input", "missing entrypoint"),
            ("def _fix_apply(fix, input:\n    return input", "syntax error"),
            (
                "async def _fix_apply(fix, input):\n    return input",
                "async entrypoint",
            ),
            (
                "def _fix_apply(fix, input):\n    print('hi')\n    return input",
                # print is not forbidden by name, but absent from builtins -
                # this source *validates*; see TestSealedBuiltins below.
                None,
            ),
        ],
    )
    def test_rejections(self, source, reason):
        if reason is None:
            validate_source(source)  # allowed at validation time
            return
        with pytest.raises(SandboxError):
            validate_source(source)

    def test_valid_source_passes(self):
        validate_source(VALID)

    def test_constant_module_globals_allowed(self):
        validate_source(
            "WIDTH = 8\nNAME = 'x'\nPAIR = (1, 2)\nNEG = -1\nEXPR = 3 * 7\n"
            + VALID
        )

    def test_safe_builtins_have_no_io(self):
        for name in ("open", "exec", "eval", "__import__", "print", "input"):
            assert name not in SAFE_BUILTINS


class TestSealedBuiltins:
    def test_absent_builtin_fails_at_runtime(self, fixpoint):
        handle = fixpoint.compile(
            "def _fix_apply(fix, input):\n    print('leak')\n    return input",
            "printer",
        )
        arg = fixpoint.repo.put_blob(b"x" * 64)
        with pytest.raises(CodeletError):
            fixpoint.run(handle, [arg])

    def test_exception_wrapped_as_codelet_error(self, fixpoint):
        handle = fixpoint.compile(
            "def _fix_apply(fix, input):\n    return 1 // 0", "boom"
        )
        with pytest.raises(CodeletError) as excinfo:
            fixpoint.run(handle, [])
        assert "ZeroDivisionError" in str(excinfo.value)

    def test_non_handle_return_rejected(self, fixpoint):
        handle = fixpoint.compile(
            "def _fix_apply(fix, input):\n    return 42", "badret"
        )
        with pytest.raises(CodeletError):
            fixpoint.run(handle, [])


class TestToolchain:
    def test_compile_stores_blob(self, repo):
        toolchain = Toolchain(repo)
        handle = toolchain.compile(VALID, "ident")
        raw = repo.get_blob(handle).data
        image = CodeletImage.unpack(raw)
        assert image.name == "ident"
        assert image.source == VALID

    def test_compile_is_content_addressed(self, repo):
        toolchain = Toolchain(repo)
        assert toolchain.compile(VALID, "a") == toolchain.compile(VALID, "a")
        assert toolchain.compile(VALID, "a") != toolchain.compile(VALID, "b")

    def test_invalid_source_never_stored(self, repo):
        toolchain = Toolchain(repo)
        before = len(repo)
        with pytest.raises(SandboxError):
            toolchain.compile("import os\n" + VALID, "evil")
        assert len(repo) == before

    def test_unpack_rejects_non_codelet(self):
        with pytest.raises(NotAFunctionError):
            CodeletImage.unpack(b"ELF\x7f not a codelet")


#: A valid image whose name and source hold multi-byte UTF-8, so some
#: cuts and substitutions land inside a character.
IMAGE = CodeletImage(name="añadir", source=VALID + "# ünïcode ✓\n").pack()
HEADER = len(MAGIC) + 2 + len("añadir".encode("utf-8"))

#: (blob, the field the refusal must name, the offset it must name)
MALFORMED = [
    (MAGIC + b"\x09", "name length", len(MAGIC)),
    (MAGIC + b"\x09\x00ab", "name", len(MAGIC) + 2),
    (MAGIC + b"\x02\x00\xff\xfe" + VALID.encode(), "name", len(MAGIC) + 2),
    (MAGIC + b"\x01\x00a\xff" + VALID.encode(), "source", len(MAGIC) + 3),
]


def unpacks_to_itself_or_refuses(raw: bytes) -> bool:
    """``True`` when ``raw`` is refused with the typed error; otherwise
    it must be a whole image that packs back to exactly ``raw``."""
    try:
        image = CodeletImage.unpack(raw)
    except NotAFunctionError:
        return True
    assert image.pack() == raw, raw
    return False


class TestMalformedImagesAreRefused:
    """Any blob that starts with the magic reaches ``unpack`` - a
    peer-shipped one too, on the link path - so a malformed image is a
    :class:`NotAFunctionError` naming the field and the offset, never a
    ``struct.error``, a ``UnicodeDecodeError`` or a short slice."""

    def test_every_prefix(self):
        refused = [
            unpacks_to_itself_or_refuses(IMAGE[:cut]) for cut in range(len(IMAGE) + 1)
        ]
        # The header cannot be cut and still parse; the source has no
        # length field, so a cut between whole characters is an image.
        assert all(refused[:HEADER])
        assert not refused[-1]
        assert any(refused[HEADER:])  # inside a multi-byte character

    @pytest.mark.parametrize("value", [0x00, 0x7F, 0x80, 0xC3, 0xFF])
    def test_substituted_bytes(self, value):
        for at in range(len(IMAGE)):
            raw = bytearray(IMAGE)
            raw[at] = value
            unpacks_to_itself_or_refuses(bytes(raw))

    @pytest.mark.parametrize("raw, field, offset", MALFORMED)
    def test_the_refusal_names_field_and_offset(self, raw, field, offset):
        with pytest.raises(NotAFunctionError) as excinfo:
            CodeletImage.unpack(raw)
        message = str(excinfo.value)
        assert f"{field} " in message and f"offset {offset}" in message

    @pytest.mark.parametrize("raw", [raw for raw, _field, _offset in MALFORMED])
    def test_evaluating_one_is_a_typed_error(self, fixpoint, raw):
        function = fixpoint.repo.put_blob(raw)
        with pytest.raises(NotAFunctionError):
            fixpoint.run(function, [])


class TestLinker:
    def test_link_caches(self, repo):
        toolchain = Toolchain(repo)
        linker = Linker(repo)
        handle = toolchain.compile(VALID, "ident")
        first = linker.link(handle)
        second = linker.link(handle)
        assert first is second
        assert linker.links == 1
        assert linker.cache_size() == 1

    def test_link_validates(self, repo):
        # Plant a blob that bypassed the toolchain.
        evil = CodeletImage(name="evil", source="import os\n" + VALID)
        handle = repo.put_blob(evil.pack())
        with pytest.raises(SandboxError):
            Linker(repo).link(handle)

    def test_linked_codelet_runs(self, repo):
        toolchain = Toolchain(repo)
        linker = Linker(repo)
        handle = toolchain.compile(SOURCES["add_u8"], "add_u8")
        linked = linker.link(handle)
        assert linked.name == "add_u8"

    def test_racing_first_links_share_one_winner(self, repo, monkeypatch):
        handle = Toolchain(repo).compile(VALID, "ident")
        linker = Linker(repo)
        callers = 4
        barrier = threading.Barrier(callers, timeout=10)

        def admit_once_all_missed(name, source):
            barrier.wait()  # every caller is past the cache lookup
            return admit(name, source)

        monkeypatch.setattr(linker_module, "admit", admit_once_all_missed)
        linked = [None] * callers

        def link(slot):
            linked[slot] = linker.link(handle)

        threads = [threading.Thread(target=link, args=(slot,)) for slot in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert linked[0] is not None
        assert all(each is linked[0] for each in linked)
        assert linker.link(handle) is linked[0]
        assert linker.links == 1
        assert linker.cache_size() == 1

    def test_no_state_leaks_between_invocations(self, fixpoint):
        # A codelet that tries to accumulate across calls via a module
        # constant cannot: constants are immutable, and module re-exec
        # gives each invocation a fresh namespace.
        source = (
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    value = int.from_bytes(fix.read_blob(entries[2]), 'little')\n"
            "    return fix.create_blob((value + 1).to_bytes(8, 'little'))\n"
        )
        handle = fixpoint.compile(source, "inc")
        arg = fixpoint.repo.put_blob(int_blob(5))
        first = fixpoint.run(handle, [arg])
        second = fixpoint.run(handle, [arg])
        assert blob_int(fixpoint.repo.get_blob(first).data) == 6
        assert blob_int(fixpoint.repo.get_blob(second).data) == 6


class TestStdlib:
    def test_compile_stdlib(self, repo):
        handles = compile_stdlib(repo)
        assert set(handles) == set(SOURCES)

    def test_int_blob_roundtrip(self):
        assert blob_int(int_blob(123456)) == 123456
        assert len(int_blob(7, width=1)) == 1


# ----------------------------------------------------------------------
# The toolchain runs once per content; presence and state stay per node

#: A codelet that would count its invocations if anything of its
#: namespace survived one: the function attribute lives on the function
#: object its module body defines.
COUNTER = """
def _fix_apply(fix, input):
    try:
        calls = _fix_apply.calls + 1
    except Exception:
        calls = 1
    _fix_apply.calls = calls
    return fix.create_blob(calls.to_bytes(8, "little"))
"""

REFUSED = "import os\n" + VALID


def count_validations(monkeypatch) -> list:
    """Record every run of the sandbox validator from here on."""
    calls = []

    def counted(source, source_name="<codelet>"):
        calls.append(source_name)
        return validate_source(source, source_name)

    monkeypatch.setattr(toolchain_module, "validate_source", counted)
    return calls


def refuses(call) -> bool:
    try:
        call()
    except (SandboxError, MissingObjectError):
        return True
    return False


def check_refused_twice() -> None:
    """(b) A refused source is refused on every attempt, and nothing is
    stored either time."""
    repo = Repository()
    toolchain = Toolchain(repo)
    for _ in range(2):
        assert refuses(lambda: toolchain.compile(REFUSED, "evil-twice"))
        assert len(repo) == 0


def check_keyed_by_content() -> None:
    """(c) A planted invalid image is refused at link even after its
    valid same-name twin was admitted."""
    repo = Repository()
    Linker(repo).link(Toolchain(repo).compile(VALID, "twin"))
    planted = repo.put_blob(CodeletImage(name="twin", source=REFUSED).pack())
    assert refuses(lambda: Linker(repo).link(planted))


def check_presence_is_per_node() -> None:
    """(d) A node whose repo lacks the blob cannot link it, however
    many other nodes already have."""
    holder = Fixpoint(with_stdlib=False)
    handle = holder.compile(VALID + "# presence\n", "presence")
    assert holder.linker.link(handle).handle == handle
    assert refuses(lambda: Fixpoint(with_stdlib=False).linker.link(handle))


def check_no_shared_state() -> None:
    """(e) Two nodes run one shared code object, and no invocation on
    either sees anything an earlier one left."""
    nodes = [Fixpoint(with_stdlib=False) for _ in range(2)]
    handles = [node.compile(COUNTER, "counter") for node in nodes]
    assert handles[0] == handles[1]
    codes = [node.linker.link(handles[0]).module_code for node in nodes]
    assert codes[0] is codes[1]
    for node in (nodes[0], nodes[1], nodes[0], nodes[1]):
        result = node.run(handles[0], [])
        assert blob_int(node.repo.get_blob(result).data) == 1


def memoises_failures(monkeypatch) -> None:
    verdicts = {}

    def mutant(name, source):
        if (name, source) not in verdicts:
            try:
                verdicts[name, source] = admit(name, source)
            except SandboxError:
                verdicts[name, source] = None
                raise
        return verdicts[name, source]

    monkeypatch.setattr(toolchain_module, "admit", mutant)
    monkeypatch.setattr(linker_module, "admit", mutant)


def keyed_by_name(monkeypatch) -> None:
    verdicts = {}

    def mutant(name, source):
        if name not in verdicts:
            verdicts[name] = admit(name, source)
        return verdicts[name]

    monkeypatch.setattr(toolchain_module, "admit", mutant)
    monkeypatch.setattr(linker_module, "admit", mutant)


def process_wide_link_cache(monkeypatch) -> None:
    shared = {}
    init = Linker.__init__

    def mutant(self, repo):
        init(self, repo)
        self._cache = shared

    monkeypatch.setattr(Linker, "__init__", mutant)


def shared_globals(monkeypatch) -> None:
    entries = {}
    instantiate = LinkedCodelet.instantiate

    def mutant(self):
        if self.module_code not in entries:
            entries[self.module_code] = instantiate(self)
        return entries[self.module_code]

    monkeypatch.setattr(LinkedCodelet, "instantiate", mutant)


#: check -> the mutant it must catch
GUARDED = {
    "refused_twice": (check_refused_twice, memoises_failures),
    "keyed_by_content": (check_keyed_by_content, keyed_by_name),
    "presence_is_per_node": (check_presence_is_per_node, process_wide_link_cache),
    "no_shared_state": (check_no_shared_state, shared_globals),
}


class TestToolchainRunsOncePerContent:
    """``admit`` remembers a verdict per ``(name, source)`` - the content
    a codelet blob hashes - and nothing else: a refusal is not
    remembered, a node still needs the blob in its own repo, and every
    invocation still gets fresh globals."""

    def test_a_second_node_boots_without_the_validator(self, monkeypatch):
        first = Fixpoint()
        calls = count_validations(monkeypatch)
        second = Fixpoint()
        assert compile_stdlib(Repository()) == second.stdlib == first.stdlib
        assert calls == []

    @pytest.mark.parametrize("check", sorted(GUARDED))
    def test_check(self, check):
        GUARDED[check][0]()

    @pytest.mark.parametrize("check", sorted(GUARDED))
    def test_the_check_catches_its_mutant(self, check, monkeypatch):
        guard, mutate = GUARDED[check]
        mutate(monkeypatch)
        with pytest.raises(AssertionError):
            guard()
