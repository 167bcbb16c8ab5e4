"""Tests for Flatware: fs-as-Trees, WASI driver, archive, SeBS ports."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CodeletError
from repro.core.thunks import make_selection, shallow, strict
from repro.flatware.archive import (
    ArchiveError,
    compress,
    compress_archive,
    create_archive,
    decompress,
    extract_archive,
    extract_compressed,
)
from repro.flatware.fs import (
    GET_FILE_SOURCE,
    PathError,
    build_fs,
    list_dir,
    read_file,
    resolve_path,
)
from repro.flatware.wasi import compile_program, run_program
from repro.workloads.sebs import run_compression, run_dynamic_html

SAMPLE_FS = {
    "etc": {"passwd": b"root:0", "hosts": b"127.0.0.1 localhost"},
    "usr": {"share": {"dict": b"abc\ndef"}},
    "readme.txt": b"hello",
}


class TestFilesystem:
    def test_read_file(self, repo):
        root = build_fs(repo, SAMPLE_FS)
        assert read_file(repo, root, "etc/passwd") == b"root:0"
        assert read_file(repo, root, "usr/share/dict") == b"abc\ndef"
        assert read_file(repo, root, "readme.txt") == b"hello"

    def test_list_dir(self, repo):
        root = build_fs(repo, SAMPLE_FS)
        assert list_dir(repo, root) == ["etc", "readme.txt", "usr"]
        etc = resolve_path(repo, root, "etc")
        assert list_dir(repo, etc) == ["hosts", "passwd"]

    def test_missing_path(self, repo):
        root = build_fs(repo, SAMPLE_FS)
        with pytest.raises(PathError):
            resolve_path(repo, root, "etc/shadow")

    def test_file_as_directory(self, repo):
        root = build_fs(repo, SAMPLE_FS)
        with pytest.raises(PathError):
            resolve_path(repo, root, "readme.txt/deeper")

    def test_bad_names_rejected(self, repo):
        with pytest.raises(PathError):
            build_fs(repo, {"a/b": b"x"})
        with pytest.raises(PathError):
            build_fs(repo, {"": b"x"})

    def test_ref_encoding_hides_children(self, repo):
        root = build_fs(repo, SAMPLE_FS, accessible=False)
        tree = repo.get_tree(root)
        assert all(child.is_ref for child in tree if not child.is_literal)

    @settings(max_examples=10, deadline=None)
    @given(
        st.dictionaries(
            st.text(
                alphabet="abcdefgh", min_size=1, max_size=6
            ),
            st.binary(max_size=50),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip_property(self, files):
        from repro.core.storage import Repository

        repo = Repository()
        root = build_fs(repo, files)
        for name, payload in files.items():
            assert read_file(repo, root, name) == payload


class TestGetFileCodelet:
    """The paper's Algorithm 3 running for real over Ref-encoded trees."""

    def _run(self, fixpoint, path):
        repo = fixpoint.repo
        root = build_fs(repo, SAMPLE_FS, accessible=False)
        get_file = fixpoint.compile(GET_FILE_SOURCE, "get-file")
        thunk = fixpoint.invoke(
            get_file,
            [
                repo.put_blob(path.encode()),
                strict(make_selection(repo, root, 0)),
                shallow(root.make_identification()),
            ],
        )
        return fixpoint.eval(thunk.wrap_strict())

    def test_descends_directories(self, fixpoint):
        result = self._run(fixpoint, "usr/share/dict")
        assert fixpoint.repo.get_blob(result).data == b"abc\ndef"

    def test_top_level_file(self, fixpoint):
        result = self._run(fixpoint, "readme.txt")
        assert fixpoint.repo.get_blob(result).data == b"hello"

    def test_missing_entry_raises(self, fixpoint):
        with pytest.raises(CodeletError):
            self._run(fixpoint, "etc/ghost")

    def test_minimal_footprint(self, fixpoint):
        """The walk maps only info blobs - never whole directories."""
        self._run(fixpoint, "usr/share/dict")
        mapped = fixpoint.trace.total_bytes_mapped()
        # Far less than the serialized filesystem.
        assert mapped < 2048


class TestWasiPrograms:
    def test_echo_args(self, fixpoint):
        program = compile_program(
            fixpoint,
            "def wasi_main(wasi):\n"
            "    wasi['write_stdout'](' '.join(wasi['args']).encode('ascii'))\n",
            "echo",
        )
        out = run_program(fixpoint, program, ["a", "b", "c"], {})
        assert out == b"a b c"

    def test_read_file_and_stdin(self, fixpoint):
        program = compile_program(
            fixpoint,
            "def wasi_main(wasi):\n"
            "    data = wasi['read_file']('cfg/mode')\n"
            "    wasi['write_stdout'](wasi['stdin'] + b'|' + data)\n",
            "cat",
        )
        out = run_program(fixpoint, program, [], {"cfg": {"mode": b"fast"}})
        assert out == b"|fast"

    def test_list_dir_and_stat(self, fixpoint):
        program = compile_program(
            fixpoint,
            "def wasi_main(wasi):\n"
            "    names = wasi['list_dir']('data')\n"
            "    sizes = [wasi['stat']('data/' + n)['size'] for n in names]\n"
            "    report = ','.join(n + ':' + str(s) for n, s in zip(names, sizes))\n"
            "    wasi['write_stdout'](report.encode('ascii'))\n",
            "ls",
        )
        out = run_program(
            fixpoint, program, [], {"data": {"a": b"xx", "b": b"yyy"}}
        )
        assert out == b"a:2,b:3"

    def test_enoent(self, fixpoint):
        program = compile_program(
            fixpoint,
            "def wasi_main(wasi):\n"
            "    wasi['read_file']('missing')\n",
            "fail",
        )
        with pytest.raises(CodeletError) as excinfo:
            run_program(fixpoint, program, [], {})
        assert "ENOENT" in str(excinfo.value)

    def test_nonzero_exit(self, fixpoint):
        program = compile_program(
            fixpoint, "def wasi_main(wasi):\n    return 3\n", "exit3"
        )
        with pytest.raises(CodeletError):
            run_program(fixpoint, program, [], {})


class TestArchive:
    def test_roundtrip(self):
        files = {"a.txt": b"alpha", "dir-b.bin": bytes(range(256))}
        assert extract_archive(create_archive(files)) == files

    def test_empty_archive(self):
        assert extract_archive(create_archive({})) == {}

    def test_bad_magic(self):
        with pytest.raises(ArchiveError):
            extract_archive(b"NOPE")

    def test_truncated(self):
        raw = create_archive({"a": b"12345"})
        with pytest.raises(ArchiveError):
            extract_archive(raw[:-2])

    def test_rle_roundtrip_runs(self):
        data = b"\x00" * 100 + b"ab" + b"\xfe" * 7 + b"xyz"
        assert decompress(compress(data)) == data
        assert len(compress(data)) < len(data)

    def test_compressed_archive_roundtrip(self):
        files = {"runs": b"z" * 1000, "plain": b"abcdef"}
        assert extract_compressed(compress_archive(files)) == files

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=300))
    def test_rle_roundtrip_property(self, data):
        assert decompress(compress(data)) == data


class TestSeBSPorts:
    def test_dynamic_html(self, fixpoint):
        html = run_dynamic_html(fixpoint, "yuhan", ["one", "two"]).decode()
        assert "Hello yuhan!" in html
        assert "<li>one</li>" in html and "<li>two</li>" in html

    def test_dynamic_html_empty_items(self, fixpoint):
        html = run_dynamic_html(fixpoint, "x", []).decode()
        assert "Hello x!" in html
        assert "<li>" not in html

    def test_compression_roundtrip(self, fixpoint):
        bucket = {"log.txt": b"entry " * 40, "blob": bytes(200)}
        compressed = run_compression(fixpoint, bucket)
        assert extract_compressed(compressed) == bucket

    def test_compression_actually_compresses(self, fixpoint):
        bucket = {"zeros": bytes(4000)}
        compressed = run_compression(fixpoint, bucket)
        assert len(compressed) < 200
