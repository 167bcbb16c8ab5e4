"""The SeBS ports of paper section 5.6: dynamic-html and compression.

Both are Flatware programs: inputs arrive as command-line arguments and a
Unix-like filesystem of dependencies (the template, the bucket files),
and the result leaves on stdout - exactly the porting recipe the paper
describes (modify functions to read inputs from argv and the filesystem;
represent the dependencies as Fix objects in Flatware's format).

The in-program template renderer and RLE compressor are compact,
sandbox-safe subsets of :mod:`repro.flatware.template` and
:mod:`repro.flatware.archive`; the full host-side implementations verify
their outputs in the tests.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.handle import Handle
from ..fixpoint.runtime import Fixpoint
from ..flatware.wasi import compile_program, run_program

DYNAMIC_HTML_SOURCE = '''\
def _render(template, context):
    out = []
    i = 0
    while i < len(template):
        start = template.find("{{", i)
        loop = template.find("{%", i)
        if start < 0 and loop < 0:
            out.append(template[i:])
            i = len(template)
        elif loop >= 0 and (start < 0 or loop < start):
            out.append(template[i:loop])
            end = template.index("%}", loop)
            tag = template[loop + 2 : end].strip().split()
            close = template.index("{% endfor %}", end)
            body = template[end + 2 : close]
            for item in context[tag[3]]:
                scoped = dict(context)
                scoped[tag[1]] = item
                out.append(_render(body, scoped))
            i = close + len("{% endfor %}")
        else:
            out.append(template[i:start])
            end = template.index("}}", start)
            name = template[start + 2 : end].strip()
            out.append(str(context[name]))
            i = end + 2
    return "".join(out)


def wasi_main(wasi):
    username = wasi["args"][0]
    template = wasi["read_file"]("templates/template.html").decode("ascii")
    items = [line for line in
             wasi["read_file"]("data/items.txt").decode("ascii").splitlines()
             if line]
    html = _render(template, {"username": username, "items": items})
    wasi["write_stdout"](html.encode("ascii"))
'''

COMPRESSION_SOURCE = '''\
def _compress(data):
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        run = 1
        while i + run < n and run < 255 and data[i + run] == byte:
            run += 1
        if run >= 4:
            out += bytes((254, run, byte))
            i += run
        elif byte == 254:
            out += bytes((254, 0, 254))
            i += 1
        else:
            out.append(byte)
            i += 1
    return bytes(out)


def wasi_main(wasi):
    bucket = wasi["args"][0]
    names = sorted(wasi["list_dir"](bucket))
    parts = [b"FIXAR" + str(len(names)).encode("ascii") + b"\\n"]
    for name in names:
        payload = wasi["read_file"](bucket + "/" + name)
        raw = name.encode("ascii")
        header = (str(len(raw)) + " " + str(len(payload))).encode("ascii")
        parts.append(header + b"\\n" + raw + payload)
    wasi["write_stdout"](_compress(b"".join(parts)))
'''

PAGE_TEMPLATE = """<html><body>
<h1>Hello {{ username }}!</h1>
<ul>
{% for item in items %}  <li>{{ item }}</li>
{% endfor %}</ul>
</body></html>"""


def compile_dynamic_html(fp: Fixpoint) -> Handle:
    return compile_program(fp, DYNAMIC_HTML_SOURCE, "dynamic-html")


def compile_compression(fp: Fixpoint) -> Handle:
    return compile_program(fp, COMPRESSION_SOURCE, "compression")


def run_dynamic_html(
    fp: Fixpoint,
    username: str,
    items: Sequence[str],
) -> bytes:
    """Render the SeBS dynamic-html page (``PAGE_TEMPLATE``) for
    ``username``."""
    program = compile_dynamic_html(fp)
    files = {
        "templates": {"template.html": PAGE_TEMPLATE.encode("ascii")},
        "data": {"items.txt": "\n".join(items).encode("ascii")},
    }
    return run_program(fp, program, [username], files)


def run_compression(fp: Fixpoint, bucket: Dict[str, bytes]) -> bytes:
    """Archive + compress every file in ``bucket`` (name -> payload)."""
    program = compile_compression(fp)
    files = {"bucket": dict(bucket)}
    return run_program(fp, program, ["bucket"], files)
