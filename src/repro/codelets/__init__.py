"""``repro.codelets`` - the trusted toolchain, linker, and sandbox.

Mirrors Fixpoint's ahead-of-time compilation architecture (paper section
4.1): untrusted function source passes through a validating toolchain,
is stored as content-addressed codelet blobs, and is linked in-memory
against the Fix API before any invocation runs.
"""
