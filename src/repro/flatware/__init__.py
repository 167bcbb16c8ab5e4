"""``repro.flatware`` - the POSIX compatibility layer over Fix Trees.

Filesystems as nested dirent Trees (paper fig. 4), a WASI-like program
driver (paper 4.1.4), and the SeBS-port dependency: a tar-like
archive/RLE codec (paper 5.6).
"""
