"""The compiled kernels of this package: ``_kernels.c``, built on first use and loaded through ctypes.

Validation, the boundary BFS, the oracle's search and everything that
needs them load one shared object through :func:`library`.  The loader imports what it needs
on the first call, so importing the package loads no ctypes, subprocess
or hash module.
"""
from __future__ import annotations

import functools
import os
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")  # beside the .pyc files, with their trust
_CC = ("cc", "-O2", "-shared", "-fPIC")


def _compile(source: bytes, path: Path) -> None:
    """Compile C ``source`` to the shared object ``path`` by way of a temporary file beside it.

    Raises OSError if ``path``'s directory cannot be written, and
    RuntimeError if the compiler is missing or fails.
    """
    import subprocess

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        try:
            done = subprocess.run([*_CC, "-x", "c", "-o", tmp, "-"], input=source, capture_output=True)
        except OSError as exc:
            raise RuntimeError(f"cannot build the kernel library: {exc}") from None
        if done.returncode:
            lines = done.stderr.decode(errors="replace").strip().splitlines() or ["no message"]
            raise RuntimeError(f"cannot build the kernel library: {_CC[0]} exited {done.returncode}: {lines[-1]}")
        os.chmod(tmp, 0o755)  # readable by every user of the package, as a mkstemp file is not
        os.replace(tmp, path)  # atomic: a racing process sees no file or a whole one
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(cache: Path):
    """The library of ``_kernels.c``, compiled into ``cache`` unless already there.

    The shared object's name carries the source hash that the import system
    gives ``.pyc`` files (:func:`importlib.util.source_hash`, which needs no
    ``hashlib``) and the platform tag, so an edited source never loads a
    stale binary.  If ``cache`` cannot be written, the library is compiled
    into a private temporary directory, loaded, and the directory removed.
    Raises RuntimeError if the library cannot be built.
    """
    import ctypes
    import sysconfig
    from importlib.util import source_hash

    from numpy.ctypeslib import ndpointer

    source = _SOURCE.read_bytes()
    path = cache / f"_kernels.{source_hash(source).hex()}.{sysconfig.get_platform()}.so"
    private = None
    if not path.exists():
        try:
            cache.mkdir(exist_ok=True)
            _compile(source, path)
        except OSError:
            private = Path(tempfile.mkdtemp(prefix="ringfill-"))
            path = private / path.name
            _compile(source, path)
    try:
        lib = ctypes.CDLL(str(path))
    finally:
        if private is not None:
            import shutil

            shutil.rmtree(private)  # the loaded library stays mapped
    ids = ndpointer(np.int32, flags="C_CONTIGUOUS")
    rows = ndpointer(np.int64, ndim=2, flags="C_CONTIGUOUS")
    words = ndpointer(np.uint64, flags="C_CONTIGUOUS")
    flags = ndpointer(np.bool_, flags="C_CONTIGUOUS")
    i32 = ctypes.c_int32
    signatures = {
        "edge_slots": (i32, [ids, i32, i32, ids, ids, ids]),
        "edge_ends": (None, [ids, i32, ids, ids, ids]),
        "link_roots": (None, [ids, ids, i32, ids, i32, ids, ids]),
        "vertex_roots": (None, [ids, i32, i32, i32, ids, ids]),
        "graph_csr": (None, [ids, i32, i32, ids, ids]),
        "bfs_rows": (ctypes.c_int, [i32, ids, ids, ids, i32, i32, rows, ids, ids, ctypes.c_void_p]),
        "grow_state_size": (i32, [i32, i32]),
        "grow_fillings": (i32, [i32, i32, ids, ids, ids, i32]),
        "isometric_rows": (None, [i32, i32, ids, i32, i32, words, flags]),
    }
    for name, (restype, argtypes) in signatures.items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


@functools.cache
def library():
    """The kernels of this package, built on first use (see :func:`load`)."""
    return load(_CACHE)
