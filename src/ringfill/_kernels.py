"""The compiled kernels of this package: ``_kernels.c``, built on first use and loaded through ctypes.

Validation, the boundary BFS, the oracle's search and everything that
needs them load one shared object through :func:`library`.  The loader imports what it needs
on the first call, so importing the package loads no ctypes, subprocess
or hash module, and it never imports numpy: its pointer arguments take numpy
arrays and the standard library's buffers alike (see :class:`_Buffer`).
"""
from __future__ import annotations

import functools
import os
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")  # beside the .pyc files, with their trust
_CC = ("cc", "-O2", "-shared", "-fPIC")
DISK_SCRATCH = 30  # int32 scratch entries per triangle that disk_verdicts takes


class _Buffer:
    """A ctypes pointer argument: a C-contiguous buffer of one item type, passed by address.

    It takes what ``numpy.ctypeslib.ndpointer`` took, without importing
    numpy: a numpy array of the declared item type (``codes`` are its
    ``struct`` format characters) and, if ``ndim`` is given, of that many
    dimensions, read-only arrays included.  It also takes a writable buffer
    of the same layout from the standard library: an ``array.array``, or a
    ``bytearray`` cast by ``memoryview.cast``.  Anything else raises, which
    ctypes reports as ``ctypes.ArgumentError``.
    """

    def __init__(self, name: str, codes: set[str], ndim: int | None = None):
        self.codes, self.ndim = codes, ndim
        self.what = f"a C-contiguous {name} buffer" + ("" if ndim is None else f" of {ndim} dimensions")

    def from_param(self, obj):
        import ctypes

        view = memoryview(obj)  # a TypeError for what is no buffer
        if view.format not in self.codes or not view.c_contiguous or self.ndim not in (None, view.ndim):
            raise TypeError(
                f"expected {self.what}, got format {view.format!r} in {view.ndim} dimensions"
                + ("" if view.c_contiguous else ", not C-contiguous")
            )
        interface = getattr(obj, "__array_interface__", None)
        if interface is not None:  # a numpy array, whose address needs no writable export
            return ctypes.c_void_p(interface["data"][0])
        return ctypes.byref(ctypes.c_char.from_buffer(view)) if view.nbytes else None


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
    for name, (restype, argtypes) in signatures().items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


def signatures() -> dict:
    """Each kernel's ctypes result type and argument types, its pointers as :class:`_Buffer`."""
    import ctypes
    from struct import calcsize

    def codes(chars: str, size: int) -> set[str]:
        return {c for c in chars if calcsize(c) == size}

    ids = _Buffer("int32", codes("bhilq", 4))
    rows = _Buffer("int64", codes("bhilq", 8), ndim=2)
    words = _Buffer("uint64", codes("BHILQ", 8))
    flags = _Buffer("bool", {"?"})
    i32 = ctypes.c_int32
    return {
        "edge_slots": (i32, [ids, i32, i32, ids, ids, ids]),
        "edge_ends": (None, [ids, i32, ids, ids, ids]),
        "link_roots": (None, [ids, ids, i32, ids, i32, ids, ids]),
        "vertex_roots": (i32, [ids, i32, i32, ids]),
        "graph_csr": (None, [ids, i32, i32, ids, ids]),
        "bfs_rows": (ctypes.c_int, [i32, ids, ids, ids, i32, i32, rows, ids, ids, ctypes.c_void_p]),
        "grow_state_size": (i32, [i32, i32]),
        "grow_fillings": (i32, [i32, i32, ids, ids, ids, i32]),
        "disk_verdicts": (None, [i32, i32, ids, i32, i32, ids, flags]),
        "isometric_rows": (None, [i32, i32, ids, i32, i32, words, flags]),
    }


@functools.cache
def library():
    """The kernels of this package, built on first use (see :func:`load`)."""
    return load(_CACHE)
