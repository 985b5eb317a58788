"""The compiled kernels of this package: ``_kernels.c``, built on first use and loaded through ctypes.

Assembly, validation, the boundary BFS and its certificate, the oracle's
search and everything that needs them load one shared object through
:func:`library`.  The loader imports what it needs on the first call, so
importing the package loads no ctypes, subprocess or hash module, and it
never imports numpy: its pointer arguments take numpy arrays and the
standard library's buffers alike, and :func:`buffer` makes the latter.

What a kernel's pointer takes is stated once, here: :func:`takes` is the
rule, :class:`_Buffer` applies it at the ctypes boundary, and every caller
refuses a buffer by :func:`checked` before it calls a kernel, so that bad
input ends in a ValueError that names the argument.  :func:`check_ids` is
the one refusal of a complex's ids past its vertex count.
"""
from __future__ import annotations

import contextlib
import functools
import os
import tempfile
from math import prod
from pathlib import Path
from struct import calcsize

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("__pycache__")  # beside the .pyc files, with their trust
# Every kernel starts on a cache line, so that code added before one does not
# move its loops: a shift of 16 bytes once made the searches a fifth slower.
_CC = ("cc", "-O2", "-falign-functions=64", "-shared", "-fPIC")
MAX_ID = 2**31 - 1  # the largest vertex id of the kernels' int32 arrays
MAX_TRIANGLES = MAX_ID // 6  # the most triangles a complex may have, so that int32 edge and corner ids cannot wrap
INT32 = frozenset(c for c in "il" if calcsize(c) == 4)  # the struct formats of int32
INT64 = frozenset(c for c in "lq" if calcsize(c) == 8)  # and of int64
UINT64 = frozenset(c for c in "BHILQ" if calcsize(c) == 8)  # and of uint64
_TYPES = {INT32: "int32", INT64: "int64", UINT64: "uint64", frozenset("?"): "bool", frozenset("B"): "uint8"}


def buffer(code: str, *shape: int) -> memoryview:
    """A zeroed C-contiguous buffer of ``shape`` items of ``struct`` format ``code``: a cast ``bytearray``.

    A first dimension of 0 is allowed (a view of no rows), which
    ``memoryview.cast`` alone refuses; numpy callers view the buffer with
    ``numpy.asarray`` without a copy.
    """
    rows, rest = shape[0], shape[1:]
    view = memoryview(bytearray(calcsize(code) * prod(rest) * max(rows, 1)))
    return view.cast(code, (max(rows, 1), *rest))[:rows]


def takes(obj, codes: frozenset, shape: tuple | None = None, writable: bool = False) -> memoryview | None:
    """``obj``'s buffer if a kernel pointer takes it, else None; a TypeError for what is no buffer.

    A kernel takes a C-contiguous buffer whose ``struct`` format is one of
    ``codes`` (:data:`INT32`, :data:`INT64`, ...), of ``shape`` if given,
    where None is a free length, and whose address ctypes can take: a
    writable one, or a numpy array, whose ``__array_interface__`` gives
    its address without a writable export.  Where the kernel writes, it
    must be ``writable``.
    """
    view = memoryview(obj)
    fits = shape is None or (view.ndim == len(shape) and all(s in (None, d) for s, d in zip(shape, view.shape)))
    addressable = not view.readonly or (not writable and hasattr(obj, "__array_interface__"))
    return view if view.format in codes and view.c_contiguous and fits and addressable else None


def _refusal(what: str, obj, codes: frozenset, shape: tuple | None, writable: bool) -> str:
    """The one wording of a buffer that :func:`takes` refuses."""
    view = memoryview(obj)
    dims = "" if shape is None else "(" + ", ".join("*" if s is None else str(s) for s in shape) + ") "
    kind = f"C-contiguous {dims}{_TYPES[codes]}"
    wanted = f"writable {kind} buffer" if writable else f"{kind} numpy array or writable buffer"
    flags = ("" if view.c_contiguous else ", not C-contiguous") + (", read-only" if view.readonly else "")
    return f"{what} must be a {wanted}, got format {view.format!r} and shape {view.shape}{flags}"


def checked(obj, codes: frozenset, shape: tuple | None, what: str, writable: bool = False) -> memoryview:
    """``obj``'s buffer, or a ValueError naming ``what`` unless a kernel takes it (see :func:`takes`)."""
    view = takes(obj, codes, shape, writable)
    if view is None:
        raise ValueError(_refusal(what, obj, codes, shape, writable))
    return view


def check_ids(t) -> None:
    """ValueError for an id of the complex ``t``'s rows beyond its vertices, which a kernel would index by."""
    top = library().top_id(t.triangles, 3 * t.num_triangles)
    if top >= t.num_vertices:
        raise ValueError(f"triangles reference vertex id {top}, beyond the {t.num_vertices} vertices")


class _Buffer:
    """A ctypes pointer argument: a buffer that :func:`takes` takes, passed by address.

    It takes what ``numpy.ctypeslib.ndpointer`` took, without importing
    numpy: a numpy array of the declared item type (``codes`` are its
    ``struct`` format characters) and, if ``ndim`` is given, of that many
    dimensions, read-only arrays included.  It also takes a writable buffer
    of the same layout from the standard library: an ``array.array``, or a
    ``bytearray`` cast by ``memoryview.cast``, such as :func:`buffer` makes.
    A ``nullable`` pointer also takes None, for NULL.  Anything else raises
    a TypeError, which ctypes reports as ``ctypes.ArgumentError``.  The
    package itself passes only the latter; numpy arrays come from numpy
    callers, such as the tests.
    """

    def __init__(self, codes: frozenset, ndim: int | None = None, nullable: bool = False):
        self.codes, self.ndim, self.nullable = codes, ndim, nullable
        self.shape = None if ndim is None else (None,) * ndim

    def from_param(self, obj):
        import ctypes

        if obj is None and self.nullable:
            return None  # ctypes passes NULL
        view = takes(obj, self.codes, self.shape)
        if view is None:
            raise TypeError(_refusal("the pointer", obj, self.codes, self.shape, False))
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


def _library_name(source: bytes) -> str:
    """The file name of the shared object that ``_CC`` builds from C ``source``.

    It carries the platform tag and the hash that the import system gives
    ``.pyc`` files (:func:`importlib.util.source_hash`, which needs no
    ``hashlib``) of the source and the compiler command, so an edited
    source or a changed ``_CC`` never loads a stale binary.
    """
    import sysconfig
    from importlib.util import source_hash

    stamp = source_hash(source + "\0".join(_CC).encode()).hex()
    return f"_kernels.{stamp}.{sysconfig.get_platform()}.so"


def load(cache: Path):
    """The library of ``_kernels.c``, compiled into ``cache`` unless already there (see :func:`_library_name`).

    A library compiled into ``cache`` removes the others of its platform
    there, if it can; a loaded one stays mapped.  If ``cache`` cannot be
    written, the library is compiled into a private temporary directory,
    loaded, and the directory removed.  Raises RuntimeError if the library
    cannot be built.
    """
    import ctypes

    source = _SOURCE.read_bytes()
    path = cache / _library_name(source)
    private = None
    if not path.exists():
        try:
            cache.mkdir(exist_ok=True)
            _compile(source, path)
        except OSError:
            private = Path(tempfile.mkdtemp(prefix="ringfill-"))
            path = private / path.name
            _compile(source, path)
        else:
            for stale in set(cache.glob("_kernels.*." + path.name.split(".", 2)[2])) - {path}:  # no .tmp file
                with contextlib.suppress(OSError):
                    stale.unlink()
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

    ids = _Buffer(INT32)
    rows = _Buffer(INT64, ndim=2)
    wide = _Buffer(INT64)
    words = _Buffer(UINT64)
    flags = _Buffer(frozenset("?"))
    marks = _Buffer(frozenset("B"))
    optional = _Buffer(INT32, nullable=True)
    i32, i64 = ctypes.c_int32, ctypes.c_int64
    return {
        "filling_rows": (None, [ids, i32, ids]),
        "top_id": (i32, [ids, i64]),
        "canonical_rows": (i32, [ids, i64]),
        "edge_slots": (i32, [ids, i32, i32, ids, ids, ids]),
        "edge_ends": (None, [ids, i32, ids, optional, optional]),
        "disk_marks": (i32, [i32, i32, ids, i32, ids, ids, i32, ids, marks, marks, marks, marks]),
        "graph_csr": (None, [ids, i32, i32, ids, ids]),
        "bfs_tree": (i32, [i32, ids, ids, i32, ids, ids, ids]),
        "boundary_tree": (ctypes.c_int, [i32, ids, ids, i32, ids, ids, rows, ids, ids]),
        "boundary_rows": (ctypes.c_int, [i32, ids, ids, i32, ids, ids, i32, i32, rows, ids, ids, ctypes.c_int]),
        "worst_ratio": (ctypes.c_int, [rows, i32, ids]),
        "bound_violation": (ctypes.c_int, [rows, i32, wide, ids]),
        "lower_bounds": (None, [i64, i32, wide, wide, wide, i64, wide, i32]),
        "grow_state_size": (i32, [i32, i32]),
        "grow_fillings": (i32, [i32, i32, ids, ids, ids, i32]),
        "disk_verdicts": (None, [i32, i32, ids, i32, i32, words, flags]),
        "strip_annuli": (i32, [ids, i32, ids, i32, wide, ids, optional, ids, wide]),
        "isometric_rows": (None, [i32, i32, ids, i32, i32, words, flags]),
        "rows_text": (i64, [ids, i64, i32, i32, marks]),
        "parse_rows": (i64, [ctypes.c_char_p, i64, ids, i64, wide]),
    }


@functools.cache
def library():
    """The kernels of this package, built on first use (see :func:`load`)."""
    return load(_CACHE)
