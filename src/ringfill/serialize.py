"""JSON, OFF, and OBJ serialization.

A bare complex file is ``{"n": int, "vertices": [{"id", "layer",
"index_in_layer", "theta_num", "theta_den"}], "triangles": [[a, b, c],
...]}`` with phases as exact rational pairs (null for the apex); its vertex
records are derived on output by :func:`vertex_records`.

A build file is ``{"version": 3, "params": {"n", "rho", "eta"}, "triangles"}``
with rho and eta as ``[numerator, denominator]`` pairs.  The params fix
the schedule, the ledger and so every vertex position, so the file states
nothing else: loading one recomputes the schedule and ledger and keeps
only its triangles; it assembles no complex.  A build file without
``"version": 3``, an older version included, is refused.  A malformed
field, a zero denominator or a boolean triangle id included, is a
ValueError naming it.

:func:`load_json` reads the bytes of a file in blocks and its top-level
triangles list whole rows at a time, straight into one growing int32
buffer (:mod:`ringfill._reader`), so the rows never exist as Python lists
all at once.  Any file that reader does not take is read again by
``json.load``, whose lists :func:`_triangles` checks row by row, so every
file loads to the same triangles, or fails with the same error, either
way.

:func:`dump_json` is the one writer.  It takes a dict with str keys, and its
bytes are those of ``json.dump(data, fh, indent=2)`` plus a newline, with an
array value (a numpy array, ``array.array`` or memoryview) written as its
``.tolist()``; the to-dict functions hand over the complex's own int32
triangle buffer, whose rows a compiled kernel formats.  Field order is
fixed, so output bytes are deterministic for fixed inputs.  Neither
direction imports numpy.
"""
from __future__ import annotations

import json
import math
from array import array
from collections.abc import Iterator
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from . import _kernels
from ._kernels import INT32, check_ids, checked, takes
from .annuli import LayerRecord, _pair_terms, layer_ledger
from .builder import BuildResult, Params, compute_schedule
from .simplicial import Triangulation

if TYPE_CHECKING:  # an annotation only: writing a build file loads no BFS layer
    from .verify import VerificationReport

__all__ = [
    "vertex_records",
    "triangulation_to_dict",
    "triangulation_from_dict",
    "build_to_dict",
    "build_from_dict",
    "complex_from_dict",
    "report_to_dict",
    "dump_json",
    "load_json",
    "embedded_coordinates",
    "write_off",
    "write_obj",
]

_VERSION = 3

_MISSING = object()
_INDENT = "  "
_ROWS_PER_CHUNK = 1024  # rows formatted per write


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _get(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    return obj[key]


def _rational(value: Any, what: str) -> Fraction:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
        raise ValueError(f"{what} must be a [numerator, denominator] pair of integers, got {value!r}")
    if value[1] == 0:
        raise ValueError(f"{what} has a zero denominator")
    return Fraction(*value)


def _record(v: int, layer: int, index: int, num: int | None, den: int | None) -> dict[str, Any]:
    return {"id": v, "layer": layer, "index_in_layer": index, "theta_num": num, "theta_den": den}


def vertex_records(t: Triangulation, ledger: list[LayerRecord] | None = None) -> Iterator[dict[str, Any]]:
    """Yield the JSON record of every vertex of ``t``, in id order.

    With a ledger, vertex i of cycle r sits on layer r at the coordinate
    ``(phase + n*i/m) mod n``, reduced by ``gcd`` without building a
    Fraction per vertex, and the apex on the layer below the innermost cycle
    with no theta.  The phase, one Fraction per cycle, starts at 0 on the
    boundary and adds the turn of each annulus on the way in, from its kind
    (:func:`ringfill.annuli._pair_terms`): the half step n/(2m) of an
    equal-length annulus, none for a shrink.  Without a ledger,
    boundary vertex i sits on layer 0 at theta i and every other vertex v on
    layer 1 at index v - n with no theta.
    """
    n = t.n
    if ledger is None:
        for i in range(n):
            yield _record(i, 0, i, i, 1)
        for v in range(n, t.num_vertices):
            yield _record(v, 1, v - n, None, None)
        return
    gcd, phase = math.gcd, Fraction(0)
    for outer, rec in zip([None, *ledger], ledger):
        if outer is not None:  # the turn of the annulus outward of the cycle
            unit, a, _, _ = _pair_terms(n, outer, rec.length)
            phase = (phase - Fraction(a, unit)) % n
        num, den, m, first = phase.numerator, phase.denominator, rec.length, rec.first_vertex
        scale, step, period = den * m, n * den, n * den * m
        for i in range(m):
            x = (num * m + step * i) % period
            g = gcd(x, scale)
            yield _record(first + i, rec.index, i, x // g, scale // g)
    yield _record(ledger[-1].first_vertex + ledger[-1].length, len(ledger), 0, None, None)


def _check_record(rec: Any) -> None:
    """A bare file's vertex record needs integer id, layer and index, and an integer or null theta pair."""
    if isinstance(rec, dict):
        ids = [rec.get(k) for k in ("id", "layer", "index_in_layer")]
        theta = [rec.get("theta_num"), rec.get("theta_den")]
        if all(map(_is_int, ids)) and (theta == [None, None] or all(map(_is_int, theta))):
            if theta[1] == 0:
                raise ValueError(f"theta of vertex {rec['id']} has a zero denominator")
            return
    raise ValueError(
        f"vertex record {_show(rec)} needs integer id, layer and index_in_layer "
        "and an integer or null theta_num/theta_den pair"
    )


def _kind(x: Any) -> str:
    """The JSON kind of a parsed value, by its Python type; ``boolean`` and ``null`` by their JSON names."""
    return "boolean" if isinstance(x, bool) else "null" if x is None else type(x).__name__


def _triangles(data: Any, where: str) -> Any:
    """The triangles field of a parsed file: a buffer, or a list of rows of three integer ids, checked row by row.

    A buffer, such as the int32 rows :func:`load_json` has already read, is
    taken as it is.  A list parsed by ``json.load`` must hold rows of one
    shape, lists of three ids, and each id must be a JSON integer, not a
    boolean; the first row that breaks this is named in a ValueError.  Ids
    beyond int32 are left to :class:`Triangulation`, which refuses them.
    """
    rows = _get(data, "triangles", where)
    if not isinstance(rows, list):
        try:
            memoryview(rows)
        except TypeError:
            raise ValueError(f"triangles must be a list of rows of three vertex ids, got {_kind(rows)}") from None
        return rows
    shapes = {len(row) if isinstance(row, list) else None for row in rows}
    if len(shapes) > 1:
        raise ValueError("triangles must be a list of rows of three vertex ids; its rows differ in shape")
    if rows and shapes != {3}:
        width = shapes.pop()
        shape = (len(rows),) if width is None else (len(rows), width)
        raise ValueError(f"triangles must be an (F, 3) array of vertex ids, got shape {shape}")
    for i, row in enumerate(rows):
        for x in row:
            if type(x) is not int:
                raise ValueError(f"triangles[{i}] has a {_kind(x)} vertex id")
    return rows


def triangulation_to_dict(t: Triangulation) -> dict[str, Any]:
    return {
        "n": t.n,
        "vertices": list(vertex_records(t)),
        "triangles": t.triangles,
    }


def triangulation_from_dict(data: dict[str, Any]) -> Triangulation:
    """Parse a bare complex file, checking every vertex record and that the ids are exactly 0..V-1."""
    n = _get(data, "n", "complex file")
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    records = _get(data, "vertices", "complex file")
    if not isinstance(records, list):
        raise ValueError("vertices must be a list of vertex records")
    for rec in records:
        _check_record(rec)
    ids = sorted(rec["id"] for rec in records)
    if ids != list(range(len(ids))):
        raise ValueError(f"vertex ids must be contiguous 0..{len(ids) - 1}, got {ids[:10]}...")
    return Triangulation(n, len(records), _triangles(data, "complex file"), own=True)


def build_to_dict(build: BuildResult) -> dict[str, Any]:
    """A version 3 build file: the params, which fix the schedule and ledger, and the triangles."""
    p = build.params
    params = {"n": p.n, "rho": [p.rho.numerator, p.rho.denominator], "eta": [p.eta.numerator, p.eta.denominator]}
    return {"version": _VERSION, "params": params, "triangles": build.triangulation.triangles}


def _show(x: Any, limit: int = 200) -> str:
    text = "missing" if x is _MISSING else repr(x)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def build_from_dict(data: dict[str, Any]) -> BuildResult:
    """Rebuild the schedule and ledger of a build file's params, keeping only the file's triangles.

    The file must carry ``"version": 3`` and no vertex records; a field it
    does not need is not read.  No complex is assembled.  Before its params
    are checked the file must hold more than n triangles, which bounds the
    schedule's O(sqrt n) work.  Then the schedule's vertex count must be at
    most the number of triangles (a filling of C_n has F = 2V - n - 2 > V),
    so a file cannot make the loader compute a ledger larger than the file
    itself.
    """
    version = data.get("version", _MISSING)
    if not (_is_int(version) and version == _VERSION):
        raise ValueError(f"version must be {_VERSION}, got {_show(version)}")
    pdata = _get(data, "params", "build file")
    n = _get(pdata, "n", "params")
    if not _is_int(n):
        raise ValueError(f"params.n must be an integer, got {n!r}")
    rho, eta = (_rational(_get(pdata, key, "params"), f"params.{key}") for key in ("rho", "eta"))
    tri = _triangles(data, "build file")
    if "vertices" in data:
        raise ValueError(f"a version {_VERSION} build file has no vertices field: the ledger fixes every vertex")
    if len(tri) <= n:
        raise ValueError(f"triangles must be a list of more than n = {n} rows")
    params = Params(n, rho, eta)
    schedule = compute_schedule(params)
    num_vertices = schedule.predicted_vertex_count
    if num_vertices > len(tri):
        raise ValueError(f"params give {num_vertices} vertices, more than the file's {len(tri)} triangles")
    return BuildResult(
        Triangulation(n, num_vertices, tri, own=True), layer_ledger(n, schedule.annuli), schedule, params
    )


def complex_from_dict(data: dict[str, Any]) -> tuple[Triangulation, BuildResult | None]:
    """Parse either a bare triangulation file or a build file (one with a ledger or a version).

    A file with a ledger but no version, as written before build files were
    versioned, is refused by :func:`build_from_dict`; read as a bare file,
    its vertex records would pass.  The complex takes the triangles over:
    an int32 buffer, such as the one :func:`load_json` reads, becomes the
    complex's own, its rows rotated in place, and a parsed list, which
    :func:`_triangles` checks, is converted once.
    """
    if isinstance(data, dict) and ("ledger" in data or "version" in data):
        build = build_from_dict(data)
        return build.triangulation, build
    return triangulation_from_dict(data), None


def report_to_dict(report: VerificationReport, include_witness: bool = False) -> dict[str, Any]:
    x, y, d_k, d_c = report.worst_pair
    out: dict[str, Any] = {
        "n": report.n,
        "delta_num": report.delta.numerator,
        "delta_den": report.delta.denominator,
        "is_isometric": report.is_isometric,
        "worst_pair": {"x": x, "y": y, "d_k": d_k, "d_c": d_c},
        "eps_n": report.eps,
    }
    if include_witness:
        out["witness_path"] = report.witness_path
    return out


def _array(value: Any) -> memoryview | None:
    """The buffer of a numpy array, an ``array.array`` or a memoryview, which json writes as its ``.tolist()``."""
    if isinstance(value, (memoryview, array)) or hasattr(value, "__array_interface__"):
        return memoryview(value)
    return None


def _write_rows(write: Any, rows: Any) -> None:
    """Write the rows of ``rows``, a list held by the top-level dict, with the compiled ``rows_text``.

    The kernel formats a chunk of rows at a time into one reused
    ``bytearray``, in the bytes ``json.dump(indent=2)`` gives.  Raises
    ValueError, before the kernel runs, unless ``rows`` is a 2-d int32
    buffer that the kernels take (see :func:`ringfill._kernels.takes`) and
    is non-empty: the kernel would write no rows as ``[`` and a closing line.
    """
    view = checked(rows, INT32, (None, None), "rows")
    if not view.nbytes:
        raise ValueError(f"rows must be non-empty, got shape {view.shape}")
    count, width = view.shape
    out = bytearray(min(count, _ROWS_PER_CHUNK) * (13 + 19 * width))  # rows_text's most per row
    text = memoryview(out)
    lib = _kernels.library()
    write(b"[")
    for start in range(0, count, _ROWS_PER_CHUNK):
        chunk = rows[start : start + _ROWS_PER_CHUNK]
        write(text[: lib.rows_text(chunk, len(chunk), width, start == 0, out)])
    write(b"\n" + _INDENT.encode() + b"]")


def dump_json(data: dict[str, Any], path: str) -> None:
    """Write the str-keyed dict ``data`` with the bytes of ``json.dump(data, fh, indent=2)`` and a newline.

    An array value (see :func:`_array`) is written as its ``.tolist()``:
    2-d int32 rows that the kernels take, such as the triangles, by
    :func:`_write_rows` if there is one; every other value goes through
    ``json.dumps(indent=2)``, which writes ASCII, indented by one level.
    """
    bad = [key for key in data if not isinstance(key, str)]
    if bad:
        raise TypeError(f"dump_json writes a dict with str keys, got {bad!r}")
    with open(path, "wb") as fh:
        fh.write(b"{")
        for i, (key, value) in enumerate(data.items()):
            fh.write((("," if i else "") + "\n" + _INDENT + json.dumps(key) + ": ").encode())
            view = _array(value)
            if view is not None and view.nbytes and takes(value, INT32, (None, None)) is not None:
                _write_rows(fh.write, value)
            else:
                text = json.dumps(value if view is None else value.tolist(), indent=2)
                fh.write(text.replace("\n", "\n" + _INDENT).encode())
        fh.write(b"\n}\n" if data else b"}\n")


def load_json(path: str) -> Any:
    """``json.load`` of the UTF-8 file at ``path``, with a top-level triangles list read as int32 rows.

    The file is opened in binary and read in blocks, the triangles whole
    rows at a time (see :mod:`ringfill._reader`), so neither the whole text
    nor the rows as Python lists are ever held.  Any file that reader does
    not take, from a top level that is not an object to a ragged row, a
    boolean or float id, an id beyond int32 or a non-ASCII byte, is read
    again, as UTF-8 text, by ``json.load``, so a file gives the same values,
    or the same error, either way.
    """
    from ._reader import read_object  # here, not at module load: only the commands that read a file need it

    with open(path, "rb") as fh:
        try:
            return read_object(fh)
        except (ValueError, RecursionError):
            pass
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def embedded_coordinates(t: Triangulation, records: list[dict]) -> list[tuple[float, float, float]]:
    """Flat radial embedding for visual inspection only.

    Positions come from ``records``: the checked vertex records of a bare
    file, or :func:`vertex_records` of a build's ledger.  Radius decreases
    linearly with layer depth, the angle is the circular coordinate rescaled
    to radians, and a vertex without a coordinate (the apex) sits at the
    origin.  Carries no metric meaning.  A theta too large for a float is a
    ValueError naming its vertex.
    """
    recs = sorted(records, key=lambda rec: rec["id"])
    max_layer = max(rec["layer"] for rec in recs)
    has_apex = any(rec["theta_num"] is None for rec in recs)
    denom = max(max_layer if has_apex else max_layer + 1, 1)
    coords = []
    for rec in recs:
        if rec["theta_num"] is None:
            coords.append((0.0, 0.0, 0.0))
            continue
        radius = 1.0 - rec["layer"] / denom
        try:
            angle = 2.0 * math.pi * (rec["theta_num"] / rec["theta_den"]) / t.n
            coords.append((radius * math.cos(angle), radius * math.sin(angle), 0.0))
        except (OverflowError, ValueError):  # a theta past the floats, or an angle of inf
            raise ValueError(f"the theta of vertex {rec['id']} is too large for a float coordinate") from None
    return coords


def write_off(t: Triangulation, path: str, records: list[dict]) -> None:
    check_ids(t)  # before the file is opened
    coords = embedded_coordinates(t, records)
    lines = ["OFF", f"{t.num_vertices} {t.num_triangles} 0"]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in coords)
    lines.extend(f"3 {a} {b} {c}" for a, b, c in t.triangles.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_obj(t: Triangulation, path: str, records: list[dict]) -> None:
    check_ids(t)
    coords = embedded_coordinates(t, records)
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in coords]
    lines.extend(f"f {a + 1} {b + 1} {c + 1}" for a, b, c in t.triangles.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
