"""Validation and drift audit of a built filling chunk by chunk along its layer ledger.

The filling K_n is a stack of annuli glued along the ledger's cycles, so it
can be certified one run of annuli, a chunk, at a time, in memory bounded
by the largest chunk rather than by the complex.  Chunk k holds the annuli
``starts[k]..starts[k+1]-1`` (see :func:`chunk_starts`), the last one the
cone and its apex too.  The builder writes rows grouped by the layer of
each row's smallest id, and build files keep that order, so a chunk's rows
are one slice of the triangle array.

*Validation* (:func:`disk_chunk_edges`).  The compiled ``chunk_rows``
copies a chunk's slice with its ids shifted so that its outer cycle is
``0..m-1`` and caps its inner cycle with one temporary cone vertex, in
ledger order; ``disk_edges`` then runs :func:`ringfill.validate_disk`'s
own kernels on the result with boundary C_m.  If every chunk passes, the
whole complex is a disk bounded by C_n, by the gluing lemma.  Removing the
cap's open star from a capped chunk leaves an annulus between its two
cycles, because the cap's link is the inner cycle, which lies off the
chunk's boundary.  Two consecutive chunks meet in exactly their shared
cycle: rows are split by the layer of their smallest id, their ids stay
in their chunk's cycles, and the outer chunk holds no chord of that cycle.
Gluing an annulus to a disk along a whole boundary cycle gives a disk.
The chord check is needed: without it two chunks could each hold the same
chord and pass, while the union has that edge in 4 triangles.

*Drift audit* (:func:`chunk_drift_audit`).  A chunk's rows carry every
edge whose lower end lies on one of its layers, except edges of its outer
cycle that the chunk before it also holds, and those, with no chord in
that chunk, are cycle edges, which the audit neither lists nor measures.
Rows split by chunk also hold no edge beyond the chunk's cycles.  So the
audit reads each annulus's edges from its chunk's own edge table, with
stray-edge lines mapped back to global ids, and a chunk need not be a disk
for this.  :func:`validated_drift_audit` validates each chunk and audits it
from the same table, in one pass, as ``ringfill audit`` and the sweep run
them.

*Fallback.*  A failed chunk, a row out of order or outside its chunk's
ids, a chord of an inner cycle, or an audit error on a chunk makes these
functions give False or None, and the caller takes the whole complex
instead, so every report, audit and error is the one of the whole-complex
path.
"""
from __future__ import annotations

from bisect import bisect_left

from ._kernels import DISK_EDGES, DISK_SCRATCH, INT32, MAX_ID, MAX_TRIANGLES, buffer, library
from .annuli import _annulus_size
from .simplicial import Triangulation, _edge_table, _table_rows

# A chunk takes whole annuli until it holds at least _CHUNK triangles and
# _CAP_SHARE times as many as the cone capping it, one a vertex of its inner
# cycle: checked with one-annulus chunks, the caps would add half the work.
_CHUNK = 3072
_CAP_SHARE = 8


def chunk_starts(ledger: list) -> list[int]:
    """The first layer of each chunk of ``ledger``: runs of consecutive annuli (see ``_CHUNK``).

    The sizes are the ledger's (see :func:`ringfill.annuli._annulus_size`);
    the last chunk runs to the cone, whatever its size.
    """
    starts, size = [0], 0
    for r, (outer, inner) in enumerate(zip(ledger, ledger[1:]), 1):
        size += _annulus_size(outer, inner)
        if size >= max(_CHUNK, _CAP_SHARE * inner.length):
            starts.append(r)
            size = 0
    return starts


def _chunk_rows(rows, first: int, inner: int, m: int, top: int, out) -> bool:
    """The compiled ``chunk_rows``: ``rows`` less ``first`` into ``out``, then m rows capping a cycle.

    The cap is a cone over the cycle of m vertices from id ``inner``, in
    ledger order, with the vertex ``top - first``.  Returns False if a row's
    smallest id lies outside ``first..inner-1``, another id outside
    ``first..top-1``, or a row holds a chord of the capped cycle.  Raises
    ValueError, before the kernel runs, unless ``rows`` is a C-contiguous
    ``(k, 3)`` int32 buffer, ``out`` a writable one of k + m rows, and
    ``0 <= first <= inner`` and ``inner + m <= top <= MAX_ID``.
    """
    view, dest = _table_rows(rows), memoryview(out)
    size = len(view) + m
    if dest.format not in INT32 or dest.shape != (size, 3) or not dest.c_contiguous or dest.readonly:
        raise ValueError(
            f"a chunk of {len(view)} rows capped by {m} needs a writable C-contiguous ({size}, 3) int32 buffer, "
            f"got format {dest.format!r} and shape {dest.shape}"
        )
    if not (0 <= first <= inner and 0 <= m and inner + m <= top <= MAX_ID):
        raise ValueError(
            f"a chunk of ids {first}..{top - 1} capped at the cycle of {m} vertices from id {inner} "
            f"needs 0 <= {first} <= {inner} and {inner} + {m} <= {top} <= {MAX_ID}"
        )
    return library().chunk_rows(view, len(view), first, inner, m, top, dest) == 0


def chunks(t: Triangulation, ledger: list, scratch: int = 0):
    """Each chunk of ``t`` along ``ledger``, relabelled and capped, or None at the first irregular one, which ends it.

    A chunk's slice is cut where the smallest id reaches the next chunk's
    outer cycle.  :func:`_chunk_rows` copies it into one buffer sized for
    the largest chunk, with its ids less the outer cycle's first id, and
    caps its inner cycle with the id after that cycle's; the last chunk
    holds the apex and has no cap.  Yields ``(layers, nv, count, rows)``:
    the range of the chunk's layers, its vertex count with the cap, its
    count of rows and the ``(count + cap, 3)`` relabelled rows, valid until
    the next chunk; with ``scratch``, then also ``scratch`` int32 a row of
    scratch, a view of one buffer sized for the largest chunk.  A ledger
    that does not tile ``0..apex`` in cycles of at least 3 vertices, a
    complex of another boundary or vertex count or too many triangles, a
    row of the wrong chunk or out of its chunk's ids, and a chord of an
    inner cycle are irregular.  So is an apex id beyond ``MAX_ID - 2``:
    every argument of :func:`_chunk_rows` is then in range, and it never
    raises.
    """
    tri, nf = t.triangles, t.num_triangles
    apex = ledger[-1].first_vertex + ledger[-1].length
    tiled = ledger[0].first_vertex == 0 and all(
        rec.length >= 3 and rec.first_vertex + rec.length == nxt.first_vertex for rec, nxt in zip(ledger, ledger[1:])
    )
    if not (tiled and ledger[-1].length >= 3 and ledger[0].length == t.n and t.num_vertices == apex + 1 < MAX_ID
            and nf <= MAX_TRIANGLES):
        yield None
        return
    starts = chunk_starts(ledger)
    keys = range(nf)
    cuts = [0, *(bisect_left(keys, ledger[b].first_vertex, key=lambda f: tri[f, 0]) for b in starts[1:]), nf]
    caps = [ledger[b].length for b in starts[1:]] + [0]
    size = max(stop - start + m for start, stop, m in zip(cuts, cuts[1:], caps))
    out, work = buffer("i", size, 3), buffer("i", scratch * size)
    for a, b, start, stop, m in zip(starts, [*starts[1:], len(ledger)], cuts, cuts[1:], caps):
        first = ledger[a].first_vertex
        inner = ledger[b].first_vertex if m else apex
        top = inner + (m or 1)
        rows = out[: stop - start + m]
        if not _chunk_rows(tri[start:stop], first, inner, m, top, rows):
            yield None
            return
        chunk = range(a, b), top - first + (m > 0), stop - start, rows
        yield chunk + (work[: scratch * len(rows)],) if scratch else chunk


def disk_chunk_edges(t: Triangulation, ledger: list):
    """Each chunk of ``t`` along ``ledger`` that passes, as ``(layers, edges)``, or None at the first that does not.

    A chunk passes if it is regular and, capped, a disk bounded by its
    outer cycle: the compiled ``disk_edges`` runs
    :func:`ringfill.validate_disk`'s own kernels on it (as ``disk_verdicts``
    does for :func:`ringfill.oracle.validate_disk_batch`) in scratch linear
    in the chunk's rows, and leaves there the chunk's sorted edges, the
    cap's among them, valid until the next chunk.  None ends the walk.
    """
    lib = library()
    for chunk in chunks(t, ledger, DISK_SCRATCH):
        if chunk is None:
            yield None
            return
        layers, nv, _, rows, scratch = chunk
        nf = len(rows)
        ne = lib.disk_edges(ledger[layers.start].length, nv, rows, nf, scratch)
        if ne < 0:
            yield None
            return
        yield layers, scratch[DISK_EDGES * nf : DISK_EDGES * nf + 2 * ne].cast("B").cast("i", (ne, 2))


def chunks_are_disks(t: Triangulation, ledger: list) -> bool:
    """True if every chunk of ``t`` along ``ledger`` passes (see :func:`disk_chunk_edges`)."""
    return all(chunk is not None for chunk in disk_chunk_edges(t, ledger))


def chunk_drift_audit(build):
    """:func:`ringfill.drift_audit` of ``build`` from each chunk's own edge table, or None for an irregular chunk.

    None too if the audit raises on a chunk: the whole-complex audit then
    raises its own error.
    """
    from .verify import _drift_audit

    def pieces():
        for chunk in chunks(build.triangulation, build.ledger):
            if chunk is None:
                yield None
                return
            layers, _, count, rows = chunk
            yield layers, _edge_table(rows[:count])[0]

    try:
        return _drift_audit(build, pieces())
    except ValueError:
        return None


def validated_drift_audit(build):
    """:func:`ringfill.drift_audit` of a build that ``validate_disk(t, ledger)`` passes chunk by chunk, in that pass.

    Each chunk's edge table serves both: the audit reads the edges of the
    chunk's layers once the chunk has passed.  Returns None if a chunk
    fails or is irregular, or the audit raises on one; the caller then
    validates the whole complex and audits it, and gets the reports and
    errors of those two steps.
    """
    from .verify import _drift_audit

    try:
        return _drift_audit(build, disk_chunk_edges(build.triangulation, build.ledger))
    except ValueError:
        return None
