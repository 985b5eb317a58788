"""Peak traced memory of each stage from build to audit, in multiples of the triangle array.

K_384 at (1/10, 1/4) has F = 85,000 triangles, so its ``(F, 3)`` int32
array takes 1.02 MB.  ``tracemalloc`` sees numpy's buffers and the
``bytearray`` buffers of the compiled kernels as well as Python objects.
Each bound is a little above the peak measured when it was set (1.2, 3.26,
1.44 and 0.1 times for build, validate, load and audit) and well below the
8.8, 24, 6.7 and 13.4 times of int64 working sets, edge-sized audit tables
and an F x 3 rotation index, so a return to any of them fails.  The build
writes every annulus straight into one buffer of the predicted size, where
concatenating per-annulus arrays took 2.1 times; validation reads the
edge table (edges and slot edge ids, 2 times) with one scratch array
linear in the edges (1 time), which counts the incidences before the
union-find and counting sort reuse it, where a cached incidence array
beside that scratch took 3.76 times, the int64 keys and two sorts of the
numpy validator 4.6 and the int64-key edge sort with numpy label
propagation before it 8.9.
Loading is traced from the file on: reading the rows as Python lists with
``json.load`` took 19.7 times, and concatenating int32 slices 2.1.  Its
rows now grow one ``bytearray``, whose growth headroom (up to an eighth)
and the reader's 64 KiB text blocks (about 0.3 of the array at this size,
a constant) make up the rest.

Verification is traced over ``verify_filling``, whose CSR sorts an edge
table of its own and drops it before any search: 3.0 times (1.19 MB of
CSR, the 1.18 MB boundary matrix, the layer and BFS-tree arrays of the
confined searches and two arrays of scratch, each of one int32 per
vertex).  A matrix of the distances from each source to every vertex
would take 128 times, and scratch kept for each source 64.  ``ringfill
verify`` certifies a build by strips and then verifies it, traced
together on a fresh build as ``certify+verify``: 3.0 times, verification's
own peak, under its bound.  A bare complex it validates whole and then
verifies, traced together as ``validate+verify``: 3.26 times,
validation's own peak, since the searches reuse the memory of
validation's table, where a table kept through the searches took 5.51
times; that stage shares validation's bound.

``certify`` validates and audits a fresh complex in one strip pass per
annulus, in place, as ``ringfill build``, ``ringfill audit`` and the sweep
run it: it copies no rows and builds no edge table, and takes scratch of
four int32 a vertex of the longest cycle, so it peaks near nothing: 0.052
times for the audit alone and for the certificate (its exact rows),
bounded by 0.08, where a chunk's relabelled rows and kernel scratch took
0.40 times.
"""
import tracemalloc
from fractions import Fraction

import pytest

from ringfill import (
    BuildResult,
    Params,
    Triangulation,
    _kernels,
    build_filling,
    certify,
    drift_audit,
    validate_disk,
    verify_filling,
)
from ringfill.serialize import build_to_dict, complex_from_dict, dump_json, load_json

PARAMS = Params(384, Fraction(1, 10), Fraction(1, 4))


def _peak(call):
    """``call()`` and the peak of memory traced while it ran, above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    """Peak of each stage over the triangle array's bytes: build, validate, audit, verify, and loading the build file.

    The kernel library is loaded first, so that its one-time import of
    ctypes and sysconfig falls in no stage, whichever test ran before.
    """
    _kernels.library()
    build, built = _peak(lambda: build_filling(PARAMS))
    size = build.triangulation.triangles.nbytes
    _, validated = _peak(lambda: validate_disk(build.triangulation))
    _, audited = _peak(lambda: drift_audit(build))
    _, verified = _peak(lambda: verify_filling(build.triangulation))
    t = build.triangulation
    fresh = Triangulation(t.n, t.num_vertices, t.triangles)  # a new complex of the rows, as a bare file loads

    def validate_and_verify():
        assert validate_disk(fresh).ok
        return verify_filling(fresh)

    _, validated_verified = _peak(validate_and_verify)

    def fresh_build():
        """``build`` with a new complex of its rows, as a built or loaded filling."""
        return BuildResult(Triangulation(t.n, t.num_vertices, t.triangles), build.ledger, build.schedule, PARAMS)

    audited_fresh = fresh_build()
    _, fresh_audit = _peak(lambda: drift_audit(audited_fresh))
    certified_fresh = fresh_build()
    _, joint = _peak(lambda: certify(certified_fresh))
    verified_fresh = fresh_build()

    def certify_and_verify():
        assert certify(verified_fresh).ok
        return verify_filling(verified_fresh.triangulation)

    _, certified_verified = _peak(certify_and_verify)
    path = tmp_path_factory.mktemp("memory") / "k384.json"
    dump_json(build_to_dict(build), str(path))
    _, loaded = _peak(lambda: complex_from_dict(load_json(str(path))))
    return {"build": built / size, "validate": validated / size, "audit": audited / size, "verify": verified / size,
            "validate+verify": validated_verified / size, "load": loaded / size, "audit by strips": fresh_audit / size,
            "validate+audit by strips": joint / size, "certify+verify": certified_verified / size}


_VALIDATE = 3.3
_VERIFY = 3.2


@pytest.mark.parametrize(
    "stage, bound",
    [("build", 1.3), ("validate", _VALIDATE), ("load", 1.5), ("audit", 0.5), ("verify", _VERIFY),
     ("validate+verify", _VALIDATE), ("audit by strips", 0.08),
     ("validate+audit by strips", 0.08), ("certify+verify", _VERIFY)],
)
def test_stage_peaks_a_small_multiple_of_the_triangles(peaks, stage, bound):
    assert peaks[stage] <= bound, peaks
