"""The compiled kernels against the Python and numpy code they replaced.

The edge table, the corner-graph link check, connectivity and the CSR of
``_kernels.c`` must give exactly the arrays, labels and failure lists of
the numpy bodies kept in ``reference_impl``: on built complexes, on the
oracle's stacks and on corrupted complexes.  They must also take time and
memory linear in the triangles, whatever the ids, and be safe to call from
several threads at once.  The oracle's isometry test must give the
reference's verdicts, and the file must compile without warnings.
"""
import ctypes
import os
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
import tracemalloc
from array import array
from importlib.util import source_hash
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import reference_impl as ref
from hypothesis import given, settings, strategies as st

import ringfill.simplicial as simplicial
import ringfill.verify as verify
from ringfill import EnumerationBudget, Triangulation, cone_over_cycle, validate_disk
from ringfill import _kernels, oracle
from ringfill.oracle import is_isometric_filling
from ringfill.simplicial import _edge_table, validate_disk_batch

_REFERENCES = {"_edge_table": ref.edge_table, "_link_counts": ref.link_counts, "_components": ref.components}


def _copy(t: Triangulation) -> Triangulation:
    """``t`` afresh, with no edge table cached."""
    return Triangulation(t.n, t.num_vertices, t.triangles)


def _reference_report(t: Triangulation):
    with mock.patch.multiple(simplicial, **_REFERENCES):
        return validate_disk(_copy(t))


def _assert_table_and_report_match(t: Triangulation) -> None:
    got, want = _edge_table(t.triangles), ref.edge_table(t.triangles)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)
    report, reference = validate_disk(_copy(t)), _reference_report(t)
    assert report.failures == reference.failures
    assert report.counts == reference.counts


def _labels(function: str, nodes: int, *args) -> np.ndarray:
    """The kernel's labels: each touched node's smallest node of its component, -1 elsewhere."""
    label = np.empty(nodes, dtype=np.int32)
    getattr(_kernels.library(), function)(*args, label, np.zeros(nodes, dtype=np.int32))
    return label


def _assert_labels_match(t: Triangulation) -> None:
    tri = t.triangles
    edges, _, slot = t._edge_table
    nodes = 2 * len(edges)
    a, b = ref.link_joins(tri, slot)
    label = _labels("link_roots", nodes, tri, slot, len(tri), edges, nodes)
    touched = label >= 0
    assert touched.sum() == len(np.union1d(a, b))
    assert np.array_equal(label[touched], ref.min_labels(nodes, a, b)[touched])
    nv = t.num_vertices
    label = np.empty(nv, dtype=np.int32)
    components = _kernels.library().vertex_roots(tri, len(tri), nv, label)
    covered = np.zeros(nv, dtype=bool)
    covered[tri] = True
    assert np.array_equal(label >= 0, covered)
    want = ref.min_labels(nv, tri.ravel(), np.take(tri, [1, 2, 0], axis=1).ravel())
    assert np.array_equal(label[covered], want[covered])
    assert components == ref.components(tri, nv)


def test_built_complexes_match_the_references(small_build, medium_build, flipped_builds):
    builds = [small_build, medium_build, *(build for build, _ in flipped_builds.values())]
    for t in [build.triangulation for build in builds] + [cone_over_cycle(k) for k in (3, 4, 9)]:
        _assert_table_and_report_match(t)
        _assert_labels_match(t)
        for a, b in zip(verify._graph_csr(t), ref.graph_csr(t)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "num_vertices, rows",
    [
        (3, [(0, 0, 0)]),
        (3, [(0, 1, 2)]),
        (3, [(0, 1, 2), (0, 2, 1), (1, 2, 0)]),
        (4, [(0, 1, 2), (0, 1, 2**31 - 1), (2**31 - 1, 2**31 - 2, 2**31 - 1)]),
        (2**16 + 3, [(0, 1, 2), (2**16, 2**16 + 1, 2**16 + 2), (0, 2, 2**16)]),
    ],
    ids=["all-zero", "triangle", "repeated", "int32-maximum", "two-digit-ids"],
)
def test_small_complexes_match_the_references(num_vertices, rows):
    _assert_table_and_report_match(Triangulation(3, num_vertices, rows))


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3)])
def test_oracle_stacks_match_the_references(n, k):
    # The stack kernel checks each complex on its own, so its verdicts are
    # compared with validate_disk on the numpy reference bodies, complex by
    # complex; the union-find kernels run on the stack's disjoint union.
    nv = n + k
    for chunk in [np.asarray(c) for c in oracle._stacks(EnumerationBudget(n, k))][:4]:
        union = Triangulation(n, len(chunk) * (nv + 1), chunk.reshape(-1, 3) + np.repeat(
            np.arange(len(chunk), dtype=np.int32) * (nv + 1), chunk.shape[1])[:, None])
        _assert_labels_match(union)
        broken = chunk.copy()
        broken[::7, 0, 2] = broken[::7, 0, 0]  # degenerate
        broken[3::7, 0, 2] = broken[3::7, 1, 0]  # a corner moved: another triangle, or a degenerate one
        for stack, valid in ((chunk, True), (broken, False)):
            got = validate_disk_batch(n, nv, stack)
            want = [_reference_report(Triangulation(n, nv, rows)).ok for rows in stack]
            assert got.tolist() == want and bool(got.all()) is valid


_corruptions = st.lists(
    st.tuples(
        st.sampled_from(["drop", "flip", "add", "copy", "stray", "degenerate", "torus"]),
        st.integers(0, 10**6),
        st.lists(st.integers(0, 40), min_size=3, max_size=3),
    ),
    min_size=1,
    max_size=4,
)


def _corrupted(t: Triangulation, corruptions) -> Triangulation:
    tris = t.triangles.tolist()
    nv = t.num_vertices
    for kind, k, ids in corruptions:
        i = k % len(tris)
        a, b, c = tris[i]
        if kind == "drop" and len(tris) > 1:
            del tris[i]
        elif kind == "flip":
            tris[i] = [a, c, b]
        elif kind == "add":  # ids up to one past the last vertex
            tris.append([x % (nv + 1) for x in ids])
        elif kind == "copy":
            tris.append([b, c, a])
        elif kind == "stray":
            tris[i] = [a, b, np.iinfo(np.int32).max]
        elif kind == "degenerate":
            tris[i] = [a, a, c]
        else:  # a disjoint octahedron surface on ids past the disk's
            top = nv + k % 5
            octahedron = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]
            tris += [[top + x for x in face] for face in octahedron]
            nv = top + 6
    return Triangulation(t.n, nv, tris)


@given(corruptions=_corruptions, base=st.sampled_from(["n25", "cone7"]))
@settings(max_examples=80, deadline=None)
def test_corrupted_complexes_match_the_references(small_build, corruptions, base):
    t = small_build.triangulation if base == "n25" else cone_over_cycle(7)
    broken = _corrupted(t, corruptions)
    _assert_table_and_report_match(broken)
    # the stack kernel, on a stack of one, gives validate_disk's verdict
    verdicts = validate_disk_batch(broken.n, broken.num_vertices, broken.triangles[None])
    assert verdicts.tolist() == [validate_disk(_copy(broken)).ok]


@pytest.mark.parametrize("stray", [-1, -(2**31), 4, 2**31 - 1])
def test_verdict_kernel_never_takes_a_stray_id_for_a_vertex(stray):
    # validate_disk_batch refuses negative ids before the call; the kernel
    # itself must still give any id outside 0..nv-1 a False verdict.  With
    # the apex of the wheel renamed, the boundary and Euler's formula still
    # hold, so only the id check stands between the stray id and an index.
    wheel = cone_over_cycle(3).triangles
    stack = np.stack([wheel, wheel, wheel])
    stack[1][stack[1] == 3] = stray
    assert list(oracle._verdicts(3, 4, stack)) == [1, 0, 1]


def _fan(size: int) -> Triangulation:
    """``size`` triangles ``(0, i, i + 1)`` on vertex 0: a disk whose every vertex is on the boundary."""
    i = np.arange(1, size + 1, dtype=np.int32)
    return Triangulation(size + 2, size + 2, np.stack([np.zeros_like(i), i, i + 1], axis=1))


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_fan_of_200k_triangles_validates_in_linear_time(order):
    # Vertex 0 has 200,001 neighbours and its link is one path through as
    # many nodes of the corner graph.  Listed in descending order, the
    # triangles hook each root under the next, a chain of 200,000 parents,
    # which the finishing pass must not walk once per node.  Validation
    # takes about 0.1 s either way on a 2-vCPU host.
    t = _fan(200_000)
    if order == "descending":
        t = Triangulation(t.n, t.num_vertices, t.triangles[::-1])
    start = time.perf_counter()
    report = validate_disk(t)
    assert report.ok and report.counts["triangles"] == 200_000
    assert time.perf_counter() - start < 5.0
    _assert_labels_match(t)  # every node of the chain points at its root


def _validation_peak(t: Triangulation) -> int:
    tracemalloc.start()
    try:
        validate_disk(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_stray_id_at_the_int32_maximum_costs_no_memory(medium_build):
    t = medium_build.triangulation
    nv = t.num_vertices
    near, far = (np.vstack([t.triangles, [(0, 1, stray)]]) for stray in (nv, np.iinfo(np.int32).max))
    near, far = Triangulation(t.n, nv, near), Triangulation(t.n, nv, far)
    report = validate_disk(_copy(far))
    assert f"triangle (0, 1, {np.iinfo(np.int32).max}) references a vertex id outside 0..{nv - 1}" in report.failures
    assert report.failures == _reference_report(far).failures
    assert _validation_peak(_copy(far)) <= _validation_peak(_copy(near)) + 4096


def test_two_threads_validate_at_once(medium_build, flipped_builds):
    # The kernels keep no state and release the GIL, so two threads run them
    # at once; each round's complexes are shared, so both threads may also
    # build the same edge table at once.
    complexes = [medium_build.triangulation, _corrupted(medium_build.triangulation, [("stray", 5, [0, 0, 0])])]
    complexes += [build.triangulation for build, _ in flipped_builds.values()]
    want = [(r.failures, r.counts) for r in map(validate_disk, map(_copy, complexes))]
    rounds = [[_copy(t) for t in complexes] for _ in range(5)]
    start = threading.Barrier(2, timeout=60)
    results, errors = [[], []], []

    def run(k: int) -> None:
        try:
            start.wait()
            for shared in rounds:
                for t in shared[k:] + shared[:k]:
                    report = validate_disk(t)
                    results[k].append((report.failures, report.counts))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert errors == []
    assert results[0] == want * 5
    assert results[1] == (want[1:] + want[:1]) * 5


def test_two_threads_enumerate_at_once():
    # Each search keeps its state in its own arrays, so two searches of the
    # same budget running at once give the same stacks as one alone.
    budget = EnumerationBudget(6, 2)
    want = np.concatenate(list(oracle._fillings(budget, 7)))
    start = threading.Barrier(2, timeout=60)
    results, errors = [None, None], []

    def run(k: int) -> None:
        try:
            start.wait()
            results[k] = np.concatenate([chunk for _ in range(5) for chunk in oracle._fillings(budget, 7)])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert errors == []
    for got in results:
        assert np.array_equal(got, np.concatenate([want] * 5))


@pytest.mark.parametrize("k", range(3, 9))
def test_isometry_of_cones_matches_the_reference(k):
    # The cone over C_k is isometric up to k = 5; from k = 6 the apex is a shortcut.
    t = cone_over_cycle(k)
    assert is_isometric_filling(t) is ref.reference_is_isometric(t) is (k <= 5)


@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (6, 3)])
def test_isometry_of_corrupted_stacks_matches_the_reference(n, k):
    # Take the first stack holding an isometric filling, in eight copies.
    # In each complex one corner moves to a random vertex; that adds a chord
    # or a spoke, which may be a shortcut, and it may drop an edge.
    # Complexes left disconnected have no reference verdict and are skipped.
    nv = n + k
    rng = np.random.default_rng(n * 10 + k)
    chunk = next(c for c in oracle._stacks(EnumerationBudget(n, k)) if any(oracle._isometric_rows(n, nv, c)))
    chunk = np.repeat(chunk, 8, axis=0)
    broken = chunk.copy()
    rows = np.arange(len(broken))
    broken[rows, rng.integers(0, broken.shape[1], len(rows)), rng.integers(1, 3, len(rows))] = rng.integers(
        0, nv, len(rows))
    got = oracle._isometric_rows(n, nv, broken)
    compared = flipped = 0
    for b, tri in enumerate(broken):
        try:
            want = ref.reference_is_isometric(Triangulation(n, nv, tri))
        except ValueError:  # disconnected
            continue
        assert got[b] == want, b
        compared += 1
        flipped += want != ref.reference_is_isometric(Triangulation(n, nv, chunk[b]))
    assert compared > len(broken) // 2 and flipped > 0


def test_isometry_test_refuses_ids_beyond_its_vertices():
    with pytest.raises(ValueError, match="vertex id 5, beyond the 4 vertices"):
        is_isometric_filling(Triangulation(3, 4, [(0, 1, 2), (0, 2, 5)]))


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs the C compiler")
def test_kernels_compile_without_warnings(tmp_path):
    done = subprocess.run(
        ["cc", "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"), str(_kernels._SOURCE)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


_POINTERS = [
    pytest.param(name, k, id=f"{name}-{k}")
    for name, (_, argtypes) in _kernels.signatures().items()
    for k, argtype in enumerate(argtypes)
    if isinstance(argtype, _kernels._Buffer)
]
_OTHER_KIND = {"i": "I", "l": "L", "q": "Q", "L": "l", "Q": "q", "?": "B"}  # same item size, another type


@pytest.mark.parametrize("name, position", _POINTERS)
def test_pointer_arguments_take_what_ndpointer_took(name, position):
    # A pointer argument takes a C-contiguous numpy array of its item type
    # and ndim, read-only or not, and the same layout in a bytearray or an
    # array.array; anything else is an ArgumentError before the kernel runs.
    argtypes = _kernels.signatures()[name][1]
    pointer = argtypes[position]
    code = min(pointer.codes)
    shape = (2, 3) if pointer.ndim == 2 else (6,)
    dtype = np.dtype(code)
    wrong = [
        np.zeros(shape, dtype=_OTHER_KIND[code]),
        np.zeros(shape, dtype=np.float64),
        np.zeros((shape[0], 2 * shape[-1]), dtype=dtype)[..., ::2] if pointer.ndim else np.zeros(12, dtype=dtype)[::2],
        array("d", [0.0] * 6),
        [0] * 6,
    ]
    if pointer.ndim:
        wrong.append(np.zeros(6, dtype=dtype))
    function = getattr(_kernels.library(), name)
    # every other argument is valid, so the call fails in the conversion of this one, before the kernel runs
    args = [
        np.zeros((1,) * (t.ndim or 1), dtype=min(t.codes)) if isinstance(t, _kernels._Buffer) else t() for t in argtypes
    ]
    for value in wrong:
        with pytest.raises(ctypes.ArgumentError, match=f"argument {position + 1}:"):
            function(*args[:position], value, *args[position + 1 :])
    frozen = np.ones(shape, dtype=dtype)
    frozen.flags.writeable = False
    assert pointer.from_param(frozen).value == frozen.ctypes.data
    assert pointer.from_param(memoryview(bytearray(6 * dtype.itemsize)).cast(code, shape)) is not None
    if code != "?" and not pointer.ndim:
        assert pointer.from_param(array(code, range(6))) is not None


_SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=undefined", "-g")
_UNDER_SANITIZERS = """
import functools, sys
from pathlib import Path
import pytest
from ringfill import _kernels

def refuse(source, path):
    raise RuntimeError(f"no sanitized kernel library at {path}")

_kernels._compile = refuse
_kernels.library = functools.cache(lambda: _kernels.load(Path(sys.argv[1])))
sys.exit(pytest.main(sys.argv[2:]))
"""


def test_kernels_pass_their_tests_under_sanitizers(tmp_path):
    # The kernels take raw int32 pointers and ids: a missing bound would be a
    # silent wrong answer, so the kernel and oracle tests run once more on a
    # library built with AddressSanitizer and UndefinedBehaviorSanitizer,
    # which stop at the first bad read, write or overflow.
    if "libasan" in os.environ.get("LD_PRELOAD", ""):
        pytest.skip("already running under the sanitizers")
    source = _kernels._SOURCE.read_bytes()
    library = tmp_path / f"_kernels.{source_hash(source).hex()}.{sysconfig.get_platform()}.so"
    built = None
    if shutil.which("cc"):
        built = subprocess.run([*_kernels._CC, *_SANITIZE, "-x", "c", "-o", str(library), "-"], input=source,
                               capture_output=True)
    if built is None or built.returncode:
        pytest.skip("cc cannot link a sanitized object")
    runtimes = [
        subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    ]
    tests = Path(__file__).parent
    env = {
        **os.environ,
        "LD_PRELOAD": " ".join(runtimes),
        "ASAN_OPTIONS": "detect_leaks=0",
        "PYTHONPATH": os.pathsep.join([str(Path(_kernels.__file__).parents[1]), str(tests)]),
    }
    argv = [
        str(tmp_path), "-q", "-p", "no:cacheprovider", "--capture=sys",  # a sanitizer's report goes to fd 2
        str(tests / "test_kernels.py"), str(tests / "test_oracle.py"), "-k", "not under_sanitizers",
    ]
    done = subprocess.run([sys.executable, "-c", _UNDER_SANITIZERS, *argv], env=env, capture_output=True, text=True,
                          cwd=tmp_path, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert " passed" in done.stdout.splitlines()[-1] and "failed" not in done.stdout.splitlines()[-1]
