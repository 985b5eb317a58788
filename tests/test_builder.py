import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from reference_impl import phases

from ringfill import (
    DriftAudit,
    EnumerationBudget,
    Params,
    ScheduleError,
    Triangulation,
    ValidationReport,
    build_filling,
    ceil_sqrt,
    compute_schedule,
    predict_density,
    validate_disk,
)
from ringfill.oracle import EnumerationStats


def test_schedule_direct_evaluation():
    # n=100, eta=0.5: stop time 0.1875, 10 blocks of width 0.01875, one
    # layer per block, lengths 100 then ceil(100*sqrt(0.925)) = 97.
    s = compute_schedule(Params(100, Fraction(3, 10), Fraction(1, 2)))
    assert s.stop_time == Fraction(3, 16)
    assert s.num_blocks == 10
    assert s.block_width == Fraction(3, 160)
    assert s.layers_per_block == 1
    assert s.block_lengths[0] == 100
    assert s.block_lengths[1] == 97
    assert s.collar_layers == 30


def test_collar_width():
    s = compute_schedule(Params(100, Fraction(1, 10), Fraction(1, 4)))
    assert s.collar_layers == 10


@pytest.mark.parametrize(
    "n,rho,eta",
    [(100, "0.1", "0.25"), (64, "0.1", "0.25"), (111, "0.2", "0.4"), (360, "0.05", "0.2")],
)
def test_innermost_length_is_ceiling_of_eta_n(n, rho, eta):
    p = Params(n, Fraction(rho), Fraction(eta))
    s = compute_schedule(p)
    assert s.block_lengths[-1] == math.ceil(p.eta * n)
    assert s.block_lengths[0] == n
    assert all(a >= b for a, b in zip(s.block_lengths, s.block_lengths[1:]))


def test_ceil_sqrt_exact():
    assert ceil_sqrt(Fraction(0)) == 0
    assert ceil_sqrt(Fraction(49)) == 7  # exact square stays exact
    assert ceil_sqrt(Fraction(50)) == 8
    assert ceil_sqrt(Fraction(1, 4)) == 1
    assert ceil_sqrt(Fraction(10000, 16)) == 25


def test_rejects_eta_squared_at_least_rho():
    with pytest.raises(ScheduleError, match="eta\\^2 < rho violated"):
        Params(100, Fraction(1, 100), Fraction(1, 5))


def test_rejects_degenerate_small_n():
    # n=10 at a tiny collar: blocks cannot hold a single layer and the
    # innermost cycle collapses below a triangle.
    with pytest.raises(ScheduleError) as err:
        compute_schedule(Params(10, Fraction(1, 1000), Fraction(3, 100)))
    assert "layers" in str(err.value)
    assert "innermost" in str(err.value)


def test_rejects_non_positive_rho_and_bad_eta():
    with pytest.raises(ScheduleError, match="rho"):
        Params(50, Fraction(0), Fraction(1, 10))
    with pytest.raises(ScheduleError, match="eta"):
        Params(50, Fraction(1, 2), Fraction(0))
    with pytest.raises(ScheduleError, match="eta"):
        Params(50, Fraction(1, 2), Fraction(3, 2))


def test_max_n_is_the_largest_whose_isometric_filling_fits():
    from ringfill.builder import MAX_N
    from ringfill.simplicial import MAX_TRIANGLES

    def fewest_triangles(n):  # F = 2V - n - 2 at the isometric bound V = (n-1)^2/8 + (n-1)/2
        return 2 * (Fraction((n - 1) ** 2, 8) + Fraction(n - 1, 2)) - n - 2

    assert MAX_TRIANGLES == 357_913_941
    assert fewest_triangles(MAX_N) <= MAX_TRIANGLES < fewest_triangles(MAX_N + 1)


def test_drift_terms_of_every_accepted_n_fit_int64():
    # certify measures rungs in units of 1/S, S = 2m or m M <= n^2, with
    # 2 n S <= 2 n^3 kept below 2^63 and no fallback past it: raising MAX_N
    # past this bound needs wider drift arithmetic first
    from ringfill.builder import MAX_N

    assert 2 * MAX_N**3 < 2**63


@pytest.mark.parametrize("n", [37_839, 10**30])
def test_params_refuse_n_past_int32_edge_ids(n):
    with pytest.raises(ScheduleError, match=f"boundary length {n} > 37838"):
        Params(n, Fraction(1, 100), Fraction(1, 20))


def test_schedule_refuses_more_triangles_than_edge_ids_allow(monkeypatch):
    import ringfill.builder

    def refuse(*args, **kwargs):
        raise AssertionError("the ledger was built before the triangle count was checked")

    monkeypatch.setattr(ringfill.builder, "layer_ledger", refuse)
    with pytest.raises(ScheduleError, match="would have 513607108 triangles, more than the 357913941"):
        build_filling(Params(37_838, Fraction(1, 100), Fraction(1, 20)))


def test_build_counts_match_ledger_summation(small_build):
    # Independent count: sum the per-layer lengths recorded in the ledger.
    build = small_build
    from_ledger = sum(rec.length for rec in build.ledger) + 1  # + apex
    assert build.schedule.predicted_vertex_count == from_ledger
    assert build.triangulation.num_vertices == from_ledger

    # Triangles: 2m per equal annulus, m + M per shrink, innermost for the cone.
    total = 0
    for outer, inner in zip(build.ledger, build.ledger[1:]):
        if outer.annulus_kind == "shrink":
            total += outer.length + inner.length
        else:
            total += 2 * outer.length
    total += build.ledger[-1].length
    assert build.schedule.predicted_triangle_count == total
    assert build.triangulation.num_triangles == total


def test_build_is_valid_disk_with_identity_boundary(medium_build):
    t = medium_build.triangulation
    assert validate_disk(t).ok  # includes: the boundary edges are exactly the cycle 0..n-1


def test_ledger_structure(medium_build):
    build = medium_build
    s = build.schedule
    kinds = [rec.annulus_kind for rec in build.ledger[:-1]]
    assert kinds.count("collar") == s.collar_layers
    assert sum(1 for k in kinds if k in ("shrink", "transition-equal")) == s.num_blocks
    assert kinds.count("equal") == s.num_blocks * s.layers_per_block
    assert build.ledger[-1].annulus_kind is None
    lengths = [rec.length for rec in build.ledger]
    assert lengths[0] == build.params.n
    assert all(a >= b for a, b in zip(lengths, lengths[1:]))
    assert all(rec.length >= 3 for rec in build.ledger)


def test_phase_recursion(medium_build):
    # Equal-length annuli advance the phase by half a step, shrinking ones
    # keep it; checked exactly on the phases derived from the whole ledger.
    build = medium_build
    n = build.params.n
    phase = phases(build.ledger)
    for outer, inner in zip(build.ledger, build.ledger[1:]):
        if outer.annulus_kind == "shrink":
            assert phase[inner.index] == phase[outer.index]
            assert outer.drift_bound == Fraction(n, inner.length)
        else:
            assert phase[inner.index] == (phase[outer.index] + Fraction(n, 2 * outer.length)) % n
            assert outer.drift_bound == Fraction(n, 2 * outer.length)
    assert phase[0] == 0


def test_predicted_counts_are_exact_for_varied_parameters():
    for n, rho, eta in [(25, "0.1", "0.25"), (40, "0.15", "0.3"), (81, "0.05", "0.2")]:
        build = build_filling(Params(n, Fraction(rho), Fraction(eta)))
        assert build.schedule.predicted_vertex_count == build.triangulation.num_vertices
        assert build.schedule.predicted_triangle_count == build.triangulation.num_triangles


def test_params_compare_by_value_and_stay_read_only():
    params = Params(64, "1/10", 0.25)
    assert params == Params(64, Fraction(1, 10), Fraction(1, 4))
    assert type(params.rho) is Fraction and type(params.eta) is Fraction
    for record in (params, compute_schedule(params), EnumerationBudget(5)):
        with pytest.raises(AttributeError):
            record.n = 65
        assert record.n != 65


@pytest.mark.parametrize("record", [DriftAudit, ValidationReport, EnumerationStats])
def test_default_records_share_no_state(record):
    first, second = record(), record()
    for name, value in vars(first).items():
        if isinstance(value, list):
            value.append(1)
        elif isinstance(value, dict):
            value["edges"] = 1
        else:
            setattr(first, name, value + 1)
    assert vars(second) == vars(record()) != vars(first)


def test_an_owned_int32_buffer_is_kept_without_a_copy(small_build):
    t = small_build.triangulation
    rows = np.array(t.triangles)
    assert rows.dtype == np.int32 and rows.flags.writeable
    assert np.shares_memory(np.asarray(Triangulation(t.n, t.num_vertices, rows, own=True).triangles), rows)
    assert not np.shares_memory(np.asarray(Triangulation(t.n, t.num_vertices, rows).triangles), rows)


def test_predict_density_values():
    assert predict_density(Params(64, Fraction(1, 20), Fraction(1, 5))) == Fraction(323, 1500)
    # eta -> 0 pushes the bound to rho + 1/6
    assert predict_density(Params(64, Fraction(1, 10), Fraction(1, 100))) == Fraction(1, 10) + (
        1 - Fraction(1, 100) ** 3
    ) / 6
    p = Params(64, Fraction(1, 4), Fraction(1, 4))
    assert predict_density(p) == Fraction(1, 4) + (1 - Fraction(1, 64)) / 6


def _ledger_digest(ledger):
    rows = [
        (r.index, r.length, str(phase), r.first_vertex, r.annulus_kind, str(r.drift_bound))
        for r, phase in zip(ledger, phases(ledger))
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize(
    "n,rho,eta,triangles,ledger",
    [
        (25, "1/10", "1/4", "9035b0de94aebe24383870193f8327872fb8ef1fccfaebc2ebd213aef07cbb55",
         "e226afdc5a8830b5425f468986d1f331ef3ff51d875c9f3ecc67627c7c24932e"),
        (64, "1/10", "1/4", "2c90f8a165d40ab3fffe2b1857df27b0f9c9df4c2045e6d0b2b950c56120c7f0",
         "f8ef8a3542c05bac2be31aad849d44f8073dcc6ab4dbda43a00d96e1fbf86d95"),
        (320, "1/10", "1/4", "df1dcb1aec7796f8951e89ded70c3f06e4464c54c9d398f064f8ca299cd6b1a2",
         "faa57162a721cd8ae681db4980bba16160d9cb54bcda9bcf3914bc725e58a5bc"),
        (384, "1/10", "1/4", "6377d5b43683361a6bdd3d022c0ae0ea4e40e7d0b08802c5fc0751cc84aec46b",
         "9ca9960ae3b7553859b7908047d13f8b3c6a6e40d36ca1d9320962907699c591"),
        (257, "1/20", "1/5", "9d1ed659dc434418290d24d9ee6ab4becfc0a835b4930d28fe6bf9575d340f70",
         "81640f377630b9ce7a8ad7bd5eb71c920af01ac51b9cf3a95793f2cbb873ce5e"),
        (1024, "1/100", "1/20", "68975d47b85d61a25a1c15c17f5ff4d2c0efeb52442ce2054c6a800dc830799d",
         "11e5a6aa486792f9a301e2c83f10e7bdd8154ddb7c28588b6bcc20c35022c93c"),
    ],
)
def test_build_output_is_pinned(n, rho, eta, triangles, ledger):
    # sha256 of the canonical int32 triangle array and of the ledger's fields, in order
    build = build_filling(Params(n, Fraction(rho), Fraction(eta)))
    assert hashlib.sha256(build.triangulation.triangles.tobytes()).hexdigest() == triangles
    assert _ledger_digest(build.ledger) == ledger
