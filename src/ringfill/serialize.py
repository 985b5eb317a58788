"""JSON, OFF, and OBJ serialization.

The triangulation schema is shared by every command: ``{"n": int,
"vertices": [{"id", "layer", "index_in_layer", "theta_num", "theta_den"}],
"triangles": [[a, b, c], ...]}`` with phases as exact rational pairs (null
for the apex).  A build file wraps the same keys together with the schedule
and layer ledger so audits and lower bounds can be recomputed offline; on
load, every vertex record of a build file must restate its ledger position
exactly, and a zero denominator anywhere is rejected with ValueError.
Field order is fixed, so output bytes are deterministic for fixed inputs.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from .annuli import LayerRecord
from .builder import BuildResult, Params, Schedule
from .simplicial import Triangulation, Vertex
from .verify import VerificationReport

__all__ = [
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


def _frac_pair(x: Fraction | None) -> tuple[int | None, int | None]:
    if x is None:
        return None, None
    return x.numerator, x.denominator


def _frac_from(num: int | None, den: int | None, what: str) -> Fraction | None:
    if num is None or den is None:
        return None
    if den == 0:
        raise ValueError(f"{what} has a zero denominator")
    return Fraction(num, den)


def triangulation_to_dict(t: Triangulation) -> dict[str, Any]:
    vertices = []
    for v in t.vertices:
        num, den = _frac_pair(v.theta)
        vertices.append(
            {
                "id": v.id,
                "layer": v.layer,
                "index_in_layer": v.index_in_layer,
                "theta_num": num,
                "theta_den": den,
            }
        )
    return {
        "n": t.n,
        "vertices": vertices,
        "triangles": t.triangles.tolist(),
    }


def triangulation_from_dict(data: dict[str, Any]) -> Triangulation:
    vertices = [
        Vertex(
            id=v["id"],
            layer=v["layer"],
            index_in_layer=v["index_in_layer"],
            theta=_frac_from(v["theta_num"], v["theta_den"], f"theta of vertex {v['id']}"),
        )
        for v in sorted(data["vertices"], key=lambda v: v["id"])
    ]
    return Triangulation(data["n"], vertices, data["triangles"])


def _schedule_to_dict(s: Schedule) -> dict[str, Any]:
    return {
        "collar_layers": s.collar_layers,
        "num_blocks": s.num_blocks,
        "layers_per_block": s.layers_per_block,
        "stop_time": list(_frac_pair(s.stop_time)),
        "block_width": list(_frac_pair(s.block_width)),
        "block_times": [list(_frac_pair(t)) for t in s.block_times],
        "block_lengths": list(s.block_lengths),
    }


def _schedule_from_dict(n: int, data: dict[str, Any]) -> Schedule:
    return Schedule(
        n=n,
        collar_layers=data["collar_layers"],
        num_blocks=data["num_blocks"],
        layers_per_block=data["layers_per_block"],
        stop_time=_frac_from(*data["stop_time"], "schedule stop_time"),
        block_width=_frac_from(*data["block_width"], "schedule block_width"),
        block_times=tuple(_frac_from(*t, "schedule block time") for t in data["block_times"]),
        block_lengths=tuple(data["block_lengths"]),
    )


def _ledger_to_list(ledger: list[LayerRecord]) -> list[dict[str, Any]]:
    out = []
    for rec in ledger:
        pn, pd = _frac_pair(rec.phase)
        bn, bd = _frac_pair(rec.drift_bound)
        out.append(
            {
                "index": rec.index,
                "length": rec.length,
                "phase_num": pn,
                "phase_den": pd,
                "first_vertex": rec.first_vertex,
                "annulus_kind": rec.annulus_kind,
                "drift_num": bn,
                "drift_den": bd,
            }
        )
    return out


def _ledger_from_list(data: list[dict[str, Any]]) -> list[LayerRecord]:
    return [
        LayerRecord(
            index=rec["index"],
            length=rec["length"],
            phase=_frac_from(rec["phase_num"], rec["phase_den"], f"phase of ledger layer {rec['index']}"),
            first_vertex=rec["first_vertex"],
            annulus_kind=rec["annulus_kind"],
            drift_bound=_frac_from(rec["drift_num"], rec["drift_den"], f"drift of ledger layer {rec['index']}"),
        )
        for rec in data
    ]


def build_to_dict(build: BuildResult) -> dict[str, Any]:
    p = build.params
    base = triangulation_to_dict(build.triangulation)
    return {
        "n": base["n"],
        "params": {
            "n": p.n,
            "rho": list(_frac_pair(p.rho)),
            "eta": list(_frac_pair(p.eta)),
        },
        "schedule": _schedule_to_dict(build.schedule),
        "apex": build.apex,
        "predicted_vertex_count": build.predicted_vertex_count,
        "predicted_triangle_count": build.predicted_triangle_count,
        "ledger": _ledger_to_list(build.ledger),
        "vertices": base["vertices"],
        "triangles": base["triangles"],
    }


def build_from_dict(data: dict[str, Any]) -> BuildResult:
    """Parse a build file, rejecting vertex records that disagree with its ledger."""
    tri = triangulation_from_dict(data)
    pdata = data["params"]
    params = Params(pdata["n"], _frac_from(*pdata["rho"], "rho"), _frac_from(*pdata["eta"], "eta"))
    ledger = _ledger_from_list(data["ledger"])
    _check_vertices_against_ledger(tri, ledger, data["apex"])
    return BuildResult(
        triangulation=tri,
        ledger=ledger,
        schedule=_schedule_from_dict(data["n"], data["schedule"]),
        params=params,
        apex=data["apex"],
        predicted_vertex_count=data["predicted_vertex_count"],
        predicted_triangle_count=data["predicted_triangle_count"],
    )


def _check_vertices_against_ledger(t: Triangulation, ledger: list[LayerRecord], apex: int) -> None:
    """Every vertex record must restate the layer, index and theta its ledger cycle gives it.

    The audit reads positions from the ledger alone, so the redundant records
    are checked here instead of trusted.  Thetas are compared by integer
    cross-multiplication with ``(phase + n*i/m) mod n``.
    """
    n = t.n
    verts = t.vertices
    covered = sum(rec.length for rec in ledger)
    if len(verts) != apex + 1 or covered != apex:
        raise ValueError(
            f"build file has {len(verts)} vertices and ledger cycles covering {covered}; "
            f"apex {apex} needs {apex + 1} and {apex}"
        )
    for r, rec in enumerate(ledger):
        if rec.index != r or rec.phase is None:
            raise ValueError(f"ledger entry {r} carries index {rec.index} and phase {rec.phase}")
        m, first = rec.length, rec.first_vertex
        if m < 1 or first < 0 or first + m > apex:
            raise ValueError(f"ledger layer {r} spans vertex ids {first}..{first + m - 1} outside 0..{apex - 1}")
        num, den = rec.phase.numerator, rec.phase.denominator
        period = n * den * m
        for i, v in enumerate(verts[first : first + m]):
            theta = v.theta
            expected = (num * m + n * i * den) % period
            if (
                v.layer != r
                or v.index_in_layer != i
                or theta is None
                or theta.numerator * den * m != expected * theta.denominator
            ):
                raise ValueError(
                    f"vertex {v.id} record (layer {v.layer}, index {v.index_in_layer}, theta {theta}) "
                    f"disagrees with the ledger (layer {r}, index {i}, theta {Fraction(expected, den * m)})"
                )
    top = verts[apex]
    if top.layer != len(ledger) or top.index_in_layer != 0 or top.theta is not None:
        raise ValueError(f"apex record {apex} must sit on layer {len(ledger)} at index 0 with no theta")


def complex_from_dict(data: dict[str, Any]) -> tuple[Triangulation, BuildResult | None]:
    """Parse either a bare triangulation file or a full build file."""
    if "ledger" in data:
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


def dump_json(data: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_json(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def embedded_coordinates(t: Triangulation) -> list[tuple[float, float, float]]:
    """Flat radial embedding for visual inspection only.

    Radius decreases linearly with layer depth, the angle is the circular
    coordinate rescaled to radians, and a vertex without a coordinate (the
    apex) sits at the origin.  Carries no metric meaning.
    """
    max_layer = max(v.layer for v in t.vertices)
    has_apex = any(v.theta is None for v in t.vertices)
    denom = max(max_layer if has_apex else max_layer + 1, 1)
    coords = []
    for v in t.vertices:
        if v.theta is None:
            coords.append((0.0, 0.0, 0.0))
            continue
        radius = 1.0 - v.layer / denom
        angle = 2.0 * math.pi * float(v.theta) / t.n
        coords.append((radius * math.cos(angle), radius * math.sin(angle), 0.0))
    return coords


def write_off(t: Triangulation, path: str) -> None:
    coords = embedded_coordinates(t)
    lines = ["OFF", f"{t.num_vertices} {t.num_triangles} 0"]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in coords)
    lines.extend(f"3 {a} {b} {c}" for a, b, c in t.triangles.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_obj(t: Triangulation, path: str) -> None:
    coords = embedded_coordinates(t)
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in coords]
    lines.extend(f"f {a + 1} {b + 1} {c + 1}" for a, b, c in t.triangles.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
