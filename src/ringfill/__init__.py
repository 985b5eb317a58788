"""Concentric annular triangulations of cycle graphs.

Builds triangulated disks filling the cycle graph C_n without shortening any
boundary distance, verifies that isometry exactly by breadth-first search,
audits the circular drift of every slanted edge in exact rational
arithmetic, and measures how the vertex count approaches its asymptotic
density bound.

Importing the package loads no numpy and none of its layers.  Each public
name is imported from its defining module, listed in ``_EXPORTS``, on first
access (PEP 562), so ``from ringfill import X`` loads only X's layer and
what that layer imports.  ``ScheduleError`` and ``as_fraction`` need no
numpy and live here.
"""
from __future__ import annotations

import re
from fractions import Fraction
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "ConstantsReport",
        "CoreInequalityReport",
        "ProfileIntegralCheck",
        "SweepRow",
        "check_core_inequality",
        "constants_report",
        "drift_integral",
        "profile",
        "profile_integral",
        "run_sweep",
        "stop_time",
        "vertex_count_lower_bound",
    ),
    "annuli": ("LayerRecord", "annulus_triangles", "cone_triangles", "layer_ledger", "staircase_indices"),
    "builder": (
        "BuildResult",
        "Params",
        "Schedule",
        "build_filling",
        "ceil_sqrt",
        "compute_schedule",
        "predict_density",
    ),
    "oracle": (
        "EnumerationBudget",
        "OracleResult",
        "enumerate_fillings",
        "is_isometric_filling",
        "min_isometric_vertices",
    ),
    "simplicial": ("Triangulation", "ValidationReport", "canonical_triangle", "cone_over_cycle", "validate_disk"),
    "verify": (
        "Certificate",
        "DriftAudit",
        "VerificationReport",
        "boundary_distance_matrix",
        "certify",
        "cycle_dist",
        "drift_audit",
        "separation_lower_bounds",
        "step_profile_eps",
        "verify_filling",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "ScheduleError", "as_fraction"])


class ScheduleError(ValueError):
    """The requested parameters cannot produce a well-formed layer schedule."""


# Python's default limit on the digits of an int converted from a string.
# Fraction parses a decimal string's exponent into a power of ten before any
# such check, so '1e10000000' would take seconds and a larger exponent hours.
_MAX_DIGITS = 4300
_DIGITS = re.compile(r"[0-9_]+")
_EXPONENT = re.compile(r"[eE]\s*[-+]?\s*([0-9_]+)")


def _shown(value: str | int | Fraction) -> str:
    """``value``'s text, or past 24 characters its first and last ten around ``...``: how an error message names input.

    An int, or a Fraction's numerator or denominator, too long for ``str``
    (past Python's 4,300-digit limit) is written as its first and last ten
    digits around ``...``, which keeps the first and last ten characters.
    """
    if isinstance(value, Fraction):
        value = _digits(value.numerator) + ("" if value.denominator == 1 else f"/{_digits(value.denominator)}")
    text = value if isinstance(value, str) else _digits(value)
    return text if len(text) <= 24 else f"{text[:10]}...{text[-10:]}"


def _digits(x: int) -> str:
    """``str(x)``, or for an int too long for it, its first and last ten characters around ``...``."""
    try:
        return str(x)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        pass
    size = int(abs(x).bit_length() * 0.30102999566398)  # log10(2): about the digits of |x| past the first
    while 10**size > abs(x):
        size -= 1
    while 10 ** (size + 1) <= abs(x):
        size += 1
    head = str(abs(x) // 10 ** (size - 9))
    return f"{'-' + head[:9] if x < 0 else head}...{abs(x) % 10**10:010d}"


def _check_length(text: str) -> None:
    """Raise ValueError, naming ``text`` shortened, if a run of its digits or its decimal exponent passes the limit."""
    exponent = _EXPONENT.search(text)
    digits = max((len(run.replace("_", "")) for run in _DIGITS.findall(text)), default=0)
    power = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if digits > _MAX_DIGITS or len(power) > len(str(_MAX_DIGITS)) or (power and int(power) > _MAX_DIGITS):
        raise ValueError(
            f"{_shown(text)!r} ({len(text)} characters) has more than {_MAX_DIGITS} digits or a larger decimal exponent"
        )


def as_fraction(x: Fraction | int | float | str) -> Fraction:
    """Exact rational from a Fraction, int, decimal/fraction string, or float.

    Floats go through their shortest repr, so ``as_fraction(0.1)`` is exactly
    1/10 rather than the 53-bit binary approximation.  A string with a zero
    denominator is a ``ValueError``, like any other malformed rational, and
    so is one with more than 4,300 digits in a row or a decimal exponent
    beyond 4,300, refused before it is parsed.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        _check_length(x)
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def __getattr__(name: str):
    """A public name from its defining module, or a layer module itself, imported on first access."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
