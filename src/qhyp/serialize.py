"""JSON and CSV serialization for the wire formats used by the CLI.

Quaternions travel as 4-arrays [a0, a1, a2, a3]; matrices as
{"n": ..., "rows": [[quaternion, ...], ...]}; configurations as
{"n": ..., "i": ..., "points": [[quaternion, ...], ...]} where each point is
a lift (a row of n+1 quaternions).  Components are finite JSON numbers and
the counts n and i are JSON integers (n >= 1); decoders reject strings,
booleans, null, NaN and Infinity in their place.  Profiles are encoded
only.  CSV flattens quaternions into four adjacent columns suffixed
.w/.x/.y/.z.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

import numpy as np

from .decision import Decision
from .errors import InvalidSpecError
from .gram import PointConfig, gram_of
from .invariants import InvariantProfile
from .isometry import Isometry
from .linalg import HermitianSpace, HMatrix, components_from_stacked, stacked_from_components
from .quaternion import Quaternion
from .tolerances import WIRE_TOL


def quaternion_to_json(q: Quaternion) -> list[float]:
    return [q.a0, q.a1, q.a2, q.a3]


#: what JSON numbers decode to; ``bool`` subclasses ``int``, so types are
#: compared exactly, and ``float()`` or ``np.asarray`` would also read
#: numeric strings
_NUMBER_TYPES = {int, float}


def _integer(x: Any, what: str) -> int:
    if type(x) is not int:
        raise InvalidSpecError(f"{what} must be an integer, got {x!r}")
    return x


def _components(rows: Any, what: str) -> np.ndarray:
    """Wire lists of quaternions (matrix rows or points) as one (a, b, 4)
    float array, every entry a finite JSON number."""
    try:
        comps = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"{what} must be equal-length lists of numbers") from exc
    if comps.ndim != 3:
        raise InvalidSpecError(f"{what} must be lists of quaternions, got shape {comps.shape}")
    # asarray also reads null as NaN, and numeric strings and booleans as numbers
    if (set(map(type, chain.from_iterable(chain.from_iterable(rows)))) - _NUMBER_TYPES
            or not np.isfinite(comps).all()):
        raise InvalidSpecError(f"{what} must be finite numbers")
    return comps


def _dimension(data: dict, key: str) -> tuple[int, Any]:
    """The declared integer n >= 1 and the payload under ``key``."""
    try:
        n, payload = data["n"], data[key]
    except (KeyError, TypeError) as exc:
        raise InvalidSpecError(f"JSON needs 'n' and '{key}'") from exc
    if _integer(n, "n") < 1:
        raise InvalidSpecError(f"need n >= 1, got {n}")
    return n, payload


def hmatrix_to_json(M: HMatrix) -> dict:
    return {"n": M.dim - 1, "rows": M.components().tolist()}


def hmatrix_from_json(data: dict) -> tuple[HMatrix, int]:
    n, rows = _dimension(data, "rows")
    comps = _components(rows, "matrix rows")
    if comps.shape != (n + 1, n + 1, 4):
        raise InvalidSpecError(f"expected {n + 1} x {n + 1} rows of quaternions, "
                               f"got shape {comps.shape}")
    return HMatrix.from_components(comps), n


def isometry_from_json(data: dict, tol: float = WIRE_TOL) -> Isometry:
    M, n = hmatrix_from_json(data)
    A = Isometry(M, HermitianSpace(n), tol=tol)
    expect = data.get("expect")
    if expect is not None and A.classification.value != expect:
        raise InvalidSpecError(
            f"classified as {A.classification.value}, expected {expect}")
    return A


def config_to_json(cfg: PointConfig) -> dict:
    return {"n": cfg.space.n, "i": cfg.i,
            "points": components_from_stacked(cfg.lifts).tolist()}


def config_from_json(data: dict) -> PointConfig:
    n, points = _dimension(data, "points")
    space = HermitianSpace(n)
    lifts = _components(points, "points")
    if lifts.shape[1:] != (n + 1, 4):
        raise InvalidSpecError(f"each point needs {n + 1} quaternion coordinates")
    cfg = gram_of(space, stacked_from_components(lifts), WIRE_TOL)
    declared = data.get("i")
    if declared is not None and _integer(declared, "i") != cfg.i:
        raise InvalidSpecError(f"declared i={declared} but found {cfg.i} null points")
    return cfg


def decision_to_json(dec: Decision) -> dict:
    return {
        "verdict": dec.verdict.value,
        "witness": hmatrix_to_json(dec.witness) if dec.witness is not None else None,
        "residual": dec.residual,
        "reason": dec.reason,
    }


def profile_to_json(prof: InvariantProfile) -> dict:
    return {
        "m": prof.m,
        "i": prof.i,
        "a23": prof.a23,
        "u0": quaternion_to_json(prof.u0),
        "x_slots": [{"family": s.family, "row": s.row, "col": s.col,
                     "value": quaternion_to_json(s.value)} for s in prof.x_slots],
        "pair_slots": [{"i1": s.i1, "j1": s.j1, "d": s.d, "a": s.a,
                        "u": quaternion_to_json(s.u)} for s in prof.pair_slots],
        "first_row": list(prof.first_row),
        "counts": {"d": prof.d_count, "t": prof.t_count, "l": prof.l_count},
    }


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

_SUFFIXES = (".w", ".x", ".y", ".z")


def _flatten(prefix: str, value) -> list[tuple[str, float]]:
    if isinstance(value, Quaternion):
        return list(zip((prefix + s for s in _SUFFIXES), quaternion_to_json(value)))
    return [(prefix, float(value))]


def profile_to_csv(prof: InvariantProfile) -> str:
    cells: list[tuple[str, float]] = []
    cells += _flatten("a23", prof.a23)
    cells += _flatten("u0", prof.u0)
    for s in prof.x_slots:
        cells += _flatten(f"{s.family}_{s.row}{s.col}", s.value)
    for s in prof.pair_slots:
        cells += _flatten(f"d_{s.i1}{s.j1}", s.d)
        cells += _flatten(f"a_{s.i1}{s.j1}", s.a)
        cells += _flatten(f"u_{s.i1}{s.j1}", s.u)
    for j, r in enumerate(prof.first_row):
        col = (prof.i if prof.i >= 3 else 1) + 1 + j
        cells += _flatten(f"r_1{col}", r)
    return (",".join(name for name, _ in cells) + "\n"
            + ",".join(repr(v) for _, v in cells) + "\n")


def classification_to_csv(report: dict) -> str:
    """Header and one row: the type, and the real trace as a quoted list,
    left empty for a parabolic element, which has none."""
    trace = f"\"{report['real_trace']}\"" if "real_trace" in report else ""
    return f"type,real_trace\n{report['type']},{trace}\n"
