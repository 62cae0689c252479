"""JSON and CSV serialization for the wire formats used by the CLI.

Quaternions travel as 4-arrays [a0, a1, a2, a3]; matrices as
{"n": ..., "rows": [[quaternion, ...], ...]}; configurations as
{"n": ..., "i": ..., "points": [[quaternion, ...], ...]} where each point is
a lift (a row of n+1 quaternions).  CSV flattens quaternions into four
adjacent columns suffixed .w/.x/.y/.z.
"""

from __future__ import annotations

import io
from typing import Any, Optional

import numpy as np

from .decision import Decision
from .errors import InvalidSpecError
from .gram import PointConfig, gram_of
from .invariants import InvariantProfile, PairSlot, ProjPoint, XSlot
from .isometry import Isometry
from .linalg import HermitianSpace, HMatrix, HVector
from .quaternion import Quaternion


def quaternion_to_json(q: Quaternion) -> list[float]:
    return [q.a0, q.a1, q.a2, q.a3]


def quaternion_from_json(data: Any) -> Quaternion:
    if not isinstance(data, (list, tuple)) or len(data) != 4:
        raise InvalidSpecError(f"quaternion must be a 4-array, got {data!r}")
    return Quaternion.from_seq(data)


def _components(rows: Any, what: str) -> np.ndarray:
    """Wire quaternions as one float array, every entry a finite number."""
    try:
        comps = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"{what} must be equal-length lists of numbers") from exc
    if not np.isfinite(comps).all():  # asarray reads null as NaN
        raise InvalidSpecError(f"{what} must be finite numbers")
    return comps


def hmatrix_to_json(M: HMatrix, n: Optional[int] = None) -> dict:
    return {"n": n if n is not None else M.dim - 1, "rows": M.components().tolist()}


def hmatrix_from_json(data: dict) -> tuple[HMatrix, int]:
    try:
        n = int(data["n"])
        rows = data["rows"]
    except (KeyError, TypeError) as exc:
        raise InvalidSpecError("matrix JSON needs 'n' and 'rows'") from exc
    comps = _components(rows, "matrix rows")
    if comps.shape != (n + 1, n + 1, 4):
        raise InvalidSpecError(f"expected {n + 1} x {n + 1} rows of quaternions, "
                               f"got shape {comps.shape}")
    return HMatrix.from_components(comps), n


def isometry_from_json(data: dict, tol: float = 1e-8) -> Isometry:
    M, n = hmatrix_from_json(data)
    A = Isometry(M, HermitianSpace(n), tol=tol)
    expect = data.get("expect")
    if expect is not None and A.classification.value != expect:
        raise InvalidSpecError(
            f"classified as {A.classification.value}, expected {expect}")
    return A


def config_to_json(cfg: PointConfig) -> dict:
    return {"n": cfg.space.n, "i": cfg.i,
            "points": [p.lift.components().tolist() for p in cfg.points]}


def config_from_json(data: dict, tol: float = 1e-8) -> PointConfig:
    try:
        n = int(data["n"])
        points = data["points"]
    except (KeyError, TypeError) as exc:
        raise InvalidSpecError("config JSON needs 'n' and 'points'") from exc
    space = HermitianSpace(n)
    lifts = _components(points, "points")
    if lifts.ndim != 3 or lifts.shape[1:] != (n + 1, 4):
        raise InvalidSpecError(f"each point needs {n + 1} quaternion coordinates")
    cfg = gram_of(space, [ProjPoint.from_lift(space, HVector.from_components(a), tol)
                          for a in lifts], tol)
    declared = data.get("i")
    if declared is not None and int(declared) != cfg.i:
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


def profile_from_json(data: dict) -> InvariantProfile:
    try:
        prof = InvariantProfile(
            m=int(data["m"]),
            i=int(data["i"]),
            a23=float(data["a23"]),
            u0=quaternion_from_json(data["u0"]),
            x_slots=[XSlot(s["family"], int(s["row"]), int(s["col"]),
                           quaternion_from_json(s["value"]))
                     for s in data["x_slots"]],
            pair_slots=[PairSlot(int(s["i1"]), int(s["j1"]), float(s["d"]),
                                 float(s["a"]), quaternion_from_json(s["u"]))
                        for s in data["pair_slots"]],
            first_row=[float(x) for x in data["first_row"]],
        )
    except (KeyError, TypeError) as exc:
        raise InvalidSpecError("malformed profile JSON") from exc
    prof.check_structure()
    return prof


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
    buf = io.StringIO()
    buf.write(",".join(name for name, _ in cells) + "\n")
    buf.write(",".join(repr(v) for _, v in cells) + "\n")
    return buf.getvalue()


def classification_to_csv(report: dict) -> str:
    buf = io.StringIO()
    buf.write("type,real_trace\n")
    buf.write(f"{report['type']},\"{report['real_trace']}\"\n")
    return buf.getvalue()
