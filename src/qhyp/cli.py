"""Command-line front end: classification, invariants, congruence and
conjugacy decisions, seeded sampling, and the verification suite.

Exit codes: 0 success / positive verdict, 1 negative verdict or failed
verification, 2 malformed input, 3 inconclusive (also a numerical failure on
well-formed input), 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .errors import NumericalError, QhypError
from .tolerances import CLASSIFY_TOL_FLOOR, DECIDER_TOL_FLOOR, DEFAULT_TOL


def _tolerance(text: str) -> float:
    """A ``--tol`` value: positive and finite, as NaN and inf pass every check."""
    tol = float(text)
    if not 0.0 < tol < np.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qhyp",
                                description="invariants and deciders on "
                                            "quaternionic hyperbolic space")
    sub = p.add_subparsers(dest="command", required=True)

    def reader(name, text, run, *inputs, fmt=True):
        """A command reading the JSON files ``inputs``, with ``--tol`` [and ``--format``]."""
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(run=run)
        for arg in inputs:
            sp.add_argument(arg)
        sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json")

    reader("classify", "classify an isometry from matrix JSON", cmd_classify, "input")
    reader("invariants", "profile of a point configuration", cmd_invariants, "input")
    reader("congruent", "decide congruence of two configurations", cmd_congruent,
           "config_a", "config_b", fmt=False)
    reader("conjugate-pair", "decide conjugacy of two pairs", cmd_conjugate_pair,
           "pair_a", "pair_b", fmt=False)

    c = sub.add_parser("sample", help="generate seeded random objects")
    c.set_defaults(run=cmd_sample)
    c.add_argument("--kind", choices=("hyperbolic", "elliptic", "config", "pair"),
                   required=True)
    c.add_argument("--signature", type=int, default=2, metavar="N")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--count", type=int, default=1)
    c.add_argument("--points", type=int, default=4, help="points in a config (m)")
    c.add_argument("--nulls", type=int, default=4, help="null points in a config (i)")

    c = sub.add_parser("verify", help="run the acceptance criteria")
    c.set_defaults(run=cmd_verify)
    c.add_argument("--suite", choices=("all", "quick"), default="all")
    c.add_argument("--criteria", type=str, default=None,
                   help="comma-separated criterion numbers to run")
    return p


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise QhypError(f"cannot read {path}: {exc}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_classify(args) -> int:
    from .serialize import classification_to_csv, isometry_from_json

    A = isometry_from_json(_load_json(args.input), tol=max(args.tol, CLASSIFY_TOL_FLOOR))
    report = {"type": A.classification.value}
    if A.is_semisimple():
        report["real_trace"] = [float(x) for x in A.real_trace()]
        e = A.eigen
        report["classes"] = [
            {"modulus": modulus, "angle": angle, "multiplicity": mult, "type": kind.value}
            for modulus, angle, mult, kind
            in zip(e.moduli, e.angles, e.multiplicities.tolist(), e.kinds)]
    else:
        report["note"] = "parabolic elements are detected but not supported downstream"
    if args.format == "csv":
        print(classification_to_csv(report), end="")
    else:
        _emit(report)
    return 0


def cmd_invariants(args) -> int:
    from .invariants import profile
    from .serialize import config_from_json, profile_to_csv, profile_to_json

    cfg = config_from_json(_load_json(args.input))
    prof = profile(cfg, args.tol)
    if args.format == "csv":
        print(profile_to_csv(prof), end="")
    else:
        _emit(profile_to_json(prof))
    return 0


def cmd_congruent(args) -> int:
    from .gram import congruent
    from .serialize import config_from_json, decision_to_json

    a = config_from_json(_load_json(args.config_a))
    b = config_from_json(_load_json(args.config_b))
    dec = congruent(a, b, max(args.tol, DECIDER_TOL_FLOOR))
    _emit(decision_to_json(dec))
    return dec.exit_code()


def _pair_from_json(data) -> tuple:
    from .serialize import isometry_from_json

    if not isinstance(data, dict) or "A" not in data or "B" not in data:
        raise QhypError("pair JSON needs fields 'A' and 'B'")
    return isometry_from_json(data["A"]), isometry_from_json(data["B"])


def cmd_conjugate_pair(args) -> int:
    from .pairs import pair_conjugate
    from .serialize import decision_to_json

    A, B = _pair_from_json(_load_json(args.pair_a))
    A2, B2 = _pair_from_json(_load_json(args.pair_b))
    dec = pair_conjugate(A, B, A2, B2, max(args.tol, DECIDER_TOL_FLOOR))
    _emit(decision_to_json(dec))
    return dec.exit_code()


def cmd_sample(args) -> int:
    from .isometry import Classification
    from .linalg import HermitianSpace
    from .sampling import sample_config, sample_pair, sample_semisimple
    from .serialize import config_to_json, hmatrix_to_json

    space = HermitianSpace(args.signature)
    out = []
    for k in range(args.count):
        rng = np.random.default_rng((args.seed, k))
        if args.kind == "config":
            cfg = sample_config(space, args.points, args.nulls, rng)
            item = config_to_json(cfg)
        elif args.kind == "pair":
            A, B = sample_pair(space, rng)
            item = {"A": hmatrix_to_json(A.matrix), "B": hmatrix_to_json(B.matrix)}
        else:
            A = sample_semisimple(space, rng, Classification(args.kind))
            item = hmatrix_to_json(A.matrix)
            item["expect"] = args.kind
        item["seed"] = [args.seed, k]
        out.append(item)
    _emit(out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    wanted = None
    if args.criteria:
        wanted = [int(x) for x in args.criteria.split(",")]
    results = run_suite(quick=(args.suite == "quick"), criteria=wanted)
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[criterion {r.index:>2}] {status}  {r.name}: {r.detail}")
        all_pass &= r.passed
    print("verification:", "all criteria passed" if all_pass else "FAILURES present")
    return 0 if all_pass else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:  # exit as a SIGPIPE kill would; the exit-time flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except NumericalError as exc:  # the input was read; the computation could not decide
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QhypError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return 2
