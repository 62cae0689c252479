"""Seeded inputs in the wire format and the three decision operations.

An operation starts from the JSON text that ``qhyp congruent``, ``qhyp
invariants`` and ``qhyp conjugate-pair`` read and ends with the JSON text
of the result, printed the way the command line prints it.  qhyp functions
are looked up on their modules at call time, so a tracer that replaces them
there sees every call.

A round is the same list of cases on every pass.  Its make-up per workload
is a fixed table of kinds; ``copies`` draws that table that many times with
fresh inputs.  The mixes put more than two thirds of the operations in the
costliest kind, so the median and the 90th percentile both fall inside one
kind of operation rather than in a gap between two (see README.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from qhyp import gram, invariants, isometry, pairs, sampling, serialize
from qhyp.isometry import Classification
from qhyp.linalg import HermitianSpace

import checks

HYP, ELL = Classification.HYPERBOLIC, Classification.ELLIPTIC

#: (n, m, i) -> (positives, negatives) per copy of the congruence table
CONGRUENCE_MIX = {(2, 5, 3): (2, 1), (4, 6, 0): (2, 1), (4, 8, 4): (16, 2)}
#: (n, m, i) -> configurations per copy of the invariants table
INVARIANTS_MIX = {(2, 5, 3): 3, (4, 6, 0): 3, (4, 8, 4): 18}
#: (n, member kinds) -> (positives, negatives) per copy of the pair table
PAIR_MIX = {(2, (HYP, HYP)): (1, 1), (2, (ELL, ELL)): (1, 1), (2, (HYP, ELL)): (1, 1),
            (4, (HYP, HYP)): (4, 2), (4, (ELL, ELL)): (4, 2), (4, (HYP, ELL)): (4, 2)}

#: copies of each table in one round at full size
COPIES = 4


@dataclass(frozen=True)
class Case:
    """One operation's input documents, with its kind and expected sign."""

    kind: str
    docs: tuple[str, ...]
    positive: bool


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _image(cfg, C, rng):
    """The configuration moved by the group member C, each lift rescaled."""
    pts = [invariants.ProjPoint(C.apply(p.lift).times(sampling.random_quaternion(rng)),
                                p.kind) for p in cfg.points]
    return gram.gram_of(cfg.space, pts)


def congruence_cases(rng: np.random.Generator, copies: int) -> list[Case]:
    cases = []
    for _ in range(copies):
        for (n, m, i), (npos, nneg) in CONGRUENCE_MIX.items():
            space = HermitianSpace(n)
            for k in range(npos + nneg):
                a = sampling.sample_config(space, m, i, rng, scramble_lifts=True)
                if k < npos:
                    b = _image(a, isometry.random_member(space, rng), rng)
                else:
                    b = sampling.sample_config(space, m, i, rng, scramble_lifts=True)
                cases.append(Case(f"{n},{m},{i}{'+' if k < npos else '-'}",
                                  (_dump(serialize.config_to_json(a)),
                                   _dump(serialize.config_to_json(b))), k < npos))
    return cases


def invariants_cases(rng: np.random.Generator, copies: int) -> list[Case]:
    cases = []
    for _ in range(copies):
        for (n, m, i), count in INVARIANTS_MIX.items():
            space = HermitianSpace(n)
            for _ in range(count):
                a = sampling.sample_config(space, m, i, rng, scramble_lifts=True)
                b = _image(a, isometry.random_member(space, rng), rng)
                cases.append(Case(f"{n},{m},{i}", (_dump(serialize.config_to_json(b)),), True))
    return cases


def _conjugated(space, C, X):
    return space.project_to_group(C @ X @ C.inverse())


def pair_cases(rng: np.random.Generator, copies: int) -> list[Case]:
    cases = []
    for _ in range(copies):
        for (n, kinds), (npos, nneg) in PAIR_MIX.items():
            space = HermitianSpace(n)
            for k in range(npos + nneg):
                A, B = sampling.sample_pair(space, rng, kinds)
                C = isometry.random_member(space, rng)
                A2 = _conjugated(space, C, A.matrix)
                if k < npos:
                    B2 = _conjugated(space, C, B.matrix)
                else:  # B moved by C D, A by C alone
                    D = isometry.random_member(space, rng)
                    B2 = _conjugated(space, C @ D, B.matrix)
                docs = tuple(_dump({"A": serialize.hmatrix_to_json(x),
                                    "B": serialize.hmatrix_to_json(y)})
                             for x, y in ((A.matrix, B.matrix), (A2, B2)))
                name = "".join(c.value[0] for c in kinds)
                cases.append(Case(f"{n},{name}{'+' if k < npos else '-'}", docs, k < npos))
    return cases


def congruence_op(case: Case) -> str:
    a = serialize.config_from_json(json.loads(case.docs[0]))
    b = serialize.config_from_json(json.loads(case.docs[1]))
    return _dump(serialize.decision_to_json(gram.congruent(a, b, 1e-7)))


def invariants_op(case: Case) -> str:
    cfg = serialize.config_from_json(json.loads(case.docs[0]))
    prof = invariants.profile(cfg)
    rebuilt = gram.reconstruct_gram(prof)
    return _dump({"profile": serialize.profile_to_json(prof),
                  "gram": [[serialize.quaternion_to_json(q) for q in row]
                           for row in rebuilt.entries]})


def _pair_of(text: str):
    doc = json.loads(text)
    return serialize.isometry_from_json(doc["A"]), serialize.isometry_from_json(doc["B"])


def pair_op(case: Case) -> str:
    A, B = _pair_of(case.docs[0])
    A2, B2 = _pair_of(case.docs[1])
    return _dump(serialize.decision_to_json(pairs.pair_conjugate(A, B, A2, B2, 1e-7)))


def congruence_check(case: Case, out: str):
    return checks.check_congruence(json.loads(case.docs[0]), json.loads(case.docs[1]),
                                   json.loads(out), case.positive)


def invariants_check(case: Case, out: str):
    return checks.check_invariants(json.loads(case.docs[0]), json.loads(out))


def pair_check(case: Case, out: str):
    return checks.check_pair(json.loads(case.docs[0]), json.loads(case.docs[1]),
                             json.loads(out), case.positive)


@dataclass(frozen=True)
class Workload:
    make: object
    op: object
    check: object


WORKLOADS = {
    "congruence": Workload(congruence_cases, congruence_op, congruence_check),
    "invariants": Workload(invariants_cases, invariants_op, invariants_check),
    "pair_conjugacy": Workload(pair_cases, pair_op, pair_check),
}


def make_cases(name: str, seed: int, copies: int = COPIES) -> list[Case]:
    """The round of one workload: same seed, same documents, same order."""
    rng = np.random.default_rng(seed)
    cases = WORKLOADS[name].make(rng, copies)
    order = rng.permutation(len(cases))
    return [cases[k] for k in order]
