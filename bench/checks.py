"""Output checks that share no code with qhyp.

Quaternions are numpy arrays whose last axis holds (a0, a1, a2, a3); a
vector of N quaternions has shape (N, 4) and a matrix (N, N, 4).  The
Hermitian form is the corner form of signature (n, 1), <z, w> = w* H z,
the convention of the documented wire format.  Every check reads only the
wire documents (input and result JSON), never qhyp objects.

Each check returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: relative residual allowed for a witness (membership and point mapping)
WITNESS_TOL = 1e-7
#: relative gap between two invariants that certifies inputs are separated
SEPARATION_GAP = 1e-4
#: relative agreement required between a profile field and its recomputation
FIELD_TOL = 1e-8
#: relative agreement required between classes from the rebuilt Gram matrix
GRAM_CLASS_TOL = 1e-7


# ---------------------------------------------------------------------------
# Quaternion arithmetic
# ---------------------------------------------------------------------------

def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcast over leading axes."""
    a0, a1, a2, a3 = np.moveaxis(a, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(b, -1, 0)
    return np.stack([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0], axis=-1)


def qconj(a: np.ndarray) -> np.ndarray:
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def qinv(a: np.ndarray) -> np.ndarray:
    return qconj(a) / np.sum(a * a, axis=-1, keepdims=True)


def qabs(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(N, K, 4) @ (K, M, 4) -> (N, M, 4); also (N, K, 4) @ (K, 4) -> (N, 4)."""
    if B.ndim == 2:
        return qmul(A, B[None, :, :]).sum(axis=1)
    return qmul(A[:, :, None, :], B[None, :, :, :]).sum(axis=1)


def star(A: np.ndarray) -> np.ndarray:
    return qconj(A).transpose(1, 0, 2)


def frob(A: np.ndarray) -> float:
    return float(np.sqrt(np.sum(A * A)))


def corner_form(N: int) -> np.ndarray:
    """Quaternionic (N, N, 4) matrix of the real corner form."""
    H = np.zeros((N, N, 4))
    H[0, N - 1, 0] = H[N - 1, 0, 0] = 1.0
    for k in range(1, N - 1):
        H[k, k, 0] = 1.0
    return H


def gram(lifts: np.ndarray) -> np.ndarray:
    """G[a, b] = <p_a, p_b> = p_b* H p_a for lifts of shape (m, N, 4)."""
    N = lifts.shape[1]
    Hp = np.stack([matmul(corner_form(N), p) for p in lifts])  # H p_a
    return qmul(qconj(lifts)[None, :, :, :], Hp[:, None, :, :]).sum(axis=2)


# ---------------------------------------------------------------------------
# Lift-independent invariants
# ---------------------------------------------------------------------------

def cross_ratio(G: np.ndarray, z1, z2, z3, z4) -> np.ndarray:
    """<z3,z1> <z3,z2>^-1 <z4,z2> <z4,z1>^-1 from G[a, b] = <p_a, p_b>.

    The indices may be integer arrays, giving one cross ratio per entry.
    """
    x = qmul(G[z3, z1], qinv(G[z3, z2]))
    x = qmul(x, G[z4, z2])
    return qmul(x, qinv(G[z4, z1]))


def similarity_class(x: np.ndarray) -> np.ndarray:
    """(real part, modulus) along the last axis: unchanged by rescaling any
    of the four lifts."""
    return np.stack([x[..., 0], qabs(x)], axis=-1)


def distance_invariant(G: np.ndarray, a: int, b: int) -> float:
    return float(np.sum(G[a, b] ** 2) / (G[a, a, 0] * G[b, b, 0]))


def angular_invariant(G: np.ndarray, a: int, b: int, c: int) -> float:
    """arccos(-Re T / |T|) for T = <a,b> <c,a> <b,c>.

    In this order each rescaling p -> p*lam meets lam next to conj(lam) or
    conjugates T as a whole, so the angle does not depend on the lifts.
    """
    t = qmul(qmul(G[a, b], G[c, a]), G[b, c])
    return math.acos(max(-1.0, min(1.0, -float(t[0]) / float(qabs(t)))))


def quadruples(m: int) -> np.ndarray:
    """Every 4-subset in two orders, so both cross-ratio pairings are seen;
    one row (z1, z2, z3, z4) each."""
    out = []
    for a, b, c, d in itertools.combinations(range(m), 4):
        out.append((a, b, c, d))
        out.append((a, c, b, d))
    return np.array(out)


def config_invariants(G: np.ndarray, i: int) -> list[float]:
    """Cross-ratio classes of all quadruples and distance invariants of all
    negative pairs (points i.. are negative), in a fixed order."""
    m = G.shape[0]
    q = quadruples(m).T
    out = similarity_class(cross_ratio(G, *q)).ravel().tolist()
    for a, b in itertools.combinations(range(i, m), 2):
        out.append(distance_invariant(G, a, b))
    return out


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def separated(inv_a: list[float], inv_b: list[float]) -> bool:
    return not all(_close(x, y, SEPARATION_GAP) for x, y in zip(inv_a, inv_b))


# ---------------------------------------------------------------------------
# Wire-format decoding
# ---------------------------------------------------------------------------

def lifts_of(config_doc: dict) -> np.ndarray:
    return np.array(config_doc["points"], dtype=float)


def matrix_of(matrix_doc: dict) -> np.ndarray:
    return np.array(matrix_doc["rows"], dtype=float)


def member_residual(W: np.ndarray) -> float:
    H = corner_form(W.shape[0])
    return frob(matmul(star(W), matmul(H, W)) - H) / max(1.0, frob(W) ** 2)


def projective_residual(u: np.ndarray, v: np.ndarray) -> float:
    """Relative distance from u to the quaternionic line through v."""
    lam = qmul(qconj(v), u).sum(axis=0) / np.sum(v * v)
    return frob(u - qmul(v, lam[None, :])) / max(frob(u), 1e-300)


# ---------------------------------------------------------------------------
# Checks, one per workload
# ---------------------------------------------------------------------------

def check_congruence(doc_a: dict, doc_b: dict, result: dict,
                     positive: bool) -> str | None:
    verdict = result.get("verdict")
    lifts_a, lifts_b = lifts_of(doc_a), lifts_of(doc_b)
    if positive:
        if verdict != "congruent":
            return f"congruent input decided {verdict}"
        W = matrix_of(result["witness"])
        r = member_residual(W)
        if not r <= WITNESS_TOL:
            return f"witness off the group (residual {r:.2e})"
        for k, (pa, pb) in enumerate(zip(lifts_a, lifts_b)):
            r = projective_residual(matmul(W, pa), pb)
            if not r <= WITNESS_TOL:
                return f"witness misses point {k + 1} (residual {r:.2e})"
        return None
    i = int(doc_a["i"])
    if not separated(config_invariants(gram(lifts_a), i),
                     config_invariants(gram(lifts_b), i)):
        return "negative input not certified by invariants"
    if verdict != "not_congruent":
        return f"separated input decided {verdict}"
    return None


def _inverse_member(A: np.ndarray) -> np.ndarray:
    H = corner_form(A.shape[0])
    return matmul(H, matmul(star(A), H))


def word_traces(A: np.ndarray, B: np.ndarray) -> list[float]:
    """Re tr of AB, AB^-1 and A^2 B: unchanged by simultaneous conjugation."""
    Bi = _inverse_member(B)
    words = [matmul(A, B), matmul(A, Bi), matmul(A, matmul(A, B))]
    return [float(np.trace(w[:, :, 0])) for w in words]


def check_pair(doc_p: dict, doc_q: dict, result: dict,
               positive: bool) -> str | None:
    verdict = result.get("verdict")
    A, B = matrix_of(doc_p["A"]), matrix_of(doc_p["B"])
    A2, B2 = matrix_of(doc_q["A"]), matrix_of(doc_q["B"])
    if positive:
        if verdict != "conjugate":
            return f"conjugate input decided {verdict}"
        W = matrix_of(result["witness"])
        r = member_residual(W)
        if not r <= WITNESS_TOL:
            return f"witness off the group (residual {r:.2e})"
        for name, X, X2 in (("A", A, A2), ("B", B, B2)):
            r = frob(matmul(W, X) - matmul(X2, W)) / (frob(W) * max(1.0, frob(X)))
            if not r <= WITNESS_TOL:
                return f"witness does not conjugate {name} (residual {r:.2e})"
        return None
    if not separated(word_traces(A, B), word_traces(A2, B2)):
        return "negative input not certified by word traces"
    if verdict != "not_conjugate":
        return f"separated input decided {verdict}"
    return None


def slot_points(family: str, row: int, col: int) -> tuple[int, int, int, int]:
    """0-based quadruple (z1, z2, z3, z4) of a cross-ratio slot, as the
    profile format documents it: X1 = X(p2, p1, p3, pj), X2 = X(p1, p2, p3,
    pj), X3 = X(p1, p3, p2, pj), Xk = X(p1, pk, p2, pj)."""
    j = col - 1
    return {"X1": (1, 0, 2, j), "X2": (0, 1, 2, j),
            "X3": (0, 2, 1, j)}.get(family, (0, row - 1, 1, j))


def check_invariants(doc: dict, result: dict) -> str | None:
    prof = result["profile"]
    G = gram(lifts_of(doc))
    m, i = G.shape[0], int(doc["i"])
    if (prof["m"], prof["i"]) != (m, i):
        return "profile shape differs from the input"
    if not _close(prof["a23"], angular_invariant(G, 0, 1, 2), FIELD_TOL):
        return "a23 differs from the angular invariant of p1, p2, p3"
    for s in prof["pair_slots"]:
        d = distance_invariant(G, s["i1"] - 1, s["j1"] - 1)
        if not _close(s["d"], d, FIELD_TOL):
            return f"distance invariant d_{s['i1']}{s['j1']} differs"
    for s in prof["x_slots"]:
        want = similarity_class(cross_ratio(G, *slot_points(s["family"], s["row"], s["col"])))
        got = similarity_class(np.array(s["value"], dtype=float))
        if not all(_close(g, w, FIELD_TOL) for g, w in zip(got, want)):
            return f"cross-ratio slot {s['family']}({s['row']},{s['col']}) differs"
    # the rebuilt matrix holds g[k][j] = <p_j, p_k>; transpose to G[a, b]
    rebuilt = np.array(result["gram"], dtype=float).transpose(1, 0, 2)
    want = config_invariants(G, i)
    got = config_invariants(rebuilt, i)
    if not all(_close(g, w, GRAM_CLASS_TOL) for g, w in zip(got, want)):
        return "rebuilt Gram matrix gives other cross-ratio classes"
    return None
