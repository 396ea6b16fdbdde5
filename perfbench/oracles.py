"""Reference values for the benchmark's output checks.

Everything here is plain numpy written from first principles (pure-state
ensembles, reshapes, Shannon sums and closed forms), so a check cannot
share a bug with the entlab code path it checks.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

EIG_FLOOR = 1e-12


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def shannon(probs) -> float:
    p = np.asarray(probs, dtype=float).reshape(-1)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def entropy(mat: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > EIG_FLOOR]
    return float(max(0.0, -np.sum(lam * np.log2(lam))))


def plus_vector(n: int) -> np.ndarray:
    return np.full(2**n, 2.0 ** (-n / 2), dtype=complex)


def ensemble(kraus, psi: np.ndarray) -> np.ndarray:
    """Rows K_k |psi>: the unnormalized pure members of the channel output."""
    return np.stack([np.asarray(k) @ psi for k in kraus])


def marginal(vectors: np.ndarray, n: int, keep) -> np.ndarray:
    """sum_k tr_rest |v_k><v_k| for rows v_k; qubit 0 is the most significant."""
    vecs = np.atleast_2d(vectors)
    keep = sorted(keep)
    rest = [q for q in range(n) if q not in keep]
    t = vecs.reshape((vecs.shape[0],) + (2,) * n)
    t = t.transpose([0] + [1 + q for q in keep] + [1 + q for q in rest])
    t = t.reshape(vecs.shape[0], 2 ** len(keep), 2 ** len(rest))
    return np.einsum("kab,kcb->ac", t, t.conj())


def subset_entropy(vectors: np.ndarray, n: int, keep) -> float:
    if not keep:
        return 0.0
    return entropy(marginal(vectors, n, keep))


def output_entropy(vectors: np.ndarray) -> float:
    """Entropy of sum_k |v_k><v_k| from the smaller of its two Gram forms."""
    vecs = np.atleast_2d(vectors)
    if vecs.shape[0] <= vecs.shape[1]:
        return entropy(vecs.conj() @ vecs.T)
    return entropy(vecs.T @ vecs.conj())


def env_information(vectors: np.ndarray, n: int, keep) -> float:
    """I(A : environment) = S(A) + S(out) - S(rest) of a pure-input dilation."""
    rest = [q for q in range(n) if q not in keep]
    value = (
        subset_entropy(vectors, n, keep)
        + output_entropy(vectors)
        - subset_entropy(vectors, n, rest)
    )
    return max(0.0, value)


def mutual_information(vectors: np.ndarray, n: int, a: int, b: int) -> float:
    return (
        subset_entropy(vectors, n, [a])
        + subset_entropy(vectors, n, [b])
        - subset_entropy(vectors, n, [a, b])
    )


def verdict(excess: float, term: float, reference: float, level: float) -> str:
    """The relation rule: vacuous when both sides vanish, else compare."""
    vanish = 1e-9
    if excess < vanish and (term < vanish or reference < vanish):
        return "vacuous"
    return "satisfied" if excess >= level * reference * term - 1e-12 else "violated"


def flip_pattern_distribution(n: int, p1: float, p2: float) -> np.ndarray:
    """P(flip pattern) of the burst mixture with moments (p1, p2), 2^n entries."""
    burst = p1 * p1 / p2
    hit = p2 / p1
    probs = np.zeros(2**n)
    for index, bits in enumerate(product((0, 1), repeat=n)):
        w = sum(bits)
        probs[index] = burst * hit**w * (1.0 - hit) ** (n - w)
    probs[0] += 1.0 - burst
    return probs


def pattern_marginal(probs: np.ndarray, n: int, keep) -> np.ndarray:
    keep = sorted(keep)
    rest = tuple(q for q in range(n) if q not in keep)
    return probs.reshape((2,) * n).sum(axis=rest).reshape(-1)


def classical_env_information(probs: np.ndarray, n: int, keep) -> float:
    rest = [q for q in range(n) if q not in keep]
    s_rest = shannon(pattern_marginal(probs, n, rest)) if rest else 0.0
    return shannon(pattern_marginal(probs, n, keep)) + shannon(probs) - s_rest


def defect_bounds(vectors: np.ndarray, n: int) -> tuple[float, float]:
    """Bounds on total_defect at truncation 3 of a pure n-qubit state (n > 3).

    Pair defects equal the mutual information. A triple's defect is at
    least 0 and at most S(a) + S(b) + S(c) - S(abc), the gap to the
    product of its single-qubit marginals.
    """
    singles = [subset_entropy(vectors, n, [q]) for q in range(n)]
    pairs = sum(
        singles[a] + singles[b] - subset_entropy(vectors, n, [a, b])
        for a, b in combinations(range(n), 2)
    )
    triples = sum(
        singles[a] + singles[b] + singles[c] - subset_entropy(vectors, n, [a, b, c])
        for a, b, c in combinations(range(n), 3)
    )
    return pairs, pairs + triples


def binom_sf(k: int, n: int, p: float) -> float:
    from scipy.stats import binom

    return float(binom.sf(k, n, p))
