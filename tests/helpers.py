"""Shared oracles and random generators for the test suite.

The oracles are written from first principles (direct index sums, explicit
dilation vectors, scipy special functions) so they cannot share a bug with
the library paths they check.
"""
from __future__ import annotations

import itertools
import os
from math import lgamma, log, log1p
from pathlib import Path

import numpy as np
from scipy.special import xlogy

import entlab
from entlab.channels import (
    build_cluster_noise,
    build_correlated_flip,
    build_depolarizing,
    build_dephasing,
    build_pairwise_correlated,
    build_random_unitary_noise,
)
from entlab.optim import _align_pair_phase
from entlab.states import EIGENVALUE_CLIP, marginal_matrix

LOG2 = np.log(2.0)

# one channel from each builder, on one to four qubits
BUILT_CHANNELS = [
    build_depolarizing(0.3),
    build_dephasing(0.4),
    build_correlated_flip(0.2, "ZZ"),
    build_pairwise_correlated(3, 1e-3, 2e-5),
    build_random_unitary_noise(3, 0.7, seed=5),
    build_cluster_noise(4, [(0, 1), (1, 2), (2, 3)], 0.3, seed=9),
]

# environment for a CLI child process: it imports the same entlab as the
# test process, installed or from the checkout's src/
_PATH = [str(Path(entlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, _PATH)))


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure(rng, n: int) -> np.ndarray:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_density(rng, n: int, rank: int | None = None) -> np.ndarray:
    """Ginibre-induced random density matrix, optionally rank limited."""
    d = 2**n
    r = d if rank is None else rank
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def bit(index: int, q: int, n: int) -> int:
    # qubit 0 is the most significant bit
    return (index >> (n - 1 - q)) & 1


def partial_trace_oracle(mat: np.ndarray, n: int, keep) -> np.ndarray:
    """Direct double sum over basis indices, no reshape tricks."""
    keep = tuple(sorted(keep))
    comp = [q for q in range(n) if q not in keep]
    da = 2 ** len(keep)
    out = np.zeros((da, da), dtype=complex)

    def sub(index, qubits):
        val = 0
        for q in qubits:
            val = (val << 1) | bit(index, q, n)
        return val

    for i in range(2**n):
        for j in range(2**n):
            if all(bit(i, q, n) == bit(j, q, n) for q in comp):
                out[sub(i, keep), sub(j, keep)] += mat[i, j]
    return out


def padded_operator_oracle(op: np.ndarray, positions, n: int) -> np.ndarray:
    """``op`` on the qubits ``positions`` (increasing, in its tensor order)
    and identity on the rest, entry by entry over basis indices."""
    rest = [q for q in range(n) if q not in positions]
    out = np.zeros((2**n, 2**n), dtype=complex)

    def sub(index):
        val = 0
        for q in positions:
            val = (val << 1) | bit(index, q, n)
        return val

    for i in range(2**n):
        for j in range(2**n):
            if all(bit(i, q, n) == bit(j, q, n) for q in rest):
                out[i, j] = op[sub(i), sub(j)]
    return out


def embed_operator(op: np.ndarray, positions, n: int) -> np.ndarray:
    """``op`` on the qubits ``positions`` (increasing, in its tensor order)
    and identity on the rest, by one Kronecker product with the identity
    and one axis permutation. Works for any square operator (Kraus
    factors, Hermitian multipliers, unitaries)."""
    positions = tuple(int(q) for q in positions)
    k = len(positions)
    op = np.asarray(op, dtype=complex)
    assert op.shape == (2**k, 2**k)
    rest = [q for q in range(n) if q not in positions]
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    # tensor factors now run positions then rest; undo that permutation
    inv = np.argsort(list(positions) + rest)
    t = full.reshape((2,) * (2 * n))
    return t.transpose(list(inv) + [n + int(i) for i in inv]).reshape(2**n, 2**n)


def random_kraus(rng, n: int, k: int) -> list:
    """k operators on n qubits cut from a random isometry of C^(2^n) into
    C^(k 2^n), so that sum_k K^dagger K = I."""
    d = 2**n
    g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    iso = np.linalg.qr(g)[0]
    return [iso[i * d : (i + 1) * d] for i in range(k)]


def entropy_oracle(mat: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > 1e-12]
    return float(-np.sum(xlogy(lam, lam)) / LOG2)


def reference_entropy(mat: np.ndarray) -> float:
    """``states.von_neumann_entropy`` as first written: a fresh eigvalsh of
    the matrix, not the spectrum the constructor keeps. It must match
    bitwise."""
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > EIGENVALUE_CLIP]
    if lam.size == 0:
        return 0.0
    return float(max(0.0, -np.sum(lam * np.log2(lam))))


PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli_string(letters: str) -> np.ndarray:
    """Pauli string as the n-step kron chain of its 2x2 letters."""
    mat = np.array([[1.0]], dtype=complex)
    for ch in letters:
        mat = np.kron(mat, PAULI_2X2[ch])
    return mat


def kron_pairwise_kraus(n: int, p1: float, p2: float, basis: str) -> list:
    """Kraus operators of ``build_pairwise_correlated`` built as it first
    was: a kron chain per flip pattern, with the pattern's weight
    multiplied qubit by qubit. Its operators must match them exactly."""
    h = p2 / p1
    pi = p1 * p1 / p2
    weighted = [(1.0 - pi, np.eye(2**n, dtype=complex))]
    for pattern in itertools.product((0, 1), repeat=n):
        w = pi
        for bit in pattern:
            w *= h if bit else (1.0 - h)
        letters = "".join(basis if bit else "I" for bit in pattern)
        weighted.append((w, kron_pauli_string(letters)))
    return [np.sqrt(w) * op for w, op in weighted if w > 0.0]


# Channel builders as they were written one operator at a time: a list of
# (weight, operator) pairs, each operator formed on its own, then sqrt(w) K
# for the positive weights. The vectorized builders must give the same
# operators, byte for byte, in the same order.


def _weighted_kraus(weighted) -> list:
    return [np.sqrt(w) * op for w, op in weighted if w > 0.0]


def reference_pauli_from_masks(n: int, x_mask: int, z_mask: int) -> np.ndarray:
    """One Pauli string from its masks (bit n-1-q for qubit q): the entry of
    row r sits in column r ^ x_mask and is (-i)^#Y (-1)^|r & z_mask|, the
    phase a Python float when #Y is even."""
    d = 2**n
    rows = np.arange(d)
    odd = np.zeros(d, dtype=bool)
    for b in range(n):
        if z_mask >> b & 1:
            odd ^= (rows >> b & 1).astype(bool)
    phase = (1.0, -1j, -1.0, 1j)[bin(x_mask & z_mask).count("1") % 4]
    mat = np.zeros((d, d), dtype=complex)
    mat[rows, rows ^ x_mask] = np.where(odd, -phase, phase)
    return mat


def reference_pauli_string(letters: str) -> np.ndarray:
    x_mask = z_mask = 0
    for ch in letters:
        x_mask = 2 * x_mask + (ch in "XY")
        z_mask = 2 * z_mask + (ch in "YZ")
    return reference_pauli_from_masks(len(letters), x_mask, z_mask)


def reference_pairwise_kraus(n: int, p1: float, p2: float, basis: str) -> list:
    eye = np.eye(2**n, dtype=complex)
    if p1 == 0.0 or p2 == 0.0:
        return [eye]
    h = p2 / p1
    pi = p1 * p1 / p2
    x_on, z_on = basis in "XY", basis in "YZ"
    weighted = [(1.0 - pi, eye)]
    for mask in range(2**n):
        w = pi
        for q in range(n):
            w *= h if mask >> (n - 1 - q) & 1 else (1.0 - h)
        weighted.append((w, reference_pauli_from_masks(n, mask * x_on, mask * z_on)))
    return _weighted_kraus(weighted)


def reference_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """QR of one Ginibre matrix, real part drawn first, with the phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phase = np.diag(r).copy()
    phase /= np.abs(phase)
    return q * phase


def reference_cluster_kraus(n: int, edges, eps: float, seed: int) -> list:
    rng = np.random.default_rng(seed)
    layers = []
    for _layer in range(2):
        u = reference_haar_unitary(2, rng)
        for _q in range(1, n):
            u = np.kron(u, reference_haar_unitary(2, rng))
        layers.append(u)
    pre, post = layers
    cz_diag = np.ones(2**n, dtype=complex)
    for i, j in edges:
        for r in range(2**n):
            if bit(r, i, n) and bit(r, j, n):
                cz_diag[r] *= -1.0
    u = post @ (cz_diag[:, None] * pre)
    return _weighted_kraus([(1.0 - eps, np.eye(2**n, dtype=complex)), (eps, u)])


def reference_correlated_flip_kraus(eps: float, letters: str) -> list:
    eye = np.eye(2 ** len(letters), dtype=complex)
    return _weighted_kraus([(1.0 - eps, eye), (eps, reference_pauli_string(letters))])


def reference_depolarizing_kraus(p: float) -> list:
    return _weighted_kraus([(1.0 - p, PAULI_2X2["I"])] + [(p / 3.0, PAULI_2X2[c]) for c in "XYZ"])


def reference_dephasing_kraus(eps: float) -> list:
    return _weighted_kraus([(1.0 - eps / 2.0, PAULI_2X2["I"]), (eps / 2.0, PAULI_2X2["Z"])])


def reference_pauli_basis(m: int, keys) -> tuple:
    """The dual's Pauli strings as ``optim._pauli_basis`` lists them, one
    string at a time: the full-register stack and, per key, its own new
    strings on the key's qubits."""
    strings, locals_, seen = [], [], set()
    for k in keys:
        s = len(k)
        spread = [sum(1 << (m - 1 - k[j]) for j in range(s) if local >> (s - 1 - j) & 1)
                  for local in range(2**s)]
        local = []
        for x in range(2**s):
            for z in range(2**s):
                full = (spread[x], spread[z])
                if (x or z) and full not in seen:
                    seen.add(full)
                    strings.append(full)
                    local.append(reference_pauli_from_masks(s, x, z))
        locals_.append(np.array(local).reshape(-1, 2**s, 2**s))
    return np.array([reference_pauli_from_masks(m, *full) for full in strings]), locals_


def _lift_masks(masks: np.ndarray, pos, n: int) -> np.ndarray:
    """A stage's masks (bit k-1-j for its j-th position) as n-qubit masks."""
    out = np.zeros_like(masks)
    for j, q in enumerate(pos):
        out |= (masks >> (len(pos) - 1 - j) & 1) << (n - 1 - q)
    return out


def reference_flip_law(stages, n: int) -> np.ndarray:
    """The Z/Y flip-pattern law of table stages on |+>^n as it was first
    read: stage 0's z masks lifted to n bits and binned, then every later
    stage's lifted law XOR-convolved in by one gather per support point, in
    ascending order of the point."""
    index = np.arange(2**n)
    p = (index == 0).astype(float)
    for i, (table, pos) in enumerate(stages):
        law = np.bincount(_lift_masks(table["z"], pos, n), weights=table["w"], minlength=2**n)
        p = law if i == 0 else sum(law[f] * p[index ^ f] for f in np.flatnonzero(law))
    return p


def reference_table_twirl(channel) -> np.ndarray:
    """The twirl of tables on disjoint positions as it was first read: each
    product string's weight, the product of its factors' weights in stage
    order, binned at its base-4 index, whose digit per qubit is
    2 z + (x xor z) (bit b of a mask moved to bit 2b)."""
    n, where = channel.n, {q: i for i, q in enumerate(channel.qubits)}
    x = z = np.zeros(1, dtype=np.intp)
    w = np.ones(1)
    for table, pos in channel.stages:
        pos = [where[q] for q in pos]
        x = (x[:, None] | _lift_masks(table["x"], pos, n)).reshape(-1)
        z = (z[:, None] | _lift_masks(table["z"], pos, n)).reshape(-1)
        w = (w[:, None] * table["w"]).reshape(-1)

    def spread(masks):
        return sum((masks >> b & 1) << 2 * b for b in range(n))

    return np.bincount(spread(z) << 1 | spread(x ^ z), w, 4**n)


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-(xlogy(p, p) + xlogy(1 - p, 1 - p)) / LOG2)


def env_mutual_info_oracle(kraus_ops, psi: np.ndarray, n: int, keep) -> float:
    """I(subset : environment) from the explicit dilation vector.

    Builds |Phi> = sum_k (K_k |psi>) x |k>_E and diagonalizes the three
    reduced states directly. Pure inputs only.
    """
    cols = np.stack([np.asarray(k) @ psi for k in kraus_ops], axis=1)
    ne = cols.shape[1]
    keep = tuple(sorted(keep))
    comp = tuple(q for q in range(n) if q not in keep)
    da = 2 ** len(keep)
    t = cols.reshape((2,) * n + (ne,))
    m = np.transpose(t, keep + comp + (n,)).reshape(da, -1, ne)
    rho_a = np.einsum("ace,bce->ab", m, m.conj())
    rho_e = np.einsum("ace,acf->ef", m, m.conj())
    rho_ae = np.einsum("ace,bcf->aebf", m, m.conj()).reshape(da * ne, da * ne)
    return entropy_oracle(rho_a) + entropy_oracle(rho_e) - entropy_oracle(rho_ae)


def reference_dual(m: int, keys, targets):
    """The max-entropy dual in matrix multipliers: one embed_operator lift
    and one marginal_matrix reduction per constraint, in key order.

    Returns x -> (value, gradient) with x laid out as Re then Im of each
    key's multiplier block.
    """
    d = 2**m
    sizes = [2 ** len(k) for k in keys]
    offsets = np.cumsum([0] + [2 * s * s for s in sizes])

    def dual(x):
        lams = []
        for i in range(len(keys)):
            s = sizes[i]
            chunk = x[offsets[i] : offsets[i + 1]]
            mat = chunk[: s * s].reshape(s, s) + 1j * chunk[s * s :].reshape(s, s)
            lams.append((mat + mat.conj().T) / 2.0)
        h = np.zeros((d, d), dtype=complex)
        for lam, k in zip(lams, keys):
            h += embed_operator(lam, k, m)
        w, vecs = np.linalg.eigh(h)
        wmax = float(w[-1])
        z = np.exp(w - wmax)
        val = wmax + float(np.log(z.sum()))
        sigma = (vecs * (z / z.sum())) @ vecs.conj().T
        grad = np.zeros_like(x)
        for i, (lam, k) in enumerate(zip(lams, keys)):
            val -= float(np.real(np.trace(lam @ targets[i])))
            g = marginal_matrix(sigma, m, k) - targets[i]
            s = sizes[i]
            grad[offsets[i] : offsets[i] + s * s] = np.real(g).reshape(-1)
            grad[offsets[i] + s * s : offsets[i + 1]] = np.imag(g).reshape(-1)
        return val, grad

    return dual


def reference_max_entropy(m: int, keys, targets) -> float:
    """Max entropy in bits under the marginal targets, by L-BFGS-B on
    ``reference_dual`` from zero multipliers, as the solver once ran.

    Meant for full-rank targets, where the maximum is attained inside the
    state space and the quasi-Newton ascent converges.
    """
    from scipy.optimize import minimize

    size = sum(2 * 4 ** len(k) for k in keys)
    res = minimize(
        reference_dual(m, keys, targets), np.zeros(size), jac=True, method="L-BFGS-B",
        options={"maxiter": 10000, "maxfun": 100000, "gtol": 1e-10, "ftol": 1e-15},
    )
    return float(res.fun) / LOG2


def reference_dual_derivatives(stack, t, w, v, p):
    """Gradient and Hessian of the Pauli-basis dual, as the Newton solver
    first formed them from the dense (K, d, d) string stack: A_P = V^dag P V
    by two batched products, <P> = sum_i p_i A_P[i, i], and the Kubo-Mori
    covariance sum_ij A_P[i, j] D_ij A_Q[j, i] - <P><Q> with D the divided
    differences of p over w."""
    a = v.conj().T @ stack @ v
    means = np.einsum("kii,i->k", a, p).real
    gap = np.abs(w[:, None] - w[None, :])
    ratio = np.divide(-np.expm1(-gap), gap, out=np.ones_like(gap), where=gap > 0.0)
    d = np.maximum(p[:, None], p[None, :]) * ratio
    k = len(stack)
    hess = (a * d).view(np.float64).reshape(k, -1) @ a.view(np.float64).reshape(k, -1).T
    return means - t, hess - np.outer(means, means)


def reference_newton_direction(grad, hess):
    """-H^-1 g by the Cholesky factor of H + 1e-12 tr(H) I and two solves,
    or by least squares on H if that factorization fails."""
    shifted = hess + 1e-12 * np.trace(hess) * np.eye(len(hess))
    try:
        low = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(hess, -grad, rcond=None)[0]
    return np.linalg.solve(low.T, np.linalg.solve(low, -grad))


def ipf_max_entropy(probs: np.ndarray, n: int, keys, cycles: int = 2000) -> float:
    """Max Shannon entropy in bits of an n-bit distribution with the
    marginals of ``probs`` on each key, by iterative proportional fitting
    (Darroch and Ratcliff, Ann. Math. Stat. 43, 1470 (1972)) from uniform.

    ``probs`` is indexed by bit strings, bit 0 most significant.
    """
    target = probs.reshape((2,) * n)
    fit = np.full((2,) * n, 1.0 / 2**n)
    for _ in range(cycles):
        for key in keys:
            rest = tuple(q for q in range(n) if q not in key)
            want = target.sum(axis=rest, keepdims=True)
            have = fit.sum(axis=rest, keepdims=True)
            fit = fit * np.divide(want, have, out=np.zeros_like(want), where=have > 0)
    return float(-xlogy(fit, fit).sum()) / LOG2


# The pair-rotation search as first written, one pair at a time, walking
# each sweep's pairs in round-robin order, with the pair objective's
# candidates scored from per-pair 2x2 Grams. ``optim``'s grid plan, stacked
# member values, passed-through values, batched Gram scoring and batched
# stages must reproduce it bitwise.


def _reference_xlog2x(x):
    out = np.zeros_like(x)
    mask = x > EIGENVALUE_CLIP
    out[mask] = x[mask] * np.log2(x[mask])
    return out


def reference_marginal_mass(top, bot, off_sq):
    """2 * tr M * S(M / tr M) of the 2x2 Grams M with diagonal (top, bot)
    and |M_01|^2 = off_sq, from the closed-form eigenvalues."""
    trace = top + bot
    disc = np.sqrt(np.clip((top - bot) ** 2 + 4.0 * off_sq, 0.0, None))
    lam_hi = np.clip((trace + disc) / 2.0, 0.0, None)
    lam_lo = np.clip((trace - disc) / 2.0, 0.0, None)
    return 2.0 * (
        _reference_xlog2x(trace) - _reference_xlog2x(lam_hi) - _reference_xlog2x(lam_lo)
    )


def reference_pair_member_values(vectors):
    """2 * norm^2 * S(tr_b) of unnormalized 2-qubit rows, three row einsums."""
    r = vectors.reshape(-1, 2, 2)
    top = np.einsum("bj,bj->b", r[:, 0, :], r[:, 0, :].conj()).real
    bot = np.einsum("bj,bj->b", r[:, 1, :], r[:, 1, :].conj()).real
    off = np.einsum("bj,bj->b", r[:, 0, :], r[:, 1, :].conj())
    return reference_marginal_mass(top, bot, np.abs(off) ** 2)


def reference_pair_candidates(a, b, theta, phi):
    ca = np.cos(theta)[:, None]
    sa = np.sin(theta)
    wneg = (sa * np.exp(-1j * phi))[:, None]
    wpos = (sa * np.exp(1j * phi))[:, None]
    return ca * a[None, :] - wneg * b[None, :], wpos * a[None, :] + ca * b[None, :]


def _reference_inner(x, y):
    """sum_j x_j conj(y_j) of two complex 2-vectors, from real parts."""
    re = x.real * y.real + x.imag * y.imag
    im = x.imag * y.real - x.real * y.imag
    return complex(re[0] + re[1], im[0] + im[1])


def reference_gram_totals(a, b, theta, phi):
    """Summed pair-objective values of the two rows that
    ``reference_pair_candidates`` mixes from a and b at each angle pair,
    without forming them.

    With R_x the 2x2 reshape of row x (first qubit down the rows), the
    first row c a - s e^{-if} b has first-qubit Gram c^2 A + s^2 B
    - cs (e^{if} C^dag + e^{-if} C), A = R_a R_a^dag, B = R_b R_b^dag and
    C = R_b R_a^dag; the second row's Gram is A + B minus it. The Gram's
    parts (M_00, M_11, Re M_01, Im M_01) are one 4x4 real matrix times the
    features (c^2, s^2, cs cos f, cs sin f).
    """
    ra, rb = a.reshape(2, 2), b.reshape(2, 2)

    def gram(x, y):
        return np.array([[_reference_inner(x[i], y[k]) for k in range(2)] for i in range(2)])

    def parts(m):
        return [m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag]

    big_a, big_b, big_c = gram(ra, ra), gram(rb, rb), gram(rb, ra)
    # e^{if} C^dag + e^{-if} C = cos f (C + C^dag) + sin f (-i)(C - C^dag)
    even = big_c + big_c.conj().T
    odd = -1j * (big_c - big_c.conj().T)
    linear = np.array([parts(big_a), parts(big_b), parts(-even), parts(-odd)]).T
    c, s = np.cos(theta), np.sin(theta)
    cs = c * s
    first = linear @ np.array([c * c, s * s, cs * np.cos(phi), cs * np.sin(phi)])
    totals = 0.0
    for top, bot, re, im in (first, np.array(parts(big_a + big_b))[:, None] - first):
        totals = totals + reference_marginal_mass(top, bot, re * re + im * im)
    return totals


def reference_optimize_pair(a, b, values_fn, grid, zoom_rounds, zoom_grid):
    """Best U(2) mix of two rows by a per-pair linspace/meshgrid zoom.

    The pair objective's candidates are scored by ``reference_gram_totals``;
    any other objective's by forming both rows and valuing them.
    """
    b = _align_pair_phase(a[None], b[None])[0]
    base = float(values_fn(np.stack([a, b])).sum())
    span_t, span_f = np.pi, 2 * np.pi
    nt, nf = grid
    best_val, best_t, best_f = base, 0.0, 0.0
    for round_idx in range(zoom_rounds + 1):
        if round_idx == 0:
            ts = np.linspace(0.0, span_t, nt, endpoint=False)
            fs = np.linspace(0.0, span_f, nf, endpoint=False)
        else:
            nt, nf = zoom_grid
            ts = best_t + np.linspace(-span_t, span_t, nt)
            fs = best_f + np.linspace(-span_f, span_f, nf)
        tt, ff = np.meshgrid(ts, fs, indexing="ij")
        tt = tt.reshape(-1)
        ff = ff.reshape(-1)
        if values_fn is reference_pair_member_values:
            totals = reference_gram_totals(a, b, tt, ff)
        else:
            ca, cb = reference_pair_candidates(a, b, tt, ff)
            vals = values_fn(np.concatenate([ca, cb]))
            totals = vals[: tt.size] + vals[tt.size :]
        idx = int(np.argmax(totals))
        if totals[idx] > best_val:
            best_val = float(totals[idx])
            best_t = float(tt[idx])
            best_f = float(ff[idx])
        span_t /= max(nt // 2, 2)
        span_f /= max(nf // 2, 2)
    if best_val <= base + 1e-10:
        return 0.0, a, b
    na, nb = reference_pair_candidates(a, b, np.array([best_t]), np.array([best_f]))
    return best_val - base, na[0], nb[0]


def reference_member_values(objective):
    """Member values of unnormalized rows, one row at a time: norm^2 times
    ``objective`` of the normalized row, 0 for rows of norm^2 below 1e-14;
    None selects the two-qubit pair objective."""
    if objective is None:
        return reference_pair_member_values

    def values(vectors):
        out = np.zeros(vectors.shape[0])
        for i, vec in enumerate(vectors):
            p = float(np.real(np.vdot(vec, vec)))
            if p >= 1e-14:
                out[i] = p * float(objective(vec / np.sqrt(p)))
        return out

    return values


def round_robin_pairs(t):
    """Every pair (k, l), k < l, of t members (t even), in the circle
    method's order: t - 1 rounds, each pairing member 0 and the members on
    a ring of the rest, first with last inwards, each round's pairs sorted
    by k; the ring turns right by one between rounds."""
    ring = list(range(1, t))
    order = []
    for _ in range(t - 1):
        seats = [0] + ring
        order += sorted(tuple(sorted((seats[i], seats[t - 1 - i]))) for i in range(t // 2))
        ring = [ring[-1]] + ring[:-1]
    return order


def reference_decomposition_search(rho, objective=None, restarts=32, sweeps=60, seed=0):
    """The decomposition search run serially: one restart after another,
    one pair at a time.

    Returns (value, weights, states, diagnostics) as
    ``optim.max_avg_pure_decomposition`` does, which must match it bitwise:
    restart r climbs from its own SeedSequence child with sweeps of
    per-pair searches in round-robin order (coarse zoom while climbing,
    full depth once a sweep gains under 1e-6, stopping once a full-depth
    sweep gains under 1e-8), and the search stops after 8 restarts without
    a 1e-9 gain, no earlier than restart 7.
    """
    lam, vecs = np.linalg.eigh(rho.matrix)
    keep = lam > EIGENVALUE_CLIP
    lam = np.clip(lam[keep], 0.0, None)
    vecs = vecs[:, keep]
    rank = int(lam.size)
    t = 2 * rank
    ensemble = vecs * np.sqrt(lam)
    values_fn = reference_member_values(objective)
    if objective is None:
        grid, zoom_coarse, zoom_fine, zoom_grid = (12, 8), 2, 6, (9, 9)
    else:
        grid, zoom_coarse, zoom_fine, zoom_grid = (8, 5), 1, 3, (5, 5)

    children = np.random.SeedSequence(seed).spawn(restarts)
    best_rows = ensemble.T
    best_value = float(values_fn(best_rows)[0]) if rank == 1 else -np.inf
    restarts_run = sweeps_used = since_improved = 0
    for restart in range(restarts if rank > 1 else 0):
        rng = np.random.default_rng(children[restart])
        if restart == 0:
            iso = np.zeros((t, rank), dtype=complex)
            iso[:rank, :rank] = np.eye(rank)
        else:
            z = rng.standard_normal((t, rank)) + 1j * rng.standard_normal((t, rank))
            iso, _ = np.linalg.qr(z)
        rows = iso @ ensemble.T
        member_vals = values_fn(rows)
        polishing = False
        for _ in range(sweeps):
            sweeps_used += 1
            depth = zoom_fine if polishing else zoom_coarse
            improved = 0.0
            for k, l in round_robin_pairs(t):
                if (
                    np.real(np.vdot(rows[k], rows[k]))
                    + np.real(np.vdot(rows[l], rows[l]))
                ) < 1e-14:
                    continue
                gain, na, nb = reference_optimize_pair(
                    rows[k], rows[l], values_fn, grid, depth, zoom_grid
                )
                if gain > 0.0:
                    rows[k], rows[l] = na, nb
                    member_vals[[k, l]] = values_fn(np.stack([na, nb]))
                    improved += gain
            if polishing:
                if improved < 1e-8:
                    break
            elif improved < 1e-6:
                polishing = True
        total = float(member_vals.sum())
        if total > best_value + 1e-9:
            since_improved = 0
        else:
            since_improved += 1
        if total > best_value:
            best_value = total
            best_rows = rows.copy()
        restarts_run = restart + 1
        if since_improved >= 8 and restart >= 7:
            break

    weights = np.real(np.einsum("kd,kd->k", best_rows, best_rows.conj()))
    keep_rows = weights > 1e-12
    weights = weights[keep_rows]
    states = best_rows[keep_rows] / np.sqrt(weights)[:, None]
    scaled = states * np.sqrt(weights)[:, None]
    residual = 0.5 * float(
        np.sum(np.abs(np.linalg.eigvalsh(scaled.T @ scaled.conj() - rho.matrix)))
    )
    diagnostics = {
        "restarts": restarts_run,
        "sweeps_used": sweeps_used,
        "cardinality": int(weights.size),
        "reconstruction_residual": residual,
    }
    return float(best_value), weights, states, diagnostics


def reference_binomial_tail(n: int, k: int, p: float) -> float:
    """P(Bin(n, p) > k) from lgamma at every k in k+1..n (validation left out)."""
    if k >= n:
        return 0.0
    if k < 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    ks = np.arange(k + 1, n + 1, dtype=float)
    logc = lgamma(n + 1) - np.array([lgamma(x + 1) + lgamma(n - x + 1) for x in ks])
    logs = logc + ks * log(p) + (n - ks) * log1p(-p)
    top = float(np.max(logs))
    return float(min(1.0, np.exp(top) * np.sum(np.exp(logs - top))))


# syndrome (b0 ^ b1, b1 ^ b2) -> the qubit a single flip left it on
_REPETITION_FIX = {(0, 0): None, (1, 0): 0, (1, 1): 1, (0, 1): 2}


def repetition_recovery_fidelity(eps: float, a: complex, b: complex) -> float:
    """<psi| R(N(psi)) |psi> for psi = a|000> + b|111>, in plain numpy.

    N traces out each qubit in turn and puts I/2 in its place with
    probability 1 - eps. R measures the syndrome with the projectors P_s
    onto the basis states of each parity pattern s and flips the qubit s
    points at: R(rho) = sum_s U_s P_s rho P_s U_s^dagger.
    """
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = a, b
    rho = np.outer(psi, psi.conj())
    for q in range(3):
        t = rho.reshape((2,) * 6)
        rest = np.trace(t, axis1=q, axis2=3 + q)
        mixed = np.moveaxis(np.multiply.outer(np.eye(2) / 2.0, rest), [0, 1], [q, 3 + q])
        rho = eps * rho + (1.0 - eps) * mixed.reshape(8, 8)
    bits = [[(i >> (2 - q)) & 1 for q in range(3)] for i in range(8)]
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    out = np.zeros((8, 8), dtype=complex)
    for syndrome, fix in _REPETITION_FIX.items():
        proj = np.diag([float((x[0] ^ x[1], x[1] ^ x[2]) == syndrome) for x in bits])
        u = np.eye(8, dtype=complex)
        if fix is not None:
            u = np.kron(np.kron(np.eye(2 ** fix), flip), np.eye(2 ** (2 - fix)))
        out += u @ proj @ rho @ proj @ u.conj().T
    return float(np.real(psi.conj() @ out @ psi))
