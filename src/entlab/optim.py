"""Optimization kernels behind the set measures.

Two solvers live here:

* ``max_entropy_with_marginals`` maximizes von Neumann entropy over density
  matrices with fixed marginals on given sub-registers. The maximizer has
  exponential-family form e^h / tr e^h with h = sum_P c_P P over the Pauli
  strings P inside the constrained sub-registers, so the solver runs damped
  Newton on the convex dual f(c) = log tr e^h - sum_P c_P t_P, whose
  gradient is the residual of the Pauli expectations and whose Hessian is
  the Kubo-Mori covariance (Niekamp, Galla, Kleinmann and Guehne, J. Phys.
  A 46, 125301 (2013)). f bounds the entropy of every feasible state at
  any c, so the reported entropy is a certified upper bound. A step
  forms every A_P = V^dag P V from one gather and one matrix product (a
  Pauli string has one unit entry per row) and the Hessian from their
  upper triangles as one symmetric rank-k product; it factors the shifted
  Hessian once, by the LU solve that gives the step, and writes its d x d
  and K x K arrays into buffers the solve makes once. Pairwise disjoint
  targets need no step: the maximizer is their product with the
  maximally mixed state on the rest, and its entropy is exact.
* ``max_avg_pure_decomposition`` searches over pure-state decompositions of
  a small mixed state for the largest weighted average of a per-member
  objective. Decompositions are parameterized by isometries acting on the
  spectral ensemble and improved by sweeps of two-member U(2) rotations
  with seeded random restarts. A sweep over t members is t - 1 round-robin
  stages of t/2 disjoint pairs, and the restarts are independent, so a
  block of restarts climbs in lockstep and one batched grid search takes
  every pair of a stage in every restart of the block. Disjoint pairs
  commute, so results are bitwise those of walking the same pairs one at a
  time, one restart after another. The built-in two-qubit objective sees a
  mix of two rows only through their 2x2 first-qubit Grams, which are
  linear in four real features of the mixing angles; so a grid candidate
  is scored by one product of its features with a per-pair 4x4 map, and
  only each pair's winning rows are formed. A generic objective forms and
  values every candidate row. Values are certified lower bounds: the best
  decomposition is returned and checked to reconstruct the input. A
  rank-1 input has one decomposition up to phases, so its value is exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import _lift, _pauli_strings
from .errors import ConvergenceError, InfeasibleMarginalsError, SizeLimitError
from .states import (
    _MINUS_I_POWERS,
    DensityMatrix,
    EIGENVALUE_CLIP,
    _hermitize,
    _trace_gap,
    marginal_matrix,
    partial_trace,
    pauli_rows,
    trace_distance,
    validate_subset,
    von_neumann_entropy,
)

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 500
DEFAULT_RESTARTS = 32
DEFAULT_SWEEPS = 60
# the largest Pauli string stack a max-entropy solve may build
MAX_PAULI_STACK_BYTES = 2**26

_GRADIENT_TOL = 1e-9
_HESSIAN_SHIFT = 1e-12
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_CONSISTENCY_ATOL = 1e-8
_RECONSTRUCTION_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class MarginalConstraintSet:
    """Marginal targets on sub-registers of an m-qubit ambient register.

    Targets are indexed by strictly increasing qubit tuples. Overlapping
    targets must agree on their common sub-register to 1e-8; disagreement
    raises InfeasibleMarginalsError. ``from_state`` skips that check.
    """

    num_qubits: int
    targets: dict

    def __post_init__(self):
        m = int(self.num_qubits)
        if m < 1:
            raise ValueError("ambient register must have at least one qubit")
        clean: dict[tuple[int, ...], DensityMatrix] = {}
        for subset, target in self.targets.items():
            key = validate_subset(subset, m)
            if not isinstance(target, DensityMatrix):
                target = DensityMatrix(len(key), np.asarray(target, dtype=complex))
            if target.n != len(key):
                raise ValueError(
                    f"target on {key} has {target.n} qubits, expected {len(key)}"
                )
            clean[key] = target
        if not clean:
            raise ValueError("constraint set is empty")
        keys = sorted(clean)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                common = tuple(sorted(set(a) & set(b)))
                if not common:
                    continue
                pos_a = tuple(a.index(q) for q in common)
                pos_b = tuple(b.index(q) for q in common)
                ma = partial_trace(clean[a], pos_a)
                mb = partial_trace(clean[b], pos_b)
                gap = trace_distance(ma, mb)
                if gap > _CONSISTENCY_ATOL:
                    raise InfeasibleMarginalsError(
                        f"targets on {a} and {b} disagree on {common} (gap {gap:.2e})"
                    )
        object.__setattr__(self, "num_qubits", m)
        object.__setattr__(self, "targets", clean)

    @classmethod
    def from_state(cls, rho: DensityMatrix, subsets: Sequence[Sequence[int]]):
        """The marginals of ``rho`` on ``subsets``. Marginals of one state
        agree by construction, so the pairwise agreement check is skipped."""
        targets = {}
        for subset in subsets:
            key = validate_subset(subset, rho.n)
            targets[key] = partial_trace(rho, key)
        if not targets:
            raise ValueError("constraint set is empty")
        out = object.__new__(cls)
        object.__setattr__(out, "num_qubits", rho.n)
        object.__setattr__(out, "targets", targets)
        return out


@dataclass
class MaxEntropyResult:
    state: DensityMatrix
    entropy: float
    iterations: int
    residual: float
    converged: bool

    def diagnostics(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }


def _pauli_stack_bytes(m: int, keys: Sequence[tuple]) -> int:
    """Bytes of the (K, 2^m, 2^m) complex stack of the non-identity Pauli
    strings supported inside some key: a support S holds 3^|S| strings."""
    supports = set()
    for k in keys:
        for size in range(1, len(k) + 1):
            supports.update(combinations(k, size))
    return sum(3 ** len(s) for s in supports) * 16 * 4**m


class _PauliBasis(NamedTuple):
    """The dual's Pauli strings, a gather index over them and the upper
    triangle of a d x d matrix.

    ``stack`` is the (K, d, d) stack of strings. A string holds one entry
    per row, P[s, col_P(s)] = (-i)^power_P(s) (``pauli_rows``), so for a
    (d, d) array V the products (V^T P^T)[j, s] = P[s, col_P(s)]
    V[col_P(s), j] of all P are one gather from V times each power:
    ``gather``[P, j, s] = power_P(s) d^2 + col_P(s) d + j. ``owned`` holds
    per key the indices of the strings it owns (the first key that holds
    their support) and those strings written on the key's own qubits, so
    that t_P = tr(P_key t_key). ``upper`` holds the flat indices i d + j,
    i <= j, and ``twice`` is 2 off the diagonal and 1 on it.
    """

    stack: np.ndarray
    gather: np.ndarray
    owned: list
    upper: np.ndarray
    twice: np.ndarray


@lru_cache(maxsize=8)
def _pauli_basis(m: int, keys: tuple) -> _PauliBasis:
    """The ``_PauliBasis`` of every non-identity string on m qubits whose
    support lies inside some key of the sorted ``keys``, each once; the
    gather index adds half the stack's bytes. Its caller checks the size.
    """
    strings, owned, seen = [], [], set()
    for k in keys:
        s = len(k)
        # local bit s-1-j of a key string is bit m-1-k[j] of the register
        spread = _lift(np.arange(2**s), k, m).tolist()
        at, local = [], []
        for x in range(2**s):
            for z in range(2**s):
                full = (spread[x], spread[z])
                if (x or z) and full not in seen:
                    seen.add(full)
                    at.append(len(strings))
                    strings.append(full)
                    local.append((x, z))
        x_local, z_local = np.array(local, dtype=int).reshape(-1, 2).T
        owned.append((np.array(at, dtype=int), _pauli_strings(s, x_local, z_local)))
    d = 2**m
    x_masks, z_masks = np.array(strings, dtype=int).reshape(-1, 2).T
    stack = _pauli_strings(m, x_masks, z_masks)
    cols, power = pauli_rows(m, x_masks, z_masks)
    gather = (power * d * d + cols * d)[:, None, :] + np.arange(d)[None, :, None]
    row, col = np.triu_indices(d)
    upper, twice = row * d + col, np.where(row == col, 1.0, 2.0)
    # every caller of the cache shares these arrays
    for arr in (stack, gather, upper, twice, *(a for pair in owned for a in pair)):
        arr.flags.writeable = False
    return _PauliBasis(stack, gather, owned, upper, twice)


def _dual_value(c: np.ndarray, basis: _PauliBasis, t: np.ndarray):
    """f(c) = log tr e^h - c.t in nats, h = sum_P c_P P, with h's
    eigenvalues w and eigenvectors V and p = softmax(w)."""
    k, d = basis.stack.shape[:2]
    w, v = np.linalg.eigh((c @ basis.stack.reshape(k, d * d)).reshape(d, d))
    top = float(w[-1])
    z = np.exp(w - top)
    total = z.sum()
    return top + float(np.log(total)) - float(c @ t), w, v, z / total


class _DerivativeWork(NamedTuple):
    """The arrays a Newton step writes, made once per solve by
    ``_derivative_work``: freeing and making them anew at every step costs
    more than the arithmetic once d = 16, since the allocator hands their
    pages back. ``phases`` is the (4, d, d) stack of V times each unit,
    ``vtp`` the (K, d, d) gather from it, ``vconj`` conj(V), ``a`` the
    (K, d^2) product and ``y`` and ``scale`` the (K, d(d+1)/2) triangle and
    its weights; ``gap``, ``ratio``, ``div`` and ``mask`` are d x d, and
    ``hess`` and ``outer`` K x K."""

    phases: np.ndarray
    vtp: np.ndarray
    vconj: np.ndarray
    a: np.ndarray
    y: np.ndarray
    scale: np.ndarray
    gap: np.ndarray
    ratio: np.ndarray
    div: np.ndarray
    mask: np.ndarray
    hess: np.ndarray
    outer: np.ndarray


def _derivative_work(basis: _PauliBasis) -> _DerivativeWork:
    """The ``_DerivativeWork`` of a solve on ``basis``."""
    k, d = basis.gather.shape[:2]
    half = len(basis.upper)
    return _DerivativeWork(
        phases=np.empty((len(_MINUS_I_POWERS), d, d), dtype=complex),
        vtp=np.empty((k, d, d), dtype=complex),
        vconj=np.empty((d, d), dtype=complex),
        a=np.empty((k, d * d), dtype=complex),
        y=np.empty((k, half), dtype=complex),
        scale=np.empty(half),
        gap=np.empty((d, d)),
        ratio=np.empty((d, d)),
        div=np.empty((d, d)),
        mask=np.empty((d, d), dtype=bool),
        hess=np.empty((k, k)),
        outer=np.empty((k, k)),
    )


def _dual_derivatives(basis: _PauliBasis, t, w, v, p, work: _DerivativeWork):
    """Gradient and Hessian of f where h has eigenpairs (w, V) and p = softmax(w).

    With A_P = V^dag P V, the gradient is <P> - t_P, <P> = sum_i p_i A_P[i, i],
    and the Hessian is the Kubo-Mori covariance sum_ij A_P[i, j] D_ij
    A_Q[j, i] - <P><Q>, where D holds the divided differences of p over w.
    The transposes A_P^T = (V^T P^T) conj(V) of all P come from one gather
    (see ``_PauliBasis``) and one product. A_P is Hermitian and D real
    symmetric, so the (i, j) and (j, i) terms of the sum are conjugates:
    it is the real part of twice the sum over i < j plus the diagonal,
    taken on the transposes alike. With Y_P the stacked real and imaginary
    parts of A_P^T[i, j] sqrt(2 D_ij) over i < j and sqrt(D_ii) on i = j
    (D >= 0), the sum is Y Y^T, a symmetric rank-k product. Every array is
    written into ``work``: the Hessian is ``work.hess``, which the next
    call overwrites, and only the gradient is fresh.
    """
    k, d = basis.gather.shape[:2]
    np.multiply(_MINUS_I_POWERS[:, None, None], v, out=work.phases)
    # the indices are in range by construction; "clip" lets take write into
    # ``out`` directly, where the default mode buffers
    np.take(work.phases, basis.gather, out=work.vtp, mode="clip")
    np.matmul(work.vtp.reshape(k * d, d), np.conjugate(v, out=work.vconj),
              out=work.a.reshape(k * d, d))
    means = work.a[:, :: d + 1].real @ p
    # (p_i - p_j) / (w_i - w_j) = max(p_i, p_j) (1 - e^-|w_i - w_j|) / |w_i - w_j|
    gap, ratio, div = work.gap, work.ratio, work.div
    np.abs(np.subtract.outer(w, w, out=gap), out=gap)
    np.negative(np.expm1(np.negative(gap, out=div), out=div), out=div)
    ratio.fill(1.0)
    np.divide(div, gap, out=ratio, where=np.greater(gap, 0.0, out=work.mask))
    np.multiply(np.maximum.outer(p, p, out=div), ratio, out=div)
    y, scale = work.y, work.scale
    np.take(work.a, basis.upper, axis=1, out=y, mode="clip")
    np.take(div.ravel(), basis.upper, out=scale)
    scale *= basis.twice
    y *= np.sqrt(scale, out=scale)
    parts = y.view(np.float64)
    hess = np.matmul(parts, parts.T, out=work.hess)
    hess -= np.multiply.outer(means, means, out=work.outer)
    return means - t, hess


def _newton_direction(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """-H^-1 g for H + 1e-12 tr(H) I by one LU solve, or by least squares
    on H when that solve fails or its step does not descend (g.s >= 0 or
    not finite), as on an indefinite H. The shift is added to ``hess`` in
    place and kept there unless the step falls back; ``hess`` must be
    C-contiguous, as ``_dual_derivatives`` returns it, so that its flat
    reshape is a view."""
    diagonal = hess.diagonal().copy()
    hess.reshape(-1)[:: len(hess) + 1] += _HESSIAN_SHIFT * diagonal.sum()
    try:
        step = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        step = None
    if step is None or not -np.inf < float(grad @ step) < 0.0:
        np.fill_diagonal(hess, diagonal)
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
    return step


def max_entropy_with_marginals(
    constraints: MarginalConstraintSet,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MaxEntropyResult:
    """Entropy maximizer under marginal constraints, via the smooth dual.

    Runs damped Newton on the dual f(c) = log tr e^h - c.t over
    h = sum_P c_P P, P running over the non-identity Pauli strings inside
    some key and t_P their target expectations; the maximizer is
    e^h / tr e^h. It stops once half the gradient's 2-norm, which bounds
    every key's trace-distance residual, is at most min(tol, 1e-9), or
    after ``max_iter`` Newton steps. Every feasible state has entropy at
    most f(c) at any c (Gibbs' variational principle), so the reported
    entropy, f / ln 2 in bits at the last iterate, is a certified upper
    bound. When the keys are pairwise disjoint no step runs (0
    iterations): the maximizer is the product of the targets and the
    maximally mixed state on the qubits no key holds (subadditivity), and
    its entropy, the sum of the targets' entropies plus one bit per such
    qubit, is exact. Raises ConvergenceError (carrying the final residual)
    if the worst marginal mismatch still exceeds ``tol``, and
    SizeLimitError if the Pauli basis would exceed MAX_PAULI_STACK_BYTES,
    on either path.
    """
    m = constraints.num_qubits
    keys = tuple(sorted(constraints.targets))
    need = _pauli_stack_bytes(m, keys)
    if need > MAX_PAULI_STACK_BYTES:
        raise SizeLimitError(
            f"Pauli basis of {keys} on {m} qubits needs {need} bytes, "
            f"over the cap of {MAX_PAULI_STACK_BYTES}"
        )
    targets = constraints.targets
    covered = sum(len(k) for k in keys)
    if len({q for k in keys for q in k}) == covered:
        sigma = _product_of_targets(m, keys, targets)
        entropy = sum(von_neumann_entropy(targets[k]) for k in keys) + (m - covered)
        iterations = 0
    else:
        sigma, entropy, iterations = _newton_solve(m, keys, targets, tol, max_iter)

    state = DensityMatrix(m, sigma / np.real(np.trace(sigma)))
    residual = 0.0
    for k in keys:
        got = marginal_matrix(state.matrix, m, k)
        residual = max(residual, _trace_gap(got, targets[k].matrix))
    result = MaxEntropyResult(
        state=state,
        entropy=float(entropy),
        iterations=iterations,
        residual=residual,
        converged=residual <= tol,
    )
    if not result.converged:
        raise ConvergenceError(
            f"marginal residual {residual:.3e} above tol {tol:.1e} "
            f"after {result.iterations} iterations",
            residual=residual,
        )
    return result


def _product_of_targets(m: int, keys: tuple, targets: dict) -> np.ndarray:
    """The targets on the disjoint ``keys`` tensored with I/2^r on the r
    qubits no key holds, in register order."""
    rest = [q for q in range(m) if not any(q in k for k in keys)]
    order = [q for k in keys for q in k] + rest
    sigma = np.eye(2 ** len(rest), dtype=complex) / 2 ** len(rest)
    for k in reversed(keys):
        sigma = np.kron(targets[k].matrix, sigma)
    # axis i of the product holds qubit order[i]
    axes = np.argsort(order)
    sigma = sigma.reshape((2,) * (2 * m)).transpose([*axes, *(axes + m)])
    return _hermitize(sigma.reshape(2**m, 2**m))


def _newton_solve(m: int, keys: tuple, targets: dict, tol: float, max_iter: int):
    """Damped Newton on the dual from c = 0: the last iterate's e^h / tr e^h
    (unnormalized), f / ln 2 in bits and the number of steps taken."""
    basis = _pauli_basis(m, keys)
    t = np.empty(len(basis.stack))
    for k, (at, local) in zip(keys, basis.owned):
        t[at] = np.einsum("kij,ji->k", local, targets[k].matrix).real

    c = np.zeros(len(t))
    work = _derivative_work(basis)
    f, w, v, p = _dual_value(c, basis, t)
    stop = min(tol, _GRADIENT_TOL)
    iterations = 0
    while True:
        grad, hess = _dual_derivatives(basis, t, w, v, p, work)
        if 0.5 * np.sqrt(grad @ grad) <= stop or iterations >= max_iter:
            break
        step = _newton_direction(grad, hess)
        slope = float(grad @ step)
        # Armijo backtracking; a step that cannot lower f ends the solve
        for _ in range(_MAX_HALVINGS):
            trial = _dual_value(c + step, basis, t)
            if trial[0] <= f + _ARMIJO * slope:
                break
            step, slope = step / 2.0, slope / 2.0
        else:
            break
        c = c + step
        f, w, v, p = trial
        iterations += 1
    return _hermitize((v * p) @ v.conj().T), f / np.log(2.0), iterations


@dataclass
class Decomposition:
    """Weighted pure-state ensemble representing a density matrix."""

    weights: np.ndarray
    states: np.ndarray  # row k is the k-th member's amplitude vector

    def reconstruction(self) -> np.ndarray:
        scaled = self.states * np.sqrt(self.weights)[:, None]
        return scaled.T @ scaled.conj()


@dataclass
class DecompositionResult:
    value: float
    decomposition: Decomposition
    diagnostics: dict = field(default_factory=dict)


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """x log2 x, with 0 at and below EIGENVALUE_CLIP."""
    y = np.maximum(x, EIGENVALUE_CLIP)
    out = np.log2(y)
    out *= y
    out[x <= EIGENVALUE_CLIP] = 0.0
    return out


def _marginal_mass(top, bot, off_sq):
    """2 * tr M * S(M / tr M) of 2x2 Hermitian M >= 0 with diagonal (top, bot)
    and |M_01|^2 = off_sq: the objective mass of a member whose first-qubit
    Gram is M. The spectrum is closed form, so no LAPACK call is made."""
    # the trace and both eigenvalues, through one x log2 x
    parts = np.empty((3,) + top.shape)
    trace = np.add(top, bot, out=parts[0])
    disc = np.sqrt((top - bot) ** 2 + 4.0 * off_sq)
    np.add(trace, disc, out=parts[1])
    np.subtract(trace, disc, out=parts[2])
    parts[1:] /= 2.0
    terms = _xlog2x(parts)
    return 2.0 * (terms[0] - terms[1] - terms[2])


def _pair_member_values(vectors: np.ndarray) -> np.ndarray:
    """Objective mass of unnormalized 2-qubit members: 2 * norm^2 * S(tr_b)."""
    r = vectors.reshape(-1, 2, 2)
    rc = r.conj()
    top, bot = np.einsum("bij,bij->ib", r, rc).real
    off = np.einsum("bj,bj->b", r[:, 0, :], rc[:, 1, :])
    return _marginal_mass(top, bot, np.abs(off) ** 2)


def _generic_member_values(objective: Callable[[np.ndarray], float]):
    def values(vectors: np.ndarray) -> np.ndarray:
        out = np.zeros(vectors.shape[0])
        for i, vec in enumerate(vectors):
            p = float(np.real(np.vdot(vec, vec)))
            if p < 1e-14:
                continue
            out[i] = p * float(objective(vec / np.sqrt(p)))
        return out

    return values


def _mixes(theta, phi):
    """cos t, sin t e^{-if} and sin t e^{if} at each angle pair (t, f).

    All three are complex, so the products that mix rows with them need no
    casting pass; a real to complex cast is exact, so the values are the
    same as mixing with the real cos t and sin t.
    """
    sa = np.sin(theta).astype(complex)
    return np.cos(theta).astype(complex), sa * np.exp(-1j * phi), sa * np.exp(1j * phi)


def _pair_candidates(a, b, mixes):
    """The rows cos t a - sin t e^{-if} b and sin t e^{if} a + cos t b.

    Row pair i of the (R, d) arrays a and b is mixed at the G angle pairs
    of row i of each (R, G) array of ``mixes``. Returns (R, 2, G, d): both
    new rows of every mix.
    """
    ca, wneg, wpos = (m[..., None, :, None] for m in mixes)
    a = a[:, None, None, :]
    b = b[:, None, None, :]
    return np.concatenate([ca * a - wneg * b, wpos * a + ca * b], axis=1)


def _align_pair_phase(a, b):
    """Rotate each row of b to a canonical phase against the same row of a.

    A pure phase on b only shifts the mixing-angle grid, so pinning it makes
    the pair search insensitive to how upstream eigenvectors were phased.
    The weighted overlap is the tiebreak when the rows are orthogonal; a
    row pair with a zero row, or orthogonal under both overlaps, keeps b.
    a and b are (P, d); every row pair is aligned as it would be alone.
    """
    weights = np.arange(1, b.shape[1] + 1)
    ab = np.stack([a, b])
    norms = np.sqrt(np.einsum("xpd,xpd->xp", ab, ab.conj()).real)
    overlaps = np.einsum("pd,xpd->xp", a.conj(), np.stack([b, weights * b]))
    scale = norms[0] * norms[1]
    g = np.where(np.abs(overlaps[0]) < 1e-10 * scale, overlaps[1], overlaps[0])
    turn = ((scale >= 1e-14) & (np.abs(g) >= 1e-10 * scale)).nonzero()[0]
    b = b.copy()
    b[turn] *= (g[turn].conj() / np.abs(g[turn]))[:, None]
    return b


def _mix_features(theta, phi):
    """(c^2, s^2, cs cos f, cs sin f), c = cos t and s = sin t, at every
    angle pair (t, f) of the grid theta x phi, flattened theta-major:
    theta (..., nt) and phi (..., nf) give (..., 4, nt nf). The mix's
    first-qubit Grams are linear in these four."""
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    cs = c * s
    out = np.empty(theta.shape[:-1] + (4, theta.shape[-1], phi.shape[-1]))
    out[..., 0, :, :] = c * c
    out[..., 1, :, :] = s * s
    np.multiply(cs, np.cos(phi)[..., None, :], out=out[..., 2, :, :])
    np.multiply(cs, np.sin(phi)[..., None, :], out=out[..., 3, :, :])
    return out.reshape(out.shape[:-2] + (-1,))


def _mix_coefficients(a, b):
    """The first new row's first-qubit Gram as a linear map of the mix features.

    With R the 2x2 reshape of a row (first qubit down the rows), A = R_a R_a^dag,
    B = R_b R_b^dag and C = R_b R_a^dag, the row cos t a - sin t e^{-if} b has
    Gram M = c^2 A + s^2 B - cs cos f (C + C^dag) - cs sin f (-i)(C - C^dag),
    and the row sin t e^{if} a + cos t b has A + B - M. Each entry is an
    inner product <x, y> = sum_j x_j conj(y_j) of half rows x, y (a row's
    amplitudes at one value of the first qubit), formed from real and
    imaginary parts. Returns each pair's (4, 4) real matrix taking the
    features of ``_mix_features`` to the parts (M_00, M_11, Re M_01,
    Im M_01), stacked (P, 4, 4), and the (P, 4) parts of A + B.
    """
    h = np.stack([a, b], axis=1).reshape(-1, 4, 1, 2)  # half rows a0, a1, b0, b1
    x, y = h, h.transpose(0, 2, 1, 3)
    re = x.real * y.real + x.imag * y.imag
    im = x.imag * y.real - x.real * y.imag
    re, im = re[..., 0] + re[..., 1], im[..., 0] + im[..., 1]  # [pair, x, y]
    a0, a1, b0, b1 = range(4)
    coef = np.array([
        [re[:, a0, a0], re[:, b0, b0], -2.0 * re[:, b0, a0], -2.0 * im[:, b0, a0]],
        [re[:, a1, a1], re[:, b1, b1], -2.0 * re[:, b1, a1], -2.0 * im[:, b1, a1]],
        [re[:, a0, a1], re[:, b0, b1], -(re[:, a0, b1] + re[:, b0, a1]),
         im[:, a0, b1] - im[:, b0, a1]],
        [im[:, a0, a1], im[:, b0, b1], -(im[:, a0, b1] + im[:, b0, a1]),
         re[:, b0, a1] - re[:, a0, b1]],
    ])
    coef = np.ascontiguousarray(coef.transpose(2, 0, 1))
    return coef, coef[:, :, 0] + coef[:, :, 1]


def _gram_totals(coef, pair_trace, features):
    """Summed values of both new rows of every mix, (P, G), from the (P, 4, 4)
    maps and (P, 4) parts of A + B of ``_mix_coefficients`` and the (4, G)
    or (P, 4, G) mix features."""
    grams = np.empty((2, len(coef), 4, features.shape[-1]))
    np.matmul(coef, features, out=grams[0])
    np.subtract(pair_trace[..., None], grams[0], out=grams[1])
    top, bot, re, im = grams.transpose(2, 0, 1, 3)
    re *= re
    im *= im
    re += im
    vals = _marginal_mass(top, bot, re)
    return vals[0] + vals[1]


def _grid_plan(grid, zoom_rounds, zoom_grid):
    """The (theta, phi) offsets of each round of the pair search, and the
    mix features of round 0.

    Round 0 is the coarse grid and each zoom round a finer grid around the
    best point so far, so a round's candidates are ``best + ts`` by
    ``best + fs``. The spans shrink by a fixed sequence, so the offsets are
    built once per search rather than once per pair. Round 0 starts every
    pair from (0, 0), so its angles, and their features, are the offsets
    themselves.
    """
    span_t, span_f = np.pi, 2 * np.pi
    nt, nf = grid
    rounds = [(np.linspace(0.0, span_t, nt, endpoint=False),
               np.linspace(0.0, span_f, nf, endpoint=False))]
    for _ in range(zoom_rounds):
        span_t /= max(nt // 2, 2)
        span_f /= max(nf // 2, 2)
        nt, nf = zoom_grid
        rounds.append((np.linspace(-span_t, span_t, nt), np.linspace(-span_f, span_f, nf)))
    return rounds, _mix_features(*rounds[0])


def _optimize_pair(a, b, value_a, values_fn, plan, depth):
    """Best U(2) mix of each row pair (a[i], b[i]), given the values of a.

    Pair i runs the first depth[i] rounds of the plan. The built-in pair
    objective scores a round's candidates from the pairs' first-qubit Grams
    (``_gram_totals``); any other forms the candidate rows and values them.
    Returns each pair's gain, 0 where it is not positive, and the new rows
    (R, 2, d), formed once from the best angles, and their values (R, 2);
    rows whose gain is 0 hold nothing to keep.
    """
    b = _align_pair_phase(a, b)
    base = value_a + values_fn(b)
    n, d = a.shape
    gram = values_fn is _pair_member_values
    if gram:
        coef, pair_trace = _mix_coefficients(a, b)
    rounds, first_features = plan
    best_val = base.copy()
    best = np.zeros((2, n, 1))  # (theta, phi) of each pair's best mix
    new_vals = np.empty((n, 2))
    for i, (ts, fs) in enumerate(rounds):
        live = (depth > i).nonzero()[0]
        if live.size == 0:
            break
        # round 0 starts from 0.0, and 0.0 + offset is the offset itself
        theta, phi = best[0, live] + ts, best[1, live] + fs
        if gram:
            features = first_features if i == 0 else _mix_features(theta, phi)
            totals = _gram_totals(coef[live], pair_trace[live], features)
        else:
            mixes = _mixes(np.repeat(theta, fs.size, axis=1), np.tile(phi, ts.size))
            rows = _pair_candidates(a[live], b[live], mixes)
            vals = values_fn(rows.reshape(-1, d)).reshape(live.size, 2, -1)
            totals = vals[:, 0] + vals[:, 1]
        idx = totals.argmax(axis=1)
        top = totals[np.arange(live.size), idx]
        up = (top > best_val[live]).nonzero()[0]
        won, at = live[up], idx[up]
        best_val[won] = top[up]
        best[0, won, 0] = theta[up, at // fs.size]
        best[1, won, 0] = phi[up, at % fs.size]
        if not gram:
            new_vals[won] = vals[up, :, at]
    gain = np.where(best_val > base + 1e-10, best_val - base, 0.0)
    kept = (gain > 0.0).nonzero()[0]
    new_rows = np.empty((n, 2, d), dtype=complex)
    mixes = _mixes(best[0, kept], best[1, kept])
    new_rows[kept] = _pair_candidates(a[kept], b[kept], mixes)[:, :, 0]
    if gram:
        new_vals[kept] = values_fn(new_rows[kept].reshape(-1, d)).reshape(-1, 2)
    return gain, new_rows, new_vals


def _round_robin(t):
    """One sweep over t members (t even) as t - 1 stages of t/2 disjoint pairs.

    The circle method: member 0 sits still and the rest sit on a ring.
    Stage s pairs entries i and t - 1 - i of [0] + ring, and the ring turns
    right by one between stages, so every pair meets once per sweep. Each
    stage is a (t/2, 2) array of pairs (k, l), k < l, sorted by k.
    """
    ring = list(range(1, t))
    stages = []
    for _ in range(t - 1):
        seats = [0] + ring
        pairs = [sorted((seats[i], seats[t - 1 - i])) for i in range(t // 2)]
        stages.append(np.array(sorted(pairs)))
        ring = ring[-1:] + ring[:-1]
    return stages


def _climb(rows, values_fn, plan, depths, sweeps):
    """Sweeps of pair rotations on a block of restarts, run in lockstep.

    ``rows`` holds each restart's unnormalized members, (R, t, d), and is
    improved in place. A sweep is the t - 1 round-robin stages of
    ``_round_robin``; the pairs of a stage touch disjoint rows, so one
    batched ``_optimize_pair`` searches every (climbing restart, stage
    pair) whose rows are not both empty. A restart searches at the coarse
    depth ``depths[0]`` until a sweep gains under 1e-6, then at the full
    depth ``depths[1]`` until a sweep gains under 1e-8, or its sweeps run
    out. Returns the member values (R, t) and the sweeps each restart ran.
    Restarts share nothing and a stage's pairs commute, so each restart's
    rows, values and sweeps are bitwise those of climbing it alone, one
    pair at a time in stage order.
    """
    n_restarts, t, d = rows.shape
    member_vals = values_fn(rows.reshape(-1, d)).reshape(n_restarts, t)
    stages = _round_robin(t)
    sweeps_run = np.zeros(n_restarts, dtype=int)
    polishing = np.zeros(n_restarts, dtype=bool)
    climbing = np.arange(n_restarts)
    for _ in range(sweeps):
        if climbing.size == 0:
            break
        sweeps_run[climbing] += 1
        depth = np.where(polishing, depths[1], depths[0])
        improved = np.zeros(n_restarts)
        for pairs in stages:
            # a pair of empty rows has nothing to mix
            climbers = rows[climbing]
            sq = np.einsum("rkd,rkd->rk", climbers, climbers.conj()).real
            who, at = (sq[:, pairs[:, 0]] + sq[:, pairs[:, 1]] >= 1e-14).nonzero()
            if who.size == 0:
                continue
            r, k, l = climbing[who], pairs[at, 0], pairs[at, 1]
            gain, new_rows, new_vals = _optimize_pair(
                rows[r, k], rows[r, l], member_vals[r, k], values_fn, plan, depth[r]
            )
            acc = (gain > 0.0).nonzero()[0]
            r, k, l = r[acc], k[acc], l[acc]
            rows[r, k], rows[r, l] = new_rows[acc, 0], new_rows[acc, 1]
            member_vals[r, k], member_vals[r, l] = new_vals[acc, 0], new_vals[acc, 1]
            # each restart's gains in stage order, as a serial walk adds them
            np.add.at(improved, r, gain[acc])
        done = polishing[climbing] & (improved[climbing] < 1e-8)
        polishing[climbing[improved[climbing] < 1e-6]] = True
        climbing = climbing[~done]
    return member_vals, sweeps_run


# The search stops once this many restarts in a row have not beaten the
# best by 1e-9, so never before this many have run.
_STALL_RESTARTS = 8


def _start_rows(ensemble, children, restart):
    """Restart ``restart``'s (t, d) unnormalized members.

    Restart 0 starts from the spectral ensemble padded with zero rows and
    restart r > 0 from a random isometry drawn from children[r].
    """
    rank = ensemble.shape[1]
    t = 2 * rank
    if restart == 0:
        iso = np.zeros((t, rank), dtype=complex)
        iso[:rank, :rank] = np.eye(rank)
    else:
        rng = np.random.default_rng(children[restart])
        z = rng.standard_normal((t, rank)) + 1j * rng.standard_normal((t, rank))
        iso, _ = np.linalg.qr(z)
    return iso @ ensemble.T


def check_search_budget(restarts: int, sweeps: int) -> None:
    """Raise TypeError unless both are integers, and ValueError unless
    restarts >= 1 and sweeps >= 0."""
    restarts, sweeps = operator.index(restarts), operator.index(sweeps)
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if sweeps < 0:
        raise ValueError(f"sweeps must be non-negative, got {sweeps}")


def max_avg_pure_decomposition(
    rho: DensityMatrix,
    objective: Callable[[np.ndarray], float] | None = None,
    restarts: int = DEFAULT_RESTARTS,
    sweeps: int = DEFAULT_SWEEPS,
    seed: int = 0,
) -> DecompositionResult:
    """Best found weighted-average objective over pure decompositions of rho.

    ``objective`` maps a normalized member vector to a scalar; None selects
    the built-in two-qubit objective (twice the first-qubit marginal
    entropy), which is evaluated in batch and scores a pair's grid
    candidates from the pair's 2x2 first-qubit Grams without forming their
    rows; any other objective is called once per candidate row. A
    rotation's new rows are formed once, from its best angles, and valued
    as formed. The ensemble has twice as many members as rho has rank,
    t = 2 rank, and each sweep rotates every pair of members once, in the
    t - 1 round-robin stages of ``_round_robin``.
    The running best value is monotone over sweeps and restarts; the final
    decomposition must reconstruct rho to 1e-8 or a RuntimeError is raised.
    ``restarts`` and ``sweeps`` must be integers, or a TypeError is raised
    before any work, and ``restarts`` at least 1 and ``sweeps``
    non-negative, or a ValueError is raised.

    Restarts stop early once 8 in a row have not beaten the best by 1e-9.
    They climb in lockstep blocks of 8 less that running count, so only a
    block's last restart can reach the stop and none runs past it: the
    ``restarts`` and ``sweeps_used`` diagnostics count the restarts up to
    the stop, as running them one at a time would.

    A rank-1 rho = lam |psi><psi| has a unique decomposition up to phases,
    so no restart runs: the value is the exact lam * objective(psi), and
    the diagnostics read 0 restarts, 0 sweeps and cardinality 1.
    """
    check_search_budget(restarts, sweeps)
    d = rho.dim
    if objective is None and d != 4:
        raise ValueError("default pair objective requires a two-qubit state")
    lam, vecs = np.linalg.eigh(rho.matrix)
    keep = lam > EIGENVALUE_CLIP
    lam = np.clip(lam[keep], 0.0, None)
    vecs = vecs[:, keep]
    rank = int(lam.size)
    if rank == 0:
        raise ValueError("input state has no support")
    ensemble = vecs * np.sqrt(lam)  # (d, rank) columns

    values_fn = _pair_member_values if objective is None else _generic_member_values(objective)
    if objective is None:
        grid, zoom_coarse, zoom_fine, zoom_grid = (12, 8), 2, 6, (9, 9)
    else:
        grid, zoom_coarse, zoom_fine, zoom_grid = (8, 5), 1, 3, (5, 5)
    plan = _grid_plan(grid, zoom_fine, zoom_grid)

    # Every decomposition of a rank-1 rho = lam |psi><psi| is made of phase
    # multiples of psi (Hughston, Jozsa and Wootters 1993), so the one
    # ensemble row is exact and no restart runs.
    children = np.random.SeedSequence(seed).spawn(restarts if rank > 1 else 0)
    depths = (zoom_coarse + 1, zoom_fine + 1)
    best_rows = ensemble.T
    best_value = float(values_fn(best_rows)[0]) if rank == 1 else -np.inf
    restarts_run = 0
    sweeps_used = 0
    since_improved = 0
    while restarts_run < len(children) and since_improved < _STALL_RESTARTS:
        # Only a block's last restart can bring since_improved to the
        # stop, so every restart a block climbs counts.
        block = range(
            restarts_run, min(restarts_run + _STALL_RESTARTS - since_improved, len(children))
        )
        rows = np.array([_start_rows(ensemble, children, r) for r in block])
        member_vals, sweeps_run = _climb(rows, values_fn, plan, depths, sweeps)
        for i in range(len(block)):
            total = float(member_vals[i].sum())
            sweeps_used += int(sweeps_run[i])
            if total > best_value + 1e-9:
                since_improved = 0
            else:
                since_improved += 1
            if total > best_value:
                best_value = total
                best_rows = rows[i]
        restarts_run = block.stop

    weights = np.real(np.einsum("kd,kd->k", best_rows, best_rows.conj()))
    keep_rows = weights > 1e-12
    weights = weights[keep_rows]
    states = best_rows[keep_rows] / np.sqrt(weights)[:, None]
    decomposition = Decomposition(weights=weights, states=states)
    residual = _trace_gap(decomposition.reconstruction(), rho.matrix)
    if residual > _RECONSTRUCTION_ATOL:
        raise RuntimeError(
            f"decomposition fails to reconstruct the input (residual {residual:.2e})"
        )
    return DecompositionResult(
        value=float(best_value),
        decomposition=decomposition,
        diagnostics={
            "restarts": restarts_run,
            "sweeps_used": sweeps_used,
            "cardinality": int(weights.size),
            "reconstruction_residual": residual,
        },
    )
