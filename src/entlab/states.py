"""Exact states and entropic primitives for small qubit registers.

Everything here is dense complex linear algebra. Registers are capped at
``MAX_QUBITS`` qubits, bitstring indices are big-endian (qubit 0 is the
most significant bit), and entropies are reported in bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import PositivityError, SizeLimitError

MAX_QUBITS = 12

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
NORM_ATOL = 1e-10
PSD_ATOL = 1e-9
EIGENVALUE_CLIP = 1e-12
# eigvalsh-based positivity validation gets expensive past this dimension
_PSD_CHECK_MAX_DIM = 512
# (-i)^k for k = 0..3 as Python writes 1, -1j, -1, 1j: 1 and -1 carry a
# +0 imaginary part, -i a -0 real part
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def check_register_size(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"register size must be a non-negative integer, got {n!r}")
    if n > MAX_QUBITS:
        raise SizeLimitError(f"register of {n} qubits exceeds the cap of {MAX_QUBITS}")
    return int(n)


def check_probability(x, what: str = "probability") -> float:
    """``x`` as a float in [0, 1]; NaN is refused, and ``what`` names it in the error."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{what} {x} outside [0, 1]")
    return x


def _position(q) -> int:
    if not isinstance(q, bool):
        try:
            return operator.index(q)
        except TypeError:
            pass
    raise ValueError(f"qubit position {q} is not an integer")


def validate_subset(qubits: Iterable[int], n: int, allow_empty: bool = False) -> tuple[int, ...]:
    """Return ``qubits`` as a strictly increasing tuple of register positions.

    Positions must be integers (Python or numpy); a float is refused rather
    than truncated, and a bool is refused too.
    """
    subset = tuple(_position(q) for q in qubits)
    if not subset and not allow_empty:
        raise ValueError("qubit subset must be non-empty")
    for q in subset:
        if q < 0 or q >= n:
            raise ValueError(f"qubit {q} outside register of size {n}")
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate qubits in subset {subset}")
    return tuple(sorted(subset))


def gf2_kernel(rows: Sequence[int], outside: int) -> list[int]:
    """A basis of the elements of span(``rows``) with no bit in ``outside``.

    Gaussian elimination on the ``outside`` bits, carrying whole rows: a
    row that reduces to nothing there joins the basis. ``rows`` must be
    independent for that to be a basis; the number of rows that are not
    kept is the rank of their ``outside`` parts either way.
    """
    pivots: list[tuple[int, int]] = []
    kept = []
    for row in rows:
        for bit, pivot in pivots:
            if row & bit:
                row ^= pivot
        part = row & outside
        if part:
            pivots.append((part & -part, row))
        else:
            kept.append(row)
    return kept


def gf2_rank(rows: Sequence[int]) -> int:
    return len(rows) - len(gf2_kernel(rows, -1))


def pauli_rows(n: int, x_masks, z_masks) -> tuple[np.ndarray, np.ndarray]:
    """(col, power), two (m, 2^n) arrays: row r of the n-qubit Pauli string
    with X on the bits of ``x_masks[i]``, Z on those of ``z_masks[i]`` and
    Y on both (bit n-1-q stands for qubit q) has its one entry,
    (-i)^power[i, r], in column col[i, r] = r ^ x. As Y = -i Z X per
    qubit, power = (#Y + 2 |r & z|) mod 4."""
    x = np.asarray(x_masks, dtype=np.intp)[:, None]
    z = np.asarray(z_masks, dtype=np.intp)[:, None]
    rows = np.arange(2**n)
    ys = ((x & z) >> np.arange(n) & 1).sum(axis=1, keepdims=True)
    rz = rows & z
    # fold the bits of r & z onto bit 0, which ends as their parity
    shift = 1
    while shift < n:
        rz ^= rz >> shift
        shift *= 2
    return rows ^ x, (ys + 2 * (rz & 1)) & 3


def _checked_stabilizer_rows(n: int, amps: np.ndarray, generators: np.ndarray) -> list[int]:
    """The rows of ``generators`` as integers, column j on bit j, or
    ValueError unless it is an (n, 2n) 0/1 matrix whose rows are
    independent and each stabilize ``amps`` up to sign.

    Row (x|z) is, up to phase, the string of ``pauli_rows`` on the masks
    x and z, so |<psi|g|psi>| is that of the sum over r of conj(psi_r)
    (-i)^power psi_col: one (n, 2^n) gather for all rows.
    """
    if generators.shape != (n, 2 * n) or not ((generators == 0) | (generators == 1)).all():
        raise ValueError(f"stabilizer generators must be a 0/1 matrix of shape ({n}, {2 * n})")
    gens = generators.astype(np.int64)
    rows = (gens << np.arange(2 * n)).sum(axis=1).tolist()
    if gf2_rank(rows) != n:
        raise ValueError("stabilizer generators are not independent")
    # big-endian: qubit q is bit n-1-q of a basis index
    x, z = (gens.reshape(n, 2, n) @ (1 << np.arange(n - 1, -1, -1))).T
    col, power = pauli_rows(n, x, z)
    overlaps = (_MINUS_I_POWERS[power] * amps[col]) @ amps.conj()
    if np.abs(overlaps).min(initial=1.0) < 1.0 - NORM_ATOL:
        raise ValueError("stabilizer generators do not stabilize the amplitudes")
    return rows


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit state vector on an ordered qubit register.

    ``stabilizers``, when given, marks a stabilizer state: n independent
    generators of the Paulis that fix it up to sign, as an n x 2n GF(2)
    matrix of (x|z) rows, X on qubit q where x_q = 1 and Z where z_q = 1.
    Attaching them costs a copy; they are checked against the amplitudes
    when ``stabilizer_rows`` is first read.
    """

    n: int
    amplitudes: np.ndarray
    stabilizers: np.ndarray | None = None

    def __post_init__(self):
        n = check_register_size(self.n)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2**n:
            raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got {amps.shape[0]}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"amplitudes are not normalized (norm {norm})")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amplitudes", amps)
        if self.stabilizers is not None:
            gens = np.array(self.stabilizers)
            gens.flags.writeable = False
            object.__setattr__(self, "stabilizers", gens)

    @cached_property
    def stabilizer_rows(self) -> list[int] | None:
        """The stabilizer generators as integers (x_q on bit q, z_q on bit
        n + q), or None without them; ValueError if they are not this
        state's."""
        if self.stabilizers is None:
            return None
        return _checked_stabilizer_rows(self.n, self.amplitudes, self.stabilizers)

    @property
    def dim(self) -> int:
        return 2**self.n

    def density_matrix(self) -> "DensityMatrix":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.n, mat)


def _check_unit_trace(mat: np.ndarray) -> None:
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace must be 1, got {tr}")


def _checked_spectrum(mat: np.ndarray, closed_form: bool = False) -> np.ndarray | list[float]:
    """Ascending eigenvalues of a Hermitian matrix, a 2x2 one's by
    ``_qubit_spectrum`` if ``closed_form``; PositivityError below -PSD_ATOL."""
    lam = _qubit_spectrum(mat) if closed_form and len(mat) == 2 else np.linalg.eigvalsh(mat)
    lo = float(lam[0])
    if lo < -PSD_ATOL:
        raise PositivityError(f"eigenvalue {lo} below -{PSD_ATOL}")
    return lam


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a register.

    ``spectrum`` holds the ascending eigenvalues that the positivity check
    computed, for ``von_neumann_entropy`` to reuse. It is None above
    dimension 512, where that check is skipped.
    """

    n: int
    matrix: np.ndarray
    spectrum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = check_register_size(self.n)
        mat = np.asarray(self.matrix, dtype=complex)
        d = 2**n
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix for {n} qubits, got {mat.shape}")
        # the exact test passes every _hermitize output without the tolerance pass
        adjoint = mat.conj().T
        if not (np.array_equal(mat, adjoint) or np.allclose(mat, adjoint, atol=HERMITIAN_ATOL)):
            raise ValueError("matrix is not Hermitian")
        _check_unit_trace(mat)
        mat = mat.copy()
        mat.flags.writeable = False
        if d <= _PSD_CHECK_MAX_DIM:
            lam = _checked_spectrum(mat)
            lam.flags.writeable = False
            object.__setattr__(self, "spectrum", lam)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return 2**self.n

    def purity(self) -> float:
        """tr rho^2, the squared Frobenius norm of the Hermitian matrix."""
        return float(np.vdot(self.matrix, self.matrix).real)

    def is_pure(self, atol: float = 1e-8) -> bool:
        return self.purity() >= 1.0 - atol


def check_state(state: "PureState | DensityMatrix") -> "PureState | DensityMatrix":
    """``state`` as it is if it is a PureState or DensityMatrix; TypeError
    otherwise."""
    if isinstance(state, (PureState, DensityMatrix)):
        return state
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def _hermitize(mat: np.ndarray) -> np.ndarray:
    """(mat + mat^dagger) / 2 written over ``mat``, a fresh array of the
    caller's, holding one more array of its size, so that a Gram matrix as
    large as the branch rows stays within the three stacks a read may hold."""
    adjoint = mat.T.copy()
    np.conjugate(adjoint, out=adjoint)
    mat += adjoint
    mat /= 2.0
    return mat


def tensor(first: DensityMatrix, second: DensityMatrix) -> DensityMatrix:
    """Tensor product; the first factor occupies the more significant qubits."""
    n = check_register_size(first.n + second.n)
    return DensityMatrix(n, np.kron(first.matrix, second.matrix))


def marginal_matrix(mat: np.ndarray, n: int, keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a raw 2^n x 2^n matrix onto the qubits in ``keep``.

    ``keep`` must already be validated and sorted. The result's qubit order
    is the kept qubits in increasing register order.
    """
    keep = tuple(keep)
    if len(keep) == n:
        return mat
    drop = [q for q in range(n) if q not in keep]
    dk = 2 ** len(keep)
    dd = 2 ** len(drop)
    t = mat.reshape((2,) * (2 * n))
    perm = (
        [q for q in keep]
        + [q for q in drop]
        + [n + q for q in keep]
        + [n + q for q in drop]
    )
    t = t.transpose(perm).reshape(dk, dd, dk, dd)
    return np.einsum("abcb->ac", t)


def partial_trace(state: "PureState | DensityMatrix", keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on ``keep``, a PureState's from its amplitudes (see
    ``pure_marginal``); an empty subset leaves the 1x1 trace."""
    if isinstance(check_state(state), PureState):
        return pure_marginal(state.amplitudes, state.n, keep)
    keep_t = validate_subset(keep, state.n, allow_empty=True)
    if len(keep_t) == state.n:
        return state
    out = marginal_matrix(state.matrix, state.n, keep_t)
    return DensityMatrix(len(keep_t), _hermitize(out))


def _split_rows(rows: np.ndarray, n: int, keep: tuple) -> np.ndarray:
    """The rows v_k as one 2^|keep| x (k 2^(n-|keep|)) matrix M with
    M M^dagger = sum_k tr_rest |v_k><v_k|; a single vector is one row."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim < 2:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2 or rows.shape[1] != 2**n:
        raise ValueError("amplitude vector does not match register size")
    drop = [q for q in range(n) if q not in keep]
    t = rows.reshape((rows.shape[0],) + (2,) * n)
    t = t.transpose([1 + q for q in keep] + [0] + [1 + q for q in drop])
    return t.reshape(2 ** len(keep), -1)


def pure_marginal(amplitudes: np.ndarray, n: int, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state on ``keep`` of a pure vector, or of sum_k |v_k><v_k|
    over the rows v_k of a stack, without forming the full density matrix."""
    keep_t = validate_subset(keep, n, allow_empty=True)
    m = _split_rows(amplitudes, n, keep_t)
    return DensityMatrix(len(keep_t), _hermitize(m @ m.conj().T))


def branch_entropy(rows: np.ndarray, n: int, keep: Iterable[int]) -> float:
    """S of the reduced state on ``keep`` of sum_k |v_k><v_k|, in bits.

    With M as in ``pure_marginal``, M^dagger M is the state of the other
    qubits together with the branch index k and has the same nonzero
    spectrum as M M^dagger; the smaller of the two is read after the
    unit-trace and positivity checks a DensityMatrix would run, a 2x2 one
    (one qubit) by its closed-form spectrum and a larger one by eigvalsh.
    """
    return _branch_entropy(rows, n, validate_subset(keep, n, allow_empty=True))


def _branch_entropy(rows: np.ndarray, n: int, keep: tuple) -> float:
    """``branch_entropy`` on a ``keep`` already validated and sorted."""
    m = _split_rows(rows, n, keep)
    gram = _hermitize(m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m)
    _check_unit_trace(gram)
    return spectrum_entropy(_checked_spectrum(gram, closed_form=True))


def _qubit_spectrum(gram: np.ndarray) -> list[float]:
    """Ascending eigenvalues of a unit-trace Hermitian [[a, b], [b*, d]]:
    lam+ = (a + d + sqrt((a - d)^2 + 4|b|^2)) / 2 and lam- = det / lam+, which
    keeps its relative accuracy where a difference would cancel; a diagonal's exactly."""
    (a, b), (_, d) = gram.tolist()
    a, d, b2 = a.real, d.real, abs(b) ** 2
    hi = (a + d + math.sqrt((a - d) ** 2 + 4.0 * b2)) / 2.0
    return [(a * d - b2) / hi, hi] if b2 else sorted((a, d))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum(lam * log2(lam)) over eigenvalues above the clip floor."""
    lam = rho.spectrum if rho.spectrum is not None else np.linalg.eigvalsh(rho.matrix)
    lo = float(lam[0])
    if lo < -1e-6:
        raise PositivityError(f"eigenvalue {lo} below -1e-6")
    return spectrum_entropy(lam)


def spectrum_entropy(p: np.ndarray | list[float]) -> float:
    """-sum(p * log2(p)) in bits over entries above the clip floor, at least 0:
    over Python floats for up to four entries (a one- or two-qubit spectrum or
    flip law), summed in order as numpy sums a short array, by numpy above."""
    if len(p) > 4:
        p = p[p > EIGENVALUE_CLIP]
        return float(max(0.0, -np.sum(p * np.log2(p))))
    s = 0.0
    for x in p.tolist() if isinstance(p, np.ndarray) else p:
        if x > EIGENVALUE_CLIP:
            s -= x * math.log2(x)
    return max(0.0, s)


def entropy_of_subset(state: "PureState | DensityMatrix", keep: Iterable[int]) -> float:
    if isinstance(state, PureState):
        return branch_entropy(state.amplitudes, state.n, keep)
    return von_neumann_entropy(partial_trace(state, keep))


def purify(rho: DensityMatrix) -> PureState:
    """Pure state on system + reference whose system marginal is ``rho``.

    The reference register holds max(1, ceil(log2 rank)) qubits and is
    appended after the system qubits (less significant bits). A pure input
    yields the input tensored with the all-zero reference state.
    """
    lam, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]
    rank = int(np.sum(lam > EIGENVALUE_CLIP))
    rank = max(rank, 1)
    m = max(1, int(np.ceil(np.log2(rank))))
    check_register_size(rho.n + m)
    coeff = np.zeros((rho.dim, 2**m), dtype=complex)
    for k in range(rank):
        coeff[:, k] = np.sqrt(max(lam[k], 0.0)) * vecs[:, k]
    amps = coeff.reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return PureState(rho.n + m, amps)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(mat)
    lam = np.clip(lam, 0.0, None)
    return (vecs * np.sqrt(lam)) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1]."""
    if rho.n != sigma.n:
        raise ValueError("states live on different registers")
    root = _psd_sqrt(rho.matrix)
    inner = _hermitize(root @ sigma.matrix @ root)
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    val = float(np.sum(np.sqrt(lam)) ** 2)
    return min(max(val, 0.0), 1.0)


def _trace_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the Hermitian difference a - b, unclamped."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma, in [0, 1]."""
    if rho.n != sigma.n:
        raise ValueError("states live on different registers")
    return min(max(_trace_gap(rho.matrix, sigma.matrix), 0.0), 1.0)


def state_distance(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[float, float]:
    """(fidelity, trace distance) pair for two states on one register."""
    return fidelity(rho, sigma), trace_distance(rho, sigma)
