"""Quantum channels as staged Kraus lists, with builders for correlated noise.

A channel acts on the register positions ``qubits`` (0..n-1 unless
declared) and is stored as ``stages``, read-only stacks of Kraus
operators on some of those positions that act in list order, stage 0
first; its Kraus operators are the products of one operator per stage,
identity elsewhere. A caller's Kraus list is one stage on all of
``qubits``, checked to sum_k K^dagger K = I within 1e-9. ``combine``,
``embed`` and ``compose`` only place or chain checked stages, so a
product or a sequence of channels stays factored. One kernel,
``_run_stages``, contracts the stages on their positions' tensor axes of
a stack: on a pure input it gives the measures' branch rows, and on the
identity the dense ``kraus``, formed when first read for ``apply`` and the
Pauli expansion (the error-probability vector of the Pauli twirl).
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeLimitError
from .states import DensityMatrix, _hermitize, _position, check_probability
from .states import check_register_size
from .zoo import _validate_edges, _qubit_bits, haar_unitary

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_LETTERS = "IXYZ"
# (-i)^k for k Y letters, k mod 4
_Y_PHASES = (1.0, -1j, -1.0, 1j)

CPTP_ATOL = 1e-9
# Pauli expansion enumerates 4**n strings; keep that tractable
MAX_EXPANSION_QUBITS = 6
# the largest dense Kraus list a builder may allocate: 4 GiB lets
# build_pairwise_correlated reach n = 9 (513 operators, 2.15 GB)
MAX_KRAUS_BYTES = 2**32


class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form.

    Parameters
    ----------
    kraus : sequence of ndarray
        Square operators of a common power-of-two dimension with
        sum_k K_k^dagger K_k = I, to CPTP_ATOL in every entry.
    qubits : tuple of int, optional
        Strictly increasing register positions the channel acts on when
        applied to a larger register; positions 0..n-1 when omitted.

    ``stages`` holds (ops, positions) pairs, ops a read-only (m, 2^k, 2^k)
    stack on k of the positions in ``qubits``. The stages act in list
    order, stage 0 first, and may share positions; the Kraus index of
    stage 0 runs outermost. ``kraus`` is the tuple of dense operators on
    ``qubits``, formed on first read.
    """

    __slots__ = ("qubits", "stages", "_kraus")

    def __init__(self, kraus, qubits=None):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        n = int(np.log2(d)) if d > 0 else -1
        if d < 1 or 2**n != d:
            raise ValueError(f"Kraus dimension {d} is not a power of two")
        check_register_size(n)
        if any(op.shape != (d, d) for op in ops):
            raise ValueError("Kraus operators must share one square shape")
        stack = np.array(ops)
        # sum_k K^dagger K from one real product over the stack's (re, im)
        # columns, so no conjugate copy of the stack is made
        cols = stack.reshape(-1, d).view(float)
        g = cols.T @ cols
        re, im = g[0::2, 0::2] + g[1::2, 1::2] - np.eye(d), g[0::2, 1::2] - g[1::2, 0::2]
        gap = float(np.hypot(re, im).max())
        if not gap <= CPTP_ATOL:
            raise ValueError(f"Kraus operators are not trace preserving (gap {gap:.2e})")
        pos = _positions(qubits, n)
        self._settle(((stack, pos),), pos)

    def _settle(self, stages: tuple, qubits: tuple) -> None:
        for ops, _ in stages:
            ops.flags.writeable = False
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "_kraus", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuantumChannel is read-only, cannot set {name!r}")

    def __reduce__(self):
        return QuantumChannel._derived, (self.stages, self.qubits)

    @classmethod
    def _derived(cls, stages: tuple, qubits: Iterable[int]) -> "QuantumChannel":
        """A channel whose stages come from checked channels by placement or
        products, which keep sum_k K^dagger K = I: no check runs. ``qubits``
        must be valid positions that hold every stage's, and the stacks
        complex arrays nothing else writes to."""
        channel = object.__new__(cls)
        channel._settle(stages, tuple(qubits))
        return channel

    @property
    def n(self) -> int:
        return len(self.qubits)

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def kraus(self) -> tuple:
        """The dense Kraus operators on ``qubits``, formed on first read."""
        if self._kraus is None:
            object.__setattr__(self, "_kraus", tuple(_dense_kraus(self)))
        return self._kraus


def _positions(qubits, n: int) -> tuple:
    """``qubits`` as the positions of an n-qubit channel, 0..n-1 when None."""
    pos = tuple(range(n)) if qubits is None else tuple(map(_position, qubits))
    if len(pos) != n:
        raise ValueError(f"{n}-qubit channel declared on {len(pos)} positions")
    if sorted(set(pos)) != list(pos):
        raise ValueError(f"positions must be strictly increasing, got {pos}")
    if pos and pos[0] < 0:
        raise ValueError("negative qubit position")
    return pos


def _kraus_count(channel: QuantumChannel) -> int:
    return prod(len(ops) for ops, _ in channel.stages)


def _tensor_stacks(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Left-to-right tensor product of (m_i, d_i, d_i) operator stacks: the
    (prod m_i, prod d_i, prod d_i) stack of products, whose index and
    tensor factors run in list order, the first outermost."""
    out = stacks[0]
    for ops in stacks[1:]:
        m, d = len(out) * len(ops), out.shape[1] * ops.shape[1]
        out = (out[:, None, :, None, :, None] * ops[None, :, None, :, None, :]).reshape(m, d, d)
    return out


def _run_stages(stages: tuple, src: np.ndarray) -> np.ndarray:
    """The stages run in list order on a (b, 2^n, c) stack whose n tensor
    axes are register positions 0..n-1: the (b K, 2^n, c) stack, b's index
    outermost, then stage 0's Kraus index. A stage's (m, 2^k, 2^k)
    operators act on its positions' axes as one (m 2^k, 2^k) product, so
    no padded operator is formed. On a state vector (b = c = 1) this gives
    the branches K psi, on the identity the Kraus operators."""
    b, d, c = src.shape
    n = d.bit_length() - 1
    for ops, pos in stages:
        m, dk = ops.shape[:2]
        rest = [q for q in range(n) if q not in pos]
        t = src.reshape((b,) + (2,) * n + (c,))
        lead = t.transpose([1 + q for q in pos] + [0] + [1 + q for q in rest] + [n + 1])
        out = np.empty((b, m) + (2,) * n + (c,), dtype=complex)
        # the new stack's axes in the order of the product's, so it is written in place
        view = out.transpose([1] + [2 + q for q in pos] + [0] + [2 + q for q in rest] + [n + 2])
        view[...] = (ops.reshape(m * dk, dk) @ lead.reshape(dk, -1)).reshape(view.shape)
        b, src = b * m, out.reshape(b * m, d, c)
    return src


def _dense_kraus(channel: QuantumChannel) -> np.ndarray:
    """The (K, 2^n, 2^n) Kraus stack on the channel's n positions: its one
    stage when that acts on all of them, else the stages run on the
    identity (every builder that leaves other stages places them on
    0..n-1). SizeLimitError if the K operators exceed MAX_KRAUS_BYTES."""
    stages, n = channel.stages, channel.n
    if len(stages) == 1 and stages[0][1] == channel.qubits:
        return stages[0][0]
    _check_kraus_bytes("channel", _kraus_count(channel), n)
    full = _run_stages(stages, np.eye(2**n, dtype=complex)[None])
    full.flags.writeable = False
    return full


def identity_channel(n: int) -> QuantumChannel:
    check_register_size(n)
    return QuantumChannel._derived((), range(n))


def _span(channel: QuantumChannel) -> int:
    """Size of the smallest register that holds the channel's qubits."""
    return channel.qubits[-1] + 1 if channel.qubits else 0


def _check_fit(channel: QuantumChannel, n: int) -> None:
    if _span(channel) > n:
        raise ValueError(f"channel on qubits {channel.qubits} does not fit in {n} qubits")


def embed(channel: QuantumChannel, n: int) -> QuantumChannel:
    """The channel on an n-qubit register, identity on the other qubits.

    Its stages are kept, so the padded operators are formed only when its
    ``kraus`` is read. A channel that already sits on qubits 0..n-1 is
    returned as it is.
    """
    _check_fit(channel, n)
    if channel.qubits == tuple(range(n)):
        return channel
    check_register_size(n)
    return QuantumChannel._derived(channel.stages, range(n))


def apply(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel output sum_k K rho K^dagger, padding sub-register channels."""
    ch = embed(channel, rho.n)
    out = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus)
    return DensityMatrix(rho.n, _hermitize(out))


def _check_kraus_bytes(what: str, count: int, n: int) -> None:
    """Raise SizeLimitError if ``count`` dense n-qubit operators exceed
    MAX_KRAUS_BYTES."""
    size = count * 4**n * 16
    if size > MAX_KRAUS_BYTES:
        raise SizeLimitError(
            f"{what} on {n} qubits needs {size} bytes of Kraus operators, "
            f"over the cap of {MAX_KRAUS_BYTES}"
        )


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """Channel running ``first`` then ``second`` (Kraus products K2 K1).

    Its stages are ``first``'s then ``second``'s, in that order, on one
    past the last qubit either names, so ``first``'s Kraus index runs
    outermost and no operator is formed until ``kraus`` is read. The
    products must fit in MAX_KRAUS_BYTES, or SizeLimitError is raised.
    """
    n = check_register_size(max(_span(second), _span(first)))
    _check_kraus_bytes("compose", _kraus_count(second) * _kraus_count(first), n)
    return QuantumChannel._derived(first.stages + second.stages, range(n))


def _place(channel, qubits) -> QuantumChannel:
    """``channel`` on the register positions ``qubits``, its stages moved
    with it; anything but a QuantumChannel has its Kraus operators checked
    first."""
    if not isinstance(channel, QuantumChannel):
        return QuantumChannel(channel.kraus, qubits=qubits)
    pos = _positions(qubits, channel.n)
    where = dict(zip(channel.qubits, pos))
    stages = tuple((ops, tuple(where[q] for q in qs)) for ops, qs in channel.stages)
    return QuantumChannel._derived(stages, pos)


def combine(parts: Iterable[tuple], n: int | None = None) -> QuantumChannel:
    """Tensor sub-register channels over disjoint qubit sets, identity elsewhere.

    ``parts`` is a list of (channel, qubits) pairs; ``n`` defaults to one
    past the largest qubit named. The result keeps the placed parts'
    stages in order, so part 0's Kraus index runs outermost, and forms no
    operator until its ``kraus`` is read. The product of the parts' Kraus
    counts, as dense n-qubit operators, must fit in MAX_KRAUS_BYTES, or
    SizeLimitError is raised.
    """
    placed = [_place(channel, qubits) for channel, qubits in parts]
    used = [q for part in placed for q in part.qubits]
    if len(set(used)) != len(used):
        raise ValueError(f"overlapping qubit sets in {used}")
    if n is None:
        n = max(used, default=-1) + 1
    check_register_size(n)
    for part in placed:
        _check_fit(part, n)
    stages = tuple(stage for part in placed for stage in part.stages)
    _check_kraus_bytes("combine", prod(map(_kraus_count, placed)), n)
    return QuantumChannel._derived(stages, range(n))


def _filter_kraus(weighted: Sequence[tuple[float, np.ndarray]]) -> tuple:
    ops = tuple(np.sqrt(w) * op for w, op in weighted if w > 0.0)
    return ops


def build_depolarizing(p: float, qubit: int = 0) -> QuantumChannel:
    """Single-qubit depolarizing noise with total Pauli-error probability p.

    The Pauli twirl weights are (1-p, p/3, p/3, p/3); at p = 3/4 any input
    qubit is sent to the maximally mixed state.
    """
    p = check_probability(p)
    weighted = [(1.0 - p, PAULI_I), (p / 3.0, PAULI_X), (p / 3.0, PAULI_Y), (p / 3.0, PAULI_Z)]
    return QuantumChannel(_filter_kraus(weighted), qubits=(qubit,))


def build_dephasing(eps: float, qubit: int = 0) -> QuantumChannel:
    """Single-qubit dephasing: off-diagonal terms shrink by 1 - eps.

    Equivalent to a phase flip with probability eps/2, so |+><+| maps to
    spectrum (1 - eps/2, eps/2).
    """
    eps = check_probability(eps, "strength")
    weighted = [(1.0 - eps / 2.0, PAULI_I), (eps / 2.0, PAULI_Z)]
    return QuantumChannel(_filter_kraus(weighted), qubits=(qubit,))


def _pauli_from_masks(n: int, x_mask: int, z_mask: int) -> np.ndarray:
    """n-qubit Pauli string with X on the bits of ``x_mask``, Z on the bits
    of ``z_mask`` and Y on both; bit n-1-q stands for qubit q.

    Row r holds one entry, in column r ^ x_mask. Since Y = -i Z X per
    qubit, that entry is (-i)^#Y (-1)^(number of z_mask bits set in r).
    """
    d = 2**n
    rows = np.arange(d)
    odd = np.zeros(d, dtype=bool)
    for bit in range(n):
        if z_mask >> bit & 1:
            odd ^= (rows >> bit & 1).astype(bool)
    phase = _Y_PHASES[bin(x_mask & z_mask).count("1") % 4]
    mat = np.zeros((d, d), dtype=complex)
    mat[rows, rows ^ x_mask] = np.where(odd, -phase, phase)
    return mat


def pauli_string_matrix(letters: str) -> np.ndarray:
    x_mask = z_mask = 0
    for ch in letters:
        if ch not in PAULI_LETTERS:
            raise ValueError(f"unknown Pauli letter {ch!r}")
        x_mask = 2 * x_mask + (ch in "XY")
        z_mask = 2 * z_mask + (ch in "YZ")
    return _pauli_from_masks(len(letters), x_mask, z_mask)


def build_correlated_flip(eps: float, pauli: str) -> QuantumChannel:
    """Global two-point mixture: identity with 1 - eps, the full Pauli string with eps."""
    eps = check_probability(eps)
    n = len(pauli)
    check_register_size(n)
    if n < 1:
        raise ValueError("Pauli string must be non-empty")
    weighted = [(1.0 - eps, np.eye(2**n, dtype=complex)), (eps, pauli_string_matrix(pauli))]
    return QuantumChannel(_filter_kraus(weighted))


def check_burst_moments(p1: float, p2: float) -> tuple[float, float]:
    """(p1, p2) as floats, if they are the one- and two-point hit
    probabilities of a burst mixture; ValueError otherwise.

    Feasible iff p1^2 <= p2 <= p1 within [0, 1]. The lower bound is
    checked to a relative 1e-12, so it holds for small p1 as well, where
    an absolute slack would admit any p2 and break the moments.
    """
    p1 = float(p1)
    p2 = float(p2)
    if not 0.0 <= p1 <= 1.0 or not 0.0 <= p2 <= 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    if p2 > p1 + 1e-15 or p1 * p1 > p2 * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"moments (p1={p1}, p2={p2}) violate p1^2 <= p2 <= p1")
    return p1, p2


def build_pairwise_correlated(n: int, p1: float, p2: float, basis: str = "X") -> QuantumChannel:
    """Correlated flips with prescribed one- and two-point hit probabilities.

    A burst occurs with probability pi = p1^2 / p2; within a burst every
    qubit independently flips with probability h = p2 / p1. The per-qubit
    hit probability is then p1 and the joint hit probability of any pair is
    p2. Feasible iff p1^2 <= p2 <= p1. Its 2^n + 1 dense operators must
    fit in MAX_KRAUS_BYTES, or SizeLimitError is raised before any is built.
    """
    n = check_register_size(n)
    if n < 1:
        raise ValueError("register must be non-empty")
    p1, p2 = check_burst_moments(p1, p2)
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"flip basis must be X, Y or Z, got {basis!r}")
    _check_kraus_bytes("pairwise_correlated", 2**n + 1, n)
    eye = np.eye(2**n, dtype=complex)
    if p1 == 0.0 or p2 == 0.0:
        return QuantumChannel((eye,))
    h = p2 / p1
    pi = p1 * p1 / p2
    x_on, z_on = basis in "XY", basis in "YZ"
    weighted = [(1.0 - pi, eye)]
    for mask in range(2**n):
        w = pi
        for q in range(n):
            w *= h if mask >> (n - 1 - q) & 1 else (1.0 - h)
        weighted.append((w, _pauli_from_masks(n, mask * x_on, mask * z_on)))
    return QuantumChannel(_filter_kraus(weighted))


def build_random_unitary_noise(n: int, eps: float, seed: int) -> QuantumChannel:
    """Unitary exp(-i eps H) for a seeded Gaussian Hermitian H of unit spectral radius."""
    n = check_register_size(n)
    if n < 1:
        raise ValueError("register must be non-empty")
    eps = float(eps)
    rng = np.random.default_rng(seed)
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    lam, vecs = np.linalg.eigh(h)
    radius = float(np.max(np.abs(lam)))
    lam = lam / radius
    u = (vecs * np.exp(-1j * eps * lam)) @ vecs.conj().T
    return QuantumChannel((u,))


def build_cluster_noise(
    n: int, edges: Sequence[Sequence[int]], eps: float, seed: int
) -> QuantumChannel:
    """With probability eps, apply the CZ circuit of ``edges`` dressed by
    seeded random single-qubit layers on both sides; otherwise do nothing.

    An empty edge list degenerates to a mixture of single-qubit unitaries,
    which is a product channel.
    """
    n = check_register_size(n)
    if n < 1:
        raise ValueError("register must be non-empty")
    eps = check_probability(eps)
    edge_list = _validate_edges(n, edges)
    rng = np.random.default_rng(seed)
    # two layers of n one-qubit unitaries, the first drawn first
    pre, post = [
        _tensor_stacks([haar_unitary(2, rng)[None] for _ in range(n)])[0] for _layer in range(2)
    ]
    cz_diag = np.ones(2**n, dtype=complex)
    for i, j in edge_list:
        both = (_qubit_bits(n, i) & _qubit_bits(n, j)).astype(bool)
        cz_diag[both] *= -1.0
    u = post @ (cz_diag[:, None] * pre)
    weighted = [(1.0 - eps, np.eye(2**n, dtype=complex)), (eps, u)]
    return QuantumChannel(_filter_kraus(weighted))


def pauli_weight_table(n: int) -> np.ndarray:
    """Support size (count of non-identity letters) for every base-4 index."""
    weights = np.zeros(4**n, dtype=int)
    idx = np.arange(4**n)
    for q in range(n):
        digit = (idx // 4 ** (n - 1 - q)) % 4
        weights += (digit != 0).astype(int)
    return weights


# Row a holds P_a transposed and flattened, so that the per-qubit tensor
# contraction below computes Tr(P K) factors.
_PAULI_XFORM = np.stack([p.T.reshape(4) for p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)])


def _pauli_coefficients(op: np.ndarray, n: int) -> np.ndarray:
    t = op.reshape((2,) * (2 * n))
    order = [ax for i in range(n) for ax in (i, n + i)]
    t = t.transpose(order).reshape((4,) * n) if n > 0 else t
    for ax in range(n):
        t = np.moveaxis(np.tensordot(_PAULI_XFORM, t, axes=([1], [ax])), 0, ax)
    return t.reshape(-1) / 2**n


def pauli_expansion(channel: QuantumChannel) -> np.ndarray:
    """Pauli-twirl error probabilities q(P) = sum_k |Tr(P K_k)|^2 / 4^n.

    Returns the read-only vector of all 4^n probabilities, indexed by base-4
    strings with digits I=0, X=1, Y=2, Z=3 and qubit 0 as the most
    significant digit, matching the register bit order: on two qubits "XZ"
    is entry 4*1 + 3.
    """
    n = channel.n
    if n > MAX_EXPANSION_QUBITS:
        raise SizeLimitError(
            f"Pauli expansion supports up to {MAX_EXPANSION_QUBITS} qubits, got {n}"
        )
    q = np.zeros(4**n)
    for op in channel.kraus:
        coeff = _pauli_coefficients(op, n)
        q += np.abs(coeff) ** 2
    q.flags.writeable = False
    return q
