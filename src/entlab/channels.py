"""Quantum channels as staged Kraus lists, with builders for correlated noise.

A channel acts on the register positions ``qubits`` (0..n-1 unless
declared) and is stored as ``stages``, read-only stacks of Kraus
operators on some of those positions that act in list order, stage 0
first; its Kraus operators are the products of one operator per stage,
identity elsewhere. A caller's Kraus list or (m, d, d) stack is copied
once into one stage on all of ``qubits`` and checked once, to
sum_k K^dagger K = I within 1e-9 in every entry. ``combine``, ``embed``
and ``compose`` only place or chain stages, so a product or a sequence
of channels stays factored, whatever its Kraus count. One kernel,
``_run_stages``, contracts the stages on their positions' tensor axes of
a stack: on a pure input it gives the measures' branch rows, and on the
identity the dense ``kraus``, formed when first read for ``apply`` and
the Pauli expansion (the error-probability vector of the Pauli twirl).
It alone applies the size rule of a read, MAX_KRAUS_BYTES.

The builders form their whole Kraus stack in one vectorized pass, with
no loop over operators, and hand it to the channel as one stage with no
copy and no check: each is a mixture of unitaries with weights summing
to 1, trace preserving by construction, as the property test
``test_builders_are_trace_preserving`` checks over every builder's
parameter range. The four Pauli builders end in ``_pauli_mixture``, one
scatter of sqrt(w) P into a zero stack for every string of positive
weight, and the cluster builder scales its fresh stack in place, so no
builder holds a second stack.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeLimitError
from .states import _MINUS_I_POWERS, DensityMatrix, _hermitize, _position, check_probability
from .states import check_register_size, pauli_rows
from .zoo import _apply_cz, _haar_unitaries, _validate_edges

PAULI_LETTERS = "IXYZ"

CPTP_ATOL = 1e-9
# Pauli expansion enumerates 4**n strings; keep that tractable
MAX_EXPANSION_QUBITS = 6
# the most a read of the stages (``_run_stages``) may hold and a builder's
# dense Kraus list may take: 4 GiB reads dephasing on each of 12 qubits
# and builds build_pairwise_correlated up to n = 9 (513 operators, 2.15 GB)
MAX_KRAUS_BYTES = 2**32
# build_random_unitary_noise's dense eigh: 18 s at n = 11, 155 s and 1.6 GB at 12
MAX_RANDOM_UNITARY_QUBITS = 11


class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form.

    Parameters
    ----------
    kraus : sequence of ndarray, or an (m, d, d) ndarray
        Square operators of a common power-of-two dimension with
        sum_k K_k^dagger K_k = I to CPTP_ATOL in every entry, checked once
        here; the channel keeps its own copy.
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
        ops = [np.asarray(k) for k in kraus]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        n = int(np.log2(d)) if d > 0 else -1
        if d < 1 or 2**n != d:
            raise ValueError(f"Kraus dimension {d} is not a power of two")
        check_register_size(n)
        if any(op.shape != (d, d) for op in ops):
            raise ValueError("Kraus operators must share one square shape")
        # the one copy: the caller's arrays stay theirs to write
        stack = np.array(ops, dtype=complex)
        # sum_k K^dagger K from one real product over the stack's (re, im)
        # columns, so no conjugate copy of the stack is made; its real and
        # imaginary parts, less I, are formed in place
        cols = stack.reshape(-1, d).view(float)
        g = cols.T @ cols
        re, im = g[0::2, 0::2], g[0::2, 1::2]
        re += g[1::2, 1::2]
        im -= g[1::2, 0::2]
        re[np.diag_indices(d)] -= 1.0
        gap = float(np.hypot(re, im, out=re).max())
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
        """A channel on stages that need no check: a builder's one stack,
        trace preserving by construction, or stages placed or chained from
        channels. ``qubits`` must be valid positions that hold every
        stage's, and the stacks complex arrays nothing else writes to."""
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


def _run_stages(stages: tuple, n: int, psi: np.ndarray | None = None) -> np.ndarray:
    """The stages run in list order on the 2^n amplitudes ``psi``, whose n
    tensor axes are register positions 0..n-1, or on the identity when
    ``psi`` is None: the (K, 2^n, c) stack of the branches K psi (c = 1)
    or of the Kraus operators (c = 2^n), stage 0's index outermost. A
    stage's (m, 2^k, 2^k) operators act on its positions' axes as one
    (m 2^k, 2^k) product, so no padded operator is formed.

    The size rule of every read: SizeLimitError before anything is
    allocated if 3 times the result's bytes exceed MAX_KRAUS_BYTES, since
    a stage holds at most two stacks of the result's size (the product
    and its reordered copy) and a leak read three (the rows, their
    reordered copy and its conjugate).
    """
    d = 2**n
    c = d if psi is None else 1
    count = prod(len(ops) for ops, _ in stages)
    _check_kraus_bytes(f"a read of {count} Kraus products", n, 3 * count * d * c * 16)
    src = np.eye(d, dtype=complex) if psi is None else psi
    b = 1
    for ops, pos in stages:
        m, dk = ops.shape[:2]
        rest = [q for q in range(n) if q not in pos]
        axes = [1 + q for q in pos] + [0] + [1 + q for q in rest] + [n + 1]
        # the stack read is freed once copied, and the product once placed
        lead = src.reshape((b,) + (2,) * n + (c,)).transpose(axes).reshape(dk, -1)
        del src
        lead = ops.reshape(m * dk, dk) @ lead
        src = np.empty((b, m) + (2,) * n + (c,), dtype=complex)
        # the new stack's axes in the order of the product's, so it is written in place
        view = src.transpose([1] + [2 + q for q in pos] + [0] + [2 + q for q in rest] + [n + 2])
        view[...] = lead.reshape(view.shape)
        del lead
        b *= m
    return src.reshape(b, d, c)


def _dense_kraus(channel: QuantumChannel) -> np.ndarray:
    """The (K, 2^n, 2^n) Kraus stack on the channel's n positions: its one
    stage when that acts on all of them, else the stages run on the
    identity (every builder that leaves other stages places them on
    0..n-1), which ``_run_stages`` forms only if its size rule passes."""
    stages = channel.stages
    if len(stages) == 1 and stages[0][1] == channel.qubits:
        return stages[0][0]
    full = _run_stages(stages, channel.n)
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


def _check_kraus_bytes(what: str, n: int, size: int) -> None:
    """SizeLimitError if ``what`` on n qubits needs more than MAX_KRAUS_BYTES."""
    if size > MAX_KRAUS_BYTES:
        raise SizeLimitError(
            f"{what} on {n} qubits needs {size} bytes, over the cap of {MAX_KRAUS_BYTES}"
        )


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """Channel running ``first`` then ``second`` (Kraus products K2 K1).

    Its stages are ``first``'s then ``second``'s, in that order, on one
    past the last qubit either names, so ``first``'s Kraus index runs
    outermost and no operator is formed until ``kraus`` is read; a read
    over MAX_KRAUS_BYTES is refused then (``_run_stages``).
    """
    n = check_register_size(max(_span(second), _span(first)))
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
    operator until its ``kraus`` is read; a read over MAX_KRAUS_BYTES is
    refused then (``_run_stages``).
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
    return QuantumChannel._derived(stages, range(n))


def _pauli_strings(n: int, x_masks, z_masks, scale=None) -> np.ndarray:
    """The (m, 2^n, 2^n) stack of the n-qubit Pauli strings that
    ``pauli_rows`` places, string i times ``scale[i]`` if given. Entries
    are read from the table _MINUS_I_POWERS, so equal entries have equal
    bytes, signed zeros included, and one scatter writes them into zeros.
    """
    col, power = pauli_rows(n, x_masks, z_masks)
    entries = _MINUS_I_POWERS[power]
    if scale is not None:
        entries = np.asarray(scale, dtype=float)[:, None] * entries
    out = np.zeros((len(col), 2**n, 2**n), dtype=complex)
    out[np.arange(len(col))[:, None], np.arange(2**n), col] = entries
    return out


def _one_stage(stack: np.ndarray, qubits=None) -> QuantumChannel:
    """A builder's fresh (m, 2^n, 2^n) ``stack``, trace preserving by
    construction, as one unchecked stage on ``qubits`` (0..n-1 if None)."""
    pos = _positions(qubits, stack.shape[1].bit_length() - 1)
    return QuantumChannel._derived(((stack, pos),), pos)


def _pauli_mixture(n: int, x_masks, z_masks, weights, qubits=None) -> QuantumChannel:
    """The mixture of the n-qubit Pauli strings (x, z) with ``weights``
    (sum 1) as one stage on ``qubits``: its Kraus stack is sqrt(w_i) P_i,
    in order and without the strings of weight 0, written by one scatter."""
    w = np.asarray(weights, dtype=float)
    keep = w > 0.0
    x, z = np.asarray(x_masks)[keep], np.asarray(z_masks)[keep]
    return _one_stage(_pauli_strings(n, x, z, np.sqrt(w[keep])), qubits)


def build_depolarizing(p: float, qubit: int = 0) -> QuantumChannel:
    """Single-qubit depolarizing noise with total Pauli-error probability p.

    The Pauli twirl weights are (1-p, p/3, p/3, p/3) on I, X, Y, Z; at
    p = 3/4 any input qubit is sent to the maximally mixed state.
    """
    p = check_probability(p)
    weights = (1.0 - p, p / 3.0, p / 3.0, p / 3.0)
    return _pauli_mixture(1, (0, 1, 1, 0), (0, 0, 1, 1), weights, (qubit,))


def build_dephasing(eps: float, qubit: int = 0) -> QuantumChannel:
    """Single-qubit dephasing: off-diagonal terms shrink by 1 - eps.

    Equivalent to a phase flip with probability eps/2, so |+><+| maps to
    spectrum (1 - eps/2, eps/2).
    """
    eps = check_probability(eps, "strength")
    weights = (1.0 - eps / 2.0, eps / 2.0)
    return _pauli_mixture(1, (0, 0), (0, 1), weights, (qubit,))  # I and Z


def _pauli_masks(letters: str) -> tuple[int, int]:
    """The (x, z) masks of a Pauli string's letters, qubit 0 first."""
    x_mask = z_mask = 0
    for ch in letters:
        if ch not in PAULI_LETTERS:
            raise ValueError(f"unknown Pauli letter {ch!r}")
        x_mask = 2 * x_mask + (ch in "XY")
        z_mask = 2 * z_mask + (ch in "YZ")
    return x_mask, z_mask


def pauli_string_matrix(letters: str) -> np.ndarray:
    """The 2^n x 2^n matrix of an n-letter Pauli string, qubit 0 first."""
    x_mask, z_mask = _pauli_masks(letters)
    return _pauli_strings(len(letters), [x_mask], [z_mask])[0]


def build_correlated_flip(eps: float, pauli: str) -> QuantumChannel:
    """Global two-point mixture: identity with 1 - eps, the full Pauli string with eps."""
    eps = check_probability(eps)
    n = len(pauli)
    check_register_size(n)
    if n < 1:
        raise ValueError("Pauli string must be non-empty")
    x_mask, z_mask = _pauli_masks(pauli)
    return _pauli_mixture(n, (0, x_mask), (0, z_mask), (1.0 - eps, eps))


def check_burst_moments(p1: float, p2: float) -> tuple[float, float]:
    """(p1, p2) as floats, if they are the one- and two-point hit
    probabilities of a burst mixture; ValueError otherwise.

    Feasible iff p1^2 <= p2 <= p1 within [0, 1], both bounds to a relative
    1e-12: at small p1 an absolute slack would admit a burst weight p1^2/p2
    or flip probability p2/p1 far above 1, and no longer trace preserving.
    """
    p1, p2 = float(p1), float(p2)
    if not 0.0 <= p1 <= 1.0 or not 0.0 <= p2 <= 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    if p2 > p1 * (1.0 + 1e-12) or p1 * p1 > p2 * (1.0 + 1e-12):
        raise ValueError(f"moments (p1={p1}, p2={p2}) violate p1^2 <= p2 <= p1")
    return p1, p2


def build_pairwise_correlated(n: int, p1: float, p2: float, basis: str = "X") -> QuantumChannel:
    """Correlated flips with prescribed one- and two-point hit probabilities.

    A burst occurs with probability pi = p1^2 / p2; within a burst every
    qubit independently flips with probability h = p2 / p1. The per-qubit
    hit probability is then p1 and the joint hit probability of any pair is
    p2. Feasible iff p1^2 <= p2 <= p1. The Kraus operators are the
    identity, then the flip string of every mask of flipped qubits in
    order 0..2^n-1, each times the square root of its weight and none of
    weight 0; one scatter writes them all into one stack. Its 2^n + 1 dense
    operators must fit in MAX_KRAUS_BYTES, or SizeLimitError is raised
    before any is built.
    """
    n = check_register_size(n)
    if n < 1:
        raise ValueError("register must be non-empty")
    p1, p2 = check_burst_moments(p1, p2)
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"flip basis must be X, Y or Z, got {basis!r}")
    _check_kraus_bytes("pairwise_correlated", n, (2**n + 1) * 4**n * 16)
    if p1 == 0.0 or p2 == 0.0:
        return _pauli_mixture(n, [0], [0], [1.0])
    h = p2 / p1
    pi = p1 * p1 / p2
    # a mask's burst weight pi prod_q (h or 1 - h), multiplied qubit by qubit
    masks = np.arange(2**n)
    burst = np.full(2**n, pi)
    for q in range(n):
        burst *= np.where(masks >> (n - 1 - q) & 1, h, 1.0 - h)
    weights = np.concatenate(([1.0 - pi], burst))
    masks = np.concatenate(([0], masks))
    x_on, z_on = basis in "XY", basis in "YZ"
    return _pauli_mixture(n, masks * x_on, masks * z_on, weights)


def build_random_unitary_noise(n: int, eps: float, seed: int) -> QuantumChannel:
    """Unitary exp(-i eps H) for a seeded Gaussian Hermitian H of unit spectral radius.

    ``eps`` must be finite. H is dense: above MAX_RANDOM_UNITARY_QUBITS (11)
    qubits SizeLimitError is raised before anything is drawn."""
    n = check_register_size(n)
    if n < 1:
        raise ValueError("register must be non-empty")
    if n > MAX_RANDOM_UNITARY_QUBITS:
        raise SizeLimitError(f"random unitary noise on {n} > {MAX_RANDOM_UNITARY_QUBITS} qubits")
    eps = float(eps)
    if not np.isfinite(eps):
        raise ValueError(f"noise strength must be finite, got {eps}")
    rng = np.random.default_rng(seed)
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lam, vecs = np.linalg.eigh(_hermitize(g))
    lam = lam / float(np.max(np.abs(lam)))
    u = (vecs * np.exp(-1j * eps * lam)) @ vecs.conj().T
    return _one_stage(u[None])


def build_cluster_noise(
    n: int, edges: Sequence[Sequence[int]], eps: float, seed: int
) -> QuantumChannel:
    """With probability eps, apply the CZ circuit of ``edges`` dressed by
    seeded random single-qubit layers on both sides; otherwise do nothing.

    The 2n one-qubit Haar unitaries come from one draw and one stacked QR,
    the first layer's n first, each the same as a ``haar_unitary(2, rng)``
    call in that order would give. An empty edge list degenerates to a
    mixture of single-qubit unitaries, which is a product channel.
    """
    n = check_register_size(n)
    if n < 1:
        raise ValueError("register must be non-empty")
    eps = check_probability(eps)
    edge_list = _validate_edges(n, edges)
    rng = np.random.default_rng(seed)
    # the n one-qubit unitaries of the first layer, then those of the second,
    # each layer tensored left to right, both by one broadcast product a qubit
    layers = _haar_unitaries(2 * n, 2, rng).reshape(2, n, 2, 2)
    both = layers[:, 0]
    for q in range(1, n):
        d = 2 ** (q + 1)
        both = (both[:, :, None, :, None] * layers[:, q, None, :, None, :]).reshape(2, d, d)
    pre, post = both
    cz_diag = np.ones(2**n, dtype=complex)
    _apply_cz(cz_diag, n, edge_list)
    u = post @ (cz_diag[:, None] * pre)
    ops = np.stack((np.eye(2**n, dtype=complex), u))
    w = np.array((1.0 - eps, eps))
    ops *= np.sqrt(w)[:, None, None]
    # a term of weight 0 (eps 0 or 1) is dropped, the one case that copies
    return _one_stage(ops if w.all() else ops[w > 0.0])


def pauli_weight_table(n: int) -> np.ndarray:
    """Support size (count of non-identity letters) for every base-4 index."""
    weights = np.zeros(4**n, dtype=int)
    idx = np.arange(4**n)
    for q in range(n):
        digit = (idx // 4 ** (n - 1 - q)) % 4
        weights += (digit != 0).astype(int)
    return weights


# Row a holds the one-qubit string a (I, X, Y, Z) transposed and flattened,
# so that the per-qubit tensor contraction below computes Tr(P K) factors.
_PAULI_XFORM = _pauli_strings(1, (0, 1, 1, 0), (0, 0, 1, 1)).transpose(0, 2, 1).reshape(4, 4)


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
