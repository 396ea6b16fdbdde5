"""Quantum channels as stages of Kraus stacks and Pauli tables, with
builders for correlated noise.

A channel acts on the register positions ``qubits`` (0..n-1 unless
declared) and is stored as ``stages`` that act in list order, stage 0
first, each on some of those positions; its Kraus operators are the
products of one operator per stage, identity elsewhere. A stage is a
read-only (m, 2^k, 2^k) Kraus stack, or a PAULI_TABLE array of Pauli
strings and weights whose operators sqrt(w) P are formed only when read.
A caller's Kraus list is copied once into one stack stage and checked
once, to sum_k K^dagger K = I within 1e-9 in every entry. The builders
are mixtures of unitaries, trace preserving by construction, and run no
check (``test_builders_are_trace_preserving`` checks their ``kraus``);
the four Pauli builders end in ``_pauli_mixture``, which makes one
table, so none of them allocates a stack. ``combine``, ``embed`` and
``compose`` only place or chain stages, so a product or a sequence of
channels stays factored, whatever its Kraus count.

The reads:
- ``_run_stages`` contracts the stages on their positions' tensor axes of
  a stack, a table by a gather of its strings' rows: on a pure input it
  gives the measures' branch rows, on the identity the dense ``kraus``;
- tables on disjoint positions give ``kraus`` as one scatter of their
  product strings;
- ``_pauli_law`` XOR-convolves the stages' own Pauli laws, with no
  operator formed: the twirl that ``pauli_expansion`` returns (read from
  ``kraus`` only when two stacks share a qubit), and for tables the law
  of the strings' Z/Y flip patterns, which is their output on |+>^m.
The reads that form operators or rows share one size rule,
MAX_KRAUS_BYTES (``_check_read``).
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
# the most a read that forms Kraus operators or branch rows may hold (three
# times its result, ``_check_read``): 4 GiB reads the branch rows of
# dephasing on each of 12 qubits and the ``kraus`` of
# build_pairwise_correlated up to n = 8 (257 operators, 269 MiB)
MAX_KRAUS_BYTES = 2**32
# build_random_unitary_noise's dense eigh: 18 s at n = 11, 155 s and 1.6 GB at 12
MAX_RANDOM_UNITARY_QUBITS = 11


# A Pauli table stage: a 1-D array of k-qubit strings, string i with X on
# the bits of x, Z on those of z and Y on both (bit k-1-j for the stage's
# j-th position, as ``pauli_rows`` places them), and weight w > 0, the
# weights summing to 1. Its Kraus operators are sqrt(w) P in table order,
# formed only by a read that needs them.
PAULI_TABLE = np.dtype([("x", np.intp), ("z", np.intp), ("w", float)])


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
    stack or a PAULI_TABLE array of m strings on k of the positions in
    ``qubits``. The stages act in list order, stage 0 first, and may share
    positions; the Kraus index of stage 0 runs outermost. ``kraus`` is the
    tuple of dense operators on ``qubits``, formed on first read.
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
        """A channel on stages that need no check: a builder's one stack or
        table, trace preserving by construction, or stages placed or
        chained from channels. ``qubits`` must be valid positions that hold
        every stage's, and the stacks complex arrays nothing else writes to."""
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


def _check_read(count: int, n: int, c: int) -> None:
    """The size rule of every read of ``count`` Kraus products on n qubits
    applied to c columns (c = 1 for branch rows, 2^n for the operators):
    SizeLimitError before anything is allocated if 3 times the result's
    bytes exceed MAX_KRAUS_BYTES, since a stage holds at most two stacks of
    the result's size (the product and its reordered copy) and a leak read
    three (the rows, their reordered copy and its conjugate)."""
    size = 3 * count * 2**n * c * 16
    if size > MAX_KRAUS_BYTES:
        raise SizeLimitError(
            f"a read of {count} Kraus products on {n} qubits needs {size} bytes, "
            f"over the cap of {MAX_KRAUS_BYTES}"
        )


def _run_stages(stages: tuple, n: int, psi: np.ndarray | None = None) -> np.ndarray:
    """The stages run in list order on the 2^n amplitudes ``psi``, whose n
    tensor axes are register positions 0..n-1, or on the identity when
    ``psi`` is None: the (K, 2^n, c) stack of the branches K psi (c = 1)
    or of the Kraus operators (c = 2^n), stage 0's index outermost, under
    the size rule of ``_check_read``. A stack stage's (m, 2^k, 2^k)
    operators act on its positions' axes as one (m 2^k, 2^k) product, and
    a table's strings as one gather of rows scaled by sqrt(w) (-i)^power,
    so no padded operator, and no operator of a table, is formed.
    """
    d = 2**n
    c = d if psi is None else 1
    _check_read(prod(len(ops) for ops, _ in stages), n, c)
    src = np.eye(d, dtype=complex) if psi is None else psi
    b = 1
    for ops, pos in stages:
        m, dk = len(ops), 2 ** len(pos)
        rest = [q for q in range(n) if q not in pos]
        axes = [1 + q for q in pos] + [0] + [1 + q for q in rest] + [n + 1]
        # the stack read is freed once copied, and the product once placed
        lead = src.reshape((b,) + (2,) * n + (c,)).transpose(axes).reshape(dk, -1)
        del src
        if ops.dtype == PAULI_TABLE:
            # row r of string i is (-i)^power[i, r] times row col[i, r]
            col, power = pauli_rows(len(pos), ops["x"], ops["z"])
            lead = lead[col]
            lead *= (np.sqrt(ops["w"])[:, None] * _MINUS_I_POWERS[power])[:, :, None]
        else:
            lead = ops.reshape(m * dk, dk) @ lead
        src = np.empty((b, m) + (2,) * n + (c,), dtype=complex)
        # the new stack's axes in the order of the product's, so it is written in place
        view = src.transpose([1] + [2 + q for q in pos] + [0] + [2 + q for q in rest] + [n + 2])
        view[...] = lead.reshape(view.shape)
        del lead
        b *= m
    return src.reshape(b, d, c)


def _tables(stages: tuple) -> bool:
    return all(ops.dtype == PAULI_TABLE for ops, _ in stages)


def _disjoint_tables(channel: QuantumChannel) -> tuple | None:
    """The channel's stages with positions renumbered 0..n-1 over its
    ``qubits``, if they are all tables on disjoint positions; else None."""
    where = {q: i for i, q in enumerate(channel.qubits)}
    used = [q for _, pos in channel.stages for q in pos]
    if not _tables(channel.stages) or len(set(used)) != len(used):
        return None
    return tuple((table, tuple(where[q] for q in pos)) for table, pos in channel.stages)


def _lift(masks: np.ndarray, pos: tuple, n: int) -> np.ndarray:
    """A stage's masks (bit k-1-j for its j-th position) as n-qubit masks."""
    k = len(pos)
    if pos == tuple(range(n)):
        return masks
    out = np.zeros_like(masks)
    for j, q in enumerate(pos):
        out |= (masks >> (k - 1 - j) & 1) << (n - 1 - q)
    return out


def _table_kraus(stages: tuple, n: int) -> np.ndarray:
    """The Kraus stack of tables on disjoint positions of 0..n-1: one
    scatter of their product strings, stage 0's index outermost, each
    scaled by the product of its factors' sqrt(w) in stage order."""
    _check_read(prod(len(table) for table, _ in stages), n, 2**n)
    x = z = np.zeros(1, dtype=np.intp)
    scale = np.ones(1)
    for table, pos in stages:
        x = (x[:, None] | _lift(table["x"], pos, n)).reshape(-1)
        z = (z[:, None] | _lift(table["z"], pos, n)).reshape(-1)
        scale = (scale[:, None] * np.sqrt(table["w"])).reshape(-1)
    return _pauli_strings(n, x, z, scale)


def _dense_kraus(channel: QuantumChannel) -> np.ndarray:
    """The read-only (K, 2^n, 2^n) Kraus stack on the channel's n
    positions: one scatter for tables on disjoint positions, the one stack
    stage when that acts on all of them, else the stages run on the
    identity (every builder that leaves other stages places them on
    0..n-1). Either read is formed only if its size rule passes."""
    stages, tables = channel.stages, _disjoint_tables(channel)
    if tables is None and len(stages) == 1 and stages[0][1] == channel.qubits:
        return stages[0][0]
    full = _run_stages(stages, channel.n) if tables is None else _table_kraus(tables, channel.n)
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


def compose(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """Channel running ``first`` then ``second`` (Kraus products K2 K1).

    Its stages are ``first``'s then ``second``'s, in that order, on one
    past the last qubit either names, so ``first``'s Kraus index runs
    outermost and no operator is formed until ``kraus`` is read; a read
    over MAX_KRAUS_BYTES is refused then (``_check_read``).
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
    refused then (``_check_read``).
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


def _one_stage(stack: np.ndarray) -> QuantumChannel:
    """A builder's fresh (m, 2^n, 2^n) ``stack``, trace preserving by
    construction, as one unchecked stage on 0..n-1."""
    pos = tuple(range(stack.shape[1].bit_length() - 1))
    return QuantumChannel._derived(((stack, pos),), pos)


def _pauli_mixture(n: int, x_masks, z_masks, weights, qubits=None) -> QuantumChannel:
    """The mixture of the n-qubit Pauli strings (x, z) with ``weights``
    (sum 1) as one table stage on ``qubits``, in order and without the
    strings of weight 0; no operator is formed."""
    w = np.asarray(weights, dtype=float)
    keep = w > 0.0
    table = np.empty(np.count_nonzero(keep), dtype=PAULI_TABLE)
    table["x"], table["z"], table["w"] = np.asarray(x_masks)[keep], np.asarray(z_masks)[keep], w[keep]
    pos = _positions(qubits, n)
    return QuantumChannel._derived(((table, pos),), pos)


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
    1e-12: at small p1 an absolute slack would admit moments whose burst
    weight p1^2/p2 or flip probability p2/p1 lies far above 1, which
    ``_burst_mixture``'s clip would then hide rather than fit.
    """
    p1, p2 = float(p1), float(p2)
    if not 0.0 <= p1 <= 1.0 or not 0.0 <= p2 <= 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    if p2 > p1 * (1.0 + 1e-12) or p1 * p1 > p2 * (1.0 + 1e-12):
        raise ValueError(f"moments (p1={p1}, p2={p2}) violate p1^2 <= p2 <= p1")
    return p1, p2


def _burst_mixture(p1: float, p2: float) -> tuple[float, float]:
    """The burst mixture's (pi, h) for checked moments (p1, p2): h = min(p2 / p1, 1)
    and pi = min(p1 / h, 1), clipped to stay probabilities at the feasibility
    edges; (0, 0) at p1 = 0, and pi = 1 where p2 / p1 underflows to 0."""
    p1, p2 = check_burst_moments(p1, p2)
    if p1 == 0.0:
        return 0.0, 0.0
    h = min(p2 / p1, 1.0)
    return (min(p1 / h, 1.0) if h > 0.0 else 1.0), h


def build_pairwise_correlated(n: int, p1: float, p2: float, basis: str = "X") -> QuantumChannel:
    """Correlated flips with prescribed one- and two-point hit probabilities.

    The table is the hit-pattern law of ``sync.fit_mixture``'s burst model:
    a burst occurs with probability pi = min(p1 / h, 1), and within a burst
    every qubit independently flips with probability h = min(p2 / p1, 1).
    The per-qubit hit probability is then p1 and the joint hit probability
    of any pair is p2. Feasible iff p1^2 <= p2 <= p1. The table's strings
    are the identity, then the flip string of every mask of flipped qubits
    in order 0..2^n-1, with zero weights dropped; its Kraus operators are
    formed only when ``kraus`` is read, under the size rule of a read.
    """
    n = check_register_size(n)
    if n < 1:
        raise ValueError("register must be non-empty")
    pi, h = _burst_mixture(p1, p2)
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"flip basis must be X, Y or Z, got {basis!r}")
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
    """Support size (count of non-identity letters) for every base-4 index:
    each qubit appends a base-4 digit, which adds 1 unless it is I."""
    weights = np.zeros(1, dtype=int)
    for _ in range(n):
        weights = (weights[:, None] + (np.arange(4) != 0)).reshape(-1)
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


def _stage_law(ops, k: int, twirl: bool) -> np.ndarray:
    """A stage's own law on its k positions, local qubit 0 most significant:
    a table's weights binned by string (by z mask alone unless ``twirl``),
    or the twirl sum_K |Tr(P K)|^2 / 4^k of a stack or a ``kraus`` tuple."""
    if not twirl:
        return np.bincount(ops["z"], ops["w"], 2**k)
    if getattr(ops, "dtype", None) == PAULI_TABLE:
        # digit 2 z + (x xor z) per qubit, I, X, Y, Z = 0..3: z's bits to the even places
        interleave = (*range(0, 2 * k, 2), *range(1, 2 * k, 2))
        digits = _lift(ops["z"] << k | ops["x"] ^ ops["z"], interleave, 2 * k)
        return np.bincount(digits, ops["w"], 4**k)
    return sum(np.abs(_pauli_coefficients(op, k)) ** 2 for op in ops)


def _pauli_law(stages: tuple, qubits: Iterable[int], twirl: bool) -> np.ndarray:
    """The law of the Pauli string that ``stages`` draw on ``qubits``, the
    first most significant: the 4^n twirl if ``twirl`` (digits I, X, Y, Z =
    0..3), else the 2^n law of Z/Y flips that tables leave on |+>^n. Stage
    laws XOR-convolve in order (digit XOR is the product up to phase): new
    positions join p by a broadcast product, touched ones take a gather of
    p per point of the law, ascending. With ``twirl`` this is the twirl
    when no two stacks share a position: Pauli channels commute with it."""
    where, bits = {q: i for i, q in enumerate(qubits)}, 2 if twirl else 1
    p, order = np.ones(1), []  # p's digits: the touched positions, first touched first
    for ops, pos in stages:
        pos = [where[q] for q in pos]
        law, new = _stage_law(ops, len(pos), twirl), [q for q in pos if q not in order]
        if new:  # at digit 0 if the stage also reads touched ones, for the gather to fill
            part = law if len(new) == len(pos) else np.arange(2 ** (bits * len(new))) == 0
            p, order = (np.multiply.outer(p, part).reshape(-1) if order else part), order + new
        if len(new) < len(pos):
            index, points, out = np.arange(len(p)), np.flatnonzero(law), np.zeros(len(p))
            axes = tuple(bits * order.index(q) + h for q in pos for h in range(bits))
            for f, g in zip(points, _lift(points, axes, bits * len(order))):
                out += law[f] * p[index ^ g]
            p = out
    if order == list(range(len(where))):
        return p
    full = np.zeros((2**bits,) * len(where))
    touched = tuple(slice(None) if q in order else 0 for q in range(len(where)))
    axes = sorted(range(len(order)), key=order.__getitem__)
    full[touched] = p.reshape((2**bits,) * len(order)).transpose(axes)
    return full.reshape(-1)


def pauli_expansion(channel: QuantumChannel) -> np.ndarray:
    """Pauli-twirl error probabilities q(P) = sum_k |Tr(P K_k)|^2 / 4^n.

    Returns the read-only vector of all 4^n probabilities, indexed by base-4
    strings with digits I=0, X=1, Y=2, Z=3 and qubit 0 as the most
    significant digit, matching the register bit order: on two qubits "XZ"
    is entry 4*1 + 3. The stages' own laws are convolved (``_pauli_law``),
    a stack's from each of its operators (cluster noise on 12 qubits:
    about 7 s at 1.58 GB peak RSS), unless two stacks share a qubit: the
    twirl of their product is not the product of their twirls, so the
    channel's ``kraus``, read first under the size rule, is the one stage.
    """
    stacked = [q for ops, pos in channel.stages if ops.dtype != PAULI_TABLE for q in pos]
    stages = channel.stages
    if len(set(stacked)) < len(stacked):
        stages = ((channel.kraus, channel.qubits),)
    q = _pauli_law(stages, channel.qubits, twirl=True)
    q.flags.writeable = False
    return q
