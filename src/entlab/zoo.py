"""Canonical register states used as measure inputs."""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Sequence

import numpy as np

from .states import PureState, _position, check_register_size


def plus_all(n: int) -> PureState:
    """Uniform |+>^n register state, stabilized by each X_i."""
    n = check_register_size(n)
    if n < 1:
        raise ValueError("plus_all needs at least one qubit")
    d = 2**n
    return PureState(n, np.full(d, 1.0 / np.sqrt(d), dtype=complex), _graph_stabilizers(n, []))


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2), stabilized by X...X and each Z_i Z_i+1."""
    n = check_register_size(n)
    if n < 2:
        raise ValueError("ghz needs at least two qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    gens = np.zeros((n, 2 * n), dtype=bool)
    gens[0, :n] = True
    gens[1:, n:] = np.eye(n - 1, n, dtype=bool) | np.eye(n - 1, n, 1, dtype=bool)
    return PureState(n, amps, gens)


def bell() -> PureState:
    return ghz(2)


def _validate_edges(n: int, edges: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    out = []
    for edge in edges:
        i, j = (_position(q) for q in edge)
        if i == j:
            raise ValueError(f"self-loop on qubit {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) outside register of size {n}")
        out.append((min(i, j), max(i, j)))
    if len(set(out)) != len(out):
        raise ValueError("duplicate edges")
    return out


def _qubit_bits(n: int, qubit: int) -> np.ndarray:
    # big-endian: qubit 0 is the most significant bit
    return (np.arange(2**n) >> (n - 1 - qubit)) & 1


def _graph_stabilizers(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """(x|z) rows of X_i times Z_j over the neighbours j of i."""
    gens = np.eye(n, 2 * n, dtype=bool)
    for i, j in edges:
        gens[i, n + j] = gens[j, n + i] = True
    return gens


def cluster_state(n: int, edges: Sequence[Sequence[int]]) -> PureState:
    """Graph state: CZ applied along each edge of |+>^n, stabilized by each
    X_i Z_(neighbours of i)."""
    n = check_register_size(n)
    amps = np.array(plus_all(n).amplitudes)
    edge_list = _validate_edges(n, edges)
    _apply_cz(amps, n, edge_list)
    return PureState(n, amps, _graph_stabilizers(n, edge_list))


def _apply_cz(amps: np.ndarray, n: int, edges: list[tuple[int, int]]) -> None:
    """Multiply ``amps`` in place by each edge's CZ, one sign flip per edge in
    list order (one flip by parity would give other signed zeros)."""
    for i, j in edges:
        amps[(_qubit_bits(n, i) & _qubit_bits(n, j)).astype(bool)] *= -1.0


def line_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def dicke_state(total: int, excitations: int) -> PureState:
    """Uniform superposition of all bitstrings with the given Hamming weight."""
    n = check_register_size(total)
    k = operator.index(excitations)
    if not 0 <= k <= n:
        raise ValueError(f"excitation count {k} outside [0, {n}]")
    idx = np.arange(2**n)
    weights = np.zeros(2**n, dtype=int)
    for q in range(n):
        weights += _qubit_bits(n, q)
    hits = idx[weights == k]
    amps = np.zeros(2**n, dtype=complex)
    amps[hits] = 1.0 / np.sqrt(len(hits))
    return PureState(n, amps)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    return _haar_unitaries(1, dim, rng)[0]


def _haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries as one (count, dim, dim) stack, the same as
    drawing them one at a time: each Ginibre matrix takes its real part,
    then its imaginary part, from the stream, and one stacked QR with the
    phase fix of Mezzadri (Notices AMS 54, 592 (2007)) turns them unitary.
    """
    g = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    phase = np.diagonal(r, axis1=1, axis2=2).copy()
    phase /= np.abs(phase)
    return q * phase[:, None, :]


def random_circuit_state(n: int, depth: int, seed: int) -> PureState:
    """Seeded brickwork of Haar two-qubit gates on a line, starting from |0...0>."""
    n = check_register_size(n)
    if n < 1:
        raise ValueError("random_circuit_state needs at least one qubit")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    rng = np.random.default_rng(seed)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    for layer in range(depth):
        start = layer % 2
        for q in range(start, n - 1, 2):
            gate = haar_unitary(4, rng)
            block = amps.reshape(2**q, 4, -1)
            amps = np.einsum("ab,ibj->iaj", gate, block).reshape(-1)
    amps /= np.linalg.norm(amps)
    return PureState(n, amps)


def bitflip_code_encode(a: complex, b: complex) -> PureState:
    """a|000> + b|111>; amplitudes must already be normalized."""
    a = complex(a)
    b = complex(b)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise ValueError("logical amplitudes are not normalized")
    amps = np.zeros(8, dtype=complex)
    amps[0] = a
    amps[7] = b
    return PureState(3, amps)


def all_subsets(n: int, sizes: Sequence[int]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in sizes:
        out.extend(combinations(range(n), size))
    return out
