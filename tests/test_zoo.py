import numpy as np
import pytest

from entlab.channels import build_cluster_noise
from entlab.states import PureState, entropy_of_subset
from entlab.zoo import (
    all_subsets,
    bell,
    bitflip_code_encode,
    cluster_state,
    dicke_state,
    ghz,
    haar_unitary,
    line_edges,
    plus_all,
    random_circuit_state,
)
from helpers import embed_operator, kron_pauli_string

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_bell_and_ghz_amplitudes():
    b = bell()
    assert np.allclose(b.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    g = ghz(3)
    want = np.zeros(8)
    want[0] = want[7] = 1 / np.sqrt(2)
    assert np.allclose(g.amplitudes, want)
    assert np.allclose(ghz(2).amplitudes, b.amplitudes)


def test_plus_all_uniform():
    p = plus_all(3)
    assert np.allclose(p.amplitudes, np.full(8, 1 / np.sqrt(8)))


def test_line_edges():
    assert line_edges(4) == [(0, 1), (1, 2), (2, 3)]
    assert line_edges(2) == [(0, 1)]


def test_cluster_state_stabilizers():
    """Each generator X_i prod_{j~i} Z_j must fix the state."""
    n = 4
    psi = cluster_state(n, line_edges(n)).amplitudes
    neighbors = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    for i in range(n):
        op = embed_operator(X, (i,), n)
        for j in neighbors[i]:
            op = op @ embed_operator(Z, (j,), n)
        assert np.abs(op @ psi - psi).max() < 1e-12


def generator_letters(row, n: int) -> str:
    """The Pauli letters of one (x|z) generator row."""
    return "".join("IZXY"[2 * int(row[q]) + int(row[n + q])] for q in range(n))


STABILIZER_FAMILIES = {
    "plus_all": [plus_all(n) for n in range(1, 7)],
    "ghz": [ghz(n) for n in range(2, 7)] + [bell()],
    "cluster-line": [cluster_state(n, line_edges(n)) for n in range(1, 7)],
    "cluster-ring": [cluster_state(n, line_edges(n) + [(0, n - 1)]) for n in range(3, 7)],
    "cluster-star": [cluster_state(5, [(0, j) for j in range(1, 5)])],
    "cluster-no-edges": [cluster_state(3, [])],
}


@pytest.mark.parametrize("family", sorted(STABILIZER_FAMILIES))
def test_zoo_generators_stabilize_their_amplitudes(family):
    """Each (x|z) row, built as a Kronecker product of its Pauli letters,
    fixes the state, and the n rows are independent over GF(2)."""
    for state in STABILIZER_FAMILIES[family]:
        n, gens = state.n, state.stabilizers
        assert gens.shape == (n, 2 * n)
        for row in gens:
            op = kron_pauli_string(generator_letters(row, n))
            assert np.abs(op @ state.amplitudes - state.amplitudes).max() < 1e-12
        # no nonempty product of generators is the identity
        combos = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1
        assert ((combos @ gens) % 2).any(axis=1).all()
        assert state.stabilizer_rows is not None


def test_non_stabilizer_families_carry_no_generators():
    states = [dicke_state(4, 2), random_circuit_state(3, 2, 0), bitflip_code_encode(0.6, 0.8)]
    assert all(s.stabilizers is None and s.stabilizer_rows is None for s in states)
    assert PureState(2, bell().amplitudes).stabilizer_rows is None


def test_dicke_state_support():
    d = dicke_state(4, 2)
    weights = [bin(i).count("1") for i in range(16)]
    on = [i for i in range(16) if weights[i] == 2]
    off = [i for i in range(16) if weights[i] != 2]
    assert np.allclose(np.abs(d.amplitudes[on]), 1 / np.sqrt(6))
    assert np.abs(d.amplitudes[off]).max() < 1e-15
    # symmetric state: every single-qubit marginal has the same entropy
    ents = [entropy_of_subset(d, (q,)) for q in range(4)]
    assert np.ptp(ents) < 1e-12


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(3)
    u = haar_unitary(8, rng)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12
    # same seed, same matrix
    again = haar_unitary(8, np.random.default_rng(3))
    assert np.allclose(u, again)


def test_random_circuit_state_seeded():
    a = random_circuit_state(3, depth=4, seed=11)
    b = random_circuit_state(3, depth=4, seed=11)
    c = random_circuit_state(3, depth=4, seed=12)
    assert np.allclose(a.amplitudes, b.amplitudes)
    assert not np.allclose(a.amplitudes, c.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12


def test_bitflip_code_encode():
    enc = bitflip_code_encode(0.6, 0.8)
    want = np.zeros(8)
    want[0] = 0.6
    want[7] = 0.8
    assert np.allclose(enc.amplitudes, want)
    with pytest.raises(ValueError):
        bitflip_code_encode(0.0, 0.0)


def test_all_subsets_enumeration():
    subs = all_subsets(4, (2, 3))
    assert len(subs) == 6 + 4
    assert all(s == tuple(sorted(s)) for s in subs)
    assert len(set(subs)) == len(subs)
    assert all_subsets(3, (2,)) == [(0, 1), (0, 2), (1, 2)]


def test_counts_and_edges_refuse_floats():
    """A non-integer count or edge end is refused, not truncated."""
    with pytest.raises(ValueError, match="1.7"):
        cluster_state(3, [[0, 1.7]])
    with pytest.raises(ValueError, match="1.7"):
        build_cluster_noise(3, [[0, 1.7]], 0.1, seed=1)
    with pytest.raises(TypeError):
        dicke_state(3, 1.5)
    assert np.array_equal(dicke_state(3, np.int64(1)).amplitudes, dicke_state(3, 1).amplitudes)
