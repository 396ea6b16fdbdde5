import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entlab import DensityMatrix, PureState
from entlab.channels import (
    QuantumChannel,
    apply,
    build_cluster_noise,
    build_correlated_flip,
    build_depolarizing,
    build_dephasing,
    combine,
)
from entlab.errors import PositivityError, SizeLimitError
from entlab.measures import binary_entropy
from entlab.states import (
    _hermitize,
    branch_entropy,
    check_register_size,
    check_state,
    entropy_of_subset,
    fidelity,
    partial_trace,
    pure_marginal,
    purify,
    tensor,
    trace_distance,
    validate_subset,
    von_neumann_entropy,
)
from entlab.sync import binomial_tail, quantum_randomization_demo, repetition_majority_error
from entlab.zoo import cluster_state
from helpers import (
    embed_operator,
    entropy_oracle,
    h2,
    haar,
    partial_trace_oracle,
    random_density,
    random_pure,
    reference_entropy,
)


def test_density_matrix_rejects_invalid_input():
    """Each check rejects with its own error and message, just past its
    tolerance; the exact Hermitian test falls back to the tolerance one."""
    with pytest.raises(PositivityError, match=r"^eigenvalue -0\.5 below -1e-09$"):
        DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(PositivityError, match=r"^eigenvalue -1e-08 below -1e-09$"):
        DensityMatrix(1, np.diag([1.0 + 1e-8, -1e-8]).astype(complex))
    DensityMatrix(1, np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
    with pytest.raises(ValueError, match=r"^trace must be 1, got \(1\.2\+0j\)$"):
        DensityMatrix(1, np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian$"):
        DensityMatrix(1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    skew = np.diag([0.5, 0.5]).astype(complex)
    skew[0, 1] = 1e-8
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian$"):
        DensityMatrix(1, skew)
    with pytest.raises(SizeLimitError):
        check_register_size(13)
    near = np.diag([0.5, 0.5]).astype(complex)
    near[0, 1] = 1e-12
    rho = DensityMatrix(1, near)
    assert not np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))


@pytest.mark.parametrize(
    "call, what",
    [
        (build_depolarizing, "probability"),
        (build_dephasing, "strength"),
        (lambda x: build_correlated_flip(x, "ZZ"), "probability"),
        (lambda x: build_cluster_noise(2, [(0, 1)], x, 0), "probability"),
        (binary_entropy, "probability"),
        (lambda x: binomial_tail(4, 1, x), "probability"),
        (lambda x: repetition_majority_error(x, 3), "survival probability"),
        (lambda x: quantum_randomization_demo(x, (1, 0)), "survival probability"),
    ],
    ids=["depolarizing", "dephasing", "correlated_flip", "cluster_noise", "binary_entropy",
         "binomial_tail", "repetition_majority_error", "quantum_randomization_demo"],
)
@pytest.mark.parametrize("x", [-0.1, 1.5, float("nan")])
def test_probabilities_outside_the_unit_interval_are_refused(call, what, x):
    with pytest.raises(ValueError, match=rf"^{what} {x} outside \[0, 1\]$"):
        call(x)


def test_density_matrix_above_check_dimension_has_no_spectrum():
    """Past dimension 512 positivity is not checked at construction, and
    the entropy diagonalizes the matrix itself."""
    d = 2**10
    flat = DensityMatrix(10, np.eye(d, dtype=complex) / d)
    assert flat.spectrum is None
    assert abs(von_neumann_entropy(flat) - 10.0) < 1e-9
    lam = np.full(d, (1.0 + 1e-3) / (d - 1))
    lam[0] = -1e-3
    skewed = DensityMatrix(10, np.diag(lam).astype(complex))
    assert skewed.spectrum is None
    with pytest.raises(PositivityError, match=r"^eigenvalue -0\.001 below -1e-6$"):
        von_neumann_entropy(skewed)


def test_stored_spectrum_gives_the_fresh_entropy(rng):
    """The spectrum the positivity check keeps gives bitwise the entropy of
    a fresh eigvalsh, on inputs and on library outputs."""
    for _ in range(20):
        n = int(rng.integers(1, 5))
        rho = DensityMatrix(n, random_density(rng, n))
        keep = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
        states = [
            rho,
            partial_trace(rho, keep),
            pure_marginal(random_pure(rng, n), n, keep),
            apply(build_depolarizing(0.3, qubit=n - 1), rho),
            tensor(rho, DensityMatrix(1, random_density(rng, 1))),
        ]
        for state in states:
            assert np.array_equal(state.spectrum, np.linalg.eigvalsh(state.matrix))
            assert von_neumann_entropy(state) == reference_entropy(state.matrix)


def test_pure_state_rejects_invalid_input():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))  # wrong length


def test_validate_subset_sorts_and_checks():
    assert validate_subset([2, 0], 3) == (0, 2)
    with pytest.raises(ValueError):
        validate_subset([0, 0], 3)
    with pytest.raises(ValueError):
        validate_subset([3], 3)
    assert validate_subset([np.int64(2), np.int32(0)], 3) == (0, 2)
    # a float position is refused, not truncated to a register index
    for subset in ([0, 1.0], np.array([0.5])):
        with pytest.raises(ValueError, match=f"^qubit position {subset[-1]} is not an integer$"):
            validate_subset(subset, 3)


@pytest.mark.parametrize(
    "place",
    [
        lambda q: validate_subset([q, 2], 3),
        lambda q: build_dephasing(0.2, qubit=q),
        lambda q: build_depolarizing(0.2, qubit=q),
        lambda q: QuantumChannel(build_dephasing(0.2).kraus, qubits=(q,)),
        lambda q: combine([(build_dephasing(0.2), (q,))], n=3),
        lambda q: cluster_state(3, [(q, 2)]),
    ],
    ids=["subset", "dephasing-qubit", "depolarizing-qubit", "declared-qubit", "combine-part",
         "edge"],
)
@pytest.mark.parametrize("flag", [True, False])
def test_bool_positions_are_refused(place, flag):
    """One integer rule for every qubit position: a bool is not read as 0 or 1."""
    with pytest.raises(ValueError, match=f"^qubit position {flag} is not an integer$"):
        place(flag)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of |00> must give |10>, which is basis index 2
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    op = embed_operator(x, (0,), 2)
    vec = np.zeros(4)
    vec[0] = 1.0
    assert np.argmax(np.abs(op @ vec)) == 2


def test_partial_trace_matches_direct_sum(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        rho = DensityMatrix(n, random_density(rng, n))
        size = int(rng.integers(1, n))
        keep = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        got = partial_trace(rho, keep).matrix
        want = partial_trace_oracle(rho.matrix, n, keep)
        assert np.abs(got - want).max() < 1e-12
        assert abs(np.trace(got).real - 1.0) < 1e-12


def _unit_rows(rng, k, n):
    rows = rng.normal(size=(k, 2**n)) + 1j * rng.normal(size=(k, 2**n))
    return rows / np.linalg.norm(rows)


def reference_pure_marginal(amps, n, keep):
    """``pure_marginal`` of one vector as first written."""
    drop = [q for q in range(n) if q not in keep]
    t = np.asarray(amps, dtype=complex).reshape((2,) * n).transpose(list(keep) + drop)
    t = t.reshape(2 ** len(keep), 2 ** len(drop))
    return _hermitize(t @ t.conj().T)


def test_hermitize_writes_over_its_argument(rng):
    """The Hermitian part is written over the matrix given, with the bytes
    of (mat + mat^dagger) / 2 as a new array, signed zeros included."""
    for d in (1, 2, 4, 16, 64):
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat[rng.random((d, d)) < 0.2] = 0.0
        mat.real[rng.random((d, d)) < 0.2] = -0.0
        mat.imag[rng.random((d, d)) < 0.2] = -0.0
        want = ((mat + mat.conj().T) / 2.0).tobytes()
        got = _hermitize(mat)
        assert got is mat
        assert got.tobytes() == want


def test_pure_marginal_of_rows_sums_the_row_marginals(rng):
    """A stack of rows gives sum_k tr_rest |v_k><v_k|, checked against the
    direct sum over basis indices; one vector gives bitwise the marginal of
    the one-vector formula, whether passed flat or as one row."""
    for _ in range(30):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 9))
        keep = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)))
        rows = _unit_rows(rng, k, n)
        got = pure_marginal(rows, n, keep).matrix
        want = sum(
            partial_trace_oracle(np.outer(v, v.conj()), n, keep) for v in rows
        )
        assert np.abs(got - want).max() < 1e-14
        vec = random_pure(rng, n)
        one = reference_pure_marginal(vec, n, keep)
        assert np.array_equal(pure_marginal(vec, n, keep).matrix, one)
        assert np.array_equal(pure_marginal(vec[None, :], n, keep).matrix, one)


def test_branch_entropy_reads_the_smaller_side(rng):
    """Both sides of the row matrix give the marginal's entropy; the branch
    side keeps the unit-trace and positivity checks."""
    for _ in range(30):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 9))
        keep = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)))
        rows = _unit_rows(rng, k, n)
        rho = sum(np.outer(v, v.conj()) for v in rows)
        want = entropy_oracle(partial_trace_oracle(rho, n, keep))
        assert abs(branch_entropy(rows, n, keep) - want) < 1e-12
    # 8 qubits, 2 rows: the whole register is read from the 2 x 2 Gram matrix
    with pytest.raises(ValueError, match="trace must be 1"):
        branch_entropy(1.001 * _unit_rows(rng, 2, 8), 8, range(8))
    with pytest.raises(ValueError, match="does not match register size"):
        branch_entropy(_unit_rows(rng, 2, 3), 2, (0,))


def test_partial_trace_nested_consistency(rng):
    # tracing out in two steps must agree with one step
    for _ in range(10):
        rho = DensityMatrix(4, random_density(rng, 4))
        two_step = partial_trace(partial_trace(rho, (0, 2)), (0,))
        one_step = partial_trace(rho, (0,))
        assert np.abs(two_step.matrix - one_step.matrix).max() < 1e-12


def test_entropy_known_values():
    assert von_neumann_entropy(DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))) == 0.0
    flat = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    assert abs(von_neumann_entropy(flat) - 2.0) < 1e-12
    p = 0.3
    biased = DensityMatrix(1, np.diag([1 - p, p]).astype(complex))
    assert abs(von_neumann_entropy(biased) - h2(p)) < 1e-12


def test_entropy_matches_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        mat = random_density(rng, n)
        got = von_neumann_entropy(DensityMatrix(n, mat))
        assert abs(got - entropy_oracle(mat)) < 1e-10


def test_entropy_additivity(rng):
    for _ in range(15):
        a = DensityMatrix(1, random_density(rng, 1))
        b = DensityMatrix(2, random_density(rng, 2))
        joint = tensor(a, b)
        total = von_neumann_entropy(a) + von_neumann_entropy(b)
        assert abs(von_neumann_entropy(joint) - total) < 1e-10


def test_entropy_unitary_invariance(rng):
    for _ in range(25):
        n = int(rng.integers(1, 4))
        mat = random_density(rng, n)
        u = haar(rng, 2**n)
        s0 = von_neumann_entropy(DensityMatrix(n, mat))
        s1 = von_neumann_entropy(DensityMatrix(n, u @ mat @ u.conj().T))
        assert abs(s0 - s1) < 1e-8


@st.composite
def split_states(draw):
    """(rho, A, B): a Ginibre-induced state G G^dagger / tr on n = 2..4
    qubits and two disjoint non-empty subsets; the rest is traced out."""
    n = draw(st.integers(2, 4))
    d = 2**n
    rank = draw(st.integers(1, d))
    elements = st.floats(-1, 1, allow_subnormal=False)
    parts = draw(arrays(np.float64, (2, d, rank), elements=elements))
    g = parts[0] + 1j * parts[1]
    mat = g @ g.conj().T
    trace = float(np.trace(mat).real)
    assume(trace > 1e-3)
    order = draw(st.permutations(range(n)))
    end_a = draw(st.integers(1, n - 1))
    end_b = draw(st.integers(end_a + 1, n))
    return DensityMatrix(n, mat / trace), tuple(order[:end_a]), tuple(order[end_a:end_b])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(split_states())
def test_entropy_subadditivity(case):
    """S(AB) <= S(A) + S(B) and the Araki-Lieb triangle |S(A) - S(B)| <= S(AB)."""
    rho, a, b = case
    s_ab = entropy_of_subset(rho, a + b)
    s_a = entropy_of_subset(rho, a)
    s_b = entropy_of_subset(rho, b)
    assert s_ab <= s_a + s_b + 1e-9
    assert abs(s_a - s_b) <= s_ab + 1e-9


def test_purification_roundtrip(rng):
    for _ in range(8):
        n = int(rng.integers(1, 3))
        rho = DensityMatrix(n, random_density(rng, n))
        phi = purify(rho)
        full = phi.density_matrix()
        back = partial_trace(full, tuple(range(n)))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-10
        # reference side carries the same spectrum
        ref = partial_trace(full, tuple(range(n, phi.n)))
        assert abs(von_neumann_entropy(ref) - von_neumann_entropy(rho)) < 1e-9


def test_fidelity_and_trace_distance(rng):
    zero = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
    one = DensityMatrix(1, np.diag([0.0, 1.0]).astype(complex))
    assert abs(fidelity(zero, zero) - 1.0) < 1e-12
    assert abs(trace_distance(zero, zero)) < 1e-12
    assert abs(fidelity(zero, one)) < 1e-12
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12
    for _ in range(10):
        a = DensityMatrix(1, random_density(rng, 1))
        b = DensityMatrix(1, random_density(rng, 1))
        f = fidelity(a, b)
        t = trace_distance(a, b)
        # Fuchs-van de Graaf sandwich
        assert 1 - np.sqrt(f) <= t + 1e-9
        assert t <= np.sqrt(max(0.0, 1 - f)) + 1e-9


def test_check_state_accepts_both():
    psi = PureState(1, np.array([1.0, 0.0], dtype=complex))
    rho = psi.density_matrix()
    assert check_state(psi) is psi
    assert check_state(rho) is rho
    with pytest.raises(TypeError, match="^expected PureState or DensityMatrix, got ndarray$"):
        check_state(rho.matrix)


def test_purity_flags(rng):
    psi = PureState(2, random_pure(rng, 2))
    assert psi.density_matrix().is_pure()
    mixed = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    assert not mixed.is_pure()
    assert abs(mixed.purity() - 0.25) < 1e-12


@pytest.mark.parametrize("rank", [1, 2, None])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_purity_is_the_trace_of_the_square(rng, n, rank):
    """tr rho^2 read as the squared Frobenius norm equals the trace of the
    matrix product on random pure (rank 1) and mixed states."""
    rho = DensityMatrix(n, random_density(rng, n, rank))
    assert abs(rho.purity() - np.trace(rho.matrix @ rho.matrix).real) < 1e-12
    assert rho.is_pure() == (rank == 1)


def test_stabilizer_generators_are_checked_when_first_read():
    """Attaching generators only copies them; reading ``stabilizer_rows``
    checks shape, independence and that each row fixes the amplitudes."""
    amps = np.array([1, 0, 0, 1]) / np.sqrt(2)
    # XX and YY: YY takes the Bell state to minus itself, which still counts
    assert PureState(2, amps, [[1, 1, 0, 0], [1, 1, 1, 1]]).stabilizer_rows == [3, 15]
    bad = {
        "shape": [[1, 1, 0, 0]],
        "entries": [[1, 1, 0, 0], [0, 0, 2, 2]],
        "dependent": [[1, 1, 0, 0], [1, 1, 0, 0]],
        "not a stabilizer": [[1, 0, 0, 0], [0, 0, 1, 1]],
    }
    for gens in bad.values():
        state = PureState(2, amps, gens)
        with pytest.raises(ValueError):
            state.stabilizer_rows
    gens = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
    state = PureState(2, amps, gens)
    gens[0, 0] = 0  # the state holds its own read-only copy
    assert not state.stabilizers.flags.writeable
    assert state.stabilizer_rows == [3, 12]
