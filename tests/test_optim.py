import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlab import DensityMatrix, PureState
from entlab.conjectures import _decomposed_defect
from entlab.channels import apply, build_pairwise_correlated
from entlab.errors import ConvergenceError, InfeasibleMarginalsError, SizeLimitError
from entlab.measures import (
    assisted_mutual_information,
    excess_leak_set,
    max_entropy_defect,
    mutual_information,
    total_defect,
)
from entlab.optim import (
    MAX_PAULI_STACK_BYTES,
    MarginalConstraintSet,
    _align_pair_phase,
    _derivative_work,
    _dual_derivatives,
    _dual_value,
    _generic_member_values,
    _gram_totals,
    _grid_plan,
    _mix_coefficients,
    _newton_direction,
    _newton_solve,
    _optimize_pair,
    _pair_member_values,
    _pauli_basis,
    _pauli_stack_bytes,
    _round_robin,
    max_avg_pure_decomposition,
    max_entropy_with_marginals,
)
from entlab.states import marginal_matrix, partial_trace, von_neumann_entropy
from entlab.zoo import (
    bell,
    cluster_state,
    dicke_state,
    ghz,
    line_edges,
    plus_all,
    random_circuit_state,
)
from helpers import (
    CLI_ENV,
    entropy_oracle,
    h2,
    ipf_max_entropy,
    random_density,
    reference_decomposition_search,
    reference_dual_derivatives,
    reference_max_entropy,
    reference_newton_direction,
    reference_optimize_pair,
    reference_pair_candidates,
    reference_pair_member_values,
    round_robin_pairs,
)

TRAJECTORIES = Path(__file__).parent / "data" / "solver_trajectories.json"
DECOMPOSITIONS = Path(__file__).parent / "data" / "decomposition_trajectories.json"


def test_constraint_set_from_state_roundtrip(rng):
    """from_state's targets are the state's partial traces, bit for bit,
    on overlapping and disjoint keys, under sorted keys."""
    rho = DensityMatrix(4, random_density(rng, 4))
    subsets = [(0, 1), (2,), (3, 1), (1, 2, 3)]
    cs = MarginalConstraintSet.from_state(rho, subsets)
    assert cs.num_qubits == 4
    assert list(cs.targets) == [(0, 1), (2,), (1, 3), (1, 2, 3)]
    for key, target in cs.targets.items():
        assert isinstance(target, DensityMatrix)
        assert np.array_equal(target.matrix, partial_trace(rho, key).matrix)
    with pytest.raises(ValueError):
        MarginalConstraintSet.from_state(rho, [])
    with pytest.raises(ValueError):
        MarginalConstraintSet.from_state(rho, [(0, 4)])


def test_constraint_set_rejects_conflicts(rng):
    # pair target says qubit 0 is pure, single target says it is mixed
    pure00 = np.zeros((4, 4), dtype=complex)
    pure00[0, 0] = 1.0
    flat = np.eye(2, dtype=complex) / 2
    with pytest.raises(InfeasibleMarginalsError):
        MarginalConstraintSet(2, {(0, 1): pure00, (0,): flat})
    # the marginals of two different states, which from_state never mixes,
    # still meet the agreement check in the public constructor
    first, second = (DensityMatrix(3, random_density(rng, 3)) for _ in range(2))
    targets = {(0, 1): partial_trace(first, (0, 1)), (1, 2): partial_trace(second, (1, 2))}
    with pytest.raises(InfeasibleMarginalsError, match=r"disagree on \(1,\)"):
        MarginalConstraintSet(3, targets)


def test_max_entropy_product_of_singles(rng):
    """With single-qubit constraints only, the maximizer is the product."""
    probs = [0.2, 0.35, 0.45]
    targets = {(q,): np.diag([1 - p, p]).astype(complex) for q, p in enumerate(probs)}
    cs = MarginalConstraintSet(3, targets)
    res = max_entropy_with_marginals(cs)
    assert res.converged
    assert res.residual < 1e-6
    want_entropy = sum(h2(p) for p in probs)
    assert abs(res.entropy - want_entropy) < 1e-6
    want = np.diag([1 - probs[0], probs[0]])
    for q, p in list(enumerate(probs))[1:]:
        want = np.kron(want, np.diag([1 - p, p]))
    assert np.abs(res.state.matrix - want).max() < 1e-6


def test_max_entropy_flat_for_bell_marginals():
    cs = MarginalConstraintSet.from_state(bell().density_matrix(), [(0,), (1,)])
    res = max_entropy_with_marginals(cs)
    assert abs(res.entropy - 2.0) < 1e-8
    assert np.abs(res.state.matrix - np.eye(4) / 4).max() < 1e-8


def test_max_entropy_full_constraint_pins_state(rng):
    rho = DensityMatrix(2, random_density(rng, 2))
    cs = MarginalConstraintSet.from_state(rho, [(0, 1)])
    res = max_entropy_with_marginals(cs)
    assert np.abs(res.state.matrix - rho.matrix).max() < 1e-6
    assert abs(res.entropy - von_neumann_entropy(rho)) < 1e-6


def test_max_entropy_reports_nonconvergence():
    rho = ghz(3).density_matrix()
    cs = MarginalConstraintSet.from_state(rho, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ConvergenceError) as info:
        max_entropy_with_marginals(cs, max_iter=1)
    assert info.value.residual > 0


DUAL_CASES = {
    "pairs-of-3": (3, list(combinations(range(3), 2))),
    "triples-of-4": (4, list(combinations(range(4), 3))),
    "pair-and-single-of-3": (3, [(0, 1), (2,)]),
    "triple-and-pair-of-4": (4, [(0, 1, 2), (2, 3)]),
    "pair-single-pair-of-4": (4, [(0, 1), (1,), (2, 3)]),
    "pairs-of-5": (5, list(combinations(range(5), 2))),
    "singles-of-6": (6, [(q,) for q in range(6)]),
}


def dual_case(case, rng):
    """The Pauli basis of a DUAL_CASES entry and the targets t_P = tr(P rho)
    of a random full-register rho, read off the keys' own marginals."""
    m, keys = DUAL_CASES[case]
    rho = random_density(rng, m)
    basis = _pauli_basis(m, tuple(keys))
    t = np.empty(len(basis.stack))
    for k, (at, local) in zip(keys, basis.owned):
        t[at] = np.einsum("kij,ji->k", local, marginal_matrix(rho, m, k)).real
    return basis, t, rho


@pytest.mark.parametrize("case", DUAL_CASES)
def test_pauli_basis_counts_strings_and_reads_targets(case, rng):
    """Every non-identity string inside some key appears once, the byte
    estimate is the stack's size, and each target is tr(P rho)."""
    m, keys = DUAL_CASES[case]
    basis, t, rho = dual_case(case, rng)
    stack = basis.stack
    supports = {s for k in keys for size in range(1, len(k) + 1) for s in combinations(k, size)}
    assert len(stack) == sum(3 ** len(s) for s in supports)
    assert stack.nbytes == _pauli_stack_bytes(m, keys)
    flat = stack.reshape(len(stack), -1)
    assert np.allclose(flat.conj() @ flat.T, 2**m * np.eye(len(stack)))  # orthogonal, so distinct
    assert np.abs(t - np.einsum("kij,ji->k", stack, rho).real).max() < 1e-12


def test_pauli_basis_sizes():
    """6 parameters for two singles, 36 for the pairs of 3, 174 for the
    triples of 4."""
    for m, want in ((2, 6), (3, 36), (4, 174)):
        keys = tuple(combinations(range(m), m - 1))
        assert len(_pauli_basis(m, keys).stack) == want


@pytest.mark.parametrize("case", DUAL_CASES)
def test_dual_derivatives_match_finite_differences(case, rng):
    """The gradient and Hessian are central differences of f and of the
    gradient, at zero and at random multipliers."""
    basis, t, _ = dual_case(case, rng)
    size = len(t)
    work = _derivative_work(basis)

    def derivatives_at(c):
        _, w, v, p = _dual_value(c, basis, t)
        grad, hess = _dual_derivatives(basis, t, w, v, p, work)
        # the Hessian is the work buffer, which the next call overwrites
        return grad, hess.copy()

    step = 1e-5
    for c in (np.zeros(size), 0.3 * rng.normal(size=size)):
        grad, hess = derivatives_at(c)
        assert np.allclose(hess, hess.T, atol=1e-12)
        for i in range(size):
            e = np.zeros(size)
            e[i] = step
            df = (_dual_value(c + e, basis, t)[0] - _dual_value(c - e, basis, t)[0]) / (2 * step)
            dg = (derivatives_at(c + e)[0] - derivatives_at(c - e)[0]) / (2 * step)
            assert abs(df - grad[i]) < 1e-7
            assert np.abs(dg - hess[:, i]).max() < 1e-7


@pytest.mark.parametrize("case", DUAL_CASES)
def test_lean_newton_step_matches_dense_formulas(case, rng):
    """The gathered derivatives and the one-solve direction agree with the
    dense-stack formulas they replace, to 1e-12, at random multipliers on
    keys of one to three qubits. The directions are compared where the
    Hessian is well conditioned (at scale 0.1 its condition number is at
    most 20 here); elsewhere any two solves differ by about cond(H) eps."""
    basis, t, _ = dual_case(case, rng)
    work = _derivative_work(basis)
    for scale in (0.1, 0.3, 1.0):
        c = scale * rng.normal(size=len(t))
        _, w, v, p = _dual_value(c, basis, t)
        grad, hess = _dual_derivatives(basis, t, w, v, p, work)
        want_grad, want_hess = reference_dual_derivatives(basis.stack, t, w, v, p)
        assert np.abs(grad - want_grad).max() < 1e-12
        assert np.abs(hess - want_hess).max() < 1e-12
        assert np.array_equal(hess, hess.T)
        if scale == 0.1:
            want = reference_newton_direction(want_grad, want_hess)
            got = _newton_direction(grad, hess)
            assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


def test_newton_direction_falls_back_on_the_unshifted_hessian():
    """Least squares runs on the Hessian as given, with the in-place shift
    undone, when the shifted solve's step ascends (an indefinite Hessian)
    or the solve raises (the all-zero Hessian, whose shift is 0)."""
    indefinite = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 3.0]])
    zero = np.zeros((3, 3))
    grad = np.array([1.0, -2.0, 0.5])
    shifted = indefinite + 1e-12 * np.trace(indefinite) * np.eye(3)
    assert abs(grad @ np.linalg.solve(shifted, -grad) - 3.9166666667) < 1e-9
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(zero, -grad)
    for given in (indefinite, zero):
        hess = given.copy()
        got = _newton_direction(grad, hess)
        assert np.array_equal(hess, given)
        assert np.array_equal(got, np.linalg.lstsq(given, -grad, rcond=None)[0])
        assert np.array_equal(got, reference_newton_direction(grad, given))


def test_a_newton_step_factors_the_hessian_once(monkeypatch):
    """A step solves the shifted Hessian by one LU factorization and runs
    no separate Cholesky test of it, so a solve never calls cholesky."""

    def cholesky(*args, **kwargs):
        raise AssertionError("a Newton step called np.linalg.cholesky")

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    res = total_defect(random_circuit_state(4, 2, 1), 3)
    want = json.loads(TRAJECTORIES.read_text())["total_defect_truncation_3"]
    assert abs(res.value - float(want["random-circuit-4-2-1"]["value"])) < 1e-5
    assert res.diagnostics["worst_residual"] <= res.diagnostics["tol"]


def test_pauli_stack_cap_raises_before_allocating():
    """Over the cap, the error comes before any string matrix exists."""
    m = 8
    cs = MarginalConstraintSet(m, {tuple(range(m)): np.eye(2**m, dtype=complex) / 2**m})
    assert _pauli_stack_bytes(m, [tuple(range(m))]) > MAX_PAULI_STACK_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            max_entropy_with_marginals(cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**m  # less than one complex 2^m x 2^m string


@pytest.mark.parametrize("seed", range(4))
def test_max_entropy_matches_lbfgs_on_full_rank_inputs(seed):
    """Interior inputs: the Newton dual value agrees with L-BFGS-B on the
    dual in matrix multipliers."""
    rho = random_density(np.random.default_rng(seed), 3)
    keys = list(combinations(range(3), 2))
    targets = [marginal_matrix(rho, 3, k) for k in keys]
    res = max_entropy_with_marginals(MarginalConstraintSet(3, dict(zip(keys, targets))))
    assert abs(res.entropy - reference_max_entropy(3, keys, targets)) < 1e-6


def solver_input(state: PureState) -> PureState:
    """``state`` without stabilizer generators, so that measures solve for it."""
    return PureState(state.n, state.amplitudes)


def test_defects_are_never_negative(rng):
    """rho_A is feasible and the reported entropy is a dual upper bound, so
    no defect sits below zero, on boundary (pure, low-rank) inputs too."""
    states = [random_circuit_state(4, 2, s) for s in range(3)]
    states += [solver_input(ghz(4)), dicke_state(4, 2)]
    for state in states:
        assert min(total_defect(state, truncation=3).terms.values()) >= -1e-12
    for rank in (1, 2, 8):
        for _ in range(3):
            rho = DensityMatrix(3, random_density(rng, 3, rank=rank))
            assert max_entropy_defect(rho, (0, 1, 2)).value >= -1e-12


def test_pairwise_z_triple_equals_classical_ipf():
    """Z flips on |+>^3 leave the output diagonal in the X basis, so the
    quantum max-entropy state is the classical one that IPF fits."""
    channel = build_pairwise_correlated(3, 0.1, 0.02, "Z")
    rho = apply(channel, plus_all(3).density_matrix()).matrix
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    h3 = np.kron(np.kron(hadamard, hadamard), hadamard)
    probs = np.diag(h3 @ rho @ h3).real
    want = ipf_max_entropy(probs, 3, list(combinations(range(3), 2)), cycles=200)
    want -= entropy_oracle(np.diag(probs))
    assert abs(excess_leak_set(channel, (0, 1, 2)).value - want) < 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_ghz_totals_are_pair_counts(n):
    """Each pair of a GHZ state holds one bit and each triple none; the
    solver's dual value sits at most 1e-7 above that."""
    res = total_defect(solver_input(ghz(n)), truncation=3)
    assert -1e-12 <= res.value - math.comb(n, 2) < 1e-7


def test_max_entropy_mixed_size_targets(rng):
    """Disjoint targets of different sizes: the maximizer is their product."""
    rho01 = DensityMatrix(2, random_density(rng, 2))
    rho2 = DensityMatrix(1, random_density(rng, 1))
    cs = MarginalConstraintSet(3, {(0, 1): rho01, (2,): rho2})
    res = max_entropy_with_marginals(cs)
    want = von_neumann_entropy(rho01) + von_neumann_entropy(rho2)
    assert abs(res.entropy - want) < 1e-6
    assert np.abs(res.state.matrix - np.kron(rho01.matrix, rho2.matrix)).max() < 1e-6


@st.composite
def disjoint_targets(draw):
    """m qubits, each in one of up to three keys or in none, and a random
    full-rank target on each key."""
    m = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(-1, 2), min_size=m, max_size=m))
    keys = sorted({tuple(q for q in range(m) if labels[q] == g) for g in set(labels) - {-1}})
    if not keys:
        keys = [(draw(st.integers(0, m - 1)),)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return m, {k: DensityMatrix(len(k), random_density(rng, len(k))) for k in keys}


@settings(max_examples=25, deadline=None)
@given(disjoint_targets())
@example((3, {(0, 2): DensityMatrix(2, random_density(np.random.default_rng(1), 2)),
              (1,): DensityMatrix(1, random_density(np.random.default_rng(2), 1))}))
@example((4, {(0, 2): DensityMatrix(2, random_density(np.random.default_rng(3), 2)),
              (1,): DensityMatrix(1, random_density(np.random.default_rng(4), 1))}))
def test_product_path_matches_newton_on_disjoint_keys(case):
    """On disjoint keys, interleaved or leaving qubits uncovered, the closed
    form takes no step and agrees with Newton on the same dual."""
    m, targets = case
    res = max_entropy_with_marginals(MarginalConstraintSet(m, targets))
    assert res.iterations == 0 and res.residual < 1e-12
    keys = tuple(sorted(targets))
    sigma, entropy, _ = _newton_solve(m, keys, targets, 1e-9, 500)
    # Newton's dual value bounds the exact maximum from above
    assert res.entropy - 1e-12 <= entropy < res.entropy + 1e-8
    assert np.abs(res.state.matrix - sigma / np.trace(sigma).real).max() < 1e-7
    uncovered = m - sum(len(k) for k in keys)
    want = sum(von_neumann_entropy(t) for t in targets.values()) + uncovered
    assert res.entropy == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("depth, seed", [(2, 0), (2, 1), (3, 4)])
def test_pair_terms_are_mutual_information(depth, seed):
    """A pair's two single-qubit targets are disjoint, so its defect takes
    the closed form and is the pair's mutual information."""
    state = random_circuit_state(4, depth, seed)
    res = total_defect(state, truncation=3)
    for pair in combinations(range(4), 2):
        assert abs(res.terms[pair] - mutual_information(state, *pair)) < 1e-12
    diagnostics = max_entropy_defect(state, (0, 3)).diagnostics
    assert diagnostics["iterations"] == 0 and diagnostics["residual"] < 1e-12


def test_solver_trajectories_are_pinned():
    """total_defect values, iteration counts and residuals, exactly as the
    Newton dual gave them, with one BLAS thread (see conftest.py). The
    stabilizer states go in without their generators, so they are solved.

    The pins were written with the numpy build the file names. eigh's last
    bits differ between LAPACK builds, and so would the iterates, so
    elsewhere only the values are compared, to the solver's tolerance.
    """
    pins = json.loads(TRAJECTORIES.read_text())
    exact = np.__version__ == pins["written_with"]["numpy"]
    states = {
        "ghz-4": solver_input(ghz(4)),
        "ghz-5": solver_input(ghz(5)),
        "cluster-line-5": solver_input(cluster_state(5, line_edges(5))),
        "dicke-5-2": dicke_state(5, 2),
        "random-circuit-4-2-1": random_circuit_state(4, 2, 1),
    }
    assert sorted(states) == sorted(pins["total_defect_truncation_3"])
    for name, state in states.items():
        res = total_defect(state, truncation=3)
        want = pins["total_defect_truncation_3"][name]
        if not exact:
            assert abs(res.value - float(want["value"])) < 1e-5, name
            continue
        got = {
            "value": repr(res.value),
            "optimizer_iterations": res.diagnostics["optimizer_iterations"],
            "worst_residual": repr(res.diagnostics["worst_residual"]),
        }
        assert got == want, name


def test_import_does_not_load_scipy():
    """entlab never imports scipy, not even to solve a max-entropy problem."""
    code = (
        "import sys, entlab.cli; from entlab import PureState, ghz, total_defect; "
        "total_defect(PureState(4, ghz(4).amplitudes), truncation=3); "
        "sys.exit('scipy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CLI_ENV)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


def test_decomposition_reconstructs(rng):
    rho = DensityMatrix(2, random_density(rng, 2))
    res = max_avg_pure_decomposition(rho, restarts=2, sweeps=8, seed=1)
    w = res.decomposition.weights
    assert abs(w.sum() - 1.0) < 1e-9
    assert (w >= -1e-12).all()
    norms = np.linalg.norm(res.decomposition.states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9
    assert np.abs(res.decomposition.reconstruction() - rho.matrix).max() < 1e-8
    assert res.diagnostics["reconstruction_residual"] < 1e-8


def test_decomposition_of_pure_state_is_trivial():
    rho = bell().density_matrix()
    res = max_avg_pure_decomposition(rho, restarts=1, sweeps=4)
    # only one member, and the objective is twice the marginal entropy
    assert res.decomposition.weights.size == 1
    assert abs(res.value - 2.0) < 1e-10


# What the pair-rotation search returned, at the default budgets, for the
# pure pair states of test_rank_one_decomposition_is_exact (seeds 0 to 7);
# its restarts accepted noise-level gains of up to 1.1e-15 on these.
SEARCHED_PURE_PAIRS = (
    0.9874054996806418, 1.3679938155225448, 1.4268960827046424, 1.1324022471922877,
    0.4607499671098635, 0.13542230838412528, 1.0546738160430549, 0.3595111588796946,
)


def rank_one_value(rho, objective=None):
    """lam * objective(psi) for rho = lam |psi><psi|, with lam and psi from eigh.

    For the built-in objective this is the member mass 2 lam S(tr_b psi) of
    the row sqrt(lam) psi.
    """
    lam, vecs = np.linalg.eigh(rho.matrix)
    row = vecs[:, -1] * np.sqrt(lam[-1])
    if objective is None:
        return _pair_member_values(row[None, :])[0]
    weight = float(np.real(np.vdot(row, row)))
    return weight * float(objective(row / np.sqrt(weight)))


def _nested_defect(vec):
    """Relation 4's member objective on three qubits."""
    member = DensityMatrix(3, np.outer(vec, vec.conj()))
    return max_entropy_defect(member, (0, 1, 2), tol=1e-5, max_iter=2000).value


def test_rank_one_decomposition_is_exact():
    """A rank-1 input has one decomposition up to phases, so the search
    returns lam * objective(psi) without running a restart, and that is
    the value the restarts used to find."""
    rank_one = [0, 0, 1]  # diagnostics of an unsearched single member

    circuit = random_circuit_state(3, 3, 0).density_matrix()
    value, diagnostics = _decomposed_defect(circuit, (0, 1, 2), restarts=1, sweeps=1, seed=1)
    assert value == 1.031933874750516e-09
    assert value == rank_one_value(circuit, _nested_defect)
    assert [diagnostics[k] for k in ("restarts", "sweeps_used", "cardinality")] == rank_one

    pure_pair = bell().density_matrix()
    res = max_avg_pure_decomposition(pure_pair, restarts=2, sweeps=8, seed=3)
    assert res.value == 1.9999999999999991
    assert res.value == rank_one_value(pure_pair)

    for seed, searched in enumerate(SEARCHED_PURE_PAIRS):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = PureState(2, amps / np.linalg.norm(amps)).density_matrix()
        res = max_avg_pure_decomposition(rho)
        assert abs(res.value - searched) < 1e-9
        assert res.value == rank_one_value(rho)
        assert abs(res.value - 2.0 * entropy_oracle(partial_trace(rho, (0,)).matrix)) < 1e-12
        assert [res.diagnostics[k] for k in ("restarts", "sweeps_used", "cardinality")] == rank_one

    # rank 2: the W state's pair marginal still searches
    w_pair = partial_trace(dicke_state(3, 1).density_matrix(), (0, 1))
    res = max_avg_pure_decomposition(w_pair, restarts=1, sweeps=2)
    assert res.diagnostics["restarts"] >= 1 and res.diagnostics["sweeps_used"] >= 1


PROJ = np.zeros(4, dtype=complex)
PROJ[0] = 1.0


def overlap(v):
    """|<00|v>|^2: a linear member objective."""
    return float(np.abs(np.vdot(PROJ, v)) ** 2)


def test_linear_objective_is_decomposition_invariant(rng):
    # for a linear objective every decomposition averages to tr(rho P),
    # so the search must return that value no matter the budget
    rho = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    small = max_avg_pure_decomposition(rho, objective=overlap, restarts=1, sweeps=2, seed=0)
    large = max_avg_pure_decomposition(rho, objective=overlap, restarts=4, sweeps=10, seed=3)
    assert abs(small.value - 0.25) < 1e-9
    assert abs(large.value - 0.25) < 1e-9


def test_search_is_deterministic_and_monotone(rng):
    rho = DensityMatrix(2, random_density(rng, 2))
    a = max_avg_pure_decomposition(rho, restarts=3, sweeps=10, seed=7)
    b = max_avg_pure_decomposition(rho, restarts=3, sweeps=10, seed=7)
    assert a.value == b.value
    bigger = max_avg_pure_decomposition(rho, restarts=6, sweeps=10, seed=7)
    assert bigger.value >= a.value - 1e-12


def test_mixed_state_search_certifies_two_bits():
    mix = np.zeros((4, 4), dtype=complex)
    mix[0, 0] = mix[3, 3] = 0.5
    res = max_avg_pure_decomposition(DensityMatrix(2, mix), restarts=4, sweeps=16)
    assert res.value >= 2.0 - 1e-9
    flat = max_avg_pure_decomposition(DensityMatrix(2, np.eye(4) / 4), restarts=4, sweeps=16)
    assert flat.value >= 2.0 - 1e-9


def test_default_objective_needs_two_qubits():
    with pytest.raises(ValueError):
        max_avg_pure_decomposition(DensityMatrix(1, np.eye(2, dtype=complex) / 2))


# The benchmark's assisted inputs: (seed of a Gaussian 4-qubit vector, pair,
# search seed), each searched at 3 restarts and 12 sweeps.
ASSISTED_INPUTS = ((0, (0, 1), 0), (1, (1, 2), 1), (2, (0, 3), 2))


def _sha256(x):
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def pinned_searches():
    """Name -> (value, decomposition, diagnostics) of each pinned search."""
    out = {}
    for state_seed, (a, b), seed in ASSISTED_INPUTS:
        rng = np.random.default_rng(state_seed)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = PureState(4, amps / np.linalg.norm(amps))
        res = assisted_mutual_information(state, a, b, restarts=3, sweeps=12, seed=seed)
        out[f"assisted-{state_seed}"] = (res.search_value, res.decomposition, res.diagnostics)
    flat = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    dicke_pair = partial_trace(dicke_state(3, 1).density_matrix(), (0, 1))
    # 20 restarts, of which the early stop runs 16
    rank_two = DensityMatrix(2, random_density(np.random.default_rng(10), 2, rank=2))
    for name, rho, objective, restarts, sweeps, seed in (
        ("bell", bell().density_matrix(), None, 2, 8, 0),
        ("dicke-3-1-pair", dicke_pair, None, 4, 12, 1),
        ("flat", flat, None, 4, 12, 2),
        ("flat-overlap", flat, overlap, 4, 10, 3),
        ("early-stop", rank_two, None, 20, 3, 0),
    ):
        res = max_avg_pure_decomposition(rho, objective, restarts, sweeps, seed)
        out[name] = (res.value, res.decomposition, res.diagnostics)
    return out


def pin_record(value, decomposition, diagnostics) -> dict:
    """A search result as JSON: repr floats and SHA-256 of the ensemble."""
    return {
        "value": repr(value),
        "states_sha256": _sha256(decomposition.states),
        "weights_sha256": _sha256(decomposition.weights),
        "diagnostics": {k: repr(v) if isinstance(v, float) else v for k, v in diagnostics.items()},
    }


def test_decomposition_trajectories_are_pinned():
    """Values, ensembles and diagnostics of eight searches, exactly as the
    per-pair linspace/meshgrid search, scoring the pair objective's
    candidates from their 2x2 first-qubit Grams, walking each sweep's pairs
    in round-robin order and run one restart after another, gave them.

    As with the solver pins, the exact comparison runs only with the numpy
    build the file names (the search uses no scipy); elsewhere only the
    values are compared.
    """
    pins = json.loads(DECOMPOSITIONS.read_text())
    exact = np.__version__ == pins["written_with"]["numpy"]
    got = pinned_searches()
    assert sorted(got) == sorted(pins["searches"])
    assert got["early-stop"][2]["restarts"] < 20  # the pin covers the early stop
    for name, (value, decomposition, diagnostics) in got.items():
        want = pins["searches"][name]
        if exact:
            assert pin_record(value, decomposition, diagnostics) == want, name
        else:
            assert abs(value - float(want["value"])) < 1e-9, name


def assert_matches_reference(rho, objective, restarts, sweeps, seed):
    res = max_avg_pure_decomposition(rho, objective, restarts, sweeps, seed)
    value, weights, states, diagnostics = reference_decomposition_search(
        rho, objective, restarts, sweeps, seed
    )
    assert res.value == value
    assert np.array_equal(res.decomposition.weights, weights)
    assert np.array_equal(res.decomposition.states, states)
    assert res.diagnostics == diagnostics


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    rank=st.integers(2, 4),
    state_seed=st.integers(0, 2**32 - 1),
    restarts=st.integers(1, 12),
    sweeps=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(rank=2, state_seed=0, restarts=12, sweeps=4, seed=0)  # stops after 9 restarts
@example(rank=2, state_seed=71, restarts=12, sweeps=4, seed=71)  # one restart ends polished
def test_search_matches_serial_reference_bitwise(rank, state_seed, restarts, sweeps, seed):
    """Restarts climbed in lockstep blocks, each round-robin stage's pairs
    searched in one batch, give bitwise the value, ensemble and diagnostics
    of climbing them one after another, one pair at a time, the early stop
    included."""
    rho = DensityMatrix(2, random_density(np.random.default_rng(state_seed), 2, rank=rank))
    assert_matches_reference(rho, None, restarts, sweeps, seed)


def test_generic_search_matches_serial_reference_bitwise():
    """The generic-objective path climbs in the same lockstep blocks and
    round-robin stages."""
    rho = DensityMatrix(2, random_density(np.random.default_rng(3), 2, rank=3))
    assert_matches_reference(rho, _member_defect_2q, 10, 3, 4)


@pytest.mark.parametrize("t", range(2, 17, 2))
def test_round_robin_covers_every_pair_once(t):
    """A sweep is t - 1 stages of t/2 disjoint pairs (k, l), k < l, sorted
    by k, and meets every unordered pair exactly once; flattened, it is the
    serial reference's pair order."""
    stages = _round_robin(t)
    assert len(stages) == t - 1
    for pairs in stages:
        assert pairs.shape == (t // 2, 2)
        assert np.all(pairs[:, 0] < pairs[:, 1])
        assert np.all(np.diff(pairs[:, 0]) > 0)
        assert sorted(pairs.ravel().tolist()) == list(range(t))  # disjoint
    order = [tuple(p) for pairs in stages for p in pairs.tolist()]
    assert sorted(order) == list(combinations(range(t), 2))
    assert order == round_robin_pairs(t)


# The search's grid settings: (grid, coarse zoom rounds, fine zoom rounds,
# zoom grid) for the built-in objective and for a generic one.
SEARCH_GRIDS = {"pair": ((12, 8), 2, 6, (9, 9)), "generic": ((8, 5), 1, 3, (5, 5))}


def pair_rows(rng):
    """Seeded member-row pairs: generic, a zero b row, rows orthogonal to
    working precision (which reach _align_pair_phase's tiebreak), a
    product-state a and a near-copy pair."""
    def row():
        return rng.standard_normal(4) + 1j * rng.standard_normal(4)

    pairs = [(row(), row()) for _ in range(6)]
    pairs.append((row(), np.zeros(4, dtype=complex)))
    a, b = row(), row()
    pairs.append((a, b - a * (np.vdot(a, b) / np.vdot(a, a))))
    pairs.append((np.array([1, 1, 0, 0], dtype=complex), np.array([1, -1, 0, 0], dtype=complex)))
    pairs.append((np.array([0.6, 0, 0, 0], dtype=complex), row()))
    a = row()
    pairs.append((a, a * np.exp(0.3j) + 1e-6 * row()))
    return pairs


def test_align_pair_phase_rows_match_alone(rng):
    """Each row of a batched phase alignment is bitwise that row aligned
    alone: on pair_rows (a zero b row, the orthogonal tiebreak, a
    near-copy), a fancy-indexed and a strided subset of them, and random
    batches at d = 4, 8 and 16."""
    pairs = pair_rows(rng)
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    pick = np.array([10, 6, 0, 7, 7, 8])
    batches = [(a, b), (a[pick], b[pick]), (a[::3], b[::3])]
    for d in (4, 8, 16):
        for size in (1, 2, 5, 17, 48):
            x = rng.standard_normal((2, size, d)) + 1j * rng.standard_normal((2, size, d))
            batches.append((x[0], x[1]))
    for x, y in batches:
        got = _align_pair_phase(x, y)
        for i in range(len(x)):
            assert np.array_equal(got[i], _align_pair_phase(x[i : i + 1], y[i : i + 1])[0])
    got = _align_pair_phase(a, b)
    assert np.array_equal(got[6], b[6])  # a zero row is left as it is
    weights = np.arange(1, 5)
    for i in (7, 8):  # orthogonal rows: the weighted overlap is made real
        g = np.vdot(a[i], weights * got[i])
        assert abs(g.imag) < 1e-12 * abs(g) and g.real > 0.0
    for i in (0, 9, 10):
        g = np.vdot(a[i], got[i])
        assert abs(g.imag) < 1e-12 * abs(g) and g.real > 0.0


def test_pair_member_values_match_reference_bitwise(rng):
    pairs = pair_rows(rng)
    rows = np.concatenate([np.array(p) for p in pairs])
    batches = [rows, rows[:1], rows[3:5], np.zeros((2, 4), dtype=complex)]
    a, b = pairs[0]
    tt, ff = np.meshgrid(np.linspace(0, np.pi, 12), np.linspace(0, 2 * np.pi, 8))
    batches.append(np.concatenate(reference_pair_candidates(a, b, tt.ravel(), ff.ravel())))
    for batch in batches:
        want = reference_pair_member_values(batch)
        assert np.array_equal(_pair_member_values(batch), want)
        # a row's value does not depend on the batch it is computed in
        for i in range(0, len(batch), 7):
            assert np.array_equal(_pair_member_values(batch[i : i + 1]), want[i : i + 1])


def test_gram_totals_match_row_formed_values(rng):
    """Both new rows' values read off the pairs' 2x2 first-qubit Grams equal
    the values of the rows themselves, formed and valued one by one, at
    every round-0 grid point, to 1e-12 of the pair's norm^2: on pair_rows
    (a zero b row, orthogonal rows, a product-state a), a pair of product
    states and random pairs."""
    pairs = pair_rows(rng)
    pairs.append((np.kron([0.6, 0.8j], [1.0, -1.0]), np.kron([1.0, 0.0], [0.3, 0.4 - 0.2j])))
    for _ in range(20):
        pairs.append(tuple(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))))
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    rounds, features = _grid_plan(SEARCH_GRIDS["pair"][0], 0, (9, 9))
    ts, fs = rounds[0]
    coef, pair_trace = _mix_coefficients(a, b)
    got = _gram_totals(coef, pair_trace, features)
    tt, ff = np.repeat(ts, fs.size), np.tile(fs, ts.size)
    for i, (x, y) in enumerate(pairs):
        first, second = reference_pair_candidates(x, y, tt, ff)
        want = reference_pair_member_values(first) + reference_pair_member_values(second)
        scale = np.vdot(x, x).real + np.vdot(y, y).real
        assert np.max(np.abs(got[i] - want)) <= 1e-12 * scale, i


def _member_defect_2q(vec):
    """A nonlinear generic objective: 1 - |<00|v>|^4 - |<11|v>|^4."""
    return 1.0 - abs(vec[0]) ** 4 - abs(vec[3]) ** 4


@pytest.mark.parametrize("kind", ["pair", "generic"])
@pytest.mark.parametrize("depth", ["coarse", "fine", "mixed"])
def test_optimize_pair_matches_reference_bitwise(kind, depth, rng):
    """Gain, new rows and their values equal the per-pair linspace/meshgrid
    search's, which scores the pair objective's candidates from the pair's
    2x2 Grams (``reference_gram_totals``) and a generic objective's from
    the formed rows, and values the winning rows once formed; so do no-gain
    results.

    All pairs are searched in one batch, and once each on its own. Every
    pair runs the coarse depth at "coarse" and the full depth at "fine";
    at "mixed" every other pair runs the full depth and the rest drop out
    of the batch after the coarse rounds.
    """
    grid, coarse, fine, zoom = SEARCH_GRIDS[kind]
    if kind == "pair":
        new_fn, ref_fn = _pair_member_values, reference_pair_member_values
    else:
        new_fn = ref_fn = _generic_member_values(_member_defect_2q)
    plan = _grid_plan(grid, fine, zoom)
    pairs = pair_rows(rng)
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    rounds = np.full(len(pairs), fine if depth == "fine" else coarse)
    if depth == "mixed":
        rounds[::2] = fine
    batch = _optimize_pair(a, b, new_fn(a), new_fn, plan, rounds + 1)
    gains = 0
    for i, (x, y) in enumerate(pairs):
        want_gain, want_a, want_b = reference_optimize_pair(x, y, ref_fn, grid, rounds[i], zoom)
        alone = _optimize_pair(x[None], y[None], new_fn(x[None]), new_fn, plan, rounds[[i]] + 1)
        for gain, new_rows, vals in ([out[i] for out in batch], [out[0] for out in alone]):
            assert gain == want_gain
            if gain > 0.0:
                assert np.array_equal(new_rows, [want_a, want_b])
                assert np.array_equal(vals, ref_fn(np.stack([want_a, want_b])))
        gains += want_gain > 0.0
    assert gains >= 5  # the comparison covers accepted rotations
