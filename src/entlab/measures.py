"""Leak and correlation measures for register noise.

Leak quantities feed the uniform superposition |+>^n through a channel and
score entropies of the output; set quantities score how far a joint state
sits above what its sub-marginals determine, via constrained entropy
maximization. All values are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .channels import QuantumChannel, _span, apply
from .errors import SizeLimitError
from .optim import (
    DEFAULT_MAX_ITER,
    DEFAULT_RESTARTS,
    DEFAULT_SWEEPS,
    DEFAULT_TOL,
    Decomposition,
    MarginalConstraintSet,
    check_search_budget,
    max_avg_pure_decomposition,
    max_entropy_with_marginals,
)
from .states import (
    DensityMatrix,
    PureState,
    as_density_matrix,
    entropy_of_subset,
    partial_trace,
    validate_subset,
    von_neumann_entropy,
)
from .zoo import plus_all

MAX_SET_SIZE = 4
MAX_TOTAL_QUBITS = 8
_PURITY_ATOL = 1e-8


def binary_entropy(p: float) -> float:
    """H2(p) in bits; symmetric about 1/2 and zero at the endpoints."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _noisy_output(channel: QuantumChannel, input_state: PureState | None) -> DensityMatrix:
    """The channel applied to ``input_state``, by default |+>^n on the
    smallest register that holds the channel."""
    if input_state is None:
        input_state = plus_all(_span(channel))
    return apply(channel, input_state.density_matrix())


def information_leak(
    channel: QuantumChannel, subset: Iterable[int], input_state: PureState | None = None
) -> float:
    """Entropy of the noisy output restricted to ``subset``.

    The input is |+>^n unless ``input_state`` overrides it; sub-register
    channels are padded with identity before application.
    """
    return entropy_of_subset(_noisy_output(channel, input_state), subset)


def environment_information(
    channel: QuantumChannel, subset: Iterable[int], input_state: PureState | None = None
) -> float:
    """Mutual information between ``subset`` and the channel environment.

    For a pure input the dilation is pure, so I(A:env) reduces to
    S(out|_A) + S(out) - S(out|_rest) with rest = register minus A; no
    explicit environment register is needed.
    """
    out = _noisy_output(channel, input_state)
    keep = validate_subset(subset, out.n)
    rest = tuple(q for q in range(out.n) if q not in keep)
    s_a = von_neumann_entropy(partial_trace(out, keep))
    s_env = von_neumann_entropy(out)
    s_joint = von_neumann_entropy(partial_trace(out, rest)) if rest else 0.0
    return float(max(0.0, s_a + s_env - s_joint))


def mutual_information(state: PureState | DensityMatrix, a: int, b: int) -> float:
    """S(rho_a) + S(rho_b) - S(rho_ab) for two register positions."""
    rho = as_density_matrix(state)
    pair = validate_subset((a, b), rho.n)
    s_a = entropy_of_subset(rho, (pair[0],))
    s_b = entropy_of_subset(rho, (pair[1],))
    s_ab = entropy_of_subset(rho, pair)
    return s_a + s_b - s_ab


def excess_leak(
    channel: QuantumChannel, a: int, b: int, input_state: PureState | None = None
) -> float:
    """L(a) + L(b) - L({a,b}): the correlated part of two leaks."""
    return mutual_information(_noisy_output(channel, input_state), a, b)


@dataclass
class AssistedResult:
    """Certified lower bound on decomposition-maximized pair correlation."""

    value: float
    search_value: float
    floor: float
    decomposition: object
    diagnostics: dict = field(default_factory=dict)


def assisted_mutual_information(
    state: PureState | DensityMatrix,
    a: int,
    b: int,
    restarts: int = DEFAULT_RESTARTS,
    sweeps: int = DEFAULT_SWEEPS,
    seed: int = 0,
) -> AssistedResult:
    """Max over pure decompositions of the average member mutual information.

    Pure two-qubit members contribute twice their marginal entropy. The
    search value is floored at the plain mutual information (the one-term
    representation); the reported value is a lower bound certified by the
    returned decomposition.
    """
    check_search_budget(restarts, sweeps)
    rho = as_density_matrix(state)
    pair = validate_subset((a, b), rho.n)
    marginal = partial_trace(rho, pair)
    floor = mutual_information(rho, a, b)
    # Search in the local eigenbasis of the one-qubit marginals. The target
    # is invariant under per-qubit unitaries, so this fixes the frame and
    # makes the reported value independent of how the input was oriented.
    frames = []
    for q in (0, 1):
        vecs = np.linalg.eigh(partial_trace(marginal, (q,)).matrix)[1]
        frames.append(vecs[:, ::-1])
    w = np.kron(frames[0], frames[1])
    canon = w.conj().T @ marginal.matrix @ w
    canon = DensityMatrix(2, (canon + canon.conj().T) / 2.0)
    result = max_avg_pure_decomposition(
        canon, objective=None, restarts=restarts, sweeps=sweeps, seed=seed
    )
    decomposition = Decomposition(
        weights=result.decomposition.weights,
        states=result.decomposition.states @ w.T,
    )
    return AssistedResult(
        value=float(max(result.value, floor)),
        search_value=result.value,
        floor=floor,
        decomposition=decomposition,
        diagnostics=result.diagnostics,
    )


@dataclass
class DefectResult:
    """Entropy gap between the marginal-constrained maximum and the state."""

    value: float
    constrained_entropy: float
    subset_entropy: float
    diagnostics: dict = field(default_factory=dict)


def max_entropy_defect(
    state: PureState | DensityMatrix,
    subset: Iterable[int],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DefectResult:
    """max S(sigma) over states matching all (m-1)-subset marginals of
    rho|_subset, minus S(rho|_subset).

    For pairs this equals the mutual information. Subset sizes above
    MAX_SET_SIZE raise SizeLimitError.
    """
    rho = as_density_matrix(state)
    keep = validate_subset(subset, rho.n)
    m = len(keep)
    if m < 2:
        raise ValueError("subset must contain at least two qubits")
    if m > MAX_SET_SIZE:
        raise SizeLimitError(f"subset of size {m} exceeds the cap of {MAX_SET_SIZE}")
    restricted = partial_trace(rho, keep)
    s_here = von_neumann_entropy(restricted)
    subsets = list(combinations(range(m), m - 1))
    constraints = MarginalConstraintSet.from_state(restricted, subsets)
    solved = max_entropy_with_marginals(constraints, tol=tol, max_iter=max_iter)
    # the restricted state itself is feasible, so the max cannot sit below it
    if solved.entropy < s_here - 10.0 * tol:
        raise RuntimeError(
            f"constrained maximum {solved.entropy} below feasible entropy {s_here}"
        )
    return DefectResult(
        value=float(solved.entropy - s_here),
        constrained_entropy=float(solved.entropy),
        subset_entropy=float(s_here),
        diagnostics=solved.diagnostics(),
    )


def excess_leak_set(
    channel: QuantumChannel,
    subset: Iterable[int],
    input_state: PureState | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DefectResult:
    """Max-entropy defect of the noisy output on ``subset``.

    Vanishes for product channels on the product input, where the output
    marginal is exactly the product of its sub-marginals.
    """
    out = _noisy_output(channel, input_state)
    return max_entropy_defect(out, subset, tol=tol, max_iter=max_iter)


@dataclass
class TotalDefectResult:
    """Sum of subset defects with its truncation bookkeeping."""

    value: float
    value_without_full: float
    full_set_term: float | None
    included_sizes: list
    included_full: bool
    terms: dict
    diagnostics: dict = field(default_factory=dict)


def total_defect(
    state: PureState | DensityMatrix,
    max_subset_size: int = MAX_SET_SIZE,
    include_full: bool | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TotalDefectResult:
    """Sum of max-entropy defects over subsets of size 2..min(cap, 4).

    Only proper subsets are enumerated; the full register is added as one
    extra term when ``include_full`` is True, or automatically when the
    register has at most MAX_SET_SIZE qubits (include_full=None). Requires
    a pure input on at most MAX_TOTAL_QUBITS qubits; singletons never
    contribute.
    """
    rho = as_density_matrix(state)
    n = rho.n
    if n > MAX_TOTAL_QUBITS:
        raise SizeLimitError(f"register of {n} qubits exceeds the cap of {MAX_TOTAL_QUBITS}")
    if n < 2:
        raise ValueError("need at least two qubits")
    if not rho.is_pure(_PURITY_ATOL):
        raise ValueError(f"input must be pure (purity {rho.purity():.6f})")
    cap = min(int(max_subset_size), MAX_SET_SIZE)
    if cap < 2:
        raise ValueError("max_subset_size must be at least 2")
    if include_full is None:
        include_full = n <= MAX_SET_SIZE
    if include_full and n > MAX_SET_SIZE:
        raise SizeLimitError(f"full-set term needs at most {MAX_SET_SIZE} qubits, got {n}")

    terms: dict[tuple, float] = {}
    sizes = [s for s in range(2, cap + 1) if s < n]
    total = 0.0
    iterations = 0
    worst_residual = 0.0
    for size in sizes:
        for subset in combinations(range(n), size):
            res = max_entropy_defect(rho, subset, tol=tol, max_iter=max_iter)
            terms[subset] = res.value
            total += res.value
            iterations += res.diagnostics["iterations"]
            worst_residual = max(worst_residual, res.diagnostics["residual"])
    full_term = None
    if include_full:
        res = max_entropy_defect(rho, tuple(range(n)), tol=tol, max_iter=max_iter)
        full_term = res.value
        terms[tuple(range(n))] = res.value
        iterations += res.diagnostics["iterations"]
        worst_residual = max(worst_residual, res.diagnostics["residual"])
    return TotalDefectResult(
        value=float(total + (full_term or 0.0)),
        value_without_full=float(total),
        full_set_term=full_term,
        included_sizes=sizes,
        included_full=bool(include_full),
        terms=terms,
        diagnostics={
            "optimizer_iterations": iterations,
            "worst_residual": worst_residual,
            "tol": tol,
        },
    )
