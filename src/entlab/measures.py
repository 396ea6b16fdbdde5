"""Leak and correlation measures for register noise.

Channel quantities feed a pure input, the uniform superposition |+>^n
unless given, through a channel and score the output, with no 2^n x 2^n
output formed. A channel of Pauli tables on the default |+>^n leaves the
classical mixture of its strings' Z/Y flip patterns, read as one law p
of 2^n probabilities (``channels._pauli_law``; the |+>^n case of the
stabilizer entropy rule of Fattal et al., quant-ph/0406168). Any other
channel, or an explicit input, gives the branches K_k psi, kept as k
rows of length 2^n; S(out) comes from their k x k Gram matrix when that
is the smaller side. Each quantity is written once against the two reads
both give, ``entropy(keep)`` and ``marginal(keep)``, of a validated ``keep``.

Set quantities score how far a joint state sits above what its
sub-marginals determine. ``max_entropy_defect`` and ``total_defect`` take
one of two paths, which their diagnostics name as ``method``:
- "stabilizer": a PureState that carries stabilizer generators (``ghz``,
  ``plus_all`` and every ``cluster_state``) gets each defect exactly from
  one table of GF(2) subgroups, each subset's eliminated once per call
  (``_stabilizer_dims``), with no density matrix, partial trace or solve;
- "max_entropy": any other input, a PureState's marginals read from its
  amplitudes, gets each defect as a max-entropy dual value, a certified
  upper bound. A pair's two single-qubit marginals are disjoint, so its
  maximum is their product in closed form, with no Newton step, and its
  defect is the pair's mutual information. ``excess_leak_set`` always
  takes this path, on the noisy output's marginal.
All values are in bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Iterable

import numpy as np

from .channels import QuantumChannel, _check_fit, _pauli_law, _run_stages, _span, _tables
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
    _branch_entropy,
    _hermitize,
    check_probability,
    check_state,
    entropy_of_subset,
    gf2_kernel,
    gf2_rank,
    partial_trace,
    pure_marginal,
    spectrum_entropy,
    validate_subset,
    von_neumann_entropy,
)
from .zoo import plus_all

MAX_SET_SIZE = 4
# total_defect's full-register term: never, up to MAX_SET_SIZE qubits, always
INCLUDE_FULL = ("never", "auto", "always")


def binary_entropy(p: float) -> float:
    """H2(p) in bits; symmetric about 1/2 and zero at the endpoints."""
    p = check_probability(p)
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


class _Rows:
    """An output sum_k |v_k><v_k| held as its branch rows v_k = K_k psi."""

    def __init__(self, rows: np.ndarray, n: int):
        self.rows, self.n = rows, n

    def entropy(self, keep: tuple) -> float:
        return _branch_entropy(self.rows, self.n, keep)

    def marginal(self, keep: Iterable[int]) -> DensityMatrix:
        return pure_marginal(self.rows, self.n, keep)


class _Law:
    """An output sum_f p(f) H^n|f><f|H^n held as its flip-pattern law p."""

    def __init__(self, p: np.ndarray, n: int):
        self.p, self.n = p, n

    def _pattern(self, keep: tuple) -> np.ndarray:
        """p's marginal on ``keep``, kept qubits in register order."""
        drop = tuple(q for q in range(self.n) if q not in keep)
        return self.p.reshape((2,) * self.n).sum(axis=drop).reshape(-1)

    def entropy(self, keep: tuple) -> float:
        return spectrum_entropy(self._pattern(keep))

    def marginal(self, keep: tuple) -> DensityMatrix:
        """H diag(p_A) H: entry (a, b) is the Walsh transform of p_A at a
        xor b over 2^|A|, so the matrix is real and exactly symmetric."""
        p = self._pattern(keep)
        k, i = len(p).bit_length() - 1, np.arange(len(p))
        signs = 1.0 - 2.0 * (sum((i[:, None] & i) >> b for b in range(k)) & 1)
        return DensityMatrix(k, ((signs @ p) / len(p))[i[:, None] ^ i])


def _noisy_output(
    channel: QuantumChannel, input_state: PureState | None = None, n: int = 0
) -> _Rows | _Law:
    """The channel's output on ``input_state``, by default |+>^m with m the
    larger of n and the channel's span: its flip-pattern law when every
    stage is a table and the input is the default, else its branch rows
    (``_run_stages``), in the order of ``channel.kraus``."""
    if input_state is None:
        m = max(n, _span(channel))
        if _tables(channel.stages):
            return _Law(_pauli_law(channel.stages, range(m), twirl=False), m)
        input_state = plus_all(m)
    m = input_state.n
    _check_fit(channel, m)
    return _Rows(_run_stages(channel.stages, m, input_state.amplitudes).reshape(-1, 2**m), m)


def information_leak(
    channel: QuantumChannel, subset: Iterable[int], input_state: PureState | None = None
) -> float:
    """Entropy of the noisy output restricted to ``subset``.

    The input is |+>^n unless ``input_state`` overrides it.
    """
    out = _noisy_output(channel, input_state)
    return out.entropy(validate_subset(subset, out.n, allow_empty=True))


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
    s_joint = out.entropy(rest) if rest else 0.0
    return float(max(0.0, out.entropy(keep) + out.entropy(range(out.n)) - s_joint))


def mutual_information(state: PureState | DensityMatrix, a: int, b: int) -> float:
    """S(rho_a) + S(rho_b) - S(rho_ab) for two register positions."""
    pair = validate_subset((a, b), state.n)
    entropy = partial(entropy_of_subset, state)
    if isinstance(state, PureState):  # the pair is checked: no validate_subset again
        entropy = partial(_branch_entropy, state.amplitudes, state.n)
    return entropy(pair[:1]) + entropy(pair[1:]) - entropy(pair)


def excess_leak(
    channel: QuantumChannel, a: int, b: int, input_state: PureState | None = None
) -> float:
    """L(a) + L(b) - L({a,b}): the correlated part of two leaks."""
    out = _noisy_output(channel, input_state)
    pair = validate_subset((a, b), out.n)
    s_a, s_b = (out.entropy((q,)) for q in pair)
    return s_a + s_b - out.entropy(pair)


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
    marginal = partial_trace(state, (a, b))
    floor = mutual_information(state, a, b)
    # Search in the local eigenbasis of the one-qubit marginals. The target
    # is invariant under per-qubit unitaries, so this fixes the frame and
    # makes the reported value independent of how the input was oriented.
    frames = []
    for q in (0, 1):
        vecs = np.linalg.eigh(partial_trace(marginal, (q,)).matrix)[1]
        frames.append(vecs[:, ::-1])
    w = np.kron(frames[0], frames[1])
    canon = DensityMatrix(2, _hermitize(w.conj().T @ marginal.matrix @ w))
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

    On a PureState with stabilizer generators the value is exact (see
    ``_stabilizer_dims``) and ``tol`` and ``max_iter`` go unused.
    Otherwise the maximum is the solver's dual value on the subset's
    ``partial_trace``, a certified upper bound, so the value never sits
    below the true defect; for pairs it is the mutual information. A subset
    above MAX_SET_SIZE raises SizeLimitError, a non-state TypeError.
    """
    check_state(state)
    keep = _set_subset(subset, state.n)
    rows = getattr(state, "stabilizer_rows", None)
    if rows is None:
        return _subset_defect(state, keep, {}, tol, max_iter)
    dim_s, dim_g = _stabilizer_dims(rows, state.n, [keep])[keep]
    m = len(keep)
    return DefectResult(
        value=float(dim_s - dim_g),
        constrained_entropy=float(m - dim_g),
        subset_entropy=float(m - dim_s),
        diagnostics={"method": "stabilizer"},
    )


def _set_subset(subset: Iterable[int], n: int) -> tuple:
    """``subset`` of an n-qubit register as a set quantity takes it: at
    least two qubits and at most MAX_SET_SIZE (else SizeLimitError)."""
    keep = validate_subset(subset, n)
    if len(keep) < 2:
        raise ValueError("subset must contain at least two qubits")
    if len(keep) > MAX_SET_SIZE:
        raise SizeLimitError(f"subset of size {len(keep)} exceeds the cap of {MAX_SET_SIZE}")
    return keep


def _subset_defect(
    state: PureState | DensityMatrix, keep: tuple, solved: dict, tol: float, max_iter: int
) -> DefectResult:
    """``max_entropy_defect`` of ``state`` on ``keep``, solved on the
    subset's ``partial_trace``. A defect depends only on that marginal, so
    each distinct one is solved once, memoised in ``solved`` by its bytes."""
    restricted = partial_trace(state, keep)
    key = restricted.matrix.tobytes()
    if key not in solved:
        solved[key] = _restricted_defect(restricted, tol, max_iter)
    return solved[key]


def _stabilizer_dims(rows: list[int], n: int, subsets: list[tuple]) -> dict[tuple, tuple]:
    """(dim S_A, dim G) for each subset A in ``subsets`` of the n-qubit
    stabilizer state with generator ``rows``, in the order given.

    S_A is the group of stabilizers supported on A, so S(rho_A) = |A| -
    dim S_A (Fattal et al., quant-ph/0406168). The S_B of the
    (|A|-1)-subsets B generate a group G; the uniform state on G's code
    space has rho_A's marginals on every B and lies in the closure of the
    exponential family of those marginals, so it is the maximizer, with
    entropy |A| - dim G, and the defect is dim S_A - dim G. Each group is
    eliminated once per call, with a pair's singletons on demand, and G's
    dimension is the rank of the union of its faces' groups.
    """
    masks = [(1 << q) | (1 << (n + q)) for q in range(n)]
    groups: dict[tuple, list[int]] = {}

    def group(keep: tuple) -> list[int]:
        if keep not in groups:
            groups[keep] = gf2_kernel(rows, ~sum(masks[q] for q in keep))
        return groups[keep]

    dims = {}
    for keep in subsets:
        faces = combinations(keep, len(keep) - 1)
        dims[keep] = (len(group(keep)), gf2_rank([row for face in faces for row in group(face)]))
    return dims


def _restricted_defect(restricted: DensityMatrix, tol: float, max_iter: int) -> DefectResult:
    """``max_entropy_defect`` of a state on its whole register."""
    m = restricted.n
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
        diagnostics={"method": "max_entropy", **solved.diagnostics()},
    )


def excess_leak_set(
    channel: QuantumChannel,
    subset: Iterable[int],
    input_state: PureState | None = None,
) -> DefectResult:
    """Max-entropy defect of the noisy output on ``subset``.

    Vanishes for product channels on the product input, where the output
    marginal is exactly the product of its sub-marginals.
    """
    return _set_excess(_noisy_output(channel, input_state), subset)


def _set_excess(out: _Rows | _Law, subset: Iterable[int]) -> DefectResult:
    """``max_entropy_defect`` of the output ``out`` on ``subset``."""
    keep = _set_subset(subset, out.n)
    return _restricted_defect(out.marginal(keep), DEFAULT_TOL, DEFAULT_MAX_ITER)


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
    truncation: int = MAX_SET_SIZE,
    include_full: str = "auto",
) -> TotalDefectResult:
    """Sum of max-entropy defects over subsets of size 2..min(truncation, 4).

    Only proper subsets are enumerated; the full register is added as one
    extra term when ``include_full`` is "always", or when it is "auto" and
    the register has at most MAX_SET_SIZE qubits (INCLUDE_FULL). Requires
    a pure input of any size up to the register cap; singletons never
    contribute. A DensityMatrix's purity is checked, and it is then read as
    its amplitudes psi = m[:, j] / sqrt(m_jj), j its largest diagonal entry,
    so truncation 3 on ``ghz(12).density_matrix()`` takes 0.06 s once the
    matrix is built, not 27 s through dense marginals. A PureState with
    stabilizer generators gets every term exactly from one table of its
    subsets' groups, by the rule ``max_entropy_defect`` reads, and no
    solver runs. Any other input is solved on each subset's
    ``partial_trace``: subsets with bitwise equal marginals share one
    solve, and ``optimizer_iterations`` sums the Newton iterations of the
    solves that ran. ``diagnostics["method"]`` names the path.
    """
    check_state(state)
    n = state.n
    if n < 2:
        raise ValueError("need at least two qubits")
    if isinstance(state, DensityMatrix):
        if not state.is_pure():
            raise ValueError(f"input must be pure (purity {state.purity():.6f})")
        column = state.matrix[:, np.argmax(state.matrix.diagonal().real)]
        state = PureState(n, column / np.linalg.norm(column))
    cap = min(operator.index(truncation), MAX_SET_SIZE)
    if cap < 2:
        raise ValueError("truncation must be at least 2")
    if include_full not in INCLUDE_FULL:
        raise ValueError(f"include_full must be never/auto/always, got {include_full!r}")
    with_full = include_full == "always" or (include_full == "auto" and n <= MAX_SET_SIZE)
    if with_full and n > MAX_SET_SIZE:
        raise SizeLimitError(f"full-set term needs at most {MAX_SET_SIZE} qubits, got {n}")

    sizes = [s for s in range(2, cap + 1) if s < n]
    full = tuple(range(n))
    subsets = [subset for size in sizes for subset in combinations(full, size)]
    if with_full:
        subsets.append(full)
    rows = getattr(state, "stabilizer_rows", None)
    if rows is not None:
        dims = _stabilizer_dims(rows, n, subsets)
        terms = {subset: float(dim_s - dim_g) for subset, (dim_s, dim_g) in dims.items()}
        diagnostics = {"method": "stabilizer"}
    else:
        solved: dict[bytes, DefectResult] = {}
        terms = {
            subset: _subset_defect(state, subset, solved, DEFAULT_TOL, DEFAULT_MAX_ITER).value
            for subset in subsets
        }
        diagnostics = {
            "method": "max_entropy",
            "optimizer_iterations": sum(r.diagnostics["iterations"] for r in solved.values()),
            "worst_residual": max([0.0] + [r.diagnostics["residual"] for r in solved.values()]),
            "tol": DEFAULT_TOL,
        }
    total = sum(value for subset, value in terms.items() if subset != full)
    full_term = terms.get(full)
    return TotalDefectResult(
        value=float(total + (full_term or 0.0)),
        value_without_full=float(total),
        full_set_term=full_term,
        included_sizes=sizes,
        included_full=with_full,
        terms=terms,
        diagnostics=diagnostics,
    )
