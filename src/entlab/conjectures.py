"""Verdicts for the leak/correlation relations and the growth scan.

Each relation compares an excess-leak quantity against a correlation term
scaled by a reference leak and a level c:

    1: excess_leak(a,b)      >= c * mean-leak * mutual_information(a,b)
    2: excess_leak(a,b)      >= c * mean-leak * assisted_mutual_information(a,b)
    3: excess_leak_set(A)    >= c * min-leak  * max_entropy_defect(A)
    4: excess_leak_set(A)    >= c * min-leak  * decomposed defect of A

One function builds every verdict from the relation number: it reads the
mean or minimum one-qubit leak and the pair (1, 2) or set (3, 4) excess
from one noisy output (a Pauli table channel's flip-pattern law, or the
Kraus branches of any other; see ``measures``), and the number alone fixes
the term's name, the conditional flag and the note. Each public evaluator
checks its arguments and supplies only its term.

Relations 2 and 4 search pure decompositions, so "satisfied" is flagged
conditional. Relation 2's term, also relation 4's on a pair, is a certified
lower bound; relation 4's on three or more qubits is not (see
``_decomposed_defect``). A pure (rank-1) marginal has one decomposition; its
verdict keeps the flag and note, so reports differ only in the diagnostics.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .channels import QuantumChannel
from .measures import (
    _noisy_output,
    _set_excess,
    assisted_mutual_information,
    max_entropy_defect,
    mutual_information,
    total_defect,
)
from .optim import check_search_budget, max_avg_pure_decomposition
from .states import DensityMatrix, PureState, check_state, partial_trace, validate_subset
from .states import check_register_size

VACUOUS_ATOL = 1e-9
# per-term totals inherit the defect optimizer's accuracy, not machine epsilon
SCAN_NOISE_FLOOR = 1e-6


@dataclass
class RelationVerdict:
    """Outcome of one relation check at one level."""

    relation: int
    qubits: tuple
    level: float
    excess: float
    term: float
    term_kind: str
    leaks: dict
    reference_leak: float
    k_hat: float | None
    k_hat_per_leak: float | None
    verdict: str
    conditional: bool = False
    notes: str = ""
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "excess_leak" if f.name == "excess" else f.name: getattr(self, f.name)
            for f in fields(self)
        }
        d["qubits"] = list(self.qubits)
        d["leaks"] = {str(k): v for k, v in self.leaks.items()}
        return d


def _ratio(num: float, den: float) -> float | None:
    if den < VACUOUS_ATOL:
        if num < VACUOUS_ATOL:
            return None
        return float("inf")
    return num / den


_value_and_diagnostics = operator.attrgetter("value", "diagnostics")


def _verdict(
    relation: int,
    state: PureState | DensityMatrix,
    channel: QuantumChannel,
    qubits: Iterable[int],
    level: float,
    restarts: int,
    sweeps: int,
    seed: int,
) -> RelationVerdict:
    """Relation ``relation`` at ``level``, its term read from ``_RELATIONS``.

    The search budget, the state and the subset are checked first. The
    excess and the leaks come from the channel's output on |+>^m, m the
    larger of the state's size and the channel's span, before the term is
    computed, so an excess that cannot be computed fails before a
    decomposition search starts. The leaks and the excess read the output
    as the measures of the same names do; a pair excess reuses the two
    leaks, so a pair verdict reads three marginal entropies.
    """
    check_search_budget(restarts, sweeps)
    check_state(state)
    qubits = validate_subset(qubits, state.n)
    term_kind, searched, term = _RELATIONS[relation]
    out = _noisy_output(channel, n=state.n)
    leaks = {q: out.entropy((q,)) for q in qubits}
    if relation <= 2:
        reference_leak = float(np.mean(list(leaks.values())))
        # S(a) + S(b) - S(ab) as excess_leak forms it, from the leaks above
        a, b = qubits
        excess = leaks[a] + leaks[b] - out.entropy(qubits)
        term_value, diagnostics = term(state, qubits, restarts, sweeps, seed)
    else:
        reference_leak = float(min(leaks.values()))
        excess, excess_diagnostics = _value_and_diagnostics(_set_excess(out, qubits))
        term_value, term_diagnostics = term(state, qubits, restarts, sweeps, seed)
        diagnostics = {"excess": excess_diagnostics, "term": term_diagnostics}
    if excess < VACUOUS_ATOL and (term_value < VACUOUS_ATOL or reference_leak < VACUOUS_ATOL):
        verdict = "vacuous"
    elif excess >= level * reference_leak * term_value - 1e-12:
        verdict = "satisfied"
    else:
        verdict = "violated"
    return RelationVerdict(
        relation=relation,
        qubits=qubits,
        level=level,
        excess=float(excess),
        term=float(term_value),
        term_kind=term_kind,
        leaks=leaks,
        reference_leak=reference_leak,
        k_hat=_ratio(excess, term_value),
        k_hat_per_leak=_ratio(excess, term_value * reference_leak),
        verdict=verdict,
        conditional=searched and verdict == "satisfied",
        notes="term is a best-found lower bound" if searched else "",
        diagnostics=diagnostics,
    )


def eval_relation1(
    state: PureState | DensityMatrix,
    channel: QuantumChannel,
    a: int,
    b: int,
    level: float = 1.0,
) -> RelationVerdict:
    """Pair relation with the plain mutual information on the right."""
    return _verdict(1, state, channel, (a, b), level, 1, 1, 0)


def eval_relation2(
    state: PureState | DensityMatrix,
    channel: QuantumChannel,
    a: int,
    b: int,
    level: float = 1.0,
    restarts: int = 8,
    sweeps: int = 40,
    seed: int = 0,
) -> RelationVerdict:
    """Pair relation against the decomposition-maximized correlation.

    The right-hand term is a certified lower bound, so a satisfied verdict
    is conditional; a violated one is definitive.
    """
    return _verdict(2, state, channel, (a, b), level, restarts, sweeps, seed)


def _assisted_term(state, pair: tuple, restarts: int, sweeps: int, seed: int) -> tuple[float, dict]:
    """Relation 2's term, and relation 4's on a pair, with its diagnostics."""
    result = assisted_mutual_information(state, *pair, restarts=restarts, sweeps=sweeps, seed=seed)
    return result.value, result.diagnostics


def _decomposed_defect(
    state: PureState | DensityMatrix,
    subset: tuple,
    restarts: int,
    sweeps: int,
    seed: int,
) -> tuple[float, dict]:
    """Best found weighted-average defect over pure decompositions of rho|_A.

    On a pair it is relation 2's term: a pure member's defect, and that of
    the mixed marginal (the one-term floor), is its mutual information. On
    more qubits each member's defect is a max-entropy dual value, an upper
    bound to tol 1e-5, so the result is not a certified lower bound and can
    exceed the exact value: 1.0000000011 on ``ghz(3)``, whose defect is 1.
    """
    if len(subset) == 2:
        return _assisted_term(state, subset, restarts, sweeps, seed)
    m = len(subset)

    def member_defect(vec: np.ndarray) -> float:
        member = DensityMatrix(m, np.outer(vec, vec.conj()))
        return max_entropy_defect(member, tuple(range(m)), tol=1e-5, max_iter=2000).value

    result = max_avg_pure_decomposition(
        partial_trace(state, subset),
        objective=member_defect,
        restarts=max(1, restarts // 4),
        sweeps=max(1, sweeps // 10),
        seed=seed,
    )
    return result.value, result.diagnostics


def eval_relation34(
    state: PureState | DensityMatrix,
    channel: QuantumChannel,
    subset: Iterable[int],
    level: float = 1.0,
    mode: str = "marginal",
    restarts: int = 8,
    sweeps: int = 40,
    seed: int = 0,
) -> RelationVerdict:
    """Set relation; ``mode`` picks the marginal (3) or decomposed (4) term.

    The reference leak is the minimum single-qubit leak over the subset.
    The subset's size is checked with the excess, before the term.
    """
    relation = {"marginal": 3, "decomposed": 4}.get(mode)
    if relation is None:
        raise ValueError(f"mode must be 'marginal' or 'decomposed', got {mode!r}")
    return _verdict(relation, state, channel, subset, level, restarts, sweeps, seed)


# each relation's term kind, whether its term is searched for (hence a
# best-found lower bound), and its term on (state, qubits, restarts,
# sweeps, seed) as (value, diagnostics)
_RELATIONS: dict[int, tuple[str, bool, Callable[..., tuple[float, dict]]]] = {
    1: ("mutual_information", False, lambda state, pair, *_: (mutual_information(state, *pair), {})),
    2: ("assisted_mutual_information", True, _assisted_term),
    3: (
        "max_entropy_defect",
        False,
        lambda state, keep, *_: _value_and_diagnostics(max_entropy_defect(state, keep)),
    ),
    4: ("decomposed_defect", True, _decomposed_defect),
}


@dataclass
class CensorshipReport:
    """Per-size totals, the path that computed each (see ``total_defect``)
    and the fitted growth exponent of a state family."""

    sizes: list
    values: list
    methods: list
    exponent: float | None
    growth: str
    truncation: int
    include_full: str

    def to_dict(self) -> dict:
        return asdict(self)


def fit_growth_exponent(sizes: Sequence[int], values: Sequence[float]) -> float | None:
    """Least-squares slope of log value against log size, positive values only."""
    xs = []
    ys = []
    for n, v in zip(sizes, values):
        if v > SCAN_NOISE_FLOOR:
            xs.append(np.log(float(n)))
            ys.append(np.log(float(v)))
    if len(xs) < 2:
        return None
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(slope)


def _classify_growth(exponent: float | None, values: Sequence[float]) -> str:
    if all(v <= SCAN_NOISE_FLOOR for v in values):
        return "trivially-censored"
    if exponent is None:
        return "undetermined"
    if exponent < 0.5:
        return "sublinear"
    if exponent < 1.5:
        return "approximately-linear"
    if exponent < 2.5:
        return "approximately-quadratic"
    return "superquadratic"


def censorship_scan(
    family: Callable[[int], PureState | DensityMatrix],
    sizes: Iterable[int],
    truncation: int = 3,
    include_full: str = "never",
) -> CensorshipReport:
    """Total-defect growth of a family over register sizes.

    ``truncation`` and ``include_full`` go to ``total_defect`` as given;
    "never", the default here, keeps totals comparable across sizes. A size
    above the register cap (``check_register_size``) raises SizeLimitError
    before any state is built.
    Each total is exact when the family builds stabilizer states that
    carry their generators (``ghz``, ``plus_all``, ``cluster_state``) and
    a sum of max-entropy dual solves otherwise; ``methods`` says which.
    """
    truncation = operator.index(truncation)
    size_list = sorted(operator.index(n) for n in sizes)
    if size_list:
        check_register_size(size_list[-1])
    totals = [total_defect(family(n), truncation, include_full) for n in size_list]
    values = [float(t.value) for t in totals]
    exponent = fit_growth_exponent(size_list, values)
    return CensorshipReport(
        sizes=size_list,
        values=values,
        methods=[t.diagnostics["method"] for t in totals],
        exponent=exponent,
        growth=_classify_growth(exponent, values),
        truncation=truncation,
        include_full=include_full,
    )
