import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entlab import DensityMatrix, PureState, channels, conjectures, measures
from entlab.channels import (
    QuantumChannel,
    build_correlated_flip,
    build_depolarizing,
    build_dephasing,
    build_pairwise_correlated,
    combine,
    compose,
    identity_channel,
)
from entlab.conjectures import (
    censorship_scan,
    eval_relation1,
    eval_relation2,
    eval_relation34,
    fit_growth_exponent,
)
from entlab.errors import SizeLimitError
from entlab.measures import (
    assisted_mutual_information,
    excess_leak,
    excess_leak_set,
    information_leak,
    max_entropy_defect,
    total_defect,
)
from entlab.optim import max_avg_pure_decomposition
from entlab.zoo import (
    bell,
    cluster_state,
    dicke_state,
    ghz,
    line_edges,
    plus_all,
    random_circuit_state,
)
from helpers import BUILT_CHANNELS, h2


def _relations(channel):
    """Relations 1 to 4 on the channel's register, unevaluated, with small
    search budgets. One-qubit channels sit on qubit 1 of two; relation 4
    takes a pair, since its nested solves on three qubits are slow."""
    if channel.n < 2:
        channel = QuantumChannel(channel.kraus, qubits=(1,))
    n = max(channel.qubits) + 1
    state, subset, budget = ghz(n), tuple(range(min(n, 3))), {"restarts": 1, "sweeps": 2}
    return channel, subset, [
        lambda: eval_relation1(state, channel, 0, 1),
        lambda: eval_relation2(state, channel, 0, 1, **budget),
        lambda: eval_relation34(state, channel, subset, mode="marginal"),
        lambda: eval_relation34(state, channel, (0, 1), mode="decomposed", **budget),
    ]


def _table_and_kraus_list():
    """Bursts on three qubits as a Pauli table, and as the same Kraus
    operators handed over as a list, which reads as branch rows."""
    table = build_pairwise_correlated(3, 0.1, 0.02, "Z")
    return [(table, measures._Law), (QuantumChannel(table.kraus), measures._Rows)]


def test_each_relation_builds_the_noisy_output_once(monkeypatch):
    """Every verdict builds its noisy output once, for its leaks and its
    pair or set excess: the flip-pattern law of a Pauli table channel, the
    branch rows K_k psi of the same channel given as a Kraus list. None
    calls apply for a padded dense output."""
    outputs, dense = [], []
    build, apply = conjectures._noisy_output, channels.apply
    monkeypatch.setattr(
        conjectures, "_noisy_output", lambda *a, **k: outputs.append(build(*a, **k)) or outputs[-1]
    )
    # every entlab module that binds apply, so a new import site is counted too
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "entlab"]:
        for attr, value in list(vars(module).items()):
            if value is apply:
                monkeypatch.setattr(module, attr, lambda *a, **k: dense.append(1) or apply(*a, **k))
    for channel, kind in _table_and_kraus_list():
        for relation, evaluate in enumerate(_relations(channel)[2], 1):
            outputs.clear()
            assert evaluate().relation == relation
            assert [type(out) for out in outputs] == [kind], relation
    assert dense == []


def test_pair_verdicts_read_each_leak_once(monkeypatch):
    """A pair verdict reads three marginal entropies of the noisy output,
    the two one-qubit leaks and the pair, and forms its excess from them,
    from the law and from the branch rows alike."""
    read = []
    for kind in (measures._Law, measures._Rows):
        entropy = kind.entropy

        def counted(out, keep, entropy=entropy):
            read.append(tuple(keep))
            return entropy(out, keep)

        monkeypatch.setattr(kind, "entropy", counted)
    for channel, _ in _table_and_kraus_list():
        for evaluate in _relations(channel)[2][:2]:
            read.clear()
            evaluate()
            assert read == [(0,), (1,), (0, 1)]


@pytest.mark.parametrize("mode", ["marginal", "decomposed"])
def test_relation34_refuses_a_bad_subset_before_any_search(monkeypatch, mode):
    """A subset of one qubit or above the set cap fails with the excess,
    before the term's solve or decomposition search starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(conjectures, "max_avg_pure_decomposition", refuse)
    monkeypatch.setattr(measures, "max_entropy_with_marginals", refuse)
    state, channel = dicke_state(5, 2), build_dephasing(0.2)
    with pytest.raises(ValueError, match="at least two qubits"):
        eval_relation34(state, channel, (0,), mode=mode)
    with pytest.raises(SizeLimitError):
        eval_relation34(state, channel, range(5), mode=mode)


@pytest.mark.parametrize("channel", BUILT_CHANNELS)
def test_verdicts_read_the_leak_measures(channel):
    channel, subset, relations = _relations(channel)
    verdicts = [evaluate() for evaluate in relations]
    for v in verdicts:
        assert v.leaks == {q: information_leak(channel, (q,)) for q in v.qubits}
    for v in verdicts[:2]:
        assert v.excess == excess_leak(channel, 0, 1)
    for v in verdicts[2:]:
        assert v.excess == excess_leak_set(channel, v.qubits).value


def test_relation1_correlated_flip_threshold():
    """The pair inequality holds at level one half and breaks just above."""
    ch = build_correlated_flip(0.2, "ZZ")
    ok = eval_relation1(bell(), ch, 0, 1, level=0.5)
    assert ok.verdict == "satisfied"
    assert abs(ok.excess - h2(0.2)) < 1e-9
    assert abs(ok.k_hat_per_leak - 0.5) < 1e-12
    bad = eval_relation1(bell(), ch, 0, 1, level=0.6)
    assert bad.verdict == "violated"


def test_relation1_vacuous_without_leak():
    v = eval_relation1(plus_all(2), identity_channel(2), 0, 1)
    assert v.verdict == "vacuous"


def test_relation_verdict_serialization():
    keys = {
        "relation",
        "qubits",
        "level",
        "excess_leak",
        "term",
        "term_kind",
        "leaks",
        "reference_leak",
        "k_hat",
        "k_hat_per_leak",
        "verdict",
        "conditional",
        "notes",
        "diagnostics",
    }
    for relation, evaluate in enumerate(_relations(build_correlated_flip(0.2, "ZZ"))[2], 1):
        d = evaluate().to_dict()
        assert set(d) == keys
        assert d["relation"] == relation
        assert all(isinstance(k, str) for k in d["leaks"])


@st.composite
def flipped_states(draw):
    """(state, channel): a pure state on n = 2 or 3 qubits and a correlated
    flip of a random Pauli pattern on the same register."""
    n = draw(st.integers(2, 3))
    parts = draw(arrays(np.float64, (2, 2**n), elements=st.floats(-1, 1, allow_subnormal=False)))
    amplitudes = parts[0] + 1j * parts[1]
    norm = float(np.linalg.norm(amplitudes))
    assume(norm > 1e-3)
    pattern = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
    return PureState(n, amplitudes / norm), build_correlated_flip(draw(st.floats(0, 1)), pattern)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(flipped_states(), st.lists(st.floats(0, 4), min_size=2, max_size=3, unique=True))
@example((plus_all(2), build_correlated_flip(0.0, "ZZ")), [0.5, 1.0])
@example((ghz(3), build_correlated_flip(0.2, "ZZZ")), [0.0, 1.0, 3.0])
def test_verdict_switches_one_way_as_the_level_grows(case, levels):
    """For c1 < c2, violated at c1 implies violated at c2, and a verdict
    vacuous at one level is vacuous at every level."""
    state, channel = case
    levels = sorted(levels)
    for relation in (
        lambda c: eval_relation1(state, channel, 0, 1, c),
        lambda c: eval_relation34(state, channel, tuple(range(state.n)), c),
    ):
        verdicts = [relation(c).verdict for c in levels]
        if "vacuous" in verdicts:
            assert set(verdicts) == {"vacuous"}
        if "violated" in verdicts:
            assert "satisfied" not in verdicts[verdicts.index("violated"):]


def test_relation2_is_conditional():
    ch = build_correlated_flip(0.2, "ZZ")
    v = eval_relation2(bell(), ch, 0, 1, level=0.5, restarts=2, sweeps=8, seed=0)
    assert v.conditional
    assert v.term_kind == "assisted_mutual_information"
    # bell is pure, so the decomposed term equals the mutual information
    assert abs(v.term - 2.0) < 1e-6
    assert v.verdict == "satisfied"


def test_relation3_uses_minimum_leak():
    parts = [
        (build_depolarizing(0.1), (0,)),
        (build_depolarizing(0.3), (1,)),
        (build_dephasing(0.4), (2,)),
    ]
    ch = combine(parts, n=3)
    v = eval_relation34(ghz(3), ch, (0, 1, 2), mode="marginal")
    assert v.relation == 3
    assert abs(v.reference_leak - min(v.leaks.values())) < 1e-12
    assert v.verdict in ("violated", "vacuous")


@pytest.mark.parametrize(
    "relation, n, qubits",
    [(1, 11, (5, 6)), (3, 5, (2, 3, 4))],
)
def test_relations_accept_a_channel_narrower_than_the_state(relation, n, qubits):
    """A one-qubit channel on qubit q spans q + 1 qubits; on a wider state
    its verdict equals that of the same channel placed on the whole register."""
    q = qubits[0]
    bare = build_dephasing(0.2, qubit=q)
    placed = combine([(build_dephasing(0.2), (q,))], n=n)
    if relation == 1:
        a, b = (eval_relation1(plus_all(n), ch, *qubits) for ch in (bare, placed))
    else:
        a, b = (eval_relation34(ghz(n), ch, qubits, mode="marginal") for ch in (bare, placed))
    assert a.leaks.keys() == b.leaks.keys() == set(qubits)
    assert all(abs(a.leaks[k] - b.leaks[k]) < 1e-9 for k in qubits)
    assert abs(a.leaks[q] - h2(0.1)) < 1e-9
    assert abs(a.excess - b.excess) < 1e-9
    assert a.verdict == b.verdict


@pytest.mark.parametrize(
    "build, pair, dephased",
    [
        (lambda: combine([(build_dephasing(0.2), (5,))], n=12), (5, 6), (5,)),
        (lambda: compose(build_dephasing(0.2, 11), build_dephasing(0.2, 0)), (0, 11), (0, 11)),
    ],
    ids=["combine", "compose"],
)
def test_relation1_on_twelve_qubits_forms_no_kraus_operator(monkeypatch, build, pair, dephased):
    """Dephased qubits on |+>^12, placed with combine or chained with
    compose: the channel is built and the verdict read from its stages, so
    each dephased qubit leaks H2(eps/2) and no dense 4096 x 4096 Kraus
    operator (537 MB for two, 2 GiB for compose's four) is formed."""
    monkeypatch.setattr(QuantumChannel, "kraus", property(lambda ch: pytest.fail("kraus formed")))
    v = eval_relation1(plus_all(12), build(), *pair)
    for q in pair:
        if q in dephased:
            assert abs(v.leaks[q] - h2(0.1)) < 1e-12
        else:
            assert v.leaks[q] == 0.0
    assert abs(v.excess) < 1e-12


def test_relation4_decomposed_mode():
    # two overlapping pair flips: pairwise invisible, jointly a full bit
    ch = compose(build_correlated_flip(0.5, "IZZ"), build_correlated_flip(0.5, "ZZI"))
    v = eval_relation34(
        ghz(3), ch, (0, 1, 2), mode="decomposed", level=0.5, restarts=2, sweeps=8
    )
    assert v.relation == 4
    assert v.term_kind == "decomposed_defect"
    assert abs(v.term - 1.0) < 1e-3
    assert abs(v.excess - 1.0) < 1e-6
    assert v.verdict == "satisfied"
    assert v.conditional
    with pytest.raises(ValueError):
        eval_relation34(ghz(3), ch, (0, 1, 2), mode="other")


@pytest.mark.parametrize("seed", range(4))
def test_relation4_on_a_pair_reports_relation2s_term(seed):
    """Relations 2 and 4 set a pair's excess against the correlation of its
    best pure decomposition, so from one state, seed and budget they report
    one term and one set of search diagnostics, bit for bit."""
    state = random_circuit_state(4, 2, seed)
    channel = build_dephasing(0.2, qubit=1)
    budget = {"restarts": 2, "sweeps": 10, "seed": 0}
    two = eval_relation2(state, channel, 0, 1, **budget)
    four = eval_relation34(state, channel, (0, 1), mode="decomposed", **budget)
    assert four.term.hex() == two.term.hex()
    assert repr(four.diagnostics["term"]) == repr(two.diagnostics)


def search_calls(budget):
    """Every public entry to the decomposition search at ``budget``, on
    rank-1 inputs, where no restart is drawn, and on a mixed pair."""
    ch = build_correlated_flip(0.2, "ZZ")
    mixed = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    return [
        lambda: max_avg_pure_decomposition(bell().density_matrix(), **budget),
        lambda: max_avg_pure_decomposition(mixed, **budget),
        lambda: measures.assisted_mutual_information(bell(), 0, 1, **budget),
        lambda: measures.assisted_mutual_information(mixed, 0, 1, **budget),
        lambda: eval_relation2(bell(), ch, 0, 1, **budget),
        lambda: eval_relation34(ghz(3), ch, (0, 1, 2), mode="decomposed", **budget),
    ]


@pytest.mark.parametrize(
    "restarts, sweeps, message",
    [(0, 4, "restarts must be at least 1, got 0"),
     (-2, 4, "restarts must be at least 1, got -2"),
     (1, -1, "sweeps must be non-negative, got -1")],
)
def test_search_budget_is_validated(restarts, sweeps, message):
    """A search with no restart or negative sweeps is refused, also where
    relation 4 would have scaled the budget back into range."""
    for call in search_calls({"restarts": restarts, "sweeps": sweeps}):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    zero_sweeps = max_avg_pure_decomposition(bell().density_matrix(), restarts=1, sweeps=0)
    assert abs(zero_sweeps.value - 2.0) < 1e-12


@pytest.mark.parametrize("restarts, sweeps", [(2.5, 4), (2, 1.0), (np.float64(3), 4), ("2", 4)])
def test_search_budget_must_be_integers(restarts, sweeps):
    """A budget that is not an integer is refused before any work, also on
    a rank-1 input; numpy integers are integers."""
    for call in search_calls({"restarts": restarts, "sweeps": sweeps}):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    mixed = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    numpy_ints = max_avg_pure_decomposition(mixed, restarts=np.int64(1), sweeps=np.int32(1))
    assert numpy_ints.diagnostics["restarts"] == 1


def test_fit_growth_exponent_recovers_power_laws():
    sizes = [2, 3, 4, 5, 6]
    assert abs(fit_growth_exponent(sizes, [n**2 for n in sizes]) - 2.0) < 1e-12
    assert abs(fit_growth_exponent(sizes, [3.0 * n for n in sizes]) - 1.0) < 1e-12
    # zero entries are excluded, not log-diverged
    assert abs(fit_growth_exponent([2, 3, 4], [0.0, 3.0, 4.0]) - 1.0) < 1e-9
    assert fit_growth_exponent([2, 3], [0.0, 1.0]) is None


def test_no_pure_input_is_densified(monkeypatch):
    """Set quantities and relations 2 to 4 take a PureState's marginals from
    its amplitudes and never build its 2^n x 2^n density matrix. Each
    defect matches the same state given as a DensityMatrix."""

    def refuse(self):
        raise AssertionError("pure input densified")

    channel = build_dephasing(0.2, qubit=1)
    budget = {"restarts": 1, "sweeps": 2}
    dicke, circuit = dicke_state(5, 2), random_circuit_state(4, 2, 1)
    large = random_circuit_state(12, 3, 1)
    monkeypatch.setattr(PureState, "density_matrix", refuse)
    got = {
        "total-dicke": total_defect(dicke, 3).value,
        "total-circuit": total_defect(circuit, 3).value,
        "set-circuit": max_entropy_defect(circuit, (0, 1, 3)).value,
        "relation-3-circuit": eval_relation34(circuit, channel, (0, 1, 3)).term,
    }
    large_defect = max_entropy_defect(large, (0, 1, 2)).value
    large_relation3 = eval_relation34(large, channel, (0, 1, 2)).term
    assisted_mutual_information(circuit, 0, 1, **budget)
    eval_relation2(circuit, channel, 0, 1, **budget)
    eval_relation34(circuit, channel, (0, 1), mode="decomposed", **budget)
    monkeypatch.undo()
    dense = {
        "total-dicke": total_defect(dicke.density_matrix(), 3).value,
        "total-circuit": total_defect(circuit.density_matrix(), 3).value,
        "set-circuit": max_entropy_defect(circuit.density_matrix(), (0, 1, 3)).value,
        "relation-3-circuit": eval_relation34(circuit.density_matrix(), channel, (0, 1, 3)).term,
    }
    for name, value in got.items():
        assert abs(value - dense[name]) < 1e-6, name
    # the dense path's value, 0.1912306289554262; densifying the 12-qubit
    # state again here would take about 1 GB
    assert abs(large_defect - 0.19123062895543) < 1e-9
    assert large_relation3 == large_defect


def test_relation2_floor_is_relation1_term(monkeypatch):
    """On a pure input, the floor of relation 2's term is relation 1's term,
    bit for bit: both are mutual_information on the state as given."""
    results = []

    def recording(*args, **kwargs):
        results.append(assisted_mutual_information(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(conjectures, "assisted_mutual_information", recording)
    channel = build_dephasing(0.2, qubit=1)
    for seed in range(3):
        state = random_circuit_state(4, 2, seed)
        term = eval_relation1(state, channel, 2, 0).term
        verdict = eval_relation2(state, channel, 2, 0, restarts=1, sweeps=2)
        assert results[-1].floor == term
        assert verdict.term >= term


def test_censorship_scan_ghz_pairs():
    report = censorship_scan(ghz, range(3, 6), truncation=2, include_full="never")
    want = [3.0, 6.0, 10.0]
    assert np.abs(np.array(report.values) - want).max() < 1e-6
    assert 2.0 < report.exponent < 2.6
    assert report.growth == "approximately-quadratic"
    d = report.to_dict()
    assert d["sizes"] == [3, 4, 5]
    assert d["truncation"] == 2


def test_censorship_scan_product_family():
    report = censorship_scan(plus_all, range(2, 5), truncation=3, include_full="auto")
    assert max(abs(v) for v in report.values) < 1e-6
    assert report.growth == "trivially-censored"


def test_censorship_scan_cluster_line_small():
    fam = lambda n: cluster_state(n, line_edges(n))
    report = censorship_scan(fam, range(2, 5), truncation=3, include_full="auto")
    # full term for the pair, three pairs plus the full term at three,
    # boundary pairs and all four triples at four
    assert np.abs(np.array(report.values) - [2.0, 4.0, 6.0]).max() < 5e-3
    never = censorship_scan(fam, range(2, 5), truncation=3, include_full="never")
    assert np.abs(np.array(never.values) - [0.0, 3.0, 6.0]).max() < 5e-3


def test_censorship_scan_cluster_line_to_the_register_cap():
    """Proper-subset totals of the line cluster from 2 to 12 qubits at
    truncation 3: exact GF(2) ranks, growing by one a qubit past n = 6."""
    fam = lambda n: cluster_state(n, line_edges(n))
    report = censorship_scan(fam, range(2, 13), truncation=3, include_full="never")
    assert report.values == [0.0, 3.0, 6.0, 8.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    assert set(report.methods) == {"stabilizer"}


def test_censorship_scan_refuses_sizes_over_the_cap_before_building():
    built = []
    with pytest.raises(SizeLimitError, match="register of 13 qubits exceeds the cap of 12"):
        censorship_scan(lambda n: built.append(n) or ghz(n), [3, 13])
    assert built == []


def test_censorship_scan_rejects_bad_policy():
    with pytest.raises(ValueError):
        censorship_scan(ghz, [3], include_full="sometimes")


@pytest.mark.parametrize("include_full", measures.INCLUDE_FULL)
@pytest.mark.parametrize("family", [ghz, lambda n: dicke_state(n, n // 2)], ids=["ghz", "dicke"])
def test_censorship_scan_passes_the_total_defect_spelling_through(
    family, include_full, monkeypatch
):
    """The scan's total at n = 4 is ``total_defect``'s, term for term."""
    want = total_defect(family(4), 3, include_full)
    assert want.included_full == (include_full != "never")
    assert ((0, 1, 2, 3) in want.terms) == want.included_full
    seen = []

    def recorded(*args):
        seen.append(total_defect(*args))
        return seen[-1]

    monkeypatch.setattr(conjectures, "total_defect", recorded)
    report = censorship_scan(family, [4], truncation=3, include_full=include_full)
    (got,) = seen
    assert got.terms == want.terms
    assert report.values == [want.value]
    assert report.methods == [want.diagnostics["method"]]
    assert report.include_full == include_full
