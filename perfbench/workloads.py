"""The benchmark's workloads: seeded inputs, evaluations and output checks.

Each workload is a closed loop with one client. It hands out *rounds*: a
round always has the same evaluations (same kinds, register sizes and
Kraus counts), and the workload seed draws their parameters, so a run's
cost does not depend on which seed it was given. Round ``r`` of seed ``s``
is drawn from ``numpy.random.default_rng([s, tag, r])``.

Every evaluation returns its output to a check that compares it with
``oracles`` (plain numpy, independent of entlab) and with closed forms.
Workloads call entlab through the package namespace at call time, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import entlab
import oracles as ref

ATOL = 1e-8
# the max-entropy solver stops at a marginal residual of 1e-6, so values it
# produces carry errors of that order per solved subset
SOLVER_ATOL = 1e-5


@dataclass
class Eval:
    """One evaluation: ``run`` is timed, ``check`` returns None or a failure message.

    Evaluations of one ``kind`` cost the same; only their parameters differ.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _mismatch(pairs, atol=ATOL) -> str | None:
    for name, got, want in pairs:
        if not abs(float(got) - float(want)) <= atol:
            return f"{name}: got {float(got)!r}, want {float(want)!r}"
    return None


def _verdict_mismatch(v, reference: float) -> str | None:
    if abs(v.reference_leak - reference) > ATOL:
        return f"reference leak {v.reference_leak!r}, want {reference!r}"
    want = ref.verdict(v.excess, v.term, v.reference_leak, v.level)
    if v.verdict != want:
        return f"verdict {v.verdict!r}, rule gives {want!r}"
    return None


def _register_state(name: str, n: int):
    if name == "ghz":
        return entlab.ghz(n)
    if name == "cluster":
        return entlab.cluster_state(n, entlab.line_edges(n))
    if name == "plus":
        return entlab.plus_all(n)
    if name == "dicke":
        return entlab.dicke_state(n, n // 2)
    raise ValueError(f"unknown state family {name!r}")


def _flip_letters(rng, n: int, flipped) -> str:
    """Pauli string with Y or Z on ``flipped`` (both move |+>) and any letter elsewhere."""
    letters = [str(rng.choice(list("IXYZ"))) for _ in range(n)]
    for q in flipped:
        letters[q] = str(rng.choice(["Y", "Z"]))
    return "".join(letters)


# --------------------------------------------------------------------- leak

# (family, register sizes, evaluations per case). Sizes stop where one
# evaluation costs more than about a second on the seed commit: a relation-1
# verdict applies the channel three times with a full-register Kraus
# einsum, so n=7 (2-8 s), pairwise_correlated at n=6 (65 operators, ~16 s)
# and product depolarizing at n=5 (1,024 operators, ~19 s) would leave a run
# with too few evaluations to be steady. n=7 is kept as one environment
# evaluation of a one-operator channel (about 1 s) per round.
LEAK_CASES = (
    ("dephasing", (3, 4, 5, 6), ("rel1", "env")),
    ("correlated_flip", (3, 4, 5, 6), ("rel1", "env")),
    # basis Z on purpose: X flips fix |+>^n and would make every leak 0
    ("pairwise_z", (3, 4, 5), ("rel1", "env")),
    ("depolarizing", (3, 4), ("rel1", "env")),
    ("random_unitary", (3, 4, 5, 6), ("rel1", "env")),
    ("cluster", (3, 4, 5, 6), ("rel1", "env")),
    ("random_unitary", (7,), ("env",)),
)
STATE_FAMILIES = ("ghz", "cluster", "plus", "dicke")


def _leak_case(rng, family: str, n: int, state: str) -> dict:
    # the seed draws which qubits, never how many, so that an evaluation
    # kind costs the same under every seed
    a, b = sorted(int(q) for q in rng.choice(n, 2, replace=False))
    keep = sorted(int(q) for q in rng.choice(n, n // 2, replace=False))
    case = {
        "family": family,
        "n": n,
        "pair": (a, b),
        "keep": tuple(keep),
        "level": float(rng.uniform(0.25, 2.0)),
        "state": state,
    }
    if family == "dephasing":
        case.update(eps=float(rng.uniform(0.05, 0.95)), qubit=int(rng.integers(n)))
    elif family == "correlated_flip":
        case.update(eps=float(rng.uniform(0.05, 0.95)), letters=_flip_letters(rng, n, (a, b)))
    elif family == "pairwise_z":
        p1 = float(rng.uniform(0.05, 0.3))
        p2 = p1 * p1 + (p1 - p1 * p1) * float(rng.uniform(0.1, 0.9))
        case.update(p1=p1, p2=p2)
    elif family == "depolarizing":
        case.update(ps=[float(p) for p in rng.uniform(0.05, 0.7, n)])
    else:
        case.update(
            eps=float(rng.uniform(0.1, 0.95)), noise_seed=int(rng.integers(2**32))
        )
    return case


def _leak_channel(case: dict):
    family, n = case["family"], case["n"]
    if family == "dephasing":
        return entlab.combine([(entlab.build_dephasing(case["eps"]), (case["qubit"],))], n=n)
    if family == "correlated_flip":
        return entlab.build_correlated_flip(case["eps"], case["letters"])
    if family == "pairwise_z":
        return entlab.build_pairwise_correlated(n, case["p1"], case["p2"], basis="Z")
    if family == "depolarizing":
        parts = [(entlab.build_depolarizing(p), (q,)) for q, p in enumerate(case["ps"])]
        return entlab.combine(parts, n=n)
    if family == "random_unitary":
        return entlab.build_random_unitary_noise(n, case["eps"], case["noise_seed"])
    return entlab.build_cluster_noise(n, entlab.line_edges(n), case["eps"], case["noise_seed"])


def _closed_form_leak(case: dict, keep) -> float | None:
    """Entropy of the noisy |+>^n output on ``keep``, where a closed form exists."""
    family, n = case["family"], case["n"]
    if family == "dephasing":
        # a phase flip with probability eps/2 on one qubit
        return ref.h2(case["eps"] / 2.0) if case["qubit"] in keep else 0.0
    if family == "correlated_flip":
        moved = any(case["letters"][q] in "YZ" for q in keep)
        return ref.h2(case["eps"]) if moved else 0.0
    if family == "pairwise_z":
        probs = ref.flip_pattern_distribution(n, case["p1"], case["p2"])
        return ref.shannon(ref.pattern_marginal(probs, n, keep))
    if family == "depolarizing":
        # X fixes |+>, Y and Z flip it: a flip with probability 2p/3 per qubit
        return sum(ref.h2(2.0 * case["ps"][q] / 3.0) for q in keep)
    return None


def _closed_form_env(case: dict) -> float | None:
    keep = case["keep"]
    rest = [q for q in range(case["n"]) if q not in keep]
    if case["family"] == "random_unitary":
        return 0.0  # one Kraus operator: the environment stays pure
    s_a = _closed_form_leak(case, keep)
    if s_a is None:
        return None
    s_rest = _closed_form_leak(case, rest) if rest else 0.0
    s_out = _closed_form_leak(case, range(case["n"]))
    return s_a + s_out - s_rest


def _check_rel1(case: dict, out) -> str | None:
    channel, state, v = out
    n = case["n"]
    a, b = case["pair"]
    vecs = ref.ensemble(channel.kraus, ref.plus_vector(n))
    pairs = [
        ("leak[a]", v.leaks[a], ref.subset_entropy(vecs, n, [a])),
        ("leak[b]", v.leaks[b], ref.subset_entropy(vecs, n, [b])),
        ("excess", v.excess, ref.mutual_information(vecs, n, a, b)),
        ("term", v.term, ref.mutual_information(np.asarray(state.amplitudes), n, a, b)),
    ]
    closed = [_closed_form_leak(case, [q]) for q in (a, b)]
    if closed[0] is not None:
        pair_leak = _closed_form_leak(case, [a, b])
        pairs += [
            ("closed-form leak[a]", v.leaks[a], closed[0]),
            ("closed-form leak[b]", v.leaks[b], closed[1]),
            ("closed-form excess", v.excess, closed[0] + closed[1] - pair_leak),
        ]
    return _mismatch(pairs) or _verdict_mismatch(v, (v.leaks[a] + v.leaks[b]) / 2.0)


def _check_env(case: dict, out) -> str | None:
    channel, value = out
    n = case["n"]
    vecs = ref.ensemble(channel.kraus, ref.plus_vector(n))
    pairs = [("env", value, ref.env_information(vecs, n, case["keep"]))]
    closed = _closed_form_env(case)
    if closed is not None:
        pairs.append(("closed-form env", value, closed))
    return _mismatch(pairs)


def _leak_eval(case: dict, kind: str) -> Eval:
    if kind == "rel1":

        def run():
            channel = _leak_channel(case)
            state = _register_state(case["state"], case["n"])
            a, b = case["pair"]
            return channel, state, entlab.eval_relation1(state, channel, a, b, case["level"])

        label = f"rel1.{case['family']}.n{case['n']}.{case['state']}"
        return Eval(label, run, lambda out: _check_rel1(case, out))

    def run():
        channel = _leak_channel(case)
        return channel, entlab.environment_information(channel, case["keep"])

    return Eval(f"env.{case['family']}.n{case['n']}", run, lambda out: _check_env(case, out))


class LeakWorkload:
    tag = 1

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Eval]:
        rng = np.random.default_rng([self.seed, self.tag, r])
        evals = []
        for i, (family, sizes, kinds) in enumerate(LEAK_CASES):
            for n in sizes:
                state = STATE_FAMILIES[(i + n) % len(STATE_FAMILIES)]
                case = _leak_case(rng, family, n, state)
                evals.extend(_leak_eval(case, kind) for kind in kinds)
        return evals

    def warmup(self) -> list[Eval]:
        return self.round(0)[:2]


# ------------------------------------------------------------------- defect

# total_defect at truncation 3 (through censorship_scan) on each named
# state family at n=4..7, except the half-filled dicke state at n=7 (about
# 1.2 s, which would make a run of three rounds 4 s longer).
DEFECT_FAMILIES = (
    ("ghz", 4),
    ("ghz", 5),
    ("ghz", 6),
    ("ghz", 7),
    ("cluster", 4),
    ("cluster", 5),
    ("cluster", 6),
    ("cluster", 7),
    ("dicke", 4),
    ("dicke", 5),
    ("dicke", 6),
)
# Random-circuit states (n, depth, circuit seed): the first two circuit
# seeds, taken as they come. Their triple solves are where the max-entropy
# solver struggles: on the seed commit circuit seed 1 raises
# ConvergenceError (residual 1.09e-6 after 2,144 iterations), and over 22
# other such states 23 of 88 triple solves raised it. These are the
# slowest evaluations of the workload and carry its failures. They are a
# fixed list rather than drawn from the workload seed because one such
# state costs 0.9 to 6.6 s, so a per-seed draw would move a run's
# throughput by more than the benchmark's bounds. Never reseed them to
# make the failures go away.
RANDOM_CIRCUITS = ((4, 2, 0), (4, 2, 1))


def _scan_eval(name: str, n: int, depth: int = 0, circuit_seed: int = 0) -> Eval:
    def run():
        built = {}

        def family(size):
            if name == "random_circuit":
                built["state"] = entlab.random_circuit_state(size, depth, circuit_seed)
            else:
                built["state"] = _register_state(name, size)
            return built["state"]

        report = entlab.censorship_scan(family, [n], truncation=3)
        return built["state"], report

    def check(out):
        state, report = out
        total = report.values[0]
        terms = math.comb(n, 2) + math.comb(n, 3)
        tol = SOLVER_ATOL * terms
        low, high = ref.defect_bounds(np.asarray(state.amplitudes), n)
        if not low - tol <= total <= high + tol:
            return f"total defect {total!r} outside [{low!r}, {high!r}]"
        if name == "ghz":
            # pairs carry one bit each and triples nothing: C(n, 2)
            return _mismatch([("ghz total defect", total, math.comb(n, 2))], tol)
        return None

    label = f"total_defect.{name}.n{n}"
    if name == "random_circuit":
        label += f".d{depth}.s{circuit_seed}"
    return Eval(label, run, check)


# Relation 3 state per subset size. The max-entropy solve's cost depends on
# the state and subset, so the family is fixed per size: the pair solve
# costs the same on every pair of the line cluster, and the half-filled
# dicke state is symmetric, so every triple costs the same.
REL3_STATES = {2: "cluster", 3: "dicke"}


def _rel3_eval(rng, size: int) -> Eval:
    n = 4
    name = REL3_STATES[size]
    keep = tuple(sorted(int(q) for q in rng.choice(n, size, replace=False)))
    eps = float(rng.uniform(0.05, 0.95))
    letters = _flip_letters(rng, n, keep)
    level = float(rng.uniform(0.25, 2.0))

    def run():
        state = _register_state(name, n)
        channel = entlab.build_correlated_flip(eps, letters)
        return state, entlab.eval_relation34(state, channel, keep, level, mode="marginal")

    def check(out):
        state, v = out
        amps = np.asarray(state.amplitudes)
        pairs = [(f"leak[{q}]", v.leaks[q], ref.h2(eps)) for q in keep]
        if size == 2:
            # the pair defect is the mutual information, and a correlated
            # flip leaks H2(eps) into the pair's correlations
            pairs += [
                ("pair defect", v.term, ref.mutual_information(amps, n, *keep)),
                ("pair excess", v.excess, ref.h2(eps)),
            ]
            problem = _mismatch(pairs, SOLVER_ATOL)
        else:
            # perfectly correlated flips are fixed by their pair marginals
            singles = sum(ref.subset_entropy(amps, n, [q]) for q in keep)
            high = singles - ref.subset_entropy(amps, n, keep)
            problem = _mismatch(pairs + [("set excess", v.excess, 0.0)], SOLVER_ATOL)
            if problem is None and not -SOLVER_ATOL <= v.term <= high + SOLVER_ATOL:
                problem = f"set defect {v.term!r} outside [0, {high!r}]"
        return problem or _verdict_mismatch(v, min(v.leaks.values()))

    return Eval(f"rel3.{name}.k{size}", run, check)


class DefectWorkload:
    tag = 2

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Eval]:
        rng = np.random.default_rng([self.seed, self.tag, r])
        evals = [_scan_eval(name, n) for name, n in DEFECT_FAMILIES]
        evals += [_scan_eval("random_circuit", n, d, s) for n, d, s in RANDOM_CIRCUITS]
        evals += [_rel3_eval(rng, 2), _rel3_eval(rng, 3)]
        return evals

    def warmup(self) -> list[Eval]:
        return [_scan_eval("ghz", 4)]


# ----------------------------------------------------------------- assisted

ASSISTED_BUDGET = {"restarts": 3, "sweeps": 12}
DECOMPOSED_BUDGET = {"restarts": 1, "sweeps": 1}


def _pair_bracket(amps: np.ndarray, n: int, a: int, b: int):
    s_a = ref.subset_entropy(amps, n, [a])
    s_b = ref.subset_entropy(amps, n, [b])
    floor = s_a + s_b - ref.subset_entropy(amps, n, [a, b])
    return floor, 2.0 * min(s_a, s_b)


# Assisted inputs: (seed of a Gaussian random 4-qubit vector, pair, search
# seed). Such pair marginals have full rank, so every search runs over
# 8-member ensembles, but its polishing sweeps still stop early by a
# data-dependent amount: seeded draws moved the fastest assisted evaluation
# between 0.48 and 0.82 s across workload seeds. The inputs are therefore
# fixed, and the workload seed draws the relation 2 and 4 parameters.
ASSISTED_INPUTS = ((0, (0, 1), 0), (1, (1, 2), 1), (2, (0, 3), 2))


def _assisted_eval(index: int, certified: list) -> Eval:
    state_seed, (a, b), search_seed = ASSISTED_INPUTS[index]
    n = 4
    rng = np.random.default_rng(state_seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)

    def run():
        state = entlab.PureState(n, amps)
        return state, entlab.assisted_mutual_information(
            state, a, b, seed=search_seed, **ASSISTED_BUDGET
        )

    def check(out):
        state, res = out
        amps = np.asarray(state.amplitudes)
        floor, upper = _pair_bracket(amps, n, a, b)
        certified.append(res.value)
        dec = res.decomposition
        members = np.asarray(dec.states) * np.sqrt(np.asarray(dec.weights))[:, None]
        rho_ab = ref.marginal(amps, n, [a, b])
        residual = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(
            members.T @ members.conj() - rho_ab))))
        if residual > 1e-8:
            return f"decomposition reconstructs the marginal only to {residual:.2e}"
        # each pure pair member contributes twice its one-qubit entropy
        achieved = sum(
            w * 2.0 * ref.subset_entropy(psi, 2, [0])
            for w, psi in zip(dec.weights, np.asarray(dec.states))
        )
        problem = _mismatch([
            ("floor", res.floor, floor),
            ("value", res.value, max(res.search_value, res.floor)),
            ("certificate", res.search_value, achieved),
        ])
        if problem is None and not floor - ATOL <= res.value <= upper + ATOL:
            problem = f"assisted {res.value!r} outside [{floor!r}, {upper!r}]"
        return problem

    return Eval(f"assisted.{index}", run, check)


# The pure 3-qubit state of relations 2 and 4: (n, depth, circuit seed),
# with relation 2's pair and the two search seeds. Relation 4 makes about
# 117 nested max-entropy solves whose cost depends on the state (3.2 to
# 6.3 s for different random states at restarts=1, sweeps=1), and both
# searches stop by a data-dependent amount, so these are fixed and the
# workload seed draws the channel and level.
DECOMPOSED_STATE = (3, 3, 0)
DECOMPOSED_PAIR = (0, 1)
DECOMPOSED_SEEDS = (0, 1)


def _decomposed_relation_evals(rng) -> list[Eval]:
    """Relation 2 and relation 4 (decomposed) on one pure 3-qubit state."""
    n, depth, circuit_seed = DECOMPOSED_STATE
    eps = float(rng.uniform(0.05, 0.95))
    letters = _flip_letters(rng, n, range(n))
    a, b = DECOMPOSED_PAIR
    level = float(rng.uniform(0.25, 2.0))
    seeds = DECOMPOSED_SEEDS

    def run2():
        state = entlab.random_circuit_state(n, depth, circuit_seed)
        channel = entlab.build_correlated_flip(eps, letters)
        return state, entlab.eval_relation2(
            state, channel, a, b, level, seed=seeds[0], **DECOMPOSED_BUDGET
        )

    def check2(out):
        state, v = out
        floor, upper = _pair_bracket(np.asarray(state.amplitudes), n, a, b)
        problem = _mismatch([
            ("leak[a]", v.leaks[a], ref.h2(eps)),
            ("leak[b]", v.leaks[b], ref.h2(eps)),
            ("excess", v.excess, ref.h2(eps)),
        ])
        if problem is None and not floor - ATOL <= v.term <= upper + ATOL:
            problem = f"assisted term {v.term!r} outside [{floor!r}, {upper!r}]"
        return problem or _verdict_mismatch(v, ref.h2(eps))

    def run4():
        state = entlab.random_circuit_state(n, depth, circuit_seed)
        channel = entlab.build_correlated_flip(eps, letters)
        return state, entlab.eval_relation34(
            state, channel, range(n), level, mode="decomposed", seed=seeds[1],
            **DECOMPOSED_BUDGET,
        )

    def check4(out):
        state, v = out
        amps = np.asarray(state.amplitudes)
        high = sum(ref.subset_entropy(amps, n, [q]) for q in range(n))
        problem = _mismatch(
            [(f"leak[{q}]", v.leaks[q], ref.h2(eps)) for q in range(n)]
            + [("set excess", v.excess, 0.0)],
            SOLVER_ATOL,
        )
        if problem is None and not -SOLVER_ATOL <= v.term <= high + SOLVER_ATOL:
            problem = f"decomposed defect {v.term!r} outside [0, {high!r}]"
        return problem or _verdict_mismatch(v, min(v.leaks.values()))

    return [Eval("rel2", run2, check2), Eval("rel4", run4, check4)]


class AssistedWorkload:
    tag = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.certified = []

    def round(self, r: int) -> list[Eval]:
        rng = np.random.default_rng([self.seed, self.tag, r])
        evals = [_assisted_eval(i, self.certified) for i in range(len(ASSISTED_INPUTS))]
        return evals + _decomposed_relation_evals(rng)

    def warmup(self) -> list[Eval]:
        return [_assisted_eval(0, [])]


# ---------------------------------------------------------------- cli_batch

CLI_TAIL_TRIALS = 10**5


def _cli_config(rng) -> dict:
    p1 = float(10 ** rng.uniform(-4, -2))
    p2 = p1 * p1 + (p1 - p1 * p1) * float(rng.uniform(0.01, 0.5))
    threshold = int(CLI_TAIL_TRIALS * p1 * rng.uniform(1.0, 1.5))
    ps = [float(p) for p in rng.uniform(0.01, 0.5, 3)]
    qec_eps = float(rng.uniform(0.0, 1.0))
    deph_eps = float(rng.uniform(0.05, 0.95))
    deph_qubit = int(rng.integers(3))
    pw1 = float(rng.uniform(0.05, 0.3))
    pw2 = pw1 * pw1 + (pw1 - pw1 * pw1) * float(rng.uniform(0.1, 0.9))
    a, b = sorted(int(q) for q in rng.choice(3, 2, replace=False))
    flip_eps = float(rng.uniform(0.05, 0.95))
    return {
        "seed": int(rng.integers(2**32)),
        "evaluations": [
            {"kind": "sync", "p1": p1, "p2": p2, "n": CLI_TAIL_TRIALS, "threshold": threshold},
            {
                "kind": "sync",
                "channel": {
                    "family": "product",
                    "n": 3,
                    "parts": [
                        {"family": "depolarizing", "p": p, "qubits": [q]}
                        for q, p in enumerate(ps)
                    ],
                },
            },
            {"kind": "qec_demo", "epsilon": 1.0, "logical": "plus"},
            {"kind": "qec_demo", "epsilon": qec_eps, "logical": "plus"},
            {
                "kind": "measure",
                "name": "leak",
                "channel": {"family": "dephasing", "epsilon": deph_eps, "qubit": deph_qubit},
                "state": {"family": "product", "n": 3},
                "qubits": [deph_qubit],
            },
            {
                "kind": "measure",
                "name": "excess-leak",
                "channel": {
                    "family": "pairwise_correlated", "n": 3, "p1": pw1, "p2": pw2, "basis": "Z",
                },
                "qubits": [a, b],
            },
            {
                "kind": "relation",
                "id": 1,
                "level": float(rng.uniform(0.25, 2.0)),
                "state": {"family": "ghz", "n": 3},
                "channel": {
                    "family": "correlated_flip",
                    "epsilon": flip_eps,
                    "pauli": _flip_letters(rng, 3, (a, b)),
                },
                "qubits": [a, b],
            },
        ],
    }


def _close(got: float, want: float, rtol: float = 1e-9) -> bool:
    # reports round floats to 12 significant digits
    return abs(got - want) <= rtol * abs(want) + 1e-12


def _check_report(config: dict, text: str) -> str | None:
    results = json.loads(text)["results"]
    ev = config["evaluations"]
    if len(results) != 12:
        return f"expected 12 results, got {len(results)}"
    sync, weights, _, qec, deph, pair, rel = ev
    values = [r.get("value") for r in results]
    p1, p2, n, k = sync["p1"], sync["p2"], sync["n"], sync["threshold"]
    burst, hit = p1 * p1 / p2, p2 / p1
    ps = [part["p"] for part in weights["channel"]["parts"]]
    poisson_binomial = np.array([1.0])
    for p in ps:
        poisson_binomial = np.convolve(poisson_binomial, [1.0 - p, p])
    flip = (1.0 - qec["epsilon"]) / 2.0
    majority = (1.0 - flip) ** 3 + 3.0 * flip * (1.0 - flip) ** 2
    pw1, pw2 = pair["channel"]["p1"], pair["channel"]["p2"]
    pair_joint = [1.0 - 2.0 * pw1 + pw2, pw1 - pw2, pw1 - pw2, pw2]
    flip_eps = rel["channel"]["epsilon"]
    expected = [
        ("burst probability", values[0], burst),
        ("correlated tail", values[1], burst * ref.binom_sf(k, n, hit)),
        ("independent tail", values[2], ref.binom_sf(k, n, p1)),
        ("triple-moment ratio", values[3], burst * hit**3 / p1**3),
        ("mean error weight", values[4], sum(ps)),
        ("decoded fidelity at eps=1", values[5], 1.0),
        ("majority success at eps=1", values[6], 1.0),
        ("majority success", values[8], majority),
        ("dephasing leak", values[9], ref.h2(deph["channel"]["epsilon"] / 2.0)),
        ("pairwise excess leak", values[10], 2 * ref.h2(pw1) - ref.shannon(pair_joint)),
        ("relation-1 excess", results[11]["excess_leak"], ref.h2(flip_eps)),
        ("relation-1 term", results[11]["term"], 1.0),
    ]
    expected += [
        (f"weight probability {w}", got, want)
        for w, (got, want) in enumerate(
            zip(results[4]["diagnostics"]["probabilities"], poisson_binomial)
        )
    ]
    for name, got, want in expected:
        if got is None or not _close(float(got), float(want)):
            return f"{name}: got {got!r}, want {want!r}"
    if not 0.0 <= values[7] <= 1.0:
        return f"decoded fidelity {values[7]!r} outside [0, 1]"
    verdict = ref.verdict(
        results[11]["excess_leak"], results[11]["term"], results[11]["reference_leak"],
        rel["level"],
    )
    if results[11]["verdict"] != verdict:
        return f"relation-1 verdict {results[11]['verdict']!r}, rule gives {verdict!r}"
    return None


class CliBatchWorkload:
    """Fresh ``entlab run --config`` processes, each config run twice.

    The second run of a config must print a byte-identical report; a
    difference fails that evaluation.
    """

    tag = 4

    def __init__(self, seed: int, src: str, scratch: str, trace: bool):
        self.seed = seed
        self.src = src
        self.scratch = scratch
        self.trace = trace
        self.peak_rss_kb = 0
        self.summaries = []

    def _spawn(self, config_path: str, tag: str):
        env = dict(os.environ, PYTHONPATH=self.src)
        if self.trace:
            summary = os.path.join(self.scratch, f"{tag}.trace.json")
            env["PERFBENCH_SPAWN_T"] = repr(time.time())
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
            argv = [sys.executable, child, summary]
        else:
            summary = None
            argv = [sys.executable, "-m", "entlab.cli"]
        argv += ["run", "--config", config_path]
        out_path = os.path.join(self.scratch, f"{tag}.out")
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, "rb") as fh:
            text = fh.read()
        if proc.returncode != 0:
            with open(out_path + ".err", "rb") as fh:
                message = fh.read().decode(errors="replace").strip().splitlines()
            raise RuntimeError(
                f"entlab run exited {proc.returncode}: {message[-1] if message else ''}"
            )
        if summary is not None:
            with open(summary, encoding="utf-8") as fh:
                self.summaries.append(json.load(fh))
        return text

    def round(self, r: int) -> list[Eval]:
        rng = np.random.default_rng([self.seed, self.tag, r])
        config = _cli_config(rng)
        path = os.path.join(self.scratch, f"config-{r}.json")
        first = {}

        def run(attempt):
            if attempt == 0:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
            text = self._spawn(path, f"r{r}-{attempt}")
            if attempt == 0:
                first["text"] = text
            return text

        def check(attempt, text):
            problem = _check_report(config, text.decode("utf-8"))
            if problem is None and attempt == 1 and text != first.get("text"):
                problem = "second run's report is not byte-identical to the first"
            return problem

        return [
            Eval(f"cli.run{attempt}", lambda a=attempt: run(a), lambda t, a=attempt: check(a, t))
            for attempt in (0, 1)
        ]

    def warmup(self) -> list[Eval]:
        ref.binom_sf(1, 2, 0.5)  # loads scipy.stats before the timed phase
        return self.round(2**31)[:1]


def make(name: str, seed: int, src: str, scratch: str, trace: bool):
    if name == "leak":
        return LeakWorkload(seed)
    if name == "defect":
        return DefectWorkload(seed)
    if name == "assisted":
        return AssistedWorkload(seed)
    if name == "cli_batch":
        return CliBatchWorkload(seed, src, scratch, trace)
    raise ValueError(f"unknown workload {name!r}")
