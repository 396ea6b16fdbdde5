import math

import numpy as np
import pytest
from scipy.stats import binom

from entlab.channels import (
    apply,
    build_correlated_flip,
    build_depolarizing,
    build_pairwise_correlated,
    combine,
)
from entlab.conjectures import censorship_scan
from entlab.measures import total_defect
from entlab.sync import (
    ClassicalMixtureModel,
    binomial_tail,
    fit_mixture,
    quantum_randomization_demo,
    repetition_majority_error,
    tail_probability,
    triple_moment,
    weight_distribution,
)
from entlab.zoo import bitflip_code_encode, ghz
from helpers import reference_binomial_tail, repetition_recovery_fidelity


def test_fit_mixture_exact_values():
    model = fit_mixture(1e-3, 2e-5)
    assert model.pi == 0.05
    assert model.h == 0.02
    # moments reproduce the inputs exactly
    assert abs(model.moment(1) - 1e-3) < 1e-18
    assert abs(model.moment(2) - 2e-5) < 1e-18


def test_fit_mixture_boundaries():
    indep = fit_mixture(0.1, 0.01)  # p2 = p1^2
    assert abs(indep.pi - 1.0) < 1e-12
    assert abs(indep.h - 0.1) < 1e-12
    full = fit_mixture(0.1, 0.1)  # p2 = p1
    assert abs(full.h - 1.0) < 1e-12
    assert abs(full.pi - 0.1) < 1e-12
    assert fit_mixture(0.0, 0.0).pi == 0.0


def test_fit_mixture_rejects_infeasible():
    with pytest.raises(ValueError):
        fit_mixture(1e-3, 2e-3)  # p2 > p1
    with pytest.raises(ValueError):
        fit_mixture(0.1, 0.001)  # p2 < p1^2
    with pytest.raises(ValueError):
        fit_mixture(1.5, 0.1)


def test_binomial_tail_matches_scipy():
    # strict tail: probability of more than k successes
    cases = [(10, 3, 0.2), (100, 10, 0.05), (1000, 10, 0.02), (1000, 10, 1e-3), (5, 0, 0.4)]
    for n, k, p in cases:
        want = float(binom.sf(k, n, p))
        assert abs(binomial_tail(n, k, p) - want) < 1e-12 * max(want, 1e-30) + 1e-15


def test_binomial_tail_matches_full_sum_bitwise():
    """Summing only the terms that survive exp() gives the full sum's bits."""
    rng = np.random.default_rng(5)
    cases = [(0, 0, 0.3), (7, -1, 0.3), (7, 7, 0.3), (7, 9, 0.3), (7, 2, 0.0), (7, 2, 1.0)]
    for n in (1, 2, 10, 57, 400, 3000):
        for p in (1e-9, 1e-3, 0.05, 0.5, 0.97, 1 - 1e-9):
            for k in {-1, 0, int(n * p) - 5, int(n * p), int(n * p) + 5, n // 2, n - 1, n}:
                cases.append((n, k, p))
    # the cli thresholds: n = 10^5 trials and k = n * p1 * u with u in [1, 1.5],
    # so the mode lies below k+1 for p = p1 and may lie above it for p = h
    for _ in range(20):
        p1 = float(10 ** rng.uniform(-4, -2))
        k = int(10**5 * p1 * rng.uniform(1.0, 1.5))
        cases += [(10**5, k, p1), (10**5, k, min(1.0, p1 * rng.uniform(1.0, 100.0)))]
    for n, k, p in cases:
        assert binomial_tail(n, k, p) == reference_binomial_tail(n, k, p), (n, k, p)


def test_tail_probability_burst_versus_independent():
    burst = fit_mixture(1e-3, 2e-5)
    corr = tail_probability(burst, 1000, 10)
    assert 0.045 < corr < 0.05
    # oracle: only the active branch can push past ten events
    want = 0.05 * float(binom.sf(10, 1000, 0.02))
    assert abs(corr - want) < 1e-12
    indep = tail_probability(ClassicalMixtureModel(1.0, 1e-3), 1000, 10)
    assert indep < 1e-6
    assert abs(indep - float(binom.sf(10, 1000, 1e-3))) < 1e-18


def test_triple_moment_amplification():
    model = fit_mixture(1e-3, 2e-5)
    rep = triple_moment(model)
    assert abs(rep.implied_p3 - 0.05 * 0.02**3) < 1e-18
    assert abs(rep.independent_p3 - 1e-9) < 1e-21
    assert abs(rep.ratio - 400.0) < 1e-9
    with_target = triple_moment(model, p3_target=2e-9)
    assert abs(with_target.target_ratio - 2.0) < 1e-9


def test_weight_distribution_binomial(rng):
    for n in (1, 2, 3, 10):
        p = float(rng.uniform(0.05, 0.6))
        ch = combine([(build_depolarizing(p), (q,)) for q in range(n)], n=n)
        dist = weight_distribution(ch)
        want = binom.pmf(np.arange(n + 1), n, p)
        assert np.abs(dist.probabilities - want).max() < 1e-12
        assert abs(dist.mean_weight() - n * p) < 1e-9


def test_weight_distribution_convolution_oracle(rng):
    # independent factors convolve their single-qubit weight laws
    ps = [0.1, 0.25, 0.4]
    ch = combine([(build_depolarizing(p), (q,)) for q, p in enumerate(ps)], n=3)
    dist = weight_distribution(ch).probabilities
    want = np.array([1.0])
    for p in ps:
        want = np.convolve(want, [1 - p, p])
    assert np.abs(dist - want).max() < 1e-9


def test_weight_distribution_correlated_flip():
    dist = weight_distribution(build_correlated_flip(0.3, "ZZZ"))
    assert np.abs(dist.probabilities - np.array([0.7, 0, 0, 0.3])).max() < 1e-9
    assert abs(dist.conditional_mean_weight() - 3.0) < 1e-9


def test_weight_distribution_pairwise_model():
    n, p1, p2 = 3, 1e-3, 2e-5
    dist = weight_distribution(build_pairwise_correlated(n, p1, p2))
    model = fit_mixture(p1, p2)
    want = model.pi * binom.pmf(np.arange(n + 1), n, model.h)
    want[0] += 1 - model.pi
    assert np.abs(dist.probabilities - want).max() < 1e-9


def test_weight_distribution_pairwise_bursts_on_ten_qubits():
    """Synchronized Z bursts on 10 qubits: with probability pi = p1^2/p2
    every qubit is hit independently with probability h = p2/p1, so the
    weight law is (1 - pi) delta_0 + pi Bin(10, h)."""
    n, p1, p2 = 10, 0.1, 0.02
    pi, h = p1**2 / p2, p2 / p1
    dist = weight_distribution(build_pairwise_correlated(n, p1, p2, "Z")).probabilities
    want = pi * binom.pmf(np.arange(n + 1), n, h)
    want[0] += 1 - pi
    assert np.abs(dist - want).max() < 1e-12


# (p1, p2) of burst laws whose weight bins and tails are read to 1e-15; at
# p2 = p1^2 and at the least p2 accepted with p1 = 0.3 the burst hits are
# independent-like (h = p1), so a bin at n = 12 sums up to 924 strings of
# weight near 1e-3 and binomial_tail's log-space sum of a tail near 1
# rounds by about 1e-15 on its own: those are read to 5e-15
_BURST_LAWS = [
    ((0.1, 0.02), 1e-15),
    ((1e-3, 2e-5), 1e-15),
    ((0.3, 0.3), 1e-15),
    ((0.3, 0.3000000000003), 1e-15),  # the greatest p2 accepted with 0.3
    ((0.0, 0.0), 1e-15),
    ((0.1, 0.01), 5e-15),
    ((0.3, 0.09), 5e-15),
    ((0.3, 0.08999999999990999), 5e-15),  # the least p2 accepted with 0.3
]


@pytest.mark.parametrize("n", [1, 5, 12])
def test_pairwise_weight_law_is_the_mixture_model(n):
    """The channel is the classical burst model: its weight law is
    (1 - pi) delta_0 + pi Bin(n, h) with fit_mixture's (pi, h), and its
    mass above t is the model's tail_probability, inside the feasible
    moments and at both of their edges. The weights are the same for
    every flip basis (test_channels checks them bit for bit), so Y flips,
    which set both mask bits, stand for all three."""
    for (p1, p2), tol in _BURST_LAWS:
        model = fit_mixture(p1, p2)
        got = weight_distribution(build_pairwise_correlated(n, p1, p2, "Y")).probabilities
        pi, h = model.pi, model.h
        want = [pi * math.comb(n, k) * h**k * (1 - h) ** (n - k) for k in range(n + 1)]
        want[0] += 1.0 - pi
        assert np.abs(got - want).max() <= tol, (p1, p2)
        for t in range(n + 1):
            assert abs(math.fsum(got[t + 1 :]) - tail_probability(model, n, t)) <= tol, (p1, p2, t)


def test_repetition_majority_error_exact():
    # keep probability 0.1, so each copy flips with probability 0.45
    assert abs(repetition_majority_error(0.1, 1) - 0.45) < 1e-12
    want3 = 3 * 0.45**2 * 0.55 + 0.45**3
    assert abs(repetition_majority_error(0.1, 3) - want3) < 1e-12
    want = float(binom.sf(500, 1001, 0.45))
    got = repetition_majority_error(0.1, 1001)
    assert abs(got - want) < 1e-12
    assert got < 1e-3


@pytest.mark.parametrize(
    "call",
    [
        lambda: binomial_tail(10.5, 3, 0.2),
        lambda: binomial_tail(10, 3.5, 0.2),
        lambda: repetition_majority_error(0.1, 3.0),
        lambda: total_defect(ghz(4), 2.9),
        lambda: censorship_scan(ghz, [3.7, 4], truncation=2),
        lambda: censorship_scan(ghz, [3, 4], truncation=2.5),
    ],
)
def test_counts_refuse_floats(call):
    """A trial, threshold or copy count that is not an integer is refused,
    not truncated; NumPy integers still count."""
    with pytest.raises(TypeError):
        call()
    assert binomial_tail(np.int64(10), np.int64(3), 0.2) == binomial_tail(10, 3, 0.2)


def test_repetition_majority_error_monotone():
    values = [repetition_majority_error(0.1, m) for m in (1, 3, 5, 21, 101, 1001)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_randomization_demo_extremes():
    clean = quantum_randomization_demo(1.0, (1.0, 0.0))
    assert abs(clean.fidelity_after_decode - 1.0) < 1e-12
    assert abs(clean.classical_majority_success - 1.0) < 1e-12
    with pytest.raises(ValueError):
        quantum_randomization_demo(1.5, (1.0, 0.0))


def test_randomization_demo_majority_matches_channel():
    """The closed-form majority readout agrees with the noise channel applied
    to each encoded basis bit (replacement by I/2 with probability 1 - eps is
    depolarizing with p = 3(1 - eps)/4)."""
    for eps in np.linspace(0.0, 1.0, 11):
        parts = [(build_depolarizing(0.75 * (1.0 - eps), q), (q,)) for q in range(3)]
        noise = combine(parts, n=3)
        ones = np.array([bin(i).count("1") for i in range(8)])
        for bit, amps in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
            noisy = apply(noise, bitflip_code_encode(*amps).density_matrix())
            diag = np.real(np.diag(noisy.matrix))
            want = diag[ones <= 1].sum() if bit == 0 else diag[ones >= 2].sum()
            got = quantum_randomization_demo(eps, amps).classical_majority_success
            assert abs(got - want) < 1e-12


def test_randomization_demo_phase_sensitivity():
    """Basis states survive majority decoding better than superpositions."""
    s = 1 / np.sqrt(2)
    plus = quantum_randomization_demo(0.5, (s, s))
    zero = quantum_randomization_demo(0.5, (1.0, 0.0))
    assert abs(plus.fidelity_after_decode - 0.5625) < 1e-9
    assert abs(zero.classical_majority_success - 0.84375) < 1e-9
    assert plus.fidelity_after_decode <= zero.classical_majority_success - 0.05


def test_randomization_demo_matches_syndrome_recovery():
    """The closed-form decoded fidelity equals the syndrome-projector
    recovery applied to the noisy density matrix, phases included."""
    rng = np.random.default_rng(14)
    cases = [(float(eps), 1.0, 0.0) for eps in np.linspace(0.0, 1.0, 5)]
    for _ in range(120):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = amps / np.linalg.norm(amps)
        cases.append((float(rng.uniform(0.0, 1.0)), a, b))
    for eps, a, b in cases:
        got = quantum_randomization_demo(eps, (a, b)).fidelity_after_decode
        assert abs(got - repetition_recovery_fidelity(eps, a, b)) < 1e-12, (eps, a, b)


def test_randomization_demo_exact_points():
    """Without noise the state comes back; a basis state fails exactly when
    the majority of three copies, each flipped with (1 - eps)/2, is wrong."""
    rng = np.random.default_rng(15)
    for _ in range(10):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = amps / np.linalg.norm(amps)
        assert abs(quantum_randomization_demo(1.0, (a, b)).fidelity_after_decode - 1.0) < 1e-12
    for eps in np.linspace(0.0, 1.0, 11):
        f = (1.0 - eps) / 2.0
        p_fail = 3.0 * f**2 * (1.0 - f) + f**3
        got = quantum_randomization_demo(eps, (1.0, 0.0)).fidelity_after_decode
        assert abs(got - (1.0 - p_fail)) < 1e-12
