"""Synchronized-error statistics and the readout comparison demo.

The classical model is a two-point mixture: with probability pi a burst
occurs and every bit is hit independently with probability h, otherwise
nothing happens. Its first two moments recover (p1, p2) = (pi*h, pi*h^2).
Binomial tails are summed exactly in log space.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from math import lgamma, log, log1p

import numpy as np

from .channels import QuantumChannel, _burst_mixture, pauli_expansion, pauli_weight_table
from .states import check_probability
from .zoo import bitflip_code_encode

MAX_TAIL_TRIALS = 10**6
# exp() of anything below -745.13 is exactly 0.0, so a tail term this far
# below the largest one adds nothing to the sum
_LOG_TAIL_WINDOW = -800.0


@dataclass(frozen=True)
class ClassicalMixtureModel:
    """Burst probability pi and in-burst hit probability h."""

    pi: float
    h: float

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0 or not 0.0 <= self.h <= 1.0:
            raise ValueError(f"mixture parameters ({self.pi}, {self.h}) outside [0, 1]")

    def moment(self, order: int) -> float:
        """Joint hit probability of ``order`` distinct bits: pi * h^order."""
        if order < 1:
            raise ValueError("moment order must be positive")
        return self.pi * self.h**order


def fit_mixture(p1: float, p2: float) -> ClassicalMixtureModel:
    """Mixture model with single-bit probability p1 and pair probability p2.

    Feasible iff p1^2 <= p2 <= p1; equality p2 = p1^2 is the independent
    case, p2 = p1 the fully synchronized one.
    """
    return ClassicalMixtureModel(*_burst_mixture(p1, p2))


def _log_binom_pmf(n: int, k: np.ndarray, p: float) -> np.ndarray:
    logc = lgamma(n + 1) - np.array([lgamma(x + 1) + lgamma(n - x + 1) for x in k])
    return logc + k * log(p) + (n - k) * log1p(-p)


def binomial_tail(n: int, k: int, p: float) -> float:
    """P(Bin(n, p) > k), exact, summed from the log-space pmf."""
    n = operator.index(n)
    k = operator.index(k)
    if n < 0 or n > MAX_TAIL_TRIALS:
        raise ValueError(f"trial count {n} outside [0, {MAX_TAIL_TRIALS}]")
    p = check_probability(p)
    if k >= n:
        return 0.0
    if k < 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    # The log-pmf is concave in k, so the terms within _LOG_TAIL_WINDOW of
    # its peak on [k+1, n] are one window around the peak, found by
    # bisection on each side; the rest stay -inf, which exp() also maps to 0.
    peak = min(max(int((n + 1) * p), k + 1), n)
    floor = _log_binom_pmf(n, np.array([float(peak)]), p)[0] + _LOG_TAIL_WINDOW

    def kept(j: int) -> bool:
        return _log_binom_pmf(n, np.array([float(j)]), p)[0] >= floor

    first = k + 1 + bisect_left(range(k + 1, peak), True, key=kept)
    last = peak + bisect_left(range(peak + 1, n + 1), True, key=lambda j: not kept(j))
    logs = np.full(n - k, -np.inf)
    logs[first - k - 1 : last - k] = _log_binom_pmf(n, np.arange(first, last + 1, dtype=float), p)
    top = float(np.max(logs))
    return float(min(1.0, np.exp(top) * np.sum(np.exp(logs - top))))


def tail_probability(model: ClassicalMixtureModel, n: int, threshold: int) -> float:
    """P(more than ``threshold`` of n bits are hit) under the mixture model."""
    return model.pi * binomial_tail(n, threshold, model.h)


@dataclass(frozen=True)
class TripleMomentReport:
    implied_p3: float
    independent_p3: float
    ratio: float
    target_p3: float | None
    target_ratio: float | None


def triple_moment(model: ClassicalMixtureModel, p3_target: float | None = None) -> TripleMomentReport:
    """Three-bit joint hit probability implied by the model vs independence."""
    p1 = model.moment(1)
    implied = model.moment(3)
    independent = p1**3
    ratio = implied / independent if independent > 0.0 else float("inf") if implied > 0 else 1.0
    target_ratio = None
    if p3_target is not None:
        target_ratio = p3_target / independent if independent > 0.0 else None
    return TripleMomentReport(
        implied_p3=implied,
        independent_p3=independent,
        ratio=ratio,
        target_p3=p3_target,
        target_ratio=target_ratio,
    )


@dataclass(frozen=True)
class WeightDistribution:
    """Probability of each error support size under the Pauli twirl."""

    n: int
    probabilities: np.ndarray

    def mean_weight(self) -> float:
        w = np.arange(self.n + 1)
        return float(np.sum(w * self.probabilities))

    def conditional_mean_weight(self) -> float:
        """Mean support size conditioned on a non-identity error."""
        w = np.arange(self.n + 1)
        mass = float(np.sum(self.probabilities[1:]))
        if mass <= 0.0:
            return 0.0
        return float(np.sum(w[1:] * self.probabilities[1:]) / mass)


def weight_distribution(channel: QuantumChannel) -> WeightDistribution:
    """Support-size histogram of the channel's Pauli-twirl probabilities."""
    q = pauli_expansion(channel)
    probs = np.bincount(pauli_weight_table(channel.n), q, channel.n + 1)
    probs.flags.writeable = False
    return WeightDistribution(channel.n, probs)


def repetition_majority_error(eps: float, copies: int) -> float:
    """Majority-vote failure for a bit sent as ``copies`` noisy copies.

    Each copy is erased with probability 1 - eps (read as a fair coin), so
    a copy flips with probability (1 - eps)/2; the vote fails when at least
    (copies+1)/2 flip. ``copies`` must be odd.
    """
    eps = check_probability(eps, "survival probability")
    m = operator.index(copies)
    if m < 1 or m % 2 == 0:
        raise ValueError(f"copy count must be odd and positive, got {m}")
    flip = (1.0 - eps) / 2.0
    return binomial_tail(m, (m + 1) // 2 - 1, flip)


@dataclass(frozen=True)
class RandomizationDemoResult:
    fidelity_after_decode: float
    classical_majority_success: float
    epsilon: float


def quantum_randomization_demo(eps: float, logical: tuple[complex, complex]) -> RandomizationDemoResult:
    """Three-copy repetition under qubit-randomizing noise.

    Encodes a|000> + b|111>, replaces each qubit with the maximally mixed
    state with probability 1 - eps, then reports (i) the fidelity of the
    syndrome-corrected logical state with the ideal one and (ii) the
    success probability of plain majority readout of the logical bit
    distribution. At eps = 1 both are 1, up to the rounding of |a|^2 + |b|^2.

    Both are closed forms in p_f = repetition_majority_error(eps, 3). A
    replaced copy reads a fair coin, so syndrome correction flips the
    logical bit with probability p_f: the weights |a|^2 and |b|^2 of |000>
    and |111> swap with probability p_f. Replacing a copy traces it out,
    which erases the a b* coherence, so that survives only when all three
    copies are kept (probability eps^3):

        F = (|a|^4 + |b|^4)(1 - p_f) + 2 |a|^2 |b|^2 (p_f + eps^3).
    """
    eps = check_probability(eps, "survival probability")
    a, b = (complex(x) for x in logical)
    bitflip_code_encode(a, b)  # refuses amplitudes that are not normalized
    pa, pb = abs(a) ** 2, abs(b) ** 2
    p_fail = repetition_majority_error(eps, 3)
    fidelity = (pa * pa + pb * pb) * (1.0 - p_fail) + 2.0 * pa * pb * (p_fail + eps**3)

    # classical comparison: treat the logical Z distribution as a bit source
    # and score majority readout of each encoded basis bit; the noise flips
    # each copy with probability (1 - eps)/2 for either bit
    success = (pa + pb) * (1.0 - p_fail)
    return RandomizationDemoResult(
        fidelity_after_decode=min(max(fidelity, 0.0), 1.0),
        classical_majority_success=float(success),
        epsilon=eps,
    )
