"""Argument refusals of every module, one row each, and three small values
read off paths that no other test reaches."""

import numpy as np
import pytest

from entlab.channels import (
    QuantumChannel,
    build_cluster_noise,
    build_correlated_flip,
    build_dephasing,
    build_pairwise_correlated,
    build_random_unitary_noise,
)
from entlab.conjectures import _classify_growth
from entlab.errors import SizeLimitError
from entlab.measures import environment_information, total_defect
from entlab.optim import MarginalConstraintSet
from entlab.states import (
    DensityMatrix,
    check_register_size,
    fidelity,
    state_distance,
    trace_distance,
)
from entlab.sync import (
    ClassicalMixtureModel,
    binomial_tail,
    repetition_majority_error,
    weight_distribution,
)
from entlab.zoo import cluster_state, dicke_state, ghz, plus_all, random_circuit_state

ONE_QUBIT = plus_all(1).density_matrix()
TWO_QUBITS = plus_all(2).density_matrix()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: QuantumChannel([np.eye(2)], qubits=(-1,)), ValueError, "negative qubit position"),
        (lambda: build_correlated_flip(0.1, ""), ValueError, "Pauli string must be non-empty"),
        (lambda: build_pairwise_correlated(0, 0.1, 0.02), ValueError, "register must be non-empty"),
        (lambda: build_pairwise_correlated(2, 0.1, 0.02, "W"), ValueError, "flip basis must be"),
        (lambda: build_random_unitary_noise(0, 0.1, 1), ValueError, "register must be non-empty"),
        (lambda: build_cluster_noise(0, [], 0.1, 1), ValueError, "register must be non-empty"),
        (lambda: total_defect(plus_all(1)), ValueError, "need at least two qubits"),
        (lambda: total_defect(ghz(3), 1), ValueError, "truncation must be at least 2"),
        (
            lambda: total_defect(ghz(5), include_full="always"),
            SizeLimitError,
            "full-set term needs at most 4 qubits, got 5",
        ),
        (lambda: plus_all(0), ValueError, "plus_all needs at least one qubit"),
        (lambda: ghz(1), ValueError, "ghz needs at least two qubits"),
        (lambda: cluster_state(3, [(0, 1), (1, 0)]), ValueError, "duplicate edges"),
        (lambda: dicke_state(3, 4), ValueError, r"excitation count 4 outside \[0, 3\]"),
        (lambda: random_circuit_state(0, 1, 0), ValueError, "needs at least one qubit"),
        (lambda: random_circuit_state(2, -1, 0), ValueError, "depth must be non-negative"),
        (lambda: ClassicalMixtureModel(1.5, 0.1), ValueError, r"mixture parameters \(1.5, 0.1\)"),
        (lambda: ClassicalMixtureModel(0.5, 0.1).moment(0), ValueError, "moment order must be"),
        (lambda: binomial_tail(-1, 0, 0.1), ValueError, "trial count -1 outside"),
        (lambda: repetition_majority_error(0.5, 2), ValueError, "copy count must be odd"),
        (lambda: check_register_size(-1), ValueError, "register size must be a non-negative"),
        (lambda: fidelity(ONE_QUBIT, TWO_QUBITS), ValueError, "on different registers"),
        (lambda: trace_distance(ONE_QUBIT, TWO_QUBITS), ValueError, "on different registers"),
        (
            lambda: MarginalConstraintSet(0, {(0,): ONE_QUBIT}),
            ValueError,
            "ambient register must have at least one qubit",
        ),
        (lambda: MarginalConstraintSet(2, {}), ValueError, "constraint set is empty"),
        (
            lambda: MarginalConstraintSet(2, {(0, 1): ONE_QUBIT}),
            ValueError,
            r"target on \(0, 1\) has 1 qubits, expected 2",
        ),
        (
            lambda: environment_information(build_dephasing(0.1), []),
            ValueError,
            "qubit subset must be non-empty",
        ),
        (
            lambda: DensityMatrix(2, np.eye(2) / 2),
            ValueError,
            r"expected a 4x4 matrix for 2 qubits, got \(2, 2\)",
        ),
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_state_distance_of_the_mixed_and_a_pure_qubit():
    """F(I/2, |0><0|) = <0|I/2|0> = 1/2, and half the trace norm of
    diag(-1/2, 1/2) is 1/2."""
    zero = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
    mixed = DensityMatrix(1, np.eye(2, dtype=complex) / 2.0)
    assert state_distance(mixed, zero) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_conditional_mean_weight_without_error_mass():
    assert weight_distribution(build_dephasing(0.0)).conditional_mean_weight() == 0.0


def test_growth_below_one_half_is_sublinear():
    assert _classify_growth(0.3, [1.0, 1.2]) == "sublinear"
