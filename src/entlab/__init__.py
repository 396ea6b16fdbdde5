"""Entropy-based noise-correlation and entanglement measures for small registers."""

from .channels import (
    QuantumChannel,
    apply,
    build_cluster_noise,
    build_correlated_flip,
    build_depolarizing,
    build_dephasing,
    build_pairwise_correlated,
    build_random_unitary_noise,
    combine,
    compose,
    embed,
    identity_channel,
    pauli_expansion,
)
from .conjectures import (
    CensorshipReport,
    RelationVerdict,
    censorship_scan,
    eval_relation1,
    eval_relation2,
    eval_relation34,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleMarginalsError,
    PositivityError,
    SizeLimitError,
)
from .measures import (
    assisted_mutual_information,
    binary_entropy,
    environment_information,
    excess_leak,
    excess_leak_set,
    information_leak,
    max_entropy_defect,
    mutual_information,
    total_defect,
)
from .optim import (
    Decomposition,
    MarginalConstraintSet,
    max_avg_pure_decomposition,
    max_entropy_with_marginals,
)
from .states import (
    DensityMatrix,
    PureState,
    fidelity,
    partial_trace,
    purify,
    state_distance,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from .sync import (
    ClassicalMixtureModel,
    binomial_tail,
    fit_mixture,
    quantum_randomization_demo,
    repetition_majority_error,
    tail_probability,
    triple_moment,
    weight_distribution,
)
from .zoo import (
    bell,
    bitflip_code_encode,
    cluster_state,
    dicke_state,
    ghz,
    line_edges,
    plus_all,
    random_circuit_state,
)

__version__ = "0.1.0"
