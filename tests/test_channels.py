import pickle
import tracemalloc
from functools import reduce
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlab import DensityMatrix, channels
from entlab.channels import (
    MAX_KRAUS_BYTES,
    QuantumChannel,
    apply,
    build_cluster_noise,
    build_correlated_flip,
    build_depolarizing,
    build_dephasing,
    build_pairwise_correlated,
    build_random_unitary_noise,
    check_burst_moments,
    combine,
    compose,
    embed,
    identity_channel,
    pauli_expansion,
    pauli_weight_table,
)
from entlab.conjectures import eval_relation1
from entlab.errors import SizeLimitError
from entlab.measures import excess_leak_set, information_leak
from entlab.sync import fit_mixture
from entlab.zoo import plus_all
from entlab.optim import _pauli_basis
from entlab.zoo import haar_unitary, line_edges
from helpers import (
    BUILT_CHANNELS,
    h2,
    kron_pairwise_kraus,
    kron_pauli_string,
    random_density,
    random_kraus,
    reference_cluster_kraus,
    reference_correlated_flip_kraus,
    reference_dephasing_kraus,
    reference_depolarizing_kraus,
    reference_flip_law,
    reference_haar_unitary,
    reference_pairwise_kraus,
    reference_pauli_basis,
    reference_table_twirl,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


# Pauli letters as the base-4 digits of pauli_expansion's index, qubit 0 first
PAULI_DIGITS = str.maketrans("IXYZ", "0123")


def kraus_sum(channel):
    return sum(k.conj().T @ k for k in channel.kraus)


def _ring(n):
    return [(i, (i + 1) % n) for i in range(n)] if n >= 3 else line_edges(n)


_PROBABILITY = st.one_of(st.sampled_from([0.0, 0.75, 1.0]), st.floats(0.0, 1.0))
_SIZE = st.integers(1, 6)
_SEED = st.integers(0, 2**32 - 1)


def _accepted_moments(p1, p2):
    try:
        check_burst_moments(p1, p2)
    except ValueError:
        return False
    return True


def _last_accepted(p1, end):
    """The p2 nearest ``end`` that check_burst_moments accepts with p1,
    found by bisecting the float bits between p1 (always accepted) and end."""
    if _accepted_moments(p1, end):
        return end
    inside, outside = (int(np.float64(v).view(np.int64)) for v in (p1, end))
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        if _accepted_moments(p1, float(np.int64(mid).view(np.float64))):
            inside = mid
        else:
            outside = mid
    return float(np.int64(inside).view(np.float64))


def _moment_edges(p1):
    """The least, the least positive and the greatest p2 accepted with p1."""
    return tuple(_last_accepted(p1, end) for end in (0.0, np.nextafter(0.0, 1.0), 1.0))


@st.composite
def _burst_args(draw):
    """(n, p1, p2, basis) with p2 anywhere check_burst_moments accepts with
    p1, whatever its slack, its edges drawn often; p1 is also drawn
    log-uniform down to 1e-170, where an absolute slack would show."""
    p1 = draw(_PROBABILITY | st.floats(-170.0, 0.0).map(lambda e: 10.0**e))
    edges = _moment_edges(p1)
    p2 = draw(st.sampled_from(edges) | st.floats(edges[0], edges[-1]))
    return draw(_SIZE), p1, p2, draw(st.sampled_from("XYZ"))


@st.composite
def _cluster_args(draw):
    n = draw(_SIZE)
    edges = draw(st.sampled_from([[], line_edges(n), _ring(n)]))
    return n, edges, draw(_PROBABILITY), draw(_SEED)


_ONE_QUBIT = st.tuples(_PROBABILITY, st.integers(0, 5))

# each builder, a strategy over its arguments and its boundary cases, in
# the order of BUILT_CHANNELS
BUILDER_RANGES = [
    (build_depolarizing, _ONE_QUBIT, [(0.0, 0), (0.75, 3), (1.0, 5)]),
    (build_dephasing, _ONE_QUBIT, [(0.0, 0), (0.75, 3), (1.0, 5)]),
    (
        build_correlated_flip,
        st.tuples(_PROBABILITY, st.text("IXYZ", min_size=1, max_size=6)),
        [(0.0, "ZZZZZZ"), (0.75, "XYZIXY"), (1.0, "Y")],
    ),
    (
        build_pairwise_correlated,
        _burst_args(),
        [
            (6, 0.3, 0.3, "X"),
            (6, 0.3, 0.3**2, "Y"),
            (6, 0.0, 0.0, "Z"),
            (6, 1.0, 1.0, "Z"),
        ]
        + [(6, p1, p2, "X") for p1 in (0.3, 1e-20, 1e-151) for p2 in _moment_edges(p1)],
    ),
    (
        build_random_unitary_noise,
        st.tuples(_SIZE, st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), _SEED),
        [(6, 0.0, 0), (6, 1e3, 1), (6, -1e3, 2), (1, 1e3, 3)],
    ),
    (
        build_cluster_noise,
        _cluster_args(),
        [(6, [], 0.3, 0), (6, line_edges(6), 0.75, 1), (6, _ring(6), 1.0, 2), (1, [], 0.0, 3)],
    ),
]


@pytest.mark.parametrize("channel", BUILDER_RANGES)
def test_builders_are_trace_preserving(channel):
    """Builders run no trace check, so this property stands in for it:
    over each builder's parameter range, its one stage, read as its
    ``kraus``, passes the check QuantumChannel runs on a caller's
    operators. Boundary cases, always run: p or eps at 0, 3/4 and 1
    (depolarizing, dephasing, correlated flip, cluster noise); pairwise
    moments p2 = p1, p2 = p1^2 and p1 = 0, and p2 at the least, the least
    positive and the greatest value check_burst_moments accepts at
    p1 = 0.3, 1e-20 and 1e-151 (Hypothesis draws p2 over all it accepts);
    random-unitary eps = 0 and +-1e3 (Hypothesis draws |eps| <= 1e3 over
    seeds in [0, 2^32)); cluster noise on empty, line and ring edges; n up
    to 6 throughout."""
    build, args, boundaries = channel

    def check(case):
        built = build(*case)
        [(_, pos)] = built.stages
        assert pos == built.qubits
        QuantumChannel(built.kraus, qubits=pos)

    for case in boundaries:
        check = example(case)(check)
    settings(max_examples=100, deadline=None, derandomize=True)(given(args)(check))()


def test_builders_run_no_trace_check(monkeypatch):
    """With the check made to refuse every stack, a caller's operators are
    refused and every builder still builds: none runs the Gram product."""
    monkeypatch.setattr(channels, "CPTP_ATOL", -1.0)
    with pytest.raises(ValueError, match="not trace preserving"):
        QuantumChannel([I2])
    for build, _, boundaries in BUILDER_RANGES:
        for case in boundaries:
            assert len(build(*case).stages) == 1


@pytest.mark.parametrize("channel", BUILT_CHANNELS)
def test_apply_is_kraus_sum(channel, rng):
    mat = random_density(rng, channel.n)
    want = sum(k @ mat @ k.conj().T for k in channel.kraus)
    got = apply(channel, DensityMatrix(channel.n, mat)).matrix
    assert np.abs(got - want).max() < 1e-12


def test_apply_pads_sub_register_channel(rng):
    # a one-qubit channel on qubit 2 of 3 acts as I (x) I (x) K
    ch = QuantumChannel(build_depolarizing(0.3).kraus, qubits=(2,))
    mat = random_density(rng, 3)
    want = sum(np.kron(np.eye(4), k) @ mat @ np.kron(np.eye(4), k).conj().T for k in ch.kraus)
    got = apply(ch, DensityMatrix(3, mat)).matrix
    assert np.abs(got - want).max() < 1e-12


def test_channel_constructor_validates():
    with pytest.raises(ValueError):
        QuantumChannel((np.eye(3, dtype=complex),))  # not a power of two
    with pytest.raises(ValueError):
        QuantumChannel((0.5 * I2,))  # not trace preserving
    with pytest.raises(ValueError):
        QuantumChannel((I2,), qubits=(1, 0))


def test_trace_preservation_is_checked_to_the_same_width_in_every_entry():
    """sum_k K^dagger K must equal I to 1e-9 on the diagonal as off it: a
    relative tolerance of 1e-5 would let a 1e-7 diagonal error through."""
    with pytest.raises(ValueError, match="not trace preserving"):
        QuantumChannel([np.sqrt(1 + 1e-7) * I2])
    with pytest.raises(ValueError, match="not trace preserving"):
        QuantumChannel([I2 + 0.5e-7 * X])  # K^dagger K = I + 1e-7 X + O(1e-15)
    QuantumChannel([np.sqrt(1 + 1e-10) * I2])
    QuantumChannel([I2 + 0.5e-10 * X])


def test_caller_kraus_lists_are_still_checked():
    """Derived channels skip the trace-preserving check; a caller's Kraus
    list does not, whether it reaches QuantumChannel directly or is placed
    by combine (which a product spec calls) without being a channel yet."""
    leaky = [np.sqrt(0.5) * I2, np.sqrt(0.4) * Z]
    with pytest.raises(ValueError, match="not trace preserving"):
        QuantumChannel(leaky)
    with pytest.raises(ValueError, match="not trace preserving"):
        combine([(build_dephasing(0.1), (0,)), (SimpleNamespace(kraus=leaky), (2,))], n=3)
    placed = combine([(SimpleNamespace(kraus=build_dephasing(0.1).kraus), (1,))], n=2)
    assert np.abs(kraus_sum(placed) - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize(
    "derive",
    [
        lambda: embed(build_depolarizing(0.3, qubit=1), 3),
        lambda: embed(QuantumChannel(build_correlated_flip(0.2, "XY").kraus, qubits=(0, 2)), 4),
        lambda: compose(build_pairwise_correlated(3, 0.1, 0.02, "Y"), build_depolarizing(0.2)),
        lambda: compose(build_cluster_noise(3, [(0, 1)], 0.4, seed=2), BUILT_CHANNELS[4]),
        lambda: combine([(build_depolarizing(p), (q,)) for q, p in enumerate((0.1, 0.5, 0.7))]),
        lambda: combine([(build_dephasing(0.3), (3,)), (build_correlated_flip(0.4, "ZY"), (0, 2))]),
    ],
    ids=["embed", "embed-gapped", "compose", "compose-unitary", "combine", "combine-gapped"],
)
def test_derived_channels_are_trace_preserving(derive):
    channel = derive()
    assert np.abs(kraus_sum(channel) - np.eye(channel.dim)).max() < 1e-12
    assert all(not k.flags.writeable for k in channel.kraus)


def test_channel_takes_a_list_or_a_stack_and_keeps_its_own_copy(rng):
    ops = np.array(random_kraus(rng, 2, 3))
    want = ops.copy()
    from_stack, from_list = QuantumChannel(ops), QuantumChannel(list(ops))
    ops[:] = 0.0
    for channel in (from_stack, from_list):
        assert len(channel.kraus) == 3
        assert all(np.array_equal(k, w) for k, w in zip(channel.kraus, want))
    # a real stack is read as complex operators
    assert QuantumChannel(np.eye(2)[None]).kraus[0].dtype == complex


@pytest.mark.parametrize(
    "kraus, message",
    [
        ([], "at least one Kraus operator"),
        (np.zeros((0, 2, 2)), "at least one Kraus operator"),
        ([I2, np.eye(4)], "share one square shape"),
        (np.zeros((1, 2, 4)), "share one square shape"),
        ([np.zeros((2, 4))], "share one square shape"),
        ([np.eye(3)], "not a power of two"),
        (np.eye(3)[None], "not a power of two"),
    ],
    ids=[
        "empty-list", "empty-stack", "ragged", "non-square-stack", "non-square", "dim-3",
        "dim-3-stack",
    ],
)
def test_channel_input_errors(kraus, message):
    with pytest.raises(ValueError, match=message):
        QuantumChannel(kraus)


def _assert_same_operators(got, want):
    """Same count, same order, same bytes (signed zeros included)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
def test_pairwise_correlated_matches_the_per_operator_builder(basis, n):
    """p2 = p1 drops every partial burst, p2 = p1^2 the idle term, p1 = 0
    leaves the identity alone."""
    for p1, p2 in ((0.1, 0.04), (0.3, 0.3), (0.2, 0.2**2), (0.5, 0.25), (0.0, 0.0)):
        got = build_pairwise_correlated(n, p1, p2, basis).kraus
        _assert_same_operators(got, reference_pairwise_kraus(n, p1, p2, basis))


@pytest.mark.parametrize("n", range(1, 7))
def test_cluster_noise_matches_the_per_operator_builder(n):
    for edges in ([], line_edges(n), _ring(n)):
        for seed in (0, 9, 2024):
            got = build_cluster_noise(n, edges, 0.3, seed).kraus
            _assert_same_operators(got, reference_cluster_kraus(n, edges, 0.3, seed))
    for eps in (0.0, 1.0):
        got = build_cluster_noise(n, _ring(n), eps, 5).kraus
        _assert_same_operators(got, reference_cluster_kraus(n, _ring(n), eps, 5))


@pytest.mark.parametrize("p", [0.0, 0.3, 0.75, 1.0])
def test_one_qubit_and_flip_builders_match_the_per_operator_builders(p):
    _assert_same_operators(build_depolarizing(p, qubit=2).kraus, reference_depolarizing_kraus(p))
    _assert_same_operators(build_dephasing(p).kraus, reference_dephasing_kraus(p))
    for letters in ("X", "ZY", "YIY", "XYZY", "YYYYY"):
        got = build_correlated_flip(p, letters).kraus
        _assert_same_operators(got, reference_correlated_flip_kraus(p, letters))


def test_pauli_basis_and_haar_unitary_are_byte_identical_to_one_at_a_time(rng):
    for m, keys in ((2, ((0,), (1,))), (3, ((0, 1), (0, 2), (1, 2))), (4, ((0, 1, 2), (1, 2, 3)))):
        basis = _pauli_basis(m, keys)
        stack, owned = reference_pauli_basis(m, keys)
        assert basis.stack.tobytes() == stack.tobytes()
        assert all(got.tobytes() == want.tobytes() for (_, got), want in zip(basis.owned, owned))
    seed = int(rng.integers(2**32))
    got = haar_unitary(8, np.random.default_rng(seed))
    assert got.tobytes() == reference_haar_unitary(8, np.random.default_rng(seed)).tobytes()


@pytest.mark.parametrize("n", [0, 1, 3])
def test_channel_defaults_to_leading_qubits(n):
    assert QuantumChannel((np.eye(2**n, dtype=complex),)).qubits == tuple(range(n))


@pytest.mark.parametrize(
    "place, message",
    [
        (lambda: combine([(build_dephasing(0.1), (1,)), (build_dephasing(0.2), (1,))]), "overlap"),
        (lambda: combine([(build_correlated_flip(0.1, "XX"), (2, 0))]), "strictly increasing"),
        (lambda: combine([(build_dephasing(0.1), (0, 1))], n=3), "declared on 2"),
        (lambda: combine([(build_dephasing(0.1), (3,))], n=3), "does not fit"),
        (lambda: embed(build_dephasing(0.1, qubit=2), 2), "does not fit"),
        # a float position is refused, not truncated to a register index
        (lambda: build_dephasing(0.2, 1.7), "^qubit position 1.7 is not an integer$"),
        (lambda: build_depolarizing(0.2, 0.6), "^qubit position 0.6 is not an integer$"),
        (lambda: QuantumChannel(build_dephasing(0.2).kraus, qubits=(0.6,)), "not an integer"),
        (lambda: combine([(build_dephasing(0.2), (1.9,))], n=3), "not an integer"),
    ],
    ids=[
        "overlap", "not-increasing", "count-mismatch", "qubit-outside", "embed-does-not-fit",
        "float-dephasing-qubit", "float-depolarizing-qubit", "float-declared-qubit",
        "float-part-qubit",
    ],
)
def test_placement_rejects(place, message):
    with pytest.raises(ValueError, match=message):
        place()


def test_combine_kraus_order_is_part_order():
    # part 0's Kraus index runs outermost; identity fills the other qubits
    a, b, c = build_depolarizing(0.3), build_dephasing(0.4), build_correlated_flip(0.2, "XY")
    got = combine([(a, (0,)), (b, (2,))], n=3).kraus
    want = [np.kron(np.kron(ka, I2), kb) for ka in a.kraus for kb in b.kraus]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    got = combine([(a, (0,)), (c, (1, 2)), (b, (4,))], n=5).kraus
    want = [
        np.kron(np.kron(np.kron(ka, kc), I2), kb)
        for ka in a.kraus
        for kc in c.kraus
        for kb in b.kraus
    ]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_placement_forms_no_operator():
    """combine, embed, compose and identity_channel keep stages: on 12
    qubits none of them allocates a 4096 x 4096 operator (268 MB) before
    ``kraus`` is read."""
    tracemalloc.start()
    try:
        placed = combine([(build_dephasing(0.2), (5,))], n=12)
        wide = embed(build_correlated_flip(0.2, "ZZ"), 12)
        idle = identity_channel(12)
        chained = compose(build_dephasing(0.2, 11), build_dephasing(0.2, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [len(ch.stages) for ch in (placed, wide, idle, chained)] == [1, 1, 0, 2]
    assert placed.n == wide.n == idle.n == chained.n == 12
    assert np.array_equal(identity_channel(3).kraus[0], np.eye(8))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_correlated_flip(0.2, "Z" * 10),
        lambda: build_pairwise_correlated(8, 0.1, 0.02, "Z"),
        lambda: build_depolarizing(0.3),
        lambda: build_dephasing(0.3),
    ],
    ids=["correlated_flip", "pairwise_correlated", "depolarizing", "dephasing"],
)
def test_pauli_builders_hold_one_stack(build):
    """A Pauli builder forms no operator, and its ``kraus`` scales the
    strings in the one scatter that writes them, so a build and that read
    peak at the channel's stack, with no second copy: 32 MiB for the flip
    on ten qubits, 257 MiB for the bursts on eight. 64 KiB more cover the
    index arrays and Python objects; the one-qubit stacks (256 B) sit
    below that allowance, so there it is all they check."""
    kraus, peak = _traced(lambda: build().kraus)
    stack = sum(op.nbytes for op in kraus)
    assert peak <= 1.1 * stack + 2**16


def test_channels_are_read_only_and_pickle_by_their_stages():
    ch = combine([(build_depolarizing(0.3), (2,)), (build_dephasing(0.4), (0,))], n=4)
    with pytest.raises(AttributeError, match="read-only"):
        ch.qubits = (0,)
    copy = pickle.loads(pickle.dumps(ch))
    assert copy.qubits == ch.qubits and len(copy.stages) == 2
    assert all(np.array_equal(a, b) for a, b in zip(copy.kraus, ch.kraus))


def test_embed_returns_a_placed_channel_unchanged():
    ch = QuantumChannel(build_correlated_flip(0.2, "XZ").kraus, qubits=(0, 1))
    assert embed(ch, 2) is ch


def test_depolarizing_action(rng):
    p = 0.3
    ch = build_depolarizing(p)
    mat = random_density(rng, 1)
    got = apply(ch, DensityMatrix(1, mat)).matrix
    want = (1 - p) * mat + (p / 3) * (X @ mat @ X + Y @ mat @ Y + Z @ mat @ Z)
    assert np.abs(got - want).max() < 1e-12
    # maximally mixed state is a fixed point
    flat = np.eye(2, dtype=complex) / 2
    assert np.abs(apply(ch, DensityMatrix(1, flat)).matrix - flat).max() < 1e-12


def test_dephasing_spectrum_on_plus():
    # diagonalization oracle for the flip-probability spectrum
    eps = 0.2
    out = apply(build_dephasing(eps), plus_all(1).density_matrix())
    lam = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.abs(lam - np.array([eps / 2, 1 - eps / 2])).max() < 1e-12


def test_correlated_flip_action():
    eps = 0.2
    ch = build_correlated_flip(eps, "ZZ")
    rho = plus_all(2).density_matrix()
    zz = np.kron(Z, Z)
    want = (1 - eps) * rho.matrix + eps * zz @ rho.matrix @ zz
    assert np.abs(apply(ch, rho).matrix - want).max() < 1e-12


def test_correlated_flip_strings_match_kron_chains():
    """At eps = 1 the only Kraus operator is the string itself: every string
    of one to five letters, Y phases included, equals its kron chain entry
    for entry."""
    assert np.allclose(build_correlated_flip(1.0, "IX").kraus[0], np.kron(I2, X))
    assert np.allclose(build_correlated_flip(1.0, "ZY").kraus[0], np.kron(Z, Y))
    for n in range(1, 6):
        for letters in product("IXYZ", repeat=n):
            letters = "".join(letters)
            (got,) = build_correlated_flip(1.0, letters).kraus
            assert np.array_equal(got, kron_pauli_string(letters))
    with pytest.raises(ValueError, match="unknown Pauli letter 'W'"):
        build_correlated_flip(1.0, "XW")


@pytest.mark.parametrize("basis", ["X", "Y", "Z"])
def test_pairwise_correlated_matches_kron_chains(basis):
    """Every flip mask's Kraus operator, weight included, equals the kron
    chain that it used to form."""
    for n in range(1, 6):
        for p1, p2 in ((0.1, 0.04), (0.3, 0.3)):
            got = build_pairwise_correlated(n, p1, p2, basis).kraus
            want = kron_pairwise_kraus(n, p1, p2, basis)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_combine_acts_locally(rng):
    # independent single-qubit factors act as a tensor product
    p, eps = 0.25, 0.5
    ch = combine([(build_depolarizing(p), (0,)), (build_dephasing(eps), (1,))], n=2)
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    got = apply(ch, DensityMatrix(2, np.kron(a, b))).matrix
    fa = apply(build_depolarizing(p), DensityMatrix(1, a)).matrix
    fb = apply(build_dephasing(eps), DensityMatrix(1, b)).matrix
    assert np.abs(got - np.kron(fa, fb)).max() < 1e-12


def test_embed_places_channel(rng):
    # channel on qubit 1 must not disturb qubit 0
    ch = embed(QuantumChannel((X,), qubits=(1,)), 2)
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    got = apply(ch, DensityMatrix(2, np.kron(a, b))).matrix
    assert np.abs(got - np.kron(a, X @ b @ X)).max() < 1e-12


def test_compose_order(rng):
    # second after first; phase damping factors multiply
    e1, e2 = 0.3, 0.5
    both = compose(build_dephasing(e2), build_dephasing(e1))
    rho = plus_all(1).density_matrix()
    got = apply(both, rho).matrix
    step = apply(build_dephasing(e2), apply(build_dephasing(e1), rho)).matrix
    assert np.abs(got - step).max() < 1e-12
    # off-diagonal contraction is (1-e1)(1-e2)
    assert abs(got[0, 1].real - 0.5 * (1 - e1) * (1 - e2)) < 1e-12
    # the Kraus operators are the products K2 K1, first's index outermost
    a, b = QuantumChannel(random_kraus(rng, 2, 3)), build_correlated_flip(0.2, "XY")
    got = compose(b, a).kraus
    want = [kb @ ka for ka in a.kraus for kb in b.kraus]
    assert len(got) == len(want)
    assert max(np.abs(g - w).max() for g, w in zip(got, want)) < 1e-15


FEASIBLE_MOMENTS = [
    (1e-3, 2e-5),
    (0.1, 0.01),  # p2 = p1^2, independent flips
    (0.1, 0.1),  # p2 = p1, fully synchronized
    (1e-8, 1e-16),  # independent boundary at small p
    (0.0, 0.0),
]


def test_pairwise_correlated_moments():
    """Single and pair flip probabilities must reproduce the inputs."""
    n = 3
    letters = ["I", "X"]
    for p1, p2 in FEASIBLE_MOMENTS:
        twirl = pauli_expansion(build_pairwise_correlated(n, p1, p2))
        probs = {}
        for i in range(2**n):
            s = "".join(letters[(i >> (n - 1 - q)) & 1] for q in range(n))
            probs[s] = twirl[int(s.translate(PAULI_DIGITS), 4)]
        assert abs(sum(probs.values()) - 1.0) < 1e-9
        single = sum(v for s, v in probs.items() if s[0] == "X")
        pair = sum(v for s, v in probs.items() if s[0] == "X" and s[1] == "X")
        assert abs(single - p1) < 1e-12
        assert abs(pair - p2) < 1e-12


def test_fit_mixture_feasible():
    """One check of p1^2 <= p2 <= p1 serves the channel builder and fit_mixture."""
    for p1, p2 in FEASIBLE_MOMENTS:
        assert check_burst_moments(p1, p2) == (p1, p2)
        fit_mixture(p1, p2)
    infeasible = [
        (1e-3, 2e-3),  # p2 > p1
        (0.1, 0.001),  # p2 < p1^2
        (1e-8, 1e-17),  # p2 < p1^2 by less than an absolute 1e-15
        (1e-20, 1e-15),  # p2 > p1 by less than an absolute 1e-15: h = 1e5
        (1e-151, 1e-310),  # p2 < p1^2 by less than an absolute 1e-300: pi = 1e8
        (1.5, 0.1),
    ]
    for p1, p2 in infeasible:
        with pytest.raises(ValueError, match="p1|probabilities"):
            check_burst_moments(p1, p2)
        with pytest.raises(ValueError, match="p1|probabilities"):
            fit_mixture(p1, p2)
        with pytest.raises(ValueError, match="p1|probabilities"):
            build_pairwise_correlated(2, p1, p2)


def test_random_unitary_noise_seeded():
    a = build_random_unitary_noise(2, 0.6, seed=4)
    b = build_random_unitary_noise(2, 0.6, seed=4)
    c = build_random_unitary_noise(2, 0.6, seed=5)
    assert all(np.allclose(x, y) for x, y in zip(a.kraus, b.kraus))
    assert not all(np.allclose(x, y) for x, y in zip(a.kraus, c.kraus))
    # zero strength leaves states alone
    idle = build_random_unitary_noise(2, 0.0, seed=4)
    rho = DensityMatrix(2, random_density(np.random.default_rng(0), 2))
    assert np.abs(apply(idle, rho).matrix - rho.matrix).max() < 1e-9


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_random_unitary_noise_refuses_a_non_finite_strength(eps):
    with pytest.raises(ValueError):
        build_random_unitary_noise(2, eps, seed=4)


def test_random_unitary_noise_cap_raises_before_allocating():
    """H is a dense 2^n x 2^n matrix diagonalized whole (about 20 s at
    n = 11, minutes and 1.6 GB at 12), so n = 12 is refused before its
    first 2^12 x 2^12 draw exists."""
    assert channels.MAX_RANDOM_UNITARY_QUBITS == 11

    def build():
        with pytest.raises(SizeLimitError, match="random unitary noise on 12 > 11 qubits"):
            build_random_unitary_noise(12, 0.3, seed=1)

    assert _traced(build)[1] < 2**20


def test_cluster_noise_seeded_and_idle():
    edges = [(0, 1), (1, 2)]
    a = build_cluster_noise(3, edges, 0.4, seed=7)
    b = build_cluster_noise(3, edges, 0.4, seed=7)
    assert all(np.allclose(x, y) for x, y in zip(a.kraus, b.kraus))
    idle = build_cluster_noise(3, edges, 0.0, seed=7)
    rho = DensityMatrix(3, random_density(np.random.default_rng(1), 3))
    assert np.abs(apply(idle, rho).matrix - rho.matrix).max() < 1e-9


def test_pauli_weight_table():
    table = pauli_weight_table(2)
    assert table.shape == (16,)
    assert table.min() == 0 and table.max() == 2
    # identity channel carries all its mass at weight zero
    q = pauli_expansion(identity_channel(2))
    assert abs(q[0] - 1.0) < 1e-12  # II


def _damping(gamma):
    """Amplitude damping of strength gamma, a two-operator Kraus stack."""
    return QuantumChannel(
        (np.diag([1.0, np.sqrt(1 - gamma)]), np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]))
    )


def test_pauli_expansion_cap_raises_before_allocating():
    """Two stacks that share a qubit are expanded from the channel's
    ``kraus``, read first: one more damping on qubit 0 after damping on
    each of 9 qubits makes 1,024 Kraus products, a read over the size rule,
    so the error comes before the 4^n weight array exists."""
    n, gamma = 9, 0.3
    product_channel = combine([(_damping(gamma), (q,)) for q in range(n)])
    channel = compose(_damping(gamma), product_channel)
    assert 3 * 2 ** (n + 1) * 4**n * 16 > MAX_KRAUS_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            pauli_expansion(channel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4**n  # less than that float64 array alone


def test_damping_product_twirl_is_the_tensor_power_of_one_qubit():
    """Damping on each of 9 qubits is expanded stage by stage, with no
    ``kraus`` read: its twirl is the 9th tensor power of one qubit's,
    ((1 + s)^2 / 4, gamma / 4, gamma / 4, (1 - s)^2 / 4) on I, X, Y, Z with
    s = sqrt(1 - gamma), to 1e-15."""
    n, gamma = 9, 0.3
    s = np.sqrt(1 - gamma)
    one = np.array([(1 + s) ** 2 / 4, gamma / 4, gamma / 4, (1 - s) ** 2 / 4])
    got = pauli_expansion(combine([(_damping(gamma), (q,)) for q in range(n)]))
    assert np.abs(got - reduce(np.kron, [one] * n)).max() <= 1e-15


@pytest.mark.parametrize("n", [10, 12])
def test_pairwise_correlated_cap_raises_before_allocating(n):
    """The builder forms no operator, so it runs at any n, in far less than
    one 2^n x 2^n operator. Its ``kraus`` is a read under the size rule:
    three stacks of n = 8 fit the cap, of n = 9 do not, and above it the
    error comes before the first operator exists (n = 12 would need about
    1.1 TB for one stack)."""
    assert 3 * (2**8 + 1) * 4**8 * 16 <= MAX_KRAUS_BYTES < 3 * (2**9 + 1) * 4**9 * 16
    channel, peak = _traced(lambda: build_pairwise_correlated(n, 0.1, 0.02, "Z"))
    assert peak < 16 * 4**n  # less than one complex operator
    assert len(channel.stages[0][0]) == 2**n + 1
    assert _traced(lambda: _refused(lambda: channel.kraus))[1] < 16 * 4**n


def _depolarized_register():
    """Depolarizing noise on each of 12 qubits: 4^12 products of 12 qubits."""
    return combine([(build_depolarizing(0.1), (q,)) for q in range(12)])


def _composed_wide_pair():
    """Depolarizing noise on qubits 0 and 1 of 2, then on qubit 11: 64
    products of 12 qubits, 17 GB as dense operators."""
    pair = combine([(build_depolarizing(0.1), (0,)), (build_depolarizing(0.1), (1,))])
    return compose(build_depolarizing(0.1, 11), pair)


def _traced(call) -> tuple:
    """``call()`` and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _refused(read):
    with pytest.raises(SizeLimitError, match=r"Kraus products on \d+ qubits needs \d+ bytes"):
        read()


@pytest.mark.parametrize(
    "build",
    [_depolarized_register, _composed_wide_pair],
    ids=["_depolarized_register-combine", "_composed_wide_pair-compose"],
)
def test_kraus_products_cap_raises_before_allocating(build):
    """combine and compose only place stages, so a channel of more Kraus
    products than any read could hold is built without forming anything.
    Its ``kraus`` (4.5 PB for the depolarized register, 17 GB for the wide
    pair) raises before allocating, as do the branch rows of the
    depolarized register (1.1 TB) on an explicit |+>^12 input. The leak on
    qubit 0 reads the flip-pattern law of the tables, 32 KiB: depolarizing
    noise p leaves |+> with spectrum (1 - 2p/3, 2p/3)."""
    channel, peak = _traced(build)
    assert peak < 2**20
    one_operator = 16 * 4**12
    assert _traced(lambda: _refused(lambda: channel.kraus))[1] < one_operator
    if len(channel.stages) == 12:
        plus = plus_all(12)
        rows = _traced(lambda: _refused(lambda: information_leak(channel, (0,), input_state=plus)))
        assert rows[1] < one_operator
    leak, peak = _traced(lambda: information_leak(channel, (0,)))
    assert abs(leak - h2(2 * 0.1 / 3)) <= 1e-12
    assert peak < 2**20


def _dephased_register(n):
    return combine([(build_dephasing(0.2), (q,)) for q in range(n)])


def test_dephasing_on_every_qubit_gives_a_relation1_verdict_at_ten_qubits():
    """The independent baseline of both postulates at n = 10: 1024 branch
    rows (16 MiB), where dense Kraus products would take 16 GiB. Each
    leak is H2(eps/2) and a product channel on |+>^n leaves no excess."""
    verdict = eval_relation1(plus_all(10), _dephased_register(10), 0, 9)
    assert all(abs(v - h2(0.1)) <= 1e-12 for v in verdict.leaks.values())
    assert abs(verdict.excess) <= 1e-12


def _ending_in_x(channel):
    """``channel`` then X on qubit 2, a stage that is not a table, so its
    reads on |+>^n form the branch rows."""
    return compose(QuantumChannel([X], qubits=(2,)), channel)


@pytest.mark.parametrize("over", [True, False], ids=["over", "under"])
@pytest.mark.parametrize(
    "n, read, stack",
    [
        (8, lambda ch: information_leak(ch, (0,), input_state=plus_all(8)), 16 * 4**8),
        (8, lambda ch: eval_relation1(plus_all(8), _ending_in_x(ch), 0, 7), 16 * 4**8),
        (8, lambda ch: excess_leak_set(ch, (0, 1, 2), input_state=plus_all(8)), 16 * 4**8),
        (5, lambda ch: ch.kraus, 16 * 2**5 * 4**5),
        (5, lambda ch: _ending_in_x(ch).kraus, 16 * 2**5 * 4**5),
    ],
    ids=["leak", "relation1", "set_excess", "kraus", "kraus_ending_in_one_operator"],
)
def test_read_size_rule_at_its_boundary(monkeypatch, n, read, stack, over):
    """A read of dephasing on each of n qubits forms a stack of 2^n branch
    rows (on an explicit input, or through a stage that is not a table),
    or of 2^n operators, of ``stack`` bytes and may hold three of them (a
    last stage of one operator, whose product is as large as the stack it
    reads, included). With the cap one byte under that it is refused
    before allocating; with 64 KiB over it, room for the read's Python
    objects and small arrays, it runs and its peak stays within the cap."""
    channel = _dephased_register(n)
    cap = 3 * stack + (-1 if over else 2**16)
    monkeypatch.setattr(channels, "MAX_KRAUS_BYTES", cap)
    if over:
        assert _traced(lambda: _refused(lambda: read(channel)))[1] < stack
    else:
        assert _traced(lambda: read(channel))[1] <= cap


def _dense_stages(channel):
    """The channel as one stage of its ``kraus``, checked as a caller's
    list, so every read takes the stack path."""
    return QuantumChannel(channel.kraus, qubits=channel.qubits)


def _table_products():
    """Pauli tables on disjoint positions, in and out of position order,
    with idle qubits and a placed multi-qubit table."""
    return [
        combine([(build_depolarizing(0.3), (0,)), (build_dephasing(0.4), (2,))], n=4),
        combine([(build_correlated_flip(0.2, "XY"), (1, 3)), (build_depolarizing(0.1), (0,))]),
        combine([(build_pairwise_correlated(2, 0.1, 0.04, "Y"), (1, 4))], n=5),
        combine([(build_depolarizing(p), (q,)) for q, p in enumerate((0.1, 0.2, 0.3, 0.4))]),
        build_depolarizing(0.2, qubit=3),
        identity_channel(2),
    ]


@pytest.mark.parametrize("channel", _table_products())
def test_table_kraus_is_one_scatter_of_the_product_strings(channel, monkeypatch):
    """``kraus`` of tables on disjoint positions is the scatter of their
    product strings: it equals the stages run on the identity to 1e-15,
    operator for operator, and does not run them."""
    want = channels._run_stages(channel.stages, channel.n) if channel.qubits[0] == 0 else None
    monkeypatch.setattr(channels, "_run_stages", lambda *a: pytest.fail("stages run"))
    got = channel.kraus
    assert all(not k.flags.writeable for k in got)
    if want is not None:
        assert len(got) == len(want)
        assert max(np.abs(g - w).max() for g, w in zip(got, want)) <= 1e-15


def _overlapping_parts():
    """Tables that share positions, a table that adds a new position to an
    old one, and stacks on distinct qubits placed between and across
    tables, in and out of position order."""
    dephased, flip = build_dephasing(0.3, qubit=1), build_correlated_flip(0.2, "XY")
    damped = QuantumChannel(_damping(0.3).stages[0][0], qubits=(2,))
    rotated = QuantumChannel([haar_unitary(2, np.random.default_rng(3))], qubits=(0,))
    cluster = build_cluster_noise(2, [(0, 1)], 0.4, seed=2)
    return [
        compose(build_depolarizing(0.1), combine([(build_depolarizing(0.1), (q,)) for q in range(3)])),
        compose(flip, build_pairwise_correlated(2, 0.1, 0.04, "Z")),
        compose(combine([(flip, (0, 2))]), dephased),
        compose(dephased, compose(combine([(flip, (1, 2))]), damped)),
        compose(build_depolarizing(0.2, 2), compose(rotated, compose(combine([(flip, (0, 2))]), damped))),
        compose(combine([(cluster, (0, 3))]), combine([(flip, (1, 3)), (build_dephasing(0.2), (0,))])),
    ]


@pytest.mark.parametrize("channel", _table_products() + _overlapping_parts())
def test_table_twirl_matches_the_dense_expansion(channel, monkeypatch):
    """A Pauli channel commutes with the twirl and the twirl of a product
    is the product of the twirls, so the expansion of tables, overlapping
    or not, and of stacks on distinct qubits between them equals the
    expansion of their dense operators to 1e-15 and forms no operator."""
    want = pauli_expansion(_dense_stages(channel))
    monkeypatch.setattr(QuantumChannel, "kraus", property(lambda ch: pytest.fail("kraus formed")))
    got = pauli_expansion(channel)
    assert np.abs(got - want).max() <= 1e-15
    assert not got.flags.writeable


def _composed_wide_tables():
    """A second wide table over a first, and a one-qubit table over both."""
    first = build_pairwise_correlated(12, 0.2, 0.05, "Y")
    second = compose(build_pairwise_correlated(12, 0.1, 0.02, "Z"), first)
    return [second, compose(build_dephasing(0.2, 5), second)]


@pytest.mark.parametrize(
    "channel",
    _table_products() + [ch for ch in BUILT_CHANNELS if channels._tables(ch.stages)] + _composed_wide_tables(),
)
def test_pauli_law_is_bitwise_the_first_readers_on_tables(channel):
    """The flip law equals the first reader's gathers byte for byte, and
    the twirl of tables on disjoint positions its scatter of product
    strings."""
    m = channel.qubits[-1] + 1
    law = channels._pauli_law(channel.stages, range(m), twirl=False)
    assert law.tobytes() == reference_flip_law(channel.stages, m).tobytes()
    if channels._disjoint_tables(channel) is not None:
        assert pauli_expansion(channel).tobytes() == reference_table_twirl(channel).tobytes()


_ROTATION = QuantumChannel([np.cos(np.pi / 8) * I2 - 1j * np.sin(np.pi / 8) * X])


@pytest.mark.parametrize(
    "channel, shared",
    [
        (compose(_ROTATION, _ROTATION), True),
        (compose(_damping(0.3), combine([(_damping(0.3), (q,)) for q in range(3)])), True),
        (combine([(_ROTATION, (0,)), (_ROTATION, (1,))]), False),
        (compose(_ROTATION, build_depolarizing(0.2)), False),
        (_overlapping_parts()[4], False),
    ],
    ids=["rotations", "damping-on-a-damped-qubit", "rotations-on-two", "rotation-on-a-table", "interleaved"],
)
def test_pauli_expansion_reads_kraus_only_for_stacks_on_a_shared_qubit(channel, shared, monkeypatch):
    reads, kraus = [], QuantumChannel.kraus
    monkeypatch.setattr(QuantumChannel, "kraus", property(lambda ch: reads.append(ch) or kraus.fget(ch)))
    pauli_expansion(channel)
    assert len(reads) == shared


def test_coherent_stacks_on_one_qubit_are_twirled_whole():
    """Two pi/8 rotations about X make a pi/4 rotation, whose twirl is
    (1/2, 1/2) on I and X; the product of the two stages' twirls would give
    (3/4, 1/4), so the ``kraus`` read carries weight here."""
    channel = compose(_ROTATION, _ROTATION)
    assert np.abs(pauli_expansion(channel) - [0.5, 0.5, 0.0, 0.0]).max() <= 1e-15
    stage_rule = channels._pauli_law(channel.stages, channel.qubits, twirl=True)
    assert np.abs(stage_rule - [0.75, 0.25, 0.0, 0.0]).max() <= 1e-15


def test_pauli_builders_allocate_no_stack_at_twelve_qubits():
    """Each Pauli builder makes a table, so at n = 12 a build peaks under
    1 MiB (the bursts' 4,097 strings and weights and their temporaries)
    where one 4096 x 4096 operator takes 268 MB: a flip on all twelve
    qubits, the bursts and one-qubit noise placed on every qubit. The
    bursts' ``kraus`` (1.1 TB) is refused before allocating."""
    builds = [
        lambda: build_correlated_flip(0.2, "Z" * 12),
        lambda: build_pairwise_correlated(12, 0.1, 0.02, "Z"),
        lambda: combine([(build_depolarizing(0.1), (q,)) for q in range(12)]),
        lambda: combine([(build_dephasing(0.2), (q,)) for q in range(12)]),
    ]
    for build in builds:
        channel, peak = _traced(build)
        assert peak < 2**20
        assert channel.n == 12
    assert _traced(lambda: _refused(lambda: builds[1]().kraus))[1] < 2**20


def test_pauli_expansion_unit_flip():
    # deterministic X on qubit 0 of two
    ch = QuantumChannel((np.kron(X, I2),))
    q = pauli_expansion(ch)
    assert abs(q[4] - 1.0) < 1e-12  # XI: digits 1, 0
    assert abs(q[0]) < 1e-12  # II


@pytest.mark.parametrize("channel", BUILT_CHANNELS)
def test_pauli_expansion_is_a_read_only_distribution(channel):
    q = pauli_expansion(channel)
    assert q.shape == (4**channel.n,)
    assert q.min() >= 0.0
    assert abs(q.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        q[0] = 0.5
