import tracemalloc
from functools import reduce
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entlab import DensityMatrix, PureState, measures, states
from entlab.channels import (
    QuantumChannel,
    _pauli_law,
    _pauli_mixture,
    apply,
    build_correlated_flip,
    build_depolarizing,
    build_dephasing,
    build_pairwise_correlated,
    combine,
    compose,
    embed,
    identity_channel,
    pauli_expansion,
)
from entlab.errors import SizeLimitError
from entlab.optim import DEFAULT_TOL
from entlab.measures import (
    MAX_SET_SIZE,
    _noisy_output,
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
from entlab.states import (
    entropy_of_subset,
    gf2_kernel,
    partial_trace,
    pure_marginal,
    von_neumann_entropy,
)
from entlab.zoo import (
    bell,
    cluster_state,
    dicke_state,
    ghz,
    line_edges,
    plus_all,
    random_circuit_state,
)
from helpers import (
    BUILT_CHANNELS,
    entropy_oracle,
    env_mutual_info_oracle,
    h2,
    haar,
    ipf_max_entropy,
    padded_operator_oracle,
    partial_trace_oracle,
    random_density,
    random_kraus,
    random_pure,
    reference_flip_law,
    reference_table_twirl,
)


def test_binary_entropy_matches_oracle():
    for p in (0.0, 0.1, 0.5, 0.77, 1.0):
        assert abs(binary_entropy(p) - h2(p)) < 1e-12
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_leak_of_dephasing_is_flip_entropy():
    """Single-qubit phase noise at strength 0.2 leaks h2(0.1) bits."""
    ch = build_dephasing(0.2)
    got = information_leak(ch, (0,))
    # 2x2 diagonalization oracle on the same output
    from entlab.channels import apply

    out = apply(ch, plus_all(1).density_matrix())
    assert abs(got - entropy_oracle(out.matrix)) < 1e-9
    assert abs(got - h2(0.1)) < 1e-12
    assert abs(got - 0.468996) < 1e-6


_ONE_QUBIT_NOISE = {"dephasing": build_dephasing, "depolarizing": build_depolarizing}


@st.composite
def product_noise(draw, max_qubits):
    """Single-qubit noise per qubit of an n = 2..max_qubits register, as
    (kind, strength) pairs; kind None leaves the qubit idle."""
    n = draw(st.integers(2, max_qubits))
    kind = st.sampled_from(["dephasing", "depolarizing", None])
    return draw(st.lists(st.tuples(kind, st.floats(0.0, 1.0)), min_size=n, max_size=n))


def product_channel(noise):
    parts = [(_ONE_QUBIT_NOISE[kind](s), (q,)) for q, (kind, s) in enumerate(noise) if kind]
    return combine(parts, n=len(noise))


def plus_flip_probability(kind, strength):
    """How often the noise flips |+> to |->: a phase flip at eps/2 for
    dephasing, the Y and Z terms at 2p/3 for depolarizing."""
    if kind is None:
        return 0.0
    return strength / 2.0 if kind == "dephasing" else 2.0 * strength / 3.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(product_noise(4))
@example([("dephasing", 0.3), ("dephasing", 0.6)])
def test_leak_additive_for_product_channels(noise):
    """On |+>^n the leak of a product channel on any subset is the sum of
    its qubits' leaks, each the entropy of one flip."""
    ch = product_channel(noise)
    n = len(noise)
    singles = [information_leak(ch, (q,)) for q in range(n)]
    for q in range(n):
        assert abs(singles[q] - h2(plus_flip_probability(*noise[q]))) < 1e-9
    for size in range(2, n + 1):
        for keep in combinations(range(n), size):
            assert abs(information_leak(ch, keep) - sum(singles[q] for q in keep)) < 1e-9


def test_leak_accepts_custom_input():
    # a Z-basis input is untouched by phase noise
    zero = PureState(1, np.array([1.0, 0.0], dtype=complex))
    assert information_leak(build_dephasing(0.8), (0,), input_state=zero) < 1e-9


@st.composite
def pure_input_cases(draw):
    """A channel, the pure input it acts on and a qubit subset: a random
    Kraus channel (1 to 8 operators) on some positions of an n <= 5 register
    or a built channel on its own register, on |+>^n or a random input."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        channel = draw(st.sampled_from(BUILT_CHANNELS))
        n = channel.n
    else:
        n = draw(st.integers(1, 5))
        positions = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        kraus = random_kraus(rng, len(positions), draw(st.integers(1, 8)))
        channel = QuantumChannel(kraus, qubits=positions)
    plus = draw(st.booleans())
    psi = plus_all(n) if plus else PureState(n, random_pure(rng, n))
    subset = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    # |+>^n on the channel's own span is also the measures' default input
    default = plus and channel.qubits[-1] == n - 1
    return channel, psi, subset, default


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pure_input_cases())
def test_leak_measures_of_pure_inputs_match_oracles(case):
    """The branch-row leak measures against the dense output's direct-sum
    partial traces and the explicit dilation, to 1e-12."""
    channel, psi, subset, default = case
    n = psi.n
    ops = [padded_operator_oracle(k, channel.qubits, n) for k in channel.kraus]
    branches = [k @ psi.amplitudes for k in ops]
    out = sum(np.outer(v, v.conj()) for v in branches)

    def leak(keep):
        return entropy_oracle(partial_trace_oracle(out, n, keep))

    kwargs = {} if default else {"input_state": psi}
    assert abs(information_leak(channel, subset, **kwargs) - leak(subset)) < 1e-12
    env = env_mutual_info_oracle(ops, psi.amplitudes, n, subset)
    assert abs(environment_information(channel, subset, **kwargs) - env) < 1e-12
    for a, b in combinations(subset, 2):
        want = leak((a,)) + leak((b,)) - leak((a, b))
        assert abs(excess_leak(channel, a, b, **kwargs) - want) < 1e-12


def _random_part(rng, k: int, count: int, tables: bool) -> tuple:
    """A channel of ``count`` Kraus operators on k qubits, and its operators:
    a random Kraus list, or with ``tables`` a Pauli table of ``count``
    random strings (repeats allowed) with random positive weights."""
    if not tables:
        ops = random_kraus(rng, k, count)
        return QuantumChannel(ops), ops
    x, z = rng.integers(0, 2**k, (2, count))
    part = _pauli_mixture(k, x, z, rng.dirichlet(np.ones(count)))
    return part, list(part.kraus)


@st.composite
def placed_parts(draw, tables=False):
    """A combine of one to three random Kraus parts on disjoint positions of
    an n <= 6 register (n <= 8 with ``tables``), in any order, with a
    random pure input and subset. A part holds one or two qubits, not
    always adjacent; a two-qubit part may itself be a combine of one-qubit
    parts placed in reverse, any part a compose of two random Kraus lists
    (random Pauli tables with ``tables``) on its qubits, and the register
    may keep qubits no part names. Each part comes with its Kraus
    operators formed from the raw lists, the first list's index outermost."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8 if tables else 6))
    free = list(range(n))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if not free:
            break
        qubits = sorted(draw(st.sets(st.sampled_from(free), min_size=1, max_size=2)))
        free = [q for q in free if q not in qubits]
        k = len(qubits)
        if k == 2 and draw(st.booleans()):
            (one, first), (zero, second) = (_random_part(rng, 1, 2, tables) for _ in range(2))
            part = combine([(one, (1,)), (zero, (0,))])
            ops = [np.kron(k0, k1) for k1 in first for k0 in second]
        elif draw(st.booleans()):
            drawn = [_random_part(rng, k, draw(st.integers(1, 3)), tables) for _ in range(2)]
            (early, first), (late, second) = drawn
            part = compose(late, early)
            ops = [k2 @ k1 for k1 in first for k2 in second]
        else:
            part, ops = _random_part(rng, k, draw(st.integers(1, 3)), tables)
        parts.append((part, qubits, ops))
    psi = PureState(n, random_pure(rng, n))
    subset = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return parts, combine([(part, qubits) for part, qubits, _ in parts], n=n), psi, subset


@settings(max_examples=60, deadline=None, derandomize=True)
@given(placed_parts())
def test_stage_rows_match_the_dense_kraus_rows(case):
    """The branch rows contracted one stage at a time against the rows of
    the dense ``kraus`` operators, row by row and as the marginal on the
    subset, to 1e-12; ``kraus`` against the products of the parts'
    operators, formed from their raw Kraus lists and padded entry by entry,
    part 0's choice outermost."""
    _check_stage_rows(*case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(placed_parts(tables=True))
def test_table_stage_rows_match_the_dense_kraus_rows(case):
    """The same on Pauli tables: each is contracted as a gather of its
    strings' rows, and its ``kraus`` is one scatter of the product strings
    when the tables sit on disjoint positions."""
    _check_stage_rows(*case)


def _check_stage_rows(parts, channel, psi, subset):
    n = psi.n
    padded = [[padded_operator_oracle(k, qubits, n) for k in ops] for _, qubits, ops in parts]
    want_ops = [reduce(np.matmul, ops, np.eye(2**n)) for ops in product(*padded)]
    assert len(channel.kraus) == len(want_ops)
    assert max(np.abs(k - w).max() for k, w in zip(channel.kraus, want_ops)) < 1e-12
    rows = _noisy_output(channel, psi).rows
    dense = np.stack([k @ psi.amplitudes for k in channel.kraus])
    assert rows.shape == dense.shape
    assert np.abs(rows - dense).max() < 1e-12
    want = partial_trace_oracle(dense.T @ dense.conj(), n, subset)
    assert np.abs(pure_marginal(rows, n, subset).matrix - want).max() < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(placed_parts(tables=True))
def test_flip_law_reads_match_the_branch_rows(case):
    """Random Pauli tables placed by combine and compose on n <= 8 qubits
    read as their flip-pattern law on the default |+>^n: every leak, pair
    excess and environment information equals the branch-row read of the
    same channel on an explicit |+>^n to 1e-12, and the set excess equals
    it to the solver's tolerance."""
    _, channel, psi, subset = case
    plus = plus_all(psi.n)
    assert isinstance(_noisy_output(channel), measures._Law)
    assert isinstance(_noisy_output(channel, plus), measures._Rows)
    for read in (information_leak, environment_information):
        assert abs(read(channel, subset) - read(channel, subset, input_state=plus)) < 1e-12
    for a, b in combinations(subset, 2):
        want = excess_leak(channel, a, b, input_state=plus)
        assert abs(excess_leak(channel, a, b) - want) < 1e-12
    if 2 <= len(subset) <= MAX_SET_SIZE:
        want = excess_leak_set(channel, subset, input_state=plus).value
        assert abs(excess_leak_set(channel, subset).value - want) <= DEFAULT_TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(placed_parts(tables=True))
def test_pauli_law_is_bitwise_the_first_readers(case):
    """Random Pauli tables placed by combine and compose: the flip law
    equals the first reader's gathers byte for byte, and when the tables
    sit on disjoint positions with no string repeated inside a table, the
    twirl equals the first reader's product-string scatter byte for byte.
    A repeat is binned once per table here and once per product string
    there, so with repeats the two round apart, within 1e-15."""
    _, channel, psi, _ = case
    law = _pauli_law(channel.stages, range(psi.n), twirl=False)
    assert law.tobytes() == reference_flip_law(channel.stages, psi.n).tobytes()
    used = [q for _, pos in channel.stages for q in pos]
    distinct = all(len(set(zip(t["x"], t["z"]))) == len(t) for t, _ in channel.stages)
    if len(set(used)) == len(used):
        got, want = pauli_expansion(channel), reference_table_twirl(channel)
        assert got.tobytes() == want.tobytes() if distinct else np.abs(got - want).max() <= 1e-15


def test_flip_law_closed_forms_at_twelve_qubits():
    """On |+>^12 the leaks of dephasing (eps) and depolarizing (p) noise on
    every qubit, of a Z flip (eps) on all twelve and of synchronized Z
    bursts (p1, p2) are H2(eps/2), H2(2p/3), H2(eps) and H2(p1); the
    bursts' pair excess is 2 H2(p1) - H(1 - 2p1 + p2, p1 - p2, p1 - p2,
    p2), the flip's H2(eps) and a product channel's 0. The bursts' set
    excess on three qubits is the classical max-entropy defect of their
    three-bit law (1 - pi) delta_0 + pi h^|f| (1 - h)^(3 - |f|), found by
    iterative proportional fitting. Each channel is read as its law of
    4096 probabilities, so no read here comes near one 4096 x 4096
    operator (268 MB)."""
    eps, p, p1, p2 = 0.2, 0.1, 0.1, 0.02
    burst_pair = np.array([1 - 2 * p1 + p2, p1 - p2, p1 - p2, p2])
    cases = [
        (combine([(build_dephasing(eps), (q,)) for q in range(12)]), h2(eps / 2), 0.0),
        (combine([(build_depolarizing(p), (q,)) for q in range(12)]), h2(2 * p / 3), 0.0),
        (build_correlated_flip(eps, "Z" * 12), h2(eps), h2(eps)),
        (
            build_pairwise_correlated(12, p1, p2, "Z"),
            h2(p1),
            2 * h2(p1) + float(np.sum(burst_pair * np.log2(burst_pair))),
        ),
    ]
    tracemalloc.start()
    try:
        for channel, leak, excess in cases:
            for q in (0, 5, 11):
                assert abs(information_leak(channel, (q,)) - leak) < 1e-12
            assert abs(excess_leak(channel, 0, 11) - excess) < 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(cases[3][2] - 0.0073276) < 1e-7
    assert peak < 16 * 2**20
    h, pi = p2 / p1, p1 * p1 / p2
    flips = np.array([bin(f).count("1") for f in range(8)])
    law = pi * h**flips * (1 - h) ** (3 - flips)
    law[0] += 1 - pi
    want = ipf_max_entropy(law, 3, list(combinations(range(3), 2))) + float(law @ np.log2(law))
    bursts = cases[3][0]
    for subset in ((0, 1, 2), (3, 7, 11)):
        assert abs(excess_leak_set(bursts, subset).value - want) < 1e-9


def test_environment_information_matches_dilation(rng):
    """Complement-entropy route against the explicit dilation oracle."""
    channels = [
        embed(build_depolarizing(0.3), 2),
        embed(build_dephasing(0.5, qubit=1), 2),
        build_correlated_flip(0.2, "ZZ"),
        combine([(build_depolarizing(0.2), (0,)), (build_dephasing(0.4), (1,))], n=2),
    ]
    inputs = [plus_all(2), PureState(2, random_pure(rng, 2)), bell()]
    for ch in channels:
        for psi in inputs:
            for keep in ((0,), (1,), (0, 1)):
                got = environment_information(ch, keep, input_state=psi)
                want = env_mutual_info_oracle(ch.kraus, psi.amplitudes, 2, keep)
                assert abs(got - want) < 1e-9


def test_environment_information_holds_three_arrays_of_the_rows_size():
    """A read may hold three arrays the size of the branch rows, the kernel's
    size rule. S(out) on the whole register diagonalizes a Gram matrix as
    large as the rows when there are 2^n of them, so it is hermitized in
    place. With dephasing on each of 8 qubits (256 rows of 256) on an
    explicit |+>^8, which the rows read, the peak stays within 3.1 times
    the rows, and the value is 2 H2(eps/2)."""
    n = 8
    channel = combine([(build_dephasing(0.2), (q,)) for q in range(n)], n=n)
    rows_bytes = 2**n * 2**n * 16
    plus = plus_all(n)
    tracemalloc.start()
    try:
        value = environment_information(channel, (0,), input_state=plus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(value - 2 * h2(0.1)) < 1e-12
    assert peak <= 3.1 * rows_bytes


def test_mutual_information_values():
    assert abs(mutual_information(bell(), 0, 1) - 2.0) < 1e-12
    assert abs(mutual_information(plus_all(2), 0, 1)) < 1e-12
    g = ghz(3)
    assert abs(mutual_information(g, 0, 2) - 1.0) < 1e-12
    assert mutual_information(g, 0, 2) == mutual_information(g, 2, 0)
    with pytest.raises(ValueError):
        mutual_information(bell(), 1, 1)


@pytest.mark.parametrize(
    "measure",
    [lambda: mutual_information(bell(), 0, 0), lambda: assisted_mutual_information(bell(), 1, 1)],
)
def test_pair_measures_reject_a_repeated_qubit(measure):
    with pytest.raises(ValueError, match="duplicate qubits"):
        measure()


@pytest.mark.parametrize(
    "measure, position",
    [
        (lambda: information_leak(build_dephasing(0.2), [0.9]), "0.9"),
        (lambda: mutual_information(bell(), 0, 1.2), "1.2"),
    ],
)
def test_measures_refuse_non_integer_qubits(measure, position):
    with pytest.raises(ValueError, match=f"^qubit position {position} is not an integer$"):
        measure()


def test_excess_leak_correlated_flip():
    ch = build_correlated_flip(0.2, "ZZ")
    assert abs(excess_leak(ch, 0, 1) - h2(0.2)) < 1e-9
    # a fixed input state of the flip operator leaks nothing jointly
    assert abs(excess_leak(ch, 0, 1, input_state=bell()) - 2.0) < 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(product_noise(4))
@example([("depolarizing", 0.3), ("dephasing", 0.5)])
def test_excess_leak_vanishes_for_product_noise(noise):
    ch = product_channel(noise)
    for a in range(len(noise)):
        for b in range(a + 1, len(noise)):
            assert abs(excess_leak(ch, a, b)) < 1e-10


def test_pair_defect_equals_mutual_information(rng):
    for _ in range(10):
        rho = DensityMatrix(2, random_density(rng, 2))
        res = max_entropy_defect(rho, (0, 1))
        assert abs(res.value - mutual_information(rho, 0, 1)) < 1e-6
        assert res.diagnostics["residual"] < 1e-6


def test_set_defect_known_values():
    res = max_entropy_defect(ghz(3).density_matrix(), (0, 1, 2))
    assert abs(res.value - 1.0) < 1e-3
    sub = max_entropy_defect(ghz(4).density_matrix(), (0, 1, 2))
    assert abs(sub.value) < 1e-3
    assert res.constrained_entropy >= res.subset_entropy - 1e-9


def test_set_defect_validates_subset():
    flat = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError):
        max_entropy_defect(flat, (0,))
    big = DensityMatrix(5, np.eye(32, dtype=complex) / 32)
    with pytest.raises(SizeLimitError):
        max_entropy_defect(big, (0, 1, 2, 3, 4))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(product_noise(3))
@example([("depolarizing", 0.2), ("dephasing", 0.5), ("depolarizing", 0.1)])
def test_excess_leak_set_product_noise(noise):
    ch = product_channel(noise)
    subsets = [(0, 1), (1, 2), (0, 1, 2)] if len(noise) == 3 else [(0, 1)]
    for subset in subsets:
        assert abs(excess_leak_set(ch, subset).value) < 1e-6


def test_set_defect_is_stable_under_last_bit_noise():
    channel = BUILT_CHANNELS[5]
    out = apply(channel, plus_all(channel.n).density_matrix())
    base = max_entropy_defect(out, (0, 1, 2)).value
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        noisy = DensityMatrix(4, out.matrix + 0.5e-15 * (g + g.conj().T))
        assert abs(max_entropy_defect(noisy, (0, 1, 2)).value - base) <= 1e-6


@pytest.mark.parametrize("channel", BUILT_CHANNELS)
def test_excess_leak_set_matches_the_dense_output(channel):
    """The set excess reads the Kraus branch rows; the max-entropy defect of
    apply's padded dense output on the same default input is its oracle.
    One-qubit channels sit on qubit 1 of two; the subset is the register."""
    if channel.n < 2:
        channel = QuantumChannel(channel.kraus, qubits=(1,))
    subset = tuple(range(channel.qubits[-1] + 1))
    dense = apply(channel, plus_all(len(subset)).density_matrix())
    want = max_entropy_defect(dense, subset).value
    assert abs(excess_leak_set(channel, subset).value - want) < 1e-9


@pytest.mark.parametrize("pattern", ["ZZZ", "parity"])
def test_excess_leak_set_on_twelve_qubits_builds_no_dense_output(pattern):
    """Three-qubit noise on the last three of 12 qubits has the set excess it
    has on a 3-qubit register, and no 4096 x 4096 matrix (268 MB) is formed.
    A ZZZ flip leaves about 0 bits; the parity noise of the test below, 1."""
    if pattern == "ZZZ":
        noise = build_correlated_flip(0.2, "ZZZ")
    else:
        noise = compose(build_correlated_flip(0.5, "IZZ"), build_correlated_flip(0.5, "ZZI"))
    want = excess_leak_set(noise, (0, 1, 2)).value
    far = QuantumChannel(noise.kraus, qubits=(9, 10, 11))
    tracemalloc.start()
    try:
        got = excess_leak_set(far, (9, 10, 11)).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(got - want) < 1e-9
    assert peak < 16 * 2**20


def test_excess_leak_set_sees_parity_noise():
    """Even-weight phase flips are invisible pairwise but leak jointly.

    Composing ZZI and IZZ flips at probability one half puts a uniform
    distribution on {III, ZZI, IZZ, ZIZ}; every pair of qubits then sees
    maximally mixed flips while the triple retains one bit.
    """
    ch = compose(build_correlated_flip(0.5, "IZZ"), build_correlated_flip(0.5, "ZZI"))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert abs(excess_leak(ch, a, b)) < 1e-9
    res = excess_leak_set(ch, (0, 1, 2))
    assert abs(res.value - 1.0) < 1e-9


def test_assisted_never_below_plain(rng):
    for _ in range(5):
        rho = DensityMatrix(2, random_density(rng, 2))
        res = assisted_mutual_information(rho, 0, 1, restarts=2, sweeps=8)
        assert res.value >= mutual_information(rho, 0, 1) - 1e-9
        assert res.value >= res.floor - 1e-12


def test_assisted_on_pure_state_is_plain():
    res = assisted_mutual_information(bell(), 0, 1, restarts=1, sweeps=4)
    assert abs(res.value - 2.0) < 1e-10


def test_assisted_certifies_classical_correlation():
    mix = np.zeros((4, 4), dtype=complex)
    mix[0, 0] = mix[3, 3] = 0.5
    res = assisted_mutual_information(DensityMatrix(2, mix), 0, 1, restarts=4, sweeps=16)
    assert res.value >= 2.0 - 1e-9
    assert np.abs(res.decomposition.reconstruction() - mix).max() < 1e-8
    flat = assisted_mutual_information(DensityMatrix(2, np.eye(4) / 4), 0, 1, restarts=4, sweeps=16)
    assert flat.value >= 2.0 - 1e-9


@st.composite
def pair_states(draw):
    """(rank r, rho): rho = G G^dagger / tr for a 4 x r complex G, pure
    about half the time."""
    rank = draw(st.one_of(st.just(1), st.integers(2, 4)))
    parts = draw(
        arrays(np.float64, (2, 4, rank), elements=st.floats(-1, 1, allow_subnormal=False))
    )
    g = parts[0] + 1j * parts[1]
    mat = g @ g.conj().T
    trace = float(np.trace(mat).real)
    assume(trace > 1e-3)
    return rank, DensityMatrix(2, mat / trace)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(pair_states())
def test_assisted_lies_in_its_bracket(case):
    """I(A:B) <= assisted <= 2 min(S_A, S_B), with equality to 2 S_A when
    rho is pure (Smolin, Verstraete and Winter, PRA 72, 052317 (2005))."""
    rank, rho = case
    res = assisted_mutual_information(rho, 0, 1, restarts=1, sweeps=2)
    s_a = von_neumann_entropy(partial_trace(rho, (0,)))
    s_b = von_neumann_entropy(partial_trace(rho, (1,)))
    assert mutual_information(rho, 0, 1) - 1e-9 <= res.value <= 2.0 * min(s_a, s_b) + 1e-9
    if rank == 1:
        assert abs(res.value - 2.0 * s_a) < 1e-12


def test_assisted_is_local_unitary_invariant(rng):
    """Conjugating by local unitaries must not move the value."""
    base = np.zeros((4, 4), dtype=complex)
    base[0, 0] = base[3, 3] = 0.5
    states = [base]
    for _ in range(2):
        states.append(random_density(rng, 2, rank=2))
    for mat in states:
        ref = assisted_mutual_information(DensityMatrix(2, mat), 0, 1).value
        for _ in range(2):
            w = np.kron(haar(rng, 2), haar(rng, 2))
            rotated = DensityMatrix(2, w @ mat @ w.conj().T)
            got = assisted_mutual_information(rotated, 0, 1).value
            assert abs(got - ref) < 1e-6


def test_total_defect_ghz3():
    res = total_defect(ghz(3).density_matrix())
    # three pair terms of one bit plus the full-register term
    assert abs(res.value - 4.0) < 5e-3
    assert res.included_full
    assert abs(res.value_without_full - 3.0) < 1e-3
    assert set(res.terms) == {(0, 1), (0, 2), (1, 2), (0, 1, 2)}


def test_total_defect_product_state():
    res = total_defect(plus_all(3).density_matrix())
    assert abs(res.value) < 1e-6
    never = total_defect(bell().density_matrix(), include_full="never")
    assert abs(never.value) < 1e-9
    # no subset to solve, yet the path is named by the input, not the solves
    assert never.terms == {}
    assert never.diagnostics["method"] == "max_entropy"
    assert never.diagnostics["optimizer_iterations"] == 0
    assert total_defect(bell(), include_full="never").diagnostics == {"method": "stabilizer"}
    always = total_defect(bell().density_matrix(), include_full="always")
    assert abs(always.value - 2.0) < 1e-6


@pytest.mark.parametrize("include_full", [True, False, "sometimes"])
def test_total_defect_takes_one_include_full_spelling(include_full):
    with pytest.raises(ValueError, match="^include_full must be never/auto/always, got "):
        total_defect(ghz(3), include_full=include_full)


def test_total_defect_register_cap():
    """total_defect runs to the register cap of 12 qubits, above which no
    state can be built; a mixed input of any size fails the purity check."""
    big = DensityMatrix(9, np.eye(512, dtype=complex) / 512)
    with pytest.raises(ValueError, match="input must be pure"):
        total_defect(big)
    res = total_defect(ghz(12), 3)
    assert (res.value, res.diagnostics) == (66.0, {"method": "stabilizer"})
    with pytest.raises(SizeLimitError, match="register of 13 qubits exceeds the cap of 12"):
        ghz(13)


@pytest.mark.parametrize(
    "state",
    [*(random_circuit_state(n, 3, 1) for n in range(4, 9)), dicke_state(6, 3)],
    ids=[*(f"random-circuit-{n}" for n in range(4, 9)), "dicke-6-3"],
)
def test_pure_density_matrix_total_is_its_amplitudes_total(state, monkeypatch):
    """A pure DensityMatrix is read as its amplitudes, one column of the
    matrix: its total matches the PureState's without reducing the n-qubit
    matrix (the solves still reduce their own marginals densely)."""
    rho = state.density_matrix()
    dense = states.marginal_matrix

    def refuse_full(mat, n, keep):
        assert mat is not rho.matrix, "the input's dense matrix was reduced"
        return dense(mat, n, keep)

    monkeypatch.setattr(states, "marginal_matrix", refuse_full)
    got = total_defect(rho, 3)
    monkeypatch.undo()
    want = total_defect(PureState(state.n, state.amplitudes), 3)
    assert got.diagnostics["method"] == want.diagnostics["method"] == "max_entropy"
    assert got.terms.keys() == want.terms.keys()
    assert abs(got.value - want.value) <= DEFAULT_TOL
    mixed = DensityMatrix(state.n, 0.5 * rho.matrix + 0.5 * np.eye(rho.dim) / rho.dim)
    with pytest.raises(ValueError, match="input must be pure"):
        total_defect(mixed, 3)


@pytest.mark.parametrize("n", range(9, 13))
def test_ghz_totals_past_eight_qubits(n):
    """Every pair of ghz(n) holds one bit and no triple adds any, so the
    truncation-3 total is C(n, 2) exactly."""
    res = total_defect(ghz(n), 3)
    assert res.value == comb(n, 2)
    assert res.included_sizes == [2, 3]


def ring_edges(n: int) -> list:
    return line_edges(n) + [(0, n - 1)] if n > 2 else line_edges(n)


def assert_exact_within_solver_bound(state: PureState, truncation: int) -> None:
    """Every term of the stabilizer path is an integer, and the solver's
    value for the same state without generators, a certified upper bound,
    lies within [exact - 1e-12, exact + 1e-5]."""
    exact = total_defect(state, truncation)
    dense = total_defect(PureState(state.n, state.amplitudes), truncation)
    assert exact.diagnostics == {"method": "stabilizer"}
    assert dense.diagnostics["method"] == "max_entropy"
    assert exact.terms.keys() == dense.terms.keys()
    for subset, value in exact.terms.items():
        assert value == round(value)
        assert -1e-12 <= dense.terms[subset] - value <= 1e-5, subset
    assert -1e-12 <= dense.value - exact.value <= 1e-5 * len(exact.terms)


@pytest.mark.parametrize("truncation", [2, 3, 4])
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", [ghz, plus_all])
def test_stabilizer_totals_match_the_solver(family, n, truncation):
    assert_exact_within_solver_bound(family(n), truncation)


@pytest.mark.parametrize("truncation", [2, 3])
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("edges", [line_edges, ring_edges])
def test_cluster_totals_match_the_solver(edges, n, truncation):
    assert_exact_within_solver_bound(cluster_state(n, edges(n)), truncation)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    graph=st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)
        )
    ),
    truncation=st.integers(2, 4),
)
@example(graph=(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]), truncation=4)
def test_random_graph_totals_match_the_solver(graph, truncation):
    """total_defect and max_entropy_defect read one rule: every term of the
    total is max_entropy_defect's value on its subset, whose constrained
    and subset entropies agree with the solver's on the same amplitudes."""
    n, edges = graph
    state = cluster_state(n, edges)
    assert_exact_within_solver_bound(state, truncation)
    dense = PureState(n, state.amplitudes)
    for subset, value in total_defect(state, truncation).terms.items():
        exact, solved = max_entropy_defect(state, subset), max_entropy_defect(dense, subset)
        assert exact.value == value == exact.constrained_entropy - exact.subset_entropy
        assert -1e-12 <= solved.constrained_entropy - exact.constrained_entropy <= 1e-5, subset
        assert abs(solved.subset_entropy - exact.subset_entropy) <= 1e-9, subset


def test_stabilizer_totals_eliminate_each_group_once(monkeypatch):
    """total_defect(ghz(7), 3) eliminates the group of each of its 7
    singletons, 21 pairs and 35 triples once, not again inside every
    subset that holds it as a face (203 eliminations)."""
    outsides = []

    def counted(rows, outside):
        outsides.append(outside)
        return gf2_kernel(rows, outside)

    monkeypatch.setattr(measures, "gf2_kernel", counted)
    assert total_defect(ghz(7), 3).value == 21.0
    assert len(outsides) == len(set(outsides)) == comb(7, 1) + comb(7, 2) + comb(7, 3)


def test_stabilizer_defect_reads_no_density_matrix(monkeypatch):
    """The stabilizer path builds no rho, takes no partial trace and runs
    no solve; its subset entropy is |A| - dim S_A, the von Neumann entropy."""
    import entlab.measures as measures

    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    state = cluster_state(6, ring_edges(6))
    for name in ("partial_trace", "max_entropy_with_marginals"):
        monkeypatch.setattr(measures, name, refuse)
    monkeypatch.setattr(PureState, "density_matrix", refuse)
    res = total_defect(state, 4)
    assert res.value == 14.0
    subset_entropies = {
        subset: max_entropy_defect(state, subset).subset_entropy for subset in res.terms
    }
    monkeypatch.undo()
    for subset, value in subset_entropies.items():
        assert abs(value - entropy_of_subset(state, subset)) < 1e-9, subset


def test_set_quantities_refuse_other_inputs():
    """An input of neither state type raises TypeError, not an
    AttributeError from reading its register size."""
    for bad in (np.eye(4) / 4, [1.0, 0.0, 0.0, 0.0], None):
        with pytest.raises(TypeError):
            partial_trace(bad, (0,))
        with pytest.raises(TypeError):
            max_entropy_defect(bad, (0, 1))
        with pytest.raises(TypeError):
            total_defect(bad)


def test_stabilizer_defect_keeps_the_caps():
    res = total_defect(ghz(9))
    assert (res.value, res.diagnostics) == (36.0, {"method": "stabilizer"})
    with pytest.raises(SizeLimitError):
        max_entropy_defect(ghz(6), range(5))
    res = max_entropy_defect(ghz(5), (0, 1, 2))
    assert (res.value, res.constrained_entropy, res.subset_entropy) == (0.0, 1.0, 1.0)
    assert res.diagnostics == {"method": "stabilizer"}
