import itertools
import tracemalloc
import types

import numpy as np
import pytest

from selftest_lab.bitstrings import AdjacencyMatrix, BitString, adjacency_phase
from selftest_lab.bounds import (
    my_parallel_bound,
    my_parallel_recomputed_bound,
)
from selftest_lab.linalg import (
    PAULI_X,
    PAULI_Z,
    StateVector,
    graph_state,
    kron,
    ordered_power,
    qubit_layout,
    embed,
    walsh_hadamard,
)
from selftest_lab.isometry import (
    ISOMETRY_LIMIT,
    IsometryContext,
    KrausTables,
    apply_isometry,
    junk_state,
    party_observables,
    select_pairs,
    verify_bound,
)
from selftest_lab.protocols import epsilon_my, epsilon_spp, my_test_spec, spp_test_spec
from selftest_lab.strategies import (
    Measurement,
    NoiseSpec,
    Strategy,
    honest_my_strategy,
    honest_spp_strategy,
    perturb_strategy,
    product_basis_measurement,
    validate_strategy,
)

from test_protocols import deterministic_strategy


def six_step_image(
    xs: list[np.ndarray], zs: list[np.ndarray], psi: np.ndarray
) -> np.ndarray:
    """Oracle: the six steps on full-system operators, returns (sys, S, U)."""
    n = len(xs)
    big = 2**n
    dsys = psi.shape[0]
    amps = np.zeros((dsys, big, big), dtype=complex)
    scale = 2.0 ** (-n / 2)
    idx = np.arange(big)
    amps[:, idx, idx] = psi[:, None] * scale

    def controlled(ops):
        # Control on U qubit k: act on the amplitudes whose k-th U bit is 1.
        for k in range(n, 0, -1):
            hot = (idx >> (n - k)) & 1 == 1
            amps[:, :, hot] = np.tensordot(ops[k - 1], amps[:, :, hot], axes=(1, 0))

    hadamard = walsh_hadamard(n)
    controlled(xs)
    amps = amps @ hadamard
    controlled(zs)
    amps = amps @ hadamard
    controlled(xs)
    return amps


def xz_observables(s: Strategy, flavor: str) -> tuple[list, list]:
    """Full-system X_k and Z_k observables for k = 1..2m.

    Indices 1..m act on Alice's factor, m+1..2m on Bob's.
    """
    (xa, za), (xb, zb) = party_observables(s, flavor)
    eye_a, eye_b = np.eye(s.dim_a), np.eye(s.dim_b)
    return tuple(
        [np.kron(op, eye_b) for op in ops_a] + [np.kron(eye_a, op) for op in ops_b]
        for ops_a, ops_b in ((xa, xb), (za, zb))
    )


def apply_string(ops: list[np.ndarray], bits: BitString, vec: np.ndarray) -> np.ndarray:
    """Apply the ordered operator string to a vector (highest index first)."""
    out = vec
    for k in range(bits.n, 0, -1):
        if bits.bit(k):
            out = ops[k - 1] @ out
    return out


def junk_matrix(zs: list[np.ndarray], psi: np.ndarray) -> np.ndarray:
    """Oracle: the residual state as a (system, S) matrix, from full-system Z_k.

    The Walsh-Hadamard sum of Z^t psi over all t, times the half-swap phase.
    """
    n = len(zs)
    cols = np.empty((psi.shape[0], 2**n), dtype=complex)
    for t in BitString.all_strings(n):
        cols[:, t.value] = apply_string(zs, t, psi)
    adj = AdjacencyMatrix.half_swap(n)
    signs = np.array([-1.0 if adjacency_phase(sb, adj) else 1.0
                      for sb in BitString.all_strings(n)])
    return (cols @ walsh_hadamard(n)) * signs[None, :] * 2.0 ** (-n / 2)


def ideal_pair_state(n: int) -> StateVector:
    """Graph state of n/2 isolated edges on the U block."""
    return graph_state(AdjacencyMatrix.half_swap(n))


def pauli_string_state(p: BitString, q: BitString, base: np.ndarray) -> np.ndarray:
    """X^q Z^p applied to a computational-basis-indexed amplitude vector."""
    n = p.n
    if q.n != n or base.shape != (2**n,):
        raise ValueError("p, q and the base state must share one qubit count")
    v = np.arange(2**n)
    signs = (-1.0) ** np.bitwise_count(v & p.value)
    out = np.empty_like(base)
    out[v ^ q.value] = signs * base
    return out


def six_step_distance(s, flavor, p, q) -> float:
    """Oracle: the distance from the six-step image of X^q Z^p psi."""
    xs, zs = xz_observables(s, flavor)
    vec = apply_string(xs, q, apply_string(zs, p, s.state.amps))
    junk = junk_matrix(zs, s.state.amps)
    ideal = pauli_string_state(p, q, ideal_pair_state(p.n).amps)
    target = junk[:, :, None] * ideal[None, None, :]
    return float(np.linalg.norm(six_step_image(xs, zs, vec) - target))


def raw_image(s: Strategy, flavor: str, vec: np.ndarray) -> np.ndarray:
    """The isometry's image of any system vector, unnormalized, flattened."""
    tables = KrausTables(*party_observables(s, flavor))
    return tables.image(vec.reshape(s.dim_a, s.dim_b)).reshape(-1)


def classical_diagonal_strategy():
    """All questions measured in the computational basis on |00>.

    The X-Z cross correlation looks perfect while everything else is far
    off: a sanity adversary with a large measured epsilon.
    """
    amps = np.zeros(4)
    amps[0] = 1.0
    state = StateVector(amps, (("A", 2), ("B", 2)))
    table = {kind: product_basis_measurement("Z") for kind in ("X", "Z", "D")}
    return Strategy(state=state, alice=dict(table), bob=dict(table), m=1)


class TestPlanAndExtraction:
    def test_plan_dimensions(self):
        # n = 2m ancilla pairs: S and U hold 2^n dimensions each.
        s = with_junk(honest_spp_strategy(2), seed=1)
        out = apply_isometry(s, s.state, "spp")
        assert out.layout == (("system", 96), ("S", 16), ("U", 16))

    def test_flavor_without_its_questions(self):
        with pytest.raises(KeyError):
            IsometryContext(deterministic_strategy({"D": 1}, {"D": 1}), "my")

    def test_xz_observables_split_parties(self):
        s = honest_my_strategy(1)
        xs, zs = xz_observables(s, "my")
        assert np.allclose(xs[0], np.kron(PAULI_X, np.eye(2)))
        assert np.allclose(xs[1], np.kron(np.eye(2), PAULI_X))
        assert np.allclose(zs[1], np.kron(np.eye(2), PAULI_Z))


class TestApplyIsometry:
    def test_norm_preserved_on_random_inputs(self):
        s = honest_my_strategy(1)
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            out = apply_isometry(s, StateVector(v, (("sys", 4),)), "my")
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

    def test_linearity_on_raw_vectors(self):
        s = honest_my_strategy(1)
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            a, b = complex(rng.standard_normal(), 1.0), complex(0.5, -0.25)
            lhs = raw_image(s, "my", a * v + b * w)
            rhs = a * raw_image(s, "my", v) + b * raw_image(s, "my", w)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_output_layout(self):
        s = honest_my_strategy(1)
        out = apply_isometry(s, s.state, "my")
        assert out.layout == (("system", 4), ("S", 4), ("U", 4))

    def test_dimension_mismatch(self):
        s = honest_my_strategy(1)
        with pytest.raises(ValueError):
            apply_isometry(s, StateVector(np.eye(8)[0], (("sys", 8),)), "my")


class TestJunkState:
    def test_honest_norm_exact(self):
        for m in (1, 2):
            junk = junk_state(honest_my_strategy(m), "my")
            assert abs(np.linalg.norm(junk.amps) - 1.0) < 1e-12

    def test_noisy_norm_within_budget(self):
        s = perturb_strategy(honest_my_strategy(1), NoiseSpec(theta=0.05), seed=2)
        junk = junk_state(s, "my")
        assert abs(np.linalg.norm(junk.amps) - 1.0) < 1e-9

    def test_factorization_for_honest(self):
        # Zero-noise exactness over all 16 (p, q) pairs at one e-bit.
        s = honest_my_strategy(1)
        ctx = IsometryContext(s, "my")
        for p, q in itertools.product(BitString.all_strings(2), repeat=2):
            assert ctx.distance(p.value, q.value) < 1e-9

    def test_enumeration_guard(self):
        assert ISOMETRY_LIMIT == 8
        with pytest.raises(ValueError, match=r"m <= 4\)"):
            junk_state(honest_my_strategy(5), "my")


class TestObservablesReadOnce:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("flavor", ["my", "spp"])
    def test_context_reads_each_kind_once(self, flavor, m, monkeypatch):
        # X and Z kinds of each party: 4 reads, each forming all m observables.
        s = oracle_case_strategy(flavor, m, False)
        reads = []
        form = Measurement.observables.fget

        def counted(meas):
            reads.append(meas)
            return form(meas)

        monkeypatch.setattr(Measurement, "observables", property(counted))
        IsometryContext(s, flavor)
        assert len(reads) == 4


class TestPauliStringState:
    def test_matches_ordered_power_oracle(self):
        # Independent oracle: embed single-qubit Paulis and use the ordered
        # operator-string product on the ideal state.
        n = 4
        psi = ideal_pair_state(n)
        layout = qubit_layout(n)
        xs = [embed(PAULI_X, layout, sites=(k,)) for k in range(1, n + 1)]
        zs = [embed(PAULI_Z, layout, sites=(k,)) for k in range(1, n + 1)]
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = BitString.from_index(int(rng.integers(0, 2**n)), n)
            q = BitString.from_index(int(rng.integers(0, 2**n)), n)
            direct = pauli_string_state(p, q, psi.amps)
            oracle = ordered_power(xs, q) @ (ordered_power(zs, p) @ psi.amps)
            assert np.allclose(direct, oracle, atol=1e-12)


class TestSelftestDistance:
    def test_honest_zero_noise(self):
        s = honest_my_strategy(1)
        assert IsometryContext(s, "my").distance(0, 0) < 1e-9

    def test_zero_strings_reduce_to_plain_comparison(self):
        s = honest_my_strategy(1)
        image = apply_isometry(s, s.state, "my")
        junk = junk_state(s, "my").amps.reshape(4, 4)
        target = (junk[:, :, None] * ideal_pair_state(2).amps[None, None, :]).reshape(-1)
        direct = float(np.linalg.norm(image.amps - target))
        assert IsometryContext(s, "my").distance(0, 0) == pytest.approx(direct, abs=1e-12)

    def test_noisy_distance_below_bounds(self):
        eps_and_strategies = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            spec = NoiseSpec(theta=float(rng.uniform(0, 0.03)), w=float(rng.uniform(0, 0.01)))
            s = perturb_strategy(honest_my_strategy(1), spec, seed=seed)
            eps_and_strategies.append((epsilon_my(s).eps, s))
        for eps, s in eps_and_strategies:
            ctx = IsometryContext(s, "my")
            for p, q in itertools.product(BitString.all_strings(2), repeat=2):
                bound = max(
                    my_parallel_bound(2, sum(p.bits), eps),
                    my_parallel_recomputed_bound(2, sum(p.bits), eps),
                )
                assert ctx.distance(p.value, q.value) <= bound + 1e-9

    def test_wrong_register_order_is_loud(self):
        # Swapping the roles of the two ancilla blocks must give a visibly
        # wrong distance for the honest strategy.
        s = honest_my_strategy(1)
        image = apply_isometry(s, s.state, "my").amps.reshape(4, 4, 4)
        junk = junk_state(s, "my").amps.reshape(4, 4)
        ideal = ideal_pair_state(2).amps
        swapped_target = junk[:, None, :] * ideal[None, :, None]
        dist = float(np.linalg.norm(image - swapped_target))
        assert dist > 0.5

    def test_length_mismatch(self):
        # n = 2: p and q are 2-bit strings, the ints 0..3.
        ctx = IsometryContext(honest_my_strategy(1), "my")
        for p, q in ((4, 0), (0, 4), (-1, 0)):
            with pytest.raises(ValueError, match=r"must be in \[0, 2\^2\)"):
                ctx.distance(p, q)


class TestSelectPairs:
    def test_exhaustive_when_small(self):
        assert len(select_pairs(2, "auto")) == 16
        assert len(select_pairs(4, "auto")) == 256

    def test_sample_when_large(self):
        pairs = select_pairs(6, "auto", seed=1)
        assert len(pairs) == 64

    @pytest.mark.parametrize("policy", ["sample", "auto"])
    def test_sample_never_lists_every_pair(self, monkeypatch, policy):
        def unreachable(*args, **kwargs):
            raise AssertionError("all 4^n pairs listed")

        monkeypatch.setattr("selftest_lab.isometry.itertools",
                            types.SimpleNamespace(product=unreachable))
        # However they are listed, the 4^8 = 65536 pairs of n = 8 take
        # megabytes; five sampled pairs take a few kilobytes, once numpy's
        # first-use setup of a generator is done.
        select_pairs(8, policy, seed=3, sample_count=5)
        tracemalloc.start()
        try:
            pairs = select_pairs(8, policy, seed=3, sample_count=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == 5
        assert peak <= 256 * 1024

    def test_pairs_are_big_endian_ints(self):
        assert select_pairs(2, "exhaustive") == [(p, q) for p in range(4) for q in range(4)]
        rng = np.random.default_rng(5)
        draws = [int(rng.integers(0, 16)) for _ in range(20)]
        assert select_pairs(4, "sample", seed=5, sample_count=10) == list(zip(draws[::2], draws[1::2]))

    def test_sample_deterministic(self):
        a = select_pairs(4, "sample", seed=5, sample_count=10)
        b = select_pairs(4, "sample", seed=5, sample_count=10)
        assert a == b

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            select_pairs(2, "most")

    def test_unknown_policy_refused_before_the_context(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("context built before the pair policy was checked")

        monkeypatch.setattr("selftest_lab.isometry.IsometryContext", unreachable)
        s = honest_my_strategy(1)
        with pytest.raises(ValueError, match="unknown pair policy 'most'"):
            verify_bound(s, my_test_spec(1), pairs="most", eps=0.1)


class TestVerifyBound:
    def test_honest_my_all_pass(self):
        s = honest_my_strategy(1)
        reports = verify_bound(s, my_test_spec(1), eps=epsilon_my(s).eps)
        assert len(reports) == 16
        assert all(r.passed for r in reports)
        assert max(r.distance for r in reports) < 1e-9

    def test_honest_spp_all_pass(self):
        s = honest_spp_strategy(1)
        reports = verify_bound(s, spp_test_spec(1), eps=epsilon_spp(s).eps)
        assert all(r.passed for r in reports)
        assert set(reports[0].bounds) == {"spp", "spp-recomputed"}

    def test_noisy_strategies_pass(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            s = perturb_strategy(
                honest_my_strategy(1),
                NoiseSpec(theta=float(rng.uniform(0, 0.05)), w=float(rng.uniform(0, 0.02))),
                seed=seed,
            )
            reports = verify_bound(s, my_test_spec(1), eps=epsilon_my(s).eps)
            assert all(r.passed for r in reports)

    def test_adversarial_classical_strategy(self):
        s = classical_diagonal_strategy()
        rep = epsilon_my(s)
        # The X-Z correlation matches the ideal while the rest are far off.
        by_pair = {(e.alice, e.bob): e for e in rep.entries}
        assert by_pair[("X", "Z")].measured == pytest.approx(1.0)
        assert rep.eps == pytest.approx(1.0)
        reports = verify_bound(s, my_test_spec(1), eps=rep.eps)
        assert all(r.passed for r in reports)  # bounds are enormous
        assert all(d["vacuous"]["my-parallel"] for d in (r.to_dict() for r in reports))

    def test_three_pairs_sampled_zero_noise(self):
        # Largest guarded size: n=6 ancilla indices, sampled (p, q) pairs.
        s = honest_my_strategy(3)
        ctx = IsometryContext(s, "my")
        rng = np.random.default_rng(1)
        for _ in range(4):
            p, q = int(rng.integers(0, 64)), int(rng.integers(0, 64))
            assert ctx.distance(p, q) < 1e-9


def random_reflection(rng, dim, signs=None):
    """Random Hermitian unitary: a unitary change of basis of a sign matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    if signs is None:
        signs = rng.choice([-1.0, 1.0], size=dim)
    return q @ np.diag(signs) @ q.conj().T


class TestAgainstClosedFormImage:
    def test_procedural_steps_match_triple_sum(self):
        # Independent oracle: the Kraus-table image equals the six-step image
        #   2^(-3n/2) sum_{s,t,u} (-1)^(t.(s^u)) X^u Z^t X^s v |s>|u>
        # for Hermitian unitary families that do not commute within a party.
        rng = np.random.default_rng(23)
        m, dims = 2, (3, 4)
        parties = [
            tuple(
                [random_reflection(rng, d, signs=[1.0, -1.0] + [1.0] * (d - 2))
                 for _ in range(m)]
                for _ in "xz"
            )
            for d in dims
        ]
        for xs, zs in parties:
            for a, b in ((xs[0], xs[1]), (zs[0], zs[1]), (xs[0], zs[1])):
                assert not np.allclose(a @ b, b @ a)
        eye_a, eye_b = (np.eye(d) for d in dims)
        (xa, za), (xb, zb) = parties
        xs = [np.kron(x, eye_b) for x in xa] + [np.kron(eye_a, x) for x in xb]
        zs = [np.kron(z, eye_b) for z in za] + [np.kron(eye_a, z) for z in zb]
        dim, n = dims[0] * dims[1], 2 * m
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        big = 2**n
        got = KrausTables(*parties).image(v.reshape(dims)).reshape(dim, big, big)
        expected = np.zeros((dim, big, big), dtype=complex)
        for s in BitString.all_strings(n):
            for t in BitString.all_strings(n):
                for u in BitString.all_strings(n):
                    phase = (-1.0) ** ((t.value & (s.value ^ u.value)).bit_count())
                    vec = apply_string(xs, s, v)
                    vec = apply_string(zs, t, vec)
                    vec = apply_string(xs, u, vec)
                    expected[:, s.value, u.value] += phase * vec
        expected /= 2.0 ** (3 * n / 2)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(six_step_image(xs, zs, v), expected, atol=1e-12)

    def test_residual_normalization_without_commutation(self):
        # The residual state has unit norm for any Hermitian unitary family,
        # commuting or not, and the party tables give the oracle's residual.
        rng = np.random.default_rng(5)
        for m, dims in ((1, (2, 2)), (2, (3, 4))):
            parties = [
                tuple([random_reflection(rng, d) for _ in range(m)] for _ in "xz")
                for d in dims
            ]
            v = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            v /= np.linalg.norm(v)
            junk = KrausTables(*parties).junk(v)
            assert abs(np.linalg.norm(junk) - 1.0) < 1e-12
            eye_a, eye_b = (np.eye(d) for d in dims)
            zs = [np.kron(z, eye_b) for z in parties[0][1]]
            zs += [np.kron(eye_a, z) for z in parties[1][1]]
            expected = junk_matrix(zs, v.reshape(-1)).reshape(*dims, 2**m, 2**m)
            got = junk.reshape(2**m, dims[0], 2**m, dims[1]).transpose(1, 3, 0, 2)
            assert np.allclose(got, expected, atol=1e-12)


ORACLE_CASES = [
    (flavor, m, noisy)
    for flavor in ("my", "spp")
    for m in (1, 2)
    for noisy in (False, True)
]


# m = 3: honest, noisy, and noisy with a junk state (d_A != d_B).
M3_CASES = [(flavor, kind) for flavor in ("my", "spp") for kind in ("honest", "noisy", "junk")]


def oracle_case_strategy(flavor, m, noisy):
    build = {"my": honest_my_strategy, "spp": honest_spp_strategy}[flavor]
    s = build(m)
    if noisy:
        s = perturb_strategy(s, NoiseSpec(theta=0.03, w=0.01), seed=4)
    return s


class TestAgainstSixStepOracle:
    @pytest.mark.parametrize("flavor,m,noisy", ORACLE_CASES)
    def test_distance_over_all_pairs(self, flavor, m, noisy):
        s = oracle_case_strategy(flavor, m, noisy)
        ctx = IsometryContext(s, flavor)
        for p, q in itertools.product(BitString.all_strings(2 * m), repeat=2):
            assert abs(ctx.distance(p.value, q.value) - six_step_distance(s, flavor, p, q)) <= 1e-12

    @pytest.mark.parametrize("flavor,kind", M3_CASES)
    def test_distance_on_sampled_m3_pairs(self, flavor, kind):
        # The junk-carrying strategy has party dimensions (24, 16), a system
        # of 384 dimensions for the oracle, so it gets one pair.
        s = oracle_case_strategy(flavor, 3, kind != "honest")
        if kind == "junk":
            s = with_junk(s, seed=3)
        ctx = IsometryContext(s, flavor)
        pairs = select_pairs(6, "sample", seed=5, sample_count=1 if kind == "junk" else 3)
        for p, q in pairs:
            oracle = six_step_distance(s, flavor, *(BitString.from_index(x, 6) for x in (p, q)))
            assert abs(ctx.distance(p, q) - oracle) <= 1e-12

    @pytest.mark.parametrize("flavor,m,noisy", ORACLE_CASES)
    def test_apply_isometry_elementwise(self, flavor, m, noisy):
        s = oracle_case_strategy(flavor, m, noisy)
        xs, zs = xz_observables(s, flavor)
        rng = np.random.default_rng(m)
        dim = s.dim_a * s.dim_b
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for vec in (s.state.amps, v):
            got = raw_image(s, flavor, vec)
            expected = six_step_image(xs, zs, vec).reshape(-1)
            assert np.max(np.abs(got - expected)) <= 1e-12


class TestSizeLimit:
    def test_context_refuses_before_building(self, monkeypatch):
        s = honest_my_strategy(5)
        monkeypatch.setattr(
            "selftest_lab.isometry.KrausTables",
            lambda *a: pytest.fail("tables built past the size limit"),
        )
        with pytest.raises(ValueError, match="n=10"):
            IsometryContext(s, "my")
        with pytest.raises(ValueError, match="n=10"):
            apply_isometry(s, s.state, "my")

    def test_largest_size_runs(self):
        s = honest_my_strategy(ISOMETRY_LIMIT // 2)
        ctx = IsometryContext(s, "my")
        n = ctx.n
        assert ctx.distance(0, 2**n - 1) < 1e-9


def haar_unitary(rng, dim):
    """Haar-random unitary: QR of a complex Gaussian, phases of R divided out."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_junk(s: Strategy, seed: int, junk_dims=(3, 2)) -> Strategy:
    """s tensored with a random junk state, then seeded Haar local unitaries.

    Party dimensions become (d_A * 3, d_B * 2): neither equal nor 2^m.
    """
    rng = np.random.default_rng(seed)
    junk = rng.standard_normal(junk_dims) + 1j * rng.standard_normal(junk_dims)
    junk /= np.linalg.norm(junk)
    dims = (s.dim_a * junk_dims[0], s.dim_b * junk_dims[1])
    ua, ub = haar_unitary(rng, dims[0]), haar_unitary(rng, dims[1])
    psi = ua @ np.kron(s.state.reshaped(), junk) @ ub.T

    def rotated(table, u, junk_dim):
        eye = np.eye(junk_dim)
        return {
            kind: Measurement({a: u @ np.kron(p, eye) @ u.conj().T for a, p in meas})
            for kind, meas in table.items()
        }

    return Strategy(
        state=StateVector(psi.reshape(-1), (("A", dims[0]), ("B", dims[1]))),
        alice=rotated(s.alice, ua, junk_dims[0]),
        bob=rotated(s.bob, ub, junk_dims[1]),
        m=s.m,
    )


class TestStrategyWithJunk:
    @pytest.mark.parametrize("flavor,m,noisy", ORACLE_CASES)
    def test_distance_over_all_pairs(self, flavor, m, noisy):
        s = with_junk(oracle_case_strategy(flavor, m, noisy), seed=10 * m + noisy)
        assert (s.dim_a, s.dim_b) == (3 * 2**m, 2 * 2**m)
        assert all(c.passed for c in validate_strategy(s))
        ctx = IsometryContext(s, flavor)
        for p, q in itertools.product(BitString.all_strings(2 * m), repeat=2):
            expected = six_step_distance(s, flavor, p, q)
            assert abs(ctx.distance(p.value, q.value) - expected) <= 1e-12
            if not noisy:
                assert expected < 1e-9


class TestZeroNoiseDistance:
    @pytest.mark.parametrize("flavor", ["my", "spp"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_pair(self, flavor, m):
        # The factored off-diagonal residual keeps these near 1e-16; taken as
        # ||image||^2 - ||target blocks||^2 instead, it reads 1.5e-8 at m = 3.
        ctx = IsometryContext(oracle_case_strategy(flavor, m, False), flavor)
        pairs = select_pairs(2 * m, "exhaustive")
        assert max(ctx.distance(p, q) for p, q in pairs) < 1e-12


class TestDistanceMemory:
    def test_target_buffer_at_m3(self):
        # The 2^m target blocks of 64 x 64 entries: 512 KB.
        ctx = IsometryContext(honest_my_strategy(3), "my")
        assert ctx._buf.nbytes <= 512 * 1024

    def test_peak_of_one_call_at_m3(self):
        s = perturb_strategy(honest_my_strategy(3), NoiseSpec(theta=0.03, w=0.01), seed=1)
        ctx = IsometryContext(s, "my")
        tracemalloc.start()
        try:
            ctx.distance(45, 27)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20

    def test_peak_of_the_build_at_m4(self):
        # 22.3 MB held (the 16 MB target buffer and the tables); the build
        # writes the tables in place, with no concatenated or negated copies.
        s = honest_my_strategy(4)
        tracemalloc.start()
        try:
            IsometryContext(s, "my")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 27 * 2**20
