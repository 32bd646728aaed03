import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest

from selftest_lab.bitstrings import half_swap_phase
from selftest_lab.bounds import (
    VACUOUS_THRESHOLD,
    my_parallel_bound,
    my_parallel_recomputed_bound,
)
from selftest_lab.linalg import (
    PAULI_X,
    PAULI_Z,
    kron,
    ordered_power,
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


def apply_string(ops: list[np.ndarray], bits: int, vec: np.ndarray) -> np.ndarray:
    """Apply the ordered operator string ops^bits to a vector (highest index first)."""
    n = len(ops)
    out = vec
    for k in range(n, 0, -1):
        if bits >> (n - k) & 1:
            out = ops[k - 1] @ out
    return out


def junk_matrix(zs: list[np.ndarray], psi: np.ndarray) -> np.ndarray:
    """Oracle: the residual state as a (system, S) matrix, from full-system Z_k.

    The Walsh-Hadamard sum of Z^t psi over all t, times the half-swap phase.
    """
    n = len(zs)
    cols = np.empty((psi.shape[0], 2**n), dtype=complex)
    for t in range(2**n):
        cols[:, t] = apply_string(zs, t, psi)
    signs = np.array([-1.0 if half_swap_phase(sb, n) else 1.0 for sb in range(2**n)])
    return (cols @ walsh_hadamard(n)) * signs[None, :] * 2.0 ** (-n / 2)


def ideal_pair_state(n: int) -> np.ndarray:
    """Graph state of n/2 isolated edges on the U block, amplitude by amplitude."""
    scale = 2.0 ** (-n / 2)
    return np.array([-scale if half_swap_phase(u, n) else scale for u in range(2**n)],
                    dtype=complex)


def pauli_string_state(p: int, q: int, base: np.ndarray) -> np.ndarray:
    """X^q Z^p applied to a computational-basis-indexed amplitude vector."""
    v = np.arange(base.shape[0])
    signs = (-1.0) ** np.bitwise_count(v & p)
    out = np.empty_like(base)
    out[v ^ q] = signs * base
    return out


def six_step_distance(s, flavor, p, q) -> float:
    """Oracle: the distance from the six-step image of X^q Z^p psi."""
    xs, zs = xz_observables(s, flavor)
    psi = s.state.reshape(-1)
    vec = apply_string(xs, q, apply_string(zs, p, psi))
    junk = junk_matrix(zs, psi)
    ideal = pauli_string_state(p, q, ideal_pair_state(len(zs)))
    target = junk[:, :, None] * ideal[None, None, :]
    return float(np.linalg.norm(six_step_image(xs, zs, vec) - target))


def raw_image(s: Strategy, flavor: str, vec: np.ndarray) -> np.ndarray:
    """The isometry's image of any system vector, unnormalized, flattened."""
    tables = KrausTables(*party_observables(s, flavor))
    return tables.image(vec.reshape(s.dim_a, s.dim_b)).reshape(-1)


class BlockFormContext:
    """Oracle: the distance from the 2^m target blocks of the rotated image.

    Each call forms R_t psi' C_u(t) for every row block t, subtracts the
    signed junk, and adds the off-diagonal part || F_t psi' L_u ||^2 from QR
    factors of whole blocks.  It checks the projected form at sizes the
    six-step oracle cannot reach; at m = 4 a call takes milliseconds.
    """

    def __init__(self, s: Strategy, flavor: str):
        tables = KrausTables(*party_observables(s, flavor))
        half, (d_a, d_b) = 2**s.m, tables.dims
        psi = s.state
        self._junk = tables.junk(psi)
        self._pauli_a = tables.x_a[:, None] @ tables.z_a[None]
        self._psi_b = psi @ (tables.x_b[:, None] @ tables.z_b[None]).swapaxes(2, 3)
        rows = tables.rows_a.reshape(half, -1, d_a) * 2.0**-s.m
        cols = tables.hadamard @ tables.cols_b.reshape(d_b, half, -1)
        cols = np.ascontiguousarray(cols.transpose(1, 0, 2))  # C_u by u
        bits = np.arange(half)
        blocks = np.linalg.qr(cols.conj().swapaxes(1, 2), mode="r")
        others = blocks[bits[:, None] ^ bits[1:]].reshape(half, -1, d_b)
        self._rows, self._cols = rows, cols
        self._f = np.linalg.qr(rows, mode="r")
        self._l = np.linalg.qr(others, mode="r").conj().swapaxes(1, 2)

    def distance(self, p: int, q: int) -> float:
        half = len(self._rows)
        (pa, pb), (qa, qb) = divmod(p, half), divmod(q, half)
        psi = self._pauli_a[qa, pa] @ self._psi_b[qb, pb]
        t = np.arange(half)
        u = t ^ qa ^ pb
        signs = (-1.0) ** (np.bitwise_count(pa & pb) + np.bitwise_count(u & (pa ^ qb)))
        blocks = self._rows @ psi @ self._cols[u] - signs[:, None, None] * self._junk
        off = self._f @ psi @ self._l[u]
        total = sum(np.vdot(x, x).real for x in (*blocks, *off))
        return math.sqrt(total / half)


def classical_diagonal_strategy():
    """All questions measured in the computational basis on |00>.

    The X-Z cross correlation looks perfect while everything else is far
    off: a sanity adversary with a large measured epsilon.
    """
    state = np.zeros((2, 2))
    state[0, 0] = 1.0
    table = {kind: product_basis_measurement("Z") for kind in ("X", "Z", "D")}
    return Strategy(state=state, alice=dict(table), bob=dict(table), m=1)


class TestPlanAndExtraction:
    def test_plan_dimensions(self):
        # n = 2m ancilla pairs: S and U hold 2^n dimensions each.
        s = with_junk(honest_spp_strategy(2), seed=1)
        out = apply_isometry(s, s.state, "spp")
        assert out.shape == (96, 16, 16)

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
            out = apply_isometry(s, v.reshape(2, 2), "my")
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

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
        assert out.shape == (4, 4, 4)

    def test_image_norm_checked(self):
        # The isometry keeps norms, so a non-unit input gives a rejected image.
        s = honest_my_strategy(1)
        with pytest.raises(ValueError, match=r"^image norm 2\.0\d* deviates from 1 beyond atol=1e-12$"):
            apply_isometry(s, 2 * s.state, "my")

    def test_dimension_mismatch(self):
        s = honest_my_strategy(1)
        with pytest.raises(ValueError, match=r"input shape \(8,\) != system shape \(2, 2\)"):
            apply_isometry(s, np.eye(8)[0], "my")


class TestJunkState:
    def test_honest_norm_exact(self):
        for m in (1, 2):
            junk = junk_state(honest_my_strategy(m), "my")
            assert junk.shape == (4**m, 4**m)
            assert abs(np.linalg.norm(junk) - 1.0) < 1e-12

    def test_noisy_norm_within_budget(self):
        s = perturb_strategy(honest_my_strategy(1), NoiseSpec(theta=0.05), seed=2)
        junk = junk_state(s, "my")
        assert abs(np.linalg.norm(junk) - 1.0) < 1e-9

    def test_factorization_for_honest(self):
        # Zero-noise exactness over all 16 (p, q) pairs at one e-bit.
        s = honest_my_strategy(1)
        ctx = IsometryContext(s, "my")
        for p, q in itertools.product(range(2**2), repeat=2):
            assert ctx.distance(p, q) < 1e-9

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
        xs = [embed(PAULI_X, n, sites=(k,)) for k in range(1, n + 1)]
        zs = [embed(PAULI_Z, n, sites=(k,)) for k in range(1, n + 1)]
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = int(rng.integers(0, 2**n))
            q = int(rng.integers(0, 2**n))
            direct = pauli_string_state(p, q, psi)
            oracle = ordered_power(xs, q) @ (ordered_power(zs, p) @ psi)
            assert np.allclose(direct, oracle, atol=1e-12)


class TestSelftestDistance:
    def test_honest_zero_noise(self):
        s = honest_my_strategy(1)
        assert IsometryContext(s, "my").distance(0, 0) < 1e-9

    def test_zero_strings_reduce_to_plain_comparison(self):
        s = honest_my_strategy(1)
        image = apply_isometry(s, s.state, "my")
        junk = junk_state(s, "my")
        target = junk[:, :, None] * ideal_pair_state(2)[None, None, :]
        direct = float(np.linalg.norm(image - target))
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
            for p, q in itertools.product(range(2**2), repeat=2):
                bound = max(
                    my_parallel_bound(2, p.bit_count(), eps),
                    my_parallel_recomputed_bound(2, p.bit_count(), eps),
                )
                assert ctx.distance(p, q) <= bound + 1e-9

    def test_wrong_register_order_is_loud(self):
        # Swapping the roles of the two ancilla blocks must give a visibly
        # wrong distance for the honest strategy.
        s = honest_my_strategy(1)
        image = apply_isometry(s, s.state, "my")
        junk = junk_state(s, "my")
        ideal = ideal_pair_state(2)
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

    def test_sample_of_every_pair_is_the_exhaustive_set(self):
        # 256 scalar draw pairs at n = 4 hold only 163 distinct pairs.
        pairs = select_pairs(4, "sample", seed=1, sample_count=256)
        assert sorted(pairs) == select_pairs(4, "exhaustive")

    def test_sample_pairs_are_distinct(self):
        # 4096 draw pairs at n = 6 hold only 2593 distinct pairs.
        pairs = select_pairs(6, "sample", seed=1, sample_count=4096)
        assert len(pairs) == len(set(pairs)) == 4096

    def test_sample_skips_a_repeat_in_draw_order(self):
        # Seed 49 repeats one of its first 16 draw pairs at n = 6; the
        # sample keeps the other draws in order and takes the 17th pair.
        rng = np.random.default_rng(49)
        draws = [(int(rng.integers(0, 64)), int(rng.integers(0, 64))) for _ in range(17)]
        assert len(set(draws[:16])) == 15
        assert select_pairs(6, "sample", seed=49, sample_count=16) == list(dict.fromkeys(draws))

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
        assert all(r.bounds["my-parallel"] > VACUOUS_THRESHOLD for r in reports)

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
        for s in range(big):
            for t in range(big):
                for u in range(big):
                    phase = (-1.0) ** ((t & (s ^ u)).bit_count())
                    vec = apply_string(xs, s, v)
                    vec = apply_string(zs, t, vec)
                    vec = apply_string(xs, u, vec)
                    expected[:, s, u] += phase * vec
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
        for p, q in itertools.product(range(4**m), repeat=2):
            assert abs(ctx.distance(p, q) - six_step_distance(s, flavor, p, q)) <= 1e-12

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
            assert abs(ctx.distance(p, q) - six_step_distance(s, flavor, p, q)) <= 1e-12

    @pytest.mark.parametrize("flavor,m,noisy", ORACLE_CASES)
    def test_apply_isometry_elementwise(self, flavor, m, noisy):
        s = oracle_case_strategy(flavor, m, noisy)
        xs, zs = xz_observables(s, flavor)
        rng = np.random.default_rng(m)
        dim = s.dim_a * s.dim_b
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for vec in (s.state.reshape(-1), v):
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


# m = 3 and 4, sampled pairs: honest, two noise levels and, at m = 3, the
# noisy strategy with a junk state.
BLOCK_FORM_NOISE = {
    "honest": None,
    "noisy": NoiseSpec(theta=0.03, w=0.01),
    "very-noisy": NoiseSpec(theta=0.3, w=0.2),
}
BLOCK_FORM_CASES = [
    (flavor, m, kind)
    for flavor in ("my", "spp")
    for m in (3, 4)
    for kind in (*BLOCK_FORM_NOISE, "junk")
    if kind != "junk" or m == 3
]


class TestAgainstBlockFormOracle:
    @pytest.mark.parametrize("flavor,m,noisy", ORACLE_CASES)
    def test_oracle_matches_six_step(self, flavor, m, noisy):
        s = with_junk(oracle_case_strategy(flavor, m, noisy), seed=m)
        oracle = BlockFormContext(s, flavor)
        for p, q in itertools.product(range(4**m), repeat=2):
            assert abs(oracle.distance(p, q) - six_step_distance(s, flavor, p, q)) <= 1e-12

    @pytest.mark.parametrize("flavor,m,kind", BLOCK_FORM_CASES)
    def test_distance_on_sampled_pairs(self, flavor, m, kind):
        s = oracle_case_strategy(flavor, m, False)
        spec = BLOCK_FORM_NOISE.get(kind, BLOCK_FORM_NOISE["noisy"])
        if spec is not None:
            s = perturb_strategy(s, spec, seed=4)
        if kind == "junk":
            s = with_junk(s, seed=3)
        ctx, oracle = IsometryContext(s, flavor), BlockFormContext(s, flavor)
        for p, q in select_pairs(2 * m, "sample", seed=m, sample_count=16):
            assert abs(ctx.distance(p, q) - oracle.distance(p, q)) <= 1e-12


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
    psi = ua @ np.kron(s.state, junk) @ ub.T

    def rotated(table, u, junk_dim):
        eye = np.eye(junk_dim)
        return {
            kind: Measurement.from_projectors(
                {a: u @ np.kron(p, eye) @ u.conj().T for a, p in meas})
            for kind, meas in table.items()
        }

    return Strategy(
        state=psi,
        alice=rotated(s.alice, ua, junk_dims[0]),
        bob=rotated(s.bob, ub, junk_dims[1]),
        m=s.m,
    )


class TestStrategyWithJunk:
    @pytest.mark.parametrize("flavor,m,noisy", ORACLE_CASES)
    def test_distance_over_all_pairs(self, flavor, m, noisy):
        s = with_junk(oracle_case_strategy(flavor, m, noisy), seed=10 * m + noisy)
        assert (s.dim_a, s.dim_b) == (3 * 2**m, 2 * 2**m)
        ctx = IsometryContext(s, flavor)
        for p, q in itertools.product(range(4**m), repeat=2):
            expected = six_step_distance(s, flavor, p, q)
            assert abs(ctx.distance(p, q) - expected) <= 1e-12
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

    @pytest.mark.parametrize("flavor", ["my", "spp"])
    def test_sampled_pairs_at_m4(self, flavor):
        ctx = IsometryContext(oracle_case_strategy(flavor, 4, False), flavor)
        pairs = select_pairs(8, "sample", seed=1, sample_count=1024)
        assert max(ctx.distance(p, q) for p, q in pairs) < 1e-9


def held_table_distance(ctx: IsometryContext, f_pauli: np.ndarray, p: int, q: int) -> float:
    """The distance as a context holding F X^q Z^p for every (q, p) took it,
    f_pauli = F times Alice's whole X^q Z^p table in one broadcast product."""
    half = len(ctx._rho)
    (pa, pb), (qa, qb) = divmod(p, half), divmod(q, half)
    c = qa ^ pb
    signed = ctx._select[c, pa ^ qb, (pa & pb).bit_count() & 1]
    rows = f_pauli[qa, pa] @ ctx._psi_b[qb, pb]
    res = rows.reshape(half, -1, rows.shape[1]) @ ctx._cols.take(signed, axis=0)
    res -= ctx._targets[c]
    flat = res.reshape(-1).view(np.float64)
    return math.sqrt((flat @ flat + ctx._rho[c]) / half)


class TestAgainstHeldTable:
    # A call forms (F X^qa Z^pa) psi'_b itself; the distances must be the same
    # floats as from the held table.  Associated as F (X^qa Z^pa psi'_b), 11,728
    # of the 17,472 distances at m <= 3 differ, by up to 8.3e-17.
    @pytest.mark.parametrize("flavor", ["my", "spp"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["honest", "noisy"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_bit_identical(self, flavor, noisy, m):
        ctx = IsometryContext(oracle_case_strategy(flavor, m, noisy), flavor)
        f_pauli = ctx._f_rows @ ctx._pauli_a
        pairs = (select_pairs(2 * m, "exhaustive") if m <= 3
                 else select_pairs(2 * m, "sample", seed=m, sample_count=1024))
        for p, q in pairs:
            assert ctx.distance(p, q) == held_table_distance(ctx, f_pauli, p, q)


class TestDistanceMemory:
    @staticmethod
    def held_by_context(m: int) -> int:
        s = honest_my_strategy(m)
        IsometryContext(s, "my")  # numpy's first-use setup
        tracemalloc.start()
        try:
            ctx = IsometryContext(s, "my")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ctx.n == 2 * m
        return held

    def test_context_held_at_m3(self):
        # The projected factors, targets and rho hold about 0.30 MB.  Alice's
        # table of F_t X^q Z^p for every (q, p) added 0.43 MB (0.73 MB held),
        # and a target buffer of 2^m blocks of 64 x 64 entries held 0.91 MB.
        assert self.held_by_context(3) < 0.4 * 2**20

    def test_context_held_at_m4(self):
        # About 4.4 MB: the targets J' 2 MB, Alice's X^q Z^p and Bob's
        # psi (X^q Z^p)^T 1 MB each.  With Alice's table of F_t X^q Z^p, 19.3 MB.
        assert self.held_by_context(4) <= 5 * 2**20

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
        # About 16 MB, while the blocks and their QR factors are held.  With
        # Alice's 16 MB table of F_t X^q Z^p, formed after those were freed,
        # the build peaked at 21.5 MB; with a 16 MB target buffer, at 25.6 MB.
        s = honest_my_strategy(4)
        tracemalloc.start()
        try:
            IsometryContext(s, "my")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * 2**20
