import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from selftest_lab.bitstrings import half_swap_phase
from selftest_lab.bounds import EpsilonBundle
from selftest_lab.linalg import (
    PAULI_X,
    PAULI_Z,
    STRUCTURAL_ATOL,
    bipartite_expectation,
)
from selftest_lab.strategies import (
    Measurement,
    NoiseSpec,
    NotProjective,
    Strategy,
    basis_vectors,
    ceil_log2,
    honest_my_strategy,
    honest_spp_strategy,
    my_basis_string,
    my_question_kinds,
    perturb_strategy,
    product_basis_measurement,
    recipe_from_json,
    spp_question_kinds,
    strategy_from_json,
    strategy_to_json,
)

from test_game import merged_last_symbol
from test_isometry import with_junk
from test_protocols import rotate_one_party

SQRT2 = math.sqrt(2.0)

_HONEST_M1 = honest_my_strategy(1)  # shared by the hypothesis property


def random_projective_measurement(rng, num_symbols):
    """Random rank-1 projective measurement with 2^m outcomes."""
    dim = 2**num_symbols
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    answers = [
        tuple(1 if (i >> b) & 1 == 0 else -1 for b in range(num_symbols))
        for i in range(dim)
    ]
    return Measurement.from_projectors(
        {ans: np.outer(q[:, i], q[:, i].conj()) for i, ans in enumerate(answers)}
    )


def symbol_projector(meas, k, x):
    """Projector onto the answers whose k-th symbol is x: (I + x O_k) / 2."""
    return (np.eye(meas.dim) + x * observable_for_symbol(meas, k)) / 2


class TestSymbolProjector:
    def test_single_answer_measurement(self):
        meas = product_basis_measurement("X")
        plus, minus = basis_vectors("X")
        assert np.allclose(
            symbol_projector(meas, 1, 1), np.outer(plus, plus.conj())
        )
        assert np.allclose(
            symbol_projector(meas, 1, -1), np.outer(minus, minus.conj())
        )

    def test_completeness_of_symbol_split(self):
        meas = product_basis_measurement("XZ")
        for k in (1, 2):
            total = symbol_projector(meas, k, 1) + symbol_projector(meas, k, -1)
            assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_honest_all_x_first_symbol(self):
        meas = product_basis_measurement("XX")
        plus, _ = basis_vectors("X")
        expected = np.kron(np.outer(plus, plus.conj()), np.eye(2))
        assert np.allclose(symbol_projector(meas, 1, 1), expected, atol=1e-12)

    def test_index_out_of_range(self):
        meas = product_basis_measurement("X")
        with pytest.raises(KeyError, match="k=2"):
            symbol_projector(meas, 2, 1)


def observable_for_symbol(meas, k):
    """Symbol-k observable of a measurement, as a strategy asking it exposes it."""
    state = np.eye(meas.dim**2)[0].reshape(meas.dim, meas.dim)
    s = Strategy(state=state, alice={"Q": meas}, bob={}, m=meas.num_symbols)
    return s.observable("alice", "Q", k)


def assert_hermitian_unitary(obs, atol):
    assert np.abs(obs - obs.conj().T).max() <= atol
    assert np.abs(obs @ obs - np.eye(obs.shape[0])).max() <= atol


class TestObservableForSymbol:
    def test_honest_all_x(self):
        meas = product_basis_measurement("XX")
        assert np.allclose(
            observable_for_symbol(meas, 1), np.kron(PAULI_X, np.eye(2)),
            atol=1e-12,
        )
        assert np.allclose(
            observable_for_symbol(meas, 2), np.kron(np.eye(2), PAULI_X),
            atol=1e-12,
        )

    def test_index_family_follows_bit_rule(self):
        # m=2, j=1: sub-test 1 has LSB 1 -> X, sub-test 2 has LSB 0 -> Z,
        # for both the X- and Z-labelled families (the published rules agree).
        assert my_basis_string("X1", 2) == "XZ"
        assert my_basis_string("Z1", 2) == "XZ"
        meas = product_basis_measurement(my_basis_string("Z1", 2))
        assert np.allclose(
            observable_for_symbol(meas, 2), np.kron(np.eye(2), PAULI_Z),
            atol=1e-12,
        )

    def test_random_measurements_give_hermitian_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            meas = random_projective_measurement(rng, 2)
            for k in (1, 2):
                assert_hermitian_unitary(observable_for_symbol(meas, k), 1e-10)

    def test_same_question_observables_commute(self):
        # Forced by the construction: all symbol observables of one
        # measurement are sums of the same commuting projector family.
        rng = np.random.default_rng(13)
        for _ in range(10):
            meas = random_projective_measurement(rng, 2)
            m1 = observable_for_symbol(meas, 1)
            m2 = observable_for_symbol(meas, 2)
            assert np.abs(m1 @ m2 - m2 @ m1).max() < 1e-10


class TestHonestMyStrategy:
    def test_question_count_is_logarithmic(self):
        for m in range(1, 9):
            assert len(my_question_kinds(m)) == 3 + 2 * ceil_log2(m)

    def test_m1_has_no_index_families(self):
        s = honest_my_strategy(1)
        assert s.kinds("alice") == ("X", "Z", "D")

    def test_pair_correlation(self):
        s = honest_my_strategy(1)
        val = bipartite_expectation(
            s.state, s.observable("alice", "X", 1), s.observable("bob", "Z", 1)
        )
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_m2_golden_measurement_table(self):
        # Locks the index-bit convention: j=1 is the least significant bit
        # of the 1-based sub-test index.
        assert my_basis_string("X1", 2) == "XZ"
        assert my_basis_string("X1", 3) == "XZX"
        assert my_basis_string("X2", 3) == "ZXX"
        assert my_basis_string("Z1", 3) == "XZX"
        assert my_basis_string("Z2", 3) == "ZXX"

    def test_validates(self):
        assert_bases_unitary(honest_my_strategy(2))

    def test_state_is_pair_graph_state(self):
        s = honest_my_strategy(2)
        expected = [(-1.0) ** half_swap_phase(u, 4) / 4 for u in range(16)]
        assert s.state.shape == (4, 4)
        assert np.array_equal(s.state.reshape(-1), np.array(expected, dtype=complex))

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            honest_my_strategy(0)


class TestHonestSppStrategy:
    def test_question_set(self):
        assert spp_question_kinds(1) == ("X", "Z", "D", "E")
        assert len(spp_question_kinds(2)) == 16

    def test_x_against_d(self):
        s = honest_spp_strategy(1)
        val = bipartite_expectation(
            s.state, s.observable("alice", "X", 1), s.observable("bob", "D", 1)
        )
        assert val == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_single_pair_chsh_reaches_quantum_max(self):
        s = honest_spp_strategy(1)
        x, z = s.observable("alice", "X", 1), s.observable("alice", "Z", 1)
        d, e = s.observable("bob", "D", 1), s.observable("bob", "E", 1)
        val = (
            bipartite_expectation(s.state, x, d)
            - bipartite_expectation(s.state, x, e)
            + bipartite_expectation(s.state, z, d)
            + bipartite_expectation(s.state, z, e)
        )
        assert val == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_mixed_string_measures_per_symbol(self):
        s = honest_spp_strategy(2)
        assert np.allclose(
            s.observable("alice", "XZ", 1), np.kron(PAULI_X, np.eye(2)), atol=1e-12
        )
        assert np.allclose(
            s.observable("alice", "XZ", 2), np.kron(np.eye(2), PAULI_Z), atol=1e-12
        )

    def test_validates(self):
        assert_bases_unitary(honest_spp_strategy(1))


class TestStrategyState:
    """A strategy's state is its (d_A, d_B) amplitude matrix, checked and held
    as a read-only copy divided by its norm."""

    @staticmethod
    def build(state):
        return Strategy(state=state, alice={}, bob={}, m=1)

    @pytest.mark.parametrize("scale", [2.0, 1 + 3e-12, 1 - 3e-12, 0.0, np.nan, np.inf])
    def test_norm_enforced(self, scale):
        with pytest.raises(ValueError, match=r"^state norm .* deviates from 1 beyond atol=1e-12$"):
            self.build(np.full((2, 2), scale) / 2)

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 2), ()])
    def test_state_must_be_a_matrix(self, shape):
        state = np.zeros(shape)
        state.flat[0] = 1.0
        with pytest.raises(ValueError, match=rf"must be a \(d_A, d_B\) matrix, got shape "
                                             rf"{re.escape(str(shape))}$"):
            self.build(state)

    def test_read_only_copy(self):
        state = np.eye(2) / SQRT2
        s = self.build(state)
        held = s.state.copy()
        with pytest.raises(ValueError):
            s.state[0, 0] = 9.0
        state[0, 0] = 9.0  # the caller's array is not the held one
        assert np.array_equal(s.state, held)
        assert s.state.dtype == complex and (s.dim_a, s.dim_b) == (2, 2)

    def test_divided_by_norm(self):
        # Within NORM_ATOL the state is accepted and divided by its norm.
        state = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]) / 5 * (1 + 5e-13)
        s = self.build(state)
        assert np.array_equal(s.state, state / np.linalg.norm(state))
        assert (s.dim_a, s.dim_b) == (2, 3)


class TestPerturbStrategy:
    def test_zero_noise_is_identity(self):
        s = honest_my_strategy(1)
        same = perturb_strategy(s, NoiseSpec(theta=0.0, w=0.0), seed=9)
        for qa, qb in (("X", "Z"), ("Z", "X"), ("X", "D")):
            want = bipartite_expectation(
                s.state, s.observable("alice", qa, 1), s.observable("bob", qb, 1)
            )
            got = bipartite_expectation(
                same.state, same.observable("alice", qa, 1), same.observable("bob", qb, 1)
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_rotated_alice_oracle(self):
        # Independent oracle: conjugate X by the rotation matrix directly and
        # evaluate the 4-dimensional expectation by hand.
        theta = 0.05
        s = honest_my_strategy(1)
        noisy = rotate_one_party(s, "alice", theta)
        got = bipartite_expectation(
            noisy.state, noisy.observable("alice", "X", 1), noisy.observable("bob", "Z", 1)
        )
        c, sn = math.cos(theta), math.sin(theta)
        u = np.array([[c, -sn], [sn, c]])
        psi = np.array([1, 1, 1, -1]) / 2  # the e-bit
        oracle = np.vdot(psi, np.kron(u @ PAULI_X @ u.T, PAULI_Z) @ psi).real
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(math.cos(2 * theta), abs=1e-12)

    def test_noisy_strategy_stays_valid(self):
        s = honest_spp_strategy(1)
        noisy = perturb_strategy(s, NoiseSpec(theta=0.2, w=0.1), seed=3)
        assert_bases_unitary(noisy)

    def test_same_seed_same_strategy(self):
        s = honest_my_strategy(1)
        a = perturb_strategy(s, NoiseSpec(theta=0.1, w=0.05), seed=11)
        b = perturb_strategy(s, NoiseSpec(theta=0.1, w=0.05), seed=11)
        assert np.array_equal(a.state, b.state)

    def test_shared_measurement_rotated_once(self, monkeypatch):
        # The honest parties share one table: 16 rotations at spp m=2, not 32.
        # Equal but distinct tables, as a strategy file gives, stay distinct.
        honest = honest_spp_strategy(2)
        copied = Strategy(state=honest.state, alice=honest.alice, bob={
            kind: Measurement(m.basis, m.column_signs.T) for kind, m in honest.bob.items()
        }, m=2)
        built = []
        init = Measurement.__init__
        monkeypatch.setattr(Measurement, "__init__",
                            lambda meas, *args: built.append(meas) or init(meas, *args))
        noise = NoiseSpec(theta=0.03, w=0.01)
        shared, distinct = (perturb_strategy(s, noise, seed=1) for s in (honest, copied))
        assert len(built) == 16 + 32
        for kind in honest.kinds("alice"):
            assert shared.alice[kind] is shared.bob[kind]
            assert distinct.alice[kind] is not distinct.bob[kind]
            assert np.array_equal(shared.bob[kind].basis, distinct.bob[kind].basis)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(theta=4.0)
        with pytest.raises(ValueError):
            NoiseSpec(w=1.5)

    @given(
        hst.floats(min_value=-1.0, max_value=1.0),
        hst.floats(min_value=0.0, max_value=0.5),
        hst.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_noise_keeps_strategy_valid(self, theta, w, seed):
        s = perturb_strategy(_HONEST_M1, NoiseSpec(theta=theta, w=w), seed=seed)
        assert_bases_unitary(s)


def assert_bases_unitary(s):
    """Each basis of s is unitary within STRUCTURAL_ATOL / (2 d), the tolerance
    that Measurement.from_projectors holds a strategy file's bases to.  The
    program builds its bases unitary and does not check them on each run."""
    for party in ("alice", "bob"):
        for kind in s.kinds(party):
            u = s.measurement(party, kind).basis
            dim = len(u)
            assert u.shape == (dim, dim)
            for gram in (u @ u.conj().T, u.conj().T @ u):
                assert np.abs(gram - np.eye(dim)).max() <= STRUCTURAL_ATOL / (2 * dim)


class TestValidateStrategy:
    """The four checks of Measurement.from_projectors, each named when it
    fails, and the unitary bases of the strategies the program builds."""

    def test_observables_are_not_formed(self):
        # A converted measurement holds its basis and answers, nothing formed from them.
        s = strategy_from_json(json.loads(json.dumps(strategy_to_json(honest_spp_strategy(2)))))
        for party in ("alice", "bob"):
            for kind in s.kinds(party):
                held = set(vars(s.measurement(party, kind)))
                assert held == {"basis", "column_signs", "num_symbols", "dim"}

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("build", [honest_my_strategy, honest_spp_strategy])
    def test_recipes_validate(self, build, m):
        s = build(m)
        assert_bases_unitary(s)
        for theta in (0.03, 0.3, math.pi):
            assert_bases_unitary(perturb_strategy(s, NoiseSpec(theta=theta), seed=m))
        for party in ("alice", "bob"):
            for meas in getattr(s, party).values():
                back = Measurement.from_projectors(meas.projectors)
                assert np.array_equal(back.column_signs, meas.column_signs)
                assert list(back.projectors) == list(meas.projectors)
                for a, p in meas:
                    assert np.abs(back.projectors[a] - p).max() <= 1e-15

    def test_incomplete_measurement_flagged(self):
        e0 = np.diag([1.0, 0.0])
        with pytest.raises(NotProjective, match=r"^Z completeness 1; Z unitary 1$"):
            Measurement.from_projectors({(1,): e0, (-1,): np.zeros((2, 2))}, "Z")

    def test_non_orthogonal_measurement_flagged(self):
        # Complete but not orthogonal: P+ P- = P+ - P+ P+ = -0.01 I.
        plus = np.array([[1.0, 0.1], [0.1, 0.0]], dtype=complex)
        with pytest.raises(NotProjective, match=r"^Z orthogonality 0\.01$"):
            Measurement.from_projectors({(1,): plus, (-1,): np.eye(2) - plus}, "Z")

    def test_scaled_projector_is_not_repaired(self):
        # 1.3 P_+ has the same eigenvectors as P_+, so its basis is a valid
        # one; the input's completeness and idempotency defects still show.
        honest = product_basis_measurement("X")
        scaled = {a: (1.3 if a == (1,) else 1.0) * p for a, p in honest}
        with pytest.raises(NotProjective,
                           match=r"^X completeness 0\.15; X orthogonality 0\.39$"):
            Measurement.from_projectors(scaled, "X")

    def test_non_hermitian_projector_flagged(self):
        # An oblique idempotent: complete and orthogonal as a product family,
        # but eigh reads only its lower triangle.
        oblique = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotProjective, match=r"^Z hermitian 1$"):
            Measurement.from_projectors({(1,): oblique, (-1,): np.eye(2) - oblique}, "Z")

    def test_wrong_dimension_rejected_at_construction(self):
        psi = np.eye(2) / SQRT2
        with pytest.raises(ValueError):
            Strategy(
                state=psi,
                alice={"Z": product_basis_measurement("ZZ")},
                bob={"Z": product_basis_measurement("Z")},
                m=1,
            )


def derived_deviations(meas):
    """The deviations that the unitary check of Measurement.from_projectors
    stands for, formed here: completeness and orthogonality of the basis
    columns, and the Hermiticity, M_k^2 = I and same-question commutators of
    the observables."""
    u = meas.basis
    uh = u.conj().T
    mats = (u * meas.column_signs[:, None, :]) @ uh
    return {
        "completeness": np.abs(u @ uh - np.eye(meas.dim)).max(),
        "orthogonality": np.abs(uh @ u - np.eye(u.shape[1])).max(initial=0.0),
        "hermitian": np.abs(mats - mats.conj().transpose(0, 2, 1)).max(),
        "unitary": np.abs(mats @ mats - np.eye(meas.dim)).max(),
        "same-question-commute": max(
            (np.abs(a @ b - b @ a).max() for a, b in itertools.combinations(mats, 2)),
            default=0.0),
    }


class TestValidationNeverLooser:
    """A measurement that Measurement.from_projectors accepts keeps every
    derived deviation within STRUCTURAL_ATOL (the bounds of its docstring)."""

    @staticmethod
    def draw(rng):
        """Projectors off those of a random unitary by 1e-14 to 1e-8, on d =
        2..8, with m = 1..3 symbols and a random number of columns per answer."""
        dim, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        answers = list(itertools.product((1, -1), repeat=m))
        groups = rng.integers(0, len(answers), dim)
        scale = 10 ** rng.uniform(-14, -8)

        def gaussian():
            return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

        u, _ = np.linalg.qr(gaussian())
        return {
            a: u[:, groups == i] @ u[:, groups == i].conj().T + scale * gaussian()
            for i, a in enumerate(answers)
        }

    @pytest.mark.parametrize("source", ["projector-file"])
    def test_accepted_measurements_pass_the_derived_checks(self, source):
        rng = np.random.default_rng(12)
        rounding = np.finfo(float).eps
        accepted = 0
        for _ in range(1000):
            try:
                meas = Measurement.from_projectors(self.draw(rng))
            except NotProjective:
                continue
            accepted += 1
            dev, dim = derived_deviations(meas), meas.dim
            u = meas.basis
            e = np.abs(u.conj().T @ u - np.eye(dim)).max()
            f = np.abs(u @ u.conj().T - np.eye(dim)).max()
            assert dev["unitary"] <= f + dim * e * (1 + f) + dim * rounding
            assert dev["same-question-commute"] <= 2 * dim * e * (1 + f) + dim * rounding
            assert max(dev.values()) <= STRUCTURAL_ATOL, dev
        # Both sides of the tolerance are drawn.
        assert 200 < accepted < 800


def oracle_correlations(s, qa, qb):
    """linalg.bipartite_expectation of the observables U diag(a_k) U^H, each
    column's a_k read from its answer string."""

    def observables(meas):
        signs = meas.column_signs.T.astype(float)
        u = meas.basis
        return [(u * signs[:, k]) @ u.conj().T for k in range(meas.num_symbols)]

    pairs = zip(observables(s.measurement("alice", qa)), observables(s.measurement("bob", qb)))
    return [bipartite_expectation(s.state, a, b) for a, b in pairs]


def assert_correlations_match_oracle(s):
    worst = 0.0
    for qa, qb in itertools.product(s.kinds("alice"), s.kinds("bob")):
        got = s.correlations(qa, qb)
        assert got.dtype == np.float64 and got.shape == (s.m,)
        worst = max(worst, np.abs(got - oracle_correlations(s, qa, qb)).max())
    assert worst <= 1e-14


def correlation_cases():
    """(name, strategy): honest, rotated, junk-carrying, fewer-outcome and
    converted-file strategies of both flavors at m = 1..3."""
    for flavor, build in (("my", honest_my_strategy), ("spp", honest_spp_strategy)):
        for m in (1, 2, 3):
            honest = build(m)
            rotated = perturb_strategy(honest, NoiseSpec(theta=3.0, w=0.9), seed=m)
            converted = strategy_from_json(json.loads(json.dumps(strategy_to_json(rotated))))
            yield f"{flavor}-honest-m{m}", honest
            yield f"{flavor}-rotated-m{m}", rotated
            yield f"{flavor}-junk-m{m}", with_junk(rotated, seed=m)
            yield f"{flavor}-fewer-outcomes-m{m}", merged_last_symbol(rotated)
            yield f"{flavor}-file-m{m}", converted


class TestCorrelationsAgainstObservableOracle:
    @pytest.mark.parametrize(
        "s", [pytest.param(s, id=name) for name, s in correlation_cases()]
    )
    def test_every_question_pair(self, s):
        assert_correlations_match_oracle(s)

    @given(
        hst.sampled_from([honest_my_strategy, honest_spp_strategy]),
        hst.integers(min_value=1, max_value=2),
        hst.floats(min_value=-3.0, max_value=3.0),
        hst.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_rotated_strategies(self, build, m, theta, w):
        s = perturb_strategy(build(m), NoiseSpec(theta=theta, w=w), seed=m)
        assert_correlations_match_oracle(s)


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        s = perturb_strategy(
            honest_my_strategy(2), NoiseSpec(theta=0.03, w=0.01), seed=5
        )
        doc = json.loads(json.dumps(strategy_to_json(s)))
        back = strategy_from_json(doc)
        assert back.m == s.m
        assert np.array_equal(back.state, s.state)
        for party in ("alice", "bob"):
            assert back.kinds(party) == s.kinds(party)
            for kind in s.kinds(party):
                # The file holds projectors; loading converts them to a basis
                # again, so the observables agree to rounding.
                for k in range(1, s.m + 1):
                    assert np.abs(
                        back.observable(party, kind, k) - s.observable(party, kind, k)
                    ).max() <= 4e-15

    @pytest.mark.parametrize("flavor", ["my", "spp"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_round_trip_reproduces_projectors(self, flavor, m):
        build = honest_my_strategy if flavor == "my" else honest_spp_strategy
        s = perturb_strategy(build(m), NoiseSpec(theta=0.3, w=0.2), seed=m)
        back = strategy_from_json(json.loads(json.dumps(strategy_to_json(s))))
        for party in ("alice", "bob"):
            for kind in s.kinds(party):
                meas, loaded = s.measurement(party, kind), back.measurement(party, kind)
                assert np.array_equal(loaded.column_signs, meas.column_signs)
                assert list(loaded.projectors) == list(meas.projectors)
                for a, p in meas:
                    assert np.abs(loaded.projectors[a] - p).max() <= 1e-15

    def test_recipe_fields(self):
        assert recipe_from_json({"type": "honest-my", "m": 2}) == ("honest-my", 2, 0.0, 0.0, 0)
        noisy = {"type": "honest-spp", "m": 1, "noise": {"theta": 0.05, "w": 0.0, "seed": 1}}
        assert recipe_from_json(noisy) == ("honest-spp", 1, 0.05, 0.0, 1)
        assert recipe_from_json({"type": "honest-my", "m": 1, "noise": {"seed": 3}}) == (
            "honest-my", 1, 0.0, 0.0, 3
        )

    @pytest.mark.parametrize("kind", ["dishonest", None, ["honest-my"], {"a": 1}])
    def test_unknown_type_rejected(self, kind):
        with pytest.raises(ValueError, match=r"^unknown strategy type "):
            recipe_from_json({"type": kind, "m": 1})

    def test_repeated_question_rejected_before_conversion(self):
        # The repeat is named before its malformed projectors are read.
        doc = strategy_to_json(honest_spp_strategy(1))
        doc["questions"].append({"party": "bob", "kind": "E", "projectors": 2})
        with pytest.raises(ValueError, match=r"^strategy field questions\[8\] repeats bob "
                                             r"question 'E'$"):
            strategy_from_json(doc)

    def test_repeated_answer_rejected_before_conversion(self):
        doc = strategy_to_json(honest_spp_strategy(1))
        doc["questions"][5]["projectors"].append({"answer": [-1], "matrix": "unread"})
        with pytest.raises(ValueError, match=r"^strategy field questions\[5\]\.projectors\[2\]"
                                             r"\.answer repeats \[-1\]$"):
            strategy_from_json(doc)

    def test_projectors_converted_after_the_key_checks(self):
        # A non-finite projector is not converted before the keys are
        # checked; then every failed check of every question is named.
        doc = strategy_to_json(honest_my_strategy(1))
        for q in doc["questions"][0], doc["questions"][-1]:  # alice X, bob D
            q["projectors"][0]["matrix"] = [1.3 * x for x in q["projectors"][0]["matrix"]]
        nan = json.loads(json.dumps(doc))
        nan["questions"][1]["projectors"][0]["matrix"][0] = math.nan
        with pytest.raises(ValueError, match=r"^strategy file has unknown key 'basis'; "):
            strategy_from_json({**nan, "basis": []})
        with pytest.raises(ValueError, match=r"^projector of answer \(1,\) has non-finite "):
            strategy_from_json(nan)
        with pytest.raises(ValueError, match=r"^strategy is not projective: "
                                             r"alice:X completeness 0\.15; alice:X orthogonality "
                                             r"0\.39; bob:D completeness 0\.256; bob:D "
                                             r"orthogonality 0\.39$"):
            strategy_from_json(doc)

    def test_unknown_key_named_after_the_field_checks(self):
        doc = {**strategy_to_json(honest_spp_strategy(1)), "noise": {}, "dims": [2, 0]}
        with pytest.raises(ValueError, match=r"^strategy field dims must be two integers >= 1"):
            strategy_from_json(doc)
        recipe = {"type": "honest-my", "m": 1, "nosie": {}, "noise": {"seed": -1}}
        with pytest.raises(ValueError, match=r"^strategy field noise\.seed must be >= 0, got -1$"):
            recipe_from_json(recipe)
        with pytest.raises(ValueError, match=r"^strategy file has unknown key 'nosie'; "):
            recipe_from_json({**recipe, "noise": {}})

    @pytest.mark.parametrize("m", [1.7, True, None, 0])
    def test_m_must_be_an_integer(self, m):
        doc = {**strategy_to_json(honest_my_strategy(1)), "m": m}
        want = rf"strategy field m must be an integer >= 1, got {m!r}$"
        with pytest.raises(ValueError, match=want):
            strategy_from_json(doc)
        with pytest.raises(ValueError, match=want):
            recipe_from_json({"type": "honest-my", "m": m})


class TestSmallTypes:
    def test_epsilon_bundle_nonnegative(self):
        EpsilonBundle(eps=0.1)
        with pytest.raises(ValueError):
            EpsilonBundle(eps1=-0.1)

    def test_measurement_validation(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            Measurement.from_projectors({})
        with pytest.raises(ValueError):
            Measurement.from_projectors({(0,): eye})  # answers must be +-1
        with pytest.raises(ValueError):
            Measurement.from_projectors({(1,): eye, (1, 1): eye})  # inconsistent lengths
        with pytest.raises(ValueError):
            Measurement.from_projectors({(1,): np.zeros((2, 3))})  # not square
