import math

import numpy as np
import pytest

from selftest_lab.linalg import (
    ANTIDIAG_XZ,
    DIAG_XZ,
    PAULI_X,
    PAULI_Z,
    bipartite_expectation,
)
from selftest_lab.protocols import (
    CHSH_MAX,
    SPP_ALLOWED_PAIRS,
    chsh_values,
    epsilon_my,
    epsilon_spp,
    ideal_my_correlations,
    my_required_pairs,
    my_test_spec,
    spp_test_spec,
)
from selftest_lab.strategies import (
    Measurement,
    NoiseSpec,
    Strategy,
    honest_my_strategy,
    honest_spp_strategy,
    perturb_strategy,
)

SQRT2 = math.sqrt(2.0)


def deterministic_strategy(assign_a, assign_b, m=1):
    """Classical strategy on one-dimensional party spaces: fixed answers."""

    def table(assign):
        out = {}
        for kind, answer in assign.items():
            answers = {answer if isinstance(answer, tuple) else (answer,) * m}
            projs = {}
            import itertools

            for a in itertools.product((1, -1), repeat=m):
                projs[a] = np.array([[1.0 if a in answers else 0.0]], dtype=complex)
            out[kind] = Measurement(projs)
        return out

    return Strategy(state=np.ones((1, 1)), alice=table(assign_a), bob=table(assign_b), m=m)


def rotate_one_party(s: Strategy, party: str, theta: float) -> Strategy:
    """s with only one party's measurements rotated by theta: that party's
    table from the two-party rotation, the other party's honest table."""
    rotated = perturb_strategy(s, NoiseSpec(theta=theta), seed=0)
    tables = {p: getattr(rotated if p == party else s, p) for p in ("alice", "bob")}
    return Strategy(state=s.state, m=s.m, **tables)


class TestRequiredCorrelations:
    def test_m1_core_set(self):
        pairs = set(my_required_pairs(1))
        assert pairs == {
            ("X", "X"), ("X", "Z"), ("Z", "X"), ("Z", "Z"),
            ("X", "D"), ("Z", "D"), ("D", "X"), ("D", "Z"),
        }
        assert all(len(values) == 1 for values in ideal_my_correlations(1).values())

    def test_m2_includes_index_family_pairings(self):
        pairs = set(my_required_pairs(2))
        for fam in ("X1", "Z1"):
            assert ("X", fam) in pairs and ("Z", fam) in pairs
            assert (fam, "X") in pairs and (fam, "Z") in pairs
        assert ("D", "D") not in pairs
        assert ("X1", "Z1") not in pairs

    def test_count_scales_with_log(self):
        # 8 core pairs plus 8 mixed pairs per index family
        for m in (1, 2, 3, 4, 8):
            expected = 8 + 8 * (m - 1).bit_length()
            assert len(my_required_pairs(m)) == expected


class TestTestSpecs:
    def test_spp_has_ten_pairs(self):
        spec = spp_test_spec(3)
        assert (spec.flavor, spec.m) == ("spp", 3)
        assert len(set(SPP_ALLOWED_PAIRS)) == 10
        for banned in (("X", "X"), ("Z", "Z"), ("D", "D"), ("E", "D"), ("D", "E"), ("E", "E")):
            assert banned not in SPP_ALLOWED_PAIRS


class TestCorrelationExact:
    @pytest.mark.parametrize("m", [1, 2])
    def test_honest_values(self, m):
        s = honest_my_strategy(m)
        for k in range(1, m + 1):
            assert s.correlations("X", "Z")[k - 1] == pytest.approx(1.0, abs=1e-12)
            assert s.correlations("X", "X")[k - 1] == pytest.approx(0.0, abs=1e-12)
            assert s.correlations("X", "D")[k - 1] == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_unknown_question_rejected(self):
        s = honest_my_strategy(1)
        with pytest.raises(KeyError):
            s.correlations("E", "Z")


class TestIdealTable:
    def test_anchor_values(self):
        # Hard-coded anchors guarding the honestly-computed table.
        table = ideal_my_correlations(2)
        assert table[("X", "Z")][0] == pytest.approx(1.0, abs=1e-12)
        assert table[("X", "X")][0] == pytest.approx(0.0, abs=1e-12)
        assert table[("X", "D")][1] == pytest.approx(1 / SQRT2, abs=1e-12)
        assert table[("D", "Z")][0] == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_mixed_family_values_are_zero_or_one(self):
        table = ideal_my_correlations(2)
        assert table[("X", "X1")][0] == pytest.approx(0.0, abs=1e-12)
        assert table[("Z", "X1")][0] == pytest.approx(1.0, abs=1e-12)
        assert table[("X", "X1")][1] == pytest.approx(1.0, abs=1e-12)
        assert table[("Z", "X1")][1] == pytest.approx(0.0, abs=1e-12)


class TestEpsilonMy:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_honest_is_zero(self, m):
        assert epsilon_my(honest_my_strategy(m)).eps <= 1e-12

    def test_rotated_alice_oracle(self):
        theta = 0.05
        s = rotate_one_party(honest_my_strategy(1), "alice", theta)
        rep = epsilon_my(s)
        by_pair = {(e.alice, e.bob): e for e in rep.entries}
        assert by_pair[("X", "Z")].deviation == pytest.approx(
            1 - math.cos(2 * theta), abs=1e-12
        )
        # The largest deviation sits on the ideally-zero (X,X)/(Z,Z) pairs.
        assert rep.eps == pytest.approx(math.sin(2 * theta), abs=1e-12)
        assert (rep.argmax().alice, rep.argmax().bob) in {("X", "X"), ("Z", "Z")}

    def test_state_noise_reports_argmax(self):
        s = perturb_strategy(honest_my_strategy(1), NoiseSpec(w=0.02), seed=4)
        rep = epsilon_my(s)
        assert rep.eps > 0
        assert rep.argmax().deviation == rep.eps

    def test_missing_question_rejected(self):
        with pytest.raises(KeyError):
            epsilon_my(honest_spp_strategy(2))

    def test_monotone_in_rotation_angle(self):
        s = honest_my_strategy(1)
        eps_values = [
            epsilon_my(perturb_strategy(s, NoiseSpec(theta=t), seed=0)).eps
            for t in np.linspace(0.0, 0.3, 10)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(eps_values, eps_values[1:]))


class TestEpsilonSpp:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_honest_is_zero(self, m):
        s = honest_spp_strategy(m)
        rep = epsilon_spp(s)
        assert rep.eps <= 1e-12
        chsh_entries = [e for e in rep.entries if e.ideal == CHSH_MAX]
        assert len(chsh_entries) == 2 * m
        assert all(e.measured == pytest.approx(CHSH_MAX, abs=1e-12) for e in chsh_entries)
        match_entries = [e for e in rep.entries if e.ideal == 1.0]
        assert len(match_entries) == m * 2**m * 2 ** (m - 1)
        assert all(e.measured == pytest.approx(1.0, abs=1e-12) for e in match_entries)

    def test_rotated_bob_chsh_deficit_oracle(self):
        theta = 0.04
        s = rotate_one_party(honest_spp_strategy(1), "bob", theta)
        rep = epsilon_spp(s)
        # Oracle: rotate D and E directly, evaluate the four 4-dim terms.
        c, sn = math.cos(theta), math.sin(theta)
        u = np.array([[c, -sn], [sn, c]])
        psi = np.array([1, 1, 1, -1]) / 2  # the e-bit
        d, e = u @ DIAG_XZ @ u.T, u @ ANTIDIAG_XZ @ u.T
        s_val = (
            np.vdot(psi, np.kron(PAULI_X, d) @ psi).real
            - np.vdot(psi, np.kron(PAULI_X, e) @ psi).real
            + np.vdot(psi, np.kron(PAULI_Z, d) @ psi).real
            + np.vdot(psi, np.kron(PAULI_Z, e) @ psi).real
        )
        got = [x for x in rep.entries if (x.alice, x.bob) == ("X,Z", "D,E")][0]
        assert got.measured == pytest.approx(s_val, abs=1e-12)
        assert got.deviation == pytest.approx(CHSH_MAX - s_val, abs=1e-12)

    def test_classical_all_plus_one(self):
        assigns = {k: 1 for k in ("X", "Z", "D", "E")}
        s = deterministic_strategy(assigns, assigns)
        rep = epsilon_spp(s)
        # All observables are the identity; CHSH reaches only 2.
        assert rep.eps == pytest.approx(2 * SQRT2 - 2, abs=1e-12)

    def test_missing_question_rejected(self):
        with pytest.raises(KeyError):
            epsilon_spp(honest_my_strategy(2))


class TestChshValue:
    def test_both_directions_honest(self):
        s = honest_spp_strategy(2)
        for k in (1, 2):
            assert chsh_values(s, "ab")[k - 1] == pytest.approx(CHSH_MAX, abs=1e-12)
            assert chsh_values(s, "ba")[k - 1] == pytest.approx(CHSH_MAX, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_each_direction_on_rotated_alice(self, m):
        # Only Alice's all-D question is rotated.  Rotating all of one party's
        # questions would keep D - E = sqrt(2) Z and D + E = sqrt(2) X, and
        # with them "ab" = "ba"; here the directions differ, and each must
        # equal its explicit four-term sum.
        honest = honest_spp_strategy(m)
        rotated = rotate_one_party(honest, "alice", 0.1)
        s = Strategy(
            state=honest.state,
            alice={**honest.alice, "D" * m: rotated.alice["D" * m]},
            bob=honest.bob,
            m=m,
        )

        def corr(qa, qb, k):
            a = s.observable("alice", qa * m, k)
            b = s.observable("bob", qb * m, k)
            return bipartite_expectation(s.state, a, b)

        for k in range(1, m + 1):
            ab = (corr("X", "D", k) - corr("X", "E", k)
                  + corr("Z", "D", k) + corr("Z", "E", k))
            ba = (corr("D", "X", k) - corr("E", "X", k)
                  + corr("D", "Z", k) + corr("E", "Z", k))
            assert abs(chsh_values(s, "ab")[k - 1] - ab) <= 1e-15
            assert abs(chsh_values(s, "ba")[k - 1] - ba) <= 1e-15
            assert abs(ab - ba) > 1e-3

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            chsh_values(honest_spp_strategy(1), "sideways")


def count_correlation_reads(monkeypatch) -> list[tuple[str, str]]:
    """The (qa, qb) of every Strategy.correlations call from here on."""
    reads = []
    read = Strategy.correlations

    def counted(self, qa, qb):
        reads.append((qa, qb))
        return read(self, qa, qb)

    monkeypatch.setattr(Strategy, "correlations", counted)
    return reads


class TestEachPairReadOnce:
    @pytest.mark.parametrize("m, count", [(1, 8), (2, 16), (3, 24)])
    def test_epsilon_my_reads_each_required_pair_once(self, m, count, monkeypatch):
        s = honest_my_strategy(m)
        ideal_my_correlations(m)  # the cached ideal table reads the honest strategy
        reads = count_correlation_reads(monkeypatch)
        epsilon_my(s)
        assert reads == list(my_required_pairs(m))
        assert len(set(reads)) == count

    @pytest.mark.parametrize("m, count", [(1, 10), (2, 20), (3, 64)])
    def test_epsilon_spp_reads_each_pair_once(self, m, count, monkeypatch):
        # 8 CHSH pairs plus every ordered pair of distinct {X,Z} strings.
        s = honest_spp_strategy(m)
        reads = count_correlation_reads(monkeypatch)
        epsilon_spp(s)
        assert len(reads) == count
        assert len(set(reads)) == count
        assert all(qa != qb for qa, qb in reads)
