import itertools
import math

import numpy as np
import pytest

from selftest_lab.bitstrings import half_swap_phase
from selftest_lab.linalg import (
    ANTIDIAG_XZ,
    DIAG_XZ,
    PAULI_X,
    PAULI_Z,
    bipartite_expectation,
    embed,
    expectation,
    half_swap_signs,
    kron,
    ordered_power,
    pauli_observables,
    walsh_hadamard,
)
from selftest_lab.strategies import honest_my_strategy

SQRT2 = math.sqrt(2.0)


def ebit_state():
    """One e-bit on two qubits, its amplitude vector written out."""
    return np.array([1, 1, 1, -1]) / 2


class TestKronEmbed:
    def test_kron_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_embed_single_qubit(self):
        x1 = embed(PAULI_X, 2, sites=(1,))
        state = np.zeros(4)
        state[0b00] = 1.0
        assert np.allclose(x1 @ state, np.eye(4)[0b10])
        z2 = embed(PAULI_Z, 2, sites=(2,))
        state = np.eye(4)[0b01]
        assert np.allclose(z2 @ state, -state)

    def test_embed_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed(PAULI_X, 2, sites=(3,))

    def test_embed_two_sites_order(self):
        # Placing a two-qubit operator on sites (3, 1) permutes correctly.
        cz = np.diag([1.0, 1.0, 1.0, -1.0])
        m = embed(cz, 3, sites=(1, 3))
        v = np.zeros(8)
        v[0b101] = 1.0
        assert np.allclose(m @ v, -v)


class TestOrderedPower:
    def test_empty_exponent(self):
        ops = [PAULI_X, PAULI_Z]
        assert np.array_equal(ordered_power(ops, 0), np.eye(2))

    def test_one_hot(self):
        ops = [PAULI_X, PAULI_Z, DIAG_XZ]
        for k in (1, 2, 3):
            got = ordered_power(ops, 1 << (3 - k))
            assert np.array_equal(got, ops[k - 1])

    def test_order_of_noncommuting_pair(self):
        ops = [PAULI_X, PAULI_Z]
        got = ordered_power(ops, 0b11)
        assert np.allclose(got, PAULI_X @ PAULI_Z)
        assert not np.allclose(got, PAULI_Z @ PAULI_X)

    @pytest.mark.parametrize("t", [0b11, -1])
    def test_exponent_out_of_range(self, t):
        with pytest.raises(ValueError, match=f"exponent {t} out of range for a family of 1"):
            ordered_power([PAULI_X], t)

    def test_group_law_for_commuting_family(self):
        rng = np.random.default_rng(0)
        n = 4
        ops = [np.diag(rng.choice([-1.0, 1.0], size=2)) for _ in range(n)]
        for s, t in itertools.product(range(2**n), repeat=2):
            lhs = ordered_power(ops, s) @ ordered_power(ops, t)
            assert np.allclose(lhs, ordered_power(ops, s ^ t), atol=1e-12)

    def test_operator_string_wrapper(self):
        # The six-step oracle applies operator strings to vectors without forming
        # the product; the highest selected index acts first.
        from test_isometry import apply_string

        ops = [PAULI_X, PAULI_Z, DIAG_XZ]
        v = np.array([1.0, 0.0], dtype=complex)
        assert np.allclose(
            apply_string(ops[:2], 0b11, v), PAULI_X @ (PAULI_Z @ v)
        )
        for t in range(2**3):
            assert np.allclose(apply_string(ops, t, v), ordered_power(ops, t) @ v)


class TestPauliObservables:
    def test_squares_to_identity(self):
        for name, op in pauli_observables().items():
            assert np.allclose(op @ op, np.eye(2), atol=1e-12), name

    def test_anticommutation(self):
        assert np.allclose(PAULI_X @ PAULI_Z + PAULI_Z @ PAULI_X, 0)

    def test_diagonal_combinations(self):
        assert np.allclose(DIAG_XZ, (PAULI_X + PAULI_Z) / SQRT2)
        assert np.allclose(ANTIDIAG_XZ, (PAULI_X - PAULI_Z) / SQRT2)


class TestGraphState:
    def test_single_edge_amplitudes_exact(self):
        psi = honest_my_strategy(1).state
        assert np.array_equal(psi, np.array([[0.5, 0.5], [0.5, -0.5]], dtype=complex))

    def test_two_pairs_equals_product_in_block_order(self):
        # Pair k entangles qubit k with qubit k+2; qubits (1,2) are Alice's
        # rows, (3,4) Bob's columns.  Build the product of per-pair states with
        # an explicit amplitude-by-amplitude loop as the oracle.
        psi = honest_my_strategy(2).state
        pair = np.array([0.5, 0.5, 0.5, -0.5])
        expected = np.zeros((4, 4), dtype=complex)
        for a1, a2, b1, b2 in itertools.product((0, 1), repeat=4):
            expected[(a1 << 1) | a2, (b1 << 1) | b2] = pair[(a1 << 1) | b1] * pair[(a2 << 1) | b2]
        assert np.array_equal(psi, expected)

    def test_signs_are_the_half_swap_phase(self):
        # Row a and column b of the sign matrix hold the phase of the 2m-bit string ab.
        for m in range(1, 5):
            expected = np.array([[(-1.0) ** half_swap_phase((a << m) | b, 2 * m)
                                  for b in range(2**m)] for a in range(2**m)])
            assert np.array_equal(half_swap_signs(m), expected)


class TestExpectation:
    def test_pair_correlations_via_embedding(self):
        psi = honest_my_strategy(2).state.reshape(-1)
        for k in (1, 2):
            op = embed(PAULI_X, 4, sites=(k,)) @ embed(PAULI_Z, 4, sites=(k + 2,))
            assert expectation(psi, op) == pytest.approx(1.0, abs=1e-12)

    def test_single_pair_oracle_values(self):
        # Independent oracle: direct 4x4 matrices via np.kron.
        psi = ebit_state()
        assert expectation(psi, np.kron(PAULI_Z, PAULI_X)) == pytest.approx(1.0)
        assert expectation(psi, np.kron(PAULI_X, DIAG_XZ)) == pytest.approx(1 / SQRT2)
        assert expectation(psi, np.kron(PAULI_X, PAULI_X)) == pytest.approx(0.0, abs=1e-12)

    def test_imaginary_part_guarded(self):
        psi = np.array([1, 1]) / SQRT2
        lowering = np.array([[0, 1j], [0, 0]])
        with pytest.raises(RuntimeError):
            expectation(psi, lowering)

    def test_bipartite_matches_embedding(self):
        psi = ebit_state()
        direct = bipartite_expectation(psi.reshape(2, 2), PAULI_X, DIAG_XZ)
        assert direct == pytest.approx(expectation(psi, np.kron(PAULI_X, DIAG_XZ)))

    def test_bipartite_needs_a_matrix(self):
        with pytest.raises(ValueError, match=r"state has shape \(4,\), need a \(d_A, d_B\) matrix"):
            bipartite_expectation(ebit_state(), PAULI_X, DIAG_XZ)


class TestWalshHadamard:
    def test_one_qubit(self):
        assert np.allclose(walsh_hadamard(1), DIAG_XZ)

    def test_tensor_structure(self):
        assert np.allclose(walsh_hadamard(2), np.kron(walsh_hadamard(1), walsh_hadamard(1)))

    def test_unitary(self):
        h = walsh_hadamard(3)
        assert np.allclose(h @ h, np.eye(8), atol=1e-12)

    def test_entries_are_signed_parities(self):
        for n in range(1, 7):
            expected = np.array(
                [[(-1.0) ** (u & v).bit_count() for v in range(2**n)] for u in range(2**n)]
            ) / 2 ** (n / 2)
            assert np.array_equal(walsh_hadamard(n), expected)
