"""Dense complex linear algebra for small quantum systems.

A bipartite state is its (d_A, d_B) amplitude matrix psi, entry (a, b) the
amplitude of |a>|b>: flattened, it is the usual Kronecker-ordered vector,
and an n-qubit basis state |x> sits at the big-endian index of x.
Everything here is exact dense arithmetic; nothing is sampled or truncated.

The one graph state the lab needs, m e-bits pairing qubit k with k + m, is
2^(-m) (-1)^(a.b) over its halves a and b: ``half_swap_signs(m)`` is that
sign matrix, which is also the unnormalized Walsh-Hadamard transform.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

STRUCTURAL_ATOL = 1e-10  # Hermitian/unitary/projector checks
NORM_ATOL = 1e-12  # state normalization: a strategy's state, an isometry image

_SQRT2 = math.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
DIAG_XZ = (PAULI_X + PAULI_Z) / _SQRT2
ANTIDIAG_XZ = (PAULI_X - PAULI_Z) / _SQRT2


def pauli_observables() -> dict[str, np.ndarray]:
    """The four single-qubit observables used by the tests, keyed by symbol."""
    return {"X": PAULI_X, "Z": PAULI_Z, "D": DIAG_XZ, "E": ANTIDIAG_XZ}


def kron(*mats: np.ndarray) -> np.ndarray:
    return functools.reduce(np.kron, mats)


def embed(op: np.ndarray, n: int, sites: Sequence[int]) -> np.ndarray:
    """Place an operator on the 1-based qubit positions sites of n qubits,
    with identity elsewhere."""
    mat = np.asarray(op, dtype=complex)
    sites = tuple(int(k) for k in sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate sites {sites}")
    if any(not 1 <= k <= n for k in sites):
        raise ValueError(f"sites {sites} outside layout of {n} qubits")
    if mat.shape[0] != 2 ** len(sites):
        raise ValueError(f"operator dim {mat.shape[0]} != 2^{len(sites)}")
    rest = [q for q in range(1, n + 1) if q not in sites]
    order = list(sites) + rest  # tensor axis -> qubit position
    full = np.kron(mat, np.eye(2 ** len(rest)))
    t = full.reshape((2,) * (2 * n))
    perm = [order.index(q) for q in range(1, n + 1)]
    t = t.transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def ordered_power(ops: Sequence[np.ndarray], t: int) -> np.ndarray:
    """Product of ops[k]^(t_k) over the positions k of the bit string t, with
    the index increasing from left to right.

    Acting on a state, the highest selected index is applied first.  The
    order matters whenever the family does not commute.
    """
    n = len(ops)
    if not 0 <= t < 2**n:
        raise ValueError(f"exponent {t} out of range for a family of {n}")
    dim = ops[0].shape[0] if ops else 1
    acc = np.eye(dim, dtype=complex)
    for k in range(1, n + 1):
        if t >> (n - k) & 1:
            acc = acc @ ops[k - 1]
    return acc


def real_expectation(val: complex) -> float:
    """The real part of an expectation value; a large imaginary part is an error."""
    if abs(val.imag) >= 1e-10:
        raise RuntimeError(f"expectation has imaginary part {val.imag}")
    return val.real


def expectation(psi: np.ndarray, op: np.ndarray) -> float:
    """Real expectation <psi|op|psi> of a state vector; a large imaginary part is an error."""
    return real_expectation(complex(np.vdot(psi, op @ psi)))


def bipartite_expectation(
    psi: np.ndarray,
    op_a: Optional[np.ndarray] = None,
    op_b: Optional[np.ndarray] = None,
) -> float:
    """<psi|(A x I)(I x B)|psi> on a (d_A, d_B) amplitude matrix, without kron."""
    if psi.ndim != 2:
        raise ValueError(f"state has shape {psi.shape}, need a (d_A, d_B) matrix")
    out = psi
    if op_a is not None:
        out = op_a @ out
    if op_b is not None:
        out = out @ op_b.T
    return real_expectation(complex(np.vdot(psi, out)))


def half_swap_signs(m: int) -> np.ndarray:
    """The +-1 matrix (-1)^(a.b) over m-bit strings a (rows) and b (columns)."""
    a = np.arange(2**m)
    return (-1.0) ** np.bitwise_count(a[:, None] & a)


def walsh_hadamard(n: int) -> np.ndarray:
    """Normalized H^(x n): entry (u, v) = (-1)^(u.v) / 2^(n/2)."""
    return half_swap_signs(n) / 2 ** (n / 2)
