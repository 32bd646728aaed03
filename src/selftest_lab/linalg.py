"""Dense complex linear algebra for small quantum systems.

States are flat complex vectors over an ordered register layout; the first
register is the most significant index block (matching the usual Kronecker
ordering), so an n-qubit basis state |x> sits at the big-endian index of x.
Everything here is exact dense arithmetic; nothing is sampled or truncated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .bitstrings import AdjacencyMatrix, BitString, adjacency_phase

STRUCTURAL_ATOL = 1e-10  # Hermitian/unitary/projector checks
NORM_ATOL = 1e-12  # state normalization at construction

_SQRT2 = math.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
DIAG_XZ = (PAULI_X + PAULI_Z) / _SQRT2
ANTIDIAG_XZ = (PAULI_X - PAULI_Z) / _SQRT2


def pauli_observables() -> dict[str, np.ndarray]:
    """The four single-qubit observables used by the tests, keyed by symbol."""
    return {"X": PAULI_X, "Z": PAULI_Z, "D": DIAG_XZ, "E": ANTIDIAG_XZ}


Layout = tuple[tuple[str, int], ...]


def _normalize_layout(layout) -> Layout:
    out = tuple((str(name), int(dim)) for name, dim in layout)
    if not out:
        raise ValueError("layout must have at least one register")
    if any(dim < 1 for _, dim in out):
        raise ValueError(f"register dimensions must be positive: {out}")
    return out


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over a declared register layout."""

    amps: np.ndarray
    layout: Layout

    def __init__(self, amps, layout, atol: float = NORM_ATOL):
        layout = _normalize_layout(layout)
        a = np.array(amps, dtype=complex)
        if a.ndim != 1:
            raise ValueError(f"amplitudes must be a flat vector, got shape {a.shape}")
        total = math.prod(dim for _, dim in layout)
        if total != a.size:
            raise ValueError(
                f"layout dimensions multiply to {total}, got {a.size} amplitudes"
            )
        norm = np.linalg.norm(a)
        if not abs(norm - 1.0) <= atol:  # also true for a NaN norm
            raise ValueError(f"state norm {norm} deviates from 1 beyond atol={atol}")
        a /= norm
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)
        object.__setattr__(self, "layout", layout)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.layout)

    @property
    def dim(self) -> int:
        return self.amps.size

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def with_layout(self, layout) -> "StateVector":
        """Re-declare the register structure of the same amplitudes."""
        return StateVector(self.amps, layout)


def kron(*mats: np.ndarray) -> np.ndarray:
    return functools.reduce(np.kron, mats)


def embed(op: np.ndarray, layout, sites: Union[str, Sequence[int]]) -> np.ndarray:
    """Place an operator on its sites with identity elsewhere.

    ``sites`` is a register name from the layout, or a tuple of 1-based qubit
    positions when every register in the layout is a qubit.
    """
    mat = np.asarray(op, dtype=complex)
    layout = _normalize_layout(layout)

    if isinstance(sites, str):
        names = [name for name, _ in layout]
        if sites not in names:
            raise ValueError(f"register {sites!r} not in layout {names}")
        pieces = []
        for name, dim in layout:
            if name == sites:
                if mat.shape[0] != dim:
                    raise ValueError(
                        f"operator dim {mat.shape[0]} != register {name!r} dim {dim}"
                    )
                pieces.append(mat)
            else:
                pieces.append(np.eye(dim))
        return kron(*pieces)

    if any(dim != 2 for _, dim in layout):
        raise ValueError("qubit-site embedding needs an all-qubit layout")
    n = len(layout)
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


def qubit_layout(n: int) -> Layout:
    return tuple((f"q{k}", 2) for k in range(1, n + 1))


def ordered_power(ops: Sequence[np.ndarray], t: BitString) -> np.ndarray:
    """Product of ops[k]^(t_k) with the index increasing from left to right.

    Acting on a state, the highest selected index is applied first.  The
    order matters whenever the family does not commute.
    """
    if len(ops) != t.n:
        raise ValueError(f"family size {len(ops)} != exponent length {t.n}")
    dim = ops[0].shape[0] if ops else 1
    acc = np.eye(dim, dtype=complex)
    for k in range(1, t.n + 1):
        if t.bit(k):
            acc = acc @ ops[k - 1]
    return acc


def graph_state(adj: AdjacencyMatrix) -> StateVector:
    """The n-qubit state 2^(-n/2) Sum_u (-1)^(P(u)) |u> for the phase P of adj."""
    n = adj.n
    scale = 2.0 ** (-n / 2)
    amps = np.empty(2**n, dtype=complex)
    for u in BitString.all_strings(n):
        amps[u.value] = -scale if adjacency_phase(u, adj) else scale
    return StateVector(amps, qubit_layout(n))


def real_expectation(val: complex) -> float:
    """The real part of an expectation value; a large imaginary part is an error."""
    if abs(val.imag) >= 1e-10:
        raise RuntimeError(f"expectation has imaginary part {val.imag}")
    return val.real


def expectation(state: StateVector, op: np.ndarray) -> float:
    """Real expectation <state|op|state>; a large imaginary part is an error."""
    return real_expectation(complex(np.vdot(state.amps, op @ state.amps)))


def bipartite_expectation(
    state: StateVector,
    op_a: Optional[np.ndarray] = None,
    op_b: Optional[np.ndarray] = None,
) -> float:
    """<state|(A x I)(I x B)|state> on a two-register state, without kron."""
    if len(state.layout) != 2:
        raise ValueError(f"state has {len(state.layout)} registers, need 2")
    psi = state.reshaped()
    out = psi
    if op_a is not None:
        out = op_a @ out
    if op_b is not None:
        out = out @ op_b.T
    return real_expectation(complex(np.vdot(psi, out)))


def walsh_hadamard(n: int) -> np.ndarray:
    """Normalized H^(x n): entry (u, v) = (-1)^(u.v) / 2^(n/2)."""
    u = np.arange(2**n)
    return ((-1.0) ** np.bitwise_count(u[:, None] & u[None, :])) / 2 ** (n / 2)
