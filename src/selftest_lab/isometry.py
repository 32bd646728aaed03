"""Explicit construction of the self-testing isometry and distance checks.

The isometry attaches 2n ancilla qubits in n entangled pairs (block S holds
qubits 1..n, block U holds n+1..2n), then alternates controlled applications
of the strategy's X/Z observables with Hadamards on block U.  On the output
registers (system, S, U) the residual state lands on (system, S) and the
ideal pair state materializes on U; the distance between the isometry image
and residual x ideal is what the robustness bounds cap.

Closed form, for ordered strings and P^r = prod_k (I + (-1)^(r_k) Z_k)/2:
    controlled X, H:  2^(-n) sum_(s,u) (-1)^(s.u) X^s psi |s>|u>
    controlled Z, H:  2^(-n/2) sum_(s,t) P^(s^t) X^s psi |s>|t>, since for any
                      operators sum_u (-1)^(u.r) Z^u = prod_k (I + (-1)^(r_k) Z_k)
    controlled X:     image[:, s, t] = 2^(-n/2) X^t P^(s^t) X^s psi
    residual state:   junk[:, s] = (-1)^(s_A.s_B) P^s psi, the half-swap phase
                      times the controlled-Z step's Walsh-Hadamard sum
With Alice on indices 1..m and Bob on m+1..2m, X^t P^(s^t) X^s factors as
K_A[t_A, s_A] x K_B[t_B, s_B], and P^s as P_A^(s_A) x P_B^(s_B), one table
per party's local observables.

Distances are taken in the Hadamard basis u of Bob's half t_B of U, with W
the normalized Walsh-Hadamard, W[u, t_B] = 2^(-m/2) (-1)^(u.t_B); W is
unitary, so every distance is unchanged.  The ideal state is the half-swap
graph state 2^(-m) (-1)^(t_A.t_B), and summing over w = t_B ^ q_B gives
    (I x W) X^q Z^p ideal [t_A, u] = 2^(-m/2) (-1)^(|(t_A^q_A) & p_A| + |u & q_B|)
                                     if u = t_A ^ q_A ^ p_B, else 0,
so junk x X^q Z^p ideal fills only 2^m blocks (t_A, u) of the rotated image,
each a signed copy of 2^(-m/2) junk; the sign is (-1)^(|p_A & p_B| +
|u & (p_A ^ q_B)|), a row of the Hadamard sign matrix times a global sign.

Only those 2^m blocks of the image are formed.  With R_t the row block of
t_A = t (rows s_A, a), C_u the column block of u (columns s_B, b) and
u(t) = t ^ q_A ^ p_B, the rest of row block t is R_t psi' C_(v != u(t)).  QR
factors R_t = Q F_t and C_(v != u) = L_u Q'^H, with Q and Q' of orthonormal
columns, leave its norm to a d_A x d_B product:
    d^2 = sum_t || R_t psi' C_u(t) - sign 2^(-m/2) junk ||^2
              + || F_t psi' L_u(t) ||^2.
The off-diagonal part is not taken as ||image||^2 - ||target blocks||^2, nor
as a trace tr(psi'^H A psi' G) over a Gram matrix G, nor through a Cholesky
or eigh factor of G: at zero noise d^2 is about 1e-32, and each of these
leaves about 1e-16 of rounding in it, 1e-8 in d, above the 1e-9 check.  QR
of the blocks themselves is backward stable, so the zero-noise distance
stays near 1e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bitstrings import BitString, hamming_weight
from .bounds import (
    VACUOUS_THRESHOLD,
    my_parallel_bound,
    my_parallel_recomputed_bound,
    spp_recomputed_bound,
    spp_selftest_bound,
)
from .linalg import StateVector
from .protocols import TestSpec
from .strategies import FLAVORS, MY_FLAVOR, SPP_FLAVOR, Strategy

# n = 2m X/Z indices at most; at n = 8 one distance holds 16 MB of target blocks.
ISOMETRY_LIMIT = 8
DISTANCE_SLACK = 1e-9  # numerical slack when comparing distance to a bound


def check_isometry_size(n: int) -> None:
    if n > ISOMETRY_LIMIT:
        raise ValueError(f"the isometry needs n <= {ISOMETRY_LIMIT} (m <= "
                         f"{ISOMETRY_LIMIT // 2}), got n={n}")


def party_observables(s: Strategy, flavor: str):
    """Party-local ((X_1..X_m), (Z_1..Z_m)) of Alice, then of Bob."""
    check_isometry_size(2 * s.m)  # every entry point starts here, before any array
    kinds = [FLAVORS[flavor].symbol_kind(symbol, s.m) for symbol in "XZ"]
    return tuple(
        tuple(list(s.measurement(party, kind).observables) for kind in kinds)
        for party in ("alice", "bob")
    )


def _ordered_products(factors: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """F_1^(r_1)...F_m^(r_m) by big-endian index r; factors[k-1] = (F_k^0, F_k^1)."""
    out = np.eye(factors[0][0].shape[0], dtype=complex)[None]
    for f0, f1 in reversed(factors):
        out = np.concatenate([f0 @ out, f1 @ out])
    return out


def _party_tables(xs: list[np.ndarray], zs: list[np.ndarray]):
    """One party's X strings, Z strings, P strings and K[t, s] = X^t P^(s^t) X^s."""
    eye = np.eye(xs[0].shape[0])
    x = _ordered_products([(eye, op) for op in xs])
    z = _ordered_products([(eye, op) for op in zs])
    proj = _ordered_products([((eye + op) / 2, (eye - op) / 2) for op in zs])
    idx = np.arange(len(x))
    return x, z, proj, x[:, None] @ proj[idx[:, None] ^ idx] @ x[None, :]


class KrausTables:
    """The isometry as K_A[t_A, s_A] x K_B[t_B, s_B] on (d_A, d_B) state matrices."""

    def __init__(self, alice, bob):
        self.m = len(alice[0])
        self.x_a, self.z_a, self.p_a, k_a = _party_tables(*alice)
        self.x_b, self.z_b, self.p_b, k_b = _party_tables(*bob)
        self.dims = (k_a.shape[-1], k_b.shape[-1])
        bits = np.arange(2**self.m)
        self.hadamard = (-1.0) ** np.bitwise_count(bits[:, None] & bits)  # entries +-1
        # Rows (t_A, s_A, a) and columns (t_B, s_B, b).
        self.rows_a = k_a.reshape(-1, self.dims[0])
        self.cols_b = k_b.reshape(-1, self.dims[1]).T

    def image(self, psi: np.ndarray) -> np.ndarray:
        """The image of a (d_A, d_B) matrix, axes (a, b, s_A, s_B, t_A, t_B)."""
        half, (d_a, d_b) = 2**self.m, self.dims
        image = self.rows_a @ (psi * 2.0**-self.m) @ self.cols_b
        return image.reshape(half, half, d_a, half, half, d_b).transpose(2, 5, 1, 4, 0, 3)

    def junk(self, psi: np.ndarray) -> np.ndarray:
        """Residual state, rows (s_A, a) and columns (s_B, b); its norm must be 1."""
        half, (d_a, d_b) = 2**self.m, self.dims
        junk = self.p_a.reshape(-1, d_a) @ psi @ self.p_b.reshape(-1, d_b).T
        junk = junk.reshape(half, d_a, half, d_b) * self.hadamard[:, None, :, None]
        norm = np.linalg.norm(junk)
        if abs(norm - 1.0) > 1e-9:
            raise RuntimeError(f"residual state norm {norm} deviates from 1")
        return junk.reshape(half * d_a, half * d_b)


def apply_isometry(
    s: Strategy,
    input_state: Union[StateVector, np.ndarray],
    flavor: str,
):
    """Image of a system state under the isometry.

    A StateVector input yields a StateVector on (system, S, U); a raw vector
    yields the raw image (useful for linearity checks, no normalization).
    """
    tables = KrausTables(*party_observables(s, flavor))
    system_dim, ancilla_dim = s.dim_a * s.dim_b, 4**s.m
    raw = isinstance(input_state, np.ndarray)
    vec = input_state if raw else input_state.amps
    if vec.shape != (system_dim,):
        raise ValueError(f"input dimension {vec.shape} != system dimension {system_dim}")
    psi = np.asarray(vec, dtype=complex).reshape(s.dim_a, s.dim_b)
    image = tables.image(psi).reshape(-1)
    if raw:
        return image
    return StateVector(image, (("system", system_dim), ("S", ancilla_dim), ("U", ancilla_dim)))


def junk_state(s: Strategy, flavor: str) -> StateVector:
    """The residual state on (system, S); its norm must come out 1."""
    junk = KrausTables(*party_observables(s, flavor)).junk(s.state.reshaped())
    half = 2**s.m
    junk = junk.reshape(half, s.dim_a, half, s.dim_b).transpose(1, 3, 0, 2)
    layout = (("system", s.dim_a * s.dim_b), ("S", half * half))
    return StateVector(junk.reshape(-1), layout, atol=1e-9)


class IsometryContext:
    """Shared pieces for many distance evaluations of one strategy.

    The image is held in the Hadamard basis u of Bob's half of U: row block
    R_t holds rows (s_A, a) of t_A = t, column block C_u columns (u, s_B, b).
    A call writes the 2^m target blocks into one buffer and takes the rest of
    the image from the QR factors F_t and L_u (module docstring).
    """

    def __init__(self, s: Strategy, flavor: str):
        self.n = 2 * s.m
        tables = KrausTables(*party_observables(s, flavor))
        half, (d_a, d_b) = 2**s.m, tables.dims
        psi = s.state.reshaped()
        self._junk = tables.junk(psi)
        # X^q Z^p of Alice by [q, p]; psi times Bob's transposed X^q Z^p by [q, p].
        self._pauli_a = tables.x_a[:, None] @ tables.z_a[None]
        self._psi_b = psi @ (tables.x_b[:, None] @ tables.z_b[None]).swapaxes(2, 3)
        rows_t, cols_u = half * d_a, half * d_b
        # [R_t ; F_t] by t, and [C_u | L_u] by u followed by its negation,
        # each written in place: no concatenated or negated temporaries.
        self._rows = np.empty((half, rows_t + d_a, d_a), dtype=complex)
        self._cols = np.empty((2 * half, d_b, cols_u + d_b), dtype=complex)
        rows, cols = self._rows[:, :rows_t], self._cols[:half, :, :cols_u]
        np.multiply(tables.rows_a.reshape(half, -1, d_a), 2.0**-s.m, out=rows)
        # H = 2^(m/2) W has entries +-1: H image - junk is 2^(m/2) times the
        # residual, with no inexact 2^(-m/2) scale at odd m.
        np.matmul(tables.hadamard, tables.cols_b.reshape(d_b, half, -1),
                  out=cols.transpose(1, 0, 2))
        # R_t = Q F_t and C_(v != u) = L_u Q^H, each Q with orthonormal columns.
        # L_u comes from the R factors r_v of single blocks C_v^H = Q_v r_v, so
        # the QR runs on 2^m - 1 stacked d_B x d_B factors, not on whole blocks.
        self._rows[:, rows_t:] = np.linalg.qr(rows, mode="r")
        blocks = np.linalg.qr(cols.conj().swapaxes(1, 2), mode="r")
        bits = np.arange(half)
        others = blocks[bits[:, None] ^ bits[1:]].reshape(half, -1, d_b)
        np.conjugate(np.linalg.qr(others, mode="r").swapaxes(1, 2),
                     out=self._cols[:half, :, cols_u:])
        np.negative(self._cols[:half], out=self._cols[half:])
        self._rows = self._rows.reshape(-1, d_a)
        # Row block t meets its target in u = t ^ q_A ^ p_B with sign
        # (-1)^(|p_A & p_B| + |u & (p_A ^ q_B)|): _select[q_A ^ p_B, p_A ^ q_B,
        # |p_A & p_B| mod 2, t] is u, plus 2^m where the sign is -1.
        c, x, g, t = np.ix_(bits, bits, (0, 1), bits)
        self._select = (t ^ c) + half * (g ^ (np.bitwise_count(x & (t ^ c)) & 1))
        self._buf = np.empty((half, *self._junk.shape), dtype=complex)

    def distance(self, p: BitString, q: BitString) -> float:
        """|| Phi(X^q Z^p psi') - junk x (X^q Z^p ideal) ||, phase-exact."""
        if p.n != self.n or q.n != self.n:
            raise ValueError(f"p, q must have length {self.n}")
        buf = self._buf
        half, rows_t, cols_u = buf.shape
        (pa, pb), (qa, qb) = divmod(p.value, half), divmod(q.value, half)
        psi = self._pauli_a[qa, pa] @ self._psi_b[qb, pb]
        # Each column block carries its target's sign, so every target is +junk.
        signed = self._select[qa ^ pb, pa ^ qb, (pa & pb).bit_count() & 1]
        cols = self._cols.take(signed, axis=0)
        rows = (self._rows @ psi).reshape(half, -1, psi.shape[1])
        np.matmul(rows[:, :rows_t], cols[..., :cols_u], out=buf)
        buf -= self._junk
        off = rows[:, rows_t:] @ cols[..., cols_u:]  # F_t psi' L_u
        # One dot per row, then numpy's pairwise sum of the rows: one running
        # sum (vdot) over the 16 MB buffer of m = 4 drifts by 1e-14.  The
        # off-diagonal term, 2^m d_A d_B entries, takes one.
        flat = buf.reshape(-1, cols_u).view(np.float64)
        total = (flat[:, None] @ flat[:, :, None]).sum() + np.vdot(off, off).real
        return math.sqrt(total / half)


@dataclass(frozen=True)
class IsometryReport:
    p: str
    q: str
    distance: float
    bounds: dict
    passed: bool  # against the larger of the two bound paths

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "distance": self.distance,
            "bounds": dict(self.bounds),
            "vacuous": {k: v > VACUOUS_THRESHOLD for k, v in self.bounds.items()},
            "passed_by": {
                k: self.distance <= v + DISTANCE_SLACK for k, v in self.bounds.items()
            },
            "passed": self.passed,
        }


def select_pairs(
    n: int, pairs: str = "auto", seed: int = 0, sample_count: int = 64
) -> list[tuple[BitString, BitString]]:
    """(p, q) pairs to verify: all 4^n when affordable, else a seeded sample."""
    if pairs == "auto":
        pairs = "exhaustive" if 4**n <= 256 else "sample"
    if pairs == "exhaustive":
        strings = list(BitString.all_strings(n))
        return [(p, q) for p in strings for q in strings]
    if pairs == "sample":
        if sample_count > 4**n:
            raise ValueError(f"sample:{sample_count} exceeds the {4**n} distinct (p, q) pairs "
                             f"of n={n}; use --pairs exhaustive")
        rng = np.random.default_rng(seed)
        return [
            (
                BitString.from_index(int(rng.integers(0, 2**n)), n),
                BitString.from_index(int(rng.integers(0, 2**n)), n),
            )
            for _ in range(sample_count)
        ]
    raise ValueError(f"unknown pair policy {pairs!r}")


def _bound_functions(flavor: str) -> dict:
    """Name -> function of a flavor's printed bound, then its recomputed one.

    Looked up from this module's globals on each call, so a replaced
    global takes effect.
    """
    return {
        MY_FLAVOR: {
            "my-parallel": my_parallel_bound,
            "my-parallel-recomputed": my_parallel_recomputed_bound,
        },
        SPP_FLAVOR: {
            "spp": spp_selftest_bound,
            "spp-recomputed": spp_recomputed_bound,
        },
    }[flavor]


def verify_bound(
    s: Strategy,
    test: TestSpec,
    pairs: str = "auto",
    seed: int = 0,
    sample_count: int = 64,
    *,
    eps: float,
) -> list[IsometryReport]:
    """Distance-vs-bound report over selected (p, q) pairs.

    The bound compared against is the larger of the published closed form
    and the recomputed substitution path, evaluated at the measured epsilon.
    """
    n = 2 * s.m
    selected = select_pairs(n, pairs=pairs, seed=seed, sample_count=sample_count)
    ctx = IsometryContext(s, test.flavor)
    bound_fns = _bound_functions(test.flavor)

    def evaluate(pq):
        p, q = pq
        weight = hamming_weight(p)
        bounds = {name: fn(n, weight, eps) for name, fn in bound_fns.items()}
        dist = ctx.distance(p, q)
        return IsometryReport(
            p=str(p),
            q=str(q),
            distance=dist,
            bounds=bounds,
            passed=dist <= max(bounds.values()) + DISTANCE_SLACK,
        )

    return [evaluate(pq) for pq in selected]
