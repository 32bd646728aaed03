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

No block of the image is formed.  Bob's half is rotated with H = 2^(m/2) W,
whose entries are +-1, in place of W: the image so rotated is 2^(m/2) times
the unitary one, and its targets are signed copies of the junk J itself.
Let R_t be its row block of t_A = t (rows s_A, a), C_u its column block of
u (columns s_B, b), u(t) = t ^ q_A ^ p_B, and s_t the sign of row block t's
target.  Reduced QR gives R_t = Q_t F_t and C_u^H = P_u G_u, with Q_t and
P_u of orthonormal columns and F_t, G_u square, and C_(v != u) = L_u Q'^H
for the rest of row t.  With Y = s_t F_t psi' G_u^H and u = u(t), the
residual of target block (t, u) is
    s_t (R_t psi' C_u - s_t J) = Q_t (Y P_u^H - Q_t^H J) - (I - Q_t Q_t^H) J,
two parts with orthogonal column spaces, and the first factor is
    Y P_u^H - Q_t^H J = (Y - J'_(t,u)) P_u^H - (Q_t^H J - J'_(t,u) P_u^H),
    J'_(t,u) = Q_t^H J P_u,
two parts with orthogonal row spaces.  Pythagoras, twice:
    || R_t psi' C_u - s_t J ||^2 = || Y - J'_(t,u) ||^2 + rho_(t,u),
    rho_(t,u) = || J - Q_t (Q_t^H J) ||^2 + || Q_t^H J - J'_(t,u) P_u^H ||^2,
and the blocks of row t that hold no target add || R_t psi' C_(v != u) ||^2
= || F_t psi' L_u ||^2.  Undoing the factor 2^(m/2) of H,
    d^2 = 2^(-m) (sum_t || F_t psi' [s_t G_u(t)^H | L_u(t)] - [J'_(t,u(t)) | 0] ||^2
                  + sum_t rho_(t,u(t))).
J' and rho depend on (t, u) only, and u(t) on t and c = q_A ^ p_B only, so a
context keeps J'_(t, t^c) and sum_t rho_(t, t^c) by c.  A call forms the
factors of its own pair, (F X^(q_A) Z^(p_A)) psi'_b with F the stacked F_t
and psi'_b = psi (X^(q_B) Z^(p_B))^T, then 2^m products of d_A x d_B matrices.

Each rho term is the norm of a residual matrix, never a difference of norms
such as ||J||^2 - ||Q_t^H J||^2, and the off-diagonal part is not taken as a
trace tr(psi'^H A psi' G) over a Gram matrix G, nor through a Cholesky or
eigh factor of one: at zero noise d^2 is about 1e-32, and each of these
leaves about 1e-16 of rounding in it, 1e-8 in d, above the 1e-9 check.
When J lies in the span of the blocks, as at zero noise, the residual
matrices have entries of rounding size, and QR of the blocks themselves is
backward stable, so the zero-noise distance stays near 1e-16.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    my_parallel_bound,
    my_parallel_recomputed_bound,
    spp_recomputed_bound,
    spp_selftest_bound,
)
from .linalg import NORM_ATOL, half_swap_signs
from .protocols import TestSpec
from .strategies import FLAVORS, MY_FLAVOR, SPP_FLAVOR, Strategy

# n = 2m X/Z indices at most; at n = 8 an honest strategy's context holds 4.4 MB,
# 2 MB of it the targets J' and 1 MB each Alice's X^q Z^p and Bob's psi (X^q Z^p)^T.
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
        self.hadamard = half_swap_signs(self.m)
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


def apply_isometry(s: Strategy, psi: np.ndarray, flavor: str) -> np.ndarray:
    """Image of a (d_A, d_B) system state under the isometry, axes (system, S, U)."""
    tables = KrausTables(*party_observables(s, flavor))
    if np.shape(psi) != (s.dim_a, s.dim_b):
        raise ValueError(f"input shape {np.shape(psi)} != system shape {(s.dim_a, s.dim_b)}")
    image = tables.image(psi).reshape(s.dim_a * s.dim_b, 4**s.m, 4**s.m)
    norm = np.linalg.norm(image)
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise ValueError(f"image norm {norm} deviates from 1 beyond atol={NORM_ATOL}")
    return image


def junk_state(s: Strategy, flavor: str) -> np.ndarray:
    """The residual state, axes (system, S); its norm must come out 1."""
    junk = KrausTables(*party_observables(s, flavor)).junk(s.state)
    half = 2**s.m
    junk = junk.reshape(half, s.dim_a, half, s.dim_b).transpose(1, 3, 0, 2)
    return junk.reshape(s.dim_a * s.dim_b, half * half)


class IsometryContext:
    """Shared pieces for many distance evaluations of one strategy.

    The image is held in the Hadamard basis u of Bob's half of U, through the
    reduced QR factors of its blocks (module docstring): F_t of Alice's row
    block t, stacked, with her X^q Z^p table, and [G_u^H | L_u] of Bob's column
    block u with its negation, with psi times his transposed X^q Z^p.  The
    projected targets J'_(t, t^c) and the sum over t of rho_(t, t^c) are kept
    by c = q_A ^ p_B.  No product of F with a Pauli string is kept: a call
    forms its own, so the context grows 16-fold per step of m, not 32-fold.
    """

    def __init__(self, s: Strategy, flavor: str):
        self.n = 2 * s.m
        tables = KrausTables(*party_observables(s, flavor))
        half, (d_a, d_b) = 2**s.m, tables.dims
        psi = s.state
        junk = tables.junk(psi)
        # X^q Z^p of Alice by [q, p]; psi times Bob's transposed X^q Z^p by [q, p].
        self._pauli_a = tables.x_a[:, None] @ tables.z_a[None]
        self._psi_b = psi @ (tables.x_b[:, None] @ tables.z_b[None]).swapaxes(2, 3)
        # R_t by t, and C_u^H by u, taken with H: no inexact 2^(-m/2) scale at odd m.
        rows = tables.rows_a.reshape(half, -1, d_a) * 2.0**-s.m
        cols = (tables.hadamard @ tables.cols_b.reshape(d_b, half, -1)).transpose(1, 2, 0).conj()
        # R_t = Q_t F_t and C_u^H = P_u G_u, each Q_t and P_u with orthonormal
        # columns.  C_(v != u) = L_u Q^H: L_u comes from the R factors G_v of
        # single blocks, so that QR runs on 2^m - 1 stacked d_B x d_B factors.
        q_rows, f_rows = np.linalg.qr(rows)
        p_cols, g_cols = np.linalg.qr(cols)
        bits = np.arange(half)
        others = g_cols[bits[:, None] ^ bits[1:]].reshape(half, -1, d_b)
        self._cols = np.empty((2 * half, d_b, 2 * d_b), dtype=complex)
        self._cols[:half, :, :d_b] = g_cols.conj().swapaxes(1, 2)
        self._cols[:half, :, d_b:] = np.linalg.qr(others, mode="r").conj().swapaxes(1, 2)
        np.negative(self._cols[:half], out=self._cols[half:])
        # [J'_(t, t^c) | 0] by [c, t], and rho_sum[c] = sum_t rho_(t, t^c), one
        # row block t at a time: its residuals hold 2^m d_A x 2^m d_B entries each.
        self._targets = np.zeros((half, half, d_a, 2 * d_b), dtype=complex)
        self._rho = np.zeros(half)
        p_adj = p_cols.conj().swapaxes(1, 2)
        for t in range(half):
            qj = q_rows[t].conj().T @ junk  # Q_t^H J
            jp = qj @ p_cols  # J'_(t, u) by u
            rho = (np.linalg.norm(qj - jp @ p_adj, axis=(1, 2)) ** 2
                   + np.linalg.norm(junk - q_rows[t] @ qj) ** 2)
            self._targets[:, t, :, :d_b] = jp[bits ^ t]
            self._rho += rho[bits ^ t]
        # Row block t meets its target in u = t ^ q_A ^ p_B with sign
        # (-1)^(|p_A & p_B| + |u & (p_A ^ q_B)|): _select[q_A ^ p_B, p_A ^ q_B,
        # |p_A & p_B| mod 2, t] is u, plus 2^m where the sign is -1.
        c, x, g, t = np.ix_(bits, bits, (0, 1), bits)
        self._select = (t ^ c) + half * (g ^ (np.bitwise_count(x & (t ^ c)) & 1))
        self._f_rows = f_rows.reshape(-1, d_a)  # F_t by t, rows (t, a)
        self._last_f_pauli = (None, None)  # ((q_A, p_A), F X^(q_A) Z^(p_A)) of the last call

    def distance(self, p: int, q: int) -> float:
        """|| Phi(X^q Z^p psi') - junk x (X^q Z^p ideal) ||, phase-exact, for
        the n-bit strings p and q as big-endian ints."""
        if not (0 <= p < 2**self.n and 0 <= q < 2**self.n):
            raise ValueError(f"p, q must be in [0, 2^{self.n}), got {p}, {q}")
        half = len(self._rho)
        (pa, pb), (qa, qb) = divmod(p, half), divmod(q, half)
        c = qa ^ pb
        # Each column block carries its target's sign, so every target is +J'.
        signed = self._select[c, pa ^ qb, (pa & pb).bit_count() & 1]
        # F_t psi' by t, associated as (F X^qa Z^pa) psi'_b: the other order
        # rounds differently.  Exhaustive pairs run q fastest, so 2^m calls in
        # a row share (q_A, p_A) and reuse the last call's F X^qa Z^pa.
        key, f_pauli = self._last_f_pauli
        if key != (qa, pa):
            f_pauli = self._f_rows @ self._pauli_a[qa, pa]
            self._last_f_pauli = (qa, pa), f_pauli
        rows = f_pauli @ self._psi_b[qb, pb]
        res = rows.reshape(half, -1, rows.shape[1]) @ self._cols.take(signed, axis=0)
        res -= self._targets[c]  # [F_t psi' G_u^H - J'_(t, u) | F_t psi' L_u]
        flat = res.reshape(-1).view(np.float64)
        return math.sqrt((flat @ flat + self._rho[c]) / half)


@dataclass(frozen=True, slots=True)  # no __dict__: 65536 of them at exhaustive m = 4
class IsometryReport:
    p: int  # n-bit strings as big-endian ints
    q: int
    distance: float
    bounds: dict
    passed: bool  # against the larger of the two bound paths


def pair_policy(n: int, pairs: str) -> str:
    """The policy that pairs names at n: auto is exhaustive up to 256 pairs, else a sample."""
    return ("exhaustive" if 4**n <= 256 else "sample") if pairs == "auto" else pairs


def select_pairs(
    n: int, pairs: str = "auto", seed: int = 0, sample_count: int = 64
) -> list[tuple[int, int]]:
    """Distinct (p, q) pairs of n-bit strings, as big-endian ints, to verify:
    all 4^n when affordable, else a seeded sample.

    A sample draws p, then q, and skips a pair it already holds until it holds
    sample_count pairs.  Near 4^n that is a coupon collector's count of draws:
    sample:65536 at n = 8 takes about 1.5M scalar draws.
    """
    pairs = pair_policy(n, pairs)
    if pairs == "exhaustive":
        return list(itertools.product(range(2**n), repeat=2))
    if pairs == "sample":
        if sample_count > 4**n:
            raise ValueError(f"sample:{sample_count} exceeds the {4**n} distinct (p, q) pairs "
                             f"of n={n}; use --pairs exhaustive")
        rng = np.random.default_rng(seed)
        drawn: dict[tuple[int, int], None] = {}  # in order of first draw
        while len(drawn) < sample_count:
            drawn[int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))] = None
        return list(drawn)
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
        bounds = {name: fn(n, p.bit_count(), eps) for name, fn in bound_fns.items()}
        dist = ctx.distance(p, q)
        return IsometryReport(p, q, dist, bounds, dist <= max(bounds.values()) + DISTANCE_SLACK)

    return [evaluate(pq) for pq in selected]
