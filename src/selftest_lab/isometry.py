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
With Alice on indices 1..m and Bob on m+1..2m, X^t P^(s^t) X^s factors as
K_A[s_A, t_A] x K_B[s_B, t_B], one table per party's local observables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .bitstrings import AdjacencyMatrix, BitString, PhaseFunction, hamming_weight
from .bounds import (
    VACUOUS_THRESHOLD,
    my_parallel_bound,
    my_parallel_recomputed_bound,
    spp_recomputed_bound,
    spp_selftest_bound,
)
from .linalg import StateVector, graph_state, walsh_hadamard
from .protocols import TestSpec
from .strategies import FLAVORS, Strategy

# n = 2m X/Z indices at most; at n = 8 one distance holds a 16 MB image block.
ISOMETRY_LIMIT = 8
DISTANCE_SLACK = 1e-9  # numerical slack when comparing distance to a bound


def check_isometry_size(n: int) -> None:
    if n > ISOMETRY_LIMIT:
        raise ValueError(f"the isometry needs n <= {ISOMETRY_LIMIT} (m <= "
                         f"{ISOMETRY_LIMIT // 2}), got n={n}")


@dataclass(frozen=True)
class IsometryPlan:
    """Register bookkeeping for the six-step isometry."""

    system_dim: int
    n: int  # number of X/Z indices; ancillas count 2n

    @property
    def output_layout(self):
        return (("system", self.system_dim), ("S", 2**self.n), ("U", 2**self.n))


def detect_flavor(s: Strategy) -> str:
    """Infer which test's named questions a strategy carries."""
    kinds = set(s.kinds("alice"))
    for name, flavor in FLAVORS.items():
        if {flavor.symbol_kind("X", s.m), flavor.symbol_kind("Z", s.m)} <= kinds:
            return name
    raise ValueError(
        "strategy exposes neither the X/Z questions nor the all-X/all-Z strings"
    )


def party_observables(s: Strategy, flavor: Optional[str] = None):
    """Party-local ((X_1..X_m), (Z_1..Z_m)) of Alice, then of Bob."""
    check_isometry_size(2 * s.m)  # every entry point starts here, before any array
    if flavor is None:
        flavor = detect_flavor(s)
    kinds = [FLAVORS[flavor].symbol_kind(symbol, s.m) for symbol in "XZ"]
    return tuple(
        tuple([s.observable(party, kind, k) for k in range(1, s.m + 1)] for kind in kinds)
        for party in ("alice", "bob")
    )


def xz_observables(s: Strategy, flavor: Optional[str] = None) -> tuple[list, list]:
    """Full-system X_k and Z_k observables for k = 1..2m.

    Indices 1..m act on Alice's factor, m+1..2m on Bob's.
    """
    (xa, za), (xb, zb) = party_observables(s, flavor)
    eye_a, eye_b = np.eye(s.dim_a), np.eye(s.dim_b)
    return tuple(
        [np.kron(op, eye_b) for op in ops_a] + [np.kron(eye_a, op) for op in ops_b]
        for ops_a, ops_b in ((xa, xb), (za, zb))
    )


def _apply_string(ops: list[np.ndarray], bits: BitString, vec: np.ndarray) -> np.ndarray:
    """Apply the ordered operator string to a vector (highest index first)."""
    out = vec
    for k in range(bits.n, 0, -1):
        if bits.bit(k):
            out = ops[k - 1] @ out
    return out


def _ordered_products(factors: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """F_1^(r_1)...F_m^(r_m) by big-endian index r; factors[k-1] = (F_k^0, F_k^1)."""
    out = np.eye(factors[0][0].shape[0], dtype=complex)[None]
    for f0, f1 in reversed(factors):
        out = np.concatenate([f0 @ out, f1 @ out])
    return out


def _party_tables(xs: list[np.ndarray], zs: list[np.ndarray]):
    """One party's X strings, Z strings and K[s, t] = X^t P^(s^t) X^s."""
    eye = np.eye(xs[0].shape[0])
    x = _ordered_products([(eye, op) for op in xs])
    z = _ordered_products([(eye, op) for op in zs])
    proj = _ordered_products([((eye + op) / 2, (eye - op) / 2) for op in zs])
    idx = np.arange(len(x))
    return x, z, x[None, :] @ proj[idx[:, None] ^ idx] @ x[:, None]


class KrausTables:
    """The isometry as K_A[s_A, t_A] x K_B[s_B, t_B] on (d_A, d_B) state matrices."""

    def __init__(self, alice, bob):
        self.m = len(alice[0])
        self.x_a, self.z_a, k_a = _party_tables(*alice)
        self.x_b, self.z_b, k_b = _party_tables(*bob)
        self.dims = (k_a.shape[-1], k_b.shape[-1])
        # Rows (s_A, t_A, a) and columns (s_B, t_B, b): one gemm per s_A block.
        self.rows_a = k_a.reshape(-1, self.dims[0])
        self.cols_b = np.ascontiguousarray(k_b.reshape(-1, self.dims[1]).T)

    def pauli(self, p: BitString, q: BitString, psi: np.ndarray) -> np.ndarray:
        """X^q Z^p psi, with psi and the result as (d_A, d_B) matrices."""
        (pa, pb), (qa, qb) = divmod(p.value, 2**self.m), divmod(q.value, 2**self.m)
        return (self.x_a[qa] @ self.z_a[pa]) @ psi @ (self.x_b[qb] @ self.z_b[pb]).T

    def blocks(self, psi: np.ndarray) -> Iterator[np.ndarray]:
        """Per s_A, the image block of a (d_A, d_B) matrix, axes (t_A, a, s_B, t_B, b)."""
        half = 2**self.m
        rows = (self.rows_a @ (psi * 2.0**-self.m)).reshape(half, -1, self.dims[1])
        for block in rows:
            yield (block @ self.cols_b).reshape(half, self.dims[0], half, half, self.dims[1])

    def image(self, psi: np.ndarray) -> np.ndarray:
        """The image of a (d_A, d_B) matrix, axes (a, b, s_A, s_B, t_A, t_B)."""
        return np.stack(list(self.blocks(psi))).transpose(2, 5, 0, 3, 1, 4)


def apply_isometry(
    s: Strategy,
    input_state: Union[StateVector, np.ndarray],
    flavor: Optional[str] = None,
):
    """Image of a system state under the isometry.

    A StateVector input yields a StateVector on (system, S, U); a raw vector
    yields the raw image (useful for linearity checks, no normalization).
    """
    tables = KrausTables(*party_observables(s, flavor))
    plan = IsometryPlan(system_dim=s.dim_a * s.dim_b, n=2 * s.m)
    raw = isinstance(input_state, np.ndarray)
    vec = input_state if raw else input_state.amps
    if vec.shape != (plan.system_dim,):
        raise ValueError(
            f"input dimension {vec.shape} != system dimension {plan.system_dim}"
        )
    psi = np.asarray(vec, dtype=complex).reshape(s.dim_a, s.dim_b)
    image = tables.image(psi).reshape(-1)
    if raw:
        return image
    return StateVector(image, plan.output_layout)


def _junk_matrix(zs: list[np.ndarray], psi: np.ndarray) -> np.ndarray:
    """Residual state as a (system, S) matrix; exactly normalized in theory."""
    n = len(zs)
    big = 2**n
    cols = np.empty((psi.shape[0], big), dtype=complex)
    for t in BitString.all_strings(n):
        cols[:, t.value] = _apply_string(zs, t, psi)
    phase = PhaseFunction.from_adjacency(AdjacencyMatrix.half_swap(n))
    signs = np.array(
        [-1.0 if phase(sb) else 1.0 for sb in BitString.all_strings(n)]
    )
    return (cols @ walsh_hadamard(n)) * signs[None, :] * 2.0 ** (-n / 2)


def _checked_junk(s: Strategy, flavor: Optional[str]) -> np.ndarray:
    _, zs = xz_observables(s, flavor)
    junk = _junk_matrix(zs, s.state.amps)
    norm = np.linalg.norm(junk)
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"residual state norm {norm} deviates from 1")
    return junk


def junk_state(s: Strategy, flavor: Optional[str] = None) -> StateVector:
    """The residual state on (system, S); its norm must come out 1."""
    junk = _checked_junk(s, flavor)
    layout = (("system", junk.shape[0]), ("S", junk.shape[1]))
    return StateVector(junk.reshape(-1), layout, atol=1e-9)


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


class IsometryContext:
    """Shared pieces for many distance evaluations of one strategy."""

    def __init__(self, s: Strategy, flavor: Optional[str] = None):
        self.strategy = s
        self.n = 2 * s.m
        self.tables = KrausTables(*party_observables(s, flavor))
        self.junk = _checked_junk(s, flavor)
        self.ideal = ideal_pair_state(self.n).amps
        self._psi = s.state.amps.reshape(s.dim_a, s.dim_b)
        # The junk as (s_A, 1, a, s_B, 1, b), to line up with the image blocks.
        self._junk_blocks = np.ascontiguousarray(
            self.junk.reshape(s.dim_a, s.dim_b, 2**s.m, 2**s.m).transpose(2, 0, 3, 1)
        )[:, None, :, :, None, :]

    def distance(self, p: BitString, q: BitString) -> float:
        """|| Phi(X^q Z^p psi') - junk x (X^q Z^p ideal) ||, phase-exact."""
        if p.n != self.n or q.n != self.n:
            raise ValueError(f"p, q must have length {self.n}")
        half = 2 ** (self.n // 2)
        ideal = pauli_string_state(p, q, self.ideal).reshape(half, 1, 1, half, 1)
        total = 0.0
        blocks = self.tables.blocks(self.tables.pauli(p, q, self._psi))
        for s_a, block in enumerate(blocks):
            block -= ideal * self._junk_blocks[s_a]
            total += np.vdot(block, block).real
        return float(np.sqrt(total))


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
        return [
            (p, q)
            for p in BitString.all_strings(n)
            for q in BitString.all_strings(n)
        ]
    if pairs == "sample":
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
    """Name -> function of a flavor's (printed, recomputed) bounds.

    Looked up from this module's globals on each call, so a replaced
    global takes effect.
    """
    functions = {
        "my-parallel": my_parallel_bound,
        "my-parallel-recomputed": my_parallel_recomputed_bound,
        "spp": spp_selftest_bound,
        "spp-recomputed": spp_recomputed_bound,
    }
    return {name: functions[name] for name in FLAVORS[flavor].bounds}


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
    ctx = IsometryContext(s, test.flavor)
    bound_fns = _bound_functions(test.flavor)
    selected = select_pairs(n, pairs=pairs, seed=seed, sample_count=sample_count)

    def evaluate(pq):
        p, q = pq
        bounds = {
            name: fn(n, hamming_weight(p), eps) for name, fn in bound_fns.items()
        }
        dist = ctx.distance(p, q)
        return IsometryReport(
            p=str(p),
            q=str(q),
            distance=dist,
            bounds=bounds,
            passed=dist <= max(bounds.values()) + DISTANCE_SLACK,
        )

    return [evaluate(pq) for pq in selected]
