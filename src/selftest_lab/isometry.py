"""Explicit construction of the self-testing isometry and distance checks.

The isometry attaches 2n ancilla qubits in n entangled pairs (block S holds
qubits 1..n, block U holds n+1..2n), then alternates controlled applications
of the strategy's X/Z observables with Hadamards on block U.  On the output
registers (system, S, U) the residual state lands on (system, S) and the
ideal pair state materializes on U; the distance between the isometry image
and residual x ideal is what the robustness bounds cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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

JUNK_LIMIT = 6  # the residual-state double sum enumerates 2^(2n) terms
DISTANCE_SLACK = 1e-9  # numerical slack when comparing distance to a bound


@dataclass(frozen=True)
class IsometryPlan:
    """Register bookkeeping for the six-step isometry."""

    system_dim: int
    n: int  # number of X/Z indices; ancillas count 2n

    @property
    def ancilla_dim(self) -> int:
        return 2**self.n

    @property
    def output_layout(self):
        return (
            ("system", self.system_dim),
            ("S", self.ancilla_dim),
            ("U", self.ancilla_dim),
        )


def detect_flavor(s: Strategy) -> str:
    """Infer which test's named questions a strategy carries."""
    kinds = set(s.kinds("alice"))
    for name, flavor in FLAVORS.items():
        if {flavor.symbol_kind("X", s.m), flavor.symbol_kind("Z", s.m)} <= kinds:
            return name
    raise ValueError(
        "strategy exposes neither the X/Z questions nor the all-X/all-Z strings"
    )


def xz_observables(
    s: Strategy, flavor: Optional[str] = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Full-system X_k and Z_k observables for k = 1..2m.

    Indices 1..m act on Alice's factor, m+1..2m on Bob's.
    """
    if flavor is None:
        flavor = detect_flavor(s)
    x_kind = FLAVORS[flavor].symbol_kind("X", s.m)
    z_kind = FLAVORS[flavor].symbol_kind("Z", s.m)
    eye_a, eye_b = np.eye(s.dim_a), np.eye(s.dim_b)
    xs, zs = [], []
    for k in range(1, 2 * s.m + 1):
        if k <= s.m:
            xs.append(np.kron(s.observable("alice", x_kind, k), eye_b))
            zs.append(np.kron(s.observable("alice", z_kind, k), eye_b))
        else:
            xs.append(np.kron(eye_a, s.observable("bob", x_kind, k - s.m)))
            zs.append(np.kron(eye_a, s.observable("bob", z_kind, k - s.m)))
    return xs, zs


def _apply_string(ops: list[np.ndarray], bits: BitString, vec: np.ndarray) -> np.ndarray:
    """Apply the ordered operator string to a vector (highest index first)."""
    out = vec
    for k in range(bits.n, 0, -1):
        if bits.bit(k):
            out = ops[k - 1] @ out
    return out


def _isometry_image(
    xs: list[np.ndarray], zs: list[np.ndarray], psi: np.ndarray
) -> np.ndarray:
    """Run the six steps on a raw system vector; linear, returns (sys, S, U)."""
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


def apply_isometry(
    s: Strategy,
    input_state: Union[StateVector, np.ndarray],
    flavor: Optional[str] = None,
):
    """Image of a system state under the isometry.

    A StateVector input yields a StateVector on (system, S, U); a raw vector
    yields the raw image (useful for linearity checks, no normalization).
    """
    xs, zs = xz_observables(s, flavor)
    plan = IsometryPlan(system_dim=s.dim_a * s.dim_b, n=2 * s.m)
    raw = isinstance(input_state, np.ndarray)
    vec = input_state if raw else input_state.amps
    if vec.shape != (plan.system_dim,):
        raise ValueError(
            f"input dimension {vec.shape} != system dimension {plan.system_dim}"
        )
    image = _isometry_image(xs, zs, np.asarray(vec, dtype=complex))
    if raw:
        return image.reshape(-1)
    return StateVector(image.reshape(-1), plan.output_layout)


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


def junk_state(s: Strategy, flavor: Optional[str] = None) -> StateVector:
    """The residual state on (system, S); its norm must come out 1."""
    n = 2 * s.m
    if n > JUNK_LIMIT:
        raise ValueError(f"n={n} exceeds residual-state enumeration limit {JUNK_LIMIT}")
    _, zs = xz_observables(s, flavor)
    mat = _junk_matrix(zs, s.state.amps)
    norm = np.linalg.norm(mat)
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"residual state norm {norm} deviates from 1")
    dsys = s.dim_a * s.dim_b
    return StateVector(
        mat.reshape(-1), (("system", dsys), ("S", 2**n)), atol=1e-9
    )


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
        self.xs, self.zs = xz_observables(s, flavor)
        self.junk = _junk_matrix(self.zs, s.state.amps)
        norm = np.linalg.norm(self.junk)
        if abs(norm - 1.0) > 1e-9:
            raise RuntimeError(f"residual state norm {norm} deviates from 1")
        self.ideal = ideal_pair_state(self.n).amps

    def distance(self, p: BitString, q: BitString) -> float:
        """|| Phi(X^q Z^p psi') - junk x (X^q Z^p ideal) ||, phase-exact."""
        n = self.n
        if p.n != n or q.n != n:
            raise ValueError(f"p, q must have length {n}")
        vec = _apply_string(self.zs, p, self.strategy.state.amps)
        vec = _apply_string(self.xs, q, vec)
        image = _isometry_image(self.xs, self.zs, vec)
        target = self.junk[:, :, None] * pauli_string_state(p, q, self.ideal)[
            None, None, :
        ]
        return float(np.linalg.norm(image - target))


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
    exhaustive = [
        (p, q)
        for p in BitString.all_strings(n)
        for q in BitString.all_strings(n)
    ]
    if pairs == "exhaustive":
        return exhaustive
    if pairs == "auto":
        if len(exhaustive) <= 256:
            return exhaustive
        pairs = "sample"
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
