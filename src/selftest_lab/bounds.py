"""Closed-form robustness bounds, evaluated verbatim as pure functions.

Each bound maps observed error parameters to an upper bound on the
self-testing distance.  The published closed forms for the two tests are
kept exactly as printed; a second "recomputed" path re-derives them by
substituting the primitive estimates into the generic sufficient-conditions
form.  The two paths do not agree (the published constants cannot be
reproduced mechanically), so consumers take the larger of the two.  Bounds
above 2, the diameter of normalized-state space, are flagged vacuous but
still reported verbatim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .bitstrings import BitString, dot, half_a, half_b, hamming_weight, swap_halves
from .strategies import EpsilonBundle

VACUOUS_THRESHOLD = 2.0  # diameter of the space of normalized states

GRAPH_BOUND_LIMIT = 4  # the double sums enumerate 2^(2n) terms

_SQRT2 = math.sqrt(2.0)


def anticommute_bound(s: BitString, t: BitString, e: EpsilonBundle) -> float:
    """Error budget for exchanging the X-string and Z-string operator blocks."""
    if s.n != t.n:
        raise ValueError(f"length mismatch: {s.n} vs {t.n}")
    sa, sb = hamming_weight(half_a(s)), hamming_weight(half_b(s))
    ta, tb = hamming_weight(half_a(t)), hamming_weight(half_b(t))
    return (
        (sa * ta + sb * tb) * (e.eps1 + 2 * e.eps2)
        + dot(t, s) * (e.eps3 - e.eps1)
        + 2 * e.eps2 * min(hamming_weight(s), hamming_weight(t))
    )


def xz_swap_bound(s: BitString, e: EpsilonBundle) -> float:
    """Error budget for trading an X-string operator for its Z-string image."""
    sa, sb = half_a(s), half_b(s)
    return (
        hamming_weight(s) * e.eps2
        + anticommute_bound(sa, swap_halves(sb), e)
        + anticommute_bound(sb, swap_halves(sa), e)
    )


def swap_step_bound(t: BitString, k: int, e: EpsilonBundle) -> float:
    """Budget for moving one X operator past a same-side Z-string.

    Requires t supported on the half containing position k.
    """
    n = t.n
    if n % 2:
        raise ValueError(f"even length required, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"position {k} out of range 1..{n}")
    side = half_a(t) if k <= n // 2 else half_b(t)
    if side != t:
        raise ValueError(f"t={t} not confined to the half containing k={k}")
    return hamming_weight(t) * (e.eps1 + 2 * e.eps2) + t.bit(k) * (e.eps3 - e.eps1)


def graph_state_bound(
    n: int,
    p: BitString,
    e_ac: Callable[[BitString, BitString], float],
    e_xz: Callable[[BitString], float],
) -> float:
    """Generic self-test distance bound, enumerating both double sums.

    sqrt((1/2^(2n-1)) Sum_{s,t} [e_ac(s,p) + e_ac(s, p xor t)])
    + sqrt((1/2^(2n-1)) Sum_{t,u} [e_ac(t,u) + e_xz(u)]).
    """
    if p.n != n:
        raise ValueError(f"p has length {p.n}, expected {n}")
    if n > GRAPH_BOUND_LIMIT:
        raise ValueError(f"n={n} exceeds enumeration limit {GRAPH_BOUND_LIMIT}")
    strings = list(BitString.all_strings(n))
    weight = 1.0 / 2 ** (2 * n - 1)
    first = sum(
        e_ac(s, p) + e_ac(s, p ^ t)
        for s, t in itertools.product(strings, repeat=2)
    )
    second = sum(
        e_ac(t, u) + e_xz(u)
        for t, u in itertools.product(strings, repeat=2)
    )
    return math.sqrt(weight * first) + math.sqrt(weight * second)


def induced_epsilon_functions(e: EpsilonBundle):
    """The (e_ac, e_xz) pair induced by a primitive error bundle."""
    return (
        lambda s, t: anticommute_bound(s, t, e),
        lambda s: xz_swap_bound(s, e),
    )


def _check_weight(n: int, weight_p: int) -> None:
    if not 0 <= weight_p <= n:
        raise ValueError(f"weight_p={weight_p} out of range 0..{n}")


def _check_nonneg(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def sufficient_conditions_radicands(
    n: int, weight_p: int, e: EpsilonBundle
) -> tuple[float, float]:
    _check_weight(n, weight_p)
    return _radicands(n, weight_p, e.eps1, e.eps2, e.eps3)


def _radicands(
    n: int, weight_p: int, eps1: float, eps2: float, eps3: float
) -> tuple[float, float]:
    first = (
        weight_p / 2 * ((n - 1) * eps1 + 2 * n * eps2 + eps3)
        + n / 4 * (eps3 - eps1)
        + n**2 / 8 * (eps1 + 2 * eps2)
    )
    second = n**2 / 4 * (eps1 + 2 * eps2) + n / 2 * (eps2 + eps3 - eps1)
    return first, second


def sufficient_conditions_bound(n: int, weight_p: int, e: EpsilonBundle) -> float:
    """Published closed form of the e-bit self-test bound from (eps1..3)."""
    first, second = sufficient_conditions_radicands(n, weight_p, e)
    return math.sqrt(first) + math.sqrt(second)


def mayers_yao_anticommute_bound(eps: float) -> float:
    """Anticommutation estimate from the single-pair X/Z/D correlations."""
    _check_nonneg("eps", eps)
    return (
        4 * (1 + _SQRT2) * (2 * eps) ** 0.25
        + 8 * math.sqrt(2 * eps)
        + (5 + 3 * _SQRT2) * (2 * eps) ** 0.75
    )


def chsh_anticommute_bound(eps: float) -> float:
    """Anticommutation estimate from a CHSH deficit: 2 sqrt(2 sqrt(2) eps)."""
    _check_nonneg("eps", eps)
    return 2 * math.sqrt(2 * _SQRT2 * eps)


def my_parallel_radicands(n: int, weight_p: int, eps: float) -> tuple[float, float]:
    _check_nonneg("eps", eps)
    _check_weight(n, weight_p)
    e4 = mayers_yao_anticommute_bound(eps)
    root = math.sqrt(2 * eps)
    first = root * (9 * n**2 / 4 + 3 * n / 2) + n * e4 / 2
    second = root * (
        9 * n**2 / 8 + n * (5 * weight_p / 2 - 0.25) - weight_p / 2
    ) + e4 * (n / 4 + weight_p / 2)
    return first, second


def my_parallel_bound(n: int, weight_p: int, eps: float) -> float:
    """Published self-test distance bound of the parallel pair test."""
    first, second = my_parallel_radicands(n, weight_p, eps)
    return math.sqrt(first) + math.sqrt(second)


def _recomputed_bound(
    n: int, weight_p: int, eps: float, anticommute: Callable[[float], float]
) -> float:
    """The sufficient-conditions closed form at eps1 = 4 sqrt(2 eps),
    eps2 = sqrt(2 eps) and eps3 = anticommute(eps)."""
    _check_nonneg("eps", eps)
    _check_weight(n, weight_p)
    root = math.sqrt(2 * eps)
    first, second = _radicands(n, weight_p, 4 * root, root, anticommute(eps))
    return math.sqrt(first) + math.sqrt(second)


def my_parallel_recomputed_bound(n: int, weight_p: int, eps: float) -> float:
    """Same bound re-derived by substituting the primitive estimates, with
    the Mayers-Yao anticommutation estimate as eps3, into the
    sufficient-conditions closed form.  Does not match the published
    constants; consumers take the max.
    """
    return _recomputed_bound(n, weight_p, eps, mayers_yao_anticommute_bound)


def spp_radicands(n: int, weight_p: int, eps_or_root) -> tuple[float, float]:
    first = eps_or_root * (9 * n**2 / 4 + (3 + 2**1.25) * n / 2)
    second = eps_or_root * (
        9 * n**2 / 8
        + n * (5 * weight_p / 2 - 0.25 + 2**-0.75)
        + weight_p * (2**0.25 - 0.5)
    )
    return first, second


def spp_selftest_bound(n: int, weight_p: int, eps: float) -> float:
    """Published self-test distance bound of the strictly parallel test."""
    _check_nonneg("eps", eps)
    _check_weight(n, weight_p)
    first, second = spp_radicands(n, weight_p, math.sqrt(2 * eps))
    return math.sqrt(first) + math.sqrt(second)


def spp_recomputed_bound(n: int, weight_p: int, eps: float) -> float:
    """Strictly parallel analogue of the recomputed path, with the CHSH
    anticommutation estimate in place of the Mayers-Yao one."""
    return _recomputed_bound(n, weight_p, eps, chsh_anticommute_bound)


def game_robustness_bound(n: int, weight_p: int, delta: float) -> float:
    """Published bound in terms of the game-value deficit delta."""
    _check_nonneg("delta", delta)
    _check_weight(n, weight_p)
    scale = 10 ** (n / 8)
    first, second = spp_radicands(n, weight_p, math.sqrt(n * delta))
    return scale * math.sqrt(first) + scale * math.sqrt(second)


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: dict
    value: float
    terms: dict = field(default_factory=dict)

    @property
    def vacuous(self) -> bool:
        return self.value > VACUOUS_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": dict(self.inputs),
            "value": self.value,
            "terms": dict(self.terms),
            "vacuous": self.vacuous,
        }


def _report(name, n, weight_p, e, value, terms=None) -> BoundReport:
    return BoundReport(
        name=name,
        inputs={
            "n": n,
            "weight_p": weight_p,
            "eps": e.eps,
            "eps1": e.eps1,
            "eps2": e.eps2,
            "eps3": e.eps3,
            "delta": e.delta,
        },
        value=float(value),
        terms=terms or {},
    )


def _radicand_terms(pair) -> dict:
    return {"radicand_1": float(pair[0]), "radicand_2": float(pair[1])}


# name -> (value, radicand pair or None), both of (n, weight_p, bundle).
_BOUNDS: dict[str, tuple[Callable, Optional[Callable]]] = {
    "sufficient-conditions": (
        sufficient_conditions_bound,
        sufficient_conditions_radicands,
    ),
    "mayers-yao-ac": (lambda n, w, e: mayers_yao_anticommute_bound(e.eps), None),
    "chsh-ac": (lambda n, w, e: chsh_anticommute_bound(e.eps), None),
    "my-parallel": (
        lambda n, w, e: my_parallel_bound(n, w, e.eps),
        lambda n, w, e: my_parallel_radicands(n, w, e.eps),
    ),
    "my-parallel-recomputed": (
        lambda n, w, e: my_parallel_recomputed_bound(n, w, e.eps),
        None,
    ),
    "spp": (
        lambda n, w, e: spp_selftest_bound(n, w, e.eps),
        lambda n, w, e: spp_radicands(n, w, math.sqrt(2 * e.eps)),
    ),
    "spp-recomputed": (lambda n, w, e: spp_recomputed_bound(n, w, e.eps), None),
    "game": (lambda n, w, e: game_robustness_bound(n, w, e.delta), None),
}


def evaluate_bound(name: str, n: int, weight_p: int, e: EpsilonBundle) -> BoundReport:
    """Scalar-input bound registry backing the command-line interface."""
    if name not in _BOUNDS:
        raise ValueError(f"unknown bound {name!r}; known: {sorted(bound_names())}")
    value, radicands = _BOUNDS[name]
    result = value(n, weight_p, e)
    terms = _radicand_terms(radicands(n, weight_p, e)) if radicands else None
    return _report(name, n, weight_p, e, result, terms)


def bound_names() -> tuple[str, ...]:
    return tuple(_BOUNDS)
