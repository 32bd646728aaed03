"""Closed-form robustness bounds, evaluated verbatim as pure functions.

Each bound maps observed error parameters to an upper bound on the
self-testing distance.  The published closed forms for the two tests are
kept exactly as printed; a second "recomputed" path re-derives them by
substituting the primitive estimates into the generic sufficient-conditions
form.  The two paths do not agree (the published constants cannot be
reproduced mechanically), so consumers take the larger of the two.  Bounds
above 2, the diameter of normalized-state space, are flagged vacuous but
still reported verbatim.

The six sum-of-roots bounds are one table, ``_TABLE``: a row names the
``EpsilonBundle`` fields it reads, its radicand pair and (the game only) its
scale 10^(n/8), and checks its inputs where it is evaluated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, NamedTuple

from .bitstrings import BitString, dot, half_a, half_b, hamming_weight, swap_halves

VACUOUS_THRESHOLD = 2.0  # diameter of the space of normalized states

GRAPH_BOUND_LIMIT = 4  # the double sums enumerate 2^(2n) terms

_SQRT2 = math.sqrt(2.0)


def _check_nonneg(name: str, value: float) -> None:
    if not 0 <= value < math.inf:  # also false for NaN
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class EpsilonBundle:
    """Error parameters feeding the robustness bound formulas."""

    eps: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            _check_nonneg(f.name, getattr(self, f.name))


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


def _sufficient_radicands(n, w, eps1, eps2, eps3):
    return (
        w / 2 * ((n - 1) * eps1 + 2 * n * eps2 + eps3) + n / 4 * (eps3 - eps1)
        + n**2 / 8 * (eps1 + 2 * eps2),
        n**2 / 4 * (eps1 + 2 * eps2) + n / 2 * (eps2 + eps3 - eps1),
    )


def _recomputed(anticommute, n, w, eps):
    """The sufficient-conditions pair at (4 sqrt(2 eps), sqrt(2 eps), anticommute(eps))."""
    root = math.sqrt(2 * eps)
    return _sufficient_radicands(n, w, 4 * root, root, anticommute(eps))


def _my_parallel_radicands(n, w, eps):
    e4, root = mayers_yao_anticommute_bound(eps), math.sqrt(2 * eps)
    return (
        root * (9 * n**2 / 4 + 3 * n / 2) + n * e4 / 2,
        root * (9 * n**2 / 8 + n * (5 * w / 2 - 0.25) - w / 2) + e4 * (n / 4 + w / 2),
    )


def _spp_radicands(n, w, root):
    return (
        root * (9 * n**2 / 4 + (3 + 2**1.25) * n / 2),
        root * (9 * n**2 / 8 + n * (5 * w / 2 - 0.25 + 2**-0.75) + w * (2**0.25 - 0.5)),
    )


class _Row(NamedTuple):
    """s sqrt(r1) + s sqrt(r2), (r1, r2) = radicands(n, weight_p, *inputs) for the
    EpsilonBundle fields named in reads, s = 10^(n/8) when scaled, else 1.  A call
    checks its inputs and weight_p and returns (value, (r1, r2))."""

    reads: tuple[str, ...]
    radicands: Callable[..., tuple[float, float]]
    scaled: bool = False

    def __call__(self, n: int, weight_p: int, *inputs: float):
        for name, value in zip(self.reads, inputs):
            _check_nonneg(name, value)
        if not 0 <= weight_p <= n:
            raise ValueError(f"weight_p={weight_p} out of range 0..{n}")
        first, second = self.radicands(n, weight_p, *inputs)
        scale = 10 ** (n / 8) if self.scaled else 1.0
        return scale * math.sqrt(first) + scale * math.sqrt(second), (first, second)


# name -> its sum-of-roots row; the two estimates are functions of eps.
_TABLE = {
    "sufficient-conditions": _Row(("eps1", "eps2", "eps3"), _sufficient_radicands),
    "mayers-yao-ac": mayers_yao_anticommute_bound,
    "chsh-ac": chsh_anticommute_bound,
    "my-parallel": _Row(("eps",), _my_parallel_radicands),
    "my-parallel-recomputed": _Row(("eps",), partial(_recomputed, mayers_yao_anticommute_bound)),
    "spp": _Row(("eps",), lambda n, w, eps: _spp_radicands(n, w, math.sqrt(2 * eps))),
    "spp-recomputed": _Row(("eps",), partial(_recomputed, chsh_anticommute_bound)),
    "game": _Row(("delta",), lambda n, w, delta: _spp_radicands(n, w, math.sqrt(n * delta)), True),
}


def sufficient_conditions_bound(n: int, weight_p: int, e: EpsilonBundle) -> float:
    """Published closed form of the e-bit self-test bound from (eps1..3)."""
    return _TABLE["sufficient-conditions"](n, weight_p, e.eps1, e.eps2, e.eps3)[0]


def my_parallel_bound(n: int, weight_p: int, eps: float) -> float:
    """Published self-test distance bound of the parallel pair test."""
    return _TABLE["my-parallel"](n, weight_p, eps)[0]


def my_parallel_recomputed_bound(n: int, weight_p: int, eps: float) -> float:
    """Same bound re-derived by substituting the primitive estimates, with the
    Mayers-Yao anticommutation estimate as eps3, into the sufficient-conditions
    closed form.  Does not match the published constants; consumers take the max."""
    return _TABLE["my-parallel-recomputed"](n, weight_p, eps)[0]


def spp_selftest_bound(n: int, weight_p: int, eps: float) -> float:
    """Published self-test distance bound of the strictly parallel test."""
    return _TABLE["spp"](n, weight_p, eps)[0]


def spp_recomputed_bound(n: int, weight_p: int, eps: float) -> float:
    """Strictly parallel analogue of the recomputed path, with the CHSH
    anticommutation estimate in place of the Mayers-Yao one."""
    return _TABLE["spp-recomputed"](n, weight_p, eps)[0]


def game_robustness_bound(n: int, weight_p: int, delta: float) -> float:
    """Published bound in terms of the game-value deficit delta."""
    return _TABLE["game"](n, weight_p, delta)[0]


def evaluate_bound(name: str, n: int, weight_p: int, e: EpsilonBundle) -> dict:
    """The report of one table bound: name, inputs, value, radicand terms
    (the unscaled pair; empty for the two estimates) and the vacuous flag."""
    if name not in _TABLE:
        raise ValueError(f"unknown bound {name!r}; known: {sorted(bound_names())}")
    row = _TABLE[name]
    if isinstance(row, _Row):
        value, pair = row(n, weight_p, *(getattr(e, f) for f in row.reads))
        terms = dict(zip(("radicand_1", "radicand_2"), pair))
    else:
        value, terms = row(e.eps), {}
    return {
        "name": name,
        "inputs": {"n": n, "weight_p": weight_p, **asdict(e)},
        "value": value,
        "terms": terms,
        "vacuous": value > VACUOUS_THRESHOLD,
    }


def bound_names() -> tuple[str, ...]:
    return tuple(_TABLE)
