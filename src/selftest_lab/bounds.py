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
scale 10^(n/8).  A bound whose scale, radicands or value is not finite is a
ValueError that names it and n, so no report holds a value JSON cannot state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .bitstrings import dot, half_a, half_b, swap_halves

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


def anticommute_bound(s: int, t: int, n: int, e: EpsilonBundle) -> float:
    """Error budget for exchanging the X-string and Z-string operator blocks."""
    sa, sb = half_a(s, n).bit_count(), half_b(s, n).bit_count()
    ta, tb = half_a(t, n).bit_count(), half_b(t, n).bit_count()
    return (
        (sa * ta + sb * tb) * (e.eps1 + 2 * e.eps2)
        + dot(t, s) * (e.eps3 - e.eps1)
        + 2 * e.eps2 * min(s.bit_count(), t.bit_count())
    )


def xz_swap_bound(s: int, n: int, e: EpsilonBundle) -> float:
    """Error budget for trading an X-string operator for its Z-string image."""
    sa, sb = half_a(s, n), half_b(s, n)
    return (
        s.bit_count() * e.eps2
        + anticommute_bound(sa, swap_halves(sb, n), n, e)
        + anticommute_bound(sb, swap_halves(sa, n), n, e)
    )


def swap_step_bound(t: int, k: int, n: int, e: EpsilonBundle) -> float:
    """Budget for moving one X operator past a same-side Z-string.

    Requires t supported on the half containing position k.
    """
    if n % 2:
        raise ValueError(f"even length required, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"position {k} out of range 1..{n}")
    side = half_a(t, n) if k <= n // 2 else half_b(t, n)
    if side != t:
        raise ValueError(f"t={t:0{n}b} not confined to the half containing k={k}")
    return t.bit_count() * (e.eps1 + 2 * e.eps2) + (t >> (n - k) & 1) * (e.eps3 - e.eps1)


def graph_state_bound(
    n: int,
    p: int,
    e_ac: Callable[[int, int], float],
    e_xz: Callable[[int], float],
) -> float:
    """Generic self-test distance bound, enumerating both double sums.

    sqrt((1/2^(2n-1)) Sum_{s,t} [e_ac(s,p) + e_ac(s, p xor t)])
    + sqrt((1/2^(2n-1)) Sum_{t,u} [e_ac(t,u) + e_xz(u)]).
    """
    if not 0 <= p < 2**n:
        raise ValueError(f"p={p} out of range for {n} bits")
    if n > GRAPH_BOUND_LIMIT:
        raise ValueError(f"n={n} exceeds enumeration limit {GRAPH_BOUND_LIMIT}")
    strings = range(2**n)
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


def induced_epsilon_functions(n: int, e: EpsilonBundle):
    """The (e_ac, e_xz) pair on n-bit strings induced by a primitive error bundle."""
    return (
        lambda s, t: anticommute_bound(s, t, n, e),
        lambda s: xz_swap_bound(s, n, e),
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
    EpsilonBundle fields named in reads, s = 10^(n/8) when scaled, else 1."""

    reads: tuple[str, ...]
    radicands: Callable[..., tuple[float, float]]
    scaled: bool = False


def _check_finite(name: str, n: int, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"bound {name} is not finite at n={n}")


def _sum_of_roots(name: str, n: int, weight_p: int, *inputs: float):
    """(value, (r1, r2)) of the table row name; checks its inputs and weight_p,
    and that its scale, radicands and value are finite.

    Memoized, as a run asks for each (name, n, weight_p) many times at one eps.
    A zero input bypasses the memo: -0.0 equals 0.0 as a key, yet its
    radicands print as -0.0.  An error is raised again on every call."""
    if 0 in inputs:
        return _evaluate_sum_of_roots(name, n, weight_p, *inputs)
    return _memo_sum_of_roots(name, n, weight_p, *inputs)


def _evaluate_sum_of_roots(name: str, n: int, weight_p: int, *inputs: float):
    row = _TABLE[name]
    for field, value in zip(row.reads, inputs):
        _check_nonneg(field, value)
    if not 0 <= weight_p <= n:
        raise ValueError(f"weight_p={weight_p} out of range 0..{n}")
    try:
        first, second = row.radicands(n, weight_p, *inputs)
        scale = 10 ** (n / 8) if row.scaled else 1.0
    except OverflowError:  # n, or the game's scale, beyond a float
        first = second = scale = math.inf
    value = scale * math.sqrt(first) + scale * math.sqrt(second)
    _check_finite(name, n, scale, first, second, value)
    return value, (first, second)


_memo_sum_of_roots = lru_cache(maxsize=1024, typed=True)(_evaluate_sum_of_roots)


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
    return _sum_of_roots("sufficient-conditions", n, weight_p, e.eps1, e.eps2, e.eps3)[0]


def my_parallel_bound(n: int, weight_p: int, eps: float) -> float:
    """Published self-test distance bound of the parallel pair test."""
    return _sum_of_roots("my-parallel", n, weight_p, eps)[0]


def my_parallel_recomputed_bound(n: int, weight_p: int, eps: float) -> float:
    """Same bound re-derived by substituting the primitive estimates, with the
    Mayers-Yao anticommutation estimate as eps3, into the sufficient-conditions
    closed form.  Does not match the published constants; consumers take the max."""
    return _sum_of_roots("my-parallel-recomputed", n, weight_p, eps)[0]


def spp_selftest_bound(n: int, weight_p: int, eps: float) -> float:
    """Published self-test distance bound of the strictly parallel test."""
    return _sum_of_roots("spp", n, weight_p, eps)[0]


def spp_recomputed_bound(n: int, weight_p: int, eps: float) -> float:
    """Strictly parallel analogue of the recomputed path, with the CHSH
    anticommutation estimate in place of the Mayers-Yao one."""
    return _sum_of_roots("spp-recomputed", n, weight_p, eps)[0]


def game_robustness_bound(n: int, weight_p: int, delta: float) -> float:
    """Published bound in terms of the game-value deficit delta."""
    return _sum_of_roots("game", n, weight_p, delta)[0]


def evaluate_bound(name: str, n: int, weight_p: int, e: EpsilonBundle) -> dict:
    """The report of one table bound: name, inputs, value, radicand terms
    (the unscaled pair; empty for the two estimates) and the vacuous flag."""
    if name not in _TABLE:
        raise ValueError(f"unknown bound {name!r}; known: {sorted(bound_names())}")
    row = _TABLE[name]
    if isinstance(row, _Row):
        value, pair = _sum_of_roots(name, n, weight_p, *(getattr(e, f) for f in row.reads))
        terms = dict(zip(("radicand_1", "radicand_2"), pair))
    else:
        value, terms = row(e.eps), {}
        _check_finite(name, n, value)
    return {
        "name": name,
        "inputs": {"n": n, "weight_p": weight_p, **asdict(e)},
        "value": value,
        "terms": terms,
        "vacuous": value > VACUOUS_THRESHOLD,
    }


def bound_names() -> tuple[str, ...]:
    return tuple(_TABLE)
