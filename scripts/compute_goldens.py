#!/usr/bin/env python3
"""Compute the golden values frozen in the test suite.

Run from the repository root.  Every non-trivial expected value asserted in
tests/ was produced by this script; update tests only by re-running it.
"""

import itertools
import math

import numpy as np

from selftest_lab import bounds as bd
from selftest_lab import game as gm
from selftest_lab.strategies import basis_vectors, honest_spp_strategy


def main():
    print("== bound substitutions ==")
    print(f"mayers_yao_anticommute_bound(0.005) = {bd.mayers_yao_anticommute_bound(0.005)!r}")
    print(f"chsh_anticommute_bound(0.01)        = {bd.chsh_anticommute_bound(0.01)!r}")
    print(f"my_parallel_bound(2, 0, 1e-6)       = {bd.my_parallel_bound(2, 0, 1e-6)!r}")
    print(f"spp_selftest_bound(2, 1, 1e-6)      = {bd.spp_selftest_bound(2, 1, 1e-6)!r}")
    print(f"game_robustness_bound(2, 0, 1e-8)   = {bd.game_robustness_bound(2, 0, 1e-8)!r}")
    uniform = bd.EpsilonBundle(eps1=0.01, eps2=0.01, eps3=0.01)
    print(f"sufficient_conditions_bound(2, 0, uniform 0.01) = "
          f"{bd.sufficient_conditions_bound(2, 0, uniform)!r}")

    print()
    print("== enumerated generic bound vs closed form (they differ) ==")
    for n in (2, 4):
        enum = bd.graph_state_bound(n, 0, *bd.induced_epsilon_functions(n, uniform))
        closed = bd.sufficient_conditions_bound(n, 0, uniform)
        print(f"n={n}: enumeration={enum!r} closed_form={closed!r}")

    print()
    print("== honest single-round winning probability (cos vs cos^2) ==")
    s = honest_spp_strategy(1)
    psi = s.state
    win_prob = 0.0
    for qa, qb in gm.WIN_SIGNS:
        pa = s.measurement("alice", qa)
        pb = s.measurement("bob", qb)
        for a, proj_a in pa:
            for b, proj_b in pb:
                prob = float(np.linalg.norm(proj_a @ psi @ proj_b.T) ** 2)
                if gm.win_predicate(qa, qb, a[0], b[0]):
                    win_prob += prob / 10.0
    print(f"brute-force win probability      = {win_prob!r}")
    print(f"(2 + 8*cos^2(pi/8))/10           = {(2 + 8 * math.cos(math.pi / 8) ** 2) / 10!r}")
    print(f"(2 + 8*cos(pi/8))/10             = {(2 + 8 * math.cos(math.pi / 8)) / 10!r}")
    print(f"(1 + E_max)/2                    = {(1 + gm.MAX_GAME_EXPECTATION) / 2!r}")

    print()
    print("== best deterministic strategy value, m=1 ==")
    best = -2.0
    symbols = "XZDE"
    for assign_a in itertools.product((1, -1), repeat=4):
        a_map = dict(zip(symbols, assign_a))
        for assign_b in itertools.product((1, -1), repeat=4):
            b_map = dict(zip(symbols, assign_b))
            value = sum(
                sign * a_map[qa] * b_map[qb]
                for (qa, qb), sign in gm.WIN_SIGNS.items()
            ) / 10.0
            best = max(best, value)
    print(f"max classical E(A)               = {best!r}")
    print(f"delta for best classical         = {gm.MAX_GAME_EXPECTATION - best!r}")

    print()
    print("== single-qubit eigenvector sanity ==")
    from selftest_lab.linalg import pauli_observables
    for sym, op in pauli_observables().items():
        vp, vm = basis_vectors(sym)
        print(f"{sym}: |Mv+ - v+| = {np.linalg.norm(op @ vp - vp):.3e}, "
              f"|Mv- + v-| = {np.linalg.norm(op @ vm + vm):.3e}")


if __name__ == "__main__":
    main()
