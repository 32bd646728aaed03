"""Exact-simulation laboratory for two-player self-tests of many e-bits.

Builds the honest strategies of both parallel tests (the Mayers-Yao family
and the strictly parallel CHSH-style game), measures correlation deviations
of arbitrary projective strategies, constructs the self-testing isometry
explicitly, and evaluates every published robustness bound at desk scale.
"""

from .bitstrings import (
    AdjacencyMatrix,
    BitString,
    PhaseFunction,
    adjacency_phase,
    average_dot,
    check_half_swap_identity,
    check_phase_consistency,
    dot,
    dot_mod2,
    double_average_dot,
    half_a,
    half_b,
    hamming_weight,
    parity_average,
    swap_halves,
)
from .linalg import (
    StateVector,
    bipartite_expectation,
    distance2,
    embed,
    expectation,
    graph_state,
    inner,
    kron,
    ordered_power,
    pauli_observables,
)
from .strategies import (
    EpsilonBundle,
    Measurement,
    NoiseSpec,
    Strategy,
    honest_my_strategy,
    honest_spp_strategy,
    load_strategy,
    perturb_strategy,
    strategy_from_json,
    strategy_to_json,
    symbol_projector,
    validate_strategy,
)
from .protocols import (
    CorrelationReport,
    TestSpec,
    correlation_exact,
    epsilon_my,
    epsilon_spp,
    my_required_correlations,
    my_test_spec,
    spp_test_spec,
)
from .game import (
    MAX_GAME_EXPECTATION,
    delta_and_epsilon,
    game_expectation_exact,
    referee_expectation_check,
    sample_game,
    win_predicate,
)
from .bounds import (
    BoundReport,
    anticommute_bound,
    chsh_anticommute_bound,
    evaluate_bound,
    game_robustness_bound,
    graph_state_bound,
    mayers_yao_anticommute_bound,
    my_parallel_bound,
    my_parallel_recomputed_bound,
    spp_recomputed_bound,
    spp_selftest_bound,
    sufficient_conditions_bound,
    swap_step_bound,
    xz_swap_bound,
)
from .isometry import (
    IsometryReport,
    apply_isometry,
    junk_state,
    verify_bound,
)

__version__ = "0.1.0"
