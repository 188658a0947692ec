"""Selfish neighborhood load balancing on processor networks.

Simulation of the randomized migration protocols for uniform and weighted
tasks on machines with speeds, plus the spectral bounds, potential-function
oracles, and convergence experiments used to verify their analysis.
"""

from .analysis import (
    ConvergenceSummary,
    StopRule,
    SuiteReport,
    TrialResult,
    measure_convergence,
    run_trial,
    scaling_experiment,
    verify_lemma_suite,
)
from .corpus import CorpusCase, default_corpus
from .errors import ConfigError, DisconnectedGraphError, EigensolverError
from .graphs import GraphTopology, isoperimetric_number, load_edge_list, make_graph, pair_degree
from .potentials import (
    PotentialSnapshot,
    critical_value,
    exact_expected_psi0_drop,
    exact_expected_psi1_drop,
    exact_variance_sum,
    gamma_factor,
    lambda_term,
    node_change_moments,
    snapshot,
)
from .protocol import (
    LoadState,
    ProtocolParams,
    all_on_one_state,
    default_alpha,
    exact_ne_alpha,
    expected_flow,
    is_approx_nash,
    is_nash,
    migration_probability,
    near_balanced_state,
    non_nash_edges,
    random_placement_state,
    random_task_weights,
    step_round_totals,
    weighted_all_on_one,
    weighted_random_placement,
)
from .spectral import (
    SpectralSummary,
    SpeedProfile,
    generalized_dot,
    granularity_of,
    laplacian,
    lambda2_of,
    mu2_of,
    second_smallest_eigenvalue,
    spectral_summary,
)

__version__ = "0.1.0"
