"""Mixtures of semi-Markov chains for clustering categorical trajectories.

Fits finite mixtures of Markov renewal processes with gamma sojourn times
to panels of attribute sequences via a penalized EM algorithm, selects the
number of components by information criteria, clusters subjects by their
posterior probabilities, and simulates synthetic panels for Monte-Carlo
benchmarking.
"""

from .core import (
    ComponentParams,
    GammaParams,
    MixtureArrays,
    MixtureModel,
    Panel,
    PooledParams,
    PosteriorMatrix,
    StateSpace,
    Trajectory,
    pool_mixture,
)
from .em import EmConfig, FitReport, e_step, fit, map_cluster
from .errors import (
    AllComponentsImpossible,
    DataError,
    DegenerateSample,
    EmptyComponent,
    InvalidModelError,
    MalformedRow,
    NonConvergence,
    NonMonotoneOnset,
    NumericalError,
    SmcmixError,
    UnknownAttribute,
)
from .initialization import initial_model, kmeans
from .likelihood import PanelStats, mixture_loglik, penalty_term, penalty_weight
from .metrics import (
    align_components,
    classification_rate,
    err_by_component,
    err_gamma,
    err_matrix,
    pi_recovery,
)
from .selection import GSweepResult, aic, aicc, bic, param_count, select_g
from .sim import BenchmarkResult, Scenario, run_benchmark, simulate_panel, simulate_trajectory

__version__ = "0.1.0"
