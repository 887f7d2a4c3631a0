"""Multivariate Hawkes processes: simulation and regularized MLE.

Modules
-------
model       kernels, parameters, box domains, stationarity diagnostics
simulate    branching-cluster and thinning samplers
likelihood  closed-form log-likelihood and analytic gradient
optim       PALM / iPALM / Anderson-accelerated iPALM
experiments synthetic recipes, benchmarks, consistency studies
io, cli     file formats and the ``hawkes-mle`` command line
"""

from .model import (
    BoxDomain,
    DomainError,
    Exponential,
    FlatIndexMap,
    ModelSpec,
    NonStationaryError,
    ParamVector,
    PowerLawCutoff,
    branching_matrix,
    intensities,
    project_onto_box,
    spectral_radius,
    stationary_mean_intensity,
)
from .simulate import (
    EventSequence,
    SimConfig,
    SimulationCapError,
    simulate_cluster,
    simulate_thinning,
)
from .likelihood import (
    LikelihoodProblem,
    grad_log_likelihood,
    grad_regularized,
    intensity_at,
    log_likelihood,
    regularized_objective,
)
from .optim import (
    HyperParams,
    HyperParamsError,
    InfeasibleInitError,
    OptimResult,
    OptimizerState,
    TraceRecord,
    estimate_lipschitz_bounds,
    ipalm_map,
    lyapunov_value,
    powell_phi,
    residual_diagnostics,
    run_aa_ipalm,
    run_ipalm,
    run_palm,
)
from .experiments import (
    fit_stream,
    BenchmarkReport,
    ConsistencyReport,
    NoStationaryDrawError,
    SyntheticInstance,
    SyntheticRecipe,
    gen_synthetic_exponential,
    gen_synthetic_powerlaw,
    generate_instance,
    run_benchmark,
    run_consistency_study,
)

__version__ = "0.1.0"
