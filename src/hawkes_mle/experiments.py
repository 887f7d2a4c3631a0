"""Synthetic instances, algorithm benchmarks, and consistency studies.

The two built-in recipes mirror the desk-scale comparison setup: K types,
one base kernel, excitation weights sampled uniformly then divided by a
stationarity divisor, baselines sampled uniformly and halved, Tikhonov
coefficient 1, box bounds spanning two orders of magnitude around the truth,
all-ones initialization with beta = 3, step sizes 1e-7 and momentum 0.9 for
500 iterations.

Benchmark cells (one simulated stream per seed, three algorithms from a
shared initial point) and consistency cells run in order in the calling
thread, so each run's ``seconds`` are its own wall-clock time.  A report's
``manifest`` and CSV ``tables()`` are written by ``io.write_report``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .likelihood import LikelihoodProblem
from .model import (
    BoxDomain,
    Exponential,
    ModelSpec,
    ParamVector,
    PowerLawCutoff,
    _is_finite,
    _is_integer,
    branching_matrix,
    project_onto_box,
    spectral_radius,
)
from .optim import RUNNERS, HyperParams, estimate_lipschitz_bounds, run_aa_ipalm
from .simulate import SimConfig, simulate_cluster

__all__ = [
    "NoStationaryDrawError",
    "SyntheticRecipe",
    "RECIPES",
    "SyntheticInstance",
    "BenchmarkReport",
    "ConsistencyReport",
    "generate_instance",
    "gen_synthetic_exponential",
    "gen_synthetic_powerlaw",
    "fit_stream",
    "run_benchmark",
    "run_consistency_study",
]

REGRET_FLOOR = 1e-12
ALGORITHMS = tuple(RUNNERS)


class NoStationaryDrawError(RuntimeError):
    """A recipe drew no stationary ground truth within its ``max_attempts``."""


@dataclass(frozen=True)
class SyntheticRecipe:
    """Sampling plan for a synthetic ground-truth instance."""

    kind: str = "exp-k10"  # "exp-k10", "pwl-k10", or "custom"
    K: int = 10
    M: int = 1
    family: str = "exponential"  # "exponential" or "powerlaw"
    cutoff: float = 0.05
    beta_true: float = 0.5
    alpha_low: float = 0.001
    alpha_high: float = 1.0
    alpha_divisor: float = 11.0
    mu_low: float = 0.001
    mu_high: float = 0.1
    mu_divisor: float = 2.0
    reg_c: float = 1.0
    seed: int = 0
    horizon: float = 1000.0
    max_attempts: int = 100


# The built-in recipes, by name; callers override K, seed and horizon.
RECIPES = {
    "exp-k10": SyntheticRecipe(kind="exp-k10"),
    "pwl-k10": SyntheticRecipe(
        kind="pwl-k10", family="powerlaw", beta_true=1.5, alpha_divisor=200.0
    ),
}


@dataclass
class SyntheticInstance:
    recipe: SyntheticRecipe
    spec: ModelSpec
    params: ParamVector  # ground truth
    domain: BoxDomain
    init: ParamVector
    hp: HyperParams
    radius: float

    @property
    def reg_c(self):
        return self.recipe.reg_c

    @property
    def horizon(self):
        return self.recipe.horizon


def _kernel_for(recipe):
    if recipe.family == "exponential":
        return Exponential()
    if recipe.family == "powerlaw":
        return PowerLawCutoff(recipe.cutoff)
    raise ValueError(f"unknown kernel family {recipe.family!r}")


def generate_instance(recipe):
    """Sample ground truth until stationary, then build box, init, defaults."""
    for name in ("alpha_divisor", "mu_divisor"):
        value = getattr(recipe, name)
        if not (_is_finite(value) and value > 0):
            raise ValueError(f"{name}: expected a finite number > 0, got {value!r}")
    spec = ModelSpec(K=recipe.K, M=recipe.M, kernels=[_kernel_for(recipe)] * recipe.M)
    rng = np.random.default_rng(recipe.seed)
    K, M = recipe.K, recipe.M
    radius = np.inf
    for _ in range(recipe.max_attempts):
        alpha = rng.uniform(recipe.alpha_low, recipe.alpha_high, (M, K, K))
        alpha /= recipe.alpha_divisor
        mu = rng.uniform(recipe.mu_low, recipe.mu_high, K) / recipe.mu_divisor
        truth = ParamVector(mu=mu, alpha=alpha, beta=np.full(M, recipe.beta_true))
        radius = spectral_radius(branching_matrix(spec, truth))
        if radius < 1.0:
            break
    else:
        raise NoStationaryDrawError(
            f"no stationary draw after {recipe.max_attempts} attempts "
            f"(last radius {radius:.3g})"
        )

    domain = _scaled_domain(spec, truth, 100.0)
    # All-ones start with beta = 3, clipped into the box (the power-law
    # alpha bound sits below 1, so the raw start can be infeasible).
    raw = ParamVector(
        mu=np.ones(K), alpha=np.ones((M, K, K)), beta=np.full(M, 3.0)
    )
    im = spec.index_map
    init = im.unpack(project_onto_box(domain, im.pack(raw)))
    hp = HyperParams(
        gamma1=0.9,
        gamma2=0.9,
        tau1=1e-7,
        tau2=1e-7,
        delta=0.02,
        allow_noncompliant=True,
    )
    return SyntheticInstance(
        recipe=recipe,
        spec=spec,
        params=truth,
        domain=domain,
        init=init,
        hp=hp,
        radius=radius,
    )


def gen_synthetic_exponential(seed, K=10, horizon=1000.0):
    """Exponential-kernel instance: beta = 0.5, alpha divided by 11."""
    return generate_instance(
        replace(RECIPES["exp-k10"], K=K, seed=seed, horizon=horizon)
    )


def gen_synthetic_powerlaw(seed, K=10, horizon=1000.0):
    """Power-law instance: cutoff 0.05, alpha divided by 200, beta = 1.5."""
    return generate_instance(
        replace(RECIPES["pwl-k10"], K=K, seed=seed, horizon=horizon)
    )


@dataclass
class BenchmarkReport:
    algorithms: tuple
    seeds: tuple
    objectives: dict  # (algo, seed) -> objective per iteration incl. final
    seconds: dict  # (algo, seed) -> cumulative wall-clock per iteration
    regrets: dict  # (algo, seed) -> log(best + floor - objective)
    manifest: dict

    def final_objectives(self, algo):
        return np.array([self.objectives[(algo, s)][-1] for s in self.seeds])

    def median_final(self, algo):
        return float(np.median(self.final_objectives(algo)))

    def tables(self):
        """The report's CSV files: file name -> (header, rows)."""
        per_iter, per_second = [], []
        for cell in [(algo, seed) for algo in self.algorithms for seed in self.seeds]:
            objectives, seconds = self.objectives[cell].tolist(), self.seconds[cell].tolist()
            regrets = self.regrets[cell].tolist()
            per_iter += [(*cell, k, *pair) for k, pair in enumerate(zip(objectives, regrets))]
            per_second += [(*cell, sec, reg) for sec, reg in zip(seconds, regrets)]
        return {"regret_iter.csv": ("algorithm,seed,iter,objective,log_regret", per_iter),
                "regret_time.csv": ("algorithm,seed,seconds,log_regret", per_second)}


def _simulated_problem(instance, horizon, seed):
    """The likelihood problem of one cluster-sampled stream of ``instance`` on [0, horizon]."""
    events = simulate_cluster(instance.spec, instance.params, horizon, SimConfig(seed=seed))
    return LikelihoodProblem(instance.spec, events, instance.domain, reg_c=instance.reg_c)


def run_benchmark(instance, algorithms=ALGORITHMS, iters=None, seeds=(0, 1, 2, 3, 4)):
    """Simulate one stream per seed, run each algorithm from the shared init.

    Log-regret is log(best + floor - objective) with the best taken over all
    algorithms and iterations of the same stream (objectives of different
    streams are not comparable).
    """
    if not (iters is None or (_is_integer(iters) and iters >= 1)):
        raise ValueError(f"iters must be None or a positive integer, got {iters!r}")
    hp = instance.hp if iters is None else replace(instance.hp, max_iters=iters)
    algorithms = tuple(algorithms)
    runners = {algo: RUNNERS[algo] for algo in algorithms}  # KeyError before any work
    seeds = tuple(int(s) for s in seeds)
    for name, values in (("algorithms", algorithms), ("seeds", seeds)):
        if not values:
            raise ValueError(f"{name} must not be empty")

    objectives, seconds, regrets, best, n_events = {}, {}, {}, {}, {}
    for seed in seeds:
        prob = _simulated_problem(instance, instance.horizon, seed)
        n_events[seed] = prob.n
        for algo in algorithms:
            res = runners[algo](prob, hp, instance.init)
            objectives[(algo, seed)] = np.array(
                [r.objective for r in res.trace] + [res.final_objective]
            )
            seconds[(algo, seed)] = np.array(
                [r.seconds for r in res.trace] + [res.trace[-1].seconds]
            )
        best[seed] = max(float(objectives[(a, seed)].max()) for a in algorithms)
        for algo in algorithms:
            obj = objectives[(algo, seed)]
            gap = (best[seed] - obj) + REGRET_FLOOR  # exact floor at the best iterate
            assert np.all(gap > 0)
            regrets[(algo, seed)] = np.log(gap)

    manifest = {
        "recipe": asdict(instance.recipe),
        "stationarity_radius": instance.radius,
        "hyperparams": asdict(hp),
        "algorithms": list(algorithms),
        "seeds": list(seeds),
        "eps_floor": REGRET_FLOOR,
        "events_per_seed": {str(s): n_events[s] for s in seeds},
        "best_objective_per_seed": {str(s): best[s] for s in seeds},
    }
    return BenchmarkReport(
        algorithms=algorithms,
        seeds=seeds,
        objectives=objectives,
        seconds=seconds,
        regrets=regrets,
        manifest=manifest,
    )


@dataclass
class ConsistencyReport:
    rows: list  # dicts: horizon, seed, n_events, rel_error, final_objective
    medians: dict  # horizon -> median relative error
    manifest: dict

    def tables(self):
        """The report's CSV file: file name -> (header, rows)."""
        columns = ("horizon", "seed", "n_events", "rel_error", "final_objective")
        rows = [[r[c] for c in columns] for r in self.rows]
        return {"consistency.csv": (",".join(columns), rows)}


def _fit_init(prob, domain):
    """Deterministic data-driven start: damped empirical rates, modest alpha.

    The alpha entries start away from zero so the curvature of the beta block
    is visible to the step-size estimator.
    """
    im = prob.index_map
    counts = prob.events.counts(prob.spec.K).astype(float)
    flat = np.zeros(im.dim)
    flat[im.mu_slice] = 0.5 * counts / prob.T
    flat[im.alpha_slice] = 0.1
    flat[im.beta_slice] = 2.0
    return project_onto_box(domain, flat)


# Momentum and Anderson memory of fit_stream; the consistency manifest
# records them.
FIT_GAMMA = 0.5
FIT_MEMORY = 10


def fit_stream(problem, iters=400):
    """Fit one event stream with the safeguarded accelerated optimizer.

    Builds a data-driven starting point, estimates block curvature bounds both
    there and at a more excited probe point (the larger bound wins), and runs
    the accelerated scheme with momentum ``FIT_GAMMA``, memory ``FIT_MEMORY``
    and rule-based step sizes.
    """
    im = problem.index_map
    domain = problem.domain
    flat0 = _fit_init(problem, domain)
    l1, l2 = estimate_lipschitz_bounds(problem, flat0, safety=2.0)
    probe = flat0.copy()
    probe[im.alpha_slice] = np.minimum(
        4.0 * probe[im.alpha_slice], domain.ub_flat()[im.alpha_slice]
    )
    l1b, l2b = estimate_lipschitz_bounds(problem, probe, safety=2.0)
    hp = HyperParams(
        gamma1=FIT_GAMMA,
        gamma2=FIT_GAMMA,
        lbar1=max(l1, l1b),
        lbar2=max(l2, l2b),
        memory=FIT_MEMORY,
        max_iters=iters,
    )
    return run_aa_ipalm(problem, hp, flat0)


def _scaled_domain(spec, truth, scale):
    """Box of width ``scale`` both ways around the truth (beta floor kept)."""
    K, M = spec.K, spec.M
    beta_lb = truth.beta / scale
    for m, kern in enumerate(spec.kernels):
        if kern.name == "powerlaw":
            beta_lb[m] = max(beta_lb[m], 1.2)
    return BoxDomain(
        mu_lb=np.full(K, truth.mu.min() / scale),
        mu_ub=np.full(K, scale * truth.mu.max()),
        alpha_lb=np.zeros((M, K, K)),
        alpha_ub=np.full((M, K, K), scale * truth.alpha.max()),
        beta_lb=beta_lb,
        beta_ub=scale * truth.beta,
    )


def run_consistency_study(recipe, T_grid=(200.0, 2000.0), seeds_per_T=10, iters=300,
                          box_scale=10.0):
    """Fit accelerated runs to streams of growing horizon; report error vs T.

    For each horizon and stream, the relative parameter error
    ||theta_hat - theta*||_2 / ||theta*||_2 is recorded; medians per horizon
    summarize the study.  Curvature bounds are estimated at each stream's
    starting point, so step sizes adapt to the data volume.

    ``box_scale`` searches a box of that width (both ways) around the truth
    instead of the benchmark recipe's two-orders-of-magnitude box; the wide
    box has a long flat ridge in beta that desk-scale budgets cannot cross.
    Pass ``None`` to keep the recipe's own domain.
    """
    T_grid = [float(T) for T in T_grid]
    if not T_grid:
        raise ValueError("T_grid must not be empty")
    for name, value in (("seeds_per_T", seeds_per_T), ("iters", iters)):
        if not (_is_integer(value) and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    instance = generate_instance(recipe)
    if box_scale is not None:
        instance.domain = _scaled_domain(
            instance.spec, instance.params, float(box_scale)
        )
    im = instance.spec.index_map
    truth_flat = im.pack(instance.params)
    truth_norm = float(np.linalg.norm(truth_flat))

    rows = []
    for ti, T in enumerate(T_grid):
        for rep in range(seeds_per_T):
            sim_seed = recipe.seed * 1_000_003 + ti * 10_007 + rep
            prob = _simulated_problem(instance, T, sim_seed)
            res = fit_stream(prob, iters=iters)
            err = float(
                np.linalg.norm(im.pack(res.params) - truth_flat) / truth_norm
            )
            rows.append(
                {
                    "horizon": T,
                    "seed": sim_seed,
                    "n_events": prob.n,
                    "rel_error": err,
                    "final_objective": res.final_objective,
                }
            )
    medians = {
        T: float(
            np.median([r["rel_error"] for r in rows if r["horizon"] == T])
        )
        for T in T_grid
    }
    manifest = {
        "recipe": asdict(recipe),
        "T_grid": [float(T) for T in T_grid],
        "seeds_per_T": int(seeds_per_T),
        "iters": int(iters),
        "gamma": FIT_GAMMA,
        "memory": FIT_MEMORY,
        "medians": {str(k): v for k, v in medians.items()},
    }
    return ConsistencyReport(rows=rows, medians=medians, manifest=manifest)
