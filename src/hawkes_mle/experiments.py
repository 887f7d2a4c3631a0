"""Synthetic instances, algorithm benchmarks, and consistency studies.

The two built-in recipes mirror the desk-scale comparison setup: K types,
one base kernel (the power-law one with its class's cutoff c = 0.05),
excitation weights sampled uniformly then divided by a stationarity divisor,
baselines sampled uniformly and halved, Tikhonov coefficient 1, box bounds
spanning two orders of magnitude around the truth, all-ones initialization
with beta = 3, step sizes 1e-7 and momentum 0.9 for 500 iterations.  A
recipe gets ``MAX_DRAWS`` draws to find a stationary truth.  A consistency
study searches the box ``STUDY_BOX_SCALE`` wide around the truth instead.

Benchmark cells (one simulated stream per seed, three algorithms from a
shared initial point) and consistency cells run in order in the calling
thread, so each run's ``seconds`` are its own wall-clock time.  A report's
``manifest`` and CSV ``tables()`` are written by ``io.write_report``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .likelihood import LikelihoodProblem
from .model import (
    BoxDomain,
    ModelSpec,
    ParamVector,
    _FAMILIES,
    _RULES,
    _or_null,
    _require,
    branching_matrix,
    project_onto_box,
    spectral_radius,
)
from .optim import (
    _ALGORITHM,
    RUNNERS,
    HyperParams,
    HyperParamsError,
    estimate_lipschitz_bounds,
    run_aa_ipalm,
)
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
# Ground-truth draws a recipe gets before NoStationaryDrawError.
MAX_DRAWS = 100
# Width (both ways around the truth) of a recipe's box.
BOX_SCALE = 100.0


class NoStationaryDrawError(RuntimeError):
    """A recipe drew no stationary ground truth in ``MAX_DRAWS`` (100) draws."""


@dataclass(frozen=True)
class SyntheticRecipe:
    """Sampling plan for a synthetic ground-truth instance."""

    kind: str = "exp-k10"  # "exp-k10", "pwl-k10", or "custom"
    K: int = 10
    family: str = "exponential"  # "exponential" or "powerlaw", with the class's defaults
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


# The rule each numeric recipe value keeps: ``generate_instance`` checks them before its
# first draw, and the config reader's recipe section checks a dict recipe with them.
_RECIPE_RULES = {
    "K": _RULES["positive_int"], "seed": _RULES["nonnegative_int"],
    "horizon": _RULES["positive"], "reg_c": _RULES["nonnegative"],
    "alpha_divisor": _RULES["positive"], "mu_divisor": _RULES["positive"],
    **dict.fromkeys(("beta_true", "alpha_low", "alpha_high", "mu_low", "mu_high"),
                    _RULES["finite"]),
}

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


def generate_instance(recipe):
    """Check the recipe, sample ground truth until stationary, then build box, init, defaults."""
    for name, rule in _RECIPE_RULES.items():
        _require(name, getattr(recipe, name), rule)
    # The box's upper bounds are BOX_SCALE times the largest value a draw can take.
    for name, divisor in (("beta_true", 1.0), ("alpha_low", recipe.alpha_divisor),
                          ("alpha_high", recipe.alpha_divisor), ("mu_low", recipe.mu_divisor),
                          ("mu_high", recipe.mu_divisor)):
        value = getattr(recipe, name)
        if not math.isfinite(BOX_SCALE * (abs(float(value)) / float(divisor))):
            raise ValueError(f"{name}: expected a value whose {BOX_SCALE:g}-fold box bound is "
                             f"finite, got {value!r}")
    if recipe.family not in tuple(_FAMILIES):
        raise ValueError(f"unknown kernel family {recipe.family!r}")
    spec = ModelSpec(K=recipe.K, M=1, kernels=[_FAMILIES[recipe.family]()])
    rng = np.random.default_rng(recipe.seed)
    K = recipe.K
    radius = np.inf
    for _ in range(MAX_DRAWS):
        alpha = rng.uniform(recipe.alpha_low, recipe.alpha_high, (1, K, K))
        alpha /= recipe.alpha_divisor
        mu = rng.uniform(recipe.mu_low, recipe.mu_high, K) / recipe.mu_divisor
        truth = ParamVector(mu=mu, alpha=alpha, beta=[recipe.beta_true])
        radius = spectral_radius(branching_matrix(spec, truth))
        if radius < 1.0:
            break
    else:
        raise NoStationaryDrawError(
            f"no stationary draw after {MAX_DRAWS} attempts (last radius {radius:.3g})"
        )

    domain = _scaled_domain(spec, truth, BOX_SCALE)
    # All-ones start with beta = 3, clipped into the box (the power-law
    # alpha bound sits below 1, so the raw start can be infeasible).
    raw = ParamVector(mu=np.ones(K), alpha=np.ones((1, K, K)), beta=[3.0])
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
    """Power-law instance: ``PowerLawCutoff``'s cutoff 0.05, alpha divided by 200, beta = 1.5."""
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
    streams are not comparable).  The arguments and ``instance.hp`` (for each
    algorithm) are checked before any stream is simulated; seeds and names must differ.
    """
    _require("iters", iters, _or_null(_RULES["positive_int"]))
    hp = instance.hp if iters is None else replace(instance.hp, max_iters=iters)
    algorithms = tuple(_require("algorithms", a, _ALGORITHM, HyperParamsError) for a in algorithms)
    seeds = tuple(int(_require("seeds", s, _RULES["nonnegative_int"])) for s in seeds)
    for name, values in (("algorithms", algorithms), ("seeds", seeds)):
        if not values:
            raise ValueError(f"{name} must not be empty")
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat a value, got {values!r}")
    for algo in algorithms:
        hp.validate(algo)  # non-compliant values raise before any simulation

    objectives, seconds, regrets, best, n_events = {}, {}, {}, {}, {}
    for seed in seeds:
        prob = _simulated_problem(instance, instance.horizon, seed)
        n_events[seed] = prob.n
        for algo in algorithms:
            res = RUNNERS[algo](prob, hp, instance.init)
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


# Width (both ways around the truth) of the box a consistency study searches: the
# benchmark recipes' two-orders-of-magnitude box has a long flat ridge in beta that
# desk-scale budgets cannot cross.
STUDY_BOX_SCALE = 10.0


def run_consistency_study(recipe, T_grid=(200.0, 2000.0), seeds_per_T=10, iters=300):
    """Fit accelerated runs to streams of growing horizon; report error vs T.

    For each horizon and stream, the relative parameter error
    ||theta_hat - theta*||_2 / ||theta*||_2 is recorded; medians per horizon
    summarize the study.  Curvature bounds are estimated at each stream's
    starting point, so step sizes adapt to the data volume.  The fits search
    the box ``STUDY_BOX_SCALE`` wide around the truth.
    """
    T_grid = [float(_require("T_grid", T, _RULES["positive"])) for T in T_grid]
    if not T_grid:
        raise ValueError("T_grid must not be empty")
    _require("seeds_per_T", seeds_per_T, _RULES["positive_int"])
    _require("iters", iters, _RULES["positive_int"])
    instance = generate_instance(recipe)
    instance.domain = _scaled_domain(instance.spec, instance.params, STUDY_BOX_SCALE)
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
        "T_grid": T_grid,
        "seeds_per_T": int(seeds_per_T),
        "iters": int(iters),
        "gamma": FIT_GAMMA,
        "memory": FIT_MEMORY,
        "medians": {str(k): v for k, v in medians.items()},
    }
    return ConsistencyReport(rows=rows, medians=medians, manifest=manifest)
