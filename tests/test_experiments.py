import json
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hawkes_mle import (
    SyntheticRecipe,
    gen_synthetic_exponential,
    gen_synthetic_powerlaw,
    generate_instance,
    run_benchmark,
    run_consistency_study,
    spectral_radius,
    branching_matrix,
)
from hawkes_mle import HyperParamsError, experiments
from hawkes_mle.experiments import REGRET_FLOOR, _scaled_domain
from hawkes_mle.io import write_report


def small_instance(seed=3):
    recipe = SyntheticRecipe(
        kind="custom",
        K=2,
        family="exponential",
        beta_true=0.8,
        alpha_low=0.05,
        alpha_high=0.3,
        alpha_divisor=1.0,
        mu_low=0.05,
        mu_high=0.15,
        mu_divisor=1.0,
        reg_c=1.0,
        seed=seed,
        horizon=200.0,
    )
    return generate_instance(recipe)


class TestRecipes:
    def test_exponential_recipe_defaults(self):
        inst = gen_synthetic_exponential(seed=0)
        assert inst.spec.K == 10 and inst.spec.M == 1
        assert inst.spec.kernels[0].name == "exponential"
        assert inst.params.beta[0] == 0.5
        assert inst.radius < 1.0
        a = inst.params.alpha
        assert np.all(a >= 0.001 / 11.0) and np.all(a <= 1.0 / 11.0)
        assert np.all(inst.params.mu >= 0.001 / 2.0)
        assert np.all(inst.params.mu <= 0.1 / 2.0)
        assert inst.recipe.reg_c == 1.0

    def test_exponential_bounds_bracket_init(self):
        inst = gen_synthetic_exponential(seed=1)
        dom, init = inst.domain, inst.init
        assert np.all(dom.mu_lb < init.mu) and np.all(init.mu < dom.mu_ub)
        assert np.all(dom.beta_lb < init.beta) and np.all(init.beta < dom.beta_ub)
        assert init.beta[0] == 3.0
        assert np.all(init.mu == 1.0)

    def test_exponential_hyperparams(self):
        hp = gen_synthetic_exponential(seed=0).hp
        assert hp.tau1 == 1e-7 and hp.tau2 == 1e-7
        assert hp.gamma1 == 0.9 and hp.gamma2 == 0.9
        assert hp.omega_bar == 0.1 and hp.nu == 0.1
        assert hp.delta == 0.02 and hp.c1 == 1e8 and hp.c2 == 1e8
        assert hp.memory == 20 and hp.max_iters == 500
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # delta below the rule: accepted, and each run warns
            assert [issue[:10] for issue in hp.validate("ipalm")] == ["delta=0.02"]

    def test_powerlaw_recipe(self):
        inst = gen_synthetic_powerlaw(seed=0)
        assert inst.spec.kernels[0].name == "powerlaw"
        assert inst.spec.kernels[0].c == 0.05
        assert inst.params.beta[0] > 1.0
        assert inst.domain.beta_lb[0] == 1.2  # max(beta/100, 1.2)
        assert np.all(inst.params.alpha <= 1.0 / 200.0)
        assert inst.radius < 1.0
        # clipped all-ones init stays feasible
        im = inst.spec.index_map
        assert inst.domain.contains(im.pack(inst.init))

    def test_generated_instances_stationary_across_seeds(self):
        for seed in range(5):
            inst = gen_synthetic_exponential(seed=seed, K=5)
            assert spectral_radius(branching_matrix(inst.spec, inst.params)) < 1.0

    def test_bad_family(self):
        with pytest.raises(ValueError):
            generate_instance(SyntheticRecipe(family="gamma"))

    @pytest.mark.parametrize("divisor", ["alpha_divisor", "mu_divisor"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_divisor_refused_before_dividing(self, divisor, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{divisor}: expected a finite number > 0"):
                generate_instance(SyntheticRecipe(**{divisor: value}))

    @pytest.mark.parametrize("name, value, phrase", [
        ("K", 0, "a positive integer"), ("seed", -1, "a non-negative integer"),
        ("horizon", 0.0, "a finite number > 0"), ("reg_c", -1.0, "a finite number >= 0"),
        ("alpha_low", float("nan"), "a finite number"),
        ("alpha_high", float("inf"), "a finite number"),
        ("mu_low", True, "a finite number"), ("mu_high", "0.1", "a finite number"),
        ("beta_true", None, "a finite number"),
    ])
    def test_recipe_values_refused_before_the_first_draw(self, name, value, phrase, monkeypatch):
        """Each value keeps its rule, in the config reader's words, before any draw: a NaN
        bound is not numpy's OverflowError, and a negative reg_c is not left to the fits."""
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the recipe")

        monkeypatch.setattr(experiments.np.random, "default_rng", refuse)
        message = f"{name}: expected {phrase}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_instance(SyntheticRecipe(**{"K": 2, name: value}))

    @pytest.mark.parametrize("recipe", [
        {"beta_true": 1e308}, {"mu_high": 1e308}, {"mu_low": -1e308},
        {"alpha_high": 1e307, "alpha_divisor": 0.05}, {"mu_high": 1.0, "mu_divisor": 1e-307},
    ], ids=["beta_true", "mu_high", "mu_low", "alpha_high", "mu_high-over-divisor"])
    def test_recipe_whose_box_overflows_refused_before_the_first_draw(self, recipe,
                                                                       monkeypatch):
        """The box spans 100 times the largest value a draw can take; an infinite bound
        is refused, naming the value, with no overflow warning."""
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the recipe")

        monkeypatch.setattr(experiments.np.random, "default_rng", refuse)
        name = next(k for k in recipe if "divisor" not in k)
        message = f"{name}: expected a value whose 100-fold box bound is finite, got "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message + repr(recipe[name]))):
                generate_instance(SyntheticRecipe(**{"K": 2, **recipe}))

    def test_recipe_at_the_largest_finite_box_draws(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = generate_instance(SyntheticRecipe(K=2, beta_true=1e306))
        assert inst.domain.beta_ub.tolist() == [1e308]

    def test_impossible_recipe_fails_cleanly(self):
        huge = SyntheticRecipe(kind="custom", K=4, alpha_divisor=0.1)
        with pytest.raises(RuntimeError, match="after 100 attempts"):
            generate_instance(huge)

    @pytest.mark.parametrize("K", [2.5, True])
    def test_non_integer_K_refused_by_the_spec(self, K):
        with pytest.raises(ValueError, match="K: expected a positive integer"):
            generate_instance(SyntheticRecipe(K=K))


class TestFullScaleRecipes:
    def test_exponential_k10_short_benchmark(self):
        # Full-size parameter vector (P = 111, doubled state 222) through all
        # three optimizers for a few iterations.
        inst = gen_synthetic_exponential(seed=2, horizon=300.0)
        assert inst.spec.K == 10
        assert inst.spec.index_map.dim == 10 + 100 + 1
        rep = run_benchmark(inst, iters=12, seeds=(0,))
        for algo in rep.algorithms:
            obj = rep.objectives[(algo, 0)]
            assert obj.size == 13 and np.all(np.isfinite(obj))

    def test_powerlaw_k10_short_benchmark(self):
        inst = gen_synthetic_powerlaw(seed=2, horizon=300.0)
        assert inst.spec.kernels[0].c == 0.05
        rep = run_benchmark(inst, iters=12, seeds=(0,))
        for algo in rep.algorithms:
            obj = rep.objectives[(algo, 0)]
            assert np.all(np.isfinite(obj))


class TestBenchmark:
    def test_report_structure_and_regret(self, tmp_path):
        inst = small_instance()
        rep = run_benchmark(inst, iters=30, seeds=(0, 1))
        assert rep.algorithms == ("palm", "ipalm", "aa-ipalm")
        for algo in rep.algorithms:
            for seed in rep.seeds:
                obj = rep.objectives[(algo, seed)]
                reg = rep.regrets[(algo, seed)]
                assert obj.size == 31 and reg.size == 31
                assert np.all(np.isfinite(obj))
        # best-ever iterate hits the floor exactly
        for seed in rep.seeds:
            best_reg = min(
                rep.regrets[(a, seed)].min() for a in rep.algorithms
            )
            assert best_reg == pytest.approx(np.log(REGRET_FLOOR))
        # shared init: identical regret at iteration 0
        for seed in rep.seeds:
            r0 = {a: rep.regrets[(a, seed)][0] for a in rep.algorithms}
            assert len(set(r0.values())) == 1

        outdir = tmp_path / "bench"
        write_report(outdir, rep)
        lines = (outdir / "regret_iter.csv").read_text().splitlines()
        assert lines[0] == "algorithm,seed,iter,objective,log_regret"
        assert len(lines) == 1 + 3 * 2 * 31
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]
        assert "hyperparams" in manifest and "recipe" in manifest
        tlines = (outdir / "regret_time.csv").read_text().splitlines()
        assert tlines[0] == "algorithm,seed,seconds,log_regret"
        # every value parses back to exactly the report's own
        cells = [(a, s) for a in rep.algorithms for s in rep.seeds]
        assert [
            (a, int(s), int(k), float(obj), float(reg))
            for a, s, k, obj, reg in (line.split(",") for line in lines[1:])
        ] == [
            (*cell, k, obj, reg) for cell in cells for k, (obj, reg) in
            enumerate(zip(rep.objectives[cell].tolist(), rep.regrets[cell].tolist()))
        ]
        assert [
            (a, int(s), float(sec), float(reg))
            for a, s, sec, reg in (line.split(",") for line in tlines[1:])
        ] == [
            (*cell, sec, reg) for cell in cells
            for sec, reg in zip(rep.seconds[cell].tolist(), rep.regrets[cell].tolist())
        ]

    def test_deterministic(self):
        inst = small_instance()
        a = run_benchmark(inst, iters=15, seeds=(0,))
        b = run_benchmark(inst, iters=15, seeds=(0,))
        for key in a.objectives:
            assert np.array_equal(a.objectives[key], b.objectives[key])


def refuse_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew an instance or a stream before checking the sizes")

    monkeypatch.setattr(experiments, "simulate_cluster", refuse)
    monkeypatch.setattr(experiments, "generate_instance", refuse)


class TestEmptySizes:
    """Empty or zero sizes are refused, naming the argument, before anything
    is drawn (the config reader refuses the same values)."""

    @pytest.mark.parametrize("name", ["algorithms", "seeds"])
    def test_benchmark_refuses_empty(self, name, monkeypatch):
        inst = small_instance()
        refuse_simulation(monkeypatch)
        with pytest.raises(ValueError, match=name):
            run_benchmark(inst, **{name: ()})

    @pytest.mark.parametrize("iters", [0, -1, 2.5, True])
    def test_benchmark_refuses_bad_iters(self, iters, monkeypatch):
        inst = small_instance()
        refuse_simulation(monkeypatch)
        with pytest.raises(ValueError, match="iters"):
            run_benchmark(inst, iters=iters)

    @pytest.mark.parametrize("seeds", [(0.5,), (True,), (0, -1), ("1",)])
    def test_benchmark_refuses_bad_seed(self, seeds, monkeypatch):
        inst = small_instance()
        refuse_simulation(monkeypatch)
        with pytest.raises(ValueError, match="seeds"):
            run_benchmark(inst, seeds=seeds)

    @pytest.mark.parametrize("name, value", [
        ("seeds", (0, 0)), ("seeds", (3, 1, np.int64(3))), ("algorithms", ("palm", "palm")),
    ])
    def test_benchmark_refuses_repeats(self, name, value, monkeypatch):
        inst = small_instance()
        refuse_simulation(monkeypatch)
        with pytest.raises(ValueError, match=f"{name}: expected a non-empty list of distinct "):
            run_benchmark(inst, **{name: value})

    def test_benchmark_refuses_an_unknown_algorithm_first(self, monkeypatch):
        inst = small_instance()
        refuse_simulation(monkeypatch)
        message = ("algorithms: expected a non-empty list of distinct values, each one of palm, "
                   "ipalm, aa-ipalm, got ('foo',)")
        with pytest.raises(ValueError, match=re.escape(message)):
            run_benchmark(inst, algorithms=("foo",))

    def test_benchmark_checks_names_before_repeats(self, monkeypatch):
        """An unhashable name is the algorithm rule's error, not the repeat test's TypeError."""
        inst = small_instance()
        refuse_simulation(monkeypatch)
        message = ("algorithms: expected a non-empty list of distinct values, each one of palm, "
                   "ipalm, aa-ipalm, got (['palm'],)")
        with pytest.raises(HyperParamsError, match=re.escape(message)):
            run_benchmark(inst, algorithms=(["palm"],))

    def test_benchmark_checks_hyperparameters_for_each_algorithm_first(self, monkeypatch):
        inst = small_instance()
        inst.hp = replace(inst.hp, allow_noncompliant=False)  # delta 0.02: iPALM's rule is higher
        refuse_simulation(monkeypatch)
        with pytest.raises(HyperParamsError, match="delta=0.02 is below"):
            run_benchmark(inst, algorithms=("palm", "ipalm"), iters=2)

    @pytest.mark.parametrize("T_grid", [[20.0, -5.0], [20.0, float("inf")], [0.0], [True]])
    def test_consistency_refuses_bad_horizon(self, T_grid, monkeypatch):
        refuse_simulation(monkeypatch)
        with pytest.raises(ValueError, match="T_grid"):
            run_consistency_study(experiments.RECIPES["exp-k10"], T_grid=T_grid)

    def test_consistency_refuses_a_repeated_horizon(self, monkeypatch):
        """Two cells of one horizon would pool their streams into one median."""
        refuse_simulation(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(
                "T_grid: expected a non-empty list of distinct values, each a finite number > 0, "
                "got (50.0, 50.0)")):
            run_consistency_study(experiments.RECIPES["exp-k10"], T_grid=(50.0, 50.0),
                                  seeds_per_T=2)

    @pytest.mark.parametrize("name, value", [
        ("seeds_per_T", 0), ("seeds_per_T", -1), ("iters", 0), ("T_grid", ()),
    ])
    def test_consistency_refuses_empty_or_zero(self, name, value, monkeypatch):
        refuse_simulation(monkeypatch)
        with pytest.raises(ValueError, match=name):
            run_consistency_study(experiments.RECIPES["exp-k10"], **{name: value})


class TestConsistencyStudy:
    def test_smoke_and_report(self, tmp_path):
        recipe = SyntheticRecipe(
            kind="custom",
            K=np.int64(2),  # an integer the recipe accepts; the manifest writes it as 2
            family="exponential",
            beta_true=1.0,
            alpha_low=0.05,
            alpha_high=0.2,
            alpha_divisor=1.0,
            mu_low=0.05,
            mu_high=0.15,
            mu_divisor=1.0,
            reg_c=0.0,
            seed=11,
        )
        rep = run_consistency_study(recipe, [60.0, 150.0], seeds_per_T=2, iters=60)
        assert len(rep.rows) == 4
        for r in rep.rows:
            assert np.isfinite(r["rel_error"]) and r["rel_error"] >= 0
            assert np.isfinite(r["final_objective"])
        assert set(rep.medians) == {60.0, 150.0}
        outdir = tmp_path / "cons"
        write_report(outdir, rep)
        lines = (outdir / "consistency.csv").read_text().splitlines()
        assert lines[0] == "horizon,seed,n_events,rel_error,final_objective"
        assert len(lines) == 5
        assert [
            (float(T), int(seed), int(n), float(err), float(obj))
            for T, seed, n, err, obj in (line.split(",") for line in lines[1:])
        ] == [
            (r["horizon"], r["seed"], r["n_events"], r["rel_error"], r["final_objective"])
            for r in rep.rows
        ]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seeds_per_T"] == 2
        assert manifest["recipe"]["K"] == 2

    def test_scaled_domain_contains_truth(self):
        inst = small_instance()
        dom = _scaled_domain(inst.spec, inst.params, 10.0)
        assert dom.contains(inst.spec.index_map.pack(inst.params))

    def test_poisson_case_error_shrinks_with_horizon(self):
        # With alpha = 0 the MLE is the empirical rate, so the error is
        # |n/T - mu| / mu and shrinks with T by the law of large numbers.
        from hawkes_mle import Exponential, ModelSpec, ParamVector, SimConfig
        from hawkes_mle import simulate_cluster

        spec = ModelSpec(K=1, M=1, kernels=[Exponential()])
        mu_star = 0.4
        truth = ParamVector(
            mu=np.array([mu_star]), alpha=np.zeros((1, 1, 1)), beta=np.array([1.0])
        )
        medians = {}
        for T in (200.0, 2000.0):
            errs = [
                abs(
                    len(simulate_cluster(spec, truth, T, SimConfig(seed=s))) / T
                    - mu_star
                )
                / mu_star
                for s in range(10)
            ]
            medians[T] = float(np.median(errs))
        assert medians[2000.0] < medians[200.0]


class TestCallingThread:
    def test_cells_start_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a benchmark or consistency cell started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        bench = run_benchmark(small_instance(), iters=3, seeds=(0, 1))
        assert set(bench.objectives) == {
            (a, s) for a in bench.algorithms for s in (0, 1)
        }
        cons = run_consistency_study(
            small_instance().recipe, [60.0], seeds_per_T=2, iters=3
        )
        assert len(cons.rows) == 2
