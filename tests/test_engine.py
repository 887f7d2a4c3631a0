"""The linear-time likelihood engine against the dense pairwise oracle.

``dense_oracle.DenseProblem`` sums every kernel pair of an explicit n x n
matrix; ``LikelihoodProblem`` uses the exponential recursion over time stamps
or a list of pairs.  Property tests draw streams (with ties, empty types,
n = 0, mixed kernels and beta at the box edges) and require the
objective and both gradient blocks to agree to 1e-12 relative.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from common import events, params, wide_domain
from dense_oracle import DenseProblem
from hawkes_mle import (
    Exponential,
    LikelihoodProblem,
    ModelSpec,
    PowerLawCutoff,
    SimConfig,
    intensity_at,
    simulate_cluster,
)
from hawkes_mle import experiments, likelihood
from hawkes_mle.io import DataError

RTOL = 1e-12
PROPERTY = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

KERNELS = {"exp": Exponential(), "pwl": PowerLawCutoff(0.05), "pwl-wide": PowerLawCutoff(0.7)}


@st.composite
def cases(draw, kernels=None, ties=None, many_blocks=False):
    """A problem and a point of its box: (LikelihoodProblem, flat).

    ``many_blocks`` draws dense streams with beta * T in [30, 300], so the
    exponential scan runs over several blocks of ``_SCAN_BLOCK`` stamps whose
    carries matter.
    """
    K = draw(st.integers(1, 3))
    names = kernels or draw(st.lists(st.sampled_from(sorted(KERNELS)), min_size=1, max_size=2))
    spec = ModelSpec(K=K, M=len(names), kernels=[KERNELS[k] for k in names])
    T = draw(st.floats(8.0, 60.0) if many_blocks else st.floats(0.5, 60.0))
    n = draw(st.integers(0, 120 if many_blocks else 40))
    times = np.sort(draw(st.lists(st.floats(0.0, T), min_size=n, max_size=n)))
    if ties if ties is not None else draw(st.booleans()):
        tick = draw(st.sampled_from([0.25, 1.0, 3.0]))
        times = np.floor(times / tick) * tick
    # Types come from a drawn subset, so some types may have no events.
    used = draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=K, unique=True))
    types = np.array([draw(st.sampled_from(used)) for _ in range(n)], dtype=np.int64)
    reg_c = draw(st.sampled_from([0.0, 0.1]))
    domain = wide_domain(spec, mu_hi=5.0, alpha_hi=5.0, beta_hi=40.0)
    prob = LikelihoodProblem(spec, events(times, types, horizon=T), domain, reg_c=reg_c)
    lb, ub = domain.lb_flat(), domain.ub_flat()
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=lb.size, max_size=lb.size)))
    flat = lb + u * (ub - lb)
    flat[prob.index_map.mu_slice] = np.maximum(flat[prob.index_map.mu_slice], 1e-3)
    edge = draw(st.sampled_from(["inside", "lower", "upper"]))
    if many_blocks:
        flat[prob.index_map.beta_slice] = draw(st.floats(30.0, 300.0)) / T
    elif edge != "inside":
        flat[prob.index_map.beta_slice] = (lb if edge == "lower" else ub)[prob.index_map.beta_slice]
    return prob, flat


def assert_agrees(prob, flat):
    oracle = DenseProblem(prob)
    im = prob.index_map
    obj, grad = prob.objective_and_grad_flat(flat)
    obj0, grad0 = oracle.objective_flat(flat), oracle.grad_flat(flat)
    # The objective is a difference of large terms; T * sum(mu) is one of them.
    scale = max(abs(obj0), prob.T * float(flat[im.mu_slice].sum()))
    assert abs(obj - obj0) <= RTOL * scale, (obj, obj0)
    for block in (im.mu_alpha_slice, im.beta_slice):
        g, g0 = grad[block], grad0[block]
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(g0))
        assert np.abs(g - g0).max() <= RTOL * np.abs(g0).max(), (g, g0)
    # The single-block calls the optimizer makes give the same numbers.
    np.testing.assert_array_equal(prob.grad_flat(flat, beta=False)[im.mu_alpha_slice],
                                  grad[im.mu_alpha_slice])
    np.testing.assert_array_equal(prob.grad_flat(flat, mu_alpha=False)[im.beta_slice],
                                  grad[im.beta_slice])
    assert prob.objective_flat(flat) == obj


@PROPERTY
@given(cases())
def test_random_streams_match_oracle(case):
    assert_agrees(*case)


@PROPERTY
@given(cases(ties=True))
def test_tied_stamps_match_oracle(case):
    assert_agrees(*case)


@PROPERTY
@given(cases(kernels=["exp", "pwl"]))
def test_mixed_kernels_match_oracle(case):
    assert_agrees(*case)


@PROPERTY
@given(cases(kernels=["exp"]))
def test_exponential_recursion_matches_oracle(case):
    assert_agrees(*case)


@PROPERTY
@given(cases(kernels=["exp"], many_blocks=True))
def test_exponential_scan_carries_match_oracle(case):
    assert_agrees(*case)


def test_empty_stream_matches_oracle():
    spec = ModelSpec(K=2, M=2, kernels=[Exponential(), PowerLawCutoff(0.05)])
    prob = LikelihoodProblem(spec, events([], horizon=10.0), wide_domain(spec), reg_c=0.1)
    assert_agrees(prob, prob.index_map.pack(params([0.3, 0.2], np.full((2, 2, 2), 0.1), [2.0, 1.5])))


def test_long_stream_matches_oracle():
    """Hundreds of stamps: many blocks of ``_SCAN_BLOCK`` stamps and their carries."""
    spec = ModelSpec(K=3, M=1, kernels=[Exponential()])
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0.0, 200.0, 900))
    prob = LikelihoodProblem(spec, events(times, rng.integers(0, 3, 900), horizon=200.0),
                             wide_domain(spec))
    for beta in (1e-3, 0.4, 7.0, 90.0):
        pv = params(rng.uniform(0.1, 1.0, 3), rng.uniform(0.0, 0.2, (3, 3)), beta)
        assert_agrees(prob, prob.index_map.pack(pv))


# Per-type sums are segment sums from each type's first row, so these streams
# put a type without events first, in the middle and last (whose block would
# start at row n), or leave one type alone.  Values are (K, types drawn from).
EMPTY_TYPE_CASES = {
    "first-empty": (3, (1, 2)),
    "middle-empty": (3, (0, 2)),
    "last-empty": (3, (0, 1)),
    "k1": (1, (0,)),
    "one-type": (3, (1,)),
    "last-type-only": (3, (2,)),
    "n0": (3, ()),
}


@pytest.mark.parametrize("case", sorted(EMPTY_TYPE_CASES))
@pytest.mark.parametrize("kernels", [["exp"], ["pwl"], ["exp", "pwl"]], ids=["exp", "pwl", "mixed"])
def test_types_without_events_match_oracle(kernels, case):
    K, fired = EMPTY_TYPE_CASES[case]
    spec = ModelSpec(K=K, M=len(kernels), kernels=[KERNELS[k] for k in kernels])
    rng = np.random.default_rng(len(fired) * 10 + K)
    n = 40 if fired else 0
    times = np.sort(np.floor(rng.uniform(0.0, 20.0, n) * 4.0) / 4.0)
    ev = events(times, rng.choice(fired, n) if n else [], horizon=20.0)
    prob = LikelihoodProblem(spec, ev, wide_domain(spec), reg_c=0.1)
    for _ in range(3):
        pv = params(rng.uniform(0.1, 1.0, K), rng.uniform(0.0, 0.5, (spec.M, K, K)),
                    rng.uniform(1.3, 3.0, spec.M))
        assert_agrees(prob, prob.index_map.pack(pv))


# -- out-of-box beta ----------------------------------------------------------


def finite_pattern(value):
    return tuple(np.isfinite(np.atleast_1d(value)))


def objective_outcome(problem, flat):
    """The objective's finite pattern, or "raised" for the documented invariant error."""
    try:
        return finite_pattern(problem.objective_flat(flat))
    except RuntimeError:
        return "raised"


@pytest.mark.parametrize("kernel", ["exp", "pwl"])
@pytest.mark.parametrize("beta", [0.0, -1.0, 1e6, math.nan, 1e300, -1e300])
def test_out_of_box_beta_returns_like_oracle(kernel, beta):
    """Extrapolated AA candidates can carry any beta; evaluation must return."""
    spec = ModelSpec(K=3, M=1, kernels=[KERNELS[kernel]])
    ev = events([0.0, 0.5, 0.5, 1.25, 2.0, 3.5], [2, 1, 0, 1, 0, 0], horizon=5.0)
    prob = LikelihoodProblem(spec, ev, wide_domain(spec), reg_c=0.1)
    oracle = DenseProblem(prob)
    flat = prob.index_map.pack(params([0.3, 0.2, 0.4], np.full((3, 3), 0.1), beta))
    for blocks in ((True, True), (True, False), (False, True)):
        assert finite_pattern(prob.grad_flat(flat, *blocks)) == finite_pattern(
            oracle.grad_flat(flat, *blocks))
    assert objective_outcome(prob, flat) == objective_outcome(oracle, flat)


@pytest.mark.parametrize("beta", [-3.0, math.inf])
def test_out_of_box_beta_on_recipe_stream_returns_like_oracle(beta):
    """On a recipe stream, exponential sums that overflow make NaN rows as in
    the oracle: the objective raises at beta = -3 and is -inf at beta = inf."""
    inst = experiments.generate_instance(
        experiments.SyntheticRecipe(kind="exp-k10", K=3, seed=0, horizon=300.0))
    ev = simulate_cluster(inst.spec, inst.params, inst.horizon, SimConfig(seed=0))
    prob = LikelihoodProblem(inst.spec, ev, inst.domain, reg_c=inst.reg_c)
    assert prob.n == 52
    oracle = DenseProblem(prob)
    flat = prob.index_map.pack(inst.init)
    flat[prob.index_map.beta_slice] = beta
    with np.errstate(all="ignore"):
        for blocks in ((True, True), (True, False), (False, True)):
            assert finite_pattern(prob.grad_flat(flat, *blocks)) == finite_pattern(
                oracle.grad_flat(flat, *blocks))
        assert objective_outcome(prob, flat) == objective_outcome(oracle, flat)


# -- the exponential scan -----------------------------------------------------


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("G", [0, 1, 15, 16, 17, 255, 256, 257, 4097])
def test_decay_scan_matches_plain_recursion(G, K):
    """Rows at block edges and at each level of the doubling, with factors of
    exactly 0 and 1, against Y[g] = a[g] Y[g-1] + x[g] one row at a time."""
    rng = np.random.default_rng(G * 10 + K)
    # Factors near 1 keep carries alive across many blocks; one zero cuts them.
    a = rng.uniform(0.995, 1.0, G)
    a[rng.random(G) < 0.3] = 1.0
    a[G // 3 : G // 3 + 1] = 0.0
    x = rng.uniform(0.0, 1.0, (G, K))
    expected, y = np.empty((G, K)), np.zeros(K)
    for g in range(G):
        y = a[g] * y + x[g]
        expected[g] = y
    a = likelihood._blocked(a)
    Y = likelihood._decay_scan(a, likelihood._blocked(x), likelihood._scan_products(a))
    rows = Y[np.divmod(np.arange(G), likelihood._SCAN_BLOCK)[::-1]]
    np.testing.assert_allclose(rows, expected, rtol=1e-12, atol=0.0)


def test_exponential_pass_takes_the_same_steps_at_every_beta():
    """The scan's work depends on the stream alone: the count of C calls in
    one exponential pass is the same at every beta."""
    rng = np.random.default_rng(3)
    n, K = 2000, 3
    spec = ModelSpec(K=K, M=1, kernels=[Exponential()])
    prob = LikelihoodProblem(
        spec, events(np.sort(rng.uniform(0.0, 500.0, n)), rng.integers(0, K, n),
                     horizon=500.0), wide_domain(spec))

    def c_calls(beta):
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(event == "c_call"))
        try:
            prob._kernel_sums(0, beta)
        finally:
            sys.setprofile(None)
        return sum(calls)

    counts = [c_calls(beta) for beta in (0.0, 0.5, 40.0, 1000.0)]
    assert len(set(counts)) == 1, counts


# -- intensities from the kernel sums vs intensity_at --------------------------


@pytest.mark.parametrize("kernels", [["exp"], ["pwl"], ["exp", "pwl-wide"]])
def test_event_intensities_match_intensity_at(kernels):
    """lam at each event from the engine's sums equals the direct scan."""
    K = 3
    spec = ModelSpec(K=K, M=len(kernels), kernels=[KERNELS[k] for k in kernels])
    rng = np.random.default_rng(5)
    times = np.sort(np.floor(rng.uniform(0.0, 12.0, 80) * 4.0) / 4.0)  # many ties
    types = rng.integers(0, K, times.size)
    prob = LikelihoodProblem(spec, events(times, types, horizon=12.0), wide_domain(spec))
    pv = params(rng.uniform(0.1, 1.0, K), rng.uniform(0.0, 0.5, (spec.M, K, K)),
                [1.3, 2.0][: spec.M])
    # The engine's rows go by type, then time.
    rows = np.argsort(types, kind="stable")
    times, types = times[rows], types[rows]
    lam = pv.mu[types].copy()
    for m in range(spec.M):
        R, _ = prob._kernel_sums(m, float(pv.beta[m]))
        lam += np.einsum("aj,aj->a", pv.alpha[m][types], R)
    direct = [intensity_at(prob, pv, t, i) for t, i in zip(times, types)]
    np.testing.assert_allclose(lam, direct, rtol=1e-12, atol=0.0)


# -- memory --------------------------------------------------------------------


def traced_peak(build_and_evaluate):
    tracemalloc.start()
    try:
        build_and_evaluate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exponential_engine_allocates_no_pair_storage():
    """An exponential stream needs O(n K) memory; a dense n x n float is 8 n^2."""
    n, K = 4000, 2
    spec = ModelSpec(K=K, M=1, kernels=[Exponential()])
    rng = np.random.default_rng(2)
    ev = events(np.sort(rng.uniform(0.0, 500.0, n)), rng.integers(0, K, n), horizon=500.0)
    flat = spec.index_map.pack(params([0.5, 0.5], np.full((K, K), 0.2), 1.5))

    def run():
        prob = LikelihoodProblem(spec, ev, wide_domain(spec))
        prob.objective_and_grad_flat(flat)

    assert traced_peak(run) < 0.05 * 8 * n * n


def test_exponential_problem_holds_no_type_indicator():
    """A built exponential problem keeps the scan's stamp counts (one n x K
    array) and per-event vectors, but no n x K indicator of the types."""
    n, K = 2000, 10
    spec = ModelSpec(K=K, M=1, kernels=[Exponential()])
    rng = np.random.default_rng(4)
    ev = events(np.sort(rng.uniform(0.0, 500.0, n)), rng.integers(0, K, n), horizon=500.0)
    domain = wide_domain(spec)
    tracemalloc.start()
    try:
        prob = LikelihoodProblem(spec, ev, domain)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert prob.n == n
    assert held < 1.6 * 8 * n * K, held / (8 * n * K)


def test_pair_list_stays_below_dense_storage():
    """n(n-1)/2 pairs at 8 bytes each plus O(n K) cell bounds, and a lower
    peak than the dense oracle."""
    n, K = 1000, 2
    spec = ModelSpec(K=K, M=1, kernels=[PowerLawCutoff(0.05)])
    rng = np.random.default_rng(2)
    ev = events(np.sort(rng.uniform(0.0, 500.0, n)), rng.integers(0, K, n), horizon=500.0)
    flat = spec.index_map.pack(params([0.5, 0.5], np.full((K, K), 0.2), 1.5))
    prob = LikelihoodProblem(spec, ev, wide_domain(spec))
    logs, starts, cells = prob._pair_logs[0.05], prob._cell_start, prob._cell_index
    assert logs.size == n * (n - 1) // 2 and starts.size + cells.size <= 2 * n * K
    assert logs.nbytes + starts.nbytes + cells.nbytes <= 8 * n * (n - 1) // 2 + 16 * n * K

    new = traced_peak(lambda: LikelihoodProblem(spec, ev, wide_domain(spec)).grad_flat(flat))
    assert new < traced_peak(lambda: DenseProblem(prob).grad_flat(flat))


def test_pair_budget_refuses_before_allocating(monkeypatch):
    """Over the budget of pairs times distinct cutoffs, construction raises
    DataError naming n, the pairs and the bytes, with no pair-sized allocation."""
    n, K = 2000, 2
    pairs = n * (n - 1) // 2
    rng = np.random.default_rng(5)
    ev = events(np.sort(rng.uniform(0.0, 500.0, n)), rng.integers(0, K, n), horizon=500.0)
    one = ModelSpec(K=K, M=1, kernels=[KERNELS["pwl"]])
    two = ModelSpec(K=K, M=2, kernels=[KERNELS["pwl"], KERNELS["pwl-wide"]])
    monkeypatch.setattr(likelihood, "_PAIR_BUDGET", pairs)
    # One cutoff fills the budget exactly; a second one passes it.
    assert LikelihoodProblem(one, ev, wide_domain(one))._pair_logs[0.05].size == pairs

    def refused():
        with pytest.raises(DataError) as exc:
            LikelihoodProblem(two, ev, wide_domain(two))
        message = str(exc.value)
        assert f"{n} events" in message and f"{pairs} power-law kernel pairs" in message
        assert f"{16 * pairs} bytes" in message

    assert traced_peak(refused) < 8 * pairs / 20

    # At a budget that admits both cutoffs, building takes what it names.
    monkeypatch.setattr(likelihood, "_PAIR_BUDGET", 2 * pairs)
    assert traced_peak(lambda: LikelihoodProblem(two, ev, wide_domain(two))) < 1.1 * 16 * pairs


def tied_problem(kernels):
    """A stream whose stamps fall on a 0.5 tick, so most events share one:
    (spec, events, a point of the box)."""
    n, K = 600, 3
    spec = ModelSpec(K=K, M=len(kernels), kernels=[KERNELS[k] for k in kernels])
    rng = np.random.default_rng(9)
    times = np.floor(np.sort(rng.uniform(0.0, 100.0, n)) / 0.5) * 0.5
    ev = events(times, rng.integers(0, K, n), horizon=100.0)
    flat = spec.index_map.pack(params(rng.uniform(0.1, 1.0, K),
                                      rng.uniform(0.0, 0.05, (spec.M, K, K)),
                                      [1.7, 2.3][: spec.M]))
    return spec, ev, flat


def pair_counts(times):
    """(pairs per distinct stamp, pairs per event): the events strictly
    earlier than each distinct stamp, and than each event, summed."""
    before = np.searchsorted(times, np.unique(times), side="left").sum()
    return int(before), int(np.searchsorted(times, times, side="left").sum())


def test_tied_stamps_share_cells():
    """Tied events share their stamp's cells, so each earlier event makes one
    pair per distinct stamp, not one per event at it."""
    spec, ev, _ = tied_problem(("pwl", "exp"))
    per_stamp, per_event = pair_counts(ev.times)
    assert 2 * per_stamp < per_event
    prob = LikelihoodProblem(spec, ev, wide_domain(spec))
    assert prob._pair_logs[0.05].size == per_stamp
    assert prob._cell_start.size == prob._cell_index.size <= spec.K * np.unique(ev.times).size


def test_pair_budget_counts_pairs_per_stamp(monkeypatch):
    """A tied stream over the budget per event but within it per stamp builds,
    and matches the dense oracle."""
    spec, ev, flat = tied_problem(("pwl", "pwl-wide"))
    per_stamp, per_event = pair_counts(ev.times)
    monkeypatch.setattr(likelihood, "_PAIR_BUDGET", 2 * per_stamp)
    assert 2 * per_event > likelihood._PAIR_BUDGET
    assert_agrees(LikelihoodProblem(spec, ev, wide_domain(spec), reg_c=0.1), flat)
    monkeypatch.setattr(likelihood, "_PAIR_BUDGET", 2 * per_stamp - 1)
    with pytest.raises(DataError, match=f"{per_stamp} power-law kernel pairs"):
        LikelihoodProblem(spec, ev, wide_domain(spec))


# -- power-law passes split into parts ------------------------------------------

SPLIT_CASES = {
    "pwl-k3": (["pwl"], 3, None, (0, 1, 2)),
    "two-cutoffs": (["pwl", "pwl-wide"], 2, None, (0, 1)),
    "mixed": (["exp", "pwl"], 2, None, (0, 1)),
    "ties": (["pwl"], 3, 0.25, (0, 1, 2)),
    "silent-type": (["pwl-wide"], 3, None, (0, 2)),
}


def split_case(name, n=150):
    """A problem of ``SPLIT_CASES[name]`` and a point of its box."""
    kernels, K, tick, fired = SPLIT_CASES[name]
    spec = ModelSpec(K=K, M=len(kernels), kernels=[KERNELS[k] for k in kernels])
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.0, 40.0, n))
    if tick:
        times = np.floor(times / tick) * tick
    ev = events(times, rng.choice(fired, n), horizon=40.0)
    prob = LikelihoodProblem(spec, ev, wide_domain(spec), reg_c=0.1)
    flat = prob.index_map.pack(params(rng.uniform(0.1, 1.0, K),
                                      rng.uniform(0.0, 0.3, (spec.M, K, K)),
                                      [1.7, 2.3][: spec.M]))
    return prob, flat


def force_parts(prob, parts):
    """Run ``prob``'s power-law passes in ``parts`` parts; drop its memo."""
    pairs = next(iter(prob._pair_logs.values())).size
    prob._parts = likelihood._split(prob._cell_start, pairs, parts)
    assert len(prob._parts) == parts + 1
    prob._memo = ()


def split_pass(prob, flat):
    """Every power-law kernel's (R, D) at ``flat``, then objective and gradient."""
    beta = flat[prob.index_map.beta_slice]
    sums = [prob._kernel_sums(m, float(beta[m]))
            for m, k in enumerate(prob.spec.kernels) if k.name == "powerlaw"]
    return sums, prob.objective_and_grad_flat(flat)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_passes_give_identical_bits(case):
    """Each cell is summed inside one part, so any count of parts gives the
    same bits."""
    prob, flat = split_case(case)
    force_parts(prob, 1)
    (sums, (obj, grad)) = split_pass(prob, flat)
    for parts in (2, 3, 4):
        force_parts(prob, parts)
        sums_k, (obj_k, grad_k) = split_pass(prob, flat)
        for (R, D), (R_k, D_k) in zip(sums, sums_k):
            np.testing.assert_array_equal(R_k, R)
            np.testing.assert_array_equal(D_k, D)
        assert obj_k == obj
        np.testing.assert_array_equal(grad_k, grad)


def test_part_count_follows_pairs():
    prob, _ = split_case("pwl-k3", n=1500)
    pairs = prob._pair_logs[0.05].size
    assert len(prob._parts) == -(-pairs // likelihood._PART_PAIRS) + 1 > 2
