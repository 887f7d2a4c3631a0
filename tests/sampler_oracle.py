"""Per-draw samplers: the oracle for the samplers' precomputed inner loops.

``simulate_cluster``, ``simulate_thinning`` and ``offspring_offsets`` below
are the package's samplers as they were written before the per-call set-up
was hoisted out of their loops.  The cluster sampler calls
``offspring_offsets`` once per (event, target type, kernel), with its checks;
the thinning sampler evaluates the intensities over the whole history twice
per candidate and rebuilds the history arrays on every acceptance.  That
costs O(n) per candidate, so they are only for small test streams; each
quantity is computed directly from its definition, which is what makes them
a trustworthy reference.  They draw in the same order as the package's
samplers, from the generators of ``SeedSequence(seed).spawn(3)`` (immigrants,
offspring, thinning), and the cluster sampler orders its output by one
three-key ``lexsort`` on (time, generation, type); the package builds each
child stream from its spawn key and orders by one stable sort of the times.

``simulate_thinning_stacked`` is the thinning sampler's O(M K) form with one
stacked array per step: every exponential kernel's state decayed by one array
``np.exp`` and summed by ``decay @ excite``, and an acceptance typed by
``lam.cumsum().searchsorted``.  The package's sampler must give its streams
byte for byte, on whatever platform both run.
"""

from __future__ import annotations

import numpy as np

from hawkes_mle.model import Exponential, intensities
from hawkes_mle.simulate import EventSequence, SimulationCapError, _check_inputs


def spawn_generators(seed):
    """The generators of the immigrant, offspring and thinning streams."""
    return [np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(3)]


def offspring_offsets(family, alpha_total, beta, window, rng):
    """Offsets of one event's offspring of a single kernel within ``window``.

    The count is Poisson(alpha_total * Phi(window; beta)); each offset is the
    analytic inverse of the truncated antiderivative CDF u -> Phi(u)/Phi(window).
    """
    if alpha_total < 0:
        raise ValueError("alpha_total must be nonnegative")
    if not window > 0:
        raise ValueError("window must be positive")
    family.validate_beta(beta)
    mass = float(family.antiderivative(window, beta))
    n = int(rng.poisson(alpha_total * mass))
    if n == 0:
        return np.empty(0)
    p = rng.uniform(size=n)
    return family.inverse_antiderivative(p * mass, beta)


def intensities_through(spec, params, times, types, t):
    """Per-type intensities just after t, summing every event of a history
    that ends at or before t (``intensities`` sums only s < t)."""
    lam = params.mu.copy()
    if not times.size:
        return lam
    for m, kern in enumerate(spec.kernels):
        phi = kern.value(t - times, float(params.beta[m]))
        lam += params.alpha[m] @ np.bincount(types, weights=phi, minlength=spec.K)
    return lam


def simulate_cluster(spec, params, horizon, config):
    """Sample a path on [0, horizon] by the branching construction.

    Immigrants of type k arrive as Poisson(mu_k) on [0, T]; every event of
    type j at time s spawns, per target type i and kernel m, a
    Poisson(alpha[m,i,j] * Phi_m(T - s)) number of offspring.  Generations are
    processed breadth first; output ties are ordered by (time, generation,
    type) for reproducibility.
    """
    horizon = _check_inputs(spec, params, horizon)

    rng_imm, rng_off, _ = spawn_generators(config.seed)
    K, M = spec.K, spec.M

    all_times, all_gens, all_types = [], [], []
    current = []  # (time, type), deterministic processing order
    for k in range(K):
        n_k = rng_imm.poisson(params.mu[k] * horizon)
        t_k = np.sort(rng_imm.uniform(0.0, horizon, size=n_k))
        current.extend((float(t), k) for t in t_k)
    current.sort()

    total = 0
    gen = 0
    while current:
        for t, k in current:
            all_times.append(t)
            all_gens.append(gen)
            all_types.append(k)
        total += len(current)
        if total > config.max_events:
            raise SimulationCapError(total, config.max_events)

        nxt = []
        for s, j in current:
            window = horizon - s
            if window <= 0:
                continue
            for i in range(K):
                for m in range(M):
                    a = float(params.alpha[m, i, j])
                    if a == 0.0:
                        continue
                    offs = offspring_offsets(
                        spec.kernels[m], a, float(params.beta[m]), window, rng_off
                    )
                    nxt.extend((s + float(d), i) for d in offs)
        nxt.sort()
        current = nxt
        gen += 1

    times, types = np.asarray(all_times, dtype=float), np.asarray(all_types, dtype=np.int64)
    order = np.lexsort((types, all_gens, times))
    return EventSequence(times[order], types[order], horizon)


def simulate_thinning(spec, params, horizon, config):
    """Sample a path on [0, horizon] by Ogata thinning.

    Candidates are proposed at the total intensity evaluated just after the
    previous time point, which dominates the future intensity because both
    kernel families are nonincreasing; accepted candidates are typed
    proportionally to the per-type intensities.
    """
    horizon = _check_inputs(spec, params, horizon)

    _, _, rng = spawn_generators(config.seed)
    times, types = [], []
    hist_times = np.empty(0)
    hist_types = np.empty(0, dtype=np.int64)
    t = 0.0
    while True:
        lam_dom = intensities_through(spec, params, hist_times, hist_types, t)
        big_lambda = float(lam_dom.sum())
        t = t + rng.exponential(1.0 / big_lambda)
        if t > horizon:
            break
        lam = intensities(spec, params, hist_times, hist_types, t)
        lam_tot = float(lam.sum())
        if rng.uniform() * big_lambda <= lam_tot:
            u = rng.uniform() * lam_tot
            k = int(np.searchsorted(np.cumsum(lam), u, side="right"))
            k = min(k, spec.K - 1)
            times.append(t)
            types.append(k)
            if len(times) > config.max_events:
                raise SimulationCapError(len(times), config.max_events)
            hist_times = np.asarray(times)
            hist_types = np.asarray(types, dtype=np.int64)

    return EventSequence(np.asarray(times), np.asarray(types, dtype=np.int64), horizon)


def simulate_thinning_stacked(spec, params, horizon, config):
    """Ogata thinning with the dominating rate reused and every exponential
    kernel's decayed state stacked in one (M_exp, K) array."""
    horizon = _check_inputs(spec, params, horizon)

    _, _, rng = spawn_generators(config.seed)
    K = spec.K
    exp_ms = [m for m, kern in enumerate(spec.kernels) if isinstance(kern, Exponential)]
    pwl_ms = [m for m in range(spec.M) if m not in exp_ms]
    columns = params.alpha.transpose(0, 2, 1)  # columns[m, k] = alpha[m][:, k]
    jump_total = sum(columns[m].sum(axis=1) * float(kern.value(0.0, float(b)))
                     for m, (kern, b) in enumerate(zip(spec.kernels, params.beta)))
    neg_betas = -params.beta[exp_ms]
    excite = np.zeros((len(exp_ms), K))
    times, types = [], []
    t = t_last = 0.0
    big_lambda = float(params.mu.sum())
    while True:
        t = t + rng.exponential(1.0 / big_lambda)
        if t > horizon:
            break
        decay = np.exp(neg_betas * (t - t_last))
        lam = params.mu + decay @ excite
        for m in pwl_ms:
            hist = np.array([columns[m, k] for k in types]).reshape(len(types), K)
            lam += spec.kernels[m].value(t - np.array(times), float(params.beta[m])) @ hist
        lam_tot = float(lam.sum())
        accept = rng.uniform() * big_lambda <= lam_tot
        big_lambda = lam_tot
        if accept:
            u = rng.uniform() * lam_tot
            k = min(int(lam.cumsum().searchsorted(u, side="right")), K - 1)
            times.append(t)
            types.append(k)
            if len(types) > config.max_events:
                raise SimulationCapError(len(types), config.max_events)
            excite = decay[:, None] * excite + columns[exp_ms, k]
            t_last = t
            big_lambda += jump_total[k]

    return EventSequence(np.asarray(times), np.asarray(types, dtype=np.int64), horizon)
