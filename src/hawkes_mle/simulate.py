"""Event-stream simulation for multivariate Hawkes processes.

Two independent samplers are shipped:

* :func:`simulate_cluster` -- the branching construction: homogeneous Poisson
  immigrants on [0, T], each event spawning Poisson-many offspring per type
  with offsets drawn by exact inverse-CDF sampling of the truncated kernel.
  A generation is held as sorted arrays: its kernel masses, and after the
  draws its offsets, take one array call per kernel.  The Poisson draws keep
  their per-(event, target) order, so the streams are byte-identical to
  those of one :func:`offspring_offsets` call per (event, target, kernel).
* :func:`simulate_thinning` -- Ogata-style rejection sampling under a
  piecewise-constant dominating rate (valid because both shipped kernel
  families are nonincreasing in elapsed time).  The rate is reused, not
  evaluated anew: it is the intensity at the last candidate, plus the jump of
  the event if that candidate was accepted.  Exponential kernels keep a
  decayed state per (kernel, type), so a candidate costs O(M K); power-law
  kernels sum over the history.

Both use numpy's PCG64 generator.  Child streams for immigrants, offspring,
and thinning are derived from the master seed via ``SeedSequence.spawn``, so
the two simulators can share a seed without correlating their draws.
Identical (spec, params, T, seed) inputs reproduce identical event sequences
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Exponential, _stationary_branching_matrix

__all__ = [
    "EventSequence",
    "SimConfig",
    "SimulationCapError",
    "offspring_offsets",
    "simulate_cluster",
    "simulate_thinning",
]


class SimulationCapError(RuntimeError):
    """Event cap exceeded; carries the partial count generated so far."""

    def __init__(self, n_events, max_events):
        self.n_events = int(n_events)
        self.max_events = int(max_events)
        super().__init__(
            f"simulation exceeded max_events={max_events} (generated {n_events})"
        )


def _finite_horizon(horizon):
    """float(horizon), or ValueError unless it is finite and nonnegative."""
    horizon = float(horizon)
    if not 0.0 <= horizon < np.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    return horizon


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    max_events: int = 10_000_000

    def __post_init__(self):
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")


@dataclass
class EventSequence:
    """Sorted, typed arrival times on [0, T]."""

    times: np.ndarray
    types: np.ndarray
    horizon: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.types = np.asarray(self.types, dtype=np.int64)
        self.horizon = _finite_horizon(self.horizon)
        if self.times.shape != self.types.shape or self.times.ndim != 1:
            raise ValueError("times and types must be 1-d arrays of equal length")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times must be finite")
        if self.times.size:
            if np.any(np.diff(self.times) < 0):
                raise ValueError("times must be nondecreasing")
            if self.times[0] < 0 or self.times[-1] > self.horizon:
                raise ValueError("times must lie in [0, horizon]")
        if np.any(self.types < 0):
            raise ValueError("types must be nonnegative integers")

    def __len__(self):
        return self.times.size

    def counts(self, K):
        return np.bincount(self.types, minlength=K)


def offspring_offsets(family, alpha_total, beta, window, rng):
    """Offsets of one event's offspring of a single kernel within ``window``.

    The count is Poisson(alpha_total * Phi(window; beta)); each offset is the
    analytic inverse of the truncated antiderivative CDF u -> Phi(u)/Phi(window).
    ``rng.random`` is ``rng.uniform`` without its argument handling: the same
    draws, bit for bit.
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
    p = rng.random(n)
    return family.inverse_antiderivative(p * mass, beta)


def _spawn_generators(seed, n=3):
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _finalize(times, gens, types, horizon):
    times = np.asarray(times, dtype=float)
    gens = np.asarray(gens, dtype=np.int64)
    types = np.asarray(types, dtype=np.int64)
    order = np.lexsort((types, gens, times))
    return EventSequence(times[order], types[order], horizon)


def _check_inputs(spec, params, horizon):
    """Both samplers' guard: admissible, stationary parameters and a finite horizon >= 0."""
    _stationary_branching_matrix(spec, params)
    return _finite_horizon(horizon)


def _by_time_type(times, types):
    order = np.lexsort((types, times))
    return times[order], types[order]


def _offspring(times, types, horizon, kernels, targets, rng):
    """The next generation of (times, types), ordered by (time, type).

    ``targets`` = (weight, target, kernel, first, count) lists every nonzero
    alpha[m, i, j] as (j, i, m) in C order: source type j's weights are the
    ``count[j]`` rows from ``first[j]``.  An event at s < T draws, per row of
    its type, c ~ Poisson(weight * Phi_m(T - s)) and then, if c > 0, the c
    uniforms of its offsets.  Only these draws run one at a time; the masses
    and the offsets take one call per kernel.
    """
    weight, target, kernel, first, count = targets
    windows = horizon - times
    masses = np.array([kern.antiderivative(windows, b) for kern, b in kernels])
    # One table row per (live event, nonzero weight of its type), in draw order.
    per_event = np.where(windows > 0, count[types], 0)
    owner = np.repeat(np.arange(times.size), per_event)
    row = first[types[owner]] + np.arange(owner.size) - (np.cumsum(per_event) - per_event)[owner]
    means = (weight[row] * masses[kernel[row], owner]).tolist()

    poisson, uniform = rng.poisson, rng.random
    hits, counts, uniforms = [], [], []
    for r, lam in enumerate(means):
        c = poisson(lam)
        if c:
            hits.append(r)
            counts.append(c)
            uniforms.append(uniform(c))
    if not hits:
        return np.empty(0), np.empty(0, dtype=np.int64)

    draw = np.repeat(hits, counts)
    owner, row = owner[draw], row[draw]
    m_of = kernel[row]
    y = np.concatenate(uniforms) * masses[m_of, owner]
    offsets = np.empty(y.size)
    for m, (kern, b) in enumerate(kernels):
        sel = m_of == m
        offsets[sel] = kern.inverse_antiderivative(y[sel], b)
    return _by_time_type(times[owner] + offsets, target[row])


def simulate_cluster(spec, params, horizon, config):
    """Sample a path on [0, horizon] by the branching construction.

    Immigrants of type k arrive as Poisson(mu_k) on [0, T]; every event of
    type j at time s spawns, per target type i and kernel m, a
    Poisson(alpha[m,i,j] * Phi_m(T - s)) number of offspring.  Generations are
    processed breadth first; output ties are ordered by (time, generation,
    type) for reproducibility.

    The checks run once per call.  A generation is a pair of arrays sorted by
    (time, type): its masses Phi_m(T - s) take one call per kernel, and after
    the draws its offsets take one more.  The Poisson draws stay one per
    (event, i, m) with a nonzero weight, in the generation's order, each
    followed by its offsets' uniforms, so the output is byte-identical to
    calling :func:`offspring_offsets` per (event, i, m).
    """
    horizon = _check_inputs(spec, params, horizon)

    rng_imm, rng_off, _ = _spawn_generators(config.seed)
    K = spec.K
    kernels = [(kern, float(b)) for kern, b in zip(spec.kernels, params.beta)]
    by_source = params.alpha.transpose(2, 1, 0)  # [j, i, m]
    j, i, m = np.nonzero(by_source)
    count = np.bincount(j, minlength=K)
    targets = (by_source[j, i, m], i, m, np.cumsum(count) - count, count)

    times, types = [], []
    for k in range(K):
        n_k = rng_imm.poisson(params.mu[k] * horizon)
        times.append(np.sort(rng_imm.uniform(0.0, horizon, size=n_k)))
        types.append(np.full(n_k, k, dtype=np.int64))
    times, types = _by_time_type(np.concatenate(times), np.concatenate(types))

    gen_times, gen_types = [], []
    total = 0
    while True:
        gen_times.append(times)
        gen_types.append(types)
        total += times.size
        if total > config.max_events:
            raise SimulationCapError(total, config.max_events)
        if not times.size:
            break
        times, types = _offspring(times, types, horizon, kernels, targets, rng_off)

    gens = np.repeat(np.arange(len(gen_times)), [t.size for t in gen_times])
    return _finalize(np.concatenate(gen_times), gens, np.concatenate(gen_types), horizon)


def simulate_thinning(spec, params, horizon, config):
    """Sample a path on [0, horizon] by Ogata thinning.

    Candidates are proposed at the total intensity just after the previous
    candidate, which dominates the future intensity because both kernel
    families are nonincreasing; accepted candidates are typed proportionally
    to the per-type intensities.  That dominating rate is not evaluated anew:
    after a rejection it is the intensity just computed at the candidate,
    after an acceptance of type k that intensity plus the jump
    sum_m alpha[m][:, k] * phi_m(0).

    Exponential kernels keep a decayed state per (kernel, type): each one's
    term of the intensity at the last acceptance.  It is carried to a
    candidate by one factor exp(-beta dt) and raised by alpha[m][:, k] at an
    acceptance of type k, so a candidate costs O(M K) whatever the history's
    length.  Power-law kernels sum directly over the history, kept in arrays
    that grow geometrically.
    """
    horizon = _check_inputs(spec, params, horizon)

    _, _, rng = _spawn_generators(config.seed)
    K = spec.K
    exp_ms = [m for m, kern in enumerate(spec.kernels) if isinstance(kern, Exponential)]
    pwl_ms = [m for m in range(spec.M) if m not in exp_ms]
    power_laws = [(spec.kernels[m], float(params.beta[m])) for m in pwl_ms]
    columns = params.alpha.transpose(0, 2, 1)  # columns[m, k] = alpha[m][:, k]
    # jump_total[k]: the rise of the total intensity at an event of type k.
    jump_total = sum(columns[m].sum(axis=1) * float(kern.value(0.0, float(b)))
                     for m, (kern, b) in enumerate(zip(spec.kernels, params.beta)))
    neg_betas = -params.beta[exp_ms]
    exp_columns, pwl_columns = columns[exp_ms], columns[pwl_ms]
    excite = np.zeros((len(exp_ms), K))  # exponential terms of lam at t_last
    times = np.empty(64)
    # hist[p, s]: the column of power-law kernel p for the type of event s.
    hist = np.empty((len(pwl_ms), times.size, K))
    types = []
    t = t_last = 0.0
    big_lambda = float(params.mu.sum())
    while True:
        t = t + rng.exponential(1.0 / big_lambda)
        if t > horizon:
            break
        n = len(types)
        decay = np.exp(neg_betas * (t - t_last))
        lam = params.mu + decay @ excite
        for p, (kern, beta) in enumerate(power_laws):
            lam += kern.value(t - times[:n], beta) @ hist[p, :n]
        lam_tot = float(lam.sum())
        # rng.random() is rng.uniform() without its argument handling.
        accept = rng.random() * big_lambda <= lam_tot
        big_lambda = lam_tot
        if accept:
            u = rng.random() * lam_tot
            k = min(int(lam.cumsum().searchsorted(u, side="right")), K - 1)
            types.append(k)
            if len(types) > config.max_events:
                raise SimulationCapError(len(types), config.max_events)
            if n == times.size:
                times = np.concatenate([times, np.empty_like(times)])
                hist = np.concatenate([hist, np.empty_like(hist)], axis=1)
            times[n] = t
            hist[:, n] = pwl_columns[:, k]
            excite = decay[:, None] * excite + exp_columns[:, k]
            t_last = t
            big_lambda += jump_total[k]

    n = len(types)
    return EventSequence(times[:n].copy(), np.asarray(types, dtype=np.int64), horizon)
