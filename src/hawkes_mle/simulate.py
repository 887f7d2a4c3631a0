"""Event-stream simulation for multivariate Hawkes processes.

Two independent samplers are shipped:

* :func:`simulate_cluster` -- the branching construction: homogeneous Poisson
  immigrants on [0, T], each event spawning Poisson-many offspring per type
  with offsets drawn by exact inverse-CDF sampling of the truncated kernel.
* :func:`simulate_thinning` -- Ogata-style rejection sampling under a
  piecewise-constant dominating rate (valid because both shipped kernel
  families are nonincreasing in elapsed time).

Both use numpy's PCG64 generator.  Child streams for immigrants, offspring,
and thinning are derived from the master seed via ``SeedSequence.spawn``, so
the two simulators can share a seed without correlating their draws.
Identical (spec, params, T, seed) inputs reproduce identical event sequences
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _stationary_branching_matrix, intensities

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


def simulate_cluster(spec, params, horizon, config):
    """Sample a path on [0, horizon] by the branching construction.

    Immigrants of type k arrive as Poisson(mu_k) on [0, T]; every event of
    type j at time s spawns, per target type i and kernel m, a
    Poisson(alpha[m,i,j] * Phi_m(T - s)) number of offspring.  Generations are
    processed breadth first; output ties are ordered by (time, generation,
    type) for reproducibility.
    """
    horizon = _check_inputs(spec, params, horizon)

    rng_imm, rng_off, _ = _spawn_generators(config.seed)
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

    return _finalize(all_times, all_gens, all_types, horizon)


def simulate_thinning(spec, params, horizon, config):
    """Sample a path on [0, horizon] by Ogata thinning.

    Candidates are proposed at the total intensity evaluated just after the
    previous time point, which dominates the future intensity because both
    kernel families are nonincreasing; accepted candidates are typed
    proportionally to the per-type intensities.
    """
    horizon = _check_inputs(spec, params, horizon)

    _, _, rng = _spawn_generators(config.seed)
    times, types = [], []
    hist_times = np.empty(0)
    hist_types = np.empty(0, dtype=np.int64)
    t = 0.0
    while True:
        lam_dom = intensities(spec, params, hist_times, hist_types, t, strict=False)
        big_lambda = float(lam_dom.sum())
        t = t + rng.exponential(1.0 / big_lambda)
        if t > horizon:
            break
        lam = intensities(spec, params, hist_times, hist_types, t, strict=True)
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
