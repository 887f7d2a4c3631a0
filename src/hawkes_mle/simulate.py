"""Event-stream simulation for multivariate Hawkes processes.

Two independent samplers are shipped:

* :func:`simulate_cluster` -- the branching construction: homogeneous Poisson
  immigrants on [0, T], each event spawning Poisson-many offspring per type
  with offsets drawn by exact inverse-CDF sampling of the truncated kernel.
  A generation is held as sorted arrays: its kernel masses, and after the
  draws its offsets, take one array call per kernel.  The Poisson counts and
  the offsets' uniforms are read, in per-(event, target) order, off one
  reader of the offspring generator's doubles, as numpy's ``poisson`` and
  ``random`` would read them, so the streams are byte-identical to those of
  one scalar ``poisson`` and ``random`` call per (event, target, kernel), as
  the per-event reference in ``tests/sampler_oracle.py`` makes them.  A row
  whose first double lies at or below a vectorized bound, ``np.exp(-lam)``
  times 1 - 2**-40, is a zero count; only the rows above it call libm's
  ``exp``, the threshold numpy's ``poisson`` compares against.  ``np.exp``
  and libm differ by at most one unit in the last place, far inside that
  margin, so the bound decides a row as the exact threshold would.  A
  generation with no mean of 10 or more, or no event at T, skips the work
  each needs, after one ``count_nonzero`` or one look at its last window.
* :func:`simulate_thinning` -- Ogata-style rejection sampling under a
  piecewise-constant dominating rate (valid because both shipped kernel
  families are nonincreasing in elapsed time).  The rate is reused, not
  evaluated anew: it is the intensity at the last candidate, plus the jump of
  the event if that candidate was accepted.  Exponential kernels keep a
  decayed state per (kernel, type), so a candidate costs O(M K); with one
  exponential kernel that state is a (K,) row decayed by a scalar ``np.exp``.
  Power-law kernels sum over the history.  The type of an acceptance is
  bisected from running sums of the intensities as Python floats.  The
  streams are byte-identical, for every spec, to those of one stacked array
  ``np.exp`` and ``decay @ excite`` per candidate and ``cumsum`` typing.

Both use numpy's PCG64 generator.  Child streams for immigrants (0),
offspring (1) and thinning (2) are derived from the master seed, and each
sampler builds only its own, from ``SeedSequence(seed, spawn_key=(i,))``:
the streams that ``SeedSequence(seed).spawn(3)`` gives.  So the two
simulators can share a seed without correlating their draws.
Identical (spec, params, T, seed) inputs reproduce identical event sequences
bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice

import numpy as np

from .model import _RULES, DataError, Exponential, _require, _stationary_branching_matrix

__all__ = [
    "EventSequence",
    "SimConfig",
    "SimulationCapError",
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


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    max_events: int = 10_000_000

    def __post_init__(self):
        _require("seed", self.seed, _RULES["nonnegative_int"])
        _require("max_events", self.max_events, _RULES["positive_int"])


_STREAM_RULES = ("time must be finite", "time must be >= 0", "time must be >= the previous event's",
                 "time must be <= the horizon", "type must be " + _RULES["event_type"][1])


class _StreamFault(DataError):
    """``DataError("event i: <rule>")``, for event ``event`` and one of ``_STREAM_RULES``."""

    def __init__(self, event, rule):
        self.event, self.rule = event, rule
        super().__init__(f"event {event}: {rule}")


@dataclass
class EventSequence:
    """Typed arrival times on [0, T]; each event is checked against ``_STREAM_RULES`` in order."""

    times: np.ndarray
    types: np.ndarray
    horizon: float

    def __post_init__(self):
        """Raise ``_StreamFault`` at the first bad event; only object types are read one by one."""
        self.times = times = np.asarray(self.times, dtype=float)
        types = np.asarray(self.types)
        self.horizon = float(_require("horizon", self.horizon, _RULES["nonnegative"],
                                      DataError))
        if times.shape != types.shape or times.ndim != 1:
            raise DataError("times and types must be 1-d arrays of equal length")
        if types.dtype.kind == "f" and all(isinstance(k, int) for k in self.types):
            types = np.array(self.types, dtype=object)  # integers past int64, kept exact
        if types.dtype.kind == "f":  # whole numbers only: a cast would truncate 1.7 to 1
            typed = (np.floor(types) == types) & (types >= 0) & (types < np.float64(2**63))
        elif types.dtype.kind in "iu":  # an int64 is below 2**63, a uint64 >= 0
            typed = types >= 0 if types.dtype.kind == "i" else types < 2**63
        else:
            typed = np.fromiter(map(_RULES["event_type"][0], types), bool, types.size)
        ordered = np.ones(times.shape, bool)  # at or after the previous time
        np.greater_equal(times[1:], times[:-1], out=ordered[1:])
        holds = (np.isfinite(times), times >= 0, ordered, times <= self.horizon, typed)
        good = np.logical_and.reduce(holds)
        if not good.all():
            i = int(good.argmin())
            raise _StreamFault(i, next(rule for rule, h in zip(_STREAM_RULES, holds) if not h[i]))
        self.types = types.astype(np.int64, copy=False)

    def __len__(self):
        return self.times.size

    def counts(self, K):
        return np.bincount(self.types, minlength=K)


def _child_generator(seed, i):
    """The generator of child stream i of ``seed``: ``SeedSequence(seed).spawn(3)[i]``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))


def _finalize(times, types, horizon):
    """The events ordered by (time, generation, type).

    The events must come generation by generation, each generation sorted by
    (time, type); a stable sort by time then keeps tied times in that order.
    """
    times = np.asarray(times, dtype=float)
    order = np.argsort(times, kind="stable")
    return EventSequence(times[order], np.asarray(types, dtype=np.int64)[order], horizon)


def _check_inputs(spec, params, horizon):
    """Both samplers' guard: admissible, stationary parameters and a finite horizon >= 0."""
    _stationary_branching_matrix(spec, params)
    return float(_require("horizon", horizon, _RULES["nonnegative"], DataError))


def _by_time_type(times, types):
    order = np.lexsort((types, times))
    return times[order], types[order]


# Doubles drawn each time a ``_Doubles`` reader runs short, so that a block
# adds little to the memory of a large generation.
_BLOCK_DOUBLES = 4096


class _Doubles:
    """The uniform doubles of ``rng``, drawn ahead in blocks and read off ``stream``.

    ``stream`` is an iterator of the doubles, and ``next`` its ``__next__``;
    a block is read through a memoryview, which makes each double a Python
    float only as it is read, the float ``tolist`` would make.  A reader of
    ``stream`` adds to ``read`` the doubles it read.  A block is drawn only
    when a read needs it, so the doubles drawn and not read are
    the rest of the last block, and ``rewind`` returns ``rng`` to the state
    after the last double read: the next call on ``rng`` draws as if none
    were drawn ahead.  The blocks are drawn by a closure over ``rng`` alone,
    since one over the reader would keep it, and its block, alive until a
    cyclic garbage collection.
    """

    def __init__(self, rng):
        self.rng, self.read = rng, 0
        self.rewind()

    def rewind(self):
        self.rng.bit_generator.advance(-(-self.read % _BLOCK_DOUBLES))
        self.read = 0
        random = self.rng.random
        blocks = iter(lambda: memoryview(random(_BLOCK_DOUBLES)), None)
        self.stream = chain.from_iterable(blocks)
        self.next = self.stream.__next__


# The largest mean numpy's ``poisson`` draws from; it raises on a larger one.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10

# The factor that takes numpy's exp(-lam) below libm's: over 1.1 million lam
# in (0, 10] the two differed by at most one unit in the last place (2**-52
# relative), and this margin is 4096 times that.
_EXP_MARGIN = 1.0 - 2.0**-40


def _poisson_walk(means, doubles):
    """Poisson(means) counts and the offsets' uniforms, read off ``doubles``.

    Each row is read as ``c = rng.poisson(lam)`` followed, when c > 0, by
    ``rng.random(c)``, without either call.  For 0 < lam < 10 numpy's
    ``poisson`` runs Knuth's multiplication method, with e = exp(-lam) from
    libm (``math.exp``; ``np.exp`` may differ in the last bit), and reads
    nothing but uniform doubles, as ``random`` does: it reads doubles until
    their running product falls to e or below, and the count c is the number
    of products above e.  So such a row reads 1 + 2c doubles.  A row with
    lam == 0 reads nothing.  At lam >= 10 numpy runs another method, so the
    reader is rewound and the row takes a scalar ``poisson`` call.

    Most rows are zero counts decided by their first double alone, so the
    rows are first held against one vectorized bound, ``np.exp(-lams)``
    times ``_EXP_MARGIN``: a double at or below it is at or below e, a zero
    count.  Only a row whose first double lies above the bound calls libm's
    ``math.exp`` for the exact e and runs the comparisons above against it,
    so a double in (bound, e] is still a zero count, decided exactly.  As the
    bound lies below e by far more than ``np.exp`` and libm ever differ, the
    counts, and so the bytes, are those of ``poisson``.  A run zips the
    bounds with the doubles; a row's index is worked out, from the bounds
    not yet read, only when its first double lies above its bound.

    The rows are read in runs, each ending at a row with lam >= 10 (or NaN)
    or at the end; one ``count_nonzero`` finds means all below 10, one run.
    Returns the rows with a nonzero count, as an integer array, their
    counts, and all their uniforms in draw order.
    """
    hits, counts, uniforms = [], [], []
    append, exp = uniforms.append, math.exp
    live = np.flatnonzero(means)
    lams = means[live]
    neg_lams = memoryview(-lams)
    below = (np.exp(-lams) * _EXP_MARGIN).tolist()
    small = lams < 10.0
    ends = [] if np.count_nonzero(small) == small.size else np.flatnonzero(~small).tolist()
    lo = 0
    for end in ends + [lams.size]:
        stream, nxt, done = doubles.stream, doubles.next, len(counts)
        rows = iter(below[lo:end])
        left = rows.__length_hint__  # exact for a list: the rows not yet read
        for b, u in zip(rows, stream):
            if u <= b:
                continue
            r = end - 1 - left()
            e = exp(neg_lams[r])
            if u > e:
                c = 1
                u *= nxt()
                while u > e:
                    c += 1
                    u *= nxt()
                if c == 1:
                    append(nxt())
                else:
                    uniforms += islice(stream, c)
                hits.append(r)
                counts.append(c)
        doubles.read += end - lo + 2 * sum(counts[done:])
        if end < lams.size:
            doubles.rewind()
            c = int(doubles.rng.poisson(lams[end]))
            if c:
                hits.append(end)
                counts.append(c)
                uniforms += doubles.rng.random(c).tolist()
        lo = end + 1
    return live[hits], counts, uniforms


def _offspring(times, types, horizon, kernels, weights, doubles, total, max_events):
    """The next generation of (times, types), ordered by (time, type).

    ``weights[j, i, m]`` is alpha[m, i, j].  An event of type j at s < T has
    one row per (i, m), in C order; a row draws
    c ~ Poisson(weights[j, i, m] * Phi_m(T - s)) and then, if c > 0, the c
    uniforms of its offsets, all read by :func:`_poisson_walk` off the reader
    ``doubles``.  A row of zero mean (a zero weight, or an event at T) reads
    no double, as ``rng.poisson(0)`` reads none.  The masses and the
    offsets take one call per kernel.  If ``total``, the events before it, plus its
    count exceed ``max_events``, SimulationCapError is raised before any array is built.
    """
    K, M = len(weights), len(kernels)
    windows = horizon - times
    masses = np.array([kern.antiderivative(windows, b) for kern, b in kernels])
    if not windows[-1] > 0:  # the generation is sorted: only its tail can sit at T
        masses = np.where(windows > 0, masses, 0.0)
    # Row (s, i, m) of the flat means sits at s * K * M + i * M + m.
    means = (weights.take(types, axis=0) * masses.T[:, None, :]).ravel()

    hits, counts, uniforms = _poisson_walk(means, doubles)
    total += sum(counts)
    if total > max_events:
        raise SimulationCapError(total, max_events)
    if not counts:
        return np.empty(0), np.empty(0, dtype=np.int64)

    owner, target, m_of = np.unravel_index(np.repeat(hits, counts), (times.size, K, M))
    y = np.array(uniforms) * masses[m_of, owner]
    if M == 1:  # every hit is of the one kernel: no masks
        offsets = kernels[0][0].inverse_antiderivative(y, kernels[0][1])
    else:
        offsets = np.empty(y.size)
        for m, (kern, b) in enumerate(kernels):
            sel = m_of == m
            offsets[sel] = kern.inverse_antiderivative(y[sel], b)
    return _by_time_type(times[owner] + offsets, target)


def simulate_cluster(spec, params, horizon, config):
    """Sample a path on [0, horizon] by the branching construction.

    Immigrants of type k arrive as Poisson(mu_k) on [0, T]; every event of
    type j at time s spawns, per target type i and kernel m, a
    Poisson(alpha[m,i,j] * Phi_m(T - s)) number of offspring.  Generations are
    processed breadth first; output ties are ordered by (time, generation,
    type) for reproducibility.

    The checks run once per call.  A generation is a pair of arrays sorted by
    (time, type): its masses Phi_m(T - s) take one call per kernel, and after
    the draws its offsets take one more.  Per (event, i, m) with a nonzero
    mean, in the generation's order, a Poisson count and then its offsets'
    uniforms are read off one reader of the offspring generator's doubles,
    kept across generations (see :func:`_poisson_walk`), so the output is
    byte-identical to one scalar ``poisson`` and ``random`` call per
    (event, i, m), as the per-event reference in ``tests/sampler_oracle.py``
    makes them.
    """
    horizon = _check_inputs(spec, params, horizon)

    rng_imm, rng_off = _child_generator(config.seed, 0), _child_generator(config.seed, 1)
    K = spec.K
    kernels = [(kern, float(b)) for kern, b in zip(spec.kernels, params.beta)]
    weights = np.ascontiguousarray(params.alpha.transpose(2, 1, 0))  # [j, i, m]

    means = params.mu * horizon
    if not np.all(means <= _POISSON_LAM_MAX):  # numpy's poisson refuses such a mean
        raise SimulationCapError(0, config.max_events)
    times, counts = [], []
    for k in range(K):
        counts.append(int(rng_imm.poisson(means[k])))
        if sum(counts) > config.max_events:  # past the cap: skip its uniforms, unmade
            rng_imm.bit_generator.advance(counts[-1])
        else:
            times.append(rng_imm.uniform(0.0, horizon, size=counts[-1]))
    total = sum(counts)
    if total > config.max_events:
        raise SimulationCapError(total, config.max_events)
    times, types = _by_time_type(np.concatenate(times), np.repeat(np.arange(K), counts))

    gen_times, gen_types = [times], [types]
    doubles = _Doubles(rng_off)  # kept across generations
    while times.size:
        times, types = _offspring(times, types, horizon, kernels, weights, doubles, total,
                                  config.max_events)
        total += times.size
        gen_times.append(times)
        gen_types.append(types)

    return _finalize(np.concatenate(gen_times), np.concatenate(gen_types), horizon)


def simulate_thinning(spec, params, horizon, config):
    """Sample a path on [0, horizon] by Ogata thinning.

    Candidates are proposed at the total intensity just after the previous
    candidate, which dominates the future intensity because both kernel
    families are nonincreasing; accepted candidates are typed proportionally
    to the per-type intensities.  That dominating rate is not evaluated anew:
    after a rejection it is the intensity just computed at the candidate,
    after an acceptance of type k that intensity plus the jump
    sum_m alpha[m][:, k] * phi_m(0).

    Exponential kernels keep a decayed state: each one's term of the
    intensity at the last acceptance, carried to a candidate by a factor
    exp(-beta dt) and raised by alpha[m][:, k] at an acceptance of type k, so
    a candidate costs O(M K) whatever the history's length.  One exponential
    kernel keeps a (K,) row: a candidate decays it by a scalar ``np.exp``,
    which is its term of the intensity, and an acceptance adds the column to
    that decayed row.  Several keep an (M, K) stack, decayed by one array
    ``np.exp`` and summed by one product ``decay @ excite``.  Power-law
    kernels sum directly over the history, kept, only when such a kernel
    exists, in arrays that grow geometrically.  An acceptance's type is
    found by bisecting the running sums of the intensities as Python floats.

    The streams are byte-identical, for every spec (one or several
    exponential kernels, power-law, mixed), to those of stacking every
    exponential kernel and typing by ``lam.cumsum().searchsorted``: a
    scalar ``np.exp`` rounds as the array call does, a one-row product is
    the row times its factor, and the running sums add in sequence, as
    ``cumsum`` does.  BLAS rounds a product over several rows otherwise than
    a sum of decayed rows, so several exponential kernels keep the product.
    """
    horizon = _check_inputs(spec, params, horizon)

    rng = _child_generator(config.seed, 2)
    exponential, uniform = rng.exponential, rng.random
    K, mu = spec.K, params.mu
    exp_ms = [m for m, kern in enumerate(spec.kernels) if isinstance(kern, Exponential)]
    pwl_ms = [m for m in range(spec.M) if m not in exp_ms]
    power_laws = [(spec.kernels[m], float(params.beta[m])) for m in pwl_ms]
    columns = params.alpha.transpose(0, 2, 1)  # columns[m, k] = alpha[m][:, k]
    # jump_total[k]: the rise of the total intensity at an event of type k.
    jump_total = sum(columns[m].sum(axis=1) * float(kern.value(0.0, float(b)))
                     for m, (kern, b) in enumerate(zip(spec.kernels, params.beta))).tolist()
    # excite: the exponential terms of lam at t_last, one row per kernel.
    neg_betas, exp_columns = -params.beta[exp_ms], columns[exp_ms]
    one_exp = len(exp_ms) == 1
    if one_exp:
        neg_beta, exp_rows = float(neg_betas[0]), list(exp_columns[0])
        excite = np.zeros(K)
    else:
        excite = np.zeros((len(exp_ms), K))
    times = np.empty(64)
    if power_laws:
        # hist[p, s]: the column of power-law kernel p for the type of event s.
        hist = np.empty((len(pwl_ms), times.size, K))
        pwl_rows = list(columns[pwl_ms].transpose(1, 0, 2))  # hist[:, s] for type k
    types = []
    t = t_last = 0.0
    big_lambda = float(mu.sum())
    while True:
        t = t + exponential(1.0 / big_lambda)
        if t > horizon:
            break
        n = len(types)
        lam = mu
        if one_exp:
            decayed = excite * np.exp(neg_beta * (t - t_last))
            lam = lam + decayed
        elif exp_ms:
            decay = np.exp(neg_betas * (t - t_last))
            lam = lam + decay @ excite
        for p, (kern, beta) in enumerate(power_laws):
            lam = lam + kern.value(t - times[:n], beta) @ hist[p, :n]
        lam_tot = float(np.add.reduce(lam))
        # rng.random() is rng.uniform() without its argument handling.
        accept = uniform() * big_lambda <= lam_tot
        big_lambda = lam_tot
        if accept:
            u = uniform() * lam_tot
            k = min(bisect_right(list(accumulate(lam.tolist())), u), K - 1)
            types.append(k)
            if len(types) > config.max_events:
                raise SimulationCapError(len(types), config.max_events)
            if n == times.size:
                times = np.concatenate([times, np.empty_like(times)])
                if power_laws:
                    hist = np.concatenate([hist, np.empty_like(hist)], axis=1)
            times[n] = t
            if power_laws:
                hist[:, n] = pwl_rows[k]
            if one_exp:
                excite = decayed + exp_rows[k]
            elif exp_ms:
                excite = decay[:, None] * excite + exp_columns[:, k]
            t_last = t
            big_lambda += jump_total[k]

    n = len(types)
    return EventSequence(times[:n].copy(), np.asarray(types, dtype=np.int64), horizon)
