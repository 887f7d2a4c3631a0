"""Log-likelihood of an observed event stream and its analytic gradient.

For arrival times t_s^j of type j on [0, T] and intensity

    lam_i(t) = mu_i + sum_j sum_m alpha[m,i,j] * sum_{s < t, type j} phi_m(t - s)

the log-likelihood in closed form is

    L(theta) = -T * sum_i mu_i
               - sum_{i,j,m} alpha[m,i,j] * sum_{s: type j} Phi_m(T - s)
               + sum_i sum_{t: type i} log lam_i(t),

with Phi_m the kernel antiderivative.  Inner sums are strict (s < t):
simultaneous arrivals do not excite each other at the shared instant.  The
regularized objective subtracts a Tikhonov penalty C * ||theta||_2^2 over all
coordinates including beta.

Every evaluation reduces to the kernel sums R[a, j] = sum_{s < t_a, type j}
phi(t_a - s) and their beta-derivatives, computed exactly and without any
n x n array.  They depend on t_a alone, so both engines fill one layout with
a row per distinct time stamp, and one gather gives each event its row:

* an exponential kernel uses the linear recursion over distinct time stamps
  (Ozaki 1979), run as a blocked scan whose cost depends on the stamp count
  alone: O(n K) time and memory per kernel, whatever beta;
* a power-law kernel is summed over the list of (source, destination stamp)
  pairs with the source strictly earlier, built once at construction:
  O(#pairs) time and 8 bytes per pair (8 more per further distinct cutoff),
  at most n(n-1)/2 pairs and fewer with ties, plus O(n K) cell bounds.  The
  pairs are grouped by cell (destination stamp, source type), sources in
  time order inside a cell, and the list keeps
  L = log(dt + c) rather than the elapsed time dt, one array per distinct
  cutoff c (one of them in dt's own storage).  A pass computes
  phi = exp(-beta L) and d phi / d beta = -L phi, with no power or
  logarithm, and sums each cell's segment.  It goes through the segments
  in parts of a fixed number of pairs, cut at cell starts, so its scratch
  stays in cache.  A cell is never split, so the sums carry the same bits
  for any number of parts.  A list over ``_PAIR_BUDGET`` pairs (counted per
  stamp) times distinct cutoffs (2 GiB) is refused with a ``DataError``
  before anything pair-sized is allocated.

The events are held in one row order, by type and then time, fixed at
construction; R, D and the per-event terms all come in it.  Each type's rows
are then one block, so every per-type sum (the compensator sums, the mu- and
alpha-gradients) is a segment sum over those blocks: no n x K indicator of
the types is built, and an evaluation runs no loop over types.

R, D and the compensator sums S depend on beta alone, and the optimizer's
block steps ask for several evaluations at one beta.  A ``LikelihoodProblem``
therefore keeps the sums of the last two distinct beta vectors (keyed on
their exact bytes) and computes them once per miss; ``kernel_passes`` counts
the misses.  Apart from this memo a problem is immutable after construction.
The arrays its slots cache are only read: a memo entry is replaced whole, and
each pass writes only arrays of its own.  Sums are reduced in fixed order, so
objective values reproduce bit for bit, with or without a memo hit.
"""

from __future__ import annotations

import numpy as np

from .model import _RULES, DataError, Exponential, _require, intensities

__all__ = [
    "LikelihoodProblem",
    "intensity_at",
    "log_likelihood",
    "grad_log_likelihood",
    "regularized_objective",
    "grad_regularized",
]

# Rows per block of the exponential scan (see ``_decay_scan``).
_SCAN_BLOCK = 16

# Most pairs times distinct cutoffs a pair list may hold: 2 GiB at 8 bytes
# each.  A fixed constant, not read from the host, so a stream is accepted or
# refused the same way on every machine.
_PAIR_BUDGET = 1 << 28


def _pair_list(times, order, stamps, W, cutoffs):
    """Log-shifted elapsed times of all kernel pairs, grouped into cells, and the cells.

    A pair (source b, distinct stamp u_g of ``stamps``) enters the sums when
    t_b < u_g, once for all the events tied at u_g (W[g, j] counts those of
    type j); it belongs to the cell ``g * K + types[b]``.  Pairs are ordered
    by cell and, inside a cell, by source time, so each cell is one
    contiguous segment.  Returns (logs, starts, cells, parts): ``logs`` maps
    each distinct cutoff c of ``cutoffs`` to log(dt + c) over the pairs, dt
    the elapsed time; ``starts`` are the segments' first positions and
    ``cells`` their flat cells, nonempty cells only, in order; ``parts`` are
    ``_split``'s runs of about ``_PART_PAIRS`` pairs.

    dt is filled one part at a time, so its scratch is a part's size, and
    each log is taken in place, the last one in dt's own storage, so the
    lists hold one pair-sized array per distinct cutoff and no temporary.
    Over ``_PAIR_BUDGET`` pairs times distinct cutoffs this raises
    ``DataError``, naming n, the pairs and the bytes, before any pair-sized
    allocation.
    """
    *others, last = distinct = dict.fromkeys(cutoffs)
    # sizes[g, j]: the events of type j strictly earlier than u_g.
    sizes = np.cumsum(W, axis=0) - W
    pairs = int(sizes.sum())
    if pairs * len(distinct) > _PAIR_BUDGET:
        raise DataError(
            f"{times.size} events at {stamps.size} distinct time stamps make "
            f"{pairs} power-law kernel pairs; with {len(distinct)} distinct "
            f"cutoff(s) the pair list would take {8 * pairs * len(distinct)} bytes, "
            f"over its budget of {8 * _PAIR_BUDGET} bytes"
        )
    K = W.shape[1]
    sizes = sizes.ravel()  # pairs per cell (g, j)
    cells = np.flatnonzero(sizes)
    starts = (np.cumsum(sizes) - sizes)[cells]
    sizes = sizes[cells]
    parts = _split(starts, pairs, max(1, -(-pairs // _PART_PAIRS)))
    # The sources of cell (g, j) are type j's sizes[g, j] earliest events:
    # in the row order (by type, then time), the rows from type j's first
    # row on.  So pair p of the cell starting at s has row first + p - s.
    counts = W.sum(axis=0)
    first = (np.cumsum(counts) - counts)[cells % K] - starts
    at = stamps[cells // K]
    grouped = times[order]
    dt = np.empty(pairs)
    for (c0, p0), (c1, p1) in zip(parts, parts[1:]):
        rows = np.arange(p0, p1)
        rows += np.repeat(first[c0:c1], sizes[c0:c1])
        np.subtract(np.repeat(at[c0:c1], sizes[c0:c1]), grouped[rows], out=dt[p0:p1])
    logs = {}
    for c in others:
        shifted = dt + c
        logs[c] = np.log(shifted, out=shifted)
    np.add(dt, last, out=dt)
    logs[last] = np.log(dt, out=dt)
    return logs, starts, cells, parts


def _split(starts, pairs, parts):
    """Cut the cell segments into ``parts`` runs of about equal pair counts.

    Returns the (first cell, first pair) of each run, then (len(starts),
    pairs).  Cuts fall on cell starts, so no cell is split, and only a list
    without pairs has an empty run.
    """
    cuts = np.unique(np.searchsorted(starts, np.arange(1, parts) * (pairs / parts)))
    cells = [0, *cuts[(cuts > 0) & (cuts < starts.size)].tolist(), starts.size]
    firsts = np.append(starts, pairs)
    return [(c, int(firsts[c])) for c in cells]


# A power-law pass sums its cells in parts of about this many pairs, cut at
# cell starts, so that a part's scratch (512 KB) stays in cache.
_PART_PAIRS = 1 << 16


def _blocked(rows):
    """Rows padded with zeros to whole blocks of B = ``_SCAN_BLOCK``, with row
    b * B + i at [i, b], so that each step of ``_decay_scan`` is one slice."""
    nb = -(-len(rows) // _SCAN_BLOCK)
    out = np.zeros((nb * _SCAN_BLOCK, *rows.shape[1:]))
    out[: len(rows)] = rows
    return out.reshape(nb, _SCAN_BLOCK, *rows.shape[1:]).swapaxes(0, 1).copy()


def _scan_products(a):
    """The products ``_decay_scan`` forms from its factors alone.

    A[i, b] is the running product of block b's factors down to row i;
    ``levels`` holds, per doubling step s, the products of the block totals
    that the step multiplies into the carries of blocks s and later.  Scans
    with the same factors can share them.
    """
    A = np.cumprod(a, axis=0)
    P, levels = A[-1].copy(), []
    s = 1
    while s < P.size:
        levels.append((s, P[s:].copy()))
        P[s:] *= P[:-s]
        s *= 2
    return A, levels


def _decay_scan(a, Y, products):
    """Y[g] = a[g] Y[g-1] + Y[g] down the rows, in place, from Y[-1] = 0.

    ``a`` and ``Y`` hold the rows as ``_blocked`` lays them out, and
    ``products`` is ``_scan_products(a)``.  The recursion runs down all
    blocks at once, one row position per step; the block totals are then
    scanned by doubling (Blelloch 1990), and every block adds its carry in
    one step.  Only products of the factors are formed, so for factors in
    [0, 1] nothing overflows, and the steps taken depend on the shape alone.
    """
    A, levels = products
    for i in range(1, _SCAN_BLOCK):
        Y[i] += a[i, :, None] * Y[i - 1]
    C = Y[-1]  # block totals, scanned in place into their final values
    for s, P in levels:
        C[s:] += P[:, None] * C[:-s]
    Y[:-1, 1:] += A[:-1, 1:, None] * C[None, :-1]
    return Y


def _nan_rows(S):
    """S, with each row whose sum is not finite set to NaN in place.

    This is the dense oracle's rule: there one non-finite kernel value makes
    every sum of its event's row non-finite.  Both engines keep it, so a bad
    extrapolated candidate fails the same way whichever way its sums are
    taken.
    """
    bad = ~np.isfinite(S @ np.ones(S.shape[1]))
    if bad.any():
        S[bad] = np.nan
    return S


class LikelihoodProblem:
    """Event stream + model spec + box domain + Tikhonov coefficient.

    Its rows are the events ordered by type, then time, so that each type's
    events are one block of rows and every per-type sum is a segment sum.
    Precomputes what every evaluation shares: that order and each type's
    count, the distinct time stamps with their per-type event counts (the
    layout both engines fill) and each row's stamp, and, when some kernel
    needs it, the list of kernel pairs per (stamp, source type) cell.  No
    array of size n x n is built.  The kernel sums of the last two distinct
    beta vectors are kept; ``kernel_passes`` counts how often they were
    computed.
    """

    def __init__(self, spec, events, domain, reg_c=0.0):
        if events.horizon <= 0:
            raise DataError("observation horizon T must be positive")
        _require("reg_c", reg_c, _RULES["nonnegative"])
        if np.any(events.types >= spec.K):
            raise DataError("event type index out of range for the model spec")
        self.index_map = spec.index_map
        self.index_map.shaped(domain).validate_kernels(spec)
        self.spec = spec
        self.events = events
        self.domain = domain
        self.reg_c = float(reg_c)
        self.T = float(events.horizon)
        self.dim = self.index_map.dim

        times = events.times
        types = events.types
        self.n, K = times.size, spec.K
        # Row r is event order[r]: by type, then time.  Only the types with
        # events have a first row, so no segment of ``_type_sums`` is empty.
        order = np.argsort(types, kind="stable")
        counts = np.bincount(types, minlength=K)
        self._type_counts = counts
        self._has_events = counts > 0
        self._first_rows = (np.cumsum(counts) - counts)[self._has_events]
        self._comp_dt = self.T - times[order]  # elapsed time entering the compensator
        # Distinct stamps u_g (grouping ties keeps simultaneous events out of
        # each other's sums), their gaps u_g - u_{g-1} (0 for the first) and
        # type counts in the scan's layout.  Stamp g sits there at
        # [g % B, g // B], so its row of the layout taken flat is flat_row[g].
        stamps, stamp_of = np.unique(times, return_inverse=True)
        W = np.bincount(stamp_of * K + types, minlength=stamps.size * K).reshape(-1, K)
        self._gaps = _blocked(np.diff(stamps, prepend=stamps[:1]))
        self._counts = _blocked(W)
        g = np.arange(stamps.size)
        flat_row = g % _SCAN_BLOCK * self._counts.shape[1] + g // _SCAN_BLOCK
        self._stamp_row = flat_row[stamp_of[order]]
        # Exponential kernels take the recursion; power-law kernels sum over
        # the pair list, its cells (g, j) kept at their places in that layout.
        cutoffs = [k.c for k in spec.kernels if not isinstance(k, Exponential)]
        if cutoffs:
            self._pair_logs, self._cell_start, cells, self._parts = _pair_list(
                times, order, stamps, W, cutoffs)
            self._cell_index = flat_row[cells // K] * K + cells % K
        else:
            self._pair_logs = None
        self.kernel_passes = 0
        self._memo = ()  # at most two (beta bytes, per-kernel sums), newest first

    # -- kernel sums ----------------------------------------------------------

    def _kernel_sums(self, m, beta):
        """Per-event kernel sums of base kernel m at shape parameter beta.

        Returns (R, D), both n x K with one row per event in the problem's
        row order (by type, then time): R[r, j] = sum_{s < t_r, type j}
        phi_m(t_r - s) and D the same sum of d phi_m / d beta.  Both engines
        sum once per distinct stamp, into one layout, then gather the rows.
        """
        kern = self.spec.kernels[m]
        if isinstance(kern, Exponential):
            # Ozaki's recursion over stamps, with W_g the type counts at u_g
            # and a_g = e^{-beta gap_g}: the scan Y_g = a_g Y_{g-1} + W_g gives
            # R_g = a_g Y_{g-1} (R_0 = 0; g-1 is the row above, or the previous
            # block's last row), and the scan of -gap_g R_g gives D_g, the sum
            # of d phi / d beta = -(u_g - s) e^{-beta (u_g - s)}.
            gaps = self._gaps
            a = np.exp(-beta * gaps)
            products = _scan_products(a)
            Y = _decay_scan(a, self._counts.copy(), products)
            R = np.zeros_like(Y)
            np.multiply(a[1:, :, None], Y[:-1], out=R[1:])
            np.multiply(a[0, 1:, None], Y[-1, :-1], out=R[0, 1:])
            D = _decay_scan(a, np.multiply(-gaps[:, :, None], R, out=Y), products)  # Y's memory
        else:
            # phi = (dt + c)^-beta = exp(-beta L), summed over each cell's
            # segment; the scratch then holds L phi, and d phi / d beta =
            # -L phi sums to -D.  D is negated after the scatter, so a cell
            # without pairs holds -0, as the exponential scan's D does.
            L = self._pair_logs[kern.c]
            starts, cells, parts = self._cell_start, self._cell_index, self._parts
            r, d = np.empty((2, cells.size))
            scratch = np.empty(max(q - p for (_, p), (_, q) in zip(parts, parts[1:])))
            # Each cell is summed by one reduceat, so the bits do not depend
            # on the number of parts.
            for (c0, p0), (c1, p1) in zip(parts, parts[1:]):
                seg, x = starts[c0:c1] - p0, scratch[: p1 - p0]
                np.multiply(L[p0:p1], -beta, out=x)
                np.exp(x, out=x)
                np.add.reduceat(x, seg, out=r[c0:c1])
                np.multiply(x, L[p0:p1], out=x)
                np.add.reduceat(x, seg, out=d[c0:c1])
            R, D = np.zeros((2, *self._counts.shape))
            R.reshape(-1)[cells] = r
            D.reshape(-1)[cells] = d
            np.negative(D, out=D)
        rows, K = self._stamp_row, self.spec.K
        return (_nan_rows(np.take(R.reshape(-1, K), rows, axis=0)),
                _nan_rows(np.take(D.reshape(-1, K), rows, axis=0)))

    def _type_sums(self, x):
        """Sums of the rows of ``x`` over each type's block, one per type.

        The segments start at the first rows of the types with events only:
        ``reduceat`` rejects a start at row n and gives an empty segment the
        row at its start, so a type with no events keeps its 0 here.
        """
        out = np.zeros((self.spec.K, *x.shape[1:]))
        out[self._has_events] = np.add.reduceat(x, self._first_rows, axis=0)
        return out

    def _sums(self, beta):
        """Per kernel (R, D, S, Sd) at the beta vector ``beta``, from the memo.

        S[j] = sum_{s: type j} Phi_m(T - s) and Sd the same sum of
        d Phi_m / d beta.  A miss computes every kernel's sums and evicts the
        less recently used slot.
        """
        key = beta.tobytes()
        for i, (k, sums) in enumerate(self._memo):
            if k == key:
                if i:  # the hit becomes the newer slot
                    self._memo = self._memo[::-1]
                return sums
        sums = []
        for m, kern in enumerate(self.spec.kernels):
            b = float(beta[m])
            R, D = self._kernel_sums(m, b)
            S = self._type_sums(kern.antiderivative(self._comp_dt, b))
            Sd = self._type_sums(kern.antideriv_dbeta(self._comp_dt, b))
            for a in (R, D, S, Sd):
                a.flags.writeable = False
            sums.append((R, D, S, Sd))
        self.kernel_passes += 1
        self._memo = ((key, sums), *self._memo[:1])
        return sums

    # -- internal fused evaluation ------------------------------------------

    def _evaluate(self, flat, want_obj, want_grad_ma, want_grad_beta):
        """Objective and/or gradient blocks of the regularized log-likelihood.

        Gradient blocks are formula evaluations valid on an open superset of
        the box; the objective requires positive intensities at every event
        and raises if that invariant is violated (impossible inside the box).
        """
        im, K, M = self.index_map, self.spec.K, self.spec.M
        flat = im.flat(flat)
        # Extrapolated candidates can land far outside the box where kernel values
        # overflow; the resulting non-finite gradients are rejected by the optimizer's
        # safeguard, so the noise is silenced here, kernel sums included.
        with np.errstate(all="ignore"):
            mu = flat[im.mu_slice]
            alpha = flat[im.alpha_slice].reshape(M, K, K)
            sums = self._sums(flat[im.beta_slice])
            counts = self._type_counts

            # [m][r, j] = alpha[m, type of row r, j]
            alpha_at = [np.repeat(alpha_m, counts, axis=0) for alpha_m in alpha]
            lam = np.repeat(mu, counts)
            for m, (R, _, _, _) in enumerate(sums):
                lam += np.einsum("aj,aj->a", alpha_at[m], R)

            obj = grad = None
            if want_obj:
                if not np.all(lam > 0):
                    raise RuntimeError("internal invariant violated: nonpositive intensity "
                                       "at an event")
                comp = sum(alpha[m].sum(axis=0) @ S for m, (_, _, S, _) in enumerate(sums))
                obj = float(-self.T * mu.sum() - comp + np.log(lam).sum())
                obj -= self.reg_c * float(flat @ flat)

            if want_grad_ma or want_grad_beta:
                grad = np.zeros(self.dim)
                inv_lam = 1.0 / lam
                if want_grad_ma:
                    grad[im.mu_slice] = self._type_sums(inv_lam) - self.T
                    g_alpha = np.empty((M, K, K))
                    for m, (R, _, S, _) in enumerate(sums):
                        g_alpha[m] = self._type_sums(R * inv_lam[:, None]) - S[None, :]
                    grad[im.alpha_slice] = g_alpha.reshape(-1)
                    grad[im.mu_alpha_slice] -= 2.0 * self.reg_c * flat[im.mu_alpha_slice]
                if want_grad_beta:
                    g_beta = np.empty(M)
                    for m, (_, D, _, Sd) in enumerate(sums):
                        excite = np.einsum("aj,aj,a->", alpha_at[m], D, inv_lam)
                        g_beta[m] = -(alpha[m].sum(axis=0) @ Sd) + excite
                    grad[im.beta_slice] = g_beta - 2.0 * self.reg_c * flat[im.beta_slice]

        return obj, grad

    def objective_flat(self, flat):
        obj, _ = self._evaluate(flat, True, False, False)
        return obj

    def grad_flat(self, flat, mu_alpha=True, beta=True):
        _, grad = self._evaluate(flat, False, mu_alpha, beta)
        return grad

    def objective_and_grad_flat(self, flat):
        return self._evaluate(flat, True, True, True)


def intensity_at(problem, params, t, i):
    """Intensity of type i at time t, summing strictly earlier events."""
    t = float(t)
    if not 0 <= t <= problem.T:
        raise ValueError(f"t={t} outside the observation window [0, {problem.T}]")
    if not (_RULES["nonnegative_int"][0](i) and i < problem.spec.K):
        raise ValueError(f"type index {i} out of range")
    params, events = problem.index_map.shaped(params), problem.events
    return float(intensities(problem.spec, params, events.times, events.types, t)[i])


def log_likelihood(problem, params):
    """Closed-form log-likelihood (no penalty)."""
    flat = problem.index_map.flat(params)
    return problem.objective_flat(flat) + problem.reg_c * float(flat @ flat)


def grad_log_likelihood(problem, params):
    """Analytic gradient of the log-likelihood as a flat vector of dim P."""
    flat = problem.index_map.flat(params)
    grad = problem.grad_flat(flat)
    return grad + 2.0 * problem.reg_c * flat


def regularized_objective(problem, params):
    """Log-likelihood minus the Tikhonov penalty C * ||theta||^2."""
    return problem.objective_flat(problem.index_map.flat(params))


def grad_regularized(problem, params):
    """Gradient of the regularized objective (subtracts 2 C theta)."""
    return problem.grad_flat(problem.index_map.flat(params))
