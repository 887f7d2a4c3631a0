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
n x n array:

* an exponential kernel uses the linear recursion over distinct time stamps
  (Ozaki 1979), run as a blocked scan whose cost depends on the stamp count
  alone: O(n K) time and memory per kernel, whatever beta;
* a power-law kernel is summed over the list of strictly earlier (source,
  destination) pairs built once at construction: O(#pairs) time and 8 bytes
  per pair (8 more per further distinct cutoff), at most n^2 / 2 pairs,
  plus O(n K) cell bounds.  The pairs are grouped by cell (destination,
  source type), sources in time order inside a cell, and the list keeps
  L = log(dt + c) rather than the elapsed time dt, one array per distinct
  cutoff c (one of them in dt's own storage).  A pass computes
  phi = exp(-beta L) and d phi / d beta = -L phi, with no power or
  logarithm, and sums each cell's segment.  It goes through the segments
  in parts of a fixed number of pairs, cut at cell starts, so its scratch
  stays in cache.  A cell is never split, so the sums carry the same bits
  for any number of parts.  A list over ``_PAIR_BUDGET`` pairs times
  distinct cutoffs (2 GiB) is refused with a ``DataError`` before anything
  pair-sized is allocated.

R, D and the compensator sums S depend on beta alone, and the optimizer's
block steps ask for several evaluations at one beta.  A ``LikelihoodProblem``
therefore keeps the sums of the last two distinct beta vectors (keyed on
their exact bytes) and computes them once per miss; ``kernel_passes`` counts
the misses.  Apart from this memo a problem is immutable after construction.
Its slots are replaced whole and hold read-only arrays, and each pass writes
only arrays of its own, so a problem may be shared across threads:
concurrent callers at worst repeat a pass (and the count may then be off).
Sums are reduced in fixed order, so objective values reproduce bit for bit,
with or without a memo hit.
"""

from __future__ import annotations

import numpy as np

from .model import DataError, Exponential, intensities

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


def _pair_list(times, types, K, cutoffs):
    """Elapsed times of all kernel pairs, grouped into cells, and the cells.

    A pair (source b, destination a) enters the sums when t_b < t_a; it
    belongs to the cell ``a * K + types[b]``.  Pairs are ordered by cell and,
    inside a cell, by source time, so each cell is one contiguous segment.
    Returns (dt, starts, cells): ``starts`` are the segments' first positions
    and ``cells`` their flat cells, nonempty cells only, in order.

    Each of the ``cutoffs`` distinct cutoffs keeps one array of the pairs.
    Over ``_PAIR_BUDGET`` pairs times cutoffs this raises ``DataError``,
    naming n, the pairs and the bytes, before any pair-sized allocation.
    """
    hi = np.searchsorted(times, times, side="left")  # sources strictly earlier
    pairs = int(hi.sum())
    if pairs * cutoffs > _PAIR_BUDGET:
        raise DataError(
            f"{times.size} events make {pairs} power-law kernel pairs; with "
            f"{cutoffs} distinct cutoff(s) the pair list would take "
            f"{8 * pairs * cutoffs} bytes, over its budget of "
            f"{8 * _PAIR_BUDGET} bytes"
        )
    # The sources of row a are the first hi[a] events; grouped by type they
    # are a prefix of each type's events, so a stable sort by type once puts
    # every row's pairs in cell order.
    by_type = np.argsort(types, kind="stable")
    type_times = times[by_type]
    prefix = np.zeros((times.size + 1, K), dtype=np.intp)
    if times.size:
        np.cumsum(np.eye(K, dtype=np.intp)[types], axis=0, out=prefix[1:])
    sizes = prefix[hi].ravel()  # pairs per cell (a, j)
    cells = np.flatnonzero(sizes)
    starts = np.cumsum(sizes) - sizes
    dt = np.empty(pairs)
    # One destination row at a time: no pair-sized scratch.
    o = 0
    for a, b in enumerate(hi.tolist()):
        if b:
            e = o + b
            np.subtract(times[a], type_times[by_type < b], out=dt[o:e])
            o = e
    return dt, starts[cells], cells


def _pair_logs(dt, cutoffs):
    """{c: log(dt + c)} for each distinct cutoff; the last one overwrites dt.

    Each log is taken in place, so the lists hold one pair-sized array per
    cutoff and no temporary: the peak is what ``_pair_list`` budgets.
    """
    *others, last = dict.fromkeys(cutoffs)
    logs = {}
    for c in others:
        shifted = dt + c
        logs[c] = np.log(shifted, out=shifted)
    np.add(dt, last, out=dt)
    logs[last] = np.log(dt, out=dt)
    return logs


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


def _decay_scan(a, Y):
    """Y[g] = a[g] Y[g-1] + Y[g] down the rows, in place, from Y[-1] = 0.

    ``a`` and ``Y`` hold the rows as ``_blocked`` lays them out.  The
    recursion runs down all blocks at once, one row position per step, while
    A keeps each block's running products of its factors; the block totals
    are then scanned by doubling (Blelloch 1990), and each block adds its
    carry.  Only products of the factors are formed, so for factors in [0, 1]
    nothing overflows, and the steps taken depend on the shape alone.
    """
    A = a.copy()
    for i in range(1, _SCAN_BLOCK):
        Y[i] += A[i, :, None] * Y[i - 1]
        A[i] *= A[i - 1]
    C, P = Y[-1], A[-1]  # block totals and products; scanned in place, final
    s = 1
    while s < P.size:
        C[s:] += P[s:, None] * C[:-s]
        P[s:] *= P[:-s]
        s *= 2
    for i in range(_SCAN_BLOCK - 1):
        Y[i, 1:] += A[i, 1:, None] * C[:-1]
    return Y


def _nan_rows(S):
    """S, with each row whose sum is not finite set to NaN in place.

    One non-finite kernel value makes its row non-finite in the dense product
    E @ Z; both engines keep that rule, so a bad extrapolated candidate fails
    the same way whichever way its sums are taken.
    """
    S[~np.isfinite(S @ np.ones(S.shape[1]))] = np.nan
    return S


class LikelihoodProblem:
    """Event stream + model spec + box domain + Tikhonov coefficient.

    Precomputes what every evaluation shares: the per-type indicator, the
    distinct time stamps with their per-type event counts (for the
    exponential recursion), and, when some kernel needs it, the list of kernel
    pairs.  No array of size n x n is built.  The kernel sums of the last two
    distinct beta vectors are kept; ``kernel_passes`` counts how often they
    were computed.
    """

    def __init__(self, spec, events, domain, reg_c=0.0):
        if events.horizon <= 0:
            raise ValueError("observation horizon T must be positive")
        if not 0 <= reg_c < np.inf:
            raise ValueError(f"regularization coefficient must be finite and >= 0, got {reg_c}")
        if np.any(events.types >= spec.K):
            raise ValueError("event type index out of range for the model spec")
        domain.validate_kernels(spec)
        self.spec = spec
        self.events = events
        self.domain = domain
        self.reg_c = float(reg_c)
        self.T = float(events.horizon)
        self.index_map = spec.index_map
        self.dim = self.index_map.dim

        times = events.times
        types = events.types
        n, K = times.size, spec.K
        self.n = n
        self._types = types
        # Z[a, k] = 1 if event a has type k.
        Z = np.zeros((n, K))
        if n:
            Z[np.arange(n), types] = 1.0
        self._Z = Z
        self._comp_dt = self.T - times  # elapsed time entering the compensator
        # Distinct stamps u_g (grouping ties keeps simultaneous events out of
        # each other's sums), their gaps u_g - u_{g-1} (0 for the first) and
        # type counts in the scan's layout, and each event's stamp in it.
        stamps, stamp_of = np.unique(times, return_inverse=True)
        self._gaps = _blocked(np.diff(stamps, prepend=stamps[:1]))
        self._counts = _blocked(
            np.bincount(stamp_of * K + types, minlength=stamps.size * K).reshape(-1, K))
        self._stamp_at = np.divmod(stamp_of, _SCAN_BLOCK)[::-1]
        # Exponential kernels take the recursion; power-law kernels sum over
        # the pair list.
        cutoffs = [k.c for k in spec.kernels if not isinstance(k, Exponential)]
        if cutoffs:
            dt, self._cell_start, self._cell_index = _pair_list(
                times, types, K, len(set(cutoffs)))
            self._pair_logs = _pair_logs(dt, cutoffs)
            pairs = dt.size
            self._parts = _split(self._cell_start, pairs, max(1, -(-pairs // _PART_PAIRS)))
        else:
            self._pair_logs = None
        self.kernel_passes = 0
        self._memo = ()  # at most two (beta bytes, per-kernel sums), newest first

    # -- kernel sums ----------------------------------------------------------

    def _kernel_sums(self, m, beta, want_dbeta):
        """Per-event kernel sums of base kernel m at shape parameter beta.

        Returns (R, D), both n x K: R[a, j] = sum_{s < t_a, type j}
        phi_m(t_a - s) and D the same sum of d phi_m / d beta (None unless
        ``want_dbeta``).
        """
        n, K = self.n, self.spec.K
        kern = self.spec.kernels[m]
        if isinstance(kern, Exponential):
            # Ozaki's recursion over stamps, with W_g the type counts at u_g
            # and a_g = e^{-beta gap_g}: the scan Y_g = a_g Y_{g-1} + W_g gives
            # R_g = a_g Y_{g-1} (R_0 = 0; g-1 is the row above, or the previous
            # block's last row), and the scan of -gap_g R_g gives D_g, the sum
            # of d phi / d beta = -(u_g - s) e^{-beta (u_g - s)}.
            gaps, at = self._gaps, self._stamp_at
            a = np.exp(-beta * gaps)
            Y = _decay_scan(a, self._counts.copy())
            R = np.zeros_like(Y)
            np.multiply(a[1:, :, None], Y[:-1], out=R[1:])
            np.multiply(a[0, 1:, None], Y[-1, :-1], out=R[0, 1:])
            if not want_dbeta:
                return _nan_rows(R[at]), None
            D = _decay_scan(a, np.multiply(-gaps[:, :, None], R, out=Y))  # Y's memory
            return _nan_rows(R[at]), _nan_rows(D[at])

        # phi = (dt + c)^-beta = exp(-beta L), summed over each cell's segment;
        # the scratch then holds L phi, and d phi / d beta = -L phi sums to -D.
        L = self._pair_logs[kern.c]
        starts, cells, parts = self._cell_start, self._cell_index, self._parts
        size = max(q - p for (_, p), (_, q) in zip(parts, parts[1:]))
        r = np.empty(cells.size)
        d = np.empty(cells.size) if want_dbeta else None
        scratch = np.empty(size)
        # Each cell is summed by one reduceat, so the bits do not depend on
        # the number of parts.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for (c0, p0), (c1, p1) in zip(parts, parts[1:]):
                seg, x = starts[c0:c1] - p0, scratch[: p1 - p0]
                np.multiply(L[p0:p1], -beta, out=x)
                np.exp(x, out=x)
                np.add.reduceat(x, seg, out=r[c0:c1])
                if want_dbeta:
                    np.multiply(x, L[p0:p1], out=x)
                    np.add.reduceat(x, seg, out=d[c0:c1])

        def rows(sums):
            S = np.zeros(n * K)
            S[cells] = sums
            return _nan_rows(S.reshape(n, K))

        return rows(r), (-rows(d) if want_dbeta else None)

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
        Z = self._Z
        sums = []
        # Extrapolated candidates can land far outside the box where kernel
        # values overflow; the resulting non-finite gradients are rejected by
        # the optimizer's safeguard, so the noise is silenced here.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for m, kern in enumerate(self.spec.kernels):
                b = float(beta[m])
                R, D = self._kernel_sums(m, b, True)
                S = Z.T @ kern.antiderivative(self._comp_dt, b)
                Sd = Z.T @ kern.antideriv_dbeta(self._comp_dt, b)
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
        spec, im = self.spec, self.index_map
        K, M = spec.K, spec.M
        mu = flat[im.mu_slice]
        alpha = flat[im.alpha_slice].reshape(M, K, K)
        sums = self._sums(flat[im.beta_slice])
        n = self.n
        types = self._types
        Z = self._Z

        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            lam = mu[types].copy() if n else np.empty(0)
            for m, (R, _, _, _) in enumerate(sums):
                lam += np.einsum("aj,aj->a", alpha[m][types], R)

        obj = None
        if want_obj:
            if n and not np.all(lam > 0):
                raise RuntimeError(
                    "internal invariant violated: nonpositive intensity at an event"
                )
            comp = sum(alpha[m].sum(axis=0) @ S for m, (_, _, S, _) in enumerate(sums))
            logterm = float(np.log(lam).sum()) if n else 0.0
            obj = float(-self.T * mu.sum() - comp + logterm)
            obj -= self.reg_c * float(flat @ flat)

        grad = None
        if want_grad_ma or want_grad_beta:
            grad = np.zeros(self.dim)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                inv_lam = 1.0 / lam if n else np.empty(0)
                if want_grad_ma:
                    g_mu = np.bincount(types, weights=inv_lam, minlength=K) - self.T
                    grad[im.mu_slice] = g_mu
                    g_alpha = np.empty((M, K, K))
                    for m, (R, _, S, _) in enumerate(sums):
                        g_alpha[m] = Z.T @ (R * inv_lam[:, None]) - S[None, :]
                    grad[im.alpha_slice] = g_alpha.reshape(-1)
                if want_grad_beta:
                    g_beta = np.empty(M)
                    for m, (_, D, _, Sd) in enumerate(sums):
                        excite = np.einsum("aj,aj,a->", alpha[m][types], D, inv_lam)
                        g_beta[m] = -(alpha[m].sum(axis=0) @ Sd) + excite
                    grad[im.beta_slice] = g_beta
            if want_grad_ma:
                grad[im.mu_alpha_slice] -= 2.0 * self.reg_c * flat[im.mu_alpha_slice]
            if want_grad_beta:
                grad[im.beta_slice] -= 2.0 * self.reg_c * flat[im.beta_slice]

        return obj, grad

    def objective_flat(self, flat):
        obj, _ = self._evaluate(np.asarray(flat, float), True, False, False)
        return obj

    def grad_flat(self, flat, mu_alpha=True, beta=True):
        _, grad = self._evaluate(np.asarray(flat, float), False, mu_alpha, beta)
        return grad

    def objective_and_grad_flat(self, flat):
        return self._evaluate(np.asarray(flat, float), True, True, True)


def intensity_at(problem, params, t, i):
    """Intensity of type i at time t, summing strictly earlier events."""
    t = float(t)
    if not 0 <= t <= problem.T:
        raise ValueError(f"t={t} outside the observation window [0, {problem.T}]")
    if not 0 <= i < problem.spec.K:
        raise ValueError(f"type index {i} out of range")
    events = problem.events
    return float(intensities(problem.spec, params, events.times, events.types, t)[i])


def log_likelihood(problem, params):
    """Closed-form log-likelihood (no penalty)."""
    flat = problem.index_map.pack(params)
    obj, _ = problem._evaluate(flat, True, False, False)
    return obj + problem.reg_c * float(flat @ flat)


def grad_log_likelihood(problem, params):
    """Analytic gradient of the log-likelihood as a flat vector of dim P."""
    flat = problem.index_map.pack(params)
    grad = problem.grad_flat(flat)
    return grad + 2.0 * problem.reg_c * flat


def regularized_objective(problem, params):
    """Log-likelihood minus the Tikhonov penalty C * ||theta||^2."""
    return problem.objective_flat(problem.index_map.pack(params))


def grad_regularized(problem, params):
    """Gradient of the regularized objective (subtracts 2 C theta)."""
    return problem.grad_flat(problem.index_map.pack(params))
