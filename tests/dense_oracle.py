"""Dense pairwise evaluation of the likelihood: the oracle for the fast engine.

This is the closed-form objective and gradient summed over an explicit n x n
matrix of elapsed times, as the package computed it before the linear-time
engine.  It costs O(n^2) memory and time, so it is only for small test
streams; every sum is written directly from the formula, which is what makes
it a trustworthy reference.
"""

from __future__ import annotations

import numpy as np


class DenseProblem:
    """The dense counterpart of a ``LikelihoodProblem`` with the same inputs."""

    def __init__(self, problem):
        spec, events = problem.spec, problem.events
        self.spec = spec
        self.reg_c = problem.reg_c
        self.T = problem.T
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
        # dt[a, b] = t_a - t_b where t_b < t_a (strict); invalid entries get a
        # harmless positive placeholder and are masked out of every sum.
        dt = times[:, None] - times[None, :]
        valid = dt > 0
        self._dt = np.where(valid, dt, 1.0)
        self._valid = valid
        self._comp_dt = self.T - times  # elapsed time entering the compensator

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
        beta = flat[im.beta_slice]
        n = self.n
        types = self._types
        Z = self._Z

        # Per-kernel building blocks.
        R = []       # R[m][a, j] = sum_{s < t_a, type j} phi_m(t_a - s)
        S = []       # S[m][j]    = sum_{s: type j} Phi_m(T - s)
        # Extrapolated candidates can land far outside the box where kernel
        # values overflow; the resulting non-finite gradients are rejected by
        # the optimizer's safeguard, so the noise is silenced here.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for m in range(M):
                kern = spec.kernels[m]
                b = float(beta[m])
                E = np.where(self._valid, kern.value(self._dt, b), 0.0)
                R.append(E @ Z)
                S.append(Z.T @ kern.antiderivative(self._comp_dt, b))
            lam = mu[types].copy() if n else np.empty(0)
            for m in range(M):
                lam += np.einsum("aj,aj->a", alpha[m][types], R[m])

        obj = None
        if want_obj:
            if n and not np.all(lam > 0):
                raise RuntimeError(
                    "internal invariant violated: nonpositive intensity at an event"
                )
            comp = sum(alpha[m].sum(axis=0) @ S[m] for m in range(M))
            logterm = float(np.log(lam).sum()) if n else 0.0
            obj = float(-self.T * mu.sum() - comp + logterm)
            with np.errstate(over="ignore"):  # |theta|^2 is inf far out, as in the engine
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
                    for m in range(M):
                        g_alpha[m] = Z.T @ (R[m] * inv_lam[:, None]) - S[m][None, :]
                    grad[im.alpha_slice] = g_alpha.reshape(-1)
                if want_grad_beta:
                    g_beta = np.empty(M)
                    for m in range(M):
                        kern = spec.kernels[m]
                        b = float(beta[m])
                        Sd = Z.T @ kern.antideriv_dbeta(self._comp_dt, b)
                        D = np.where(self._valid, kern.dbeta(self._dt, b), 0.0) @ Z
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
