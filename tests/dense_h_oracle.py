"""Dense approximate inverse Jacobian: the oracle for the factored Anderson state.

``DenseHState`` is ``OptimizerState`` with H held as an explicit dim x dim
matrix and changed by the dense Powell-damped rank-one formula, as the
optimizer did before H was stored as factor pairs.  The secant window and the
restart rules are inherited, so the two states differ only in how H is held.
It costs O(dim^2) memory and time per step, so it is only for small problems.
Swapped in for ``optim.OptimizerState`` it reproduces the optimizer's runs
from before the change bit for bit, its (||H||, ||H^-1||) pairs included: it
takes them from a full SVD of its dense H.

``dense_h`` builds the dense H of a factored ``OptimizerState`` from its
factor pairs, the oracle for ``OptimizerState.h_dot`` and ``h_norms``.
"""

from __future__ import annotations

import numpy as np

from hawkes_mle.optim import OptimizerState, powell_phi


def dense_h(state):
    """I + sum_i a_i b_i' over the factor pairs of ``state``, as a dim x dim array."""
    h = np.eye(state.dim)
    for a, b in state.h_terms:
        h += np.outer(a, b)
    return h


def svd_norms(h):
    """(||H||_2, ||H^-1||_2) of a dense H from its full SVD."""
    sv = np.linalg.svd(h, compute_uv=False)
    return float(sv[0]), float(1.0 / sv[-1])


class DenseHState(OptimizerState):
    """``OptimizerState`` with a dense H; ``None`` stands for H = I."""

    def __init__(self, dim):
        super().__init__(dim)
        self._h = None

    def reset_memory(self):
        super().reset_memory()
        self._h = None

    @property
    def h_matrix(self):
        return np.eye(self.dim) if self._h is None else self._h

    def h_dot(self, x):
        return self.h_matrix @ x

    def h_norms(self):
        return svd_norms(self.h_matrix)

    def _damped_update(self, s, s_hat, y, r, omega_bar):
        """H + (s - H y~)(H's_hat)' / (s_hat'H y~), formed densely; H = I skips products."""
        H = self._h
        Hy = y if H is None else H @ y
        sh_sq = float(s_hat @ s_hat)
        eta = float(s_hat @ Hy) / sh_sq if sh_sq > 0 else 0.0
        omega = powell_phi(eta, omega_bar) if np.isfinite(eta) else 1.0
        y_tilde = omega * y - (1.0 - omega) * r
        Hyt = y_tilde if H is None else H @ y_tilde
        denom = float(s_hat @ Hyt)
        if not np.isfinite(denom) or abs(denom) < 1e-300:
            return False
        h_new = np.outer(s - Hyt, s_hat if H is None else H.T @ s_hat)
        h_new /= denom
        h_new += self.h_matrix
        self._h = h_new
        return True
