"""Block optimizers for the regularized Hawkes MLE.

The objective is maximized over the box Theta = A x B, with A the joint
(mu, alpha) block and B the beta block.  One sweep of the inertial proximal
alternating scheme updates the blocks in turn:

    (mu'', alpha'') = Pi_A((mu', alpha') + tau1 * g_A(mu', alpha', beta')
                           + gamma1 * ((mu', alpha') - (mu, alpha)))
    beta''          = Pi_B(beta' + tau2 * g_B(mu'', alpha'', beta')
                           + gamma2 * (beta' - beta))

where g_A, g_B are gradient blocks of the regularized log-likelihood and
primes denote (current, previous) iterates.

PALM, iPALM and AA-iPALM share one loop on the doubled state u = (theta', theta):
each iteration evaluates the objective and gradient at u and takes the plain
sweep u_hat.  With acceleration on, each iteration after the first adds a
type-I Anderson step: the secant pair of the last step gives a Powell-damped
rank-one update of the approximate inverse Jacobian H, and the candidate
u - H (u - u_hat) replaces u_hat when a four-condition safeguard holds.  H
restarts at I when the window of ``memory`` secants is full, when a secant's
projection off the window falls below ``nu`` of its norm, when the secant is
zero or non-finite or its sweep is not finite, and (retrying once with H = I)
when the update's curvature degenerates.  So H is I plus at most ``memory`` + 1
rank-one factor pairs: a step costs O(memory * P) time and memory, and the
(||H||, ||H^-1||) pairs of ``track_h`` come from a thin QR of the factors in
O(memory^2 * P).  No dim x dim form of H is ever built.  After an accepted
step the secant's end point is u itself, so the loop reuses u_hat as its sweep.

All runners are deterministic: identical inputs give identical traces.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import _RULES, ParamVector, _or_null, _require

__all__ = [
    "HyperParamsError",
    "InfeasibleInitError",
    "HyperParams",
    "TraceRecord",
    "OptimResult",
    "OptimizerState",
    "ResidualSummary",
    "powell_phi",
    "ipalm_map",
    "run_palm",
    "run_ipalm",
    "run_aa_ipalm",
    "RUNNERS",
    "residual_diagnostics",
    "estimate_lipschitz_bounds",
]


class HyperParamsError(ValueError):
    """Hyperparameter outside its admissible range."""


class InfeasibleInitError(ValueError):
    """Initial point outside the box domain."""


# Each hyperparameter's range; ``validate`` checks the coupled epsilon and gamma bounds after.
_RANGES = {name: rule for names, rule in (
    ("epsilon gamma1 gamma2", _RULES["finite"]), ("lbar1 lbar2", _RULES["positive"]),
    ("tau1 tau2", _or_null(_RULES["positive"])), ("omega_bar nu", _RULES["open_fraction"]),
    ("delta", _or_null(_RULES["nonnegative"])), ("c1 c2", _RULES["at_least_one"]),
    ("memory max_iters", _RULES["positive_int"])) for name in names.split()}


@dataclass(frozen=True)
class HyperParams:
    """Step-size, momentum, acceleration, and safeguard constants.

    When ``tau1``/``tau2`` are left unset they follow the step-size rule
    tau_i = 2 (1 - gamma_i) / ((1 + gamma_i) * lbar_i), which guarantees
    monotone descent of the Lyapunov sequence for gamma_i in [0, 1 - 2 eps].
    ``delta`` defaults to max(delta1, delta2) with
    delta_i = gamma_i * lbar_i / (2 (1 - eps - gamma_i)).

    Explicit overrides that break those relations (larger steps, smaller
    delta) are rejected by :meth:`validate` unless ``allow_noncompliant`` is
    set, in which case each run warns and uses them verbatim.  They are judged
    with the momenta the chosen algorithm runs with (PALM's are zero).
    """

    epsilon: float = 0.05
    gamma1: float = 0.0
    gamma2: float = 0.0
    lbar1: float = 1.0
    lbar2: float = 1.0
    tau1: float | None = None
    tau2: float | None = None
    omega_bar: float = 0.1
    nu: float = 0.1
    delta: float | None = None
    c1: float = 1e8
    c2: float = 1e8
    memory: int = 20
    max_iters: int = 500
    allow_noncompliant: bool = False

    @staticmethod
    def formula_tau(gamma, lbar):
        return 2.0 * (1.0 - gamma) / ((1.0 + gamma) * lbar)

    @property
    def tau1_eff(self):
        return self.tau1 if self.tau1 is not None else self.formula_tau(self.gamma1, self.lbar1)

    @property
    def tau2_eff(self):
        return self.tau2 if self.tau2 is not None else self.formula_tau(self.gamma2, self.lbar2)

    @property
    def delta1(self):
        return self.gamma1 * self.lbar1 / (2.0 * (1.0 - self.epsilon - self.gamma1))

    @property
    def delta2(self):
        return self.gamma2 * self.lbar2 / (2.0 * (1.0 - self.epsilon - self.gamma2))

    @property
    def delta_eff(self):
        return self.delta if self.delta is not None else max(self.delta1, self.delta2)

    def for_algorithm(self, algorithm):
        """The hyperparameters ``algorithm`` runs with: PALM is the zero-momentum case."""
        return replace(self, gamma1=0.0, gamma2=0.0) if algorithm == "palm" else self

    def validate(self, algorithm):
        """Refuse bad values; return ``algorithm``'s rule issues, raised unless allowed."""
        _require("algorithm", algorithm, _ALGORITHM, HyperParamsError)
        for name, rule in _RANGES.items():
            _require(name, getattr(self, name), rule, HyperParamsError)
        if not 0.0 < self.epsilon < 0.5:
            raise HyperParamsError("epsilon must lie in (0, 1/2)")
        hi = 1.0 - 2.0 * self.epsilon
        for name, g in (("gamma1", self.gamma1), ("gamma2", self.gamma2)):
            if not 0.0 <= g <= hi + 1e-15:
                raise HyperParamsError(f"{name} must lie in [0, 1 - 2 eps] = [0, {hi}]")

        run = self.for_algorithm(algorithm)
        issues = [
            f"{name}={t:g} exceeds the step-size rule value {rule:g} for the supplied lbar"
            for name, t, rule in (("tau1", run.tau1, run.formula_tau(run.gamma1, run.lbar1)),
                                  ("tau2", run.tau2, run.formula_tau(run.gamma2, run.lbar2)))
            if t is not None and t > rule * (1.0 + 1e-12)
        ]
        dmax = max(run.delta1, run.delta2)
        if run.delta is not None and run.delta < dmax * (1.0 - 1e-12):
            issues.append(
                f"delta={run.delta:g} is below max(delta1, delta2)={dmax:g}; "
                "the descent safeguard is weaker than the theory requires"
            )
        if issues and not self.allow_noncompliant:
            raise HyperParamsError("non-compliant hyperparameters: " + "; ".join(issues))
        return issues


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    objective: float
    residual: float
    step_kind: str
    lyapunov: float
    seconds: float


@dataclass
class OptimizerState:
    """Anderson state of the accelerated loop on the doubled iterate u.

    The approximate inverse Jacobian of the fixed-point residual is
    H = I + sum_i a_i b_i', one (a_i, b_i) pair in ``h_terms`` per rank-one
    update since the last restart, so ``h_dot`` (H x) and ``h_t_dot`` (H'x)
    cost O(memory * dim), and ``h_norms`` takes ||H|| and ||H^-1|| from the
    factors in O(memory^2 * dim).  The pairs are the only form of H.
    ``s_window`` holds the orthogonalized secant directions of the current
    memory window.  ``u_prev`` is the previous iterate, ``cached_sweep`` its
    plain sweep, and ``u_tilde`` the previous extrapolated candidate, where
    the next secant pair ends.
    """

    dim: int
    s_window: list = field(default_factory=list)
    h_terms: list = field(default_factory=list)
    u_prev: np.ndarray | None = None
    cached_sweep: np.ndarray | None = None
    u_tilde: np.ndarray | None = None

    def reset_memory(self):
        self.s_window = []
        self.h_terms = []

    def h_dot(self, x):
        out = x.copy()
        for a, b in self.h_terms:
            out += (b @ x) * a
        return out

    def h_t_dot(self, x):
        out = x.copy()
        for a, b in self.h_terms:
            out += (a @ x) * b
        return out

    def h_norms(self):
        """(||H||_2, ||H^-1||_2) from the factors, in O(dim * r^2) for r pairs.

        With A = [a_1 .. a_r], B = [b_1 .. b_r] and the thin QR [A B] = Q [R_A R_B],
        H = I + Q R_A R_B' Q' acts as C = I + R_A R_B' on range(Q) and as I off
        it (the compact form of Byrd, Nocedal & Schnabel, 1994).  So the
        singular values of H are those of C, plus 1 when Q does not span R^dim.
        """
        if not self.h_terms:
            return 1.0, 1.0
        A, B = zip(*self.h_terms)
        R = np.linalg.qr(np.column_stack(A + B), mode="r")
        r = len(A)
        sv = np.linalg.svd(np.eye(R.shape[0]) + R[:, :r] @ R[:, r:].T, compute_uv=False)
        hi, lo = sv[0], sv[-1]
        if R.shape[0] < self.dim:
            hi, lo = max(hi, 1.0), min(lo, 1.0)
        return float(hi), float(1.0 / lo)

    def _damped_update(self, s, s_hat, y, r, omega_bar):
        """Powell-damped rank-one update of H; False when its curvature degenerates.

        With y~ = omega y - (1 - omega) r and omega = powell_phi(s_hat'Hy / s_hat's_hat),
        H gains the term (s - H y~)(H's_hat)' / (s_hat'H y~).
        """
        Hy = self.h_dot(y)
        sh_sq = float(s_hat @ s_hat)
        eta = float(s_hat @ Hy) / sh_sq if sh_sq > 0 else 0.0
        omega = powell_phi(eta, omega_bar) if np.isfinite(eta) else 1.0
        Hyt = self.h_dot(omega * y - (1.0 - omega) * r)
        denom = float(s_hat @ Hyt)
        if not np.isfinite(denom) or abs(denom) < 1e-300:
            return False
        self.h_terms.append(((s - Hyt) / denom, self.h_t_dot(s_hat)))
        return True

    def secant_update(self, problem, hp, u, u_hat):
        """Secant pair of the last step, then the damped rank-one H update.

        ``u_hat`` is the plain sweep of the iterate ``u``; it is also the sweep
        at the candidate when the candidate was taken (always at k = 1).
        """
        s = self.u_tilde - self.u_prev
        sweep = u_hat if self.u_tilde is u else ipalm_map(problem, hp, self.u_tilde)
        y = s - (sweep - self.cached_sweep)
        s_norm = float(np.linalg.norm(s))
        if s_norm == 0.0 or not np.isfinite(s_norm) or not np.isfinite(y).all():
            # Exact fixed point, or a degenerate candidate whose sweep is not
            # finite: restart, skip the update.
            self.reset_memory()
            return
        s_hat = s.copy()
        for v in self.s_window:
            s_hat -= (v @ s) / (v @ v) * v
        if len(self.s_window) == hp.memory or np.linalg.norm(s_hat) < hp.nu * s_norm:
            self.reset_memory()
            s_hat = s
        else:
            self.s_window.append(s_hat)
        r = self.u_prev - self.cached_sweep
        if not self._damped_update(s, s_hat, y, r, hp.omega_bar):
            # Degenerate curvature: forced restart, then retry once with H = I.
            self.reset_memory()
            self._damped_update(s, s, y, r, hp.omega_bar)


@dataclass
class OptimResult:
    params: ParamVector
    trace: list
    final_objective: float
    accepted_aa: int = 0
    rejected_aa: int = 0
    iterates: list | None = None
    h_norms: list | None = None  # (||H_k||_2, ||H_k^-1||_2) per accelerated iteration


def powell_phi(eta, omega_bar):
    """Powell damping factor keeping the rank-one update nonsingular.

    Returns 1 when |eta| >= omega_bar, else (1 - sign(eta) * omega_bar) /
    (1 - eta), with sign(0) = 1.
    """
    _require("omega_bar", omega_bar, _RULES["open_fraction"])
    eta = float(eta)
    if abs(eta) >= omega_bar:
        return 1.0
    sign = 1.0 if eta >= 0.0 else -1.0
    return (1.0 - sign * omega_bar) / (1.0 - eta)


def _advance(problem, hp, cur, prev, g_ma):
    """One block sweep given the (mu, alpha) gradient at ``cur``; returns new u."""
    im = problem.index_map
    lb, ub = problem.domain.lb_flat(), problem.domain.ub_flat()
    A, B = im.mu_alpha_slice, im.beta_slice
    new = cur.copy()
    new[A] = np.clip(
        cur[A] + hp.tau1_eff * g_ma + hp.gamma1 * (cur[A] - prev[A]), lb[A], ub[A]
    )
    g_b = problem.grad_flat(new, mu_alpha=False, beta=True)[B]
    new[B] = np.clip(
        cur[B] + hp.tau2_eff * g_b + hp.gamma2 * (cur[B] - prev[B]), lb[B], ub[B]
    )
    return np.concatenate([new, cur])


def ipalm_map(problem, hp, u):
    """One sweep of the inertial scheme on the doubled state u = (theta', theta)."""
    u = np.asarray(u, dtype=float)
    P = problem.dim
    if u.shape != (2 * P,):
        raise ValueError(f"expected doubled state of dim {2 * P}")
    g = problem.grad_flat(u[:P], mu_alpha=True, beta=False)
    return _advance(problem, hp, u[:P], u[P:], g[problem.index_map.mu_alpha_slice])


def _lyapunov(hp, im, obj, flat_k, flat_prev):
    """The trace's descent certificate -obj(theta_k) + (d1/2)||d_ma||^2 + (d2/2)||d_b||^2,
    nonincreasing along every run whose hyperparameters satisfy the step-size and delta
    relations."""
    d = flat_k - flat_prev
    ma, b = d[im.mu_alpha_slice], d[im.beta_slice]
    return -obj + 0.5 * hp.delta1 * float(ma @ ma) + 0.5 * hp.delta2 * float(b @ b)


def _accept(problem, hp, u, u_hat, u_tilde, obj, grad, residual):
    """The four safeguard conditions on the extrapolated candidate u_tilde."""
    P = problem.dim
    theta = u_tilde[:P]
    # ||grad|| >= max |grad_i|: a larger or NaN entry fails before the norm could overflow.
    if not (
        np.abs(grad).max() <= hp.c1 * residual
        and float(np.linalg.norm(grad)) <= hp.c1 * residual
        and problem.domain.contains(theta)
        and float(np.linalg.norm(u_tilde[P:] - u[P:]))
        <= hp.c2 * float(np.linalg.norm(u_hat[P:] - u[P:]))
    ):
        return False
    d_theta = theta - u[:P]
    gain = problem.objective_flat(theta) - obj
    delta = hp.delta_eff
    return gain >= 0.5 * (delta + hp.epsilon * delta) * float(d_theta @ d_theta)


def _iterate(problem, hp, algorithm, theta0, accelerate, keep_iterates, track_h):
    """The optimizer loop: block sweeps, each optionally Anderson-extrapolated."""
    for issue in hp.validate(algorithm):  # the one place that warns of them, once per fit
        warnings.warn(issue)
    hp = hp.for_algorithm(algorithm)
    flat0 = problem.index_map.flat(theta0)
    if not problem.domain.contains(flat0):
        raise InfeasibleInitError("initial point lies outside the box domain")
    im = problem.index_map
    P = problem.dim
    kind = "PALM" if hp.gamma1 == 0.0 and hp.gamma2 == 0.0 else "iPALM"

    u = np.concatenate([flat0, flat0])
    theta_prev = flat0.copy()
    state = OptimizerState(2 * P) if accelerate else None
    trace = []
    iterates = [flat0.copy()] if keep_iterates else None
    h_norms = [] if track_h and accelerate else None
    t0 = time.perf_counter()
    for k in range(hp.max_iters):
        cur = u[:P]
        obj_k, grad_full = problem.objective_and_grad_flat(cur)
        u_hat = _advance(problem, hp, cur, u[P:], grad_full[im.mu_alpha_slice])
        res_hat = float(np.linalg.norm(u_hat - u))
        step_kind, u_next = kind, u_hat
        if state is not None:
            u_tilde = u_hat  # iteration 0 takes the plain sweep as its candidate
            if k > 0:
                state.secant_update(problem, hp, u, u_hat)
                if track_h:
                    h_norms.append(state.h_norms())
                u_tilde = u - state.h_dot(u - u_hat)
                take_aa = _accept(
                    problem, hp, u, u_hat, u_tilde, obj_k, grad_full, res_hat
                )
                step_kind = "AA-accepted" if take_aa else "AA-rejected"
                if take_aa:
                    u_next = u_tilde
            state.u_prev, state.cached_sweep, state.u_tilde = u, u_hat, u_tilde

        lyap = _lyapunov(hp, im, obj_k, cur, theta_prev)
        trace.append(
            TraceRecord(k, obj_k, res_hat, step_kind, lyap, time.perf_counter() - t0)
        )
        theta_prev = cur.copy()
        u = u_next
        if keep_iterates:
            iterates.append(u[:P].copy())

    final = u[:P].copy()
    kinds = [r.step_kind for r in trace]
    return OptimResult(
        params=im.unpack(final),
        trace=trace,
        final_objective=problem.objective_flat(final),
        accepted_aa=kinds.count("AA-accepted"),
        rejected_aa=kinds.count("AA-rejected"),
        iterates=iterates,
        h_norms=h_norms,
    )


def run_ipalm(problem, hp, theta0, keep_iterates=False):
    """Iterate the block sweep from theta0; returns params, trace, final objective."""
    return _iterate(problem, hp, "ipalm", theta0, False, keep_iterates, False)


def run_palm(problem, hp, theta0, keep_iterates=False):
    """Non-inertial variant: the block sweep with both momenta zero, judged by PALM's rules."""
    return _iterate(problem, hp, "palm", theta0, False, keep_iterates, False)


def run_aa_ipalm(
    problem, hp, theta0, accept_aa=True, keep_iterates=False, track_h=False
):
    """Block sweeps with the safeguarded Anderson step (see the module notes).

    ``accept_aa=False`` turns the acceleration off: :func:`run_ipalm` bit for bit.
    """
    return _iterate(problem, hp, "aa-ipalm", theta0, accept_aa, keep_iterates, track_h)


RUNNERS = {"palm": run_palm, "ipalm": run_ipalm, "aa-ipalm": run_aa_ipalm}
# The rule an algorithm name keeps: a name in RUNNERS (looked up in a tuple, so that an
# unhashable value is refused as a wrong name).
_ALGORITHM = (lambda name: name in tuple(RUNNERS)), f"one of {', '.join(RUNNERS)}"


@dataclass(frozen=True)
class ResidualSummary:
    checkpoints: tuple
    min_sq_residuals: tuple
    rate_constants: tuple  # value * K; roughly flat under a 1/K decay


def residual_diagnostics(trace, base_checkpoint=None):
    """Prefix minima of squared step residuals at K0, 2 K0, 4 K0.

    The reported sequence is nonincreasing by construction; the rate
    constants value * K indicate how the decay compares to 1/K.
    ``base_checkpoint`` is K0, a positive integer; it defaults to a quarter
    of the trace.
    """
    if not trace:
        raise ValueError("trace must be nonempty")
    _require("base_checkpoint", base_checkpoint, _or_null(_RULES["positive_int"]))
    res2 = np.array([r.residual**2 for r in trace], dtype=float)
    prefix_min = np.minimum.accumulate(res2)
    n = len(trace)
    k0 = base_checkpoint if base_checkpoint is not None else max(1, n // 4)
    cps = tuple(min(c, n) for c in (k0, 2 * k0, 4 * k0))
    vals = tuple(float(prefix_min[c - 1]) for c in cps)
    rates = tuple(v * c for v, c in zip(vals, cps))
    return ResidualSummary(cps, vals, rates)


# Power-iteration steps, finite-difference step and start seed of
# estimate_lipschitz_bounds.
_LIPSCHITZ_ITERS = 20
_LIPSCHITZ_STEP = 1e-5
_LIPSCHITZ_SEED = 0


def estimate_lipschitz_bounds(problem, theta0, safety=2.0):
    """Estimate block curvature bounds (lbar1, lbar2) at the initial point.

    Power iteration on Hessian-vector products approximated by central finite
    differences of the gradient, restricted to each block, then multiplied by
    a safety factor.  A cheap stand-in for user-supplied bounds.
    """
    flat0 = problem.index_map.flat(theta0)
    im = problem.index_map
    rng = np.random.default_rng(_LIPSCHITZ_SEED)

    def block_bound(sl, mu_alpha):
        blocks = {"mu_alpha": mu_alpha, "beta": not mu_alpha}  # the one block read
        v = np.zeros(problem.dim)
        v[sl] = rng.standard_normal(flat0[sl].size)
        v[sl] /= np.linalg.norm(v[sl])
        lam = 0.0
        for _ in range(_LIPSCHITZ_ITERS):
            gp = problem.grad_flat(flat0 + _LIPSCHITZ_STEP * v, **blocks)
            gm = problem.grad_flat(flat0 - _LIPSCHITZ_STEP * v, **blocks)
            hv = (gp - gm) / (2.0 * _LIPSCHITZ_STEP)
            lam_new = float(np.linalg.norm(hv[sl]))
            if lam_new == 0.0:
                break
            v = np.zeros(problem.dim)
            v[sl] = hv[sl] / lam_new
            if abs(lam_new - lam) <= 1e-8 * max(1.0, lam_new):
                lam = lam_new
                break
            lam = lam_new
        return safety * max(lam, 1e-12)

    return block_bound(im.mu_alpha_slice, True), block_bound(im.beta_slice, False)
