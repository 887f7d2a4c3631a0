"""Parameter and kernel model for multivariate Hawkes processes.

A K-type process is parameterized by theta = (mu, alpha, beta):

* ``mu``    -- length-K baseline rates (events per unit time), all positive;
* ``alpha`` -- M x K x K nonnegative excitation weights, ``alpha[m, i, j]``
  scaling how much a type-j event raises the type-i intensity through base
  kernel m;
* ``beta``  -- length-M kernel shape parameters (one scalar per base kernel).

The triggering function is ``g_ij(t) = sum_m alpha[m, i, j] * phi_m(t; beta_m)``
with ``phi_m`` drawn from the shipped kernel families below.  The feasible set
is a compact box, Cartesian in the (mu, alpha) block and the beta block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "DomainError",
    "NonStationaryError",
    "Exponential",
    "PowerLawCutoff",
    "ModelSpec",
    "ParamVector",
    "BoxDomain",
    "FlatIndexMap",
    "branching_matrix",
    "spectral_radius",
    "stationary_mean_intensity",
    "intensities",
    "project_onto_box",
]


class DomainError(ValueError):
    """Inadmissible parameter for a kernel family or box domain."""


class DataError(ValueError):
    """Malformed data file (event CSV, message CSV, mapping) or event stream: ``EventSequence``
    and ``LikelihoodProblem`` raise it for library callers too, and the command line exits 3."""


def _is_integer(value):
    """An integer, numpy's included; bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value):
    """A finite real number, numpy's included; bool is not one, nor an integer past the
    double range."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer too large to convert to float
        return False


# The rule for each kind of scalar an input takes: (predicate, the phrase a refusal prints).
# The config reader's sections and every library entry point check values through these.
_RULES = {
    "positive_int": ((lambda v: _is_integer(v) and v >= 1), "a positive integer"),
    "nonnegative_int": ((lambda v: _is_integer(v) and v >= 0), "a non-negative integer"),
    "finite": (_is_finite, "a finite number"),
    "positive": ((lambda v: _is_finite(v) and v > 0), "a finite number > 0"),
    "nonnegative": ((lambda v: _is_finite(v) and v >= 0), "a finite number >= 0"),
    "fraction": ((lambda v: _is_finite(v) and 0 <= v <= 1), "a finite number in [0, 1]"),
    "open_fraction": ((lambda v: _is_finite(v) and 0 < v < 1), "a finite number in (0, 1)"),
    "at_least_one": ((lambda v: _is_finite(v) and v >= 1), "a finite number >= 1"),
    "event_type": ((lambda v: _is_integer(v) and 0 <= v < 2**63), "an integer in [0, 2**63)"),
}


def _floats(name, value):
    """``value`` as a float array; an integer past the double range, which ``_RULES``
    refuses as a scalar, is a ValueError naming ``name`` here too."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{name}: expected finite numbers, got an integer past the double "
                         "range") from None


def _or_null(rule):
    """``rule``, or null."""
    return (lambda v: v is None or rule[0](v)), f"{rule[1]} or null"


def _distinct_list(rule):
    """A non-empty list or tuple of distinct values, each keeping ``rule`` (checked first)."""
    return ((lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(rule[0], v))
             and len(set(v)) == len(v)), f"a non-empty list of distinct values, each {rule[1]}")


def _require(name, value, rule, error=ValueError):
    """``value`` if ``rule``, a (predicate, phrase) pair, holds for it; else ``error``
    worded as the config reader words it: "<name>: expected <phrase>, got <value>"."""
    ok, phrase = rule
    if not ok(value):
        raise error(f"{name}: expected {phrase}, got {value!r}")
    return value


class NonStationaryError(DomainError):
    """Branching matrix has spectral radius >= 1."""

    def __init__(self, radius):
        self.radius = float(radius)
        super().__init__(
            f"non-stationary parameters: spectral radius {self.radius:.6g} >= 1"
        )


def _decay_mass(u, rate):
    """int_0^u exp(-rate t) dt = (1 - exp(-rate u)) / rate, by expm1; u at rate 0."""
    if rate == 0.0:
        return u * np.ones_like(np.asarray(u, dtype=float))
    return np.expm1(-rate * u) / -rate


# Taylor coefficients of (e^{-x} (1 + x) - 1) / x^2 = sum_k (-1)^(k+1) (k+1) x^k / (k+2)!
# for k < 16: for |x| < 0.5 the first term left out is about 1e-19 of the sum.
_DRATE_SERIES = np.array([(-1) ** (k + 1) * (k + 1) / math.factorial(k + 2) for k in range(16)])


def _drate_series(x):
    """(e^{-x} (1 + x) - 1) / x^2 for a 1-d ``x`` with |x| < 0.5, in a fixed number of array
    calls: row k of ``terms`` is x^k (rows k..2k-1 are x^k times rows 0..k-1), scaled by its
    coefficient, and the rows are summed smallest first.  Elementwise calls only, so the
    bits for one x do not depend on the others (a BLAS product's would)."""
    terms = np.empty((_DRATE_SERIES.size, x.size))
    terms[0], terms[1] = 1.0, x
    for k in (2, 4, 8):
        np.multiply(terms[:k], terms[k - 1] * x, out=terms[k:2 * k])
    terms *= _DRATE_SERIES[:, None]
    return terms[::-1].sum(axis=0)


def _decay_mass_drate(u, rate):
    """d/drate of ``_decay_mass``, (e^{-x} (1 + x) - 1) / rate^2 at x = rate u, by its
    Taylor series where |x| < 0.5 (the closed form cancels there, by up to 1/x^2 ulps);
    -u^2/2 at rate 0.  Where x >= 708, e^{-x} (1 + x) < 1e-300 vanishes against the 1,
    so e^{-x} is set to 0 and 1 + x capped at 709: the same bits, without numpy's slow
    path, and 0 rather than 0 * inf = NaN at x = inf."""
    u = np.asarray(u, dtype=float)
    if rate == 0.0:
        return -0.5 * u * u
    x = rate * u
    decay = np.exp(-x, out=np.zeros_like(x), where=x < 708.0)
    out = np.asarray((decay * (1.0 + np.minimum(x, 708.0)) - 1.0) / (rate * rate))
    small = np.abs(x) < 0.5
    if small.any():
        near = u[small]
        out[small] = near * near * _drate_series(x[small])
    return out


def _decay_mass_inverse(y, rate):
    """u with ``_decay_mass(u, rate)`` = y, for y in [0, 1/rate); y at rate 0."""
    if rate == 0.0:
        return y * np.ones_like(np.asarray(y, dtype=float))
    return np.log1p(-rate * y) / -rate


@dataclass(frozen=True)
class Exponential:
    """Exponential decay kernel phi(t; beta) = exp(-beta t), beta > 0."""

    name = "exponential"

    def validate_beta(self, beta):
        if not beta > 0:
            raise DomainError(f"exponential kernel requires beta > 0, got {beta}")

    def value(self, t, beta):
        return np.exp(-beta * t)

    def antiderivative(self, u, beta):
        return _decay_mass(u, beta)

    def dbeta(self, t, beta):
        return -t * np.exp(-beta * t)

    def antideriv_dbeta(self, u, beta):
        return _decay_mass_drate(u, beta)

    def total_mass(self, beta):
        self.validate_beta(beta)
        return 1.0 / beta

    def inverse_antiderivative(self, y, beta):
        return _decay_mass_inverse(y, beta)


@dataclass(frozen=True)
class PowerLawCutoff:
    """Power-law kernel phi(t; beta) = (t + c)^(-beta) with finite cutoff c > 0, 0.05 by default.

    Integrability over [0, inf) requires beta > 1.  In log time s = log1p(u / c),
    with h = c^(1-beta), r = beta - 1 and E the exponential kernel's Phi:
    Phi = h E(s; r), dPhi/dbeta = h (dE/dr - log(c) E), Phi^-1(y) = c expm1(E^-1(y / h; r)).
    So beta = 1 is rate 0, and at beta = 1 + 1e-9 to 1 + 1e-5 the relative errors
    against 50-digit references stay below 4e-15 (u in [1e-8, 1e5] away from
    dPhi/dbeta's zero at u = 1/c - c)."""

    c: float = 0.05
    name = "powerlaw"

    def __post_init__(self):
        _require("c", self.c, _RULES["positive"], DomainError)

    def validate_beta(self, beta):
        if not beta > 1:
            raise DomainError(f"power-law kernel requires beta > 1, got {beta}")

    def _head(self, beta):
        """c^(1-beta), with the bits of float ``**`` but inf where that raises."""
        return np.float64(self.c) ** (1.0 - beta)

    def value(self, t, beta):
        return np.power(t + self.c, -beta)

    def antiderivative(self, u, beta):
        return self._head(beta) * _decay_mass(np.log1p(u / self.c), beta - 1.0)

    def dbeta(self, t, beta):
        return -np.log(t + self.c) * self.value(t, beta)

    def antideriv_dbeta(self, u, beta):
        r, s = beta - 1.0, np.log1p(u / self.c)
        return self._head(beta) * (_decay_mass_drate(s, r) - math.log(self.c) * _decay_mass(s, r))

    def total_mass(self, beta):
        self.validate_beta(beta)
        with np.errstate(over="ignore"):
            return self._head(beta) / (beta - 1.0)

    def inverse_antiderivative(self, y, beta):
        return self.c * np.expm1(_decay_mass_inverse(y / self._head(beta), beta - 1.0))


# The kernel families by name: a config entry's or a recipe's ``family`` names one, and its
# class's own defaults fill the parameters the entry leaves out.
_FAMILIES = {kernel.name: kernel for kernel in (Exponential, PowerLawCutoff)}


@dataclass(frozen=True)
class ModelSpec:
    """Number of event types K, number of base kernels M, and the kernels."""

    K: int
    M: int
    kernels: tuple

    def __post_init__(self):
        _require("K", self.K, _RULES["positive_int"])
        _require("M", self.M, _RULES["positive_int"])
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(self.kernels) != self.M:
            raise ValueError(f"expected {self.M} kernels, got {len(self.kernels)}")

    @property
    def index_map(self):
        return FlatIndexMap(self.K, self.M)


@dataclass(frozen=True)
class FlatIndexMap:
    """Layout of theta as one flat vector: [mu | alpha (m,i,j) C-order | beta].

    The (mu, alpha) block is contiguous because the optimizer updates it
    jointly; beta occupies the trailing M coordinates.
    """

    K: int
    M: int

    @property
    def dim(self):
        return self.K + self.M * self.K**2 + self.M

    @property
    def mu_slice(self):
        return slice(0, self.K)

    @property
    def alpha_slice(self):
        return slice(self.K, self.K + self.M * self.K**2)

    @property
    def beta_slice(self):
        return slice(self.K + self.M * self.K**2, self.dim)

    @property
    def mu_alpha_slice(self):
        return slice(0, self.K + self.M * self.K**2)

    def pack(self, params):
        return np.concatenate(
            [params.mu, params.alpha.reshape(-1), params.beta]
        ).astype(float)

    def flat(self, theta):
        """A ParamVector or an array as this layout's flat float vector; else ValueError."""
        if isinstance(theta, ParamVector):
            return self.pack(self.shaped(theta))
        flat = _floats("theta", theta)
        if flat.shape != (self.dim,):
            raise ValueError(f"expected flat vector of dim {self.dim}, got {flat.shape}")
        return flat

    def shaped(self, value):
        """``value``, a ParamVector or BoxDomain, if its K and M are this layout's."""
        if (value.K, value.M) != (self.K, self.M):
            raise ValueError(f"shapes for K={value.K}, M={value.M} do not match the model spec")
        return value

    def unpack(self, flat):
        flat = self.flat(flat)
        K, M = self.K, self.M
        return ParamVector(
            mu=flat[self.mu_slice].copy(),
            alpha=flat[self.alpha_slice].reshape(M, K, K).copy(),
            beta=flat[self.beta_slice].copy(),
        )


@dataclass
class ParamVector:
    """theta = (mu, alpha, beta); see module docstring for shapes."""

    mu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        for name in ("mu", "alpha", "beta"):
            setattr(self, name, _floats(name, getattr(self, name)))
        if self.mu.ndim != 1 or self.alpha.ndim != 3 or self.beta.ndim != 1:
            raise ValueError("mu must be 1-d, alpha 3-d, beta 1-d")
        K = self.mu.shape[0]
        M = self.beta.shape[0]
        if self.alpha.shape != (M, K, K):
            raise ValueError(
                f"alpha shape {self.alpha.shape} inconsistent with K={K}, M={M}"
            )

    @property
    def K(self):
        return self.mu.shape[0]

    @property
    def M(self):
        return self.beta.shape[0]

    def copy(self):
        return ParamVector(self.mu.copy(), self.alpha.copy(), self.beta.copy())

    def validate(self, spec):
        """Admissibility: finite, positive baselines, nonnegative weights, kernel beta."""
        spec.index_map.shaped(self)
        if not all(np.all(np.isfinite(a)) for a in (self.mu, self.alpha, self.beta)):
            raise DomainError("parameters must be finite")
        if np.any(self.mu <= 0):
            raise DomainError("baseline rates mu must be positive")
        if np.any(self.alpha < 0):
            raise DomainError("excitation weights alpha must be nonnegative")
        for m, kern in enumerate(spec.kernels):
            kern.validate_beta(float(self.beta[m]))


@dataclass
class BoxDomain:
    """Compact box [lb, ub] per coordinate, Cartesian in (mu, alpha) and beta."""

    mu_lb: np.ndarray
    mu_ub: np.ndarray
    alpha_lb: np.ndarray
    alpha_ub: np.ndarray
    beta_lb: np.ndarray
    beta_ub: np.ndarray

    def __post_init__(self):
        names = ("mu_lb", "mu_ub", "alpha_lb", "alpha_ub", "beta_lb", "beta_ub")
        for name in names:
            setattr(self, name, _floats(name, getattr(self, name)))
        if self.mu_lb.ndim != 1 or self.beta_lb.ndim != 1:
            raise ValueError("mu and beta bounds must be 1-d arrays")
        K, M = self.K, self.M
        for name, shape in (("mu_ub", (K,)), ("alpha_lb", (M, K, K)),
                            ("alpha_ub", (M, K, K)), ("beta_ub", (M,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape} for K={K}, M={M}")
        for name in names:  # every comparison below is False for NaN
            if np.isnan(getattr(self, name)).any():
                raise DomainError(f"{name} must not contain NaN")
        if (
            np.any(self.mu_lb > self.mu_ub)
            or np.any(self.alpha_lb > self.alpha_ub)
            or np.any(self.beta_lb > self.beta_ub)
        ):
            raise DomainError("box lower bounds must not exceed upper bounds")
        if np.any(self.mu_lb <= 0):
            raise DomainError("mu lower bounds must be positive")
        if np.any(self.alpha_lb < 0):
            raise DomainError("alpha lower bounds must be nonnegative")

    def validate_kernels(self, spec):
        for m, kern in enumerate(spec.kernels):
            kern.validate_beta(float(self.beta_lb[m]))

    @property
    def K(self):
        return self.mu_lb.shape[0]

    @property
    def M(self):
        return self.beta_lb.shape[0]

    def lb_flat(self):
        return np.concatenate([self.mu_lb, self.alpha_lb.reshape(-1), self.beta_lb])

    def ub_flat(self):
        return np.concatenate([self.mu_ub, self.alpha_ub.reshape(-1), self.beta_ub])

    def contains(self, flat):
        flat = FlatIndexMap(self.K, self.M).flat(flat)
        return bool(
            np.all(flat >= self.lb_flat()) and np.all(flat <= self.ub_flat())
        )


def project_onto_box(domain, flat):
    """Componentwise clamp of theta (a flat vector or a ParamVector) to the box; idempotent."""
    flat = FlatIndexMap(domain.K, domain.M).flat(flat)
    return np.clip(flat, domain.lb_flat(), domain.ub_flat())


def branching_matrix(spec, params):
    """G[i, j] = sum_m alpha[m, i, j] * Phi_m(inf; beta_m), the mean offspring counts."""
    params.validate(spec)
    G = np.zeros((spec.K, spec.K))
    for alpha, kern, beta in zip(params.alpha, spec.kernels, params.beta):
        mass = kern.total_mass(float(beta))
        G += alpha * mass if mass < math.inf else np.where(alpha > 0, math.inf, 0.0)
    return G


def spectral_radius(G):
    """Largest eigenvalue modulus of a nonnegative square matrix; inf if an entry is.

    Taken from all eigenvalues, so it is exact also for periodic matrices
    such as [[0, 1], [1, 0]] and defective ones such as [[a, 1], [0, a]],
    where power iteration converges slowly or not at all.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("G must be square")
    if np.any(G < 0):
        raise ValueError("G must be nonnegative")
    if G.size == 0:
        return 0.0
    if np.isinf(G).any():
        return math.inf
    return float(np.abs(np.linalg.eigvals(G)).max())


def _stationary_branching_matrix(spec, params):
    """G of admissible parameters; NonStationaryError unless its radius is below one."""
    G = branching_matrix(spec, params)
    radius = spectral_radius(G)
    if radius >= 1.0:
        raise NonStationaryError(radius)
    return G


def stationary_mean_intensity(spec, params):
    """Stationary mean rates: solve (I - G) lambda_bar = mu.

    Requires spectral radius of G below one; the solution is then positive.
    """
    G = _stationary_branching_matrix(spec, params)
    lam_bar = np.linalg.solve(np.eye(spec.K) - G, params.mu)
    return lam_bar


def intensities(spec, params, times, types, t):
    """Per-type intensities lam(t) given a history (times, types).

    The excitation sums over s < t, with one kernel evaluation per earlier
    event.  The inputs are not validated; ``likelihood.intensity_at`` checks
    t and the type before calling this.
    """
    lam = params.mu.copy()
    mask = times < t
    if not np.any(mask):
        return lam
    dt = t - times[mask]
    src = types[mask]
    for m, kern in enumerate(spec.kernels):
        phi = kern.value(dt, float(params.beta[m]))
        per_src = np.bincount(src, weights=phi, minlength=spec.K)
        lam += params.alpha[m] @ per_src
    return lam
