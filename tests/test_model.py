import numpy as np
import pytest
from scipy.integrate import quad

from common import events, exp_spec, params, problem, pwl_spec, wide_domain
from hawkes_mle import (
    BoxDomain,
    DomainError,
    Exponential,
    FlatIndexMap,
    HyperParams,
    ModelSpec,
    NonStationaryError,
    ParamVector,
    PowerLawCutoff,
    branching_matrix,
    grad_log_likelihood,
    grad_regularized,
    intensity_at,
    log_likelihood,
    project_onto_box,
    regularized_objective,
    run_palm,
    spectral_radius,
    stationary_mean_intensity,
)
from hawkes_mle import experiments
from hawkes_mle.model import _decay_mass_drate, _drate_series

EXP = Exponential()
PWL = PowerLawCutoff(c=0.05)


class TestKernelValue:
    def test_exponential_at_zero(self):
        assert EXP.value(0.0, 0.5) == 1.0

    def test_exponential_scalar(self):
        assert EXP.value(2.0, 0.5) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_powerlaw_at_zero(self):
        assert PWL.value(0.0, 1.5) == pytest.approx(0.05**-1.5, rel=1e-12)
        assert PWL.value(0.0, 1.5) == pytest.approx(89.4427191, rel=1e-6)

    def test_nonincreasing_in_t(self):
        t = np.linspace(0.0, 20.0, 200)
        for fam, beta in ((EXP, 0.7), (PWL, 1.4)):
            v = fam.value(t, beta)
            assert np.all(np.diff(v) <= 0)
            assert np.all(v >= 0)

    def test_inadmissible_beta(self):
        with pytest.raises(DomainError):
            EXP.validate_beta(0.0)
        with pytest.raises(DomainError):
            PWL.validate_beta(1.0)

    def test_bad_cutoff(self):
        with pytest.raises(DomainError):
            PowerLawCutoff(c=0.0)

    @pytest.mark.parametrize("c", [-1.0, float("nan"), float("inf"), True, "0.05"])
    def test_cutoff_keeps_the_config_rule(self, c):
        """The cutoff is a finite number > 0, refused in the config reader's words."""
        with pytest.raises(DomainError, match=f"c: expected a finite number > 0, got {c!r}"):
            PowerLawCutoff(c=c)


class TestKernelAntiderivative:
    def test_empty_integral(self):
        for beta in (0.1, 1.0, 3.0):
            assert EXP.antiderivative(0.0, beta) == 0.0

    def test_exponential_limit(self):
        assert EXP.antiderivative(np.inf, 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_powerlaw_limit(self):
        expect = 0.05**-0.5 / 0.5
        assert PWL.antiderivative(np.inf, 1.5) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(8.94427191, rel=1e-8)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for fam, beta_lo, beta_hi in ((EXP, 0.2, 4.0), (PWL, 1.1, 4.0)):
            for _ in range(20):
                u = rng.uniform(0.05, 30.0)
                beta = rng.uniform(beta_lo, beta_hi)
                val, err = quad(lambda t: fam.value(t, beta), 0.0, u, limit=200)
                got = fam.antiderivative(u, beta)
                assert got == pytest.approx(val, rel=1e-8)


class TestKernelBetaDerivatives:
    def test_exponential_dphi_at_zero(self):
        assert EXP.dbeta(0.0, 0.7) == 0.0

    def test_exponential_dPhi_example(self):
        expect = (np.exp(-1.0) * 2.0 - 1.0) / 0.25
        got = EXP.antideriv_dbeta(2.0, 0.5)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(-1.05696, abs=1e-5)

    def test_powerlaw_dphi_zero_log(self):
        # ln(t + c) = 0 at t + c = 1
        assert PWL.dbeta(0.95, 1.5) == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for fam, beta_lo, beta_hi in ((EXP, 0.2, 4.0), (PWL, 1.1, 4.0)):
            for _ in range(20):
                t = rng.uniform(0.0, 20.0)
                beta = rng.uniform(beta_lo, beta_hi)
                fd_phi = (fam.value(t, beta + h) - fam.value(t, beta - h)) / (2 * h)
                fd_Phi = (
                    fam.antiderivative(t + 0.1, beta + h)
                    - fam.antiderivative(t + 0.1, beta - h)
                ) / (2 * h)
                got_phi = fam.dbeta(t, beta)
                got_Phi = fam.antideriv_dbeta(t + 0.1, beta)
                assert got_phi == pytest.approx(fd_phi, rel=1e-5, abs=1e-9)
                assert got_Phi == pytest.approx(fd_Phi, rel=1e-5, abs=1e-9)

    def test_exponential_dPhi_small_argument_precision(self):
        # The naive formula cancels when beta*u is tiny; the series branch
        # must agree with a 50-digit reference.
        import mpmath as mp

        mp.mp.dps = 50
        for beta in (1e-3, 5e-3, 0.05, 0.5):
            for u in (1e-4, 1e-2, 0.5, 2.0):
                got = float(EXP.antideriv_dbeta(u, beta))
                b, uu = mp.mpf(beta), mp.mpf(u)
                ref = float((mp.e ** (-b * uu) * (1 + b * uu) - 1) / b**2)
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-30)

    def test_powerlaw_Phi_and_dPhi_precision(self):
        """Phi and dPhi/dbeta of the power law against 50-digit references,
        from beta = 1.001 (where the quotient forms start to cancel) to 10,
        to 1e-9 relative, and with Phi^-1 at beta = 1 + 1e-5 to 1 + 1e-9, to 1e-11."""
        import mpmath as mp

        fam = PowerLawCutoff(0.05)
        with mp.workdps(50):
            c = mp.mpf(fam.c)
            for beta in (1.001, 1.01, 1.2, 1.5, 3.0, 10.0):
                b = mp.mpf(beta)
                for u in (0.01, 0.3, 10.0, 300.0, 1e3, 5e4):
                    head, tail = c ** (1 - b), (mp.mpf(u) + c) ** (1 - b)
                    phi = (head - tail) / (b - 1)
                    dphi = (mp.log(u + c) * tail - mp.log(c) * head - phi) / (b - 1)
                    assert float(fam.antiderivative(u, beta)) == pytest.approx(float(phi), rel=1e-9)
                    assert float(fam.antideriv_dbeta(u, beta)) == pytest.approx(float(dphi), rel=1e-9)
            for beta in (1 + 1e-5, 1 + 1e-7, 1 + 1e-9):
                b = mp.mpf(beta)
                mass = c ** (1 - b) / (b - 1)
                for u in (0.01, 0.3, 10.0, 300.0, 1e3, 5e4):
                    head, tail = c ** (1 - b), (mp.mpf(u) + c) ** (1 - b)
                    phi = (head - tail) / (b - 1)
                    dphi = (mp.log(u + c) * tail - mp.log(c) * head - phi) / (b - 1)
                    assert float(fam.antiderivative(u, beta)) == pytest.approx(float(phi), rel=1e-11)
                    assert float(fam.antideriv_dbeta(u, beta)) == pytest.approx(float(dphi), rel=1e-11)
                    if phi <= 0.9 * mass:  # well inside the range of Phi
                        y = float(phi)
                        assert float(fam.inverse_antiderivative(y, beta)) == pytest.approx(u, rel=1e-11)

    @pytest.mark.parametrize("beta", [1e-3, 0.5, 3.0, -2.0, 1e300])
    def test_exponential_dPhi_bits_match_the_plain_exp(self, beta):
        """Taking e^{-x} as 0 for x >= 708 keeps every bit of the formula with
        the plain exp, for array and scalar u, through the overflows,
        underflows and infinities, and NaN stays NaN.  At x = inf the plain
        form's 0 * inf is taken as its limit, e^{-x} (1 + x) = 0.  Where
        |x| < 0.5 both take the model's series.  A NaN's sign bit is not
        compared: numpy's exp sets it differently in its vector and scalar loops."""

        def plain(u, beta):
            u = np.asarray(u, dtype=float)
            x = beta * u
            head = np.where(x == np.inf, 0.0, np.exp(-x) * (1.0 + x))
            exact = (head - 1.0) / (beta * beta)
            series = u * u * _drate_series(x.ravel()).reshape(x.shape)
            return np.where(np.abs(x) < 0.5, series, exact)

        def assert_same_bits(got, want):
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()

        rng = np.random.default_rng(7)
        # x = beta u at the cut, just below it, where e^{-x} leaves the
        # normal range, at the series branch's edge, and non-finite u.
        special = np.concatenate([
            np.array([708.0, np.nextafter(708.0, 0.0), 745.2, 0.5]) / abs(beta),
            [0.0, np.inf, -np.inf, np.nan, -1.0],
        ])
        u = np.concatenate([
            rng.uniform(0.0, 1000.0, 20_000), np.geomspace(1e-12, 1e300, 20_000), special])
        with np.errstate(all="ignore"):
            assert_same_bits(EXP.antideriv_dbeta(u, beta), plain(u, beta))
            for s in [*u[:-special.size:499], *special]:
                got = EXP.antideriv_dbeta(float(s), beta)
                assert got.shape == ()
                assert_same_bits(got, plain(float(s), beta))


@pytest.mark.parametrize("fam, beta", [
    (EXP, 0.0), (EXP, 1e-9), (EXP, 0.5), (EXP, 3.0),
    (PWL, 1.0), (PWL, 1 + 1e-9), (PWL, 1.5), (PWL, 3.0),
], ids=lambda v: repr(v) if isinstance(v, float) else v.name)
def test_inverse_antiderivative_round_trip(fam, beta):
    """Phi^-1(Phi(u)) = u, at rate 0 (beta = 0, or 1 for the power law) too,
    over the points with Phi(u) <= 0.9 of the kernel's total mass."""
    u = np.geomspace(1e-6, 1e4, 200)
    y = fam.antiderivative(u, beta)
    mass = fam.antiderivative(np.inf, beta)
    keep = y <= 0.9 * mass
    assert keep.sum() > 50
    np.testing.assert_allclose(fam.inverse_antiderivative(y[keep], beta), u[keep], rtol=1e-13)


def test_decay_mass_drate_at_full_precision():
    """(e^{-x} (1 + x) - 1) / rate^2 against 50 digits at 1,000 x, log-spaced from
    1e-4 to 10 and uniform just above 1e-3 (where a 3-term series cut at 1e-3 lost
    6 digits), at positive and negative rates."""
    import mpmath as mp

    rng = np.random.default_rng(0)
    xs = np.concatenate([np.geomspace(1e-4, 10.0, 500), rng.uniform(1e-3, 2e-3, 500)])
    with mp.workdps(50):
        for rate in (0.5, 1.0, 3.0, -0.3):
            u = xs / abs(rate)
            r = mp.mpf(rate)
            want = [float((mp.exp(-r * v) * (1 + r * v) - 1) / r**2) for v in map(mp.mpf, u)]
            np.testing.assert_allclose(_decay_mass_drate(u, rate), want, rtol=1e-14, atol=0)


def _kernel_references(fam, beta, u):
    """50-digit Phi, dPhi/dbeta, value, Phi^-1 (a function of y) and total mass at (beta, u)."""
    import mpmath as mp

    b, u = mp.mpf(beta), mp.mpf(u)
    if fam.name == "exponential":
        return (-mp.expm1(-b * u) / b, (mp.exp(-b * u) * (1 + b * u) - 1) / b**2, mp.exp(-b * u),
                lambda y: -mp.log1p(-b * y) / b, 1 / b)
    c = mp.mpf(fam.c)
    head, tail = c ** (1 - b), (u + c) ** (1 - b)
    phi = (head - tail) / (b - 1)
    dphi = (mp.log(u + c) * tail - mp.log(c) * head - phi) / (b - 1)
    return (phi, dphi, (u + c) ** -b, lambda y: (head - (b - 1) * y) ** (1 / (1 - b)) - c,
            head / (b - 1))


@pytest.mark.parametrize("recipe", sorted(experiments.RECIPES))
def test_kernels_match_mpmath_over_the_recipe_box(recipe):
    """Phi, dPhi/dbeta, the value and Phi^-1 of each recipe's kernel against 50 digits,
    to 1e-14 relative, over its beta box and lags u from 1e-6 to its horizon.  Left out:
    dPhi/dbeta near its zero (the power law's, where it is below 1/20 of log(c) Phi, the
    term it cancels against), the value where rounding its argument (beta u, or u + c) to a
    double alone moves it by over 5e-15, and Phi^-1 above 0.9 of the mass."""
    import mpmath as mp

    inst = experiments.generate_instance(experiments.RECIPES[recipe])
    fam = inst.spec.kernels[0]
    checked = 0
    with mp.workdps(50):
        for beta in np.geomspace(inst.domain.beta_lb[0], inst.domain.beta_ub[0], 7):
            for u in np.geomspace(1e-6, inst.horizon, 40):
                phi, dphi, value, inverse, mass = _kernel_references(fam, beta, u)
                got = {"Phi": (fam.antiderivative(u, beta), phi)}
                if fam.name == "exponential" or abs(dphi) >= abs(mp.log(fam.c) * phi) / 20:
                    got["dPhi/dbeta"] = (fam.antideriv_dbeta(u, beta), dphi)
                lag = beta * u if fam.name == "exponential" else beta * u / (u + fam.c)
                if lag * 2.0**-53 <= 5e-15:
                    got["value"] = (fam.value(u, beta), value)
                y = float(phi)
                if y <= 0.9 * mass:
                    got["Phi^-1"] = (fam.inverse_antiderivative(y, beta), inverse(mp.mpf(y)))
                for name, (have, want) in got.items():
                    err = abs((mp.mpf(float(have)) - want) / want)
                    assert err <= 1e-14, (name, beta, u, float(err))
                    checked += 1
    assert checked > 7 * 40 * 3


class TestFlatIndexMap:
    def test_roundtrip_pack_unpack(self):
        rng = np.random.default_rng(3)
        for K, M in ((1, 1), (3, 2), (5, 1)):
            im = FlatIndexMap(K, M)
            assert im.dim == K + M * K**2 + M
            pv = ParamVector(
                mu=rng.uniform(0.1, 1.0, K),
                alpha=rng.uniform(0.0, 1.0, (M, K, K)),
                beta=rng.uniform(0.5, 3.0, M),
            )
            back = im.unpack(im.pack(pv))
            assert np.array_equal(back.mu, pv.mu)
            assert np.array_equal(back.alpha, pv.alpha)
            assert np.array_equal(back.beta, pv.beta)
            flat = rng.standard_normal(im.dim)
            assert np.array_equal(im.pack(im.unpack(flat)), flat)

    def test_mu_alpha_block_contiguous(self):
        im = FlatIndexMap(2, 2)
        assert im.mu_alpha_slice == slice(0, 2 + 2 * 4)
        assert im.beta_slice == slice(10, 12)


@pytest.mark.parametrize("build, message", [
    (lambda: ModelSpec(K=0, M=1, kernels=[]), "K: expected a positive integer"),
    (lambda: ModelSpec(K=1, M=0, kernels=[]), "M: expected a positive integer"),
    (lambda: ModelSpec(K=2.5, M=1, kernels=[Exponential()]), "K: expected a positive integer"),
    (lambda: ModelSpec(K=True, M=1, kernels=[Exponential()]), "K: expected a positive integer"),
    (lambda: ModelSpec(K=1, M=1.0, kernels=[Exponential()]), "M: expected a positive integer"),
    (lambda: FlatIndexMap(2, 1).unpack(np.zeros(6)), r"expected flat vector of dim 7, got \(6,\)"),
    (lambda: ParamVector([0.1, 0.2], np.zeros((1, 2, 3)), [1.0]),
     r"alpha shape \(1, 2, 3\) inconsistent with K=2, M=1"),
    (lambda: params([0.1, 0.2], np.zeros((2, 2)), 1.0).validate(exp_spec(K=3)),
     "shapes for K=2, M=1 do not match the model spec"),
    (lambda: params([0.1, 0.2], np.zeros((2, 2)), 1.0).validate(exp_spec(K=2, M=2)),
     "shapes for K=2, M=1 do not match the model spec"),
], ids=["K=0", "M=0", "K=2.5", "K=True", "M=1.0", "unpack-length", "alpha-shape", "validate-K",
        "validate-M"])
def test_shape_checks_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def k2_problem(spec=None, domain=None):
    """A K=2 problem, M=1 unless ``spec`` says otherwise: P = 7, reg_c = 1."""
    spec = spec or exp_spec(K=2)
    ev = events([0.5, 1.0, 2.5], [0, 1, 0], horizon=3.0)
    return problem(spec, ev, reg_c=1.0, domain=domain or wide_domain(spec))


P = FlatIndexMap(2, 1).dim
K3 = params([0.5] * 3, np.full((3, 3), 0.1), 1.0)
M2 = params([0.5, 0.5], np.full((2, 2, 2), 0.1), [1.0, 2.0])
FLAT_CALLS = {name: lambda flat, name=name: getattr(k2_problem(), name)(flat)
              for name in ("objective_flat", "grad_flat", "objective_and_grad_flat")}
PARAM_CALLS = {
    "log_likelihood": lambda pv: log_likelihood(k2_problem(), pv),
    "regularized_objective": lambda pv: regularized_objective(k2_problem(), pv),
    "grad_log_likelihood": lambda pv: grad_log_likelihood(k2_problem(), pv),
    "grad_regularized": lambda pv: grad_regularized(k2_problem(), pv),
    "intensity_at": lambda pv: intensity_at(k2_problem(), pv, 1.0, 0),
}
WRONG_FLATS = {"P-1": (np.zeros(P - 1), r"\(6,\)"), "P+2": (np.zeros(P + 2), r"\(9,\)"),
               "1xP": (np.zeros((1, P)), r"\(1, 7\)")}
ENTRY_POINT_CASES = [
    *[pytest.param(lambda call=call, x=x: call(x), f"expected flat vector of dim 7, got {got}$",
                   id=f"{name}-{length}")
      for name, call in FLAT_CALLS.items() for length, (x, got) in WRONG_FLATS.items()],
    *[pytest.param(lambda call=call, pv=pv: call(pv), f"shapes for {kind} do not match the model "
                   "spec", id=f"{name}-{tag}")
      for name, call in PARAM_CALLS.items()
      for pv, tag, kind in ((K3, "K=3", "K=3, M=1"), (M2, "M=2", "K=2, M=2"))],
    pytest.param(lambda: k2_problem(domain=wide_domain(exp_spec(K=3))),
                 "shapes for K=3, M=1 do not match the model spec", id="problem-box-K=3"),
    pytest.param(lambda: k2_problem(spec=exp_spec(K=2, M=2), domain=wide_domain(exp_spec(K=2))),
                 "shapes for K=2, M=1 do not match the model spec", id="problem-box-M=1"),
    pytest.param(lambda: wide_domain(exp_spec(K=2)).contains(np.zeros(P - 1)),
                 r"expected flat vector of dim 7, got \(6,\)", id="contains-short"),
    pytest.param(lambda: run_palm(k2_problem(), HyperParams(lbar1=10.0, lbar2=10.0), K3),
                 "shapes for K=3, M=1 do not match the model spec", id="run_palm-K=3"),
]


@pytest.mark.parametrize("call, message", ENTRY_POINT_CASES)
def test_entry_points_refuse_a_wrong_theta_shape(call, message):
    """Every entry point that takes a theta or a box refuses a wrong shape with one of
    ``FlatIndexMap``'s two messages, before any numpy error can surface."""
    with pytest.raises(ValueError, match=message):
        call()


PAST_DOUBLE = 10**400


@pytest.mark.parametrize("call, name", [
    (lambda: ParamVector([PAST_DOUBLE], [[[0.0]]], [1.0]), "mu"),
    (lambda: BoxDomain([0.1], [PAST_DOUBLE], [[[0.0]]], [[[1.0]]], [0.5], [2.0]), "mu_ub"),
    (lambda: k2_problem().objective_flat(np.full(P, PAST_DOUBLE, dtype=object)), "theta"),
], ids=["ParamVector", "BoxDomain", "objective_flat"])
def test_integer_past_the_double_range_in_an_array_names_its_field(call, name):
    with pytest.raises(ValueError, match=f"^{name}: expected finite numbers, got an integer "
                       "past the double range$"):
        call()


class TestBranchingMatrix:
    def test_exponential_scalar(self):
        spec = exp_spec()
        G = branching_matrix(spec, params(1.0, 0.5, 0.5))
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_alpha(self):
        spec = exp_spec(K=3)
        G = branching_matrix(spec, params([1, 1, 1], np.zeros((1, 3, 3)), 1.0))
        assert np.all(G == 0)

    def test_powerlaw_scalar(self):
        spec = pwl_spec()
        G = branching_matrix(spec, params(1.0, 0.1, 1.5))
        assert G[0, 0] == pytest.approx(0.1 * 0.05**-0.5 / 0.5, rel=1e-12)
        assert G[0, 0] == pytest.approx(0.894427, abs=1e-6)

    def test_nonnegative_and_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        spec = exp_spec(K=3, M=2)
        a = rng.uniform(0.0, 0.2, (2, 3, 3))
        base = params([0.1] * 3, a, [1.0, 2.0])
        G0 = branching_matrix(spec, base)
        assert np.all(G0 >= 0)
        bumped = base.copy()
        bumped.alpha[1, 2, 0] += 0.05
        G1 = branching_matrix(spec, bumped)
        assert np.all(G1 >= G0)
        assert G1[2, 0] > G0[2, 0]

    @pytest.mark.parametrize("fam, beta", [(EXP, 1e-310), (PWL, 300.0)], ids=["exp", "pwl"])
    def test_infinite_mass(self, fam, beta):
        """A mass that overflows is inf, and a zero weight of it adds 0, not NaN."""
        spec = exp_spec(K=2) if fam is EXP else pwl_spec(K=2)
        assert fam.total_mass(beta) == np.inf
        G = branching_matrix(spec, params([1.0, 1.0], [[[0.1, 0.0], [0.0, 0.0]]], beta))
        assert G.tolist() == [[np.inf, 0.0], [0.0, 0.0]]
        assert spectral_radius(G) == np.inf

    def test_nonintegrable_powerlaw(self):
        spec = pwl_spec()
        with pytest.raises(DomainError):
            branching_matrix(spec, params(1.0, 0.1, 0.9))


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, 0.3])) == pytest.approx(0.5, abs=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_symmetric_2x2(self):
        G = np.array([[0.4, 0.2], [0.2, 0.4]])
        assert spectral_radius(G) == pytest.approx(0.6, abs=1e-9)

    def test_periodic_matrix(self):
        G = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(G) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a", [0.9999, 0.5])
    def test_defective_matrix(self, a):
        # One Jordan block: power iteration creeps towards a from above.
        G = np.array([[a, 1.0], [0.0, a]])
        assert spectral_radius(G) == pytest.approx(a, rel=1e-12)

    def test_matches_eig_on_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            G = rng.uniform(0.0, 1.0, (5, 5))
            expect = np.max(np.abs(np.linalg.eigvals(G)))
            assert spectral_radius(G) == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("G, message", [
        (np.ones((2, 3)), "square"),
        (np.ones(3), "square"),
        (np.array([[0.5, -0.1], [0.0, 0.5]]), "nonnegative"),
    ], ids=["2x3", "1-d", "negative"])
    def test_rejected(self, G, message):
        with pytest.raises(ValueError, match=message):
            spectral_radius(G)

    @pytest.mark.parametrize("G", [[[np.inf]], [[0.0, np.inf], [0.0, 0.5]]])
    def test_infinite_entry_has_radius_inf(self, G):
        assert spectral_radius(np.array(G)) == np.inf

    def test_empty_matrix_has_radius_zero(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0


class TestStationaryMean:
    def test_scalar(self):
        spec = exp_spec()
        lam = stationary_mean_intensity(spec, params(1.0, 0.5, 1.0))  # G = 0.5
        assert lam[0] == pytest.approx(2.0, rel=1e-12)

    def test_poisson_case(self):
        spec = exp_spec(K=2)
        mu = np.array([0.3, 0.7])
        lam = stationary_mean_intensity(spec, params(mu, np.zeros((1, 2, 2)), 1.0))
        assert np.allclose(lam, mu)

    def test_k2_example(self):
        # G = [[0.3, 0.1], [0.0, 0.5]] via alpha = G with unit-mass kernel
        spec = exp_spec(K=2)
        alpha = np.array([[[0.3, 0.1], [0.0, 0.5]]])
        lam = stationary_mean_intensity(spec, params([0.1, 0.2], alpha, 1.0))
        assert np.allclose(lam, [0.2, 0.4], atol=1e-12)

    def test_defective_branching_matrix_is_stationary(self):
        spec = exp_spec(K=2)
        G = np.array([[0.9999, 1.0], [0.0, 0.9999]])
        lam = stationary_mean_intensity(spec, params([0.1, 0.2], G, 1.0))
        assert np.allclose((np.eye(2) - G) @ lam, [0.1, 0.2], rtol=1e-9)

    def test_nonstationary_raises(self):
        spec = exp_spec()
        with pytest.raises(NonStationaryError) as exc:
            stationary_mean_intensity(spec, params(1.0, 1.5, 1.0))
        assert exc.value.radius == pytest.approx(1.5, abs=1e-8)


class TestBoxDomain:
    def setup_method(self):
        self.spec = exp_spec(K=2)
        self.domain = wide_domain(self.spec)
        self.rng = np.random.default_rng(13)

    def test_interior_unchanged(self):
        x = np.full(self.spec.index_map.dim, 0.5)
        assert np.array_equal(project_onto_box(self.domain, x), x)

    def test_clamps_low_and_high(self):
        im = self.spec.index_map
        lo = np.full(im.dim, -5.0)
        hi = np.full(im.dim, 1e6)
        assert np.array_equal(project_onto_box(self.domain, lo), self.domain.lb_flat())
        assert np.array_equal(project_onto_box(self.domain, hi), self.domain.ub_flat())

    def test_idempotent_and_nonexpansive(self):
        dim = self.spec.index_map.dim
        for _ in range(50):
            x = self.rng.normal(scale=50.0, size=dim)
            y = self.rng.normal(scale=50.0, size=dim)
            px, py = project_onto_box(self.domain, x), project_onto_box(self.domain, y)
            assert np.array_equal(project_onto_box(self.domain, px), px)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-15
            assert self.domain.contains(px)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_onto_box(self.domain, np.zeros(3))

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            BoxDomain(
                mu_lb=np.array([0.0]),  # must be strictly positive
                mu_ub=np.array([1.0]),
                alpha_lb=np.zeros((1, 1, 1)),
                alpha_ub=np.ones((1, 1, 1)),
                beta_lb=np.array([0.1]),
                beta_ub=np.array([1.0]),
            )
        with pytest.raises(DomainError):
            BoxDomain(
                mu_lb=np.array([2.0]),
                mu_ub=np.array([1.0]),  # lb > ub
                alpha_lb=np.zeros((1, 1, 1)),
                alpha_ub=np.ones((1, 1, 1)),
                beta_lb=np.array([0.1]),
                beta_ub=np.array([1.0]),
            )

    @pytest.mark.parametrize(
        "name", ["mu_lb", "mu_ub", "alpha_lb", "alpha_ub", "beta_lb", "beta_ub"]
    )
    def test_nan_bound_rejected_by_name(self, name):
        bounds = {f: getattr(self.domain, f).copy() for f in self.domain.__dataclass_fields__}
        bounds[name].flat[-1] = np.nan
        with pytest.raises(DomainError, match=f"{name} must not contain NaN"):
            BoxDomain(**bounds)

    @pytest.mark.parametrize("name, value", [
        ("mu_lb", 0.1), ("mu_lb", None), ("mu_ub", [1.0, 2.0]), ("beta_ub", 1.0),
        ("alpha_ub", np.ones((1, 2, 2))), ("alpha_lb", np.zeros((1, 1))),
    ])
    def test_bound_shapes_must_agree(self, name, value):
        bounds = dict(mu_lb=[0.1], mu_ub=[1.0], alpha_lb=np.zeros((1, 1, 1)),
                      alpha_ub=np.ones((1, 1, 1)), beta_lb=[0.1], beta_ub=[1.0])
        with pytest.raises(ValueError, match="shape|1-d"):
            BoxDomain(**{**bounds, name: value})

    def test_powerlaw_beta_lower_bound(self):
        spec = pwl_spec()
        dom = wide_domain(spec)
        dom.beta_lb[0] = 0.5
        with pytest.raises(DomainError):
            dom.validate_kernels(spec)
