import numpy as np
import pytest
from scipy.integrate import quad

from common import exp_spec, params, pwl_spec, wide_domain
from hawkes_mle import (
    BoxDomain,
    DomainError,
    Exponential,
    FlatIndexMap,
    NonStationaryError,
    ParamVector,
    PowerLawCutoff,
    branching_matrix,
    project_onto_box,
    spectral_radius,
    stationary_mean_intensity,
)

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
