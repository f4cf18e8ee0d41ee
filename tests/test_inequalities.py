import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from degeig.assembly import energy_inner, hardy_inner
from degeig.inequalities import (
    CknParams,
    check_ckn_radial,
    check_hardy,
    check_sobolev,
    ckn_sides_radial,
    critical_exponent,
    dilation_quotient_spread,
    hardy_constant,
    hardy_near_optimizer,
    hardy_quotient_radial,
    poly_bump,
    smooth_bump,
    sobolev_quotient_discrete,
    sobolev_quotient_radial,
)


def ckn_quotient_radial(params, profile):
    """General interpolation-inequality quotient for admissible (N, p, a, b)."""
    left, right = ckn_sides_radial(params, profile)
    return left / right


class TestConstants:
    def test_critical_exponent_values(self):
        assert critical_exponent(3, 1.0) == 3.0
        assert critical_exponent(3, 0.0) == 6.0  # classical Sobolev exponent
        assert_allclose(critical_exponent(4, 0.5), 3.2, rtol=1e-15)

    def test_hardy_constant_values(self):
        assert hardy_constant(3, 1.0) == 1.0
        assert hardy_constant(4, 0.0) == 1.0
        assert_allclose(hardy_constant(5, 0.5), (2.0 / 3.5) ** 2, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_exponent(2, 1.0)
        with pytest.raises(ValueError):
            hardy_constant(3, 2.0)


class TestCknParams:
    def test_derived_exponent(self):
        assert CknParams(3, 2.0, -0.5, 0.5).q == 2.0  # Hardy point for alpha = 1
        assert CknParams(3, 2.0, -0.5, 0.0).q == 3.0  # Sobolev point for alpha = 1
        with pytest.raises(AttributeError):  # q is derived, never set
            CknParams(3, 2.0, -0.5, 0.5).q = 2.1

    def test_named_constraints(self):
        with pytest.raises(ValueError, match=r"p in \(1, N\)"):
            CknParams(3, 3.5, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"a < \(N - p\)/p"):
            CknParams(3, 2.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="a <= b <= a"):
            CknParams(3, 2.0, -0.5, 1.0)


class TestContinuumQuotients:
    def test_near_optimizer_against_closed_form(self):
        # on (0, 1] both integrals are exact: kernel side 1/(2 eps),
        # energy side (beta - eps)^2 / (2 eps); the cutoff piece is smooth
        N, alpha = 3, 1.0
        beta = 0.5 * (N - 2 + alpha)
        for eps in (0.4, 0.1):
            prof = hardy_near_optimizer(N, alpha, eps)
            kernel_tail = quad(
                lambda r: prof.value(np.array([r]))[0] ** 2 * r ** (N - 3 + alpha),
                1.0, 2.0, epsrel=1e-12,
            )[0]
            energy_tail = quad(
                lambda r: prof.deriv(np.array([r]))[0] ** 2 * r ** (N - 1 + alpha),
                1.0, 2.0, epsrel=1e-12,
            )[0]
            expected = (0.5 / eps + kernel_tail) / ((beta - eps) ** 2 / (2 * eps) + energy_tail)
            assert_allclose(hardy_quotient_radial(prof, N, alpha), expected, rtol=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_near_optimizer_monotone_below_constant(self, alpha):
        const = hardy_constant(3, alpha)
        qs = [
            hardy_quotient_radial(hardy_near_optimizer(3, alpha, eps), 3, alpha)
            for eps in (0.4, 0.2, 0.1, 0.05, 0.02)
        ]
        assert np.all(np.diff(qs) > 0.0)
        assert qs[-1] < const
        assert qs[-1] > 0.7 * const  # approaching the constant

    def test_smooth_profiles_below_constant(self):
        for prof in (smooth_bump(1.0), poly_bump(2.0)):
            q = hardy_quotient_radial(prof, 3, 0.5)
            assert 0.0 < q < hardy_constant(3, 0.5)


class TestCknReductions:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_hardy_point_reproduces_hardy_quotient(self, alpha):
        params = CknParams(3, 2.0, -alpha / 2.0, (2.0 - alpha) / 2.0)
        for prof in (smooth_bump(1.0), poly_bump(1.5)):
            q_general = ckn_quotient_radial(params, prof)
            q_hardy = hardy_quotient_radial(prof, 3, alpha)
            assert abs(q_general - q_hardy) <= 1e-8 * q_hardy

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_sobolev_point_reproduces_sobolev_quotient(self, alpha):
        params = CknParams(3, 2.0, -alpha / 2.0, 0.0)
        for prof in (smooth_bump(1.0), poly_bump(1.5)):
            q_general = ckn_quotient_radial(params, prof)
            q_sob = sobolev_quotient_radial(prof, 3, alpha)
            assert abs(q_general - q_sob) <= 1e-8 * q_sob

    def test_classical_points(self):
        # a = b = 0: classical Sobolev, q = 2N/(N-2) = 6
        params = CknParams(3, 2.0, 0.0, 0.0)
        assert_allclose(params.q, 6.0, rtol=1e-15)
        q = ckn_quotient_radial(params, smooth_bump(1.0))
        assert np.isfinite(q) and q > 0.0
        # a = 0, b = 1: classical Hardy, q = 2
        params = CknParams(3, 2.0, 0.0, 1.0)
        assert_allclose(params.q, 2.0, rtol=1e-15)
        rep = check_ckn_radial(params, smooth_bump(1.0))
        assert rep["entries"][0]["verdict"] == "pass"
        assert rep["reference_constant"] == hardy_constant(3, 0.0)

    def test_report_verdicts(self):
        params = CknParams(3, 2.0, -0.5, 0.5)
        rep = check_ckn_radial(params, smooth_bump(1.0))
        assert rep["entries"][0]["verdict"] == "pass"
        assert any("hardy reduction" in n for n in rep["notes"])


class TestDiscreteChecks:
    def test_hardy_pass_random_vectors(self, gaussian_pair_512, rng):
        pair = gaussian_pair_512
        for _ in range(20):
            u = rng.standard_normal(pair.order)
            rep = check_hardy(pair, u)
            assert rep["entries"][0]["verdict"] == "pass"
            assert rep["passed"]

    def test_zero_vector_undefined(self, gaussian_pair_512):
        # a zero right side: no quotient, no margin, and the record does not pass
        for check in (check_hardy, check_sobolev):
            rep = check(gaussian_pair_512, np.zeros(gaussian_pair_512.order))
            entry = rep["entries"][0]
            assert entry["verdict"] == "undefined quotient"
            assert entry["right"] == 0.0
            assert entry["quotient"] is None and entry["margin"] is None
            assert rep["min_quotient"] is None and not rep["passed"]

    def test_near_optimizer_family_discrete(self, gaussian_pair_512):
        # interpolants of the capped power family push the ratio toward 1
        pair = gaussian_pair_512
        const = hardy_constant(pair.N, pair.alpha)
        ratios = []
        for eps in (0.4, 0.2, 0.1):
            u = hardy_near_optimizer(pair.N, pair.alpha, eps).value(pair.dof_positions)
            ratios.append(hardy_inner(pair, u) / (const * energy_inner(pair, u)))
        assert np.all(np.diff(ratios) > 0.0)
        assert ratios[-1] <= 1.0 + 1e-3

    def test_sobolev_scale_invariance_and_positivity(self, gaussian_pair_512, rng):
        pair = gaussian_pair_512
        u = rng.standard_normal(pair.order)
        q0 = sobolev_quotient_discrete(pair, u)
        assert q0 > 0.0
        for c in (1e-4, 3.0, -17.0):
            q = sobolev_quotient_discrete(pair, c * u)
            assert abs(q - q0) <= 1e-12 * q0

    def test_dilation_spread_on_fine_mesh(self, gaussian_pair_512):
        res = dilation_quotient_spread(gaussian_pair_512, smooth_bump(1.5))
        assert res["spread"] <= 2e-2
        assert set(res["quotients"]) == {0.5, 1.0, 2.0}

    def test_dilation_support_guard(self, gaussian_pair_512):
        with pytest.raises(ValueError):
            dilation_quotient_spread(gaussian_pair_512, smooth_bump(4.0))
