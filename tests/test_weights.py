import json
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from degeig.config import weight_from_dict
from degeig.oracle import radial_weight_callable
from degeig.reports import dumps
from degeig.weights import (
    CATALOGUE,
    WEIGHTS,
    WeightDomainError,
    WeightSpec,
    borderline_log,
    borderline_log_radial,
    compact_bump,
    gaussian_bump,
    indicator_ball,
    sign_changing_ring,
    tabulated,
    verify_weight_split,
    weight_split,
    weight_value,
)


class TestBorderlineLog:
    def test_value_at_origin_is_one(self):
        assert borderline_log_radial(0.0, 3, 1.0) == 1.0
        assert borderline_log_radial(0.0, 3, 1.5) == 1.0

    def test_unit_radius_value(self):
        # r^(a-2) * log(2 + r^(2-a))^((a-2)/N) at r = 1, N = 3, a = 1
        expected = np.log(3.0) ** (-1.0 / 3.0)
        got = borderline_log_radial(1.0, 3, 1.0)
        assert_allclose(got, expected, rtol=1e-14)
        assert_allclose(got, 0.9691370, rtol=1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_weighted_tail_decreases(self, alpha):
        # r^(2-alpha) * h(r) = log(2 + r^(2-alpha))^((alpha-2)/N) decays monotonically
        r = np.array([1e2, 1e4, 1e6])
        vals = r ** (2.0 - alpha) * borderline_log_radial(r, 3, alpha)
        assert vals[0] > vals[1] > vals[2] > 0.0


class TestSplits:
    def test_ring_positive_band(self):
        spec = sign_changing_ring(1.0, 2.0, 1.0, -0.5)
        g1, g2, gm = weight_split(spec, 1.5)
        assert (g1, g2, gm) == (0.0, 1.0, 0.0)
        assert weight_value(spec, 1.5) == 1.0

    def test_ring_negative_shell(self):
        spec = sign_changing_ring(1.0, 2.0, 1.0, -0.5)
        g1, g2, gm = weight_split(spec, 2.5)
        assert (g1, g2, gm) == (0.0, 0.0, 0.5)
        assert weight_value(spec, 2.5) == -0.5

    def test_ball_inside(self):
        spec = indicator_ball(1.0)
        g1, g2, gm = weight_split(spec, 0.5)
        assert (g1, g2, gm) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_split_identity_shares_evaluation_path(self, name):
        spec = weight_from_dict({"kind": name}, 3, 1.0)
        r = np.geomspace(1e-6, 50.0, 400)
        g1, g2, gm = weight_split(spec, r)
        assert np.all(g1 >= 0.0) and np.all(g2 >= 0.0) and np.all(gm >= 0.0)
        # identical floating path: value is defined as the combination
        assert np.array_equal(weight_value(spec, r), g1 + g2 - gm)

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_positive_negative_parts_disjoint(self, name):
        spec = weight_from_dict({"kind": name}, 3, 1.0)
        r = np.geomspace(1e-6, 50.0, 400)
        g1, g2, gm = weight_split(spec, r)
        assert np.max((g1 + g2) * gm) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            weight_value(gaussian_bump(), -1.0)


class TestTabulated:
    def test_linear_interpolation_and_split(self):
        spec = tabulated([0.0, 1.0, 2.0], [1.0, -1.0, 0.0])
        assert_allclose(weight_value(spec, 0.5), 0.0, atol=1e-15)
        g1, g2, gm = weight_split(spec, 1.5)
        assert g1 == 0.0 and gm == 0.5
        assert not spec.verified_split

    def test_out_of_range(self):
        spec = tabulated([0.5, 1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(WeightDomainError):
            weight_value(spec, 3.0)


class TestVerifySplit:
    def test_gaussian_passes(self):
        rep = verify_weight_split(gaussian_bump(), 3, 1.0)
        assert rep.overall == "pass"
        assert rep.g1_norm_verdict == "finite"
        assert rep.decay_pass  # decaying part identically zero satisfies everything
        assert rep.positive_part_nonzero

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_borderline_divergent_norm_and_decay_pass(self, alpha):
        rep = verify_weight_split(borderline_log(3, alpha), 3, alpha)
        assert rep.decay_pass
        assert rep.gplus_norm_verdict == "divergent"
        assert rep.g2_norm_verdict == "divergent"
        assert rep.overall == "pass"

    def test_pure_power_fails_at_infinity(self):
        # without the log tempering, r^(2-alpha) * g is identically 1
        alpha = 1.0
        spec = WeightSpec(
            name="pure-power",
            g_decaying=lambda r: np.asarray(r, dtype=float) ** (alpha - 2.0),
        )
        rep = verify_weight_split(spec, 3, alpha)
        assert not rep.infinity.passed
        assert not rep.decay_pass
        assert rep.overall == "fail"

    def test_tabulated_unverifiable(self):
        spec = tabulated(np.linspace(0.0, 5.0, 11), np.ones(11))
        rep = verify_weight_split(spec, 3, 1.0)
        assert rep.overall == "unverified"
        assert rep.g1_norm_verdict == "unverifiable"

    def test_report_serializes(self):
        rep = verify_weight_split(sign_changing_ring(), 3, 1.0)
        d = json.loads(dumps(rep))
        assert d["overall"] == "pass"
        assert len(d["probes"]) == 3


class TestConstructorValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gaussian_bump(amplitude=-1.0)
        with pytest.raises(ValueError):
            sign_changing_ring(inner=2.0, outer=1.0)
        with pytest.raises(ValueError):
            compact_bump(radius=0.0)
        with pytest.raises(ValueError):
            borderline_log(2, 1.0)


class TestScalarEvaluator:
    """A float radius takes weight_split's float branch: the parts get the float
    itself, and their values are the bits of the array evaluation."""

    @pytest.mark.parametrize(
        "name, N, alpha",
        [(name, 3, 1.0) for name in sorted(CATALOGUE)]
        + [("borderline-log", 3, 0.5), ("borderline-log", 3, 1.5), ("borderline-log", 5, 0.7)],
    )
    def test_bitwise_equal_to_weight_value(self, name, N, alpha):
        spec = weight_from_dict({"kind": name}, N, alpha)
        # r = 0, the bump and ball radii and each jump exactly, and the float just below each
        edges = np.array([1.0, *spec.jumps])
        radii = np.concatenate([np.linspace(0.0, 8.0, 10001), np.geomspace(1e-9, 1e3, 10000),
                                [0.0], edges, np.nextafter(edges, 0.0)])
        whole = weight_value(spec, radii)
        got = np.array([weight_value(spec, r) for r in radii.tolist()], dtype=float)
        assert np.array_equal(got.view(np.int64), whole.view(np.int64))
        # what the integrator sees: numpy float64 radii through the oracle adapter
        g = radial_weight_callable(spec)
        through = np.array([g(r) for r in radii[::97]], dtype=float)
        assert np.array_equal(through.view(np.int64), whole[::97].view(np.int64))

    def test_python_and_numpy_floats_take_the_float_branch(self):
        seen = []
        spec = WeightSpec(name="probe", g_integrable=lambda r: seen.append(type(r)) or 1.0)
        assert weight_value(spec, 1.5) == 1.0
        assert radial_weight_callable(spec)(np.float64(1.5)) == 1.0
        weight_value(spec, [1.5])
        assert seen == [float, np.float64, np.ndarray]

    def test_negative_radius_raises(self):
        for name in CATALOGUE:
            spec = weight_from_dict({"kind": name}, 3, 1.0)
            with pytest.raises(ValueError):
                weight_value(spec, -1e-3)
            with pytest.raises(ValueError):
                radial_weight_callable(spec)(np.float64(-1e-3))

    def test_tabulated_keeps_range_check(self):
        spec = tabulated([0.0, 1.0, 2.0], [1.0, 0.5, -0.25])
        g = radial_weight_callable(spec)
        assert g(np.float64(1.5)) == weight_value(spec, np.array([1.5]))[0]
        with pytest.raises(WeightDomainError):
            g(2.5)
        with pytest.raises(WeightDomainError):
            g(np.float64(2.5))


class TestRegistry:
    def test_kinds_match_readme(self):
        # the README's "Weight kinds:" paragraph names each kind in backticks,
        # with its fields in parentheses after it
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        text = open(readme).read()
        paragraph = text[text.index("Weight kinds:"):text.index("Geometry modes:")]
        listed = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", paragraph))
        assert listed == list(WEIGHTS)
        assert list(CATALOGUE) == [kind for kind in listed if kind != "tabulated"]
        for kind in CATALOGUE:  # built from its defaults alone, under its own name
            assert weight_from_dict({"kind": kind}, 3, 1.0).name == kind
