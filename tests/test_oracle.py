import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from degeig import oracle
from degeig.cli import main
from degeig.config import weight_from_dict
from degeig.oracle import (
    NoBracketError,
    OracleError,
    radial_weight_callable,
    shoot,
    shooting_eigenvalue,
)
from degeig.quadrature import fixed_quad
from degeig.weights import CATALOGUE, gaussian_bump, sign_changing_ring


def unit_weight(r):
    return np.ones_like(np.asarray(r, dtype=float))


class TestShoot:
    def test_zero_lambda_gives_constant_solution(self):
        miss, zeros, _ = shoot(3, 1.0, unit_weight, 1.0, 0.0)
        assert_allclose(miss, 1.0, rtol=1e-10)
        assert zeros == 0

    def test_classical_first_eigenvalue(self):
        # alpha -> 0, g = 1, R = 1: -(r^2 u')' = lambda r^2 u has u = sin(sqrt(l) r)/r,
        # so the first root of the miss function sits at lambda = pi^2
        lam = np.pi**2
        miss_lo, z_lo, _ = shoot(3, 1e-6, unit_weight, 1.0, lam * (1 - 1e-4))
        miss_hi, z_hi, _ = shoot(3, 1e-6, unit_weight, 1.0, lam * (1 + 1e-4))
        assert miss_lo * miss_hi < 0.0
        assert (z_lo, z_hi) == (0, 1)

    def test_zero_count_monotone_for_positive_weight(self):
        # oscillation behavior sampled over a lambda sweep (bracketing precondition)
        g = radial_weight_callable(gaussian_bump())
        lams = np.geomspace(0.5, 200.0, 14)
        counts = [shoot(3, 1.0, g, 6.0, lam)[1] for lam in lams]
        assert np.all(np.diff(counts) >= 0)
        assert counts[-1] > counts[0]

    def test_overflow_inside_one_piece_is_rescaled(self):
        # g = -1 at lambda = 1e6: u grows like exp(1000 r) and leaves the float
        # range well inside one smooth piece; stopping at RESCALE_LIMIT for a
        # rescale keeps the state finite, so the shot ends with a miss and no zeros
        neg = lambda r: -np.ones_like(np.asarray(r, dtype=float))
        miss, zeros, _ = shoot(3, 1.0, neg, 6.0, 1e6)
        assert np.isfinite(miss)
        assert zeros == 0

    def test_zero_count_matches_closed_form(self):
        # alpha -> 0, g = 1, R = 1: u = sin(sqrt(lambda) r)/r has its zeros
        # at r = j pi / sqrt(lambda); at lambda = ((m + 1/2) pi)^2 exactly m
        # of them lie inside (0, 1), and u(1) = +-1/sqrt(lambda) (u(0) = 1)
        # is far from zero
        for m in range(9):
            root = (m + 0.5) * np.pi
            miss, zeros, _ = shoot(3, 1e-6, unit_weight, 1.0, root**2)
            assert zeros == m
            assert_allclose(miss, (-1) ** m / root, rtol=1e-5)

    def test_zero_flux_start_on_the_ring(self):
        # the ring has g = 0 on [0, 1), so the series flux v0 is exactly 0
        # and v is still 0 when the piece [1, 2] starts; the integrator's own
        # first-step guess underflows there, so shoot gives the first step
        spec = sign_changing_ring()
        g = radial_weight_callable(spec)
        r0 = oracle.R_EPS_FACTOR * 6.0
        assert fixed_quad(lambda t: g(t) * t**2, 0.0, r0, order=12) == 0.0
        lam1 = shooting_eigenvalue(3, 1.0, g, 6.0, 1, breakpoints=spec.jumps).lam
        for lam in (0.1 * lam1, 0.5 * lam1, 0.99 * lam1):
            miss, zeros, _ = shoot(3, 1.0, g, 6.0, lam, breakpoints=spec.jumps)
            assert zeros == 0
            assert miss > 0.0

    def test_integrator_guess_fails_at_zero_flux(self, monkeypatch):
        # without an explicit first step the shot above stops at r = 1 with
        # "step size becomes too small", reported as an OracleError
        spec = sign_changing_ring()
        monkeypatch.setattr(oracle, "FIRST_STEP", 0.0)
        with pytest.warns(UserWarning, match="step size becomes too small"):
            with pytest.raises(OracleError, match="return code -3"):
                shoot(3, 1.0, radial_weight_callable(spec), 6.0, 1.0,
                      breakpoints=spec.jumps)

    @pytest.mark.parametrize("weight", [gaussian_bump, sign_changing_ring])
    def test_rhs_evaluations_count_weight_calls(self, weight):
        # each right-hand-side evaluation calls g once at a float radius;
        # the series flux calls it once more, on an array of nodes
        spec = weight()
        inner = radial_weight_callable(spec)
        calls = {"scalar": 0, "array": 0}

        def counting(r):
            calls["scalar" if isinstance(r, float) else "array"] += 1
            return inner(r)

        for lam in (2.0, 40.0):
            calls.update(scalar=0, array=0)
            _, _, nfev = shoot(3, 1.0, counting, 6.0, lam, breakpoints=spec.jumps)
            assert nfev == calls["scalar"] > 0
            assert calls["array"] == 1

    def test_invalid_inputs(self):
        with pytest.raises(OracleError):
            shoot(3, 2.5, unit_weight, 1.0, 1.0)
        with pytest.raises(OracleError):
            shoot(3, 1.0, unit_weight, -1.0, 1.0)


class TestShootingEigenvalue:
    def test_classical_limit_two_modes(self):
        # roots of sin(sqrt(lambda) r)/r at r = 1: lambda_n = (n pi)^2
        for n in (1, 2):
            res = shooting_eigenvalue(3, 1e-6, unit_weight, 1.0, n)
            assert_allclose(res.lam, (n * np.pi) ** 2, rtol=1e-6)
            assert res.certified
            assert res.index == n - 1

    def test_strict_ordering_gaussian(self):
        g = radial_weight_callable(gaussian_bump())
        lams = [shooting_eigenvalue(3, 1.0, g, 6.0, n).lam for n in (1, 2, 3)]
        assert lams[0] < lams[1] < lams[2]

    def test_bracket_certificate(self):
        g = radial_weight_callable(gaussian_bump())
        res = shooting_eigenvalue(3, 1.0, g, 6.0, 2)
        lo, hi = res.bracket
        assert lo < res.lam < hi
        assert (hi - lo) <= 1e-9 * hi
        miss_lo, z_lo, _ = shoot(3, 1.0, g, 6.0, lo)
        miss_hi, z_hi, _ = shoot(3, 1.0, g, 6.0, hi)
        assert miss_lo * miss_hi < 0.0
        assert (z_lo, z_hi) == (1, 2)

    def test_integrator_refinement_stability(self, monkeypatch):
        g = radial_weight_callable(gaussian_bump())
        lam_a = shooting_eigenvalue(3, 1.0, g, 6.0, 1).lam
        monkeypatch.setattr(oracle, "RTOL", 5e-12)
        lam_b = shooting_eigenvalue(3, 1.0, g, 6.0, 1).lam
        assert abs(lam_a - lam_b) <= 1e-8 * lam_a

    def test_no_bracket_for_nonpositive_weight(self, monkeypatch):
        neg = lambda r: -np.ones_like(np.asarray(r, dtype=float))
        monkeypatch.setattr(oracle, "SWEEP_CAP", 10)
        with pytest.raises(NoBracketError):
            shooting_eigenvalue(3, 1.0, neg, 2.0, 1)

    def test_sign_changing_weight_with_jump_breakpoints(self):
        # the indicator ring has jumps; the oracle splits segments there and
        # still certifies the low modes, matching the matrix route
        from degeig.assembly import assemble_radial
        from degeig.eigensolve import solve_dense
        from degeig.mesh import build_radial_mesh, grading_for_span

        spec = sign_changing_ring()
        g = radial_weight_callable(spec)
        mesh = build_radial_mesh(6.0, 512, grading_for_span(512, 1e4))
        fem = solve_dense(assemble_radial(mesh, 3, 1.0, spec), 2).lambdas
        for n in (1, 2):
            res = shooting_eigenvalue(3, 1.0, g, 6.0, n, breakpoints=spec.jumps)
            assert res.certified
            assert abs(res.lam - fem[n - 1]) / res.lam <= 1e-2

    def test_mode_number_validated(self):
        with pytest.raises(ValueError):
            shooting_eigenvalue(3, 1.0, unit_weight, 1.0, 0)

    def test_general_dimension_cross_check(self):
        # the radial reduction holds for any N >= 3: N = 5, alpha = 0.7
        from degeig.assembly import assemble_radial
        from degeig.eigensolve import solve_dense
        from degeig.mesh import build_radial_mesh, grading_for_span

        spec = gaussian_bump()
        mesh = build_radial_mesh(6.0, 384, grading_for_span(384, 1e4))
        fem = solve_dense(assemble_radial(mesh, 5, 0.7, spec), 2).lambdas
        g = radial_weight_callable(spec)
        for n in (1, 2):
            res = shooting_eigenvalue(5, 0.7, g, 6.0, n)
            assert res.certified
            assert abs(res.lam - fem[n - 1]) / res.lam <= 5e-3


def replay_refinement(lams, results, n, growth=1.6):
    """Check the bracket updates of one shooting_eigenvalue call.

    lams/results are its shots in order, the first at the sweep start. The
    sweep is replayed on the recorded shots (shrink by growth^2 while the
    count is n or more, then grow by growth until it is), which gives the
    bracket it ends on and the number of distinct lambdas it shot. Past the
    sweep, every shot must lie strictly inside the current bracket, and a
    shot taken while the bracket is not certifiable (counts (n-1, n) with
    opposite misses) must be its midpoint. Returns the final bracket and the
    number of refinement shots.
    """
    shots = dict(zip(lams, results))
    lam = lams[0]
    swept = {lam}
    while shots[lam][1] >= n:
        lam /= growth**2
        swept.add(lam)
    while shots[lam][1] < n:
        lo = lam
        lam *= growth
        swept.add(lam)
    hi = lam
    (miss_lo, count_lo), (miss_hi, count_hi) = shots[lo], shots[hi]
    refinement = list(zip(lams[len(swept):], results[len(swept):]))
    for lam, (miss, zeros) in refinement:
        assert lo < lam < hi
        if not (count_lo == n - 1 and count_hi == n and miss_lo * miss_hi < 0.0):
            assert lam == 0.5 * (lo + hi)
        if zeros >= n:
            hi, miss_hi, count_hi = lam, miss, zeros
        else:
            lo, miss_lo, count_lo = lam, miss, zeros
    return (lo, hi), len(refinement)


class TestRefinement:
    @staticmethod
    def record(monkeypatch, shoot_fn, nfevs=None):
        lams, results = [], []

        def recorded(N, alpha, g, R, lam, **kwargs):
            miss, zeros, nfev = shoot_fn(N, alpha, g, R, lam, **kwargs)
            lams.append(lam)
            results.append((miss, zeros))
            if nfevs is not None:
                nfevs.append(nfev)
            return miss, zeros, nfev

        monkeypatch.setattr(oracle, "shoot", recorded)
        return lams, results

    def test_certifiable_bracket_takes_secant_steps(self, monkeypatch):
        # smooth miss with one root; the count steps 0 -> 1 across it
        lams, results = self.record(
            monkeypatch, lambda *a, **k: (0.7 - a[4] ** 2, int(a[4] ** 2 > 0.7), 1))
        res = shooting_eigenvalue(3, 1.0, unit_weight, 1.0, 1)
        assert res.certified
        assert abs(res.lam - np.sqrt(0.7)) <= 1e-10 * res.lam
        bracket, refined = replay_refinement(lams, results, 1)
        assert res.bracket == bracket
        assert res.bracket[1] - res.bracket[0] <= 1e-10 * res.bracket[1]
        # bisection from the sweep's bracket would need about 33 shots
        assert refined <= 12

    def test_uncertifiable_bracket_bisects(self, monkeypatch):
        # the count jumps 0 -> 2 across the root, so the bracket never has
        # counts (0, 1): every refinement step is a bisection step
        lams, results = self.record(
            monkeypatch, lambda *a, **k: (0.7 - a[4] ** 2, 2 * int(a[4] ** 2 > 0.7), 1))
        res = shooting_eigenvalue(3, 1.0, unit_weight, 1.0, 1)
        assert not res.certified
        assert "bracket uncertified" in res.note
        bracket, _ = replay_refinement(lams, results, 1)
        assert res.bracket == bracket
        assert res.bracket[1] - res.bracket[0] <= 1e-10 * res.bracket[1]

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_sweep_starts_within_a_decade_below_lambda1(self, monkeypatch, name):
        # the weighted-Hardy start is a lower bound of lambda_1 (count 0) and,
        # on the catalogue weights, not far below it
        spec = weight_from_dict({"kind": name}, 3, 1.0)
        lams, results = self.record(monkeypatch, shoot)
        res = shooting_eigenvalue(3, 1.0, radial_weight_callable(spec), 6.0, 1,
                                  breakpoints=spec.jumps)
        assert res.certified
        assert results[0][1] == 0
        assert lams[0] >= res.lam / 10

    def test_oracle_command_shares_one_sweep(self, monkeypatch, tmp_path):
        # gaussian N=3 alpha=1 R=6, k=3, run the way `degeig oracle` runs it
        nfevs = []
        lams, results = self.record(monkeypatch, shoot, nfevs)
        cfg = tmp_path / "oracle.json"
        cfg.write_text(json.dumps({"problem": {
            "N": 3, "alpha": 1.0, "weight": {"kind": "gaussian"},
            "geometry": {"mode": "radial", "R": 6.0, "M": 512},
            "solver": {"k": 3}}}))
        out = str(tmp_path / "gold")
        assert main(["oracle", "--config", str(cfg), "--out", out]) == 0
        entries = json.loads(open(os.path.join(out, "golden.json")).read())["entries"]
        assert [e["n"] for e in entries] == [1, 2, 3]
        assert all(e["certified"] for e in entries)
        assert len(lams) <= 30
        assert len(set(lams)) == len(lams)   # no lambda shot twice
        assert sum(nfevs) <= 27000           # summed steps of n = 1..3

        g = radial_weight_callable(gaussian_bump())
        alone = shooting_eigenvalue(3, 1.0, g, 6.0, 2)
        assert alone.certified
        assert abs(alone.lam - entries[1]["lambda"]) <= 1e-10 * entries[1]["lambda"]
