"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
The preset battery is {gaussian, ring} x {alpha = 0.5, 1.0, 1.5} at N = 3,
radial M = 512, truncation R = 6, with a 41^3 cube cross-check.
"""

import time

import numpy as np

from degeig.assembly import assemble_grid3d, assemble_radial, energy_inner, hardy_inner
from degeig.eigensolve import (
    SolverSettings,
    growth_diagnostics,
    solve_dense,
    solve_successive,
)
from degeig.inequalities import (
    CknParams,
    ckn_sides_radial,
    critical_exponent,
    dilation_quotient_spread,
    hardy_constant,
    hardy_quotient_radial,
    poly_bump,
    smooth_bump,
    sobolev_quotient_discrete,
    sobolev_quotient_radial,
)
from degeig.mesh import build_grid3d
from degeig.oracle import radial_weight_callable, shooting_eigenvalue
from degeig.weights import borderline_log, borderline_log_radial, gaussian_bump, verify_weight_split

from conftest import ALPHAS, preset_pair

PRESET_KEYS = [(w, a) for w in ("gaussian", "ring") for a in ALPHAS]


def ckn_quotient_radial(params, profile):
    """General interpolation-inequality quotient for admissible (N, p, a, b)."""
    left, right = ckn_sides_radial(params, profile)
    return left / right


def report(num, ok, desc):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_increasing_positive_sequence(solved_512):
    ok = True
    for key in PRESET_KEYS:
        lam = solved_512[key].lambdas
        ok &= lam.size == 6
        ok &= bool(np.all(lam > 0.0))
        ok &= bool(np.all(np.diff(lam) / lam[1:] > 1e-9))
    elapsed = solved_512["elapsed"]
    ok &= elapsed <= 60.0
    report(1, ok, f"first 6 eigenvalues strictly positive/increasing on 6 presets "
                  f"(solve time {elapsed:.1f}s <= 60s)")


def test_criterion_02_weak_form_residuals(solved_512):
    worst = max(solved_512[key].residuals.max() for key in PRESET_KEYS)
    report(2, worst <= 1e-8, f"max weak-form residual {worst:.2e} <= 1e-8")


def test_criterion_03_orthogonality_normalization(solved_512):
    ok = True
    worst_energy, worst_mass, worst_ident = 0.0, 0.0, 0.0
    for key in PRESET_KEYS:
        seq = solved_512[key]
        lam_k = seq.lambdas.max()
        worst_energy = max(worst_energy, seq.max_cross_energy() / lam_k)
        worst_mass = max(worst_mass, np.max(np.abs(seq.cross_mass - np.eye(seq.count))))
        worst_ident = max(
            worst_ident,
            np.max(np.abs(np.diag(seq.cross_energy) - seq.lambdas) / seq.lambdas),
        )
    ok = worst_energy <= 1e-8 and worst_mass <= 1e-8 and worst_ident <= 1e-8
    report(3, ok, f"cross-energy {worst_energy:.1e}, mass-orthonormality {worst_mass:.1e}, "
                  f"energy identity {worst_ident:.1e} (all <= 1e-8)")


def test_criterion_04_rescaled_mode_identities(pairs_512, solved_512):
    ok = True
    worst_unit, worst_gap, worst_margin = 0.0, 0.0, 0.0
    for key in PRESET_KEYS:
        rep = growth_diagnostics(solved_512[key], pairs_512[key])
        worst_unit = max(worst_unit, np.max(np.abs(rep.unit_energy - 1.0)))
        worst_gap = max(worst_gap, np.max(rep.identity_gaps))
        worst_margin = min(worst_margin, np.min(rep.bound_margins))
    ok = worst_unit <= 1e-10 and worst_gap <= 1e-10 and worst_margin >= -1e-12
    report(4, ok, f"unit energy gap {worst_unit:.1e} <= 1e-10, mass identity gap "
                  f"{worst_gap:.1e} <= 1e-10, positive-part margin {worst_margin:.1e} >= -1e-12")


def test_criterion_05_ground_mode_sign(solved_512):
    ok = True
    for alpha in ALPHAS:
        e1 = solved_512[("gaussian", alpha)].vectors[:, 0]
        ok &= bool(e1.min() >= -1e-8 * e1.max())
    report(5, ok, "ground eigenvector nonnegative on pure-positive-weight presets")


def test_criterion_06_oracle_equivalence(solved_512):
    g = radial_weight_callable(gaussian_bump())
    fem = solved_512[("gaussian", 1.0)].lambdas
    worst = 0.0
    for n in range(1, 5):
        res = shooting_eigenvalue(3, 1.0, g, 6.0, n)
        worst = max(worst, abs(res.lam - fem[n - 1]) / res.lam)
    unit = lambda r: np.ones_like(np.asarray(r, dtype=float))
    classical = shooting_eigenvalue(3, 1e-6, unit, 1.0, 1)
    classical_err = abs(classical.lam - np.pi**2) / np.pi**2
    ok = worst <= 1e-2 and classical_err <= 1e-3
    report(6, ok, f"FEM vs shooting oracle {worst:.2e} <= 1e-2 (n <= 4); "
                  f"classical limit pi^2 error {classical_err:.2e} <= 1e-3")


def test_criterion_07_dense_iterative_equivalence(solved_512, dense_512):
    worst = 0.0
    for key in PRESET_KEYS:
        it, de = solved_512[key], dense_512[key]
        m = min(it.count, de.count, 6)
        worst = max(worst, np.max(np.abs(it.lambdas[:m] - de.lambdas[:m]) / de.lambdas[:m]))
    # two further catalogue weights at the same order
    from degeig.weights import compact_bump, indicator_ball
    from conftest import preset_mesh

    for spec in (indicator_ball(), compact_bump()):
        pair = assemble_radial(preset_mesh(512), 3, 1.0, spec)
        it = solve_successive(pair, SolverSettings(k=6))
        de = solve_dense(pair, 6)
        worst = max(worst, np.max(np.abs(it.lambdas - de.lambdas) / de.lambdas))
    report(7, worst <= 1e-6, f"successive vs dense agreement {worst:.2e} <= 1e-6 "
                             f"on all order-512 catalogue problems, n <= 6")


def test_criterion_08_hardy_inequality(pairs_512, pairs_128):
    ok = True
    detail = []
    for widx, key in enumerate(PRESET_KEYS):
        pair5, pair1 = pairs_512[key], pairs_128[key]
        const = hardy_constant(3, key[1])

        def max_ratio(pair, n_vec=100):
            rng = np.random.default_rng([widx, int(10 * key[1])])
            worst = 0.0
            for _ in range(n_vec):
                u = rng.standard_normal(pair.order)
                worst = max(worst, hardy_inner(pair, u) / (const * energy_inner(pair, u)))
            return worst

        r512, r128 = max_ratio(pair5), max_ratio(pair1)
        ok &= r512 <= 1.0 + 1e-3 and r128 <= 1.0 + 1e-3
        slack512, slack128 = max(0.0, r512 - 1.0), max(0.0, r128 - 1.0)
        ok &= slack512 <= 0.5 * slack128 or slack512 == 0.0

        # discretization slack on a smooth profile shrinks >= 2x under refinement
        prof = smooth_bump(1.5)
        cont = hardy_quotient_radial(prof, 3, key[1]) / const
        gaps = []
        for pair in (pair1, pair5):
            u = prof.value(pair.dof_positions)
            gaps.append(abs(hardy_inner(pair, u) / (const * energy_inner(pair, u)) - cont))
        ok &= gaps[1] <= 0.5 * gaps[0]
        detail.append(f"{key}: ratio512 {r512:.3f}, quad-slack {gaps[0]:.1e}->{gaps[1]:.1e}")
    report(8, ok, "hardy bound holds for 100 random vectors/preset at M=512; "
                  "slack shrinks >= 2x from M=128 (" + detail[1] + ")")


def test_criterion_09_sobolev_structure(pairs_512, rng):
    pair = pairs_512[("gaussian", 1.0)]
    u = rng.standard_normal(pair.order)
    q0 = sobolev_quotient_discrete(pair, u)
    scale_ok = all(
        abs(sobolev_quotient_discrete(pair, c * u) - q0) <= 1e-12 * q0
        for c in (1e-3, 5.0, -40.0)
    )
    spread = dilation_quotient_spread(pair, smooth_bump(1.5))["spread"]
    exact = critical_exponent(3, 1.0) == 3.0
    ok = scale_ok and spread <= 2e-2 and exact
    report(9, ok, f"quotient scale-invariant to roundoff; dilation spread {spread:.2e} <= 2e-2; "
                  f"critical_exponent(3,1) = 3 exactly")


def test_criterion_10_ckn_reductions():
    worst = 0.0
    for alpha in ALPHAS:
        hardy_pt = CknParams(3, 2.0, -alpha / 2.0, (2.0 - alpha) / 2.0)
        sobolev_pt = CknParams(3, 2.0, -alpha / 2.0, 0.0)
        for prof in (smooth_bump(1.0), poly_bump(1.5)):
            qh = ckn_quotient_radial(hardy_pt, prof)
            ref_h = hardy_quotient_radial(prof, 3, alpha)
            worst = max(worst, abs(qh - ref_h) / ref_h)
            qs = ckn_quotient_radial(sobolev_pt, prof)
            ref_s = sobolev_quotient_radial(prof, 3, alpha)
            worst = max(worst, abs(qs - ref_s) / ref_s)
    report(10, worst <= 1e-8, f"general-inequality parameter points reproduce "
                              f"hardy/sobolev quotients to {worst:.1e} <= 1e-8")


def test_criterion_11_growth_trend(solved_512):
    seq = solved_512[("gaussian", 1.0)]
    lam = seq.lambdas
    ratio_ok = lam[5] / lam[0] >= 3.0
    second = np.diff(lam, 2)
    convex_ok = bool(np.all(second >= -1e-8 * lam[-1]))
    lads = []
    for M in (128, 256, 512):
        pair = preset_pair("gaussian", 1.0, M)
        lads.append(solve_dense(pair, 4).lambdas)
    diffs = [np.abs(lads[i + 1] - lads[i]) for i in range(2)]
    stability_ok = bool(np.all(diffs[1] < diffs[0]))
    ok = ratio_ok and convex_ok and stability_ok
    report(11, ok, f"lambda_6/lambda_1 = {lam[5] / lam[0]:.1f} >= 3; convex-increasing; "
                   f"ladder differences decreasing for lambda_1..4")


def test_criterion_12_borderline_weight():
    rep = verify_weight_split(borderline_log(3, 1.0), 3, 1.0)
    h0 = borderline_log_radial(0.0, 3, 1.0)
    ok = rep.decay_pass and rep.gplus_norm_verdict == "divergent" and h0 == 1.0
    report(12, ok, f"borderline weight: decay-pass and norm-divergence simultaneously; "
                   f"h(0) = {h0} exactly")


def test_criterion_13_grid_vs_radial(solved_512):
    t0 = time.time()
    grid = build_grid3d(6.0, 41)
    pair = assemble_grid3d(grid, 1.0, gaussian_bump())
    seq = solve_successive(pair, settings=SolverSettings(k=1, tol=1e-9))
    elapsed = time.time() - t0
    lam_radial = solved_512[("gaussian", 1.0)].lambdas[0]
    rel = abs(seq.lambdas[0] - lam_radial) / lam_radial
    ok = rel <= 5e-2 and elapsed <= 120.0
    report(13, ok, f"41^3 grid lambda_1 vs radial: {rel:.2e} <= 5e-2 "
                   f"({elapsed:.0f}s <= 120s)")
