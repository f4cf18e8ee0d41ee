"""Numerical checks of the weighted functional inequalities behind the solver.

Three layers: the general two-weight interpolation inequality of
Caffarelli, Kohn and Nirenberg over radial test functions (CknParams, 1-d
quadrature), its Hardy instance with the explicit constant (2/(N-2+alpha))^2,
and its Sobolev instance with the critical exponent 2N/(N-2+alpha). The Hardy
and Sobolev checkers also run against assembled matrices, where discrete
functions only approximate the continuum class and a small quadrature slack
applies. check_hardy, check_sobolev and check_ckn_radial each return the
plain-dict record of one checked quotient, as inequality_report.json holds it.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import energy_inner, hardy_inner, lp_norm, sphere_area
from .quadrature import radial_integral

HARDY_SLACK = 1e-3  # discrete Hardy-check headroom; shrinks under mesh refinement
REDUCTION_RTOL = 1e-8  # agreement of the general quotient with a specialized one
GAUSS_CUTOFF = 4.0  # gaussian_profile vanishes at this many widths


def _check_exponents(N, alpha):
    if N < 3:
        raise ValueError("N must be >= 3")
    if not 0.0 <= alpha < 2.0:
        raise ValueError("alpha must lie in [0, 2)")


def critical_exponent(N, alpha):
    """The weighted critical exponent 2N/(N-2+alpha)."""
    _check_exponents(N, alpha)
    return 2.0 * N / (N - 2.0 + alpha)


def hardy_constant(N, alpha):
    """The admissible constant (2/(N-2+alpha))^2 of the weighted Hardy inequality."""
    _check_exponents(N, alpha)
    return (2.0 / (N - 2.0 + alpha)) ** 2


@dataclass(frozen=True)
class CknParams:
    """Dimension N and parameters (p, a, b) of the interpolation inequality, whose
    exponent q = Np/(N - p(1 + a - b)) they fix. Construction checks 1 < p < N,
    a < (N - p)/p and a <= b <= a + 1, raising ValueError that names a violation."""

    N: int
    p: float
    a: float
    b: float

    def __post_init__(self):
        N, p, a, b = self.N, self.p, self.a, self.b
        if not 1.0 < p < N:
            raise ValueError(f"constraint violated: p in (1, N); got p = {p}, N = {N}")
        if not a < (N - p) / p:
            raise ValueError(f"constraint violated: a < (N - p)/p; got a = {a}")
        if not a <= b <= a + 1.0:
            raise ValueError(f"constraint violated: a <= b <= a + 1; got a = {a}, b = {b}")

    @property
    def q(self):
        return self.N * self.p / (self.N - self.p * (1.0 + self.a - self.b))


@dataclass(frozen=True)
class RadialProfile:
    """A radial test function with derivative and compact (numerical) support."""

    name: str
    value: Callable
    deriv: Callable
    support: float
    breakpoints: tuple = ()


def smooth_bump(support=1.0):
    """C-infinity bump exp(1 - 1/(1 - (r/S)^2)) supported in r < S."""
    S = float(support)

    def val(r):
        r = np.asarray(r, dtype=float)
        s2 = np.clip((r / S) ** 2, 0.0, None)
        out = np.zeros_like(s2)
        inside = s2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out

    def der(r):
        r = np.asarray(r, dtype=float)
        s2 = (r / S) ** 2
        out = np.zeros_like(s2)
        inside = s2 < 1.0
        out[inside] = (
            np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
            * (-2.0 * r[inside] / S**2)
            / (1.0 - s2[inside]) ** 2
        )
        return out

    return RadialProfile(f"bump(S={S:g})", val, der, S)


def poly_bump(support=1.0):
    """C^1 profile (1 - (r/S)^2)^2 inside r < S."""
    S = float(support)

    def val(r):
        r = np.asarray(r, dtype=float)
        s2 = (r / S) ** 2
        return np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** 2, 0.0)

    def der(r):
        r = np.asarray(r, dtype=float)
        s2 = (r / S) ** 2
        return np.where(s2 < 1.0, -4.0 * r / S**2 * (1.0 - np.minimum(s2, 1.0)), 0.0)

    return RadialProfile(f"polybump(S={S:g})", val, der, S)


def gaussian_profile(sigma=1.0):
    """Gaussian shifted to vanish at r = GAUSS_CUTOFF * sigma (kink there is immaterial)."""
    S = GAUSS_CUTOFF * sigma
    floor = np.exp(-(GAUSS_CUTOFF**2))

    def val(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < S, np.exp(-((r / sigma) ** 2)) - floor, 0.0)

    def der(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < S, -2.0 * r / sigma**2 * np.exp(-((r / sigma) ** 2)), 0.0)

    return RadialProfile(f"gauss(sigma={sigma:g})", val, der, S, breakpoints=(S,))


def hardy_near_optimizer(N, alpha, eps):
    """Capped power profile r^(-(N-2+alpha)/2 + eps), cut off smoothly on [1, 2].

    As eps decreases to 0 the Hardy quotient of this family increases toward
    the constant (2/(N-2+alpha))^2 without reaching it.
    """
    beta = 0.5 * (N - 2.0 + alpha)
    if not 0.0 < eps < beta:
        raise ValueError("need 0 < eps < (N-2+alpha)/2")
    expo = -beta + eps

    def val(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        core = (r > 0.0) & (r <= 1.0)
        out[core] = r[core] ** expo
        mid = (r > 1.0) & (r < 2.0)
        out[mid] = np.cos(0.5 * np.pi * (r[mid] - 1.0)) ** 2
        return out

    def der(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        core = (r > 0.0) & (r <= 1.0)
        out[core] = expo * r[core] ** (expo - 1.0)
        mid = (r > 1.0) & (r < 2.0)
        phase = 0.5 * np.pi * (r[mid] - 1.0)
        out[mid] = -np.pi * np.cos(phase) * np.sin(phase)
        return out

    return RadialProfile(f"hardy-cap(eps={eps:g})", val, der, 2.0, breakpoints=(1.0,))


def _profile_integral(profile, f):
    # the deep lower cutoff 1e-60 S keeps slowly integrable power profiles
    # (exponents barely above -1) accurate while their pointwise powers stay
    # inside IEEE range; geometric panels make the extra decades cheap
    S = profile.support
    total, lo = 0.0, S * 1e-60
    for hi in sorted(set(list(profile.breakpoints) + [S])):
        if hi > lo:
            total += radial_integral(f, lo, hi, order=24, panels_per_decade=10)
            lo = hi
    return total


def hardy_quotient_radial(profile, N, alpha):
    """Continuum Hardy quotient of a radial profile by 1-d quadrature."""
    left = _profile_integral(
        profile, lambda r: profile.value(r) ** 2 * r ** (N - 3.0 + alpha)
    )
    right = _profile_integral(
        profile, lambda r: profile.deriv(r) ** 2 * r ** (N - 1.0 + alpha)
    )
    return left / right


def sobolev_quotient_radial(profile, N, alpha):
    """Continuum Sobolev quotient with the critical exponent."""
    ts = critical_exponent(N, alpha)
    num = _profile_integral(
        profile, lambda r: np.abs(profile.value(r)) ** ts * r ** (N - 1.0)
    )
    den = _profile_integral(
        profile, lambda r: profile.deriv(r) ** 2 * r ** (N - 1.0 + alpha)
    )
    omega = sphere_area(N)
    return (omega * num) ** (2.0 / ts) / (omega * den)


def ckn_sides_radial(params, profile):
    """Left and right sides of the general inequality for one radial profile."""
    N, p, a, b, q = params.N, params.p, params.a, params.b, params.q
    omega = sphere_area(N)
    left = omega * _profile_integral(
        profile, lambda r: r ** (-b * q) * np.abs(profile.value(r)) ** q * r ** (N - 1.0)
    )
    right = omega * _profile_integral(
        profile, lambda r: r ** (-a * p) * np.abs(profile.deriv(r)) ** p * r ** (N - 1.0)
    )
    return left ** (p / q), right


def _record(kind, label, left, right, verdict, margin=None, reference_constant=None,
            notes=()):
    """The record of one checked quotient left/right: a list of entries, here one, with
    their min and max quotient. A zero right side leaves quotient and margin null."""
    quotient = float(left / right) if right != 0.0 else None
    if quotient is None:
        margin, verdict = None, "undefined quotient"
    return {
        "kind": kind,
        "reference_constant": reference_constant,
        "entries": [{"label": label, "left": float(left), "right": float(right),
                     "quotient": quotient, "margin": margin, "verdict": verdict}],
        "min_quotient": quotient,
        "max_quotient": quotient,
        "passed": verdict in ("pass", "finite quotient recorded"),
        "notes": list(notes),
    }


def check_hardy(pair, u, label="vector"):
    """Discrete Hardy check: kernel form against the constant times the energy."""
    const = hardy_constant(pair.N, pair.alpha)
    left = hardy_inner(pair, u)
    right = const * energy_inner(pair, u)
    bound = right * (1.0 + HARDY_SLACK)
    return _record("hardy", label, left, right, "pass" if left <= bound else "fail",
                   margin=float(bound - left), reference_constant=const)


def check_sobolev(pair, u, label="vector"):
    """Discrete Sobolev quotient: no reference constant, the quotient is recorded."""
    ts = critical_exponent(pair.N, pair.alpha)
    return _record("sobolev", label, lp_norm(pair, u, ts) ** 2, energy_inner(pair, u),
                   "finite quotient recorded")


def sobolev_quotient_discrete(pair, u):
    ts = critical_exponent(pair.N, pair.alpha)
    return lp_norm(pair, u, ts) ** 2 / energy_inner(pair, u)


def dilation_quotient_spread(pair, profile):
    """Sobolev quotients of the dilated family u_t(x) = u(t x) on one mesh, t = 0.5, 1, 2.

    The exponent balance makes the quotient exactly dilation-invariant in the
    continuum; here each dilate is resampled at the mesh nodes, so the spread,
    relative to the quotient at t = 1, measures interpolation consistency. The
    profile must stay supported inside the truncated domain for every t.
    """
    if pair.mode != "radial":
        raise ValueError("dilation check runs on radial pairs")
    if profile.support / 0.5 > pair.geometry.R * (1.0 + 1e-12):
        raise ValueError(
            f"profile support {profile.support:g}/0.5 exceeds the domain R = {pair.geometry.R:g}"
        )
    radii = pair.dof_positions
    quotients = {t: sobolev_quotient_discrete(pair, profile.value(t * radii))
                 for t in (0.5, 1.0, 2.0)}
    vals = np.array(list(quotients.values()))
    return {"quotients": quotients, "spread": float((vals.max() - vals.min()) / quotients[1.0])}


def check_ckn_radial(params, profile):
    """Record of the general inequality's quotient on one radial profile.

    When the parameters sit at the Hardy point (p = 2, b = a + 1, so q = 2) or the
    Sobolev point (p = 2, b = 0) with alpha = -2a in [0, 2), the specialized
    checker is rerun on the same profile and the verdict is whether the two
    quotients agree to REDUCTION_RTOL; the general and specialized integrands
    follow different code paths, so this validates the parameter mapping.
    At the Hardy point the record carries the Hardy constant.
    """
    left, right = ckn_sides_radial(params, profile)
    quotient = left / right
    verdict, notes = "finite quotient recorded", []
    alpha = -2.0 * params.a
    at_p2 = abs(params.p - 2.0) < 1e-14 and 0.0 <= alpha < 2.0
    at_hardy = at_p2 and abs(params.b - (params.a + 1.0)) < 1e-14
    if at_hardy or (at_p2 and abs(params.b) < 1e-14):
        kind, specialized = (("hardy", hardy_quotient_radial) if at_hardy
                             else ("sobolev", sobolev_quotient_radial))
        reference = specialized(profile, params.N, alpha)
        agreement = abs(quotient - reference) / reference
        verdict = "pass" if agreement <= REDUCTION_RTOL else "fail"
        notes.append(f"{kind} reduction agreement {agreement:.3e}")
    const = hardy_constant(params.N, alpha) if at_hardy else None
    return _record("ckn", profile.name, left, right, verdict, reference_constant=const,
                   notes=notes)
