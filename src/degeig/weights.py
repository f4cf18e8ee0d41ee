"""Weight catalogue for the degenerate eigenproblem and its admissibility checker.

A weight g is carried as an explicit three-way split

    g(x) = g_integrable(x) + g_decaying(x) - g_negative(x),

where the two positive parts play different roles: g_integrable is expected to
have finite L^{N/(2-alpha)} norm on all of R^N, while g_decaying is only
required to vanish against the kernel |x - y|^(2-alpha) locally at every probe
point and at infinity. g_negative is the magnitude of the negative part. All
catalogue weights are radial. Each part is one expression of the radius, valid
for a float and for an array alike; weight_split checks the radii and calls
the parts, so matrix assembly and the shooting oracle's one-radius calls run
the same arithmetic.

verify_weight_split samples these hypotheses numerically: limits cannot be
certified by sampling, so the decay verdicts demand a strictly decreasing
decade-sampled tail, and the norm verdicts compare per-decade increments of
the quadrature estimate.
"""

from csv import reader
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import radial_integral


class WeightDomainError(ValueError):
    """Raised when a weight is evaluated outside its tabulated range."""


def borderline_log_radial(r, N, alpha):
    """Radial form of the borderline weight r^(alpha-2) * log(2 + r^(2-alpha))^((alpha-2)/N).

    Defined to be exactly 1 at r = 0. The power prefactor makes the function
    critically singular at the origin and critically decaying at infinity:
    it misses L^{N/(2-alpha)}(R^N) at both ends, yet r^(2-alpha) times the
    weight still goes to 0 as r -> infinity. r is a float or an array.
    """
    # the powers are taken at 1 in place of the origin, where r^(alpha-2)
    # divides by zero, and the mask then puts 1 there (a bool is 0 or 1 in
    # the arithmetic, so a float r makes no array). np.power, not the float
    # ** operator: libm pow differs from numpy's in the last ulp at some radii
    origin = r == 0.0
    r = r + origin
    value = np.power(r, alpha - 2.0) * np.power(
        np.log(2.0 + np.power(r, 2.0 - alpha)), (alpha - 2.0) / N)
    return (1 - origin) * value + origin


def _zero(r):
    # 0.0, or zeros shaped like r (r >= 0 holds at every radius, r = inf included)
    return 0.0 * (r >= 0.0)


@dataclass(frozen=True)
class WeightSpec:
    """A radial weight with its explicit admissibility split.

    The three evaluators are pointwise nonnegative. Each takes one float
    radius or an array of radii in [r_min, r_max] and returns a float or an
    array of that shape; they check nothing, as weight_split does that.
    verified_split is False for data-driven weights whose split cannot be
    checked beyond the sampled range.
    """

    name: str
    g_integrable: Callable = _zero
    g_decaying: Callable = _zero
    g_negative: Callable = _zero
    verified_split: bool = True
    r_min: float = 0.0     # evaluable range; nontrivial only for tabulated data
    r_max: float = np.inf
    jumps: tuple = ()      # discontinuity radii (adaptive integrators split there)


def weight_split(spec, r):
    """Evaluate the (integrable, decaying, negative) parts at radii r.

    r is one float (numpy's float64 included), which the parts get as it is,
    so the shooting oracle's one-radius calls make no array; anything else is
    made a float array first. A negative radius raises ValueError, and one
    outside [r_min, r_max] raises WeightDomainError.
    """
    if isinstance(r, float):
        low = high = r
    else:
        r = np.asarray(r, dtype=float)
        low, high = (r.min(), r.max()) if r.size else (0.0, 0.0)
    if low < 0.0:
        raise ValueError("radii must be nonnegative")
    if low < spec.r_min - 1e-15 or high > spec.r_max:
        raise WeightDomainError(
            f"weight '{spec.name}' sampled outside its range "
            f"[{spec.r_min:g}, {spec.r_max:g}]"
        )
    return spec.g_integrable(r), spec.g_decaying(r), spec.g_negative(r)


def weight_value(spec, r):
    """g(r), computed from the split so both paths share one evaluation."""
    gi, gd, gm = weight_split(spec, r)
    return gi + gd - gm


def gaussian_bump(amplitude: float = 1.0, width: float = 1.0):
    """Positive Gaussian weight; rapid decay puts it wholly in the integrable part."""
    if amplitude <= 0 or width <= 0:
        raise ValueError("gaussian_bump needs positive amplitude and width")

    # s * s, not s ** 2: a float's power calls libm pow, which may differ in the last ulp
    def g1(r):
        s = r / width
        return amplitude * np.exp(-(s * s))

    return WeightSpec(name="gaussian", g_integrable=g1)


def compact_bump(radius: float = 1.0, amplitude: float = 1.0):
    """Smooth compactly supported positive weight (mollifier profile)."""
    if amplitude <= 0 or radius <= 0:
        raise ValueError("compact_bump needs positive amplitude and radius")

    # outside the support the mask puts s^2 = 0 in the exponent, so it stays
    # finite, and then zeroes the value; a bool is 0 or 1 in the arithmetic
    def g1(r):
        s = r / radius
        s2 = s * s
        inside = s2 < 1.0
        return inside * (amplitude * np.exp(1.0 - 1.0 / (1.0 - inside * s2)))

    return WeightSpec(name="compact-bump", g_integrable=g1)


def sign_changing_ring(inner: float = 1.0, outer: float = 2.0, pos_amplitude: float = 1.0,
                       neg_amplitude: float = -0.5):
    """Indicator ring weight: +pos on [inner, outer), negative on the adjacent shell.

    The negative shell [outer, 2*outer - inner) has the same width as the
    positive ring. Both parts are bounded with compact support, so the
    positive ring is carried in the decaying slot and the negative part is
    plainly locally integrable.
    """
    if not 0 < inner < outer:
        raise ValueError("ring needs 0 < inner < outer")
    if pos_amplitude <= 0:
        raise ValueError("ring needs a positive amplitude for the positive band")
    pos, neg = float(pos_amplitude), float(abs(neg_amplitude))
    shell_out = outer + (outer - inner)

    def g2(r):
        return pos * ((r >= inner) & (r < outer))

    def gm(r):
        return neg * ((r >= outer) & (r < shell_out))

    return WeightSpec(
        name="ring",
        g_decaying=g2,
        g_negative=gm,
        jumps=(inner, outer, shell_out),
    )


def indicator_ball(radius: float = 1.0):
    """Indicator of the ball of given radius, assigned wholly to the integrable part."""
    if radius <= 0:
        raise ValueError("indicator_ball needs a positive radius")

    def g1(r):
        return 1.0 * (r < radius)

    return WeightSpec(name="ball", g_integrable=g1, jumps=(radius,))


def borderline_log(N, alpha):
    """The borderline weight as an eigenproblem weight: decaying slot only."""
    if N < 3 or not 0.0 < alpha < 2.0:
        raise ValueError("borderline_log needs N >= 3 and alpha in (0, 2)")

    def g2(r):
        return borderline_log_radial(r, N, alpha)

    return WeightSpec(name="borderline-log", g_decaying=g2)


def tabulated(radii, values):
    """Weight interpolated from (radius, value) samples.

    The sign split is taken pointwise from the interpolated value and is
    flagged unverified: nothing is known beyond the sampled range, and
    weight_split raises WeightDomainError there.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
        raise ValueError("tabulated needs matching 1-d radius/value arrays, >= 2 samples")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("tabulated radii must be strictly increasing")

    def g1(r):
        return np.maximum(np.interp(r, radii, values), 0.0)

    def gm(r):
        return np.maximum(-np.interp(r, radii, values), 0.0)

    return WeightSpec(
        name="tabulated",
        g_integrable=g1,
        g_negative=gm,
        verified_split=False,
        r_min=float(radii[0]),
        r_max=float(radii[-1]),
    )


def tabulated_from_csv(csv: str):
    """Load a tabulated weight from the two-column CSV file csv, header 'r,g'."""
    with open(csv, newline="") as fh:
        lines = reader(fh)
        header = next(lines, None)
        if header is None or [h.strip() for h in header[:2]] != ["r", "g"]:
            raise ValueError(f"{csv}: expected CSV header 'r,g'")
        rows = [(float(row[0]), float(row[1])) for row in lines if row]
    if len(rows) < 2:
        raise ValueError(f"{csv}: need at least two samples")
    radii, values = zip(*rows)
    return tabulated(np.array(radii), np.array(values))


# The weight kinds of a configuration document and their builders. A
# builder's keyword parameters are the fields of the weight document, except
# N and alpha, which come from the problem; a parameter annotated float or
# str takes only a value of that type.
WEIGHTS = {
    "gaussian": gaussian_bump,
    "compact-bump": compact_bump,
    "ring": sign_changing_ring,
    "ball": indicator_ball,
    "borderline-log": borderline_log,
    "tabulated": tabulated,
}

# The builtin weights: every kind built from its defaults alone
CATALOGUE = tuple(kind for kind in WEIGHTS if kind != "tabulated")


def weight_builder(doc):
    """The builder of the weight document doc, a dict with a known "kind"; a
    tabulated weight given by a "csv" field is read by tabulated_from_csv."""
    if doc["kind"] == "tabulated" and "csv" in doc:
        return tabulated_from_csv
    return WEIGHTS[doc["kind"]]


@dataclass
class DecayProbe:
    """Sampled decay sequence r -> sup_{|x-y|=r} |x-y|^(2-alpha) g_dec(x) at one center."""

    center: float
    radii: np.ndarray
    values: np.ndarray
    passed: bool


@dataclass
class WeightSplitReport:
    """Outcome of the sampled admissibility check for one weight."""

    weight: str
    N: int
    alpha: float
    norm_exponent: float
    g1_norm_estimate: float
    g1_norm_verdict: str  # 'finite' | 'divergent' | 'unverifiable'
    g2_norm_estimate: float
    g2_norm_verdict: str
    gplus_norm_estimate: float
    gplus_norm_verdict: str
    probes: list
    infinity: DecayProbe
    decay_pass: bool
    positive_part_nonzero: bool
    overall: str  # 'pass' | 'fail' | 'unverified'
    notes: list = field(default_factory=list)


def _norm_estimate(f, s, N, r_lo, r_hi):
    """Per-decade L^s-norm^s increments of f on [r_lo, r_hi] and a verdict.

    Divergence cannot be certified numerically; the verdict is 'divergent'
    when either the innermost or the outermost decade still contributes a
    non-negligible share of the cumulative integral.
    """
    decades = np.geomspace(r_lo, r_hi, int(round(np.log10(r_hi / r_lo))) + 1)
    increments = []
    for a, b in zip(decades[:-1], decades[1:]):
        val = radial_integral(lambda r: f(r) ** s * r ** (N - 1), a, b)
        increments.append(max(val, 0.0))
    total = float(np.sum(increments))
    if total == 0.0:
        return 0.0, "finite"
    head, tail = increments[0], increments[-1]
    verdict = "divergent" if (tail > 1e-6 * total or head > 1e-6 * total) else "finite"
    return total ** (1.0 / s), verdict


def _decreasing_to_zero(values):
    """True when the sequence decreases strictly (zero plateaus allowed)."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return False
    tiny = 1e-300
    for a, b in zip(values[:-1], values[1:]):
        if b <= tiny and a <= tiny:
            continue
        if not b < a * (1.0 - 1e-9):
            return False
    return True


def _decay_probe(spec, alpha, center, radii):
    """Decay sequence of the decaying part at one probe center |y| = center.

    For radial g the supremum over the sphere |x - y| = r is the supremum of
    g_dec over radii in [|center - r|, center + r], scanned on a dense grid.
    Only radii below the center (spheres not reaching the origin) enter the
    verdict; the limit under test is r -> 0.
    """
    r_small = radii[radii < 0.9 * center] if center > 0 else radii
    if r_small.size < 4:
        r_small = center * np.geomspace(1e-7, 0.5, 8) if center > 0 else radii
    vals = []
    for r in r_small:
        lo, hi = abs(center - r), center + r
        lo = max(lo, 1e-300)
        sample_r = np.geomspace(lo, hi, 257) if lo < hi else np.array([hi])
        sup = float(np.max(spec.g_decaying(sample_r)))
        vals.append(r ** (2.0 - alpha) * sup)
    vals = np.asarray(vals)
    order = np.argsort(r_small)[::-1]  # decreasing radii: sequence should decay
    passed = _decreasing_to_zero(vals[order])
    return DecayProbe(center=float(center), radii=r_small[order], values=vals[order], passed=passed)


def _infinity_probe(spec, alpha, radii):
    """Decay sequence r^(2-alpha) * g_dec(r) along increasing radii."""
    vals = radii ** (2.0 - alpha) * np.asarray(spec.g_decaying(radii), dtype=float)
    passed = _decreasing_to_zero(vals)
    return DecayProbe(center=np.inf, radii=radii, values=vals, passed=passed)


def verify_weight_split(spec, N, alpha):
    """Sampled check of the weight-split hypotheses.

    The weight is sampled at 25 radii from 1e-6 to 1e6; the local decay is
    probed at the centers |y| = 0.5, 1 and 2, and at infinity.
    """
    radii = np.geomspace(1e-6, 1e6, 25)

    notes = []
    r_hi = min(radii[-1], spec.r_max)
    r_lo = max(radii[0], spec.r_min if spec.r_min > 0 else radii[0])
    unverifiable = not spec.verified_split
    if np.isfinite(spec.r_max) and spec.r_max < radii[-1]:
        notes.append(f"sampling truncated to the tabulated range r <= {spec.r_max:g}")

    s = N / (2.0 - alpha)
    g1n, g1v = _norm_estimate(spec.g_integrable, s, N, r_lo, r_hi)
    g2n, g2v = _norm_estimate(spec.g_decaying, s, N, r_lo, r_hi)
    gpn, gpv = _norm_estimate(
        lambda r: spec.g_integrable(r) + spec.g_decaying(r), s, N, r_lo, r_hi
    )
    if unverifiable:
        g1v = g2v = gpv = "unverifiable"
        notes.append("split unverifiable beyond sample range")

    probe_radii = radii[radii <= r_hi]
    probes = [_decay_probe(spec, alpha, c, probe_radii) for c in (0.5, 1.0, 2.0)]
    infinity = _infinity_probe(spec, alpha, probe_radii[probe_radii >= 1.0]
                               if np.any(probe_radii >= 1.0) else probe_radii)
    decay_pass = all(p.passed for p in probes) and infinity.passed

    sample = np.geomspace(max(r_lo, 1e-8), r_hi, 512)
    gplus = spec.g_integrable(sample) + spec.g_decaying(sample)
    positive_nonzero = bool(np.any(gplus > 0.0))

    if unverifiable:
        overall = "unverified"
    elif positive_nonzero and decay_pass and g1v == "finite":
        overall = "pass"
    else:
        overall = "fail"

    return WeightSplitReport(
        weight=spec.name,
        N=N,
        alpha=alpha,
        norm_exponent=s,
        g1_norm_estimate=g1n,
        g1_norm_verdict=g1v,
        g2_norm_estimate=g2n,
        g2_norm_verdict=g2v,
        gplus_norm_estimate=gpn,
        gplus_norm_verdict=gpv,
        probes=probes,
        infinity=infinity,
        decay_pass=decay_pass,
        positive_part_nonzero=positive_nonzero,
        overall=overall,
        notes=notes,
    )
