"""Independent shooting oracle for the radial eigenproblem.

Solves -(r^(alpha+N-1) u')' = lambda g(r) r^(N-1) u on (0, R) with u(R) = 0 by
adaptive integration of the first-order system in (u, v), v = r^(alpha+N-1) u'
being the weighted flux, with scipy's compiled DOP853 (scipy.integrate.ode).
The n-th eigenvalue is bracketed by sweeping lambda
upward from the weighted-Hardy lower bound of lambda_1 until the interior
zero count of u reaches n, then narrowed by one Brent root search on the
terminal miss u(R) (bisection on the count where no sign change certifies the
bracket), and certified by the count transition and miss sign change across
the final bracket. This path shares nothing with the matrix solvers and
serves as their golden reference.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import ode
from scipy.integrate import solve_ivp  # unused here; perfbench/tracing.py wraps this name
from scipy.optimize import brentq

from .inequalities import hardy_constant
from .quadrature import fixed_quad
from .weights import weight_value

RESCALE_LIMIT = 1e120  # rescale the state when it grows past this
R_EPS_FACTOR = 1e-6  # integration starts at r_eps = R_EPS_FACTOR * R
SWEEP_GROWTH = 1.6  # ratio of successive lambdas in the sweep
SWEEP_CAP = 200  # the most lambdas the sweep, or the shrink below its start, tries
RTOL = 1e-11  # the integrator's relative tolerance
REL_WIDTH = 1e-10  # relative width each bracket is narrowed to
FIRST_STEP = 1e-6  # first step of each piece, relative to the piece's length
MAX_STEPS = 10**6  # the integrator's step limit per piece


class OracleError(RuntimeError):
    """Shooting integration failed."""


class NoBracketError(OracleError):
    """The lambda sweep exhausted its range without bracketing the target."""


@dataclass
class ShootingResult:
    lam: float
    index: int            # interior zeros of the converged mode (= n - 1)
    bracket: tuple        # (lambda_lo, lambda_hi), miss changes sign across it
    steps: int            # right-hand-side evaluations made by this call
    certified: bool
    note: str = ""


def shoot(N, alpha, g, R, lam, breakpoints=()):
    """Integrate the radial system from r_eps to R; return (miss, zero_count, nfev).

    Starts at r_eps = R_EPS_FACTOR * R with u = 1 and the series-consistent
    flux v(r_eps) = -lambda * integral_0^r_eps g t^(N-1) dt, the first-order
    behavior of the solution that is regular at the degenerate origin. Each
    smooth piece of the weight is one integration by the compiled DOP853,
    started with a first step of FIRST_STEP times the piece's length: pass
    the weight's discontinuity radii as breakpoints so the integrator never
    steps across a jump. A callback after each accepted step counts the sign
    changes of u between step ends and stops the integration once
    max(|u|, |v|) reaches RESCALE_LIMIT; the state is then renormalized and
    the piece continues from there, as only the sign structure of u matters.
    Returns u(R), the count of interior sign changes and the number of
    right-hand-side evaluations.
    """
    if R <= 0.0:
        raise OracleError("R must be positive")
    if not 0.0 < alpha < 2.0:
        raise OracleError("alpha must lie in (0, 2)")
    r0 = R_EPS_FACTOR * R
    v0 = -lam * fixed_quad(lambda t: g(t) * t ** (N - 1), 0.0, r0, order=12)
    power = alpha + N - 1.0
    nfev = 0
    zeros = 0
    sign = 1.0  # sign of the last nonzero u; u(r_eps) = 1

    def rhs(r, y):
        nonlocal nfev
        nfev += 1
        return (y[1] * r ** (-power), -lam * float(g(r)) * r ** (N - 1) * y[0])

    def step(r, y):
        # called after each accepted step: count a sign change of u against
        # the last nonzero u, and stop the integration (-1) for a rescale
        nonlocal zeros, sign
        if y[0] * sign < 0.0:
            zeros += 1
            sign = -sign
        return -1 if max(abs(y[0]), abs(y[1])) >= RESCALE_LIMIT else 0

    # straddle each jump with a skipped sliver so no piece ever evaluates
    # the weight on both sides of a discontinuity; (u, v) is continuous there
    nudge = 1e-13
    cuts = []
    for c in breakpoints:
        if r0 < c < R:
            cuts.extend([c * (1.0 - nudge), c * (1.0 + nudge)])
    edges = np.unique(np.concatenate([[r0, R], cuts]))
    y = np.array([1.0, v0])
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 3.0 * nudge * b:
            continue  # the sliver across a jump: carry the state over
        # one solver per piece, run to its end before the next is made, as
        # the compiled integrator is not re-entrant. The first step is given,
        # because the integrator's own guess scales with |y| and atol and
        # underflows when v = 0 (the ring: g = 0 on [0, 1))
        solver = ode(rhs).set_integrator("dop853", rtol=RTOL, atol=1e-30,
                                         nsteps=MAX_STEPS, first_step=FIRST_STEP * (b - a))
        solver.set_solout(step)
        r = a
        while r < b:
            y = solver.set_initial_value(y, r).integrate(b)
            if not solver.successful():
                raise OracleError(f"integration failed on [{a:g}, {b:g}] at r = "
                                  f"{solver.t:g} (dop853 return code "
                                  f"{solver.get_return_code()})")
            r = solver.t
            if solver.get_return_code() == 2:  # stopped by step(): rescale, go on
                y = y / max(abs(y[0]), abs(y[1]))
    return float(y[0]), int(zeros), nfev


def shooting_eigenvalue(N, alpha, g, R, n, breakpoints=(), shots=None):
    """Bracket and refine the n-th radial eigenvalue (n >= 1).

    Sweeps lambda geometrically (ratio SWEEP_GROWTH) from the weighted-Hardy
    lower bound of lambda_1 until the zero count reaches n, narrows the count
    transition n-1 -> n to the relative width REL_WIDTH, and certifies
    the result by the terminal-value sign change across the final bracket.
    Once the bracket is certifiable (counts n-1 and n, opposite misses), one
    Brent root search (scipy's brentq) on the terminal miss narrows it, and
    the final bracket is the tightest pair of shots around its root with
    count n-1 below and n above. An uncertifiable bracket, or one Brent left
    wider than REL_WIDTH, is bisected on the count.
    For sign-changing g the count need not be monotone; an uncertified result
    carries a note instead of a guarantee.

    shots memoizes shoot() by lambda for one problem (the same N, alpha, g,
    R and breakpoints): calls for n = 1..k that share the dict share
    one sweep, each reporting in steps only the evaluations it made. The
    bracket is its two ends lo and hi alone; the miss and count at each end
    are read from shots.
    """
    if n < 1:
        raise ValueError("mode number n must be >= 1")
    if shots is None:
        shots = {}
    steps = 0

    def at(lam):
        nonlocal steps
        if lam not in shots:
            miss, zeros, nfev = shoot(N, alpha, g, R, lam, breakpoints=breakpoints)
            shots[lam] = (miss, zeros)
            steps += nfev
        return shots[lam]

    # weighted Hardy: integral g u^2 <= sup(g+ r^(2-alpha)) * C_H * energy,
    # so lambda_1 >= 1 / (C_H sup g+ r^(2-alpha)); a sample that reads the
    # sup low only starts higher, which the shrink loop below corrects
    sample = np.geomspace(1e-3 * R, R, 64)
    peak = float(np.max(np.maximum(g(sample), 0.0) * sample ** (2.0 - alpha)))
    if peak == 0.0:
        raise NoBracketError("the weight has no positive part on the sampled domain")
    lam_start = 1.0 / (hardy_constant(N, alpha) * peak)

    notes = []
    lam = lam_start
    zeros = at(lam)[1]
    sweep_counts = [zeros]
    # ensure the start is below the target count
    shrink = 0
    while zeros >= n and shrink < SWEEP_CAP:
        lam /= SWEEP_GROWTH**2
        zeros = at(lam)[1]
        shrink += 1
    if zeros >= n:
        raise NoBracketError(
            f"could not get below {n} zeros while shrinking lambda to {lam:g}"
        )
    lo, hi = lam, None
    for _ in range(SWEEP_CAP):
        lam *= SWEEP_GROWTH
        zeros = at(lam)[1]
        sweep_counts.append(zeros)
        if zeros >= n:
            hi = lam
            break
        lo = lam
    if hi is None:
        raise NoBracketError(
            f"sweep over [{lam_start:g}, {lam:g}] never reached {n} interior zeros"
        )
    if np.any(np.diff(sweep_counts) < 0):
        notes.append("zero count non-monotone along the sweep (sign-changing weight?)")

    def certifiable():
        return (shots[lo][1], shots[hi][1]) == (n - 1, n) and shots[lo][0] * shots[hi][0] < 0.0

    brent = True
    while (hi - lo) > REL_WIDTH * hi:
        if brent and certifiable():
            brent = False  # one Brent call per bracket; bisection finishes
            root = brentq(lambda lam: at(lam)[0], lo, hi, xtol=1e-300,
                          rtol=REL_WIDTH, disp=False)
            inside = [lam for lam in shots if lo <= lam <= hi]
            lo = max(lam for lam in inside if lam <= root and shots[lam][1] == n - 1)
            hi = min(lam for lam in inside if lam >= root and shots[lam][1] == n)
            continue
        lam = 0.5 * (lo + hi)
        if at(lam)[1] >= n:
            hi = lam
        else:
            lo = lam

    certified = certifiable()
    if not certified:
        notes.append(
            f"bracket uncertified: counts ({shots[lo][1]}, {shots[hi][1]}), "
            f"miss product {shots[lo][0] * shots[hi][0]:g}"
        )
    lam_n = 0.5 * (lo + hi)
    return ShootingResult(
        lam=float(lam_n),
        index=int(shots[lo][1]),
        bracket=(float(lo), float(hi)),
        steps=int(steps),
        certified=bool(certified),
        note="; ".join(notes),
    )


def radial_weight_callable(spec):
    """Adapt a WeightSpec to the radial callable g(r) = weight_value(spec, r)
    the oracle expects: shoot's right-hand side passes the integrator's float
    radius once per evaluation, the series flux and the Hardy start an array.
    """
    return partial(weight_value, spec)
