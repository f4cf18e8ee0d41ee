"""Independent shooting oracle for the radial eigenproblem.

Solves -(r^(alpha+N-1) u')' = lambda g(r) r^(N-1) u on (0, R) with u(R) = 0 by
adaptive integration of the first-order system in (u, v), v = r^(alpha+N-1) u'
being the weighted flux. The n-th eigenvalue is bracketed by sweeping lambda
upward from the weighted-Hardy lower bound of lambda_1 until the interior
zero count of u reaches n, then narrowed by a secant on the terminal miss
u(R) with bisection as its safeguard, and certified by the count transition
and miss sign change across the final bracket. This path shares nothing with
the matrix solvers and serves as their golden reference.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .inequalities import hardy_constant
from .quadrature import fixed_quad

RESCALE_LIMIT = 1e120  # rescale the state when it grows past this


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
    miss: float           # |u(R)| at the bracket's lower end, lambda_lo
    certified: bool
    note: str = ""


def shoot(N, alpha, g, R, lam, rtol=1e-11, r_eps_factor=1e-6, segments=16,
          breakpoints=()):
    """Integrate the radial system from r_eps to R; return (miss, zero_count).

    Starts at r_eps = r_eps_factor * R with u = 1 and the series-consistent
    flux v(r_eps) = -lambda * integral_0^r_eps g t^(N-1) dt, the first-order
    behavior of the solution that is regular at the degenerate origin. The
    state is renormalized whenever it overflows; only the sign structure of u
    matters. Pass the weight's discontinuity radii as breakpoints so the
    adaptive integrator never steps across a jump. Returns u(R) and the count
    of interior sign changes.
    """
    if R <= 0.0:
        raise OracleError("R must be positive")
    if not 0.0 < alpha < 2.0:
        raise OracleError("alpha must lie in (0, 2)")
    r0 = r_eps_factor * R
    v0 = -lam * fixed_quad(lambda t: g(t) * t ** (N - 1), 0.0, r0, order=12)
    power = alpha + N - 1.0

    def rhs(r, y):
        return (y[1] * r ** (-power), -lam * float(g(r)) * r ** (N - 1) * y[0])

    def crossing(r, y):
        return y[0]

    # straddle each jump with a skipped sliver so no segment ever evaluates
    # the weight on both sides of a discontinuity; (u, v) is continuous there
    nudge = 1e-13
    cuts = []
    for c in breakpoints:
        if r0 < c < R:
            cuts.extend([c * (1.0 - nudge), c * (1.0 + nudge)])
    edges = np.unique(np.concatenate([np.geomspace(r0, R, segments + 1), cuts]))
    y = np.array([1.0, v0])
    zeros = 0
    nfev = 0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 3.0 * nudge * b:
            continue  # the sliver across a jump: carry the state over
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol,
                        atol=1e-30, events=crossing, dense_output=False)
        if not sol.success:
            raise OracleError(f"integration failed on [{a:g}, {b:g}]: {sol.message}")
        nfev += sol.nfev
        zeros += len(sol.t_events[0])
        y = sol.y[:, -1].copy()
        peak = max(abs(y[0]), abs(y[1]))
        if peak > RESCALE_LIMIT:
            y /= peak
    return float(y[0]), int(zeros), nfev


def shooting_eigenvalue(N, alpha, g, R, n, lam_start=None, growth=1.6,
                        sweep_cap=200, rel_width=1e-10, rtol=1e-11,
                        breakpoints=(), shots=None):
    """Bracket and refine the n-th radial eigenvalue (n >= 1).

    Sweeps lambda geometrically until the zero count reaches n, narrows the
    count transition n-1 -> n to the requested relative width, and certifies
    the result by the terminal-value sign change across the final bracket.
    While the bracket is certifiable (counts n-1 and n, opposite misses) the
    step is Illinois regula falsi on the terminal miss; otherwise, and after
    any step that failed to halve the bracket, it is a bisection step.
    For sign-changing g the count need not be monotone; an uncertified result
    carries a note instead of a guarantee.

    shots memoizes shoot() by lambda for one problem (the same N, alpha, g,
    R, rtol and breakpoints): calls for n = 1..k that share the dict share
    one sweep, each reporting in steps only the evaluations it made.
    """
    if n < 1:
        raise ValueError("mode number n must be >= 1")
    if shots is None:
        shots = {}
    steps = 0

    def at(lam):
        nonlocal steps
        if lam not in shots:
            miss, zeros, nfev = shoot(N, alpha, g, R, lam, rtol=rtol,
                                      breakpoints=breakpoints)
            shots[lam] = (miss, zeros)
            steps += nfev
        return shots[lam]

    if lam_start is None:
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
    miss, zeros = at(lam)
    sweep_counts = [zeros]
    # ensure the start is below the target count
    shrink = 0
    while zeros >= n and shrink < sweep_cap:
        lam /= growth**2
        miss, zeros = at(lam)
        shrink += 1
    if zeros >= n:
        raise NoBracketError(
            f"could not get below {n} zeros while shrinking lambda to {lam:g}"
        )
    lo, miss_lo, count_lo = lam, miss, zeros
    hi = None
    for _ in range(sweep_cap):
        lam *= growth
        miss, zeros = at(lam)
        sweep_counts.append(zeros)
        if zeros >= n:
            hi, miss_hi, count_hi = lam, miss, zeros
            break
        lo, miss_lo, count_lo = lam, miss, zeros
    if hi is None:
        raise NoBracketError(
            f"sweep over [{lam_start:g}, {lam:g}] never reached {n} interior zeros"
        )
    if np.any(np.diff(sweep_counts) < 0):
        notes.append("zero count non-monotone along the sweep (sign-changing weight?)")

    # Illinois: the secant runs through (lo, f_lo) and (hi, f_hi); an end kept
    # by two successive secant steps has its f halved, so the next secant
    # point lands past the root and both ends close in
    f_lo, f_hi = miss_lo, miss_hi
    moved = 0   # end replaced by the last secant step: -1 lo, +1 hi
    halved = True
    while (hi - lo) > rel_width * hi:
        width = hi - lo
        lam = 0.5 * (lo + hi)
        secant = halved and count_lo == n - 1 and count_hi == n and miss_lo * miss_hi < 0.0
        if secant:
            # keep off the ends: a guess on top of a converged end would leave
            # the other end where it is
            nudge = 0.5 * rel_width * hi
            guess = hi - f_hi * width / (f_hi - f_lo)
            lam = min(max(guess, lo + nudge), hi - nudge)
        miss, zeros = at(lam)
        if zeros >= n:
            if secant and moved == 1:
                f_lo *= 0.5
            hi, miss_hi, count_hi, f_hi = lam, miss, zeros, miss
        else:
            if secant and moved == -1:
                f_hi *= 0.5
            lo, miss_lo, count_lo, f_lo = lam, miss, zeros, miss
        if secant:
            moved = 1 if zeros >= n else -1
        halved = (hi - lo) <= 0.5 * width

    certified = (count_lo == n - 1) and (count_hi == n) and (miss_lo * miss_hi < 0.0)
    if not certified:
        notes.append(
            f"bracket uncertified: counts ({count_lo}, {count_hi}), "
            f"miss product {miss_lo * miss_hi:g}"
        )
    lam_n = 0.5 * (lo + hi)
    return ShootingResult(
        lam=float(lam_n),
        index=int(count_lo),
        bracket=(float(lo), float(hi)),
        steps=int(steps),
        miss=float(abs(miss_lo)),
        certified=bool(certified),
        note="; ".join(notes),
    )


def radial_weight_callable(spec):
    """Adapt a WeightSpec to the radial callable the oracle expects.

    A float radius (numpy's float64 included: solve_ivp passes one per
    right-hand-side evaluation) goes to the spec's scalar evaluator when it
    has one; arrays, and weights without one, go through weight_value.
    """
    from .weights import weight_value

    scalar = spec.scalar

    def g(r):
        if scalar is not None and isinstance(r, float):
            return scalar(r)
        return weight_value(spec, r)

    return g
