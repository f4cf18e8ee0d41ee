"""Panel-based Gauss-Legendre quadrature for radial integrals.

Integrands of the form f(r) = w(r) * smooth(r) with power-law weights are
handled by grading the panels geometrically toward the left endpoint, so a
singular-but-integrable factor r^p (p > -1) costs accuracy only on the
innermost panel.
"""

import numpy as np

_GAUSS_CACHE = {}


def gauss_rule(order):
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def fixed_quad(f, a, b, order=20):
    """Gauss-Legendre integral of f over [a, b]."""
    x, w = gauss_rule(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.sum(w * f(mid + half * x))


def radial_integral(f, r_lo, r_hi, order=20, panels_per_decade=6):
    """Integrate f over [r_lo, r_hi] on geometrically graded panels, at least 8.

    f must accept a numpy array of radii and return an array of values. The
    caller includes any measure factor (e.g. r^(N-1)) in f itself.
    """
    if r_hi <= r_lo:
        return 0.0
    if r_lo <= 0.0:
        raise ValueError("radial_integral needs r_lo > 0; shift the lower end")
    decades = np.log10(r_hi / r_lo)
    panels = max(8, int(np.ceil(panels_per_decade * decades)))
    edges = np.geomspace(r_lo, r_hi, panels + 1)
    x, w = gauss_rule(order)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    pts = mids[:, None] + halves[:, None] * x[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return float(np.sum(halves * (vals @ w)))
