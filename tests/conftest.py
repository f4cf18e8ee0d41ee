"""Shared fixtures: assembled operator pairs and solved sequences at preset sizes.

The acceptance presets (two weights x three exponents at M = 512) are expensive
enough to share session-wide; unit tests reuse the same objects.
"""

import numpy as np
import pytest

from degeig.assembly import assemble_radial
from degeig.config import DEFAULT_GRADING_SPAN
from degeig.eigensolve import SolverSettings, solve_dense, solve_successive
from degeig.mesh import build_radial_mesh, grading_for_span
from degeig.weights import gaussian_bump, sign_changing_ring

R_PRESET = 6.0
ALPHAS = (0.5, 1.0, 1.5)


def preset_mesh(M, R=R_PRESET):
    return build_radial_mesh(R, M, grading_for_span(M, DEFAULT_GRADING_SPAN))


def preset_pair(weight_name, alpha, M, R=R_PRESET):
    spec = {"gaussian": gaussian_bump, "ring": sign_changing_ring}[weight_name]()
    return assemble_radial(preset_mesh(M, R), 3, alpha, spec)


@pytest.fixture(scope="session")
def pairs_512():
    """All six acceptance presets assembled at M = 512."""
    return {
        (w, a): preset_pair(w, a, 512)
        for w in ("gaussian", "ring")
        for a in ALPHAS
    }


@pytest.fixture(scope="session")
def pairs_128():
    return {
        (w, a): preset_pair(w, a, 128)
        for w in ("gaussian", "ring")
        for a in ALPHAS
    }


@pytest.fixture(scope="session")
def solved_512(pairs_512):
    """Successive solves (k = 6) of the six presets, with wall time."""
    import time

    out = {}
    t0 = time.time()
    for key, pair in pairs_512.items():
        out[key] = solve_successive(pair, settings=SolverSettings(k=6))
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="session")
def dense_512(pairs_512):
    return {key: solve_dense(pair, 6) for key, pair in pairs_512.items()}


@pytest.fixture(scope="session")
def gaussian_pair_512(pairs_512):
    return pairs_512[("gaussian", 1.0)]


@pytest.fixture(scope="session")
def gaussian_seq_512(solved_512):
    return solved_512[("gaussian", 1.0)]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
