"""degeig: eigenvalues of -div(|x|^alpha grad u) = lambda g(x) u on truncated domains.

The positive spectrum of the degenerate pencil is computed as its successive
constrained Rayleigh-quotient minimizers, which one block eigensolver call
finds together, cross-checked against a dense generalized eigensolver and an independent
shooting oracle, and supported by numerical verification of the weighted
Hardy, Sobolev, and interpolation inequalities the method rests on.
"""

import gc

# the ~90 000 objects that importing numpy, scipy and the modules makes live to
# exit: the cyclic collector, off while they come in, is restored as the importer
# had it only once gc.freeze() has moved them out of its reach
_collecting = gc.isenabled()
gc.disable()
try:
    from .assembly import (DiscreteOperatorPair, assemble_grid3d, assemble_radial,
                           energy_inner, hardy_inner, lp_norm, mass_inner)
    from .config import ConfigError, PRESETS, load_config, load_preset
    from .eigensolve import (EigenSequence, SolverSettings, growth_diagnostics,
                             residual, solve_dense, solve_successive)
    from .inequalities import (CknParams, check_ckn_radial, check_hardy,
                               check_sobolev, critical_exponent, hardy_constant)
    from .mesh import Grid3D, RadialMesh, build_grid3d, build_radial_mesh
    from .oracle import ShootingResult, shoot, shooting_eigenvalue
    from .weights import (WeightSpec, borderline_log, compact_bump, gaussian_bump,
                          indicator_ball, sign_changing_ring, tabulated,
                          verify_weight_split, weight_split, weight_value)
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

__version__ = "0.1.0"
