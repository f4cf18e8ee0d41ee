"""Workload definitions: the CLI commands each workload runs, and why.

A case is one `degeig` command. Its `problem` is the problem the command
solves, written out in full so the output check can refuse a reference that
belongs to another N, alpha, weight or R. Presets are run through `--preset`
(the path users take), with their problem copied here from the preset table.

`known_failure` names a defect the program has at the commit the benchmark was
defined on. Such a case still counts as failed when it fails; the note only
explains the failure in the output.
"""

from dataclasses import dataclass, field


def radial(weight, alpha, M, k, N=3, R=6.0, q=None):
    geometry = {"mode": "radial", "R": R, "M": M}
    if q is not None:
        geometry["q"] = q
    return {"N": N, "alpha": alpha, "weight": {"kind": weight},
            "geometry": geometry, "solver": {"k": k, "tol": 1e-9}}


def grid(n, k, L=6.0, max_iter=None):
    solver = {"k": k, "tol": 1e-9}
    if max_iter is not None:
        solver["max_iter"] = max_iter
    return {"N": 3, "alpha": 1.0, "weight": {"kind": "gaussian"},
            "geometry": {"mode": "grid3d", "L": L, "n": n}, "solver": solver}


PRESET_LADDER = [{"M": 128, "R": 6.0}, {"M": 256, "R": 6.0}, {"M": 512, "R": 6.0}]


@dataclass
class Case:
    id: str
    command: str               # solve | converge | check | oracle | catalogue
    problem: dict = None       # None only for catalogue
    preset: str = None         # run with --preset instead of --config
    ladder: list = field(default_factory=list)
    catalogue_args: tuple = ()
    known_failure: str = None

    def config(self):
        """The JSON document passed with --config (and used for set-up)."""
        doc = {"problem": self.problem, "seed": 42}
        if self.ladder:
            doc["ladder"] = self.ladder
        return doc


# The four case groups below were planned as four workloads. On the 2-core
# machine the bounds were set on, speed drifted by up to 1.6x over seconds to
# minutes, and one ~18 s pass per run was too short to be steady; a run budget
# of 4 + 22 x workloads runs leaves room for ~35 s passes only with two
# workloads, so each runs two groups.

# Radial solve across weight sign, alpha, N and the order relative to the
# dense threshold (2000) and the direct-factorization threshold (20000).
RADIAL_SOLVE = [
    Case("solve-gaussian-n3-a1", "solve", radial("gaussian", 1.0, 512, 6),
         preset="gaussian-n3-a1"),
    Case("solve-ring-n3-a1.5", "solve", radial("ring", 1.5, 512, 6), preset="ring-n3-a1.5"),
    Case("solve-gaussian-a1-M2000", "solve", radial("gaussian", 1.0, 2000, 6)),
    Case("solve-gaussian-n5-M2000", "solve", radial("gaussian", 1.0, 2000, 6, N=5),
         known_failure="max_residual above 1e-8 after the shift-invert polish; "
                       "the warning wrongly says 'hit the iteration cap'"),
    Case("solve-ring-a1-M8192-k24", "solve", radial("ring", 1.0, 8192, 24)),
    Case("solve-gaussian-a1-M32768", "solve", radial("gaussian", 1.0, 32768, 6),
         known_failure="order above FACTOR_THRESHOLD takes Jacobi-CG on a "
                       "tridiagonal A; inner CG does not converge"),
]
# Cube grid: Jacobi-CG inner solves and grid assembly; no radial route runs.
GRID_SOLVE = [
    Case("solve-grid41-k1", "solve", grid(41, 1), preset="grid3d-gaussian-a1"),
    # On some seeds one pair stalls at residual ~1.1e-9 against tol 1e-9 and
    # runs to max_iter; at the default 8000 that doubles the command's time on
    # those seeds only. 400 keeps the stall (warning, iteration count) while
    # bounding its cost: converging pairs need under 50.
    Case("solve-grid31-k6", "solve", grid(31, 6, max_iter=400),
         known_failure="the exact octahedral triple violates "
                       "positive_strictly_increasing (ROADMAP 2a)"),
]
# Shooting oracle only: scalar weight calls inside every RHS evaluation.
ORACLE = [
    Case("oracle-gaussian-a1-k3", "oracle", radial("gaussian", 1.0, 512, 3)),
    Case("oracle-ring-a1-k3", "oracle", radial("ring", 1.0, 512, 3)),
]
# Many small pencils, the restart path, inequality checks and the weight
# catalogue: the only group that runs inequalities, quadrature and
# verify_weight_split.
RADIAL_STUDY = [
    Case("converge-gaussian-n3-a1", "converge", radial("gaussian", 1.0, 512, 6),
         preset="gaussian-n3-a1", ladder=PRESET_LADDER),
    Case("converge-ring-n3-a1", "converge", radial("ring", 1.0, 512, 6),
         preset="ring-n3-a1", ladder=PRESET_LADDER),
    Case("check-gaussian-n3-a1", "check", radial("gaussian", 1.0, 512, 6),
         preset="gaussian-n3-a1"),
    Case("catalogue-n3-a1", "catalogue", catalogue_args=("--N", "3", "--alpha", "1.0")),
    Case("solve-ring-M16-partial", "solve", radial("ring", 1.0, 16, 14, q=1.0)),
]

WORKLOADS = {"solve": RADIAL_SOLVE + GRID_SOLVE, "study": ORACLE + RADIAL_STUDY}

WHY = {
    "solve": "radial and cube-grid solve: dense, LU and Jacobi-CG routes around the 2000 "
             "and 20000 order thresholds; no oracle or inequality code runs",
    "study": "shooting oracle, converge, check, catalogue and an exhausting partial solve: "
             "scalar weight calls, restarts, quadrature; no dense, CG or grid code runs",
}

# Per-layer metrics that must be nonzero on a workload's traced run, because
# the workload is the one that should move them.
MUST_FIRE = {
    "solve": [
        "config.load_s", "mesh.build_s", "assembly.radial_s", "assembly.grid3d_s",
        "assembly.dofs", "eigensolve.dense_s", "eigensolve.successive_s",
        "eigensolve.ascent_iters", "eigensolve.factor_calls", "eigensolve.factor_s",
        "eigensolve.cg_calls", "eigensolve.cg_iters", "eigensolve.growth_s",
        "eigensolve.max_residual", "reports.write_s", "reports.bytes",
    ],
    "study": [
        "config.load_s", "mesh.build_s", "assembly.radial_s", "weights.value_calls",
        "weights.value_s", "weights.verify_s", "eigensolve.attempts",
        "eigensolve.useful_ratio", "eigensolve.eigh_calls", "oracle.eigen_s",
        "oracle.shots", "oracle.rhs_evals", "oracle.certified_ratio",
        "inequalities.check_s", "quadrature.radial_integral_calls",
    ],
}
ALL_WORKLOADS_FIRE = ["import.degeig_s", "import.scipy_integrate_s", "cli.self_s"]
