"""Problem configuration: validation, JSON ingestion, and shipped presets.

A configuration document is a nested key-value JSON file with a 'problem'
section (dimension, exponent, weight, geometry, solver) and optional
command sections (refinement ladder, golden file, output directory, seed).
Every preset is defined here in code so the full acceptance surface runs
offline.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import weights as W
from .eigensolve import SolverSettings
from .mesh import build_grid3d, build_radial_mesh, grading_for_span


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


DEFAULT_GRADING_SPAN = 1e4  # element dynamic range h_max / h_1 of graded meshes


@dataclass
class RadialGeometry:
    R: float
    M: int
    q: float = None          # explicit grading factor; wins over span
    span: float = DEFAULT_GRADING_SPAN

    mode = "radial"

    def grading(self):
        return self.q if self.q is not None else grading_for_span(self.M, self.span)

    def build(self, dimension):
        return build_radial_mesh(self.R, self.M, self.grading(), dimension)


@dataclass
class Grid3DGeometry:
    L: float
    n: int

    mode = "grid3d"

    def build(self, dimension):
        if dimension != 3:
            raise ConfigError("problem.geometry: the grid mode is 3-d only")
        return build_grid3d(self.L, self.n)


@dataclass
class ProblemConfig:
    N: int
    alpha: float
    weight: W.WeightSpec
    weight_dict: dict
    geometry: object
    solver: SolverSettings

    def validate(self):
        if int(self.N) != self.N or self.N < 3:
            raise ConfigError("problem.N: dimension must be an integer >= 3")
        if not 0.0 < self.alpha < 2.0:
            raise ConfigError("problem.alpha: the exponent must lie in the open interval (0, 2)")
        try:
            self.solver.validate()
        except ValueError as exc:
            raise ConfigError(f"problem.solver: {exc}") from exc
        if isinstance(self.geometry, Grid3DGeometry) and self.N != 3:
            raise ConfigError("problem.geometry: grid mode requires N = 3")
        return self


@dataclass
class RunConfig:
    problem: ProblemConfig
    seed: int = 42
    out_dir: str = "out"
    ladder: list = field(default_factory=list)     # [{'M':..., 'R':...}, ...] for converge
    golden_path: str = None                        # oracle golden file to compare against
    export_matrices: bool = False

    def validate(self):
        self.problem.validate()
        if self.ladder:
            sizes = [r["M"] for r in self.ladder]
            if any(b <= a for a, b in zip(sizes[:-1], sizes[1:])):
                raise ConfigError("ladder: mesh sizes must be strictly increasing")
        return self


def weight_from_dict(d, N, alpha):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("problem.weight: expected an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "gaussian":
            return W.gaussian_bump(d.get("amplitude", 1.0), d.get("width", 1.0))
        if kind == "compact-bump":
            return W.compact_bump(d.get("radius", 1.0), d.get("amplitude", 1.0))
        if kind == "ring":
            return W.sign_changing_ring(
                d.get("inner", 1.0), d.get("outer", 2.0),
                d.get("pos_amplitude", 1.0), d.get("neg_amplitude", -0.5),
            )
        if kind == "ball":
            return W.indicator_ball(d.get("radius", 1.0))
        if kind == "borderline-log":
            return W.borderline_log(N, alpha)
        if kind == "tabulated":
            if "csv" in d:
                return W.tabulated_from_csv(d["csv"], d.get("rule", "linear"))
            return W.tabulated(
                np.asarray(d["radii"], float), np.asarray(d["values"], float),
                d.get("rule", "linear"),
            )
    except (ValueError, OSError) as exc:
        raise ConfigError(f"problem.weight: {exc}") from exc
    raise ConfigError(f"problem.weight.kind: unknown weight '{kind}'")


def geometry_from_dict(d):
    if not isinstance(d, dict) or "mode" not in d:
        raise ConfigError("problem.geometry: expected an object with a 'mode' field")
    mode = d["mode"]
    try:
        if mode == "radial":
            return RadialGeometry(
                R=float(d["R"]), M=int(d["M"]), q=d.get("q"),
                span=float(d.get("span", DEFAULT_GRADING_SPAN)),
            )
        if mode == "grid3d":
            return Grid3DGeometry(L=float(d["L"]), n=int(d["n"]))
    except KeyError as exc:
        raise ConfigError(f"problem.geometry: missing field {exc}") from exc
    raise ConfigError(f"problem.geometry.mode: unknown mode '{mode}'")


def solver_from_dict(d):
    d = d or {}
    allowed = {"k", "tol", "max_iter"}
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"problem.solver: unknown fields {sorted(unknown)}")
    return SolverSettings(**d)


def problem_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigError("problem: expected an object")
    for fieldname in ("N", "alpha", "weight", "geometry"):
        if fieldname not in d:
            raise ConfigError(f"problem.{fieldname}: required field missing")
    N = d["N"]
    alpha = d["alpha"]
    if not isinstance(N, int):
        raise ConfigError("problem.N: dimension must be an integer >= 3")
    return ProblemConfig(
        N=N,
        alpha=float(alpha),
        weight=weight_from_dict(d["weight"], N, float(alpha)),
        weight_dict=dict(d["weight"]),
        geometry=geometry_from_dict(d["geometry"]),
        solver=solver_from_dict(d.get("solver")),
    ).validate()


def run_config_from_dict(d):
    if not isinstance(d, dict) or "problem" not in d:
        raise ConfigError("config: expected an object with a 'problem' section")
    run = RunConfig(
        problem=problem_from_dict(d["problem"]),
        seed=int(d.get("seed", 42)),
        out_dir=str(d.get("out", "out")),
        ladder=list(d.get("ladder", [])),
        golden_path=d.get("golden"),
        export_matrices=bool(d.get("export_matrices", False)),
    )
    return run.validate()


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return run_config_from_dict(doc)


def _radial_preset(weight, alpha, M=512, R=6.0, k=6):
    return {
        "problem": {
            "N": 3,
            "alpha": alpha,
            "weight": weight,
            "geometry": {"mode": "radial", "R": R, "M": M},
            "solver": {"k": k, "tol": 1e-9},
        },
        "ladder": [{"M": 128, "R": R}, {"M": 256, "R": R}, {"M": 512, "R": R}],
        "seed": 42,
    }


def _preset_dicts():
    presets = {}
    for alpha, tag in ((0.5, "0.5"), (1.0, "1"), (1.5, "1.5")):
        presets[f"gaussian-n3-a{tag}"] = _radial_preset({"kind": "gaussian"}, alpha)
        presets[f"ring-n3-a{tag}"] = _radial_preset({"kind": "ring"}, alpha)
    presets["ball-n3-a1"] = _radial_preset({"kind": "ball"}, 1.0)
    presets["bump-n3-a1"] = _radial_preset({"kind": "compact-bump"}, 1.0)
    presets["grid3d-gaussian-a1"] = {
        "problem": {
            "N": 3,
            "alpha": 1.0,
            "weight": {"kind": "gaussian"},
            "geometry": {"mode": "grid3d", "L": 6.0, "n": 41},
            "solver": {"k": 1, "tol": 1e-9},
        },
        "seed": 42,
    }
    return presets


PRESETS = _preset_dicts()


def load_preset(name):
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset '{name}'; available: {', '.join(sorted(PRESETS))}"
        )
    return run_config_from_dict(PRESETS[name])
