"""Problem configuration: validation, JSON ingestion, and shipped presets.

A configuration document is a nested key-value JSON file with a 'problem'
section (dimension, exponent, weight, geometry, solver) and optional
command sections (refinement ladder, golden file, output directory, seed).
Every preset is defined here in code so the full acceptance surface runs
offline.
"""

import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Optional

from . import weights as W
from .eigensolve import SolverSettings
from .mesh import MeshError, build_grid3d, build_radial_mesh, grading_for_span


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


DEFAULT_GRADING_SPAN = 1e4  # element dynamic range h_max / h_1 of graded meshes


@dataclass
class RadialGeometry:
    R: float
    M: int
    q: Optional[float] = None  # explicit grading factor; wins over span
    span: float = DEFAULT_GRADING_SPAN

    mode = "radial"

    def grading(self):
        return self.q if self.q is not None else grading_for_span(self.M, self.span)

    def build(self, N):
        """The mesh, the same for every dimension N."""
        return build_radial_mesh(self.R, self.M, self.grading())


@dataclass
class Grid3DGeometry:
    L: float
    n: int

    mode = "grid3d"

    def build(self, N):
        if N != 3:
            raise MeshError("grid mode requires N = 3")
        return build_grid3d(self.L, self.n)


@dataclass
class ProblemConfig:
    N: int
    alpha: float
    weight: W.WeightSpec
    geometry: object
    solver: SolverSettings

    def validate(self):
        if int(self.N) != self.N or self.N < 3:
            raise ConfigError("problem.N: dimension must be an integer >= 3")
        if not 0.0 < self.alpha < 2.0:
            raise ConfigError("problem.alpha: the exponent must lie in the open interval (0, 2)")
        with _reading("problem.solver"):
            self.solver.validate()
        with _reading("problem.geometry"):
            self.geometry.build(self.N)
        return self


@dataclass
class RunConfig:
    problem: ProblemConfig
    seed: int = 42
    out_dir: str = "out"
    ladder: list = field(default_factory=list)     # [{'M':..., 'R':...}, ...] for converge
    golden_path: str = None                        # oracle golden file to compare against
    export_matrices: bool = False

    def rungs(self):
        """The ladder's geometries: the problem's, with each rung's fields. A
        rung that sets span but not q is graded by its span."""
        return [replace(self.problem.geometry, **({"q": None, **rung} if "span" in rung else rung))
                for rung in self.ladder]

    def validate(self):
        sizes = [rung["M"] for rung in self.ladder]
        if any(b <= a for a, b in zip(sizes[:-1], sizes[1:])):
            raise ConfigError("ladder: mesh sizes must be strictly increasing")
        if self.problem.geometry.mode == "radial":
            for i, geometry in enumerate(self.rungs()):
                with _reading(f"ladder[{i}]"):
                    geometry.build(self.problem.N)
        return self


@contextmanager
def _reading(where):
    """Report a bad value met while reading section `where` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _typed(types, what, convert=None):
    """A converter that refuses a value not of `types` (a JSON true or false is
    only a bool) and returns the value, passed through convert if given."""
    def check(value):
        if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
            raise ValueError(f"expected {what}, got {value!r}")
        return convert(value) if convert else value
    return check


def _finite(value):
    """value as a float, refusing NaN and the infinities, which json reads."""
    if not math.isfinite(number := float(value)):  # an int past a float's range: OverflowError
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


# The converter of each field type; a field of type object takes any value
_CONVERTERS = {
    object: lambda value: value,
    int: _typed((int,), "an integer"),
    float: _typed((int, float), "a number", _finite),
    Optional[float]: _typed((int, float, type(None)), "a number or null",
                            lambda value: None if value is None else _finite(value)),
    str: _typed((str,), "a string"),
    bool: _typed((bool,), "true or false"),
    list: _typed((list,), "a list"),
}


def _fields(d, where, types, required=()):
    """The fields of section `where`, each converted by the converter of its type.

    An unknown field, a missing required one or a value its converter refuses
    is a ConfigError naming the field.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    for name in required:
        if name not in d:
            raise ConfigError(f"{where}.{name}: required field missing")
    converted = {}
    for name, value in d.items():
        with _reading(f"{where}.{name}"):
            converted[name] = _CONVERTERS[types[name]](value)
    return converted


def _settings(cls, d, where):
    """The dataclass cls from section `where`; a field without a default is required."""
    required = [f.name for f in fields(cls) if f.default is MISSING]
    return cls(**_fields(d, where, {f.name: f.type for f in fields(cls)}, required))


def weight_from_dict(d, N, alpha):
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind is None:
        raise ConfigError("problem.weight: expected an object with a 'kind' field")
    if not isinstance(kind, str) or kind not in W.WEIGHTS:
        raise ConfigError(f"problem.weight.kind: unknown weight '{kind}'")
    builder = W.weight_builder(d)
    params = inspect.signature(builder).parameters
    problem = {name: value for name, value in (("N", N), ("alpha", alpha)) if name in params}
    own = [name for name in params if name not in problem]
    types = {name: object if params[name].annotation is params[name].empty
             else params[name].annotation for name in own}
    values = _fields(d, "problem.weight", {"kind": object, **types},
                     [name for name in own if params[name].default is params[name].empty])
    del values["kind"]
    with _reading("problem.weight"):
        return builder(**values, **problem)


def geometry_from_dict(d):
    modes = {cls.mode: cls for cls in (RadialGeometry, Grid3DGeometry)}
    mode = d.get("mode") if isinstance(d, dict) else None
    if mode is None:
        raise ConfigError("problem.geometry: expected an object with a 'mode' field")
    if not isinstance(mode, str) or mode not in modes:
        raise ConfigError(f"problem.geometry.mode: unknown mode '{mode}'")
    return _settings(modes[mode], {k: v for k, v in d.items() if k != "mode"},
                     "problem.geometry")


def problem_from_dict(d):
    d = _fields(d, "problem", {"N": int, "alpha": float, "weight": object, "geometry": object,
                               "solver": object},
                ("N", "alpha", "weight", "geometry"))
    return ProblemConfig(
        N=d["N"],
        alpha=d["alpha"],
        weight=weight_from_dict(d["weight"], d["N"], d["alpha"]),
        geometry=geometry_from_dict(d["geometry"]),
        solver=_settings(SolverSettings, d.get("solver") or {}, "problem.solver"),
    ).validate()


def run_config_from_dict(d):
    d = _fields(d, "config", {"problem": object, "seed": int, "out": str, "ladder": list,
                              "golden": str, "export_matrices": bool},
                ("problem",))
    run = RunConfig(
        problem=problem_from_dict(d["problem"]),
        seed=d.get("seed", 42),
        out_dir=d.get("out", "out"),
        ladder=[_fields(rung, f"ladder[{i}]", {f.name: f.type for f in fields(RadialGeometry)},
                        ("M",))
                for i, rung in enumerate(d.get("ladder", []))],
        golden_path=d.get("golden"),
        export_matrices=d.get("export_matrices", False),
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
    except ValueError as exc:  # an integer of more than 4300 digits, say
        raise ConfigError(f"{path}: {exc}") from exc
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
