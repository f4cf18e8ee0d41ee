"""In-process tracing of `degeig.cli.main` from outside the package.

`Tracer.install()` wraps every public function of each `degeig` module, the
private `_maximize_quotient` (one ascent attempt) and the scipy calls the
modules make (`splu`, `cg`, `eigh`, `cholesky`, `solve_triangular`,
`solve_ivp`). A function bound into another module with `from ... import` is
replaced there too, so `cli.assemble_radial` is traced like
`assembly.assemble_radial`. `uninstall()` puts every original back.

Each call of a wrapped function is a span (name, start, end, parent, command
id), kept in memory. The scalar helpers called once per element or per RHS
evaluation (`LEAVES`) are not spans: their calls and time are added to the
enclosing span, which keeps the trace small. A span's layer is the module
that makes the call; a scipy call belongs to the module that calls it.
"""

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "config", "mesh", "weights", "assembly", "eigensolve", "oracle",
          "inequalities", "quadrature", "reports")
LEAVES = {"weights.weight_value", "weights.weight_split",
          "weights.weight_positive_part", "reports.format_float",
          "quadrature.gauss_rule"}
PRIVATE = {"eigensolve._maximize_quotient"}
SCIPY = {"eigensolve": {"spla": ("splu", "cg"),
                        "sla": ("eigh", "cholesky", "solve_triangular")}}


class _ModuleProxy:
    """Stands in for a module alias (`spla`, `sla`) with some names replaced."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, command, leaf_s]
        self.stack = []
        self.command = None
        self.counts = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.values = defaultdict(list)   # per-call results used by metrics
        self._in_leaf = False
        self._patches = []

    # -- recording -------------------------------------------------------
    def _open(self, name):
        self.counts[name] += 1
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.command, 0.0])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_leaf = False
                self.counts[name] += 1
                self.leaf_s[name] += dt
                if self.stack:
                    self.spans[self.stack[-1]][5] += dt
        return wrapper

    def run_command(self, command_id, main, argv):
        self.command = command_id
        return self.span("cli.main", main)(argv)

    # -- patching --------------------------------------------------------
    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        import degeig.cli  # noqa: F401  (loads every module)

        modules = {layer: sys.modules[f"degeig.{layer}"] for layer in LAYERS}
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                if layer == "cli" and attr == "main":
                    continue   # the root span, opened by run_command
                if name in LEAVES:
                    wrapped[fn] = self.leaf(name, fn)
                else:
                    wrapped[fn] = self.span(name, fn, hooks.get(name))
        for mod in [*modules.values(), sys.modules["degeig"]]:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrapped:
                    self._set(mod, attr, wrapped[fn])
        for layer, aliases in SCIPY.items():
            mod = modules[layer]
            for alias, names in aliases.items():
                real = getattr(mod, alias)
                overrides = {n: (self._counted_cg if n == "cg" else self.span)(
                    f"{layer}.{n}", getattr(real, n)) for n in names}
                self._set(mod, alias, _ModuleProxy(real, overrides))
        self._set(modules["oracle"], "solve_ivp",
                  self.span("oracle.solve_ivp", modules["oracle"].solve_ivp))

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def _counted_cg(self, name, cg):
        traced = self.span(name, cg)

        def wrapper(*args, callback=None, **kwargs):
            def count(xk):
                self.counts[name + ".iters"] += 1
                if callback is not None:
                    callback(xk)
            return traced(*args, callback=count, **kwargs)
        return wrapper

    def _hooks(self):
        """Counters read from results at the layer boundary."""
        def successive(seq, args, kwargs):
            self.values["iterations"].extend(int(i) for i in seq.iterations)
            self.values["pairs"].append(seq.count)
            self.values["residuals"].extend(float(r) for r in seq.residuals)

        def shooting(res, args, kwargs):
            self.values["rhs_evals"].append(int(res.steps))
            self.values["certified"].append(bool(res.certified))

        def assembled(pair, args, kwargs):
            self.values["dofs"].append(int(pair.order))

        def written(result, args, kwargs):
            self.values["bytes"].append(os.path.getsize(args[0]))

        return {"eigensolve.solve_successive": successive,
                "oracle.shooting_eigenvalue": shooting,
                "assembly.assemble_radial": assembled,
                "assembly.assemble_grid3d": assembled,
                "reports.write_json": written, "reports.write_csv": written}

    # -- results ---------------------------------------------------------
    def durations(self):
        out = defaultdict(list)
        for name, start, end, *_ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self):
        """Seconds per layer outside the layer's child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        layer_s = defaultdict(float)
        for i, (name, start, end, _, _, leaf) in enumerate(self.spans):
            layer_s[name.split(".")[0]] += (end - start) - child[i] - leaf
        for name, dt in self.leaf_s.items():
            layer_s[name.split(".")[0]] += dt
        return layer_s

    def metrics(self):
        d = self.durations()
        c = self.counts
        v = self.values

        def total(*names):
            return sum(sum(d.get(n, ())) for n in names)

        attempts = c["eigensolve._maximize_quotient"]
        eigs = len(v["certified"])
        m = {
            "config.load_s": total("config.load_config", "config.load_preset"),
            "mesh.build_s": total("mesh.build_radial_mesh", "mesh.build_grid3d"),
            "weights.value_calls": c["weights.weight_value"],
            "weights.value_s": self.leaf_s["weights.weight_value"],
            "weights.verify_s": total("weights.verify_weight_split"),
            "assembly.radial_s": total("assembly.assemble_radial"),
            "assembly.grid3d_s": total("assembly.assemble_grid3d"),
            "assembly.dofs": sum(v["dofs"]),
            "eigensolve.dense_s": total("eigensolve.solve_dense"),
            "eigensolve.successive_s": total("eigensolve.solve_successive"),
            "eigensolve.ascent_iters": sum(v["iterations"]),
            "eigensolve.factor_calls": c["eigensolve.splu"],
            "eigensolve.factor_s": total("eigensolve.splu"),
            "eigensolve.cg_calls": c["eigensolve.cg"],
            "eigensolve.cg_iters": c["eigensolve.cg.iters"],
            "eigensolve.attempts": attempts,
            "eigensolve.eigh_calls": c["eigensolve.eigh"],
            "eigensolve.useful_ratio": sum(v["pairs"]) / attempts if attempts else 0.0,
            "eigensolve.growth_s": total("eigensolve.growth_diagnostics"),
            "eigensolve.max_residual": max(v["residuals"], default=0.0),
            "oracle.eigen_s": statistics.median(d["oracle.shooting_eigenvalue"])
            if d.get("oracle.shooting_eigenvalue") else 0.0,
            "oracle.shots": c["oracle.shoot"],
            "oracle.rhs_evals": sum(v["rhs_evals"]),
            "oracle.certified_ratio": sum(v["certified"]) / eigs if eigs else 0.0,
            "inequalities.check_s": total(
                "inequalities.check_hardy", "inequalities.check_sobolev",
                "inequalities.check_ckn_radial", "inequalities.dilation_quotient_spread"),
            "quadrature.radial_integral_calls": c["quadrature.radial_integral"],
            "reports.write_s": total("reports.write_json", "reports.write_csv"),
            "reports.bytes": sum(v["bytes"]),
        }
        layer_s = self.self_times()
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_s[layer]
        return m
