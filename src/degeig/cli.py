"""Command-line surface: solve, converge, check, oracle, catalogue.

Reports separate 'claims' (checked invariants with their bounds) from
'diagnostics' (solver internals); acceptance tooling reads the former.
Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O error.
"""

import argparse
import gc
import os
import sys

import numpy as np

from .assembly import (AssemblyError, assemble_grid3d, assemble_radial,
                       energy_inner, export_coo, hardy_inner)
from .config import ConfigError, PRESETS, load_config, load_preset, weight_from_dict
from .eigensolve import (CLUSTER_RTOL, DENSE_THRESHOLD, SolverError, cluster_gaps,
                         growth_diagnostics, solve_dense, solve_successive)
from .inequalities import (CknParams, check_ckn_radial, check_hardy,
                           check_sobolev, critical_exponent,
                           dilation_quotient_spread, gaussian_profile,
                           hardy_constant, hardy_near_optimizer,
                           hardy_quotient_radial, poly_bump, smooth_bump)
from .oracle import OracleError, radial_weight_callable, shooting_eigenvalue
from .reports import run_meta, write_csv, write_json
from .weights import CATALOGUE, WeightDomainError, verify_weight_split

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

FMT = "%.17g"
GOLDEN_RTOL = 1e-2  # bound of the golden claim on the relative lambda error


def _assemble(problem):
    geom = problem.geometry
    mesh = geom.build(problem.N)
    if geom.mode == "radial":
        return assemble_radial(mesh, problem.N, problem.alpha, problem.weight)
    return assemble_grid3d(mesh, problem.alpha, problem.weight)


def _claim(value, bound, ok=None):
    ok = bool(value <= bound) if ok is None else bool(ok)
    return {"value": float(value), "bound": float(bound), "ok": ok}


def _increasing_across_clusters(seq, radial):
    """Positive, and increasing from each cluster of the sequence to the next.

    Clusters are the runs of eigenvalues within CLUSTER_RTOL of each other
    (EigenSequence.clusters), so a symmetry-forced multiplicity such as the
    octahedral triple on the cube grid is one cluster, ordered inside by its
    eigenvectors; a gap inside a cluster may be a rounding-level negative but
    never more. Radial (1-D Sturm-Liouville) eigenvalues are simple, so on a
    radial run every cluster must have size 1. The value is the smallest of
    lambda_1 and the relative gaps between clusters.
    """
    lam = seq.lambdas
    gaps, between = cluster_gaps(seq)
    simple = not radial or all(len(c) == 1 for c in seq.clusters)
    return {
        "value": float(min(lam.min(), gaps[between].min(initial=np.inf))),
        "bound": CLUSTER_RTOL,
        "ok": bool(np.all(lam > 0.0) and np.all(gaps[between] > CLUSTER_RTOL)
                   and np.all(gaps[~between] >= -CLUSTER_RTOL) and simple),
    }


def _solve_claims(seq, dense_seq, growth, radial):
    lam = seq.lambdas
    claims = {}
    claims["positive_increasing_across_clusters"] = _increasing_across_clusters(seq, radial)
    claims["max_residual"] = _claim(seq.residuals.max(initial=0.0), 1e-8)
    lam_max = lam.max(initial=1.0)
    claims["max_cross_energy_rel"] = _claim(seq.max_cross_energy() / lam_max, 1e-8)
    eye_gap = np.max(np.abs(seq.cross_mass - np.eye(seq.count))) if seq.count else 0.0
    claims["mass_orthonormality_gap"] = _claim(eye_gap, 1e-8)
    energy_gap = (
        np.max(np.abs(np.diag(seq.cross_energy) - lam) / lam) if seq.count else 0.0
    )
    claims["energy_identity_rel_gap"] = _claim(energy_gap, 1e-8)
    claims["unit_energy_gap"] = _claim(
        np.max(np.abs(growth.unit_energy - 1.0)), 1e-10
    )
    claims["mass_identity_gap"] = _claim(np.max(growth.identity_gaps), 1e-10)
    claims["plus_bound_min_margin"] = {
        "value": float(np.min(growth.bound_margins)),
        "bound": -1e-12,
        "ok": bool(np.min(growth.bound_margins) >= -1e-12),
    }
    if dense_seq is not None and dense_seq.count and seq.count:
        m = min(dense_seq.count, seq.count)
        agree = np.max(
            np.abs(seq.lambdas[:m] - dense_seq.lambdas[:m]) / dense_seq.lambdas[:m]
        )
        claims["dense_agreement_rel"] = _claim(agree, 1e-6)
    return claims


def _golden_claim(path, seq, problem):
    """Compare the computed sequence against a shooting-oracle golden file.

    The claim fails when no certified entry was compared, or when a certified
    entry was computed for another N, alpha, weight or R than this run. An
    entry that is not an object, whose n is not an integer >= 1 or whose
    lambda is not a positive finite number is a ConfigError.
    """
    import json

    try:
        with open(path) as fh:
            golden = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"golden file {path}: {exc}") from exc
    entries = golden.get("entries", []) if isinstance(golden, dict) else None
    if not isinstance(entries, list):
        raise ConfigError(f"golden file {path}: expected an object with a list of entries")
    for i, e in enumerate(entries):
        # type(...) is int excludes bools, which isinstance would let through
        n, lam = (e.get("n"), e.get("lambda")) if isinstance(e, dict) else (None, None)
        if not (type(n) is int and n >= 1 and type(lam) in (int, float) and 0.0 < lam < np.inf):
            raise ConfigError(f"golden file {path}: entries[{i}] needs an integer n >= 1 and "
                              f"a positive finite lambda; got {e!r}")
    entries = [e for e in entries if e.get("certified", False)]
    ours = (problem.N, problem.alpha, problem.weight.name, getattr(problem.geometry, "R", None))
    same_problem = all(
        (e.get("N"), e.get("alpha"), e.get("weight"), e.get("R")) == ours for e in entries
    )
    errors = [abs(seq.lambdas[e["n"] - 1] - e["lambda"]) / e["lambda"]
              for e in entries if e["n"] <= seq.count]
    worst = max(errors, default=0.0)
    return _claim(worst, GOLDEN_RTOL, ok=bool(errors) and same_problem and worst <= GOLDEN_RTOL)


def _write_vectors_csv(path, pair, seq):
    headers = ["e%d" % (i + 1) for i in range(seq.count)]
    if pair.mode == "radial":
        nodes = pair.geometry.nodes
        padded = np.zeros((nodes.size, seq.count))  # the Dirichlet node is zero
        padded[:pair.order] = seq.vectors
        write_csv(path, ["r"] + headers, np.column_stack([nodes, padded]))
    else:
        write_csv(path, ["x", "y", "z"] + headers,
                  np.column_stack([pair.dof_positions, seq.vectors]))


def cmd_solve(run, out_dir):
    pair = _assemble(run.problem)
    settings = run.problem.solver
    seq = solve_successive(pair, settings=settings, seed=run.seed)
    if seq.count == 0:
        raise SolverError("no positive eigenvalues found in the discrete pencil")
    dense_seq = None
    if pair.order <= DENSE_THRESHOLD:
        dense_seq = solve_dense(pair, settings.k)
    growth = growth_diagnostics(seq, pair)
    claims = _solve_claims(seq, dense_seq, growth, pair.mode == "radial")
    if run.golden_path:
        claims["golden_agreement_rel"] = _golden_claim(run.golden_path, seq, run.problem)
    report = {
        "command": "solve",
        "problem": {
            "N": run.problem.N,
            "alpha": run.problem.alpha,
            "weight": run.problem.weight.name,
            "geometry": run.problem.geometry.mode,
            "order": pair.order,
        },
        "claims": claims,
        "eigen": seq.to_report(),
        "growth": growth,
        "diagnostics": {
            "dense": dense_seq.to_report() if dense_seq is not None else None,
            "seed": run.seed,
            "residual_floors": [float(f) for f in seq.residual_floors],
        },
        "meta": run_meta(),
    }
    write_json(os.path.join(out_dir, "eigen_report.json"), report)
    _write_vectors_csv(os.path.join(out_dir, "eigenvectors.csv"), pair, seq)
    if run.export_matrices:
        for name, mat in (("A", pair.A), ("B", pair.B), ("H", pair.H)):
            export_coo(mat, os.path.join(out_dir, f"{name}.txt"))
    for i, lam in enumerate(seq.lambdas):
        print(f"lambda_{i + 1} = {FMT % lam}   residual = {FMT % seq.residuals[i]}")
    for w in seq.warnings:
        print(f"warning: {w}")
    if not all(c["ok"] for c in claims.values()):
        bad = [k for k, c in claims.items() if not c["ok"]]
        print(f"invariant violation: {', '.join(bad)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _hardy_slack(pair, n_vectors, seed):
    """Largest Hardy-over-bound ratio across random boundary-vanishing vectors."""
    rng = np.random.default_rng([seed, pair.order])
    const = hardy_constant(pair.N, pair.alpha)
    worst = 0.0
    for _ in range(n_vectors):
        u = rng.standard_normal(pair.order)
        worst = max(worst, hardy_inner(pair, u) / (const * energy_inner(pair, u)))
    return worst


def cmd_converge(run, out_dir):
    if len(run.ladder) < 3:
        raise ConfigError("ladder: a convergence study needs at least 3 rungs")
    problem = run.problem
    k = problem.solver.k
    rows = []
    lambdas = []
    slacks = []
    for geom in run.rungs():
        pair = assemble_radial(geom.build(problem.N), problem.N, problem.alpha, problem.weight)
        seq = solve_successive(pair, settings=problem.solver, seed=run.seed)
        lam = seq.lambdas[:k]
        lambdas.append(lam)
        slack = max(0.0, _hardy_slack(pair, 50, run.seed) - 1.0)
        slacks.append(slack)
        rows.append([geom.M, geom.R] + list(lam) + [slack])
    counts = min(l.size for l in lambdas)
    orders = {}
    diffs_decreasing = {}
    for n in range(counts):
        vals = np.array([l[n] for l in lambdas])
        diffs = np.abs(np.diff(vals))
        ms = np.array([r[0] for r in rows], dtype=float)
        with np.errstate(divide="ignore"):
            ords = np.log(diffs[:-1] / diffs[1:]) / np.log(ms[2:] / ms[1:-1])
        orders[f"lambda_{n + 1}"] = [float(o) for o in ords]
        diffs_decreasing[f"lambda_{n + 1}"] = bool(np.all(np.diff(diffs) < 0.0))
    header = ["M", "R"] + [f"lambda_{i + 1}" for i in range(counts)] + ["hardy_slack"]
    write_csv(os.path.join(out_dir, "converge.csv"), header, rows)
    report = {
        "command": "converge",
        "claims": {
            "differences_decreasing": diffs_decreasing,
            "orders": orders,
            "hardy_slack_trend": [float(s) for s in slacks],
        },
        "diagnostics": {"rungs": [[r[0], r[1]] for r in rows], "seed": run.seed},
        "meta": run_meta(),
    }
    write_json(os.path.join(out_dir, "converge_report.json"), report)
    for row in rows:
        print(" ".join(FMT % v if isinstance(v, float) else str(v) for v in row))
    return EXIT_OK


def cmd_check(run, out_dir):
    problem = run.problem
    pair = _assemble(problem)
    N, alpha = problem.N, problem.alpha
    R = problem.geometry.R
    profiles = [smooth_bump(R / 4.0), poly_bump(R / 3.0), gaussian_profile(R / 10.0)]
    samples = [(prof.name, prof.value(pair.dof_positions)) for prof in profiles]
    hardy_reports = [check_hardy(pair, u, label=name) for name, u in samples]
    sobolev_reports = [check_sobolev(pair, u, label=name) for name, u in samples]
    spread = dilation_quotient_spread(pair, profiles[0])

    eps_ladder = [0.4, 0.2, 0.1, 0.05]
    near_quotients = [
        hardy_quotient_radial(hardy_near_optimizer(N, alpha, eps), N, alpha)
        for eps in eps_ladder
    ]
    const = hardy_constant(N, alpha)

    hardy_point = CknParams(N, 2.0, -alpha / 2.0, (2.0 - alpha) / 2.0)
    sobolev_point = CknParams(N, 2.0, -alpha / 2.0, 0.0)
    ckn_hardy = [check_ckn_radial(hardy_point, p) for p in profiles]
    ckn_sobolev = [check_ckn_radial(sobolev_point, p) for p in profiles]

    claims = {
        "hardy_all_pass": {"ok": all(r["passed"] for r in hardy_reports)},
        "near_optimizer_monotone_below_constant": {
            "ok": bool(
                np.all(np.diff(near_quotients) > 0.0)
                and np.all(np.array(near_quotients) <= const * (1.0 + 1e-6))
            ),
            "quotients": [float(qv) for qv in near_quotients],
            "constant": const,
        },
        "dilation_spread": _claim(spread["spread"], 2e-2),
        "ckn_hardy_reduction": {"ok": all(r["passed"] for r in ckn_hardy)},
        "ckn_sobolev_reduction": {"ok": all(r["passed"] for r in ckn_sobolev)},
        "critical_exponent": {"value": critical_exponent(N, alpha)},
        "hardy_constant": {"value": const},
    }
    report = {
        "command": "check",
        "claims": claims,
        "hardy": hardy_reports,
        "sobolev": sobolev_reports,
        "dilation": {
            "quotients": {str(t): float(q) for t, q in spread["quotients"].items()},
            "spread": spread["spread"],
        },
        "ckn_hardy_point": ckn_hardy,
        "ckn_sobolev_point": ckn_sobolev,
        "meta": run_meta(),
    }
    write_json(os.path.join(out_dir, "inequality_report.json"), report)
    ok = all(c.get("ok", True) for c in claims.values())
    print(f"hardy constant = {FMT % const}")
    print(f"critical exponent = {FMT % critical_exponent(N, alpha)}")
    print(f"dilation spread = {FMT % spread['spread']}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_oracle(run, out_dir):
    problem = run.problem
    g = radial_weight_callable(problem.weight)
    R = problem.geometry.R
    entries = []
    shots = {}  # one lambda sweep serves every n
    for n in range(1, problem.solver.k + 1):
        res = shooting_eigenvalue(problem.N, problem.alpha, g, R, n,
                                  breakpoints=problem.weight.jumps, shots=shots)
        entries.append(
            {
                "N": problem.N,
                "alpha": problem.alpha,
                "weight": problem.weight.name,
                "R": R,
                "n": n,
                "lambda": res.lam,
                "certified": res.certified,
                "note": res.note,
            }
        )
        print(f"lambda_{n} = {FMT % res.lam}  certified = {res.certified}")
    golden = {"entries": entries, "meta": run_meta()}
    write_json(os.path.join(out_dir, "golden.json"), golden)
    if any(not e["certified"] for e in entries):
        print("warning: some eigenvalues are uncertified (partial list)")
    return EXIT_OK


def cmd_catalogue(N, alpha, out_dir=None):
    rows = []
    for name in CATALOGUE:
        spec = weight_from_dict({"kind": name}, N, alpha)
        rep = verify_weight_split(spec, N, alpha)
        parts = []
        if rep.g1_norm_estimate > 0:
            parts.append("integrable")
        if rep.g2_norm_estimate > 0:
            parts.append("decaying")
        has_neg = spec.g_negative(np.geomspace(1e-3, 1e3, 200)).max() > 0
        if has_neg:
            parts.append("negative")
        decay = "pass" if rep.decay_pass else "fail"
        lq = "diverges" if rep.gplus_norm_verdict == "divergent" else rep.gplus_norm_verdict
        line = (
            f"{name}: split=({'+'.join(parts) or 'empty'})"
            f"  decay: {decay}, L^(N/(2-alpha)): {lq}  overall: {rep.overall}"
        )
        print(line)
        rows.append(rep)
    if out_dir:
        write_json(os.path.join(out_dir, "catalogue.json"),
                   {"N": N, "alpha": alpha, "weights": rows, "meta": run_meta()})
    return EXIT_OK


COMMANDS = {"solve": cmd_solve, "converge": cmd_converge, "check": cmd_check,
            "oracle": cmd_oracle}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="degeig",
        description="Eigenvalues of -div(|x|^a grad u) = lambda g u on truncated domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("solve", "compute the increasing positive eigenvalue sequence"),
        ("converge", "mesh-refinement study over a (M, R) ladder"),
        ("check", "verify the Hardy/Sobolev/interpolation inequalities"),
        ("oracle", "shooting-oracle golden eigenvalues (radial)"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--preset", help=f"builtin preset ({', '.join(sorted(PRESETS))})")
        p.add_argument("--out", default=None, help="output directory (default ./out)")
        p.add_argument("--seed", type=int, default=None, help="deterministic seed (default 42)")
        if name == "solve":
            p.add_argument("--export-matrices", action="store_true",
                           help="also write A, B, H as coordinate triples")
    p = sub.add_parser("catalogue", help="list builtin weights with admissibility verdicts")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default=None)
    return parser


def _load_run(args):
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        run = load_config(args.config)
    elif args.preset:
        run = load_preset(args.preset)
    else:
        raise ConfigError("a configuration is required (--config PATH or --preset NAME)")
    if args.seed is not None:
        run.seed = args.seed
    if args.out is not None:
        run.out_dir = args.out
    if getattr(args, "export_matrices", False):
        run.export_matrices = True
    return run


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalogue":
            if args.N < 3:
                raise ConfigError(f"--N {args.N}: the catalogue needs N >= 3")
            if not 0.0 < args.alpha < 2.0:
                raise ConfigError(f"--alpha {args.alpha}: the catalogue needs alpha in (0, 2)")
            if args.out:
                os.makedirs(args.out, exist_ok=True)
            return cmd_catalogue(args.N, args.alpha, args.out)
        run = _load_run(args)
        mode = run.problem.geometry.mode
        if args.command != "solve" and mode != "radial":
            raise ConfigError(f"{args.command} runs on radial geometry only, "
                              f"and this config's geometry is {mode}")
        os.makedirs(run.out_dir, exist_ok=True)
        return COMMANDS[args.command](run, run.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, AssemblyError, OracleError, WeightDomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run():
    """Entry point of the `degeig` script and of `python -m degeig.cli`.

    Every module is imported by now; gc.freeze() moves their objects out of
    the collector's reach, so the collections at interpreter exit skip them.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
