"""degeig benchmark: run one workload of CLI commands and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0

Run from the repository root. The program is run from `src/` of the same
tree; nothing is installed.

--trace 0 runs the workload's commands as separate `python -m degeig.cli`
processes, one at a time, and repeats the pass while the run length allows.
It reports the end-to-end metrics: pass_s (median time of one pass), setup_s
(median time of a process that imports degeig.cli and loads the workload's
first config), peak_rss_mb (largest ru_maxrss of a command) and ok_ratio
(commands that passed / attempted, i.e. 1 - fail_ratio). Both times are wall
times scaled to a reference machine speed (see PROBE_REF_S); the unscaled
wall times are printed too.

--trace 1 calls `degeig.cli.main(argv)` in this process, once with every
layer wrapped (see tracing.py) and once without, and reports the per-layer
metrics, the tracing overhead and the `-X importtime` import cost.

Every command's outputs are checked against perfbench/references.json. The
seed reaches the program only as `--seed` (catalogue takes none). The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. Files go to .perfbench_run/ in the tree.
"""

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# BLAS threads no more than the cores this process may use; set before numpy
# loads here or in any command.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 0 < int(_cur) <= NPROC):
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
sys.path.insert(0, HERE)

from checks import check_case, load_references  # noqa: E402
from workloads import ALL_WORKLOADS_FIRE, MUST_FIRE, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
# Timings are given at a reference machine speed. On the 2-core machine the
# bounds were set on, speed drifted by up to 1.6x, in slow or fast states that
# lasted from seconds to tens of minutes, which moved the median of one set of
# runs by half against another. Each timed process is scaled by a ~0.1 s
# pure-Python probe timed just before and just after it.
PROBE_LOOP = 1_000_000
PROBE_REF_S = 0.1
COMMAND_TIMEOUT_S = 150.0
SETUP_SNIPPET = (
    "import sys\n"
    "import degeig.cli\n"
    "from degeig.config import load_config, load_preset\n"
    "(load_preset if sys.argv[1] == 'preset' else load_config)(sys.argv[2])\n"
)
END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    "import.degeig_s": "s", "import.scipy_integrate_s": "s",
    "config.load_s": "s", "mesh.build_s": "s",
    "weights.value_calls": "count", "weights.value_s": "s", "weights.verify_s": "s",
    "assembly.radial_s": "s", "assembly.grid3d_s": "s", "assembly.dofs": "count",
    "eigensolve.dense_s": "s", "eigensolve.successive_s": "s",
    "eigensolve.ascent_iters": "count", "eigensolve.factor_calls": "count",
    "eigensolve.factor_s": "s", "eigensolve.cg_calls": "count",
    "eigensolve.cg_iters": "count", "eigensolve.attempts": "count",
    "eigensolve.eigh_calls": "count",
    "eigensolve.useful_ratio": "ratio", "eigensolve.growth_s": "s",
    "eigensolve.max_residual": "ratio",
    "oracle.eigen_s": "s", "oracle.shots": "count", "oracle.rhs_evals": "count",
    "oracle.certified_ratio": "ratio",
    "inequalities.check_s": "s", "quadrature.radial_integral_calls": "count",
    "reports.write_s": "s", "reports.bytes": "bytes",
    "cli.self_s": "s", "config.self_s": "s", "mesh.self_s": "s", "weights.self_s": "s",
    "assembly.self_s": "s", "eigensolve.self_s": "s", "oracle.self_s": "s",
    "inequalities.self_s": "s", "quadrature.self_s": "s", "reports.self_s": "s",
    "trace.traced_pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead_s": "s",
}
# Work counters that must repeat exactly across traced runs with one seed.
COUNTERS = ("eigensolve.ascent_iters", "eigensolve.cg_iters", "eigensolve.factor_calls",
            "eigensolve.attempts", "eigensolve.eigh_calls", "oracle.shots", "oracle.rhs_evals")


# -- inputs ------------------------------------------------------------------
def argv_for(case, seed, config_path, out_dir):
    if case.command == "catalogue":
        return ["catalogue", *case.catalogue_args]
    source = ["--preset", case.preset] if case.preset else ["--config", config_path]
    return [case.command, *source, "--out", out_dir, "--seed", str(seed)]


def prepare(workload, seed):
    """Write each case's config; return [(case, argv, out_dir)]."""
    base = os.path.join(WORK, workload)
    os.makedirs(os.path.join(base, "configs"), exist_ok=True)
    plan = []
    for case in WORKLOADS[workload]:
        config_path = os.path.join(base, "configs", case.id + ".json")
        if case.problem is not None:
            with open(config_path, "w") as fh:
                json.dump(case.config(), fh, indent=1)
        out_dir = os.path.join(base, "out", case.id)
        plan.append((case, argv_for(case, seed, config_path, out_dir), out_dir))
    return plan


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment():
    import numpy
    import scipy

    return {"nproc": NPROC, "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "commands_at_a_time": 1}


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# -- processes ---------------------------------------------------------------
def run_process(args, cwd, log_prefix=None):
    """Run one child to completion.

    Returns (wall_s, returncode, rusage, stdout, stderr); rusage is the
    child's own, from wait4.
    """
    out = open(log_prefix + ".out", "w+") if log_prefix else subprocess.DEVNULL
    err = open(log_prefix + ".err", "w+") if log_prefix else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        texts = []
        for fh in (out, err):
            if fh is subprocess.DEVNULL:
                texts.append("")
            else:
                fh.seek(0)
                texts.append(fh.read())
        return wall, proc.returncode, usage, texts[0], texts[1]
    finally:
        for fh in (out, err):
            if fh is not subprocess.DEVNULL:
                fh.close()


def speed_probe():
    """Seconds for a fixed pure-Python loop at this moment: median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(wall, before, after):
    """A wall time at the reference speed, from the probes around it."""
    return wall * 2.0 * PROBE_REF_S / (before + after)


def setup_samples(workload, cwd):
    """Set-up wall times, raw and scaled to the reference speed."""
    case = WORKLOADS[workload][0]
    kind, source = ("preset", case.preset) if case.preset else \
        ("config", os.path.join(cwd, "configs", case.id + ".json"))
    args = [sys.executable, "-c", SETUP_SNIPPET, kind, source]
    samples, scaled_samples, before = [], [], speed_probe()
    for _ in range(SETUP_SAMPLES):
        wall, rc, _, _, _ = run_process(args, cwd)
        if rc != 0:
            raise SystemExit(f"set-up process failed with exit code {rc}")
        after = speed_probe()
        samples.append(wall)
        scaled_samples.append(scaled(wall, before, after))
        before = after
    return samples, scaled_samples


# -- outcome of one command --------------------------------------------------
def outcome(case, ref, out_dir, rc, stdout, stderr):
    res = check_case(case, ref, out_dir, stdout, rc)
    reasons = []
    if rc != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        reasons.append(f"exit {rc}: {last}")
    if res.claims:
        reasons.append("claims not ok: " + ", ".join(res.claims))
    reasons += res.wrong
    return {"case": case.id, "returncode": rc, "compared": res.compared,
            "correct": res.correct, "failed": bool(reasons), "reasons": reasons,
            "known_failure": case.known_failure}


def fresh(out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)


def process_pass(plan, refs, cwd, logs):
    records, before = [], speed_probe()
    for case, argv, out_dir in plan:
        fresh(out_dir)
        wall, rc, usage, stdout, stderr = run_process(
            [sys.executable, "-m", "degeig.cli", *argv], cwd, os.path.join(logs, case.id))
        after = speed_probe()
        rec = outcome(case, refs.get(case.id), out_dir, rc, stdout, stderr)
        rec.update(wall_s=wall, scaled_s=scaled(wall, before, after), probe_s=after,
                   cpu_s=usage.ru_utime + usage.ru_stime, maxrss_mb=usage.ru_maxrss / 1024.0)
        records.append(rec)
        before = after
    return records


def inprocess_pass(plan, refs, main, tracer=None):
    records = []
    t0 = time.perf_counter()
    for case, argv, out_dir in plan:
        fresh(out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = tracer.run_command(case.id, main, argv) if tracer else main(argv)
        records.append(outcome(case, refs.get(case.id), out_dir, rc,
                               stdout.getvalue(), stderr.getvalue()))
    return time.perf_counter() - t0, records


# -- statistics --------------------------------------------------------------
def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def describe(name, samples, unit):
    line = f"{name}: median {statistics.median(samples):.6g} {unit} over {len(samples)} samples"
    tail = tail_percentile(samples)
    if tail:
        return line + f", p{tail[0]} {tail[1]:.6g} {unit}"
    return line + "; no percentile above the median has 10 samples beyond it"


def import_times(cwd):
    """Cumulative -X importtime of degeig.cli and scipy.integrate, in seconds."""
    _, rc, _, _, err = run_process([sys.executable, "-X", "importtime", "-c", "import degeig.cli"],
                                   cwd, os.path.join(cwd, "importtime"))
    if rc != 0:
        raise SystemExit("import of degeig.cli failed")
    found = {}
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return found.get("degeig.cli", 0.0), found.get("scipy.integrate", 0.0)


# -- the two kinds of run ----------------------------------------------------
def measure(workload, plan, refs, seconds, cwd):
    logs = os.path.join(cwd, "logs")
    os.makedirs(logs, exist_ok=True)
    setup_wall, setup = setup_samples(workload, cwd)
    passes, walls, records = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        recs = process_pass(plan, refs, cwd, logs)
        passes.append(sum(r["scaled_s"] for r in recs))
        walls.append(sum(r["wall_s"] for r in recs))
        records += recs
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    failed = sum(r["failed"] for r in records)
    metrics = {
        "pass_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["maxrss_mb"] for r in records),
        "ok_ratio": (len(records) - failed) / len(records),
    }
    print(describe("pass_s", passes, "s"))
    print(describe("setup_s", setup, "s"))
    print(describe("pass wall time, unscaled", walls, "s"))
    print(describe("set-up wall time, unscaled", setup_wall, "s"))
    print(f"fail_ratio: {failed}/{len(records)} = {failed / len(records):.4g}")
    return metrics, records, {"pass_s": passes, "setup_s": setup, "pass_wall_s": walls,
                              "setup_wall_s": setup_wall}


def traced(workload, plan, refs, cwd):
    from tracing import Tracer

    sys.path.insert(0, SRC)
    import degeig.cli

    degeig_s, integrate_s = import_times(cwd)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, records = inprocess_pass(plan, refs, degeig.cli.main, tracer)
    finally:
        tracer.uninstall()
    untraced_s, more = inprocess_pass(plan, refs, degeig.cli.main)
    records += more
    metrics = tracer.metrics()
    metrics.update({"import.degeig_s": degeig_s, "import.scipy_integrate_s": integrate_s,
                    "trace.traced_pass_s": traced_s, "trace.untraced_pass_s": untraced_s,
                    "trace.overhead_s": traced_s - untraced_s})
    silent = [m for m in MUST_FIRE[workload] + ALL_WORKLOADS_FIRE if not metrics[m] > 0]
    with open(os.path.join(cwd, "spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "command", "leaf_s"],
                   "spans": tracer.spans}, fh)
    print(f"tracing overhead: {traced_s - untraced_s:.4g} s "
          f"(traced pass {traced_s:.4g} s, untraced in-process pass {untraced_s:.4g} s)")
    print("counters: " + ", ".join(f"{c}={metrics[c]}" for c in COUNTERS))
    return metrics, records, silent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "degeig", "cli.py")):
        print(f"degeig sources not found under {SRC}", file=sys.stderr)
        return 2

    refs = load_references()
    plan = prepare(args.workload, args.seed)
    cwd = os.path.join(WORK, args.workload)
    env = environment()
    print("environment: " + json.dumps(env))
    silent = []
    if args.trace:
        metrics, records, silent = traced(args.workload, plan, refs, cwd)
        units = PER_LAYER_UNITS
    else:
        metrics, records, samples = measure(args.workload, plan, refs, args.seconds, cwd)
        units = END_TO_END_UNITS

    for r in records:
        if r["failed"]:
            note = f" [known: {r['known_failure']}]" if r["known_failure"] else ""
            print(f"failed {r['case']}: {'; '.join(r['reasons'])}{note}")
    for m in silent:
        print(f"per-layer metric {m} did not fire on {args.workload}")
    correct = all(r["correct"] for r in records) and not silent
    result = {"correct": correct, "attempted": len(records),
              "failed": sum(r["failed"] for r in records),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"environment": env, "records": records, "result": result,
                   **({} if args.trace else {"samples": samples})}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
