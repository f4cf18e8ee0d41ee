"""Compare every output of two degeig source trees, byte for byte outside `meta`.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE [--work DIR]

Each tree is a checkout with the package under src/. The commands are every
case of NEW_TREE's perfbench/workloads.py, with the config and arguments the
benchmark gives them and the seed every workload config carries, plus
`catalogue --out`, `check` on the ring preset at alpha = 1.5 (a sign-changing
weight and a second alpha next to the benchmark's gaussian check) and
`solve --export-matrices` on one radial and one grid 13^3 problem. Each
command runs once against each tree, in its own process with one BLAS thread.
The report's `meta` field (its only nondeterministic part) is dropped before
comparing; every other file (CSV tables, .npy eigenvectors, matrix exports) is
compared as bytes.

Prints one line per command and one per output file or stdout that differs,
or per run that ends in an uncaught exception (a warning turned into an error
by PYTHONWARNINGS, say), then a summary. Exits 0 when every output is
identical and no run raised, 1 otherwise.
"""

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile

CONFIG, OUT = "<config>", "<out>"  # placeholders in a command's argv
SEED = 42  # the seed of every workload config


def load_workloads(tree):
    path = os.path.join(tree, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("compared_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands(workloads):
    """[(name, config document or None, argv)] for every command; argv holds
    CONFIG and OUT where the config path and the output directory go."""
    out = []
    for cases in workloads.WORKLOADS.values():
        for case in cases:
            if case.command == "catalogue":
                out.append((case.id, None, ["catalogue", *case.catalogue_args]))
                continue
            source = ["--preset", case.preset] if case.preset else ["--config", CONFIG]
            out.append((case.id, case.config(),
                        [case.command, *source, "--out", OUT, "--seed", str(SEED)]))
    out.append(("catalogue-out", None, ["catalogue", "--N", "3", "--alpha", "1.0", "--out", OUT]))
    out.append(("check-ring-n3-a1.5", None,
                ["check", "--preset", "ring-n3-a1.5", "--out", OUT, "--seed", str(SEED)]))
    for name, problem in (("export-radial", workloads.radial("gaussian", 1.0, 512, 6)),
                          ("export-grid13", workloads.grid(13, 4))):
        out.append((name, {"problem": problem, "seed": SEED},
                    ["solve", "--config", CONFIG, "--out", OUT, "--seed", str(SEED),
                     "--export-matrices"]))
    return out


def run(tree, base, doc, argv):
    """Run one command against tree in the directory base; return
    (returncode, stdout, output directory, whether it raised)."""
    shutil.rmtree(base, ignore_errors=True)
    out_dir = os.path.join(base, "out")
    os.makedirs(out_dir)
    config = os.path.join(base, "config.json")
    if doc is not None:
        with open(config, "w") as fh:
            json.dump(doc, fh, indent=1)
    args = [{CONFIG: config, OUT: out_dir}.get(a, a) for a in argv]
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "degeig.cli", *args], env=env, cwd=base,
                          capture_output=True, text=True)
    raised = "Traceback (most recent call last)" in proc.stderr
    return proc.returncode, proc.stdout, out_dir, raised


def without_meta(text):
    """The report text with its top-level "meta" field removed."""
    kept, skipping = [], False
    for line in text.split("\n"):
        if line.startswith('  "meta": '):
            skipping = line.rstrip().endswith("{")
            continue
        if skipping:
            skipping = not line.startswith("  }")
            continue
        kept.append(line)
    return "\n".join(kept)


def read(path):
    """A JSON report's text without its meta field; any other file's bytes."""
    if path.endswith(".json"):
        with open(path) as fh:
            return without_meta(fh.read())
    with open(path, "rb") as fh:
        return fh.read()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--work", default=None, help="scratch directory (default: a temporary one)")
    args = parser.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    differing, compared = [], 0
    for name, doc, argv in commands(load_workloads(args.new)):
        (rc_old, out_old, dir_old, raised_old), (rc_new, out_new, dir_new, raised_new) = (
            run(tree, os.path.join(work, side, name), doc, argv)
            for side, tree in (("old", args.old), ("new", args.new)))
        files = sorted(set(os.listdir(dir_old)) | set(os.listdir(dir_new)))
        diffs = [f"uncaught exception in the {side} tree" for side, raised in
                 (("old", raised_old), ("new", raised_new)) if raised]
        if rc_old != rc_new:
            diffs.append(f"exit code {rc_old} -> {rc_new}")
        if out_old != out_new:
            diffs.append("stdout")
        for f in files:
            a, b = os.path.join(dir_old, f), os.path.join(dir_new, f)
            if not (os.path.exists(a) and os.path.exists(b)) or read(a) != read(b):
                diffs.append(f)
        compared += len(files) + 1
        print(f"{'DIFF' if diffs else 'same'} {name}: exit {rc_new}, stdout and {len(files)} files",
              flush=True)
        differing += [f"  {name}: {d}" for d in diffs]
    print("\n".join(differing))
    print(f"{compared - len(differing)} of {compared} outputs identical outside meta")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
