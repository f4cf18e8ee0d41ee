"""Compare every output of two degeig source trees, byte for byte outside `meta`.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE [--work DIR]

Each tree is a checkout with the package under src/. Every command runs once
against each tree, as `python -W error -m degeig.cli ...` in its own process
with one BLAS thread, so a warning from any command is an uncaught exception.
The commands, in NEW_TREE's order:

- every case of its perfbench/workloads.py, with the config and arguments the
  benchmark gives them and the seed every workload config carries;
- `catalogue --out`;
- presets no workload case runs: `check` on the ring at alpha = 1.5 (a
  sign-changing weight next to the benchmark's gaussian check), and `oracle`
  on the ring, the bump and the ball at alpha = 1 (the bump's and the ball's
  float radii go through the same mask arithmetic as an array);
- `solve --export-matrices` on one radial and one grid 13^3 problem;
- four ring-weight grid solves that reach the sector routes no workload case
  does: 15^3 with k = 12, whose eee sector (343 dofs) is solved on B's rank;
  9^3 with k = 40, whose sectors are capped by their positive B entries and
  which stops at 6 of 40 pairs; 9^3 with k = 6 (order 343), whose dense
  reference solves eee and oee by one generalized eigh each and stops at ooe,
  which has no positive B entry, and whose eee and oee sectors (B of rank 7
  for 3 pairs, and of rank 4 for 1) take the rank-r route; and 15^3 with
  k = 8, whose eee sector (B of rank 35 for 8 pairs) takes the rank-r route,
  with no dense reference at order 2197;
- two gaussian grid solves next to the dense reference: 11^3 with k = 24,
  whose nested parity sectors are asked for 24, 6, 3 and 3 pairs, each next
  to the reference's 24; and 9^3 with k = 70, whose sectors are asked for 64,
  18, 10 and 8 pairs, each more than a fifth of its 64, 48, 36 or 27 dofs, so
  all four take the rank-r route;
- a ring solve at M = 2000 with k = 24, where the Lanczos basis ARPACK gets
  for an indefinite pencil runs next to the dense reference (M8192, the
  workload's ring at k = 24, is too large for it);
- a radial solve of an inline, sign-changing tabulated weight, which no
  workload case uses;
- two high-dimension radial gaussian problems: `check` at N = 6, alpha = 1,
  whose near-optimizer integrands would overflow if formed from u^2 or u'^2,
  and `solve` at N = 9, alpha = 1.9 (M = 512, k = 6), whose energy diagonal
  spans 54 decades;
- two solves of a weight with no positive part (g = -1, radial M = 64 and grid
  15^3, k = 3), which have no positive eigenvalue and exit 2;
- a solve whose config's seed is -1, given no --seed, which is refused as a
  configuration error and exits 1;
- two solves of the gaussian at N = 3, alpha = 1, R = 6, M = 512, k = 3
  against a golden document written beside the config: `solve-gaussian-golden`,
  whose entries are the shooting oracle's certified lambda_1..3 of that
  problem and which exits 0, and `solve-gaussian-golden-a1.5`, the same
  entries labelled alpha = 1.5, whose golden claim reads inf and which exits 2.

The outputs of a command are its stdout, its stderr and every file it writes.
Before comparing, the run's own directory and the tree's absolute path in
stdout and stderr become `<run>` and `<tree>`. The report's `meta` field (its
only nondeterministic part) is dropped; every other file (CSV tables, .npy
eigenvectors, matrix exports) is compared as bytes.

Prints one line per command, with each tree's peak resident set (ru_maxrss
from wait4), and one per output that differs or per run that ends in an
uncaught exception, then a summary with each tree's largest peak. A differing
JSON report names its first differing key path with both values
(`growth.ratios[1]: 1.5 -> 1.6`, `absent` where one side lacks it), and a
differing stdout or stderr its first differing line. Exits 0 when every output
is identical and no run raised, 1 otherwise. Without --work the runs go to a
temporary directory, removed when the exit is 0 and kept, with its path
printed, when it is 1.
"""

import argparse
import collections
import importlib.util
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

CONFIG, OUT = "<config>", "<out>"  # placeholders in a command's argv
SEED = 42  # the seed of every workload config
# the shooting oracle's certified lambda_1..3 of the gaussian at N = 3,
# alpha = 1, R = 6: the entries of the golden documents
GOLDEN_LAMBDAS = (4.7831738784475082, 13.511979183052672, 26.462792789125032)
ABSENT = object()  # stands for a key, index or line that one side lacks


def load_workloads(tree):
    path = os.path.join(tree, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("compared_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands(workloads):
    """[(name, config document or None, argv)] for every command; argv holds
    CONFIG and OUT where the config path and the output directory go. A
    config whose golden field is a document, not a path, has it written
    beside the config (run)."""
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
    for command, preset in (("check", "ring-n3-a1.5"), ("oracle", "ring-n3-a1"),
                            ("oracle", "bump-n3-a1"), ("oracle", "ball-n3-a1")):
        out.append((f"{command}-{preset}", None,
                    [command, "--preset", preset, "--out", OUT, "--seed", str(SEED)]))
    for name, problem in (("export-radial", workloads.radial("gaussian", 1.0, 512, 6)),
                          ("export-grid13", workloads.grid(13, 4))):
        out.append((name, {"problem": problem, "seed": SEED},
                    ["solve", "--config", CONFIG, "--out", OUT, "--seed", str(SEED),
                     "--export-matrices"]))
    for n, k in ((15, 12), (9, 40), (9, 6), (15, 8)):
        problem = {**workloads.grid(n, k), "weight": {"kind": "ring"}}
        out.append((f"solve-ring-grid{n}-k{k}", {"problem": problem, "seed": SEED},
                    ["solve", "--config", CONFIG, "--out", OUT, "--seed", str(SEED)]))
    for n, k in ((11, 24), (9, 70)):
        out.append((f"solve-grid{n}-k{k}", {"problem": workloads.grid(n, k), "seed": SEED},
                    ["solve", "--config", CONFIG, "--out", OUT, "--seed", str(SEED)]))
    out.append(("solve-ring-M2000-k24",
                {"problem": workloads.radial("ring", 1.0, 2000, 24), "seed": SEED},
                ["solve", "--config", CONFIG, "--out", OUT, "--seed", str(SEED)]))
    table = {"kind": "tabulated", "radii": [0, 0.5, 1, 1.5, 2, 2.5, 3, 4, 6],
             "values": [1, 0.9, 0.6, 0.2, -0.1, -0.2, -0.1, 0, 0]}
    out.append(("solve-tabulated-inline",
                {"problem": {**workloads.radial("tabulated", 1.0, 512, 4), "weight": table},
                 "seed": SEED},
                ["solve", "--config", CONFIG, "--out", OUT, "--seed", str(SEED)]))
    for command, N, alpha in (("check", 6, 1.0), ("solve", 9, 1.9)):
        problem = workloads.radial("gaussian", alpha, 512, 6, N=N)
        out.append((f"{command}-gaussian-n{N}-a{alpha}", {"problem": problem, "seed": SEED},
                    [command, "--config", CONFIG, "--out", OUT, "--seed", str(SEED)]))
    for name, problem, R in (("radial", workloads.radial("tabulated", 1.0, 64, 3), 6),
                             ("grid15", workloads.grid(15, 3), 12)):
        weight = {"kind": "tabulated", "radii": [0, 3, R], "values": [-1, -1, -1]}
        out.append((f"solve-negative-{name}", {"problem": {**problem, "weight": weight},
                                               "seed": SEED},
                    ["solve", "--config", CONFIG, "--out", OUT, "--seed", str(SEED)]))
    out.append(("solve-negative-seed",
                {"problem": workloads.radial("gaussian", 1.0, 64, 3), "seed": -1},
                ["solve", "--config", CONFIG, "--out", OUT]))
    for name, alpha in (("golden", 1.0), ("golden-a1.5", 1.5)):
        entries = [{"N": 3, "alpha": alpha, "weight": "gaussian", "R": 6.0, "n": n,
                    "lambda": lam, "certified": True}
                   for n, lam in enumerate(GOLDEN_LAMBDAS, 1)]
        out.append((f"solve-gaussian-{name}",
                    {"problem": workloads.radial("gaussian", 1.0, 512, 3), "seed": SEED,
                     "golden": {"entries": entries}},
                    ["solve", "--config", CONFIG, "--out", OUT, "--seed", str(SEED)]))
    return out


class Run(collections.namedtuple("Run", "code stdout stderr out_dir rss")):
    """One command's exit code, stdout and stderr (with <run> and <tree> for
    its directory and the tree's path), output directory and peak resident
    set in MB."""

    @property
    def raised(self):
        return "Traceback (most recent call last)" in self.stderr


def run(tree, base, doc, argv):
    """Run one command against tree in the directory base, warnings as errors.

    The config document goes to base/config.json; a golden document in its
    golden field goes to base/golden.json, and the field becomes that path."""
    base = os.path.abspath(base)  # the child runs in base and is given paths under it
    shutil.rmtree(base, ignore_errors=True)
    out_dir = os.path.join(base, "out")
    os.makedirs(out_dir)
    config = os.path.join(base, "config.json")
    if doc is not None:
        if isinstance(doc.get("golden"), dict):
            golden = os.path.join(base, "golden.json")
            with open(golden, "w") as fh:
                json.dump(doc["golden"], fh, indent=1)
            doc = {**doc, "golden": golden}
        with open(config, "w") as fh:
            json.dump(doc, fh, indent=1)
    args = [{CONFIG: config, OUT: out_dir}.get(a, a) for a in argv]
    tree = os.path.abspath(tree)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    # output goes to files, not pipes, so that wait4 reaps the child and
    # reports its own rusage
    with open(os.path.join(base, "stdout"), "w+") as out, \
            open(os.path.join(base, "stderr"), "w+") as err:
        proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "degeig.cli", *args],
                                env=env, cwd=base, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        out.seek(0)
        err.seek(0)
        stdout, stderr = (f.read().replace(base, "<run>").replace(tree, "<tree>")
                          for f in (out, err))
    return Run(os.waitstatus_to_exitcode(status), stdout, stderr, out_dir,
               usage.ru_maxrss / 1024.0)


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


def shown(value):
    """A parsed JSON value or a line as printed in a difference."""
    return "absent" if value is ABSENT else json.dumps(value)


def first_difference(old, new, path=""):
    """'path: old -> new' for the first key path, in the old document's key
    order, at which two parsed JSON documents differ; None if they do not."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [key for key in new if key not in old]
        items = [(f"{path}.{key}" if path else key, old.get(key, ABSENT), new.get(key, ABSENT))
                 for key in keys]
    elif isinstance(old, list) and isinstance(new, list):
        items = [(f"{path}[{i}]", a, b)
                 for i, (a, b) in enumerate(itertools.zip_longest(old, new, fillvalue=ABSENT))]
    else:
        same = type(old) is type(new) and old == new
        return None if same else f"{path}: {shown(old)} -> {shown(new)}"
    return next(filter(None, (first_difference(a, b, p) for p, a, b in items)), None)


def json_difference(a, b):
    """The first difference of two JSON report files outside meta."""
    docs = []
    for path in (a, b):
        with open(path) as fh:
            docs.append({k: v for k, v in json.load(fh).items() if k != "meta"})
    return first_difference(*docs) or "the same values in different text"


def line_difference(old, new):
    """'line n: old -> new' for the first line at which two texts differ."""
    for n, (a, b) in enumerate(itertools.zip_longest(old.split("\n"), new.split("\n"),
                                                     fillvalue=ABSENT), 1):
        if a != b:
            return f"line {n}: {shown(a)} -> {shown(b)}"


def compare(old, new):
    """(number of outputs compared, differences) of two runs of one command."""
    diffs = [f"uncaught exception in the {side} tree" for side, r in
             (("old", old), ("new", new)) if r.raised]
    if old.code != new.code:
        diffs.append(f"exit code {old.code} -> {new.code}")
    for stream in ("stdout", "stderr"):
        a, b = getattr(old, stream), getattr(new, stream)
        if a != b:
            diffs.append(f"{stream} {line_difference(a, b)}")
    files = sorted(set(os.listdir(old.out_dir)) | set(os.listdir(new.out_dir)))
    for f in files:
        a, b = os.path.join(old.out_dir, f), os.path.join(new.out_dir, f)
        if not (os.path.exists(a) and os.path.exists(b)):
            diffs.append(f"{f}: only in the {'old' if os.path.exists(a) else 'new'} tree")
        elif read(a) != read(b):
            diffs.append(f"{f}: {json_difference(a, b)}" if f.endswith(".json") else f)
    return len(files) + 2, diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--work", default=None, help="scratch directory (default: a temporary one)")
    args = parser.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    differing, compared, peaks = [], 0, {"old": [], "new": []}
    for name, doc, argv in commands(load_workloads(args.new)):
        old, new = (run(tree, os.path.join(work, side, name), doc, argv)
                    for side, tree in (("old", args.old), ("new", args.new)))
        peaks["old"].append((old.rss, name))
        peaks["new"].append((new.rss, name))
        outputs, diffs = compare(old, new)
        compared += outputs
        print(f"{'DIFF' if diffs else 'same'} {name}: exit {new.code}, stdout, stderr and "
              f"{outputs - 2} files, ru_maxrss {old.rss:.1f} -> {new.rss:.1f} MB", flush=True)
        differing += [f"  {name}: {d}" for d in diffs]
    print("\n".join(differing))
    print(f"{compared - len(differing)} of {compared} outputs identical outside meta")
    for side in ("old", "new"):
        rss, name = max(peaks[side])
        print(f"largest ru_maxrss in the {side} tree: {rss:.1f} MB ({name})")
    if differing:
        print(f"runs kept in {work}")
        return 1
    if not args.work:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
