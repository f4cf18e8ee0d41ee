"""Self-test of the benchmark's output checks and metric lists.

    python3 perfbench/selftest.py                         # checks only, a second
    python3 perfbench/selftest.py --determinism study     # + two traced runs, one seed

The check part feeds hand-made outputs to checks.check_case and requires it
to pass on the stored answer and to fail on an output that compares nothing,
on a wrong value, and on a reference for another N, alpha, weight or R. It
also requires BENCHMARK.json to name exactly the workloads and metrics that
run.py prints.

--determinism runs `run.py --trace 1` twice with one seed and requires every
work counter to repeat exactly, then once with another seed and requires
every output check to pass.
"""

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check_case, load_references  # noqa: E402
from run import COUNTERS, END_TO_END_UNITS, PER_LAYER_UNITS, WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CASES = {c.id: c for cases in WORKLOADS.values() for c in cases}


def write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def solve_report(ref, values):
    p = ref["problem"]
    return {"problem": {"N": p["N"], "alpha": p["alpha"], "weight": p["weight"]["kind"]},
            "claims": {}, "eigen": {"pairs": [{"lambda": v} for v in values]}}


def golden(ref, values, R=None):
    p = ref["problem"]
    return {"entries": [{"N": p["N"], "alpha": p["alpha"], "weight": p["weight"]["kind"],
                         "R": p["geometry"]["R"] if R is None else R, "n": i + 1,
                         "lambda": v, "certified": True} for i, v in enumerate(values)]}


def other_problem(ref, key, value):
    """The reference, relabelled as if it belonged to another problem."""
    bad = copy.deepcopy(ref)
    if key == "R":
        bad["problem"]["geometry"]["R"] = value
    else:
        bad["problem"][key] = value
    return bad


def check_outputs():
    refs = load_references()
    base = os.path.join(WORK, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    results = []

    def expect(label, ok, case, ref, out_dir, stdout="", rc=0):
        res = check_case(case, ref, out_dir, stdout, rc)
        good = res.correct == ok
        results.append(good)
        print(f"{'ok  ' if good else 'FAIL'} {label}: correct={res.correct} "
              f"compared={res.compared} {res.wrong[:1]}")

    case = CASES["solve-gaussian-a1-M2000"]
    ref = refs[case.id]
    out = os.path.join(base, "solve")
    write_json(os.path.join(out, "eigen_report.json"), solve_report(ref, ref["values"]))
    expect("solve, stored answer", True, case, ref, out)
    for key, value in (("N", 4), ("alpha", 0.5), ("weight", {"kind": "ring"}), ("R", 8.0)):
        expect(f"solve, reference for another {key}", False, case,
               other_problem(ref, key, value), out)
    wrong = [v * (1.0 + 10.0 * ref["rtol"]) for v in ref["values"]]
    write_json(os.path.join(out, "eigen_report.json"), solve_report(ref, wrong))
    expect("solve, values off by 10 rtol", False, case, ref, out)
    write_json(os.path.join(out, "eigen_report.json"), solve_report(ref, []))
    expect("solve, empty sequence", False, case, ref, out)
    expect("solve, no report written", False, case, ref, os.path.join(base, "none"))

    case = CASES["oracle-ring-a1-k3"]
    ref = refs[case.id]
    out = os.path.join(base, "oracle")
    write_json(os.path.join(out, "golden.json"), golden(ref, ref["values"]))
    expect("oracle, stored answer", True, case, ref, out)
    write_json(os.path.join(out, "golden.json"), golden(ref, ref["values"], R=7.0))
    expect("oracle, output for another R", False, case, ref, out)
    write_json(os.path.join(out, "golden.json"), {"entries": []})
    expect("oracle, no entries", False, case, ref, out)

    case = CASES["catalogue-n3-a1"]
    ref = refs[case.id]
    lines = "\n".join(f"{name}: split=(x)  decay: {v['decay']}, L^(N/(2-alpha)): {v['lq']}"
                      f"  overall: {v['overall']}" for name, v in ref["verdicts"].items())
    expect("catalogue, stored verdicts", True, case, ref, base, lines)
    expect("catalogue, reference for another N", False, case,
           other_problem(ref, "N", 4), base, lines)
    expect("catalogue, nothing printed", False, case, ref, base, "")
    return all(results)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    same = (
        sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
        and {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
        and {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    )
    print(f"{'ok  ' if same else 'FAIL'} BENCHMARK.json names the workloads and metrics run.py prints")
    return same


def traced_run(workload, seed):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_determinism(workload, seed):
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    counts = [{c: r["metrics"][c]["value"] for c in COUNTERS} for r in (first, second)]
    same = counts[0] == counts[1]
    print(f"{'ok  ' if same else 'FAIL'} {workload}: counters repeat with seed {seed}: {counts[0]}"
          + ("" if same else f" then {counts[1]}"))
    other = traced_run(workload, seed + 1)
    print(f"{'ok  ' if other['correct'] else 'FAIL'} {workload}: outputs correct with seed {seed + 1}")
    return same and first["correct"] and second["correct"] and other["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--determinism", nargs="*", default=[], metavar="WORKLOAD")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    ok = check_outputs() & check_benchmark_json()
    for workload in args.determinism:
        ok &= check_determinism(workload, args.seed)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
