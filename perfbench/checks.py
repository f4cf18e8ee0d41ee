"""Output checks: compare what a command wrote with the stored references.

A check fails when its reference belongs to another problem (N, alpha,
weight or R differ), when it compares nothing, or when a value lies outside
the reference's relative tolerance. A command fails when it exits nonzero,
when a report claim carries `ok: false` or an oracle entry is uncertified,
or when its check finds a wrong value.
"""

import json
import os
import re

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references(path=REFERENCES):
    with open(path) as fh:
        return {e["id"]: e for e in json.load(fh)["references"]}


def identity(problem):
    """(N, alpha, weight, R) plus the mesh of a problem dict."""
    geom = problem.get("geometry", {})
    return {"N": problem.get("N"), "alpha": problem.get("alpha"),
            "weight": problem.get("weight"), "R": geom.get("R", geom.get("L")),
            "mesh": {k: v for k, v in geom.items() if k not in ("R", "L")}}


class Check:
    """Result of one command's output check."""

    def __init__(self):
        self.compared = 0
        self.wrong = []      # values outside tolerance, or a wrong problem
        self.claims = []     # failed claims reported by the program itself

    def compare(self, label, got, want, rtol):
        self.compared += 1
        if not abs(got - want) <= rtol * abs(want):
            self.wrong.append(f"{label} = {got!r}, reference {want!r} (rtol {rtol:g})")

    def compare_list(self, label, got, want, rtol):
        if len(got) != len(want):
            self.wrong.append(f"{label}: {len(got)} values, reference has {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            self.compare(f"{label}[{i + 1}]", g, w, rtol)

    def same_problem(self, what, got, want):
        if got != want:
            self.wrong.append(f"{what}: output is for {got!r}, reference for {want!r}")

    @property
    def correct(self):
        return not self.wrong


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _failed_claims(claims):
    return sorted(name for name, c in claims.items()
                  if isinstance(c, dict) and c.get("ok") is False)


def check_solve(ref, out_dir, res):
    report = _read_json(os.path.join(out_dir, "eigen_report.json"))
    if report is None:
        return
    prob = report["problem"]
    want = ref["problem"]
    res.same_problem("solve N/alpha/weight",
                     (prob["N"], prob["alpha"], prob["weight"]),
                     (want["N"], want["alpha"], want["weight"]["kind"]))
    res.claims += _failed_claims(report.get("claims", {}))
    got = [p["lambda"] for p in report["eigen"]["pairs"]]
    res.compare_list("lambda", got, ref["values"], ref["rtol"])


def check_converge(ref, out_dir, res):
    path = os.path.join(out_dir, "converge.csv")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
    rungs = {(int(r["M"]), float(r["R"])): r for r in rows}
    for rung in ref["rungs"]:
        row = rungs.get((rung["M"], rung["R"]))
        if row is None:
            res.wrong.append(f"rung M={rung['M']} R={rung['R']} missing from converge.csv")
            continue
        got = [float(row[h]) for h in header if h.startswith("lambda_")]
        res.compare_list(f"M={rung['M']} lambda", got, rung["values"], ref["rtol"])


def check_oracle(ref, out_dir, res):
    golden = _read_json(os.path.join(out_dir, "golden.json"))
    if golden is None:
        return
    want = ref["problem"]
    want_id = (want["N"], want["alpha"], want["weight"]["kind"], want["geometry"]["R"])
    for e in golden["entries"]:
        res.same_problem(f"oracle entry {e['n']}",
                         (e["N"], e["alpha"], e["weight"], e["R"]), want_id)
        if not e["certified"]:
            res.claims.append(f"uncertified_lambda_{e['n']}")
    got = [e["lambda"] for e in sorted(golden["entries"], key=lambda e: e["n"])]
    res.compare_list("lambda", got, ref["values"], ref["rtol"])


def check_inequalities(ref, out_dir, res):
    report = _read_json(os.path.join(out_dir, "inequality_report.json"))
    if report is None:
        return
    claims = report["claims"]
    res.claims += _failed_claims(claims)
    for name, want in ref["constants"].items():
        res.compare(name, claims[name]["value"], want, ref["rtol"])


CATALOGUE_LINE = re.compile(
    r"^(?P<name>[\w-]+): split=\S+\s+decay: (?P<decay>\w+), "
    r"L\^\(N/\(2-alpha\)\): (?P<lq>\w+)\s+overall: (?P<overall>\w+)$")


def check_catalogue(ref, stdout, res):
    seen = {}
    for line in stdout.splitlines():
        m = CATALOGUE_LINE.match(line.strip())
        if m:
            seen[m["name"]] = {k: m[k] for k in ("decay", "lq", "overall")}
    for name, want in ref["verdicts"].items():
        res.compared += 1
        if seen.get(name) != want:
            res.wrong.append(f"catalogue {name}: {seen.get(name)!r}, reference {want!r}")


CHECKERS = {"solve": check_solve, "converge": check_converge,
            "oracle": check_oracle, "check": check_inequalities}


def check_case(case, ref, out_dir, stdout, returncode=0):
    """Check one command's outputs against its reference; returns a Check.

    A command that exited 0 must have produced something to compare; one
    that failed may have written nothing, and is counted failed anyway.
    """
    res = Check()
    if ref is None:
        res.wrong.append(f"no reference stored for {case.id}")
        return res
    if case.command == "catalogue":
        args = dict(zip(case.catalogue_args[::2], case.catalogue_args[1::2]))
        res.same_problem("catalogue N/alpha", (int(args["--N"]), float(args["--alpha"])),
                         (ref["problem"]["N"], ref["problem"]["alpha"]))
        check_catalogue(ref, stdout, res)
    else:
        res.same_problem("case problem", identity(case.problem), identity(ref["problem"]))
        CHECKERS[case.command](ref, out_dir, res)
    if res.compared == 0 and returncode == 0:
        res.wrong.append("compared nothing")
    return res
