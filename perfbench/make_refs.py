"""Regenerate perfbench/references.json, the stored answers of every case.

Each reference comes from a route other than the one the CLI command takes:

- radial orders <= 2000: the dense congruence route (`solve_dense`);
- larger radial orders: ARPACK (`eigsh`) on B x = mu A x with a sparse LU of
  A, lambda = 1/mu;
- cube grids: block LOBPCG on A x = lambda B x (B is a positive diagonal
  for the Gaussian weight), which also resolves the octahedral triple;
- oracle cases: the shooting oracle, accepted only when certified;
- `check`: the closed-form Hardy constant (2/(N-2+a))^2 and critical
  exponent 2N/(N-2+a);
- `catalogue`: the verdicts the paper states for each builtin weight.

The matrices come from the program's own assembly, so a reference pins the
eigen routes, not the discretization. Run from the repository root:

    python3 perfbench/make_refs.py
"""

import json
import os
import sys
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from degeig.assembly import assemble_grid3d, assemble_radial  # noqa: E402
from degeig.config import RadialGeometry, problem_from_dict  # noqa: E402
from degeig.eigensolve import solve_dense  # noqa: E402
from degeig.oracle import radial_weight_callable, shooting_eigenvalue  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

DENSE_LIMIT = 2000
RTOL = {"dense": 1e-6, "eigsh": 1e-6, "lobpcg": 1e-6, "oracle": 1e-8,
        "analytic": 1e-12}

# Paper's verdicts for the builtin weights at N=3, alpha=1: every split
# passes the decay probes; only the borderline weight's positive part misses
# L^(N/(2-alpha)), which the hypotheses allow because it is all decaying part.
CATALOGUE_VERDICTS = {
    "gaussian": {"decay": "pass", "lq": "finite", "overall": "pass"},
    "compact-bump": {"decay": "pass", "lq": "finite", "overall": "pass"},
    "ring": {"decay": "pass", "lq": "finite", "overall": "pass"},
    "ball": {"decay": "pass", "lq": "finite", "overall": "pass"},
    "borderline-log": {"decay": "pass", "lq": "diverges", "overall": "pass"},
}


def radial_pair(problem, M=None, R=None):
    prob = problem_from_dict(problem)
    geom = prob.geometry
    if M is not None:
        geom = RadialGeometry(R=R, M=M, q=geom.q, span=geom.span)
    return assemble_radial(geom.build(prob.N), prob.N, prob.alpha, prob.weight)


def dense_values(pair, k):
    return [float(x) for x in solve_dense(pair, k, DENSE_LIMIT).lambdas]


def eigsh_values(pair, k):
    lu = spla.splu(pair.A.tocsc())
    Minv = spla.LinearOperator(pair.A.shape, matvec=lu.solve, dtype=float)
    v0 = np.ones(pair.order)
    mu = spla.eigsh(pair.B, k=k, M=pair.A, Minv=Minv, which="LA", v0=v0,
                    ncv=min(pair.order, max(4 * k, 40)), tol=0.0,
                    return_eigenvectors=False)
    mu = np.sort(mu[mu > 0.0])[::-1]
    return [float(1.0 / m) for m in mu]


def lobpcg_values(pair, k):
    A = pair.A.tocsr()
    b = pair.B.diagonal()
    if (pair.B - sp.diags(b)).nnz or b.min() <= 0.0:
        raise SystemExit("lobpcg route needs a positive diagonal B")
    X = np.random.default_rng(0).standard_normal((pair.order, k + 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        lam, _ = spla.lobpcg(A, X, B=sp.diags(b), M=sp.diags(1.0 / A.diagonal()),
                             largest=False, tol=1e-11, maxiter=4000)
    return [float(x) for x in np.sort(lam)[:k]]


def solve_reference(case):
    prob = case.problem
    k = prob["solver"]["k"]
    if prob["geometry"]["mode"] == "grid3d":
        p = problem_from_dict(prob)
        pair = assemble_grid3d(p.geometry.build(3), p.alpha, p.weight)
        return "lobpcg", lobpcg_values(pair, k)
    pair = radial_pair(prob)
    if pair.order <= DENSE_LIMIT:
        return "dense", dense_values(pair, k)
    return "eigsh", eigsh_values(pair, k)


def reference(case):
    prob = case.problem
    entry = {"id": case.id, "command": case.command, "problem": prob}
    if case.command == "solve":
        route, values = solve_reference(case)
        entry.update(route=route, rtol=RTOL[route], values=values)
    elif case.command == "converge":
        k = prob["solver"]["k"]
        entry.update(route="dense", rtol=RTOL["dense"], rungs=[
            {"M": r["M"], "R": r["R"],
             "values": dense_values(radial_pair(prob, r["M"], r["R"]), k)}
            for r in case.ladder])
    elif case.command == "oracle":
        p = problem_from_dict(prob)
        g = radial_weight_callable(p.weight)
        values = []
        for n in range(1, p.solver.k + 1):
            res = shooting_eigenvalue(p.N, p.alpha, g, p.geometry.R, n,
                                      breakpoints=p.weight.jumps)
            if not res.certified:
                raise SystemExit(f"{case.id}: oracle eigenvalue {n} is uncertified")
            values.append(res.lam)
        entry.update(route="oracle", rtol=RTOL["oracle"], values=values)
    elif case.command == "check":
        N, a = prob["N"], prob["alpha"]
        entry.update(route="analytic", rtol=RTOL["analytic"], constants={
            "hardy_constant": (2.0 / (N - 2.0 + a)) ** 2,
            "critical_exponent": 2.0 * N / (N - 2.0 + a)})
    elif case.command == "catalogue":
        args = dict(zip(case.catalogue_args[::2], case.catalogue_args[1::2]))
        entry["problem"] = {"N": int(args["--N"]), "alpha": float(args["--alpha"])}
        entry.update(route="paper", verdicts=CATALOGUE_VERDICTS)
    return entry


def main():
    refs = []
    for cases in WORKLOADS.values():
        for case in cases:
            entry = reference(case)
            print(entry["id"], entry.get("route"), entry.get("values", ""), flush=True)
            refs.append(entry)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump({"references": refs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
