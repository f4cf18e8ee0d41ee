import json
import operator
import os
import re

import numpy as np
import pytest

from degeig.cli import main
from degeig.config import (
    ConfigError,
    PRESETS,
    load_config,
    load_preset,
    run_config_from_dict,
)
from degeig.mesh import grading_for_span


class Digits:
    """An integer literal of this many digits in a config's text, which
    json.dumps cannot write (it refuses integers of more than 4300 digits)."""

    def __init__(self, count):
        self.count = count


def small_config(tmp_path, **overrides):
    cfg = {
        "problem": {
            "N": 3,
            "alpha": 1.0,
            "weight": {"kind": "gaussian"},
            "geometry": {"mode": "radial", "R": 6.0, "M": 96},
            "solver": {"k": 3, "tol": 1e-9},
        },
        "ladder": [{"M": 32, "R": 6.0}, {"M": 64, "R": 6.0}, {"M": 96, "R": 6.0}],
        "seed": 42,
    }
    for key, value in overrides.items():
        section = cfg
        *head, last = key.split(".")
        for part in head:
            section = section[part]
        section[last] = value
    path = tmp_path / "config.json"
    text = json.dumps(cfg, default=lambda digits: f"<{digits.count} digits>")
    path.write_text(re.sub(r'"<(\d+) digits>"', lambda m: "9" * int(m.group(1)), text))
    return str(path)


def assert_ok_is_value_against_bound(claims, radial=True):
    """Every claim that has an ok has it as its value against its bound: at
    most the bound, at least it for plus_bound_min_margin and the grid's
    cluster claim, above it for the radial cluster claim and the
    near-optimizer steps."""
    floors = {"plus_bound_min_margin": operator.ge, "near_optimizer_increasing": operator.gt,
              "positive_increasing_across_clusters": operator.gt if radial else operator.ge}
    for name, claim in claims.items():
        if "ok" in claim:
            holds = floors.get(name, operator.le)
            assert claim["ok"] == holds(float(claim["value"]), float(claim["bound"])), name


def strip_meta(path):
    # byte-level comparison of everything before the trailing meta field
    text = open(path).read()
    head, sep, _ = text.partition('"meta":')
    assert sep, "report should carry a meta field"
    return head


class TestConfig:
    def test_presets_parse(self):
        for name in PRESETS:
            run = load_preset(name)
            assert run.seed == 42

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("does-not-exist")

    def test_alpha_constraint_named(self):
        with pytest.raises(ConfigError, match=r"\(0, 2\)"):
            run_config_from_dict(
                {
                    "problem": {
                        "N": 3,
                        "alpha": 2.5,
                        "weight": {"kind": "gaussian"},
                        "geometry": {"mode": "radial", "R": 1.0, "M": 16},
                    }
                }
            )

    def test_dimension_must_be_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            run_config_from_dict(
                {
                    "problem": {
                        "N": 3.5,
                        "alpha": 1.0,
                        "weight": {"kind": "gaussian"},
                        "geometry": {"mode": "radial", "R": 1.0, "M": 16},
                    }
                }
            )

    def test_ladder_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            run_config_from_dict(
                {
                    "problem": {
                        "N": 3,
                        "alpha": 1.0,
                        "weight": {"kind": "gaussian"},
                        "geometry": {"mode": "radial", "R": 1.0, "M": 16},
                    },
                    "ladder": [{"M": 64}, {"M": 32}, {"M": 128}],
                }
            )

    def test_unknown_weight_kind(self):
        with pytest.raises(ConfigError, match="unknown weight"):
            run_config_from_dict(
                {
                    "problem": {
                        "N": 3,
                        "alpha": 1.0,
                        "weight": {"kind": "mystery"},
                        "geometry": {"mode": "radial", "R": 1.0, "M": 16},
                    }
                }
            )


    @pytest.mark.parametrize("overrides, named", [
        pytest.param({"ladder": [{"R": 6.0}, {"M": 64}, {"M": 96}]}, "ladder[0].M",
                     id="rung-without-M"),
        pytest.param({"problem.geometry.R": -6}, "R must be positive", id="negative-R"),
        pytest.param({"problem.geometry": {"mode": "grid3d", "L": 6.0, "n": 10}},
                     "odd node count n", id="even-grid-n"),
        pytest.param({"problem.geometry.R": "six"}, "problem.geometry.R", id="string-R"),
        pytest.param({"seed": "x"}, "config.seed", id="string-seed"),
        pytest.param({"problem.solver.k": "6"}, "problem.solver.k", id="string-k"),
        pytest.param({"problem.solver.tol": [1e-9]}, "problem.solver.tol", id="list-tol"),
        pytest.param({"problem.weight": {"kind": "tabulated", "values": [1.0, 2.0]}},
                     "problem.weight.radii", id="tabulated-without-radii"),
        pytest.param({"problem.weight": {"kind": "gaussian", "width": "wide"}},
                     "problem.weight", id="string-width"),
        pytest.param({"problem.weight": {"kind": "gaussian", "widht": 3.0}}, "widht",
                     id="misspelled-weight-field"),
        pytest.param({"problem.geometry.spna": 10}, "spna", id="misspelled-geometry-field"),
        pytest.param({"ladder": [{"M": 4}, {"M": 64}, {"M": 96}]}, "ladder[0]",
                     id="rung-too-coarse"),
        pytest.param({"ladder": [{"M": 32}, {"M": 64, "spna": 10}, {"M": 96}]}, "spna",
                     id="misspelled-rung-field"),
        pytest.param({"problem.weight": {"kind": "gaussian", "amplitude": True}},
                     "problem.weight.amplitude", id="boolean-amplitude"),
        pytest.param({"problem.weight": {"kind": "ring", "neg_amplitude": True}},
                     "problem.weight.neg_amplitude", id="boolean-neg-amplitude"),
        # a tabulated weight is given inline only
        pytest.param({"problem.weight": {"kind": "tabulated", "csv": "w.csv"}},
                     "problem.weight: unknown fields ['csv']", id="csv-field"),
        # the matrix export is set by --export-matrices only
        pytest.param({"export_matrices": True}, "config: unknown fields ['export_matrices']",
                     id="export-matrices-field"),
        # the output directory is set by --out only
        pytest.param({"out": "elsewhere"}, "config: unknown fields ['out']", id="out-field"),
        pytest.param({"golden": 5}, "config.golden", id="numeric-golden"),
        pytest.param({"ladder": {"M": 32}}, "config.ladder", id="object-ladder"),
        # json reads NaN and Infinity, and an integer of any length
        pytest.param({"problem.weight": {"kind": "gaussian", "width": float("nan")}},
                     "problem.weight.width", id="nan-width"),
        pytest.param({"problem.geometry.R": 10**400}, "problem.geometry.R", id="400-digit-R"),
        pytest.param({"problem.geometry": {"mode": "grid3d", "L": float("inf"), "n": 9}},
                     "problem.geometry.L", id="infinite-L"),
        pytest.param({"problem.geometry.q": 1e400}, "problem.geometry.q", id="overflowing-q"),
        # the grading is one setting: q or span, and a rung inherits it
        pytest.param({"problem.geometry.q": None},
                     "problem.geometry.q: expected a number, got None", id="null-q"),
        pytest.param({"problem.geometry.q": 1.0, "problem.geometry.span": 100.0},
                     "problem.geometry: give q or span, not both", id="q-and-span"),
        pytest.param({"ladder": [{"M": 32}, {"M": 64, "q": 1.0}, {"M": 96}]},
                     "ladder[1]: unknown fields ['q']", id="rung-q"),
        pytest.param({"ladder": [{"M": 32}, {"M": 64}, {"M": 96, "span": 100.0}]},
                     "ladder[2]: unknown fields ['span']", id="rung-span"),
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": [0, 1, 6],
                                         "values": [1, float("nan"), 0]}},
                     "problem.weight: tabulated values must be finite", id="nan-value"),
        # a string was reported as a float conversion, and a number as an
        # array of the wrong shape, without naming the field
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": "abc",
                                         "values": [1, 0]}},
                     "problem.weight.radii: expected a list, got 'abc'", id="string-radii"),
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": [0, 6], "values": 5}},
                     "problem.weight.values: expected a list, got 5", id="number-values"),
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": [0, 1, "x"],
                                         "values": [1, 0.5, 0]}},
                     "problem.weight.radii[2]: expected a number, got 'x'",
                     id="string-radius"),
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": [0, 2, 1],
                                         "values": [1, 0.5, 0]}},
                     "problem.weight: tabulated radii must be strictly increasing",
                     id="unsorted-radii"),
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": [0], "values": [1]}},
                     "problem.weight: tabulated needs matching 1-d radius/value arrays, "
                     ">= 2 samples", id="one-sample"),
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": [0, 1, 6],
                                         "values": [1, 0]}},
                     "problem.weight: tabulated needs matching 1-d radius/value arrays, "
                     ">= 2 samples", id="mismatched-lengths"),
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": [0, float("inf"), 6],
                                         "values": [1, 0.5, 0]}},
                     "problem.weight: tabulated radii must be finite", id="infinite-radius"),
        pytest.param({"problem.weight": {"kind": "tabulated", "radii": [0, 1, 6],
                                         "values": [1, 10**400, 0]}},
                     "problem.weight: int too large", id="400-digit-value"),
        pytest.param({"problem.geometry.R": Digits(5001)}, "config.json: Exceeds the limit",
                     id="5001-digit-R"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, overrides, named):
        # each was a traceback, a silent default or a misleading numerical
        # failure before; now exit 1 naming the field
        cfg = small_config(tmp_path, **overrides)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and named in err
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(cfg)

    @pytest.mark.parametrize("command, source", [
        pytest.param("solve", ["--preset", "gaussian-n3-a1", "--seed", "-1"], id="solve-seed-arg"),
        pytest.param("solve", ["--preset", "grid3d-gaussian-a1", "--seed", "-1"],
                     id="grid-seed-arg"),
        pytest.param("solve", ["--config", "<config>"], id="solve-config-seed"),
        pytest.param("converge", ["--config", "<config>"], id="converge-config-seed"),
    ])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command, source):
        # numpy's generators take no negative seed: from --seed or from the
        # config, it ended in a traceback from default_rng
        cfg = small_config(tmp_path, seed=-1)
        argv = [command, *[cfg if a == "<config>" else a for a in source],
                "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: seed: -1 is negative; a seed must be an integer >= 0\n")

    def test_ladder_rungs_inherit_q_and_span(self, tmp_path):
        # the rung equal to the problem's mesh reproduces solve's lambda_1 bit for bit
        cfg = small_config(tmp_path, **{
            "problem.geometry": {"mode": "radial", "R": 6.0, "M": 64, "q": 1.0},
            "problem.solver.k": 2,
            "ladder": [{"M": 32}, {"M": 64}, {"M": 96}]})
        solve_out, converge_out = str(tmp_path / "solve"), str(tmp_path / "converge")
        assert main(["solve", "--config", cfg, "--out", solve_out]) == 0
        assert main(["converge", "--config", cfg, "--out", converge_out]) == 0
        report = json.loads(open(os.path.join(solve_out, "eigen_report.json")).read())
        rows = open(os.path.join(converge_out, "converge.csv")).read().split("\n")
        rung = rows[2].split(",")
        assert rung[0] == "64"
        assert float(rung[2]) == report["eigen"]["pairs"][0]["lambda"]
        # every rung is graded as the problem's geometry is, at the rung's M and R
        doc = json.loads(open(cfg).read())
        doc["problem"]["geometry"] = {"mode": "radial", "R": 6.0, "M": 64, "span": 100.0}
        doc["ladder"] = [{"M": 32}, {"M": 64, "R": 4.0}, {"M": 96}]
        rungs = run_config_from_dict(doc).rungs()
        assert [(g.M, g.R, g.q, g.span) for g in rungs] == [
            (32, 6.0, None, 100.0), (64, 4.0, None, 100.0), (96, 6.0, None, 100.0)]
        assert rungs[1].grading() == grading_for_span(64, 100.0) != 1.0


class TestSolveCommand:
    def test_exit_zero_and_report(self, tmp_path):
        cfg = small_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        assert report["claims"]["max_residual"]["ok"]
        assert report["eigen"]["found"] == 3
        vectors = np.load(os.path.join(out, "eigenvectors.npy"))
        assert vectors.dtype.names == ("r", "e1", "e2", "e3")
        assert vectors.shape == (96 + 1,)  # M+1 nodes
        assert tuple(vectors[-1]) == (6.0, 0.0, 0.0, 0.0)  # the Dirichlet node at R

    def test_grid_vectors_equal_the_solver_bits(self, tmp_path):
        # the .npy fields are the dof positions and solve_successive's vectors
        # at the same seed and on one BLAS thread, as main runs, bit for bit
        from degeig.cli import _assemble, _one_blas_thread
        from degeig.eigensolve import solve_successive

        cfg = small_config(tmp_path, **{"problem.geometry": {"mode": "grid3d", "L": 6.0, "n": 13},
                                        "problem.solver.k": 4})
        out = str(tmp_path / "grid")
        assert main(["solve", "--config", cfg, "--out", out, "--seed", "5"]) == 0
        vectors = np.load(os.path.join(out, "eigenvectors.npy"))
        assert vectors.dtype.names == ("x", "y", "z", "e1", "e2", "e3", "e4")
        problem = run_config_from_dict(json.loads(open(cfg).read())).problem
        pair = _assemble(problem)
        with _one_blas_thread():
            seq = solve_successive(pair, settings=problem.solver, seed=5)
        for j, axis in enumerate("xyz"):
            assert np.array_equal(vectors[axis], pair.dof_positions[:, j])
        for i in range(seq.count):
            assert np.array_equal(vectors[f"e{i + 1}"], seq.vectors[:, i])

    def test_grid_vector_file_forms_no_positions(self, tmp_path):
        # the grid's x, y and z fields are broadcast from its axis into the
        # table: writing 21^3 peaks at the table plus one column, and the pair
        # builds no n x 3 positions array (three more columns)
        import tracemalloc
        from types import SimpleNamespace

        from degeig.assembly import assemble_grid3d
        from degeig.cli import _write_vectors
        from degeig.mesh import build_grid3d
        from degeig.weights import gaussian_bump

        pair = assemble_grid3d(build_grid3d(6.0, 21), 1.0, gaussian_bump())
        seq = SimpleNamespace(count=2, vectors=np.ones((pair.order, 2), order="F"))
        path = str(tmp_path / "eigenvectors.npy")
        _write_vectors(path, pair, seq)  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            _write_vectors(path, pair, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column = 8 * pair.order
        assert peak <= (3 + seq.count) * column + column
        assert "dof_positions" not in vars(pair)
        assert np.array_equal(np.load(path)["y"], pair.dof_positions[:, 1])

    def test_vector_file_repeats_as_float64(self, tmp_path):
        cfg = small_config(tmp_path)
        files = []
        for run in ("a", "b"):
            out = str(tmp_path / run)
            assert main(["solve", "--config", cfg, "--out", out, "--seed", "7"]) == 0
            files.append(open(os.path.join(out, "eigenvectors.npy"), "rb").read())
        assert files[0] == files[1]
        dtype = np.load(os.path.join(out, "eigenvectors.npy")).dtype
        assert all(dtype[name].str == "<f8" for name in dtype.names)

    @pytest.mark.parametrize("weight", ["ring", "gaussian"])
    def test_arpack_basis_sized_only_for_indefinite_pencil(self, tmp_path, monkeypatch, weight):
        # M = 2000, k = 24, solved with the basis _block_pairs picks and with
        # ARPACK's default (eigsh's ncv dropped). The ring's B has negative
        # diagonal entries, and its 72 vectors take about 100 applications of
        # B where the default's 49 take 158; every claim holds, the dense
        # reference's agreement among them. The gaussian's B is positive
        # definite: it keeps the default basis, its 63 applications and
        # every output bit
        import scipy.sparse.linalg as spla

        cfg = small_config(tmp_path, **{"problem.weight.kind": weight,
                                        "problem.geometry.M": 2000, "problem.solver.k": 24})
        reports, vectors = {}, {}
        for basis in ("sized", "default"):
            if basis == "default":
                real = spla.eigsh
                monkeypatch.setattr(spla, "eigsh", lambda *a, ncv=None, **kw: real(*a, **kw))
            out = str(tmp_path / basis)
            assert main(["solve", "--config", cfg, "--out", out]) == 0
            reports[basis] = json.loads(open(os.path.join(out, "eigen_report.json")).read())
            vectors[basis] = open(os.path.join(out, "eigenvectors.npy"), "rb").read()
        sized, default = (reports[basis]["diagnostics"]["calls"][0]["applications"]
                          for basis in ("sized", "default"))
        if weight == "gaussian":
            assert sized == default == 63
            assert vectors["sized"] == vectors["default"]
            del reports["sized"]["meta"], reports["default"]["meta"]
            assert reports["sized"] == reports["default"]
            return
        assert default == 158 and sized <= 110
        claims = reports["sized"]["claims"]
        assert "dense_agreement_rel" in claims and all(c["ok"] for c in claims.values())

    def test_deterministic_reports(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["solve", "--config", cfg, "--out", out1, "--seed", "7"]) == 0
        assert main(["solve", "--config", cfg, "--out", out2, "--seed", "7"]) == 0
        r1 = strip_meta(os.path.join(out1, "eigen_report.json"))
        r2 = strip_meta(os.path.join(out2, "eigen_report.json"))
        assert r1 == r2

    def test_deterministic_reports_across_processes(self, tmp_path):
        # ring M=8192 k=24, each run in its own interpreter: the reports must
        # agree outside meta, which a per-pair ARPACK loop did not achieve,
        # and the vector files too, at one and at two OpenBLAS threads
        import subprocess
        import sys

        import degeig

        cfg = small_config(tmp_path, **{
            "problem.weight.kind": "ring", "problem.geometry.M": 8192,
            "problem.solver.k": 24})
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degeig.__file__))}
        outputs = []
        for threads in ("1", "2"):
            out = str(tmp_path / threads)
            subprocess.run([sys.executable, "-m", "degeig.cli", "solve", "--config", cfg,
                            "--out", out], env={**env, "OPENBLAS_NUM_THREADS": threads},
                           check=True, capture_output=True)
            outputs.append((strip_meta(os.path.join(out, "eigen_report.json")),
                            open(os.path.join(out, "eigenvectors.npy"), "rb").read()))
        assert outputs[0] == outputs[1]

    def test_claims_hold_at_any_weight_scale(self, tmp_path):
        # an amplitude a divides every lambda by a; the mass identity and the
        # g^+ bound hold relative to 1/lambda_n, so at rounding level still,
        # and the cluster claim reads relative gaps, which a does not move
        # (its value was once lambda_1 = 4.8e-10 at a = 1e10, under ok: true)
        cluster = []
        for amplitude in (1.0, 1e8, 1e10):
            cfg = small_config(tmp_path, **{
                "problem.weight.amplitude": amplitude, "problem.geometry.M": 512,
                "problem.solver.k": 6})
            out = str(tmp_path / f"run-{amplitude:g}")
            assert main(["solve", "--config", cfg, "--out", out]) == 0
            claims = json.loads(open(os.path.join(out, "eigen_report.json")).read())["claims"]
            assert_ok_is_value_against_bound(claims)
            assert claims["mass_identity_gap"]["value"] < 1e-13
            assert claims["plus_bound_min_margin"]["value"] > -1e-13
            cluster.append(claims["positive_increasing_across_clusters"]["value"])
        assert cluster[2] == pytest.approx(cluster[0], rel=1e-9)

    def test_config_error_exit_code(self, tmp_path):
        cfg = small_config(tmp_path, **{"problem.alpha": 2.5})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("field", ["restarts", "deflation_tol", "dense_threshold", "seed"])
    def test_removed_solver_field_is_config_error(self, tmp_path, field):
        cfg = small_config(tmp_path, **{f"problem.solver.{field}": 1e-14})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_missing_config(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path / "x")]) == 1
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1

    def test_partial_result_warns_but_succeeds(self, tmp_path):
        cfg = small_config(
            tmp_path,
            **{
                "problem.weight": {"kind": "ring"},
                "problem.geometry": {"mode": "radial", "R": 6.0, "M": 16, "q": 1.0},
                "problem.solver": {"k": 14, "tol": 1e-9},
            },
        )
        out = str(tmp_path / "partial")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        assert report["eigen"]["exhausted"]
        assert report["eigen"]["found"] < 14
        assert report["eigen"]["warnings"]

    def test_matrix_export(self, tmp_path):
        cfg = small_config(tmp_path, **{"problem.geometry.M": 32})
        out = str(tmp_path / "mats")
        assert main(["solve", "--config", cfg, "--out", out, "--export-matrices"]) == 0
        a_lines = open(os.path.join(out, "A.txt")).read().strip().split("\n")
        i, j, v = a_lines[0].split()
        assert (i, j) == ("0", "0") and float(v) > 0.0
        h_lines = open(os.path.join(out, "H.txt")).read().strip().split("\n")
        assert len(h_lines) == 3 * 32 - 2  # every entry of the tridiagonal H

    @pytest.mark.parametrize("preset", ["gaussian-n3-a1", "grid3d-gaussian-a1"])
    def test_solve_builds_no_hardy_matrix(self, tmp_path, monkeypatch, preset):
        # H is built on first read, and solve reads it only to export it
        import degeig.assembly as assembly

        def refuse(*args):
            raise AssertionError("solve built H")

        monkeypatch.setattr(assembly, "_radial_hardy", refuse)
        monkeypatch.setattr(assembly, "_grid_hardy", refuse)
        assert main(["solve", "--preset", preset, "--out", str(tmp_path / "x")]) == 0

    def test_golden_comparison_claim(self, tmp_path):
        cfg_small = small_config(tmp_path, **{"problem.solver.k": 2})
        golden_out = str(tmp_path / "golden")
        assert main(["oracle", "--config", cfg_small, "--out", golden_out]) == 0
        cfg = json.loads(open(cfg_small).read())
        cfg["golden"] = os.path.join(golden_out, "golden.json")
        cfg_path = tmp_path / "with_golden.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "solve_golden")
        assert main(["solve", "--config", str(cfg_path), "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        assert report["claims"]["golden_agreement_rel"]["ok"]


    def _solve_with_golden(self, tmp_path, entries):
        cfg = json.loads(open(small_config(tmp_path, **{"problem.solver.k": 2})).read())
        golden_path = tmp_path / "golden.json"
        golden_path.write_text(json.dumps({"entries": entries}))
        cfg["golden"] = str(golden_path)
        cfg_path = tmp_path / "with_golden.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "solve_golden")
        code = main(["solve", "--config", str(cfg_path), "--out", out])
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        return code, report["claims"]["golden_agreement_rel"]

    @pytest.mark.parametrize("entry", [
        pytest.param([3, 4.78], id="list-entry"),
        pytest.param({"lambda": 4.78}, id="missing-n"),
        pytest.param({"n": 0, "lambda": 4.78}, id="zero-n"),
        pytest.param({"n": 1.7, "lambda": 4.78}, id="fractional-n"),
        pytest.param({"n": True, "lambda": 4.78}, id="boolean-n"),
        pytest.param({"n": 1}, id="missing-lambda"),
        pytest.param({"n": 1, "lambda": "4.78"}, id="string-lambda"),
        pytest.param({"n": 1, "lambda": -4.78}, id="negative-lambda"),
        pytest.param({"n": 1, "lambda": float("inf")}, id="infinite-lambda"),
        pytest.param({"n": 1, "lambda": True}, id="boolean-lambda"),
    ])
    def test_malformed_golden_entry_is_config_error(self, tmp_path, capsys, entry):
        # each was a traceback, a truncated n or a comparison against lambda_0 before
        if isinstance(entry, dict):
            entry = {"N": 3, "alpha": 1.0, "weight": "gaussian", "R": 6.0, "certified": True,
                     **entry}
        ok = {"N": 3, "alpha": 1.0, "weight": "gaussian", "R": 6.0, "certified": True,
              "n": 1, "lambda": 4.78}
        golden_path = tmp_path / "golden.json"
        golden_path.write_text(json.dumps({"entries": [ok, entry]}))
        cfg = small_config(tmp_path, **{"problem.solver.k": 2, "golden": str(golden_path)})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: golden file {golden_path}: entries[1] ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("golden", [[], {"entries": {"n": 1}}])
    def test_golden_without_entry_list_is_config_error(self, tmp_path, capsys, golden):
        golden_path = tmp_path / "golden.json"
        golden_path.write_text(json.dumps(golden))
        cfg = small_config(tmp_path, **{"problem.solver.k": 2, "golden": str(golden_path)})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: golden file {golden_path}: ")

    def test_golden_claim_fails_when_nothing_compared(self, tmp_path):
        entry = {"N": 3, "alpha": 1.0, "weight": "gaussian", "R": 6.0, "n": 1,
                 "lambda": 4.78, "certified": False}
        code, claim = self._solve_with_golden(tmp_path, [entry])
        assert code == 2
        assert claim["value"] == "inf" and not claim["ok"]

    def test_golden_claim_fails_for_another_problem(self, tmp_path):
        # lambda_1 of this run, but recorded for R = 5
        cfg = small_config(tmp_path, **{"problem.solver.k": 2})
        out = str(tmp_path / "plain")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        lam1 = report["eigen"]["pairs"][0]["lambda"]
        entry = {"N": 3, "alpha": 1.0, "weight": "gaussian", "R": 5.0, "n": 1,
                 "lambda": lam1, "certified": True}
        code, claim = self._solve_with_golden(tmp_path, [entry])
        assert code == 2
        # lambda_1 agrees exactly, but with another problem: no agreement at all
        assert claim["value"] == "inf" and not claim["ok"]

    def test_grid_triple_passes_cluster_claim(self, tmp_path):
        # the octahedral triple on the cube grid is one cluster whose members
        # may differ by rounding in either direction; it is a correct result
        cfg = small_config(
            tmp_path,
            **{"problem.geometry": {"mode": "grid3d", "L": 6.0, "n": 11},
               "problem.solver.k": 5},
        )
        out = str(tmp_path / "grid")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        assert [2, 3, 4] in report["eigen"]["clusters"]
        claim = report["claims"]["positive_increasing_across_clusters"]
        assert claim["ok"] and claim["value"] > claim["bound"]
        assert_ok_is_value_against_bound(report["claims"], radial=False)

    def test_grid_cut_cluster_warned(self, tmp_path, capsys):
        # k = 6 on grid 31^3 reports one member of the E_g double at 15.19507;
        # the eee call computed its partner too, which is not reported. The
        # report and stdout say so; the clusters, claims and exit code do not
        # change
        cfg = small_config(tmp_path, **{"problem.geometry": {"mode": "grid3d", "L": 6.0, "n": 31},
                                        "problem.solver.k": 6})
        out = str(tmp_path / "grid31")
        assert main(["solve", "--config", cfg, "--out", out, "--seed", "42"]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        warning = ("k = 6 cuts a cluster: 1 computed member(s) after pairs [6] "
                   "(lambda 15.19507) not reported")
        assert report["eigen"]["warnings"] == [warning]
        assert f"warning: {warning}" in capsys.readouterr().out.splitlines()
        assert report["eigen"]["clusters"] == [[0], [1], [2, 3, 4], [5]]
        assert all(c["ok"] for c in report["claims"].values())

    def test_pair_sector_reported_on_grid_only(self, tmp_path):
        # each grid pair names its parity sector (the ground pair is even in
        # every axis); radial pairs carry no sector field
        grid = small_config(tmp_path, **{"problem.geometry": {"mode": "grid3d", "L": 6.0, "n": 11},
                                         "problem.solver.k": 5})
        out = str(tmp_path / "grid")
        assert main(["solve", "--config", grid, "--out", out]) == 0
        pairs = json.loads(open(os.path.join(out, "eigen_report.json")).read())["eigen"]["pairs"]
        assert pairs[0]["sector"] == "eee"
        assert sorted(p["sector"] for p in pairs[2:]) == ["eeo", "eoe", "oee"]
        radial = small_config(tmp_path)
        out = str(tmp_path / "radial")
        assert main(["solve", "--config", radial, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        assert not any("sector" in p for p in report["eigen"]["pairs"])

    def test_grid_solve_skips_no_multiplicity_member(self, tmp_path):
        # ring grid 15^3: lambda_5..lambda_7 are a triple at 7.109271694 (the
        # dense route with its threshold raised to the order 2197); single-
        # vector Lanczos returned two members and lambda_8 = 7.257848 as lambda_7
        cfg = small_config(
            tmp_path,
            **{"problem.weight": {"kind": "ring"},
               "problem.geometry": {"mode": "grid3d", "L": 6.0, "n": 15},
               "problem.solver.k": 7},
        )
        out = str(tmp_path / "ring15")
        assert main(["solve", "--config", cfg, "--out", out, "--seed", "42"]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        lam7 = report["eigen"]["pairs"][6]["lambda"]
        assert abs(lam7 - 7.109271694125) <= 1e-8 * 7.109271694125
        assert [4, 5, 6] in report["eigen"]["clusters"]

    def test_cluster_claim_conditions(self):
        from types import SimpleNamespace

        from degeig.cli import _increasing_across_clusters

        # the claim reads its clusters from the sequence alone (cluster_gaps);
        # its value, sign(lambda_i) and relative gaps, does not move when every
        # lambda is scaled, and ok is that value against the bound
        def claim(lams, radial):
            results = [_increasing_across_clusters(SimpleNamespace(lambdas=scale * np.array(lams)),
                                                   radial) for scale in (1.0, 1e-10)]
            assert results[1]["value"] == pytest.approx(results[0]["value"], rel=1e-6)
            assert_ok_is_value_against_bound(
                {"positive_increasing_across_clusters": results[0]}, radial)
            assert results[1]["ok"] == results[0]["ok"]
            return results[0]["ok"]

        triple = [1.0, 2.0, 2.0 * (1.0 - 2e-16), 2.0, 3.0]
        assert claim(triple, radial=False)
        assert not claim(triple, radial=True)     # radial eigenvalues are simple
        assert not claim([1.0, 2.0, 1.5], radial=False)   # a real decrease
        assert not claim([-1.0, 2.0], radial=True)
        assert claim([4.0], radial=True)

    def test_five_dimensional_solve_meets_bounds(self, tmp_path):
        cfg = small_config(tmp_path, **{"problem.N": 5, "problem.geometry.M": 2000,
                                        "problem.solver.k": 6})
        out = str(tmp_path / "n5")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        claims = json.loads(open(os.path.join(out, "eigen_report.json")).read())["claims"]
        assert claims["max_residual"]["ok"]
        assert claims["mass_orthonormality_gap"]["ok"]


class TestOtherCommands:
    def test_converge_requires_three_rungs(self, tmp_path):
        cfg = small_config(tmp_path, ladder=[{"M": 32, "R": 6.0}])
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "c")]) == 1

    def test_converge_rungs_finding_different_counts(self, tmp_path):
        # ring q=1: the rungs M=16, 24, 32 find 4, 5 and 6 positive pairs of
        # the 14 asked for; each row holds the 4 all of them found
        cfg = small_config(tmp_path, **{
            "problem.weight": {"kind": "ring"},
            "problem.geometry": {"mode": "radial", "R": 6.0, "M": 32, "q": 1.0},
            "problem.solver.k": 14,
            "ladder": [{"M": 16}, {"M": 24}, {"M": 32}]})
        out = str(tmp_path / "conv")
        assert main(["converge", "--config", cfg, "--out", out]) == 0
        table = open(os.path.join(out, "converge.csv")).read().strip().split("\n")
        assert table[0] == "M,R,lambda_1,lambda_2,lambda_3,lambda_4,hardy_slack"
        assert [len(row.split(",")) for row in table[1:]] == [7, 7, 7]
        report = json.loads(open(os.path.join(out, "converge_report.json")).read())
        assert list(report["claims"]["orders"]) == [f"lambda_{n}" for n in range(1, 5)]

    def test_converge_outputs(self, tmp_path):
        cfg = small_config(
            tmp_path,
            **{"problem.solver.k": 2,
               "ladder": [{"M": 128, "R": 6.0}, {"M": 256, "R": 6.0}, {"M": 512, "R": 6.0}]},
        )
        out = str(tmp_path / "conv")
        assert main(["converge", "--config", cfg, "--out", out]) == 0
        table = open(os.path.join(out, "converge.csv")).read().strip().split("\n")
        assert table[0].startswith("M,R,lambda_1")
        assert len(table) == 4
        report = json.loads(open(os.path.join(out, "converge_report.json")).read())
        # P1 eigenvalue convergence order ~ 2 on the smooth-weight preset
        for orders in report["claims"]["orders"].values():
            assert 1.7 <= orders[-1] <= 2.3
        assert all(report["claims"]["differences_decreasing"].values())

    def test_check_outputs(self, tmp_path):
        cfg = small_config(tmp_path, **{"problem.geometry.M": 128})
        out = str(tmp_path / "chk")
        assert main(["check", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "inequality_report.json")).read())
        claims = report["claims"]
        assert all(claims[name]["ok"] for name in (
            "hardy_all_pass", "near_optimizer_increasing", "near_optimizer_below_constant",
            "dilation_spread", "ckn_hardy_reduction", "ckn_sobolev_reduction"))
        assert_ok_is_value_against_bound(claims)
        # one flat record per checked quotient, three profiles per check
        fields = ["label", "left", "right", "quotient", "margin", "verdict", "passed", "notes",
                  "reference_constant"]
        for key in ("hardy", "sobolev", "ckn_hardy_point", "ckn_sobolev_point"):
            assert len(report[key]) == 3
            for record in report[key]:
                assert list(record) == fields + (["agreement"] if key.startswith("ckn") else [])
                assert record["quotient"] == record["left"] / record["right"]
        # each claim's value is read from the records it summarizes
        assert claims["hardy_all_pass"]["value"] == max(r["quotient"] for r in report["hardy"])
        assert claims["ckn_sobolev_reduction"]["value"] == max(
            r["agreement"] for r in report["ckn_sobolev_point"])
        quotients = report["near_optimizer"]["quotients"]
        assert claims["near_optimizer_below_constant"]["value"] == (
            max(quotients) / claims["hardy_constant"]["value"])

    def test_check_sign_changing_weight(self, tmp_path):
        cfg = small_config(
            tmp_path,
            **{"problem.weight": {"kind": "ring"}, "problem.geometry.M": 128,
               "problem.alpha": 0.5},
        )
        out = str(tmp_path / "chk_ring")
        assert main(["check", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "inequality_report.json")).read())
        assert report["claims"]["near_optimizer_increasing"]["ok"]
        assert report["claims"]["near_optimizer_below_constant"]["ok"]
        assert report["claims"]["ckn_hardy_reduction"]["ok"]
        assert report["claims"]["ckn_sobolev_reduction"]["ok"]
        assert_ok_is_value_against_bound(report["claims"])

    def test_check_names_failed_claim(self, tmp_path, capsys, monkeypatch):
        # a failed check claim was exit 2 with nothing on stderr; a Hardy
        # quotient of 2 lies above the claim's bound 1 + HARDY_SLACK
        import degeig.cli as cli

        real = cli.check_hardy
        monkeypatch.setattr(cli, "check_hardy", lambda *a, **kw: {
            **real(*a, **kw), "quotient": 2.0, "verdict": "fail", "passed": False})
        cfg = small_config(tmp_path, **{"problem.geometry.M": 128})
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "chk")]) == 2
        assert capsys.readouterr().err == "invariant violation: hardy_all_pass\n"

    @pytest.mark.parametrize("command, report", [("check", "inequality_report.json"),
                                                 ("oracle", "golden.json")])
    def test_report_does_not_depend_on_seed(self, tmp_path, command, report):
        # neither command draws a random number: --seed 1 and 2 write one report
        cfg = small_config(tmp_path, **{"problem.geometry.M": 128, "problem.solver.k": 2})
        texts = []
        for seed in ("1", "2"):
            out = str(tmp_path / seed)
            assert main([command, "--config", cfg, "--out", out, "--seed", seed]) == 0
            texts.append(strip_meta(os.path.join(out, report)))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("command", ["converge", "check", "oracle"])
    def test_radial_only_command_refuses_grid(self, tmp_path, capsys, command):
        # the grid preset has no ladder: converge is refused for its geometry
        out = str(tmp_path / command)
        assert main([command, "--preset", "grid3d-gaussian-a1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command} ") and err.count("\n") == 1
        assert "radial geometry" in err

    def test_oracle_golden_file(self, tmp_path):
        cfg = small_config(tmp_path, **{"problem.solver.k": 2})
        out = str(tmp_path / "gold")
        assert main(["oracle", "--config", cfg, "--out", out]) == 0
        golden = json.loads(open(os.path.join(out, "golden.json")).read())
        lams = [e["lambda"] for e in golden["entries"]]
        assert len(lams) == 2 and lams[0] < lams[1]
        assert all(e["certified"] for e in golden["entries"])

    @pytest.mark.parametrize("command", ["solve", "converge", "check", "oracle"])
    def test_tabulated_weight_short_of_R_is_numerical_failure(self, tmp_path, capsys, command):
        # radii 0..3 with R = 6: every command reports one line and exit 2
        weight = {"kind": "tabulated", "radii": [0.0, 1.5, 3.0], "values": [1.0, 0.5, 0.25]}
        cfg = small_config(tmp_path, **{"problem.weight": weight})
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "[0, 3]" in err

    def test_arpack_error_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # an ARPACK error other than no convergence (-9999: B overflowed by a
        # tabulated value of 1e308) is one line and exit 2, not a traceback
        import degeig.eigensolve as es

        def failing(*args, **kwargs):
            raise es.spla.ArpackError(-9999)

        monkeypatch.setattr(es.spla, "eigsh", failing)
        assert main(["solve", "--config", small_config(tmp_path),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: ARPACK failed: ARPACK error -9999: Unknown error\n"

    @pytest.mark.parametrize("geometry", [{"mode": "radial", "R": 6.0, "M": 96},
                                          {"mode": "grid3d", "L": 6.0, "n": 9}])
    def test_overflowing_weight_refused_at_assembly(self, tmp_path, capfd, monkeypatch,
                                                    geometry):
        # finite tabulated values of 1e308 overflow B: one line naming the
        # weight, exit 2 and no ARPACK call; no RuntimeWarning (an error in
        # this suite) and no LAPACK message on either stream
        import degeig.eigensolve as es

        calls, eigsh = [], es.spla.eigsh
        monkeypatch.setattr(es.spla, "eigsh", lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
        weight = {"kind": "tabulated", "radii": [0.0, 3.0, 12.0], "values": [1e308, 1e308, 0.0]}
        cfg = small_config(tmp_path, **{"problem.weight": weight, "problem.geometry": geometry})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert not calls
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: weight 'tabulated' overflows the mass "
                                "matrix B: an entry is not finite\n")

    @pytest.mark.parametrize("command, geometry, radii", [
        ("solve", {"mode": "radial", "R": 6.0, "M": 64}, [0.0, 3.0, 6.0]),
        ("converge", {"mode": "radial", "R": 6.0, "M": 64}, [0.0, 3.0, 6.0]),
        ("solve", {"mode": "grid3d", "L": 6.0, "n": 15}, [0.0, 3.0, 12.0])])
    def test_weight_without_positive_part_is_numerical_failure(self, tmp_path, capsys,
                                                               monkeypatch, command, geometry,
                                                               radii):
        # g = -1 everywhere makes B negative semidefinite, so by Sylvester's
        # law the pencil has no positive eigenvalue: one line and exit 2, with
        # no factorization and no eigensolver call (ARPACK ran out of restarts
        # on the radial pencil, and the grid solve raised an IndexError)
        import degeig.eigensolve as es

        calls = []
        for name in ("splu", "eigsh", "lobpcg"):
            real = getattr(es.spla, name)
            monkeypatch.setattr(es.spla, name, lambda *a, _real=real, **kw:
                                calls.append(1) or _real(*a, **kw))
        weight = {"kind": "tabulated", "radii": radii, "values": [-1.0, -1.0, -1.0]}
        cfg = small_config(tmp_path, **{"problem.weight": weight, "problem.geometry": geometry})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert not calls
        assert capsys.readouterr().err == ("numerical failure: no positive eigenvalues found in "
                                           "the discrete pencil\n")

    def test_catalogue_lists_borderline(self, tmp_path, capsys):
        assert main(["catalogue", "--N", "3", "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "borderline-log" in out
        assert "diverges" in out
        assert "decay: pass" in out

    @pytest.mark.parametrize("args, flag", [(["--N", "2"], "--N"),
                                            (["--alpha", "2.5"], "--alpha"),
                                            (["--alpha", "0"], "--alpha"),
                                            (["--alpha", "nan"], "--alpha")])
    def test_catalogue_rejects_flags_outside_the_paper(self, tmp_path, capsys, args, flag):
        # N >= 3 and 0 < alpha < 2 are checked before any verdict is printed
        out = str(tmp_path / "cat")
        assert main(["catalogue", *args, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {flag} ")
        assert not os.path.exists(os.path.join(out, "catalogue.json"))

    def test_out_defaults_to_out_except_for_catalogue(self, tmp_path, monkeypatch):
        # without --out, solve writes to ./out; catalogue only prints
        monkeypatch.chdir(tmp_path)
        assert main(["catalogue"]) == 0
        assert os.listdir(tmp_path) == []
        assert main(["solve", "--preset", "gaussian-n3-a1"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["out"]
        assert sorted(os.listdir(tmp_path / "out")) == ["eigen_report.json", "eigenvectors.npy"]

    def test_preset_solves(self, tmp_path):
        # preset geometry reduced through --config is not possible; use a real preset
        out = str(tmp_path / "preset")
        code = main(["solve", "--preset", "ring-n3-a1", "--out", out, "--seed", "42"])
        assert code == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        lams = [p["lambda"] for p in report["eigen"]["pairs"]]
        assert all(np.diff(lams) > 0.0)


class TestEntryPoints:
    """`python -m degeig.cli` and the `degeig` script both go through run()."""

    @staticmethod
    def _script_entry():
        """The `degeig` line of pyproject.toml's [project.scripts]."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:
            scripts = fh.read().partition("[project.scripts]")[2]
        return re.search(r'^degeig = "([^"]+)"$', scripts, re.M).group(1)

    def test_script_entry_is_run(self):
        assert self._script_entry() == "degeig.cli:run"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_import_runs_no_collection(self, enabled):
        # the package keeps the cyclic collector off while it imports numpy,
        # scipy and its own modules, then leaves it as the importer had it
        import subprocess
        import sys

        import degeig

        script = "\n".join([
            "import gc",
            "starts = []",
            "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))",
            "gc.enable()" if enabled else "gc.disable()",
            "import degeig",
            "print(len(starts), gc.isenabled())",
        ])
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degeig.__file__))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["0", str(enabled)]

    @pytest.mark.parametrize("entry", ["module", "script"])
    @pytest.mark.parametrize("args, code", [(["catalogue", "--N", "3", "--alpha", "1.0"], 0),
                                            (["catalogue", "--N", "2"], 1),
                                            (["solve", "--preset", "no-such-preset"], 1)])
    def test_same_output_and_exit_code_as_main(self, tmp_path, capsys, entry, args, code):
        import subprocess
        import sys

        import degeig

        module, function = self._script_entry().split(":")
        launch = {
            "module": [sys.executable, "-m", "degeig.cli"],
            # what the generated console script does
            "script": [sys.executable, "-c",
                       f"import sys; from {module} import {function}; sys.exit({function}())"],
        }[entry]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degeig.__file__))}
        out_sub, out_main = str(tmp_path / "sub"), str(tmp_path / "main")
        done = subprocess.run([*launch, *args, "--out", out_sub], env=env, capture_output=True,
                              text=True)
        assert main([*args, "--out", out_main]) == code
        captured = capsys.readouterr()
        assert done.returncode == code
        assert (done.stdout, done.stderr) == (captured.out, captured.err)
        if code == 0:
            assert strip_meta(os.path.join(out_sub, "catalogue.json")) == \
                strip_meta(os.path.join(out_main, "catalogue.json"))
