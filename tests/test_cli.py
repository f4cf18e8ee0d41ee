import json
import os
import re

import numpy as np
import pytest

from degeig.cli import main
from degeig.config import (
    ConfigError,
    PRESETS,
    load_preset,
    run_config_from_dict,
)
from degeig.mesh import grading_for_span


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
    path.write_text(json.dumps(cfg))
    return str(path)


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
        pytest.param({"problem.weight": {"kind": "tabulated", "csv": 0}},
                     "problem.weight.csv", id="numeric-csv"),
        pytest.param({"export_matrices": "false"}, "config.export_matrices",
                     id="string-export-matrices"),
        pytest.param({"out": 5}, "config.out", id="numeric-out"),
        pytest.param({"golden": 5}, "config.golden", id="numeric-golden"),
        pytest.param({"ladder": {"M": 32}}, "config.ladder", id="object-ladder"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, overrides, named):
        # each was a traceback or a silent default before; now exit 1 naming the field
        cfg = small_config(tmp_path, **overrides)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        with pytest.raises(ConfigError, match=re.escape(named)):
            run_config_from_dict(json.loads(open(cfg).read()))

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
        # a rung that sets span but not q is graded by its span
        doc = json.loads(open(cfg).read())
        doc["ladder"] = [{"M": 32}, {"M": 64, "span": 100.0}, {"M": 96, "q": 1.01, "span": 100.0},
                         {"M": 128, "q": None}]
        rungs = run_config_from_dict(doc).rungs()
        assert [(g.q, g.span) for g in rungs] == [
            (1.0, 1e4), (None, 100.0), (1.01, 100.0), (None, 1e4)]
        assert rungs[1].grading() == grading_for_span(64, 100.0) != 1.0

    def test_null_q_means_span(self, tmp_path):
        cfg = small_config(tmp_path, **{"problem.geometry.q": None})
        geometry = run_config_from_dict(json.loads(open(cfg).read())).problem.geometry
        assert geometry.q is None and geometry.grading() == grading_for_span(96, 1e4)


class TestSolveCommand:
    def test_exit_zero_and_report(self, tmp_path):
        cfg = small_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eigen_report.json")).read())
        assert report["claims"]["max_residual"]["ok"]
        assert report["eigen"]["found"] == 3
        lines = open(os.path.join(out, "eigenvectors.csv")).read().split("\n")
        assert lines[0] == "r,e1,e2,e3"
        assert len(lines) == 96 + 3  # header + M+1 nodes + trailing newline

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
        # agree outside meta, which a per-pair ARPACK loop did not achieve
        import subprocess
        import sys

        import degeig

        cfg = small_config(tmp_path, **{
            "problem.weight.kind": "ring", "problem.geometry.M": 8192,
            "problem.solver.k": 24})
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degeig.__file__))}
        reports = []
        for run in ("a", "b"):
            out = str(tmp_path / run)
            subprocess.run([sys.executable, "-m", "degeig.cli", "solve", "--config", cfg,
                            "--out", out], env=env, check=True, capture_output=True)
            reports.append(strip_meta(os.path.join(out, "eigen_report.json")))
        assert reports[0] == reports[1]

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
        assert not claim["ok"]

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
        assert not claim["ok"]
        assert claim["value"] == 0.0

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
        from degeig.eigensolve import _detect_clusters

        def claim(lams, radial):
            lam = np.array(lams)
            seq = SimpleNamespace(lambdas=lam, clusters=_detect_clusters(lam))
            return _increasing_across_clusters(seq, radial)["ok"]

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
        assert report["claims"]["hardy_all_pass"]["ok"]
        assert report["claims"]["dilation_spread"]["ok"]
        # one record per checked quotient: one entry, which is its min and max
        for key in ("hardy", "sobolev", "ckn_hardy_point", "ckn_sobolev_point"):
            assert len(report[key]) == 3
            for record in report[key]:
                (entry,) = record["entries"]
                assert record["min_quotient"] == record["max_quotient"] == entry["quotient"]

    def test_check_sign_changing_weight(self, tmp_path):
        cfg = small_config(
            tmp_path,
            **{"problem.weight": {"kind": "ring"}, "problem.geometry.M": 128,
               "problem.alpha": 0.5},
        )
        out = str(tmp_path / "chk_ring")
        assert main(["check", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "inequality_report.json")).read())
        assert report["claims"]["near_optimizer_monotone_below_constant"]["ok"]
        assert report["claims"]["ckn_hardy_reduction"]["ok"]
        assert report["claims"]["ckn_sobolev_reduction"]["ok"]

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
