import json

import numpy as np
import pytest

from degeig.quadrature import fixed_quad, radial_integral
from degeig.reports import dumps, format_float, write_csv, write_npy


class TestJsonWriter:
    def test_seventeen_significant_digits(self):
        text = dumps({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip_parses(self):
        doc = {"a": [1, 2.5, None, True], "b": {"c": "s", "d": np.float64(0.1)}}
        parsed = json.loads(dumps(doc))
        assert parsed["b"]["d"] == 0.1
        assert parsed["a"][3] is True

    def test_non_finite_values(self):
        assert format_float(float("nan")) == "null"
        assert format_float(float("inf")) == '"inf"'
        assert json.loads(dumps({"x": float("nan")}))["x"] is None

    def test_numpy_array_serializes(self):
        parsed = json.loads(dumps({"v": np.arange(3.0)}))
        assert parsed["v"] == [0.0, 1.0, 2.0]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})

    def test_csv_float_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.0 / 3.0]])
        assert path.read_text() == "a,b\n1,0.66666666666666663\n"

    def test_csv_matches_per_cell_formatting(self, tmp_path):
        # the one-call table writer prints what formatting cell by cell
        # ("%.17g" for floats, str for ints) printed
        def per_cell(header, rows):
            def cell(v):
                return "%.17g" % v if isinstance(v, (float, np.floating)) else str(v)
            return "".join(",".join(map(cell, row)) + "\n" for row in [header] + rows)

        rows = [[-0.0, 0.1, 1e-300], [1e300, 128, np.float64(2.0 / 3.0)],
                [np.float64(-0.0), 32768, -1.5e-17]]
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], rows)
        assert path.read_text() == per_cell(["a", "b", "c"], rows)
        write_csv(path, ["a", "b", "c"], np.array(rows, dtype=float))
        assert path.read_text() == per_cell(["a", "b", "c"], rows)

    def test_npy_fields_and_zero_tail(self, tmp_path):
        # one float64 field per name; a shorter column leaves its last rows zero
        path = tmp_path / "t.npy"
        write_npy(path, ["r", "e1"], [np.array([0.0, 0.5, 1.0]), np.array([-0.0, 2.0 / 3.0])])
        table = np.load(path)
        assert table.dtype == np.dtype([("r", "<f8"), ("e1", "<f8")])
        assert table["r"].tolist() == [0.0, 0.5, 1.0]
        assert table["e1"].tolist() == [-0.0, 2.0 / 3.0, 0.0]
        assert np.signbit(table["e1"][0])
        with pytest.raises(ValueError):
            write_npy(path, ["r", "e1"], [np.zeros(3)])


def _growth_dict(rep):
    # the field-by-field conversion GrowthReport.to_dict made before the
    # serializer wrote dataclasses itself
    return {
        "lambdas": [float(x) for x in rep.lambdas],
        "unit_energy": [float(x) for x in rep.unit_energy],
        "mass_values": [float(x) for x in rep.mass_values],
        "plus_mass_values": [float(x) for x in rep.plus_mass_values],
        "identity_gaps": [float(x) for x in rep.identity_gaps],
        "bound_margins": [float(x) for x in rep.bound_margins],
        "strictly_increasing": bool(rep.strictly_increasing),
        "ratios": [float(x) for x in rep.ratios],
    }


def _split_dict(rep):
    # the same for WeightSplitReport.to_dict and its probe_dict
    def probe_dict(p):
        return {"center": p.center, "radii": list(map(float, p.radii)),
                "values": list(map(float, p.values)), "passed": bool(p.passed)}

    return {
        "weight": rep.weight, "N": rep.N, "alpha": rep.alpha,
        "norm_exponent": rep.norm_exponent,
        "g1_norm_estimate": rep.g1_norm_estimate, "g1_norm_verdict": rep.g1_norm_verdict,
        "g2_norm_estimate": rep.g2_norm_estimate, "g2_norm_verdict": rep.g2_norm_verdict,
        "gplus_norm_estimate": rep.gplus_norm_estimate,
        "gplus_norm_verdict": rep.gplus_norm_verdict,
        "probes": [probe_dict(p) for p in rep.probes],
        "infinity": probe_dict(rep.infinity),
        "decay_pass": bool(rep.decay_pass),
        "positive_part_nonzero": bool(rep.positive_part_nonzero),
        "overall": rep.overall,
        "notes": list(rep.notes),
    }


class TestDataclassReports:
    def test_growth_report_text_unchanged(self, gaussian_pair_512, gaussian_seq_512):
        from degeig.eigensolve import growth_diagnostics

        rep = growth_diagnostics(gaussian_seq_512, gaussian_pair_512)
        assert dumps(rep) == dumps(_growth_dict(rep))
        assert list(json.loads(dumps(rep))) == list(_growth_dict(rep))

    @pytest.mark.parametrize("kind", ["ring", "borderline-log", "tabulated"])
    def test_weight_split_report_text_unchanged(self, kind):
        from degeig.config import weight_from_dict
        from degeig.weights import verify_weight_split

        doc = {"kind": kind}
        if kind == "tabulated":
            doc.update(radii=[0.0, 1.0, 4.0], values=[1.0, -0.5, 0.0])
        rep = verify_weight_split(weight_from_dict(doc, 3, 1.0), 3, 1.0)
        assert dumps(rep) == dumps(_split_dict(rep))
        assert list(json.loads(dumps(rep))) == list(_split_dict(rep))


class TestQuadrature:
    def test_power_law_on_many_decades(self):
        # integral of r^(-0.5) over [1e-8, 1] = 2 (1 - 1e-4)
        val = radial_integral(lambda r: r**-0.5, 1e-8, 1.0)
        assert abs(val - 2.0 * (1.0 - 1e-4)) < 1e-12

    def test_zero_width(self):
        assert radial_integral(lambda r: r, 2.0, 2.0) == 0.0

    def test_lower_bound_validated(self):
        with pytest.raises(ValueError):
            radial_integral(lambda r: r, 0.0, 1.0)

    def test_fixed_quad_polynomial_exact(self):
        # Gauss order 20 integrates r^7 exactly
        val = fixed_quad(lambda r: r**7, 0.0, 2.0, order=20)
        assert abs(val - 2.0**8 / 8.0) < 1e-12
