"""Command-line interface: exit codes, report schema, sweeps, determinism."""

import json
import math

import numpy as np
import pytest

from horoflow.cli import main, parse_grid, parse_model
from horoflow.manifold import EUCLIDEAN, HYPERBOLIC

REPORT_KEYS = {"name", "statement", "quantities", "expected", "provenance",
               "tolerance", "tol_kind", "status", "wall_time_s"}


def _strip_wall_times(payload: dict) -> dict:
    out = json.loads(json.dumps(payload))
    for check in out["checks"]:
        check.pop("wall_time_s")
    return out


class TestParsing:
    def test_model_strings(self):
        assert parse_model("h3").kind == HYPERBOLIC and parse_model("h3").dim == 3
        assert parse_model("e5").kind == EUCLIDEAN and parse_model("e5").dim == 5
        assert parse_model("H2").dim == 2

    def test_bad_models(self):
        from horoflow.cli import ConfigError

        for bad in ("x3", "h", "h1", "e9", "hyperbolic"):
            with pytest.raises(ConfigError):
                parse_model(bad)

    def test_grid(self):
        assert parse_grid("0:1:3") == [0.0, 0.5, 1.0]
        assert parse_grid("2:2:1") == [2.0]
        from horoflow.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_grid("0:1")
        with pytest.raises(ConfigError):
            parse_grid("0:1:0")


class TestVerifyCommand:
    def test_report_schema_and_exit(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["verify", "coarea", "--samples", "20000", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["suite"] == "coarea"
        assert payload["model"] == "h3"
        assert len(payload["checks"]) >= 2
        for check in payload["checks"]:
            assert set(check) == REPORT_KEYS
            assert check["status"] in ("pass", "fail", "paper-discrepancy")
        err = capsys.readouterr().err
        assert "PASS" in err

    def test_reports_reproducible_modulo_wall_time(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "intersections", "--out", str(a)]) == 0
        assert main(["verify", "intersections", "--out", str(b)]) == 0
        pa = _strip_wall_times(json.loads(a.read_text()))
        pb = _strip_wall_times(json.loads(b.read_text()))
        assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)

    def test_check_results_do_not_depend_on_the_suite(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "map-f", "--model", "h2", "--samples", "20000", "--out", str(a)]) == 0
        assert main(["verify", "all", "--model", "h2", "--samples", "20000", "--out", str(b)]) == 0
        alone = _strip_wall_times(json.loads(a.read_text()))["checks"]
        by_name = {c["name"]: c for c in _strip_wall_times(json.loads(b.read_text()))["checks"]}
        assert alone == [by_name[c["name"]] for c in alone]

    @pytest.mark.parametrize("argv", [
        ["verify", "coarea", "--model", "e8"],
        ["sweep", "--model", "h6", "--s", "1:1:1", "--t", "0:0:1"],
    ])
    def test_infeasible_grid_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_probe_outside_image_discrepancy_status(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["verify", "map-f", "--model", "h2", "--samples", "30000",
                     "--probe-outside-image", "--out", str(out)])
        assert code == 0  # a discrepancy is not a failure
        payload = json.loads(out.read_text())
        by_name = {c["name"]: c for c in payload["checks"]}
        probe = by_name["map-out-of-image-probe"]
        assert probe["status"] == "paper-discrepancy"
        assert probe["quantities"]["ratio"] <= 0.01

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "h2", "samples": 20000, "seed": 7}))
        out = tmp_path / "rep.json"
        code = main(["verify", "coarea", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "h2"
        assert payload["seed"] == 9  # flag wins over the file
        assert payload["samples"] == 20000

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "h3", "weird_key": 1}))
        assert main(["verify", "coarea", "--config", str(cfg)]) == 2
        cfg.write_text("not json at all {")
        assert main(["verify", "coarea", "--config", str(cfg)]) == 2
        assert main(["verify", "coarea", "--model", "q7"]) == 2

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2


class TestExampleCommand:
    def test_values_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["example", "poincare", "--out", str(a)]) == 0
        assert main(["example", "poincare", "--out", str(b)]) == 0
        payload = json.loads(a.read_text())
        by_name = {c["name"]: c for c in payload["checks"]}
        length = by_name["example-circle-length"]
        assert length["quantities"]["length"] == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert length["quantities"]["below_3pi"] is True
        circle = by_name["example-intersection-circle"]
        assert circle["quantities"]["circle_residual"] <= 1e-10
        assert json.dumps(_strip_wall_times(payload), sort_keys=True) == \
            json.dumps(_strip_wall_times(json.loads(b.read_text())), sort_keys=True)


class TestSweepCommand:
    def test_shape_and_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--s", "0.5:2.0:3", "--t", "-1:1:5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,t,vol,V,W,bound,beta_max"
        assert len(lines) == 1 + 3 * 5

    def test_v_constant_within_fixed_s(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--s", "0.4:1.6:4", "--t", "-2:2:5", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        data = np.array(rows, dtype=float)
        for s in np.unique(data[:, 0]):
            vs = data[data[:, 0] == s][:, 3]
            assert (vs.max() - vs.min()) / vs[0] <= 1e-8

    def test_vol_nondecreasing_down_fixed_t(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--s", "0.3:2.4:6", "--t", "0:1:2", "--out", str(out)])
        rows = np.array([line.split(",") for line in out.read_text().strip().split("\n")[1:]],
                        dtype=float)
        for t in np.unique(rows[:, 1]):
            sub = rows[rows[:, 1] == t]
            vols = sub[np.argsort(sub[:, 0])][:, 2]
            assert np.all(np.diff(vols) > 0)

    def test_17_digit_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--s", "0.5:0.5:1", "--t", "0:0:1", "--out", str(out)])
        row = out.read_text().strip().split("\n")[1].split(",")
        # V = 2 pi to full double precision, printed with 17 significant digits
        assert float(row[3]) == pytest.approx(2.0 * math.pi, rel=1e-14)
        digits = row[3].replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 16

    def test_euclidean_rejected(self):
        assert main(["sweep", "--s", "0.5:1:2", "--t", "0:1:2", "--model", "e3"]) == 2
