"""Command-line interface: exit codes, report schema, sweeps, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horoflow import cli, verify
from horoflow.cli import main, parse_grid, parse_model
from horoflow.manifold import EUCLIDEAN, HYPERBOLIC, GeometryError
from horoflow.numerics import ConvergenceError

REPORT_KEYS = {"name", "statement", "quantities", "expected", "provenance",
               "tolerance", "tol_kind", "status", "wall_time_s"}


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def _strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


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
        code = main(["verify", "coarea", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"suite", "model", "seed", "checks"}
        assert payload["suite"] == "coarea"
        assert payload["model"] == "h3"
        assert len(payload["checks"]) >= 1
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
        assert main(["verify", "map-f", "--model", "h2", "--out", str(a)]) == 0
        assert main(["verify", "all", "--model", "h2", "--out", str(b)]) == 0
        alone = _strip_wall_times(json.loads(a.read_text()))["checks"]
        by_name = {c["name"]: c for c in _strip_wall_times(json.loads(b.read_text()))["checks"]}
        assert alone == [by_name[c["name"]] for c in alone]

    @pytest.mark.parametrize("model", ["h6", "h7", "h8"])
    def test_intersections_pass_in_high_hyperbolic_dimensions(self, model, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", "intersections", "--model", model, "--out", str(out)]) == 0
        statuses = {c["status"] for c in json.loads(out.read_text())["checks"]}
        assert statuses == {"pass"}

    def test_check_error_keeps_the_finished_records(self, tmp_path, monkeypatch, capsys):
        @verify.check("raises-geometry-error", "a check whose body raises", 0.0, "exact")
        def check_raises(ctx, tol):
            raise GeometryError("grid too large")

        monkeypatch.setitem(verify.SUITES, "coarea", [verify.check_gradient_norm, check_raises])
        out = tmp_path / "rep.json"
        assert main(["verify", "coarea", "--out", str(out)]) == 2
        statuses = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
        assert statuses == {"busemann-gradient-unit-norm": "pass", "raises-geometry-error": "error"}
        err = capsys.readouterr().err
        assert "error: raises-geometry-error: grid too large" in err
        assert "ERROR" in err

    def test_overflowing_t0_gives_map_error_records(self, tmp_path, capsys):
        # h t0 = 800 on h3: e^(h t0) overflows float64, so each check that
        # builds the map records an error instead of ending the run
        out = tmp_path / "rep.json"
        assert main(["verify", "all", "--model", "h3", "--t0", "400", "--out", str(out)]) == 2
        checks = _strict_json(out.read_text())["checks"]
        assert len(checks) == 28
        errors = {c["name"] for c in checks if c["status"] == "error"}
        assert errors == {"alpha-defining-equation", "alpha-gap-monotone", "map-sends-p-to-q",
                          "map-unit-jacobian", "map-integral-invariance"}
        assert all(c["status"] == "pass" for c in checks if c["name"] not in errors)
        assert "error: map-sends-p-to-q: e^(h t0) overflows float64" in capsys.readouterr().err

    @pytest.mark.parametrize("t0, overflows", [
        (150.0, []),
        (300.0, ["map-unit-jacobian: volume density z^-3 overflows float64"]),
        (354.0, ["alpha-defining-equation: (e^(h t0) - 1) e^(-h t) overflows float64",
                 "alpha-gap-monotone: (e^(h t0) - 1) e^(-h t) overflows float64",
                 # the whole batch moves through F before any volume density is taken
                 "map-unit-jacobian: (e^(h t0) - 1) e^(-h t) overflows float64",
                 "map-integral-invariance: e^(h u) overflows float64"]),
    ])
    def test_large_t0_below_the_alpha_limit_gives_error_records(self, tmp_path, capsys, t0, overflows):
        # h t0 stays below ln(DBL_MAX), but the volume density or alpha's gap
        # may leave float64; under the pytest filter an unguarded overflow
        # would end the run with a RuntimeWarning. The level-slice integral of
        # map-integral-invariance stays in range, and passes, until alpha's
        # inverse overflows.
        out = tmp_path / "rep.json"
        code = main(["verify", "map-f", "--model", "h3", "--t0", str(t0), "--out", str(out)])
        statuses = {c["name"]: c["status"] for c in _strict_json(out.read_text())["checks"]}
        errors = {message.split(":")[0] for message in overflows}
        assert {name for name, status in statuses.items() if status == "error"} == errors
        assert code == 2 if errors else code in (0, 1)
        if "map-integral-invariance" not in errors:
            assert statuses["map-integral-invariance"] == "pass"
        err = capsys.readouterr().err
        for message in overflows:
            assert f"error: {message}" in err

    def test_collapsed_bump_box_gives_an_error_record(self, tmp_path, capsys):
        # at t0 = 1e16 the bump's chart box, moved about t0 by F, has hi == lo
        # in float64, so the Monte Carlo integral has no box to sample
        out = tmp_path / "rep.json"
        assert main(["verify", "map-f", "--model", "e3", "--t0", "1e16", "--out", str(out)]) == 2
        statuses = {c["name"]: c["status"] for c in _strict_json(out.read_text())["checks"]}
        assert statuses["map-integral-invariance"] == "error"
        assert "error: map-integral-invariance: degenerate integration box: lo = [" in capsys.readouterr().err

    @pytest.mark.parametrize("t0", ["1e155", "1e300"])
    def test_endpoint_distance_past_the_sum_of_squares_builds_the_map(self, t0, tmp_path, capsys):
        # from t0 = 1e155 the squared distance between the E^3 map endpoints
        # overflows float64, the distance does not: the map is built, and the
        # degenerate bump box of t0 = 1e16 ends map-integral-invariance
        out = tmp_path / "rep.json"
        assert main(["verify", "map-f", "--model", "e3", "--t0", t0, "--out", str(out)]) == 2
        statuses = {c["name"]: c["status"] for c in _strict_json(out.read_text())["checks"]}
        assert statuses["map-sends-p-to-q"] == "pass"
        assert {name for name, status in statuses.items() if status == "error"} == {"map-integral-invariance"}
        err = capsys.readouterr().err
        assert "error: map-integral-invariance: degenerate integration box: lo = [" in err
        assert "overflows float64" not in err

    def test_overflowing_locus_grid_gives_error_records(self, tmp_path, capsys):
        # the pytest filter turns a RuntimeWarning into an error, as the CLI
        # smoke runs do, so an inf * 0 in the locus points would end the run
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"s_grid": [800.0]}))
        out = tmp_path / "rep.json"
        assert main(["verify", "intersections", "--config", str(config), "--out", str(out)]) == 2
        statuses = {c["name"]: c["status"] for c in _strict_json(out.read_text())["checks"]}
        assert statuses.pop("locus-membership") == statuses.pop("weighted-integrals-t-invariance") == "error"
        assert set(statuses.values()) == {"pass"}
        assert "locus geometry leaves float64 at s = 800.0" in capsys.readouterr().err

    def test_convergence_error_becomes_an_error_record(self, tmp_path, monkeypatch, capsys):
        @verify.check("raises-convergence-error", "a check whose oracle does not converge", 0.0, "exact")
        def check_diverges(ctx, tol):
            raise ConvergenceError("degenerate pushforward frame")

        monkeypatch.setitem(verify.SUITES, "coarea", [check_diverges])
        out = tmp_path / "rep.json"
        assert main(["verify", "coarea", "--out", str(out)]) == 2
        (record,) = json.loads(out.read_text())["checks"]
        assert record["name"] == "raises-convergence-error"
        assert record["status"] == "error"
        err = capsys.readouterr().err
        assert "error: raises-convergence-error: degenerate pushforward frame" in err

    @pytest.mark.parametrize("suite", ["map-f", "intersections", "coarea"])
    @pytest.mark.parametrize("samples", ["1", "2"])
    @pytest.mark.parametrize("model", ["e5", "h3"])
    def test_tiny_sample_counts_give_a_verdict(self, model, samples, suite, tmp_path, capsys):
        # no check samples, so a sample count is a usage error (exit 2) that
        # names the flag, or the config key, and writes no report
        out = tmp_path / "rep.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--model", model, "--samples", samples, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "samples": int(samples)}))
        assert main(["verify", suite, "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown config keys: ['samples']" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_floats_have_one_encoding(self):
        payload = {"a": math.inf, "b": [-math.inf, np.float64("nan")], "c": np.array([1.0, np.inf]),
                   "d": (np.float32(2.5), 3)}
        assert verify._jsonable(payload) == {"a": "inf", "b": ["-inf", "nan"], "c": [1.0, "inf"],
                                             "d": [2.5, 3]}

    @pytest.mark.parametrize("model", ["e6", "e7", "e8"])
    def test_verify_all_passes_in_high_flat_dimensions(self, model, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", "all", "--model", model, "--out", str(out)]) == 0
        statuses = {c["status"] for c in json.loads(out.read_text())["checks"]}
        assert statuses == {"pass"}

    def test_coarea_passes_on_h8(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", "coarea", "--model", "h8", "--out", str(out)]) == 0
        statuses = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
        assert statuses["coarea-slicing"] == "pass"

    def test_probe_outside_image_discrepancy_status(self, tmp_path, monkeypatch):
        # one cheap map-f check stands for each suite; the probe follows the map-f checks
        cheap = [verify.check_alpha_residual]
        monkeypatch.setitem(verify.SUITES, "map-f", cheap)
        monkeypatch.setitem(verify.SUITES, "all", [verify.check_gradient_norm] + cheap)
        for suite in ("map-f", "all"):
            out = tmp_path / f"{suite}.json"
            code = main(["verify", suite, "--model", "h2",
                         "--probe-outside-image", "--out", str(out)])
            assert code == 0  # a discrepancy is not a failure
            payload = json.loads(out.read_text())
            by_name = {c["name"]: c for c in payload["checks"]}
            probe = by_name["map-out-of-image-probe"]
            assert probe["status"] == "paper-discrepancy"
            assert probe["quantities"]["ratio"] <= 0.01

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "h2", "seed": 7}))
        out = tmp_path / "rep.json"
        code = main(["verify", "coarea", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "h2"
        assert payload["seed"] == 9  # flag wins over the file

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "h3", "weird_key": 1}))
        assert main(["verify", "coarea", "--config", str(cfg)]) == 2
        cfg.write_text("not json at all {")
        assert main(["verify", "coarea", "--config", str(cfg)]) == 2
        assert main(["verify", "coarea", "--model", "q7"]) == 2

    @pytest.mark.parametrize("bad", [
        {"seed": "x"},
        {"s_grid": 3},
        {"probe_outside_image": "no"},
        {"samples": 1.5},
        {"s_grid": [0.0, 0.5]},
        {"s_grid": [-0.1]},
    ], ids=["seed-string", "s_grid-scalar", "probe-string", "samples-float",
            "s_grid-zero", "s_grid-negative"])
    def test_malformed_config_value_exits_2(self, bad, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert main(["verify", "intersections", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_seed_beyond_64_bits_exits_2(self, where, tmp_path, capsys):
        seed = "1000000000000000000000000000000"
        if where == "flag":
            argv = ["verify", "coarea", "--seed", seed]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(f'{{"seed": {seed}}}')
            argv = ["verify", "coarea", "--config", str(cfg)]
        assert main(argv) == 2
        assert "error: seed must be a nonnegative 64-bit integer" in capsys.readouterr().err

    def test_largest_64_bit_seed_is_accepted(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", "busemann", "--seed", str(2 ** 64 - 1), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 2 ** 64 - 1
        assert main(["verify", "coarea", "--seed", str(2 ** 64)]) == 2

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("model", ["h3", "e3"])
    def test_verify_all_never_imports_numpy_polynomial(self, model, tmp_path):
        # the oracles build their quadrature and Picard rules themselves; the
        # package costs a fresh process about 10 ms to import
        script = (f"import sys; from horoflow import cli; "
                  f"code = cli.main(['verify', 'all', '--model', '{model}', '--out', sys.argv[1]]); "
                  f"print(code, 'numpy.polynomial' in sys.modules)")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "rep.json")],
                              capture_output=True, text=True, env=env, check=True)
        assert done.stdout.split() == ["0", "False"]


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

    def test_rows_match_per_value_17_digit_formatting(self, tmp_path):
        # the s = 0 row is the axis point, where V, W and the bound are nan
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "h4", "--s", "0:3:4", "--t", "-2:2:5", "--out", str(out)]) == 0
        cfg = verify.VerifyContext(model=parse_model("h4")).pair_config()
        rows = verify.sweep_rows(cfg, parse_grid("0:3:4"), parse_grid("-2:2:5"))
        lines = [",".join(verify.SWEEP_COLUMNS)]
        lines.extend(",".join(f"{value:.17g}" for value in row) for row in rows)
        assert out.read_text() == "\n".join(lines) + "\n"
        assert lines[1].split(",")[3:6] == ["nan", "nan", "nan"]

    def test_never_imports_numpy_random_and_keeps_its_bytes(self, tmp_path):
        # a sweep draws nothing; numpy.random costs a fresh process 16-19 ms to import
        models = ["h2", "h4", "h8"]
        script = ("import sys; from horoflow import cli; "
                  "codes = [cli.main(['sweep', '--model', model, '--s=0:3:4', '--t=-2:2:5', '--out', out]) "
                  "for model, out in zip(sys.argv[1::2], sys.argv[2::2])]; "
                  "print(*codes, 'numpy.random' in sys.modules)")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        args = [str(a) for model in models for a in (model, tmp_path / f"{model}.csv")]
        done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=True)
        assert done.stdout.split() == ["0", "0", "0", "False"]
        # the rows of the pair configuration of a verify run, formatted as the sweep did
        fmt = ",".join(["%.17g"] * len(verify.SWEEP_COLUMNS))
        for model in models:
            cfg = verify.VerifyContext(model=parse_model(model)).pair_config()
            rows = verify.sweep_rows(cfg, parse_grid("0:3:4"), parse_grid("-2:2:5"))
            text = "\n".join([",".join(verify.SWEEP_COLUMNS)] + [fmt % row for row in rows]) + "\n"
            assert (tmp_path / f"{model}.csv").read_bytes() == text.encode()

    def test_euclidean_rejected(self):
        assert main(["sweep", "--s", "0.5:1:2", "--t", "0:1:2", "--model", "e3"]) == 2

    def test_out_of_memory_exits_2_without_traceback(self, monkeypatch, tmp_path, capsys):
        # a grid too large for memory is a usage error, not a failed check
        def too_large(*args):
            raise MemoryError("Unable to allocate 67.1 TiB for an array with shape (3000000, 3000000)")

        monkeypatch.setattr(cli, "sweep_rows", too_large)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "h3", "--s=0.1:1:3000000", "--t=0:1:3000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate 67.1 TiB")
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_flag_rejected(self, tmp_path):
        # a sweep reads its inputs from flags only; argparse refuses --config
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"model": "h4"}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--s", "0.5:1:2", "--t", "0:1:2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("s_grid, t_grid", [
        ("0:1:x", "0:1:2"),
        ("a:1:2", "0:1:2"),
        ("0:1:2.5", "0:1:2"),
        ("nan:1:2", "0:1:2"),
        ("0.5:1:2", "inf:1:2"),
        ("0.5:-inf:2", "0:1:2"),
    ], ids=["count-letter", "bound-letter", "count-float", "bound-nan", "bound-inf",
            "bound-minus-inf"])
    def test_malformed_grid_exits_2(self, s_grid, t_grid, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--s", s_grid, "--t", t_grid, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, s_grid, first", [
        ("h4", "700:720:3", "700.0"),
        ("h4", "0:1500:2", "1500.0"),
        ("h8", "0:300:2", "300.0"),
    ])
    def test_overflow_exits_2_naming_the_cell(self, model, s_grid, first, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", model, f"--s={s_grid}", "--t=0:0:1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"s = {first}, t = 0.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["h6", "h7", "h8"])
    def test_high_dimensions_are_closed_forms(self, model, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", model, "--s", "0.1:3.0:20", "--t", "-3:3:20",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,t,vol,V,W,bound,beta_max"
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert rows.shape == (400, 7)
        n = int(model[1:])
        area = 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
        for s, _, vol, v, w, bound, beta_max in rows:
            x = math.exp(s) - 1.0
            expected = (area * x ** ((n - 2) / 2.0), area * x ** ((n - 3) / 2.0),
                        area * x ** ((n - 1) / 2.0))
            assert (vol, v, w) == pytest.approx(expected, rel=1e-12)
            assert bound == pytest.approx(0.5 * (expected[1] + expected[2]), rel=1e-12)
            assert beta_max == pytest.approx(1.0 - 2.0 * math.exp(-s), rel=1e-12)
            assert vol <= bound * (1.0 + 1e-12)
