"""Command-line interface: exit codes, report schema, sweeps, determinism."""

import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from horoflow import cli, transport, verify
from horoflow import locus as lc
from horoflow.cli import main, parse_grid, parse_model
from horoflow.manifold import EUCLIDEAN, HYPERBOLIC, GeometryError
from horoflow.numerics import ConvergenceError

from conftest import sweep_cells

REPORT_KEYS = {"name", "statement", "quantities", "expected", "provenance",
               "tolerance", "tol_kind", "status", "wall_time_s"}


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def _strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _broadcast_rows(cfg, s_grid, t_grid) -> list:
    """The sweep rows as one broadcast locus_values call over every (s, t) cell
    gives them: the reference of the s-table that verify.sweep_rows returns."""
    s = np.asarray(s_grid, dtype=float)[:, None]
    t = np.asarray(t_grid, dtype=float)[None, :]
    columns = (c.ravel().tolist() for c in np.broadcast_arrays(s, t, *lc.locus_values(cfg, s, t)))
    return list(zip(*columns))


def _per_cell_csv(rows) -> str:
    """The sweep CSV text with every cell formatted on its own."""
    fmt = ",".join(["%.17g"] * len(verify.SWEEP_COLUMNS))
    return "\n".join([",".join(verify.SWEEP_COLUMNS)] + [fmt % row for row in rows]) + "\n"


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
        assert parse_grid("0:1:3").tolist() == [0.0, 0.5, 1.0]
        assert parse_grid("2:2:1").tolist() == [2.0]
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

    @pytest.mark.parametrize("model", ["h2", "h3", "h8", "e3", "e8"])
    def test_check_results_do_not_depend_on_the_suite(self, model):
        suites = ["busemann", "map-f", "flows", "intersections", "coarea"]
        assert list(verify.SUITES) == suites + ["all"]
        assert [len(verify.SUITES[suite]) for suite in suites] == [7, 6, 7, 7, 1]
        assert [fn for suite in suites for fn in verify.SUITES[suite]] == verify.SUITES["all"]
        assert verify.check_map_out_of_image not in verify.SUITES["all"]

        def records(suite):
            reports = verify.run_suite(suite, verify.VerifyContext(model=parse_model(model), seed=42))
            return [{**r.to_json_dict(), "wall_time_s": None} for r in reports]

        by_name = {r["name"]: r for r in records("all")}
        for suite in suites:
            alone = records(suite)
            assert alone == [by_name[r["name"]] for r in alone], suite

    @pytest.mark.parametrize("model, drawers", [("h3", 9), ("e3", 8)])
    def test_only_checks_that_draw_build_a_generator(self, monkeypatch, model, drawers):
        # each drawing check builds its generator rng_for(check) at its first draw,
        # the shared flow run one per block of random starts, and no check more
        drawn, exact = [], verify.VerifyContext.rng_for

        def counted(ctx, check):
            drawn.append(check.__name__)
            return exact(ctx, check)

        monkeypatch.setattr(verify.VerifyContext, "rng_for", counted)
        verify.run_suite("all", verify.VerifyContext(model=parse_model(model), seed=7))
        flow_blocks = {"check_difference_flow_tracking", "check_gradient_transport"}
        if model[0] == "h":
            flow_blocks.add("check_sum_flow_tracking")
        assert len(drawn) == len(set(drawn)) == drawers + len(flow_blocks) and flow_blocks <= set(drawn)
        # outside run_suite the context draws from default_rng(seed)
        m = parse_model(model)
        assert np.array_equal(verify.VerifyContext(model=m, seed=7).random_points(5),
                              m.random_points(np.random.default_rng(7), 5, 0.8))

    def test_a_run_builds_the_canonical_pair_configuration_once(self, monkeypatch):
        # the context's build serves the flow run's pair flows; the isometry check
        # builds its own pair's
        builds, exact = [], lc.make_pair_config

        def counted(f1, f2):
            builds.append((f1, f2))
            return exact(f1, f2)

        monkeypatch.setattr(lc, "make_pair_config", counted)
        monkeypatch.setattr(transport, "make_pair_config", counted)
        ctx = verify.VerifyContext(model=parse_model("h3"))
        assert {r.status for r in verify.run_suite("all", ctx)} == {"pass"}
        assert len(builds) == 2 and all(f is g for f, g in zip(builds[0], ctx.field_pair))
        assert not any(f is g for f, g in zip(builds[1], ctx.field_pair))
        assert all(pf._config is ctx.pair_config for pf in ctx.flows.flows.values())

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
                   "d": (np.float32(2.5), 3), "e": np.True_}
        assert verify._jsonable(payload) == {"a": "inf", "b": ["-inf", "nan"], "c": [1.0, "inf"],
                                             "d": [2.5, 3], "e": True}

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

    @pytest.mark.parametrize("key, bad, message", [
        ("seed", -1, "seed must be a nonnegative 64-bit integer"),
        ("seed", 2 ** 64, "seed must be a nonnegative 64-bit integer"),
        ("seed", True, "seed must be a nonnegative 64-bit integer"),
        ("s_grid", [], "s_grid must be a nonempty list of finite numbers"),
        ("s_grid", [0.0], "s_grid values must be positive: V and W are undefined on the s = 0 locus"),
        ("t0", 0, "t0 must be a finite positive number"),
        ("t0", math.nan, "t0 must be a finite positive number"),
        ("probe_outside_image", "no", "probe_outside_image must be true or false"),
    ], ids=["seed-negative", "seed-past-64-bits", "seed-bool", "s_grid-empty", "s_grid-zero", "t0-zero", "t0-nan",
            "probe-string"])
    def test_context_rejects_a_malformed_input_as_the_cli_does(self, key, bad, message, tmp_path, capsys):
        with pytest.raises(verify.ConfigError) as exc:
            verify.VerifyContext(model=parse_model("h3"), **{key: bad})
        assert str(exc.value) == message
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: bad}))
        assert main(["verify", "coarea", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_context_keeps_grids_as_tuples_and_t0_as_a_float(self):
        ctx = verify.VerifyContext(model=parse_model("h3"),
                                   **json.loads('{"s_grid": [0.5, 2], "t_grid": [-1, 0.0], "t0": 3}'))
        assert type(ctx.s_grid) is type(ctx.t_grid) is tuple
        assert ctx.s_grid == (0.5, 2) and ctx.t_grid == (-1, 0.0)
        assert type(ctx.t0) is float and ctx.t0 == 3.0
        assert cli.ConfigError is verify.ConfigError

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
        cfg = verify.VerifyContext(model=parse_model("h4")).pair_config
        rows = sweep_cells(verify.sweep_rows(cfg, parse_grid("0:3:4"), parse_grid("-2:2:5")))
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
            cfg = verify.VerifyContext(model=parse_model(model)).pair_config
            rows = sweep_cells(verify.sweep_rows(cfg, parse_grid("0:3:4"), parse_grid("-2:2:5")))
            text = "\n".join([",".join(verify.SWEEP_COLUMNS)] + [fmt % row for row in rows]) + "\n"
            assert (tmp_path / f"{model}.csv").read_bytes() == text.encode()

    def test_euclidean_rejected(self):
        assert main(["sweep", "--s", "0.5:1:2", "--t", "0:1:2", "--model", "e3"]) == 2

    def test_out_of_memory_exits_2_without_traceback(self, monkeypatch, tmp_path, capsys):
        # a batch too large for memory is a usage error, not a failed check; the
        # grid passes the up-front cell-count check, so that sweep_rows raises
        def too_large(*args):
            raise MemoryError("Unable to allocate 68.7 MiB for an array with shape (3000, 3000)")

        monkeypatch.setattr(cli, "sweep_rows", too_large)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", "h3", "--s=0.1:1:3000", "--t=0:1:3000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate 68.7 MiB")
        assert "Traceback" not in err
        assert not out.exists()

    def test_bare_out_of_memory_names_the_grid(self, monkeypatch, tmp_path, capsys):
        # a list allocation raises MemoryError without a message
        def too_large(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "sweep_rows", too_large)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--s=0.1:1:3", "--t=0:1:4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: a grid of 3 x 4 = 12 cells\n"
        assert not out.exists()

    def test_impossible_grid_exits_2_before_building_rows(self, tmp_path):
        # unpatched, under a 2 GiB address-space limit, so that a sweep that
        # builds rows before it fails is stopped by the limit, not by the host
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "sweep.csv"
        peak_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        done = subprocess.run([sys.executable, "-m", "horoflow.cli", "sweep", "--model", "h3",
                               "--s=0.1:1:3000000", "--t=0:1:3000000", "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=30,
                              preexec_fn=limit_address_space)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: out of memory")
        assert done.stderr.strip() != "error: out of memory:"
        assert "Traceback" not in done.stderr
        assert not out.exists()
        # it failed at its up-front cell-count check: a sweep that grows its
        # rows until the limit stops it peaks near 1.9 GiB, this one near 77 MiB (KiB here)
        assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss <= max(peak_before, 2 ** 18)

    @pytest.mark.parametrize("axis", ["s", "t"])
    @pytest.mark.parametrize("k", [2 ** 60, 2 ** 63 - 1, 10 ** 20], ids=["2**60", "2**63-1", "10**20"])
    def test_huge_grid_count_exits_2(self, axis, k, monkeypatch, tmp_path, capsys):
        # np.linspace raises ValueError or IndexError at such counts, not MemoryError
        def forbidden(*args):
            raise AssertionError("a grid that cannot be built must not reach sweep_rows")

        monkeypatch.setattr(cli, "sweep_rows", forbidden)
        grids = {"s": "0.1:1:2", "t": "0:1:2", axis: f"0:1:{k}"}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", f"--s={grids['s']}", f"--t={grids['t']}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: out of memory: a grid of {k} points\n"
        assert not out.exists()

    def test_file_sweep_peaks_near_its_csv_size(self, tmp_path):
        # the s-table holds one row per s; one tuple per cell took 1.8x the CSV's bytes
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            assert main(["sweep", "--model", "h4", "--s=0.1:3:300", "--t=-3:3:300", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.stat().st_size

    @pytest.mark.parametrize("model", ["h2", "h8"])
    @pytest.mark.parametrize("s_arg, t_arg", [
        ("--s=0:3:5", "--t=-3:3:4"),
        ("--s=0:2:3", "--t=-0:0:1"),
        ("--s=0.5:0.5:1", "--t=0:0:1"),
        ("--s=1.25:1.25:1", "--t=-2:2:7"),
        ("--s=0:2:6", "--t=-1.5:-1.5:1"),
    ], ids=["s-zero-row-negative-t", "minus-zero-t", "one-cell", "one-by-k", "k-by-one"])
    def test_csv_bytes_match_per_cell_format(self, model, s_arg, t_arg, tmp_path, capsys):
        cfg = lc.make_pair_config(*verify.canonical_pair(parse_model(model)))
        rows = _broadcast_rows(cfg, parse_grid(s_arg[4:]), parse_grid(t_arg[4:]))
        expected = _per_cell_csv(rows)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", model, s_arg, t_arg, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        capsys.readouterr()
        assert main(["sweep", "--model", model, s_arg, t_arg]) == 0
        assert capsys.readouterr().out == expected
        if t_arg == "--t=-0:0:1":
            assert all(line.split(",")[1] == "-0" for line in expected.splitlines()[1:])
        if s_arg.startswith("--s=0:"):
            assert expected.splitlines()[1].split(",")[3:6] == ["nan", "nan", "nan"]

    @pytest.mark.parametrize("model", ["h2", "h3", "h5", "h8"])
    def test_sweep_rows_equal_broadcast_rows_bitwise(self, model):
        cfg = lc.make_pair_config(*verify.canonical_pair(parse_model(model)))
        rng = np.random.default_rng(int(model[1:]))
        grids = [(parse_grid("0:3:7"), parse_grid("-3:3:5")),
                 ([0.0, *rng.uniform(0.0, 60.0, 40), *(10.0 ** rng.uniform(-300.0, 1.0, 40))],
                  [-0.0, *rng.uniform(-10.0, 10.0, 9)]),
                 ([0.7], [2.0]), ([0.7], [-1.0, 0.0, 1.0]), ([0.0, 0.2, 0.4], [0.0])]
        for s_grid, t_grid in grids:
            table, reference = verify.sweep_rows(cfg, s_grid, t_grid), _broadcast_rows(cfg, s_grid, t_grid)
            ts, s_rows = table
            # one row per s, without its t, and the t column once
            assert type(ts) is list and len(ts) == len(t_grid)
            assert type(s_rows) is list and len(s_rows) == len(s_grid)
            assert all(type(row) is tuple and len(row) == len(verify.SWEEP_COLUMNS) - 1 for row in s_rows)
            assert all(type(value) is float for value in ts)
            assert all(type(value) is float for row in s_rows for value in row)
            rows = sweep_cells(table)
            assert len(rows) == len(s_grid) * len(t_grid)
            assert np.array(rows).tobytes() == np.array(reference).tobytes()
        for s_grid in ([0.5, -0.1, 1.0], [0.5, 800.0, 900.0]):
            with pytest.raises(GeometryError) as new:
                verify.sweep_rows(cfg, s_grid, [-1.0, 2.0])
            with pytest.raises(GeometryError) as old:
                _broadcast_rows(cfg, s_grid, [-1.0, 2.0])
            assert type(new.value) is type(old.value) and str(new.value) == str(old.value)
            assert f"s = {s_grid[1]}" in str(new.value)

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


@pytest.mark.parametrize("argv", [
    ["example", "poincare"],
    ["sweep", "--s=0.5:1:2", "--t=0:1:2"],
    ["sweep", "--s=0.1:1:2000", "--t=0:1:200"],
], ids=["example", "small-sweep", "large-sweep"])
def test_closed_stdout_pipe_exits_2(argv):
    # as in `horoflow sweep ... | head -1`: a reader that has gone is a usage error
    # with one error line, not a traceback and the exit code of a failed check;
    # the small sweep fits stdout's buffer, so only its flush meets the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
    try:
        done = subprocess.run([sys.executable, "-m", "horoflow.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 2, done.stderr
    assert done.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["verify", "map-f"],
    ["example", "poincare"],
    ["sweep", "--s=0.5:1:2", "--t=0:1:2"],
], ids=["verify", "example", "sweep"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(argv, where, tmp_path, capsys):
    # exit 1 is a failed check; a report or CSV that cannot be written is a usage error
    out = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: [Errno ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, work", [
    (["verify", "all", "--model", "h8"], "run_suite"),
    (["example", "poincare"], "poincare_example_checks"),
], ids=["verify", "example"])
def test_unwritable_out_exits_2_before_the_first_check(argv, work, monkeypatch, tmp_path, capsys):
    # the report file is opened once the inputs are valid, before any check runs
    def forbidden(*args):
        raise AssertionError("no check may run before the report file is open")

    monkeypatch.setattr(cli, work, forbidden)
    out = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n"
