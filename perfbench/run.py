"""horoflow benchmark: three workloads through the CLI entry point, end to end or traced.

    python3 perfbench/run.py --workload verify-h3 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the package is taken
from the checkout's ``src/`` and nothing is installed. Each round runs
``horoflow.cli.main`` in a fresh process (``perfbench/child.py``), and rounds
repeat while another one is expected to end within ``--seconds`` (at least
one round). Every round's output is checked against closed forms computed
in ``perfbench/checks.py``. A few extra rounds stop right before the
workload's main call, so that the set-up time is a median of several fresh
processes even when one round outlasts the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Run outputs and
trace files go to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The Monte Carlo seed handed to `horoflow verify`, the CLI's default. The MC
# checks are 3-sigma tests, so each fails on about 0.27% of seeds by design;
# drawing this seed from --seed would make `failed` depend on the seed.
PROGRAM_SEED = 42
SETUP_ROUNDS = 5
# one verify-e5 round takes about a minute; a run must end within 180 s
ROUND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Verify:
    """`horoflow verify all --model <model>` with seeded s and t grids."""

    model: str

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"s_grid": sorted(round(rng.uniform(0.3, 2.0), 6) for _ in range(3)),
                "t_grid": sorted(round(rng.uniform(-3.0, 3.0), 6) for _ in range(5))}

    def argv(self, inputs: dict, stem: Path) -> list:
        """CLI arguments of a round; writes the run config they name."""
        config = stem.with_suffix(".config.json")
        config.write_text(json.dumps({"model": self.model, "seed": PROGRAM_SEED, **inputs}))
        return ["verify", "all", "--config", str(config), "--out", str(stem.with_suffix(".report.json"))]

    def check(self, inputs: dict, stem: Path, exit_code) -> checks.Verdict:
        report = json.loads(stem.with_suffix(".report.json").read_text())
        return checks.check_verify_report(report, exit_code, self.model, inputs["s_grid"])


@dataclass(frozen=True)
class Sweep:
    """`horoflow sweep --model <model>` over a seeded s x t grid of side `side`."""

    model: str
    side: int

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        s = (round(0.1 + 0.05 * rng.random(), 6), round(3.0 - 0.05 * rng.random(), 6))
        t = (round(-3.0 + 0.1 * rng.random(), 6), round(3.0 - 0.1 * rng.random(), 6))
        return {"s": s, "t": t}

    def argv(self, inputs: dict, stem: Path) -> list:
        (s0, s1), (t0, t1) = inputs["s"], inputs["t"]
        return ["sweep", "--model", self.model, f"--s={s0}:{s1}:{self.side}",
                f"--t={t0}:{t1}:{self.side}", "--out", str(stem.with_suffix(".csv"))]

    def check(self, inputs: dict, stem: Path, exit_code) -> checks.Verdict:
        text = stem.with_suffix(".csv").read_text()
        return checks.check_sweep_csv(text, exit_code, int(self.model[1:]),
                                      checks.grid(*inputs["s"], self.side),
                                      checks.grid(*inputs["t"], self.side))


# Why each workload is here is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "verify-h3": Verify("h3"),
    "sweep-h4": Sweep("h4", 20),
    "verify-e5": Verify("e5"),
}


def _layer_self(layer):
    return lambda trace: sum(v["self_s"] for k, v in trace["spans"].items()
                             if k.startswith(layer + "."))


def _sum(field, *keys):
    return lambda trace: sum(trace["spans"][k][field] for k in keys if k in trace["spans"])


def _calls(*keys):
    return _sum("calls", *keys)


def _count(*keys):
    return _sum("count", *keys)


def _self(*keys):
    return _sum("self_s", *keys)


def _rate(key):
    # count per second of the span's inclusive duration
    def rate(trace):
        span = trace["spans"].get(key)
        return span["count"] / span["total_s"] if span and span["total_s"] > 0 else 0.0

    return rate


def _suite_wall(suite):
    return lambda trace: trace["suite_wall_s"].get(suite, 0.0)


FD = ["numerics.fd_gradient", "numerics.fd_hessian", "numerics.fd_jacobian", "numerics.fd_directional"]
INTEGRALS = ["locus.volume_locus", "locus.integral_v", "locus.integral_w", "locus.volume_upper_bound"]

# Per-layer metric -> (unit, value from a round's trace). The
# README maps each to the end-to-end metric and workload it should move.
PER_LAYER = {
    "manifold.check_coords.calls": ("count", _calls("manifold.ModelSpace.check_coords")),
    "manifold.exp.calls": ("count", _calls("manifold.ModelSpace.exp")),
    "manifold.log.calls": ("count", _calls("manifold.ModelSpace.log")),
    "manifold.inner.calls": ("count", _calls("manifold.ModelSpace.inner")),
    "manifold.distance.points": ("count", _count("manifold.ModelSpace.distance")),
    "manifold.distance.self_s": ("s", _self("manifold.ModelSpace.distance")),
    "manifold.self_s": ("s", _layer_self("manifold")),
    "busemann.grad_chart.calls": ("count", _calls("busemann.BusemannField.grad_chart")),
    "busemann.grad_chart.points": ("count", _count("busemann.BusemannField.grad_chart")),
    "busemann.grad_chart.self_s": ("s", _self("busemann.BusemannField.grad_chart")),
    "busemann.value.points": ("count", _count("busemann.BusemannField.value")),
    "busemann.value.self_s": ("s", _self("busemann.BusemannField.value")),
    "busemann.hessian_matrix.calls": ("count", _calls("busemann.BusemannField.hessian_matrix")),
    "busemann.hessian_matrix.self_s": ("s", _self("busemann.BusemannField.hessian_matrix")),
    "busemann.coarea_slice_integral.points": ("count", _count("busemann.coarea_slice_integral")),
    "busemann.coarea_slice_integral.self_s": ("s", _self("busemann.coarea_slice_integral")),
    "busemann.self_s": ("s", _layer_self("busemann")),
    "transport.PairFlow.vector.calls": ("count", _calls("transport.PairFlow.vector")),
    "transport.PairFlow.vector.points": ("count", _count("transport.PairFlow.vector")),
    "transport.PairFlow.vector.self_s": ("s", _self("transport.PairFlow.vector")),
    "transport.flow_density.self_s": ("s", _self("transport.flow_density")),
    "transport.flow_density_fd.self_s": ("s", _self("transport.flow_density_fd")),
    "transport.VolumePreservingMap.apply_coords.points":
        ("count", _count("transport.VolumePreservingMap.apply_coords")),
    "transport.VolumePreservingMap.jacobian_det.calls":
        ("count", _calls("transport.VolumePreservingMap.jacobian_det")),
    "transport.VolumePreservingMap.jacobian_det.self_s":
        ("s", _self("transport.VolumePreservingMap.jacobian_det")),
    "transport.self_s": ("s", _layer_self("transport")),
    "numerics.ode_integrate.calls": ("count", _calls("numerics.ode_integrate")),
    "numerics.ode_integrate.field_evals": ("count", _count("numerics.ode_integrate")),
    "numerics.ode_integrate.self_s": ("s", _self("numerics.ode_integrate")),
    "numerics.ode_integrate.field_evals_per_s": ("1/s", _rate("numerics.ode_integrate")),
    "numerics.mc_integrate_box.calls": ("count", _calls("numerics.mc_integrate_box")),
    "numerics.mc_integrate_box.samples": ("count", _count("numerics.mc_integrate_box")),
    "numerics.mc_integrate_box.self_s": ("s", _self("numerics.mc_integrate_box")),
    "numerics.mc_integrate_box.samples_per_s": ("1/s", _rate("numerics.mc_integrate_box")),
    "numerics.fd.calls": ("count", _calls(*FD)),
    "numerics.fd.self_s": ("s", _self(*FD)),
    "numerics.sphere_rule.calls": ("count", _calls("numerics.sphere_rule")),
    "numerics.sphere_rule.nodes": ("count", _count("numerics.sphere_rule")),
    "numerics.sphere_rule.self_s": ("s", _self("numerics.sphere_rule")),
    "numerics.gauss_legendre.calls": ("count", _calls("numerics.gauss_legendre")),
    "numerics.gauss_legendre.self_s": ("s", _self("numerics.gauss_legendre")),
    "numerics.self_s": ("s", _layer_self("numerics")),
    "locus.parametrize_locus.calls": ("count", _calls("locus.parametrize_locus")),
    "locus.parametrize_locus.nodes": ("count", _count("locus.parametrize_locus")),
    "locus.parametrize_locus.self_s": ("s", _self("locus.parametrize_locus")),
    "locus.beta_values.calls": ("count", _calls("locus.IntersectionLocus.beta_values")),
    "locus.beta_values.points": ("count", _count("locus.IntersectionLocus.beta_values")),
    "locus.integrals.calls": ("count", _calls(*INTEGRALS)),
    "locus.integrals.self_s": ("s", _self(*INTEGRALS)),
    "locus.measure_factors_fd.self_s": ("s", _self("locus.IntersectionLocus.measure_factors_fd")),
    "locus.strip_volume.self_s": ("s", _self("locus.strip_volume")),
    "locus.strip_volume_mc.self_s": ("s", _self("locus.strip_volume_mc")),
    "locus.self_s": ("s", _layer_self("locus")),
    **{f"verify.{suite}.wall_s": ("s", _suite_wall(suite))
       for suite in ("busemann", "map-f", "flows", "intersections", "coarea")},
    "verify.sweep_rows.self_s": ("s", _self("verify.sweep_rows")),
}


def run_round(spec: dict, env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round failed with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def child_env() -> dict:
    env = dict(os.environ)
    # import from cached bytecode, as an installed package does, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(PYTHONPATH="", HOROFLOW_THREADS="1", OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "horoflow" / "cli.py").is_file():
        print(f"error: no horoflow sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    inputs = workload.inputs(args.seed)
    cli_argv = workload.argv(inputs, stem)
    env = child_env()
    spec = {"src": str(SRC), "argv": cli_argv, "trace": bool(args.trace)}

    setups = []
    if not args.trace:
        for _ in range(SETUP_ROUNDS):
            setups.append(run_round({**spec, "mode": "setup"}, env)["setup_s"])

    rounds = []
    attempted = failed = 0
    problems = []
    start = next_end = time.perf_counter()
    # whole rounds only: start another one while it is expected to end in time
    while not rounds or next_end - start <= args.seconds:
        round_start = time.perf_counter()
        result = run_round({**spec, "mode": "run"}, env)
        now = time.perf_counter()
        next_end = now + (now - round_start)
        verdict = workload.check(inputs, stem, result["exit_code"])
        attempted += verdict.attempted
        failed += verdict.failed
        problems += verdict.problems
        result["ops"] = verdict.attempted
        rounds.append(result)
    correct = not problems and attempted > 0
    for problem in problems[:20]:
        print(f"wrong output: {problem}", file=sys.stderr)

    med = statistics.median
    if args.trace:
        metrics = {}
        for name, (unit, value) in PER_LAYER.items():
            values = [value(r["trace"]) for r in rounds]
            # counts repeat exactly from round to round; keep them whole numbers
            metrics[name] = {"value": statistics.median_low(values) if unit == "count"
                             else float(med(values)), "unit": unit}
        (stem.parent / f"{stem.name}.trace.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "argv": cli_argv,
             "wall_s": [r["wall_s"] for r in rounds], "rounds": [r["trace"] for r in rounds]},
            indent=1))
        print(f"traced wall_s (median of {len(rounds)}) = {med(r['wall_s'] for r in rounds):.4f} s")
    else:
        metrics = {
            "setup_s": (med(setups + [r["setup_s"] for r in rounds]), "s"),
            "wall_s": (med(r["wall_s"] for r in rounds), "s"),
            "cpu_s": (med(r["cpu_s"] for r in rounds), "s"),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in rounds), "MB"),
            "ops_per_s": (med(r["ops"] / r["wall_s"] for r in rounds), "1/s"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds = {len(rounds)}, attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
