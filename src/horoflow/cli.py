"""Command-line entry point: verification suites, the worked example, grid sweeps.

    horoflow verify <suite> [--model h2|...|h8|e2|...|e8] [--config path] [--seed N]
                            [--t0 T] [--out path] [--probe-outside-image]
    horoflow example poincare [--out path]
    horoflow sweep --s a:b:k --t a:b:k [--model hN] [--out path]

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 usage or
configuration error, or a check that stopped with an error (2 wins over 1).
Reports are JSON (one record per check, an ``error`` record for a check that
raised); sweeps are CSV with a stable column order and 17-significant-digit
decimals. A sweep evaluates the closed forms of the locus quantities, in
O(1) per cell, on any hN with 2 <= N <= 8.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .locus import make_pair_config
from .manifold import EUCLIDEAN, HYPERBOLIC, GeometryError, ModelSpace
from .verify import (
    ERROR,
    FAIL,
    MARKERS,
    SUITES,
    SWEEP_COLUMNS,
    CheckReport,
    VerifyContext,
    canonical_pair,
    poincare_example_checks,
    run_suite,
    sweep_rows,
)

USAGE_ERROR = 2


class ConfigError(ValueError):
    pass


def parse_model(token: str) -> ModelSpace:
    """Model strings: h<dim> for hyperbolic half-space, e<dim> for Euclidean."""
    token = token.strip().lower().replace(" ", "")
    if len(token) < 2 or token[0] not in ("h", "e"):
        raise ConfigError(f"model must look like h3 or e3, got {token!r}")
    try:
        dim = int(token[1:])
    except ValueError as exc:
        raise ConfigError(f"bad model dimension in {token!r}") from exc
    kind = HYPERBOLIC if token[0] == "h" else EUCLIDEAN
    try:
        return ModelSpace(kind, dim)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc


def parse_grid(token: str) -> list[float]:
    """Grid syntax a:b:k = k equally spaced values from a to b inclusive, for
    finite numbers a and b and an integer k >= 1."""
    parts = token.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be a:b:k, got {token!r}")
    try:
        a, b, k = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"grid a:b:k needs numbers a, b and an integer k, got {token!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"grid bounds must be finite, got {token!r}")
    if k < 1:
        raise ConfigError("grid needs at least one point")
    return [a] if k == 1 else list(np.linspace(a, b, k))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class RunConfig:
    """Inputs of one verification run; JSON file values, then flag overrides."""

    model: str = "h3"
    seed: int = 42
    s_grid: list = field(default_factory=lambda: [0.5, math.log(2.0), 2.0])
    t_grid: list = field(default_factory=lambda: [-3.0, -1.0, 0.0, 1.0, 3.0])
    t0: float = 1.0
    probe_outside_image: bool = False
    out: str | None = None

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        cfg = RunConfig()
        unknown = set(raw) - set(vars(cfg))
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            setattr(cfg, key, value)
        return cfg

    def validate(self) -> None:
        """Reject a value of the wrong type or out of range, from the file or a flag."""
        if not isinstance(self.model, str):
            raise ConfigError("model must be a string such as h3")
        if not _is_int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a nonnegative 64-bit integer")
        for key in ("s_grid", "t_grid"):
            grid = getattr(self, key)
            if not isinstance(grid, list) or not grid or not all(map(_is_finite, grid)):
                raise ConfigError(f"{key} must be a nonempty list of finite numbers")
        if min(self.s_grid) <= 0:
            raise ConfigError("s_grid values must be positive: V and W are undefined on the s = 0 locus")
        if not _is_finite(self.t0) or self.t0 <= 0:
            raise ConfigError("t0 must be a finite positive number")
        if not isinstance(self.probe_outside_image, bool):
            raise ConfigError("probe_outside_image must be true or false")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out must be a path")
        parse_model(self.model)

    def context(self) -> VerifyContext:
        return VerifyContext(
            model=parse_model(self.model),
            seed=self.seed,
            s_grid=tuple(self.s_grid),
            t_grid=tuple(self.t_grid),
            t0=float(self.t0),
            probe_outside_image=self.probe_outside_image,
        )


def _emit_report(suite: str, cfg: RunConfig, reports: list[CheckReport]) -> int:
    payload = {
        "suite": suite,
        "model": cfg.model,
        "seed": cfg.seed,
        "checks": [r.to_json_dict() for r in reports],
    }
    text = json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for r in reports:
        print(f"{MARKERS[r.status]:12s} {r.name}", file=sys.stderr)
    errors = [r for r in reports if r.status == ERROR]
    for r in errors:
        print(f"error: {r.name}: {r.quantities['error']}", file=sys.stderr)
    if errors:
        return USAGE_ERROR
    return 1 if any(r.status == FAIL for r in reports) else 0


def cmd_verify(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for key in ("model", "seed", "out", "t0"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if args.probe_outside_image:
        cfg.probe_outside_image = True
    cfg.validate()
    ctx = cfg.context()
    reports = run_suite(args.suite, ctx)
    return _emit_report(args.suite, cfg, reports)


def cmd_example(args) -> int:
    if args.which != "poincare":
        raise ConfigError(f"unknown example {args.which!r}; available: poincare")
    cfg = RunConfig(model="h3", out=args.out)
    reports = poincare_example_checks()
    return _emit_report("example-poincare", cfg, reports)


def cmd_sweep(args) -> int:
    model = parse_model(args.model)
    s_grid = parse_grid(args.s)
    t_grid = parse_grid(args.t)
    if not model.is_hyperbolic:
        raise ConfigError("sweeps need the visibility model (hyperbolic)")
    rows = sweep_rows(make_pair_config(*canonical_pair(model)), s_grid, t_grid)
    fmt = ",".join(["%.17g"] * len(SWEEP_COLUMNS))
    text = "\n".join([",".join(SWEEP_COLUMNS)] + [fmt % row for row in rows]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horoflow",
        description="Numerical verification toolkit for horosphere geometry in model Hadamard spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite and write a JSON report")
    p_verify.add_argument("suite", choices=list(SUITES))
    p_verify.add_argument("--model", help="model space: h2..h8 (hyperbolic half-space) or e2..e8 (Euclidean); default h3")
    p_verify.add_argument("--config", help="JSON config file; flags override file values")
    p_verify.add_argument("--seed", type=int, help="seed of the random test points (default 42)")
    p_verify.add_argument("--t0", type=float, help="separation of the map endpoints (default 1.0)")
    p_verify.add_argument("--out", help="report path (default: stdout)")
    p_verify.add_argument("--probe-outside-image", action="store_true",
                          help="also run the documented out-of-image counterexample (reported as paper-discrepancy)")
    p_verify.set_defaults(fn=cmd_verify)

    p_example = sub.add_parser("example", help="reproduce the worked upper half-space example")
    p_example.add_argument("which", choices=["poincare"])
    p_example.add_argument("--out", help="report path (default: stdout)")
    p_example.set_defaults(fn=cmd_example)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of the closed-form locus quantities over an (s, t) grid")
    p_sweep.add_argument("--s", required=True, help="s grid as a:b:k (k points from a to b)")
    p_sweep.add_argument("--t", required=True, help="t grid as a:b:k (negative bounds allowed)")
    p_sweep.add_argument("--model", default="h3", help="hyperbolic model h2..h8, default h3")
    p_sweep.add_argument("--out", help="CSV path (default: stdout)")
    p_sweep.set_defaults(fn=cmd_sweep)
    # grid bounds like -1:1:5 start with a dash; teach the parser they are values
    p_sweep._negative_number_matcher = re.compile(r"^-\d+[\d.:eE+-]*$")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # a grid or a batch too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
