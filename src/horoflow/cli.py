"""Command-line entry point: verification suites, the worked example, grid sweeps.

    horoflow verify <suite> [--model h2|...|h8|e2|...|e8] [--config path] [--seed N]
                            [--t0 T] [--out path] [--probe-outside-image]
    horoflow example poincare [--out path]
    horoflow sweep --s a:b:k --t a:b:k [--model hN] [--out path]

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 usage or
configuration error (an unwritable --out is found before the run), or a check
that stopped with an error (2 wins over 1). Reports are JSON (one record per
check, an ``error`` record for a check that raised); sweeps are CSV with a
stable column order and 17-significant-digit decimals. The closed forms depend
on s alone: a sweep's table is the t column and one row per s, each formatted once.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import fields

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
    ConfigError,
    VerifyContext,
    canonical_pair,
    poincare_example_checks,
    run_suite,
    sweep_rows,
)

USAGE_ERROR = 2


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


def _fits(nbytes: int) -> bool:
    """Whether nbytes fit in this machine's physical memory."""
    return nbytes <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def parse_grid(token: str) -> np.ndarray:
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
    if not _fits(8 * k):  # k float64 values; past 2**59 or so NumPy raises no MemoryError
        raise MemoryError(f"a grid of {k} points")
    # one point keeps a's sign: np.linspace(-0.0, 0.0, 1) gives +0
    return np.array([a]) if k == 1 else np.linspace(a, b, k)


def _open(out: str | None):
    """The file out opened for writing, before any work is done, or stdout when out is empty."""
    try:
        return open(out, "w") if out else sys.stdout
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _write(fh, chunks) -> None:
    """Write the text chunks to fh from :func:`_open`, and close it unless it is stdout."""
    try:
        with contextlib.nullcontext() if fh is sys.stdout else fh:
            fh.writelines(chunks)
            fh.flush()
    except OSError as exc:
        if fh is sys.stdout:  # a closed pipe, say: what stdout still buffers goes nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), fh.fileno())
        raise ConfigError(f"cannot write {'stdout' if fh is sys.stdout else fh.name}: {exc}") from exc


def _emit_report(suite: str, model: str, seed: int, fh, reports: list[CheckReport]) -> int:
    payload = {"suite": suite, "model": model, "seed": seed, "checks": [r.to_json_dict() for r in reports]}
    _write(fh, [json.dumps(payload, indent=2, allow_nan=False) + "\n"])
    for r in reports:
        print(f"{MARKERS[r.status]:12s} {r.name}", file=sys.stderr)
    errors = [r for r in reports if r.status == ERROR]
    for r in errors:
        print(f"error: {r.name}: {r.quantities['error']}", file=sys.stderr)
    if errors:
        return USAGE_ERROR
    return 1 if any(r.status == FAIL for r in reports) else 0


def cmd_verify(args) -> int:
    """The run's inputs: JSON config values, then flag overrides, over the
    defaults of :class:`VerifyContext`, which validates them."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        unknown = set(raw) - {f.name for f in fields(VerifyContext) if f.init} - {"out"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("model", "seed", "out", "t0"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    if args.probe_outside_image:
        raw["probe_outside_image"] = True
    model, out = raw.pop("model", "h3"), raw.pop("out", None)
    if not isinstance(model, str):
        raise ConfigError("model must be a string such as h3")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path")
    ctx = VerifyContext(parse_model(model), **raw)
    fh = _open(out)
    return _emit_report(args.suite, model, ctx.seed, fh, run_suite(args.suite, ctx))


def cmd_example(args) -> int:
    if args.which != "poincare":
        raise ConfigError(f"unknown example {args.which!r}; available: poincare")
    fh = _open(args.out)
    return _emit_report("example-poincare", "h3", VerifyContext.seed, fh, poincare_example_checks())


def cmd_sweep(args) -> int:
    """Write the CSV of ``sweep_rows``' s-table, one line per (s, t) cell, s-major."""
    model = parse_model(args.model)
    s_grid, t_grid = parse_grid(args.s), parse_grid(args.t)
    if not model.is_hyperbolic:
        raise ConfigError("sweeps need the visibility model (hyperbolic)")
    cells = len(s_grid) * len(t_grid)
    try:
        if not _fits(cells * 2 * len(SWEEP_COLUMNS)):
            raise MemoryError  # the CSV text needs a character and a separator per column of a row
        ts, rows = sweep_rows(make_pair_config(*canonical_pair(model)), s_grid, t_grid)
        ts = ["%.17g" % t for t in ts]  # one text per s row: each t formatted once, each s and tail once
        fmt = ",".join(["%.17g"] * (len(SWEEP_COLUMNS) - 2))
        blocks = [",".join(SWEEP_COLUMNS) + "\n"]
        for row in rows:
            head, tail = "%.17g," % row[0], "," + fmt % row[1:] + "\n"
            blocks.append(head + (tail + head).join(ts) + tail)
    except MemoryError as exc:  # the up-front check raises it without a message
        raise MemoryError(str(exc) or f"a grid of {len(s_grid)} x {len(t_grid)} = {cells} cells")
    _write(_open(args.out), blocks)
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
