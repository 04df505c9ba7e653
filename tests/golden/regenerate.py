"""Rewrite the golden reports that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py [--diff]

Each file holds the JSON report of one CLI run, ``verify all --model X`` at
seed 42 for X in h2..h8 and e2..e8, or ``example poincare``, without the
``wall_time_s`` of its records, plus the run's exit code and the numpy
version that made it. A change that moves a golden number rewrites the files
with this script and lists each moved check in CHANGES.md.

With ``--diff`` it writes nothing and prints a ledger instead: for each case
and check whose quantities hold a float that differs bitwise from the files,
how many do and the largest move as a fraction of the gate's slack,
max(1e-12 relative, 1e-3 x the check's tolerance), that ``tests/test_golden.py``
allows; then the total over all cases.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np

from horoflow.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent
MODELS = [f"{kind}{n}" for kind in "he" for n in range(2, 9)]
SEED = 42
# case name -> CLI arguments before --out
CASES = {**{f"verify-all-{model}": ["verify", "all", "--model", model, "--seed", str(SEED)]
            for model in MODELS},
         "example-poincare": ["example", "poincare"]}


def run_case(name: str) -> dict:
    """The report of one case as the golden files store it."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with contextlib.redirect_stderr(io.StringIO()):  # the run's one-line-per-check summary
            code = main(CASES[name] + ["--out", str(out)])
        payload = json.loads(out.read_text())
    for record in payload["checks"]:
        del record["wall_time_s"]
    return {"exit_code": code, **payload}


def path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def write_all() -> None:
    for name in CASES:
        payload = {"numpy_version": np.__version__, **run_case(name)}
        path(name).write_text(json.dumps(payload, indent=1) + "\n")


def _float_pairs(got, want):
    """The (got, want) pairs of floats at the same place of two quantity trees."""
    if isinstance(want, float) and isinstance(got, float):
        yield got, want
    elif isinstance(want, dict) and isinstance(got, dict):
        for key in want.keys() & got.keys():
            yield from _float_pairs(got[key], want[key])
    elif isinstance(want, list) and isinstance(got, list):
        for g, w in zip(got, want):
            yield from _float_pairs(g, w)


def diff_ledger() -> list[str]:
    """The lines of the ``--diff`` ledger of a fresh run against the files."""
    lines, moved_total, floats_total = [], 0, 0
    for name in CASES:
        want = json.loads(path(name).read_text())
        got = {c["name"]: c for c in run_case(name)["checks"]}
        for check in want["checks"]:
            pairs = list(_float_pairs(got.get(check["name"], {}).get("quantities"), check["quantities"]))
            moves = [(g, w) for g, w in pairs if struct.pack("<d", g) != struct.pack("<d", w)]
            floats_total, moved_total = floats_total + len(pairs), moved_total + len(moves)
            if moves:
                slack = [max(1e-12 * abs(w), 1e-3 * check["tolerance"]) for _, w in moves]
                worst = max(abs(g - w) / s if s > 0.0 else math.inf for (g, w), s in zip(moves, slack))
                lines.append(f"{name} {check['name']}: {len(moves)} of {len(pairs)} floats moved, "
                             f"largest move {worst:.3g} of the slack")
    lines.append(f"total: {moved_total} of {floats_total} quantity floats moved bitwise")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden reports, or with --diff list their moves.")
    parser.add_argument("--diff", action="store_true",
                        help="write nothing; print per case and check the floats that moved")
    if parser.parse_args().diff:
        print("\n".join(diff_ledger()))
    else:
        write_all()
