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
allows; each other quantity that moved (an integer, string, boolean or null, or
a key, list length or type that differs), with its old and new value; each check
that only the files or only the run holds; then the total of moved floats over
all cases.
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


MISSING = object()  # a key one quantity tree lacks


def _leaf_pairs(got, want, where=""):
    """(path, got, want) for the leaves at the same place of two quantity trees;
    where their shapes differ (a key on one side only, lists of two lengths, a
    dict against a list) the subtrees are one pair, a missing side MISSING."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in list(want) + [key for key in got if key not in want]:
            yield from _leaf_pairs(got.get(key, MISSING), want.get(key, MISSING), f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _leaf_pairs(g, w, f"{where}[{i}]")
    else:
        yield where, got, want


def _show(value) -> str:
    text = "missing" if value is MISSING else json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def diff_ledger() -> list[str]:
    """The lines of the ``--diff`` ledger of a fresh run against the files."""
    lines, moved_total, floats_total = [], 0, 0
    for name in CASES:
        want = json.loads(path(name).read_text())
        got = {c["name"]: c for c in run_case(name)["checks"]}
        for check in want["checks"]:
            if check["name"] not in got:
                lines.append(f"{name} {check['name']}: only in the files")
                continue
            pairs = list(_leaf_pairs(got[check["name"]]["quantities"], check["quantities"]))
            floats = [(g, w) for _, g, w in pairs if isinstance(g, float) and isinstance(w, float)]
            others = [(where, g, w) for where, g, w in pairs
                      if not (isinstance(g, float) and isinstance(w, float)) and (type(g) is not type(w) or g != w)]
            moves = [(g, w) for g, w in floats if struct.pack("<d", g) != struct.pack("<d", w)]
            floats_total, moved_total = floats_total + len(floats), moved_total + len(moves)
            if moves:
                slack = [max(1e-12 * abs(w), 1e-3 * check["tolerance"]) for _, w in moves]
                worst = max(abs(g - w) / s if s > 0.0 else math.inf for (g, w), s in zip(moves, slack))
                lines.append(f"{name} {check['name']}: {len(moves)} of {len(floats)} floats moved, "
                             f"largest move {worst:.3g} of the slack")
            if others:
                lines.append(f"{name} {check['name']}: {len(others)} other quantities moved: "
                             + "; ".join(f"{where[1:]} {_show(w)} -> {_show(g)}" for where, g, w in others))
        filed = {check["name"] for check in want["checks"]}
        lines += [f"{name} {extra}: only in this run" for extra in got if extra not in filed]
    lines.append(f"total: {moved_total} of {floats_total} quantity floats moved bitwise")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden reports, or with --diff list their moves.")
    parser.add_argument("--diff", action="store_true",
                        help="write nothing; print per case and check the quantities that moved")
    if parser.parse_args().diff:
        print("\n".join(diff_ledger()))
    else:
        write_all()
