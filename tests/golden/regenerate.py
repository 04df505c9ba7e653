"""Rewrite the golden reports that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Each file holds the JSON report of one CLI run, ``verify all --model X`` at
seed 42 for X in h2..h8 and e2..e8, or ``example poincare``, without the
``wall_time_s`` of its records, plus the run's exit code and the numpy
version that made it. A change that moves a golden number rewrites the files
with this script and lists each moved check in CHANGES.md.
"""

from __future__ import annotations

import json
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


if __name__ == "__main__":
    write_all()
