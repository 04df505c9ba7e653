"""The report contract: ``verify all`` on the 14 models at seed 42 and
``example poincare`` reproduce the stored reports under ``tests/golden/``.

Names, statements, statuses, tolerances, ``tol_kind``, expected values, exit
codes and every integer, string and boolean must match exactly. A float in
the quantities may move by max(1e-12 relative, 1e-3 x the check's
tolerance), so a roundoff change of numpy or BLAS passes and a real move
fails. ``tests/golden/regenerate.py`` rewrites the files.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

EXACT_KEYS = ("name", "statement", "expected", "provenance", "tolerance", "tol_kind", "status")


def _mismatches(got, want, slack: float, where: str):
    """Paths at which got differs from want: exactly, except floats within
    max(1e-12 relative, slack)."""
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) > max(1e-12 * abs(want), slack):
            yield f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            yield f"{where}: keys {sorted(got)} != {sorted(want)}"
        else:
            for key in want:
                yield from _mismatches(got[key], want[key], slack, f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield f"{where}: length {len(got)} != {len(want)}"
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from _mismatches(g, w, slack, f"{where}[{i}]")
    elif type(got) is not type(want) or got != want:
        yield f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", list(golden.CASES))
def test_report_matches_golden(case):
    want = json.loads(golden.path(case).read_text())
    got = golden.run_case(case)
    head = ("exit_code", "suite", "model", "seed")
    assert {k: got[k] for k in head} == {k: want[k] for k in head}
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    problems = []
    for g, w in zip(got["checks"], want["checks"]):
        problems += [f"{w['name']}.{k}: {g[k]!r} != {w[k]!r}" for k in EXACT_KEYS if g[k] != w[k]]
        problems += _mismatches(g["quantities"], w["quantities"], 1e-3 * w["tolerance"],
                                f"{w['name']}.quantities")
    assert not problems, "\n".join(problems)


def test_diff_ledger_counts_bitwise_moves_against_the_slack(monkeypatch, tmp_path):
    # a copy of the poincare file with one float moved by half its slack and one by its last bit
    payload = json.loads(golden.path("example-poincare").read_text())
    check = payload["checks"][2]
    length = check["quantities"]
    length["length"] += 0.5 * max(1e-12 * length["length"], 1e-3 * check["tolerance"])
    length["exact"] = float(np.nextafter(length["exact"], 10.0))
    (tmp_path / "example-poincare.json").write_text(json.dumps(payload))
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(golden, "CASES", {"example-poincare": golden.CASES["example-poincare"]})
    ledger = golden.diff_ledger()
    assert len(ledger) == 2 and ledger[1] == "total: 2 of 9 quantity floats moved bitwise"
    head, _, worst = ledger[0].partition("largest move ")
    assert head == "example-poincare example-circle-length: 2 of 3 floats moved, "
    assert float(worst.split()[0]) == pytest.approx(0.5, rel=1e-3)
    assert [p.name for p in tmp_path.iterdir()] == ["example-poincare.json"]
