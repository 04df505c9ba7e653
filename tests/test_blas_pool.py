"""Importing horoflow loads NumPy with one BLAS thread and leaves the caller's
environment as it found it. Each case runs in a fresh process, because this
test session imported NumPy before horoflow."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import horoflow

needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the thread count from /proc/self/status")

SRC = str(Path(horoflow.__file__).resolve().parents[1])
THREADS = "int(open('/proc/self/status').read().split('Threads:')[1].split()[0])"


def _env(**blas) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(name, None)
    return {**env, **blas}


def _run(script: str, env: dict) -> list:
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return json.loads(done.stdout)


@needs_proc
def test_import_loads_one_blas_thread_and_restores_the_environment():
    script = ("import json, os, horoflow; "
              f"print(json.dumps([{THREADS}, os.environ.get('OPENBLAS_NUM_THREADS'), "
              "'OMP_NUM_THREADS' in os.environ, 'MKL_NUM_THREADS' in os.environ]))")
    assert _run(script, _env(OPENBLAS_NUM_THREADS="2")) == [1, "2", False, False]


@needs_proc
def test_numpy_imported_first_keeps_its_pool():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS runs one thread on one CPU")
    script = f"import json, numpy, horoflow; print(json.dumps([{THREADS}]))"
    assert _run(script, _env(OPENBLAS_NUM_THREADS="2")) == [2]


def test_verify_reports_do_not_depend_on_the_callers_blas_threads(tmp_path):
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"h3-{threads}.json"
        subprocess.run([sys.executable, "-m", "horoflow.cli", "verify", "all", "--model", "h3",
                        "--out", str(out)], capture_output=True, env=_env(OPENBLAS_NUM_THREADS=threads),
                       timeout=120, check=True)
        report = json.loads(out.read_text())
        for check in report["checks"]:
            del check["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1]
