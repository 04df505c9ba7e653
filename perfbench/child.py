"""One benchmark round in a fresh process: ``horoflow.cli.main`` on given arguments.

    python3 perfbench/child.py '<spec json>'

The spec holds ``src`` (the directory that holds the ``horoflow`` package),
``argv`` (the CLI arguments), ``mode`` (``run``, or ``setup`` to stop at the
workload's main call) and ``trace`` (wrap the layers in spans). The round
prints one JSON line:

* ``setup_s``: from before ``import horoflow`` to the call of ``run_suite``
  or ``sweep_rows``, so it covers the import, argument parsing and the
  construction of the VerifyContext / PairConfig;
* ``wall_s``: the duration of that call;
* ``cpu_s``: user plus system CPU time of this process;
* ``peak_rss_mb``: peak resident set size of this process;
* ``exit_code``: what ``main`` returned (null in setup mode);
* with tracing, ``trace``: span aggregates and per-suite check wall times.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


class SetupDone(Exception):
    """Raised in place of the workload's main call by a set-up-only round."""


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import horoflow
    import horoflow.cli as cli

    package_dir = os.path.dirname(os.path.abspath(horoflow.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(spec["src"]):
        print(f"horoflow imported from {package_dir}, not from {spec['src']}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(horoflow)

    marks = {}
    results = []

    def timed(fn):
        def call(*args, **kwargs):
            marks["call"] = time.perf_counter()
            if spec["mode"] == "setup":
                raise SetupDone
            try:
                result = fn(*args, **kwargs)
                results.append(result)
                return result
            finally:
                marks["done"] = time.perf_counter()

        return call

    cli.run_suite = timed(cli.run_suite)
    cli.sweep_rows = timed(cli.sweep_rows)
    try:
        exit_code = cli.main(spec["argv"])
    except SetupDone:
        exit_code = None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if "call" not in marks:
        print("the workload's main call was never reached", file=sys.stderr)
        return 2
    out = {
        "exit_code": exit_code,
        "setup_s": marks["call"] - start,
        "wall_s": marks["done"] - marks["call"] if "done" in marks else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace"]["suite_wall_s"] = _suite_wall_times(results)
    print(json.dumps(out))
    return 0


def _suite_wall_times(results) -> dict:
    """Sum of CheckReport.wall_time_s per suite of a ``verify all`` run."""
    from horoflow.verify import SUITES

    suite_of = {id(fn): name for name, fns in SUITES.items() if name != "all" for fn in fns}
    totals = {name: 0.0 for name in SUITES if name != "all"}
    for reports in results:
        if reports and hasattr(reports[0], "wall_time_s"):
            for fn, rep in zip(SUITES["all"], reports):
                totals[suite_of[id(fn)]] += rep.wall_time_s
    return totals


if __name__ == "__main__":
    sys.exit(main())
