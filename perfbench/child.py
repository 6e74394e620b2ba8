"""One workload process, launched fresh by ``run.py``.

``child.py flood_grid|atlas_scan`` runs the workload in this process
and writes its outcome as JSON to ``--out``; it prints ``READY`` once
set-up is done (imports, inputs built), just before the first unit of
work is submitted, which is where ``run.py`` stops the set-up clock.
``--setup-only`` exits right there.  ``--trace`` wraps every layer
first (see ``tracer.py``) and runs a fixed number of passes.

``child.py serve_server --store PATH --trace-out FILE`` is the traced
form of ``python -m repro.serve --workers 2``: it wraps every layer,
serves until SIGINT, then dumps the trace to ``FILE``.
"""

from __future__ import annotations

import argparse
import json

from metrics import peak_rss_mb
from tracer import Tracer, install, layer_metrics, self_time_table


def environment() -> dict:
    """Where the numbers came from: the environment stamp of a run."""
    import multiprocessing
    import os
    import platform

    from repro.obs import OBS
    from repro.parallel.kernel import vector_available

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "atlas_kernel": "vector" if vector_available() else "python",
        "pool_start_method": multiprocessing.get_start_method(),
        "obs": "on" if OBS.enabled else "off",
    }


def trace_payload(tracer: Tracer, wall_s: float) -> dict:
    """A finished tracer's per-layer metrics, table and spans."""
    totals = tracer.merged()
    return {
        "wall_s": wall_s,
        "layers": layer_metrics(totals, tracer.worker, wall_s),
        "table": self_time_table(totals, wall_s),
        "worker": dict(tracer.worker),
        "spans": totals["spans"],
    }


def _ready() -> None:
    print("READY", flush=True)


def run_workload(args) -> int:
    import workloads

    tracer = install(Tracer()) if args.trace else None
    if args.setup_only:
        def ready():
            _ready()
            raise SystemExit(0)
    else:
        ready = _ready
    if args.workload == "flood_grid":
        outcome = workloads.flood_grid(args.seed, args.seconds,
                                       args.passes, ready)
    else:
        outcome = workloads.atlas_scan(args.seed, args.seconds,
                                       args.passes, ready, args.scratch)
    outcome["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        outcome["trace"] = trace_payload(tracer,
                                         sum(outcome["latencies"]))
    check = workloads.check_flood_grid if args.workload == "flood_grid" \
        else workloads.check_atlas_scan
    outcome["problems"] = check(args.seed, outcome)
    outcome["environment"] = environment()
    outcome.pop("rows", None)
    outcome.pop("digests", None)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
    return 0


def serve_server(args) -> int:
    """The service, wrapped; the trace is dumped after SIGINT."""
    from repro.serve.__main__ import main
    from workloads import SERVE_WORKERS

    tracer = install(Tracer())
    try:
        main(["--store", args.store, "--port", "0",
              "--workers", str(SERVE_WORKERS)])
    finally:
        tracer.uninstall()
        roots = tracer.merged()["roots"]
        wall = (max(end for _, end in roots)
                - min(start for start, _ in roots)) if roots else 0.0
        payload = trace_payload(tracer, wall)
        payload["environment"] = environment()
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=("flood_grid", "atlas_scan",
                                             "serve_server"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--scratch", default=".")
    parser.add_argument("--store")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.workload == "serve_server":
        return serve_server(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
