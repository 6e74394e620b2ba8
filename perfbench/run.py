"""The repo benchmark: one workload, measured end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flood_grid --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the workload untraced and reports the
end-to-end metrics; ``--trace 1`` runs the same fixed work untraced
and then traced (every layer wrapped), reports the per-layer metrics
and the tracing overhead (the rate lost between the two), writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl`` and checks that the exact
counts repeat those of earlier traced runs of the same code and seed.
Human-readable lines come first; the last line of standard output is
the JSON result.  Every workload's outputs are checked before any
number is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import metrics
import workloads
from child import environment
from metrics import (END_TO_END, EXACT_COUNTS, LAYER_EFFECTS, PER_LAYER,
                     WORK_UNITS, latency_summary)
from tracer import write_jsonl

WORKLOADS = tuple(WORK_UNITS)
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Fresh interpreter launches per untraced run; ``setup_s`` is their
#: median (the measured run's own launch is one of them).
SETUP_LAUNCHES = 5
#: Fixed work of a traced run and of its untraced twin, so exact counts
#: can repeat and the two rates compare like with like (a serve store
#: grows over a run, and its reads slow down with it).
TRACED_PASSES = {"flood_grid": 2, "atlas_scan": 2}
TRACED_JOBS_PER_CLIENT = 40
#: No single process of a run may take longer than this.
PROCESS_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The workload could not be run to the end."""


# -- processes ----------------------------------------------------------------


class Launched:
    """A child process whose stdout lines are drained by a thread."""

    def __init__(self, cmd: list[str], env: dict):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True, env=env)
        self.lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_line(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError(f"no {prefix!r} line within {timeout}s")\
                    from None
            if line is None:
                raise BenchError(f"process exited before {prefix!r}")
            if line.startswith(prefix):
                return line

    def finish(self, interrupt: bool = False) -> int:
        """Stop (SIGINT first when asked) and wait; returns the code."""
        if interrupt and self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise BenchError("process did not stop in time") from None
        self._reader.join(timeout=10)
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _child(root, scratch, workload, seed, seconds, passes=None,
           trace=False, setup_only=False) -> tuple[float, dict | None]:
    """Run one workload process; returns (set-up seconds, outcome)."""
    out = os.path.join(scratch, f"outcome-{time.monotonic_ns()}.json")
    cmd = [sys.executable, CHILD, workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out, "--scratch", scratch]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    child = Launched(cmd, _env(root))
    try:
        child.wait_line("READY", PROCESS_TIMEOUT_S)
        setup = time.perf_counter() - child.started
        if child.finish() != 0:
            raise BenchError(f"{workload} process failed")
    finally:
        child.kill()
    if setup_only:
        return setup, None
    with open(out, encoding="utf-8") as handle:
        return setup, json.load(handle)


def _start_server(root, store, trace_out=None) -> tuple[Launched, int]:
    """Launch the job service; returns once ``/health`` answers 200."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro.serve", "--store", store,
               "--port", "0", "--workers", str(workloads.SERVE_WORKERS)]
    else:
        cmd = [sys.executable, CHILD, "serve_server", "--store", store,
               "--trace-out", trace_out]
    server = Launched(cmd, _env(root))
    try:
        line = server.wait_line("repro serve: listening on",
                                PROCESS_TIMEOUT_S)
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        while True:
            try:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/health",
                        timeout=5) as response:
                    if response.status == 200:
                        break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("service never became healthy")
            time.sleep(0.002)
    except BaseException:
        server.kill()
        raise
    return server, port


# -- workloads ----------------------------------------------------------------


def measure(root, scratch, workload, seed, seconds,
            setup_launches: int) -> dict:
    """One untraced run: set-up samples, the measured window, checks."""
    if workload == "serve_killchain":
        return _measure_serve(root, scratch, seed, seconds, setup_launches)
    setups = [_child(root, scratch, workload, seed, seconds,
                     setup_only=True)[0]
              for _ in range(setup_launches - 1)]
    setup, outcome = _child(root, scratch, workload, seed, seconds)
    setups.append(setup)
    outcome["setups"] = setups
    return _tally(workload, outcome)


def _tally(workload: str, outcome: dict) -> dict:
    """Wall and attempted/failed units (cells, or atlas shards) of an
    in-child run."""
    outcome["wall"] = sum(outcome["latencies"])
    if workload == "flood_grid":
        outcome["attempted"] = outcome["work"]
        outcome["failed"] = 0
    else:
        outcome["attempted"] = len(outcome["latencies"]) \
            * workloads.ATLAS_SHARDS * len(workloads.ATLAS_DATASETS)
    return outcome


def _measure_serve(root, scratch, seed, seconds, setup_launches,
                   trace_out=None, jobs_per_client=None,
                   kind="window") -> dict:
    setups = []
    for launch in range(setup_launches):
        store = os.path.join(scratch, f"serve-{kind}-{launch}.db")
        started = time.perf_counter()
        server, port = _start_server(root, store, trace_out)
        setups.append(time.perf_counter() - started)
        if launch < setup_launches - 1:
            server.finish(interrupt=True)
    try:
        outcome = workloads.serve_killchain(port, seed, seconds,
                                            jobs_per_client)
        outcome["peak_rss_mb"] = metrics.process_peak_rss_mb(
            server.process.pid)
    finally:
        code = server.finish(interrupt=True)
    if code != 0:
        raise BenchError(f"service exited with code {code}")
    outcome["setups"] = setups
    outcome["problems"] = workloads.check_serve(store, outcome)
    outcome["environment"] = _serve_environment()
    if trace_out is not None:
        with open(trace_out, encoding="utf-8") as handle:
            outcome["trace"] = json.load(handle)
        outcome["environment"] = outcome["trace"].pop("environment")
    outcome["latencies"] = outcome["job_s"]
    return outcome


def _serve_environment() -> dict:
    """The service's stamp: this interpreter and source, obs on (the
    service's default, which the benchmark keeps)."""
    stamp = environment()
    stamp["obs"] = "on"
    return stamp


def fixed_work(root, scratch, workload, seed, trace: bool) -> dict:
    """A fixed-work run of ``workload`` (traced, or its untraced twin
    whose rate the tracing overhead is taken against)."""
    if workload == "serve_killchain":
        kind = "traced" if trace else "plain"
        return _measure_serve(
            root, scratch, seed, 0.0, 1,
            trace_out=os.path.join(scratch, "serve-trace.json")
            if trace else None,
            jobs_per_client=TRACED_JOBS_PER_CLIENT, kind=kind)
    setup, outcome = _child(root, scratch, workload, seed, 0.0,
                            passes=TRACED_PASSES[workload], trace=trace)
    outcome["setups"] = [setup]
    return _tally(workload, outcome)


# -- reporting ----------------------------------------------------------------


def end_to_end(workload: str, outcome: dict) -> dict:
    """The end-to-end metrics of an untraced run, by name."""
    latencies = outcome["latencies"]
    return {
        "work_per_s": outcome["work"] / outcome["wall"],
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "setup_s": statistics.median(outcome["setups"]),
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def issue_view(workload: str, outcome: dict, e2e: dict) -> list[str]:
    """The per-workload names the metrics are known by, with sample
    counts for every percentile."""
    unit, latency_unit = WORK_UNITS[workload]
    rate_name = {"flood_grid": "cells_per_s", "serve_killchain":
                 "jobs_per_s", "atlas_scan": "entities_per_s"}[workload]
    lines = [f"  {rate_name} = {e2e['work_per_s']:.4f} {unit}/s"
             f"  ({outcome['work']} {unit} in {outcome['wall']:.2f}s)"]
    prefix = {"flood_grid": "pass", "serve_killchain": "job",
              "atlas_scan": "survey"}[workload]
    summary = latency_summary(outcome["latencies"])
    lines.append(f"  {prefix} latency ({latency_unit}): " + ", ".join(
        f"{key.replace('p', f'{prefix}_p', 1)} = {value:.2f} ms"
        for key, value in summary.items() if key != "n")
        + f"  (n={summary['n']})")
    if workload == "serve_killchain":
        reads = latency_summary(outcome["read_s"])
        lines.append("  GET /aggregate: " + ", ".join(
            f"read_{key} = {value:.2f} ms" for key, value in reads.items()
            if key != "n") + f"  (n={reads['n']})")
    lines.append(f"  setup_s = {e2e['setup_s']:.4f} s  (median of "
                 f"{len(outcome['setups'])} launches: "
                 + ", ".join(f"{s:.3f}" for s in outcome["setups"]) + ")")
    lines.append(f"  peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB")
    return lines


def stamp_line(environment: dict) -> str:
    return "environment: " + " ".join(
        f"{key}={value}" for key, value in environment.items())


def check_exact_counts(root, workload, seed, layers) -> list[str]:
    """Exact counts must repeat across traced runs of the same code."""
    ledger_path = os.path.join(root, ".perfbench", "exact-counts.json")
    key = f"{workload}|{seed}|{metrics.code_hash(root)}"
    counts = {name: layers[name] for name in EXACT_COUNTS}
    try:
        with open(ledger_path, encoding="utf-8") as handle:
            ledger = json.load(handle)
    except FileNotFoundError:
        ledger = {}
    previous = ledger.get(key)
    if previous is not None and previous != counts:
        changed = {name: (previous.get(name), value)
                   for name, value in counts.items()
                   if previous.get(name) != value}
        return [f"exact counts differ from an earlier traced run: "
                f"{changed}"]
    ledger[key] = counts
    with open(ledger_path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    return []


def trace_report(root, workload, seed, untraced, outcome) -> tuple:
    """Per-layer metrics, the printed report and the JSONL spans."""
    trace = outcome["trace"]
    layers = dict(trace["layers"])
    # The service's own job timestamps, as its clients received them.
    layers["serve.queue_wait_s"] = outcome.get("queue_wait_s", 0.0)
    layers["serve.job_run_s"] = outcome.get("job_run_s", 0.0)
    rate_untraced = untraced["work"] / untraced["wall"]
    rate_traced = outcome["work"] / outcome["wall"]
    layers["trace.overhead_pct"] = \
        (rate_untraced / rate_traced - 1.0) * 100.0
    lines = [f"traced run: {outcome['work']} units in "
             f"{outcome['wall']:.2f}s; untraced "
             f"{rate_untraced:.4f}/s vs traced {rate_traced:.4f}/s ->"
             f" tracing overhead {layers['trace.overhead_pct']:.1f}%",
             "self time per layer (thread-seconds; the traced run's"
             f" wall is {trace['wall_s']:.2f}s):"]
    for layer, seconds in trace["table"]:
        effect = LAYER_EFFECTS.get(layer)
        note = (f"  should move {effect[0]} on {effect[1]}, unchanged on"
                f" {effect[2]}") if effect else ""
        lines.append(f"  {layer:<13} {seconds:9.3f}s{note}")
    worker = trace["worker"]
    if worker.get("busy_s"):
        lines.append(f"  pool workers (own processes, not in the rows"
                     f" above): busy {worker['busy_s']:.3f}s, kernel"
                     f" {worker['kernel_s']:.3f}s over"
                     f" {worker['workers']} workers")
    if outcome["environment"].get("pool_start_method") != "fork" \
            and workload == "atlas_scan":
        lines.append("  note: pool workers are not forked, so parallel."
                     "kernel_* read 0 (workers run unwrapped)")
    lines.append("exact counts: " + ", ".join(
        f"{name}={layers[name]}" for name in EXACT_COUNTS))
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    path = os.path.join(root, ".perfbench",
                        f"trace-{workload}-{seed}.jsonl")
    header = {"workload": workload, "seed": seed,
              "environment": outcome["environment"],
              "wall_s": trace["wall_s"], "layers": layers,
              "self_time": trace["table"]}
    write_jsonl(path, header, trace["spans"])
    lines.append(f"spans: {len(trace['spans'])} written to {path}")
    return layers, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see BENCHMARK.json).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no program source at ./src/repro; run from the"
              " repository root", file=sys.stderr)
        return 2
    # The service's correctness check runs the reference campaign here.
    sys.path.insert(0, os.path.join(root, "src"))
    scratch = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return _run(root, scratch, args)
    except BenchError as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(root, scratch, args) -> int:
    workload = args.workload
    print(f"workload {workload}, seed {args.seed}, {args.seconds:g}s"
          f" per window, trace={args.trace}", flush=True)
    if args.trace:
        untraced = fixed_work(root, scratch, workload, args.seed, False)
    else:
        untraced = measure(root, scratch, workload, args.seed,
                           args.seconds, SETUP_LAUNCHES)
    problems = list(untraced["problems"])
    attempted = untraced["attempted"] + 1
    failed = untraced["failed"] + bool(untraced["problems"])
    e2e = end_to_end(workload, untraced)
    print(stamp_line(untraced["environment"]))
    print("end to end (untraced"
          + (", the traced run's fixed work):" if args.trace else "):"))
    for line in issue_view(workload, untraced, e2e):
        print(line)
    if args.trace:
        outcome = fixed_work(root, scratch, workload, args.seed, True)
        problems += outcome["problems"]
        attempted += outcome["attempted"] + 1
        failed += outcome["failed"] + bool(outcome["problems"])
        layers, lines = trace_report(root, workload, args.seed, untraced,
                                     outcome)
        exact = check_exact_counts(root, workload, args.seed, layers)
        problems += exact
        attempted += 1
        failed += bool(exact)
        for line in lines:
            print(line)
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, unit, _better, _layer in PER_LAYER}
    else:
        reported = {name: {"value": e2e[name], "unit": unit}
                    for name, unit, _better in END_TO_END}
    print(f"checks: {'ok' if not problems else '; '.join(problems)}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
