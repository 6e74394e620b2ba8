"""Metric catalogue and the small statistics the benchmark reports.

The catalogue is the single source of the names, units and directions
printed by ``run.py``; ``BENCHMARK.json`` repeats them for the driver
and a test keeps the two in step.

End-to-end metrics apply to every workload, each measuring that
workload's own unit of work (``WORK_UNITS``), so every workload prints
every one of them.  The issue-level names (``cells_per_s``,
``job_p90_ms``, ``read_p50_ms``, ...) are printed per workload in the
human-readable report next to the generic metric they feed.
"""

from __future__ import annotations

import hashlib
import json
import os

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("work_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: What one unit of work is on each workload: the unit ``work_per_s``
#: counts and the unit whose client-observed latency ``latency_p50_ms``
#: takes the median of.
WORK_UNITS = {
    "flood_grid": ("cells", "grid pass (one run_pairs call)"),
    "serve_killchain": ("jobs", "job (POST sent -> terminal GET)"),
    "atlas_scan": ("entities", "survey pass (open + alexa scans)"),
}

#: (name, unit, better, layer) of every per-layer metric of a traced
#: run.  Times (``_s``) are totals over the traced run's fixed work.
PER_LAYER = (
    ("core.events", "count", "lower", "core"),
    ("core.self_s", "s", "lower", "core"),
    ("netsim.packets_sent", "count", "lower", "netsim"),
    ("netsim.packets_delivered", "count", "lower", "netsim"),
    ("netsim.icmp_errors", "count", "lower", "netsim"),
    ("netsim.closed_port_drops", "count", "lower", "netsim"),
    ("netsim.self_s", "s", "lower", "netsim"),
    ("netsim.us_per_packet", "us", "lower", "netsim"),
    ("dns.encodes", "count", "lower", "dns"),
    ("dns.decodes", "count", "lower", "dns"),
    ("dns.rejected_responses", "count", "lower", "dns"),
    ("dns.cache_hit_ratio", "ratio", "higher", "dns"),
    ("dns.self_s", "s", "lower", "dns"),
    ("attacks.saddns.mute_s", "s", "lower", "attacks"),
    ("attacks.saddns.probe_s", "s", "lower", "attacks"),
    ("attacks.saddns.isolate_s", "s", "lower", "attacks"),
    ("attacks.saddns.flood_s", "s", "lower", "attacks"),
    ("attacks.fragdns_s", "s", "lower", "attacks"),
    ("attacks.hijackdns_s", "s", "lower", "attacks"),
    ("attacks.packets_per_cell", "count", "lower", "attacks"),
    ("attacks.success_ratio", "ratio", "higher", "attacks"),
    ("attacks.self_s", "s", "lower", "attacks"),
    ("defenses.apply_s", "s", "lower", "defenses"),
    ("defenses.applies", "count", "lower", "defenses"),
    ("scenario.world_s", "s", "lower", "scenario"),
    ("scenario.build_s", "s", "lower", "scenario"),
    ("scenario.execute_s", "s", "lower", "scenario"),
    ("scenario.cells", "count", "higher", "scenario"),
    ("scenario.campaign_self_s", "s", "lower", "scenario"),
    ("faults.cell_self_s", "s", "lower", "faults"),
    ("faults.retries", "count", "lower", "faults"),
    ("faults.failed_cells", "count", "lower", "faults"),
    ("apps.stage_s", "s", "lower", "apps"),
    ("apps.stages", "count", "higher", "apps"),
    ("apps.impact_ratio", "ratio", "higher", "apps"),
    ("store.write_s", "s", "lower", "store"),
    ("store.rows_written", "count", "lower", "store"),
    ("store.load_s", "s", "lower", "store"),
    ("store.rows_loaded", "count", "higher", "store"),
    ("store.read_s", "s", "lower", "store"),
    ("store.busy_retries", "count", "lower", "store"),
    ("serve.request_s", "s", "lower", "serve"),
    ("serve.requests", "count", "lower", "serve"),
    ("serve.request_s.post_jobs", "s", "lower", "serve"),
    ("serve.requests.post_jobs.202", "count", "lower", "serve"),
    ("serve.request_s.get_job", "s", "lower", "serve"),
    ("serve.requests.get_job.200", "count", "lower", "serve"),
    ("serve.request_s.get_aggregate", "s", "lower", "serve"),
    ("serve.requests.get_aggregate.200", "count", "lower", "serve"),
    ("serve.requests.non_2xx", "count", "lower", "serve"),
    ("serve.queue_wait_s", "s", "lower", "serve"),
    ("serve.job_run_s", "s", "lower", "serve"),
    ("atlas.merge_s", "s", "lower", "atlas"),
    ("atlas.store_append_s", "s", "lower", "atlas"),
    ("atlas.shards", "count", "higher", "atlas"),
    ("atlas.entities", "count", "higher", "atlas"),
    ("atlas.self_s", "s", "lower", "atlas"),
    ("parallel.kernel_s", "s", "lower", "parallel"),
    ("parallel.kernel_us_per_entity", "us", "lower", "parallel"),
    ("parallel.wait_s", "s", "lower", "parallel"),
    ("parallel.efficiency", "ratio", "higher", "parallel"),
    ("trace.unattributed_s", "s", "lower", "trace"),
    ("trace.overhead_pct", "%", "lower", "trace"),
)

#: Counts that are properties of the code, not of the machine: a traced
#: run of the same code and seed must reproduce them exactly.
EXACT_COUNTS = (
    "core.events", "netsim.packets_sent", "netsim.packets_delivered",
    "dns.encodes", "dns.decodes", "store.rows_written",
    "store.rows_loaded", "atlas.shards", "atlas.entities",
)

#: Layer -> (end-to-end metric it should move, workload it moves on,
#: workload on which it is predicted unchanged), from the issue that
#: defined the benchmark.
LAYER_EFFECTS = {
    "core": ("cells_per_s", "flood_grid", "atlas_scan"),
    "netsim": ("cells_per_s", "flood_grid", "serve_killchain"),
    "dns": ("cells_per_s", "flood_grid", "atlas_scan"),
    "attacks": ("cells_per_s", "flood_grid", "atlas_scan"),
    "defenses": ("cells_per_s (small)", "flood_grid", "atlas_scan"),
    "scenario": ("job_p50_ms", "serve_killchain", "atlas_scan"),
    "faults": ("job_p50_ms", "serve_killchain", "atlas_scan"),
    "apps": ("job_p50_ms", "serve_killchain", "flood_grid"),
    "store": ("job_p50_ms, read_p50_ms", "serve_killchain", "flood_grid"),
    "serve": ("job_p90_ms, read_p90_ms", "serve_killchain", "flood_grid"),
    "atlas": ("entities_per_s", "atlas_scan", "flood_grid"),
    "parallel": ("entities_per_s", "atlas_scan", "serve_killchain"),
}

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentiles(count: int, levels=(99, 90, 50)) -> list[int]:
    """The percentile levels (in percent) with at least
    ``MIN_TAIL_SAMPLES`` samples beyond them among ``count`` samples,
    highest first.

    p90 needs 100 samples, p99 1000; the median is reported from any
    non-empty sample, since it is the centre and not a tail.
    """
    return [level for level in levels
            if count and (level == 50 or count * (100 - level)
                          >= MIN_TAIL_SAMPLES * 100)]


def latency_summary(samples_s: list[float]) -> dict:
    """Median and the highest reportable tail of ``samples_s`` (ms)."""
    summary = {"n": len(samples_s)}
    for level in tail_percentiles(len(samples_s)):
        summary[f"p{level}_ms"] = \
            percentile(samples_s, level / 100.0) * 1000.0
    return summary


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (MB).

    ``ru_maxrss`` is in KiB on Linux; the children figure is the peak
    of the largest single child the process has waited for.
    """
    import resource

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, from ``/proc`` (MB)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(rows) -> str:
    """SHA-256 over the canonical JSON of ``rows`` (order-sensitive)."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def code_hash(root: str) -> str:
    """SHA-256 over the program and benchmark sources under ``root``."""
    sha = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(
                os.path.join(root, top))):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    sha.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        sha.update(handle.read())
    return sha.hexdigest()
