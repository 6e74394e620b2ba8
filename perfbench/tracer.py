"""Traced runs: wrap each layer's public entry points from outside.

``install(tracer)`` patches the program's classes and every module that
bound one of the wrapped functions by name, so ``src/`` stays
untouched; ``uninstall`` restores the originals.  Two kinds of wrapper:

* **coarse** entry points (cell, attack phase, app stage, store call,
  HTTP request, shard pool, scan) open a span with a parent link;
* **fine** per-packet and per-message entry points (``Network.transmit``,
  ``Host.receive``, ``encode_message``/``decode_message``,
  ``Scheduler.run*``) only add a count and their time, into the layer
  totals and into the tallies of the enclosing cell, never a span.

Every wrapped call is a frame on a per-thread stack.  A frame's self
time is its duration minus the time its child frames cover; it is
credited to the frame's layer, so the layers' self times partition the
time spent inside any wrapped call.  Process-pool workers inherit the
wrappers under ``fork`` and ship their busy and kernel time back on the
shard records they return.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: Attribute a forked pool worker attaches to each ShardRecord it
#: returns: (busy seconds, kernel seconds, entities).
WORKER_TALLY = "_perfbench_tally"


class _Frame:
    __slots__ = ("name", "layer", "group", "start", "child", "parent",
                 "span_id", "parent_span", "attrs")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.group = name
        self.child = 0.0
        self.parent = parent
        self.span_id = 0
        self.parent_span = 0
        self.attrs = None


class _ThreadState:
    __slots__ = ("stack", "spans", "self_s", "self_by_name", "inclusive",
                 "counts", "roots", "cell")

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[dict] = []
        self.self_s: Counter = Counter()        # layer -> seconds
        self.self_by_name: Counter = Counter()  # frame name -> seconds
        # Frame name -> seconds, counted only where no enclosing frame
        # shares the frame's group.
        self.inclusive: Counter = Counter()
        self.counts: Counter = Counter()
        self.roots: list[tuple[float, float]] = []
        self.cell: Counter | None = None


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


class Tracer:
    """Frames, spans and counts of one traced run (all threads)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        # Parent-side tallies shipped back by pool workers.
        self.worker = Counter()

    # -- frames ---------------------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def open(self, layer: str, name: str, attrs: dict | None = None,
             group: str | None = None) -> _Frame:
        """Push a span frame on this thread's stack."""
        stack = self.state().stack
        parent = stack[-1] if stack else None
        frame = _Frame(name, layer, parent)
        if group is not None:
            frame.group = group
        with self._lock:
            self._next_id += 1
            frame.span_id = self._next_id
        if parent is not None:
            frame.parent_span = parent.span_id or parent.parent_span
        frame.attrs = attrs
        stack.append(frame)
        frame.start = self.clock()
        return frame

    def close(self, frame: _Frame) -> None:
        """Pop ``frame``: credit self time, link it into its parent."""
        end = self.clock()
        state = self.state()
        state.stack.pop()
        duration = end - frame.start
        self_time = duration - frame.child
        state.self_s[frame.layer] += self_time
        state.self_by_name[frame.name] += self_time
        state.counts[frame.name] += 1
        parent = frame.parent
        if parent is not None:
            parent.child += duration
        else:
            state.roots.append((frame.start, end))
        ancestor = parent
        while ancestor is not None and ancestor.group != frame.group:
            ancestor = ancestor.parent
        if ancestor is None:
            state.inclusive[frame.name] += duration
        if frame.span_id:
            state.spans.append({
                "span_id": frame.span_id, "parent_id": frame.parent_span,
                "name": frame.name, "layer": frame.layer,
                "thread": threading.current_thread().name,
                "start": frame.start, "end": end,
                "self_s": self_time, "attrs": frame.attrs or {},
            })

    # -- wrapper factories ----------------------------------------------------

    def fine(self, layer: str, name: str, fn):
        """Count-and-time wrapper for a per-packet/per-message call."""
        clock = self.clock
        state_of = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, layer, parent)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_time = duration - frame.child
                state.self_s[layer] += self_time
                state.self_by_name[name] += self_time
                state.counts[name] += 1
                if parent is not None:
                    parent.child += duration
                else:
                    state.roots.append((start, start + duration))
                cell = state.cell
                if cell is not None:
                    cell[name] += 1
                    cell[layer + ".self_s"] += self_time
        return wrapper

    def coarse(self, layer: str, name: str, fn, attrs=None, after=None,
               group: str | None = None):
        """Span wrapper; ``attrs(*args)`` labels the span and
        ``after(frame, args, result)`` runs before it closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(layer, name,
                              attrs(*args) if attrs is not None else None,
                              group)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(frame, args, result)
                return result
            finally:
                self.close(frame)
        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, make, rebind: bool = True) -> None:
        """Replace ``owner.attr`` with ``make(original)``; for module
        functions (unless ``rebind`` is false), every ``repro`` module
        that imported it by name is rebound too."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type) or not rebind:
            return
        for name, module in list(sys.modules.items()):
            if (module is not None and module is not owner
                    and name.startswith("repro")
                    and module.__dict__.get(attr) is raw):
                self._patches.append((module, attr, raw))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def merged(self) -> dict:
        """All threads' accumulators, summed."""
        total = {"self_s": Counter(), "self_by_name": Counter(),
                 "inclusive": Counter(), "counts": Counter()}
        roots: list[tuple[float, float]] = []
        spans: list[dict] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for key in total:
                total[key].update(getattr(state, key))
            roots.extend(state.roots)
            spans.extend(state.spans)
        total["roots"] = roots
        total["spans"] = sorted(spans, key=lambda span: span["span_id"])
        return total


# -- the program's entry points -----------------------------------------------


def _cell_attrs(scenario, seed) -> dict:
    return {"method": scenario.canonical_method,
            "defense": scenario.defense_key, "seed": str(seed)}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer named in the benchmark's per-layer table."""
    import repro.apps.driver as apps_driver
    import repro.atlas.aggregate as atlas_aggregate
    import repro.atlas.pipeline as atlas_pipeline
    import repro.atlas.store as atlas_store
    import repro.attacks.fragdns as fragdns
    import repro.attacks.hijackdns as hijackdns
    import repro.attacks.saddns as saddns
    import repro.core.clock as clock
    import repro.defenses.base as defenses_base
    import repro.dns.wire as wire
    import repro.faults.policy as policy
    import repro.netsim.host as host
    import repro.netsim.network as network
    import repro.parallel.scheduler as scheduler
    import repro.scenario.campaign as campaign
    import repro.scenario.spec as spec
    import repro.serve.api as serve_api
    import repro.serve.jobs as serve_jobs
    import repro.store.aggregate as store_aggregate
    import repro.store.db as store_db

    t = tracer
    state_of = t.state

    # core / netsim / dns: per-event, per-packet, per-message.
    for method in ("run_until", "run_until_idle", "run_next"):
        t.patch(clock.Scheduler, method,
                lambda fn: t.fine("core", "core.run", fn))
    t.patch(network.Network, "transmit",
            lambda fn: t.fine("netsim", "netsim.transmit", fn))
    t.patch(host.Host, "receive",
            lambda fn: t.fine("netsim", "netsim.receive", fn))
    t.patch(wire, "encode_message",
            lambda fn: t.fine("dns", "dns.encode", fn))
    t.patch(wire, "decode_message",
            lambda fn: t.fine("dns", "dns.decode", fn))

    # attacks: SadDNS phases share one group, so a probe inside an
    # isolation round counts toward isolate_s only.
    for phase in ("mute_nameserver", "probe_ports", "isolate_port",
                  "flood_txids"):
        t.patch(saddns.SadDnsAttack, phase,
                lambda fn, phase=phase: t.coarse(
                    "attacks", f"attacks.saddns.{phase}", fn,
                    group="attacks.saddns.phase"))
    for module, cls, name in (
            (saddns, "SadDnsAttack", "attacks.saddns"),
            (fragdns, "FragDnsAttack", "attacks.fragdns"),
            (hijackdns, "HijackDnsAttack", "attacks.hijackdns")):
        t.patch(getattr(module, cls), "execute",
                lambda fn, name=name: t.coarse("attacks", name, fn))

    t.patch(defenses_base.DefenseStack, "apply",
            lambda fn: t.coarse("defenses", "defenses.apply", fn))

    # scenario: world, build, execute (with the program's own counters
    # read around it) and the campaign loop.
    t.patch(spec.AttackScenario, "make_world",
            lambda fn: t.coarse("scenario", "scenario.make_world", fn))

    def after_build(_frame, _args, _result):
        cell = state_of().cell
        if cell is not None:
            cell["scenario.builds"] += 1

    t.patch(spec.AttackScenario, "build",
            lambda fn: t.coarse("scenario", "scenario.build", fn,
                                after=after_build))

    def traced_execute(fn):
        def execute(built):
            net = built.network
            resolver = built.world.get("resolver")
            before = _program_counters(net, resolver)
            frame = t.open("scenario", "scenario.execute")
            try:
                run = fn(built)
            finally:
                t.close(frame)
            delta = {key: value - before[key] for key, value in
                     _program_counters(net, resolver).items()}
            state = state_of()
            state.counts.update(delta)
            if state.cell is not None:
                state.cell.update(delta)
            return run
        return functools.wraps(fn)(execute)

    t.patch(spec.BuiltScenario, "execute", traced_execute)

    def traced_run_pairs(fn):
        def run_pairs(self, pairs, *args, **kwargs):
            pairs = list(pairs)
            state = state_of()
            cells_before = state.counts["faults.execute_cell"]
            frame = t.open("scenario", "scenario.run_pairs",
                           {"pairs": len(pairs)})
            try:
                return fn(self, pairs, *args, **kwargs)
            finally:
                t.close(frame)
                executed = state.counts["faults.execute_cell"] \
                    - cells_before
                state.counts["store.rows_loaded"] += len(pairs) - executed
        return functools.wraps(fn)(run_pairs)

    t.patch(campaign.Campaign, "run_pairs", traced_run_pairs)

    # faults: the per-cell entry every executor funnels through; the
    # cell span carries the per-packet tallies of everything under it.
    def traced_execute_cell(fn):
        def execute_cell(scenario, seed, run_policy):
            state = state_of()
            outer = state.cell
            state.cell = Counter()
            frame = t.open("faults", "faults.execute_cell",
                           _cell_attrs(scenario, seed), group="cell")
            try:
                run = fn(scenario, seed, run_policy)
                tallies = state.cell
                frame.attrs.update(
                    success=run.success, packets_sent=run.packets_sent,
                    iterations=run.iterations, error=run.error,
                    tallies=dict(tallies))
                state.counts["faults.retries"] += max(
                    0, tallies["scenario.builds"] - 1)
                state.counts["faults.failed_cells"] += bool(run.error)
                state.counts["attacks.packets"] += run.packets_sent
                state.counts["attacks.successes"] += bool(run.success)
                return run
            finally:
                t.close(frame)
                state.cell = outer
        return functools.wraps(fn)(execute_cell)

    t.patch(policy, "execute_cell", traced_execute_cell)

    # apps
    def after_stage(_frame, _args, result):
        state_of().counts["apps.realized"] += bool(result.realized)

    t.patch(apps_driver.AppDriver, "run_stage",
            lambda fn: t.coarse("apps", "apps.run_stage", fn,
                                after=after_stage))

    # store
    def after_record(_frame, _args, written):
        state_of().counts["store.rows_written"] += bool(written)

    t.patch(store_db.RunStore, "record",
            lambda fn: t.coarse("store", "store.record", fn,
                                after=after_record))
    t.patch(store_db.RunStore, "load_cells",
            lambda fn: t.coarse("store", "store.load_cells", fn))
    t.patch(store_db.RunStore, "_note_busy_retry",
            lambda fn: t.fine("store", "store.busy_retry", fn))
    t.patch(store_aggregate, "totals_from_store",
            lambda fn: t.coarse("store", "store.totals_from_store", fn))

    # serve: one span per HTTP request and per job.
    def traced_handler(fn):
        def handle(handler):
            frame = t.open("serve", "serve.request",
                           {"path": handler.path})
            try:
                return fn(handler)
            finally:
                route = _route_key(handler.command,
                                   handler._route_label())
                status = getattr(handler, "_status", 0)
                frame.attrs.update(route=route, status=status)
                t.close(frame)
                state = state_of()
                state.inclusive[f"serve.request_s.{route}"] += \
                    t.clock() - frame.start
                state.counts[f"serve.requests.{route}.{status}"] += 1
                if not 200 <= status < 300:
                    state.counts["serve.requests.non_2xx"] += 1
        return functools.wraps(fn)(handle)

    for verb in ("do_GET", "do_POST"):
        t.patch(serve_api.ServeHandler, verb, traced_handler)

    def traced_stage(fn):
        @contextmanager
        def stage(name, **labels):
            frame = t.open("serve", name, dict(labels))
            try:
                with fn(name, **labels) as timer:
                    yield timer
            finally:
                t.close(frame)
        return functools.wraps(fn)(stage)

    t.patch(serve_jobs, "stage", traced_stage, rebind=False)

    # atlas
    t.patch(atlas_pipeline, "scan_dataset",
            lambda fn: t.coarse(
                "atlas", "atlas.scan", fn,
                attrs=lambda spec_, *rest: {"dataset": spec_.key}))

    def after_append(_frame, args, _result):
        record = args[1]
        counts = state_of().counts
        counts["atlas.shards"] += 1
        counts["atlas.entities"] += record.hi - record.lo

    t.patch(atlas_store.AtlasStore, "append",
            lambda fn: t.coarse("atlas", "atlas.store_append", fn,
                                after=after_append))
    for method in ("merged", "merge"):
        t.patch(atlas_aggregate.ScanAggregate, method,
                lambda fn: t.coarse("atlas", "atlas.merge", fn))

    # parallel: the pool dispatch (parent), the parent's blocking wait,
    # and the forked workers' shard and kernel time.
    def after_pool(frame, args, results):
        frame.attrs = {"workers": args[0]._max_workers,
                       "tasks": len(args[2])}
        for result in results:
            tally = getattr(result, "__dict__", {}).pop(WORKER_TALLY,
                                                        None)
            if tally is not None:
                busy, kernel, entities = tally
                t.worker["busy_s"] += busy
                t.worker["kernel_s"] += kernel
                t.worker["entities"] += entities
        t.worker["workers"] = max(t.worker["workers"],
                                  args[0]._max_workers)

    t.patch(scheduler, "run_stealing",
            lambda fn: t.coarse("parallel", "parallel.pool", fn,
                                after=after_pool))
    t.patch(scheduler, "wait",
            lambda fn: t.fine("parallel", "parallel.wait", fn))

    kernel_s = [0.0]

    def traced_scan_range(fn):
        def scan_range(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                kernel_s[0] += time.perf_counter() - started
        return functools.wraps(fn)(scan_range)

    def traced_scan_shard(fn):
        def scan_shard(task):
            kernel_s[0] = 0.0
            started = time.perf_counter()
            record = fn(task)
            setattr(record, WORKER_TALLY,
                    (time.perf_counter() - started, kernel_s[0],
                     record.hi - record.lo))
            return record
        return functools.wraps(fn)(scan_shard)

    t.patch(atlas_pipeline, "scan_range", traced_scan_range)
    t.patch(atlas_pipeline, "_scan_shard", traced_scan_shard)
    return tracer


def _program_counters(net, resolver) -> dict:
    """The counters the program already keeps, read around a run."""
    counters = {
        "core.events": net.scheduler.executed,
        "netsim.packets_sent": net.stats.transmitted,
        "netsim.packets_delivered": net.stats.delivered,
    }
    if resolver is not None:
        counters.update({
            "netsim.icmp_errors": resolver.host.stats.icmp_errors_sent,
            "netsim.closed_port_drops":
                resolver.host.stats.udp_to_closed_port,
            "dns.rejected_responses": resolver.stats.rejected_responses,
            "dns.cache_hits": resolver.cache.stats.hits,
            "dns.cache_misses": resolver.cache.stats.misses,
        })
    return counters


def _route_key(verb: str, route: str) -> str:
    return {("POST", "/jobs"): "post_jobs",
            ("GET", "/jobs/{id}"): "get_job",
            ("GET", "/aggregate"): "get_aggregate",
            ("GET", "/health"): "get_health"}.get(
        (verb, route), f"{verb.lower()}_{route.strip('/') or 'root'}")


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(totals: dict, worker: Counter, wall_s: float) -> dict:
    """Every per-layer metric (see ``metrics.PER_LAYER``) of one run.

    Layers a workload never enters read 0.
    """
    counts = totals["counts"]
    self_s = totals["self_s"]
    by_name = totals["self_by_name"]
    inclusive = totals["inclusive"]
    cells = counts["faults.execute_cell"]
    packets = counts["netsim.packets_sent"]
    lookups = counts["dns.cache_hits"] + counts["dns.cache_misses"]
    stages = counts["apps.run_stage"]
    entities = worker["entities"]
    pool_s = inclusive["parallel.pool"]
    workers = worker["workers"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    out = {
        "core.events": counts["core.events"],
        "core.self_s": self_s["core"],
        "netsim.packets_sent": packets,
        "netsim.packets_delivered": counts["netsim.packets_delivered"],
        "netsim.icmp_errors": counts["netsim.icmp_errors"],
        "netsim.closed_port_drops": counts["netsim.closed_port_drops"],
        "netsim.self_s": self_s["netsim"],
        "netsim.us_per_packet": ratio(self_s["netsim"] * 1e6, packets),
        "dns.encodes": counts["dns.encode"],
        "dns.decodes": counts["dns.decode"],
        "dns.rejected_responses": counts["dns.rejected_responses"],
        "dns.cache_hit_ratio": ratio(counts["dns.cache_hits"], lookups),
        "dns.self_s": self_s["dns"],
        "attacks.saddns.mute_s":
            inclusive["attacks.saddns.mute_nameserver"],
        "attacks.saddns.probe_s": inclusive["attacks.saddns.probe_ports"],
        "attacks.saddns.isolate_s":
            inclusive["attacks.saddns.isolate_port"],
        "attacks.saddns.flood_s": inclusive["attacks.saddns.flood_txids"],
        "attacks.fragdns_s": inclusive["attacks.fragdns"],
        "attacks.hijackdns_s": inclusive["attacks.hijackdns"],
        "attacks.packets_per_cell": ratio(counts["attacks.packets"],
                                          cells),
        "attacks.success_ratio": ratio(counts["attacks.successes"], cells),
        "attacks.self_s": self_s["attacks"],
        "defenses.apply_s": inclusive["defenses.apply"],
        "defenses.applies": counts["defenses.apply"],
        "scenario.world_s": inclusive["scenario.make_world"],
        "scenario.build_s": inclusive["scenario.build"],
        "scenario.execute_s": inclusive["scenario.execute"],
        "scenario.cells": cells,
        "scenario.campaign_self_s": by_name["scenario.run_pairs"],
        "faults.cell_self_s": by_name["faults.execute_cell"],
        "faults.retries": counts["faults.retries"],
        "faults.failed_cells": counts["faults.failed_cells"],
        "apps.stage_s": inclusive["apps.run_stage"],
        "apps.stages": stages,
        "apps.impact_ratio": ratio(counts["apps.realized"], stages),
        "store.write_s": inclusive["store.record"],
        "store.rows_written": counts["store.rows_written"],
        "store.load_s": inclusive["store.load_cells"],
        "store.rows_loaded": counts["store.rows_loaded"],
        "store.read_s": inclusive["store.totals_from_store"],
        "store.busy_retries": counts["store.busy_retry"],
        "serve.request_s": inclusive["serve.request"],
        "serve.requests": counts["serve.request"],
        "serve.request_s.post_jobs": inclusive["serve.request_s.post_jobs"],
        "serve.requests.post_jobs.202":
            counts["serve.requests.post_jobs.202"],
        "serve.request_s.get_job": inclusive["serve.request_s.get_job"],
        "serve.requests.get_job.200": counts["serve.requests.get_job.200"],
        "serve.request_s.get_aggregate":
            inclusive["serve.request_s.get_aggregate"],
        "serve.requests.get_aggregate.200":
            counts["serve.requests.get_aggregate.200"],
        "serve.requests.non_2xx": counts["serve.requests.non_2xx"],
        "atlas.merge_s": inclusive["atlas.merge"],
        "atlas.store_append_s": inclusive["atlas.store_append"],
        "atlas.shards": counts["atlas.shards"],
        "atlas.entities": counts["atlas.entities"],
        "atlas.self_s": self_s["atlas"],
        "parallel.kernel_s": worker["kernel_s"],
        "parallel.kernel_us_per_entity": ratio(worker["kernel_s"] * 1e6,
                                               entities),
        "parallel.wait_s": by_name["parallel.wait"],
        "parallel.efficiency": ratio(worker["busy_s"], workers * pool_s),
        "trace.unattributed_s": max(
            0.0, wall_s - union_length(totals["roots"])),
    }
    return out


def self_time_table(totals: dict, wall_s: float) -> list[tuple[str, float]]:
    """(layer, self seconds) rows, largest first, then unattributed."""
    rows = sorted(totals["self_s"].items(), key=lambda item: -item[1])
    rows.append(("unattributed",
                 max(0.0, wall_s - union_length(totals["roots"]))))
    return rows


def write_jsonl(path: str, header: dict, spans: list[dict]) -> None:
    """The run's header line, then one span per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True, default=str)
                         + "\n")
