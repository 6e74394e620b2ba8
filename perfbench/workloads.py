"""The three workloads: inputs made from the seed, the measured loops,
and the correctness checks that run before any number is reported.

* ``flood_grid`` — passes over a slice of the Section 6 defended grid on
  ``Campaign(executor="serial").run_pairs``.
* ``serve_killchain`` — two closed-loop HTTP clients against
  ``python -m repro.serve --workers 2``.
* ``atlas_scan`` — passes of ``scan_dataset`` over ``open`` and
  ``alexa`` with the CLI defaults (process executor, 2 workers,
  ``kernel="auto"``, 16 shards), each scan on a fresh ``AtlasStore``.

Only the generated inputs (cell seeds, job payloads, the population
seed) reach the program; the workload seed itself never does.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field, replace

from metrics import digest

# -- flood_grid ---------------------------------------------------------------

#: Stacks of the grid slice.  SadDNS covers both per-packet paths:
#: floods delivered to an open socket and decoded (``dnssec``,
#: ``0x20-encoding``) and probes refused cheaply (``no-icmp-errors``,
#: ``randomized-icmp-limit``), plus the undefended cell.  FragDNS adds
#: the short successful cells and one defended cell (``dnssec``, the
#: whole attempt budget).  SadDNS against ``rpki-rov`` and
#: ``randomize-records`` is left out: with the narrowed resolver below
#: it runs the very packets of the undefended cell, a whole 2^16 flood
#: each, and would double the pass for no new path.  FragDNS against
#: ``randomize-records`` is left out because the program lets it
#: succeed on some seeds (the attacker guesses the record order), so
#: it fails the Section 6 check; it sends as many packets as FragDNS
#: against ``dnssec``.
SADDNS_STACKS = ("none", "dnssec", "0x20-encoding", "no-icmp-errors",
                 "randomized-icmp-limit")
FRAGDNS_STACKS = ("none", "dnssec", "0x20-encoding", "no-icmp-errors",
                  "randomized-icmp-limit", "rpki-rov")

#: SadDNS iteration budget per stack.  Defended cells always run the
#: whole budget (the defenses are categorical), so the budget sets their
#: cost; undefended cells stop at their first success.  The budgets keep
#: a pass near 4.5 s on a 2-vCPU host, so a run's window holds several.
SADDNS_BUDGET = {"dnssec": 1, "0x20-encoding": 1, "no-icmp-errors": 100,
                 "randomized-icmp-limit": 100}
SADDNS_DEFAULT_BUDGET = 400

#: The SadDNS resolver's ephemeral port range.  At 50 ports the first
#: probe batch always covers the open query port, so every iteration
#: isolates it and floods all 2^16 TXIDs: a defended cell's flood count
#: equals its budget instead of following the seed (with the stock
#: 4096-port range it varies 3x between seeds).
SADDNS_PORTS = (20000, 20049)

#: TXIDs flooded between success checks.  One chunk of all 2^16 makes a
#: successful cell's flood as long as a defended one's instead of
#: stopping at the (uniformly random) chunk holding the resolver's TXID.
SADDNS_FLOOD_CHUNK = 0x10000


def grid_scenarios() -> list[tuple[str, object, object]]:
    """(attack, stack, scenario) for every cell of one grid pass."""
    from repro.attacks.saddns import SadDnsConfig
    from repro.defenses.ablation import defended_scenario
    from repro.defenses.base import DefenseStack
    from repro.netsim.host import HostConfig

    cells = []
    for attack, keys in (("SadDNS", SADDNS_STACKS),
                         ("FragDNS", FRAGDNS_STACKS)):
        for key in keys:
            stack = DefenseStack.parse(key)
            scenario = defended_scenario(attack, stack)
            if attack == "SadDNS":
                scenario = replace(
                    scenario,
                    attack_config=SadDnsConfig(
                        max_iterations=SADDNS_BUDGET.get(
                            key, SADDNS_DEFAULT_BUDGET),
                        txid_flood_chunk=SADDNS_FLOOD_CHUNK),
                    resolver_host_config=HostConfig(
                        ephemeral_low=SADDNS_PORTS[0],
                        ephemeral_high=SADDNS_PORTS[1]))
            cells.append((attack, stack, scenario))
    return cells


def grid_pairs(cells, seed: int, pass_index: int) -> list[tuple]:
    return [(scenario, f"{seed}-{pass_index}-{attack}-{stack.key}")
            for attack, stack, scenario in cells]


def _cell_row(run) -> list:
    return [run.label, run.seed, run.success, run.packets_sent,
            run.iterations, run.error]


def flood_grid(seed: int, seconds: float, passes: int | None,
               ready) -> dict:
    """Grid passes until ``seconds`` have elapsed (or ``passes`` ran).

    Whole passes only, so every run measures the same cell mix.
    """
    from repro.scenario.campaign import Campaign

    cells = grid_scenarios()
    campaign = Campaign(executor="serial")
    ready()
    latencies: list[float] = []
    rows: list[list] = []
    section6 = 0
    started = time.perf_counter()
    while (len(latencies) < passes if passes is not None
           else time.perf_counter() - started < seconds):
        pairs = grid_pairs(cells, seed, len(latencies))
        pass_started = time.perf_counter()
        result = campaign.run_pairs(pairs)
        latencies.append(time.perf_counter() - pass_started)
        for (attack, stack, _scenario), run in zip(cells, result.runs):
            rows.append(_cell_row(run))
            section6 += run.success != (attack in stack.defeats)
    return {"latencies": latencies, "work": len(rows), "rows": rows,
            "section6_agree": section6}


def check_flood_grid(seed: int, outcome: dict) -> list[str]:
    """Section 6 agreement on every cell, and pass 0 re-run on the
    2-worker process executor matching the serial loop cell by cell."""
    from repro.scenario.campaign import Campaign

    problems = []
    if outcome["section6_agree"] != outcome["work"]:
        problems.append(f"Section 6 agreement {outcome['section6_agree']}"
                        f" of {outcome['work']} cells")
    if any(row[5] for row in outcome["rows"]):
        problems.append("cells recorded an error")
    cells = grid_scenarios()
    result = Campaign(workers=2, executor="process").run_pairs(
        grid_pairs(cells, seed, 0))
    reference = [_cell_row(run) for run in result.runs]
    measured = outcome["rows"][:len(cells)]
    if digest(reference) != digest(measured):
        problems.append("pass 0 checksum differs from the process"
                        " executor's")
    outcome["checksum"] = digest(outcome["rows"])
    return problems


# -- atlas_scan ---------------------------------------------------------------

ATLAS_DATASETS = ("open", "alexa")
ATLAS_ENTITIES = 300_000
ATLAS_SHARDS = 16
ATLAS_WORKERS = 2


def atlas_scan(seed: int, seconds: float, passes: int | None, ready,
               scratch: str) -> dict:
    """Survey passes (every dataset once, each on a fresh store)."""
    import os

    from repro.atlas.pipeline import scan_dataset
    from repro.atlas.shards import find_dataset
    from repro.atlas.store import AtlasStore

    specs = [find_dataset(key) for key in ATLAS_DATASETS]
    ready()
    latencies: list[float] = []
    digests: dict[str, set[str]] = {key: set() for key in ATLAS_DATASETS}
    entities = 0
    failed_shards = 0
    started = time.perf_counter()
    while (len(latencies) < passes if passes is not None
           else time.perf_counter() - started < seconds):
        stores = [os.path.join(scratch, f"atlas-{len(latencies)}-{key}")
                  for key in ATLAS_DATASETS]
        pass_started = time.perf_counter()
        for spec, path in zip(specs, stores):
            report = scan_dataset(
                spec, seed=seed, entities=ATLAS_ENTITIES,
                shards=ATLAS_SHARDS, workers=ATLAS_WORKERS,
                executor="process", store=AtlasStore(path), kernel="auto")
            entities += report.computed_entities
            failed_shards += report.shard_count - len(
                report.computed_shards)
            digests[spec.key].add(digest(report.aggregate.to_json()))
        latencies.append(time.perf_counter() - pass_started)
        for path in stores:
            shutil.rmtree(path, ignore_errors=True)
    return {"latencies": latencies, "work": entities,
            "failed": failed_shards, "digests": digests}


def check_atlas_scan(seed: int, outcome: dict) -> list[str]:
    """Every pass's aggregate equals a serial-executor scan's."""
    from repro.atlas.pipeline import scan_dataset
    from repro.atlas.shards import find_dataset

    problems = []
    checksums = {}
    for key in ATLAS_DATASETS:
        reference = scan_dataset(
            find_dataset(key), seed=seed, entities=ATLAS_ENTITIES,
            shards=ATLAS_SHARDS, executor="serial", kernel="auto")
        checksums[key] = digest(reference.aggregate.to_json())
        if outcome["digests"][key] != {checksums[key]}:
            problems.append(f"{key}: aggregate differs from the serial "
                            "scan")
    outcome["checksum"] = digest(checksums)
    return problems


# -- serve_killchain ----------------------------------------------------------

#: Applications whose drivers run both HijackDNS and FragDNS.
SERVE_APPS = ("ntp", "xmpp", "radius", "smtp")
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Share of jobs that resubmit one of the same client's earlier jobs,
#: whose cells the service then loads from the store.
REPEAT_SHARE = 0.25
POLL_S = 0.005
JOBS_PER_CLIENT = 2000


def job_sequence(seed: int, client: int,
                 count: int = JOBS_PER_CLIENT) -> list[dict]:
    """One client's job payloads.  Repeats only resubmit this client's
    own earlier jobs (which it waited for), so which cells are loaded
    rather than computed does not depend on the other client's timing.
    """
    rng = random.Random(f"serve-{seed}-{client}")
    jobs: list[dict] = []
    fresh: list[dict] = []
    for index in range(count):
        if fresh and rng.random() < REPEAT_SHARE:
            jobs.append(rng.choice(fresh))
            continue
        payload = {"methods": ["hijack", "frag"],
                   "apps": [rng.choice(SERVE_APPS)],
                   "seeds": [f"{seed}.{client}.{index}.{n}"
                             for n in range(2)]}
        fresh.append(payload)
        jobs.append(payload)
    return jobs


@dataclass
class ClientLog:
    jobs: list[dict] = field(default_factory=list)     # payloads done
    job_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    queue_wait_s: float = 0.0
    job_run_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _request(port: int, method: str, path: str, payload=None):
    """One request on its own connection, as the service's other clients
    (its tests, ``python -m repro.obs --url``, ``curl``) make them."""
    body = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def serve_client(port: int, jobs: list[dict], deadline: float | None,
                 limit: int | None, log: ClientLog) -> None:
    """Closed loop: submit, poll to a terminal state, read aggregates."""
    try:
        for payload in jobs:
            if limit is not None and log.attempted >= limit:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            log.attempted += 1
            sent = time.perf_counter()
            status, job = _request(port, "POST", "/jobs", payload)
            if status != 202:
                log.failed += 1
                log.problems.append(f"POST /jobs -> {status}")
                continue
            path = f"/jobs/{job['id']}"
            while True:
                status, job = _request(port, "GET", path)
                if status != 200 or job["state"] in ("done", "failed"):
                    break
                time.sleep(POLL_S)
            done = time.perf_counter()
            if status != 200 or job["state"] != "done" \
                    or job["summary"].get("failures"):
                log.failed += 1
                log.problems.append(f"{path}: {status} {job.get('state')}"
                                    f" {job.get('error', '')}")
                continue
            log.job_s.append(done - sent)
            log.queue_wait_s += job["started"] - job["submitted"]
            log.job_run_s += job["finished"] - job["started"]
            read_sent = time.perf_counter()
            status, _groups = _request(port, "GET", "/aggregate?by=method")
            if status != 200:
                log.failed += 1
                log.problems.append(f"GET /aggregate -> {status}")
                continue
            log.read_s.append(time.perf_counter() - read_sent)
            log.jobs.append(payload)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        log.failed += 1
        log.problems.append(f"client error: {exc!r}")


def serve_killchain(port: int, seed: int, seconds: float,
                    jobs_per_client: int | None) -> dict:
    """Run the clients; fixed job counts when ``jobs_per_client`` is
    set, else until ``seconds`` have elapsed."""
    logs = [ClientLog() for _ in range(SERVE_CLIENTS)]
    started = time.perf_counter()
    deadline = None if jobs_per_client is not None else started + seconds
    threads = [threading.Thread(
        target=serve_client,
        args=(port, job_sequence(seed, client), deadline,
              jobs_per_client, logs[client]))
        for client in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {
        "wall": wall,
        "work": sum(len(log.job_s) for log in logs),
        "job_s": [s for log in logs for s in log.job_s],
        "read_s": [s for log in logs for s in log.read_s],
        "queue_wait_s": sum(log.queue_wait_s for log in logs),
        "job_run_s": sum(log.job_run_s for log in logs),
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "problems": [p for log in logs for p in log.problems],
        "payloads": [p for log in logs for p in log.jobs],
    }


def _record_row(record) -> list:
    return [record.spec_hash, record.seed, record.defense, record.method,
            record.label, record.app, record.success, record.packets_sent,
            record.queries_triggered, record.duration,
            record.impact_realized, record.status, record.error]


def check_serve(store_path: str, outcome: dict) -> list[str]:
    """The final store equals an in-process serial Campaign over the
    same distinct jobs."""
    from repro.faults.policy import DEFAULT_POLICY
    from repro.scenario.campaign import Campaign
    from repro.serve.jobs import JobSpec
    from repro.store.db import RunStore
    from repro.store.schema import RunRecord, scenario_spec_hash

    problems = list(outcome["problems"][:5])
    store = RunStore(store_path)
    try:
        stored = sorted(_record_row(record)
                        for record in store.iter_records())
    finally:
        store.close()
    reference = {}
    distinct = {json.dumps(p, sort_keys=True): p
                for p in outcome["payloads"]}
    campaign = Campaign(executor="serial", policy=DEFAULT_POLICY)
    for payload in distinct.values():
        spec = JobSpec.from_json(payload)
        scenarios = spec.scenarios()
        result = campaign.run(scenarios, seeds=spec.seeds)
        hashes = {id(s): scenario_spec_hash(s) for s in scenarios}
        labels = {s.display_label: id(s) for s in scenarios}
        for run in result.runs:
            record = RunRecord.from_run(
                run, spec_hash=hashes[labels[run.label]])
            reference[record.key] = _record_row(record)
    if digest(stored) != digest(sorted(reference.values())):
        problems.append(f"store checksum differs from the serial campaign"
                        f" ({len(stored)} stored vs {len(reference)}"
                        " reference cells)")
    outcome["checksum"] = digest(stored)
    return problems
