"""Campaign runner: sweep scenarios across seeds on worker processes.

Each seed builds an independent deterministic testbed, so a campaign is
embarrassingly parallel: the scenario (pure data) is shipped to a
worker — through :class:`repro.parallel.scheduler.Dispatch`, the task
dispatcher the atlas scans share — which builds the world, runs the
attack, and returns the :class:`repro.scenario.spec.ScenarioRun`.
Results are bit-identical across the serial, thread and process
executors — the RNG streams depend only on the seed, never on
scheduling — which is what lets the Table 6 statistics scale out
without changing a single number.

The aggregated :class:`CampaignResult` carries success rates, packet
and duration percentiles, and per-method/per-label breakdowns: the raw
material of the paper's Table 6 rows.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.core.errors import ScenarioError
from repro.defenses.base import DefenseStack
from repro.faults.policy import RunPolicy, execute_cell
from repro.obs import OBS, ObsChunk
from repro.obs.profile import stage
from repro.parallel.scheduler import Dispatch, check_executor
from repro.scenario.spec import AttackScenario, ScenarioRun
from repro.workload.report import LoadReport


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


# -- shared-world workers ----------------------------------------------------
#
# The sweep's world template — the distinct scenario table — is the
# only expensive pickle in a campaign.  The process pool's initializer
# materialises it exactly once per worker process; every batch after
# that references its scenario by table index, and the per-seed RNG is
# rederived in place by the deterministic testbed the cell builds.
# (The old path re-pickled the scenario with every batch submitted.)

_WORKER_WORLD: tuple[list[AttackScenario], RunPolicy | None] = ([], None)


def _init_worker(payload: bytes) -> None:
    """Unpack the (scenario table, policy) world once per worker.

    With the obs plane on, the payload grows a third element — the
    coordinator's ``(trace_id, parent_id)`` — which the worker adopts
    so its cell spans join the sweep's trace.  Disabled sweeps ship
    the same two-tuple bytes they always did.
    """
    global _WORKER_WORLD
    world = pickle.loads(payload)
    if len(world) == 3:
        table, policy, obs_ctx = world
        OBS.adopt(obs_ctx)
        _WORKER_WORLD = (table, policy)
    else:
        _WORKER_WORLD = world


def _execute_batch(batch: tuple[int, tuple[Any, ...]],
                   table: Sequence[AttackScenario],
                   policy: RunPolicy | None = None) -> list[ScenarioRun]:
    """One (scenario-table index, seed batch) unit, cells in seed order.

    The serial loop runs this directly; the pool entry points below
    wrap it in a ``campaign.batch`` span when the obs plane is on.
    """
    index, seeds = batch
    return [execute_cell(table[index], seed, policy) for seed in seeds]


def _execute_shared(batch: tuple[int, tuple[Any, ...]]):
    """Process-pool entry point: a batch against the initializer's world.

    When the plane is on, the batch runs under a ``campaign.batch``
    span and comes back wrapped in an :class:`repro.obs.ObsChunk`
    carrying this worker's metric/span delta; the coordinator absorbs
    it in ``merge_chunk``.  Off, the raw run list travels unchanged.
    """
    scenarios, policy = _WORKER_WORLD
    if not OBS.enabled:
        return _execute_batch(batch, scenarios, policy)
    with OBS.span("campaign.batch", table_index=str(batch[0]),
                  cells=len(batch[1])):
        runs = _execute_batch(batch, scenarios, policy)
    return ObsChunk(runs=runs, payload=OBS.flush())


def _execute_indexed(batch: tuple[int, tuple[Any, ...]],
                     table: Sequence[AttackScenario],
                     policy: RunPolicy | None = None) -> list[ScenarioRun]:
    """Thread-pool twin of :func:`_execute_shared`: same batch shape,
    but the table is shared by reference (no process boundary), so
    spans/metrics land in the coordinator's registry directly."""
    if not OBS.enabled:
        return _execute_batch(batch, table, policy)
    with OBS.span("campaign.batch", table_index=str(batch[0]),
                  cells=len(batch[1])):
        return _execute_batch(batch, table, policy)


def _batch_tasks(tasks: list[tuple[AttackScenario, Any]],
                 workers: int) -> tuple[list[AttackScenario],
                                        list[tuple[int, tuple[Any, ...]]]]:
    """Group tasks into (table-index, seed-batch) units, order-preserving.

    Consecutive tasks sharing one scenario object form a group; each
    group is split into batches sized like the old per-task chunking
    (``len / (workers * 4)``) so the pool still load-balances.  One
    worker (the serial loop) gets one cell per batch, so every cell is
    stored the moment it finishes.  Returns the distinct scenario
    table plus the batches: a batch names its scenario by table index,
    so shipping the table once (via the worker initializer) is enough
    to execute every batch.  Flattening the batched results in order
    reproduces the serial run order exactly, which keeps every
    executor bit-identical.
    """
    batch_size = 1 if workers == 1 \
        else max(1, len(tasks) // (workers * 4))
    table: list[AttackScenario] = []
    batches: list[tuple[int, tuple[Any, ...]]] = []
    index = 0
    while index < len(tasks):
        scenario = tasks[index][0]
        group_end = index
        while group_end < len(tasks) and tasks[group_end][0] is scenario:
            group_end += 1
        table_index = len(table)
        table.append(scenario)
        for start in range(index, group_end, batch_size):
            seeds = tuple(seed for _scenario, seed in
                          tasks[start:min(start + batch_size, group_end)])
            batches.append((table_index, seeds))
        index = group_end
    return table, batches


@dataclass
class MethodSummary:
    """Aggregates for one methodology (or one scenario label / app).

    Beyond the attack-phase statistics, kill-chain runs contribute
    application-impact aggregates: how often the Table 1 impact was
    actually realized, split by impact class (the §4.5 story —
    fraudulent certificates, downgrades, account takeovers).
    """

    key: str
    runs: int = 0
    successes: int = 0
    failures: int = 0           # cells that could not execute at all
    packets: list[int] = field(default_factory=list)
    queries: list[int] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    # -- application impact ----------------------------------------------------
    app_runs: int = 0
    impact: str = ""            # the group's Table 1 impact cell
    impacts_realized: int = 0
    hijacks: int = 0
    downgrades: int = 0
    denials: int = 0
    fraud_certs: int = 0
    takeovers: int = 0
    # -- benign load -----------------------------------------------------------
    loads: list[LoadReport] = field(default_factory=list)

    def note(self, run: ScenarioRun) -> None:
        self.runs += 1
        self.successes += 1 if run.success else 0
        # Table 6's MethodStats also feeds bare AttackResults through
        # here; only real ScenarioRuns can carry a recorded failure.
        if getattr(run, "failed", False):
            self.failures += 1
        self.packets.append(run.packets_sent)
        self.queries.append(run.queries_triggered)
        self.durations.append(run.duration)
        report = getattr(run, "load_report", None)
        if report is not None:
            self.loads.append(report)
        # Table 6's MethodStats feeds bare AttackResults through here,
        # which carry no application stage.
        stage = getattr(run, "app_result", None)
        if stage is None:
            return
        self.app_runs += 1
        self.impact = stage.impact
        if not stage.realized:
            return
        self.impacts_realized += 1
        if stage.impact_class == "Hijack":
            self.hijacks += 1
        elif stage.impact_class == "Downgrade":
            self.downgrades += 1
        elif stage.impact_class == "DoS":
            self.denials += 1
        if stage.fraud_certificate:
            self.fraud_certs += 1
        if stage.takeover:
            self.takeovers += 1

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    @property
    def impact_rate(self) -> float:
        """Realized-impact fraction across this group's app stages."""
        return self.impacts_realized / self.app_runs if self.app_runs \
            else 0.0

    @property
    def fraud_cert_rate(self) -> float:
        return self.fraud_certs / self.app_runs if self.app_runs else 0.0

    @property
    def downgrade_rate(self) -> float:
        return self.downgrades / self.app_runs if self.app_runs else 0.0

    @property
    def takeover_rate(self) -> float:
        return self.takeovers / self.app_runs if self.app_runs else 0.0

    @property
    def load(self) -> LoadReport | None:
        """This group's merged benign-load report (None when unloaded)."""
        if not self.loads:
            return None
        return LoadReport.merge(self.loads, label=self.key)

    @property
    def hitrate(self) -> float:
        """Per-triggered-query success probability (Table 6's metric)."""
        total = sum(self.queries)
        return self.successes / total if total else 0.0

    @property
    def mean_packets(self) -> float:
        return sum(self.packets) / len(self.packets) if self.packets else 0.0

    @property
    def mean_queries(self) -> float:
        return sum(self.queries) / len(self.queries) if self.queries else 0.0

    def packets_percentile(self, q: float) -> float:
        return percentile(self.packets, q)

    def duration_percentile(self, q: float) -> float:
        return percentile(self.durations, q)


@dataclass
class CampaignResult:
    """Everything a campaign measured, with Table 6-style aggregates."""

    runs: list[ScenarioRun]
    wall_clock: float
    workers: int
    executor: str
    notes: list[str] = field(default_factory=list)
    #: Streaming :class:`repro.store.RunTotals` over the whole sweep:
    #: cached cells fold in at load time and executed chunks fold in as
    #: they complete on the pool, so the totals exist without any
    #: end-of-run pass over ``runs`` (None on reconstructed results).
    totals: Any = None

    @property
    def successes(self) -> int:
        return sum(1 for run in self.runs if run.success)

    @property
    def success_rate(self) -> float:
        return self.successes / len(self.runs) if self.runs else 0.0

    @property
    def failures(self) -> int:
        """Cells recorded as failed (RunPolicy degradation) rather
        than executed."""
        return sum(1 for run in self.runs if run.failed)

    def failed_runs(self) -> list[ScenarioRun]:
        """The recorded failures, in run order."""
        return [run for run in self.runs if run.failed]

    def _group(self, key_fn) -> dict[str, MethodSummary]:
        groups: dict[str, MethodSummary] = {}
        for run in self.runs:
            key = key_fn(run)
            groups.setdefault(key, MethodSummary(key=key)).note(run)
        return groups

    def by_method(self) -> dict[str, MethodSummary]:
        """Per-methodology breakdown across all scenarios and seeds."""
        return self._group(lambda run: run.method)

    def by_label(self) -> dict[str, MethodSummary]:
        """Per-scenario breakdown (distinguishes grid points)."""
        return self._group(lambda run: run.label)

    def by_app(self) -> dict[str, MethodSummary]:
        """Per-application impact breakdown (kill-chain runs only)."""
        groups: dict[str, MethodSummary] = {}
        for run in self.runs:
            if run.app_result is None:
                continue
            key = run.app_result.app
            groups.setdefault(key, MethodSummary(key=key)).note(run)
        return groups

    def by_defense(self) -> dict[str, MethodSummary]:
        """Per-defense-stack breakdown across all methods and seeds."""
        return self._group(lambda run: run.defense)

    def defense_matrix(self) -> dict[tuple[str, str], MethodSummary]:
        """The (defense stack, method) grid of residual statistics.

        Keys are ``(stack_key, method)``; each summary's
        ``success_rate`` is the *residual* success the stack leaves that
        methodology, and ``impact_rate`` the residual kill-chain impact
        (when the runs carried an application stage).  The ``"none"``
        row is the undefended baseline to read the residuals against.
        """
        groups: dict[tuple[str, str], MethodSummary] = {}
        for run in self.runs:
            key = (run.defense, run.method)
            groups.setdefault(
                key, MethodSummary(key=f"{run.method} vs {run.defense}")
            ).note(run)
        return groups

    @property
    def defended(self) -> bool:
        """Whether any run in the campaign deployed a defense stack."""
        return any(run.defense != "none" for run in self.runs)

    @property
    def loaded(self) -> bool:
        """Whether any run carried a benign-traffic workload."""
        return any(run.load_report is not None for run in self.runs)

    def load_report(self) -> LoadReport | None:
        """All runs' benign-load experience merged (None when unloaded)."""
        reports = [run.load_report for run in self.runs
                   if run.load_report is not None]
        if not reports:
            return None
        return LoadReport.merge(reports, label="campaign")

    @property
    def app_runs(self) -> int:
        """How many runs carried an application stage."""
        return sum(1 for run in self.runs if run.app_result is not None)

    @property
    def impacts_realized(self) -> int:
        return sum(1 for run in self.runs if run.impact_realized)

    @property
    def impact_rate(self) -> float:
        """Realized-impact fraction across all app stages in the sweep."""
        app_runs = self.app_runs
        return self.impacts_realized / app_runs if app_runs else 0.0

    def duration_percentiles(self) -> dict[str, float]:
        values = [run.duration for run in self.runs]
        return {"p50": percentile(values, 0.50),
                "p90": percentile(values, 0.90),
                "p99": percentile(values, 0.99)}

    def packet_percentiles(self) -> dict[str, float]:
        values = [run.packets_sent for run in self.runs]
        return {"p50": percentile(values, 0.50),
                "p90": percentile(values, 0.90),
                "p99": percentile(values, 0.99)}

    def describe(self) -> str:
        """Rendered per-label summary table plus the campaign footer."""
        # Imported here: the measurements package itself declares its
        # trials through this module, so a top-level import would cycle.
        from repro.measurements.report import render_table

        headers = ["Scenario", "Runs", "Success", "Hitrate",
                   "Packets p50/p99", "Duration p50/p99 (s)"]
        rows = []
        by_label = self.by_label()
        for key in sorted(by_label):
            summary = by_label[key]
            rows.append([
                key, summary.runs,
                f"{summary.success_rate * 100:.0f}%",
                f"{summary.hitrate * 100:.2f}%",
                f"{summary.packets_percentile(0.5):,.0f} / "
                f"{summary.packets_percentile(0.99):,.0f}",
                f"{summary.duration_percentile(0.5):.1f} / "
                f"{summary.duration_percentile(0.99):.1f}",
            ])
        table = render_table(headers, rows, title="Campaign summary")
        sections = [table]
        if self.defended:
            matrix = self.defense_matrix()
            defense_rows = []
            ordered = sorted(matrix,
                             key=lambda key: (key[0] != "none", key))
            for stack_key, method in ordered:
                summary = matrix[(stack_key, method)]
                row = [stack_key, method, summary.runs,
                       f"{summary.success_rate * 100:.0f}%"]
                row.append(f"{summary.impact_rate * 100:.0f}%"
                           if summary.app_runs else "-")
                defense_rows.append(row)
            sections.append(render_table(
                ["Defense stack", "Method", "Runs", "Residual success",
                 "Residual impact"],
                defense_rows, title="Defense residuals"))
        by_app = self.by_app()
        if by_app:
            impact_headers = ["Application", "Impact", "Stages",
                              "Realized", "Fraud certs", "Downgrades",
                              "Takeovers"]
            impact_rows = []
            for key in sorted(by_app):
                summary = by_app[key]
                impact_rows.append([
                    key, summary.impact, summary.app_runs,
                    f"{summary.impact_rate * 100:.0f}%",
                    summary.fraud_certs, summary.downgrades,
                    summary.takeovers,
                ])
            sections.append(render_table(impact_headers, impact_rows,
                                         title="Application impact"))
        if self.loaded:
            load_rows = []
            for key in sorted(by_label):
                merged = by_label[key].load
                if merged is None:
                    continue
                load_rows.append([key] + merged.summary_row())
            sections.append(render_table(
                ["Scenario"] + LoadReport.summary_headers(), load_rows,
                title="Benign load during the attack"))
        failed = self.failed_runs()
        if failed:
            sections.append(render_table(
                ["Scenario", "Seed", "Error"],
                [[run.label, run.seed, run.error] for run in failed],
                title="Failed cells (recorded, not executed)"))
        footer = (f"{len(self.runs)} runs in {self.wall_clock:.1f}s wall"
                  f" ({self.executor}, workers={self.workers})")
        if failed:
            footer += f"\n{len(failed)} cells failed and were recorded"
        if self.notes:
            footer += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        sections.append(footer)
        return "\n".join(sections)


class Campaign:
    """Run scenarios across seeds (and config grids) in parallel.

    ``executor`` names the backend: ``"process"`` (default; true
    parallelism, scenarios must pickle), ``"thread"`` (shared process;
    useful for callable triggers), or ``"serial"`` (the reference loop
    the parallel paths must match).  ``workers`` accepts a count,
    ``"auto"`` (every schedulable CPU) or ``None`` (the historical
    capped default).  Both go to :class:`repro.parallel.scheduler.
    Dispatch`, which resolves the count, downgrades a pool that could
    not help (one worker or one cell) to the serial loop and runs the
    batches; the result reports the executor and worker count it
    actually used.  The campaign keeps what is its own: store resume,
    the unpicklable-scenario fallback to threads, and the obs sweep
    span.  The process executor ships the sweep's distinct-scenario
    table to each worker exactly once (pool initializer) and steals
    work batch by batch, so a slow cell never idles the rest of the
    pool.

    ``policy`` (a :class:`repro.faults.RunPolicy`) makes the sweep
    degrade gracefully: each cell gets a scheduler watchdog, transient
    failures retry with backoff, and a raising cell becomes a recorded
    failed run instead of killing the grid.  Without one, exceptions
    propagate exactly as before.
    """

    def __init__(self, workers: int | str | None = None,
                 executor: str = "process",
                 policy: RunPolicy | None = None):
        try:
            check_executor(executor)
        except ValueError as error:
            raise ScenarioError(str(error)) from None
        self.workers = workers
        self.executor = executor
        self.policy = policy

    def run(self,
            scenarios: AttackScenario | Iterable[AttackScenario],
            seeds: Iterable[Any] = range(8),
            workers: int | str | None = None,
            executor: str | None = None,
            store: Any = None,
            policy: RunPolicy | None = None) -> CampaignResult:
        """Execute every (scenario, seed) cell and aggregate.

        ``seeds`` may hold ints or strings; each is passed verbatim to
        the scenario's deterministic testbed, so a campaign over
        ``range(32)`` is 32 statistically independent trials that any
        executor reproduces bit-identically.

        ``store`` (a :class:`repro.store.RunStore` or a path) makes the
        sweep durable and resumable: every executed cell is appended to
        the store, and cells whose ``(spec_hash, seed, defense)`` key
        is already stored are loaded instead of re-run — so a killed
        sweep re-invoked with the same store recomputes only what is
        missing and still aggregates bit-identically.
        """
        if isinstance(scenarios, AttackScenario):
            scenarios = [scenarios]
        scenarios = list(scenarios)
        if not scenarios:
            raise ScenarioError("no scenarios to run")
        seeds = list(seeds)
        if not seeds:
            raise ScenarioError("no seeds to run")
        return self.run_pairs(
            [(scenario, seed) for scenario in scenarios for seed in seeds],
            workers=workers, executor=executor, store=store, policy=policy,
        )

    def run_pairs(self,
                  pairs: Iterable[tuple[AttackScenario, Any]],
                  workers: int | str | None = None,
                  executor: str | None = None,
                  store: Any = None,
                  policy: RunPolicy | None = None) -> CampaignResult:
        """Execute explicit (scenario, seed) cells on one worker pool.

        The general form of :meth:`run` for ragged sweeps — e.g. four
        trial groups with different seed lists scheduled across one
        process pool instead of one pool per group.  ``store`` behaves
        as in :meth:`run`: stored cells are loaded, fresh cells are
        executed and appended as their results arrive (in the
        submitting process — the store never crosses a pool boundary).
        """
        tasks = list(pairs)
        if not tasks:
            raise ScenarioError("no scenario/seed pairs to run")
        # Imported here, like the store modules below: the store schema
        # imports the scenario spec, so a top-level import would cycle.
        from repro.store.aggregate import RunTotals

        if policy is None:
            policy = self.policy
        notes: list[str] = []
        cached: dict[int, ScenarioRun] = {}
        missing = tasks
        spec_hashes: dict[int, str] = {}
        workload_hashes: dict[int, str] = {}
        if store is not None:
            # Imported here: the store schema imports the scenario spec,
            # so a top-level import would cycle through the package.
            from repro.store.db import RunStore
            from repro.store.schema import (scenario_spec_hash, seed_key,
                                            workload_spec_hash)

            store = RunStore.open(store)
            keys = []
            for scenario, seed in tasks:
                marker = id(scenario)
                if marker not in spec_hashes:
                    spec_hashes[marker] = scenario_spec_hash(scenario)
                    workload_hashes[marker] = \
                        workload_spec_hash(scenario.workload)
                keys.append((spec_hashes[marker], seed_key(seed),
                             scenario.defense_key))
            stored = store.load_cells(keys)
            missing = []
            requeued_failures = 0
            for index, (task, key) in enumerate(zip(tasks, keys)):
                record = stored.get(key)
                if record is not None and not record.failed:
                    cached[index] = record.to_run()
                else:
                    # Failed records don't satisfy a cell: the resume
                    # re-executes them, and an ok result heals the
                    # stored failure in place (see RunStore.record).
                    if record is not None:
                        requeued_failures += 1
                    missing.append(task)
            if cached:
                notes.append(
                    f"store: {len(cached)}/{len(tasks)} cells loaded "
                    f"from {store.path}")
            if requeued_failures:
                notes.append(
                    f"store: {requeued_failures} failed cells re-queued")
        try:
            dispatch = Dispatch.plan(
                executor if executor is not None else self.executor,
                workers if workers is not None else self.workers,
                len(missing))
        except ValueError as error:
            raise ScenarioError(str(error)) from None
        if dispatch.note:
            notes.append(dispatch.note)
        if dispatch.executor == "process" and not _picklable(missing):
            notes.append(
                "scenario not picklable (callable trigger?);"
                " fell back to the thread executor")
            dispatch = replace(dispatch, executor="thread")
        totals = RunTotals(key="campaign")
        for run in cached.values():
            totals.note_run(run)
        sweep_span = None
        if OBS.enabled:
            sweep_span = OBS.spans.start(
                "campaign.sweep", cells=len(tasks), missing=len(missing),
                executor=dispatch.executor, workers=dispatch.workers)
            OBS.counter("campaign.sweeps_total").inc()
            if cached:
                OBS.counter("campaign.cached_cells_total").inc(
                    len(cached))
        # Batches name their scenario by table index.  The process pool
        # gets the table once per worker, inside the initializer
        # (pickled here once, so every worker receives identical bytes
        # instead of the world being re-serialised per batch); the
        # serial loop and the thread pool share it by reference.
        table, batches = _batch_tasks(missing, dispatch.workers)
        initializer, initargs = None, ()
        if dispatch.executor == "process":
            world: tuple = (table, policy)
            if OBS.enabled:
                world = (table, policy, OBS.worker_context())
            execute: Any = _execute_shared
            initializer, initargs = _init_worker, (pickle.dumps(world),)
        else:
            execute = functools.partial(
                _execute_indexed if dispatch.executor == "thread"
                else _execute_batch, table=table, policy=policy)

        def merge_chunk(index: int, chunk) -> None:
            # Fires as each batch finishes (completion order on a
            # pool): the batch is durable and folded into the streaming
            # totals before later batches land, so a killed sweep
            # resumes with only the missing/failed cells and the
            # aggregate never waits on an end-of-run barrier list.
            # Worker obs deltas are absorbed here, also exactly once.
            runs = OBS.absorb_chunk(chunk)
            _record_chunk(store, runs, table[batches[index][0]],
                          spec_hashes, workload_hashes)
            for run in runs:
                totals.note_run(run)

        prev_ambient = OBS.spans.ambient_parent
        try:
            if dispatch.executor == "thread" and sweep_span is not None:
                # Pool threads have empty span stacks; the ambient
                # parent nests their batch spans under this sweep.
                OBS.spans.ambient_parent = sweep_span.span_id
            with stage("campaign.sweep",
                       executor=dispatch.executor) as timer:
                ordered = dispatch.map(execute, batches,
                                       on_result=merge_chunk,
                                       initializer=initializer,
                                       initargs=initargs)
        finally:
            OBS.spans.ambient_parent = prev_ambient
            if sweep_span is not None:
                OBS.spans.finish(sweep_span)
        wall_clock = timer.elapsed
        # Reassemble in original task order: batching preserves the
        # missing-task order, so splicing fresh runs into the cached
        # gaps reproduces the uninterrupted sweep's run list exactly.
        fresh_iter = iter(run for chunk in ordered
                          for run in OBS.chunk_runs(chunk))
        runs = [cached[index] if index in cached else next(fresh_iter)
                for index in range(len(tasks))]
        return CampaignResult(runs=runs, wall_clock=wall_clock,
                              workers=dispatch.workers,
                              executor=dispatch.executor, notes=notes,
                              totals=totals)

    def run_grid(self, base: AttackScenario,
                 axes: dict[str, Iterable[Any]],
                 seeds: Iterable[Any] = range(8),
                 workers: int | str | None = None,
                 executor: str | None = None,
                 store: Any = None,
                 policy: RunPolicy | None = None) -> CampaignResult:
        """Sweep a config grid: every axis combination times every seed."""
        return self.run(base.variants(**axes), seeds=seeds,
                        workers=workers, executor=executor, store=store,
                        policy=policy)

    def run_defended(self,
                     scenarios: AttackScenario | Iterable[AttackScenario],
                     stacks: Iterable[Any],
                     seeds: Iterable[Any] = range(8),
                     include_undefended: bool = True,
                     workers: int | str | None = None,
                     executor: str | None = None,
                     store: Any = None,
                     policy: RunPolicy | None = None) -> CampaignResult:
        """Sweep a (scenario x defense-stack x seed) grid on one pool.

        ``stacks`` may hold :class:`repro.defenses.DefenseStack`
        objects, single defenses, or names (``"dnssec"``); each becomes
        one column of the grid.  ``include_undefended`` prepends the
        empty stack so every residual reads against its baseline.  The
        result's :meth:`CampaignResult.defense_matrix` then reports
        residual success and residual kill-chain impact per stack —
        bit-identically across the serial/thread/process executors,
        like every other campaign.
        """
        if isinstance(scenarios, AttackScenario):
            scenarios = [scenarios]
        scenarios = list(scenarios)
        if isinstance(stacks, (str, DefenseStack)):
            # A lone "dnssec" must not be iterated character by
            # character (mirrors run()'s single-scenario guard).
            stacks = [stacks]
        resolved = []
        for stack in stacks:
            if isinstance(stack, DefenseStack):
                resolved.append(stack)
            elif isinstance(stack, str):
                # parse() accepts the canonical composite spelling
                # ("dnssec+rpki-rov", "none"), so stack keys read off a
                # defense_matrix() or a ScenarioRun round-trip.
                resolved.append(DefenseStack.parse(stack))
            else:
                resolved.append(DefenseStack.of(stack))
        if not resolved:
            raise ScenarioError("no defense stacks to sweep")
        if include_undefended and not any(not stack for stack in resolved):
            resolved.insert(0, DefenseStack())
        cells = [
            replace(scenario,
                    defenses=stack if stack else None,
                    label=f"{scenario.display_label} vs {stack.key}")
            for scenario in scenarios
            for stack in resolved
        ]
        return self.run(cells, seeds=seeds, workers=workers,
                        executor=executor, store=store, policy=policy)


def _record_chunk(store: Any, runs: list[ScenarioRun],
                  scenario: AttackScenario,
                  spec_hashes: dict[int, str],
                  workload_hashes: dict[int, str]) -> None:
    """Persist one completed batch in a single transaction."""
    if store is None or not runs:
        return
    from repro.store.schema import RunRecord

    marker = id(scenario)
    store.record_many([
        RunRecord.from_run(run, spec_hash=spec_hashes[marker],
                           workload_hash=workload_hashes[marker])
        for run in runs])


def _picklable(tasks: list[tuple[AttackScenario, Any]]) -> bool:
    # Probe one representative task per distinct scenario object: the
    # pool pickles everything again anyway, so serialising the whole
    # sweep here would just double that work.
    probes: dict[int, tuple[AttackScenario, Any]] = {}
    for task in tasks:
        probes.setdefault(id(task[0]), task)
    try:
        pickle.dumps(list(probes.values()))
    except Exception:
        return False
    return True
