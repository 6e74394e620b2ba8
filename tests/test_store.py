"""Tests for the append-only run store and campaign resume.

The load-bearing properties:

* the canonical spec hash is stable (same scenario -> same hash across
  fresh objects) and sensitive (any statistical knob changes it);
* a :class:`ScenarioRun` round-trips through the stats JSON exactly,
  so store-reconstructed aggregates match live ones bit-for-bit;
* a store-backed sweep killed mid-grid resumes recomputing only the
  missing cells, and the final aggregates are bit-identical to an
  uninterrupted run — across all three executors.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.core.errors import ScenarioError
from repro.defenses import DefenseStack
from repro.scenario import AttackScenario, Campaign, TriggerSpec
from repro.scenario.presets import killchain_scenarios
from repro.store import (
    RunRecord,
    RunStore,
    RunTotals,
    StoreError,
    campaign_from_store,
    merge_totals,
    run_from_json,
    run_key,
    run_to_json,
    scenario_spec_hash,
    seed_key,
    summaries_from_store,
    totals_from_store,
    workload_spec_hash,
)
from repro.store.aggregate import GROUP_AXES
from repro.store.cli import main as store_main
from repro.store.db import _cells_query
from repro.workload import WorkloadSpec


def flatten(result):
    return [(run.label, run.seed, run.success, run.packets_sent,
             run.queries_triggered, run.duration)
            for run in result.runs]


class TestSpecHash:
    def test_stable_across_fresh_objects(self):
        first = AttackScenario(method="hijack")
        second = AttackScenario(method="hijack")
        assert first is not second
        assert scenario_spec_hash(first) == scenario_spec_hash(second)

    def test_sensitive_to_every_statistical_knob(self):
        base = AttackScenario(method="hijack")
        variants = [
            AttackScenario(method="frag"),
            AttackScenario(method="hijack", qname="other.example."),
            AttackScenario(method="hijack",
                           defenses=DefenseStack.parse("dnssec")),
            AttackScenario(method="hijack",
                           workload=WorkloadSpec(qps=5.0)),
            AttackScenario(method="hijack", label="renamed"),
        ]
        hashes = {scenario_spec_hash(s) for s in [base] + variants}
        assert len(hashes) == len(variants) + 1

    def test_callable_trigger_rejected(self):
        scenario = AttackScenario(
            method="hijack",
            trigger=TriggerSpec(kind="callable", fn=lambda world: None))
        with pytest.raises(ScenarioError, match="callable"):
            scenario_spec_hash(scenario)

    def test_seed_key_distinguishes_int_and_str(self):
        assert seed_key(0) != seed_key("0")
        assert seed_key("a/b") == json.dumps("a/b")

    def test_run_key_projects_defense(self):
        scenario = AttackScenario(
            method="hijack", defenses=DefenseStack.parse("dnssec"))
        spec_hash, seed, defense = run_key(scenario, 3)
        assert defense == "dnssec"
        assert seed == "3"
        assert spec_hash == scenario_spec_hash(scenario)

    def test_workload_hash_empty_when_idle(self):
        assert workload_spec_hash(None) == ""
        assert workload_spec_hash(WorkloadSpec(qps=2.0)) != ""


class TestRunRoundTrip:
    def test_attack_only_run_exact(self):
        run = AttackScenario(method="hijack").run(seed=7)
        rebuilt = run_from_json(json.loads(json.dumps(run_to_json(run))))
        assert rebuilt.label == run.label
        assert rebuilt.seed == run.seed
        assert rebuilt.success == run.success
        assert rebuilt.packets_sent == run.packets_sent
        assert rebuilt.queries_triggered == run.queries_triggered
        assert rebuilt.duration == run.duration
        assert rebuilt.wall_time == run.wall_time
        assert rebuilt.defense == run.defense

    def test_killchain_run_preserves_app_and_load(self):
        scenario = replace(
            killchain_scenarios(methods=["hijack"])[0],
            workload=WorkloadSpec(clients=2, qps=3.0, duration=4.0,
                                  warmup=1.0),
        )
        run = scenario.run(seed=1)
        assert run.app_result is not None
        assert run.load_report is not None
        rebuilt = run_from_json(run_to_json(run))
        assert rebuilt.app_result.app == run.app_result.app
        assert rebuilt.app_result.realized == run.app_result.realized
        assert [o.action for o in rebuilt.app_result.outcomes] == \
            [o.action for o in run.app_result.outcomes]
        assert rebuilt.load_report.checksum() == \
            run.load_report.checksum()

    def test_record_projection_matches_run(self):
        run = AttackScenario(method="hijack").run(seed=0)
        record = RunRecord.from_run(run, spec_hash="abc")
        assert record.key == ("abc", "0", "none")
        assert record.success == run.success
        again = record.to_run()
        assert again.duration == run.duration


class TestRunStore:
    def _record(self, seed=0, spec_hash="abc"):
        run = AttackScenario(method="hijack").run(seed=seed)
        return RunRecord.from_run(run, spec_hash=spec_hash)

    def test_insert_is_first_wins(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        record = self._record()
        assert store.record(record) is True
        mutated = replace_stats(record)
        assert store.record(mutated) is False
        assert store.get(record.key).stats == record.stats

    def test_contains_and_load_cells(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        record = self._record()
        store.record(record)
        assert record.key in store
        assert ("abc", "99", "none") not in store
        cells = store.load_cells([record.key, ("abc", "99", "none")])
        assert set(cells) == {record.key}

    def test_load_cells_returns_exactly_the_requested_keys(
            self, tmp_path, monkeypatch):
        # Other seeds of the same scenario hash stay unread; a chunk of
        # two keys per statement exercises the chunk boundaries.
        monkeypatch.setattr("repro.store.db.LOAD_CHUNK", 2)
        store = RunStore(tmp_path / "runs.db")
        store.record_many(synthetic_records(random.Random(3), 40))
        stored = [record.key for record in store.iter_records()]
        wanted = stored[1:30:4] + [("abc", "99", "none")]
        cells = store.load_cells(wanted + wanted[:2])
        assert set(cells) == set(stored[1:30:4])
        assert all(cells[key].key == key for key in cells)
        assert cells[stored[5]].stats == store.get(stored[5]).stats
        assert store.load_cells([]) == {}

    def test_load_cells_searches_the_primary_key_index(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        store.record_many(synthetic_records(random.Random(4), 20))
        keys = [record.key for record in store.iter_records(limit=3)]
        plan = store._connect().execute(
            "EXPLAIN QUERY PLAN " + _cells_query(len(keys)),
            [part for key in keys for part in key]).fetchall()
        details = [row["detail"] for row in plan]
        assert any(detail.startswith("SEARCH runs USING INDEX")
                   for detail in details), details
        assert not any(detail.startswith("SCAN runs")
                       for detail in details), details

    def test_filters_and_count(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        for seed in range(3):
            store.record(self._record(seed=seed))
        assert store.count() == 3
        assert store.count(method="HijackDNS") == 3
        assert store.count(method="SadDNS") == 0
        assert len(list(store.iter_records(limit=2))) == 2
        assert list(store.iter_records(limit=0)) == []
        with pytest.raises(ValueError, match="limit"):
            store.iter_records(limit=-1)
        with pytest.raises(StoreError, match="unknown filter"):
            store.count(bogus="x")
        assert store.distinct("method") == ["HijackDNS"]

    def test_export_jsonl(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        store.record(self._record())
        out = tmp_path / "dump.jsonl"
        assert store.export_jsonl(out) == 1
        payload = json.loads(out.read_text().splitlines()[0])
        assert payload["spec_hash"] == "abc"
        assert "stats" in payload

    def test_format_guard(self, tmp_path):
        store = RunStore(tmp_path / "runs.db")
        with store._connect() as connection:
            connection.execute(
                "UPDATE meta SET value = '999' "
                "WHERE key = 'store_format'")
        store.close()
        with pytest.raises(StoreError, match="format-999"):
            RunStore(tmp_path / "runs.db")

    def test_open_coerces_paths(self, tmp_path):
        store = RunStore.open(str(tmp_path / "runs.db"))
        assert isinstance(store, RunStore)
        assert RunStore.open(store) is store
        assert RunStore.open(None) is None


def synthetic_records(rng, count):
    """Varied records without running scenarios: several seeds per
    spec hash, failed rows, rows with and without an app or a load
    report, and floats whose sum depends on the addition order."""
    records = []
    for index in range(count):
        app = rng.choice([None, "ntp", "smtp"])
        failed = rng.random() < 0.2
        records.append(RunRecord(
            spec_hash=rng.choice(["abc", "def", "ghi"]),
            seed=str(index),
            defense=rng.choice(["none", "dnssec"]),
            method=rng.choice(["HijackDNS", "FragDNS"]),
            label=rng.choice(["alpha", "beta"]),
            workload_hash=rng.choice(["", "w1"]),
            app=app,
            success=not failed and rng.random() < 0.6,
            packets_sent=rng.randrange(1, 5000),
            queries_triggered=rng.randrange(0, 40),
            duration=rng.random() * 100.0,
            impact_realized=None if app is None or failed
            else rng.random() < 0.5,
            load_checksum=rng.choice([None, "c0ffee"]),
            wall_time=rng.random() / 7.0,
            stats={"index": index},
            created=1.0 + index,
            status="failed" if failed else "ok",
            error="ChaosError: boom" if failed else "",
        ))
    rng.shuffle(records)
    return records


def replace_stats(record):
    from dataclasses import replace as dc_replace

    return dc_replace(record, stats={"tampered": True})


class CountingStore(RunStore):
    """Counts inserts so tests can see what actually executed."""

    def __init__(self, path):
        super().__init__(path)
        self.inserted = 0

    def record(self, record):
        fresh = super().record(record)
        if fresh:
            self.inserted += 1
        return fresh


class AbortingStore(CountingStore):
    """Dies after N successful inserts — the mid-grid kill simulator."""

    def __init__(self, path, abort_after):
        super().__init__(path)
        self.abort_after = abort_after

    def record(self, record):
        if self.inserted >= self.abort_after:
            raise RuntimeError("simulated mid-sweep crash")
        return super().record(record)


class TestCampaignStore:
    def test_resume_skips_stored_cells(self, tmp_path):
        db = tmp_path / "runs.db"
        scenario = AttackScenario(method="hijack")
        campaign = Campaign(executor="serial")
        cold = campaign.run(scenario, seeds=range(4), store=db)
        assert not any("store:" in note for note in cold.notes)

        counting = CountingStore(db)
        warm = campaign.run(scenario, seeds=range(4), store=counting)
        assert counting.inserted == 0
        assert any("4/4 cells loaded" in note for note in warm.notes)
        assert flatten(warm) == flatten(cold)

    def test_partial_resume_computes_only_missing(self, tmp_path):
        db = tmp_path / "runs.db"
        scenario = AttackScenario(method="hijack")
        campaign = Campaign(executor="serial")
        campaign.run(scenario, seeds=range(3), store=db)
        counting = CountingStore(db)
        extended = campaign.run(scenario, seeds=range(5), store=counting)
        assert counting.inserted == 2
        assert any("3/5 cells loaded" in note for note in extended.notes)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_killed_grid_resumes_bit_identical(self, tmp_path, executor):
        """The acceptance criterion: kill at ~50%, resume, diff == 0."""
        stacks = ["dnssec", "rpki-rov"]
        seeds = range(3)
        scenario = AttackScenario(method="hijack")
        reference = Campaign(executor="serial").run_defended(
            scenario, stacks, seeds=seeds)
        total = len(reference.runs)    # 3 stacks x 3 seeds = 9 cells

        db = tmp_path / f"{executor}.db"
        aborting = AbortingStore(db, abort_after=total // 2)
        with pytest.raises(RuntimeError, match="simulated"):
            Campaign(executor="serial").run_defended(
                scenario, stacks, seeds=seeds, store=aborting)
        survived = RunStore(db).count()
        assert survived == total // 2

        counting = CountingStore(db)
        resumed = Campaign(executor=executor, workers=2).run_defended(
            scenario, stacks, seeds=seeds, store=counting)
        assert counting.inserted == total - survived
        assert flatten(resumed) == flatten(reference)
        # The aggregates — not just the raw runs — must be identical.
        for key, summary in reference.by_label().items():
            again = resumed.by_label()[key]
            assert summary.successes == again.successes
            assert summary.packets == again.packets
            assert summary.durations == again.durations
        assert {k: v.success_rate
                for k, v in resumed.defense_matrix().items()} == \
            {k: v.success_rate
             for k, v in reference.defense_matrix().items()}

    def test_fully_cached_run_executes_nothing(self, tmp_path):
        db = tmp_path / "runs.db"
        scenario = AttackScenario(method="hijack")
        Campaign(executor="serial").run(scenario, seeds=range(2),
                                        store=db)

        class ExplodingStore(RunStore):
            def record(self, record):
                raise AssertionError("nothing should execute")

        result = Campaign(executor="process").run(
            scenario, seeds=range(2), store=ExplodingStore(db))
        assert len(result.runs) == 2

    def test_distinct_seeds_types_are_distinct_cells(self, tmp_path):
        db = tmp_path / "runs.db"
        scenario = AttackScenario(method="hijack")
        campaign = Campaign(executor="serial")
        campaign.run(scenario, seeds=[0], store=db)
        counting = CountingStore(db)
        campaign.run(scenario, seeds=["0"], store=counting)
        assert counting.inserted == 1


class TestCalibrateResume:
    def _aggregate(self):
        from repro.atlas.aggregate import ScanAggregate
        from repro.atlas.shards import find_dataset
        from repro.atlas.synth import iter_entities

        spec = find_dataset("open")
        aggregate = ScanAggregate(kind="resolver")
        for entity in iter_entities(spec, seed=0, lo=0, hi=300):
            aggregate.observe(entity)
        return aggregate

    def test_recalibration_runs_zero_fresh_cells(self, tmp_path):
        from repro.atlas.calibrate import calibrate_population

        aggregate = self._aggregate()
        db = tmp_path / "cal.db"
        first = calibrate_population(aggregate, "open", sample_budget=6,
                                     store=db)
        counting = CountingStore(db)
        second = calibrate_population(aggregate, "open", sample_budget=6,
                                      store=counting)
        assert counting.inserted == 0
        assert [(s.stratum, s.runs, s.successes, s.validated)
                for s in first.strata] == \
            [(s.stratum, s.runs, s.successes, s.validated)
             for s in second.strata]


class TestAggregates:
    def _seeded_store(self, tmp_path):
        db = tmp_path / "runs.db"
        Campaign(executor="serial").run_defended(
            AttackScenario(method="hijack"), ["dnssec"], seeds=range(3),
            store=db)
        return RunStore(db)

    def test_campaign_from_store_matches_live(self, tmp_path):
        db = tmp_path / "runs.db"
        live = Campaign(executor="serial").run_defended(
            AttackScenario(method="hijack"), ["dnssec"], seeds=range(3),
            store=db)
        rebuilt = campaign_from_store(RunStore(db))
        assert sorted(flatten(rebuilt)) == sorted(flatten(live))
        assert rebuilt.by_method()["HijackDNS"].successes == \
            live.by_method()["HijackDNS"].successes
        assert {k: v.success_rate
                for k, v in rebuilt.defense_matrix().items()} == \
            {k: v.success_rate
             for k, v in live.defense_matrix().items()}
        assert any("reconstructed" in note for note in rebuilt.notes)

    def test_summaries_and_totals(self, tmp_path):
        store = self._seeded_store(tmp_path)
        summaries = summaries_from_store(store, by="defense")
        assert set(summaries) == {"none", "dnssec"}
        totals = totals_from_store(store, by="defense")
        assert totals["none"].runs == 3
        assert totals["none"].success_rate == 1.0
        assert totals["dnssec"].success_rate == 0.0
        with pytest.raises(StoreError, match="unknown aggregation"):
            totals_from_store(store, by="bogus")

    @pytest.mark.parametrize("by", (None,) + GROUP_AXES)
    @pytest.mark.parametrize("filters", [
        {}, {"defense": "dnssec"}, {"status": "failed"},
        {"success": True, "app": "ntp"},
    ])
    def test_totals_equal_a_record_fold(self, tmp_path, by, filters):
        store = RunStore(tmp_path / "runs.db")
        store.record_many(synthetic_records(random.Random(11), 120))
        expected = {}
        for record in store.iter_records(**filters):
            key = "all" if by is None else str(getattr(record, by))
            totals = expected.setdefault(key, RunTotals(key=key))
            totals.runs += 1
            totals.successes += 1 if record.success else 0
            totals.packets += record.packets_sent
            totals.queries += record.queries_triggered
            totals.duration += record.duration
            totals.wall_time += record.wall_time
            if record.impact_realized is not None:
                totals.app_runs += 1
                totals.impacts_realized += \
                    1 if record.impact_realized else 0
            if record.load_checksum is not None:
                totals.loaded_runs += 1
        assert expected
        got = totals_from_store(store, by=by, **filters)
        assert list(got) == list(expected)
        assert {key: totals.to_json() for key, totals in got.items()} \
            == {key: totals.to_json() for key, totals in expected.items()}

    def test_totals_merge_associatively(self, tmp_path):
        store = self._seeded_store(tmp_path)
        whole = totals_from_store(store)["all"]
        parts = [totals_from_store(store, defense="none"),
                 totals_from_store(store, defense="dnssec")]
        merged = merge_totals(parts)["all"]
        assert merged.runs == whole.runs
        assert merged.successes == whole.successes
        assert merged.duration == whole.duration
        payload = merged.to_json()
        assert payload["success_rate"] == whole.success_rate


class TestStoreCli:
    def _db(self, tmp_path):
        db = tmp_path / "runs.db"
        Campaign(executor="serial").run_defended(
            AttackScenario(method="hijack"), ["dnssec"], seeds=range(2),
            store=db)
        return str(db)

    def test_inspect_and_query(self, tmp_path, capsys):
        db = self._db(tmp_path)
        assert store_main(["inspect", db]) == 0
        out = capsys.readouterr().out
        assert "records:  4" in out
        assert store_main(["query", db, "--defense", "dnssec"]) == 0
        out = capsys.readouterr().out
        assert "2 stored runs" in out

    def test_inspect_json(self, tmp_path, capsys):
        db = self._db(tmp_path)
        assert store_main(["inspect", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "store-inspect/1"
        assert payload["records"] == 4
        assert payload["failed"] == 0
        assert payload["axes"]["defense"] == ["dnssec", "none"]
        assert payload["totals"]["runs"] == 4
        # One scenario per defense stack: bare + dnssec.
        assert payload["spec_hashes"] == 2

    def test_query_rejects_a_negative_limit(self, tmp_path, capsys):
        db = self._db(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            store_main(["query", db, "--limit", "-1"])
        assert exit_info.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_agg_and_export(self, tmp_path, capsys):
        db = self._db(tmp_path)
        assert store_main(["agg", db, "--by", "defense"]) == 0
        out = capsys.readouterr().out
        assert "dnssec" in out and "none" in out
        dump = tmp_path / "out.jsonl"
        assert store_main(["export", db, str(dump)]) == 0
        assert len(dump.read_text().splitlines()) == 4

    def test_vacuum(self, tmp_path, capsys):
        db = self._db(tmp_path)
        assert store_main(["vacuum", db]) == 0
        assert "vacuumed" in capsys.readouterr().out
