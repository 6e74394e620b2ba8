"""Table 3: vulnerable resolvers per dataset.

Both paths run on the :mod:`repro.atlas` shard pipeline:

* :func:`run` — the sampled survey (``scale`` of each population; the
  reports' aggregates also carry the Figure 5 strata);
* :func:`run_full` — the population-scale scan at the paper's full
  dataset sizes (1.58M open resolvers), streaming in constant memory,
  optionally sharded across process workers and resumable via an
  :class:`repro.atlas.store.AtlasStore`.
"""

from __future__ import annotations

from repro.atlas.pipeline import AtlasScanReport, scan_dataset, scan_sample
from repro.experiments.base import ExperimentResult
from repro.measurements.population import RESOLVER_DATASETS
from repro.measurements.report import render_table

HEADERS = ["Dataset", "Protocol", "BGP hijack sub-prefix %",
           "SadDNS %", "Fragment %", "Dataset size"]


def _full_scan_note(reports: dict[str, AtlasScanReport], wall: float,
                    shards: int, noun: str) -> str:
    """Resume-aware provenance note: cached shards are not 'scanned'."""
    computed = sum(r.computed_entities for r in reports.values())
    cached = sum(r.entities - r.computed_entities for r in reports.values())
    note = (f"full-population scan via repro.atlas: {computed:,} {noun} "
            f"computed in {wall:.1f}s across {shards} shards per dataset")
    if cached:
        note += f" (+{cached:,} loaded from the shard store)"
    return note


def _row(spec, summary) -> list[str]:
    return [
        spec.label, spec.protocols,
        f"{summary.pct('hijack'):.0f}%",
        f"{summary.pct('saddns'):.0f}%",
        f"{summary.pct('frag'):.0f}%",
        f"{spec.full_size:,}",
    ]


def _result(reports: dict[str, AtlasScanReport],
            notes: list[str]) -> ExperimentResult:
    summaries = {key: report.summary for key, report in reports.items()}
    rows = [_row(spec, summaries[spec.key]) for spec in RESOLVER_DATASETS]
    result = ExperimentResult(
        experiment_id="table3",
        title="Table 3: vulnerable resolvers",
        headers=HEADERS,
        rows=rows,
        paper_reference={
            spec.key: (spec.expected_hijack, spec.expected_saddns,
                       spec.expected_frag)
            for spec in RESOLVER_DATASETS
        },
        data={"summaries": summaries, "reports": reports},
    )
    result.rendered = render_table(HEADERS, rows, title=result.title)
    result.notes.extend(notes)
    return result


def run(seed: int = 0, scale: float = 0.01) -> ExperimentResult:
    """Scan a ``scale`` sample of all nine resolver datasets."""
    reports = {spec.key: scan_sample(spec, seed, scale)
               for spec in RESOLVER_DATASETS}
    return _result(reports, [
        f"populations sampled at scale={scale} via the repro.atlas "
        "pipeline; dataset sizes shown are the paper's full populations"])


def run_full(seed: int = 0, entities: int | None = None, shards: int = 16,
             workers: int | None = None, executor: str = "process",
             store=None) -> ExperimentResult:
    """Scan every resolver dataset at the paper's full size.

    Streams all 2.1M resolvers through the sharded pipeline — the
    percentages in the rendered table are computed over the *entire*
    population, not extrapolated from a sample.
    """
    reports = {
        spec.key: scan_dataset(spec, seed=seed, entities=entities,
                               shards=shards, workers=workers,
                               executor=executor, store=store)
        for spec in RESOLVER_DATASETS
    }
    total_wall = sum(report.wall_clock for report in reports.values())
    return _result(reports, [_full_scan_note(reports, total_wall, shards,
                                             "entities")])
