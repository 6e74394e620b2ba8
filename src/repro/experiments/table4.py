"""Table 4: vulnerable domains per dataset.

Runs on the :mod:`repro.atlas` shard pipeline; see
:mod:`repro.experiments.table3` for the sampled vs. full-population
split.
"""

from __future__ import annotations

from repro.atlas.pipeline import AtlasScanReport, scan_dataset, scan_sample
from repro.experiments.base import ExperimentResult
from repro.experiments.table3 import _full_scan_note
from repro.measurements.population import DOMAIN_DATASETS
from repro.measurements.report import render_table

HEADERS = ["Dataset", "Protocol", "BGP hijack sub-prefix %",
           "SadDNS %", "Fragment any %", "Fragment global %",
           "DNSSEC %", "Total"]

SEMANTICS_NOTE = (
    "'Fragment any/global' follow the paper's Table 4 semantics: "
    "attack feasible with any (unpredictable) IP-ID vs. with a "
    "predictable global counter"
)


def _row(spec, summary) -> list[str]:
    return [
        spec.label, spec.protocols,
        f"{summary.pct('hijack'):.0f}%",
        f"{summary.pct('saddns'):.0f}%",
        f"{summary.pct('frag_any'):.0f}%",
        f"{summary.pct('frag_global'):.0f}%",
        f"{summary.pct('dnssec'):.0f}%",
        f"{spec.full_size:,}",
    ]


def _result(reports: dict[str, AtlasScanReport],
            notes: list[str]) -> ExperimentResult:
    summaries = {key: report.summary for key, report in reports.items()}
    rows = [_row(spec, summaries[spec.key]) for spec in DOMAIN_DATASETS]
    result = ExperimentResult(
        experiment_id="table4",
        title="Table 4: vulnerable domains",
        headers=HEADERS,
        rows=rows,
        paper_reference={
            spec.key: (spec.expected_hijack, spec.expected_saddns,
                       spec.expected_frag_any, spec.expected_frag_global,
                       spec.expected_dnssec)
            for spec in DOMAIN_DATASETS
        },
        data={"summaries": summaries, "reports": reports},
    )
    result.rendered = render_table(HEADERS, rows, title=result.title)
    result.notes.extend(notes)
    return result


def run(seed: int = 0, scale: float = 0.01) -> ExperimentResult:
    """Scan a ``scale`` sample of all ten domain datasets."""
    reports = {spec.key: scan_sample(spec, seed, scale)
               for spec in DOMAIN_DATASETS}
    return _result(reports, [SEMANTICS_NOTE])


def run_full(seed: int = 0, entities: int | None = None, shards: int = 16,
             workers: int | None = None, executor: str = "process",
             store=None) -> ExperimentResult:
    """Scan every domain dataset at the paper's full size (1M+ domains)."""
    reports = {
        spec.key: scan_dataset(spec, seed=seed, entities=entities,
                               shards=shards, workers=workers,
                               executor=executor, store=store)
        for spec in DOMAIN_DATASETS
    }
    total_wall = sum(report.wall_clock for report in reports.values())
    return _result(reports, [
        SEMANTICS_NOTE,
        _full_scan_note(reports, total_wall, shards, "domains")])
