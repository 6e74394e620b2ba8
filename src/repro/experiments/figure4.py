"""Figure 4: resolver EDNS sizes vs nameserver minimum fragment sizes."""

from __future__ import annotations

from collections import Counter

from repro.atlas.pipeline import scan_sample
from repro.atlas.shards import find_dataset
from repro.experiments.base import ExperimentResult
from repro.measurements.report import cdf_series, render_table

CDF_POINTS = [68, 292, 548, 1500, 2048, 3072, 4096]


def _sizes(key: str, histogram: str, seed: int, scale: float) -> list[int]:
    aggregate = scan_sample(find_dataset(key), seed, scale).aggregate
    return list(aggregate.histograms.get(histogram, Counter()).elements())


def _cell(cdf: list[tuple[float, float]], index: int) -> str:
    # A tiny sample may hold no fragmenting nameserver at all.
    return f"{cdf[index][1] * 100:.1f}%" if cdf else "n/a"


def run(seed: int = 0, scale: float = 0.01) -> ExperimentResult:
    """Compute both CDFs of the paper's Figure 4.

    EDNS sizes are those the reachable sampled open resolvers
    advertise; minimum fragment sizes those of the PMTUD-honouring
    nameservers of the sampled Alexa domains (Table 4's population).
    """
    edns_sizes = _sizes("open", "edns_size", seed, scale)
    frag_sizes = _sizes("alexa", "min_frag_size", seed, scale)
    edns_cdf = cdf_series(edns_sizes, CDF_POINTS)
    frag_cdf = cdf_series(frag_sizes, CDF_POINTS)
    headers = ["size (bytes)", "EDNS size of resolvers (CDF)",
               "min fragment size of nameservers (CDF)"]
    rows = []
    for index, point in enumerate(CDF_POINTS):
        rows.append([str(point), _cell(edns_cdf, index),
                     _cell(frag_cdf, index)])
    result = ExperimentResult(
        experiment_id="figure4",
        title="Figure 4: CDF of resolver EDNS UDP size vs minimum "
              "fragment size of nameservers",
        headers=headers,
        rows=rows,
        paper_reference={
            "edns": {"<=512": 0.40, "1232-2048": 0.10, ">=4000": 0.50},
            "min_frag": {"<=292": 0.0705, "<=548": 0.832 + 0.0705},
        },
        data={"edns_cdf": edns_cdf, "frag_cdf": frag_cdf,
              "edns_sizes": len(edns_sizes),
              "frag_sizes": len(frag_sizes)},
    )
    result.rendered = render_table(headers, rows, title=result.title)
    result.notes.append(
        "the two-group EDNS split (40% at 512B vs 50%+ above 4000B) "
        "partitions resolvers into fragmentation-immune and exposed"
    )
    return result
