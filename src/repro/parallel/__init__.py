"""repro.parallel — the parallel execution plane.

Three pillars, all bit-identical to the serial reference paths:

* :mod:`repro.parallel.kernel` — batch-vectorised columnar atlas scan
  (lockstep MT19937 over numpy, checked against a per-entity scalar
  reference),
* :mod:`repro.parallel.scheduler` + :mod:`repro.parallel.workers` —
  :class:`Dispatch`, the one task dispatcher campaigns, atlas scans and
  Table 5 share (executor choice, serial downgrade, work-stealing
  pools), and the shared ``--workers auto`` resolver,
* :mod:`repro.parallel.claim` — multi-process/multi-host shard leasing
  over the atlas JSONL store with TTL expiry and idempotent re-claims.

Quickstart::

    from repro.atlas import AtlasStore, find_dataset, scan_dataset
    from repro.parallel import claim_worker, merge_claimed, resolve_workers

    spec = find_dataset("open")
    # Vectorised scan on every schedulable CPU:
    report = scan_dataset(spec, entities=200_000, workers="auto")

    # Claim mode: run this in as many processes/hosts as you like —
    # each claims shards via store leases; any of them may die.
    store = AtlasStore("runs/atlas")
    claim_worker(spec, entities=200_000, shards=64, store=store)
    # Coordinator merge (scans any shards every worker left behind):
    report = merge_claimed(spec, entities=200_000, shards=64, store=store)

Command line::

    python -m repro.parallel scan  --dataset open --entities 200000 --workers auto
    python -m repro.parallel claim --dataset open --entities 200000 --store runs/atlas
    python -m repro.parallel merge --dataset open --entities 200000 --store runs/atlas
    python -m repro.parallel bench --entities 40000
"""

import importlib


from repro.parallel.scheduler import Dispatch, run_stealing
from repro.parallel.workers import cpu_count, resolve_workers

#: Names re-exported lazily: the claim and kernel modules pull in the
#: atlas and numpy, while the dispatcher sits below the campaign and
#: atlas layers — eager imports here would make every
#: ``repro.parallel.scheduler`` import (a serial campaign's, say) pay
#: for both, and would cycle through the atlas calibration bridge.
_LAZY_EXPORTS = {
    "ClaimOutcome": "claim",
    "claim_shard": "claim",
    "claim_worker": "claim",
    "merge_claimed": "claim",
    "release_shard": "claim",
    "VectorScanner": "kernel",
    "scan_range": "kernel",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        module = importlib.import_module(
            f"repro.parallel.{_LAZY_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClaimOutcome",
    "Dispatch",
    "VectorScanner",
    "claim_shard",
    "claim_worker",
    "cpu_count",
    "merge_claimed",
    "release_shard",
    "resolve_workers",
    "run_stealing",
    "scan_range",
]
