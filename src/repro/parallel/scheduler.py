"""Task dispatch: the one way seeded task lists reach serial, thread or
process workers.

Campaign sweeps (Table 6, the Section 6 grid), atlas population scans
(Tables 3-5) and Table 5's implementation cells all map independent,
seeded tasks over workers.  :class:`Dispatch` is where that is decided
and done: it validates the executor name, resolves the worker count,
downgrades to the serial loop when a pool could not help, builds the
pool (with an optional per-worker initializer) and drives it through
:func:`run_stealing`.  Callers keep only what is theirs — task shapes,
stores, obs spans.

``concurrent.futures.Executor.map`` hands each worker a fixed slice of
the task list; one slow shard then idles every other worker at the end
of the run.  :func:`run_stealing` instead keeps a bounded window of
in-flight futures and feeds the next task to whichever worker finishes
first — idle-worker stealing without a shared queue.  Results are
streamed to a callback the moment they complete (any order — the atlas
store append is idempotent per shard) and *returned* in task order, so
callers observe the same list the serial loop would have produced no
matter how completion interleaves.

The pool is duck-typed (anything with ``submit``), which is how the
test-suite's adversarial shim — a pool that finishes futures in
reverse/random order — proves order independence.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.parallel.workers import resolve_workers

EXECUTORS = ("process", "thread", "serial")


def check_executor(executor: str) -> None:
    """Raise ``ValueError`` unless ``executor`` is one of :data:`EXECUTORS`."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; pick one of {EXECUTORS}")


@dataclass(frozen=True)
class Dispatch:
    """How one task list runs: the executor and worker count used.

    Settle it with :meth:`plan` (the caller may then shape its tasks to
    the chosen executor), run tasks with :meth:`map`, and report
    ``executor``/``workers`` as what actually ran.  ``note`` explains a
    downgrade to the serial loop and is empty otherwise.
    """

    executor: str
    workers: int
    note: str = ""

    @classmethod
    def plan(cls, executor: str, workers: int | str | None,
             tasks: int) -> Dispatch:
        """Settle the executor and worker count for ``tasks`` tasks.

        ``workers`` is a count, ``"auto"`` or ``None`` (see
        :func:`repro.parallel.workers.resolve_workers`), capped at the
        task count.  A pool that could not help — one worker or one
        task — downgrades to the serial loop with a note, so 1-vCPU
        hosts document serial parity instead of paying pool start-up;
        an empty task list runs serially without one.
        """
        check_executor(executor)
        requested = resolve_workers(workers)
        count = min(requested, tasks)
        if executor == "serial" or count == 0:
            return cls("serial", 1)
        if count == 1:
            reason = "one worker" if requested == 1 else "one task"
            return cls("serial", 1,
                       f"{executor} executor downgraded to serial "
                       f"({reason})")
        return cls(executor, count)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any],
            on_result: Callable[[int, Any], None] | None = None,
            initializer: Callable[..., None] | None = None,
            initargs: tuple = ()) -> list[Any]:
        """Run ``fn`` over ``tasks``; the returned list is in task order.

        ``on_result(index, result)`` fires as each task finishes — in
        task order on the serial loop, in completion order on a pool —
        so callers merge or persist results while later tasks still
        run.  The serial loop calls ``fn`` in this process: no pool, no
        futures, no initializer.  Pools run ``initializer(*initargs)``
        once per worker and steal work through :func:`run_stealing`
        with a ``2 * workers`` window: enough that no worker starves
        while a result is merged, small enough that a huge task list
        never floods the pool's call queue.
        """
        if self.executor == "serial":
            results = []
            for index, task in enumerate(tasks):
                result = fn(task)
                results.append(result)
                if on_result is not None:
                    on_result(index, result)
            return results
        pool_cls = ProcessPoolExecutor if self.executor == "process" \
            else ThreadPoolExecutor
        with pool_cls(max_workers=self.workers, initializer=initializer,
                      initargs=initargs) as pool:
            return run_stealing(pool, fn, tasks, window=2 * self.workers,
                                on_result=on_result)


def run_stealing(pool, fn: Callable[[Any], Any], tasks: Sequence[Any],
                 window: int,
                 on_result: Callable[[int, Any], None] | None = None
                 ) -> list[Any]:
    """Map ``fn`` over ``tasks`` through ``pool.submit``, stealing work.

    ``window`` bounds the number of in-flight futures.
    ``on_result(index, result)`` fires in *completion* order; the
    returned list is in *task* order.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    results: list[Any] = [None] * len(tasks)
    pending: dict[Future, int] = {}
    next_index = 0
    while next_index < len(tasks) or pending:
        while next_index < len(tasks) and len(pending) < window:
            pending[pool.submit(fn, tasks[next_index])] = next_index
            next_index += 1
        done, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            index = pending.pop(future)
            result = future.result()
            results[index] = result
            if on_result is not None:
                on_result(index, result)
    return results
