"""Parallel shard execution: a pluggable worker pool for scatter-gather.

:class:`ShardExecutorPool` fans per-shard plan execution across
``concurrent.futures`` worker threads on behalf of the
:class:`~repro.db.sharding.ShardRouter`.  Two modes:

* ``"serial"`` — the property-test baseline: the router keeps its
  sequential scatter untouched and the pool is never consulted.
* ``"thread"`` (the default) — per-shard tasks run on a shared
  ``ThreadPoolExecutor``.  Shard partitions are disjoint ``Table`` objects
  and scatter plans are read-only, so workers touch disjoint executor and
  table state; the only shared structures are broadcast (unsharded)
  tables, whose lazy caches rebuild idempotently.

The pool records per-shard wall time for every parallel scatter; the
router attaches the most recent scatter's timings to its route marker so
tracing can render the per-shard breakdown and the max-not-sum parallel
span (:func:`repro.obs.trace.attach_parallel_scatter`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence

#: Valid pool modes; ``serial`` disables the pool entirely.
PARALLEL_MODES = ("serial", "thread")


class ParallelConfigError(Exception):
    """Raised for invalid worker-pool configurations."""


def _timed(task: Callable[[], Any]) -> tuple[Any, float]:
    started = time.perf_counter()
    result = task()
    return result, time.perf_counter() - started


class ShardExecutorPool:
    """A worker pool executing per-shard scatter tasks.

    Pools are created lazily (no threads exist until the first parallel
    scatter) and shut down via :meth:`close` — the owning
    :class:`~repro.api.engine.Engine` closes them with the engine.
    """

    def __init__(
        self, workers: Optional[int] = None, mode: str = "thread"
    ) -> None:
        if mode not in PARALLEL_MODES:
            raise ParallelConfigError(
                f"unknown parallel mode {mode!r}; modes are {PARALLEL_MODES}"
            )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ParallelConfigError(
                f"worker count must be at least 1, got {workers}"
            )
        self.mode = mode
        self.workers = workers
        self._threads: Optional[ThreadPoolExecutor] = None
        #: cumulative counters surfaced by :meth:`stats`.
        self.scatters = 0
        self.shard_seconds = 0.0
        self.parallel_seconds = 0.0

    # -- lifecycle -------------------------------------------------------

    def _thread_pool(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
        return self._threads

    def close(self) -> None:
        """Shut down the worker threads; the pool may be reused after."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None

    # -- execution -------------------------------------------------------

    def run_tasks(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> tuple[list[Any], list[float]]:
        """Run ``tasks`` on the thread pool; results in task order.

        Every task runs to completion (a failed shard does not abandon its
        siblings mid-flight); if any task raised, the error of the
        *lowest* task index is re-raised — once — for deterministic error
        surfacing regardless of completion order.  Per-task wall times are
        returned alongside the results.
        """
        if len(tasks) <= 1 or self.workers == 1 or self.mode == "serial":
            results, seconds = [], []
            for task in tasks:
                result, elapsed = _timed(task)
                results.append(result)
                seconds.append(elapsed)
            return results, seconds
        pool = self._thread_pool()
        futures: list[Future] = [
            pool.submit(_timed, task) for task in tasks
        ]
        results: list[Any] = [None] * len(tasks)
        seconds: list[float] = [0.0] * len(tasks)
        error: Optional[tuple[int, BaseException]] = None
        for index, future in enumerate(futures):
            try:
                results[index], seconds[index] = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None or index < error[0]:
                    error = (index, exc)
        if error is not None:
            raise error[1]
        return results, seconds

    # -- accounting ------------------------------------------------------

    def note_scatter(self, shard_seconds: Sequence[float]) -> None:
        """Fold one parallel scatter's per-shard wall times into totals."""
        self.scatters += 1
        self.shard_seconds += sum(shard_seconds)
        # Wall time the scatter *actually* took is bounded by the slowest
        # shard (max, not sum) — the number a parallel span may charge.
        self.parallel_seconds += max(shard_seconds, default=0.0)

    def stats(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "scatters": self.scatters,
            "shard_seconds": self.shard_seconds,
            "parallel_seconds": self.parallel_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardExecutorPool(mode={self.mode!r}, workers={self.workers})"


__all__ = ["PARALLEL_MODES", "ParallelConfigError", "ShardExecutorPool"]
