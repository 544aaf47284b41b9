"""The coordinator half of the sweep fabric: seed, police, stream.

A :class:`Coordinator` owns the *run*, never the execution: it expands a
grid into fingerprinted cells, seeds them into a
:class:`~repro.analysis.store.ResultStore`, and then consumes terminal
records **in cell order** as they land — whoever produced them. Execution
comes from :class:`~repro.analysis.worker.Worker` loops, in one of three
arrangements:

* ``workers=1`` (default): one in-process worker runs the store dry before
  streaming — byte-for-byte the single-host behavior, no subprocesses.
* ``workers=N``: the coordinator spawns ``N`` ``repro-renaming worker``
  subprocesses against the store and streams while they execute, respawning
  any that die before the store is complete.
* ``coordinator_only=True``: the coordinator seeds and streams but spawns
  nothing — workers are started elsewhere (other shells, other machines
  with the store on shared storage) and the coordinator just waits for
  their results.

While streaming, the coordinator *polices* the fabric: expired leases are
reclaimed (a dead worker costs one lease window, not the run) and the
store's event log is drained for accounting (retries, reclaims).

:meth:`Coordinator.stream` is the one durable run loop, so it also owns
**graceful drain**: on the first SIGINT/SIGTERM it stops the in-process
worker after its in-flight cell (or SIGTERMs the spawned workers, which
do the same), waits for them, records an ``interrupted`` store event and
raises :class:`~repro.sim.errors.RunInterrupted` — everything finished so
far is durable in the store, and re-running against the same store
resumes. A second signal kills outright. Handlers are installed only on
the main thread and restored afterwards.

:meth:`Coordinator.stream` is a generator and holds **O(1)** row state: one
decoded row is yielded at a time and nothing is retained, so aggregating a
50k-cell sweep needs memory for the cell *list*, not the result set.
:meth:`Coordinator.run` is the convenience wrapper that collects the rows
into the ordered list the legacy executor returns.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Set

from ..sim.errors import RunInterrupted, StoreError
from .executor import ResultCache, logger
from .store import DEFAULT_LEASE_S, ResultStore, open_store
from .supervisor import CellBudget
from .worker import RUNNERS, Worker

__all__ = ["Coordinator", "CoordinatorStats"]


@dataclass
class CoordinatorStats:
    """Accounting for one :meth:`Coordinator.run` / fully-drained stream."""

    cells: int = 0
    #: Cells actually executed by workers this run (neither restored from
    #: the store nor prefilled from the result cache).
    executed: int = 0
    from_cache: int = 0
    #: Cells already terminal in the store when we seeded (resume).
    restored: int = 0
    failed: int = 0
    retried: int = 0
    budget_kills: int = 0
    #: Expired leases released by coordinator policing.
    reclaimed: int = 0
    #: Dead subprocess workers replaced mid-run.
    worker_restarts: int = 0
    elapsed_s: float = 0.0


class Coordinator:
    """Seed a cell grid into a store and stream the results back in order.

    ``store`` is a store URL or a :class:`ResultStore`; ``cache`` a
    directory / :class:`~repro.analysis.executor.ResultCache` used both to
    prefill the store with already-memoised sweep cells and to memoise
    freshly finished ones. ``budget``/``retries``/``run_hook`` carry the
    executor's knobs through to the workers this coordinator runs or
    spawns (externally started workers bring their own).
    """

    def __init__(
        self,
        store,
        *,
        workers: int = 1,
        cache=None,
        run_hook=None,
        budget: Optional[CellBudget] = None,
        retries: int = 1,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.1,
        coordinator_only: bool = False,
    ) -> None:
        self.store: ResultStore = open_store(store)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.run_hook = run_hook
        self.budget = budget
        self.retries = retries
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.coordinator_only = coordinator_only
        self.stats = CoordinatorStats()
        self._event_cursor = None
        #: Name of the first drain signal received (``None`` while running).
        self._preempted: Optional[str] = None
        self._inline: Optional[Worker] = None
        self._procs: List[subprocess.Popen] = []

    # ------------------------------------------------------------------ API

    def run(
        self, kind: str, cells: List[dict], *, fingerprint: str,
        run_id: str = "fabric", config: Optional[dict] = None,
    ) -> list:
        """Drain the whole grid and return the ordered row list."""
        return list(
            self.stream(
                kind, cells, fingerprint=fingerprint, run_id=run_id,
                config=config,
            )
        )

    def stream(
        self, kind: str, cells: List[dict], *, fingerprint: str,
        run_id: str = "fabric", config: Optional[dict] = None,
    ) -> Iterator[object]:
        """Yield one decoded row per cell, in cell order, as results land.

        Seeds the store (idempotent — re-running against a part-finished
        store is a resume), prefills memoised sweep cells from the result
        cache, arranges execution per the constructor's knobs, and then
        streams: each ``next()`` blocks until the next cell in order has a
        terminal record, polices the fabric while waiting, and yields the
        decoded row without retaining it. A SIGINT/SIGTERM drains the
        workers and raises :class:`~repro.sim.errors.RunInterrupted`.
        """
        start = time.perf_counter()
        try:
            runner = RUNNERS[kind]
        except KeyError:
            raise StoreError(
                f"unknown run kind {kind!r}; known: {sorted(RUNNERS)}"
            ) from None
        self.stats = CoordinatorStats(cells=len(cells))
        self._event_cursor = None
        self.store.seed(
            kind=kind, run_id=run_id, fingerprint=fingerprint, cells=cells,
            config=config,
        )

        restored: Set[int] = set()
        for index in range(len(cells)):
            if self.store.terminal(index) is not None:
                restored.add(index)
        self.stats.restored = len(restored)

        prefilled: Set[int] = set()
        if self.cache is not None and kind == "sweep":
            for index in range(len(cells)):
                if index in restored:
                    continue
                task = runner.decode(cells[index])
                summary = self.cache.load(task)
                if summary is not None and self.store.write_terminal(
                    index, "finished", summary.to_dict()
                ):
                    prefilled.add(index)
            self.stats.from_cache = len(prefilled)

        procs: List[subprocess.Popen] = []
        self._procs, self._inline, self._preempted = procs, None, None
        previous = self._install_signal_handlers()
        try:
            if self.coordinator_only or self.store.complete:
                pass
            elif self.workers == 1:
                # In-process: run the store dry first, then stream — the
                # single-host arrangement, deterministic and subprocess-free.
                self._inline = Worker(
                    self.store,
                    worker_id=f"{run_id}-inline",
                    budget=self.budget,
                    retries=self.retries,
                    lease_s=self.lease_s,
                    run_hook=self.run_hook,
                )
                self._inline.run()
            else:
                procs.extend(
                    self._spawn_worker(run_id, i) for i in range(self.workers)
                )

            for index in range(len(cells)):
                record = self.store.terminal(index)
                while record is None:
                    if self._preempted is not None:
                        self._drain(procs, run_id)
                    self._police(procs)
                    time.sleep(self.poll_s)
                    record = self.store.terminal(index)
                yield self._decode_row(
                    runner, index, record,
                    restored=index in restored,
                    prefilled=index in prefilled,
                )
            self._police(procs)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._stop_workers(procs)
            self.stats.executed = (
                len(cells) - len(restored) - len(prefilled)
            )
            self.stats.elapsed_s = time.perf_counter() - start

    # ---------------------------------------------------------------- drain

    def _install_signal_handlers(self) -> dict:
        """Route SIGINT/SIGTERM to :meth:`_on_signal` (main thread only);
        returns the previous handlers for restoration."""
        if threading.current_thread() is not threading.main_thread():
            return {}
        return {
            signum: signal.signal(signum, self._on_signal)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }

    def _on_signal(self, signum, frame) -> None:  # noqa: ARG002
        name = signal.Signals(signum).name
        if self._preempted is None:
            self._preempted = name
            logger.warning(
                "%s received: draining in-flight cells (repeat to abort)",
                name,
            )
            if self._inline is not None:
                self._inline.stop()
            return
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
        raise RunInterrupted(f"{name} again: aborted without draining")

    def _drain(self, procs: List[subprocess.Popen], run_id: str) -> None:
        """Let every worker finish its in-flight cell, then stop the run."""
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            proc.wait()
        self.store.record_event("interrupted")
        counts = self.store.counts()
        cells = counts["cells"]
        remaining = counts["leased"] + counts["pending"]
        raise RunInterrupted(
            f"{self._preempted}: drained fabric run {run_id!r} "
            f"({cells - remaining} of {cells} cells done, {remaining} "
            f"remaining)",
            run_id=run_id,
            completed=cells - remaining,
            remaining=remaining,
        )

    # ------------------------------------------------------------- internals

    def _spawn_worker(self, run_id: str, index: int) -> subprocess.Popen:
        cmd = [
            sys.executable, "-m", "repro.cli", "worker",
            "--store", self.store.url,
            "--worker-id", f"{run_id}-w{index}",
            "--wait-for-store", "60",
            "--lease", str(self.lease_s),
        ]
        if self.budget is not None:
            if self.budget.wall_s is not None:
                cmd += ["--cell-wall", str(self.budget.wall_s)]
            if self.budget.rss_mb is not None:
                cmd += ["--cell-rss", str(self.budget.rss_mb)]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        return subprocess.Popen(cmd, env=env)

    def _police(self, procs: List[subprocess.Popen]) -> None:
        """One policing pass: reclaim leases, drain events, respawn dead."""
        self.stats.reclaimed += len(self.store.reclaim_expired())
        events, self._event_cursor = self.store.events_since(
            self._event_cursor
        )
        self.stats.retried += sum(
            1 for event in events if event.get("event") == "retried"
        )
        if not procs or self._preempted is not None or self.store.complete:
            return
        for i, proc in enumerate(procs):
            if proc.poll() is not None:
                logger.warning(
                    "fabric worker %d exited (code %s) with the store "
                    "incomplete; respawning", i, proc.returncode,
                )
                header = self.store.header() or {}
                procs[i] = self._spawn_worker(
                    f"{header.get('run_id', 'fabric')}-r{self.stats.worker_restarts}",
                    i,
                )
                self.stats.worker_restarts += 1

    def _decode_row(
        self, runner, index: int, record: dict, *, restored: bool,
        prefilled: bool,
    ):
        task = runner.decode(self.store.task(index))
        payload = record.get("payload")
        if payload is not None:
            row = runner.decode_row(task, payload)
        else:
            row = runner.lease_row(
                task, record.get("reason") or "lease expired"
            )
        if not restored:
            if record["state"] != "finished":
                self.stats.failed += 1
                if record["state"] == "quarantined" and record.get(
                    "reason"
                ) in ("wall-budget", "rss-budget"):
                    self.stats.budget_kills += 1
            elif getattr(row, "failed", False):
                self.stats.failed += 1
            elif (
                runner.kind == "sweep"
                and self.cache is not None
                and not prefilled
            ):
                self.cache.store(task, row)
        if prefilled and hasattr(row, "cached"):
            row.cached = True
        return row

    @staticmethod
    def _stop_workers(procs: List[subprocess.Popen]) -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
