"""Crash-contained chaos campaigns: fault grids with triage, not hangs.

A chaos campaign systematically runs algorithms under beyond-model fault
plans (:mod:`repro.sim.chaos`) and classifies every single run — the hard
invariant is **zero silent successes**: a run either completes with its
properties verified, or its failure is recorded with a typed cause and a
one-command reproducer. Nothing is dropped, nothing hangs the campaign.

* :class:`ChaosTask` — one fully-specified (configuration × fault plan)
  cell, picklable and hashable, with :meth:`ChaosTask.reproducer` emitting
  the exact ``repro-renaming chaos`` command line that re-executes it.
* :func:`execute_chaos_task` — the worker entry point. Typed simulator
  errors (:class:`~repro.sim.errors.SimulationError`, including
  :class:`~repro.sim.errors.SafetyViolation` from the runtime monitor, and
  :class:`~repro.wire.WireError`) are *outcomes*, not crashes.
* :class:`ChaosCampaign` — fan-out over a process pool with per-cycle
  timeouts, retry of transient worker failures, pool rebuild after a hang or
  a dead worker, and quarantine of configurations that crash the worker
  itself.
* :class:`TriageReport` — the campaign verdict: per-status counts, the
  quarantine list, and the self-check :meth:`TriageReport.silent_successes`
  (must be empty: injected violations without a verdict are a harness bug).

Outcome statuses:

``clean``
    No fault was actually injected and all properties verified.
``tolerated``
    Faults were injected but every promised property still held (the
    algorithm's resilience slack absorbed the injection) — *verified*, not
    assumed.
``violation``
    The run completed but a property broke; the outcome names the broken
    properties and the fault families that were active.
``detected``
    The run aborted with a typed error (safety monitor, invariant check,
    configuration guard, round limit, wire decoder) — the failure-fast path.
``timeout``
    The worker exceeded the campaign's per-cycle timeout; quarantined with a
    reproducer.
``crashed``
    The worker raised an *untyped* error even after retries; quarantined
    with the exception and a reproducer.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim import (
    DEFAULT_ENGINE,
    ConfigurationError,
    FaultPlan,
    SafetyViolation,
    SimulationError,
)
from ..wire import WireError
from ..workloads.ids import make_ids
from .executor import logger, resolve_workers
from .experiments import run_experiment
from .journal import canonical_json, config_fingerprint
from .supervisor import CellBudget
from .tables import format_table

__all__ = [
    "CHAOS_PRESETS",
    "ChaosCampaign",
    "ChaosOutcome",
    "ChaosTask",
    "TriageReport",
    "chaos_grid",
    "execute_chaos_task",
]

#: Every status a classified run can end in (stable order for reports).
STATUSES = ("clean", "tolerated", "violation", "detected", "timeout", "crashed")


@dataclass(frozen=True)
class ChaosTask:
    """One campaign cell: a run configuration plus its fault plan."""

    algorithm: str
    n: int
    t: int
    attack: str = "silent"
    seed: int = 0
    engine: str = DEFAULT_ENGINE
    workload: str = "uniform"
    max_rounds: int = 64
    monitor: bool = True
    enforce_regime: bool = True
    chaos_seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    extra_crashes: int = 0
    crash_round: int = 1

    def fault_plan(self) -> FaultPlan:
        """The task's :class:`~repro.sim.chaos.FaultPlan` (validated)."""
        return FaultPlan(
            seed=self.chaos_seed,
            drop=self.drop,
            duplicate=self.duplicate,
            corrupt=self.corrupt,
            extra_crashes=self.extra_crashes,
            crash_round=self.crash_round,
        )

    def to_dict(self) -> dict:
        """JSON-ready cell description (store task lists, fingerprints)."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "attack": self.attack,
            "seed": self.seed,
            "engine": self.engine,
            "workload": self.workload,
            "max_rounds": self.max_rounds,
            "monitor": self.monitor,
            "enforce_regime": self.enforce_regime,
            "chaos_seed": self.chaos_seed,
            "drop": self.drop,
            "duplicate": self.duplicate,
            "corrupt": self.corrupt,
            "extra_crashes": self.extra_crashes,
            "crash_round": self.crash_round,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosTask":
        return cls(**payload)

    def describe(self) -> str:
        """Compact cell label for triage tables."""
        plan = self.fault_plan()
        fault = "none" if plan.is_empty else plan.describe()
        return (
            f"{self.algorithm} n={self.n} t={self.t} {self.attack} "
            f"seed={self.seed} {self.engine} [{fault}]"
        )

    def reproducer(self) -> str:
        """The one-command CLI line that re-executes exactly this cell."""
        parts = [
            "python -m repro.cli chaos",
            f"--algorithms {self.algorithm}",
            f"--sizes {self.n}:{self.t}",
            f"--attacks {self.attack}",
            f"--seeds {self.seed}",
            f"--engines {self.engine}",
            f"--chaos-seeds {self.chaos_seed}",
        ]
        if self.drop:
            parts.append(f"--drop {self.drop}")
        if self.duplicate:
            parts.append(f"--duplicate {self.duplicate}")
        if self.corrupt:
            parts.append(f"--corrupt {self.corrupt}")
        if self.extra_crashes:
            parts.append(f"--crash-extra {self.extra_crashes}")
            parts.append(f"--crash-round {self.crash_round}")
        parts.append("--combine")
        parts.append(f"--max-rounds {self.max_rounds}")
        if self.workload != "uniform":
            parts.append(f"--workload {self.workload}")
        if not self.monitor:
            parts.append("--no-monitor")
        parts.append("--workers 1")
        return " ".join(parts)


@dataclass
class ChaosOutcome:
    """The classified verdict of one campaign cell."""

    task: ChaosTask
    status: str
    elapsed_s: float = 0.0
    #: ``"ExceptionType: message"`` for detected/timeout/crashed outcomes.
    error: Optional[str] = None
    #: Broken properties (``violation``) or the monitor's violated tag
    #: (``detected`` via :class:`~repro.sim.errors.SafetyViolation`).
    violated: Tuple[str, ...] = ()
    #: Injected-fault counters actually observed (empty when the run aborted
    #: before its chaos report could be collected).
    injected: Dict[str, int] = field(default_factory=dict)
    retries: int = 0

    @property
    def quarantined(self) -> bool:
        """True for outcomes that need a reproducer-first look (the campaign
        could not produce a verdict from inside the run)."""
        return self.status in ("timeout", "crashed")

    def as_dict(self) -> dict:
        return {
            "task": self.task.describe(),
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "error": self.error,
            "violated": list(self.violated),
            "injected": dict(self.injected),
            "retries": self.retries,
            "reproducer": self.task.reproducer() if self.quarantined else None,
        }

    def verdict_dict(self) -> dict:
        """The task-free verdict payload result stores keep (the task is
        reconstructed from the grid by cell index on resume)."""
        return {
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "error": self.error,
            "violated": list(self.violated),
            "injected": dict(self.injected),
            "retries": self.retries,
        }

    @classmethod
    def from_verdict(cls, task: ChaosTask, payload: dict) -> "ChaosOutcome":
        """Inverse of :meth:`verdict_dict` given the cell's task."""
        return cls(
            task=task,
            status=payload["status"],
            elapsed_s=payload.get("elapsed_s", 0.0),
            error=payload.get("error"),
            violated=tuple(payload.get("violated", ())),
            injected=dict(payload.get("injected", {})),
            retries=payload.get("retries", 0),
        )


def execute_chaos_task(task: ChaosTask) -> ChaosOutcome:
    """Run one cell and classify it (the worker entry point).

    Typed errors are verdicts: a :class:`~repro.sim.errors.SafetyViolation`
    or any other :class:`~repro.sim.errors.SimulationError` (round limit,
    configuration guard, protocol violation) or
    :class:`~repro.wire.WireError` means the harness *detected* the injected
    fault and failed loudly. Anything else escaping this function is a
    worker crash, which the campaign retries and then quarantines.
    """
    start = time.perf_counter()
    ids = make_ids(task.workload, task.n, seed=task.seed)
    plan = task.fault_plan()
    try:
        record = run_experiment(
            task.algorithm,
            task.n,
            task.t,
            ids,
            attack=task.attack,
            seed=task.seed,
            max_rounds=task.max_rounds,
            engine=task.engine,
            enforce_regime=task.enforce_regime,
            monitor=task.monitor,
            chaos=None if plan.is_empty else plan,
        )
    except SafetyViolation as exc:
        return ChaosOutcome(
            task=task,
            status="detected",
            elapsed_s=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            violated=(exc.violated,),
        )
    except (SimulationError, WireError) as exc:
        return ChaosOutcome(
            task=task,
            status="detected",
            elapsed_s=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    report = record.report
    if report.ok:
        status = "tolerated" if report.beyond_model else "clean"
    else:
        status = "violation"
    return ChaosOutcome(
        task=task,
        status=status,
        elapsed_s=time.perf_counter() - start,
        violated=report.broken,
        injected=dict(report.injected),
    )


@dataclass
class TriageReport:
    """Campaign verdict: every cell classified, nothing silently dropped."""

    outcomes: List[ChaosOutcome]
    elapsed_s: float = 0.0
    retried: int = 0
    workers: int = 1

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for outcome in self.outcomes:
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    @property
    def quarantined(self) -> List[ChaosOutcome]:
        return [o for o in self.outcomes if o.quarantined]

    def silent_successes(self) -> List[ChaosOutcome]:
        """Harness self-check — MUST return ``[]``.

        A run that injected model violations but was classified ``clean``
        (i.e. "nothing happened") would be a silent success: the injection
        bypassed both the safety monitor and the post-hoc property check.
        By construction any injection flips the run to ``tolerated`` (with
        its properties verified) or worse; a non-empty return here is a bug
        in the chaos harness itself, not in the algorithm under test.
        """
        return [
            o for o in self.outcomes if o.status == "clean" and o.injected
        ]

    def render(self) -> str:
        """Human triage table plus quarantine reproducers."""
        rows = []
        for outcome in self.outcomes:
            detail = outcome.error or (
                ", ".join(outcome.violated) if outcome.violated else ""
            )
            injected = (
                " ".join(f"{k}x{v}" for k, v in sorted(outcome.injected.items()))
                or "-"
            )
            rows.append([
                outcome.task.describe(),
                outcome.status,
                injected,
                detail[:60],
            ])
        lines = [format_table(["cell", "status", "injected", "detail"], rows)]
        counts = ", ".join(
            f"{status}={count}" for status, count in self.counts().items() if count
        )
        lines.append(
            f"\n{len(self.outcomes)} cells ({counts}) in {self.elapsed_s:.2f}s "
            f"on {self.workers} worker(s); {self.retried} retried"
        )
        silent = self.silent_successes()
        if silent:
            lines.append(
                f"HARNESS BUG: {len(silent)} silent success(es) — injection "
                "without a verdict"
            )
        if self.quarantined:
            lines.append("\nquarantined (reproduce with):")
            for outcome in self.quarantined:
                lines.append(f"  [{outcome.status}] {outcome.error}")
                lines.append(f"    {outcome.task.reproducer()}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "counts": self.counts(),
            "elapsed_s": self.elapsed_s,
            "retried": self.retried,
            "workers": self.workers,
            "silent_successes": len(self.silent_successes()),
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }

    def canonical(self) -> str:
        """The report as canonical JSON: wall-clock and pool-size scrubbed.

        Everything left is a pure function of the seeded grid, so a
        resumed run's canonical report must be byte-identical to an
        uninterrupted control run's — the resume acceptance check.
        """
        return canonical_json(self.to_json())

    @property
    def ok(self) -> bool:
        """True when the campaign itself is healthy: no quarantined cells
        and no silent successes (violations/detections are *findings*, not
        campaign failures)."""
        return not self.quarantined and not self.silent_successes()


class ChaosCampaign:
    """Run a chaos grid to completion, whatever the cells do.

    ``workers=1`` runs serially in-process (fully deterministic ordering,
    no timeout containment — used by tests and reproducers). Otherwise the
    grid fans out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

    * a cell whose worker raises an untyped exception is retried up to
      ``retries`` times, then quarantined as ``crashed``;
    * a dead pool (killed worker) is rebuilt and the unfinished cells rerun;
    * when no cell completes within ``timeout_s`` the still-pending cells
      are quarantined as ``timeout``, the pool is torn down (hung workers
      terminated) and the campaign continues — a hang costs one timeout
      window, never the campaign.

    ``task_runner`` is injectable for tests (it must be picklable for
    ``workers > 1``).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout_s: float = 120.0,
        retries: int = 1,
        task_runner: Callable[[ChaosTask], ChaosOutcome] = execute_chaos_task,
    ) -> None:
        self.workers = resolve_workers(workers)
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self.retries = retries
        self.task_runner = task_runner

    def run(
        self,
        tasks: Sequence[ChaosTask],
        *,
        budget=None,
        store=None,
        coordinator_only: bool = False,
        run_id: str = "fabric",
    ) -> TriageReport:
        """Execute every cell and return the :class:`TriageReport`.

        Outcomes are ordered exactly as ``tasks`` — never by completion
        order — so campaigns are deterministic given their seeds.

        ``store`` makes the campaign durable and preemption-safe by running
        it on the coordinator/worker fabric (see
        :class:`~repro.analysis.coordinator.Coordinator`): terminal cells
        are restored on resume instead of re-executed, every cell runs
        under a per-cell budget (``budget`` defaults to a wall budget of
        ``timeout_s``), and SIGINT/SIGTERM drains in-flight cells and
        raises :class:`~repro.sim.errors.RunInterrupted`.
        """
        start = time.perf_counter()
        if store is not None:
            return self._run_fabric(
                tasks, store, budget, start,
                coordinator_only=coordinator_only, run_id=run_id,
            )
        results: List[Optional[ChaosOutcome]] = [None] * len(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            retried = self._run_serial(tasks, results)
        else:
            retried = self._run_pool(tasks, results)
        assert all(outcome is not None for outcome in results)
        return TriageReport(
            outcomes=results,  # type: ignore[arg-type]
            elapsed_s=time.perf_counter() - start,
            retried=retried,
            workers=self.workers,
        )

    @staticmethod
    def fingerprint(tasks: Sequence[ChaosTask]) -> str:
        """The campaign's config fingerprint (over the expanded grid)."""
        return config_fingerprint("chaos", [task.to_dict() for task in tasks])

    # ---------------------------------------------------------------- fabric

    def _run_fabric(
        self,
        tasks: Sequence[ChaosTask],
        store,
        budget,
        start: float,
        *,
        coordinator_only: bool,
        run_id: str,
    ) -> TriageReport:
        """The fabric path: cells pulled through store leases.

        Every cell runs in a disposable child process under ``budget``,
        which defaults to a wall budget of ``timeout_s`` at any worker
        count: a breach quarantines the cell as ``timeout`` (wall) or
        ``crashed`` (RSS), a crash is retried ``retries`` times. The store
        header records the timeout, retry count and explicit budget so
        ``runs resume --store`` can rebuild the campaign from the store.
        """
        from .coordinator import Coordinator  # local: avoids the cycle

        config = {
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "budget": asdict(budget) if budget is not None else None,
        }
        if budget is None:
            budget = CellBudget(wall_s=self.timeout_s)
        coordinator = Coordinator(
            store,
            workers=self.workers,
            budget=budget,
            retries=self.retries,
            coordinator_only=coordinator_only,
        )
        outcomes = coordinator.run(
            "chaos",
            [task.to_dict() for task in tasks],
            fingerprint=self.fingerprint(tasks),
            run_id=run_id,
            config=config,
        )
        assert all(outcome is not None for outcome in outcomes)
        return TriageReport(
            outcomes=outcomes,
            elapsed_s=time.perf_counter() - start,
            retried=coordinator.stats.retried,
            workers=self.workers,
        )

    # ------------------------------------------------------------------ serial

    def _run_serial(
        self, tasks: Sequence[ChaosTask], results: List[Optional[ChaosOutcome]]
    ) -> int:
        retried = 0
        for index, task in enumerate(tasks):
            attempts = 0
            while True:
                try:
                    outcome = self.task_runner(task)
                    outcome.retries = attempts
                    results[index] = outcome
                    break
                except Exception as exc:  # noqa: BLE001 — quarantined below
                    attempts += 1
                    if attempts <= self.retries:
                        logger.warning(
                            "chaos cell %s crashed (%s: %s); retrying",
                            task.describe(), type(exc).__name__, exc,
                        )
                        retried += 1
                        continue
                    results[index] = ChaosOutcome(
                        task=task,
                        status="crashed",
                        error=f"{type(exc).__name__}: {exc}",
                        retries=attempts - 1,
                    )
                    break
        return retried

    # -------------------------------------------------------------------- pool

    def _run_pool(
        self, tasks: Sequence[ChaosTask], results: List[Optional[ChaosOutcome]]
    ) -> int:
        #: (index, task, attempts) still needing a verdict.
        queue: List[Tuple[int, ChaosTask, int]] = [
            (index, task, 0) for index, task in enumerate(tasks)
        ]
        retried = 0
        while queue:
            queue, newly_retried = self._pool_cycle(queue, results)
            retried += newly_retried
        return retried

    def _pool_cycle(
        self,
        queue: List[Tuple[int, ChaosTask, int]],
        results: List[Optional[ChaosOutcome]],
    ) -> Tuple[List[Tuple[int, ChaosTask, int]], int]:
        """One pool lifetime: submit everything, drain until done or hung.

        Returns the requeue (cells to retry in a fresh pool) and the number
        of retries issued. On a hang (no completion within ``timeout_s``)
        the pending cells are quarantined as ``timeout`` and the pool's
        workers are terminated.
        """
        requeue: List[Tuple[int, ChaosTask, int]] = []
        retried = 0
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(queue)))
        hung = False
        try:
            futures = {
                pool.submit(self.task_runner, task): (index, task, attempts)
                for index, task, attempts in queue
            }
            pending = set(futures)
            while pending:
                done, pending = wait(
                    pending, timeout=self.timeout_s, return_when=FIRST_COMPLETED
                )
                if not done:
                    # A full timeout window with zero progress: everything
                    # still pending is hung (finished cells already drained
                    # the queue) — quarantine and abandon this pool.
                    hung = True
                    for future in pending:
                        index, task, attempts = futures[future]
                        future.cancel()
                        results[index] = ChaosOutcome(
                            task=task,
                            status="timeout",
                            error=f"TimeoutError: no verdict within {self.timeout_s}s",
                            retries=attempts,
                        )
                    break
                for future in done:
                    index, task, attempts = futures[future]
                    try:
                        outcome = future.result()
                        outcome.retries = attempts
                        results[index] = outcome
                    except Exception as exc:  # noqa: BLE001 — quarantined below
                        attempts += 1
                        if attempts <= self.retries:
                            logger.warning(
                                "chaos cell %s crashed (%s: %s); retrying",
                                task.describe(), type(exc).__name__, exc,
                            )
                            requeue.append((index, task, attempts))
                            retried += 1
                        else:
                            results[index] = ChaosOutcome(
                                task=task,
                                status="crashed",
                                error=f"{type(exc).__name__}: {exc}",
                                retries=attempts - 1,
                            )
        finally:
            if hung:
                # Cancel queued work and kill the hung workers; without the
                # kill, shutdown() would block on the hang forever.
                for process in list(getattr(pool, "_processes", {}).values()):
                    try:
                        process.terminate()
                    except Exception:  # noqa: BLE001 — best-effort teardown
                        pass
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        requeue.sort(key=lambda item: item[0])
        return requeue, retried


# ---------------------------------------------------------------------- grids

#: Named fault-axis bundles for the CLI's ``--preset``. Each value feeds
#: :func:`chaos_grid`'s fault-axis keywords; every listed value becomes its
#: own single-axis fault variant (grids stay linear, not exponential).
CHAOS_PRESETS: Dict[str, Dict[str, Sequence]] = {
    "smoke": {
        "drop": (0.2,),
        "corrupt": (0.2,),
        "extra_crashes": (1,),
    },
    "standard": {
        "drop": (0.05, 0.2, 0.5),
        "duplicate": (0.3,),
        "corrupt": (0.05, 0.3),
        "extra_crashes": (1, 2),
    },
}


def chaos_grid(
    algorithms: Sequence[str],
    sizes: Sequence[Tuple[int, int]],
    *,
    attacks: Sequence[str] = ("silent",),
    seeds: Sequence[int] = (0,),
    engines: Sequence[str] = (DEFAULT_ENGINE,),
    chaos_seeds: Sequence[int] = (0,),
    drop: Sequence[float] = (),
    duplicate: Sequence[float] = (),
    corrupt: Sequence[float] = (),
    extra_crashes: Sequence[int] = (),
    crash_round: int = 1,
    combine: bool = False,
    include_clean: bool = True,
    workload: str = "uniform",
    max_rounds: int = 64,
    monitor: bool = True,
) -> List[ChaosTask]:
    """Build the campaign grid: configurations × fault variants.

    Each value in ``drop``/``duplicate``/``corrupt``/``extra_crashes``
    becomes its own *single-axis* fault variant, keeping the grid linear in
    the number of fault values. ``combine=True`` instead merges one value
    per axis into a single combined plan (reproducers use this to pin exact
    cells). ``include_clean=True`` adds the no-fault control cell per
    configuration — the baseline that proves a ``violation`` verdict comes
    from the injection, not the configuration.
    """
    variants: List[Dict[str, object]] = []
    if combine:
        for axis, values in (
            ("drop", drop), ("duplicate", duplicate), ("corrupt", corrupt),
            ("extra_crashes", extra_crashes),
        ):
            if len(values) > 1:
                raise ConfigurationError(
                    f"combine=True needs at most one value per axis; "
                    f"{axis} got {list(values)}"
                )
        combined: Dict[str, object] = {}
        if drop:
            combined["drop"] = drop[0]
        if duplicate:
            combined["duplicate"] = duplicate[0]
        if corrupt:
            combined["corrupt"] = corrupt[0]
        if extra_crashes:
            combined["extra_crashes"] = extra_crashes[0]
            combined["crash_round"] = crash_round
        if combined:
            variants.append(combined)
    else:
        variants.extend({"drop": value} for value in drop)
        variants.extend({"duplicate": value} for value in duplicate)
        variants.extend({"corrupt": value} for value in corrupt)
        variants.extend(
            {"extra_crashes": value, "crash_round": crash_round}
            for value in extra_crashes
        )
    tasks: List[ChaosTask] = []
    for algorithm in algorithms:
        for n, t in sizes:
            for attack in attacks:
                for seed in seeds:
                    for engine in engines:
                        base = dict(
                            algorithm=algorithm,
                            n=n,
                            t=t,
                            attack=attack,
                            seed=seed,
                            engine=engine,
                            workload=workload,
                            max_rounds=max_rounds,
                            monitor=monitor,
                        )
                        if include_clean or not variants:
                            # The chaos seed is irrelevant without a fault
                            # plan, so the control cell appears exactly once
                            # per configuration.
                            tasks.append(ChaosTask(**base))
                        for chaos_seed in chaos_seeds:
                            for variant in variants:
                                tasks.append(
                                    ChaosTask(
                                        chaos_seed=chaos_seed, **base, **variant
                                    )
                                )
    return tasks
