"""Parallel sweep execution with deterministic ordering and result caching.

:func:`repro.analysis.sweep.run_sweep` historically executed its
(algorithm × (n, t) × attack × seed) grid strictly serially. Every run is a
pure function of its configuration (all randomness derives from the run seed,
see :mod:`repro.sim.rng`), so sweeps are embarrassingly parallel. This module
owns that fan-out:

* :class:`SweepExecutor` distributes a :class:`~repro.analysis.sweep.SweepConfig`
  grid over a :class:`concurrent.futures.ProcessPoolExecutor` worker pool.
  Results are keyed by configuration index, never by completion order, so
  tables and CSVs are byte-identical to the serial path. ``workers=1`` falls
  back to a plain in-process loop (debugger- and profiler-friendly).
* :class:`ExperimentSummary` is the slim, picklable row that crosses the
  process boundary. The full :class:`~repro.analysis.experiments.ExperimentRecord`
  drags the entire :class:`~repro.sim.runner.RunResult` (live ``Process``
  objects, bound RNGs, traces) and is neither cheap nor reliably picklable.
* :class:`ResultCache` memoises summaries on disk, keyed by a stable hash of
  the configuration, so re-running a benchmark only executes configurations
  that changed.
* :func:`parallel_map` is the generic ordered fan-out used by benchmark
  grids that drive :func:`~repro.sim.runner.run_protocol` directly (custom
  options, ablations) and therefore cannot be expressed as a ``SweepConfig``.

Every run records its own wall-clock (``elapsed_s``) so sweeps double as
timing measurements.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..sim import DEFAULT_ENGINE, FaultPlan, SystemModel
from ..workloads.ids import make_ids
from .experiments import ExperimentRecord, run_experiment
from .journal import config_fingerprint
from .properties import PropertyReport
from .store import LocalDirStore

__all__ = [
    "ExperimentSummary",
    "ResultCache",
    "RunTask",
    "SweepExecutor",
    "SweepStats",
    "parallel_map",
    "resolve_workers",
    "summarize_record",
]

logger = logging.getLogger(__name__)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers=`` knob: ``None`` means one per CPU."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class RunTask:
    """One fully-specified sweep cell — primitives (plus the frozen,
    hashable :class:`~repro.sim.FaultPlan`) only, so it pickles cheaply
    into worker processes and hashes stably into cache keys.

    Every semantics-affecting knob of :func:`execute_task` lives here;
    anything that can change a run's outcome must be a field so that
    :meth:`to_dict` (store fingerprints) and :meth:`ResultCache.key`
    (cache identity) see it. ``monitor``, ``chaos`` and ``model``
    serialise only when non-default, so grids that never touch them keep
    their store fingerprints from earlier releases.
    """

    algorithm: str
    n: int
    t: int
    attack: str
    seed: int
    workload: str = "uniform"
    collect_trace: bool = False
    max_rounds: int = 1000
    engine: str = DEFAULT_ENGINE
    monitor: bool = False
    chaos: Optional[FaultPlan] = None
    model: Optional[SystemModel] = None

    def to_dict(self) -> dict:
        """JSON-ready cell description (store task lists, fingerprints)."""
        payload = {
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "attack": self.attack,
            "seed": self.seed,
            "workload": self.workload,
            "collect_trace": self.collect_trace,
            "max_rounds": self.max_rounds,
            "engine": self.engine,
        }
        if self.monitor:
            payload["monitor"] = True
        if self.chaos is not None:
            payload["chaos"] = {
                "seed": self.chaos.seed,
                "drop": self.chaos.drop,
                "duplicate": self.chaos.duplicate,
                "corrupt": self.chaos.corrupt,
                "crashes": [list(entry) for entry in self.chaos.crashes],
                "extra_crashes": self.chaos.extra_crashes,
                "crash_round": self.chaos.crash_round,
            }
        # classic is the absent-field default, so an explicit classic model
        # and "no model" hash to the same cache key (they run identically).
        if self.model is not None and not self.model.is_classic:
            payload["model"] = self.model.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunTask":
        payload = dict(payload)
        chaos = payload.get("chaos")
        if chaos is not None:
            chaos = dict(chaos)
            chaos["crashes"] = tuple(
                tuple(entry) for entry in chaos.get("crashes", ())
            )
            payload["chaos"] = FaultPlan(**chaos)
        model = payload.get("model")
        if model is not None:
            payload["model"] = SystemModel.from_dict(model)
        return cls(**payload)


@dataclass
class ExperimentSummary:
    """One run's outcome in transferable table-row form.

    Field-compatible with :class:`~repro.analysis.experiments.ExperimentRecord`
    for everything the tables, ``group_by`` and the CSV exporter read — but
    carries no simulator state, so it crosses process boundaries and
    serialises to JSON for the on-disk cache.

    ``settled_round`` is the last round at which any correct process settled
    its decision (decision latency; requires ``collect_trace=True``, else
    ``None``). ``elapsed_s`` is the run's own wall-clock; ``cached`` marks
    summaries restored from a :class:`ResultCache` rather than executed.

    ``failed=True`` marks a configuration whose worker raised even after a
    retry; ``error`` then carries ``"ExceptionType: message"``. Failed
    summaries are never cached and every property flag is False — a failure
    can never read as a success.
    """

    algorithm: str
    n: int
    t: int
    attack: str
    seed: int
    workload: str
    rounds: int
    correct_messages: int
    correct_bits: int
    peak_message_bits: int
    byzantine: Tuple[int, ...]
    report: PropertyReport
    settled_round: Optional[int] = None
    elapsed_s: float = 0.0
    cached: bool = False
    failed: bool = False
    error: Optional[str] = None

    @classmethod
    def for_failure(
        cls, task: "RunTask", error: Union[BaseException, str]
    ) -> "ExperimentSummary":
        """A loud placeholder row for a configuration whose run raised.

        ``error`` is the exception itself, or the already-formatted
        ``"ExceptionType: message"`` string when the failure crossed a
        process boundary (budgeted workers report strings — the exception
        object died with the child process).
        """
        if isinstance(error, str):
            message = error
        else:
            message = f"{type(error).__name__}: {error}"
        report = PropertyReport(
            names={},
            namespace=0,
            validity=False,
            termination=False,
            uniqueness=False,
            order_preservation=False,
            violations=[f"failed: {message}"],
        )
        return cls(
            algorithm=task.algorithm,
            n=task.n,
            t=task.t,
            attack=task.attack,
            seed=task.seed,
            workload=task.workload,
            rounds=0,
            correct_messages=0,
            correct_bits=0,
            peak_message_bits=0,
            byzantine=(),
            report=report,
            failed=True,
            error=message,
        )

    @property
    def max_name(self) -> int:
        return max(self.report.names.values()) if self.report.names else 0

    @property
    def effective_rounds(self) -> int:
        """Decision latency: settled-round when traced (baselines that idle
        to a fixed horizon settle early), wall rounds otherwise."""
        return self.settled_round if self.settled_round is not None else self.rounds

    def to_dict(self) -> dict:
        """JSON-ready payload (cache schema)."""
        report = self.report
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "attack": self.attack,
            "seed": self.seed,
            "workload": self.workload,
            "rounds": self.rounds,
            "correct_messages": self.correct_messages,
            "correct_bits": self.correct_bits,
            "peak_message_bits": self.peak_message_bits,
            "byzantine": list(self.byzantine),
            "settled_round": self.settled_round,
            "elapsed_s": self.elapsed_s,
            "failed": self.failed,
            "error": self.error,
            "report": {
                "names": {str(k): v for k, v in report.names.items()},
                "namespace": report.namespace,
                "validity": report.validity,
                "termination": report.termination,
                "uniqueness": report.uniqueness,
                "order_preservation": report.order_preservation,
                "violations": list(report.violations),
                "beyond_model": report.beyond_model,
                "injected": dict(report.injected),
                "model": report.model,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSummary":
        """Inverse of :meth:`to_dict` (original-id keys back to ints)."""
        report = payload["report"]
        return cls(
            algorithm=payload["algorithm"],
            n=payload["n"],
            t=payload["t"],
            attack=payload["attack"],
            seed=payload["seed"],
            workload=payload["workload"],
            rounds=payload["rounds"],
            correct_messages=payload["correct_messages"],
            correct_bits=payload["correct_bits"],
            peak_message_bits=payload["peak_message_bits"],
            byzantine=tuple(payload["byzantine"]),
            settled_round=payload["settled_round"],
            elapsed_s=payload["elapsed_s"],
            failed=payload.get("failed", False),
            error=payload.get("error"),
            report=PropertyReport(
                names={int(k): v for k, v in report["names"].items()},
                namespace=report["namespace"],
                validity=report["validity"],
                termination=report["termination"],
                uniqueness=report["uniqueness"],
                order_preservation=report["order_preservation"],
                violations=list(report["violations"]),
                beyond_model=report.get("beyond_model", False),
                injected=dict(report.get("injected", {})),
                model=report.get("model"),
            ),
        )


def _settled_round(record: ExperimentRecord) -> Optional[int]:
    """Last settle event among correct processes, if the run was traced."""
    trace = record.result.trace
    if trace is None:
        return None
    rounds = [
        event.round_no
        for event in trace.select(event="settled")
        if event.process in record.result.correct
    ]
    return max(rounds) if rounds else None


def summarize_record(
    record: ExperimentRecord, workload: str = "uniform", elapsed_s: float = 0.0
) -> ExperimentSummary:
    """Distil a full :class:`ExperimentRecord` into a transferable summary."""
    return ExperimentSummary(
        algorithm=record.algorithm,
        n=record.n,
        t=record.t,
        attack=record.attack,
        seed=record.seed,
        workload=workload,
        rounds=record.rounds,
        correct_messages=record.correct_messages,
        correct_bits=record.correct_bits,
        peak_message_bits=record.peak_message_bits,
        byzantine=tuple(record.result.byzantine),
        report=record.report,
        settled_round=_settled_round(record),
        elapsed_s=elapsed_s,
    )


def execute_task(task: RunTask) -> ExperimentSummary:
    """Run one sweep cell and summarise it (the worker entry point)."""
    start = time.perf_counter()
    ids = make_ids(task.workload, task.n, seed=task.seed)
    record = run_experiment(
        task.algorithm,
        task.n,
        task.t,
        ids,
        attack=task.attack,
        seed=task.seed,
        collect_trace=task.collect_trace,
        max_rounds=task.max_rounds,
        engine=task.engine,
        monitor=task.monitor,
        chaos=task.chaos,
        model=task.model,
    )
    return summarize_record(
        record, workload=task.workload, elapsed_s=time.perf_counter() - start
    )


class ResultCache:
    """On-disk memo of finished sweep cells, one JSON file per configuration.

    Keys are SHA-256 hashes of the full :meth:`RunTask.to_dict` payload plus
    a schema version. Deriving the key from ``to_dict`` — rather than an
    independently maintained field list — means every semantics-affecting
    knob (algorithm, size, attack, seed, workload, round cap, tracing,
    engine, safety monitoring, chaos fault plan) participates by
    construction: adding a field to :class:`RunTask` cannot silently leave
    the cache key behind. Schema bumps invalidate everything at once.

    Entries are checksummed envelopes ``{"schema", "checksum", "summary"}``:
    :meth:`load` verifies the schema version and the SHA-256 of the summary
    payload before trusting an entry, so a truncated write, a flipped bit or
    a stale-schema file is *logged and recomputed* — treated as a miss, never
    as an error and never as silently-wrong data. Failed summaries
    (:attr:`ExperimentSummary.failed`) are refused by :meth:`store`.

    The engine is part of the key even though all engines are proven to
    produce identical summaries: a cache hit must never mask an engine
    divergence that the differential suite would have caught.

    Storage delegates to a flat-rooted
    :class:`~repro.analysis.store.LocalDirStore` memo area — the cache *is*
    the fabric's memo tier, and the on-disk files are byte-identical to the
    pre-fabric layout, so existing caches keep hitting.
    """

    #: Bumped whenever key composition or entry layout changes (5: keys
    #: cover the system-model axis and summaries carry the report's model).
    SCHEMA = 5

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._store = LocalDirStore(self.root, memo_subdir="")

    def key(self, task: RunTask) -> str:
        payload = json.dumps(
            {"schema": self.SCHEMA, **task.to_dict()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, task: RunTask) -> Path:
        return self.root / f"{self.key(task)}.json"

    def load(self, task: RunTask) -> Optional[ExperimentSummary]:
        """Return the cached summary for ``task``, or ``None`` on a miss.

        A present-but-unusable entry (corrupt JSON, truncated write, bad
        checksum, stale schema) is logged and treated as a miss so the
        configuration is recomputed.
        """
        key = self.key(task)
        try:
            body = self._store.load_memo(key, schema=self.SCHEMA)
            if body is None:
                return None  # plain miss: no entry
            summary = ExperimentSummary.from_dict(body)
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning(
                "discarding unusable cache entry %s (%s); recomputing",
                f"{key}.json", exc,
            )
            return None
        summary.cached = True
        return summary

    def store(self, task: RunTask, summary: ExperimentSummary) -> None:
        """Persist ``summary`` under ``task``'s key.

        The write is atomic *and durable*: temp file in the cache
        directory, flush + fsync, then ``os.replace`` — without the fsync,
        a rename can land before the data on a crash and leave a
        zero-length "entry" at the final path. A kill at any point leaves
        either no entry or a complete one; a leftover ``.tmp`` from a
        killed writer is inert (never read, overwritten by the next store).

        Failed summaries are never cached: a transient worker failure must
        not poison future sweeps.
        """
        if summary.failed:
            return
        self._store.store_memo(
            self.key(task), summary.to_dict(), schema=self.SCHEMA
        )


@dataclass
class SweepStats:
    """Accounting for one :meth:`SweepExecutor.run` invocation."""

    executed: int = 0
    from_cache: int = 0
    elapsed_s: float = 0.0
    #: Configurations whose first attempt raised and were retried.
    retried: int = 0
    #: Configurations that failed even after the retry (their rows carry
    #: ``failed=True`` — they are reported, not dropped).
    failed: int = 0
    #: Cells restored from a result store instead of executed (resume).
    restored: int = 0
    #: Budgeted cells killed for exceeding a wall/RSS budget.
    budget_kills: int = 0


class SweepExecutor:
    """Fan a sweep grid out over a worker pool, cache-first.

    ``workers=None`` uses one worker per CPU; ``workers=1`` keeps everything
    in-process. ``cache`` is a directory path or a :class:`ResultCache`;
    ``None`` disables caching. ``run_hook`` (if given) is called in the
    parent with each :class:`RunTask` that is actually executed — tests use
    it as a run counter, progress displays as a ticker.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Union[None, str, Path, ResultCache] = None,
        run_hook: Optional[Callable[[RunTask], None]] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.run_hook = run_hook
        self.stats = SweepStats()

    def run(
        self,
        config,
        *,
        budget=None,
        store=None,
        coordinator_only: bool = False,
        run_id: str = "fabric",
    ) -> List[ExperimentSummary]:
        """Execute (or restore) every configuration in ``config``'s grid.

        The returned list is ordered exactly as
        ``SweepConfig.configurations()`` yields, regardless of worker
        scheduling.

        Without ``store`` the grid runs on the process pool (in-process
        for ``workers=1``) and nothing outlives the call. ``store`` (a
        store URL or :class:`~repro.analysis.store.ResultStore`) makes the
        sweep durable by running it on the coordinator/worker fabric:
        cells are seeded into the store and executed by lease-claiming
        workers (in-process for ``workers=1``, spawned subprocesses
        otherwise, or externally started ones with
        ``coordinator_only=True``), optionally under a per-cell
        ``budget``. Cells the store already holds as terminal are restored
        instead of executed (resume), and SIGINT/SIGTERM drains the
        workers and raises :class:`~repro.sim.errors.RunInterrupted`.
        """
        start = time.perf_counter()
        tasks = self.tasks_for(config)
        if store is not None:
            return self._run_fabric(
                config, tasks, store, budget, start,
                coordinator_only=coordinator_only, run_id=run_id,
            )
        results: List[Optional[ExperimentSummary]] = [None] * len(tasks)

        misses: List[Tuple[int, RunTask]] = []
        from_cache = 0
        for index, task in enumerate(tasks):
            summary = self.cache.load(task) if self.cache is not None else None
            if summary is not None:
                results[index] = summary
                from_cache += 1
            else:
                misses.append((index, task))

        if self.run_hook is not None:
            for _, task in misses:
                self.run_hook(task)

        retried, failed = self._run_misses(misses, results)

        if self.cache is not None:
            for index, task in misses:
                self.cache.store(task, results[index])

        self.stats = SweepStats(
            executed=len(misses),
            from_cache=from_cache,
            elapsed_s=time.perf_counter() - start,
            retried=retried,
            failed=failed,
        )
        return results  # type: ignore[return-value]

    @staticmethod
    def tasks_for(config) -> List[RunTask]:
        """Expand ``config``'s grid into the ordered cell list."""
        return [
            RunTask(
                algorithm=algorithm,
                n=n,
                t=t,
                attack=attack,
                seed=seed,
                workload=config.workload,
                collect_trace=config.collect_trace,
                max_rounds=config.max_rounds,
                engine=getattr(config, "engine", DEFAULT_ENGINE),
                model=getattr(config, "model", None),
            )
            for algorithm, n, t, attack, seed in config.configurations()
        ]

    @staticmethod
    def fingerprint(tasks: Sequence[RunTask]) -> str:
        """The sweep's config fingerprint (over the expanded cell list)."""
        return config_fingerprint("sweep", [task.to_dict() for task in tasks])

    def _run_fabric(
        self,
        config,
        tasks: List[RunTask],
        store,
        budget,
        start: float,
        *,
        coordinator_only: bool,
        run_id: str,
    ) -> List[ExperimentSummary]:
        """The fabric path: seed a store, let lease-claiming workers drain
        it, stream the rows back. Ordering, caching, retry-once semantics
        and failure rows all match the in-process paths, so the resulting
        report is canonically identical. The store header records the
        grid, cache and budget so ``runs resume --store`` can rebuild the
        run from the store alone."""
        from .coordinator import Coordinator  # local: avoids the cycle

        coordinator = Coordinator(
            store,
            workers=self.workers,
            cache=self.cache,
            run_hook=self.run_hook,
            budget=budget,
            coordinator_only=coordinator_only,
        )
        results = coordinator.run(
            "sweep",
            [task.to_dict() for task in tasks],
            fingerprint=self.fingerprint(tasks),
            run_id=run_id,
            config={
                "sweep": config.to_dict(),
                "cache": str(self.cache.root) if self.cache else None,
                "budget": asdict(budget) if budget is not None else None,
            },
        )
        cstats = coordinator.stats
        self.stats = SweepStats(
            executed=cstats.executed,
            from_cache=cstats.from_cache,
            elapsed_s=time.perf_counter() - start,
            retried=cstats.retried,
            failed=cstats.failed,
            restored=cstats.restored,
            budget_kills=cstats.budget_kills,
        )
        return results

    def _run_misses(
        self,
        misses: List[Tuple[int, RunTask]],
        results: List[Optional[ExperimentSummary]],
    ) -> Tuple[int, int]:
        """Execute the cache misses, surviving worker failures.

        A task whose attempt raises is retried exactly once; a second failure
        records an :meth:`ExperimentSummary.for_failure` row at the task's
        index and the sweep continues — one bad configuration never aborts
        the grid. Returns ``(retried, failed)`` counts.
        """
        if self.workers == 1 or len(misses) <= 1:
            first_failures = self._run_serial(misses, results)
        else:
            first_failures = self._run_pool(misses, results)

        failed = 0
        for index, task, error in first_failures:
            logger.warning(
                "sweep cell %s raised %s: %s; retrying once",
                task,
                type(error).__name__,
                error,
            )
            try:
                results[index] = execute_task(task)
            except Exception as retry_error:  # noqa: BLE001 — recorded, not hidden
                logger.error(
                    "sweep cell %s failed again (%s: %s); recording as failed",
                    task,
                    type(retry_error).__name__,
                    retry_error,
                )
                results[index] = ExperimentSummary.for_failure(task, retry_error)
                failed += 1
        return len(first_failures), failed

    @staticmethod
    def _run_serial(
        misses: List[Tuple[int, RunTask]],
        results: List[Optional[ExperimentSummary]],
    ) -> List[Tuple[int, RunTask, BaseException]]:
        failures: List[Tuple[int, RunTask, BaseException]] = []
        for index, task in misses:
            try:
                results[index] = execute_task(task)
            except Exception as error:  # noqa: BLE001 — retried by caller
                failures.append((index, task, error))
        return failures

    def _run_pool(
        self,
        misses: List[Tuple[int, RunTask]],
        results: List[Optional[ExperimentSummary]],
    ) -> List[Tuple[int, RunTask, BaseException]]:
        failures: List[Tuple[int, RunTask, BaseException]] = []
        pool_size = min(self.workers, len(misses))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = {
                pool.submit(execute_task, task): (index, task)
                for index, task in misses
            }
            for future in as_completed(futures):
                index, task = futures[future]
                try:
                    results[index] = future.result()
                except Exception as error:  # noqa: BLE001 — retried by caller
                    failures.append((index, task, error))
        failures.sort(key=lambda item: item[0])
        return failures


def _call_star(item: Tuple[Callable, tuple]):
    fn, args = item
    return fn(*args)


def parallel_map(
    fn: Callable,
    argtuples: Iterable[Sequence],
    *,
    workers: Optional[int] = None,
) -> list:
    """Ordered ``[fn(*args) for args in argtuples]`` over a process pool.

    The escape hatch for benchmark grids that call ``run_protocol`` with
    custom options and so cannot go through :class:`SweepExecutor`. ``fn``
    and every argument must be picklable (module-level functions and
    primitives/dataclasses). ``workers=1`` — and single-item inputs — run
    serially in-process; ``workers=None`` uses one worker per CPU.
    """
    tasks = [tuple(args) for args in argtuples]
    workers = resolve_workers(workers)
    if workers == 1 or len(tasks) <= 1:
        return [fn(*args) for args in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_call_star, [(fn, args) for args in tasks]))
