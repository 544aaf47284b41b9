"""``sweep-grid``: the E1 grid as one closed batch on the durable fabric.

Sizes 4:1, 7:2, 8:2, 10:3, 13:4 × {alg1, alg1-constant, alg4} × every
attack registered for each algorithm × three seeds, executed by
``SweepExecutor(workers=2).run(config, store="sqlite:...")``: the
coordinator runs in this process and spawns two ``repro-renaming worker``
processes per batch (the default arrangement a user of ``--store`` gets
on two cores). Batches repeat the same grid into a fresh store until the
window ends; the seeds come from ``--seed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import common
import layers
import tracing

SIZES = [(4, 1), (7, 2), (8, 2), (10, 3), (13, 4)]
ALGORITHMS = ("alg1", "alg1-constant", "alg4")
LABELS = {"alg1": "alg1", "alg1-constant": "alg1c", "alg4": "alg4"}
WORKERS = 2
SEEDS_PER_BATCH = 3
MIN_BATCHES = 3
#: Fixed tail percentile (a batch has > 300 cells; 95 leaves > 10 beyond).
TAIL_PCT = 95.0
#: Batch index of the first traced batch (the exact counts' reference unit).
FIRST_TRACED = 1000


def config(seed: int):
    from repro.adversary import ALG1_ATTACKS, ALG4_ATTACKS
    from repro.analysis.sweep import SweepConfig

    return SweepConfig(
        algorithms=list(ALGORITHMS),
        sizes=SIZES,
        attacks=sorted(set(ALG1_ATTACKS) | set(ALG4_ATTACKS)),
        seeds=[seed * 10 + k for k in range(SEEDS_PER_BATCH)],
    )


def check_row(row, result: common.Result) -> None:
    """A row is ok, and its names re-check as unique, order-preserving
    and inside the namespace the paper proves for the algorithm at the
    row's N and t (derived here, not taken from the row's own report)."""
    from repro.analysis.experiments import ALGORITHMS
    from repro.core import SystemParams
    from repro.service.load import validate_names

    result.attempted += 1
    where = f"sweep cell {row.algorithm} n={row.n} t={row.t} {row.attack} seed={row.seed}"
    if row.failed or not row.report.ok:
        result.fail(f"{where}: {row.error or row.report.violations}")
        return
    namespace = ALGORITHMS[row.algorithm].namespace(SystemParams(row.n, row.t))
    problems = validate_names(sorted(row.report.names.items()), namespace,
                              expected_count=row.n - row.t, order_preserving=True)
    if problems:
        result.fail(f"{where}: {'; '.join(problems)}")


def digest(rows) -> str:
    """Canonical digest of the rows, without timings and cache flags."""
    body = []
    for row in rows:
        payload = row.to_dict()
        payload.pop("elapsed_s", None)
        body.append(payload)
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def stdout_to_stderr():
    """Worker processes inherit fd 1 and print a stats line; keep this
    program's stdout for the report."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


class Spawner:
    """Stands in for the coordinator's ``subprocess`` module in the traced
    phase: each ``repro.cli worker`` command is started through
    ``launch.py`` with a trace file of its own. Nothing else changes."""

    TimeoutExpired = subprocess.TimeoutExpired

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.spawned: List[Tuple[str, int]] = []

    def Popen(self, cmd, **kwargs):  # noqa: N802 — mirrors subprocess.Popen
        if cmd[1:3] != ["-m", "repro.cli"]:
            raise RuntimeError(f"unexpected worker command {cmd!r}")
        out = f"{self.prefix}-w{len(self.spawned)}.json"
        self.spawned.append((out, time.perf_counter_ns()))
        return subprocess.Popen([cmd[0], common.LAUNCH, "worker", out] + cmd[3:], **kwargs)


@dataclass
class Batch:
    rows: list
    #: perf_counter at the batch's start and end.
    start: float
    end: float
    #: Batch start until the first claim in the store event log (s, unscaled).
    setup_s: float
    claims: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def batch(seed: int, index: int, result: common.Result, reference: Dict[str, str],
          tracer=None) -> Batch:
    """One closed batch into a fresh store, checked."""
    from repro.analysis.executor import SweepExecutor
    from repro.analysis.store import open_store, store_doctor

    path = os.path.join(common.WORK, f"sweep-{seed}-{index}.db")
    scratch = [path + suffix for suffix in ("", "-wal", "-shm")]
    common.remove(*scratch)
    started_wall = time.time()
    start = time.perf_counter()
    execute = SweepExecutor(workers=WORKERS).run
    if tracer is not None:
        execute = tracer.wrap("bench.batch", execute)
    with stdout_to_stderr():
        rows = execute(config(seed), store=f"sqlite:{path}")
    end = time.perf_counter()

    store = open_store(f"sqlite:{path}")
    try:
        events = store.events()
        doctor = store_doctor(store)
    finally:
        store.close()
        common.remove(*scratch)
    claims = [e for e in events if e["event"] in ("claimed", "reclaimed")]
    setup = min(e["at"] for e in claims) - started_wall if claims else end - start
    for row in rows:
        check_row(row, result)
    if doctor["double_executions"] or doctor["reclaims"] or len(claims) != len(rows):
        result.fail(f"batch {index}: re-execution in the store event log "
                    f"({len(claims)} claims for {len(rows)} cells, "
                    f"{doctor['reclaims']} reclaimed, "
                    f"{len(doctor['double_executions'])} double executions)")
    rows_digest = digest(rows)
    if reference.setdefault("digest", rows_digest) != rows_digest:
        result.fail(f"batch {index}: row digest {rows_digest[:12]} differs from "
                    f"{reference['digest'][:12]}")
    return Batch(rows, start, end, setup, len(claims))


def window(seed: int, seconds: float, min_batches: int, result: common.Result,
           reference: Dict[str, str], first: int = 0, on_batch=None,
           tracer=None) -> List[Batch]:
    """Batches until ``seconds`` have passed and ``min_batches`` ran."""
    batches: List[Batch] = []
    start = time.perf_counter()
    index = first
    while True:
        if on_batch is not None:
            on_batch(index)
        batches.append(batch(seed, index, result, reference, tracer))
        index += 1
        if time.perf_counter() - start >= seconds and len(batches) >= min_batches:
            return batches


def end_to_end(batches: List[Batch]) -> Dict[str, float]:
    rows = [row for b in batches for row in b.rows]
    every = [row.elapsed_s for row in rows]
    by_label: Dict[str, List[float]] = {label: [] for label in LABELS.values()}
    for row in rows:
        by_label[LABELS[row.algorithm]].append(row.elapsed_s)
    return {
        "throughput_per_s": len(rows) / sum(b.wall_s for b in batches),
        "latency_p50_ms": 1000 * statistics.median(every),
        "latency_tail_ms": 1000 * common.percentile(every, TAIL_PCT),
        "alg1_run_ms": 1000 * statistics.median(by_label["alg1"]),
        "alg1c_run_ms": 1000 * statistics.median(by_label["alg1c"]),
        "alg4_run_ms": 1000 * statistics.median(by_label["alg4"]),
    }


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    result = common.Result()
    reference: Dict[str, str] = {}
    if trace:
        return traced(seed, seconds, result, reference)
    batches = window(seed, seconds, MIN_BATCHES, result, reference)
    figures = end_to_end(batches)
    figures["setup_s"] = statistics.median(b.setup_s for b in batches)
    figures["peak_rss_mb"] = max(common.self_rss_mb(), common.children_rss_mb())
    result.metrics = figures
    rows = [row for b in batches for row in b.rows]
    result.artifact["samples_s"] = {
        "batch_wall": [b.wall_s for b in batches],
        "setup": [b.setup_s for b in batches],
        **{label: [r.elapsed_s for r in rows if LABELS[r.algorithm] == label]
           for label in LABELS.values()},
    }
    result.lines += [
        f"batches: {len(batches)} x {len(batches[0].rows)} cells, batch wall "
        f"{', '.join(f'{b.wall_s:.2f}' for b in batches)} s",
        f"sweep.cells_per_s: {figures['throughput_per_s']:.2f}",
        f"cell compute: {common.timing([row.elapsed_s for row in rows])}",
        f"row digest: {reference['digest']}",
    ]
    return result


def traced(seed: int, seconds: float, result: common.Result, reference) -> common.Result:
    """Untraced batches, then at least two batches whose workers start
    through ``launch.py`` and whose coordinator-side store calls are
    spanned. The first two traced batches run the same grid, so their
    counts must repeat exactly."""
    from repro.analysis import coordinator

    plain = end_to_end(window(seed, seconds / 2, 1, result, reference))
    tracer = tracing.Tracer()
    tracing.install_coordinator(tracer)
    spawners: Dict[int, Spawner] = {}
    original = coordinator.subprocess

    def on_batch(index: int) -> None:
        spawners[index] = Spawner(os.path.join(common.WORK, f"trace-sweep-{seed}-{index}"))
        coordinator.subprocess = spawners[index]
        tracer.begin_op(index)

    try:
        batches = window(seed, seconds / 2, 2, result, reference, first=FIRST_TRACED,
                         on_batch=on_batch, tracer=tracer)
    finally:
        coordinator.subprocess = original
    report = layers.sweep(tracer, spawners, batches, FIRST_TRACED)
    report.overhead = layers.overhead(plain, end_to_end(batches))
    return layers.finish(result, report)
