"""``paper-exact``: the paper's algorithms at their tightest resilience point.

Sequential, in-process ``run_experiment(..., monitor=True)`` calls cycling
through a fixed list of cells (a closed loop with one caller). Every cell
sits where its theorem bites: Alg. 1 at N = 3t+1 (Theorem IV.10's round
bound 3⌈log₂ t⌉+7 is reached), Alg. 1-constant at N = t²+2t+1
(Theorem V.3) and Alg. 4 at N = 2t²+t+1 (Theorem VI.3). Cycle ``c`` of a
run with seed ``s`` draws its ids and run seed from ``s * 1000 + c``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import common
import layers
import tracing

#: (label, algorithm, n, t, attack, id workload)
CELLS: List[Tuple[str, str, int, int, str, str]] = [
    ("alg1", "alg1", 16, 5, "rank-skew", "uniform"),
    ("alg1", "alg1", 16, 5, "id-forging", "uniform"),
    ("alg1", "alg1", 16, 5, "divergence-valid", "uniform"),
    ("alg1c", "alg1-constant", 25, 4, "id-forging", "uniform"),
    ("alg1c", "alg1-constant", 25, 4, "rank-skew", "clustered"),
    ("alg4", "alg4", 79, 6, "selective-echo", "uniform"),
    ("alg4", "alg4", 79, 6, "selective-echo-low", "clustered"),
]
LABELS = ("alg1", "alg1c", "alg4")
#: One timed run: (label, perf_counter at start, at end).
Run = Tuple[str, float, float]
#: Fixed tail percentile; a window holds at least MIN_RUNS runs, so at
#: least ten runs lie beyond it.
TAIL_PCT = 75.0
MIN_RUNS = 40
SETUP_REPEATS = 5
#: Op ids of the counting pass (after every timed op).
COUNT_OPS = 1_000_000

SETUP_SCRIPT = (
    "from repro.analysis.experiments import run_experiment\n"
    "from repro.workloads import make_ids\n"
    "r = run_experiment('alg1', 7, 2, make_ids('uniform', 7, seed=0),"
    " attack='rank-skew', seed=0, monitor=True)\n"
    "assert r.report.ok\n"
)


def measure_setup(speed: common.HostSpeed) -> float:
    """A fresh interpreter imports the harness and finishes one tiny run;
    the wall time is scaled by the probes taken just before and after."""
    speed.probe(3)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT],
        env=common.program_env(), check=True, timeout=120,
    )
    end = time.perf_counter()
    speed.probe(3)
    return (end - start) * speed.factor(start, end, nearest=3)


def check(record, result: common.Result, where: str) -> None:
    """The paper's guarantees for one finished run: the program's own
    property report, the proven round budget, and an independent re-check
    of the outputs (unique, order-preserving, inside the namespace)."""
    from repro.analysis.experiments import ALGORITHMS
    from repro.core import SystemParams
    from repro.service.load import validate_names

    spec = ALGORITHMS[record.algorithm]
    params = SystemParams(record.n, record.t)
    budget = spec.round_budget(params)
    namespace = spec.namespace(params)
    names = sorted(record.result.new_names().items())
    problems = validate_names(names, namespace, expected_count=record.n - record.t)
    if not record.report.ok:
        result.fail(f"{where}: {'; '.join(record.report.violations)}")
    elif record.rounds > budget:
        result.fail(f"{where}: {record.rounds} rounds > proven {budget}")
    elif problems:
        result.fail(f"{where}: {'; '.join(problems)}")


def cycle(cycle_seed: int, result: common.Result, runs: List[Run],
          speed: common.HostSpeed, tracer=None, first_op: int = 0) -> None:
    """Run every cell once, each right after a host-speed probe."""
    from repro.analysis.experiments import run_experiment
    from repro.workloads import make_ids

    call = run_experiment if tracer is None else tracer.wrap("bench.run", run_experiment)
    for index, (label, algorithm, n, t, attack, kind) in enumerate(CELLS):
        ids = make_ids(kind, n, seed=cycle_seed)
        speed.probe()
        token = tracer.begin_op(first_op + index) if tracer else None
        start = time.perf_counter()
        record = call(algorithm, n, t, ids, attack=attack, seed=cycle_seed, monitor=True)
        runs.append((label, start, time.perf_counter()))
        if token is not None:
            tracing.CURRENT.reset(token)
        result.attempted += 1
        check(record, result, f"{algorithm} n={n} t={t} {attack} seed={cycle_seed}")


def warm_up(result: common.Result) -> None:
    """Import and run each algorithm once at a small size, outside the
    measured window."""
    from repro.analysis.experiments import run_experiment
    from repro.workloads import make_ids

    for algorithm, n, t in (("alg1", 7, 2), ("alg1-constant", 9, 2), ("alg4", 11, 2)):
        record = run_experiment(algorithm, n, t, make_ids("uniform", n, seed=0),
                                attack="rank-skew" if algorithm != "alg4" else "selective-echo",
                                monitor=True)
        result.attempted += 1
        check(record, result, f"warm-up {algorithm}")


def window(seed: int, seconds: float, min_runs: int, result: common.Result,
           tracer=None) -> Tuple[List[Run], common.HostSpeed]:
    """Whole cycles until ``seconds`` have passed and ``min_runs`` ran."""
    runs: List[Run] = []
    speed = common.HostSpeed()
    index = 0
    start = time.perf_counter()
    while True:
        cycle(seed * 1000 + index, result, runs, speed, tracer, first_op=index * len(CELLS))
        index += 1
        if time.perf_counter() - start >= seconds and len(runs) >= min_runs:
            speed.probe()
            return runs, speed


def scaled(runs: List[Run], speed: common.HostSpeed) -> Dict[str, List[float]]:
    """Label -> each run's wall time at the reference host speed."""
    times: Dict[str, List[float]] = {label: [] for label in LABELS}
    for label, start, end in runs:
        times[label].append((end - start) * speed.factor(start, end))
    return times


def cycle_means(runs: List[Run], speed: common.HostSpeed) -> Dict[str, List[float]]:
    """Label -> per cycle, the mean scaled time of the label's cells. A
    label's cells differ in cost (Alg. 1-constant's two cells by ~2x), so
    the median of single runs would fall between two clusters; the median
    of cycle means does not."""
    means: Dict[str, List[float]] = {label: [] for label in LABELS}
    for first in range(0, len(runs), len(CELLS)):
        one = scaled(runs[first:first + len(CELLS)], speed)
        for label in LABELS:
            means[label].append(statistics.fmean(one[label]))
    return means


def end_to_end(runs: List[Run], speed: common.HostSpeed) -> Dict[str, float]:
    every = [x for values in scaled(runs, speed).values() for x in values]
    means = cycle_means(runs, speed)
    return {
        "throughput_per_s": len(every) / sum(every),
        "latency_p50_ms": 1000 * statistics.median(every),
        "latency_tail_ms": 1000 * common.percentile(every, TAIL_PCT),
        "alg1_run_ms": 1000 * statistics.median(means["alg1"]),
        "alg1c_run_ms": 1000 * statistics.median(means["alg1c"]),
        "alg4_run_ms": 1000 * statistics.median(means["alg4"]),
    }


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    # The runs and the host-speed probes share one core, so each probe
    # sees the slowdown of the core the runs it scales ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = common.Result()
    setup_speed = common.HostSpeed()
    setups = [measure_setup(setup_speed) for _ in range(SETUP_REPEATS)]
    warm_up(result)
    if trace:
        return traced(seed, seconds, result)
    runs, speed = window(seed, seconds, MIN_RUNS, result)
    figures = end_to_end(runs, speed)
    figures["setup_s"] = statistics.median(setups)
    figures["peak_rss_mb"] = common.self_rss_mb()
    result.metrics = figures
    times = scaled(runs, speed)
    raw = {label: [end - start for lab, start, end in runs if lab == label] for label in LABELS}
    result.artifact["samples_s"] = {"scaled": times, "wall": raw, "setup": setups}
    result.artifact["probes_s"] = speed.samples
    result.artifact["runs"] = runs
    for label in LABELS:
        result.lines.append(f"{label}.run_s: {common.timing(times[label])} "
                            f"[unscaled wall: {common.timing(raw[label])}]")
    result.lines.append(f"every run: {common.timing([x for v in times.values() for x in v])}")
    result.lines.append(speed.summary())
    return result


def traced(seed: int, seconds: float, result: common.Result) -> common.Result:
    """Half the window untraced, then the other half with spans on; then
    the first cycle once more with the ``is_sound_id`` counter added, for
    the exact counts (kept out of the timed spans: it is the costliest
    probe). The first traced cycle and the counting pass run the same
    cells and seeds, so their counts must repeat exactly."""
    plain = end_to_end(*window(seed, seconds / 2, MIN_RUNS // 2, result))
    tracer = tracing.Tracer()
    tracing.install_sim(tracer, count_ids=False)
    runs, speed = window(seed, seconds / 2, MIN_RUNS // 2, result, tracer)
    tracing.install_id_counter(tracer)
    reference = range(COUNT_OPS, COUNT_OPS + len(CELLS))
    cycle(seed * 1000, result, [], common.HostSpeed(), tracer, first_op=COUNT_OPS)
    report = layers.paper_exact(tracer, reference)
    report.overhead = layers.overhead(plain, end_to_end(runs, speed))
    first = layers.protocol_exact(tracer.spans, tracer.counts(), range(len(CELLS)))
    report.repeat = ("the first traced cycle", first)
    return layers.finish(result, report)
