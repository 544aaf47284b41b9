"""``service-mix``: the session daemon as its own process under a closed loop.

``repro-renaming serve --port 0 --port-file F --session-journal J`` runs
with its default settings in a subprocess. This process is the load: one
client, sending its next session through
:func:`repro.service.load.run_session` only after its previous one
returned (closed loop, concurrency 1). Sessions come from ``--seed`` in
four classes:

* ``small`` (60 %): anonymous, auto-selects Alg. 4 — 8 ids with t=0 or
  11 ids with t=2 ``conforming``;
* ``byz`` (15 %): anonymous, auto-selects Alg. 1 (7 ids, t=2,
  ``rank-skew``) or Alg. 1-constant (9 ids, t=2, ``id-forging``);
* ``tokened`` (15 %): a ``small`` shape with a fresh idempotency token
  (journal append + fsync before the reply);
* ``replay`` (10 %): an earlier token resubmitted, answered from the
  journal without a run.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import common
import layers
import tracing

CLASSES = ("small", "byz", "tokened", "replay")
WEIGHTS = (0.60, 0.15, 0.15, 0.10)
#: Seconds of load between two host-speed probes.
PROBE_EVERY_S = 0.25
SETUP_REPEATS = 3
#: Fixed tail percentile (a window holds thousands of sessions).
TAIL_PCT = 99.0
EXPECTED = {  # (n, t) -> algorithm the daemon's auto-selection must pick
    (8, 0): "alg4", (11, 2): "alg4", (7, 2): "alg1", (9, 2): "alg1-constant",
}


@dataclass(frozen=True)
class Spec:
    index: int
    kind: str
    ids: Tuple[int, ...]
    t: int
    attack: str
    seed: int
    token: str = ""
    #: For a replay: the index of the session whose token it resubmits.
    original: int = -1

    @property
    def algorithm(self) -> str:
        return EXPECTED[(len(self.ids), self.t)]


def plan(seed: int) -> Iterator[Spec]:
    """The seeded session sequence (the same seed gives the same sessions)."""
    from repro.workloads import make_ids

    rng = random.Random(seed)
    tokened: List[Spec] = []
    index = 0
    while True:
        kind = rng.choices(CLASSES, WEIGHTS)[0]
        if kind == "replay" and not tokened:
            kind = "tokened"
        if kind == "replay":
            earlier = rng.choice(tokened)
            yield Spec(index, "replay", earlier.ids, earlier.t, earlier.attack,
                       earlier.seed, earlier.token, earlier.index)
        else:
            if kind == "byz":
                n, t, attack = rng.choice(((7, 2, "rank-skew"), (9, 2, "id-forging")))
            else:
                n, t, attack = rng.choice(((8, 0, "silent"), (11, 2, "conforming")))
            ids = tuple(make_ids("uniform", n, seed=seed * 1_000_003 + index))
            token = f"s{seed}-{index}" if kind == "tokened" else ""
            spec = Spec(index, kind, ids, t, attack, index, token)
            if kind == "tokened":
                tokened.append(spec)
            yield spec
        index += 1


# --------------------------------------------------------------------- daemon


class Daemon:
    """One ``serve`` subprocess with a fresh journal and port file."""

    def __init__(self, tag: str, trace_out: Optional[str] = None) -> None:
        self.port_file = os.path.join(common.WORK, f"port-{tag}")
        self.journal = os.path.join(common.WORK, f"journal-{tag}.jsonl")
        self.log = os.path.join(common.WORK, f"serve-{tag}.log")
        common.remove(self.port_file, self.journal)
        args = ["serve", "--port", "0", "--port-file", self.port_file,
                "--session-journal", self.journal]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli"] + args
        else:
            cmd = [sys.executable, common.LAUNCH, "serve", trace_out] + args
        self.spawned = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(cmd, env=common.program_env(),
                                         stdout=log, stderr=subprocess.STDOUT)
        self.setup_s = self._wait_ready()

    def _wait_ready(self, timeout_s: float = 60.0) -> float:
        start = self.spawned
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}; see {self.log}")
            if time.perf_counter() - start > timeout_s:
                self.stop()
                raise RuntimeError("daemon did not write its port file")
            time.sleep(0.002)
        self.ready = time.perf_counter()
        text = open(self.port_file).read().strip()
        host, _, port = text.rpartition(":")
        self.address = (host, int(port))
        return self.ready - start

    def peak_rss_mb(self) -> Optional[float]:
        return common.proc_hwm_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=10)
        common.remove(self.port_file, self.journal, *([self.log] if code == 0 else []))
        return code


# --------------------------------------------------------------------- client


@dataclass
class Done:
    spec: Spec
    #: perf_counter when the session was sent, and its client latency (s).
    began: float
    latency_s: float
    outcome: object


async def drive(address, seed: int, seconds: float, result: common.Result,
                tracer=None) -> Tuple[List[Done], common.HostSpeed]:
    """One closed-loop client until ``seconds`` pass; checks each session.
    Between sessions, every PROBE_EVERY_S, it probes the host's speed (the
    daemon is idle then)."""
    from repro.service import load

    sessions = plan(seed)
    originals: Dict[int, Done] = {}
    done: List[Done] = []
    speed = common.HostSpeed()
    host, port = address
    call = load.run_session
    if tracer is not None:
        call = tracer.wrap_async("bench.session", call)
    speed.probe()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if time.perf_counter() - speed.samples[-1][0] >= PROBE_EVERY_S:
            speed.probe()
        spec = next(sessions)
        token = tracer.begin_op(spec.index) if tracer is not None else None
        began = time.perf_counter()
        outcome = await call(host, port, ids=spec.ids, t=spec.t, attack=spec.attack,
                             seed=spec.seed, session_id=spec.token)
        latency = time.perf_counter() - began
        if token is not None:
            tracing.CURRENT.reset(token)
        record = Done(spec, began, latency, outcome)
        check(record, originals, result)
        if spec.kind == "tokened":
            originals[spec.index] = record
        done.append(record)
    speed.probe()
    return done, speed


def check(record: Done, originals: Dict[int, Done], result: common.Result) -> None:
    """Completed, the algorithm the regime calls for, names that re-check
    as unique, order-preserving and inside the namespace the paper proves
    for that algorithm at this N and t (derived here, not taken from the
    daemon's certificate), and a replay equal to the original assignment."""
    from repro.analysis.experiments import ALGORITHMS
    from repro.core import SystemParams
    from repro.service.frames import encode_frame
    from repro.service.load import validate_names
    from repro.service.messages import NamesAssignedMessage

    spec, outcome = record.spec, record.outcome
    result.attempted += 1
    where = f"session {spec.index} ({spec.kind})"
    if outcome.status != "completed":
        result.fail(f"{where}: {outcome.status} {outcome.code} {outcome.detail}")
        return
    if outcome.algorithm != spec.algorithm:
        result.fail(f"{where}: ran {outcome.algorithm}, expected {spec.algorithm}")
        return
    n = len(spec.ids)
    namespace = ALGORITHMS[spec.algorithm].namespace(SystemParams(n, spec.t))
    problems = validate_names(outcome.entries, namespace, expected_count=n - spec.t,
                              order_preserving=True)
    if problems:
        result.fail(f"{where}: {'; '.join(problems)}")
        return
    if spec.kind == "replay":
        if spec.original not in originals:
            result.fail(f"{where}: its original session {spec.original} did not complete")
            return
        first = originals[spec.original].outcome

        def frames(o):
            names = NamesAssignedMessage(entries=o.entries, algorithm=o.algorithm,
                                         rounds=o.rounds)
            return encode_frame(names) + encode_frame(o.certificate)

        if frames(outcome) != frames(first):
            result.fail(f"{where}: replayed frames differ from session {spec.original}")


def scaled(done: List[Done], speed: common.HostSpeed) -> List[float]:
    """Each session's latency at the reference host speed, from the two
    probes on either side of it."""
    return [d.latency_s * speed.factor(d.began, d.began + d.latency_s, nearest=2)
            for d in done]


def end_to_end(done: List[Done], speed: common.HostSpeed) -> Dict[str, float]:
    every = scaled(done, speed)
    by_algorithm: Dict[str, List[float]] = {"alg1": [], "alg1-constant": [], "alg4": []}
    for d, latency in zip(done, every):
        if d.spec.kind in ("small", "byz"):
            by_algorithm[d.spec.algorithm].append(latency)
    return {
        "throughput_per_s": len(every) / sum(every),
        "latency_p50_ms": 1000 * statistics.median(every),
        "latency_tail_ms": 1000 * common.percentile(every, TAIL_PCT),
        "alg1_run_ms": 1000 * statistics.median(by_algorithm["alg1"]),
        "alg1c_run_ms": 1000 * statistics.median(by_algorithm["alg1-constant"]),
        "alg4_run_ms": 1000 * statistics.median(by_algorithm["alg4"]),
    }


def class_lines(done: List[Done], speed: common.HostSpeed) -> List[str]:
    every = scaled(done, speed)
    lines = []
    for kind in CLASSES:
        values = [x for d, x in zip(done, every) if d.spec.kind == kind]
        raw = [d.latency_s for d in done if d.spec.kind == kind]
        lines.append(f"svc.{kind}: {common.timing(values)} [unscaled: {common.timing(raw)}]")
    return lines


def run(seed: int, seconds: float, trace: bool) -> common.Result:
    # Client, probes and every daemon (which inherits the mask) share one
    # core. Across two cores, each small session pays cross-core wake-ups
    # whose cost on a shared virtual machine swings with the neighbours'
    # load and does not follow the host-speed probe.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = common.Result()
    setup_speed = common.HostSpeed()
    setups = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            daemon.stop()
        setup_speed.probe(3)
        daemon = Daemon(f"{seed}-{attempt}")
        setup_speed.probe(3)
        setups.append(daemon.setup_s
                      * setup_speed.factor(daemon.spawned, daemon.ready, nearest=3))
    try:
        window = seconds / 2 if trace else seconds
        done, speed = asyncio.run(drive(daemon.address, seed, window, result))
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    if code != 0:
        result.fail(f"daemon exited with code {code} after draining")
    plain = end_to_end(done, speed)
    if trace:
        return traced(seed, seconds, result, plain)
    figures = dict(plain)
    figures["setup_s"] = statistics.median(setups)
    figures["peak_rss_mb"] = rss if rss is not None else 0.0
    result.metrics = figures
    every = scaled(done, speed)
    result.artifact["samples_s"] = {
        kind: [x for d, x in zip(done, every) if d.spec.kind == kind] for kind in CLASSES
    }
    result.artifact["sessions"] = [(d.spec.kind, d.began, d.latency_s) for d in done]
    result.artifact["setup_s"] = setups
    result.artifact["probes_s"] = speed.samples
    result.lines += class_lines(done, speed)
    wall = done[-1].began + done[-1].latency_s - done[0].began
    result.lines.append(f"svc.sessions_per_s: {plain['throughput_per_s']:.2f} "
                        f"({len(done)} sessions, one client; unscaled "
                        f"{len(done) / wall:.2f} over {wall:.2f} s of loop wall)")
    result.lines.append(speed.summary())
    return result


def traced(seed: int, seconds: float, result: common.Result, plain) -> common.Result:
    """The same session sequence again against a daemon started through
    ``launch.py``, with the client-side probes installed here."""
    tracer = tracing.Tracer()
    tracing.install_client(tracer)
    out = os.path.join(common.WORK, f"trace-serve-{seed}.json")
    daemon = Daemon(f"{seed}-traced", trace_out=out)
    try:
        done, speed = asyncio.run(drive(daemon.address, seed, seconds / 2, result, tracer))
    finally:
        code = daemon.stop()
    if code != 0:
        result.fail(f"traced daemon exited with code {code} after draining")
    report = layers.service(tracer, out, done)
    common.remove(out)
    report.overhead = layers.overhead(plain, end_to_end(done, speed))
    result.lines += class_lines(done, speed)
    return layers.finish(result, report)
