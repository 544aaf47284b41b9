"""Span tracing installed from outside the program.

The benchmark never edits ``src/``: it wraps the program's public entry
points where the program looks them up (module globals such as
``repro.core.renaming.is_valid_ranks``, instance methods of the live
processes handed to the engine, methods of the daemon and the store).
Each wrapper records one span — ``(span_id, parent_id, op, name, start_ns,
end_ns)`` — in memory; :meth:`Tracer.dump` writes them out when the
traced process ends.

The current ``(op, span)`` pair lives in a :class:`contextvars.ContextVar`,
so nesting is tracked per asyncio task and per thread. Work that hops to
an executor thread carries its context along explicitly (see
:func:`install_service`). Timestamps come from ``time.perf_counter_ns``,
which is ``CLOCK_MONOTONIC`` on Linux and therefore comparable between the
benchmark, the daemon and the sweep workers.

High-frequency predicates (``is_sound_id``) are counted, not spanned.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

_now = time.perf_counter_ns

#: (op, span_id) of the innermost open span; op -1 / span 0 = none.
CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(-1, 0)
)

#: Spans whose interval is time spent waiting on the peer, not work.
WAIT = "net.wait"


class Tracer:
    """In-memory span and counter sink for one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_tables: List[Dict] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------- recording

    def _counters(self) -> Dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = defaultdict(int)
            self._local.table = table
            with self._lock:
                self._counter_tables.append(table)
        return table

    def count(self, name: str, value: int = 1) -> None:
        self._counters()[(CURRENT.get()[0], name)] += value

    def counts(self) -> Dict[Tuple[int, str], int]:
        merged: Dict[Tuple[int, str], int] = defaultdict(int)
        with self._lock:
            tables = list(self._counter_tables)
        for table in tables:
            for key, value in list(table.items()):
                merged[key] += value
        return merged

    def record(self, op: int, parent: int, name: str, start: int, end: int) -> int:
        sid = next(self._ids)
        self.spans.append((sid, parent, op, name, start, end))
        return sid

    def begin_op(self, op: int):
        """Make ``op`` the current operation (no parent span)."""
        return CURRENT.set((op, 0))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A synchronous wrapper recording one span per call."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op, parent = CURRENT.get()
            sid = next(ids)
            token = CURRENT.set((op, sid))
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                CURRENT.reset(token)
                spans.append((sid, parent, op, name, start, end))

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """The coroutine-function form of :meth:`wrap`."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            op, parent = CURRENT.get()
            sid = next(ids)
            token = CURRENT.set((op, sid))
            start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _now()
                CURRENT.reset(token)
                spans.append((sid, parent, op, name, start, end))

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """A wrapper that only counts calls (for per-message predicates)."""
        count = self.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return traced

    # ---------------------------------------------------------------- output

    def dump(self, path: str, extra: dict = None) -> None:
        body = {
            "spans": self.spans,
            "counts": [[op, name, value] for (op, name), value in self.counts().items()],
        }
        if extra:
            body.update(extra)
        with open(path, "w") as handle:
            json.dump(body, handle)


def load_dump(path: str) -> Tuple[List[tuple], Dict[Tuple[int, str], int], dict]:
    with open(path) as handle:
        body = json.load(handle)
    counts: Dict[Tuple[int, str], int] = defaultdict(int)
    for op, name, value in body.pop("counts"):
        counts[(op, name)] += value
    spans = [tuple(span) for span in body.pop("spans")]
    return spans, counts, body


# --------------------------------------------------------------------------
# self time
# --------------------------------------------------------------------------


def self_times(spans: Iterable[tuple]) -> Dict[int, int]:
    """span id -> duration minus the part covered by its child spans.

    Children of one span run one after another (synchronous calls, or
    awaits of one task), so the covered part is the sum of their
    durations, clipped to the parent's interval.
    """
    spans = list(spans)
    covered: Dict[int, int] = defaultdict(int)
    bounds = {s[0]: (s[4], s[5]) for s in spans}
    for sid, parent, _op, _name, start, end in spans:
        if parent and parent in bounds:
            p_start, p_end = bounds[parent]
            covered[parent] += max(0, min(end, p_end) - max(start, p_start))
    return {s[0]: max(0, (s[5] - s[4]) - covered[s[0]]) for s in spans}


def layer_self_ns(spans: Iterable[tuple], ops=None) -> Dict[str, int]:
    """Total self time per span name (restricted to ``ops`` if given)."""
    spans = [s for s in spans if ops is None or s[2] in ops]
    selfs = self_times(spans)
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span[3]] += selfs[span[0]]
    return dict(totals)


def calls(spans: Iterable[tuple]) -> Dict[str, int]:
    out: Dict[str, int] = defaultdict(int)
    for span in spans:
        out[span[3]] += 1
    return dict(out)


# --------------------------------------------------------------------------
# installers — one per layer group, each installed once per process
# --------------------------------------------------------------------------


def install_id_counter(tracer: Tracer) -> None:
    """Count ``is_sound_id`` calls wherever the protocols look it up.

    It runs once per echoed id (millions of calls per Alg. 4 run at
    N ≈ 100), so the counting wrapper is the costliest probe; workloads
    that can keep it out of their timed window do."""
    from repro.core import fast, id_selection, validation

    for module in (validation, fast, id_selection):
        module.is_sound_id = tracer.counted(
            "core.validation.is_sound_id", module.is_sound_id
        )


def install_sim(tracer: Tracer, count_ids: bool = True) -> None:
    """Wrap the simulation and protocol layers.

    * ``sim.runner`` — :func:`run_protocol` as called by the experiment
      harness and the session runner (its self time is run set-up and
      result assembly); its result's :class:`RunMetrics` are counted.
    * ``sim.engine`` — the engine's ``execute``; inside it the correct
      processes' ``send``/``deliver`` (``core.protocol.*``), the
      adversary's ``send``/``observe`` and the safety monitor are spanned
      per instance, so processes the adversary simulates stay inside the
      adversary's span.
    * ``core.validation.is_valid_ranks`` / ``core.approximation.approximate``
      where Alg. 1 looks them up; ``is_sound_id`` is counted.
    * ``analysis.properties.check_renaming`` where runs are judged.

    ``count_ids`` also installs :func:`install_id_counter`.
    """
    from repro.analysis import experiments
    from repro.core import renaming
    from repro.service import session
    from repro.sim import runner

    wrap, count = tracer.wrap, tracer.count

    valid = renaming.is_valid_ranks

    def is_valid_ranks(*args, **kwargs):
        accepted = valid(*args, **kwargs)
        if accepted:
            count("core.validation.is_valid_ranks.accepted")
        return accepted

    renaming.is_valid_ranks = wrap("core.validation.is_valid_ranks", is_valid_ranks)
    renaming.approximate = wrap("core.approximation.approximate", renaming.approximate)
    if count_ids:
        install_id_counter(tracer)

    def with_metrics(run_protocol):
        def run(*args, **kwargs):
            result = run_protocol(*args, **kwargs)
            metrics = result.metrics
            count("sim.rounds", metrics.round_count)
            count("sim.correct_messages", metrics.correct_messages)
            count("sim.correct_bits", metrics.correct_bits)
            return result

        return wrap("sim.runner", run)

    experiments.run_protocol = with_metrics(experiments.run_protocol)
    session.run_protocol = with_metrics(session.run_protocol)
    judge = wrap("analysis.properties.check_renaming", experiments.check_renaming)
    experiments.check_renaming = judge
    session.check_renaming = judge

    resolve = runner.resolve_engine

    class TracedEngine:
        def __init__(self, engine) -> None:
            self._execute = wrap("sim.engine", engine.execute)

        def execute(self, *, processes, adversary, monitor=None, **kwargs):
            for process in processes.values():
                process.send = wrap("core.protocol.send", process.send)
                process.deliver = wrap("core.protocol.deliver", process.deliver)
            adversary.send = wrap("adversary", adversary.send)
            adversary.observe = wrap("adversary", adversary.observe)
            if monitor is not None:
                monitor.begin_round = wrap("sim.monitor", monitor.begin_round)
                monitor.after_deliver = wrap("sim.monitor", monitor.after_deliver)
            return self._execute(
                processes=processes, adversary=adversary, monitor=monitor, **kwargs
            )

    runner.resolve_engine = lambda name: TracedEngine(resolve(name))


def install_store(tracer: Tracer, name_of: Callable[[str], str]) -> None:
    """Span every public method of the sqlite store (its own and those it
    inherits), named by ``name_of(method)``."""
    import inspect
    import types

    from repro.analysis.store import SqliteStore

    for method in dir(SqliteStore):
        value = inspect.getattr_static(SqliteStore, method)
        if not method.startswith("_") and isinstance(value, types.FunctionType):
            setattr(SqliteStore, method, tracer.wrap(name_of(method), value))


def install_coordinator(tracer: Tracer) -> None:
    """Benchmark process of a sweep: every store call the coordinator makes."""
    install_store(tracer, lambda method: "analysis.store.coordinator")


def install_worker(tracer: Tracer) -> None:
    """Fabric worker process: store calls, cell execution, the pull loop
    (whose self time is the worker's idle time)."""
    import dataclasses

    from repro.analysis import worker

    install_sim(tracer)
    install_store(
        tracer,
        lambda method: f"analysis.store.{method}"
        if method in ("claim", "finish")
        else "analysis.store.other",
    )
    runner = worker.RUNNERS["sweep"]
    worker.RUNNERS["sweep"] = dataclasses.replace(
        runner, execute=tracer.wrap("analysis.worker.execute_task", runner.execute)
    )
    worker.Worker.run = tracer.wrap("analysis.worker.run", worker.Worker.run)


def install_service(tracer: Tracer) -> None:
    """Daemon process: sessions, frames, codec, executor hand-off, journal.

    Each session's server-assigned id is its op. ``service.server.queue_wait``
    runs from building the :class:`SessionRequest` (right before the
    executor submit) to ``execute_session`` starting on a runner thread;
    the session's context is copied onto that thread so its protocol spans
    nest under ``service.session.execute``. Journal appends run on the
    journal thread under the same copied context. ``net.wait`` spans mark
    the time a frame read waits for the peer's bytes.
    """
    import asyncio

    from repro.service import frames, server, session
    from repro.service.journal import SessionJournal

    install_sim(tracer)
    wrap, wrap_async = tracer.wrap, tracer.wrap_async

    run_session = wrap_async(
        "service.server.session", server.RenamingService._run_session
    )

    async def _run_session(self, session_id, reader, writer):
        CURRENT.set((session_id, 0))  # task-local: each connection is a task
        return await run_session(self, session_id, reader, writer)

    server.RenamingService._run_session = _run_session
    server.read_frame = wrap_async("service.frames.read", server.read_frame)
    server.write_frame = wrap_async("service.frames.write", server.write_frame)
    server.encode_frame = wrap("service.frames.write", server.encode_frame)
    frames.encode_message = wrap("wire.encode", frames.encode_message)
    frames.decode_message = wrap("wire.decode", frames.decode_message)
    asyncio.StreamReader.readexactly = wrap_async(
        WAIT, asyncio.StreamReader.readexactly
    )

    pending: Dict[int, Tuple[contextvars.Context, int]] = {}
    request_cls = server.SessionRequest

    def SessionRequest(*args, **kwargs):
        request = request_cls(*args, **kwargs)
        pending[id(request)] = (contextvars.copy_context(), _now())
        return request

    execute = wrap("service.session.execute", session.execute_session)

    def execute_session(request):
        context, submitted = pending.pop(id(request))

        def run():
            op, parent = CURRENT.get()
            tracer.record(op, parent, "service.server.queue_wait", submitted, _now())
            return execute(request)

        return context.run(run)

    server.SessionRequest = SessionRequest
    server.execute_session = execute_session

    journal_call = server.RenamingService._journal_call

    async def _journal_call(self, method, *args, **kwargs):
        context = contextvars.copy_context()
        return await journal_call(
            self, lambda *a, **k: context.run(method, *a, **k), *args, **kwargs
        )

    server.RenamingService._journal_call = _journal_call
    SessionJournal.append = wrap("service.journal.append", SessionJournal.append)
    SessionJournal.lookup = wrap("service.journal.lookup", SessionJournal.lookup)


def install_client(tracer: Tracer) -> None:
    """Benchmark (client) process: :mod:`repro.service.load`'s frame I/O,
    codec and client-side re-validation, named ``client.*``.

    The welcome frame's server session id is counted per op as
    ``service.session_id`` so client and daemon spans can be joined.
    """
    import asyncio

    from repro.service import frames, load
    from repro.service.messages import SessionWelcomeMessage

    wrap, wrap_async = tracer.wrap, tracer.wrap_async
    read = wrap_async("client.frames.read", load.read_frame)

    async def read_frame(*args, **kwargs):
        message = await read(*args, **kwargs)
        if isinstance(message, SessionWelcomeMessage):
            tracer.count("service.session_id", message.session_id)
        return message

    load.read_frame = read_frame
    load.write_frame = wrap_async("client.frames.write", load.write_frame)
    load.check_renaming = wrap("client.validate_names", load.check_renaming)
    frames.encode_message = wrap("client.wire.encode", frames.encode_message)
    frames.decode_message = wrap("client.wire.decode", frames.decode_message)
    asyncio.StreamReader.readexactly = wrap_async(
        WAIT, asyncio.StreamReader.readexactly
    )
