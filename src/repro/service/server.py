"""The renaming daemon: a hardened, long-lived asyncio session server.

One TCP connection is one renaming session::

    client                                server
      |  ----------- connect ----------->  |   (or ServerBusy + close)
      |  <--------- SessionWelcome ------  |
      |  ----------- OpenSession ------->  |
      |  ---------- RegisterIds* ------->  |
      |  ----------- CloseSession ------>  |   (or the deadline closes it)
      |  <--------- NamesAssigned -------  |
      |  <---------- Certificate --------  |   (validated server-side)

Robustness contract (tested in ``tests/test_service.py`` and
``tests/test_service_drain.py``):

* **Backpressure, never silent drops** — when ``max_sessions`` sessions
  are active (or the server is draining), a new connection gets a typed
  :class:`~repro.service.messages.ServerBusyMessage` and a clean close.
* **Deadlines everywhere** — every read has an idle timeout (slow-loris
  defense) and every session has a wall deadline; expiry either runs the
  quorum registered so far or rejects with a typed error.
* **Crash containment** — one session's failure (malformed frames, a
  :class:`~repro.sim.errors.SafetyViolation`, a budget breach, an infra
  bug) is reported typed on that session's socket and never touches the
  others.
* **Graceful drain** — on SIGTERM/SIGINT the server stops admitting
  (late connects get ServerBusy), lets in-flight sessions finish inside
  ``drain_grace_s``, then sheds stragglers with a typed ``shutdown``
  error. A second signal forces the shed immediately.
* **Exit codes** (the PR 5 CLI contract): 0 clean; 2 at least one
  completed session's certificate failed; 3 infra error; 4 sessions were
  shed during drain. Precedence 3 > 4 > 2 > 0.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..analysis.supervisor import CellBudget
from ..sim import DEFAULT_ENGINE, ConfigurationError, ResourceBudgetExceeded, SafetyViolation
from ..wire import WireError
from .frames import DEFAULT_MAX_FRAME_BYTES, encode_frame, read_frame, write_frame
from .journal import SessionJournal, SessionRecord, request_fingerprint
from .messages import (
    CertificateMessage,
    CloseSessionMessage,
    NamesAssignedMessage,
    OpenSessionMessage,
    QueryRequestMessage,
    QueryResponseMessage,
    RegisterIdsMessage,
    ServerBusyMessage,
    SessionErrorMessage,
    SessionWelcomeMessage,
)
from .session import (
    ServiceInfraError,
    SessionRequest,
    execute_session,
    execute_session_isolated,
)

__all__ = ["RenamingService", "ServiceStats"]

#: Error codes journaled as *terminal*: the failure is a deterministic
#: function of the request, so a retry would fail identically — replay the
#: journaled error instead of re-running. Transient codes (idle-timeout,
#: wire, protocol, shutdown, infra) leave the token in-flight for retry.
_DETERMINISTIC_FAILURE_CODES = frozenset(
    {"config", "safety-violation", "wall-budget", "rss-budget"}
)

log = logging.getLogger("repro.service")

#: Exit codes (same contract as repro.cli).
EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INFRA = 3
EXIT_INTERRUPTED = 4

#: How often the drain loop re-checks in-flight sessions / the force flag.
_DRAIN_POLL_S = 0.05


@dataclass
class ServiceStats:
    """Counters the daemon reports on exit (and exposes to tests)."""

    admitted: int = 0
    busy: int = 0          # connections refused with ServerBusy
    completed: int = 0     # NamesAssigned + Certificate delivered
    violations: int = 0    # completed but the certificate said not-ok
    rejected: int = 0      # typed SessionError sent (wire/protocol/config/…)
    disconnected: int = 0  # client vanished mid-session
    shed: int = 0          # sessions cancelled during drain
    infra: int = 0         # server-side failures (exit 3)
    replayed: int = 0      # tokened repeat submissions answered from the journal
    queries: int = 0       # QueryRequest frames served
    #: Rejections per typed error code — bounded by ``ERROR_CODES``, not by
    #: the daemon's lifetime.
    error_codes: Counter = field(default_factory=Counter)

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "busy": self.busy,
            "completed": self.completed,
            "violations": self.violations,
            "rejected": self.rejected,
            "disconnected": self.disconnected,
            "shed": self.shed,
            "infra": self.infra,
            "replayed": self.replayed,
            "queries": self.queries,
        }


class _Reject(Exception):
    """Internal: abort the session with a typed error frame."""

    def __init__(self, code: str, detail: str, trace_pointer: int = -1) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.trace_pointer = trace_pointer


class RenamingService:
    """The session daemon. ``await serve_forever()`` runs until drained."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 64,
        session_deadline_s: float = 5.0,
        idle_timeout_s: float = 2.0,
        drain_grace_s: Optional[float] = None,
        max_ids: int = 128,
        budget: Optional[CellBudget] = None,
        engine: str = DEFAULT_ENGINE,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        runner_threads: Optional[int] = None,
        install_signal_handlers: bool = True,
        journal: Optional[SessionJournal] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        self.session_deadline_s = session_deadline_s
        self.idle_timeout_s = idle_timeout_s
        # Default grace: enough for a just-admitted session to use its full
        # deadline plus a run.
        self.drain_grace_s = (
            drain_grace_s if drain_grace_s is not None else session_deadline_s + 2.0
        )
        self.max_ids = max_ids
        self.budget = budget
        self.engine = engine
        self.max_frame_bytes = max_frame_bytes
        self.install_signal_handlers = install_signal_handlers
        self.stats = ServiceStats()
        self._sessions: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._force_shed = False
        self._draining = False
        self._next_session_id = 1
        self._executor = ThreadPoolExecutor(
            max_workers=runner_threads or min(32, max(4, max_sessions)),
            thread_name_prefix="repro-session",
        )
        self.journal = journal
        #: Tokens executing right now — a concurrent duplicate submission
        #: is a typed ``duplicate-session`` reject, not a second run.
        self._active_tokens: Set[str] = set()
        # Journal appends fsync; a dedicated single-thread executor keeps
        # the event loop unblocked while serialising the writes.
        self._journal_executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-journal")
            if journal is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    @property
    def bound_address(self) -> Tuple[str, int]:
        """The actual listening address (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind and start accepting (drain machinery armed, not triggered)."""
        self._drain_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        if self.install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.initiate_drain)
                except (NotImplementedError, RuntimeError):  # non-unix / nested
                    break
        host, port = self.bound_address
        log.info("listening on %s:%d (max_sessions=%d)", host, port, self.max_sessions)

    def initiate_drain(self) -> None:
        """First call starts a graceful drain; a second forces the shed.

        Signal-handler safe (sets flags/events only).
        """
        if self._draining:
            self._force_shed = True
        else:
            self._draining = True
            if self._drain_requested is not None:
                self._drain_requested.set()

    async def serve_forever(self) -> int:
        """Run until drained; returns the contract exit code."""
        if self._server is None:
            await self.start()
        assert self._drain_requested is not None
        try:
            await self._drain_requested.wait()
            await self._drain()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self._executor.shutdown(wait=False, cancel_futures=True)
            if self._journal_executor is not None:
                # Let queued journal appends land before closing the file.
                self._journal_executor.shutdown(wait=True)
            if self.journal is not None:
                self.journal.close()
        return self.exit_code()

    async def _drain(self) -> None:
        """Finish in-flight sessions within the grace window, then shed."""
        log.info(
            "draining: %d in-flight session(s), grace %.1fs",
            len(self._sessions),
            self.drain_grace_s,
        )
        deadline = time.monotonic() + self.drain_grace_s
        while self._sessions and not self._force_shed:
            if time.monotonic() >= deadline:
                break
            await asyncio.sleep(_DRAIN_POLL_S)
        stragglers = list(self._sessions)
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.gather(*stragglers, return_exceptions=True)

    def exit_code(self) -> int:
        """3 (infra) > 4 (shed) > 2 (violation observed) > 0."""
        if self.stats.infra:
            return EXIT_INFRA
        if self.stats.shed:
            return EXIT_INTERRUPTED
        if self.stats.violations:
            return EXIT_VIOLATION
        return EXIT_OK

    # ------------------------------------------------------------------ #
    # per-connection session handling                                    #
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        if self._draining or len(self._sessions) >= self.max_sessions:
            self.stats.busy += 1
            await self._send_best_effort(
                writer,
                ServerBusyMessage(
                    active=len(self._sessions), limit=self.max_sessions
                ),
            )
            await self._close(writer)
            return
        self._sessions.add(task)
        session_id = self._next_session_id
        self._next_session_id += 1
        try:
            await self._run_session(session_id, reader, writer)
        except asyncio.CancelledError:
            # Shed during drain: typed shutdown error, best effort.
            self.stats.shed += 1
            await asyncio.shield(
                self._send_best_effort(
                    writer,
                    SessionErrorMessage(
                        code="shutdown",
                        detail="server is draining; session shed before completion",
                    ),
                )
            )
        except Exception:  # noqa: BLE001 — containment boundary
            self.stats.infra += 1
            log.exception("session %d: unhandled server-side failure", session_id)
            await self._send_best_effort(
                writer,
                SessionErrorMessage(
                    code="infra", detail="internal server error"
                ),
            )
        finally:
            self._sessions.discard(task)
            await self._close(writer)

    async def _run_session(
        self, session_id: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.admitted += 1
        deadline_at = time.monotonic() + self.session_deadline_s
        await write_frame(
            writer,
            SessionWelcomeMessage(
                session_id=session_id,
                max_ids=self.max_ids,
                deadline_ms=int(self.session_deadline_s * 1000),
            ),
        )
        opened: Optional[OpenSessionMessage] = None
        ids: List[int] = []
        try:
            while True:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    if opened is not None and ids:
                        break  # deadline closes the quorum
                    raise _Reject(
                        "deadline",
                        "session deadline expired before any id was registered",
                    )
                try:
                    message = await asyncio.wait_for(
                        read_frame(reader, max_frame_bytes=self.max_frame_bytes),
                        timeout=min(self.idle_timeout_s, remaining),
                    )
                except asyncio.TimeoutError:
                    if remaining <= self.idle_timeout_s:
                        continue  # session deadline, handled at loop top
                    raise _Reject(
                        "idle-timeout",
                        f"no frame received within {self.idle_timeout_s:.1f}s",
                    ) from None
                except WireError as exc:
                    raise _Reject("wire", str(exc)) from None
                if message is None:
                    self.stats.disconnected += 1
                    log.info("session %d: client disconnected mid-session", session_id)
                    return
                if isinstance(message, OpenSessionMessage):
                    if opened is not None:
                        raise _Reject("protocol", "session already open")
                    opened = message
                elif isinstance(message, QueryRequestMessage):
                    if opened is not None:
                        raise _Reject(
                            "protocol", "QueryRequest inside an open session"
                        )
                    await self._answer_query(writer, message)
                    return
                elif isinstance(message, RegisterIdsMessage):
                    if opened is None:
                        raise _Reject("protocol", "RegisterIds before OpenSession")
                    if len(ids) + len(message.ids) > self.max_ids:
                        raise _Reject(
                            "config",
                            f"session would register {len(ids) + len(message.ids)} "
                            f"ids, cap is {self.max_ids}",
                        )
                    ids.extend(message.ids)
                elif isinstance(message, CloseSessionMessage):
                    if opened is None:
                        raise _Reject("protocol", "CloseSession before OpenSession")
                    if not ids:
                        raise _Reject("config", "cannot run a session with no ids")
                    break
                else:
                    raise _Reject(
                        "protocol",
                        f"unexpected {type(message).__name__} frame in a session",
                    )
            await self._execute_and_respond(session_id, writer, opened, tuple(ids))
        except _Reject as rej:
            self.stats.rejected += 1
            self.stats.error_codes[rej.code] += 1
            log.info("session %d: rejected (%s): %s", session_id, rej.code, rej.detail)
            await self._send_best_effort(
                writer,
                SessionErrorMessage(
                    code=rej.code, detail=rej.detail, trace_pointer=rej.trace_pointer
                ),
            )
            return

    async def _execute_and_respond(
        self,
        session_id: int,
        writer: asyncio.StreamWriter,
        opened: OpenSessionMessage,
        ids: Tuple[int, ...],
    ) -> None:
        """Run the closed quorum and stream the result, journaling tokened
        sessions durably (``accepted`` → terminal) *before* any result
        frame leaves the process."""
        token = opened.session_id
        fingerprint = ""
        if token:
            if self.journal is None:
                raise _Reject(
                    "config",
                    "session carries an idempotency token but the daemon "
                    "runs without --session-journal",
                )
            request = {
                "session_id": token,
                "algorithm": opened.algorithm,
                "t": opened.t,
                "attack": opened.attack,
                "seed": opened.seed,
                "ids": list(ids),
            }
            fingerprint = request_fingerprint(request)
            existing = self.journal.lookup(token)
            if existing is not None and existing.state != "in-flight":
                if existing.fingerprint != fingerprint:
                    raise _Reject(
                        "config",
                        f"idempotency token {token!r} was journaled with "
                        f"different parameters — a token names exactly one "
                        f"request",
                    )
                log.info(
                    "session %d: token %r replayed from the journal (%s)",
                    session_id, token, existing.state,
                )
                self.stats.replayed += 1
                await self._replay_terminal(writer, existing)
                return
            if token in self._active_tokens:
                raise _Reject(
                    "duplicate-session",
                    f"idempotency token {token!r} is already executing on "
                    f"another connection",
                )
            self._active_tokens.add(token)
        try:
            if token:
                await self._journal_call(
                    self.journal.accepted, token, fingerprint, request
                )
            try:
                result = await self._execute(opened, ids)
            except _Reject as rej:
                if token and rej.code in _DETERMINISTIC_FAILURE_CODES:
                    # Durable before the error frame leaves: a retry of
                    # this token replays the identical typed error.
                    await self._journal_call(
                        self.journal.failed,
                        token,
                        fingerprint,
                        code=rej.code,
                        detail=rej.detail,
                        trace_pointer=rej.trace_pointer,
                    )
                raise
            self.stats.completed += 1
            if not result.ok:
                self.stats.violations += 1
                log.warning(
                    "session %d: certificate NOT ok: %s",
                    session_id,
                    "; ".join(result.violations),
                )
            names_frame = encode_frame(
                NamesAssignedMessage(
                    entries=result.names,
                    algorithm=result.algorithm,
                    rounds=result.rounds,
                )
            )
            certificate_frame = encode_frame(
                CertificateMessage(
                    namespace=result.namespace,
                    ok=result.ok,
                    checked=result.checked,
                    violations=result.violations,
                )
            )
            if token:
                # The write-ahead contract: the result is durable before
                # the first response byte leaves the process.
                await self._journal_call(
                    self.journal.completed,
                    token,
                    fingerprint,
                    names_hex=names_frame.hex(),
                    certificate_hex=certificate_frame.hex(),
                    ok=result.ok,
                )
            writer.write(names_frame)
            writer.write(certificate_frame)
            await writer.drain()
        finally:
            if token:
                self._active_tokens.discard(token)

    async def _replay_terminal(
        self, writer: asyncio.StreamWriter, record: SessionRecord
    ) -> None:
        """Answer a finished token from the journal, without re-running.

        Completed sessions are replayed from the *stored frame bytes* —
        byte-identical to the original response by construction."""
        if record.state == "completed":
            writer.write(bytes.fromhex(record.names_hex))
            writer.write(bytes.fromhex(record.certificate_hex))
            await writer.drain()
        else:
            await write_frame(
                writer,
                SessionErrorMessage(
                    code=record.code,
                    detail=record.detail,
                    trace_pointer=record.trace_pointer,
                ),
            )

    async def _answer_query(
        self, writer: asyncio.StreamWriter, query: QueryRequestMessage
    ) -> None:
        """Serve a QueryRequest: state frame, then the journaled result."""
        self.stats.queries += 1
        if self.journal is None:
            raise _Reject(
                "config",
                "session queries require --session-journal on the daemon",
            )
        record = self.journal.lookup(query.session_id)
        if query.session_id in self._active_tokens:
            state = "in-flight"
            record = None  # executing right now; no terminal frames to send
        elif record is None:
            state = "unknown"
        else:
            state = record.state
        await write_frame(
            writer,
            QueryResponseMessage(session_id=query.session_id, state=state),
        )
        if record is not None and record.state in ("completed", "failed"):
            await self._replay_terminal(writer, record)

    async def _journal_call(self, method, *args, **kwargs) -> None:
        """Run one journal append off-loop (fsync) on the serial executor."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._journal_executor, lambda: method(*args, **kwargs)
        )

    async def _execute(self, opened: OpenSessionMessage, ids: Tuple[int, ...]):
        """Run the closed session off-loop; map failures to typed rejects."""
        request = SessionRequest(
            ids=ids,
            algorithm=opened.algorithm,
            t=opened.t,
            attack=opened.attack,
            seed=opened.seed,
            engine=self.engine,
        )
        loop = asyncio.get_running_loop()
        try:
            if self.budget is not None:
                return await loop.run_in_executor(
                    self._executor,
                    lambda: execute_session_isolated(request, self.budget),
                )
            return await loop.run_in_executor(
                self._executor, lambda: execute_session(request)
            )
        except ConfigurationError as exc:
            raise _Reject("config", str(exc)) from None
        except SafetyViolation as exc:
            raise _Reject(
                "safety-violation",
                str(exc),
                trace_pointer=exc.trace_pointer if exc.trace_pointer is not None else -1,
            ) from None
        except ResourceBudgetExceeded as exc:
            code = "rss-budget" if exc.violated == "rss-budget" else "wall-budget"
            raise _Reject(code, str(exc)) from None
        except ServiceInfraError as exc:
            self.stats.infra += 1
            raise _Reject("infra", str(exc)) from None

    # ------------------------------------------------------------------ #
    # plumbing                                                           #
    # ------------------------------------------------------------------ #

    async def _send_best_effort(self, writer: asyncio.StreamWriter, message) -> None:
        try:
            await write_frame(writer, message)
        except (ConnectionError, OSError, WireError):
            pass

    async def _close(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
