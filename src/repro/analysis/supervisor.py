"""Budget policing for work that runs in a disposable child process.

A fabric worker executing a sweep or chaos cell under ``--cell-wall`` /
``--cell-rss`` and the renaming daemon executing a session under
``--session-wall`` / ``--session-rss`` need the same thing: run one call in
a child process, watch its wall clock and resident memory, SIGKILL it on a
breach, and report what happened as a typed verdict instead of hanging or
taking the caller down. This module is that one mechanism:

* :class:`CellBudget` — the per-call wall/RSS budget (``None`` disables an
  axis);
* :func:`budget_breach` — the single breach decision, so a breach produces
  the same typed kind (``"wall-budget"`` / ``"rss-budget"``) and message
  wherever the work runs;
* :func:`run_isolated` — spawn the child, poll :func:`budget_breach`, kill
  on a breach and return an :class:`IsolatedResult`. Callers that hold a
  lease pass a periodic ``on_tick`` callback (the fabric worker renews its
  lease there); an exception from the callback kills the child and
  propagates.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "CellBudget",
    "IsolatedResult",
    "budget_breach",
    "rss_mb_of",
    "run_isolated",
]


@dataclass(frozen=True)
class CellBudget:
    """Per-cell resource budgets; ``None`` disables an axis."""

    wall_s: Optional[float] = None
    rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.wall_s is not None and self.wall_s <= 0:
            raise ValueError(f"wall_s must be positive, got {self.wall_s}")
        if self.rss_mb is not None and self.rss_mb <= 0:
            raise ValueError(f"rss_mb must be positive, got {self.rss_mb}")


def rss_mb_of(pid: int) -> Optional[float]:
    """Resident set size of ``pid`` in MiB via ``/proc`` (Linux).

    Returns ``None`` where ``/proc/<pid>/statm`` is unavailable (non-Linux,
    or the process already exited) — RSS budgets degrade to unenforced
    rather than crashing the caller.
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * (os.sysconf("SC_PAGE_SIZE") / (1024 * 1024))
    except (OSError, ValueError, IndexError):
        return None


def budget_breach(
    budget: Optional[CellBudget],
    *,
    started_at: float,
    pid: Optional[int] = None,
    now: Optional[float] = None,
) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when a cell has exceeded ``budget``, else ``None``.

    ``started_at``/``now`` are ``time.monotonic()`` values; ``pid`` enables
    the RSS axis.
    """
    if budget is None:
        return None
    if now is None:
        now = time.monotonic()
    if budget.wall_s is not None and now - started_at > budget.wall_s:
        return (
            "wall-budget",
            f"ResourceBudgetExceeded: cell exceeded wall budget "
            f"({budget.wall_s:g}s)",
        )
    if budget.rss_mb is not None and pid is not None:
        rss = rss_mb_of(pid)
        if rss is not None and rss > budget.rss_mb:
            return (
                "rss-budget",
                f"ResourceBudgetExceeded: worker RSS {rss:.0f} MiB "
                f"exceeded budget ({budget.rss_mb:g} MiB)",
            )
    return None


@dataclass(frozen=True)
class IsolatedResult:
    """How one :func:`run_isolated` call ended.

    ``kind`` is one of:

    * ``"done"`` — the call returned; ``value`` is its result;
    * ``"raised"`` — the call raised; ``value`` is the exception (it
      crossed the process boundary intact) and ``detail`` its
      ``"ExceptionType: message"`` text;
    * ``"error"`` — the call raised an exception that cannot be pickled,
      or the child died without reporting; only ``detail`` is set;
    * ``"budget"`` — the child was SIGKILLed for a breach; ``violated`` is
      ``"wall-budget"`` or ``"rss-budget"`` and ``detail`` the message.
    """

    kind: str
    value: Any = None
    detail: str = ""
    violated: Optional[str] = None


def _child_main(target: Callable, args: tuple, result_q) -> None:
    """Child-process body: one call, one report.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole process
    group) reaches only the parent, which decides whether to drain.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        result = target(*args)
    except BaseException as exc:  # noqa: BLE001 — reported, not hidden
        detail = f"{type(exc).__name__}: {exc}"
        try:
            pickle.dumps(exc)
        except Exception:  # noqa: BLE001 — degrade to the text
            result_q.put(("error", None, detail))
        else:
            result_q.put(("raised", exc, detail))
    else:
        result_q.put(("done", result, ""))


def run_isolated(
    target: Callable,
    args: tuple,
    budget: Optional[CellBudget],
    *,
    poll_s: float = 0.05,
    tick_s: Optional[float] = None,
    on_tick: Optional[Callable[[], None]] = None,
) -> IsolatedResult:
    """Run ``target(*args)`` in a disposable child, policed by ``budget``.

    ``on_tick`` (if given) is called every ``tick_s`` seconds while the
    child runs. Any exception from the callback — or a signal raised into
    the caller — SIGKILLs the child before it propagates, so no child ever
    outlives its policing loop.
    """
    result_q: multiprocessing.Queue = multiprocessing.Queue()
    process = multiprocessing.Process(
        target=_child_main, args=(target, args, result_q), daemon=True
    )
    process.start()
    started = time.monotonic()
    next_tick = started + tick_s if on_tick is not None else None
    try:
        while True:
            # Read the report before joining: a child blocked on a full
            # result pipe never exits, so join-first could wait forever.
            # A child already gone gets one grace read for a report still
            # in the pipe.
            alive = process.is_alive()
            try:
                kind, value, detail = result_q.get(
                    timeout=poll_s if alive else 1.0
                )
            except queue.Empty:
                if not alive:
                    return IsolatedResult(
                        "error",
                        detail=f"worker died mid-cell "
                        f"(exit code {process.exitcode})",
                    )
            else:
                process.join(timeout=2.0)
                return IsolatedResult(kind, value=value, detail=detail)
            now = time.monotonic()
            if next_tick is not None and now >= next_tick:
                on_tick()
                next_tick = now + tick_s
            breach = budget_breach(
                budget, started_at=started, pid=process.pid, now=now
            )
            if breach is not None:
                process.kill()
                process.join(timeout=2.0)
                return IsolatedResult(
                    "budget", detail=breach[1], violated=breach[0]
                )
    except BaseException:
        process.kill()
        process.join(timeout=2.0)
        raise
    finally:
        result_q.close()
        result_q.cancel_join_thread()
