"""Durability suite: ledger helpers, budgeted workers, kill/resume on stores.

The acceptance bar mirrors the crash-recovery arguments in the paper's
lineage: progress is durable before it is acted on, recovery is pure
replay, and a resumed run is *bit-identical* (in canonical, wall-clock
scrubbed form) to an uninterrupted control run. The harness here SIGKILLs
live ``--store`` campaigns at deterministic and at randomized seeded cell
counts via the ``REPRO_STORE_CRASH_AFTER`` hook, resumes them with
``runs resume --store``, diffs the final reports against controls and
asserts from the store's own event log that no cell ran twice.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis import (
    CellBudget,
    ChaosCampaign,
    ChaosTask,
    SweepConfig,
    SweepExecutor,
    Worker,
    atomic_write_text,
    canonical_json,
    config_fingerprint,
    open_store,
    run_isolated,
    store_doctor,
)
from repro.analysis.journal import (
    CrashHook,
    canonical_dumps,
    checksum,
    scrub_volatile,
)
from repro.analysis.store import STORE_CRASH_HOOK_ENV
from repro.analysis.supervisor import budget_breach, rss_mb_of
from repro.analysis.worker import RUNNERS, CellRunner
from repro.service.journal import (
    SESSION_JOURNAL_KIND,
    SessionJournal,
    scan_session_journal,
)
from repro.sim import JournalError, StoreError

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestJournalFormat:
    """The shared ledger helpers — canonical bytes, checksums, fingerprints,
    the crash hook — and the record discipline built on them: the store's
    re-execution detector and the checksummed JSONL envelope's torn-tail
    rules (the session journal is the one JSONL ledger)."""

    def test_round_trip(self, tmp_path):
        # A durable sweep records its grid in the store header; the header
        # config rebuilds exactly the grid that was seeded.
        url = f"dir:{tmp_path / 'store'}"
        SweepExecutor(workers=1).run(GRID, store=url)
        config = open_store(url).header()["config"]
        assert config == {"sweep": GRID.to_dict(), "cache": None,
                          "budget": None}
        rebuilt = SweepConfig.from_dict(config["sweep"])
        assert SweepExecutor.fingerprint(SweepExecutor.tasks_for(rebuilt)) \
            == SweepExecutor.fingerprint(SweepExecutor.tasks_for(GRID))

    def test_corruption_before_tail_is_fatal(self, tmp_path, capsys):
        # Unlike a torn event-log tail, a damaged store header cannot be
        # trusted: resuming refuses (exit 3) instead of guessing.
        from repro.cli import EXIT_INFRA, main

        root = tmp_path / "store"
        SweepExecutor(workers=1).run(GRID, store=f"dir:{root}")
        header = root / "header.json"
        header.write_text(header.read_text().replace('"sweep"', '"swept"'))
        assert main(["runs", "resume", "--store", str(root)]) == EXIT_INFRA
        assert "corrupt store header" in capsys.readouterr().err

    def test_canonical_bytes_and_checksum_are_pinned(self):
        payload = {"b": [1, 2], "a": {"y": None, "x": True}}
        text = '{"a":{"x":true,"y":null},"b":[1,2]}'
        assert canonical_dumps(payload) == text
        assert checksum(payload) == hashlib.sha256(text.encode()).hexdigest()

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        cells = [{"cell": 0}]
        fingerprint = config_fingerprint("sweep", cells)
        # Existing stores embed this exact payload: it must never drift.
        assert fingerprint == hashlib.sha256(
            b'{"cells":[{"cell":0}],"journal":1,"kind":"sweep"}'
        ).hexdigest()
        assert config_fingerprint("sweep", cells + [{"cell": 1}]) != fingerprint
        store = open_store(f"dir:{tmp_path / 'store'}")
        store.seed(kind="sweep", run_id="r", fingerprint=fingerprint,
                   cells=cells)
        store.seed(kind="sweep", run_id="r", fingerprint=fingerprint,
                   cells=cells)  # same fingerprint: a resume
        with pytest.raises(StoreError, match="different config fingerprint"):
            store.seed(kind="sweep", run_id="r", fingerprint="0" * 64,
                       cells=cells)

    def test_reexecution_detector(self, tmp_path):
        store = open_store(f"dir:{tmp_path / 'store'}")
        store.seed(kind="sweep", run_id="r", fingerprint="f", cells=[{}])
        assert store.write_terminal(0, "finished", {"x": 1})
        assert not store.write_terminal(0, "finished", {"x": 2})
        assert store_doctor(store)["double_executions"] == [0]
        assert store.terminal(0)["payload"] == {"x": 1}  # first one won

    def test_crash_hook_fires_on_the_nth_event(self, monkeypatch):
        kills = []
        monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(sig))
        monkeypatch.setenv("REPRO_TEST_CRASH", "finish:2")
        hook = CrashHook("REPRO_TEST_CRASH", StoreError)
        hook("claim")
        hook("finish")
        assert kills == []
        hook("finish")
        assert kills == [signal.SIGKILL]

    def test_torn_tail_is_dropped_not_an_error(self, tmp_path):
        # A crash mid-append can cut the last line of a dir store's event
        # log; readers drop it and the doctor still triages the store.
        store = open_store(f"dir:{tmp_path / 'store'}")
        store.seed(kind="sweep", run_id="r", fingerprint="f", cells=[{}])
        store.write_terminal(0, "finished", {"x": 1})
        with open(tmp_path / "store" / "events.jsonl", "ab") as handle:
            handle.write(b'{"event": "double-exec')  # cut mid-append
        assert [e["event"] for e in store.events()] == ["finished"]
        report = store_doctor(store)
        assert report["complete"] and report["double_executions"] == []

    def test_torn_full_line_with_bad_checksum_is_also_a_tail(self, tmp_path):
        # A line can be complete-looking but carry a garbage checksum if the
        # crash landed inside the crc hex — still the tail, still dropped.
        path = tmp_path / "sessions.jsonl"
        with SessionJournal.open_or_create(path) as journal:
            journal.accepted("tok", "fp", {})
        body = {"v": 1, "seq": 2, "type": "failed",
                "data": {"session_id": "tok", "code": "config", "detail": ""}}
        line = canonical_dumps({**body, "crc": "dead" + checksum(body)[4:]})
        with open(path, "a") as handle:
            handle.write(line + "\n")
        state = scan_session_journal(path)
        assert state.torn and state.records == 2
        assert state.in_flight() == ["tok"]

    def test_record_before_header_is_fatal(self, tmp_path):
        records = [
            {"v": 1, "seq": 0, "type": "accepted",
             "data": {"session_id": "tok", "fingerprint": "fp"}},
            {"v": 1, "seq": 1, "type": "header",
             "data": {"kind": SESSION_JOURNAL_KIND}},
        ]
        path = tmp_path / "sessions.jsonl"
        path.write_text("".join(
            canonical_dumps({**body, "crc": checksum(body)}) + "\n"
            for body in records
        ))
        with pytest.raises(JournalError, match="before header"):
            scan_session_journal(path)

    def test_scrub_volatile_zeroes_only_wall_clock_fields(self):
        payload = {
            "elapsed_s": 12.5, "workers": 8,
            "nested": [{"elapsed_s": 3.0, "rounds": 28}],
        }
        scrubbed = scrub_volatile(payload)
        assert scrubbed["elapsed_s"] == 0.0 and scrubbed["workers"] == 1
        assert scrubbed["nested"][0] == {"elapsed_s": 0.0, "rounds": 28}
        assert canonical_json(payload) == canonical_json(
            {**payload, "elapsed_s": 99.0, "workers": 2}
        )


class TestAtomicWrite:
    def test_writes_and_cleans_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        assert atomic_write_text(target, "payload") == target
        assert target.read_text() == "payload"
        assert not list(tmp_path.glob("*.tmp"))

    def test_kill_mid_write_preserves_the_old_artifact(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "out.csv"
        target.write_text("old,complete,data\n")
        monkeypatch.setattr(
            os, "replace", lambda a, b: (_ for _ in ()).throw(KeyboardInterrupt)
        )
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, "new,half")
        monkeypatch.undo()
        assert target.read_text() == "old,complete,data\n"

    def test_export_csv_goes_through_the_atomic_path(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis import export_csv
        from repro.analysis.executor import RunTask, execute_task

        record = execute_task(
            RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        )
        calls = []
        real = os.replace
        monkeypatch.setattr(
            os, "replace", lambda a, b: (calls.append(str(a)), real(a, b))[1]
        )
        export_csv([record], tmp_path / "rows.csv")
        assert calls and calls[0].endswith("rows.csv.tmp")
        assert (tmp_path / "rows.csv").read_text().startswith("algorithm,")


# ------------------------------------------------------- budgeted workers

def _probe_execute(task):
    """Cell body for the probe run kind (runs in the budgeted child)."""
    op = task["op"]
    if op == "square":
        return task["x"] * task["x"]
    if op == "sleep":
        time.sleep(task["s"])
        return "slept"
    # "crash-once": the first execution dies without reporting (a real
    # child crash); the retry finds the flag and succeeds. A flag in a
    # missing directory makes every attempt raise instead.
    if not os.path.exists(task["flag"]):
        with open(task["flag"], "w") as handle:
            handle.write("crashed")
        os._exit(1)
    return "recovered"


PROBE = CellRunner(
    kind="probe",
    decode=lambda payload: payload,
    execute=_probe_execute,
    encode=lambda result, attempts: {"result": result},
    failure=lambda task, detail, attempts: {"detail": detail,
                                            "attempts": attempts},
    failure_state="failed",
    budget_failure=lambda task, kind, detail: {"kind": kind,
                                               "detail": detail},
    decode_row=lambda task, payload: payload,
    lease_row=lambda task, reason: {"lease": reason},
    set_retries=lambda payload, attempts: {**payload, "retries": attempts},
)


@pytest.fixture
def probe_store(tmp_path, monkeypatch):
    """Seed a store with probe cells; returns a seeding function."""
    monkeypatch.setitem(RUNNERS, "probe", PROBE)

    def seed(*cells):
        store = open_store(f"dir:{tmp_path / 'store'}")
        store.seed(kind="probe", run_id="probe", fingerprint="probe",
                   cells=list(cells))
        return store

    return seed


class TestBudgetedWorker:
    """A :class:`Worker` with a :class:`CellBudget` runs every attempt in a
    child policed by :func:`run_isolated` — crashes retried once, budget
    kills terminal."""

    def test_runs_cells_and_ticks_the_lease_renewal(self, probe_store):
        ticks = []
        verdict = run_isolated(
            time.sleep, (0.3,), None, tick_s=0.05,
            on_tick=lambda: ticks.append(time.monotonic()),
        )
        assert verdict.kind == "done" and len(ticks) >= 2

        store = probe_store(*({"op": "square", "x": x} for x in range(4)))
        worker = Worker(store, budget=CellBudget(wall_s=30.0), lease_s=0.3)
        stats = worker.run()
        assert stats.completed == 4 and stats.failed == 0
        assert [store.terminal(i)["payload"]["result"] for i in range(4)] == \
            [0, 1, 4, 9]

    def test_worker_crash_is_retried_then_recovers(self, probe_store, tmp_path):
        store = probe_store(
            {"op": "crash-once", "flag": str(tmp_path / "crashed.flag")}
        )
        worker = Worker(store, budget=CellBudget(wall_s=30.0), retries=1)
        stats = worker.run()
        record = store.terminal(0)
        assert record["state"] == "finished"
        assert record["payload"] == {"result": "recovered", "retries": 1}
        assert stats.retried == 1 and stats.completed == 1
        assert [e["event"] for e in store.events()].count("retried") == 1

    def test_wall_budget_kill_is_terminal_not_retried(self, probe_store):
        store = probe_store({"op": "sleep", "s": 30.0})
        worker = Worker(store, budget=CellBudget(wall_s=0.4), retries=3)
        stats = worker.run()
        record = store.terminal(0)
        assert record["state"] == "quarantined"
        assert record["reason"] == "wall-budget"
        assert "ResourceBudgetExceeded" in record["payload"]["detail"]
        assert stats.budget_kills == 1
        assert stats.retried == 0  # budget kills are deterministic

    def test_exhausted_retries_report_crashed(self, probe_store, tmp_path):
        store = probe_store(
            {"op": "crash-once", "flag": str(tmp_path / "missing" / "flag")}
        )
        worker = Worker(store, budget=CellBudget(wall_s=30.0), retries=1)
        stats = worker.run()
        record = store.terminal(0)
        assert record["state"] == "failed" and record["reason"] == "crashed"
        assert record["payload"]["attempts"] == 2  # original + one retry
        assert "FileNotFoundError" in record["payload"]["detail"]
        assert stats.failed == 1 and stats.retried == 1

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/statm"),
        reason="RSS budgets read /proc (Linux only)",
    )
    def test_rss_budget_via_proc(self, probe_store):
        rss = rss_mb_of(os.getpid())
        assert rss is not None and rss > 1.0
        assert rss_mb_of(2 ** 30) is None  # no such pid -> unenforced
        assert budget_breach(
            CellBudget(rss_mb=1.0), started_at=time.monotonic(),
            pid=os.getpid(),
        )[0] == "rss-budget"

        store = probe_store({"op": "sleep", "s": 30.0})
        stats = Worker(store, budget=CellBudget(rss_mb=1.0)).run()
        record = store.terminal(0)
        assert record["state"] == "quarantined"
        assert record["reason"] == "rss-budget"
        assert stats.budget_kills == 1


# ------------------------------------------------ durable-run equivalence

GRID = SweepConfig(
    algorithms=["alg1"], sizes=[(7, 2)], attacks=["silent"], seeds=[0, 1]
)

CELLS = [
    ChaosTask("alg1", 7, 2, seed=seed, chaos_seed=0, drop=drop)
    for seed in (0, 1) for drop in (0.0, 0.2)
]


def _rows(rows) -> str:
    return canonical_json({"rows": [r.to_dict() for r in rows]})


class TestJournaledEquivalence:
    """A durable (``store=``) run reports exactly what the pool path
    reports, and resuming a finished store executes nothing."""

    def test_journaled_sweep_matches_legacy_path(self, tmp_path):
        legacy = SweepExecutor(workers=1).run(GRID)
        durable = SweepExecutor(workers=1).run(
            GRID, store=f"dir:{tmp_path / 'store'}"
        )
        assert _rows(durable) == _rows(legacy)

    def test_resume_of_complete_sweep_executes_nothing(self, tmp_path):
        url = f"dir:{tmp_path / 'store'}"
        first = SweepExecutor(workers=1).run(GRID, store=url)
        executor = SweepExecutor(workers=1)
        restored = executor.run(GRID, store=url)
        assert executor.stats.executed == 0
        assert executor.stats.restored == len(first)
        assert _rows(restored) == _rows(first)
        assert store_doctor(open_store(url))["double_executions"] == []

    def test_journaled_chaos_matches_legacy_path(self, tmp_path):
        legacy = ChaosCampaign(workers=1).run(CELLS)
        durable = ChaosCampaign(workers=1).run(
            CELLS, store=f"dir:{tmp_path / 'store'}"
        )
        assert durable.canonical() == legacy.canonical()

    def test_resume_of_complete_chaos_executes_nothing(self, tmp_path):
        url = f"dir:{tmp_path / 'store'}"
        first = ChaosCampaign(workers=1).run(CELLS, store=url)
        restored = ChaosCampaign(workers=1).run(CELLS, store=url)
        assert restored.canonical() == first.canonical()
        # Exactly one claim per cell across both runs: the resume
        # dispatched nothing.
        claims = [
            e["cell"] for e in open_store(url).events()
            if e["event"] in ("claimed", "reclaimed")
        ]
        assert sorted(claims) == list(range(len(CELLS)))

    def test_fingerprint_gate_rejects_a_changed_grid(self, tmp_path, capsys):
        from repro.cli import EXIT_INFRA, main

        url = f"dir:{tmp_path / 'store'}"
        ChaosCampaign(workers=1).run(CELLS, store=url)
        other_grid = CELLS[:-1]  # one cell fewer: a different run
        with pytest.raises(StoreError, match="different config fingerprint"):
            ChaosCampaign(workers=1).run(other_grid, store=url)

        # `runs resume` rebuilds the grid from the header's config, so a
        # grid that no longer expands to the seeded cells is refused too.
        sqlite_url = f"sqlite:{tmp_path / 'sweep.db'}"
        SweepExecutor(workers=1).run(GRID, store=sqlite_url)
        store = open_store(sqlite_url)
        header = store.header()
        header["config"]["sweep"]["seeds"] = [0, 1, 2]
        store._connection().execute(
            "UPDATE meta SET value=? WHERE key='header'",
            (json.dumps(header),),
        )
        assert main(["runs", "resume", "--store", sqlite_url]) == EXIT_INFRA
        assert "different config fingerprint" in capsys.readouterr().err


# -------------------------------------------------------- kill/resume harness

CLI_GRID = [
    "--algorithms", "alg1", "--sizes", "7:2",
    "--seeds", "0", "1", "2", "3", "4", "5",
    "--chaos-seeds", "0", "--drop", "0.1", "--workers", "1",
]
CLI_CELLS = 12  # 6 seeds x (clean + one drop variant)

#: 50 cells: long enough that a signal lands mid-run.
SIGNAL_GRID = [
    "--algorithms", "alg1", "--sizes", "7:2",
    "--seeds", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
    "--chaos-seeds", "0", "1", "--drop", "0.1", "0.2",
]


def _cli(args, *, env=None, **kwargs):
    base = {**os.environ, "PYTHONPATH": SRC}
    if env:
        base.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=base, capture_output=True, text=True, timeout=180, **kwargs,
    )


def _control_report(tmp_path):
    control = _cli(
        ["chaos", *CLI_GRID, "--json", str(tmp_path / "control.json")]
    )
    assert control.returncode == 0, control.stderr
    return json.loads((tmp_path / "control.json").read_text())


def _kill_and_resume(tmp_path, name: str, kill_after: int):
    """SIGKILL a --store campaign after ``kill_after`` durable finishes,
    resume it, and return (store URL, canonical resumed report)."""
    url = f"dir:{tmp_path / name}"
    killed = _cli(
        ["chaos", *CLI_GRID, "--store", url, "--run-id", name],
        env={STORE_CRASH_HOOK_ENV: f"finish:{kill_after}"},
    )
    assert killed.returncode == -signal.SIGKILL, (
        f"kill at {kill_after} did not fire: {killed.stderr}"
    )
    counts = open_store(url).counts()
    assert counts["finished"] == kill_after
    assert counts["leased"] == 0  # the hook fires after the lease is gone

    out = tmp_path / f"{name}.json"
    resumed = _cli([
        "runs", "resume", "--store", url, "--workers", "1",
        "--json", str(out),
    ])
    assert resumed.returncode == 0, resumed.stderr
    assert f"{kill_after}/{CLI_CELLS} cells already terminal" in resumed.stdout

    report = store_doctor(open_store(url))
    assert report["complete"]
    assert report["double_executions"] == []
    return url, canonical_json(json.loads(out.read_text()))


class TestKillResume:
    def test_sigkill_mid_campaign_then_resume_is_identical(self, tmp_path):
        url, resumed = _kill_and_resume(tmp_path, "k", 4)
        doctor = _cli(["runs", "doctor", "--store", url,
                       "--assert-no-reexecution"])
        assert doctor.returncode == 0, doctor.stdout
        assert "reexecution: none" in doctor.stdout
        assert resumed == canonical_json(_control_report(tmp_path))

    def test_sigint_drains_and_exits_resumable(self, tmp_path):
        runs = tmp_path / "runs"
        url = f"dir:{runs / 'i'}"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "chaos", *SIGNAL_GRID,
             "--workers", "1", "--store", url, "--run-id", "i"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        # Wait until at least one cell is durably finished, then preempt.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if (runs / "i" / "header.json").exists() and \
                    open_store(url).counts()["finished"]:
                break
            time.sleep(0.1)
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=120)
        store = open_store(url)
        if store.complete:
            pytest.skip("campaign finished before SIGINT landed")
        assert process.returncode == 4, stderr  # EXIT_INTERRUPTED
        assert f"runs resume --store {url}" in stderr
        assert "interrupted" in [e["event"] for e in store.events()]
        assert store.counts()["leased"] == 0  # the drain left nothing in flight

        listed = _cli(["runs", "list", "--runs-dir", str(runs)])
        assert listed.returncode == 0 and "interrupted" in listed.stdout

        resumed = _cli(["runs", "resume", "--store", url, "--workers", "1"])
        assert resumed.returncode == 0, resumed.stderr
        report = store_doctor(open_store(url))
        assert report["complete"]
        assert report["double_executions"] == []

    def test_sigterm_drains_spawned_workers(self, tmp_path):
        url = f"sqlite:{tmp_path / 'drain.db'}"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "chaos", *SIGNAL_GRID,
             "--workers", "2", "--store", url, "--run-id", "t"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if (tmp_path / "drain.db").exists() and \
                    open_store(url).counts()["finished"]:
                break
            time.sleep(0.1)
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=120)
        store = open_store(url)
        if store.complete:
            pytest.skip("campaign finished before SIGTERM landed")
        assert process.returncode == 4, stderr
        assert "drained fabric run 't'" in stderr
        # Both spawned workers finished their in-flight cell and exited:
        # no lease is left behind for a resume to wait out.
        assert store.counts()["leased"] == 0

        resumed = _cli(["runs", "resume", "--store", url, "--workers", "1"])
        assert resumed.returncode == 0, resumed.stderr
        assert store_doctor(open_store(url))["double_executions"] == []

    @pytest.mark.slow
    def test_randomized_kill_points_always_resume_identically(self, tmp_path):
        control = canonical_json(_control_report(tmp_path))
        rng = random.Random(0xD1CE)
        for round_no in range(4):
            kill_after = rng.randint(1, CLI_CELLS - 1)
            _, resumed = _kill_and_resume(tmp_path, f"k{round_no}", kill_after)
            assert resumed == control, f"diverged at kill point {kill_after}"
