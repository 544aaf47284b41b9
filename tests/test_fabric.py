"""Coordinator/worker fabric: equivalence, resume, and kill/reclaim.

Two layers of tests:

* Python-level: a fabric run (``store=``) must produce the same rows as
  the legacy in-process path for both sweeps and chaos campaigns, on both
  store backends; caches prefill and part-finished stores resume.

* CLI-level (the distributed story): a coordinator-only sweep with
  externally started workers, one of which is SIGKILLed mid-cell by the
  deterministic ``REPRO_STORE_CRASH_AFTER`` hook. The dead worker's cell
  must be reclaimed after lease expiry, executed exactly once more, and
  the final CSV must be byte-identical to a single-process control run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis import (
    ChaosCampaign,
    PollBackoff,
    Worker,
    ResultCache,
    SweepConfig,
    SweepExecutor,
    chaos_grid,
    run_sweep,
)
from repro.analysis.store import STORE_CRASH_HOOK_ENV, open_store

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

BACKENDS = ["dir", "sqlite"]

SWEEP = SweepConfig(
    algorithms=["alg1"],
    sizes=[(7, 2)],
    attacks=["silent", "duplicates"],
    seeds=[0, 1],
    max_rounds=64,
)


def store_url(kind: str, tmp_path) -> str:
    if kind == "dir":
        return f"dir:{tmp_path / 'store'}"
    return f"sqlite:{tmp_path / 'store.sqlite'}"


def scrubbed(rows) -> list:
    """Row dicts with the volatile wall-clock zeroed."""
    out = []
    for row in rows:
        payload = row.to_dict()
        payload["elapsed_s"] = 0.0
        out.append(payload)
    return out


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestSweepEquivalence:
    def test_fabric_rows_match_the_legacy_pool(self, backend, tmp_path):
        control = run_sweep(SWEEP, workers=1)
        fabric = run_sweep(SWEEP, workers=1, store=store_url(backend, tmp_path))
        assert scrubbed(fabric) == scrubbed(control)


class TestChaosEquivalence:
    def test_fabric_report_matches_the_legacy_campaign(
        self, backend, tmp_path
    ):
        tasks = chaos_grid(
            ["alg1"], [(7, 2)], seeds=[0], chaos_seeds=[0, 1],
            drop=[0.2], duplicate=[0.2], max_rounds=48,
        )
        control = ChaosCampaign(workers=1).run(list(tasks))
        fabric = ChaosCampaign(workers=1).run(
            list(tasks), store=store_url(backend, tmp_path)
        )
        assert fabric.canonical() == control.canonical()


class TestCacheAndResume:
    def test_cache_prefills_the_store(self, backend, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SWEEP, workers=1, cache=cache)  # warm the cache

        executed = []
        executor = SweepExecutor(
            workers=1, cache=cache, run_hook=executed.append
        )
        stats_rows = executor.run(
            SWEEP, store=store_url(backend, tmp_path)
        )
        assert executed == []  # nothing ran: every cell came from the memo
        assert executor.stats.from_cache == len(stats_rows)
        assert all(row.cached for row in stats_rows)

    def test_second_run_against_the_same_store_is_a_restore(
        self, backend, tmp_path
    ):
        url = store_url(backend, tmp_path)
        first = run_sweep(SWEEP, workers=1, store=url)

        executor = SweepExecutor(workers=1)
        again = executor.run(SWEEP, store=url)
        assert executor.stats.restored == len(first)
        assert executor.stats.executed == 0
        assert scrubbed(again) == scrubbed(first)


def _cli(args, *, env=None, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


CLI_GRID = [
    "--algorithms", "alg1",
    "--sizes", "7:2",
    "--seeds", "0", "1", "2", "3",
]


class TestKillReclaim:
    """Satellite: SIGKILL a worker mid-cell; the fabric must recover."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dead_workers_cell_is_reclaimed_and_run_exactly_once_more(
        self, backend, tmp_path
    ):
        control_csv = tmp_path / "control.csv"
        done = _cli(
            ["sweep", *CLI_GRID, "--workers", "1", "--csv", str(control_csv)]
        )
        assert done.returncode == 0, done.stderr

        url = store_url(backend, tmp_path)
        fabric_csv = tmp_path / "fabric.csv"
        coordinator = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "sweep", *CLI_GRID,
                "--workers", "1", "--store", url, "--coordinator-only",
                "--csv", str(fabric_csv),
            ],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # Worker A dies by SIGKILL the instant its second claim is
            # durable: one cell finished, one cell leased-but-dead.
            killed = _cli(
                [
                    "worker", "--store", url, "--worker-id", "doomed",
                    "--lease", "1", "--wait-for-store", "60",
                ],
                env={STORE_CRASH_HOOK_ENV: "claim:2"},
            )
            assert killed.returncode == -signal.SIGKILL

            # Worker B claims the rest, takes over the dead lease after it
            # expires (~1s), and runs the store dry.
            clean = _cli(
                [
                    "worker", "--store", url, "--worker-id", "medic",
                    "--lease", "1", "--wait-for-store", "60",
                ]
            )
            assert clean.returncode == 0, clean.stderr

            out, err = coordinator.communicate(timeout=120)
            assert coordinator.returncode == 0, err
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.communicate()

        # The reclaim actually happened, and nothing ran twice.
        store = open_store(url)
        events = [e["event"] for e in store.events()]
        assert "reclaimed" in events
        finished = [
            e["cell"] for e in store.events() if e["event"] == "finished"
        ]
        assert sorted(finished) == sorted(set(finished))  # once per cell

        doctor = _cli(
            ["runs", "doctor", "--store", url, "--assert-no-reexecution"]
        )
        assert doctor.returncode == 0, doctor.stdout + doctor.stderr
        assert "reexecution: none" in doctor.stdout
        assert "complete" in doctor.stdout.splitlines()[-1]

        assert fabric_csv.read_bytes() == control_csv.read_bytes()


class TestSubprocessWorkers:
    def test_spawned_workers_produce_the_control_csv(self, tmp_path):
        control_csv = tmp_path / "control.csv"
        fabric_csv = tmp_path / "fabric.csv"
        done = _cli(
            ["sweep", *CLI_GRID, "--workers", "1", "--csv", str(control_csv)]
        )
        assert done.returncode == 0, done.stderr

        url = f"sqlite:{tmp_path / 'fan.sqlite'}"
        fanned = _cli(
            [
                "sweep", *CLI_GRID, "--workers", "2", "--store", url,
                "--csv", str(fabric_csv),
            ]
        )
        assert fanned.returncode == 0, fanned.stderr
        assert fabric_csv.read_bytes() == control_csv.read_bytes()


class TestPollBackoff:
    """Satellite: the worker's idle poll backs off with full jitter."""

    def test_bounds_grow_exponentially_to_the_cap(self):
        drawn = []

        def rng(low, high):
            drawn.append((low, high))
            return high

        backoff = PollBackoff(0.2, 5.0, rng=rng)
        delays = [backoff.next_delay() for _ in range(6)]
        # Upper bound doubles from the floor until the cap clamps it.
        assert drawn == [
            (0.2, 0.2), (0.2, 0.4), (0.2, 0.8),
            (0.2, 1.6), (0.2, 3.2), (0.2, 5.0),
        ]
        assert delays == [high for _, high in drawn]

    def test_reset_returns_to_the_floor(self):
        backoff = PollBackoff(0.2, 5.0, rng=lambda low, high: high)
        for _ in range(4):
            backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == pytest.approx(0.2)

    def test_delay_never_leaves_the_floor_cap_band(self):
        import random

        rng = random.Random(7)
        backoff = PollBackoff(0.1, 2.0, rng=rng.uniform)
        for _ in range(50):
            delay = backoff.next_delay()
            assert 0.1 <= delay <= 2.0

    def test_floor_and_cap_are_validated(self):
        with pytest.raises(ValueError):
            PollBackoff(0.0)
        with pytest.raises(ValueError):
            PollBackoff(1.0, 0.5)

    def test_worker_claim_resets_the_backoff(self, tmp_path):
        """A worker that has been starved drops back to the floor the
        moment a cell becomes claimable."""
        url = f"sqlite:{tmp_path / 'backoff.sqlite'}"
        coordinator = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "sweep", *CLI_GRID,
                "--store", url, "--coordinator-only",
            ],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            worker = Worker(
                url, poll_s=0.01, poll_cap_s=0.05, wait_store_s=60
            )
            for _ in range(3):
                worker.backoff.next_delay()  # pretend we starved a while
            stats = worker.run()
            assert stats.completed > 0
            assert worker.backoff._attempts == 0  # reset on the last claim
            out, err = coordinator.communicate(timeout=120)
            assert coordinator.returncode == 0, err
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.communicate()
