"""Tests for the command-line driver."""

from __future__ import annotations

import pytest

from repro.cli import (
    EXIT_INFRA,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_VIOLATION,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--algorithm", "alg1", "--n", "7", "--t", "2"]
        )
        assert args.algorithm == "alg1"
        assert args.attack == "silent"

    def test_size_parsing(self):
        args = build_parser().parse_args(
            ["sweep", "--algorithms", "alg1", "--sizes", "7:2", "10:3"]
        )
        assert args.sizes == [(7, 2), (10, 3)]

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--algorithms", "alg1", "--sizes", "7-2"]
            )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--algorithm", "bogus", "--n", "7", "--t", "2"]
            )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "alg1" in out and "id-forging" in out and "uniform" in out

    def test_run_ok(self, capsys):
        code = main(
            ["run", "--algorithm", "alg1", "--n", "7", "--t", "2",
             "--attack", "id-forging", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "->" in out

    def test_run_alg4(self, capsys):
        code = main(
            ["run", "--algorithm", "alg4", "--n", "11", "--t", "2",
             "--attack", "selective-echo"]
        )
        assert code == 0

    def test_scenario(self, capsys):
        code = main(["scenario", "saturation"])
        assert code == 0
        assert "forging" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--algorithms", "alg1", "alg4", "--sizes", "7:2", "11:2",
             "--attacks", "silent", "noise", "--seeds", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alg1" in out and "alg4" in out

    def test_sweep_parallel_and_cached(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "sweep", "--algorithms", "alg1", "--sizes", "7:2",
            "--attacks", "silent", "--seeds", "0", "1",
            "--workers", "2", "--cache", str(cache),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out
        # Second invocation hits the cache: zero runs executed.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out

    def test_run_rejects_meaningless_pairing(self, capsys):
        code = main(
            ["run", "--algorithm", "okun-crash", "--n", "7", "--t", "2",
             "--attack", "id-forging"]
        )
        # Configuration errors are infra failures (3), not violations (2):
        # the measurement never happened.
        assert code == 3
        assert "valid attacks" in capsys.readouterr().err

    def test_sweep_csv(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = main(
            ["sweep", "--algorithms", "alg1", "--sizes", "7:2",
             "--attacks", "silent", "--csv", str(target)]
        )
        assert code == 0
        assert target.exists()
        assert "algorithm" in target.read_text().splitlines()[0]

    def test_bounds(self, capsys):
        code = main(["bounds", "7:2", "11:2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N>3t" in out and "28/27" in out

    def test_inspect(self, capsys):
        code = main(
            ["inspect", "--algorithm", "alg1", "--n", "7", "--t", "2",
             "--attack", "divergence", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rank spread" in out
        assert "accepted-set views" in out
        assert "properties: OK" in out

    def test_inspect_save(self, capsys, tmp_path):
        target = tmp_path / "run.json"
        code = main(
            ["inspect", "--algorithm", "alg1", "--n", "7", "--t", "2",
             "--save", str(target)]
        )
        assert code == 0
        from repro.analysis import load_run

        archive = load_run(target)
        assert archive.n == 7


class TestExitCodeContract:
    """The documented exit codes (docs/robustness.md) are append-only API."""

    def test_contract_values(self):
        assert EXIT_OK == 0
        assert EXIT_VIOLATION == 2
        assert EXIT_INFRA == 3
        assert EXIT_INTERRUPTED == 4

    def test_success_is_zero(self):
        assert main(
            ["run", "--algorithm", "alg1", "--n", "7", "--t", "2"]
        ) == EXIT_OK

    def test_configuration_error_is_infra(self, capsys):
        code = main(
            ["run", "--algorithm", "alg1", "--n", "6", "--t", "2"]
        )
        assert code == EXIT_INFRA
        capsys.readouterr()

    def test_unusable_journal_is_infra(self, capsys, tmp_path):
        torn = tmp_path / "sessions.jsonl"
        torn.write_text('{"v": 1, "seq": 0, "ty')
        assert main(["sessions", "list", "--journal", str(torn)]) == EXIT_INFRA
        assert "no header" in capsys.readouterr().err
        code = main(
            ["runs", "resume", "--store", str(tmp_path / "missing")]
        )
        assert code == EXIT_INFRA
        assert "no result store" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_duplicate_run_id_is_infra(self, capsys, tmp_path):
        argv = [
            "sweep", "--algorithms", "alg1", "--sizes", "7:2", "--seeds", "0",
            "--workers", "1", "--store", str(tmp_path / "dup"),
            "--run-id", "dup",
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK  # the same run again: a resume
        capsys.readouterr()
        other = [("1" if arg == "0" else arg) for arg in argv]  # other grid
        assert main(other) == EXIT_INFRA
        assert "different config fingerprint" in capsys.readouterr().err

    def test_bad_run_id_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--algorithms", "alg1", "--sizes", "7:2",
                 "--store", "x", "--run-id", "../escape"]
            )


class TestRunsCommands:
    def _journaled_sweep(self, tmp_path, run_id="r1"):
        return main([
            "sweep", "--algorithms", "alg1", "--sizes", "7:2",
            "--seeds", "0", "1", "--workers", "1",
            "--store", str(tmp_path / run_id), "--run-id", run_id,
        ])

    def test_list_empty(self, capsys, tmp_path):
        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == EXIT_OK
        assert "no result stores" in capsys.readouterr().out

    def test_journaled_sweep_then_list(self, capsys, tmp_path):
        assert self._journaled_sweep(tmp_path) == EXIT_OK
        capsys.readouterr()
        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "r1" in out and "sweep" in out and "complete" in out

    def test_resume_complete_run_executes_nothing(self, capsys, tmp_path):
        assert self._journaled_sweep(tmp_path) == EXIT_OK
        capsys.readouterr()
        code = main([
            "runs", "resume", "--store", str(tmp_path / "r1"),
            "--workers", "1",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0 executed" in out and "2 restored" in out

    def test_doctor_asserts_no_reexecution(self, capsys, tmp_path):
        assert self._journaled_sweep(tmp_path) == EXIT_OK
        main(["runs", "resume", "--store", str(tmp_path / "r1"),
              "--workers", "1"])
        capsys.readouterr()
        code = main([
            "runs", "doctor", "--store", str(tmp_path / "r1"),
            "--assert-no-reexecution",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "reexecution: none" in out
        assert "complete" in out

    def test_doctor_missing_header_is_infra(self, capsys, tmp_path):
        # A store directory whose header was never written: not a run.
        (tmp_path / "bad").mkdir()
        code = main(["runs", "doctor", "--store", str(tmp_path / "bad")])
        assert code == EXIT_INFRA
        assert "not seeded" in capsys.readouterr().err

    def test_journaled_chaos_round_trip(self, capsys, tmp_path):
        argv = [
            "chaos", "--algorithms", "alg1", "--sizes", "7:2",
            "--seeds", "0", "--chaos-seeds", "0", "--drop", "0.2",
            "--workers", "1", "--store", str(tmp_path / "c1"),
            "--run-id", "c1",
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        code = main([
            "runs", "resume", "--store", str(tmp_path / "c1"),
            "--workers", "1",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "already terminal, 0 to execute" in out
