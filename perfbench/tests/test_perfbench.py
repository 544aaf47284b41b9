"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/tests -q

They run every workload at smoke size in a subprocess (about two
minutes in all), check the result line against ``BENCHMARK.json``, and
check that a corrupted output fails each workload's output check.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(1, os.path.join(ROOT, "src"))

import common  # noqa: E402
import run as runner  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_follows_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", runner.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(spec, workload, trace):
    stdout, line = smoke(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, metric["name"]
        assert metric["name"] in stdout.split(json.dumps(line))[0]
    if trace:
        assert "  other " in stdout and "tracing overhead" in stdout


def test_corrupted_paper_exact_run_fails_its_check():
    import paper_exact
    from repro.analysis.experiments import run_experiment
    from repro.workloads import make_ids

    record = run_experiment("alg1", 7, 2, make_ids("uniform", 7, seed=3),
                            attack="rank-skew", seed=3, monitor=True)
    result = common.Result()
    paper_exact.check(record, result, "intact")
    assert result.failed == 0
    outputs = record.result.outputs
    first, second = sorted(outputs)[:2]
    outputs[first], outputs[second] = outputs[second], outputs[first]
    paper_exact.check(record, result, "swapped")
    assert result.failed == 1 and not result.correct


def test_corrupted_sweep_row_fails_its_check():
    import sweep_grid
    from repro.analysis.executor import RunTask, execute_task

    rows = [execute_task(RunTask("alg4", 11, 2, "selective-echo", seed)) for seed in (1, 2)]
    result = common.Result()
    for row in rows:
        sweep_grid.check_row(row, result)
    assert result.failed == 0
    names = dict(rows[0].report.names)
    first, second = sorted(names)[:2]
    names[first], names[second] = names[second], names[first]
    corrupted = dataclasses.replace(
        rows[0], report=dataclasses.replace(rows[0].report, names=names)
    )
    sweep_grid.check_row(corrupted, result)
    assert result.failed == 1
    assert sweep_grid.digest([corrupted, rows[1]]) != sweep_grid.digest(rows)


def served(spec, entries, namespace):
    """A completed session outcome as the client would see it."""
    import service_mix
    from repro.service.load import SessionOutcome
    from repro.service.messages import CertificateMessage

    certificate = CertificateMessage(namespace=namespace, ok=True,
                                     checked=("validity", "order_preservation"),
                                     violations=())
    outcome = SessionOutcome(status="completed", algorithm=spec.algorithm, rounds=2,
                             entries=entries, certificate=certificate)
    return service_mix.Done(spec, 0.0, 0.001, outcome)


IDS = (101, 202, 303, 404, 505, 606, 707, 808)


def test_corrupted_replay_fails_its_check():
    import service_mix
    from repro.service.load import validate_names

    entries = tuple((i, k + 1) for k, i in enumerate(IDS))
    spec = service_mix.Spec(0, "tokened", IDS, 0, "silent", 0, "tok")
    original = served(spec, entries, 8)
    swapped = ((101, 2), (202, 1)) + entries[2:]
    assert validate_names(swapped, 8, expected_count=8)
    replay = dataclasses.replace(spec, kind="replay", original=0)
    result = common.Result()
    service_mix.check(dataclasses.replace(original, spec=replay), {0: original}, result)
    assert result.failed == 0
    service_mix.check(served(replay, swapped, 8), {0: original}, result)
    assert result.failed == 1


def test_session_outside_the_proven_namespace_fails_its_check():
    """The daemon's certificate claims a wider namespace than Alg. 4's
    N² (Theorem VI.3); the benchmark derives the bound itself and fails
    the run."""
    import service_mix

    spec = service_mix.Spec(0, "small", IDS, 0, "silent", 0)
    widened = tuple((i, 10 * (k + 1)) for k, i in enumerate(IDS))
    result = common.Result()
    service_mix.check(served(spec, widened, 100), {}, result)
    assert result.failed == 1 and "outside [1..64]" in result.problems[0]


def test_sweep_row_outside_the_proven_namespace_fails_its_check():
    import sweep_grid
    from repro.analysis.executor import RunTask, execute_task

    row = execute_task(RunTask("alg4", 11, 2, "selective-echo", 1))
    last = max(row.report.names, key=row.report.names.get)
    names = dict(row.report.names)
    names[last] = row.report.namespace + 1
    widened = dataclasses.replace(
        row, report=dataclasses.replace(row.report, names=names,
                                        namespace=row.report.namespace + 5)
    )
    result = common.Result()
    sweep_grid.check_row(widened, result)
    assert result.failed == 1


def test_exact_repeat_guard_fails_on_a_differing_count():
    import layers

    counts = {"sim.rounds": 16, "sim.correct_messages": 900}
    report = layers.Report(wall_ns=1, ops=1, selfs={}, other_ns=0, unit="first cycle",
                           exact=dict(counts), repeat=("the repeat", dict(counts)))
    result = common.Result(attempted=1)
    layers.finish(result, report)
    assert result.correct
    report.repeat = ("the repeat", {**counts, "sim.correct_messages": 901})
    layers.finish(result, report)
    assert result.failed == 1 and "sim.correct_messages" in result.problems[0]


def test_stripped_checkout_exits_nonzero_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no program."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
