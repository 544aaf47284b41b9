"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <paper-exact|sweep-grid|service-mix>
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures half the window untraced
and half traced and reports the per-layer metrics, the layer table with
its ``other`` remainder, and the tracing overhead. Every operation's
output is checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Metric names and units
come from ``BENCHMARK.json``; see ``perfbench/DESIGN.md`` for what each
metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("paper-exact", "sweep-grid", "service-mix")


def load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> common.Result:
    if name == "paper-exact":
        import paper_exact as module
    elif name == "sweep-grid":
        import sweep_grid as module
    else:
        import service_mix as module
    return module.run(seed, seconds, trace)


def render(result: common.Result, spec: dict, trace: bool) -> dict:
    """The JSON result line; every declared metric must be present."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result.metrics]
    if missing:
        raise SystemExit(f"perfbench: workload did not measure {missing}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.ensure_program()
    spec = load_spec()
    started = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = render(result, spec, bool(args.trace))

    env = common.fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ({time.perf_counter() - started:.1f} s)")
    print("environment: " + json.dumps(env, sort_keys=True))
    for text in result.lines:
        print(text)
    for problem in result.problems:
        print(f"FAILED CHECK: {problem}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in declared:
        print(f"{m['name']:48s} {line['metrics'][m['name']]['value']:14.6g} {m['unit']}")
    artifact = {"args": vars(args), "environment": env, "result": line, **result.artifact}
    path = os.path.join(
        common.WORK, f"result-{args.workload}-{args.seed}-{'traced' if args.trace else 'timed'}.json"
    )
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=1, default=str)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
