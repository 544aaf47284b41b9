"""Run one ``repro-renaming`` command with the benchmark's tracing installed.

    python3 perfbench/launch.py <worker|serve> <trace-out.json> <cli args...>

Installs the span wrappers for the role (:mod:`tracing`), calls
``repro.cli.main(<cli args>)`` and, when it returns, writes the spans,
counters, the process's start/end timestamps and its peak RSS to
``<trace-out.json>``. The exit code is the command's own.
"""

import os
import resource
import sys
import time

started_ns = time.perf_counter_ns()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402

INSTALLERS = {"worker": tracing.install_worker, "serve": tracing.install_service}


def main() -> int:
    role, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    INSTALLERS[role](tracer)
    ready_ns = time.perf_counter_ns()
    from repro.cli import main as cli_main

    code = 1
    try:
        code = cli_main(argv)
    finally:
        tracer.dump(
            out,
            extra={
                "role": role,
                "started_ns": started_ns,
                "ready_ns": ready_ns,
                "ended_ns": time.perf_counter_ns(),
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
