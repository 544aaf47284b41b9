"""Shared plumbing: paths, statistics, the environment fingerprint and the
result every workload returns."""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib.util
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
#: Starts a ``repro-renaming`` command with the span wrappers installed.
LAUNCH = os.path.join(HERE, "launch.py")

#: Percentiles tried, highest first, for a timing's tail figure.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def ensure_program() -> None:
    """Put the checkout's ``src`` on the import path, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)


def remove(*paths: str) -> None:
    """Delete scratch files a run left in the work directory."""
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else SRC
    return env


# ----------------------------------------------------------------- statistics


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 < pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_pct(count: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def timing(values: Sequence[float]) -> str:
    """``p50 / pXX (n=...)`` for a list of seconds, shown in ms."""
    if not values:
        return "no samples"
    pct = tail_pct(len(values))
    return (
        f"p50 {1000 * statistics.median(values):.3f} ms, "
        f"p{pct:g} {1000 * percentile(values, pct):.3f} ms (n={len(values)})"
    )


# ------------------------------------------------------------------ host speed

#: Wall time of one :func:`kernel` call on the reference host. Every
#: end-to-end time is scaled to this speed (see :class:`HostSpeed`).
REFERENCE_KERNEL_S = 0.008


def kernel() -> tuple:
    """Fixed pure-Python work in the program's idiom (tuples in dicts,
    lists, sets, exact fractions, a keyed sort). It calls no program code,
    so a change to the program leaves it alone; it only tracks how fast
    the host runs Python at the moment it is probed."""
    table: Dict[tuple, list] = {}
    total = Fraction(0)
    for i in range(2400):
        table.setdefault((i % 97, i % 13), []).append((i, -i))
        total += Fraction(i % 17, 1 + i % 11)
    ranked = sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return total, len({key for key, rows in ranked if len(rows) > 20})


class HostSpeed:
    """Probes of :func:`kernel` interleaved with the measured work.

    A shared host runs the same code 25-50 % slower for stretches of
    seconds to minutes. A probe taken next to a measurement sees the same
    slowdown, so ``wall * factor(...)`` is the wall time the measurement
    would have taken on a host where the kernel takes
    :data:`REFERENCE_KERNEL_S`. The probes run between operations, never
    alongside one.
    """

    def __init__(self) -> None:
        #: (perf_counter at the probe's start, kernel seconds), in time order.
        self.samples: List[Tuple[float, float]] = []
        kernel()  # the first call pays one-off costs; keep it out of the samples

    def probe(self, repeats: int = 1) -> None:
        # The collector is off while the kernel runs: a collection would
        # walk the benchmark's own heap (a session log, a run list), which
        # grows during a run and says nothing about the host.
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                kernel()
                self.samples.append((start, time.perf_counter() - start))
        finally:
            gc.enable()

    def factor(self, start: float, end: float, nearest: int = 1) -> float:
        """Reference over measured speed for work between ``start`` and
        ``end``: the median of the probes taken inside that interval and
        the ``nearest`` probes on either side of it."""
        starts = [at for at, _ in self.samples]
        low = max(0, bisect.bisect_left(starts, start) - nearest)
        high = bisect.bisect_right(starts, end) + nearest
        chosen = [seconds for _, seconds in self.samples[low:high]]
        if not chosen:
            raise ValueError("no host-speed probe near the measurement")
        return REFERENCE_KERNEL_S / statistics.median(chosen)

    def summary(self) -> str:
        values = [seconds for _, seconds in self.samples]
        return (f"host-speed probes: {len(values)}, kernel median "
                f"{1000 * statistics.median(values):.2f} ms (reference "
                f"{1000 * REFERENCE_KERNEL_S:g} ms), range "
                f"{1000 * min(values):.2f}-{1000 * max(values):.2f} ms")


# ---------------------------------------------------------------- environment


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> Optional[float]:
    """Peak RSS (VmHWM) of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files (the checkout is not always
    a git repository, so this is the commit identity that always exists)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, object]:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    from repro.sim import DEFAULT_ENGINE

    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "default_engine": DEFAULT_ENGINE,
    }


# --------------------------------------------------------------------- result


@dataclass
class Result:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Metric name -> value; run.py emits them with BENCHMARK.json's units.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result line.
    lines: List[str] = field(default_factory=list)
    #: Anything worth keeping for later inspection (written to .work).
    artifact: Dict[str, object] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems

