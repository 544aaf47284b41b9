"""Parameter sweeps: grids of (algorithm × (n, t) × attack × seed) runs.

Benchmarks express each experiment as a sweep plus an aggregation; this
module owns the grid definition and record collection so each bench file is
just "define the grid, aggregate the rows, print the table". Execution lives
in :mod:`repro.analysis.executor`: grids fan out over a process pool (with
deterministic result ordering) and can be memoised on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..sim import DEFAULT_ENGINE, SystemModel
from .executor import ExperimentSummary, ResultCache, RunTask, SweepExecutor
from .experiments import ALGORITHMS


@dataclass(frozen=True)
class SweepConfig:
    """A grid of experiment configurations.

    ``sizes`` are (n, t) pairs; configurations an algorithm's resilience
    condition rejects are skipped (a sweep over mixed regimes is normal).
    ``engine`` selects the simulator round loop for every cell (see
    :mod:`repro.sim.engine`); results are engine-independent. ``model``
    (a :class:`~repro.sim.SystemModel`, ``None`` for classic) selects the
    system model for every cell; algorithms not registered as meaningful
    under the model's kind are skipped, mirroring the attack filter.
    """

    algorithms: Sequence[str]
    sizes: Sequence[Tuple[int, int]]
    attacks: Sequence[str] = ("silent",)
    seeds: Sequence[int] = (0,)
    workload: str = "uniform"
    collect_trace: bool = False
    max_rounds: int = 1000
    engine: str = DEFAULT_ENGINE
    model: Optional[SystemModel] = None

    def to_dict(self) -> dict:
        """JSON-ready grid description (the store header's ``config``)."""
        payload = {
            "algorithms": list(self.algorithms),
            "sizes": [list(size) for size in self.sizes],
            "attacks": list(self.attacks),
            "seeds": list(self.seeds),
            "workload": self.workload,
            "collect_trace": self.collect_trace,
            "max_rounds": self.max_rounds,
            "engine": self.engine,
        }
        if self.model is not None:
            payload["model"] = self.model.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepConfig":
        """Inverse of :meth:`to_dict`."""
        model = payload.get("model")
        return cls(
            algorithms=payload["algorithms"],
            sizes=[tuple(size) for size in payload["sizes"]],
            attacks=payload["attacks"],
            seeds=payload["seeds"],
            workload=payload["workload"],
            collect_trace=payload["collect_trace"],
            max_rounds=payload["max_rounds"],
            engine=payload["engine"],
            model=None if model is None else SystemModel.from_dict(model),
        )

    def configurations(self) -> Iterator[Tuple[str, int, int, str, int]]:
        """Yield runnable (algorithm, n, t, attack, seed) tuples."""
        model_kind = "classic" if self.model is None else self.model.kind
        for algorithm in self.algorithms:
            spec = ALGORITHMS[algorithm]
            if model_kind not in spec.models:
                continue
            for n, t in self.sizes:
                if not spec.supports(n, t):
                    continue
                for attack in self.attacks:
                    if attack not in spec.attacks:
                        continue
                    for seed in self.seeds:
                        yield algorithm, n, t, attack, seed


def run_sweep(
    config: SweepConfig,
    *,
    workers: Optional[int] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    run_hook: Optional[Callable[[RunTask], None]] = None,
    store=None,
) -> List[ExperimentSummary]:
    """Execute every configuration in the grid.

    ``workers=None`` uses one worker process per CPU, ``workers=1`` runs
    serially in-process; results are ordered by configuration index either
    way, so the two paths produce identical tables and CSVs. ``cache`` (a
    directory or :class:`ResultCache`) skips configurations whose summaries
    are already on disk. ``store`` (a store URL or
    :class:`~repro.analysis.store.ResultStore`) runs the grid on the
    coordinator/worker fabric instead of a process pool — same rows, same
    order. See :class:`repro.analysis.executor.SweepExecutor`.
    """
    executor = SweepExecutor(workers=workers, cache=cache, run_hook=run_hook)
    return executor.run(config, store=store)


def group_by(
    records: Iterable[ExperimentSummary], *keys: str
) -> Dict[Tuple, List[ExperimentSummary]]:
    """Group records (summaries or full records) by attribute names,
    preserving insertion order."""
    groups: Dict[Tuple, List[ExperimentSummary]] = {}
    for record in records:
        group_key = tuple(getattr(record, key) for key in keys)
        groups.setdefault(group_key, []).append(record)
    return groups
