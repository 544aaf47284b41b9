"""Large-scale spot checks: the guarantees at the biggest sizes we run.

The parametrized matrices elsewhere stay small for speed; this module
pushes each algorithm to larger (N, t) against its strongest attack once,
so scale-dependent bugs (overflow in bounds arithmetic, Fraction blowup,
quadratic hot loops) can't hide behind small fixtures.
"""

from __future__ import annotations

import pytest

from helpers import assert_renaming_ok
from repro import (
    ConstantTimeRenaming,
    OrderPreservingRenaming,
    SystemParams,
    TwoStepRenaming,
    run_protocol,
)
from repro.adversary import make_adversary
from repro.workloads import make_ids


class TestAlg1LargeScale:
    @pytest.mark.parametrize(
        "n,t,attack",
        [
            (19, 6, "id-forging"),
            (25, 8, "divergence-valid"),
            (31, 10, "rank-skew"),
            (40, 13, "silent"),
            # Where ⌊t²/(N−2t)⌋ and the 3⌈log₂ t⌉+7 round bound are large.
            pytest.param(64, 21, "divergence-valid", marks=pytest.mark.slow),
            pytest.param(64, 21, "silent", marks=pytest.mark.slow),
            pytest.param(100, 33, "divergence-valid", marks=pytest.mark.slow),
            pytest.param(100, 33, "silent", marks=pytest.mark.slow),
            # The slowest alg1 attack: two forged votes per faulty sender.
            pytest.param(64, 21, "rank-skew", marks=pytest.mark.slow),
            pytest.param(100, 33, "rank-skew", marks=pytest.mark.slow),
        ],
    )
    def test_properties_and_rounds(self, n, t, attack):
        params = SystemParams(n, t)
        result = run_protocol(
            OrderPreservingRenaming,
            n=n,
            t=t,
            ids=make_ids("uniform", n, seed=0),
            adversary=make_adversary(attack),
            seed=0,
        )
        assert_renaming_ok(
            result, params.namespace_bound, context=f"n={n} t={t} {attack}"
        )
        assert result.metrics.round_count == params.total_rounds

    def test_forging_saturation_at_scale(self):
        n, t = 25, 8
        result = run_protocol(
            OrderPreservingRenaming,
            n=n,
            t=t,
            ids=make_ids("uniform", n, seed=1),
            adversary=make_adversary("id-forging"),
            seed=1,
            collect_trace=True,
        )
        bound = SystemParams(n, t).accepted_bound
        sizes = [
            len(e.detail)
            for e in result.trace.select(event="accepted")
            if e.process in result.correct
        ]
        assert max(sizes) == bound


class TestConstantTimeLargeScale:
    @pytest.mark.parametrize("t", [4, 5])
    def test_boundary_at_larger_t(self, t):
        n = t * t + 2 * t + 1
        result = run_protocol(
            ConstantTimeRenaming,
            n=n,
            t=t,
            ids=make_ids("uniform", n, seed=0),
            adversary=make_adversary("id-forging"),
            seed=0,
        )
        assert_renaming_ok(result, n, context=f"constant t={t}")
        assert result.metrics.round_count == 8


class TestAlg4LargeScale:
    @pytest.mark.parametrize("n,t", [(37, 4), (56, 5)])
    def test_fast_regime_at_scale(self, n, t):
        params = SystemParams(n, t)
        result = run_protocol(
            TwoStepRenaming,
            n=n,
            t=t,
            ids=make_ids("uniform", n, seed=0),
            adversary=make_adversary("selective-echo"),
            seed=0,
        )
        assert_renaming_ok(result, params.fast_namespace_bound)
        assert result.metrics.round_count == 2

    def test_discrepancy_bound_at_scale(self):
        n, t = 37, 4
        result = run_protocol(
            TwoStepRenaming,
            n=n,
            t=t,
            ids=make_ids("uniform", n, seed=0),
            adversary=make_adversary("selective-echo"),
            seed=0,
        )
        estimates = {}
        for index in result.correct:
            for identifier, name in result.processes[index].new_names.items():
                estimates.setdefault(identifier, []).append(name)
        correct_ids = {result.ids[i] for i in result.correct}
        worst = max(
            max(values) - min(values)
            for identifier, values in estimates.items()
            if identifier in correct_ids
        )
        assert worst <= 2 * t * t
