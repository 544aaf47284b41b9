"""Differential tests: independent execution modes must agree.

Two implementations of the same semantics are a free oracle for each other:

* exact (Fraction) vs float arithmetic — the float path is an approximation
  of the exact one and must produce identical *names* (the δ margins dwarf
  double-precision error at these scales);
* live runs vs their JSON archives — serialisation must be lossless;
* the golden corpus — canonical runs' exact outputs are pinned so silent
  semantic drift (a changed threshold, an off-by-one in a round count)
  cannot slip through a refactor.
"""

from __future__ import annotations

from functools import partial

import pytest

from helpers import standard_ids
from repro import (
    OrderPreservingRenaming,
    RenamingOptions,
    TwoStepRenaming,
    run_protocol,
)
from repro.adversary import ALG1_ATTACKS, make_adversary


class TestExactVsFloat:
    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    def test_names_agree(self, attack):
        n, t, seed = 7, 2, 5
        exact = run_protocol(
            OrderPreservingRenaming,
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary(attack),
            seed=seed,
        )
        floaty = run_protocol(
            partial(
                OrderPreservingRenaming,
                options=RenamingOptions(exact_arithmetic=False),
            ),
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary(attack),
            seed=seed,
        )
        assert exact.new_names() == floaty.new_names(), attack


class TestWireFidelity:
    """Running every correct message through the binary codec must change
    nothing — the codec carries the full protocol losslessly."""

    @pytest.mark.parametrize(
        "attack",
        [
            "silent",
            "id-forging",
            "divergence",
            "rank-skew",
            "rank-compression",
            "order-inversion",
            "boundary-votes",
        ],
    )
    def test_alg1_through_wire(self, attack):
        kwargs = dict(
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary(attack),
            seed=3,
        )
        base = run_protocol(OrderPreservingRenaming, **kwargs)
        wired = run_protocol(
            OrderPreservingRenaming, through_wire=True, **kwargs
        )
        assert base.new_names() == wired.new_names()
        assert base.metrics.round_count == wired.metrics.round_count

    def test_alg4_through_wire(self):
        kwargs = dict(
            n=11,
            t=2,
            ids=standard_ids(11),
            adversary=make_adversary("selective-echo"),
            seed=1,
        )
        base = run_protocol(TwoStepRenaming, **kwargs)
        wired = run_protocol(TwoStepRenaming, through_wire=True, **kwargs)
        assert base.new_names() == wired.new_names()

    def test_baselines_through_wire(self):
        from repro.baselines import FloodSetRenaming, OkunCrashRenaming

        for cls in (OkunCrashRenaming, FloodSetRenaming):
            kwargs = dict(
                n=7,
                t=2,
                ids=standard_ids(7),
                adversary=make_adversary("crash"),
                seed=2,
            )
            base = run_protocol(cls, **kwargs)
            wired = run_protocol(cls, through_wire=True, **kwargs)
            assert base.new_names() == wired.new_names(), cls.__name__


class TestArchiveFidelity:
    def test_every_attack_roundtrips(self, tmp_path):
        from repro.analysis import dump_run, load_run

        for attack in ("id-forging", "divergence", "rank-skew"):
            result = run_protocol(
                OrderPreservingRenaming,
                n=7,
                t=2,
                ids=standard_ids(7),
                adversary=make_adversary(attack),
                seed=1,
                collect_trace=True,
            )
            archive = load_run(dump_run(result, tmp_path / f"{attack}.json"))
            assert archive.new_names() == result.new_names()
            assert len(archive.trace) == len(list(result.trace))


class TestGoldenCorpus:
    """Exact expected outputs of canonical runs. If one of these changes,
    the protocol semantics changed — bump deliberately, never casually."""

    def test_alg1_fault_free(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=6,
            t=0,
            ids=[31, 7, 99, 54, 18, 76],
            seed=0,
        )
        assert result.new_names() == {7: 1, 18: 2, 31: 3, 54: 4, 76: 5, 99: 6}

    def test_alg1_under_forging_seed7(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=[103_441, 55_200, 910_210, 8_118, 77_077, 150_150, 42_424],
            adversary=make_adversary("id-forging"),
            seed=7,
        )
        assert result.byzantine == (1, 6)
        assert result.new_names() == {
            8_118: 1,
            77_077: 5,
            103_441: 6,
            150_150: 7,
            910_210: 8,
        }

    def test_alg4_under_selective_echo_seed99(self):
        result = run_protocol(
            TwoStepRenaming,
            n=11,
            t=2,
            ids=[1_303, 2_771, 4_042, 4_979, 6_331, 7_177, 8_214, 8_846,
                 9_555, 10_203, 11_498],
            adversary=make_adversary("selective-echo"),
            seed=99,
        )
        names = result.new_names()
        assert len(names) == 9
        values = [names[i] for i in sorted(names)]
        assert values == sorted(values)
        assert result.metrics.round_count == 2

    def test_alg1_divergence_seed2_metrics(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary("divergence"),
            seed=2,
        )
        assert result.metrics.round_count == 10
        assert result.metrics.correct_messages == 693
        names = result.new_names()
        assert sorted(names.values()) == [1, 2, 3, 4, 5]
