"""White-box tests of attack construction details.

The attacks *are* executable versions of the paper's proof constructions, so
their internals deserve the same scrutiny as the protocols: a buggy attack
silently weakens every "properties hold under attack" test.
"""

from __future__ import annotations

from functools import partial

import pytest

from helpers import standard_ids
from legacy_reference import LEGACY_VOTING_ATTACKS
from repro import OrderPreservingRenaming, TwoStepRenaming, run_protocol
from repro.adversary import (
    AsymmetricForgingAdversary,
    DivergenceAdversary,
    IdForgingAdversary,
    SelectiveEchoAdversary,
    SplitWorldAdversary,
    make_adversary,
)
from repro.core import RanksMessage
from repro.core.id_selection import ID_SELECTION_STEPS
from repro.core.renaming import RenamingOptions


def bind_against(adversary, factory=OrderPreservingRenaming, n=7, t=2, seed=0):
    """Run one round so bind() executes, then return (adversary, result)."""
    result = run_protocol(
        factory,
        n=n,
        t=t,
        ids=standard_ids(n),
        adversary=adversary,
        seed=seed,
        collect_trace=True,
    )
    return adversary, result


class TestIdForgingInternals:
    def test_fake_count_matches_budget(self):
        adversary, _ = bind_against(IdForgingAdversary())
        # n=7, t=2: floor(t(N-t)/(N-2t)) = floor(10/3) = 3 fakes.
        assert len(adversary.fakes) == 3

    def test_requested_count_capped_by_budget(self):
        adversary, _ = bind_against(IdForgingAdversary(count=100))
        assert len(adversary.fakes) == 3

    def test_smaller_count_honoured(self):
        adversary, result = bind_against(IdForgingAdversary(count=1))
        accepted = [
            len(e.detail)
            for e in result.trace.select(event="accepted")
            if e.process in result.correct
        ]
        assert max(accepted) == (7 - 2) + 1

    def test_fakes_disjoint_from_all_ids(self):
        adversary, result = bind_against(IdForgingAdversary())
        assert not set(adversary.fakes) & set(result.ids.values())


class TestAsymmetricForgingInternals:
    def test_victims_limited_to_t(self):
        adversary, _ = bind_against(AsymmetricForgingAdversary(victim_count=5))
        assert len(adversary.victims) <= 2

    def test_divergence_only_at_victims(self):
        adversary, result = bind_against(AsymmetricForgingAdversary())
        views = {
            e.process: frozenset(e.detail)
            for e in result.trace.select(event="accepted")
            if e.process in result.correct
        }
        fakes = set(adversary.fakes)
        for process, view in views.items():
            if process in adversary.victims:
                assert fakes <= view
            else:
                assert not fakes & view

    def test_fakes_never_timely(self):
        """The construction must stay below the timely threshold or Lemma
        IV.1's amplification would uniformise the views."""
        adversary, result = bind_against(AsymmetricForgingAdversary())
        fakes = set(adversary.fakes)
        for event in result.trace.select(event="timely"):
            if event.process in result.correct:
                assert not fakes & set(event.detail)

    def test_t_zero_noop(self):
        adversary, result = bind_against(
            AsymmetricForgingAdversary(), n=5, t=0
        )
        assert adversary.fakes == []
        assert len(result.new_names()) == 5

    def test_alternate_victims_interleave(self):
        adversary, result = bind_against(
            AsymmetricForgingAdversary(victim_mode="alternate")
        )
        by_id = sorted(result.correct, key=lambda i: result.ids[i])
        expected = by_id[1::2][:2]
        assert list(adversary.victims) == expected

    def test_unknown_victim_mode_rejected(self):
        with pytest.raises(ValueError):
            AsymmetricForgingAdversary(victim_mode="sideways")


class TestDivergenceInternals:
    def test_unknown_push_mode_rejected(self):
        with pytest.raises(ValueError):
            DivergenceAdversary(push_mode="sideways")

    def test_zigzag_votes_all_filtered(self):
        """Every zigzag vote must fail isValid — if any slipped through the
        E9a ablation conclusion would be suspect."""
        from repro.core import SystemParams, is_valid_ranks

        adversary, result = bind_against(DivergenceAdversary())
        outboxes = adversary._voting_push({})
        params = SystemParams(7, 2)
        correct_ids = sorted(result.ids[i] for i in result.correct)
        for outbox in outboxes.values():
            for messages in outbox.values():
                for message in messages:
                    vote = message.as_dict()
                    assert not is_valid_ranks(correct_ids, vote, params.delta)

    def test_valid_shift_votes_all_pass(self):
        from repro.core import SystemParams, is_valid_ranks

        adversary, result = bind_against(
            DivergenceAdversary(push_mode="valid-shift")
        )
        outboxes = adversary._voting_push({})
        params = SystemParams(7, 2)
        correct_ids = sorted(result.ids[i] for i in result.correct)
        for outbox in outboxes.values():
            for messages in outbox.values():
                for message in messages:
                    vote = message.as_dict()
                    assert is_valid_ranks(correct_ids, vote, params.delta)


class TestSelectiveEchoInternals:
    def test_poisoned_echo_exactly_n_ids(self):
        adversary, _ = bind_against(
            SelectiveEchoAdversary(), factory=TwoStepRenaming, n=11, t=2
        )
        outboxes = adversary._echo()
        for outbox in outboxes.values():
            for messages in outbox.values():
                for message in messages:
                    assert len(message.ids) <= 11

    def test_target_modes(self):
        for mode, picker in (
            ("alternate", lambda ordered: set(ordered[::2])),
            ("low-half", lambda ordered: set(ordered[: len(ordered) // 2])),
            ("high-half", lambda ordered: set(ordered[len(ordered) // 2:])),
        ):
            adversary, result = bind_against(
                SelectiveEchoAdversary(target=mode),
                factory=TwoStepRenaming,
                n=11,
                t=2,
            )
            ordered = sorted(result.correct, key=lambda i: result.ids[i])
            assert adversary.targets == picker(ordered), mode

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            SelectiveEchoAdversary(target="everyone")


class TestSplitWorldInternals:
    def test_unknown_support_rejected(self):
        with pytest.raises(ValueError):
            SplitWorldAdversary(support="most")

    def test_threshold_support_sizes(self):
        adversary, result = bind_against(SplitWorldAdversary())
        for slot, fakes in adversary._fakes.items():
            first, second = fakes
            audiences = adversary._audience[slot]
            assert len(audiences[first]) == 7 - 2 * 2  # N - 2t
            assert len(audiences[first]) + len(audiences[second]) == 5


def recording(adversary):
    """Wrap ``adversary.mutate_outbox`` to keep every outbox it returns,
    keyed by ``(round, faulty slot)``."""
    outboxes = {}
    mutate = adversary.mutate_outbox

    def record(round_no, index, genuine, correct_outboxes):
        outbox = mutate(round_no, index, genuine, correct_outboxes)
        outboxes[round_no, index] = outbox
        return outbox

    adversary.mutate_outbox = record
    return outboxes


class TestVotingPhaseForging:
    """The voting-phase attacks forge one vote per audience; every peer
    must still receive what the frozen per-peer forging sent it."""

    @pytest.mark.parametrize("attack", sorted(LEGACY_VOTING_ATTACKS))
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("n,t,seed", [(7, 2, 0), (10, 3, 1), (13, 4, 2)])
    def test_every_peer_gets_the_frozen_vote(self, attack, exact, n, t, seed):
        factory = partial(
            OrderPreservingRenaming, options=RenamingOptions(exact_arithmetic=exact)
        )
        live, frozen = make_adversary(attack), LEGACY_VOTING_ATTACKS[attack]()
        live_outboxes, frozen_outboxes = recording(live), recording(frozen)
        runs = [
            run_protocol(
                factory, n=n, t=t, ids=standard_ids(n), adversary=adversary,
                seed=seed, collect_trace=True,
            )
            for adversary in (live, frozen)
        ]
        assert list(runs[0].trace) == list(runs[1].trace)
        assert live_outboxes.keys() == frozen_outboxes.keys()
        voting = [key for key in live_outboxes if key[0] > ID_SELECTION_STEPS]
        assert voting, "the attack never reached the voting phase"
        for key in voting:
            live_box, frozen_box = live_outboxes[key], frozen_outboxes[key]
            assert live_box == frozen_box, key
            votes = [message for messages in live_box.values() for message in messages]
            assert len(votes) == n and all(isinstance(m, RanksMessage) for m in votes)
            assert len({id(message) for message in votes}) <= 2, key
