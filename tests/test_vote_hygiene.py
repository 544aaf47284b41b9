"""Payload-hygiene tests: malformed Byzantine payloads must never crash or
corrupt a correct process.

Found-by-adversarial-testing regression: ``float('nan')`` ranks pass the
``< δ`` rejection in ``isValid`` (every NaN comparison is False), survive
trimming unpredictably, and used to crash correct processes at ``Round()``.
String ids used to crash ``sorted()`` with mixed-type comparisons. These
tests lock the sanitization layer in place across every protocol.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from helpers import assert_renaming_ok, standard_ids
from repro import (
    OrderPreservingRenaming,
    SystemParams,
    TwoStepRenaming,
    run_protocol,
)
from repro.baselines import FloodSetRenaming, OkunCrashRenaming
from repro.core.messages import (
    EchoMessage,
    IdMessage,
    MultiEchoMessage,
    RanksMessage,
    ReadyMessage,
)
from repro.core.renaming import VotingPhase
from repro.core.validation import (
    checked_echo,
    checked_vote,
    is_sound_id,
    is_sound_rank,
    is_sound_vote,
    is_valid_ranks,
)
from repro.sim import Adversary
from repro.wire import decode_message, encode_message


class PoisonAdversary(Adversary):
    """Floods every link with structurally malformed protocol payloads."""

    def _payloads(self):
        nan = float("nan")
        return [
            IdMessage("not-an-int"),
            IdMessage(None),
            IdMessage(-5),
            IdMessage(True),
            EchoMessage("x"),
            ReadyMessage(3.5),
            RanksMessage(entries=(("id", nan),)),
            RanksMessage(entries=((7, nan), (8, nan))),
            RanksMessage(entries=((7, float("inf")),)),
            RanksMessage(entries=((7, "high"),)),
            MultiEchoMessage(ids=("a", 5, None)),
            MultiEchoMessage(ids=(nan,)),
        ]

    def send(self, round_no, correct_outboxes):
        payloads = self._payloads()
        return {
            slot: {link: list(payloads) for link in self.ctx.topology.labels()}
            for slot in self.ctx.byzantine
        }


class NaNVoteAdversary(Adversary):
    """Behaves silently except for well-formed-looking NaN votes — the exact
    historical crash vector."""

    def send(self, round_no, correct_outboxes):
        correct_ids = sorted(self.ctx.ids[i] for i in self.ctx.correct)
        vote = RanksMessage.from_dict({i: float("nan") for i in correct_ids})
        return {
            slot: {link: [vote] for link in self.ctx.topology.labels()}
            for slot in self.ctx.byzantine
        }


class TestSoundnessHelpers:
    def test_sound_ranks(self):
        assert is_sound_rank(3)
        assert is_sound_rank(Fraction(7, 2))
        assert is_sound_rank(3.5)
        assert not is_sound_rank(float("nan"))
        assert not is_sound_rank(float("inf"))
        assert not is_sound_rank(float("-inf"))
        assert not is_sound_rank("3")
        assert not is_sound_rank(None)
        assert not is_sound_rank(True)

    def test_sound_ids(self):
        assert is_sound_id(1)
        assert is_sound_id(10**18)
        assert not is_sound_id(0)
        assert not is_sound_id(-3)
        assert not is_sound_id(True)
        assert not is_sound_id("5")
        assert not is_sound_id(5.0)

    def test_sound_votes(self):
        assert is_sound_vote({1: Fraction(1), 2: 2.5})
        assert not is_sound_vote({1: float("nan")})
        assert not is_sound_vote({"1": Fraction(1)})
        assert not is_sound_vote({1: Fraction(1), 2: "x"})


class TestPoisonResilience:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_alg1_survives_poison(self, seed):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=PoisonAdversary(),
            seed=seed,
        )
        assert_renaming_ok(result, SystemParams(7, 2).namespace_bound)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_alg4_survives_poison(self, seed):
        result = run_protocol(
            TwoStepRenaming,
            n=11,
            t=2,
            ids=standard_ids(11),
            adversary=PoisonAdversary(),
            seed=seed,
        )
        assert_renaming_ok(result, 121)

    def test_okun_survives_poison(self):
        result = run_protocol(
            OkunCrashRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=PoisonAdversary(),
            seed=0,
        )
        assert_renaming_ok(result, 7)

    def test_floodset_survives_poison(self):
        result = run_protocol(
            FloodSetRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=PoisonAdversary(),
            seed=0,
        )
        assert_renaming_ok(result, 7)

    def test_nan_votes_regression(self):
        """The exact historical crash: NaN ranks through isValid."""
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=NaNVoteAdversary(),
            seed=0,
        )
        assert_renaming_ok(result, SystemParams(7, 2).namespace_bound)

    def test_aa_survives_nan(self):
        from repro.agreement import initial_values_factory
        from repro.agreement.approximate import ValueMessage

        class NaNValues(Adversary):
            def send(self, round_no, correct_outboxes):
                message = ValueMessage(float("nan"))
                return {
                    slot: {
                        link: [message]
                        for link in self.ctx.topology.labels()
                    }
                    for slot in self.ctx.byzantine
                }

        ids = standard_ids(7)
        values = {identifier: Fraction(identifier) for identifier in ids}
        result = run_protocol(
            initial_values_factory(values, rounds=4),
            n=7,
            t=2,
            ids=ids,
            adversary=NaNValues(),
            seed=0,
        )
        correct_inputs = [values[result.ids[i]] for i in result.correct]
        for index in result.correct:
            value = result.outputs[index]
            assert min(correct_inputs) <= value <= max(correct_inputs)


class TestReceiveMemo:
    """Votes and echoes are checked once per message and the verdict is
    left on the shared object; none of that may be visible as message
    state, and the per-recipient answers must stay Alg. 2's."""

    DELTA = SystemParams(7, 2).delta

    def _vote_message(self):
        return RanksMessage.from_dict({3: Fraction(1), 5: Fraction(5, 2), 9: Fraction(4)})

    def _memoised(self, message):
        if isinstance(message, RanksMessage):
            vote = checked_vote(message)
            assert is_valid_ranks({3, 9}, vote, self.DELTA)
        else:
            checked_echo(message)
        return message

    @pytest.mark.parametrize("build", [
        lambda self: self._vote_message(),
        lambda self: MultiEchoMessage.from_ids([4, 2, 9]),
    ])
    def test_memo_invisible_to_message_identity(self, build):
        plain, memoised = build(self), self._memoised(build(self))
        assert "_memo" in vars(memoised)
        assert memoised == plain
        assert hash(memoised) == hash(plain)
        assert repr(memoised) == repr(plain)
        assert memoised.bit_size() == plain.bit_size()
        assert encode_message(memoised) == encode_message(plain)
        assert pickle.dumps(memoised) == pickle.dumps(plain)
        restored = pickle.loads(pickle.dumps(memoised))
        assert restored == plain and "_memo" not in vars(restored)
        assert decode_message(encode_message(memoised)) == plain

    def test_memo_is_computed_once_per_message(self):
        message = self._vote_message()
        assert checked_vote(message) is checked_vote(message)
        echo = MultiEchoMessage.from_ids([1, 2])
        assert checked_echo(echo) is checked_echo(echo)

    def test_as_dict_stays_fresh(self):
        message = self._vote_message()
        vote = checked_vote(message)
        first, second = message.as_dict(), message.as_dict()
        assert type(first) is dict and first is not second and first is not vote
        first[3] = Fraction(100)
        assert message.as_dict()[3] == Fraction(1) and vote[3] == Fraction(1)

    def test_checked_vote_is_read_only(self):
        vote = checked_vote(self._vote_message())
        with pytest.raises(TypeError):
            vote[3] = Fraction(2)
        with pytest.raises(TypeError):
            vote.update({4: Fraction(1)})
        with pytest.raises(TypeError):
            del vote[3]
        assert dict(vote) == self._vote_message().as_dict()

    @pytest.mark.parametrize("entries", [
        ((7, float("nan")),),
        ((7, Fraction(1)), (8, float("nan"))),
        ((7, True),),
        ((True, Fraction(1)),),
        ((7, float("inf")),),
    ])
    def test_unsound_votes_still_dropped(self, entries):
        message = RanksMessage(entries=entries)
        assert VotingPhase._first_vote([message]) is None
        assert not checked_vote(message).sound
        # the memoised verdict is reused, not recomputed into a different one
        assert VotingPhase._first_vote([message]) is None

    def test_close_only_outside_timely_takes_fallback(self):
        # 5 and 6 are ranked closer than δ; a recipient that counts only 3
        # and 9 as timely must still accept the vote, one that counts 5
        # and 6 must reject it.
        vote = checked_vote(RanksMessage.from_dict(
            {3: Fraction(1), 5: Fraction(3), 6: Fraction(31, 10), 9: Fraction(5)}
        ))
        assert not vote.is_spaced(self.DELTA)
        assert is_valid_ranks({3, 9}, vote, self.DELTA)
        assert is_valid_ranks({3, 5, 9}, vote, self.DELTA)
        assert not is_valid_ranks({5, 6}, vote, self.DELTA)
        assert not is_valid_ranks({3, 4}, vote, self.DELTA)

    def test_spaced_vote_needs_only_membership(self):
        vote = checked_vote(RanksMessage.from_dict(
            {3: Fraction(1), 5: 1 + self.DELTA, 9: 1 + 2 * self.DELTA}
        ))
        assert vote.is_spaced(self.DELTA)
        assert is_valid_ranks({3, 9}, vote, self.DELTA)
        assert is_valid_ranks(set(), vote, self.DELTA)
        assert not is_valid_ranks({3, 4}, vote, self.DELTA)

    def test_mixed_float_and_exact_votes_are_checked_per_recipient(self):
        vote = checked_vote(RanksMessage.from_dict({3: Fraction(1), 5: 3.0}))
        assert vote.sound and not vote.is_spaced(Fraction(1))
        assert is_valid_ranks({3, 5}, vote, Fraction(1))

    def test_unsound_echo_ids_condemn_the_echo(self):
        assert not checked_echo(MultiEchoMessage(ids=("a", 5, None))).sound
        assert not checked_echo(MultiEchoMessage(ids=(3, True))).sound
        echo = checked_echo(MultiEchoMessage.from_ids([5, 3, 5]))
        assert echo.sound and echo.ids == frozenset({3, 5})
