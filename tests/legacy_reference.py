"""Frozen pre-refactor implementations — the differential oracle.

Verbatim copies of the monolithic protocol classes as they stood before the
composition-layer refactor (hand-rolled round bookkeeping, subclass-override
consensus), kept here so ``test_compose.py`` can prove the composed
implementations are output- and trace-identical to them across the
seed × attack matrix. They import only building blocks whose behaviour the
refactor did not change (id selection, the combined EIG, the interval
splitter).

Alg. 2 (``is_valid_ranks`` and the soundness predicates) and Alg. 3
(``approximate`` and its helpers) are frozen here too, as they stood
before votes were checked once per message and trimmed as integers, so a
change to the live hot path cannot hide from ``test_compose.py``;
``test_validation_oracle.py`` compares the two directly.

The voting-phase attacks' forging is frozen as it stood before it built
one vote per audience: one ``RanksMessage`` per peer, from the old
``forge_vote`` bodies. The classes reuse the live attacks' constructors
and protocol-driving plumbing, which that change left alone;
``test_attack_internals.py`` compares what every peer receives.

Do not "improve" these copies: their value is that they are the old code.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.adversary.base import per_link_outbox
from repro.adversary.rank_attacks import (
    BoundaryVoteAdversary,
    OrderInversionAdversary,
    RankCompressionAdversary,
    RankSkewAdversary,
    respaced,
    shifted,
)
from repro.agreement.eig import EIGInteractiveConsistency
from repro.agreement.identity import make_identified_factory
from repro.baselines.splitting import ClaimMessage, IntervalSplitter, interval_rounds
from repro.core.approximation import nearest_int
from repro.core.id_selection import ID_SELECTION_STEPS, IdSelectionPhase
from repro.core.messages import (
    IdMessage,
    MultiEchoMessage,
    Rank,
    RanksMessage,
)
from repro.core.params import SystemParams
from repro.core.renaming import FLOAT_TOLERANCE, STABILITY_ROUNDS, RenamingOptions
from repro.core.fast import TWO_STEP_ROUNDS, TwoStepOptions
from repro.sim.messages import Message
from repro.sim.process import Inbox, Outbox, Process, ProcessContext


# ---------------------------------------------------------------------------
# Alg. 2 — isValid and payload hygiene (frozen)
# ---------------------------------------------------------------------------


def is_sound_rank(value: object) -> bool:
    """True when ``value`` is a usable rank: an int/Fraction, or a *finite*
    float.

    Byzantine senders control the full payload, and ``float('nan')`` is a
    live grenade: every comparison against NaN is False, so a NaN-laden vote
    sails through the ``< δ`` rejection in ``isValid``, survives trimming
    unpredictably, and detonates at ``Round()`` — crashing a correct
    process. (Found by adversarial testing; ``test_vote_hygiene.py`` keeps
    it fixed.) Infinities are merely extreme values the trim handles, but we
    reject them too: no honest rank is ever non-finite.
    """
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, Fraction)):
        return True
    return isinstance(value, float) and math.isfinite(value)


def is_sound_id(value: object) -> bool:
    """True when ``value`` can be treated as an original id: a positive int.

    Every ingestion point filters ids through this before adding them to any
    set that will later be sorted — a Byzantine string id inside an
    otherwise well-typed message would make ``sorted()`` raise at a correct
    process (mixed-type comparison), a trivial remote crash.
    """
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def is_sound_vote(vote: Mapping[object, object]) -> bool:
    """Structural hygiene for a ranks array: int ids, sound rank values."""
    return all(
        is_sound_id(identifier) and is_sound_rank(value)
        for identifier, value in vote.items()
    )


def is_valid_ranks(
    timely: Iterable[int],
    ranks: Mapping[int, Rank],
    delta: Rank,
    tolerance: float = 0.0,
) -> bool:
    """Algorithm 2: accept ``ranks`` only if consistent with ``timely``.

    ``tolerance`` loosens the ``≥ δ`` spacing check and is 0 in exact
    (Fraction) mode; float mode passes a small epsilon to absorb rounding in
    repeated averaging (the paper's analysis is exact arithmetic).

    Checking consecutive ids in the sorted ``timely`` set is equivalent to the
    paper's all-pairs loop: δ-spacing of consecutive pairs implies (additively
    more than) δ-spacing of all pairs.
    """
    # Keep the threshold exact when no tolerance applies: subtracting the
    # float 0.0 would coerce a Fraction delta to the nearest double, which
    # can land *above* delta and spuriously reject exactly-delta-spaced
    # honest votes.
    threshold = delta - tolerance if tolerance else delta
    ordered = sorted(set(timely))
    for identifier in ordered:
        if identifier not in ranks:
            return False
    for smaller, larger in zip(ordered, ordered[1:]):
        if ranks[larger] - ranks[smaller] < threshold:
            return False
    return True


# ---------------------------------------------------------------------------
# Alg. 3 — approximate (frozen)
# ---------------------------------------------------------------------------


def trim_extremes(values: Sequence[Rank], t: int) -> List[Rank]:
    """Sort ``values`` and drop the ``t`` smallest and ``t`` largest.

    Alg. 3 lines 12–15. Requires ``len(values) > 2t`` so something survives.
    """
    if len(values) <= 2 * t:
        raise ValueError(
            f"cannot trim {t} extremes from each side of {len(values)} values"
        )
    ordered = sorted(values)
    return ordered[t: len(ordered) - t] if t else ordered


def select_every_t(ordered: Sequence[Rank], t: int) -> List[Rank]:
    """``select_t``: the smallest element and every ``t``-th one after it.

    For ``t = 0`` (no faults to defend against) every element is selected,
    making the step a plain average. See DESIGN.md §8 for how this indexing
    relates to the paper's σ_t count.
    """
    if not ordered:
        raise ValueError("select_t of an empty multiset")
    if t == 0:
        return list(ordered)
    return [ordered[i] for i in range(0, len(ordered), t)]


def average(values: Sequence[Rank]) -> Rank:
    """Arithmetic mean, exact under ``Fraction`` inputs."""
    return sum(values) / len(values)


def approximate(
    my_ranks: Mapping[int, Rank],
    accepted: Set[int],
    valid_votes: Sequence[Mapping[int, Rank]],
    n: int,
    t: int,
    trim: Optional[int] = None,
) -> Tuple[Dict[int, Rank], Set[int]]:
    """One full Alg. 3 step.

    Returns ``(new_ranks, new_accepted)``; ids with insufficient vote support
    are removed from the accepted set (Alg. 3 line 08 — "updates 'accepted'
    multiset" in Alg. 1 line 35).

    ``trim`` decouples the number of extreme values removed (and the
    ``select`` stride) from the support threshold ``n − t``: the Byzantine
    algorithm trims ``t`` (the default), while the crash-fault baseline of
    Okun [14] trims nothing — every vote is honest there — and averages the
    whole multiset.
    """
    if trim is None:
        trim = t
    new_ranks: Dict[int, Rank] = {}
    new_accepted: Set[int] = set()
    for identifier in accepted:
        votes: List[Rank] = [
            vote[identifier] for vote in valid_votes if identifier in vote
        ]
        if len(votes) < n - t:
            continue  # discarded: not enough support (line 08)
        new_accepted.add(identifier)
        votes = votes[:n]  # at most one valid vote per link; defensive cap
        while len(votes) < n:  # fill with own value (lines 10-11)
            votes.append(my_ranks[identifier])
        surviving = trim_extremes(votes, trim)  # lines 12-15
        new_ranks[identifier] = average(select_every_t(surviving, trim))  # line 16
    return new_ranks, new_accepted


# ---------------------------------------------------------------------------
# Protocols (frozen)
# ---------------------------------------------------------------------------


class LegacyOrderPreservingRenaming(Process):
    """Pre-refactor Algorithm 1 (monolithic round bookkeeping)."""

    def __init__(
        self, ctx: ProcessContext, options: RenamingOptions = RenamingOptions()
    ) -> None:
        super().__init__(ctx)
        self.options = options
        self.params = SystemParams(ctx.n, ctx.t)
        if options.enforce_resilience:
            self.params.require_byzantine_resilience()
        delta = self.params.delta if options.stretch else Fraction(1)
        self.delta: Rank = delta if options.exact_arithmetic else float(delta)
        self._tolerance = 0.0 if options.exact_arithmetic else FLOAT_TOLERANCE
        voting = options.voting_rounds
        self.voting_rounds = self.params.voting_rounds if voting is None else voting
        if self.voting_rounds < 1:
            raise ValueError(
                f"need at least one voting round, got {self.voting_rounds}"
            )
        self.total_rounds = ID_SELECTION_STEPS + self.voting_rounds
        self.selection = IdSelectionPhase(ctx.n, ctx.t, ctx.my_id)
        self.ranks: Dict[int, Rank] = {}
        self.accepted: Set[int] = set()
        self._stable_rounds = 0
        self.frozen_at: Optional[int] = None

    def send(self, round_no: int) -> Outbox:
        if round_no <= ID_SELECTION_STEPS:
            return self.broadcast(*self.selection.messages_for_step(round_no))
        return self.broadcast(RanksMessage.from_dict(self.ranks))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no <= ID_SELECTION_STEPS:
            self.selection.deliver_step(round_no, inbox)
            if round_no == ID_SELECTION_STEPS:
                self._initialise_ranks()
            return
        self._voting_step(round_no, inbox)
        if round_no == self.total_rounds:
            self._decide()

    def _initialise_ranks(self) -> None:
        self.accepted = set(self.selection.accepted)
        if self.ctx.my_id not in self.accepted:
            raise RuntimeError(
                f"correct id {self.ctx.my_id} missing from accepted set "
                f"(n={self.ctx.n}, t={self.ctx.t})"
            )
        ordered = self.selection.sorted_accepted()
        self.ranks = {
            identifier: position * self.delta
            for position, identifier in enumerate(ordered, start=1)
        }
        self.ctx.log(ID_SELECTION_STEPS, "timely", frozenset(self.selection.timely))
        self.ctx.log(ID_SELECTION_STEPS, "accepted", ordered)
        self.ctx.log(ID_SELECTION_STEPS, "ranks", dict(self.ranks))

    def _voting_step(self, round_no: int, inbox: Inbox) -> None:
        votes: List[Mapping[int, Rank]] = []
        for link in sorted(inbox):
            vote = self._first_vote(inbox[link])
            if vote is None:
                continue
            if not self.options.validate_votes or is_valid_ranks(
                self.selection.timely, vote, self.delta, self._tolerance
            ):
                votes.append(vote)
        if self.frozen_at is not None:
            return
        if self.options.early_deciding:
            self._track_stability(round_no, votes)
            if self.frozen_at is not None:
                return
        self.ranks, self.accepted = approximate(
            self.ranks, self.accepted, votes, self.ctx.n, self.ctx.t
        )
        self.ctx.log(round_no, "ranks", dict(self.ranks))

    def _track_stability(self, round_no: int, votes) -> None:
        unanimous = len(votes) >= self.ctx.n - self.ctx.t and all(
            all(
                identifier in vote and vote[identifier] == rank
                for identifier, rank in self.ranks.items()
                if identifier in self.accepted
            )
            for vote in votes
        )
        if unanimous:
            self._stable_rounds += 1
        else:
            self._stable_rounds = 0
        if self._stable_rounds >= STABILITY_ROUNDS:
            self.frozen_at = round_no
            self.ctx.log(round_no, "early_frozen", dict(self.ranks))

    @staticmethod
    def _first_vote(messages) -> Optional[Dict[int, Rank]]:
        for message in messages:
            if isinstance(message, RanksMessage):
                vote = message.as_dict()
                return vote if is_sound_vote(vote) else None
        return None

    def _decide(self) -> None:
        if self.ctx.my_id not in self.ranks:
            raise RuntimeError(
                f"rank for own id {self.ctx.my_id} was discarded — "
                "cannot happen for a correct process when N > 3t"
            )
        self.output_value = nearest_int(self.ranks[self.ctx.my_id])
        self.ctx.log(self.total_rounds, "decided", self.output_value)


class LegacyConstantTimeRenaming(LegacyOrderPreservingRenaming):
    """Pre-refactor constant-time variant (truncated voting schedule)."""

    def __init__(
        self, ctx: ProcessContext, options: RenamingOptions = RenamingOptions()
    ) -> None:
        params = SystemParams(ctx.n, ctx.t)
        if options.enforce_resilience:
            params.require_constant_time_regime()
        options = replace(options, voting_rounds=params.constant_time_voting_rounds)
        super().__init__(ctx, options)


class LegacyTwoStepRenaming(Process):
    """Pre-refactor Algorithm 4 (monolithic)."""

    def __init__(
        self, ctx: ProcessContext, options: TwoStepOptions = TwoStepOptions()
    ) -> None:
        super().__init__(ctx)
        self.options = options
        self.params = SystemParams(ctx.n, ctx.t)
        if options.enforce_resilience:
            self.params.require_fast_regime()
        self.link_id: Dict[int, int] = {}
        self.timely: set = set()
        self.counter: Dict[int, int] = {}
        self.new_names: Dict[int, int] = {}

    def send(self, round_no: int) -> Outbox:
        if round_no == 1:
            return self.broadcast(IdMessage(self.ctx.my_id))
        return self.broadcast(MultiEchoMessage.from_ids(self.timely))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no == 1:
            for link in sorted(inbox):
                for message in inbox[link]:
                    if isinstance(message, IdMessage) and is_sound_id(message.id):
                        self.link_id[link] = message.id
                        self.timely.add(message.id)
                        break
        else:
            for link in sorted(inbox):
                echo = self._first_multiecho(inbox[link])
                if echo is None or not self._is_valid(link, echo.ids):
                    continue
                for identifier in set(echo.ids):
                    self.counter[identifier] = self.counter.get(identifier, 0) + 1
            self.ctx.log(TWO_STEP_ROUNDS, "counters", dict(self.counter))
            self._choose_names()

    @staticmethod
    def _first_multiecho(messages) -> Optional[MultiEchoMessage]:
        for message in messages:
            if isinstance(message, MultiEchoMessage):
                return message
        return None

    def _is_valid(self, link: int, ids) -> bool:
        id_set = set(ids)
        return (
            link in self.link_id
            and len(id_set) <= self.ctx.n
            and all(is_sound_id(identifier) for identifier in id_set)
            and len(self.timely & id_set) >= self.ctx.n - self.ctx.t
        )

    def _choose_names(self) -> None:
        cap = self.ctx.n - self.ctx.t
        accumulated = 0
        for identifier in sorted(self.counter):
            offset = self.counter[identifier]
            if self.options.clamp_offsets:
                offset = min(offset, cap)
            accumulated += offset
            self.new_names[identifier] = accumulated
        if self.ctx.my_id not in self.new_names:
            raise RuntimeError(
                f"own id {self.ctx.my_id} received no echoes — impossible for "
                f"a correct process when N > 2t² + t"
            )
        self.output_value = self.new_names[self.ctx.my_id]
        self.ctx.log(TWO_STEP_ROUNDS, "decided", self.output_value)


class LegacyTranslatedByzantineRenaming(Process):
    """Pre-refactor translated baseline (private phase bookkeeping)."""

    def __init__(
        self, ctx: ProcessContext, extra_rounds: Optional[int] = None
    ) -> None:
        super().__init__(ctx)
        if ctx.n <= 3 * ctx.t:
            raise ValueError(
                f"translated renaming requires N > 3t (n={ctx.n}, t={ctx.t})"
            )
        self.namespace = 2 * ctx.n
        self.selection = IdSelectionPhase(ctx.n, ctx.t, ctx.my_id)
        self.splitter: Optional[IntervalSplitter] = None
        probe_budget = ctx.n if extra_rounds is None else extra_rounds
        self.horizon = (
            ID_SELECTION_STEPS + 2 * interval_rounds(self.namespace) + probe_budget
        )
        self._settled_round: Optional[int] = None

    def send(self, round_no: int) -> Outbox:
        if round_no <= ID_SELECTION_STEPS:
            return self.broadcast(*self.selection.messages_for_step(round_no))
        assert self.splitter is not None
        lo, hi = self.splitter.claim()
        return self.broadcast(ClaimMessage(self.ctx.my_id, lo, hi))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no <= ID_SELECTION_STEPS:
            self.selection.deliver_step(round_no, inbox)
            if round_no == ID_SELECTION_STEPS:
                self.splitter = IntervalSplitter(self.ctx.my_id, self.namespace)
            return
        assert self.splitter is not None
        split_round = round_no - ID_SELECTION_STEPS
        rivals = self._rival_ids(inbox)
        already = self.splitter.decided
        if split_round % 2 == 0:
            self.splitter.resolve(rivals)
        if self.splitter.decided is not None and already is None:
            self._settled_round = round_no
            self.ctx.log(round_no, "settled", self.splitter.decided)
        if round_no == self.horizon:
            self._finish(round_no)

    def _rival_ids(self, inbox: Inbox):
        assert self.splitter is not None
        lo, hi = self.splitter.claim()
        accepted = self.selection.accepted
        rivals = []
        for link in sorted(inbox):
            for message in inbox[link]:
                if (
                    isinstance(message, ClaimMessage)
                    and message.lo == lo
                    and message.hi == hi
                    and message.id in accepted
                ):
                    rivals.append(message.id)
                    break
        return rivals

    def _finish(self, round_no: int) -> None:
        assert self.splitter is not None
        if self.splitter.decided is not None:
            self.output_value = self.splitter.decided
            return
        lo, _ = self.splitter.claim()
        self.output_value = lo
        self.ctx.log(round_no, "settled", lo)

    @property
    def settled_round(self) -> Optional[int]:
        return self._settled_round


class LegacyConsensusRenaming(EIGInteractiveConsistency):
    """Pre-refactor consensus baseline (subclass override on combined EIG)."""

    def __init__(
        self, ctx: ProcessContext, my_index: int, link_to_index: Dict[int, int]
    ) -> None:
        super().__init__(ctx, my_index, link_to_index, value=ctx.my_id)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        super().deliver(round_no, inbox)
        if round_no == self.rounds:
            vector = self.output_value
            agreed = sorted({value for value in vector if value > 0})
            self.ctx.log(round_no, "agreed_ids", tuple(agreed))
            self.output_value = agreed.index(self.ctx.my_id) + 1


def legacy_consensus_factory(n: int, ids: Sequence[int], seed: int):
    """Identified-model factory for the legacy consensus baseline."""
    return make_identified_factory(
        n, ids, seed, lambda ctx, me, links: LegacyConsensusRenaming(ctx, me, links)
    )


# ---------------------------------------------------------------------------
# Voting-phase attacks — per-peer forging (frozen)
# ---------------------------------------------------------------------------


class _LegacyVotingPhaseForging:
    """Shared plumbing: faithful until round 4, forged votes afterwards."""

    def mutate_outbox(self, round_no, index, genuine: Outbox, correct_outboxes) -> Outbox:
        if round_no <= ID_SELECTION_STEPS:
            return genuine
        process = self.instance(index)
        # Duck-typed: anything exposing ranks/delta/params quacks like
        # Alg. 1 (incl. the frozen pre-refactor reference copies the
        # differential tests run) — forging only needs those attributes.
        ranks = getattr(process, "ranks", None)
        if not ranks or not hasattr(process, "delta"):
            return genuine
        content: Dict[int, List[Message]] = {}
        for position, peer in enumerate(range(self.ctx.n)):
            vote = self.forge_vote(round_no, index, position, peer, process)
            content[peer] = [RanksMessage.from_dict(vote)]
        return per_link_outbox(content, sender=index, topology=self.ctx.topology)


class LegacyRankSkewAdversary(_LegacyVotingPhaseForging, RankSkewAdversary):
    def forge_vote(self, round_no, index, position, peer, process):
        magnitude = self._magnitude
        if magnitude is None:
            magnitude = Fraction(max(self.ctx.t, 1)) * process.delta
        sign = 1 if peer % 2 == 0 else -1
        return shifted(process.ranks, sign * magnitude)


class LegacyRankCompressionAdversary(_LegacyVotingPhaseForging, RankCompressionAdversary):
    def forge_vote(self, round_no, index, position, peer, process):
        delta = process.delta
        if peer % 2 == 0:
            return respaced(process.ranks, delta, delta)
        return respaced(process.ranks, 2 * delta, delta)


class LegacyOrderInversionAdversary(_LegacyVotingPhaseForging, OrderInversionAdversary):
    def forge_vote(self, round_no, index, position, peer, process):
        ordered = sorted(process.ranks)
        forged = dict(process.ranks)
        for low, high in zip(ordered[::2], ordered[1::2]):
            forged[low], forged[high] = forged[high], forged[low]
        return forged


class LegacyBoundaryVoteAdversary(_LegacyVotingPhaseForging, BoundaryVoteAdversary):
    def forge_vote(self, round_no, index, position, peer, process):
        spread = process.params.initial_spread_bound
        sign = 1 if index % 2 == 0 else -1
        return shifted(process.ranks, sign * spread)


#: Registered attack name → its frozen per-peer forging.
LEGACY_VOTING_ATTACKS = {
    "rank-skew": LegacyRankSkewAdversary,
    "rank-compression": LegacyRankCompressionAdversary,
    "order-inversion": LegacyOrderInversionAdversary,
    "boundary-votes": LegacyBoundaryVoteAdversary,
}
