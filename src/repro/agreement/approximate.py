"""Standalone synchronous Byzantine approximate agreement (DLPSW [7]).

The primitive underlying Alg. 1's voting phase, exposed on its own so that

* experiment E3 can measure its convergence rate in isolation,
* tests can check the Dolev–Lynch–Pinter–Stark–Weihl guarantees directly:
  after each round the spread of correct values contracts by at least
  ``σ_t = ⌊(N−2t)/t⌋ + 1`` and every new value stays within the range of the
  previous correct values.

Each process starts with a real value (``Fraction`` for exactness). Every
round it broadcasts the value, collects one value per link, pads missing
votes with its own value, trims the ``t`` extremes, and averages
``select_t`` of the rest — the same fold as Alg. 3, on a single instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from ..core.approximation import trimmed_mean
from ..core.messages import Rank
from ..sim.messages import KIND_BITS, Message, RANK_FRACTION_BITS
from ..sim.process import Inbox, Outbox, Process, ProcessContext


@dataclass(frozen=True)
class ValueMessage(Message):
    """One AA vote: the sender's current approximation."""

    value: Rank

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + rank_bits + RANK_FRACTION_BITS


class ApproximateAgreement(Process):
    """A correct process running ``rounds`` steps of Byzantine AA.

    ``initial`` is the input value; the output is the final approximation.
    ``trim`` defaults to ``t`` (Byzantine); pass 0 for the crash-fault
    variant (plain averaging).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        initial: Rank,
        rounds: int,
        trim: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        if rounds < 1:
            raise ValueError(f"need at least one round, got {rounds}")
        if ctx.n <= 2 * ctx.t:
            raise ValueError(
                f"Byzantine AA needs N > 2t to trim safely (n={ctx.n}, t={ctx.t})"
            )
        self.value: Rank = initial
        self.rounds = rounds
        self.trim = ctx.t if trim is None else trim

    def send(self, round_no: int) -> Outbox:
        return self.broadcast(ValueMessage(self.value))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        from ..core.validation import is_sound_rank

        votes: List[Rank] = []
        for link in sorted(inbox):
            for message in inbox[link]:
                if isinstance(message, ValueMessage):
                    # NaN would defeat the trim's comparisons; drop unsound
                    # values before any arithmetic.
                    if is_sound_rank(message.value):
                        votes.append(message.value)
                    break  # one vote per link per round
        votes = votes[: self.ctx.n]
        while len(votes) < self.ctx.n:
            votes.append(self.value)
        self.value = trimmed_mean(votes, self.trim)
        self.ctx.log(round_no, "value", self.value)
        if round_no == self.rounds:
            self.output_value = self.value


def initial_values_factory(values, rounds: int, trim: Optional[int] = None):
    """Build a :func:`repro.sim.run_protocol` factory assigning per-process
    inputs by original id: ``values[my_id]`` is the process's initial value.
    """

    def factory(ctx: ProcessContext) -> ApproximateAgreement:
        return ApproximateAgreement(
            ctx, initial=values[ctx.my_id], rounds=rounds, trim=trim
        )

    return factory
