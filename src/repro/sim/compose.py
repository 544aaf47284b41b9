"""Protocol composition: phases, sequencing, and sub-protocol multiplexing.

Every algorithm in this repository is secretly a composition — Alg. 1 is
id-selection followed by iterated approximate agreement, the constant-time
variant is Alg. 1 with a truncated voting schedule, the translated baseline
is id-selection plus a bit-split engine, and the consensus baseline runs
``N`` EIG broadcast instances side by side. This module makes that structure
first-class instead of leaving each protocol to hand-roll its own round
bookkeeping:

* :class:`Phase` — a protocol fragment with *local* step numbering
  (``messages_for_step`` / ``deliver_step``) and a typed completion result.
* :class:`PhaseSequence` — a :class:`~repro.sim.process.Process` that chains
  phases back to back, translating global round numbers into each phase's
  local steps (round-offset virtualization) and threading each phase's
  result into the construction of the next.
* :class:`Multiplexer` — a :class:`~repro.sim.process.Process` that runs
  ``K`` independent sub-protocol instances concurrently behind one process
  by wrapping their traffic in tagged :class:`EnvelopeMessage` frames.

Composed workloads (parallel renaming instances, renaming-then-consensus
pipelines) become one-liners: build the pieces, hand them to a sequence or a
multiplexer, and the runner never knows the difference.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .messages import KIND_BITS, Message
from .process import Inbox, Outbox, Process, ProcessContext


class Phase(ABC):
    """A protocol fragment occupying :attr:`steps` consecutive rounds.

    A phase speaks *local* step numbers ``1..steps``; it never sees the
    global round counter. Drive it with ``messages_for_step(s)`` /
    ``deliver_step(s, inbox)`` for ``s = 1..steps``; after the final
    ``deliver_step`` the phase's :meth:`result` is read once. Phases that
    need to trace events or know their global position receive a
    :class:`PhaseContext` at construction time (by convention the first
    builder argument).
    """

    #: Number of synchronous steps this phase occupies. Usually a class
    #: attribute; phases with a configurable schedule set it per instance.
    steps: int

    @abstractmethod
    def messages_for_step(self, step: int) -> List[Message]:
        """Messages to broadcast at the start of local step ``step``."""

    @abstractmethod
    def deliver_step(self, step: int, inbox: Inbox) -> None:
        """Consume the inbox of local step ``step``."""

    def result(self) -> object:
        """Typed completion result, read once after the final step.

        The final phase of a :class:`PhaseSequence` must return a
        non-``None`` result (or the sequence must map it through ``finish``)
        — a ``None`` output would leave the process marked unfinished.
        """
        return None


@dataclass(frozen=True)
class PhaseContext:
    """A phase's window onto its process environment.

    Wraps the owning process's :class:`~repro.sim.process.ProcessContext`
    together with the number of global rounds that elapsed before the phase
    started, so phases can log trace events under the *global* round number
    while speaking local steps internally.
    """

    process: ProcessContext
    offset: int

    @property
    def n(self) -> int:
        return self.process.n

    @property
    def t(self) -> int:
        return self.process.t

    @property
    def my_id(self) -> int:
        return self.process.my_id

    @property
    def rng(self) -> Random:
        return self.process.rng

    def global_round(self, step: int) -> int:
        """The global round number of local step ``step``."""
        return self.offset + step

    def log(self, step: int, event: str, detail: object = None) -> None:
        """Trace ``event`` under the global round of local step ``step``.

        ``step=0`` logs under the phase's entry round (the round whose
        delivery completed the *previous* phase) — the natural place for
        "phase initialised" events like Alg. 1's rank initialisation.
        """
        self.process.log(self.offset + step, event, detail)


#: Builds phase ``k`` from its context and phase ``k−1``'s result
#: (``None`` for the first phase).
PhaseBuilder = Callable[[PhaseContext, object], Phase]


class PhaseSequence(Process):
    """A process that runs a chain of phases back to back.

    Each builder is invoked exactly when its phase starts: the first at
    construction time, each subsequent one the moment the previous phase's
    final step has been delivered — with the previous phase's
    :meth:`Phase.result` as its second argument (result threading). Global
    rounds are translated to local steps automatically (round-offset
    virtualization), so a phase written for steps ``1..k`` composes
    unchanged at any position in any pipeline.

    ``finish`` maps the final phase's result to the process output
    (default: the result itself, which must then be non-``None``).

    A builder is dropped once it has run. Builders are often bound methods
    of the sequence itself, so keeping them would make every finished
    process a reference cycle that only the cyclic garbage collector
    frees.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        builders: Sequence[PhaseBuilder],
        finish: Optional[Callable[[object], object]] = None,
    ) -> None:
        super().__init__(ctx)
        if not builders:
            raise ValueError("a phase sequence needs at least one phase")
        first, *rest = builders
        self._pending = rest[::-1]  # popped from the end, in order
        self._finish = finish
        self._offset = 0
        #: Completion results of the phases finished so far, in order.
        self.results: List[object] = []
        self.phase: Phase = first(PhaseContext(ctx, 0), None)

    # ------------------------------------------------------------------ rounds

    def send(self, round_no: int) -> Outbox:
        return self.broadcast(*self.phase.messages_for_step(round_no - self._offset))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        step = round_no - self._offset
        self.phase.deliver_step(step, inbox)
        if step >= self.phase.steps:
            self._advance(round_no)

    # ------------------------------------------------------------- composition

    def _advance(self, round_no: int) -> None:
        outcome = self.phase.result()
        self.results.append(outcome)
        if self._pending:
            self._offset = round_no
            self.phase = self._pending.pop()(PhaseContext(self.ctx, round_no), outcome)
        else:
            self.output_value = (
                outcome if self._finish is None else self._finish(outcome)
            )


@dataclass(frozen=True)
class EnvelopeMessage(Message):
    """A sub-protocol message wrapped with its instance tag.

    :class:`Multiplexer` traffic travels as envelopes so that ``K``
    independent instances can share one process's links without their
    messages interfering. The bit model charges the kind tag, ``rank_bits``
    for the instance tag (an instance index is bounded by the same
    small-integer budget as a rank), and the payload at its own model —
    making the multiplexing overhead explicit in E6-style accounting. The
    binary codec in :mod:`repro.wire` carries envelopes natively, so
    ``through_wire`` runs and real transports stay honest.
    """

    tag: int
    payload: Message

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + rank_bits + self.payload.bit_size(
            id_bits=id_bits, rank_bits=rank_bits
        )


class Multiplexer(Process):
    """Run ``K`` independent sub-protocol instances behind one process.

    ``instances`` maps an integer tag to a :class:`Process`; each round the
    multiplexer collects every live instance's outbox, wraps each message in
    an :class:`EnvelopeMessage` carrying the instance tag, and merges the
    result onto the shared links. Incoming envelopes are unwrapped and
    routed to the instance named by their tag; raw (non-envelope) messages
    and unknown tags are Byzantine noise and are dropped. Once every
    instance has produced its output, ``finish`` maps the per-tag output
    dict to the process output (default: the dict itself).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        instances: Mapping[int, Process],
        finish: Optional[Callable[[Dict[int, object]], object]] = None,
    ) -> None:
        super().__init__(ctx)
        if not instances:
            raise ValueError("a multiplexer needs at least one sub-protocol")
        self.instances: Dict[int, Process] = dict(instances)
        self._finish = finish

    # ------------------------------------------------------------------ rounds

    def send(self, round_no: int) -> Outbox:
        outbox: Outbox = {}
        for tag in sorted(self.instances):
            instance = self.instances[tag]
            if instance.done:
                continue
            for link, messages in instance.send(round_no).items():
                if messages:
                    outbox.setdefault(link, []).extend(
                        EnvelopeMessage(tag=tag, payload=message)
                        for message in messages
                    )
        return outbox

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        routed: Dict[int, Dict[int, List[Message]]] = {}
        for link, messages in inbox.items():
            for message in messages:
                if (
                    isinstance(message, EnvelopeMessage)
                    and message.tag in self.instances
                ):
                    routed.setdefault(message.tag, {}).setdefault(link, []).append(
                        message.payload
                    )
        empty: Inbox = {}
        for tag in sorted(self.instances):
            instance = self.instances[tag]
            if instance.done:
                continue
            links = routed.get(tag)
            sub_inbox: Inbox = (
                {link: tuple(messages) for link, messages in links.items()}
                if links
                else empty
            )
            instance.deliver(round_no, sub_inbox)
        if all(instance.done for instance in self.instances.values()):
            outputs = {
                tag: instance.output_value
                for tag, instance in self.instances.items()
            }
            self.output_value = (
                outputs if self._finish is None else self._finish(outputs)
            )
