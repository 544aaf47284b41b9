"""The composition layer: differential identity, virtualization, multiplexing.

Two halves:

1. **Differential suite** — the composed implementations (Alg. 1 /
   constant-time / two-step / translated / consensus as
   ``PhaseSequence``/``Multiplexer`` pipelines) must be output- and
   trace-identical to the frozen pre-refactor monoliths in
   ``legacy_reference.py`` across ≥ 20 seeds × every attack registered for
   each algorithm. The phase-composed algorithms emit byte-identical
   traffic, so identity holds under *every* attack, traffic-reactive ones
   included. The multiplexed consensus deliberately changes the wire shape
   (per-source envelopes instead of one combined relay), so the two
   traffic-reactive adversaries (replay, fuzz) see different bytes to react
   to — for those, the suite asserts the renaming properties instead of
   bit-identity.

2. **Unit tests** — ``PhaseSequence`` round-offset virtualization and
   result threading, ``Multiplexer`` envelope wrapping/routing/hygiene,
   and the ``EnvelopeMessage`` wire codec.
"""

from __future__ import annotations

import gc

import pytest

from helpers import assert_renaming_ok, standard_ids
from legacy_reference import (
    LegacyConstantTimeRenaming,
    LegacyOrderPreservingRenaming,
    LegacyTranslatedByzantineRenaming,
    LegacyTwoStepRenaming,
    legacy_consensus_factory,
)
from repro.adversary import ALG1_ATTACKS, ALG4_ATTACKS, make_adversary
from repro.analysis.experiments import CRASH_ATTACKS, run_experiment
from repro.baselines import TranslatedByzantineRenaming, consensus_renaming_factory
from repro.core import (
    ConstantTimeRenaming,
    IdSelectionPhase,
    OrderPreservingRenaming,
    RenamingOptions,
    TwoStepRenaming,
)
from repro.core.messages import IdMessage, RanksMessage
from repro.sim import (
    BROADCAST,
    EnvelopeMessage,
    Multiplexer,
    Phase,
    PhaseSequence,
    Process,
    ProcessContext,
    run_protocol,
)
from repro.wire import WireError, decode_message, encode_message, encoded_bits
from repro.workloads import make_ids

SEEDS = range(20)

#: Consensus attacks whose adversaries never react to observed correct
#: traffic (rng-only, protocol-driven, or silent) — the multiplexed wire
#: shape is invisible to them, so full identity with the legacy combined
#: EIG is required. ``replay`` and ``fuzz`` copy observed bytes and are
#: excluded (see module docstring).
CONSENSUS_IDENTICAL_ATTACKS = [a for a in ALG1_ATTACKS if a not in ("replay", "fuzz")]


def _run(factory, *, n, t, ids, attack, seed, through_wire=False):
    return run_protocol(
        factory,
        n=n,
        t=t,
        ids=ids,
        adversary=make_adversary(attack),
        seed=seed,
        collect_trace=True,
        through_wire=through_wire,
    )


def _assert_identical(new, old, context, *, traffic=True):
    """Outputs, faulty slots, round counts and full traces must match.

    ``traffic=True`` additionally pins the correct processes' message and
    bit totals — byte-identical wire behaviour, which makes every attack
    (including traffic-reactive ones) see the same world.
    """
    assert new.byzantine == old.byzantine, context
    assert new.outputs == old.outputs, context
    assert new.metrics.round_count == old.metrics.round_count, context
    assert list(new.trace) == list(old.trace), context
    if traffic:
        assert new.metrics.correct_messages == old.metrics.correct_messages, context
        assert new.metrics.correct_bits == old.metrics.correct_bits, context


class TestAlg1Differential:
    N, T = 7, 2

    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    def test_identical_across_seeds(self, attack):
        ids = standard_ids(self.N)
        for seed in SEEDS:
            new = _run(
                lambda ctx: OrderPreservingRenaming(ctx),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            old = _run(
                lambda ctx: LegacyOrderPreservingRenaming(ctx),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            _assert_identical(new, old, f"alg1 {attack} seed={seed}")

    def test_early_deciding_identical(self):
        options = RenamingOptions(early_deciding=True)
        ids = standard_ids(self.N)
        for attack in ("silent", "conforming", "rank-skew"):
            for seed in SEEDS:
                new = _run(
                    lambda ctx: OrderPreservingRenaming(ctx, options),
                    n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
                )
                old = _run(
                    lambda ctx: LegacyOrderPreservingRenaming(ctx, options),
                    n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
                )
                _assert_identical(new, old, f"alg1-early {attack} seed={seed}")
                frozen_new = {
                    i: new.processes[i].frozen_at for i in new.correct
                }
                frozen_old = {
                    i: old.processes[i].frozen_at for i in old.correct
                }
                assert frozen_new == frozen_old, f"{attack} seed={seed}"


class TestConstantTimeDifferential:
    N, T = 9, 2  # N > t² + 2t

    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    def test_identical_across_seeds(self, attack):
        ids = standard_ids(self.N)
        for seed in SEEDS:
            new = _run(
                lambda ctx: ConstantTimeRenaming(ctx),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            old = _run(
                lambda ctx: LegacyConstantTimeRenaming(ctx),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            _assert_identical(new, old, f"alg1-constant {attack} seed={seed}")


class TestTwoStepDifferential:
    N, T = 11, 2  # N > 2t² + t

    @pytest.mark.parametrize("attack", ALG4_ATTACKS)
    def test_identical_across_seeds(self, attack):
        ids = standard_ids(self.N)
        for seed in SEEDS:
            new = _run(
                lambda ctx: TwoStepRenaming(ctx),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            old = _run(
                lambda ctx: LegacyTwoStepRenaming(ctx),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            _assert_identical(new, old, f"alg4 {attack} seed={seed}")


class TestTranslatedDifferential:
    N, T = 7, 2

    @pytest.mark.parametrize("attack", CRASH_ATTACKS)
    def test_identical_across_seeds(self, attack):
        ids = standard_ids(self.N)
        for seed in SEEDS:
            new = _run(
                lambda ctx: TranslatedByzantineRenaming(ctx),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            old = _run(
                lambda ctx: LegacyTranslatedByzantineRenaming(ctx),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            _assert_identical(new, old, f"translated {attack} seed={seed}")
            settled_new = {i: new.processes[i].settled_round for i in new.correct}
            settled_old = {i: old.processes[i].settled_round for i in old.correct}
            assert settled_new == settled_old, f"{attack} seed={seed}"


class TestConsensusDifferential:
    N, T = 7, 2

    @pytest.mark.parametrize("attack", CONSENSUS_IDENTICAL_ATTACKS)
    def test_identical_across_seeds(self, attack):
        ids = standard_ids(self.N)
        for seed in SEEDS:
            new = _run(
                consensus_renaming_factory(self.N, ids, seed),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            old = _run(
                legacy_consensus_factory(self.N, ids, seed),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            # The multiplexer splits the combined relay into per-source
            # envelopes, so message *counts* legitimately differ; outputs,
            # rounds and traces must not.
            _assert_identical(
                new, old, f"consensus {attack} seed={seed}", traffic=False
            )

    @pytest.mark.parametrize("attack", ["replay", "fuzz"])
    def test_traffic_reactive_attacks_keep_properties(self, attack):
        # Replay/fuzz react to observed bytes; the multiplexed wire shape is
        # different by design, so identity with the legacy run is not
        # defined. The renaming properties still must hold.
        ids = standard_ids(self.N)
        for seed in SEEDS:
            result = _run(
                consensus_renaming_factory(self.N, ids, seed),
                n=self.N, t=self.T, ids=ids, attack=attack, seed=seed,
            )
            assert result.metrics.round_count == self.T + 1
            assert_renaming_ok(
                result, namespace=self.N, context=f"consensus {attack} seed={seed}"
            )

    def test_through_wire_envelopes(self):
        # through_wire round-trips every correct message through the binary
        # codec — EnvelopeMessage traffic included.
        ids = standard_ids(self.N)
        for seed in range(5):
            base = _run(
                consensus_renaming_factory(self.N, ids, seed),
                n=self.N, t=self.T, ids=ids, attack="conforming", seed=seed,
            )
            wired = _run(
                consensus_renaming_factory(self.N, ids, seed),
                n=self.N, t=self.T, ids=ids, attack="conforming", seed=seed,
                through_wire=True,
            )
            assert base.outputs == wired.outputs
            assert list(base.trace) == list(wired.trace)


# --------------------------------------------------------------------- units


class RecordingPhase(Phase):
    """Toy phase logging every local step it is driven through."""

    def __init__(self, name, steps, journal):
        self.name = name
        self.steps = steps
        self._journal = journal

    def messages_for_step(self, step):
        self._journal.append((self.name, "send", step))
        return []

    def deliver_step(self, step, inbox):
        self._journal.append((self.name, "deliver", step))

    def result(self):
        return f"{self.name}-done"


def _ctx(n=4, t=1, my_id=1):
    return ProcessContext(n=n, t=t, my_id=my_id)


class TestPhaseSequence:
    def test_round_offset_virtualization(self):
        journal = []
        offsets = []

        def first(ctx, prev):
            offsets.append((ctx.offset, prev))
            return RecordingPhase("a", 2, journal)

        def second(ctx, prev):
            offsets.append((ctx.offset, prev))
            return RecordingPhase("b", 3, journal)

        seq = PhaseSequence(_ctx(), [first, second])
        for round_no in range(1, 6):
            seq.send(round_no)
            seq.deliver(round_no, {})
        # Phase a sees local steps 1..2 at global rounds 1..2; phase b sees
        # local steps 1..3 at global rounds 3..5.
        assert journal == [
            ("a", "send", 1), ("a", "deliver", 1),
            ("a", "send", 2), ("a", "deliver", 2),
            ("b", "send", 1), ("b", "deliver", 1),
            ("b", "send", 2), ("b", "deliver", 2),
            ("b", "send", 3), ("b", "deliver", 3),
        ]
        # Builders fire with the right offsets and threaded results.
        assert offsets == [(0, None), (2, "a-done")]
        assert seq.results == ["a-done", "b-done"]
        assert seq.done and seq.output_value == "b-done"

    def test_finish_maps_final_result(self):
        seq = PhaseSequence(
            _ctx(),
            [lambda ctx, prev: RecordingPhase("only", 1, [])],
            finish=lambda outcome: outcome.upper(),
        )
        seq.send(1)
        seq.deliver(1, {})
        assert seq.output_value == "ONLY-DONE"

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            PhaseSequence(_ctx(), [])

    def test_trace_offsets_land_on_global_rounds(self):
        events = []
        ctx = ProcessContext(
            n=4, t=1, my_id=1,
            trace=lambda round_no, event, detail: events.append((round_no, event)),
        )

        class Logging(RecordingPhase):
            def __init__(self, name, steps, phase_ctx):
                super().__init__(name, steps, [])
                self._phase_ctx = phase_ctx

            def deliver_step(self, step, inbox):
                self._phase_ctx.log(step, self.name)

        seq = PhaseSequence(
            ctx,
            [
                lambda c, p: Logging("first", 2, c),
                lambda c, p: Logging("second", 2, c),
            ],
        )
        for round_no in range(1, 5):
            seq.send(round_no)
            seq.deliver(round_no, {})
        assert events == [(1, "first"), (2, "first"), (3, "second"), (4, "second")]

    @pytest.mark.parametrize(
        "algorithm,n,t,attack",
        [
            ("alg1", 16, 5, "silent"),
            ("alg1", 16, 5, "rank-skew"),
            ("alg1-constant", 25, 4, "silent"),
            ("alg4", 11, 2, "selective-echo"),
            ("translated", 10, 3, "silent"),
        ],
    )
    def test_finished_run_leaves_no_cyclic_garbage(self, algorithm, n, t, attack):
        """A finished run is freed by reference counting alone: no process
        keeps its own bound-method builders alive in a cycle."""
        gc.collect()
        gc.disable()
        try:
            record = run_experiment(
                algorithm, n, t, make_ids("uniform", n, seed=0), attack=attack
            )
            assert record.report.ok
            del record
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_id_selection_is_a_phase(self):
        phase = IdSelectionPhase(4, 1, 10)
        assert isinstance(phase, Phase)
        assert phase.steps == 4


class OneShot(Process):
    """Sub-protocol finishing after a single round; records its inbox."""

    def __init__(self, ctx, ident):
        super().__init__(ctx)
        self.ident = ident
        self.seen = None

    def send(self, round_no):
        return self.broadcast(IdMessage(self.ident))

    def deliver(self, round_no, inbox):
        self.seen = {link: tuple(msgs) for link, msgs in inbox.items()}
        self.output_value = self.ident


class TestMultiplexer:
    def test_send_wraps_in_tag_order(self):
        ctx = _ctx()
        mux = Multiplexer(ctx, {2: OneShot(ctx, 20), 1: OneShot(ctx, 10)})
        outbox = mux.send(1)
        messages = outbox[BROADCAST]
        assert messages == [
            EnvelopeMessage(tag=1, payload=IdMessage(10)),
            EnvelopeMessage(tag=2, payload=IdMessage(20)),
        ]

    def test_deliver_routes_unwraps_and_drops_noise(self):
        ctx = _ctx()
        a, b = OneShot(ctx, 10), OneShot(ctx, 20)
        mux = Multiplexer(ctx, {1: a, 2: b})
        inbox = {
            3: (
                EnvelopeMessage(tag=1, payload=IdMessage(77)),
                IdMessage(99),  # raw message: Byzantine noise, dropped
                EnvelopeMessage(tag=9, payload=IdMessage(1)),  # unknown tag
            ),
            1: (EnvelopeMessage(tag=1, payload=IdMessage(55)),),
        }
        mux.deliver(1, inbox)
        assert a.seen == {3: (IdMessage(77),), 1: (IdMessage(55),)}
        assert b.seen == {}  # instance 2 saw an empty inbox, not nothing

    def test_finishes_when_all_instances_finish(self):
        ctx = _ctx()
        mux = Multiplexer(
            ctx,
            {1: OneShot(ctx, 10), 2: OneShot(ctx, 20)},
            finish=lambda outputs: sorted(outputs.values()),
        )
        assert not mux.done
        mux.deliver(1, {})
        assert mux.done and mux.output_value == [10, 20]

    def test_done_instances_go_silent(self):
        ctx = _ctx()
        a, b = OneShot(ctx, 10), OneShot(ctx, 20)
        mux = Multiplexer(ctx, {1: a, 2: b})
        a.output_value = 10  # already finished
        outbox = mux.send(1)
        assert outbox[BROADCAST] == [EnvelopeMessage(tag=2, payload=IdMessage(20))]

    def test_empty_multiplexer_rejected(self):
        with pytest.raises(ValueError):
            Multiplexer(_ctx(), {})


class TestEnvelopeCodec:
    def test_roundtrip_nested_payloads(self):
        samples = [
            EnvelopeMessage(tag=0, payload=IdMessage(7)),
            EnvelopeMessage(tag=5, payload=RanksMessage.from_dict({3: 2})),
            EnvelopeMessage(
                tag=12,
                payload=EnvelopeMessage(tag=3, payload=IdMessage(1)),
            ),
        ]
        for message in samples:
            assert decode_message(encode_message(message)) == message

    def test_bit_model_upper_bounds_encoding(self):
        message = EnvelopeMessage(
            tag=6, payload=RanksMessage.from_dict({i: i for i in range(1, 9)})
        )
        assert encoded_bits(message) <= message.bit_size(id_bits=21, rank_bits=16)

    def test_unregistered_payload_rejected(self):
        from repro.sim.messages import Message

        class Strange(Message):
            pass

        with pytest.raises(WireError):
            encode_message(EnvelopeMessage(tag=1, payload=Strange()))

    def test_truncated_envelope_rejected(self):
        data = encode_message(EnvelopeMessage(tag=1, payload=IdMessage(5)))
        with pytest.raises(WireError):
            decode_message(data[:2])
