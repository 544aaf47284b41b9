"""Wire messages of Algorithms 1 and 4.

Frozen dataclasses so broadcast delivery can alias objects safely, with
explicit ``bit_size`` models matching the paper's message-size analysis:

* Alg. 1 control messages (``Id``/``Echo``/``Ready``) carry one id each;
* Alg. 1 ``Ranks`` messages carry up to ``N+t−1`` (id, rank) pairs —
  ``O((N+t−1)(log N_max + log N))`` bits (Section IV-D);
* Alg. 4 ``MultiEcho`` messages carry up to ``N`` ids — ``O(N log N_max)``
  bits (Section VI-B).

Ranks travel as sorted tuples of pairs because dataclass fields must be
hashable; :meth:`RanksMessage.as_dict` restores mapping form. Rank values are
``Fraction`` in exact mode or ``float`` in float mode — the wire format is
agnostic.

A broadcast reaches every recipient as one shared object, so the receiving
side's per-message checks (:func:`repro.core.validation.checked_vote`,
:func:`~repro.core.validation.checked_echo`) run once and leave their
result on the message under :data:`MEMO_ATTR`. The memo lives outside the
dataclass fields: ``==``, ``hash``, ``repr``, ``bit_size``, the wire bytes
and pickles never see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from typing import Dict, Mapping, Tuple, Union

from ..sim.messages import KIND_BITS, Message, RANK_FRACTION_BITS

Rank = Union[Rational, float]

#: Instance attribute holding a message's receive-side memo.
MEMO_ATTR = "_memo"


class _Memoized:
    """Pickle a message without its receive-side memo."""

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(MEMO_ATTR, None)
        return state


@dataclass(frozen=True)
class IdMessage(Message):
    """Step-1 announcement ``⟨ID, my_id⟩``."""

    id: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


@dataclass(frozen=True)
class EchoMessage(Message):
    """Step-2 echo ``⟨ECHO, id⟩``."""

    id: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


@dataclass(frozen=True)
class ReadyMessage(Message):
    """Step-3/4 confirmation ``⟨READY, id⟩``."""

    id: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


@dataclass(frozen=True)
class RanksMessage(_Memoized, Message):
    """Voting-phase vote ``⟨AA, ranks⟩``: the sender's full ranks array."""

    entries: Tuple[Tuple[int, Rank], ...]

    @classmethod
    def from_dict(cls, ranks: Mapping[int, Rank]) -> "RanksMessage":
        """Build from a ``{id: rank}`` mapping (canonically sorted by id)."""
        return cls(entries=tuple(sorted(ranks.items())))

    def as_dict(self) -> Dict[int, Rank]:
        """The ranks array as a fresh mapping the caller may keep or mutate."""
        return dict(self.entries)

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        per_entry = id_bits + rank_bits + RANK_FRACTION_BITS
        return KIND_BITS + per_entry * len(self.entries)


@dataclass(frozen=True)
class MultiEchoMessage(_Memoized, Message):
    """Alg. 4 step-2 echo ``⟨MULTIECHO, ids⟩``: every id seen in step 1."""

    ids: Tuple[int, ...]

    @classmethod
    def from_ids(cls, ids) -> "MultiEchoMessage":
        """Build from any iterable of ids (canonically sorted, deduplicated)."""
        return cls(ids=tuple(sorted(set(ids))))

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits * len(self.ids)
