"""Algorithm 2 — the ``isValid`` vote filter.

The crux of order preservation (Section IV-B): plain Byzantine approximate
agreement would let the adversary push the per-id agreement instances toward
overlapping values. ``isValid`` rejects any incoming ranks array that

1. is missing a rank for some id in the *recipient's* ``timely`` set (legal
   because ``timely_p ⊆ accepted_q`` for correct ``p, q`` — Lemma IV.1), or
2. ranks two timely ids closer than ``δ`` or out of order.

Correct processes always pass the filter (Lemma IV.4), and every vote that
passes — Byzantine or not — approximates consistently with the original id
order, which is exactly what Lemma A.3 needs.

A broadcast vote reaches all ``N`` recipients as one shared message, so the
parts of the check that do not depend on the recipient run once per
message (:func:`checked_vote`): soundness, the key set, and whether the
vote's *own* key set is δ-spaced. A recipient then only tests
``timely ⊆ keys``; votes that are not δ-spaced as a whole take the
per-recipient loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional, Tuple

from .messages import MEMO_ATTR, MultiEchoMessage, Rank, RanksMessage


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


class CheckedVote(dict):
    """A received ranks array: a read-only mapping plus the verdicts that
    depend only on the vote, computed once per message.

    ``sound`` is :func:`is_sound_vote` and ``ids`` the key set;
    :meth:`is_spaced` compares a threshold with the smallest rank gap
    between consecutive ids of the sorted key set. ``exact`` is the
    vote's integer form — ``(denominator, numerators)``, the lcm of the
    ranks' denominators and each id's numerator over it — when the vote is
    sound and every rank is a ``Fraction``, else None;
    :meth:`scaled_to` rescales it for ``approximate``.
    """

    __slots__ = ("sound", "ids", "exact", "_gap")

    def __init__(self, entries) -> None:
        super().__init__(entries)
        self.sound = is_sound_vote(self)
        self.ids: FrozenSet[int] = frozenset(self)
        self.exact: Optional[Tuple[int, Dict[int, int]]] = self._integer_form()
        self._gap = self._smallest_gap()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a received vote is read-only; copy it with dict()")

    __setitem__ = __delitem__ = _read_only
    clear = pop = popitem = setdefault = update = __ior__ = _read_only

    def is_spaced(self, threshold: Rank) -> bool:
        """True when every consecutive pair of the sorted key set is ranked
        ``≥ threshold`` apart in a way that carries over to every subset
        of the keys; False sends the caller to the pair-by-pair check."""
        return self._gap is not None and self._gap >= threshold

    def scaled_to(self, denominator: int) -> Dict[int, int]:
        """The numerators of :attr:`exact` over ``denominator``, a multiple
        of its own."""
        own, numerators = self.exact
        if own == denominator:
            return numerators
        factor = denominator // own
        return {identifier: value * factor for identifier, value in numerators.items()}

    def _integer_form(self) -> Optional[Tuple[int, Dict[int, int]]]:
        if not self.sound or any(type(rank) is not Fraction for rank in self.values()):
            return None
        denominator = math.lcm(*{rank.denominator for rank in self.values()})
        return denominator, {
            identifier: rank.numerator * (denominator // rank.denominator)
            for identifier, rank in self.items()
        }

    def _smallest_gap(self) -> Optional[Rank]:
        """The smallest consecutive gap, when it bounds every subset's gaps.

        A subset's consecutive gap is a sum of consecutive gaps of the
        whole set, so it is at least the smallest one as long as that is
        ``≥ 0``: exactly for int/Fraction ranks, and for all-float ranks
        because correctly rounded subtraction is monotone. Unsound votes,
        votes mixing floats with exact ranks, and votes out of order give
        None. With fewer than two keys no pair exists and any spacing holds.
        All-``Fraction`` votes take their gaps from :attr:`exact`'s
        integers and build one ``Fraction``.
        """
        if not self.sound:
            return None
        ordered = sorted(self)
        if len(ordered) < 2:
            return math.inf
        pairs = list(zip(ordered, ordered[1:]))
        if self.exact is not None:
            denominator, numerators = self.exact
            gap = min(numerators[larger] - numerators[smaller] for smaller, larger in pairs)
            return Fraction(gap, denominator) if gap >= 0 else None
        floats = sum(type(rank) is float for rank in self.values())
        if floats not in (0, len(self)):
            return None
        gap = min(self[larger] - self[smaller] for smaller, larger in pairs)
        return gap if gap >= 0 else None


def checked_vote(message: RanksMessage) -> CheckedVote:
    """The message's :class:`CheckedVote`, built on first delivery and
    memoised on the message for every later recipient."""
    vote = message.__dict__.get(MEMO_ATTR)
    if vote is None:
        vote = CheckedVote(message.entries)
        object.__setattr__(message, MEMO_ATTR, vote)
    return vote


class CheckedEcho(NamedTuple):
    """An Alg. 4 MultiEcho's id set and whether every id is sound."""

    ids: FrozenSet[int]
    sound: bool


def checked_echo(message: MultiEchoMessage) -> CheckedEcho:
    """The message's :class:`CheckedEcho`, memoised like :func:`checked_vote`."""
    echo = message.__dict__.get(MEMO_ATTR)
    if echo is None:
        ids = frozenset(message.ids)
        echo = CheckedEcho(ids, all(is_sound_id(identifier) for identifier in ids))
        object.__setattr__(message, MEMO_ATTR, echo)
    return echo


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
    more than) δ-spacing of all pairs. By the same argument a
    :class:`CheckedVote` that is δ-spaced over its whole key set is δ-spaced
    over ``timely``, so only ``timely ⊆ keys`` is left to test.
    """
    # Keep the threshold exact when no tolerance applies: subtracting the
    # float 0.0 would coerce a Fraction delta to the nearest double, which
    # can land *above* delta and spuriously reject exactly-delta-spaced
    # honest votes.
    threshold = delta - tolerance if tolerance else delta
    if isinstance(ranks, CheckedVote) and ranks.is_spaced(threshold):
        return ranks.ids.issuperset(timely)
    ordered = sorted(set(timely))
    for identifier in ordered:
        if identifier not in ranks:
            return False
    for smaller, larger in zip(ordered, ordered[1:]):
        if ranks[larger] - ranks[smaller] < threshold:
            return False
    return True
