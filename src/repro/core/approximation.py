"""Algorithm 3 — the ``approximate`` voting step.

One voting round of the coordinated Byzantine approximate agreement at the
heart of Alg. 1. Given the local ranks array and all *validated* ranks
arrays received this round, it produces the next ranks array:

* per accepted id, gather the votes mentioning it; drop ids with fewer than
  ``N − t`` votes (never happens to an id that is timely anywhere — Cor. IV.5);
* pad the vote multiset to exactly ``N`` entries with the local rank;
* trim the ``t`` smallest and ``t`` largest votes (Byzantine values cannot
  survive at the extremes);
* average ``select_t`` of the trimmed, sorted multiset — every ``t``-th
  element starting from the smallest — which contracts the correct-value
  spread by ``σ_t = ⌊(N−2t)/t⌋ + 1`` per round (Lemma IV.8) while keeping
  the result inside the correct values' range.

Pure functions over multisets; no I/O. Ranks may be ``Fraction`` (exact
mode, the default — the paper's analysis verbatim) or ``float``. When every
vote for an id is a ``Fraction``, the trim runs on integers: the votes are
scaled to one common denominator, which preserves their order, so sorting,
trimming and selecting the integer numerators picks the same values, and
one ``Fraction`` is built from their sum at the end.

``approximate`` goes further when every vote is an all-``Fraction``
:class:`~repro.core.validation.CheckedVote` and every local rank a
``Fraction``: it picks one common denominator for the whole call, takes
each vote's numerators over it from the vote (integer form computed once
per message, rescaled per call when the call's denominator is larger),
and folds every id on plain ints. Anything else — floats, ints, mixed or
plain-dict votes — is folded per id by :func:`trimmed_mean`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .messages import Rank
from .validation import CheckedVote


def trim_extremes(values: Sequence[Rank], t: int, stride: int = 1) -> List[Rank]:
    """Sort ``values`` and drop the ``t`` smallest and ``t`` largest.

    Alg. 3 lines 12–15. Requires ``len(values) > 2t`` so something survives.
    ``stride`` keeps every ``stride``-th survivor from the smallest, so
    ``trim_extremes(values, t, t or 1)`` is
    ``select_every_t(trim_extremes(values, t), t)`` in one slice.
    """
    if len(values) <= 2 * t:
        raise ValueError(
            f"cannot trim {t} extremes from each side of {len(values)} values"
        )
    ordered = sorted(values)
    return ordered[t: len(ordered) - t: stride]


def select_every_t(ordered: Sequence[Rank], t: int) -> List[Rank]:
    """``select_t``: the smallest element and every ``t``-th one after it.

    For ``t = 0`` (no faults to defend against) every element is selected,
    making the step a plain average. See DESIGN.md §8 for how this indexing
    relates to the paper's σ_t count.
    """
    if not ordered:
        raise ValueError("select_t of an empty multiset")
    return list(ordered[::t]) if t else list(ordered)


def average(values: Sequence[Rank]) -> Rank:
    """Arithmetic mean: a ``Fraction`` unless a ``float`` is among the
    values, so exact mode stays exact even when every value is an int."""
    total = sum(values)
    if isinstance(total, float):
        return total / len(values)
    return Fraction(total, len(values))


def trimmed_mean(votes: Sequence[Rank], t: int) -> Rank:
    """Alg. 3 lines 12–16: ``average(select_t(trim_extremes(votes)))``.

    All-``Fraction`` votes take the exact integer-keyed path (see the
    module docstring); ints, floats and mixed votes the general one.
    """
    if all(type(vote) is Fraction for vote in votes):
        ratios = [vote.as_integer_ratio() for vote in votes]
        common = math.lcm(*{denominator for _, denominator in ratios})
        scaled = [numerator * (common // denominator) for numerator, denominator in ratios]
        return _scaled_mean(scaled, common, t)
    return average(select_every_t(trim_extremes(votes, t), t))


def _scaled_mean(numerators: List[int], denominator: int, t: int) -> Fraction:
    """:func:`trimmed_mean` of ``numerator / denominator`` for each of
    ``numerators``: scaling by a positive constant keeps the order, so the
    integers trim and select to the same values."""
    selected = trim_extremes(numerators, t, t or 1)
    return Fraction(sum(selected), denominator * len(selected))


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
    common = _common_denominator(my_ranks, accepted, valid_votes)
    if common is not None:
        valid_votes = [vote.scaled_to(common) for vote in valid_votes]
    new_ranks: Dict[int, Rank] = {}
    new_accepted: Set[int] = set()
    for identifier in accepted:
        votes: List[Rank] = [
            vote[identifier] for vote in valid_votes if identifier in vote
        ]
        if len(votes) < n - t:
            continue  # discarded: not enough support (line 08)
        new_accepted.add(identifier)
        del votes[n:]  # at most one valid vote per link; defensive cap
        if len(votes) < n:  # fill with own value (lines 10-11)
            own = my_ranks[identifier]
            if common is not None:
                own = own.numerator * (common // own.denominator)
            votes += [own] * (n - len(votes))
        if common is None:  # lines 12-16
            new_ranks[identifier] = trimmed_mean(votes, trim)
        else:
            new_ranks[identifier] = _scaled_mean(votes, common, trim)
    return new_ranks, new_accepted


def _common_denominator(
    my_ranks: Mapping[int, Rank],
    accepted: Set[int],
    valid_votes: Sequence[Mapping[int, Rank]],
) -> Optional[int]:
    """The lcm of every vote's and every accepted id's local rank's
    denominator, when every vote is a :class:`CheckedVote` with an integer
    form and every such local rank a ``Fraction``; else None."""
    denominators = set()
    for vote in valid_votes:
        if type(vote) is not CheckedVote or vote.exact is None:
            return None
        denominators.add(vote.exact[0])
    for identifier in accepted:
        rank = my_ranks.get(identifier)
        if rank is not None:
            if type(rank) is not Fraction:
                return None
            denominators.add(rank.denominator)
    return math.lcm(*denominators)


def nearest_int(value: Rank) -> int:
    """The paper's ``Round``: nearest integer, ties rounded up.

    Python's built-in ``round`` uses banker's rounding; a deterministic
    half-up rule keeps outputs stable across rank representations (exact
    under ``Fraction`` inputs). Exact ties cannot occur for converged Alg. 1
    ranks (the δ-margin argument in Theorem IV.10 keeps every rank strictly
    inside a half-unit window), so the tie rule only matters for ablated
    variants.
    """
    return math.floor(value + Fraction(1, 2))
