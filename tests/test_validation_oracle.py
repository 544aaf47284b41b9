"""Live Alg. 2/3 hot path vs the frozen copies in ``legacy_reference.py``.

The live ``is_valid_ranks`` answers from a once-per-message memo when the
whole vote is δ-spaced (for all-``Fraction`` votes the smallest gap comes
from the vote's integer form), and the live ``approximate`` folds
all-``Fraction`` votes as integers over one common denominator. Both must
give the frozen code's answers: equal verdicts, and results equal in value
and type. The one intended difference is the all-int selection, where the
frozen ``average`` leaked a float into exact mode and the live one returns
a ``Fraction`` of the same value.

Votes are built the way a recipient sees them — ``RanksMessage(entries=…)``
with unsorted or duplicate entries — and one message is checked against
several recipients' ``timely`` sets, so a memo that leaked one recipient's
answer into another's would show.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_reference as frozen
from repro.core import SystemParams
from repro.core.approximation import _common_denominator, approximate
from repro.core.messages import RanksMessage
from repro.core.validation import CheckedVote, checked_vote, is_valid_ranks

IDS = st.integers(1, 12)

#: Exact-mode deltas (δ = 1 + 1/(3(N+t)), and δ = 1 without the stretch)
#: and their float-mode counterparts.
EXACT_DELTAS = [SystemParams(7, 2).delta, SystemParams(16, 5).delta, Fraction(1)]
DELTAS = EXACT_DELTAS + [float(delta) for delta in EXACT_DELTAS]

fractions_st = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)
)
ints_st = st.integers(-50, 50)
floats_st = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
ranks_st = st.one_of(fractions_st, ints_st, floats_st)


def as_kind(value: Fraction, kind: str):
    if kind == "fraction":
        return value
    if kind == "float":
        return float(value)
    return math.floor(value)


@st.composite
def chain_entries(draw, delta: Fraction):
    """A ranks array laid out near δ-spacing: gaps of exactly δ, just
    under it, wider, zero, barely negative and negative, in one number kind
    or mixed (so the same value can appear as a Fraction and as its
    nearest float)."""
    ids = sorted(draw(st.sets(IDS, min_size=1, max_size=8)))
    kind = draw(st.sampled_from(["fraction", "float", "int", "mixed"]))
    rank = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 30)))
    gaps = [delta] * 4 + [delta + Fraction(1, 7), 2 * delta] + [
        delta - Fraction(1, 10**12), delta - Fraction(1, 10**18),
        Fraction(0), Fraction(-1, 10**30), -delta / 2, -delta,
    ]
    entries = []
    for identifier in ids:
        this = draw(st.sampled_from(["fraction", "float", "int"])) if kind == "mixed" else kind
        entries.append((identifier, as_kind(rank, this)))
        rank += draw(st.sampled_from(gaps))
    return entries


@st.composite
def validity_cases(draw):
    """``(message, recipients' timely sets, delta, tolerance)``.

    The message is built from raw, possibly unsorted or duplicated entries,
    the way a Byzantine sender may send it; most timely sets are subsets of
    its ids (so spacing decides), some name an id it lacks."""
    exact_delta = draw(st.sampled_from(EXACT_DELTAS))
    float_mode = draw(st.booleans())
    delta = float(exact_delta) if float_mode else exact_delta
    tolerance = draw(st.sampled_from([0.0, 0.0, 1e-9, 0.5, float(delta), 2.0]))
    entries = draw(st.one_of(
        chain_entries(exact_delta),
        st.lists(st.tuples(IDS, ranks_st), max_size=8),
    ))
    if entries and draw(st.booleans()):
        entries = entries + [(entries[0][0], draw(ranks_st))]
    entries = draw(st.permutations(entries)) if draw(st.booleans()) else entries
    ids = sorted({identifier for identifier, _ in entries}) or [1]
    timely_st = st.one_of(
        st.sets(st.sampled_from(ids), max_size=8),
        st.sets(IDS, max_size=8),
    )
    recipients = draw(st.lists(timely_st, min_size=1, max_size=4))
    return RanksMessage(entries=tuple(entries)), recipients, delta, tolerance


DELTA = SystemParams(7, 2).delta
THIRD = Fraction(1, 3)


@settings(max_examples=500, deadline=None)
@given(validity_cases())
# A gap just under δ between two timely ids.
@example((RanksMessage(entries=((1, Fraction(1)), (2, 1 + DELTA - Fraction(1, 10**18)))),
          [{1, 2}], DELTA, 0.0))
# A zero threshold and one value as a Fraction and as its nearest float:
# each gap rounds to 0.0, yet the exact ranks of 1 and 3 are out of order.
@example((RanksMessage(entries=((1, THIRD), (2, float(THIRD)),
                                (3, THIRD - Fraction(1, 10**30)))),
          [{1, 3}], DELTA, float(DELTA)))
# A negative threshold: each gap clears it, their sum does not.
@example((RanksMessage(entries=((1, Fraction(0)), (2, -DELTA / 2), (3, -DELTA))),
          [{1, 3}], DELTA, 2.0))
def test_is_valid_ranks_matches_frozen(case):
    # tolerance float(delta) makes the threshold δ − tolerance exactly 0.0,
    # and 2.0 makes it negative.
    message, recipients, delta, tolerance = case
    vote = checked_vote(message)
    assert vote.sound == frozen.is_sound_vote(message.as_dict())
    if not vote.sound:
        return
    for timely in recipients:
        expected = frozen.is_valid_ranks(timely, message.as_dict(), delta, tolerance)
        assert is_valid_ranks(timely, vote, delta, tolerance) == expected, timely


def selected_votes(my_rank, support, n, trim):
    """The values Alg. 3 averages for one id, by the frozen helpers."""
    padded = support[:n] + [my_rank] * (n - len(support[:n]))
    return frozen.select_every_t(frozen.trim_extremes(padded, trim), trim)


def assert_same_rank(live, old, selected):
    if type(live) is type(old):
        assert live == old
        return
    # The fixed all-int case: the frozen average divided ints to a float.
    assert type(live) is Fraction and type(old) is float
    assert float(live) == old
    assert all(type(value) is int for value in selected)


@st.composite
def approximate_inputs(draw):
    t = draw(st.integers(0, 3))
    n = draw(st.integers(2 * t + 1, 2 * t + 6))
    accepted = draw(st.sets(IDS, min_size=1, max_size=5))
    kind = draw(st.sampled_from(["fraction", "exact", "float", "mixed"]))
    value_st = {
        "fraction": fractions_st,
        "exact": st.one_of(fractions_st, ints_st),
        "float": floats_st,
        "mixed": ranks_st,
    }[kind]
    my_ranks = {identifier: draw(value_st) for identifier in accepted}
    votes = draw(st.lists(
        st.dictionaries(st.sampled_from(sorted(accepted) + [99]), value_st),
        max_size=n + 2,
    ))
    if draw(st.booleans()):
        votes = [checked_vote(RanksMessage.from_dict(vote)) for vote in votes]
    return my_ranks, accepted, votes, n, t


@settings(max_examples=400, deadline=None)
@given(approximate_inputs(), st.booleans())
def test_approximate_matches_frozen(inputs, untrimmed):
    my_ranks, accepted, votes, n, t = inputs
    trim = 0 if untrimmed else None
    live_ranks, live_accepted = approximate(my_ranks, set(accepted), votes, n, t, trim)
    old_ranks, old_accepted = frozen.approximate(my_ranks, set(accepted), votes, n, t, trim)
    assert live_accepted == old_accepted
    assert live_ranks.keys() == old_ranks.keys()
    for identifier, live in live_ranks.items():
        support = [vote[identifier] for vote in votes if identifier in vote]
        selected = selected_votes(
            my_ranks[identifier], support, n, t if trim is None else trim
        )
        assert_same_rank(live, old_ranks[identifier], selected)


def test_all_int_selection_stays_exact():
    """Regression: every selected value a Byzantine int used to give a
    float in exact mode."""
    votes = [{1: v} for v in (Fraction(1, 3), Fraction(2, 3), 1, Fraction(4, 3),
                              2, Fraction(7, 3), Fraction(8, 3))]
    new_ranks, _ = approximate({1: Fraction(1)}, {1}, votes, 7, 2)
    assert new_ranks == {1: Fraction(3, 2)}
    assert type(new_ranks[1]) is Fraction
    old_ranks, _ = frozen.approximate({1: Fraction(1)}, {1}, votes, 7, 2)
    assert old_ranks == {1: 1.5} and type(old_ranks[1]) is float


#: Denominators a vote may use: small ones, and large pairwise coprime ones
#: (a Byzantine vote over a huge prime raises the common denominator of
#: every id in the integer fold).
DENOMINATORS = [1, 2, 3, 7, 12, 10**9 + 7, 998244353, 2**61 - 1]

exact_st = st.builds(
    Fraction, st.integers(-10**4, 10**4), st.sampled_from(DENOMINATORS)
)


def rank_of(draw, kind):
    if kind == "mixed":
        kind = draw(st.sampled_from(["fraction", "int", "float"]))
    value = draw(exact_st)
    return as_kind(value, kind)


@st.composite
def fold_inputs(draw):
    """Alg. 3 inputs aimed at the integer fold: per-id support of exactly
    ``n − t`` or ``n − t − 1`` (or full, or more votes than links), votes
    missing ids, ``CheckedVote`` and plain-dict votes, and one rank kind
    for all values — or a mix."""
    t = draw(st.integers(0, 3))
    n = draw(st.integers(2 * t + 1, 2 * t + 6))
    accepted = sorted(draw(st.sets(IDS, min_size=1, max_size=5)))
    kind = draw(st.sampled_from(["fraction"] * 4 + ["int", "float", "mixed"]))
    my_ranks = {identifier: rank_of(draw, kind) for identifier in accepted}
    voters = draw(st.integers(max(n - t - 1, 0), n + 2))
    votes = [dict() for _ in range(voters)]
    for identifier in accepted + [99]:
        support = draw(st.sampled_from([n - t, n - t - 1, n, voters, 0]))
        support = max(0, min(support, voters))
        for vote in draw(st.permutations(votes))[:support]:
            vote[identifier] = rank_of(draw, kind)
    wrapping = draw(st.sampled_from(["checked", "checked", "plain", "mixed"]))
    votes = [
        checked_vote(RanksMessage.from_dict(vote))
        if wrapping == "checked" or (wrapping == "mixed" and draw(st.booleans()))
        else vote
        for vote in votes
    ]
    return my_ranks, set(accepted), votes, n, t


@settings(max_examples=600, deadline=None)
@given(fold_inputs(), st.booleans())
@example(({1: Fraction(1, 3), 2: Fraction(2, 3)}, {1, 2},
          [checked_vote(RanksMessage.from_dict({1: Fraction(1, 3), 2: Fraction(1, 2**61 - 1)})),
           checked_vote(RanksMessage.from_dict({1: Fraction(1, 7), 2: Fraction(5, 7)})),
           checked_vote(RanksMessage.from_dict({2: Fraction(4, 3)}))], 4, 1), False)
# Padding needs the local ranks over the common denominator, and the
# votes' denominators do not cover them.
@example(({1: Fraction(1, 998244353), 2: Fraction(1, 10**9 + 7)}, {1, 2},
          [checked_vote(RanksMessage.from_dict({1: Fraction(k), 2: Fraction(k)}))
           for k in (1, 2, 3)], 4, 1), False)
def test_integer_fold_matches_frozen(inputs, untrimmed):
    my_ranks, accepted, votes, n, t = inputs
    trim = 0 if untrimmed else t
    live_ranks, live_accepted = approximate(my_ranks, set(accepted), votes, n, t, trim)
    old_ranks, old_accepted = frozen.approximate(my_ranks, set(accepted), votes, n, t, trim)
    assert live_accepted == old_accepted
    assert list(live_ranks) == list(old_ranks)  # same id order in the trace
    for identifier, live in live_ranks.items():
        support = [vote[identifier] for vote in votes if identifier in vote]
        assert_same_rank(live, old_ranks[identifier],
                         selected_votes(my_ranks[identifier], support, n, trim))
    exact = all(
        isinstance(vote, CheckedVote) and vote.exact is not None for vote in votes
    ) and all(type(rank) is Fraction for rank in my_ranks.values())
    # The integer fold runs exactly when every input is exact.
    assert (_common_denominator(my_ranks, accepted, votes) is not None) == exact


@st.composite
def exact_gap_cases(draw):
    """All-``Fraction`` votes near δ-spacing over large coprime
    denominators, possibly out of order, and recipients' timely sets."""
    exact_delta = draw(st.sampled_from(EXACT_DELTAS))
    ids = sorted(draw(st.sets(IDS, min_size=1, max_size=8)))
    rank = draw(exact_st)
    gaps = [exact_delta] * 4 + [
        exact_delta + Fraction(1, 10**9 + 7), exact_delta - Fraction(1, 998244353),
        exact_delta - Fraction(1, 2**61 - 1), 2 * exact_delta, Fraction(0),
        # One unit under δ over δ's own denominator.
        exact_delta - Fraction(1, exact_delta.denominator),
        -Fraction(1, 2**61 - 1), -exact_delta,
    ]
    entries = []
    for identifier in ids:
        entries.append((identifier, rank))
        rank += draw(st.sampled_from(gaps))
    entries = draw(st.permutations(entries))
    float_mode = draw(st.booleans())
    delta = float(exact_delta) if float_mode else exact_delta
    tolerance = draw(st.sampled_from([0.0, 0.0, 1e-9]))
    recipients = draw(st.lists(st.sets(st.sampled_from(ids + [13])), min_size=1, max_size=4))
    return RanksMessage(entries=tuple(entries)), recipients, delta, tolerance


@settings(max_examples=500, deadline=None)
@given(exact_gap_cases())
# Exactly δ apart over a huge prime denominator, and one pair just under.
@example((RanksMessage(entries=((1, Fraction(1, 2**61 - 1)),
                                (2, Fraction(1, 2**61 - 1) + DELTA))),
          [{1, 2}], DELTA, 0.0))
@example((RanksMessage(entries=((2, Fraction(1, 998244353) + DELTA - Fraction(1, 10**9 + 7)),
                                (1, Fraction(1, 998244353)))),
          [{1, 2}, {1}], DELTA, 0.0))
def test_integer_gap_matches_frozen(case):
    message, recipients, delta, tolerance = case
    vote = checked_vote(message)
    assert vote.exact is not None
    for timely in recipients:
        expected = frozen.is_valid_ranks(timely, message.as_dict(), delta, tolerance)
        assert is_valid_ranks(timely, vote, delta, tolerance) == expected, timely
