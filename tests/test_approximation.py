"""Unit and property tests for the approximate voting step (Alg. 3)."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    approximate,
    average,
    nearest_int,
    select_every_t,
    trim_extremes,
)

fractions_st = st.fractions(min_value=-1000, max_value=1000)


class TestTrimExtremes:
    def test_removes_t_from_each_side(self):
        assert trim_extremes([5, 1, 9, 3, 7], 1) == [3, 5, 7]

    def test_zero_trim_sorts_only(self):
        assert trim_extremes([3, 1, 2], 0) == [1, 2, 3]

    def test_requires_enough_values(self):
        with pytest.raises(ValueError):
            trim_extremes([1, 2], 1)
        with pytest.raises(ValueError):
            trim_extremes([1, 2, 3, 4], 2)

    def test_duplicates_removed_as_multiset(self):
        assert trim_extremes([1, 1, 1, 5, 9, 9, 9], 2) == [1, 5, 9]

    @given(st.lists(fractions_st, min_size=5, max_size=20), st.integers(0, 2))
    def test_result_within_input_range(self, values, t):
        if len(values) <= 2 * t:
            return
        survivors = trim_extremes(values, t)
        assert len(survivors) == len(values) - 2 * t
        assert min(values) <= survivors[0] and survivors[-1] <= max(values)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30), st.integers(0, 6))
    def test_stride_t_is_select_t_of_the_trim(self, values, t):
        if len(values) <= 2 * t:
            return
        assert trim_extremes(values, t, t or 1) == select_every_t(trim_extremes(values, t), t)


class TestSelectEveryT:
    def test_selects_every_t_th_from_smallest(self):
        assert select_every_t([1, 2, 3, 4, 5], 2) == [1, 3, 5]

    def test_stride_one_selects_all(self):
        assert select_every_t([1, 2, 3], 1) == [1, 2, 3]

    def test_zero_selects_all(self):
        assert select_every_t([4, 5, 6], 0) == [4, 5, 6]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_every_t([], 1)

    def test_always_contains_smallest(self):
        assert select_every_t([7, 8, 9, 10], 3)[0] == 7

    @given(st.lists(fractions_st, min_size=1, max_size=30).map(sorted),
           st.integers(1, 5))
    def test_count_formula(self, ordered, t):
        selected = select_every_t(ordered, t)
        assert len(selected) == (len(ordered) - 1) // t + 1


class TestAverage:
    def test_exact_mean(self):
        assert average([Fraction(1), Fraction(2)]) == Fraction(3, 2)

    @given(st.lists(fractions_st, min_size=1, max_size=10))
    def test_mean_within_range(self, values):
        mean = average(values)
        assert min(values) <= mean <= max(values)


class TestNearestInt:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(3), 3),
            (Fraction(10, 3), 3),
            (Fraction(11, 3), 4),
            (Fraction(7, 2), 4),  # ties round up
            (Fraction(-7, 2), -3),
            (Fraction(0), 0),
        ],
    )
    def test_rounding(self, value, expected):
        assert nearest_int(value) == expected

    def test_float_input(self):
        assert nearest_int(4.4) == 4
        assert nearest_int(4.6) == 5

    @given(fractions_st)
    def test_within_half(self, value):
        assert abs(nearest_int(value) - value) <= Fraction(1, 2)


def vote(ranks):
    return {identifier: Fraction(rank) for identifier, rank in ranks.items()}


class TestApproximate:
    """n=7, t=2 unless stated: threshold N−t = 5, trim 2, select stride 2."""

    def test_insufficient_support_drops_id(self):
        my = vote({10: 1, 20: 2})
        votes = [vote({10: 1}) for _ in range(5)] + [vote({10: 1, 20: 2})] * 2
        new_ranks, accepted = approximate(my, {10, 20}, votes, 7, 2)
        assert accepted == {10}
        assert 20 not in new_ranks

    def test_unanimous_votes_fixed_point(self):
        my = vote({10: 1, 20: 2})
        votes = [vote({10: 1, 20: 2})] * 5
        new_ranks, accepted = approximate(my, {10, 20}, votes, 7, 2)
        assert new_ranks == my
        assert accepted == {10, 20}

    def test_fill_with_own_value(self):
        # 5 votes at 0 plus 2 fills with own value 7:
        # sorted [0,0,0,0,0,7,7] -> trim 2 -> [0,0,0] -> select [0,0] -> 0.
        my = vote({10: 7})
        votes = [vote({10: 0})] * 5
        new_ranks, _ = approximate(my, {10}, votes, 7, 2)
        assert new_ranks[10] == 0

    def test_outliers_trimmed(self):
        # 5 honest votes at 3, 2 extreme votes: extremes must vanish.
        my = vote({10: 3})
        votes = [vote({10: 3})] * 5 + [vote({10: 1000}), vote({10: -1000})]
        new_ranks, _ = approximate(my, {10}, votes, 7, 2)
        assert new_ranks[10] == 3

    def test_result_within_honest_range_despite_byzantine(self):
        honest = [Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(5)]
        my = vote({10: 3})
        votes = [vote({10: v}) for v in honest]
        votes += [vote({10: 10**6}), vote({10: -(10**6)})]
        new_ranks, _ = approximate(my, {10}, votes, 7, 2)
        assert Fraction(1) <= new_ranks[10] <= Fraction(5)

    def test_excess_votes_capped_at_n(self):
        my = vote({10: 3})
        votes = [vote({10: 3})] * 20
        new_ranks, _ = approximate(my, {10}, votes, 7, 2)
        assert new_ranks[10] == 3

    def test_crash_variant_plain_average(self):
        my = vote({10: 0})
        votes = [vote({10: v}) for v in (0, 0, 0, 4, 4)]
        new_ranks, _ = approximate(my, {10}, votes, 7, 2, trim=0)
        # 5 votes + 2 own fills at 0 -> mean of [0,0,0,4,4,0,0] = 8/7.
        assert new_ranks[10] == Fraction(8, 7)

    def test_votes_missing_id_do_not_count(self):
        my = vote({10: 1, 20: 2})
        full = [vote({10: 1, 20: 2})] * 5
        partial = [vote({10: 1})] * 2
        _, accepted = approximate(my, {10, 20}, full + partial, 7, 2)
        assert accepted == {10, 20}

    @given(
        honest=st.lists(fractions_st, min_size=5, max_size=5),
        byzantine=st.lists(fractions_st, min_size=2, max_size=2),
    )
    def test_lemma_iv8_range_containment(self, honest, byzantine):
        """New value always lies within the range of the honest votes —
        the second half of Lemma IV.8, for any Byzantine values."""
        my = vote({10: honest[0]})
        votes = [vote({10: v}) for v in honest + byzantine]
        new_ranks, _ = approximate(my, {10}, votes, 7, 2)
        assert min(honest) <= new_ranks[10] <= max(honest)

    @given(
        shared=st.lists(fractions_st, min_size=5, max_size=5),
        byz_a=st.lists(fractions_st, min_size=2, max_size=2),
        byz_b=st.lists(fractions_st, min_size=2, max_size=2),
    )
    def test_lemma_iv8_contraction(self, shared, byz_a, byz_b):
        """Two processes sharing the 5 honest votes but fed different
        Byzantine pairs end within spread/sigma of each other (sigma=2)."""
        my_a = vote({10: shared[0]})
        my_b = vote({10: shared[1]})
        ranks_a, _ = approximate(
            my_a, {10}, [vote({10: v}) for v in shared + byz_a], 7, 2
        )
        ranks_b, _ = approximate(
            my_b, {10}, [vote({10: v}) for v in shared + byz_b], 7, 2
        )
        spread = max(shared) - min(shared)
        assert abs(ranks_a[10] - ranks_b[10]) <= spread / 2


class TestApproximatePairwise:
    @given(
        base=st.lists(fractions_st, min_size=5, max_size=5),
        gap=st.fractions(min_value="1/10", max_value=10),
    )
    def test_lemma_a3_spacing_preserved(self, base, gap):
        """Votes that rank id' at least `gap` above id keep the new ranks
        spaced by at least `gap` — Lemma A.3 with the honest vote set."""
        my = {10: base[0], 20: base[0] + gap}
        votes = [vote({10: v, 20: v + gap}) for v in base]
        new_ranks, _ = approximate(my, {10, 20}, votes, 7, 2)
        assert new_ranks[20] - new_ranks[10] >= gap
