"""Tests for the LFSR pseudo-random generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anytime.lfsr import MAXIMAL_TAPS, Lfsr, lfsr_sequence


class TestTaps:
    def test_all_widths_present(self):
        assert sorted(MAXIMAL_TAPS) == list(range(2, 33))

    def test_taps_in_range(self):
        for width, taps in MAXIMAL_TAPS.items():
            assert all(1 <= t <= width for t in taps)

    @pytest.mark.parametrize("width", range(2, 17))
    def test_maximal_period_covers_all_nonzero_states(self, width):
        seq = lfsr_sequence(width)
        assert sorted(seq) == list(range(1, 1 << width))


class TestLfsr:
    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError, match="non-zero"):
            Lfsr(8, seed=0)

    def test_rejects_seed_that_wraps_to_zero(self):
        with pytest.raises(ValueError, match="non-zero"):
            Lfsr(4, seed=16)   # 16 & 0xF == 0

    @pytest.mark.parametrize("width", [1, 0, 33, 64])
    def test_rejects_bad_width(self, width):
        with pytest.raises(ValueError, match="width"):
            Lfsr(width)

    def test_rejects_out_of_range_taps(self):
        with pytest.raises(ValueError, match="taps"):
            Lfsr(4, taps=(5, 1))

    def test_state_never_zero(self):
        lfsr = Lfsr(6, seed=33)
        for _ in range(lfsr.period):
            assert lfsr.step() != 0

    def test_period_property(self):
        assert Lfsr(10).period == 1023

    def test_reset_restores_seed_sequence(self):
        lfsr = Lfsr(8, seed=77)
        first = [lfsr.step() for _ in range(10)]
        lfsr.reset()
        assert [lfsr.step() for _ in range(10)] == first

    def test_states_iterator_matches_step(self):
        a = Lfsr(8, seed=5)
        b = Lfsr(8, seed=5)
        assert list(a.states(20)) == [b.step() for _ in range(20)]

    @given(st.integers(min_value=2, max_value=14),
           st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=40)
    def test_determinism(self, width, seed):
        seed = seed % ((1 << width) - 1) + 1
        s1 = list(Lfsr(width, seed=seed).states(50))
        s2 = list(Lfsr(width, seed=seed).states(50))
        assert s1 == s2

    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=11)
    def test_sequence_is_cyclic(self, width):
        lfsr = Lfsr(width, seed=1)
        period = lfsr.period
        first = [lfsr.step() for _ in range(period)]
        second = [lfsr.step() for _ in range(period)]
        assert first == second

    def test_different_seeds_are_rotations(self):
        """Any non-zero seed walks the same maximal cycle."""
        base = set(lfsr_sequence(8, seed=1))
        other = set(lfsr_sequence(8, seed=111))
        assert base == other


class TestWalk:
    """``Lfsr.walk`` jumps whole blocks of clocks at once; ``step`` is
    the reference it must match state for state."""

    @pytest.mark.parametrize("width", range(2, 21))
    def test_walk_matches_step_for_every_width(self, width):
        period = (1 << width) - 1
        # one wrap past the period, cut short at the widest registers
        count = min(period + 3, 70_000)
        for seed in (1, 2, period // 3 or 1, period):
            reference, walker = Lfsr(width, seed), Lfsr(width, seed)
            expected = [reference.step() for _ in range(count)]
            assert walker.walk(count).tolist() == expected
            assert walker.state == reference.state

    def test_walk_continues_where_step_left_off(self):
        reference, walker = Lfsr(12, seed=77), Lfsr(12, seed=77)
        expected = [reference.step() for _ in range(5000)]
        got = [walker.step() for _ in range(3)]
        got += walker.walk(1000).tolist()
        got += [walker.step() for _ in range(7)]
        got += walker.walk(3990).tolist()
        assert got == expected

    def test_walk_with_explicit_taps(self):
        taps = (10, 3)   # maximal for width 10: x^10 + x^3 + 1
        reference, walker = Lfsr(10, 5, taps), Lfsr(10, 5, taps)
        expected = [reference.step() for _ in range(reference.period)]
        assert walker.walk(walker.period).tolist() == expected

    def test_empty_walk_leaves_the_register(self):
        lfsr = Lfsr(8, seed=9)
        assert len(lfsr.walk(0)) == 0
        assert lfsr.state == 9
