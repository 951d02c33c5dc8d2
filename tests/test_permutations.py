"""Tests for sampling permutations (paper Section III-B2)."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anytime.permutations import (LfsrPermutation, Permutation,
                                        ReversedPermutation,
                                        SequentialPermutation,
                                        StridedPermutation,
                                        TreePermutation, bit_reverse,
                                        is_permutation, order_levels,
                                        sample_order, split_blocked,
                                        split_cyclic)
from repro.anytime import permutations
from repro.anytime.lfsr import Lfsr

ALL_PERMS = [SequentialPermutation(), ReversedPermutation(),
             StridedPermutation(3), StridedPermutation(7),
             TreePermutation(), LfsrPermutation(seed=1),
             LfsrPermutation(seed=42)]


class TestBijectivity:
    """The model's correctness rests on p being bijective: every element
    is processed exactly once, so the precise output is guaranteed."""

    # Case names are pinned rather than derived from object addresses,
    # so they stay the same from one run to the next.
    @pytest.mark.parametrize("perm", ALL_PERMS,
                             ids=["sequential-11", "reversed-3",
                                  "strided-48", "strided-95", "tree-36",
                                  "lfsr-80", "lfsr-81"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 100, 257, 1024])
    def test_order_is_bijection(self, perm, n):
        assert is_permutation(perm.order(n), n)

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=30, deadline=None)
    def test_tree_bijective_any_size(self, n):
        assert is_permutation(TreePermutation().order(n), n)

    @given(st.integers(min_value=1, max_value=3000),
           st.integers(min_value=1, max_value=2 ** 20))
    @settings(max_examples=30, deadline=None)
    def test_lfsr_bijective_any_size_and_seed(self, n, seed):
        assert is_permutation(LfsrPermutation(seed=seed).order(n), n)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (16, 4), (5, 7),
                                       (2, 2, 2), (3, 5, 2)])
    def test_tree_bijective_multidim(self, shape):
        n = int(np.prod(shape))
        assert is_permutation(TreePermutation().order(shape), n)


class TestSequential:
    def test_ascending(self):
        assert SequentialPermutation().order(5).tolist() == [0, 1, 2, 3, 4]

    def test_reversed(self):
        assert ReversedPermutation().order(5).tolist() == [4, 3, 2, 1, 0]


class TestStrided:
    def test_order_matches_perforation_sweep(self):
        assert StridedPermutation(3).order(8).tolist() == \
            [0, 3, 6, 1, 4, 7, 2, 5]

    def test_stride_one_is_sequential(self):
        assert StridedPermutation(1).order(6).tolist() == list(range(6))

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            StridedPermutation(0)


class TestTree:
    def test_bit_reverse_primitive(self):
        values = np.arange(8)
        assert bit_reverse(values, 3).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_paper_figure4_one_dimensional(self):
        """Figure 4: p(b3 b2 b1 b0) = b0 b1 b2 b3 for 16 elements."""
        order = TreePermutation().order(16)
        expected = [int(f"{i:04b}"[::-1], 2) for i in range(16)]
        assert order.tolist() == expected

    def test_paper_figure5_two_dimensional_first_samples(self):
        """Figure 5: after 4 elements of an 8x8 set, a 2x2 subgrid with
        stride 4 has been visited."""
        coords = TreePermutation().coordinates((8, 8))
        assert set(map(tuple, coords[:4].tolist())) == \
            {(0, 0), (0, 4), (4, 0), (4, 4)}
        assert tuple(coords[0]) == (0, 0)

    def test_paper_figure5_bit_formula(self):
        """The paper's exact mapping for 8x8: sequence index bits
        b5..b0 -> row = b1 b3 b5, col = b0 b2 b4."""
        order = TreePermutation().order((8, 8))
        for i, flat in enumerate(order.tolist()):
            b = [(i >> k) & 1 for k in range(6)]
            row = (b[1] << 2) | (b[3] << 1) | b[5]
            col = (b[0] << 2) | (b[2] << 1) | b[4]
            assert flat == row * 8 + col

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_progressive_resolution(self, k):
        """After 4**k samples of a 16x16 set, exactly the uniform
        2**k x 2**k subgrid (stride 16 / 2**k) has been visited."""
        coords = TreePermutation().coordinates((16, 16))
        stride = 16 >> k
        prefix = {tuple(c) for c in coords[:4 ** k].tolist()}
        expected = {(r, c) for r in range(0, 16, stride)
                    for c in range(0, 16, stride)}
        assert prefix == expected

    def test_levels_are_monotone_in_visit_order(self):
        from repro.anytime.fill import sample_levels
        order = TreePermutation().order((32, 32))
        levels = sample_levels(order, (32, 32))
        assert (np.diff(levels) >= 0).all()

    def test_single_element(self):
        assert TreePermutation().order(1).tolist() == [0]

    def test_rejects_huge_shape(self):
        with pytest.raises(ValueError, match="too large"):
            TreePermutation().order((1 << 21, 1 << 21))


class TestLfsrPermutation:
    def test_starts_at_zero(self):
        """Index 0 is prepended (an LFSR never emits state 0)."""
        assert LfsrPermutation().order(100)[0] == 0

    def test_not_memory_order(self):
        order = LfsrPermutation().order(256)
        assert order.tolist() != list(range(256))

    def test_deterministic(self):
        a = LfsrPermutation(seed=9).order(500)
        b = LfsrPermutation(seed=9).order(500)
        assert np.array_equal(a, b)

    def test_seed_changes_sequence(self):
        a = LfsrPermutation(seed=1).order(500)
        b = LfsrPermutation(seed=2).order(500)
        assert not np.array_equal(a, b)

    def test_rejects_nonpositive_seed(self):
        with pytest.raises(ValueError):
            LfsrPermutation(seed=0)

    def test_power_of_two_size(self):
        """Sizes equal to 2**w need a wider register (period > n - 1)."""
        assert is_permutation(LfsrPermutation().order(256), 256)

    def test_spread_is_unbiased(self):
        """The first half of the sequence should cover low and high
        halves of the index space roughly equally (no memory-order
        bias, unlike sequential sampling)."""
        order = LfsrPermutation(seed=3).order(4096)
        first_half = order[:2048]
        low = (first_half < 2048).sum()
        assert 800 < low < 1250


class TestSplits:
    """Multi-threaded sampling (paper IV-C1)."""

    def test_cyclic_partition_is_exact(self):
        order = TreePermutation().order(64)
        parts = split_cyclic(order, 4)
        merged = np.concatenate(parts)
        assert sorted(merged.tolist()) == list(range(64))

    def test_cyclic_preserves_prefix_coverage(self):
        order = TreePermutation().order(256)
        parts = split_cyclic(order, 8)
        k = 4
        done = np.concatenate([p[:k] for p in parts])
        assert set(done.tolist()) == set(order[:32].tolist())

    def test_blocked_partition_is_exact(self):
        order = LfsrPermutation().order(100)
        parts = split_blocked(order, 3)
        merged = np.concatenate(parts)
        assert sorted(merged.tolist()) == list(range(100))

    def test_more_workers_than_elements(self):
        parts = split_cyclic(np.arange(3), 8)
        assert sum(len(p) for p in parts) == 3

    @pytest.mark.parametrize("split", [split_cyclic, split_blocked])
    def test_rejects_zero_workers(self, split):
        with pytest.raises(ValueError):
            split(np.arange(4), 0)


class TestIsPermutation:
    def test_accepts_identity(self):
        assert is_permutation(np.arange(5), 5)

    def test_rejects_duplicates(self):
        assert not is_permutation(np.array([0, 1, 1, 3]), 4)

    def test_rejects_out_of_range(self):
        assert not is_permutation(np.array([0, 1, 4]), 3)

    def test_rejects_wrong_length(self):
        assert not is_permutation(np.arange(4), 5)


class TestEquality:
    def test_value_semantics(self):
        assert StridedPermutation(3) == StridedPermutation(3)
        assert StridedPermutation(3) != StridedPermutation(4)
        assert TreePermutation() == TreePermutation()
        assert LfsrPermutation(1) != LfsrPermutation(2)

    def test_hashable(self):
        assert len({TreePermutation(), TreePermutation(),
                    LfsrPermutation(1)}) == 2

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Permutation().order(4)


class TestSampleOrderMemo:
    """The per-process memo hands out shared orders: it must keep them
    read-only, validate every one, and stay within its cap."""

    def test_equal_permutations_share_one_read_only_order(self):
        a = sample_order(LfsrPermutation(seed=9), (8, 8))
        b = sample_order(LfsrPermutation(seed=9), (8, 8))
        assert a is b
        assert np.array_equal(a, LfsrPermutation(seed=9).order(64))
        with pytest.raises(ValueError):
            a[0] = a[1]
        levels, at_or_below = order_levels(a, (8, 8))
        with pytest.raises(ValueError):
            levels[0] = 0
        assert at_or_below[-1] == 64

    def test_non_bijection_raises_on_every_call(self):
        class Broken(Permutation):
            name = "broken"

            def order(self, shape):
                return np.zeros(int(np.prod(shape)), dtype=np.int64)

        for _ in range(2):
            with pytest.raises(ValueError, match="not a bijection"):
                sample_order(Broken(), (4, 4))
        assert all(not isinstance(p, Broken)
                   for p, _ in permutations._memo)

    def test_memo_is_bounded(self):
        for n in range(1, 101):
            sample_order(SequentialPermutation(), (n,))
            assert len(permutations._memo) <= permutations.ORDER_MEMO_CAP
        assert len(permutations._memo) == permutations.ORDER_MEMO_CAP


class TestLfsrOrderIsTheScalarWalk:
    """``LfsrPermutation.order`` walks its register a block at a time;
    the order must be the one the scalar ``Lfsr.step`` walk gives."""

    @staticmethod
    def scalar_order(n, seed):
        width = max(2, int(np.ceil(np.log2(n))))
        if n == 1 << width:
            width += 1
        lfsr = Lfsr(width, seed=(seed - 1) % ((1 << width) - 1) + 1)
        states = [lfsr.step() for _ in range(lfsr.period)]
        return np.array([0] + [s for s in states if s < n])

    @pytest.mark.parametrize("n", [2, 3, 100, 4096, 65536, 262144])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_order_equals_scalar_walk(self, n, seed):
        assert np.array_equal(LfsrPermutation(seed=seed).order(n),
                              self.scalar_order(n, seed))


class TestMemoForkSafety:
    @pytest.mark.timeout(60)
    def test_fork_while_another_thread_holds_the_memo_lock(self):
        """A worker forked while another parent thread holds the memo
        lock starts with the lock free, so its first lookup does not
        block.  The executor takes the lock itself while it warms the
        memo, so the second thread takes it after the executor exists
        and holds it across every fork."""
        pytest.importorskip("multiprocessing.shared_memory")
        from repro.core.automaton import AnytimeAutomaton
        from repro.core.buffer import VersionedBuffer
        from repro.core.mapstage import MapStage
        from repro.core.procexec import ProcessExecutor

        image = np.arange(256, dtype=np.float64).reshape(16, 16)
        stage = MapStage("m", VersionedBuffer("out"),
                         (VersionedBuffer("in"),),
                         lambda idx, im: np.asarray(im).reshape(-1)[idx],
                         shape=(16, 16), dtype=np.float64,
                         permutation=TreePermutation(), chunks=4)
        automaton = AnytimeAutomaton([stage], external={"in": image})
        executor = ProcessExecutor(automaton.graph)
        held, release = threading.Event(), threading.Event()

        def hold():
            with permutations._memo_lock:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        held.wait()
        try:
            result = executor.run(timeout_s=20.0)
        finally:
            release.set()
            holder.join()
        assert result.completed
        assert np.array_equal(result.final_values["out"], image)
