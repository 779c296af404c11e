import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomhuffman import (
    INF,
    BitSource,
    CodeLengths,
    DegenerateTreeError,
    GuardExceededError,
    canonical_tree,
    demodulate,
    modulate,
    simulate,
)
from geomhuffman.matcher import SYMBOL_CAP

TREE_122 = canonical_tree(CodeLengths((1, 2, 2)))
TREE_1233 = canonical_tree(CodeLengths((1, 2, 3, 3, INF)))


class TestBitSource:
    def test_deterministic_per_seed(self):
        a = BitSource(1234).take(500)
        b = BitSource(1234).take(500)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(BitSource(1).take(256), BitSource(2).take(256))

    def test_position_counts_bits(self):
        src = BitSource(9)
        src.take(10)
        src.take(1)
        assert src.position == 11

    def test_chunking_transparent(self):
        whole = BitSource(7).take(3000)
        src = BitSource(7)
        parts = np.concatenate([src.take(1), src.take(1999), src.take(1000)])
        assert np.array_equal(whole, parts)

    def test_position_indexes_the_stream(self):
        assert np.array_equal(BitSource(7, position=130).take(70), BitSource(7).take(200)[130:])

    def test_negative_take_rejected(self):
        with pytest.raises(ValueError, match="^cannot take a negative number of bits$"):
            BitSource(0).take(-1)

    def test_roughly_fair(self):
        bits = BitSource(0).take(100_000)
        assert abs(bits.mean() - 0.5) < 0.01  # ~6 sigma


class TestModulate:
    def test_basic_parse(self):
        assert modulate(TREE_122, "01011") == ([0, 1, 2], 5)

    def test_partial_codeword_unconsumed(self):
        assert modulate(TREE_122, "1") == ([], 0)
        assert modulate(TREE_122, "010111") == ([0, 1, 2], 5)

    def test_tree_with_dropped_symbol(self):
        assert modulate(TREE_1233, "110010") == ([2, 0, 1], 6)

    def test_accepts_int_sequences(self):
        assert modulate(TREE_122, [0, 1, 0, 1, 1]) == ([0, 1, 2], 5)
        assert modulate(TREE_122, np.array([0, 1, 0, 1, 1], dtype=np.uint8)) == (
            [0, 1, 2],
            5,
        )

    def test_single_leaf_rejected(self):
        tree = canonical_tree(CodeLengths((0, INF)))
        with pytest.raises(DegenerateTreeError, match="degenerate"):
            modulate(tree, "0101")

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            modulate(TREE_122, "012")

    @pytest.mark.parametrize(
        "bits", [[0.5, 1.7, 1.2], [-1, 0], [256, 0], [None], "0\uff11", "0\ud800", ["0", "1"], [math.nan]]
    )
    def test_rejects_entries_other_than_0_and_1(self, bits):
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            modulate(TREE_122, bits)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from("01"), st.characters()), max_size=12))
    def test_bit_strings(self, text):
        if set(text) <= {"0", "1"}:
            assert modulate(TREE_122, text) == modulate(TREE_122, [int(c) for c in text])
        else:
            with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
                modulate(TREE_122, text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, False, True, 0.0, 1.0]),
                st.integers(-300, 300),
                st.floats(),
                st.none(),
            ),
            max_size=12,
        ),
        st.sampled_from([None, np.int64, bool, np.float64, object]),
    )
    def test_bit_sequences(self, entries, dtype):
        """A list, or an array of int, bool, float or object dtype, is the
        0/1 stream of its entries when each equals 0 or 1, else refused."""
        bits = entries
        if dtype is not None:
            try:
                bits = np.array(entries, dtype=dtype)
            except (TypeError, ValueError, OverflowError):
                return  # no array of that dtype holds these entries
        values = bits.tolist() if dtype is not None else entries
        if all(v in (0, 1) for v in values):
            want = np.array([v == 1 for v in values], dtype=np.uint8)
            assert modulate(TREE_122, bits) == modulate(TREE_122, want)
        else:
            with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
                modulate(TREE_122, bits)


class TestDemodulate:
    def test_basic(self):
        assert demodulate(TREE_122, [0, 1, 2]) == "01011"

    def test_empty(self):
        assert demodulate(TREE_122, []) == ""

    def test_dropped_symbol_rejected(self):
        with pytest.raises(ValueError, match="dropped"):
            demodulate(TREE_1233, [4])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            demodulate(TREE_122, [3])

    def test_numpy_integers_accepted(self):
        symbols = [np.int64(0), np.uint8(1), np.int32(2)]
        assert demodulate(TREE_122, symbols) == "01011"
        assert demodulate(TREE_122, np.array([2, 0])) == "110"

    @pytest.mark.parametrize(
        "entry", [1.5, 1.0, True, np.True_, "1", np.float64(1.0), None, 1 + 0j]
    )
    def test_non_integers_rejected(self, entry):
        with pytest.raises(ValueError, match=re.escape(f"symbol {entry!r} is not an integer")):
            demodulate(TREE_122, [0, entry, 2.5])

    @pytest.mark.parametrize(
        "symbols, message",
        [
            ([0, 4, 9], "symbol 4 was dropped from the code tree"),
            ([0, 9, 4], "symbol index 9 out of range"),
            ([1, -1, 4], "symbol index -1 out of range"),
            ((2, 5, -1), "symbol index 5 out of range"),
            ([0, 2**70, 4], f"symbol index {2**70} out of range"),
            ([0, 4, -(2**70)], "symbol 4 was dropped from the code tree"),
            ([3, np.int64(4), 9], "symbol 4 was dropped from the code tree"),
            ([0, 9, True], "symbol index 9 out of range"),
            (iter([0, 1, 5, 4]), "symbol index 5 out of range"),
        ],
    )
    def test_first_bad_symbol_names_the_error(self, symbols, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            demodulate(TREE_1233, symbols)

    # every form of input is one int64 index array, -1 where an entry is
    # not an integer or lies beyond int64, and the entry as given names
    # the first fault
    @pytest.mark.parametrize(
        "symbols, message",
        [
            ([0, np.int64(9), 4], "symbol index 9 out of range"),
            ([np.int32(1), np.uint8(4)], "symbol 4 was dropped from the code tree"),
            ([0, 1, np.uint64(2**64 - 1)], f"symbol index {2**64 - 1} out of range"),
            (np.array([0, 2**64 - 1], np.uint64), f"symbol index {2**64 - 1} out of range"),
            (np.array([0, 2**63], np.uint64), f"symbol index {2**63} out of range"),
            ([0, 1, 2**63], f"symbol index {2**63} out of range"),
            ([0, 1, 2**70], f"symbol index {2**70} out of range"),
            ([0, -(2**63) - 1, 4], f"symbol index {-(2**63) - 1} out of range"),
            ((1, 2, np.float64(3.0), 9), f"symbol {np.float64(3.0)!r} is not an integer"),
            (np.array([0.0, 1.0]), f"symbol {np.float64(0.0)!r} is not an integer"),
            (np.array([[0, 1]]), f"symbol {np.array([0, 1])!r} is not an integer"),
            ((s for s in [2, 3, "4"]), "symbol '4' is not an integer"),
        ],
    )
    def test_given_value_names_the_fault(self, symbols, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            demodulate(TREE_1233, symbols)

    def test_round_trip_random_sequences(self):
        rng = np.random.default_rng(51)
        for tree, kept in ((TREE_122, [0, 1, 2]), (TREE_1233, [0, 1, 2, 3])):
            for _ in range(200):
                seq = [int(s) for s in rng.choice(kept, size=rng.integers(1, 40))]
                bits = demodulate(tree, seq)
                symbols, consumed = modulate(tree, bits)
                assert symbols == seq
                assert consumed == len(bits)


class TestSimulate:
    def test_single_symbol(self):
        rep = simulate(TREE_122, 1, seed=3)
        assert sum(rep.symbol_counts) == 1
        emitted = rep.symbol_counts.index(1)
        assert rep.bits_consumed == TREE_122.lengths[emitted]

    def test_counts_sum_to_n(self):
        rep = simulate(TREE_1233, 5000, seed=8)
        assert sum(rep.symbol_counts) == 5000
        assert rep.symbol_counts[4] == 0  # dropped symbol never appears

    def test_bits_consumed_matches_codeword_lengths(self):
        rep = simulate(TREE_122, 1000, seed=4)
        expected = sum(
            count * TREE_122.lengths[i] for i, count in enumerate(rep.symbol_counts)
        )
        assert rep.bits_consumed == expected

    def test_deterministic(self):
        a = simulate(TREE_122, 2000, seed=17)
        b = simulate(TREE_122, 2000, seed=17)
        assert a.symbol_counts == b.symbol_counts
        assert a.bits_consumed == b.bits_consumed

    def test_matches_direct_modulate(self):
        rep = simulate(TREE_122, 100, seed=99)
        bits = BitSource(99).take(rep.bits_consumed)
        symbols, consumed = modulate(TREE_122, bits)
        assert consumed == rep.bits_consumed
        assert len(symbols) == 100
        assert rep.symbols == tuple(symbols)
        counts = [symbols.count(i) for i in range(3)]
        assert tuple(counts) == rep.symbol_counts

    def test_empirical_frequencies_near_target(self):
        n = 20_000
        target = np.array([0.5, 0.25, 0.25])
        sigma = np.sqrt(target * (1 - target) / n)
        good = 0
        for seed in range(10):
            rep = simulate(TREE_122, n, seed=seed)
            if np.all(np.abs(rep.empirical.probs - target) <= 4 * sigma):
                good += 1
        assert good >= 9

    def test_fair_coin_tree(self):
        # lengths (1,1): frequencies within 0.01 of one half (4-sigma band
        # at n = 1e5 is ~0.0063)
        tree = canonical_tree(CodeLengths((1, 1)))
        for seed in (0, 1, 2):
            rep = simulate(tree, 100_000, seed=seed)
            assert np.all(np.abs(rep.empirical.probs - 0.5) < 0.01)
            assert rep.bits_consumed == 100_000

    def test_mean_bits_per_symbol(self):
        # E[length] = 1.5 for lengths (1,2,2); 4-sigma band on the mean
        n = 100_000
        rep = simulate(TREE_122, n, seed=123)
        var = 0.5 * 1 + 0.5 * 4 - 1.5**2  # E[l^2] - (E[l])^2 = 0.25
        assert abs(rep.bits_consumed / n - 1.5) <= 4 * np.sqrt(var / n)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            simulate(TREE_122, 0, seed=1)

    def test_symbol_cap_is_guard_error(self):
        with pytest.raises(GuardExceededError, match="cap is 16777216"):
            simulate(TREE_122, SYMBOL_CAP + 1, seed=1)
