import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomhuffman import (
    INF,
    CodeLengths,
    CodeTree,
    DyadicPmf,
    GuardExceededError,
    brute_force_min_kl,
    brute_force_optima,
    canonical_codewords,
    ghc,
    canonical_tree,
    codebook_text,
    enumerate_full_codes,
    kl_divergence,
    parse_codebook,
)
from geomhuffman.dyadic import ENUM_MAX_DEPTH, ENUM_MAX_SYMBOLS, MAX_TREE_LEN, _codes_table

Q5 = np.array([0.328, 0.32, 0.22, 0.11, 0.022])


class TestKraftSum:
    """The one exact Kraft check, in CodeLengths: a full code's sum is 1,
    and any other sum is reported reduced as ``n/2^e``."""

    def test_two_singletons(self):
        assert CodeLengths((1, 1)).lengths == (1, 1)

    def test_worked_example_lengths(self):
        assert CodeLengths((1, 2, 3, 3, INF)).finite_count == 4

    def test_hand_sum(self):
        # 1/2 + 1/4 + 1/4 + 1/8 = 9/8
        with pytest.raises(ValueError, match=r"Kraft sum 9/2\^3, expected exactly 1"):
            CodeLengths((1, 2, 2, 3))

    def test_reduction(self):
        # 1/4 + 1/4 = 1/2 must reduce to numerator 1, exponent 1
        with pytest.raises(ValueError, match=r"Kraft sum 1/2\^1,"):
            CodeLengths((2, 2))
        # 1/2 + 1/2 + 1/2 = 3/2, and 2**0 alone is 1/2^0 reduced
        with pytest.raises(ValueError, match=r"Kraft sum 3/2\^1,"):
            CodeLengths((1, 1, 1))
        with pytest.raises(ValueError, match=r"Kraft sum 2/2\^0,"):
            CodeLengths((0, 0))

    def test_length_cap(self):
        deep = tuple(range(1, MAX_TREE_LEN + 1)) + (MAX_TREE_LEN,)
        assert max(CodeLengths(deep).lengths) == MAX_TREE_LEN
        with pytest.raises(GuardExceededError, match=f"exceeds cap {MAX_TREE_LEN}"):
            CodeLengths(deep[:-1] + (MAX_TREE_LEN + 1, MAX_TREE_LEN + 1))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CodeLengths((-1, 1, 1))
        with pytest.raises(ValueError, match="not an integer"):
            CodeLengths((1.5, 1, 1))


class TestCodeLengths:
    def test_rejects_non_full(self):
        with pytest.raises(ValueError):
            CodeLengths((1, 2))  # Kraft sum 3/4
        with pytest.raises(ValueError):
            CodeLengths((1, 2, 2, 3))  # Kraft sum 9/8

    def test_rejects_all_dropped(self):
        with pytest.raises(ValueError):
            CodeLengths((INF, INF))

    def test_keeps_symbol_indices(self):
        code = CodeLengths((1, INF, 2, 2))
        assert code.kept_symbols() == [0, 2, 3]
        assert code.finite_count == 3

    def test_accepts_integer_floats(self):
        code = CodeLengths((1.0, 1))
        assert code.lengths == (1, 1)


def _from_depths_outcome(depths):
    """CodeLengths._from_depths on an int64 array, and the public
    constructor on the tuple with inf for each -1: the stored entries or
    the exception type and message."""
    outcomes = []
    for build in (
        lambda: CodeLengths._from_depths(np.array(depths, dtype=np.int64)),
        lambda: CodeLengths(tuple(INF if d == -1 else d for d in depths)),
    ):
        try:
            code = build()
        except (ValueError, GuardExceededError) as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((code, hash(code), [type(e) for e in code.lengths]))
    return outcomes


class TestFromDepths:
    """The int64 constructor behind every code that ghc, huffman, gcc and
    parse_codebook build accepts, rejects and stores what the public
    constructor does."""

    @pytest.mark.parametrize(
        "depths, error, message",
        [
            ([1, 2], ValueError, r"^lengths \(1, 2\) have Kraft sum 3/2\^2, expected exactly 1$"),
            ([1, 2, 2, 3, -1], ValueError, r"Kraft sum 9/2\^3, expected exactly 1$"),
            ([2, 2, 2, 2, 2], ValueError, r"Kraft sum 5/2\^2, expected exactly 1$"),
            ([1, -1, 1025, 2, 2], GuardExceededError, "^length 1025 exceeds cap 1024$"),
            ([-1, -1], ValueError, "^need at least one finite length$"),
            ([], ValueError, "^empty length vector$"),
        ],
    )
    def test_rejects_as_the_constructor(self, depths, error, message):
        got, want = _from_depths_outcome(depths)
        assert got == want
        with pytest.raises(error, match=message):
            CodeLengths._from_depths(np.array(depths, dtype=np.int64))

    def test_depths_below_minus_one_rejected(self):
        with pytest.raises(ValueError, match="lengths must be nonnegative"):
            CodeLengths._from_depths(np.array([1, 1, -2], dtype=np.int64))

    @pytest.mark.parametrize(
        "depths", [[0], [-1, 0, -1], [1, 1], [1, -1, 2, 2], [MAX_TREE_LEN] * 2 + list(range(MAX_TREE_LEN - 1, 0, -1))]
    )
    def test_same_code_as_the_constructor(self, depths):
        got, want = _from_depths_outcome(depths)
        assert got == want
        code = got[0]
        assert code == CodeLengths(tuple(INF if d == -1 else d for d in depths))
        assert all(type(e) is int or (type(e) is float and e == INF) for e in code.lengths)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-1, 64), st.just(-1), st.integers(1020, 1030)), max_size=12))
    def test_any_depths(self, depths):
        got, want = _from_depths_outcome(depths)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=600))
    def test_full_codes(self, xs):
        if not any(x > 0.0 for x in xs):
            return
        lengths = ghc(np.array(xs))[0].lengths
        got, want = _from_depths_outcome([-1 if e == INF else e for e in lengths])
        assert got == want


class TestDyadicPmf:
    def test_induced_probs_exact(self):
        dp = DyadicPmf.from_code(CodeLengths((1, 2, 3, 3, INF)))
        assert np.array_equal(dp.probs.probs, [0.5, 0.25, 0.125, 0.125, 0.0])
        assert math.fsum(dp.probs.probs.tolist()) == 1.0

    def test_deep_lengths_still_exact(self):
        code = CodeLengths((1,) + tuple(range(2, 40)) + (39,))
        dp = DyadicPmf.from_code(code)
        assert math.fsum(dp.probs.probs.tolist()) == 1.0


class TestCanonicalTree:
    def test_basic(self):
        assert canonical_codewords(CodeLengths((1, 2, 2))) == ("0", "10", "11")

    def test_with_dropped_symbol(self):
        tree = canonical_tree(CodeLengths((1, 2, 3, 3, INF)))
        assert tree.codewords == ("0", "10", "110", "111", None)

    def test_single_leaf(self):
        tree = canonical_tree(CodeLengths((0, INF, INF)))
        assert tree.codewords == ("", None, None)
        assert tree.is_single_leaf

    def test_sorted_by_length_then_index(self):
        # symbol 2 is shorter, then 0 and 1 in index order
        assert canonical_codewords(CodeLengths((2, 2, 1))) == ("10", "11", "0")

    def test_codewords_prefix_free(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            code, _ = brute_force_min_kl(rng.dirichlet(np.ones(m)))
            words = [w for w in canonical_codewords(code) if w is not None]
            for a in words:
                for b in words:
                    if a is not b:
                        assert not b.startswith(a)

    def test_from_codewords_rejects_non_full(self):
        with pytest.raises(ValueError):
            CodeTree.from_codewords(("0", "10"))  # node '11' missing

    def test_from_codewords_rejects_prefix_clash(self):
        with pytest.raises(ValueError):
            CodeTree.from_codewords(("0", "01", "1"))


class TestCodebookRoundTrip:
    def test_round_trip(self):
        tree = canonical_tree(CodeLengths((1, 2, 3, 3, INF)))
        text = codebook_text(tree)
        assert text == "0\t0\n1\t10\n2\t110\n3\t111\n"
        again = parse_codebook(text)
        assert again.codewords[:4] == tree.codewords[:4]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_codebook("0\tnope\n")
        with pytest.raises(ValueError):
            parse_codebook("")
        with pytest.raises(ValueError):
            parse_codebook("0\t0\n0\t1\n")

    @pytest.mark.parametrize("index", ["+0", "-0", "1_0", " 0", "0 ", "\u0661", "0x1", "1.0", ""])
    def test_parse_takes_decimal_digits_only(self, index):
        with pytest.raises(ValueError, match=f"^codebook line 2: bad symbol index {re.escape(repr(index))}$"):
            parse_codebook(f"1\t1\n{index}\t0\n")

    @pytest.mark.parametrize("index", [str(1 << 24), "999999999999", "0" * 5000 + "1" + "0" * 8, "9" * 5000])
    def test_parse_guards_the_symbol_count(self, index):
        with pytest.raises(GuardExceededError, match="^codebook line 2: symbol index is at or above the cap 16777216$"):
            parse_codebook(f"0\t0\n{index}\t1\n")

    def test_parse_reads_leading_zeros(self):
        tree = parse_codebook("0000\t0\n" + "0" * 5000 + "2\t1\n")
        assert tree.codewords == ("0", None, "1")


def _count_full_codes_by_level_profile(m: int, l_max: int) -> int:
    """Independent counting routine: enumerate leaf-count-per-depth profiles.

    At depth d there are n_d available nodes; choosing a_d of them as leaves
    leaves 2*(n_d - a_d) nodes below.  Each profile corresponds to exactly
    one non-decreasing length multiset.
    """

    def rec(depth, nodes, leaves_left):
        if nodes == 0:
            return 1
        if depth == l_max:
            return 1 if nodes <= leaves_left else 0
        total = 0
        for a in range(min(nodes, leaves_left) + 1):
            total += rec(depth + 1, 2 * (nodes - a), leaves_left - a)
        return total

    return rec(0, 1, m)


class TestEnumerateFullCodes:
    def test_single_symbol(self):
        assert list(enumerate_full_codes(1, 0)) == [(0,)]

    def test_three_symbols_depth_two(self):
        assert set(enumerate_full_codes(3, 2)) == {(0,), (1, 1), (1, 2, 2)}

    def test_four_symbols_depth_three(self):
        got = list(enumerate_full_codes(4, 3))
        assert set(got) == {(0,), (1, 1), (1, 2, 2), (2, 2, 2, 2), (1, 2, 3, 3)}
        assert len(got) == 5

    def test_every_output_has_exact_kraft_sum_one(self):
        for ms in enumerate_full_codes(6, 5):
            assert CodeLengths(ms).lengths == ms  # raises unless the sum is 1
            assert list(ms) == sorted(ms)

    def test_no_duplicates_and_counts_match_profile_oracle(self):
        for m in range(1, 7):
            for l_max in range(0, 6):
                got = list(enumerate_full_codes(m, l_max))
                assert len(got) == len(set(got))
                assert len(got) == _count_full_codes_by_level_profile(m, l_max)

    def test_lexicographic_order(self):
        got = list(enumerate_full_codes(5, 4))
        assert got == sorted(got)

    def test_table_strictly_increasing_for_every_guarded_size(self):
        # brute_force_min_kl keeps the first of tied multisets; that is the
        # lexicographically smallest only because the table increases
        for m in range(1, ENUM_MAX_SYMBOLS + 1):
            for l_max in range(0, ENUM_MAX_DEPTH + 1):
                table = _codes_table(m, l_max)
                assert all(a < b for a, b in zip(table, table[1:])), (m, l_max)

    def test_guards(self):
        with pytest.raises(GuardExceededError):
            list(enumerate_full_codes(13, 5))
        with pytest.raises(GuardExceededError):
            list(enumerate_full_codes(5, 13))


class TestBruteForceMinKl:
    def test_heavy_head_drops_tail(self):
        code, d = brute_force_min_kl(np.array([0.9, 0.05, 0.05]))
        assert code.lengths == (0, INF, INF)
        # D = log2(1/0.9), evaluated at high precision
        assert d == pytest.approx(0.15200309344505, abs=1e-12)

    def test_worked_example(self):
        code, d = brute_force_min_kl(Q5)
        assert code.lengths == (1, 2, 3, 3, INF)
        assert d == pytest.approx(0.13619, abs=5e-5)

    def test_dyadic_fixed_point(self):
        code, d = brute_force_min_kl(np.array([0.5, 0.25, 0.25]))
        assert code.lengths == (1, 2, 2)
        assert d == 0.0

    def test_reported_divergence_matches_independent_recompute(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            x = rng.dirichlet(np.ones(m))
            code, d = brute_force_min_kl(x)
            recomputed = kl_divergence(DyadicPmf.from_code(code).probs, x)
            assert abs(d - recomputed) <= 1e-12

    def test_sorted_assignment(self):
        # larger weight never gets the longer codeword
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            x = rng.dirichlet(np.ones(m))
            code, _ = brute_force_min_kl(x)
            for i in range(m):
                for j in range(m):
                    if x[i] > x[j]:
                        assert code[i] <= code[j]

    def test_optima_contains_minimizer(self):
        x = np.array([0.4, 0.2, 0.2, 0.2])
        code, _ = brute_force_min_kl(x)
        ms = tuple(sorted(l for l in code.lengths if l != INF))
        assert ms in brute_force_optima(x)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            brute_force_min_kl(np.ones(13) / 13)

    @pytest.mark.parametrize("oracle", [brute_force_min_kl, brute_force_optima])
    def test_all_zero_rejected(self, oracle):
        # with every divergence inf, every multiset would tie as optimal
        with pytest.raises(ValueError, match="need at least one positive weight"):
            oracle(np.array([0.0, 0.0]))
