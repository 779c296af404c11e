import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomhuffman import (
    INF,
    CodeLengths,
    DyadicPmf,
    Pmf,
    brute_force_min_kl,
    brute_force_optima,
    canonical_tree,
    codebook_text,
    gcc,
    ghc,
    huffman,
    kl_divergence,
    parse_codebook,
)
from geomhuffman.pmf import _checked_weights

Q5 = np.array([0.328, 0.32, 0.22, 0.11, 0.022])


class TestLogWeights:
    """The one weight check that every input to ghc's log domain, to
    huffman and to the oracle passes, and the order ghc sorts them in."""

    def test_sorted_with_zeros_last(self):
        # u = (0, inf, 0, 0): the zero weight sorts last and is never coded;
        # among the tied weights the lower index pops last and stays shallow
        code, _ = ghc(np.array([1.0, 0.0, 1.0, 1.0]))
        assert code.lengths == (1, INF, 2, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build", [_checked_weights, ghc, huffman, brute_force_min_kl, brute_force_optima]
    )
    def test_non_finite_weight_rejected(self, build, bad):
        # NaN would otherwise pass as a zero weight: lengths (inf, 1, 1), D = -1
        with pytest.raises(ValueError, match="weights must be finite"):
            build(np.array([bad, 1.0, 1.0]))

    def test_negative_weight_rejected(self):
        for build in (_checked_weights, ghc, huffman, brute_force_min_kl, brute_force_optima):
            with pytest.raises(ValueError, match="weights must be nonnegative"):
                build(np.array([-0.5, 1.0, 1.0]))


class TestGhc:
    def test_worked_example(self):
        code, d = ghc(Q5)
        assert code.lengths == (1, 2, 3, 3, INF)
        assert d == pytest.approx(0.13619, abs=5e-5)

    def test_dyadic_fixed_point(self):
        code, d = ghc(np.array([0.5, 0.25, 0.25]))
        assert code.lengths == (1, 2, 2)
        assert d == 0.0

    def test_heavy_head(self):
        # brute-force oracle value: keep only the 0.9 symbol
        code, d = ghc(np.array([0.9, 0.05, 0.05]))
        assert code.lengths == (0, INF, INF)
        assert d == pytest.approx(0.15200309344505, abs=1e-12)

    def test_zero_weights_get_infinite_length(self):
        code, _ = ghc(np.array([0.0, 0.6, 0.0, 0.4]))
        assert code.lengths == (INF, 1, INF, 1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ghc(np.array([0.0, 0.0]))

    def test_single_positive_weight(self):
        code, d = ghc(np.array([0.0, 3.0]))
        assert code.lengths == (INF, 0)
        assert d == pytest.approx(-math.log2(3.0))

    def test_accepts_unnormalized_vectors(self):
        code, d = ghc(np.array([3.0, 1.0]))
        assert code.lengths == (1, 1)
        # divergence to an unnormalized target can be negative
        assert d < 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = int(rng.integers(2, 9))
            x = rng.dirichlet(np.ones(m))
            _, d_fast = ghc(x)
            _, d_oracle = brute_force_min_kl(x)
            assert abs(d_fast - d_oracle) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            x = rng.dirichlet(np.ones(m))
            c = float(rng.uniform(0.01, 100.0))
            code_a, _ = ghc(x)
            code_b, _ = ghc(c * x)
            assert code_a.lengths == code_b.lengths

    def test_deterministic_on_ties(self):
        code, _ = ghc(np.array([0.25, 0.25, 0.25, 0.25]))
        assert code.lengths == (2, 2, 2, 2)
        code, _ = ghc(np.array([1.0, 1.0, 1.0]))
        # lower original index wins the shorter codeword
        assert code.lengths == (1, 2, 2)

    def test_drop_tie_boundary(self):
        # second-smallest exactly four times the smallest (exact in floats,
        # both powers of two): the tie resolves to dropping the smallest
        code, _ = ghc(np.array([0.75, 0.25, 0.0625]))
        assert code.lengths == (1, 1, INF)


    # zero or (1, 3, 5) * 2**-k: exact ties between weights, merged
    # geometric means that tie with leaves, and ratios of exactly 4
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.builds(lambda a, k: a * 2.0**-k, st.sampled_from([1, 3, 5]), st.integers(0, 8)),
            ),
            min_size=2,
            max_size=8,
        ).filter(lambda w: any(w))
    )
    def test_matches_oracle_at_ties_and_drop_boundaries(self, w):
        x = np.array(w)
        code, d = ghc(x)
        _, d_oracle = brute_force_min_kl(x)
        assert abs(d - d_oracle) <= 1e-12
        kept = tuple(sorted(e for e in code.lengths if e != INF))
        assert kept in [tuple(ms) for ms in brute_force_optima(x)]


class TestHuffman:
    def test_worked_example(self):
        code, d = huffman(Q5)
        assert code.lengths == (2, 2, 2, 3, 3)
        assert d == pytest.approx(0.19548, abs=5e-5)

    def test_worked_example_four_symbols(self):
        code, d = huffman(Q5[:4])
        assert code.lengths == (2, 2, 2, 2)
        assert d == pytest.approx(0.15523, abs=5e-4)

    def test_dyadic_fixed_point(self):
        code, d = huffman(np.array([0.5, 0.25, 0.25]))
        assert code.lengths == (1, 2, 2)
        assert d == 0.0

    def test_never_drops_symbols(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            code, _ = huffman(rng.dirichlet(np.ones(m)))
            assert code.finite_count == m

    def test_zero_weight_symbol_kept_with_infinite_divergence(self):
        code, d = huffman(np.array([0.6, 0.4, 0.0]))
        assert code.finite_count == 3
        assert d == math.inf

    def test_needs_two_positive(self):
        with pytest.raises(ValueError):
            huffman(np.array([1.0, 0.0]))

    def test_minimizes_expected_length(self):
        # classical optimality: no full code of the same size does better
        from geomhuffman import enumerate_full_codes

        rng = np.random.default_rng(24)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            x = rng.dirichlet(np.ones(m))
            code, _ = huffman(x)
            avg = sum(x[i] * code[i] for i in range(m))
            best = min(
                sum(xs * l for xs, l in zip(sorted(x, reverse=True), ms))
                for ms in enumerate_full_codes(m, m - 1)
                if len(ms) == m
            )
            assert avg == pytest.approx(best, abs=1e-12)


class TestGcc:
    def test_worked_example(self):
        code, d = gcc(Pmf(Q5))
        assert code.lengths == (1, 1, INF, INF, INF)
        assert d == pytest.approx(0.626044234909364, abs=1e-12)

    def test_dyadic_fixed_point(self):
        code, d = gcc(Pmf(np.array([0.5, 0.25, 0.25])))
        assert code.lengths == (1, 2, 2)
        assert d == 0.0

    def test_hand_execution(self):
        code, d = gcc(Pmf(np.array([0.4, 0.3, 0.2, 0.1])))
        assert code.lengths == (1, 1, INF, INF)
        assert d == pytest.approx(0.529446844526784, abs=1e-12)

    def test_bounded_by_one_bit(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            m = int(rng.integers(2, 65))
            q = Pmf(rng.dirichlet(np.ones(m) * rng.uniform(0.2, 5.0)))
            _, d = gcc(q)
            assert d <= 1.0

    def test_kept_probabilities_dominate(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            m = int(rng.integers(2, 40))
            q = Pmf(rng.dirichlet(np.ones(m)))
            code, _ = gcc(q)
            kept = code.kept_symbols()
            p = DyadicPmf.from_code(code).probs.probs
            assert all(p[i] >= q.probs[i] for i in kept)
            # kept symbols are the largest entries of q
            threshold = min(q.probs[i] for i in kept)
            dropped = [i for i in range(m) if i not in kept]
            assert all(q.probs[i] <= threshold for i in dropped)


@st.composite
def _kraft_short_pmfs(draw):
    """q_i = 2**-i (1 - e_i) for i = 1..m in a drawn order, with e_i in
    [0, 1/2): floor(-log2 q_i) = i, so keeping every symbol leaves the
    Kraft sum at 1 - 2**-m, while the q_i sum to 1 within 1e-9."""
    m = draw(st.integers(31, 80))
    i = np.arange(1, m + 1)
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    e = u * np.minimum(0.49, 2.0**i * 5e-10 / m)
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(m)
    return Pmf((2.0**-i * (1.0 - e))[order]), i[order]


class TestGccCompletion:
    """A PMF whose floor-of-log lengths fall short of Kraft equality with
    every symbol kept: gcc completes the code by shortening its deepest
    codewords, where it used to raise."""

    def test_powers_of_two_short_of_one(self):
        # sums to 1 - 2**-31; the one deepest codeword moves up a level
        code, d = gcc(Pmf(2.0 ** -np.arange(1, 32)))
        assert code.lengths == tuple(range(1, 31)) + (30,)
        assert d == 2.0**-30

    @settings(max_examples=200, deadline=None)
    @given(_kraft_short_pmfs())
    def test_full_code_dominating_q_within_one_bit(self, q_and_floor):
        q, floor = q_and_floor
        code, d = gcc(q)
        lengths = np.array(code.lengths)
        assert np.all(np.isfinite(lengths))  # every symbol is kept
        assert sum(Fraction(1, 2**int(l)) for l in lengths) == 1
        assert np.all(lengths <= floor)
        assert np.all(2.0**-lengths >= q.probs)
        assert 0.0 <= d <= 1.0


class TestDominanceChain:
    def test_ghc_beats_gcc_beats_one_bit(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            m = int(rng.integers(2, 33))
            q = Pmf(rng.dirichlet(np.ones(m)))
            _, d_opt = ghc(q.probs)
            _, d_greedy = gcc(q)
            assert d_opt <= d_greedy + 1e-12
            assert d_greedy <= 1.0

    def test_ghc_beats_huffman(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            q = rng.dirichlet(np.ones(m))
            _, d_opt = ghc(q)
            _, d_huff = huffman(q)
            assert d_opt <= d_huff + 1e-12

    def test_divergences_recompute_via_kl(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            q = rng.dirichlet(np.ones(m))
            for algo in (ghc, huffman):
                code, d = algo(q)
                again = kl_divergence(DyadicPmf.from_code(code).probs, q)
                assert d == again


def _route(build, *args) -> tuple:
    """How often build(*args) checks a code through CodeLengths._from_depths
    and through the public constructor."""
    from_depths, post_init = CodeLengths._from_depths, CodeLengths.__post_init__
    with mock.patch.object(CodeLengths, "_from_depths", wraps=from_depths) as arrays, \
            mock.patch.object(CodeLengths, "__post_init__", autospec=True, side_effect=post_init) as tuples:
        build(*args)
    return arrays.call_count, tuples.call_count


class TestOneRouteToCodeLengths:
    """Every code that ghc, huffman, gcc, parse_codebook and the oracle
    build, on both sides of BATCH_MIN_LEAVES, reaches CodeLengths as one int64 depth array
    checked by _from_depths, never through the public constructor."""

    @pytest.mark.parametrize("m", [1, 2, 5, 511, 2047, 2048, 2600])
    def test_built_codes(self, m):
        rng = np.random.default_rng(m)
        x = rng.dirichlet(np.ones(m))
        if m >= 5 and m != 2048:
            # 2600 keeps 2080 positive weights, so ghc still builds in rounds
            x[rng.choice(m, m // 5, replace=False)] = 0.0
        assert _route(ghc, x) == (1, 0)
        assert _route(gcc, Pmf.normalized(x)) == (1, 0)
        if m >= 2:
            assert _route(huffman, x) == (1, 0)

    def test_parsed_codebook(self):
        text = codebook_text(canonical_tree(ghc(Q5)[0]))
        assert _route(parse_codebook, text) == (1, 0)

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_oracle_code(self, m):
        x = np.random.default_rng(m).dirichlet(np.ones(m))
        if m >= 5:
            x[m // 2] = 0.0
        assert _route(brute_force_min_kl, x) == (1, 0)
