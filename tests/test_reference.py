"""The two-queue builder, the histogram Kraft check, the capacity solver's
loop, the shared oracle scan and the one-pass matcher against the heap
builders, per-element fold, per-iteration validating loop, separate oracle
and buffered, two-pass matcher they replaced (``reference.py``)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from geomhuffman import (
    INF,
    BitSource,
    CodeLengths,
    DmcSpec,
    Pmf,
    blahut_arimoto,
    brute_force_min_kl,
    canonical_tree,
    demodulate,
    ghc,
    huffman,
    modulate,
    product_pmf,
    simulate,
)
from geomhuffman.errors import ConvergenceError, GuardExceededError

# exact ties, zeros, powers of two and pairs exactly 4x apart (the GHC drop
# boundary u_b == u_a - 2), mixed with arbitrary positive weights and with
# weights a few ulps apart, whose merged keys can tie after rounding
_POOL = [0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0, 8.0, 12.0, 16.0]
_weights = st.lists(
    st.one_of(
        st.sampled_from(_POOL),
        st.floats(min_value=1e-9, max_value=1e3, allow_nan=False),
        st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.integers(-3, 3)).map(
            lambda vj: vj[0] * (1.0 + vj[1] * 2.0**-52)
        ),
    ),
    min_size=1,
    max_size=48,
)
# inputs on which a merged queue kept in plain FIFO order, without the
# equal-key placement by tie index, gives other lengths than the heap
_ROUNDED_TIES = [
    ("ghc", [2.9999999999999982, 2.9999999999999987, 3.0000000000000018,
             2.999999999999999, 2.9999999999999987]),
    ("ghc", [2.0, 2.0, 2.0000000000000004, 2.0000000000000004, 2.000000000000001]),
    ("huffman", [2.999999999999999, 0.5, 0.5, 2.000000000000001, 2.000000000000001,
                 1.0000000000000004, 2.0000000000000013]),
]
_scales = st.sampled_from([1.0, 2.0**-40, 2.0**30, 0.1, 3.0])


def _same(got, want):
    code, d = got
    ref_code, ref_d = want
    assert code.lengths == ref_code.lengths
    assert d == ref_d or (math.isnan(d) and math.isnan(ref_d))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, GuardExceededError) as exc:
        return type(exc).__name__, str(exc)


class TestBuilderMatchesHeap:
    @settings(max_examples=400, deadline=None)
    @given(_weights, _scales)
    def test_ghc(self, xs, scale):
        x = np.array(xs) * scale
        if not np.any(x > 0.0):
            return
        _same(ghc(x), reference.ghc(x))

    @settings(max_examples=400, deadline=None)
    @given(_weights, _scales)
    def test_huffman(self, xs, scale):
        x = np.array(xs) * scale
        if int((x > 0.0).sum()) < 2:
            return
        _same(huffman(x), reference.huffman(x))

    @pytest.mark.parametrize("name, xs", _ROUNDED_TIES)
    def test_rounded_key_ties(self, name, xs):
        fn = {"ghc": ghc, "huffman": huffman}[name]
        _same(fn(np.array(xs)), getattr(reference, name)(np.array(xs)))

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=3),
        st.integers(min_value=1, max_value=8),
    )
    def test_products(self, raw, k):
        x = product_pmf(Pmf.normalized(np.array(raw)), k).probs
        _same(ghc(x), reference.ghc(x))
        _same(huffman(x), reference.huffman(x))

    @pytest.mark.parametrize(
        "base, k",
        [
            ([0.328, 0.32, 0.22, 0.11, 0.022], 6),
            ([0.6, 0.3, 0.1], 8),
            ([0.5, 0.25, 0.25], 8),
            ([0.9, 0.05, 0.05], 6),
        ],
    )
    def test_named_products(self, base, k):
        x = product_pmf(Pmf(np.array(base)), k).probs
        _same(ghc(x), reference.ghc(x))
        _same(huffman(x), reference.huffman(x))

    def test_uniform_4096(self):
        x = np.full(4096, 1.0 / 4096)
        _same(ghc(x), reference.ghc(x))
        _same(huffman(x), reference.huffman(x))
        assert set(ghc(x)[0].lengths) == {12}


_length_entries = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.just(INF),
    st.integers(min_value=-3, max_value=80),
    st.sampled_from([1.5, 2.0, -INF, math.nan, True, np.int64(3), np.float64(INF)]),
)


class TestHistogramKraft:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.integers(min_value=0, max_value=64), st.just(INF)), max_size=40))
    def test_kraft_sum_equals_fold(self, lengths):
        # CodeLengths reports any sum but 1 reduced, as the fold keeps it
        finite = [e for e in lengths if e != INF]
        if not finite:
            return
        want = reference.kraft_sum(finite)
        got = _outcome(CodeLengths, tuple(lengths))
        if want.is_one:
            assert got[0] == "ok"
        else:
            message = f"lengths {tuple(lengths)} have Kraft sum {want}, expected exactly 1"
            assert got == ("ValueError", message)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(_length_entries, st.integers(min_value=1020, max_value=1030)), max_size=12))
    def test_kraft_sum_rejects_as_fold(self, lengths):
        # lengths around the 1024 cap, which the fold checks entry by entry
        got = _outcome(lambda v: CodeLengths(tuple(v)).lengths, lengths)
        assert got == _outcome(reference.code_lengths, lengths)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_length_entries, max_size=8))
    def test_code_lengths_accept_and_reject_as_before(self, lengths):
        got = _outcome(lambda v: CodeLengths(tuple(v)).lengths, lengths)
        want = _outcome(reference.code_lengths, lengths)
        assert got == want
        if got[0] == "ok":
            assert [type(e) for e in got[1]] == [type(e) for e in want[1]]

    @settings(max_examples=100, deadline=None)
    @given(_weights)
    def test_code_lengths_of_full_codes(self, xs):
        x = np.array(xs)
        if not np.any(x > 0.0):
            return
        lengths = reference.ghc_lengths(x)
        assert CodeLengths(lengths).lengths == reference.code_lengths(lengths)
        # a full code plus one more leaf, and with its deepest leaf removed
        deepest = max(e for e in lengths if e != INF)
        for bad in (lengths + (deepest,), tuple(INF if e == deepest else e for e in lengths)):
            if any(e != INF for e in bad):
                assert _outcome(CodeLengths, bad)[0] == "ValueError"
                assert _outcome(CodeLengths, bad)[1] == _outcome(reference.code_lengths, bad)[1]

    def test_guard_above_tree_cap(self):
        lengths = (1025, 1) + (2,) * 2
        with pytest.raises(GuardExceededError, match="length 1025 exceeds cap 1024"):
            CodeLengths(lengths)


# transition entries: exact zeros, small integers (equal columns after
# normalizing) and arbitrary positive floats; a column may repeat an
# earlier one, and n = 1 gives the single-output channel
_entry = st.one_of(
    st.just(0.0), st.integers(1, 4).map(float), st.floats(min_value=1e-3, max_value=1.0)
)


@st.composite
def _channels(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 5))
    cols = []
    for _ in range(m):
        if cols and draw(st.integers(0, 3)) == 0:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))])
            continue
        col = np.array(draw(st.lists(_entry, min_size=n, max_size=n)))
        if not np.any(col > 0.0):
            col[draw(st.integers(0, n - 1))] = 1.0
        cols.append(col / col.sum())
    return DmcSpec(np.array(cols).T)


def _capacity_outcome(solve, dmc, tol, max_iter):
    try:
        res = solve(dmc, tol=tol, max_iter=max_iter)
        tag, msg = "ok", None
    except ConvergenceError as exc:
        res = exc.best
        tag, msg = "ConvergenceError", str(exc)
    return tag, msg, res.C, res.p_star.probs.tobytes(), res.achieved_tol


class TestCapacityMatchesReference:
    _NAMED = [
        np.array([[1.0, 0.5], [0.0, 0.5]]),
        np.array([[1.0, 1.0, 1.0]]),
        np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[0.9, 0.9, 0.0, 0.2], [0.1, 0.1, 0.5, 0.0], [0.0, 0.0, 0.5, 0.8]]),
    ]

    @settings(max_examples=100, deadline=None)
    @given(_channels(), st.sampled_from([1e-4, 1e-9]))
    def test_same_capacity_pmf_and_gap(self, dmc, tol):
        got = _capacity_outcome(blahut_arimoto, dmc, tol, 5000)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, tol, 5000)

    @settings(max_examples=100, deadline=None)
    @given(_channels(), st.integers(1, 6))
    def test_same_error_and_best_at_iteration_cap(self, dmc, max_iter):
        got = _capacity_outcome(blahut_arimoto, dmc, 1e-15, max_iter)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, 1e-15, max_iter)

    @pytest.mark.parametrize("index", range(len(_NAMED)))
    @pytest.mark.parametrize("tol, max_iter", [(1e-4, 100_000), (1e-9, 100_000), (1e-12, 3)])
    def test_named_channels(self, index, tol, max_iter):
        dmc = DmcSpec(self._NAMED[index])
        got = _capacity_outcome(blahut_arimoto, dmc, tol, max_iter)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, tol, max_iter)


# exact ties, zeros, negative weights, and weights a few ulps or up to
# 1e-3 (relative) off powers of two, whose codes' divergences then tie or
# differ by less than tie_tol: at x = (4, 1) keeping one leaf and splitting
# into two give the same D = -2
_ORACLE_POOL = [0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 4.0, -1.0]
_NEAR = [0.25, 0.5, 1.0, 3.0, 4.0]
_oracle_weights = st.lists(
    st.one_of(
        st.sampled_from(_ORACLE_POOL),
        st.floats(min_value=1e-9, max_value=1e3, allow_nan=False),
        st.tuples(st.sampled_from(_NEAR), st.integers(-3, 3)).map(
            lambda vj: vj[0] * (1.0 + vj[1] * 2.0**-52)
        ),
        st.tuples(st.sampled_from(_NEAR), st.floats(-1e-3, 1e-3)).map(
            lambda vd: vd[0] * (1.0 + vd[1])
        ),
    ),
    min_size=1,
    max_size=8,
)


def _oracle_outcome(oracle, x, l_max, tie_tol):
    tag, out = _outcome(oracle, x, l_max, tie_tol)
    if tag != "ok":
        return tag, out
    code, d = out
    return tag, code.lengths, float(d).hex()  # the divergence bit for bit


class TestOracleMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        _oracle_weights,
        st.one_of(st.none(), st.integers(0, 7)),
        st.sampled_from([1e-12, 0.0, 1e-3]),
    )
    def test_same_lengths_and_divergence(self, xs, l_max, tie_tol):
        x = np.array(xs)
        got = _oracle_outcome(brute_force_min_kl, x, l_max, tie_tol)
        want = _oracle_outcome(reference.brute_force_min_kl, x, l_max, tie_tol)
        assert got == want

    @pytest.mark.parametrize(
        "xs, tie_tol",
        [
            ([0.328, 0.32, 0.22, 0.11, 0.022], 1e-12),
            ([0.25, 0.25, 0.25, 0.25], 1e-12),
            ([1.0, 1.0, 1.0], 0.0),
            ([0.4, 0.2, 0.2, 0.2], 1e-12),
            ([0.0, 0.6, 0.0, 0.4], 1e-12),
            ([2.0, 2.0 * (1 + 2.0**-52), 2.0 * (1 - 2.0**-52), 1.0, 1.0], 1e-12),
            # splitting is better by an ulp or by 7e-5, both within tie_tol
            ([4.0, 1.0 + 2.0**-52], 1e-12),
            ([4.0, 1.0001], 1e-3),
            ([1.0] * 12, 1e-12),
        ],
    )
    def test_named_weights(self, xs, tie_tol):
        x = np.array(xs)
        got = _oracle_outcome(brute_force_min_kl, x, None, tie_tol)
        assert got == _oracle_outcome(reference.brute_force_min_kl, x, None, tie_tol)


def _full_tree(weights):
    return canonical_tree(ghc(np.array(weights))[0])


# full code trees from ghc on random weights: zeros and weights far below
# the others are dropped from the tree, and two kept symbols give a two-leaf
# tree; a single kept symbol is a degenerate matcher and is left out
_trees = (
    st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 1.0, 2.0, 4.0]), st.floats(1e-4, 1e3)),
        min_size=2,
        max_size=40,
    )
    .filter(any)
    .map(_full_tree)
    .filter(lambda tree: not tree.is_single_leaf)
)
_seeds = st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70))
# take sizes around a 64-bit word and around the 65536-bit chunk
_take_sizes = st.one_of(
    st.integers(0, 200),
    st.sampled_from([0, 1, 63, 64, 65, 127, 128, 65535, 65536, 65537]),
    st.integers(0, 70_000),
)


class TestMatcherMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(_trees, st.integers(1, 3000), _seeds)
    @example(_full_tree([1.0, 1.0]), 1, 0)
    @example(_full_tree([1.0, 3.0]), 2000, 5)
    @example(_full_tree([0.328, 0.32, 0.22, 0.11, 0.022]), 1, 7)
    def test_simulate(self, tree, n, seed):
        rep = simulate(tree, n, seed)
        counts, consumed, empirical = reference.simulate(tree, n, seed)
        assert rep.symbols == tuple(reference.replayed_symbols(tree, seed, consumed))
        assert rep.symbol_counts == counts
        assert rep.bits_consumed == consumed
        assert np.array_equal(rep.empirical.probs, empirical.probs)

    @pytest.mark.parametrize(
        "weights, n",
        [
            ([1.0, 1.0], 65_536),  # the last symbol ends the first chunk
            ([1.0, 1.0], 65_537),
            ([0.328, 0.32, 0.22, 0.11, 0.022], 50_000),  # 3 chunks
            ([2.0**-j for j in range(20)], 40_000),  # depths up to 19
        ],
    )
    def test_simulate_across_chunks(self, weights, n):
        tree = _full_tree(weights)
        rep = simulate(tree, n, 11)
        counts, consumed, _ = reference.simulate(tree, n, 11)
        assert consumed > 65_536 or n == 65_536
        assert rep.symbols == tuple(reference.replayed_symbols(tree, 11, consumed))
        assert (rep.symbol_counts, rep.bits_consumed) == (counts, consumed)

    @settings(max_examples=100, deadline=None)
    @given(_seeds, st.lists(_take_sizes, min_size=1, max_size=10))
    def test_bit_source(self, seed, sizes):
        new, old = BitSource(seed), reference.BitSource(seed)
        for n in sizes:
            got = new.take(n)
            assert got.dtype == np.uint8
            assert np.array_equal(got, old.take(n))
            assert new.position == old.position

    @settings(max_examples=150, deadline=None)
    @given(_trees, st.data())
    def test_modulate(self, tree, data):
        bits = np.array(data.draw(st.lists(st.integers(0, 1), max_size=300)), dtype=np.uint8)
        assert modulate(tree, bits) == reference.modulate(tree, bits)

    @settings(max_examples=150, deadline=None)
    @given(_trees, st.data())
    def test_round_trip(self, tree, data):
        kept = [i for i, w in enumerate(tree.codewords) if w is not None]
        symbols = data.draw(st.lists(st.sampled_from(kept), max_size=100))
        bits = demodulate(tree, symbols)
        assert modulate(tree, bits) == (symbols, len(bits))
        # a trailing proper prefix of a codeword stays unconsumed
        word = tree.codewords[data.draw(st.sampled_from(kept))]
        tail = word[: data.draw(st.integers(0, len(word) - 1))]
        assert modulate(tree, bits + tail) == (symbols, len(bits))
