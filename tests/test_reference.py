"""The two-queue builder, the histogram Kraft check, the capacity solver's
loop, the shared oracle scan, the table-driven matcher and the lean LEC
step against the heap builders, per-element fold, per-iteration validating
loop, separate oracle, per-bit matcher walks and LEC they replaced, the
report serializer against the element-by-element one and the codeword
checks of ``CodeTree`` against the per-bit tree builder (``reference.py``);
the batched rounds of the two-queue builder against its scalar loop; and
the log-space DNC capacity solve against its root bracketed in mpmath."""

import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from geomhuffman import (
    INF,
    BitSource,
    CodeLengths,
    CodeTree,
    DmcSpec,
    DncSpec,
    Pmf,
    blahut_arimoto,
    brute_force_min_kl,
    canonical_codewords,
    canonical_tree,
    demodulate,
    dnc_capacity,
    gcc,
    ghc,
    huffman,
    lec,
    modulate,
    product_pmf,
    simulate,
)
from geomhuffman import approximators, dyadic
from geomhuffman.cli import emit_report
from geomhuffman.dnc import ROOT_RESIDUAL_TOL
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


def _above_cutoff(name):
    """Named inputs that ghc and huffman build in batched rounds."""
    rng = np.random.default_rng(29)
    if name == "zero weights":
        # Huffman merges the zeros first, into a chain one leaf deeper per
        # zero; 600 keep it under the length cap
        x = rng.dirichlet(np.ones(3000))
        x[rng.choice(x.size, 600, replace=False)] = 0.0
        return x
    if name == "4x apart":
        # every weight has partners exactly 4 and 16 times it: u_b == u_a - 2
        base = rng.uniform(1.0, 2.0, 700)
        return np.concatenate([base, 4.0 * base, 16.0 * base, 0.25 * base[:400], 4.0 * base[:300]])
    if name == "dyadic ties":
        return 2.0 ** -rng.integers(0, 24, 5000).astype(np.float64)
    if name == "3^11 product":
        return product_pmf(Pmf(np.array([0.6, 0.3, 0.1])), 11).probs
    raise KeyError(name)


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

    @pytest.mark.parametrize("name", ["zero weights", "4x apart", "dyadic ties", "3^11 product"])
    def test_above_batch_cutoff(self, name):
        x = _above_cutoff(name)
        batched = approximators._batched_depths
        with mock.patch.object(approximators, "_batched_depths", wraps=batched) as spy:
            _same(ghc(x), reference.ghc(x))
            _same(huffman(x), reference.huffman(x))
        assert spy.call_count == 2


@st.composite
def _weight_vectors(draw, min_size, max_size):
    """min_size to max_size weights: Dirichlet, exact ties, pairs exactly 4x
    apart (the GHC drop boundary) or powers of two, with up to 600 of them
    zero."""
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dirichlet", "ties", "4x apart", "dyadic"]))
    if kind == "dirichlet":
        x = rng.dirichlet(np.full(n, draw(st.sampled_from([0.3, 1.0, 10.0]))))
    elif kind == "ties":
        x = rng.choice([1.0, 2.0, 3.0, 4.0, 12.0], n)
    elif kind == "4x apart":
        x = rng.permutation(rng.uniform(1.0, 2.0, n) * 4.0 ** rng.integers(0, 3, n))
        x[: n // 2] = x[n // 2 : 2 * (n // 2)] * 4.0
    else:
        x = 2.0 ** -rng.integers(0, 24, n).astype(np.float64)
    zeros = draw(st.integers(0, min(n - 1, 600)))
    x[rng.choice(n, zeros, replace=False)] = 0.0
    return x


def _same_bits(got, want):
    """Same outcome: the same lengths, entry types and D bits, or the same
    error."""
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    (code, d), (ref_code, ref_d) = got[1], want[1]
    assert code.lengths == ref_code.lengths
    assert list(map(type, code.lengths)) == list(map(type, ref_code.lengths))
    assert np.float64(d).tobytes() == np.float64(ref_d).tobytes()


class TestLargeCodesMatchReference:
    """ghc, huffman and gcc on 512 to 5000 symbols, across BATCH_MIN_LEAVES,
    where ghc and huffman switch from the scalar loop to the batched rounds
    and both hand the code one int64 depth array, as gcc does, against the
    heap builders and the per-symbol greedy cutoff."""

    @settings(max_examples=40, deadline=None)
    @given(_weight_vectors(512, 5000))
    def test_same_lengths_and_divergence_bits(self, x):
        _same_bits(_outcome(ghc, x), _outcome(reference.ghc, x))
        if int((x > 0.0).sum()) >= 2:
            _same_bits(_outcome(huffman, x), _outcome(reference.huffman, x))
        q = Pmf.normalized(x)
        _same_bits(_outcome(gcc, q), _outcome(reference.gcc, q))

    @pytest.mark.parametrize("name", ["zero weights", "4x apart", "dyadic ties", "3^11 product"])
    def test_named_inputs(self, name):
        x = _above_cutoff(name)
        q = Pmf.normalized(x)
        _same_bits(_outcome(gcc, q), _outcome(reference.gcc, q))


class TestSmallGccMatchesReference:
    """gcc on 1 to 511 symbols, whose int64 length array goes through the
    same array route as every built code's, against the per-symbol greedy
    cutoff: the same lengths, Python int entries and D to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(_weight_vectors(1, 511))
    def test_same_lengths_and_divergence_bits(self, x):
        q = Pmf.normalized(x)
        _same_bits(_outcome(gcc, q), _outcome(reference.gcc, q))


def _both_builds(keys, ties, merge, drop):
    """The scalar two-queue depths, after checking that the batched rounds,
    called on the same keys whatever their number, give the same ones: two
    int64 arrays, equal once every depth below 0 (a dropped leaf) is
    clipped to -1.  With a run of 0, every round that has a third node above
    its key bound is batched, so small inputs take the numpy steps too."""
    want = approximators._two_queue_depths(keys.tolist(), ties.tolist(), merge, drop)
    assert want.dtype == np.int64
    for run in (0, approximators._BATCH_RUN):
        with mock.patch.object(approximators, "_BATCH_RUN", run):
            got = approximators._batched_depths(keys, ties, merge, drop)
        assert got.dtype == np.int64
        assert np.array_equal(np.maximum(got, -1), np.maximum(want, -1))
    return want


class TestBatchedRoundsMatchScalar:
    @settings(max_examples=400, deadline=None)
    @given(_weights, _scales)
    def test_ghc(self, xs, scale):
        x = np.array(xs) * scale
        if not np.any(x > 0.0):
            return
        with mock.patch.object(approximators, "_tree_depths", _both_builds):
            ghc(x)

    @settings(max_examples=400, deadline=None)
    @given(_weights, _scales)
    def test_huffman(self, xs, scale):
        x = np.array(xs) * scale
        if int((x > 0.0).sum()) < 2:
            return
        with mock.patch.object(approximators, "_tree_depths", _both_builds):
            huffman(x)

    @pytest.mark.parametrize("name, xs", _ROUNDED_TIES)
    def test_rounded_key_ties(self, name, xs):
        with mock.patch.object(approximators, "_tree_depths", _both_builds):
            {"ghc": ghc, "huffman": huffman}[name](np.array(xs))


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


@st.composite
def _dnc_specs(draw):
    """DNCs with 2-64 symbols: integer weights, uniform weights, near-ties a
    few ulps apart, or log-uniform weights spread over up to 15 decades
    from a scale between 1e-300 and 1e300 (capped at 1e308), with at times
    a subnormal w_min; in base 2 or another base from just above 1 to
    1e300, which the capacity in bits does not depend on."""
    m = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(["integer", "uniform", "near-ties", "spread"]))
    if kind == "integer":
        w = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    elif kind == "uniform":
        w = draw(st.lists(st.floats(0.5, 8.0), min_size=m, max_size=m))
    elif kind == "near-ties":
        values = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0, 7.0]), min_size=1, max_size=3))
        steps = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        w = [values[i % len(values)] * (1.0 + j * 2.0**-52) for i, j in enumerate(steps)]
    else:
        low = draw(st.floats(-300.0, 300.0))
        decades = draw(st.floats(0.0, 15.0))
        us = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
        w = [10.0 ** min(low + decades * u, 308.0) for u in us]
        if draw(st.booleans()):
            w[0] = draw(st.floats(5e-324, 2.0**-1022, exclude_max=True, allow_subnormal=True))
    b = draw(st.sampled_from([2.0, 2.0, 3.0, math.e, 10.0, 1.5, 256.0, 1.0000001, 1.0 + 2.0**-52, 1e300]))
    return DncSpec(np.array(w, dtype=np.float64), b)


def _mp_residual(w, s) -> mpmath.mpf:
    """ln(sum of e**(-s w_i ln 2) over all but w_min) - ln(1 - e**(-s w_min ln 2))
    at 40 digits: decreasing in s, and 0 at the capacity."""
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        i = int(np.argmin(w))
        rest = mpmath.fsum(mpmath.exp(-s * mpmath.mpf(float(x)) * mpmath.ln2) for j, x in enumerate(w) if j != i)
        return mpmath.log(rest) - mpmath.log(-mpmath.expm1(-s * mpmath.mpf(float(w[i])) * mpmath.ln2))


_NAMED_DNCS = [
    ([1.0, 2.0], 2.0),
    ([1.0, 2.0, 3.0], 2.0),
    ([1, 8, 5, 4, 1, 6, 4, 6], 2.0),
    ([1.0, 1.0], 2.0),
    # p* = (1 - 1e-5, 1e-5)
    ([1e-3, 1e3], 2.0),
    ([1e-3, 1e3, 1e3], 3.0),
    ([1.0, 1e12], 2.0),
    ([1.0, 1e16], 2.0),
    ([1e300, 1e300], 2.0),
    ([1e-300, 1e-300], 2.0),
    ([1e-308, 1e-308], 2.0),
    ([0.5, 1.7, 2.2, 9.0], 10.0),
]


class TestDncCapacityMatchesReference:
    @staticmethod
    def _check(spec):
        """The capacity within 1e-15 of the root: mpmath's residual changes
        sign between C (1 - 1e-15) and C (1 + 1e-15).  p* and the residual
        are those of that C, and C does not depend on the base."""
        try:
            cap = dnc_capacity(spec)
        except ValueError as exc:
            # only a root past the largest float is refused
            assert "out of float range" in str(exc)
            assert _mp_residual(spec.w, sys.float_info.max) >= 0
            return
        c = mpmath.mpf(cap.C)
        assert _mp_residual(spec.w, c * (1 - mpmath.mpf(1e-15))) >= 0
        assert _mp_residual(spec.w, c * (1 + mpmath.mpf(1e-15))) <= 0
        assert np.allclose(cap.p_star.probs, np.exp2(-cap.C * spec.w), rtol=1e-12, atol=0.0)
        assert cap.root_residual == abs(math.fsum(cap.p_star.probs.tolist()) - 1.0)
        assert cap.root_residual <= ROOT_RESIDUAL_TOL
        in_bits = dnc_capacity(DncSpec(spec.w, 2.0))
        assert in_bits.C == cap.C
        assert in_bits.p_star.probs.tobytes() == cap.p_star.probs.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_dnc_specs())
    def test_same_capacity_pmf_and_residual(self, spec):
        self._check(spec)

    @pytest.mark.parametrize("w, b", _NAMED_DNCS)
    def test_named_channels(self, w, b):
        self._check(DncSpec(np.array(w, dtype=np.float64), b))


class TestLecMatchesReference:
    """The package's LEC loop against the reference loop; both run on the
    package's capacity solve."""

    @staticmethod
    def _outcome(solve, spec, max_iter):
        try:
            res = solve(spec, max_iter=max_iter)
            tag = "ok"
        except ConvergenceError as exc:
            res, tag = exc.best, "ConvergenceError"
        except ValueError as exc:
            return "ValueError", str(exc)
        return tag, res.R, res.rate, res.lengths.lengths, res.iterations

    @settings(max_examples=150, deadline=None)
    @given(_dnc_specs(), st.sampled_from([1, 2, 1000]))
    def test_same_fixed_point(self, spec, max_iter):
        assert self._outcome(lec, spec, max_iter) == self._outcome(reference.lec, spec, max_iter)

    @pytest.mark.parametrize("w, b", _NAMED_DNCS)
    def test_named_channels(self, w, b):
        spec = DncSpec(np.array(w, dtype=np.float64), b)
        assert self._outcome(lec, spec, 1000) == self._outcome(reference.lec, spec, 1000)


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


@st.composite
def _wide_channels(draw):
    """8 to 64 inputs and outputs, where gemv, the row sums and the dot
    products block their work differently than on a handful of entries.
    Columns are Dirichlet draws; some have a share of entries set to 0 and
    some an output row that no input reaches."""
    n = draw(st.integers(8, 64))
    m = draw(st.integers(8, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.dirichlet(np.full(n, draw(st.sampled_from([0.3, 1.0, 5.0]))), size=m).T
    h[rng.random(h.shape) < draw(st.sampled_from([0.0, 0.0, 0.2, 0.7]))] = 0.0
    unreached = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if unreached is not None:
        h[unreached] = 0.0
    # a column left without mass sends it all to the row after the unreached one
    h[(0 if unreached is None else unreached + 1) % n, h.sum(axis=0) == 0.0] = 1.0
    return DmcSpec(h / h.sum(axis=0))


def _named_wide(name):
    rng = np.random.default_rng(31)
    if name == "8x8 without a zero":
        return rng.dirichlet(np.ones(8), size=8).T
    if name == "64x64 banded, with zeros":
        h = np.zeros((64, 64))
        for i in range(64):
            h[[(i - 1) % 64, i, (i + 1) % 64], i] = (0.1, 0.8, 0.1)
        return h
    if name == "16x24 with an output row no input reaches":
        h = rng.dirichlet(np.ones(15), size=24).T
        return np.insert(h, 7, 0.0, axis=0)
    if name == "64x8":
        return rng.dirichlet(np.full(64, 0.3), size=8).T
    if name == "8x64":
        return rng.dirichlet(np.full(8, 0.3), size=64).T
    raise KeyError(name)


_WIDE = [
    "8x8 without a zero",
    "64x64 banded, with zeros",
    "16x24 with an output row no input reaches",
    "64x8",
    "8x64",
]
# channels whose iterate reaches an exact 0 mid-run at tol 1e-300, after
# which the solver runs on the inputs still live.  Three noiseless inputs
# and one that spreads evenly over their outputs: the gap stays at 2**-52
# and the spread input's mass is 0 from iteration 679 on.  63 noiseless
# inputs and an even spread, where the dot product over the live inputs
# differs from one over all of them.  20 slightly noisy inputs and two
# Dirichlet(1) ones, which both reach 0.
def _reaching_zero(name):
    if name == "3x4":
        return np.column_stack([np.eye(3), np.full(3, 1.0 / 3.0)])
    if name == "63x64":
        return np.column_stack([np.eye(63), np.full(63, 1.0 / 63.0)])
    if name == "20x22":
        rng = np.random.default_rng(3)
        return np.column_stack([np.eye(20) * 0.95 + 0.05 / 20, rng.dirichlet(np.ones(20), size=2).T])
    raise KeyError(name)


def _capacity_outcome(solve, dmc, tol, max_iter):
    try:
        res = solve(dmc, tol=tol, max_iter=max_iter)
        tag, msg = "ok", None
    except ConvergenceError as exc:
        res = exc.best
        tag, msg = "ConvergenceError", str(exc)
    return tag, msg, res.C.hex(), res.p_star.probs.tobytes(), res.achieved_tol.hex()


def _normalized_outcome(normalize, values):
    try:
        with np.errstate(over="ignore"):
            return "ok", normalize(values).probs.tobytes()
    except ValueError as exc:
        return "ValueError", str(exc)


# zeros, subnormals, entries near the largest float (whose sum overflows to
# inf) and ordinary weights; negative, nan and inf entries are rejected
_normalizable = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 1e308, 1.7976931348623157e308]),
        st.floats(min_value=0.0, max_value=1e300),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    max_size=40,
)


class TestNormalizedMatchesReference:
    """``Pmf.normalized`` checks its input once and hands its quotients
    over unchecked; the reference then checks them through the
    constructor: the same bytes, or the same rejection and message."""

    @settings(max_examples=400, deadline=None)
    @given(_normalizable)
    def test_same_bytes_or_message(self, values):
        got = _normalized_outcome(Pmf.normalized, values)
        assert got == _normalized_outcome(reference.normalized_pmf, values)

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 129, 4097, 1 << 17])
    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 1.0, 1e300])
    def test_long_vectors(self, size, scale):
        rng = np.random.default_rng(size)
        values = rng.dirichlet(np.full(size, 0.5)) * scale
        got = _normalized_outcome(Pmf.normalized, values)
        assert got == _normalized_outcome(reference.normalized_pmf, values)


class TestCapacityMatchesReference:
    """The solver's loop against the loop that validated every iterate:
    the same C, gap and p_star bits, and the same error and best iterate.
    Channels with and without a zero entry take the two ways of taking
    the logs, and an iterate with a zero entry the masked update."""

    _NAMED = [
        np.array([[1.0, 0.5], [0.0, 0.5]]),
        np.array([[1.0, 1.0, 1.0]]),
        np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[0.9, 0.9, 0.0, 0.2], [0.1, 0.1, 0.5, 0.0], [0.0, 0.0, 0.5, 0.8]]),
        np.array([[0.7, 0.2, 0.1], [0.0, 0.0, 0.0], [0.3, 0.8, 0.9]]),
    ]

    @settings(max_examples=100, deadline=None)
    @given(_channels(), st.sampled_from([1e-4, 1e-9]))
    def test_same_capacity_pmf_and_gap(self, dmc, tol):
        got = _capacity_outcome(blahut_arimoto, dmc, tol, 5000)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, tol, 5000)

    # a lower iteration cap than on the small channels keeps the run short
    @settings(max_examples=25, deadline=None)
    @given(_wide_channels(), st.sampled_from([1e-4, 1e-9]))
    def test_wide_channels(self, dmc, tol):
        got = _capacity_outcome(blahut_arimoto, dmc, tol, 2000)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, tol, 2000)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_channels(), _wide_channels()), st.integers(1, 6))
    def test_same_error_and_best_at_iteration_cap(self, dmc, max_iter):
        got = _capacity_outcome(blahut_arimoto, dmc, 1e-15, max_iter)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, 1e-15, max_iter)

    @pytest.mark.parametrize("index", range(len(_NAMED)))
    @pytest.mark.parametrize("tol, max_iter", [(1e-4, 100_000), (1e-9, 100_000), (1e-12, 3)])
    def test_named_channels(self, index, tol, max_iter):
        dmc = DmcSpec(self._NAMED[index])
        got = _capacity_outcome(blahut_arimoto, dmc, tol, max_iter)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, tol, max_iter)

    @pytest.mark.parametrize("name", _WIDE)
    @pytest.mark.parametrize("tol, max_iter", [(1e-4, 5000), (1e-9, 5000), (1e-12, 1), (1e-12, 4)])
    def test_named_wide_channels(self, name, tol, max_iter):
        dmc = DmcSpec(_named_wide(name))
        got = _capacity_outcome(blahut_arimoto, dmc, tol, max_iter)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, tol, max_iter)

    @pytest.mark.parametrize(
        "name, max_iter, zeros",
        [("3x4", 678, 0), ("3x4", 679, 1), ("3x4", 680, 1), ("3x4", 1500, 1),
         ("63x64", 3000, 1), ("20x22", 3000, 2)],
    )
    def test_iterate_reaching_zero(self, name, max_iter, zeros):
        dmc = DmcSpec(_reaching_zero(name))
        got = _capacity_outcome(blahut_arimoto, dmc, 1e-300, max_iter)
        assert got == _capacity_outcome(reference.blahut_arimoto, dmc, 1e-300, max_iter)
        # p_star is the iterate whose gap was taken last
        assert np.count_nonzero(np.frombuffer(got[3]) == 0.0) == zeros


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
    """The outcome of the live oracle, whose tie tolerance is the module
    constant ORACLE_TIE_TOL, or of the reference, which takes it."""
    if oracle is brute_force_min_kl:
        with mock.patch.object(dyadic, "ORACLE_TIE_TOL", tie_tol):
            tag, out = _outcome(oracle, x, l_max)
    else:
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


@st.composite
def _deep_trees(draw):
    """A full code tree grown by splitting leaves: first the deepest leaf,
    a drawn number of times up to depth 80, then drawn leaves, so that
    codewords longer than the parse window (at most 16 bits) and than 64
    bits turn up.  The leaves go to the symbols in a drawn order, with
    dropped symbols among them."""
    leaves = [""]
    for _ in range(draw(st.integers(1, 80))):
        word = leaves.pop()
        leaves += [word + "0", word + "1"]
    for split in draw(st.lists(st.integers(0, 2**20), max_size=100)):
        i = split % len(leaves)
        if len(leaves[i]) < 80:
            word = leaves.pop(i)
            leaves += [word + "0", word + "1"]
    words = list(draw(st.permutations(leaves)))
    for _ in range(draw(st.integers(0, 3))):
        words.insert(draw(st.integers(0, len(words))), None)
    return CodeTree.from_codewords(words)


def _chain(k, flip=False):
    """The canonical tree of the chain code (1, 2, ..., k, k), its bits
    flipped when flip is set: its deepest codewords are k ones (k zeros)."""
    words = canonical_codewords(CodeLengths(tuple(range(1, k + 1)) + (k,)))
    if flip:
        words = tuple(w.translate(str.maketrans("01", "10")) for w in words)
    return CodeTree.from_codewords(words)


_EIGHT_THREE_BIT = canonical_tree(CodeLengths((3,) * 8))
_FIVE = _full_tree([0.328, 0.32, 0.22, 0.11, 0.022])
_DEEP_CHAIN = _chain(80)
_table_trees = st.one_of(
    _deep_trees(),
    st.just(_EIGHT_THREE_BIT),
    st.integers(1, 80).map(_chain),
    st.integers(1, 80).map(lambda k: _chain(k, flip=True)),
)


def _check_simulate(tree, n, seed):
    rep = simulate(tree, n, seed)
    counts, consumed, empirical = reference.simulate(tree, n, seed)
    symbols = reference.replayed_symbols(tree, seed, consumed)
    assert rep.symbols == tuple(symbols)
    assert all(type(s) is int for s in rep.symbols)
    assert rep.symbol_counts == counts
    assert rep.bits_consumed == consumed
    assert np.array_equal(rep.empirical.probs, empirical.probs)
    return symbols


class TestTableParseMatchesReference:
    """The table-driven parse, whose windows of up to 16 bits each take
    one Python step for all the codewords in them, against the per-bit
    walk it replaced: deep codes whose codewords outrun the window, limits
    and streams that end inside a window or a codeword, and chunk
    boundaries that codewords straddle."""

    @settings(max_examples=150, deadline=None)
    @given(_table_trees, st.one_of(st.integers(1, 40), st.integers(1, 3000)), _seeds)
    @example(_DEEP_CHAIN, 3000, 1)
    @example(_EIGHT_THREE_BIT, 1, 0)
    @example(_FIVE, 3, 7)
    def test_simulate(self, tree, n, seed):
        _check_simulate(tree, n, seed)

    @settings(max_examples=200, deadline=None)
    @given(_table_trees, st.data())
    @example(_DEEP_CHAIN, None)
    def test_modulate(self, tree, data):
        # whole codewords of drawn symbols, so that the long ones turn up
        # as often as the short ones, then drawn bits and a codeword's prefix
        if data is None:
            symbols, extra, cut = [79, 0, 80, 80, 1], [1] * 70, 40
        else:
            kept = [i for i, w in enumerate(tree.codewords) if w is not None]
            symbols = data.draw(st.lists(st.sampled_from(kept), max_size=60))
            extra = data.draw(st.lists(st.integers(0, 1), max_size=40))
            cut = data.draw(st.integers(0, 200))
        word = max(filter(None, tree.codewords), key=len)
        bits = demodulate(tree, symbols) + "".join(map(str, extra)) + word[: min(cut, len(word) - 1)]
        stream = np.frombuffer(bits.encode("ascii"), np.uint8) - ord("0")
        got = modulate(tree, bits)
        assert got == reference.modulate(tree, stream)
        assert got[0][: len(symbols)] == symbols

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("tree", [_EIGHT_THREE_BIT, _FIVE, _chain(3)], ids=["3-bit", "five", "chain3"])
    def test_limit_inside_a_window(self, tree, n):
        # windows of 8 bits hold two or more codewords of these codes
        for seed in range(5):
            assert len(_check_simulate(tree, n, seed)) == n

    @pytest.mark.parametrize("k", [16, 17, 64, 80])
    @pytest.mark.parametrize("flip", [False, True])
    def test_constant_streams_reach_the_deepest_leaves(self, k, flip):
        tree = _chain(k, flip)
        deepest = "0" * k if flip else "1" * k
        assert tree.codewords[-1] == deepest
        for bit in (0, 1):
            # across two chunk boundaries, with a partial codeword at the end
            stream = np.full(2 * (1 << 16) + 3 * k // 2, bit, np.uint8)
            symbols, consumed = modulate(tree, stream)
            assert (symbols, consumed) == reference.modulate(tree, stream)
            if bit == int(deepest[0]):
                assert set(symbols) == {k} and consumed == k * (stream.size // k)

    def test_long_codewords_straddle_chunk_boundaries(self):
        # an 80-bit codeword across the first boundary, a 20-bit one across
        # the second, then 30 bits of an 80-bit codeword
        tree = _DEEP_CHAIN
        symbols = [0] * ((1 << 16) - 33) + [79] + [0] * ((1 << 16) - 60) + [19] + [0, 1, 2]
        bits = demodulate(tree, symbols) + "1" * 30
        stream = np.frombuffer(bits.encode("ascii"), np.uint8) - ord("0")
        assert (1 << 16) - 33 < (1 << 16) < (1 << 16) - 33 + 80
        assert modulate(tree, stream) == reference.modulate(tree, stream) == (symbols, len(bits) - 30)

    @pytest.mark.parametrize(
        "tree, n, seed",
        [
            (_FIVE, 80_000, 6),
            (_EIGHT_THREE_BIT, 50_000, 3),
            (_chain(20), 70_000, 6),
            (_chain(80, flip=True), 70_000, 4),
            # codewords of 6 to 111 bits; ten of them longer than 16
            (_full_tree(np.exp(-0.05 * np.arange(1500))), 25_000, 3),
        ],
        ids=["five", "3-bit", "chain20", "chain80-flipped", "exp1500"],
    )
    def test_simulate_straddles_chunk_boundaries(self, tree, n, seed):
        # seeds whose streams have a codeword across both boundaries
        symbols = _check_simulate(tree, n, seed)
        ends = set(np.cumsum([len(tree.codewords[s]) for s in symbols]).tolist())
        assert max(ends) > 2 << 16
        assert not ends & {1 << 16, 2 << 16}


@st.composite
def _codeword_lists(draw):
    """(codeword list, number of faults): a full code grown by splitting
    first its deepest leaf, to depths past 16 bits and now and then past
    1024, then drawn leaves, with None gaps; then up to three faults: a
    duplicate codeword, a missing leaf, a codeword extended by a bit or by
    a character other than 0 and 1, a proper prefix of a codeword (an
    inner node, or "" at the root) added as a codeword, or "" added among
    the codewords."""
    long = draw(st.integers(0, 11)) == 0
    depth = draw(st.sampled_from([1023, 1024, 1025]) if long else st.integers(0, 40))
    leaves = [""]
    for _ in range(depth):
        word = leaves.pop()
        leaves += [word + "0", word + "1"]
    for split in draw(st.lists(st.integers(0, 2**20), max_size=30)):
        i = split % len(leaves)
        if len(leaves[i]) < 40:
            word = leaves.pop(i)
            leaves += [word + "0", word + "1"]
    words = list(draw(st.permutations(leaves)))
    faults = draw(st.lists(
        st.sampled_from(["duplicate", "missing", "extend", "character", "prefix", "empty"]),
        max_size=3,
    ))
    for fault in faults:
        kept = [i for i, w in enumerate(words) if w is not None]
        i = draw(st.sampled_from(kept)) if kept else None
        at = draw(st.integers(0, len(words)))
        if fault == "duplicate" and kept:
            words.insert(at, words[i])
        elif fault == "missing" and kept:
            words[i] = None
        elif fault == "extend" and kept:
            words[i] += draw(st.sampled_from(["0", "1"]))
        elif fault == "character" and kept:
            cut = draw(st.integers(0, len(words[i])))
            words[i] = words[i][:cut] + draw(st.sampled_from(["2", "x", " ", "\n", "\u0661"])) + words[i][cut:]
        elif fault == "prefix" and kept:
            words.insert(at, words[i][: draw(st.integers(0, max(len(words[i]) - 1, 0)))])
        else:
            words.insert(at, "")
    for _ in range(draw(st.integers(0, 3))):
        words.insert(draw(st.integers(0, len(words))), None)
    return words, len(faults)


def _tree_fields(tree):
    return tree.codewords, tree.lengths.lengths


class TestCodeTreeMatchesReference:
    """``CodeTree.from_codewords``, which checks characters, prefix-freeness
    on the sorted codewords and the exact Kraft sum, against the per-bit
    node table builder it replaced: the same trees, the same error types,
    and the same messages on lists with at most one fault."""

    @settings(max_examples=300, deadline=None)
    @given(_codeword_lists())
    @example((["0", "1"], 0))
    @example((["", None], 0))
    @example(([None, None], 1))
    @example((["0", "01", "1"], 1))
    @example((["01", "0", "00", "1"], 1))
    @example((["00", "1", "0", "01"], 1))
    @example((["0", "1" + "0" * 1100], 1))
    @example(([None, "0", "1" * 1025, "10", "1" * 1024 + "0"] + ["1" * k + "0" for k in range(2, 1024)], 0))
    def test_from_codewords(self, case):
        words, faults = case
        got = _outcome(lambda w: _tree_fields(CodeTree.from_codewords(w)), words)
        want = _outcome(reference.from_codewords, words)
        assert got[0] == want[0]
        if got[0] == "ok" or faults <= 1:
            assert got == want


# report values: ints of every size (exact, bool and numpy), floats with
# their infinities, strings that need escaping, and lists, tuples and dicts
# of them, with all-int sequences (the C-encoded case) drawn often
_ints = st.one_of(
    st.integers(-5, 300),
    st.integers(),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
)
_leaves = st.one_of(
    _ints,
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.inf, -math.inf, "inf"]),
    st.text(),
)
_int_seqs = st.one_of(st.lists(_ints), st.lists(_ints).map(tuple))
_values = st.recursive(
    st.one_of(_leaves, _int_seqs),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=20,
)
_reports = st.dictionaries(st.text(max_size=8), _values, max_size=6)


class TestEmitReportMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(_reports)
    @example({"symbols": (0, 2, 0, 0, 3), "counts": (3, 0, 1, 1), "empty": [], "none": ()})
    @example({"lengths": [1, 2, "inf"], "flags": [True, 1], "bools": (False, True)})
    @example({"big": [-1, 0, 2**64, -(2**70)], "numpy": [np.int64(-3), 4, np.float64(0.5)]})
    @example({"floats": [math.inf, -math.inf, 0.1, -0.0], "text": ['a"\\\n\u00e9', "", "x,y;z"]})
    @example({"nested": {"a": [1, (2, 3)], "b": {"c": ()}, "d": [[], [np.int64(1)]]}})
    def test_same_bytes(self, report):
        for fmt in ("json", "csv"):
            assert emit_report(report, fmt) == reference.emit_report(report, fmt)
