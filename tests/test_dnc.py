import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from geomhuffman import (
    INF,
    CodeLengths,
    ConvergenceError,
    DimensionMismatchError,
    DncSpec,
    DyadicPmf,
    Pmf,
    brute_force_min_kl,
    dnc_capacity,
    entropy_per_weight,
    enumerate_full_codes,
    ghc,
    kl_divergence,
    lec,
    optimize_block_dnc,
    weighted_target,
)

# bisection / closed-form roots at high precision:
# w=(1,2): 2**-C solves x + x^2 = 1, x = (sqrt(5)-1)/2
C_12 = 0.694241913630617
P_STAR_12 = np.array([0.618033988749895, 0.381966011250105])
# w=(1,2,3): x + x^2 + x^3 = 1
C_123 = 0.879146421606638
P_STAR_123 = np.array([0.543689012692076, 0.295597742522085, 0.160713244785839])

W12 = DncSpec(np.array([1.0, 2.0]))
W123 = DncSpec(np.array([1.0, 2.0, 3.0]))


class TestDncSpec:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            DncSpec(np.array([1.0, 0.0]))

    def test_rejects_single_symbol(self):
        with pytest.raises(ValueError):
            DncSpec(np.array([1.0]))

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            DncSpec(np.array([1.0, 2.0]), b=1.0)

    def test_rejects_infinite_base(self):
        with pytest.raises(ValueError, match="log base must be finite"):
            DncSpec(np.array([1.0, 2.0]), b=math.inf)


class TestDncCapacity:
    def test_equal_weights(self):
        cap = dnc_capacity(DncSpec(np.array([1.0, 1.0])))
        assert cap.C == 1.0
        assert np.array_equal(cap.p_star.probs, [0.5, 0.5])

    def test_weights_one_two(self):
        cap = dnc_capacity(W12)
        assert cap.C == pytest.approx(C_12, abs=1e-12)
        assert np.allclose(cap.p_star.probs, P_STAR_12, atol=1e-12)
        assert cap.root_residual <= 1e-12

    def test_weights_one_two_three(self):
        cap = dnc_capacity(W123)
        assert cap.C == pytest.approx(C_123, abs=1e-12)
        assert np.allclose(cap.p_star.probs, P_STAR_123, atol=1e-12)

    def test_greatest_root(self):
        # slightly below the root the defining sum still exceeds 1
        for spec in (W12, W123, DncSpec(np.array([0.5, 1.7, 2.2, 9.0]))):
            cap = dnc_capacity(spec)
            s = cap.C * (1 - 1e-6)
            assert np.exp2(-s * spec.w).sum() > 1.0

    def test_p_star_decreasing_in_weight(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            w = np.sort(rng.uniform(0.1, 10.0, size=m))
            cap = dnc_capacity(DncSpec(w))
            assert np.all(np.diff(cap.p_star.probs) <= 0)
            assert np.all(cap.p_star.probs > 0)

    def test_non_binary_base(self):
        # capacity converts to bits, so p* only depends on C in bits
        cap2 = dnc_capacity(DncSpec(np.array([1.0, 2.0]), b=2.0))
        cap3 = dnc_capacity(DncSpec(np.array([1.0, 2.0]), b=3.0))
        assert cap3.C == pytest.approx(cap2.C, abs=1e-12)
        assert np.allclose(cap3.p_star.probs, cap2.p_star.probs, atol=1e-12)


    def test_bracket_start_keeps_capacities_bit_identical(self):
        # a bracket doubled from a power of two near 1/w_min bisects through
        # the same states as one doubled from 1
        rng = np.random.default_rng(41)
        weights = [W12.w, W123.w, [0.5, 1.7, 2.2, 9.0], [1.0, 1.0], [2.0, 3.0, 5.0, 7.0],
                   [1.0, 3.0, 4.0, 4.0, 9.0], [1.0, 2.0, 2.0, 5.0], [1, 8, 5, 4, 1, 6, 4, 6]]
        weights += [np.sort(rng.uniform(0.1, 10.0, size=int(rng.integers(2, 10)))) for _ in range(50)]
        weights += [np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=int(rng.integers(2, 65))))
                    for _ in range(200)]
        for w in weights:
            assert dnc_capacity(DncSpec(np.array(w, dtype=float))).C == reference.dnc_capacity_bits(w)

    @pytest.mark.parametrize("w", [1e300, 1e-300])
    def test_extreme_equal_weights_match_closed_form(self, w):
        # m equal weights: m * 2**(-C w) = 1, so C = log2(m) / w
        cap = dnc_capacity(DncSpec(np.array([w, w])))
        assert cap.C == pytest.approx(1.0 / w, rel=1e-12)
        assert np.array_equal(cap.p_star.probs, [0.5, 0.5])

    def test_capacity_near_float_max_solves(self):
        # C = 1/w up to about 1e308 is finite, but a doubling bracket on the
        # unscaled weights would need to reach 2**1024
        for w in (1e-308, 2.0**-1023, 5e-308):
            cap = dnc_capacity(DncSpec(np.array([w, w])))
            assert cap.C == pytest.approx(1.0 / w, rel=1e-12)
            assert np.allclose(cap.p_star.probs, 0.5, rtol=0.0, atol=1e-15)

    def test_mixed_extremes_solve_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cap = dnc_capacity(DncSpec(np.array([1e-300, 1e300])))
        assert math.isfinite(cap.C) and cap.root_residual <= 1e-12

    def test_capacity_out_of_float_range_is_value_error(self):
        # C = 1/w = 2**1074 for the smallest subnormal weight
        with pytest.raises(ValueError, match="out of float range"):
            dnc_capacity(DncSpec(np.array([5e-324, 5e-324])))


class TestEntropyPerWeight:
    def test_degenerate(self):
        assert entropy_per_weight(Pmf(np.array([1.0, 0.0])), W12) == 0.0

    def test_uniform_binary(self):
        assert entropy_per_weight(Pmf(np.array([0.5, 0.5])), W12) == pytest.approx(
            2 / 3, abs=1e-15
        )

    def test_three_symbols(self):
        p = Pmf(np.array([0.5, 0.25, 0.25]))
        assert entropy_per_weight(p, W123) == pytest.approx(1.5 / 1.75, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            entropy_per_weight(Pmf(np.array([0.5, 0.5])), W123)


class TestWeightedTarget:
    def test_full_tilt_is_p_star(self):
        cap = dnc_capacity(W12)
        assert np.array_equal(weighted_target(cap.p_star, 1.0), cap.p_star.probs)

    def test_zero_tilt_is_all_ones(self):
        cap = dnc_capacity(W12)
        assert np.array_equal(weighted_target(cap.p_star, 0.0), [1.0, 1.0])

    def test_half_tilt_is_elementwise_sqrt(self):
        cap = dnc_capacity(W12)
        got = weighted_target(cap.p_star, 0.5)
        assert np.allclose(got, [0.786151377757423, 0.618033988749895], atol=1e-12)

    def test_rejects_out_of_range(self):
        cap = dnc_capacity(W12)
        with pytest.raises(ValueError):
            weighted_target(cap.p_star, 1.5)


class TestLec:
    def test_equal_weights_converges_immediately(self):
        res = lec(DncSpec(np.array([1.0, 1.0])))
        assert res.R == 1.0
        assert res.lengths.lengths == (1, 1)
        assert res.iterations == 1

    def test_weights_one_two(self):
        res = lec(W12)
        assert res.lengths.lengths == (1, 1)
        # R = (1/1.5) / C, evaluated at high precision
        assert res.R == pytest.approx(0.960280060275038, abs=1e-12)

    def test_weights_one_two_three(self):
        res = lec(W123)
        assert res.lengths.lengths == (1, 2, 2)
        assert res.R == pytest.approx(0.974971672609928, abs=1e-12)
        assert res.iterations <= 20

    def test_rate_consistent_with_r(self):
        for spec in (W12, W123, DncSpec(np.array([2.0, 3.0, 5.0, 7.0]))):
            cap = dnc_capacity(spec)
            res = lec(spec)
            assert res.rate == pytest.approx(res.R * cap.C, abs=1e-9)

    def test_fixed_point_stable(self):
        # one more tilt-and-code pass does not move R
        for spec in (W12, W123, DncSpec(np.array([1.0, 3.0, 4.0, 4.0, 9.0]))):
            cap = dnc_capacity(spec)
            res = lec(spec)
            target = weighted_target(cap.p_star, res.R)
            code, _ = ghc(target)
            rate = entropy_per_weight(DyadicPmf.from_code(code).probs, spec)
            assert abs(rate / cap.C - res.R) <= 1e-12

    def test_terminal_divergence_vanishes(self):
        for spec in (W12, W123):
            cap = dnc_capacity(spec)
            res = lec(spec)
            p = DyadicPmf.from_code(res.lengths).probs
            d = kl_divergence(p, weighted_target(cap.p_star, res.R))
            assert abs(d) <= 1e-12

    def test_single_pass_at_full_tilt_is_min_divergence_code(self):
        # running one tilt-and-code pass with R = 1 must reproduce the
        # exhaustive minimizer of D(p || p*)
        for spec in (W12, W123, DncSpec(np.array([1.0, 2.0, 2.0, 5.0]))):
            cap = dnc_capacity(spec)
            code, d = ghc(cap.p_star.probs)
            oracle_code, oracle_d = brute_force_min_kl(cap.p_star.probs)
            assert code.lengths == oracle_code.lengths
            assert abs(d - oracle_d) <= 1e-12

    def test_runs_to_the_fixed_point(self):
        # the divergence is negative while a step still raises the rate;
        # stopping on div <= tol returned rate 1.064516 here
        spec = DncSpec(np.array([1.0, 8.0, 5.0, 4.0, 1.0, 6.0, 4.0, 6.0]))
        res = lec(spec)
        assert res.rate >= 1.0677966  # 1.067797 to six places
        assert _one_more_step_rate(spec, res) <= res.rate
        assert res.R == res.rate / dnc_capacity(spec).C

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(min_value=0.5, max_value=8.0), st.integers(1, 9).map(float)),
            min_size=2,
            max_size=24,
        )
    )
    def test_one_more_step_never_raises_the_rate(self, w):
        spec = DncSpec(np.array(w))
        res = lec(spec)
        assert _one_more_step_rate(spec, res) <= res.rate * (1.0 + 1e-12)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_rejects_tolerance_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            lec(W123, tol=tol)

    def test_iteration_cap_carries_best(self):
        with pytest.raises(ConvergenceError) as exc_info:
            lec(W123, max_iter=1)
        assert exc_info.value.best is not None
        assert exc_info.value.best.lengths.lengths == (1, 2, 2)


def _one_more_step_rate(spec: DncSpec, res) -> float:
    code, _ = ghc(weighted_target(dnc_capacity(spec).p_star, res.R))
    return entropy_per_weight(DyadicPmf.from_code(code).probs, spec)


def _brute_force_max_rate(spec: DncSpec) -> float:
    """Assign sorted lengths to sorted weights over every full-code multiset."""
    order = np.argsort(spec.w, kind="stable")
    best = -1.0
    for ms in enumerate_full_codes(spec.m, spec.m - 1):
        lengths = [INF] * spec.m
        for j, length in enumerate(ms):
            lengths[int(order[j])] = length
        rate = entropy_per_weight(
            DyadicPmf.from_code(CodeLengths(tuple(lengths))).probs, spec
        )
        best = max(best, rate)
    return best


class TestLecOptimality:
    def test_matches_exhaustive_maximum_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            spec = DncSpec(rng.integers(1, 8, size=m).astype(float))
            assert lec(spec).rate == _brute_force_max_rate(spec)


class TestPenaltyIdentity:
    def test_rate_identity_for_arbitrary_dyadic_pmfs(self):
        # H/avg_weight == R*C - D(p || p*^R)/avg_weight for any dyadic p and
        # any R; this is an algebraic rewrite of the entropy
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            spec = DncSpec(rng.uniform(0.5, 5.0, size=m))
            cap = dnc_capacity(spec)
            code, _ = brute_force_min_kl(rng.dirichlet(np.ones(m)))
            p = DyadicPmf.from_code(code).probs
            r_tilt = float(rng.uniform(0.0, 1.0))
            rate = entropy_per_weight(p, spec)
            avg_w = float(p.probs @ spec.w)
            d = kl_divergence(p, weighted_target(cap.p_star, r_tilt))
            assert rate == pytest.approx(r_tilt * cap.C - d / avg_w, abs=1e-9)


class TestOptimizeBlockDnc:
    def test_equal_weights_hit_capacity(self):
        for k in (1, 2, 3):
            rep = optimize_block_dnc(DncSpec(np.array([1.0, 1.0])), k)
            assert rep.rate == pytest.approx(1.0, abs=1e-12)
            assert rep.kl_bits == 0.0

    def test_weights_one_two_k1(self):
        rep = optimize_block_dnc(W12, 1)
        assert rep.lengths.lengths == (1, 1)
        assert rep.rate == pytest.approx(2 / 3, abs=1e-12)
        # D((1/2,1/2) || p*), evaluated at high precision
        assert rep.kl_bits == pytest.approx(0.041362870445926, abs=1e-12)

    def test_rate_respects_lower_bound(self):
        for k in (1, 2, 3, 4):
            rep = optimize_block_dnc(W12, k)
            assert rep.rate >= rep.lower_bound - 1e-12
            assert rep.d_over_k <= 1.0 / k + 1e-12

    def test_rates_nondecreasing_on_doubling(self):
        rates = [optimize_block_dnc(W12, k).rate for k in (1, 2, 4, 8)]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
        assert rates[-1] >= 0.68

    def test_block_average_weight_marginals(self):
        # independent check of the marginal-based average weight at k = 2
        rep = optimize_block_dnc(W123, 2)
        p = DyadicPmf.from_code(rep.lengths).probs.probs
        w2 = np.add.outer(W123.w, W123.w).reshape(-1)
        from geomhuffman import entropy

        direct = entropy(DyadicPmf.from_code(rep.lengths).probs) / float(p @ w2)
        assert rep.rate == pytest.approx(direct, abs=1e-12)
