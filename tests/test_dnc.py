import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# capacities where the w_min term 2**(-C w_min) of the root equation rounds
# to 1 in double precision, from mpmath 1.3.0 at 1400 digits (the terms
# reach 1e-596); the log-space residual keeps the other terms beside it
SATURATED_ROOTS = {
    (1.0, 1e20): 6.1035745766954882949e-19,
    (1e-10, 1e10): 6.1035745766954882897e-9,
    (1e-300, 1e300): 1.9827323490807608453e-297,
    (1e-300, 1.0, 1e300): 987.16005463227190361,
    (2.0, 1e19, 3e19, 1e20): 5.6817145723071777014e-18,
}
# capacities on spreads just below that, where 2**(-C w_min) is within
# 1e-10 of 1 and the sum itself keeps few digits of the other terms; from
# mpmath 1.3.0 at 80 digits
UNSATURATED_ROOTS = {
    (1.0, 1e12): 3.5252259679116508625e-11,
    (1.0, 1e16): 4.809189404986016914e-15,
    (1.0, 1e17): 5.1320092130760463832e-16,
    (1.0, 3e17): 1.762077938454690053e-16,
    (2.0, 5.0, 1e17): 0.30626889418450700756,
}

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
        # C is in bits and the solve never uses the base, so C and p* are
        # the same bits in every base
        for w in ([1.0, 2.0], [1.0, 1e308], [5e-324, 1.0], [0.5, 1.7, 2.2, 9.0]):
            cap2 = dnc_capacity(DncSpec(np.array(w), b=2.0))
            for b in (3.0, 1.0000001, 1e300):
                cap = dnc_capacity(DncSpec(np.array(w), b=b))
                assert cap.C == cap2.C
                assert cap.p_star.probs.tobytes() == cap2.p_star.probs.tobytes()

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
        assert cap.C == pytest.approx(SATURATED_ROOTS[(1e-300, 1e300)], rel=1e-15, abs=0.0)
        assert cap.root_residual <= 1e-12

    @pytest.mark.parametrize("w", list(SATURATED_ROOTS))
    def test_saturated_w_min_term_solves_in_log_space(self, w):
        # 2**(-C w_min) rounds to 1 at the root, where f sees only the w_min
        # term; the capacity used to come out as 6.5e-17 on (1, 1e20)
        cap = dnc_capacity(DncSpec(np.array(w)))
        assert cap.C == pytest.approx(SATURATED_ROOTS[w], rel=1e-15, abs=0.0)
        assert cap.root_residual <= 1e-12

    @pytest.mark.parametrize("w", list(UNSATURATED_ROOTS))
    def test_spreads_below_saturation_match_mpmath(self, w):
        # the bisection of sum - 1 was off by 8e-8 on (1, 1e12), 5e-4 on
        # (1, 1e16) and 7e-3 on (1, 1e17)
        cap = dnc_capacity(DncSpec(np.array(w)))
        assert cap.C == pytest.approx(UNSATURATED_ROOTS[w], rel=1e-15, abs=0.0)
        assert cap.root_residual <= 1e-12

    def test_capacity_out_of_float_range_is_value_error(self):
        # C = 1/w = 2**1074 for the smallest subnormal weight
        with pytest.raises(ValueError, match="out of float range"):
            dnc_capacity(DncSpec(np.array([5e-324, 5e-324])))

    def test_unscalable_root_above_the_largest_float_is_value_error(self):
        # 1e308 keeps the subnormal weights from being scaled up, and the
        # root lies above the largest float; it used to come back as that
        # float, and the residual check raised RuntimeError
        with pytest.raises(ValueError, match="out of float range"):
            dnc_capacity(DncSpec(np.array([1e308, 5e-324, 5e-324])))


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

    def test_plain_array_same_as_pmf(self):
        p = np.array([0.5, 0.25, 0.25])
        assert entropy_per_weight(p, W123) == entropy_per_weight(Pmf(p), W123)
        with pytest.raises(DimensionMismatchError):
            entropy_per_weight(np.array([0.5, 0.5]), W123)


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

    @pytest.mark.parametrize("R", [-0.1, 1.0 + 1e-9])
    def test_rejects_more_than_rounding_past_the_ends(self, R):
        with pytest.raises(ValueError, match=r"R must lie in \[0, 1\]"):
            weighted_target(dnc_capacity(W12).p_star, R)

    @pytest.mark.parametrize(
        "w, b", [((1, 1, 1, 1), 3), ((0.7, 1.4, 1.4), 10), ((5, 5, 5, 5), 1.5)]
    )
    def test_accepts_lec_r_rounded_above_one(self, w, b):
        # p* is dyadic here, and lec's rate / C rounds to 1 + 2**-52
        res = lec(DncSpec(np.array(w, dtype=np.float64), b))
        assert 1.0 < res.R <= 1.0 + 1e-15
        got = weighted_target(res.solved.p_star, res.R)
        assert np.array_equal(got, np.power(res.solved.p_star.probs, res.R))


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

    def test_stops_on_the_divergence_from_the_second_pass(self):
        # at tol 0.1 the second pass still moves R and raises the rate, and
        # |D| <= tol stops it there; at the default tol it runs on to a
        # code of higher rate
        spec = DncSpec(np.array([9.0, 8.0, 7.0, 1.0, 7.0, 2.0]))
        res = lec(spec, tol=0.1)
        assert res.iterations == 2
        assert res.lengths.lengths == (4, 4, 4, 1, 4, 2)
        full = lec(spec)
        assert full.iterations > 2 and full.rate > res.rate

    @pytest.mark.parametrize("e", [15, 16, 17, 20, 100, 308])
    def test_weights_decades_apart_reach_a_positive_rate(self, e):
        # the first pass gives the one-leaf code (0, inf), whose D from
        # p* is below tol (0.0 from 17 decades, where p*_0 rounds to 1);
        # from 17 decades the code (1, 1) and (0, inf) then tie at the
        # GHC drop boundary, and (1, 1) is the fixed point
        spec = DncSpec(np.array([1.0, 10.0**e]))
        res = lec(spec)
        assert res.lengths.lengths == (1, 1)
        assert res.rate > 0.0
        assert res.R == res.rate / res.solved.C
        assert _one_more_step_rate(spec, res) <= res.rate

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

    def test_result_carries_its_solve(self):
        for spec in (W12, W123, DncSpec(np.array([1.0, 1.0]), 3.0)):
            res = lec(spec)
            cap = dnc_capacity(spec)
            assert res.solved.C == cap.C
            assert res.solved.root_residual == cap.root_residual
            assert np.array_equal(res.solved.p_star.probs, cap.p_star.probs)
            assert res.R == res.rate / res.solved.C

    def test_dyadic_p_star_may_end_above_one(self):
        # p* = (1/4, 1/4, 1/4, 1/4) rounds to a C an ulp below the rate; the
        # result still carries its tilt p*^R without a guard on R
        res = lec(DncSpec(np.array([1.0, 1.0, 1.0, 1.0]), 3.0))
        assert res.lengths.lengths == (2, 2, 2, 2)
        assert 1.0 < res.R <= 1.0 + 1e-15
        p = DyadicPmf.from_code(res.lengths).probs
        assert kl_divergence(p, np.power(res.solved.p_star.probs, res.R)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_rejects_tolerance_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            lec(W123, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        # it used to raise ConvergenceError with best=None
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            lec(W123, max_iter=max_iter)

    def test_checks_arguments_before_the_solve(self):
        # weights whose capacity is out of float range report the arguments
        out_of_range = DncSpec(np.array([5e-324, 5e-324]))
        with pytest.raises(ValueError, match="finite and positive"):
            lec(out_of_range, tol=math.nan)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            lec(out_of_range, max_iter=0)

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

    def test_report_carries_its_solve(self):
        rep = optimize_block_dnc(W123, 2)
        cap = dnc_capacity(W123)
        assert rep.solved.C == rep.capacity == cap.C
        assert np.array_equal(rep.solved.p_star.probs, cap.p_star.probs)
        assert rep.lower_bound == rep.solved.C - rep.kl_bits / 2.0

    def test_block_average_weight_marginals(self):
        # independent check of the marginal-based average weight at k = 2
        rep = optimize_block_dnc(W123, 2)
        p = DyadicPmf.from_code(rep.lengths).probs.probs
        w2 = np.add.outer(W123.w, W123.w).reshape(-1)
        from geomhuffman import entropy

        direct = entropy(DyadicPmf.from_code(rep.lengths).probs) / float(p @ w2)
        assert rep.rate == pytest.approx(direct, abs=1e-12)
