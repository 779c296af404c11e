import math
import warnings

import numpy as np
import pytest

from geomhuffman import (
    ConvergenceError,
    DimensionMismatchError,
    DmcSpec,
    DyadicPmf,
    GuardExceededError,
    Pmf,
    SupportConditionError,
    blahut_arimoto,
    clamp_support,
    ghc,
    kkt_check,
    kl_divergence,
    mi_lower_bound,
    mutual_information,
    optimize_block_dmc,
)
from geomhuffman.pmf import _check_block

# input 0 -> output 0 surely; input 1 -> output 1 with probability 0.5
Z_CHANNEL = DmcSpec(np.array([[1.0, 0.5], [0.0, 0.5]]))
IDENTITY2 = DmcSpec(np.eye(2))
BSC_HALF = DmcSpec(np.array([[0.5, 0.5], [0.5, 0.5]]))

# closed forms for the Z channel with crossover 0.5: the per-input
# divergences both equal log2(5/4) at p* = (0.6, 0.4)
Z_CAPACITY = math.log2(1.25)
Z_P_STAR = np.array([0.6, 0.4])
Z_MI_UNIFORM = 0.311278124459133       # h(0.25) - 0.5
Z_D_UNIFORM = 0.029446844526784        # D((.5,.5) || (.6,.4))
Z_BOUND = 0.292481250360578


def overflowing_channel(eps: float) -> DmcSpec:
    """Three noiseless inputs and a fourth that spreads 1 - eps evenly over
    their outputs and reaches a fourth output with probability eps."""
    spread = (1.0 - eps) / 3
    return DmcSpec(np.array(
        [[1.0, 0.0, 0.0, spread], [0.0, 1.0, 0.0, spread], [0.0, 0.0, 1.0, spread], [0.0, 0.0, 0.0, eps]]
    ))


def _random_channel(rng, m=None, n=None):
    m = m or int(rng.integers(2, 6))
    n = n or int(rng.integers(2, 6))
    return DmcSpec(rng.dirichlet(np.ones(n), size=m).T)


class TestDmcSpec:
    def test_shape_and_columns(self):
        assert Z_CHANNEL.m == 2 and Z_CHANNEL.n == 2

    def test_rejects_non_stochastic_column(self):
        with pytest.raises(ValueError, match="column 0"):
            DmcSpec(np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_rejects_single_input(self):
        with pytest.raises(ValueError):
            DmcSpec(np.array([[1.0], [0.0]]))

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match="^transition matrix must be 2-dimensional$"):
            DmcSpec(np.array([0.5, 0.5]))


class TestMutualInformation:
    def test_identity(self):
        assert mutual_information(IDENTITY2, Pmf(np.array([0.5, 0.5]))) == 1.0

    def test_fully_noisy(self):
        assert mutual_information(BSC_HALF, Pmf(np.array([0.3, 0.7]))) == 0.0

    def test_z_channel_uniform(self):
        mi = mutual_information(Z_CHANNEL, Pmf(np.array([0.5, 0.5])))
        assert mi == pytest.approx(Z_MI_UNIFORM, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mutual_information(Z_CHANNEL, Pmf(np.array([1 / 3] * 3)))

    def test_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            chan = _random_channel(rng)
            p = Pmf(rng.dirichlet(np.ones(chan.m)))
            assert mutual_information(chan, p) >= -1e-12


class TestBlahutArimoto:
    def test_identity(self):
        res = blahut_arimoto(IDENTITY2, tol=1e-9)
        assert res.C == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.p_star.probs, [0.5, 0.5], atol=1e-9)

    def test_z_channel(self):
        res = blahut_arimoto(Z_CHANNEL, tol=1e-9)
        assert res.C == pytest.approx(Z_CAPACITY, abs=1e-9)
        assert np.allclose(res.p_star.probs, Z_P_STAR, atol=1e-6)
        assert res.achieved_tol <= 1e-9

    def test_bsc_011(self):
        # analytic oracle: C = 1 - h(0.11) = 0.500084041835472
        bsc = DmcSpec(np.array([[0.89, 0.11], [0.11, 0.89]]))
        res = blahut_arimoto(bsc, tol=1e-10)
        assert res.C == pytest.approx(0.500084041835472, abs=1e-9)
        assert np.allclose(res.p_star.probs, [0.5, 0.5], atol=1e-7)

    def test_capacity_within_log_min_dim(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            chan = _random_channel(rng)
            res = blahut_arimoto(chan, tol=1e-7, max_iter=20_000)
            assert -1e-12 <= res.C <= math.log2(min(chan.m, chan.n)) + res.achieved_tol

    def test_max_iter_error_carries_best(self):
        with pytest.raises(ConvergenceError) as exc_info:
            blahut_arimoto(Z_CHANNEL, tol=1e-12, max_iter=3)
        best = exc_info.value.best
        assert best is not None and 0.25 < best.C < 0.33

    # the fourth input alone reaches the last output, with probability
    # eps; its mass decays until h / r overflows, before the gap reaches
    # 1e-17, and the error reports the iterate before the overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-12])
    def test_overflow_error_carries_a_finite_iterate(self, eps):
        with pytest.raises(ConvergenceError, match="^capacity solver hit numerical underflow$") as exc_info:
            blahut_arimoto(overflowing_channel(eps), tol=1e-17)
        best = exc_info.value.best
        assert math.isfinite(best.C) and math.isfinite(best.achieved_tol)
        assert best.C == pytest.approx(math.log2(3), rel=1e-12)
        assert 0.0 < best.p_star.probs[3] < 1e-300

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_rejects_tolerance_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            blahut_arimoto(Z_CHANNEL, tol=tol)

    # h p rounds to 0 in the last row, which carries no mass; its r is
    # taken at the smallest positive float, where the divergences were inf
    # and the solver raised the underflow error on its first iteration
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_output_row_is_the_channel_without_it(self):
        h = np.array([[0.5, 0.25], [0.5, 0.75], [5e-324, 5e-324]])
        got = blahut_arimoto(DmcSpec(h))
        want = blahut_arimoto(DmcSpec(h[:2]))
        assert got.C == want.C == 0.048821003620363505
        assert np.array_equal(got.p_star.probs, want.p_star.probs)
        assert got.achieved_tol == want.achieved_tol

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_max_iter_below_one(self, max_iter):
        # the loop never ran, so there was no result to report
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            blahut_arimoto(Z_CHANNEL, max_iter=max_iter)

    def test_deterministic(self):
        a = blahut_arimoto(Z_CHANNEL, tol=1e-9)
        b = blahut_arimoto(Z_CHANNEL, tol=1e-9)
        assert a.C == b.C
        assert np.array_equal(a.p_star.probs, b.p_star.probs)


class TestKktCheck:
    def test_identity_uniform(self):
        assert kkt_check(IDENTITY2, Pmf(np.array([0.5, 0.5])), 1e-6)

    def test_z_channel_suboptimal_point(self):
        assert not kkt_check(Z_CHANNEL, Pmf(np.array([0.5, 0.5])), 1e-6)

    def test_z_channel_optimal_point(self):
        assert kkt_check(Z_CHANNEL, Pmf(Z_P_STAR), 1e-9)

    def test_unreached_output_is_no_warning(self):
        # p = (1, 0) on the identity never reaches output 2, so r_2 = 0 and
        # h / r holds 1/0 and 0/0: input 2's divergence is inf, no warning
        p = Pmf(np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mutual_information(IDENTITY2, p) == 0.0
            assert kkt_check(IDENTITY2, p, 1e-6) is False

    def test_no_input_above_tol_fails(self):
        assert kkt_check(Z_CHANNEL, Pmf(np.array([0.5, 0.5])), 0.9) is False

    def test_solver_output_passes_at_relaxed_tol(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            chan = _random_channel(rng)
            res = blahut_arimoto(chan, tol=1e-8, max_iter=50_000)
            assert kkt_check(chan, res.p_star, 1e-6)


class TestMiLowerBound:
    def test_equals_capacity_at_p_star(self):
        assert mi_lower_bound(Z_CAPACITY, Pmf(Z_P_STAR), Pmf(Z_P_STAR)) == Z_CAPACITY

    def test_z_channel_uniform(self):
        bound = mi_lower_bound(Z_CAPACITY, Pmf(np.array([0.5, 0.5])), Pmf(Z_P_STAR))
        assert bound == pytest.approx(Z_BOUND, abs=1e-12)
        assert Z_MI_UNIFORM >= bound

    def test_support_violation(self):
        with pytest.raises(SupportConditionError):
            mi_lower_bound(1.0, Pmf(np.array([0.5, 0.5])), Pmf(np.array([1.0, 0.0])))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="^p and p_star differ in length$"):
            mi_lower_bound(1.0, Pmf(np.array([1.0])), Pmf(Z_P_STAR))

    def test_bound_holds_for_dyadic_inputs(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            chan = _random_channel(rng)
            res = blahut_arimoto(chan, tol=1e-8, max_iter=50_000)
            p_star = clamp_support(res.p_star)
            code, _ = ghc(p_star.probs)
            p = DyadicPmf.from_code(code).probs
            bound = mi_lower_bound(res.C, p, p_star)
            assert mutual_information(chan, p) >= bound - 10 * res.achieved_tol


class TestDataProcessing:
    def test_output_divergence_below_input_divergence(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            chan = _random_channel(rng)
            res = blahut_arimoto(chan, tol=1e-7, max_iter=20_000)
            p = Pmf(rng.dirichlet(np.ones(chan.m)))
            d_in = kl_divergence(p, res.p_star)
            r, r_star = (Pmf.normalized(chan.h @ q.probs) for q in (p, res.p_star))
            d_out = kl_divergence(r, r_star)
            assert d_out <= d_in + 1e-12


class TestClampSupport:
    def test_zeroes_tiny_entries(self):
        p = clamp_support(Pmf(np.array([1.0 - 1e-13, 1e-13])))
        assert p.probs[1] == 0.0
        assert p.probs[0] == 1.0


class TestOptimizeBlockDmc:
    def test_z_channel_k1(self):
        rep = optimize_block_dmc(Z_CHANNEL, 1)
        assert rep.lengths.lengths == (1, 1)
        assert rep.per_use_mi == pytest.approx(Z_MI_UNIFORM, abs=1e-9)
        assert rep.kl_bits == pytest.approx(Z_D_UNIFORM, abs=1e-8)
        assert rep.per_use_bound == pytest.approx(Z_BOUND, abs=1e-8)

    def test_z_channel_k2_merges_to_uniform(self):
        rep = optimize_block_dmc(Z_CHANNEL, 2)
        assert rep.lengths.lengths == (2, 2, 2, 2)
        assert rep.d_over_k == pytest.approx(Z_D_UNIFORM, abs=1e-8)
        # product input: block MI per use equals the single-letter MI
        assert rep.per_use_mi == pytest.approx(Z_MI_UNIFORM, abs=1e-9)

    def test_dyadic_p_star_gives_zero_penalty(self):
        rep = optimize_block_dmc(IDENTITY2, 3)
        assert rep.kl_bits == 0.0
        assert rep.per_use_mi == pytest.approx(1.0, abs=1e-9)

    def test_per_use_bound_nondecreasing_on_doubling(self):
        # doubling block lengths: the product of two optimal k-blocks is
        # feasible for 2k, so D(2k) <= 2 D(k) and the bound cannot drop
        reps = {k: optimize_block_dmc(Z_CHANNEL, k) for k in (1, 2, 4)}
        assert reps[2].per_use_bound >= reps[1].per_use_bound - 1e-9
        assert reps[4].per_use_bound >= reps[2].per_use_bound - 1e-9

    def test_penalty_vanishes(self):
        for k in range(1, 7):
            rep = optimize_block_dmc(Z_CHANNEL, k)
            assert rep.d_over_k <= 1.0 / k + 1e-12

    def test_block_mi_matches_direct_on_product_channel(self):
        # independent check: materialize the 2-fold product channel and use
        # the single-letter routine
        rep = optimize_block_dmc(Z_CHANNEL, 2)
        h = Z_CHANNEL.h
        h2 = np.kron(h, h)
        p = DyadicPmf.from_code(rep.lengths).probs
        direct = mutual_information(DmcSpec(h2), p)
        assert rep.per_use_mi == pytest.approx(direct / 2, abs=1e-12)

    def test_cap_guard(self):
        with pytest.raises(GuardExceededError):
            _check_block(max(Z_CHANNEL.m, Z_CHANNEL.n), 9, 2**8, "block channel would need")
        # the real cap refuses 2^25 block inputs before any capacity solve
        with pytest.raises(GuardExceededError, match="need 33554432 entries, cap is 16777216"):
            optimize_block_dmc(Z_CHANNEL, 25)
