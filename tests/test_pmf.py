import math
import re

import numpy as np
import pytest

from geomhuffman import (
    DimensionMismatchError,
    GuardExceededError,
    Pmf,
    entropy,
    kl_divergence,
    product_pmf,
)
from geomhuffman.pmf import _check_block

Q5 = np.array([0.328, 0.32, 0.22, 0.11, 0.022])


class TestPmfConstruction:
    def test_valid(self):
        p = Pmf(np.array([0.5, 0.5]))
        assert p.m == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.4]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Pmf(np.array([]))

    def test_sum_tolerance_boundary(self):
        Pmf(np.array([0.5, 0.5 + 0.9e-9]))  # inside tolerance
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.5 + 1.1e-8]))

    def test_normalized_constructor(self):
        p = Pmf.normalized([2.0, 6.0])
        assert np.allclose(p.probs, [0.25, 0.75])
        with pytest.raises(ValueError):
            Pmf.normalized([0.0, 0.0])

    # each rejection's message and each result's bytes as the normalizing
    # constructor gave them when it checked its quotients a second time
    @pytest.mark.parametrize(
        "values, message",
        [
            ([], "a PMF needs at least one entry"),
            ([-1.0, 2.0], "entries must be finite and nonnegative"),
            ([math.nan, 1.0], "entries must be finite and nonnegative"),
            ([math.inf, 1.0], "entries must be finite and nonnegative"),
            ([0.0, 0.0], "cannot normalize a vector with zero sum"),
            ([-0.0, 0.0], "cannot normalize a vector with zero sum"),
            # the sum overflows to inf, so every quotient is 0
            ([1e308, 1e308], "PMF entries sum to 0.0, expected 1 within 1e-09"),
            ([1.7976931348623157e308] * 3, "PMF entries sum to 0.0, expected 1 within 1e-09"),
        ],
    )
    def test_normalized_rejections(self, values, message):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as info:
                Pmf.normalized(values)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "values, hex_bytes",
        [
            ([5e-324], "000000000000f03f"),
            ([5e-324, 1e-323], "555555555555d53f555555555555e53f"),
            ([2.0, 6.0], "000000000000d03f000000000000e83f"),
            ([0.0, 3.0, 0.0], "0000000000000000000000000000f03f0000000000000000"),
            ([1e308, 7e307], "d3d2d2d2d2d2e23f5b5a5a5a5a5ada3f"),
        ],
    )
    def test_normalized_bytes(self, values, hex_bytes):
        source = np.array(values)
        p = Pmf.normalized(source)
        assert p.probs.tobytes().hex() == hex_bytes
        assert not p.probs.flags.writeable
        assert source.flags.writeable and not np.shares_memory(p.probs, source)

    def test_immutable(self):
        p = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Pmf(np.array([0.5, 0.5]))) == 1.0

    def test_degenerate(self):
        assert entropy(Pmf(np.array([1.0, 0.0]))) == 0.0

    def test_five_symbols(self):
        # high-precision evaluation of the definition: 2.00553403571024...
        assert entropy(Pmf(Q5)) == pytest.approx(2.00553403571024, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            p = Pmf(rng.dirichlet(np.ones(m)))
            h = entropy(p)
            assert -1e-12 <= h <= math.log2(m) + 1e-12


class TestKlDivergence:
    def test_worked_example(self):
        p = Pmf(np.array([0.5, 0.25, 0.125, 0.125, 0.0]))
        assert kl_divergence(p, Q5) == pytest.approx(0.13619, abs=5e-5)

    def test_worked_example_huffman_pmf(self):
        p = Pmf(np.array([0.25, 0.25, 0.25, 0.125, 0.125]))
        assert kl_divergence(p, Q5) == pytest.approx(0.19548, abs=5e-5)

    def test_identity_is_zero(self):
        p = Pmf(np.array([0.3, 0.7]))
        assert kl_divergence(p, p) == 0.0

    def test_infinite_when_target_lacks_support(self):
        p = Pmf(np.array([0.5, 0.5]))
        assert kl_divergence(p, np.array([1.0, 0.0])) == math.inf

    def test_zero_mass_terms_ignored(self):
        p = Pmf(np.array([1.0, 0.0]))
        assert kl_divergence(p, np.array([1.0, 0.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_divergence(Pmf(np.array([0.5, 0.5])), np.array([1.0, 1.0, 1.0]))

    def test_nonnegative_for_normalized_targets(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = int(rng.integers(2, 8))
            p = Pmf(rng.dirichlet(np.ones(m)))
            q = Pmf(rng.dirichlet(np.ones(m)))
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) == 0.0

    def test_can_be_negative_for_unnormalized_targets(self):
        p = Pmf(np.array([0.5, 0.5]))
        assert kl_divergence(p, np.array([1.0, 1.0])) == -1.0


class TestProductPmf:
    def test_degenerate(self):
        p = product_pmf(Pmf(np.array([1.0, 0.0])), 2)
        assert np.array_equal(p.probs, [1.0, 0.0, 0.0, 0.0])

    def test_lexicographic_order(self):
        # direct double-loop oracle, first symbol most significant
        base = np.array([0.6, 0.4])
        expected = [bi * bj for bi in base for bj in base]
        p = product_pmf(Pmf(base), 2)
        assert np.array_equal(p.probs, expected)

    def test_identity_at_k1(self):
        base = Pmf(np.array([0.2, 0.3, 0.5]))
        assert np.array_equal(product_pmf(base, 1).probs, base.probs)

    def test_cap_error_names_sizes(self):
        with pytest.raises(GuardExceededError, match="1024"):
            _check_block(2, 10, 1024 - 1, "product PMF would hold")

    def test_block_length_below_one_rejected(self):
        for k in (0, -3):
            with pytest.raises(ValueError, match="block length k must be >= 1"):
                product_pmf(Pmf(np.array([0.5, 0.5])), k)

    def test_huge_block_rejected_without_the_power(self):
        p = Pmf(np.array([0.2, 0.3, 0.5]))
        # 3**k has 4772 digits at k = 10**4, past what int() may print
        for k, count in ((30, str(3**30)), (10**4, "3**10000"), (10**12, "3**1000000000000")):
            with pytest.raises(GuardExceededError, match=rf"would hold {re.escape(count)} entries"):
                product_pmf(p, k)

    def test_single_symbol_block_within_cap(self):
        _check_block(1, 50, 1, "product PMF would hold")
        assert product_pmf(Pmf(np.array([1.0])), 50).probs.tolist() == [1.0]

    def test_entropy_scales_linearly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(1, 6))
            p = Pmf(rng.dirichlet(np.ones(m)))
            assert entropy(product_pmf(p, k)) == pytest.approx(
                k * entropy(p), abs=1e-9 * k
            )

    def test_kl_scales_linearly(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            p = Pmf(rng.dirichlet(np.ones(m)))
            q = Pmf(rng.dirichlet(np.ones(m)))
            assert kl_divergence(product_pmf(p, k), product_pmf(q, k)) == pytest.approx(
                k * kl_divergence(p, q), abs=1e-9 * k
            )
