"""Memoryless discrete noiseless channels.

Symbols carry positive weights (costs); the figure of merit is entropy per
average weight, in bits per unit weight.  Capacity comes from a one-line
root equation, and the best dyadic input PMF from a fixed-point iteration
whose inner step is :func:`geomhuffman.approximators.ghc` on a tilted
capacity-achieving PMF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approximators import ghc
from .dyadic import CodeLengths, DyadicPmf
from .errors import ConvergenceError, DimensionMismatchError
from .pmf import PRODUCT_CAP, Pmf, _coordinate_sum, entropy, product_pmf

ROOT_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DncSpec:
    """Positive symbol weights and the logarithm base of the capacity units."""

    w: np.ndarray
    b: float = 2.0

    def __post_init__(self):
        arr = np.array(self.w, dtype=np.float64, copy=True).reshape(-1)
        if arr.size < 2:
            raise ValueError("need at least 2 symbols")
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("weights must be positive")
        if not (self.b > 1.0):
            raise ValueError("log base must be > 1")
        if not math.isfinite(self.b):
            raise ValueError("log base must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @property
    def m(self) -> int:
        return int(self.w.size)


@dataclass(frozen=True, eq=False)
class DncCapacity:
    """Capacity in bits per unit weight, the PMF achieving it, and the
    residual of the defining root equation."""

    C: float
    p_star: Pmf
    root_residual: float


@dataclass(frozen=True, eq=False)
class LecResult:
    """Converged fixed point: achieved capacity fraction R, the dyadic code,
    its rate in bits per unit weight, and the iteration count."""

    R: float
    lengths: CodeLengths
    rate: float
    iterations: int


@dataclass(frozen=True, eq=False)
class BlockDncReport:
    """Dyadic optimization over blocks of k symbols."""

    block: int
    capacity: float
    lengths: CodeLengths
    kl_bits: float
    d_over_k: float
    rate: float
    lower_bound: float


def dnc_capacity(spec: DncSpec) -> DncCapacity:
    """Solve sum_i b**(-s w_i) = 1 for the unique positive root.

    The map is strictly decreasing from m > 1 at s = 0, so plain bisection
    on a doubled bracket is exact enough: 200 halvings collapse the bracket
    to adjacent floats.  The root is solved for the weights scaled by a
    power of two that brings w_min near 1 (as far as the largest weight
    stays finite), so the root of the scaled problem sits a few doublings
    from 1 and the scale carries it back exactly; a capacity near the top
    of the float range (w_min near 1e-308) stays reachable.  The returned
    capacity is converted to bits per unit weight; p*_i = b**(-s w_i)
    follows from the root.
    """
    w = spec.w
    ln_b = math.log(spec.b)
    # w * 2**shift is exact, and the scaled root is s * 2**-shift exactly
    shift = min(-math.frexp(float(w.min()))[1], 1024 - math.frexp(float(w.max()))[1])
    w_scaled = np.ldexp(w, shift)

    def f(s: float) -> float:
        # np.add.reduce is ndarray.sum without its Python wrapper; bisection
        # calls f about 60 times
        return float(np.add.reduce(np.exp(-s * w_scaled * ln_b)))

    # Products s * w_i beyond the float range give exp(-inf) = 0 exactly,
    # which is the right term; only the overflow warning is noise.
    with np.errstate(over="ignore"):
        # Double from the power of two just below 1/w_min (capped to stay
        # finite), so the root is a few doublings away.  The bracket ends
        # stay powers of two, so bisection passes through the same states
        # as from a start at 1.
        hi = math.ldexp(1.0, min(-math.frexp(float(w_scaled.min()))[1], 1023))
        while f(hi) >= 1.0:
            hi *= 2.0
            if hi == math.inf:
                raise ValueError("weights too small: the capacity root is out of float range")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if f(mid) >= 1.0:
                lo = mid
            else:
                hi = mid
        s = lo if abs(f(lo) - 1.0) <= abs(f(hi) - 1.0) else hi

        c_scaled = s * math.log2(spec.b)
        c_bits = float(np.ldexp(c_scaled, shift))
        if not math.isfinite(c_bits):
            raise ValueError("weights too small: the capacity root is out of float range")
        p_star = np.exp2(-c_scaled * w_scaled)
    residual = abs(math.fsum(p_star.tolist()) - 1.0)
    if residual > ROOT_RESIDUAL_TOL:
        raise RuntimeError(f"capacity root residual {residual:.3e} above tolerance")
    return DncCapacity(C=c_bits, p_star=Pmf(p_star), root_residual=residual)


def entropy_per_weight(p: Pmf, spec: DncSpec) -> float:
    """H(p) divided by the average weight, in bits per unit weight."""
    if p.m != spec.m:
        raise DimensionMismatchError(f"PMF has {p.m} entries, channel has {spec.m}")
    h = entropy(p)
    if h == 0.0:
        return 0.0
    return h / float(p.probs @ spec.w)


def weighted_target(p_star: Pmf, R: float) -> np.ndarray:
    """Elementwise p*_i ** R, the (unnormalized) target tilted by the
    achievable capacity fraction R."""
    if not 0.0 <= R <= 1.0:
        raise ValueError("R must lie in [0, 1]")
    return np.power(p_star.probs, R)


def lec(spec: DncSpec, tol: float = 1e-12, max_iter: int = 1000) -> LecResult:
    """Fixed-point iteration for the dyadic PMF maximizing entropy per
    average weight.

    Starting from R = 1, each pass builds p = ghc(p*^R) and updates
    R = rate(p) / C.  The divergence D(p || p*^R), taken against the tilt
    that built p, equals (R - R_new) * C * average_weight: it is negative
    while the new code still raises the rate and vanishes exactly at the
    fixed point.  Iteration stops when its magnitude falls below tol or
    when R stops moving (the |dR| fallback covers exact ties between
    distinct optimal codes).  The returned R is the returned code's own
    rate divided by C.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    cap = dnc_capacity(spec)
    pstar = cap.p_star.probs

    R = 1.0
    last: "LecResult | None" = None
    for iteration in range(1, max_iter + 1):
        target = np.power(pstar, R)
        code, div = ghc(target)
        dyadic = DyadicPmf.from_code(code)
        rate = entropy_per_weight(dyadic.probs, spec)
        r_new = rate / cap.C
        last = LecResult(R=r_new, lengths=code, rate=rate, iterations=iteration)
        if abs(div) <= tol or abs(r_new - R) <= 1e-12:
            return last
        R = r_new
    raise ConvergenceError(
        f"LEC did not converge within {max_iter} iterations", best=last
    )


def optimize_block_dnc(spec: DncSpec, k: int, cap: int = PRODUCT_CAP) -> BlockDncReport:
    """Best dyadic PMF over blocks of k symbols.

    Block weights are sums of the component weights in lexicographic tuple
    order; they are never materialized, the average weight comes from the
    per-coordinate marginals of the block PMF.  The reported lower bound is
    C - D / (k * w_min).
    """
    capacity = dnc_capacity(spec)
    target = product_pmf(capacity.p_star, k, cap=cap)
    code, d_total = ghc(target.probs)
    dyadic = DyadicPmf.from_code(code)

    avg_weight = _coordinate_sum(dyadic.probs.probs, spec.m, k, spec.w)
    rate = entropy(dyadic.probs) / avg_weight

    w_min = float(spec.w.min())
    return BlockDncReport(
        block=k,
        capacity=capacity.C,
        lengths=code,
        kl_bits=d_total,
        d_over_k=d_total / k,
        rate=rate,
        lower_bound=capacity.C - d_total / (k * w_min),
    )
