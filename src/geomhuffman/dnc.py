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
from .pmf import PRODUCT_CAP, Pmf, _coordinate_sum, as_weights, entropy, product_pmf

ROOT_RESIDUAL_TOL = 1e-12
NEWTON_STEPS = 60
NEWTON_STEP_TOL = 2.0**-30  # relative step at which Newton on ln f has converged
R_TOL = 1e-12  # lec's |dR| stop, and how far rounding may put its R = rate / C above 1


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
    its rate in bits per unit weight, the iteration count and the solve."""

    R: float
    lengths: CodeLengths
    rate: float
    iterations: int
    solved: DncCapacity


@dataclass(frozen=True, eq=False)
class BlockDncReport:
    """Dyadic optimization over blocks of k symbols, and the capacity solve."""

    block: int
    capacity: float
    lengths: CodeLengths
    kl_bits: float
    d_over_k: float
    rate: float
    lower_bound: float
    solved: DncCapacity


def _newton_guess(w_scaled: np.ndarray, ln_b: float) -> tuple:
    """Newton's estimate of the root of ln f, and the margin around it
    outside which float f cannot fall on the other side of 1.

    ln f is convex and decreasing, so Newton from s = 0 climbs towards the
    root from the left.  The margin is (m+2) rounding errors of f, over the
    slope |f'|, with a factor 64 to spare, plus 8 ulp of the root for the
    rounding of the exponents.  Newton that leaves the finite positive
    floats, or has not converged after NEWTON_STEPS steps, gives a nan
    estimate, which rules on no step.
    """
    s = 0.0
    with np.errstate(all="ignore"):
        wl = w_scaled * ln_b
        for _ in range(NEWTON_STEPS):
            e = np.exp(-s * wl)
            f = float(np.add.reduce(e))
            slope = float(e @ wl)
            if not (f > 0.0 and 0.0 < slope < math.inf):
                break
            step = math.log(f) * f / slope
            noise = (w_scaled.size + 2) * 2.0**-52 / slope
            s += step
            if not 0.0 < s < math.inf:
                break
            # converged, or down to the steps f's rounding makes by itself
            if abs(step) <= NEWTON_STEP_TOL * s + noise:
                return s, 64.0 * noise + 8.0 * math.ulp(s)
    return math.nan, math.inf


def _bisection_root(residual, hi: float, guess: float = 0.0, margin: float = math.inf):
    """The root plain bisection finds for a decreasing residual, replayed.

    Doubles hi while residual(hi) >= 0, halves [0, hi] until its ends are
    adjacent floats (at most 200 halvings), and returns the end with the
    smaller |residual|.  A step at x farther than margin from guess takes
    the side of the root from the side of guess that x lies on, without
    evaluating residual(x); with an infinite margin every step evaluates,
    which is plain bisection.  Returns None when the final ends do not
    satisfy residual(lo) >= 0 > residual(hi), the sign of a guess that
    ruled a step wrongly.
    """
    known = {}
    low, high = guess - margin, guess + margin

    def below_root(x: float) -> bool:
        if x < low:
            return True
        if x > high:
            return False
        r = known[x] = residual(x)
        return r >= 0.0

    while below_root(hi):
        hi *= 2.0
        if hi == math.inf:
            raise ValueError("weights too small: the capacity root is out of float range")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below_root(mid):
            lo = mid
        else:
            hi = mid
    r_lo = known[lo] if lo in known else residual(lo)
    r_hi = known[hi] if hi in known else residual(hi)
    if not r_lo >= 0.0 > r_hi:
        return None
    return lo if abs(r_lo) <= abs(r_hi) else hi


def _saturated_root(w_scaled: np.ndarray, ln_b: float) -> float:
    """The root of f where its w_min term rounds to 1, solved in log space.

    The residual ln(sum of the other terms) - ln(-expm1(-s w_min ln b)) is
    decreasing and keeps the terms that f loses beside 1.  Bisection on
    the bit patterns of nonnegative floats, which order like their values,
    reaches adjacent floats within 63 steps from any bracket; the end with
    the smaller |residual| is the root.
    """
    i = int(np.argmin(w_scaled))
    wl_min = float(w_scaled[i]) * ln_b
    wl_rest = np.delete(w_scaled, i) * ln_b

    def log_tail(s: float) -> float:
        # ln(1 - e**-x) for x = s * wl_min, as ln s + ln wl_min +
        # ln(-expm1(-x) / x) when x <= 1, which holds where x underflows
        x = s * wl_min
        if x > 1.0:
            return math.log(-math.expm1(-x))
        ratio = -math.expm1(-x) / x if x > 0.0 else 1.0
        return math.log(s) + math.log(wl_min) + math.log(ratio)

    def residual(s: float) -> float:
        if s == 0.0:
            return math.inf
        a = -s * wl_rest
        top = float(a.max())
        if top == -math.inf:
            return -math.inf
        return top + math.log(float(np.add.reduce(np.exp(a - top)))) - log_tail(s)

    def value(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    lo, hi = 0, 0x7FF0000000000000  # the bit patterns of 0.0 and inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if residual(value(mid)) >= 0.0:
            lo = mid
        else:
            hi = mid
    lo, hi = value(lo), value(hi)
    return lo if abs(residual(lo)) <= abs(residual(hi)) else hi


def dnc_capacity(spec: DncSpec) -> DncCapacity:
    """Solve sum_i b**(-s w_i) = 1 for the unique positive root.

    The map f is strictly decreasing from m > 1 at s = 0.  The root is the
    one plain bisection finds: double a bracket until f < 1, then halve it
    (at most 200 times) until its ends are adjacent floats, and take the
    end where f is closer to 1.  The bisection is replayed with the help
    of a Newton estimate of the root: a step farther from the estimate
    than f's rounding can reach is ruled by the estimate, and only the
    steps near the root evaluate f.  If the final ends do not straddle 1,
    the estimate misled a step, and plain bisection runs instead.

    The root is solved for the weights scaled by a power of two that
    brings w_min near 1 (as far as the largest weight stays finite), so
    the root of the scaled problem sits a few doublings from 1 and the
    scale carries it back exactly; a capacity near the top of the float
    range (w_min near 1e-308) stays reachable.  When the w_min term
    b**(-s w_min) rounds to exactly 1 at that root, f has lost the other
    terms, and the root is solved again in log space, with the w_min term
    as -expm1, by bisection on the float bit patterns.  The returned
    capacity is converted to bits per unit weight; p*_i = b**(-s w_i)
    follows from the root.
    """
    w = spec.w
    ln_b = math.log(spec.b)
    # w * 2**shift is exact, and the scaled root is s * 2**-shift exactly
    shift = min(-math.frexp(float(w.min()))[1], 1024 - math.frexp(float(w.max()))[1])
    w_scaled = np.ldexp(w, shift)

    def f_minus_1(s: float) -> float:
        # np.add.reduce is ndarray.sum without its Python wrapper
        return float(np.add.reduce(np.exp(-s * w_scaled * ln_b))) - 1.0

    # Products s * w_i beyond the float range give exp(-inf) = 0 exactly,
    # which is the right term; only the overflow warning is noise.
    with np.errstate(over="ignore"):
        # Double from the power of two just below 1/w_min (capped to stay
        # finite), so the root is a few doublings away.  The bracket ends
        # stay powers of two, so bisection passes through the same states
        # as from a start at 1.
        hi = math.ldexp(1.0, min(-math.frexp(float(w_scaled.min()))[1], 1023))
        guess, margin = _newton_guess(w_scaled, ln_b)
        s = _bisection_root(f_minus_1, hi, guess, margin)
        if s is None:
            s = _bisection_root(f_minus_1, hi)
        if math.exp(-s * float(w_scaled.min()) * ln_b) == 1.0:
            s = _saturated_root(w_scaled, ln_b)

        c_scaled = s * math.log2(spec.b)
        c_bits = float(np.ldexp(c_scaled, shift))
        if not math.isfinite(c_bits):
            raise ValueError("weights too small: the capacity root is out of float range")
        p_star = np.exp2(-c_scaled * w_scaled)
    residual = abs(math.fsum(p_star.tolist()) - 1.0)
    if residual > ROOT_RESIDUAL_TOL:
        raise RuntimeError(f"capacity root residual {residual:.3e} above tolerance")
    # exp2 of nonpositive exponents, and the residual check is tighter than Pmf's
    return DncCapacity(C=c_bits, p_star=Pmf._exact(p_star), root_residual=residual)


def entropy_per_weight(p, spec: DncSpec) -> float:
    """H(p) divided by the average weight, in bits per unit weight; p is a
    Pmf or a plain probability vector."""
    arr = as_weights(p)
    if arr.size != spec.m:
        raise DimensionMismatchError(f"PMF has {arr.size} entries, channel has {spec.m}")
    h = entropy(arr)
    if h == 0.0:
        return 0.0
    return h / float(arr @ spec.w)


def weighted_target(p_star: Pmf, R: float) -> np.ndarray:
    """Elementwise p*_i ** R, the (unnormalized) target tilted by the
    achievable capacity fraction R.  R may exceed 1 by up to R_TOL, as the
    R that ``lec`` returns on a dyadic p* does through rounding."""
    if not 0.0 <= R <= 1.0 + R_TOL:
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
    rate divided by C, the C of the solve returned in ``solved``.
    """
    capacity = dnc_capacity(spec)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")

    R = 1.0
    last: "LecResult | None" = None
    for iteration in range(1, max_iter + 1):
        code, div = ghc(weighted_target(capacity.p_star, R))
        # the code's dyadic PMF, whose lengths CodeLengths has already checked
        rate = entropy_per_weight(np.exp2(-np.array(code.lengths, dtype=np.float64)), spec)
        r_new = rate / capacity.C
        last = LecResult(R=r_new, lengths=code, rate=rate, iterations=iteration, solved=capacity)
        if abs(div) <= tol or abs(r_new - R) <= R_TOL:
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
        block=k, capacity=capacity.C, lengths=code, kl_bits=d_total, d_over_k=d_total / k,
        rate=rate, lower_bound=capacity.C - d_total / (k * w_min), solved=capacity,
    )
