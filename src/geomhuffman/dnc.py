"""Memoryless discrete noiseless channels.

Symbols carry positive weights (costs); the figure of merit is entropy per
average weight, in bits per unit weight.  Capacity comes from a one-line
root equation, and the best dyadic input PMF from a fixed-point iteration
whose inner step is :func:`geomhuffman.approximators.ghc` on a tilted
capacity-achieving PMF.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .approximators import ghc
from .dyadic import CodeLengths, DyadicPmf
from .errors import ConvergenceError, DimensionMismatchError
from .pmf import Pmf, _coordinate_sum, as_weights, entropy, product_pmf

ROOT_RESIDUAL_TOL = 1e-12
NEWTON_STEPS = 60
NEWTON_STEP_TOL = 2.0**-30  # relative step at which Newton on the residual has converged
R_TOL = 1e-12  # lec's |dR| stop, and how far rounding may put its R = rate / C above 1


@dataclass(frozen=True, eq=False)
class DncSpec:
    """Positive symbol weights, and a log base b > 1 that C in bits ignores."""

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


_LN2 = math.log(2.0)
_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")
_INF_BITS = 0x7FF0000000000000  # the bit pattern of inf; that of 0.0 is 0


def _log_residual(s: float, w_min: float, w_rest: np.ndarray) -> tuple:
    """r(s) = log2(sum_rest 2**(-s w_i)) - log2(1 - 2**(-s w_min)), and dr/ds.

    r falls from +inf at s = 0 to -inf, is convex, and is 0 where
    sum_i 2**(-s w_i) = 1.  It keeps every term at every spread, where the
    sum itself rounds near 1 and loses the small ones.
    """
    if s == 0.0:
        return math.inf, -math.inf
    a = -s * w_rest  # -inf where s * w_i overflows: a term of exactly 0
    top = float(np.maximum.reduce(a))
    if top == -math.inf:
        return -math.inf, -math.inf
    e = np.exp2(a - top)
    total = float(np.add.reduce(e))
    # 1 - 2**(-s w_min) is -expm1(-y) for y = s w_min ln 2, and y itself to
    # double precision where y is not a normal float
    y = s * w_min * _LN2
    if y > 1e-300:
        tail, tail_slope = math.log2(-math.expm1(-y)), w_min * math.exp(-y) / -math.expm1(-y)
    else:
        tail, tail_slope = math.log2(s) + math.log2(w_min) + math.log2(_LN2), 1.0 / (s * _LN2)
    return top + math.log2(total) - tail, -float(e @ w_rest) / total - tail_slope


def _root(w_scaled: np.ndarray) -> float:
    """Of the two adjacent floats around the root of r, the one with the
    smaller |r|.

    Newton starts at the largest log2(k) / (mean of the k smallest
    weights), where those k terms alone sum to at least 1 (Jensen), so
    below the root, and climbs the convex decreasing r from the left.
    Once its step is below NEWTON_STEP_TOL of s, a bracket grows from the
    bit pattern of s by 1, 2, 4, ... patterns until r changes sign across
    it; otherwise it spans 0.0 to inf.  Bisection on the bit patterns,
    which order like the nonnegative floats, ends at adjacent floats.  A
    root above the largest float is returned as inf.
    """
    i = int(np.argmin(w_scaled))
    w_min, w_rest = float(w_scaled[i]), np.delete(w_scaled, i)

    def residual(bits: int) -> float:
        return _log_residual(_F64.unpack(_I64.pack(bits))[0], w_min, w_rest)[0]

    (lo, r_lo), (hi, r_hi) = (0, math.inf), (_INF_BITS, -math.inf)
    k = np.arange(1, w_scaled.size + 1)
    s = float(np.max(k * np.log2(k) / np.cumsum(np.sort(w_scaled))))
    for _ in range(NEWTON_STEPS):
        r, slope = _log_residual(s, w_min, w_rest)
        step = r / slope
        s -= step
        if not 0.0 < s < math.inf:
            break
        if abs(step) <= NEWTON_STEP_TOL * s:
            start = end = _I64.unpack(_F64.pack(s))[0]
            r_start = r_end = residual(start)
            step = 1 if r_start >= 0.0 else -1
            while (r_end >= 0.0) == (r_start >= 0.0):
                near, r_near = end, r_end
                end = min(max(start + step, 0), _INF_BITS)
                r_end = residual(end)
                step *= 2
            (lo, r_lo), (hi, r_hi) = sorted([(near, r_near), (end, r_end)])
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        r_mid = residual(mid)
        if r_mid >= 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    if hi == _INF_BITS and r_lo > 0.0:
        return math.inf  # r is still positive at the largest float
    return _F64.unpack(_I64.pack(lo if abs(r_lo) <= abs(r_hi) else hi))[0]


def dnc_capacity(spec: DncSpec) -> DncCapacity:
    """Solve sum_i 2**(-C w_i) = 1 for its unique positive root C, the
    capacity in bits per unit weight, with p*_i = 2**(-C w_i).

    Neither depends on the base b of ``spec``, which only names the units
    of the channel.  :func:`_root` solves in log space for the weights
    scaled by a power of two that brings w_min near 1 (as far as w_max
    stays finite); the scale carries the root back exactly, so a capacity
    near the top of the float range (w_min near 1e-308) stays reachable.
    """
    w = spec.w
    # w * 2**shift is exact, and the scaled root is C * 2**-shift exactly
    shift = min(-math.frexp(float(w.min()))[1], 1024 - math.frexp(float(w.max()))[1])
    w_scaled = np.ldexp(w, shift)
    # s * w_i beyond the float range gives the term exp2(-inf) = 0, exactly right
    with np.errstate(over="ignore"):
        s = _root(w_scaled)
        c_bits = float(np.ldexp(s, shift))
        if not math.isfinite(c_bits):
            raise ValueError("weights too small: the capacity root is out of float range")
        p_star = np.exp2(-s * w_scaled)
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

    Starting from R = 1, each pass builds the code of ghc(p*^R), takes its
    dyadic PMF p from DyadicPmf.from_code and updates R = rate(p) / C.
    The divergence D(p || p*^R), taken against the tilt that built p,
    equals (R - R_new) * C * average_weight: it is negative while the new
    code still raises the rate and vanishes exactly at the fixed point.  Iteration stops when R stops moving (|dR| <= R_TOL,
    which also covers exact ties between distinct optimal codes) or, from
    the second pass on, when |D| falls below tol.  The first pass starts
    from R = 1, which is no code's rate, so its D says nothing about the
    fixed point: on two weights 15 or more decades apart it is the tiny
    C * average_weight of a one-leaf code, and rounds to 0 from 17
    decades.  From the second pass on R is the last code's own rate,
    which GHC's code at R can lower only through a tie it breaks the
    other way; the last code is then the fixed point and is returned.
    The returned R is the returned code's own rate divided by C, the C
    of the solve returned in ``solved``.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    capacity = dnc_capacity(spec)

    R = 1.0
    last: "LecResult | None" = None
    for iteration in range(1, max_iter + 1):
        code, div = ghc(weighted_target(capacity.p_star, R))
        rate = entropy_per_weight(DyadicPmf.from_code(code).probs, spec)
        r_new = rate / capacity.C
        result = LecResult(R=r_new, lengths=code, rate=rate, iterations=iteration, solved=capacity)
        if abs(r_new - R) <= R_TOL:
            return result
        if last is not None:
            if r_new < R:
                return last
            if abs(div) <= tol:
                return result
        last, R = result, r_new
    raise ConvergenceError(
        f"LEC did not converge within {max_iter} iterations", best=last
    )


def optimize_block_dnc(spec: DncSpec, k: int) -> BlockDncReport:
    """Best dyadic PMF over blocks of k symbols.

    The block PMF is the dyadic PMF of ghc's code on the k-fold product of
    p*, from DyadicPmf.from_code.  Block weights are sums of the component
    weights in lexicographic tuple order; they are never materialized, the
    average weight comes from the per-coordinate marginals of the block
    PMF.  The reported lower bound is C - D / (k * w_min).
    """
    capacity = dnc_capacity(spec)
    target = product_pmf(capacity.p_star, k)
    code, d_total = ghc(target.probs)
    p = DyadicPmf.from_code(code).probs

    avg_weight = _coordinate_sum(p.probs, spec.m, k, spec.w)
    # + 0.0 turns the -0.0 entropy of a single-leaf code into 0.0
    rate = entropy(p) / avg_weight + 0.0

    w_min = float(spec.w.min())
    return BlockDncReport(
        block=k, capacity=capacity.C, lengths=code, kl_bits=d_total, d_over_k=d_total / k,
        rate=rate, lower_bound=capacity.C - d_total / (k * w_min), solved=capacity,
    )
