"""Discrete memoryless channels: mutual information, capacity via
alternating maximization, the divergence penalty bound, and block-extension
optimization with :func:`geomhuffman.approximators.ghc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approximators import ghc
from .dyadic import CodeLengths, DyadicPmf
from .errors import ConvergenceError, DimensionMismatchError, SupportConditionError
from .pmf import PRODUCT_CAP, Pmf, _check_block, _coordinate_sum, kl_divergence, product_pmf

COLUMN_TOL = 1e-9
CLAMP_THRESHOLD = 1e-12  # clamp_support zeroes entries below this


@dataclass(frozen=True, eq=False)
class DmcSpec:
    """Transition matrix h with n output rows and m input columns.

    h[j, i] = P(output j | input i); every column sums to 1.
    """

    h: np.ndarray

    def __post_init__(self):
        arr = np.array(self.h, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError("transition matrix must be 2-dimensional")
        n, m = arr.shape
        if n < 1 or m < 2:
            raise ValueError("need at least 1 output and 2 inputs")
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            raise ValueError("transition probabilities must lie in [0, 1]")
        sums = arr.sum(axis=0)
        bad = np.flatnonzero(np.abs(sums - 1.0) > COLUMN_TOL)
        if bad.size:
            raise ValueError(
                f"column {bad[0]} sums to {float(sums[bad[0]])!r}, expected 1 within {COLUMN_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "h", arr)

    @property
    def n(self) -> int:
        return int(self.h.shape[0])

    @property
    def m(self) -> int:
        return int(self.h.shape[1])


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Capacity estimate in bits/use with the maximizing input PMF and the
    solver's final upper/lower gap."""

    C: float
    p_star: Pmf
    achieved_tol: float


@dataclass(frozen=True, eq=False)
class BlockDmcReport:
    """Result of dyadic-input optimization on the k-fold product channel."""

    block: int
    capacity: float
    achieved_tol: float
    p_star: Pmf
    lengths: CodeLengths
    kl_bits: float
    d_over_k: float
    per_use_mi: float
    per_use_bound: float


def _check_dims(dmc: DmcSpec, p: Pmf):
    if p.m != dmc.m:
        raise DimensionMismatchError(
            f"PMF has {p.m} entries but channel has {dmc.m} inputs"
        )


def _divergence_buffers(h: np.ndarray) -> tuple:
    """The ``where``, ``lg`` and ``work`` arguments that
    :func:`_per_input_divergence` takes for h.

    Without a zero in h every log is taken, in place in ``work``.  With one,
    ``where`` is the mask h > 0 and ``lg`` a zeroed array whose entries
    outside the mask stay 0, so those terms add exactly +0.0.
    """
    work = np.empty_like(h)
    if h.all():
        return True, work, work
    return h > 0.0, np.zeros_like(h), work


def _per_input_divergence(
    h: np.ndarray, r_col: np.ndarray, where, lg: np.ndarray, work: np.ndarray, out=None
) -> np.ndarray:
    """D_i = sum_j h_ji log2(h_ji / r_j) for each input i, in bits.

    ``r_col`` holds r as an n x 1 column.  ``where``, ``lg`` and ``work``
    come from :func:`_divergence_buffers` and depend only on h, so a solver
    loop builds them once; ``out``, if given, receives D.  Terms with
    h_ji = 0 contribute 0; h_ji > 0 with r_j = 0 yields +inf.  The sum over
    j runs in row order, as ``work.sum(axis=0)`` does.  Calls must run
    under ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    np.divide(h, r_col, out=work)
    np.log2(work, out=lg, where=where)
    # h_ji * lg_ji is exactly +0.0 wherever h_ji = 0
    np.multiply(h, lg, out=work)
    return np.add.reduce(work, axis=0, out=out)


def _divergence_at(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """:func:`_per_input_divergence` for a single output PMF r."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _per_input_divergence(h, r[:, None], *_divergence_buffers(h))


def mutual_information(dmc: DmcSpec, p: Pmf) -> float:
    """I(p) = sum_i p_i sum_j h_ji log2(h_ji / r_j), in bits per use."""
    _check_dims(dmc, p)
    r = dmc.h @ p.probs
    div = _divergence_at(dmc.h, r)
    live = p.probs > 0.0
    return float(p.probs[live] @ div[live])


def blahut_arimoto(dmc: DmcSpec, tol: float = 1e-9, max_iter: int = 100_000) -> CapacityResult:
    """Capacity and capacity-achieving PMF by alternating maximization.

    Starts from the uniform input PMF (deterministic).  Each iteration
    computes r = h p and the divergences D_i = D(h_i || r); it stops when
    the gap max_i D_i - sum_i p_i D_i drops below tol, since that gap
    brackets the true capacity from above and below, and otherwise updates
    p_i <- p_i 2^(D_i - top) / sum, where top is the largest D_i over
    inputs with p_i > 0.  An input whose p_i reaches 0 stays at 0 and is
    left out of the sum and of top.

    The loop reuses its arrays from one iteration to the next and skips
    the masks while every p_i is positive; its iterates are bit for bit
    those of the plain loop kept in ``tests/reference.py``.  The validated
    result is built once, from the iterate whose gap it reports.  Where
    h p rounds to 0, as on a subnormal row, r is the smallest float, not 0
    as in the plain loop.  Raises ConvergenceError (carrying that result
    as the best iterate) if max_iter is hit first or the divergences stop
    being finite, as when h / r overflows; where that leaves the gap
    itself not finite, the error carries the iterate before.  The loop's
    overflows and underflows print no numpy warning.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    h = dmc.h
    n, m = h.shape
    where, lg, work = _divergence_buffers(h)
    r, div, scaled = np.empty(n), np.empty(m), np.empty(m)
    r_col = r[:, None]
    p, last = np.full(m, 1.0 / m), np.empty(m)
    before = None  # C and gap of the iterate in `last`
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            np.dot(h, p, out=r)
            _per_input_divergence(h, r_col, where, lg, work, out=div)
            dmax = float(np.maximum.reduce(div))
            if dmax == math.inf and not r.all():
                # an output whose mass rounds to 0 gets the smallest float
                np.maximum(r, 5e-324, out=r)
                _per_input_divergence(h, r_col, where, lg, work, out=div)
                dmax = float(np.maximum.reduce(div))
            if np.count_nonzero(p) == m:
                live = None
                lower = float(np.dot(p, div))
                top = dmax
            else:
                live = p > 0.0
                lower = float(p[live] @ div[live])
                top = float(div[live].max())
            gap = dmax - lower
            if gap <= tol:
                return CapacityResult(C=lower, p_star=Pmf.normalized(p), achieved_tol=gap)
            if not math.isfinite(top):
                if before is not None and not math.isfinite(gap):
                    # h / r overflowed: report the iterate before this one
                    p, (lower, gap) = last, before
                raise ConvergenceError(
                    "capacity solver hit numerical underflow",
                    best=CapacityResult(C=lower, p_star=Pmf.normalized(p), achieved_tol=gap),
                )
            before = lower, gap
            np.subtract(div, top, out=scaled)
            np.exp2(scaled, out=scaled)
            np.multiply(p, scaled, out=scaled)
            if live is not None:
                scaled[~live] = 0.0
            # the new iterate goes into the spare buffer; `last` then names
            # the one whose gap was just taken
            np.divide(scaled, np.add.reduce(scaled), out=last)
            p, last = last, p
    raise ConvergenceError(
        f"capacity solver did not reach tol={tol} within {max_iter} iterations "
        f"(gap {gap:.3e})",
        best=CapacityResult(C=lower, p_star=Pmf.normalized(last), achieved_tol=gap),
    )


def kkt_check(dmc: DmcSpec, p_star: Pmf, tol: float) -> bool:
    """True iff the per-input divergences are equal (within tol) on the
    support of p_star and no larger than that common value elsewhere."""
    _check_dims(dmc, p_star)
    r = dmc.h @ p_star.probs
    div = _divergence_at(dmc.h, r)
    live = p_star.probs > tol
    if not np.any(live):
        return False
    ref = float(p_star.probs[live] @ div[live]) / float(p_star.probs[live].sum())
    if np.any(np.abs(div[live] - ref) > tol):
        return False
    rest = div[~live]
    return not np.any(rest > ref + tol)


def mi_lower_bound(C: float, p: Pmf, p_star: Pmf) -> float:
    """The guaranteed mutual information C - D(p || p*), in bits per use.

    Requires p_i = 0 wherever p*_i = 0; otherwise the bound does not apply
    and a SupportConditionError is raised.
    """
    if p.m != p_star.m:
        raise DimensionMismatchError("p and p_star differ in length")
    violating = np.flatnonzero((p.probs > 0.0) & (p_star.probs == 0.0))
    if violating.size:
        raise SupportConditionError(
            f"p has mass on symbol {violating[0]} where p_star is zero"
        )
    return C - kl_divergence(p, p_star)


def clamp_support(p: Pmf) -> Pmf:
    """Zero out entries below CLAMP_THRESHOLD and renormalize.

    Solver outputs are never exactly zero; clamping makes the support
    condition meaningful before handing the PMF to ghc.
    """
    arr = np.where(p.probs < CLAMP_THRESHOLD, 0.0, p.probs)
    return Pmf.normalized(arr)


def _block_mutual_information(h: np.ndarray, p_block: np.ndarray, k: int) -> float:
    """Exact mutual information of input PMF p_block on the k-fold product
    channel, without materializing the product transition matrix.

    Uses I = sum_i p_i sum_j H_ji log2 H_ji + H(r): the first term splits
    per coordinate because the product channel factorizes, and r is
    computed by contracting h along each tensor axis in turn.
    """
    n, m = h.shape
    mask = h > 0.0
    lg = np.zeros_like(h)
    np.log2(h, out=lg, where=mask)
    phi = np.where(mask, h * lg, 0.0).sum(axis=0)  # per-input -H(output|input)

    term1 = _coordinate_sum(p_block, m, k, phi)

    out = p_block.reshape((m,) * k)
    for _ in range(k):
        # contract current axis 0 (an input) with h; output axis lands last
        out = np.tensordot(out, h, axes=([0], [1]))
    r = out.reshape(-1)
    rpos = r[r > 0.0]
    term2 = float(-(rpos * np.log2(rpos)).sum())
    return term1 + term2


def optimize_block_dmc(
    dmc: DmcSpec,
    k: int,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> BlockDmcReport:
    """Best dyadic PMF for k consecutive channel uses.

    Solves for the capacity-achieving PMF, clamps near-zero entries, runs
    ghc on its k-fold product, and reports the exact per-use mutual
    information of the resulting (generally non-product) dyadic PMF, which
    DyadicPmf.from_code gathers from the code's kept depths, along with
    the per-use penalty bound C - D/k.
    """
    _check_block(max(dmc.m, dmc.n), k, PRODUCT_CAP, "block channel would need")
    res = blahut_arimoto(dmc, tol=tol, max_iter=max_iter)
    p_star = clamp_support(res.p_star)
    target = product_pmf(p_star, k)
    code, d_total = ghc(target.probs)
    mi = _block_mutual_information(dmc.h, DyadicPmf.from_code(code).probs.probs, k)
    return BlockDmcReport(
        block=k,
        capacity=res.C,
        achieved_tol=res.achieved_tol,
        p_star=res.p_star,
        lengths=code,
        kl_bits=d_total,
        d_over_k=d_total / k,
        per_use_mi=mi / k,
        per_use_bound=res.C - d_total / k,
    )
