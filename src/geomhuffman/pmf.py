"""Finite probability vectors and the information measures on them.

All entropies and divergences are reported in bits (log base 2).
Divergence targets may be unnormalized nonnegative vectors, in which case
the divergence can be negative or +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GuardExceededError

SUM_TOL = 1e-9
PRODUCT_CAP = 1 << 24  # max number of entries a product PMF may hold


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability vector: entries >= 0 and summing to 1 within SUM_TOL.

    Inputs outside the sum tolerance are rejected; use :meth:`normalized`
    to renormalize explicitly.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.probs)
        if arr.size < 1:
            raise ValueError("a PMF needs at least one entry")
        if not np.all(np.isfinite(arr)):
            raise ValueError("PMF entries must be finite")
        if np.any(arr < 0.0):
            raise ValueError("PMF entries must be nonnegative")
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"PMF entries sum to {total!r}, expected 1 within {SUM_TOL}")
        object.__setattr__(self, "probs", arr)

    @property
    def m(self) -> int:
        return int(self.probs.size)

    @classmethod
    def normalized(cls, values) -> "Pmf":
        """Build a Pmf from a nonnegative vector, dividing by its sum.

        The input is checked once.  The quotients then need no second
        check: each lies in [0, 1] (the rounded sum of nonnegative entries
        is at least the largest one) and they sum to 1 within rounding.
        The one exception is a sum that overflows to inf, which makes every
        quotient 0; it is rejected as the constructor rejects a zero sum.
        """
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        if arr.size < 1:
            raise ValueError("a PMF needs at least one entry")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite and nonnegative")
        total = arr.sum()
        if total <= 0.0:
            raise ValueError("cannot normalize a vector with zero sum")
        if total == math.inf:
            raise ValueError(f"PMF entries sum to 0.0, expected 1 within {SUM_TOL}")
        return cls._exact(arr / total)

    @classmethod
    def _exact(cls, arr: np.ndarray) -> "Pmf":
        """A Pmf over a fresh 1-D float array whose entries the caller has
        already proved finite, nonnegative and summing to 1 within SUM_TOL;
        the array is frozen in place, neither copied nor checked again."""
        arr.setflags(write=False)
        pmf = object.__new__(cls)
        object.__setattr__(pmf, "probs", arr)
        return pmf

    @classmethod
    def uniform(cls, m: int) -> "Pmf":
        return cls(np.full(m, 1.0 / m))


def as_weights(x) -> np.ndarray:
    """Return the raw float vector behind a Pmf or an array-like."""
    if isinstance(x, Pmf):
        return x.probs
    return np.asarray(x, dtype=np.float64).reshape(-1)


def _checked_weights(x) -> np.ndarray:
    """The float vector behind x; every entry must be finite and >= 0."""
    arr = as_weights(x)
    if not np.isfinite(arr).all():
        raise ValueError("weights must be finite")
    if (arr < 0.0).any():
        raise ValueError("weights must be nonnegative")
    return arr


def entropy(p: Pmf) -> float:
    """Shannon entropy in bits, with the 0*log(0) = 0 convention."""
    arr = as_weights(p)
    pos = arr[arr > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def kl_divergence(p: Pmf, x) -> float:
    """D(p || x) = sum over p_i > 0 of p_i * log2(p_i / x_i), in bits.

    Returns +inf when p puts mass where x is zero.  x may be unnormalized
    (nonnegativity of the result is only guaranteed for normalized x).
    """
    parr = as_weights(p)
    xarr = as_weights(x)
    if parr.size != xarr.size:
        raise DimensionMismatchError(
            f"dimension mismatch: p has {parr.size} entries, x has {xarr.size}"
        )
    mask = parr > 0.0
    ps = parr[mask]
    xs = xarr[mask]
    if np.any(xs == 0.0):
        return math.inf
    # difference form avoids overflow of p/x for denormal targets
    return float((ps * (np.log2(ps) - np.log2(xs))).sum())


def _coordinate_sum(p_block: np.ndarray, m: int, k: int, values: np.ndarray) -> float:
    """sum over the k coordinates of E[values[x_axis]] under a block PMF.

    p_block holds m**k entries in :func:`product_pmf`'s lexicographic
    order; each coordinate's marginal is taken by summing out the other
    axes, and the k expectations are added in axis order.
    """
    tensor = p_block.reshape((m,) * k)
    total = 0.0
    for axis in range(k):
        marginal = tensor.sum(axis=tuple(a for a in range(k) if a != axis))
        total += float(marginal @ values)
    return total


def _check_block(base: int, k: int, cap: int, what: str):
    """Reject a block length k < 1, or one whose base**k entries exceed cap.

    For base >= 2, base**k > cap as soon as k > cap.bit_length(), so a huge
    k fails without the power being formed for the comparison; the message
    gives the count in full below 4000 digits and as ``base**k`` above.
    """
    if k < 1:
        raise ValueError("block length k must be >= 1")
    if base < 2 or k <= cap.bit_length():
        size = base ** k
        if size <= cap:
            return
    elif k * math.log10(base) < 4000:
        size = base ** k
    else:
        size = f"{base}**{k}"
    raise GuardExceededError(f"{what} {size} entries, cap is {cap}")


def product_pmf(p: Pmf, k: int) -> Pmf:
    """k-fold product PMF over m**k tuples in lexicographic order, at most
    PRODUCT_CAP of them.

    The first symbol of a tuple is the most significant index.  The result
    is renormalized by its own sum (a factor within k*SUM_TOL of 1) so that
    accumulated rounding never trips the PMF sum check.
    """
    _check_block(p.m, k, PRODUCT_CAP, "product PMF would hold")
    out = p.probs
    for _ in range(k - 1):
        out = np.kron(out, p.probs)
    return Pmf.normalized(out)
