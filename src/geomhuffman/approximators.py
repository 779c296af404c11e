"""Dyadic approximation algorithms.

Three ways to turn a nonnegative weight vector (typically a PMF) into a
dyadic PMF given by codeword lengths:

* :func:`ghc` - bottom-up tree construction with a geometric-mean merge
  rule; minimizes D(p || x) over all dyadic PMFs and may drop symbols.
* :func:`huffman` - classical Huffman coding, included as the comparison
  baseline; it minimizes D(x || p), not D(p || x), and never drops symbols.
* :func:`gcc` - greedy floor-of-log length assignment truncated at exact
  Kraft equality; guarantees D(p || q) <= 1 bit for any PMF q.
"""

from __future__ import annotations

import numpy as np

from .dyadic import INF, CodeLengths, DyadicPmf
from .pmf import Pmf, _checked_weights, kl_divergence


def _two_queue_depths(keys: list, ties: list, merge, drop=None) -> list:
    """Leaf depths of the tree built by repeatedly combining the two nodes
    that pop first, in van Leeuwen's two-queue form.

    ``keys`` and ``ties`` (symbol indices) describe the leaves already in
    pop order: larger key first, and among equal keys the higher index
    first.  Each step pops node a, then node b; when ``drop(key_a, key_b)``
    holds, a is discarded (with its whole subtree) and b stays in place,
    otherwise both become children of a node keyed ``merge(key_a, key_b)``
    whose tie index is the smaller of theirs.  The rules must never give a
    merged node a larger key than an earlier one, so merged nodes form a
    FIFO; among equal keys a new node goes ahead of pending ones with a
    smaller tie index, which keeps the pop order total and deterministic.

    Returns depths per leaf, in the given order; dropped leaves get inf.
    """
    n = len(keys)
    keys = keys + [-INF]  # sentinel: a merged node always pops ahead of it
    ties = ties + [-1]
    qk: list = []  # merged queue: keys, tie indices, node ids; pending from j
    qt: list = []
    qn: list = []
    parent = [-1] * n  # node ids: leaves 0..n-1, merged nodes from n up
    i = j = tail = 0
    ki, ti = keys[0], ties[0]  # the next leaf
    c = n
    for _ in range(n - 1):  # each step removes one node
        if j < tail and (qk[j] > ki or (qk[j] == ki and qt[j] > ti)):
            a, ka, ta = qn[j], qk[j], qt[j]
            j += 1
        else:
            a, ka, ta = i, ki, ti
            i += 1
            ki, ti = keys[i], ties[i]
        if j < tail and (qk[j] > ki or (qk[j] == ki and qt[j] > ti)):
            kb = qk[j]
            if drop is not None and drop(ka, kb):
                continue
            b, tb = qn[j], qt[j]
            j += 1
        else:
            kb = ki
            if drop is not None and drop(ka, kb):
                continue
            b, tb = i, ti
            i += 1
            ki, ti = keys[i], ties[i]
        parent[a] = parent[b] = c
        parent.append(-1)
        kc = merge(ka, kb)
        tc = ta if ta < tb else tb
        if j < tail and qk[-1] == kc and qt[-1] < tc:
            pos = tail - 1
            while pos > j and qk[pos - 1] == kc and qt[pos - 1] < tc:
                pos -= 1
            qk.insert(pos, kc)
            qt.insert(pos, tc)
            qn.insert(pos, c)
        else:
            qk.append(kc)
            qt.append(tc)
            qn.append(c)
        tail += 1
        c += 1

    # parents have larger ids than their children: one reverse pass
    depth = [INF] * c
    depth[qn[j] if j < tail else i] = 0
    for node in range(c - 1, -1, -1):
        up = parent[node]
        if up >= 0:
            depth[node] = depth[up] + 1
    del depth[n:]
    return depth


def _code_and_divergence(order: np.ndarray, depths: list, arr: np.ndarray) -> tuple:
    """CodeLengths in symbol order from the depths of the first len(depths)
    symbols of order (the others get inf), and D(p || arr)."""
    lengths = [INF] * arr.size
    for sym, depth in zip(order.tolist(), depths):
        lengths[sym] = depth
    code = CodeLengths(tuple(lengths))
    return code, kl_divergence(DyadicPmf.from_code(code).probs, arr)


def _ghc_merge(ua: float, ub: float) -> float:
    return 0.5 * (ua + ub) - 1.0


def _ghc_drop(ua: float, ub: float) -> bool:
    return ub <= ua - 2.0


def _huffman_merge(ka: float, kb: float) -> float:
    return ka + kb


def ghc(x) -> tuple:
    """Minimize D(p || x) in bits over all dyadic PMFs p.

    Works on u_i = -log2(x_i).  Repeatedly takes the two largest u (the two
    smallest weights) u_a >= u_b and either

    * drops the u_a node entirely when u_b <= u_a - 2 (the second-smallest
      weight is at least four times the smallest), or
    * merges them into a parent with u' = (u_a + u_b)/2 - 1, the log-domain
      form of replacing the pair by twice their geometric mean.

    Merged u never increase: the next pair both have u <= u_b, so their
    parent has u'' <= u_b - 1 <= u'.  After one sort the build is therefore
    linear, with merged nodes in a FIFO beside the sorted leaves (van
    Leeuwen's two-queue method); the whole run is O(m log m) for the sort
    plus O(m).  Dropped nodes may be whole subtrees; every leaf beneath one
    gets length inf.  Among equal u the lower original symbol index ends up
    with the shorter (or equal) codeword, which keeps outputs deterministic.

    Returns (CodeLengths in original symbol order, divergence in bits).
    Zero-weight symbols always get length inf.
    """
    arr = _checked_weights(x)
    # u_i = -log2(x_i), +inf for zero weights, which sort last; the merge
    # rules use only differences of u, so tiny weights stay workable
    u = np.where(arr > 0.0, -np.log2(np.where(arr > 0.0, arr, 1.0)), np.inf)
    perm = np.argsort(u, kind="stable")
    finite = np.count_nonzero(np.isfinite(u))
    if finite == 0:
        raise ValueError("need at least one positive weight")
    # pop order: largest u first; among equal u the higher index pops
    # first (gets merged deeper), so the lower index wins
    order = perm[finite - 1::-1]
    depths = _two_queue_depths(u[order].tolist(), order.tolist(), _ghc_merge, _ghc_drop)
    return _code_and_divergence(order, depths, arr)


def huffman(x) -> tuple:
    """Classical Huffman lengths for weight vector x, merging the two
    smallest weights into their sum.  No symbol is dropped.

    The build shares :func:`ghc`'s two-queue builder, keyed on -x so that
    the smallest weight pops first.

    The reported divergence is D(p || x) for the induced dyadic p, for
    comparison with :func:`ghc`; it is not the quantity Huffman coding
    minimizes and is +inf when x contains zeros.
    """
    arr = _checked_weights(x)
    if int((arr > 0.0).sum()) < 2:
        raise ValueError("Huffman coding needs at least 2 positive weights")
    # pop order: smallest weight first, among equal weights the higher index
    order = (arr.size - 1) - np.argsort(arr[::-1], kind="stable")
    depths = _two_queue_depths((-arr[order]).tolist(), order.tolist(), _huffman_merge)
    return _code_and_divergence(order, depths, arr)


def _floor_neg_log2(q: np.ndarray) -> np.ndarray:
    # floor(-log2 q) via frexp: q = mant * 2**e with mant in [0.5, 1),
    # so -log2 q lies in (-e, -e + 1], integer exactly when mant == 0.5.
    mant, e = np.frexp(q)
    return np.maximum(np.where(mant == 0.5, 1 - e, -e), 0)


def gcc(q: Pmf) -> tuple:
    """Greedy floor-of-log dyadic approximation of a PMF.

    Sorts q descending, assigns l_i = floor(-log2 q_i) until the running
    Kraft sum hits exactly 1 at some index k, and drops everything after.
    The accumulation uses exact integer arithmetic: the running deficit is
    always an integer multiple of the next term, so the sum can never skip
    over 1, and a floating comparison would mis-terminate for large m.

    Every kept probability satisfies 2**(-l_i) >= q_i, which bounds the
    divergence by 1 bit.  Returns (CodeLengths in original order, D bits).
    """
    arr = q.probs
    order = np.argsort(-arr, kind="stable")
    order = order[arr[order] > 0.0]
    depths = []  # lengths of the kept symbols, in the order of ``order``
    units, scale = 0, 0  # the Kraft sum so far is units / 2**scale
    for length in _floor_neg_log2(arr[order]).tolist():
        if length > scale:
            units <<= length - scale
            scale = length
        units += 1 << (scale - length)
        if units > 1 << scale:
            raise RuntimeError(
                "internal consistency error: greedy Kraft sum overshot 1"
            )
        depths.append(length)
        if units == 1 << scale:
            break
    else:
        raise RuntimeError(
            "internal consistency error: exact Kraft equality never reached"
        )
    return _code_and_divergence(order, depths, arr)
