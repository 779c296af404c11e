"""Dyadic approximation algorithms.

Three ways to turn a nonnegative weight vector (typically a PMF) into a
dyadic PMF given by codeword lengths:

* :func:`ghc` - bottom-up tree construction with a geometric-mean merge
  rule; minimizes D(p || x) over all dyadic PMFs and may drop symbols.
* :func:`huffman` - classical Huffman coding, included as the comparison
  baseline; it minimizes D(x || p), not D(p || x), and never drops symbols.
* :func:`gcc` - greedy floor-of-log length assignment truncated at exact
  Kraft equality; guarantees D(p || q) <= 1 bit for any PMF q.

ghc and huffman share one two-queue builder that pops the smallest key
first: ghc keys on log2 x, huffman on x.
"""

from __future__ import annotations

import numpy as np

from .dyadic import _DEPTH_PROBS, INF, CodeLengths
from .pmf import Pmf, _checked_weights, kl_divergence

# from this many sorted leaves up, ghc and huffman build in batched rounds;
# below it the scalar loop is faster (on Dirichlet weights, one Xeon core,
# the whole ghc call breaks even between 1024 and 2048 leaves)
BATCH_MIN_LEAVES = 2048
# a batched round needs this many more nodes than a and b, in the leaves or
# in the queue, below its key bound; a smaller one is a scalar step
_BATCH_RUN = 16


def _rounds_depths(rounds: list, root: int, c: int, n: int) -> np.ndarray:
    """Int64 depths of the n leaves among a build's c nodes, by one reverse
    pass over its rounds of (first parent id, children in pair order), as
    parents have larger ids than their children.  A dropped node keeps the
    start value -c; its subtree is fewer than c levels deep, so every leaf
    beneath it ends negative too."""
    depth = np.full(c, -c, np.int64)
    depth[root] = 0
    dv = memoryview(depth)
    for first, kids in reversed(rounds):
        if type(kids) is tuple:
            dv[kids[0]] = dv[kids[1]] = dv[first] + 1
        else:
            depth[kids] = np.repeat(depth[first:first + kids.size // 2], 2) + 1
    return depth[:n]


def _two_queue_depths(keys: list, ties: list, merge, drop) -> np.ndarray:
    """Leaf depths of the tree built by repeatedly combining the two nodes
    that pop first, in van Leeuwen's two-queue form.

    ``keys`` and ``ties`` (symbol indices) describe the leaves already in
    pop order: smaller key first, and among equal keys the higher index
    first.  Each step pops node a, then node b; when ``drop(key_a, key_b)``
    holds, a is discarded (with its whole subtree) and b stays in place,
    otherwise both become children of a node keyed ``merge(key_a, key_b)``
    whose tie index is the smaller of theirs.  The rules must never give a
    merged node a smaller key than an earlier one, so merged nodes form a
    FIFO; among equal keys a new node goes ahead of pending ones with a
    smaller tie index, which keeps the pop order total and deterministic.

    Returns int64 depths per leaf in the given order, negative if dropped.
    """
    n = len(keys)
    keys = keys + [INF]  # sentinel: a merged node always pops ahead of it
    ties = ties + [-1]
    qk: list = []  # merged queue: keys, tie indices, node ids; pending from j
    qt: list = []
    qn: list = []
    rounds = []  # (parent id, its children); leaves 0..n-1, merged from n up
    i = j = tail = 0
    ki, ti = keys[0], ties[0]  # the next leaf
    c = n
    for _ in range(n - 1):  # each step removes one node
        if j < tail and (qk[j] < ki or (qk[j] == ki and qt[j] > ti)):
            a, ka, ta = qn[j], qk[j], qt[j]
            j += 1
        else:
            a, ka, ta = i, ki, ti
            i += 1
            ki, ti = keys[i], ties[i]
        if j < tail and (qk[j] < ki or (qk[j] == ki and qt[j] > ti)):
            # GHC never drops a against a merged b: b's children x <= y popped
            # before a, so kb = (x + y)/2 + 1 <= ka + 1 < ka + 2, rounded too
            b, kb, tb = qn[j], qk[j], qt[j]
            j += 1
        else:
            if drop is not None and drop(ka, ki):
                continue
            b, kb, tb = i, ki, ti
            i += 1
            ki, ti = keys[i], ties[i]
        rounds.append((c, (a, b)))
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

    return _rounds_depths(rounds, qn[j] if j < tail else i, c, n)


def _batched_depths(keys: np.ndarray, ties: np.ndarray, merge, drop) -> np.ndarray:
    """:func:`_two_queue_depths` replayed in rounds of numpy steps, with the
    same depths, negative for dropped leaves.

    A round pops the first two pending nodes a and b.  When the drop rule
    holds, a goes, as in one scalar step.  Otherwise their parent's key
    kc = merge(ka, kb) bounds every key the round creates, since merged keys
    never shrink, so every pending node keyed below kc pops before any of
    them.  Those nodes, a prefix of the leaves and one of the queue, are
    put in pop order and paired off in that order; an odd last node stays
    pending.  No pair among them meets GHC's drop rule, since they lie in
    [ka, kc), a span below 2.  The parents join the queue, whose run of
    keys equal to the first new one is then put in tie order, as the
    scalar insert keeps it.  The rounds, in the scalar loop's form, go
    through the same reverse pass, :func:`_rounds_depths`.

    A round is batched only when the leaves or the queue hold more than
    _BATCH_RUN nodes below kc besides a and b, so a and b lie below kc
    too; a smaller round would not pay for its numpy calls and merges a
    and b alone, as one scalar step.  So does every round where kc ties
    b's key, as zero Huffman weights give.
    """
    n = keys.size
    # sentinels, as in the scalar loop, past the leaves and in the queue's
    # free slots, far enough for the look ahead by _BATCH_RUN
    pad = _BATCH_RUN + 1
    keys = np.concatenate((keys, np.full(pad, INF)))
    ties = np.concatenate((ties, np.full(pad, -1, ties.dtype)))
    qkey, qtie, qnode = np.full(n + pad, INF), np.full(n + pad, -1), np.empty(n + pad, np.int64)
    # the scalar steps read and write through memoryviews, as Python numbers
    lk, lt, qk, qt, qn = map(memoryview, (keys, ties, qkey, qtie, qnode))
    rounds = []  # (first parent id, children in pair order)
    i = j = tail = 0
    c = n
    while n - i + tail - j > 1:
        i0, j0 = i, j
        if qk[j] < lk[i] or (qk[j] == lk[i] and qt[j] > lt[i]):
            a, ka, ta = qn[j], qk[j], qt[j]
            j += 1
        else:
            a, ka, ta = i, lk[i], lt[i]
            i += 1
        if qk[j] < lk[i] or (qk[j] == lk[i] and qt[j] > lt[i]):
            b, kb, tb = qn[j], qk[j], qt[j]
            j += 1
        else:
            b, kb, tb = i, lk[i], lt[i]
            i += 1
        if drop is not None and drop(ka, kb):
            i, j = (i0, j0 + 1) if a >= n else (i0 + 1, j0)  # b stays
            continue
        kc = merge(ka, kb)
        if lk[i + _BATCH_RUN] >= kc and qk[j + _BATCH_RUN] >= kc:
            tc = ta if ta < tb else tb
            rounds.append((c, (a, b)))
            unordered = j < tail and qk[tail - 1] == kc and qt[tail - 1] < tc
            qk[tail], qt[tail], qn[tail] = kc, tc, c
            pairs = 1
        else:
            i, j = i0, j0
            nl = int(np.searchsorted(keys, kc)) - i
            nq = int(np.searchsorted(qkey[:tail], kc)) - j
            sk = np.concatenate((keys[i:i + nl], qkey[j:j + nq]))
            st = np.concatenate((ties[i:i + nl], qtie[j:j + nq]))
            sn = np.concatenate((np.arange(i, i + nl), qnode[j:j + nq]))
            if nl and nq:
                pop = np.lexsort((-st, sk))  # key ascending, then tie descending
                sk, st, sn = sk[pop], st[pop], sn[pop]
            pairs = sk.size // 2
            kids = sn[:2 * pairs]
            from_leaves = int(np.count_nonzero(kids < n))
            i += from_leaves
            j += 2 * pairs - from_leaves
            rounds.append((c, kids))
            new = slice(tail, tail + pairs)
            qkey[new] = merge(sk[0:2 * pairs:2], sk[1:2 * pairs:2])
            qtie[new] = np.minimum(st[0:2 * pairs:2], st[1:2 * pairs:2])
            qnode[new] = np.arange(c, c + pairs)
            unordered = True
        if unordered:
            # put the queue's equal-key run at the tail in tie order, as
            # one scalar insert after another would have kept it
            start = max(j, int(np.searchsorted(qkey[:tail], qkey[tail])))
            end = tail + pairs
            rk, rt = qkey[start:end], qtie[start:end]
            if np.any((rk[1:] == rk[:-1]) & (rt[1:] > rt[:-1])):
                pop = np.lexsort((-rt, rk)) + start
                for arr in (qkey, qtie, qnode):
                    arr[start:end] = arr[pop]
        c += pairs
        tail += pairs

    return _rounds_depths(rounds, qn[j] if j < tail else i, c, n)


def _tree_depths(keys: np.ndarray, ties: np.ndarray, merge, drop) -> np.ndarray:
    """Int64 leaf depths of the two-queue build, negative where dropped: the
    batched rounds' from BATCH_MIN_LEAVES leaves up, the scalar loop's below."""
    if keys.size >= BATCH_MIN_LEAVES:
        return _batched_depths(keys, ties, merge, drop)
    return _two_queue_depths(keys.tolist(), ties.tolist(), merge, drop)


def _code_and_divergence(order: np.ndarray, depths: np.ndarray, arr: np.ndarray) -> tuple:
    """CodeLengths in symbol order from the int64 depths of the symbols of
    order, negative where dropped, and D(p || arr) for the code's
    probabilities p = 2**-l.

    The depths are scattered into one symbol-order array, -1 where dropped,
    which CodeLengths._from_depths checks and p is gathered by.
    """
    d = np.full(arr.size, -1, np.int64)
    d[order] = np.maximum(depths, -1)
    return CodeLengths._from_depths(d), kl_divergence(_DEPTH_PROBS[d], arr)


def _ghc_merge(va: float, vb: float) -> float:
    return 0.5 * (va + vb) + 1.0


def _ghc_drop(va: float, vb: float) -> bool:
    return vb >= va + 2.0


def _huffman_merge(ka: float, kb: float) -> float:
    return ka + kb


def _pop_order(keys: np.ndarray) -> np.ndarray:
    """Indices of keys in pop order: smaller key first, and among equal
    keys the higher index first."""
    return (keys.size - 1) - np.argsort(keys[::-1], kind="stable")


def ghc(x) -> tuple:
    """Minimize D(p || x) in bits over all dyadic PMFs p.

    Works on v_i = log2(x_i).  Repeatedly takes the two smallest v (the two
    smallest weights) v_a <= v_b and either

    * drops the v_a node entirely when v_b >= v_a + 2 (the second-smallest
      weight is at least four times the smallest), or
    * merges them into a parent with v' = (v_a + v_b)/2 + 1, the log-domain
      form of replacing the pair by twice their geometric mean.

    Merged v never decrease: the next pair both have v >= v_b, so their
    parent has v'' >= v_b + 1 >= v'.  After one sort the build is therefore
    linear, with merged nodes in a FIFO beside the sorted leaves (van
    Leeuwen's two-queue method); the whole run is O(m log m) for the sort
    plus O(m).  Below BATCH_MIN_LEAVES kept symbols the build is one
    scalar loop; from there up it runs in batched rounds, each pairing in
    a few numpy steps every pending node that pops before the round's
    first parent could, with the same lengths.  Either way the depths are
    one int64 array from the build to the code, whose exact Kraft check
    walks their histogram and which keeps them; only the lengths tuple is
    built per symbol.  Dropped nodes may be whole subtrees; every leaf
    beneath one gets length inf.  Among equal v the lower original symbol
    index ends up with the shorter (or equal) codeword, which keeps outputs
    deterministic.

    Returns (CodeLengths in original symbol order, divergence in bits).
    Zero-weight symbols always get length inf.
    """
    arr = _checked_weights(x)
    positive = arr > 0.0
    finite = np.count_nonzero(positive)
    if finite == 0:
        raise ValueError("need at least one positive weight")
    # v_i = log2(x_i), -inf for zero weights, which pop first and are left
    # out; the merge rules use only differences of v, so tiny weights stay
    # workable.  Among equal v the higher index pops first (gets merged
    # deeper), so the lower index wins
    v = np.where(positive, np.log2(np.where(positive, arr, 1.0)), -INF)
    order = _pop_order(v)[arr.size - finite:]
    depths = _tree_depths(v[order], order, _ghc_merge, _ghc_drop)
    return _code_and_divergence(order, depths, arr)


def huffman(x) -> tuple:
    """Classical Huffman lengths for weight vector x, merging the two
    smallest weights into their sum.  No symbol is dropped.

    The build shares :func:`ghc`'s two-queue builder, keyed on x, its
    choice between the scalar loop and the batched rounds by the number of
    symbols, and its one int64 depth array from the build to the code.

    The reported divergence is D(p || x) for the induced dyadic p, for
    comparison with :func:`ghc`; it is not the quantity Huffman coding
    minimizes and is +inf when x contains zeros.
    """
    arr = _checked_weights(x)
    if int((arr > 0.0).sum()) < 2:
        raise ValueError("Huffman coding needs at least 2 positive weights")
    order = _pop_order(arr)
    depths = _tree_depths(arr[order], order, _huffman_merge, None)
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
    The lengths never fall along that order, so the cutoff is found by a
    walk over their histogram, one level at a time, in exact integers:
    before level l the Kraft deficit is an integer multiple of 2**-l,
    ``need`` level-l leaves, so the sum can never skip over 1 (a floating
    comparison would mis-terminate for large m).  The first level that
    holds at least ``need`` symbols ends the code: every symbol above it
    is kept, and of its own symbols the first ``need`` in the order, so
    only that level is sorted.

    A PMF summing to 1 only within SUM_TOL, as q_i = 2**-i (1 - e_i) can,
    may keep every symbol short of Kraft equality; then its deepest
    codewords are shortened one level at a time, the most probable first,
    each filling one leaf of the deficit, until the code is full.

    Every kept probability satisfies 2**(-l_i) >= q_i, which bounds the
    divergence by 1 bit.  Returns (CodeLengths in original order, D bits).
    """
    arr = q.probs
    positive = arr > 0.0
    lengths = _floor_neg_log2(arr)
    need = 1  # the Kraft deficit, in leaves of the current level
    for level, count in enumerate(np.bincount(lengths[positive]).tolist()):
        if count >= need:
            break
        need = 2 * (need - count)
    else:
        kept = np.flatnonzero(positive)
        lengths = lengths[kept]
        for level in range(level, 0, -1):
            need //= 2  # now in leaves of this level, one per shortened codeword
            at = np.flatnonzero(lengths == level)
            at = at[np.argsort(-arr[kept[at]], kind="stable")[:need]]
            lengths[at] -= 1
            need -= at.size
            if not need:
                return _code_and_divergence(kept, lengths, arr)
    ends = np.flatnonzero(positive & (lengths == level))
    ends = ends[np.argsort(-arr[ends], kind="stable")[:need]]
    kept = np.concatenate((np.flatnonzero(positive & (lengths < level)), ends))
    return _code_and_divergence(kept, lengths[kept], arr)
