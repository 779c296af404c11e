"""Reference implementations kept only for the tests.

These are the heap-based ``ghc`` and ``huffman`` tree builders, the
per-element Kraft-sum fold and the entry-by-entry ``CodeLengths`` check
that the package used before its two-queue builder and histogram Kraft
check, the capacity bisection bracketed from 1, the Blahut-Arimoto loop
that built and validated its result on every iteration, the
brute-force oracle as it was before its scan was shared with
``brute_force_optima``, and the matcher as it was before its two per-bit
walks became one: a buffered bit source, a ``simulate`` that only counted
symbols, and the symbol list the CLI recovered by regenerating the bits and
parsing them again with ``modulate``.  The property tests compare the
package against them: same lengths (tie-breaks included), same divergences,
same reduced Kraft sums or errors, bit-identical capacities and
capacity-achieving PMFs, the same bits, symbols and counts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from geomhuffman import INF, CapacityResult, CodeLengths, Pmf, enumerate_full_codes, kl_divergence
from geomhuffman.errors import ConvergenceError, GuardExceededError
from geomhuffman.pmf import as_weights

MAX_CODEWORD_LEN = 64
ENUM_MAX_SYMBOLS = 12
ENUM_MAX_DEPTH = 12


def _assign_depths(kids, syms, root: int, m: int) -> list:
    lengths = [INF] * m
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if kids[node] is None:
            lengths[syms[node]] = depth
        else:
            a, b = kids[node]
            stack.append((a, depth + 1))
            stack.append((b, depth + 1))
    return lengths


def ghc_lengths(x) -> tuple:
    """Length tuple of the heap GHC build (no CodeLengths validation)."""
    arr = as_weights(x)
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
    if np.any(arr < 0.0):
        raise ValueError("weights must be nonnegative")
    u = np.where(arr > 0.0, -np.log2(np.where(arr > 0.0, arr, 1.0)), np.inf)
    perm = np.argsort(u, kind="stable")
    sorted_u = u[perm]
    finite = int(np.isfinite(sorted_u).sum())
    if finite == 0:
        raise ValueError("need at least one positive weight")
    m = int(arr.size)

    us: list = []
    ties: list = []
    kids: list = []
    syms: list = []
    heap = []
    for rank in range(finite):
        sym = int(perm[rank])
        us.append(float(sorted_u[rank]))
        ties.append(sym)
        kids.append(None)
        syms.append(sym)
        heap.append((-us[rank], -sym, rank))
    heapq.heapify(heap)

    while len(heap) >= 2:
        _, _, a = heapq.heappop(heap)
        entry_b = heapq.heappop(heap)
        b = entry_b[2]
        ua, ub = us[a], us[b]
        if ub <= ua - 2.0:
            heapq.heappush(heap, entry_b)
            continue
        uc = 0.5 * (ua + ub) - 1.0
        c = len(us)
        us.append(uc)
        ties.append(min(ties[a], ties[b]))
        kids.append((a, b))
        syms.append(-1)
        heapq.heappush(heap, (-uc, -ties[c], c))

    return tuple(_assign_depths(kids, syms, heap[0][2], m))


def huffman_lengths(x) -> tuple:
    """Length tuple of the heap Huffman build (no CodeLengths validation)."""
    arr = as_weights(x)
    if np.any(arr < 0.0):
        raise ValueError("weights must be nonnegative")
    if int((arr > 0.0).sum()) < 2:
        raise ValueError("Huffman coding needs at least 2 positive weights")
    m = int(arr.size)

    ws: list = []
    ties: list = []
    kids: list = []
    syms: list = []
    heap = []
    for sym in range(m):
        ws.append(float(arr[sym]))
        ties.append(sym)
        kids.append(None)
        syms.append(sym)
        heap.append((ws[sym], -sym, sym))
    heapq.heapify(heap)

    while len(heap) >= 2:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        c = len(ws)
        ws.append(ws[a] + ws[b])
        ties.append(min(ties[a], ties[b]))
        kids.append((a, b))
        syms.append(-1)
        heapq.heappush(heap, (ws[c], -ties[c], c))

    return tuple(_assign_depths(kids, syms, heap[0][2], m))


def _with_divergence(lengths: tuple, x) -> tuple:
    """CodeLengths and D(p || x), with p built entry by entry as 2.0**-l."""
    p = np.array([0.0 if e == INF else 2.0 ** -e for e in lengths], dtype=np.float64)
    return CodeLengths(lengths), kl_divergence(p, as_weights(x))


def ghc(x) -> tuple:
    return _with_divergence(ghc_lengths(x), x)


def huffman(x) -> tuple:
    return _with_divergence(huffman_lengths(x), x)


def _check_length(entry):
    if entry == INF:
        return INF
    if isinstance(entry, bool):
        raise ValueError("lengths must be integers or inf")
    if isinstance(entry, float):
        if not entry.is_integer():
            raise ValueError(f"length {entry!r} is not an integer or inf")
        entry = int(entry)
    if not isinstance(entry, (int, np.integer)):
        raise ValueError(f"length {entry!r} is not an integer or inf")
    if entry < 0:
        raise ValueError("lengths must be nonnegative")
    return int(entry)


@dataclass(frozen=True)
class KraftSum:
    """Exact dyadic rational numerator / 2**exponent, kept reduced."""

    numerator: int
    exponent: int

    @property
    def is_one(self) -> bool:
        return self.numerator == 1 and self.exponent == 0

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"


def plus_pow2(total: KraftSum, length: int) -> KraftSum:
    """Return total + 2**(-length), exactly, kept reduced."""
    num, exp = total.numerator, total.exponent
    if length >= exp:
        num = (num << (length - exp)) + 1
        exp = length
    else:
        num = num + (1 << (exp - length))
    while num and num % 2 == 0 and exp > 0:
        num //= 2
        exp -= 1
    if num == 0:
        exp = 0
    return KraftSum(num, exp)


def kraft_sum(lengths, max_len: int = MAX_CODEWORD_LEN) -> KraftSum:
    """The per-element exact fold: one reduced KraftSum per finite entry."""
    total = KraftSum(0, 0)
    for raw in lengths:
        entry = _check_length(raw)
        if entry == INF:
            continue
        if entry > max_len:
            raise GuardExceededError(f"length {entry} exceeds cap {max_len}")
        total = plus_pow2(total, entry)
    return total


def code_lengths(lengths) -> tuple:
    """The entries CodeLengths stored before the histogram check, or the
    exception it raised, checked one entry at a time."""
    entries = tuple(_check_length(e) for e in lengths)
    if not entries:
        raise ValueError("empty length vector")
    finite = [e for e in entries if e != INF]
    if not finite:
        raise ValueError("need at least one finite length")
    total = kraft_sum(finite, max_len=1024)
    if not total.is_one:
        raise ValueError(
            f"lengths {entries} have Kraft sum {total}, expected exactly 1"
        )
    return entries


def dnc_capacity_bits(w, b: float = 2.0) -> float:
    """Capacity in bits per unit weight, bisected on a bracket doubled from 1."""
    w = np.asarray(w, dtype=np.float64)
    ln_b = math.log(b)

    def f(s: float) -> float:
        return float(np.exp(-s * w * ln_b).sum())

    hi = 1.0
    for _ in range(200):
        if f(hi) < 1.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the capacity root")
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
    return s * math.log2(b)


def _per_input_divergence(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    mask = h > 0.0
    lg = np.zeros_like(h)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = h / r[:, None]
        np.log2(ratio, out=lg, where=mask)
    terms = np.where(mask, h * lg, 0.0)
    return terms.sum(axis=0)


def blahut_arimoto(dmc, tol: float = 1e-9, max_iter: int = 100_000) -> CapacityResult:
    """Blahut-Arimoto with a validated result built on every iteration."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    h = dmc.h
    p = np.full(dmc.m, 1.0 / dmc.m)
    result = None
    for _ in range(max_iter):
        r = h @ p
        div = _per_input_divergence(h, r)
        live = p > 0.0
        lower = float(p[live] @ div[live])
        gap = float(div.max() - lower)
        result = CapacityResult(C=lower, p_star=Pmf.normalized(p), achieved_tol=gap)
        if gap <= tol:
            return result
        top = float(div[live].max())
        if not np.isfinite(top):
            raise ConvergenceError(
                "capacity solver hit numerical underflow", best=result
            )
        scaled = np.where(live, p * np.exp2(div - top), 0.0)
        p = scaled / scaled.sum()
    raise ConvergenceError(
        f"capacity solver did not reach tol={tol} within {max_iter} iterations "
        f"(gap {result.achieved_tol:.3e})",
        best=result,
    )


@lru_cache(maxsize=None)
def _codes_table(m: int, l_max: int) -> tuple:
    return tuple(enumerate_full_codes(m, l_max))


def _multiset_divergence(multiset: tuple, xs_sorted: np.ndarray, log2_xs: np.ndarray) -> float:
    terms = []
    for j, length in enumerate(multiset):
        if xs_sorted[j] == 0.0:
            return INF
        terms.append(2.0 ** -length * (-length - log2_xs[j]))
    return math.fsum(terms)


def brute_force_min_kl(x, l_max=None, tie_tol: float = 1e-12):
    """The oracle with its own guards, sort and scan, and the tie branch
    that kept the lexicographically smaller of two near-equal multisets."""
    arr = as_weights(x)
    m = arr.size
    if np.any(arr < 0.0):
        raise ValueError("weights must be nonnegative")
    if not np.any(arr > 0.0):
        raise ValueError("need at least one positive weight")
    if l_max is None:
        l_max = max(m - 1, 0)
    if m > ENUM_MAX_SYMBOLS or l_max > ENUM_MAX_DEPTH:
        raise GuardExceededError(
            f"oracle guard: m <= {ENUM_MAX_SYMBOLS} and l_max <= {ENUM_MAX_DEPTH}"
        )

    order = np.argsort(-arr, kind="stable")
    xs = arr[order]
    with np.errstate(divide="ignore"):
        log2_xs = np.log2(xs)

    best_d = INF
    best_ms = None
    for ms in _codes_table(m, l_max):
        d = _multiset_divergence(ms, xs, log2_xs)
        if best_ms is None or d < best_d - tie_tol:
            best_d, best_ms = d, ms
        elif d <= best_d + tie_tol and ms < best_ms:
            best_ms = ms
            best_d = min(best_d, d)

    lengths = [INF] * m
    for j, length in enumerate(best_ms):
        lengths[int(order[j])] = length
    code = CodeLengths(tuple(lengths))
    return code, best_d


_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * np.uint64(0x9E3779B97F4A7C15)) & _MASK64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9) & _MASK64
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB) & _MASK64
    return z ^ (z >> np.uint64(31))


@dataclass
class BitSource:
    """The bit source that refilled a buffer of at least 1024 words."""

    seed: int
    position: int = 0
    _words_used: int = field(default=0, repr=False)
    _buffer: np.ndarray = field(default=None, repr=False)
    _offset: int = field(default=0, repr=False)

    def take(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("cannot take a negative number of bits")
        chunks = []
        got = 0
        while got < n:
            if self._buffer is None or self._offset >= self._buffer.size:
                count = max(1024, (n - got + 63) // 64)
                words = _splitmix64_words(self.seed, self._words_used, count)
                self._words_used += count
                self._buffer = np.unpackbits(words.astype(">u8").view(np.uint8))
                self._offset = 0
            grab = min(n - got, self._buffer.size - self._offset)
            chunks.append(self._buffer[self._offset : self._offset + grab])
            self._offset += grab
            got += grab
        self.position += n
        if not chunks:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(chunks)


def modulate(tree, bits) -> tuple:
    """The per-bit parse that tracked the index of the last emitted bit;
    bits is an array of 0s and 1s."""
    zero = [c[0] for c in tree.children]
    one = [c[1] for c in tree.children]
    root = tree.root
    node = root
    symbols: list = []
    consumed = 0
    for i, bit in enumerate(np.asarray(bits, dtype=np.uint8).tobytes()):
        node = one[node] if bit else zero[node]
        if node < 0:
            symbols.append(-node - 1)
            consumed = i + 1
            node = root
    return symbols, consumed


def simulate(tree, n_symbols: int, seed: int) -> tuple:
    """(counts, bits consumed, empirical PMF) of the counting walk over
    65536-bit chunks."""
    source = BitSource(seed)
    zero = [c[0] for c in tree.children]
    one = [c[1] for c in tree.children]
    root = tree.root
    counts = [0] * tree.lengths.m
    node = root
    emitted = 0
    consumed = 0
    walked = 0
    while emitted < n_symbols:
        for bit in source.take(1 << 16).tobytes():
            node = one[node] if bit else zero[node]
            walked += 1
            if node < 0:
                counts[-node - 1] += 1
                emitted += 1
                consumed = walked
                node = root
                if emitted == n_symbols:
                    break
    return tuple(counts), consumed, Pmf.normalized(np.array(counts, dtype=np.float64))


def replayed_symbols(tree, seed: int, bits_consumed: int) -> list:
    """The symbols the CLI printed: the first bits_consumed bits of the seed's
    stream, generated again and parsed again."""
    symbols, consumed = modulate(tree, BitSource(seed).take(bits_consumed))
    assert consumed == bits_consumed
    return symbols
