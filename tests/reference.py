"""Reference implementations kept only for the tests.

These are the heap-based ``ghc`` and ``huffman`` tree builders, the
per-symbol greedy cutoff of ``gcc``, the per-element Kraft-sum fold,
``Pmf.normalized`` as it was when it checked its quotients a second time
through the constructor, the entry-by-entry ``CodeLengths`` check that the package used before its
two-queue builder, histogram walk and histogram Kraft check, the LEC loop that validated each code's dyadic PMF (on the
package's own capacity solve), the Blahut-Arimoto loop that built and
validated its result on every iteration, the brute-force oracle as it was before its scan was shared
with ``brute_force_optima``, and the matcher as it was before its two
per-bit walks became one: a buffered bit source, a ``simulate`` that only
counted symbols, and the symbol list the CLI recovered by regenerating the
bits and parsing them again with ``modulate``, and the CLI's report
serializer as it was before lists of exact ints went through one C-level
call, and the code tree builder that grew a node table one codeword bit at
a time, whose table the reference matcher walks; and ``dematch`` as it was
before it read its symbol text into one int64 array and checked and
gathered codewords with array operations: one ``int()`` per token and one
Python step per symbol.  The property tests
compare the package against them: same lengths (tie-breaks included), same
divergences, same reduced Kraft sums or errors, bit-identical DMC
capacities, capacity-achieving PMFs and LEC fixed points, the same bits,
symbols and counts, the same report bytes, the same accepted trees and
error types for codeword lists, and the same ``dematch`` exit codes,
stdout and stderr.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from geomhuffman import (
    INF,
    CapacityResult,
    CodeLengths,
    DncSpec,
    DyadicPmf,
    LecResult,
    Pmf,
    entropy_per_weight,
    enumerate_full_codes,
    dnc_capacity,
    ghc,
    kl_divergence,
)
from geomhuffman.cli import _read_file, _UsageError
from geomhuffman.errors import ConvergenceError, GuardExceededError, SpecFileError
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


def gcc_lengths(q: Pmf) -> tuple:
    """Length tuple of the greedy floor-of-log cutoff, one symbol at a time
    (no CodeLengths validation): a running exact Kraft sum over q sorted
    descending, stopped when it reaches 1."""
    arr = q.probs
    order = np.argsort(-arr, kind="stable")
    order = order[arr[order] > 0.0]
    lengths = [INF] * arr.size
    units, scale = 0, 0  # the Kraft sum so far is units / 2**scale
    for sym in order.tolist():
        mant, e = math.frexp(float(arr[sym]))
        length = max(1 - e if mant == 0.5 else -e, 0)  # floor(-log2 q)
        if length > scale:
            units <<= length - scale
            scale = length
        units += 1 << (scale - length)
        if units > 1 << scale:
            raise RuntimeError("internal consistency error: greedy Kraft sum overshot 1")
        lengths[sym] = length
        if units == 1 << scale:
            return tuple(lengths)
    raise RuntimeError("internal consistency error: exact Kraft equality never reached")


def ghc(x) -> tuple:
    return _with_divergence(ghc_lengths(x), x)


def gcc(q: Pmf) -> tuple:
    return _with_divergence(gcc_lengths(q), q.probs)


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


def lec(spec: DncSpec, tol: float = 1e-12, max_iter: int = 1000) -> LecResult:
    """Fixed-point iteration for the dyadic PMF maximizing entropy per
    average weight.

    Starting from R = 1, each pass builds p = ghc(p*^R) and updates
    R = rate(p) / C.  The divergence D(p || p*^R), taken against the tilt
    that built p, equals (R - R_new) * C * average_weight: it is negative
    while the new code still raises the rate and vanishes exactly at the
    fixed point.  Iteration stops when R stops moving (the |dR| test
    covers exact ties between distinct optimal codes) or, from the second
    pass on, when |D| falls below tol; from there on, a code whose rate is
    below R (a tie broken the other way) ends it with the code before.
    The returned R is the returned code's own rate divided by C.
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
        result = LecResult(R=r_new, lengths=code, rate=rate, iterations=iteration, solved=cap)
        if abs(r_new - R) <= 1e-12:
            return result
        if iteration > 1 and r_new < R:
            return last
        if iteration > 1 and abs(div) <= tol:
            return result
        last, R = result, r_new
    raise ConvergenceError(
        f"LEC did not converge within {max_iter} iterations", best=last
    )


def normalized_pmf(values) -> Pmf:
    """``Pmf.normalized`` that hands its quotients to the validating
    constructor, which copies and checks them again."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size < 1:
        raise ValueError("a PMF needs at least one entry")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite and nonnegative")
    total = arr.sum()
    if total <= 0.0:
        raise ValueError("cannot normalize a vector with zero sum")
    return Pmf(arr / total)


def _per_input_divergence(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    mask = h > 0.0
    lg = np.zeros_like(h)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = h / r[:, None]
        np.log2(ratio, out=lg, where=mask)
    terms = np.where(mask, h * lg, 0.0)
    return terms.sum(axis=0)


def blahut_arimoto(dmc, tol: float = 1e-9, max_iter: int = 100_000) -> CapacityResult:
    """Blahut-Arimoto with a validated result built on every iteration.

    Where the iterate's divergences are not finite, the underflow error
    carries that iterate if its gap is finite and the one before it if not.
    """
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
        gap = float(div.max()) - lower
        previous, result = result, CapacityResult(C=lower, p_star=normalized_pmf(p), achieved_tol=gap)
        if gap <= tol:
            return result
        top = float(div[live].max())
        if not np.isfinite(top):
            # an iterate whose gap is not finite reports the one before it
            raise ConvergenceError(
                "capacity solver hit numerical underflow",
                best=result if previous is None or np.isfinite(gap) else previous,
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


def _build_tree(codewords) -> tuple:
    """(children, root, CodeLengths) of the per-bit builder that
    ``CodeTree.from_codewords`` used: a node table grown one codeword bit
    at a time, with its errors.

    ``children[node]`` is a (zero-child, one-child) pair; child values >= 0
    are internal node ids, values < 0 encode leaves as -(symbol + 1).
    ``root`` is 0 except for single-leaf trees, where it is the leaf code.
    """
    kept = [(i, w) for i, w in enumerate(codewords) if w is not None]
    if not kept:
        raise ValueError("no codewords given")
    if len(kept) == 1 and kept[0][1] == "":
        sym = kept[0][0]
        lengths = [INF] * len(codewords)
        lengths[sym] = 0
        return (), -(sym + 1), CodeLengths(tuple(lengths))

    children: list = [[None, None]]
    for sym, word in kept:
        if not word or any(c not in "01" for c in word):
            raise ValueError(f"codeword for symbol {sym} is not a nonempty bit string")
        node = 0
        for pos, c in enumerate(word):
            bit = int(c)
            child = children[node][bit]
            last = pos == len(word) - 1
            if last:
                if child is not None:
                    raise ValueError(f"codeword for symbol {sym} conflicts with another")
                children[node][bit] = -(sym + 1)
            else:
                if child is None:
                    child = len(children)
                    children.append([None, None])
                    children[node][bit] = child
                elif child < 0:
                    raise ValueError(f"codeword for symbol {sym} extends a shorter codeword")
                node = child
    for node, (lo, hi) in enumerate(children):
        if lo is None or hi is None:
            raise ValueError("codewords do not form a full tree (Kraft sum below 1)")

    lengths = [INF] * len(codewords)
    for sym, word in kept:
        lengths[sym] = len(word)
    return tuple((lo, hi) for lo, hi in children), 0, CodeLengths(tuple(lengths))


def from_codewords(codewords) -> tuple:
    """(codewords, lengths) of the tree the per-bit builder accepts, or its
    error."""
    _, _, code = _build_tree(codewords)
    return tuple(codewords), code.lengths


def _node_table(tree) -> tuple:
    """(zero-children, one-children, root) of a tree's per-bit node table."""
    children, root, _ = _build_tree(tree.codewords)
    return [c[0] for c in children], [c[1] for c in children], root


def modulate(tree, bits) -> tuple:
    """The per-bit parse that tracked the index of the last emitted bit;
    bits is an array of 0s and 1s."""
    zero, one, root = _node_table(tree)
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
    zero, one, root = _node_table(tree)
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


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"'
    return f"{x:.12g}"


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _flat_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ";".join(_flat_value(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return "inf" if math.isinf(value) else f"{float(value):.12g}"
    return str(value)


def emit_report(report: dict, fmt: str) -> str:
    """``cli.emit_report`` over the element-by-element serializer; fmt is
    'json' or 'csv'."""
    if fmt == "json":
        return _json_value(report)
    return "\n".join(f"{key},{_flat_value(value)}" for key, value in report.items())


def parse_symbol_list(args) -> list:
    """``cli._parse_symbol_list`` with every text split into tokens, each
    checked for ASCII decimal digits and read by ``int()``."""
    if args.symbols is not None and args.symbols_file is not None:
        raise _UsageError("give either --symbols or --symbols-file, not both")
    if args.symbols is not None:
        source, text = "--symbols", args.symbols
    elif args.symbols_file is not None:
        source = args.symbols_file
        try:
            text = _read_file(source).decode("ascii")
        except UnicodeDecodeError as exc:
            raise SpecFileError(f"{source}: {exc}") from None
    else:
        raise _UsageError("dematch needs --symbols or --symbols-file")
    tokens = text.replace(",", " ").split()
    digits = "".join(tokens)
    if tokens and not (digits.isascii() and digits.isdigit()):
        bad = next(tok for tok in tokens if not (tok.isascii() and tok.isdigit()))
        raise SpecFileError(f"{source}: symbol {bad!r} is not a decimal index")
    try:
        return list(map(int, tokens))
    except ValueError:
        bad = max(tokens, key=len)
        raise SpecFileError(
            f"{source}: symbol '{bad[:20]}...' of {len(bad)} digits is out of range"
        ) from None


def demodulate(tree, symbols) -> str:
    """``demodulate`` with a type, range and dropped-symbol check and one
    codeword appended per symbol."""
    words = tree.codewords
    out = []
    for s in symbols:
        if type(s) is not int:
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
                raise ValueError(f"symbol {s!r} is not an integer")
            s = int(s)
        if s < 0 or s >= len(words):
            raise ValueError(f"symbol index {s} out of range")
        if words[s] is None:
            raise ValueError(f"symbol {s} was dropped from the code tree")
        out.append(words[s])
    return "".join(out)
