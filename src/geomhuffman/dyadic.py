"""Dyadic PMFs as codeword-length vectors with an exact Kraft check, canonical
code trees, and the exhaustive minimum-divergence search used as a test
oracle.

A length vector with entries in {0, 1, 2, ...} u {inf} describes a full
prefix-free binary code: finite entries are leaf depths, inf marks a symbol
that was dropped (probability 0).  Fullness means the Kraft sum over finite
entries equals 1 exactly, which is verified here with integer arithmetic
rather than floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat, takewhile
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import GuardExceededError
from .pmf import PRODUCT_CAP, Pmf, _checked_weights

INF = math.inf

MAX_TREE_LEN = 1024  # hard cap on finite lengths (2.0**-l stays exact well below this)
# length entries by depth, 0..MAX_TREE_LEN, with inf last so that depth -1
# picks it; and their probabilities 2**-l, each an exact double, 0.0 last
_DEPTH_ENTRIES = np.array([*range(MAX_TREE_LEN + 1), INF], dtype=object)
_DEPTH_PROBS = np.append(np.exp2(-np.arange(MAX_TREE_LEN + 1.0)), 0.0)
# the depth of each length entry up to the cap, -1 for inf
_ENTRY_DEPTHS = {length: length for length in range(MAX_TREE_LEN + 1)} | {INF: -1}
ENUM_MAX_SYMBOLS = 12
ENUM_MAX_DEPTH = 12
# divergences within this of each other tie in the oracle's scan
ORACLE_TIE_TOL = 1e-12


def _check_length(entry) -> "int | float":
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
    return int(entry)


def _checked_entries(raw) -> tuple:
    """The entries of a length vector as plain ints and inf.

    A vector of Python ints and float infs is returned as it is; anything
    else goes through :func:`_check_length` entry by entry, which converts
    or rejects it, up to the first negative entry, which the one check
    then rejects.
    """
    entries = tuple(raw)
    types = list(map(type, entries))
    if set(types) <= {int, float} and types.count(float) == entries.count(INF):
        return entries
    checked = []
    for entry in map(_check_length, entries):
        checked.append(entry)
        if entry < 0:
            break
    return tuple(checked)


def _kraft_units(hist: dict) -> tuple:
    """Exact Kraft sum of a length histogram as (units, L): the sum is
    units / 2**L with L the largest length, so a full code has
    units == 2**L."""
    deepest = max(hist)
    return sum(n << (deepest - length) for length, n in hist.items()), deepest


def _reduced(units: int, exponent: int) -> str:
    """units / 2**exponent (units > 0) in lowest terms, written ``n/2^e``."""
    shift = min((units & -units).bit_length() - 1, exponent)
    return f"{units >> shift}/2^{exponent - shift}"


@dataclass(frozen=True)
class CodeLengths:
    """Codeword-length vector of a full prefix-free code.

    Finite entries are nonnegative integers; inf marks dropped symbols.
    Both constructors map their entries to a depth array, -1 where
    dropped, and end in one check, :meth:`_keep`, which verifies exact
    Kraft equality over the finite entries.  The code keeps those depths,
    as a read-only int16 array, beside the lengths tuple, and the readers
    here use them.
    """

    lengths: tuple
    _depths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = _checked_entries(self.lengths)
        # negative entries read -2 and those above the cap, of any size,
        # MAX_TREE_LEN + 1
        depths = np.fromiter(
            map(_ENTRY_DEPTHS.get, entries, repeat(MAX_TREE_LEN + 1)), np.int64, len(entries)
        )
        above = np.flatnonzero(depths > MAX_TREE_LEN).tolist()
        depths[[i for i in above if entries[i] < 0]] = -2
        self._keep(depths, entries)

    @classmethod
    def _from_depths(cls, depths: np.ndarray) -> "CodeLengths":
        """The code of an int64 depth array, -1 marking dropped symbols; the
        route of every code the package builds.  Accepts, rejects and stores
        what the constructor does for the tuple with inf for each -1, through
        the same check and without a Python step per symbol."""
        code = cls.__new__(cls)
        code._keep(depths, depths)
        return code

    def _keep(self, depths: np.ndarray, given):
        """The one check of both constructors: raise unless the int64
        depths, -1 where dropped, are a full code by the exact Kraft sum of
        their histogram, naming the first depth above the cap as ``given``
        holds it; then keep them as a read-only int16 array, and their
        entries as the lengths tuple."""
        if depths.size == 0:
            raise ValueError("empty length vector")
        try:
            counts = np.bincount(depths + 1)  # bin 0 counts the dropped symbols
        except ValueError:  # a depth below -1
            raise ValueError("lengths must be nonnegative") from None
        if counts.size > MAX_TREE_LEN + 2:
            first = given[int(np.argmax(depths > MAX_TREE_LEN))]
            raise GuardExceededError(f"length {first} exceeds cap {MAX_TREE_LEN}")
        hist = {length: n for length, n in enumerate(counts[1:].tolist()) if n}
        if not hist:
            raise ValueError("need at least one finite length")
        entries = tuple(_DEPTH_ENTRIES[depths].tolist())
        units, deepest = _kraft_units(hist)
        if units != 1 << deepest:
            raise ValueError(
                f"lengths {entries} have Kraft sum {_reduced(units, deepest)}, expected exactly 1"
            )
        kept = depths.astype(np.int16)
        kept.flags.writeable = False
        object.__setattr__(self, "lengths", entries)
        object.__setattr__(self, "_depths", kept)

    @property
    def m(self) -> int:
        return len(self.lengths)

    @property
    def finite_count(self) -> int:
        return int(np.count_nonzero(self._depths >= 0))

    def __iter__(self):
        return iter(self.lengths)

    def __getitem__(self, i):
        return self.lengths[i]

    def kept_symbols(self) -> list:
        return np.flatnonzero(self._depths >= 0).tolist()


@dataclass(frozen=True, eq=False)
class DyadicPmf:
    """A CodeLengths together with the PMF it induces, p_i = 2**(-l_i).

    CodeLengths has already proved the Kraft sum exactly 1 with every
    l <= MAX_TREE_LEN, so every 2**(-l) is an exact float and the
    probabilities sum to exactly 1; they are gathered from a table by the
    code's depth array, and the Pmf is built without checking them again.
    """

    code: CodeLengths
    probs: Pmf

    @classmethod
    def from_code(cls, code: CodeLengths) -> "DyadicPmf":
        # numpy gathers by an intp index several times faster than by int16
        return cls(code, Pmf._exact(_DEPTH_PROBS[code._depths.astype(np.intp)]))


def canonical_codewords(code: CodeLengths) -> tuple:
    """Per-symbol codeword strings (None for dropped symbols).

    Symbols sorted by (length, original index) receive codewords of
    increasing binary value; Kraft equality makes the assignment exact.
    """
    order = np.argsort(code._depths, kind="stable")[code.m - code.finite_count:]
    words: list = [None] * code.m
    val, prev_len = -1, 0
    for sym, length in zip(order.tolist(), code._depths[order].tolist()):
        val = (val + 1) << (length - prev_len)
        words[sym] = format(val, f"0{length}b") if length > 0 else ""
        prev_len = length
    return tuple(words)


@dataclass(frozen=True, eq=False)
class CodeTree:
    """A full prefix-free code: per-symbol codeword strings (None for
    dropped symbols) and their lengths.

    A single kept codeword that is empty is the single-leaf tree; otherwise
    every kept codeword is a nonempty bit string.
    """

    lengths: CodeLengths
    codewords: tuple

    @classmethod
    def from_codewords(cls, codewords: Sequence) -> "CodeTree":
        """The tree of a codeword list, which must be a full prefix-free code.

        Checks each kept codeword's characters, then prefix-freeness on the
        sorted codewords (a codeword that is a prefix of another is a prefix
        of the one right after it in sorted order), then the exact Kraft
        sum, and last the length cap of CodeLengths.
        """
        codewords = tuple(codewords)
        kept = [(sym, word) for sym, word in enumerate(codewords) if word is not None]
        if not kept:
            raise ValueError("no codewords given")
        for sym, word in kept:
            if (not word and len(kept) > 1) or word.strip("01"):
                raise ValueError(f"codeword for symbol {sym} is not a nonempty bit string")
        ordered = sorted(kept, key=itemgetter(1))
        words = [word for _, word in ordered]
        prefixed = list(map(str.startswith, words[1:], words))
        if any(prefixed):
            # name the symbol that clashes with a lower one: the lowest of
            # the codewords that start with the first clashing codeword, or
            # that codeword itself if it is higher
            clash = prefixed.index(True)
            sym, word = ordered[clash]
            other, longer = min(takewhile(lambda sw: sw[1].startswith(word), ordered[clash + 1:]))
            if other > sym and len(longer) > len(word):
                raise ValueError(f"codeword for symbol {other} extends a shorter codeword")
            raise ValueError(f"codeword for symbol {max(sym, other)} conflicts with another")
        # prefix-free codewords have a Kraft sum of at most 1; a sum below 1
        # is named before any length above the cap of CodeLengths
        units, deepest = _kraft_units(Counter(map(len, words)))
        if units != 1 << deepest:
            raise ValueError("codewords do not form a full tree (Kraft sum below 1)")
        depths = np.array([-1 if word is None else len(word) for word in codewords], np.int64)
        return cls(CodeLengths._from_depths(depths), codewords)

    @property
    def is_single_leaf(self) -> bool:
        return "" in self.codewords


def canonical_tree(code: CodeLengths) -> CodeTree:
    """Deterministic code tree with canonical codeword assignment; canonical
    codewords of a full code are full and prefix-free by construction."""
    return CodeTree(code, canonical_codewords(code))


def codebook_text(tree: CodeTree) -> str:
    """Newline-delimited ``symbol_index<TAB>codeword_bits`` rows, kept symbols only."""
    rows = [
        f"{i}\t{w}" for i, w in enumerate(tree.codewords) if w is not None
    ]
    return "\n".join(rows) + "\n"


def parse_codebook(text: str) -> CodeTree:
    """Inverse of :func:`codebook_text`; accepts any full prefix-free codebook
    whose symbol indices are ASCII decimal digits below PRODUCT_CAP, the most
    symbols any code here can have."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"codebook line {lineno}: expected 'index<TAB>bits'")
        index = parts[0]
        # int() would also take signs, underscores, spaces and other
        # scripts' digits
        if not (index.isascii() and index.isdigit()):
            raise ValueError(f"codebook line {lineno}: bad symbol index {index!r}")
        digits = index.lstrip("0") or "0"
        # more digits than the cap has put an index above it; int() may refuse them
        sym = int(digits) if len(digits) <= len(str(PRODUCT_CAP)) else PRODUCT_CAP
        if sym >= PRODUCT_CAP:
            raise GuardExceededError(
                f"codebook line {lineno}: symbol index is at or above the cap {PRODUCT_CAP}"
            )
        if sym in entries:
            raise ValueError(f"codebook line {lineno}: duplicate symbol {sym}")
        entries[sym] = parts[1]
    if not entries:
        raise ValueError("codebook is empty")
    m = max(entries) + 1
    words: list = [None] * m
    for sym, bits in entries.items():
        words[sym] = bits
    return CodeTree.from_codewords(words)


def enumerate_full_codes(m: int, l_max: int) -> Iterator[tuple]:
    """Yield every non-decreasing length multiset of a full code with at most
    m leaves and depth at most l_max, each exactly once, in lexicographic
    order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    if m > ENUM_MAX_SYMBOLS or l_max > ENUM_MAX_DEPTH:
        raise GuardExceededError(
            f"enumeration guard: m <= {ENUM_MAX_SYMBOLS} and l_max <= {ENUM_MAX_DEPTH}"
        )

    def gen(remaining: int, min_len: int, slots: int):
        # remaining, the Kraft deficit in units of 2**(-l_max), is a multiple of
        # every piece; with one slot left only piece == remaining recurses
        if remaining == 0:
            yield ()
            return
        for length in range(min_len, l_max + 1):
            piece = 1 << (l_max - length)
            if piece * slots < remaining:
                break  # larger lengths are even smaller; nothing can fill the gap
            for rest in gen(remaining - piece, length, slots - 1):
                yield (length,) + rest

    yield from gen(1 << l_max, 0, m)


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


def _oracle_scan(x, l_max: "int | None") -> tuple:
    """The exhaustive search behind both oracles.

    Checks the weights (finite, nonnegative, one positive) and the size
    guard, sorts the weights descending (ties by original index) and
    returns (order, table, divergences): the sort permutation, every full
    code's sorted length multiset in strictly increasing lexicographic
    order, and D(p || x) for each multiset assigned to the sorted weights.
    The default depth cap l_max = m - 1 is exhaustive: a full binary tree
    with at most m leaves has depth at most m - 1.
    """
    arr = _checked_weights(x)
    m = arr.size
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
    table = _codes_table(m, l_max)
    return order, table, [_multiset_divergence(ms, xs, log2_xs) for ms in table]


def brute_force_min_kl(x, l_max: "int | None" = None):
    """Exact minimizer of D(p || x) over all dyadic PMFs of depth <= l_max.

    Enumerates every full-code length multiset and assigns sorted lengths to
    the sorted weights (an optimal code never gives a larger weight a longer
    codeword).  Ties are broken by the lexicographically smallest
    non-decreasing length vector: the table is in increasing order, so a
    later multiset replaces the best only when it is better by more than
    ORACLE_TIE_TOL.  Returns (CodeLengths, divergence_bits).
    """
    order, table, divs = _oracle_scan(x, l_max)
    best_ms, best_d = table[0], divs[0]
    for ms, d in zip(table, divs):
        if d < best_d - ORACLE_TIE_TOL:
            best_d, best_ms = d, ms

    depths = np.full(order.size, -1, np.int64)
    depths[order[:len(best_ms)]] = best_ms
    return CodeLengths._from_depths(depths), best_d


def brute_force_optima(x, l_max: "int | None" = None) -> list:
    """All optimal length multisets within ORACLE_TIE_TOL of the minimum
    divergence."""
    _, table, divs = _oracle_scan(x, l_max)
    best = min(divs)
    return [ms for ms, d in zip(table, divs) if d <= best + ORACLE_TIE_TOL]
