"""Distribution matching: parse an IID fair-bit stream with a full prefix
code tree to emit channel symbols with the tree's dyadic PMF, and invert
the mapping.

Reproducibility contract: the bit source is splitmix64 in counter mode
(state_k = seed + k * 0x9E3779B97F4A7C15 mod 2**64, finalized with the
standard xor-shift/multiply mix), emitting each 64-bit word's bits most
significant first.  The same seed yields the same bit stream on every
platform, so match reports are comparable across machines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dyadic import CodeTree
from .errors import DegenerateTreeError, GuardExceededError
from .pmf import Pmf

SYMBOL_CAP = 1 << 24  # max number of symbols simulate may emit and hold
_CHUNK_BITS = 1 << 16  # bits parsed per numpy pass
_MIN_WINDOW, _MAX_WINDOW = 8, 16  # bounds on the parse tables' window width
# hop of a window whose first codeword is longer than the window: it ends
# the hop loop, which then looks that codeword up
_LONG = 1 << 30
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # codeword text to bytes of 0 and 1
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words start..start+count-1 of the splitmix64 stream for this seed."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * np.uint64(_GAMMA)) & _MASK64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1) & _MASK64
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2) & _MASK64
    return z ^ (z >> np.uint64(31))


@dataclass
class BitSource:
    """Deterministic stream of IID fair bits; position is the index of the
    next bit, so it counts the bits handed out."""

    seed: int
    position: int = 0

    def take(self, n: int) -> np.ndarray:
        """The next n bits as a uint8 array of 0s and 1s."""
        if n < 0:
            raise ValueError("cannot take a negative number of bits")
        first, skip = divmod(self.position, 64)
        words = _splitmix64_words(self.seed, first, (skip + n + 63) // 64)
        self.position += n
        # big-endian bytes -> unpackbits gives MSB-first per word
        return np.unpackbits(words.astype(">u8").view(np.uint8))[skip : skip + n]


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Outcome of simulating a matcher: the emitted symbols, their tallies,
    bits consumed, and the empirical PMF."""

    n_symbols: int
    seed: int
    symbols: tuple
    symbol_counts: tuple
    bits_consumed: int
    empirical: Pmf


def _coerce_bits(bits) -> np.ndarray:
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


def _require_matcher(tree: CodeTree):
    if tree.is_single_leaf:
        raise DegenerateTreeError(
            "degenerate matcher: a single-leaf tree emits symbols without consuming bits"
        )


class _Tables:
    """Lookup tables of a code tree over the 2**width values of a window of
    width bits, first bit most significant.

    width is the deepest codeword's length, clamped to [8, 16], so there
    are at most 65536 window values.  Per value, ``hop`` is the number of
    bits in all the whole codewords that fit in the window, parsed from its
    start, and the row of ``fit_syms`` holds their symbols, -1 after the
    last.  A window whose first codeword is longer than the window has hop
    _LONG; ``long_syms`` maps the bits of each such codeword, as bytes of 0
    and 1, to its symbol, and ``long_lengths`` holds their distinct
    lengths in increasing order.
    """

    def __init__(self, tree: CodeTree):
        kept = [(s, w) for s, w in enumerate(tree.codewords) if w is not None]
        syms = np.fromiter((s for s, _ in kept), np.int64, len(kept))
        lens = np.fromiter((len(w) for _, w in kept), np.int64, len(kept))
        self.deepest = int(lens.max())
        width = self.width = max(_MIN_WINDOW, min(_MAX_WINDOW, self.deepest))
        heads = np.fromiter((int(w[:width], 2) for _, w in kept), np.int64, len(kept))
        self.depths = np.zeros(len(tree.codewords), np.int64)
        self.depths[syms] = lens

        # a codeword of at most width bits covers the windows that start
        # with it, and the first width bits of longer codewords cover one
        # window each; a full code makes these ranges tile every window
        short = lens <= width
        prefixes = np.unique(heads[~short])
        order = np.argsort(np.concatenate((heads[short] << (width - lens[short]), prefixes)))
        sizes = np.concatenate((1 << (width - lens[short]), np.ones_like(prefixes)))[order]
        none = np.zeros_like(prefixes)
        # the first codeword's length and symbol, 0 and -1 past the window
        first_len = np.concatenate((lens[short], none))[order].astype(np.uint32).repeat(sizes)
        first_sym = np.concatenate((syms[short], none - 1))[order].astype(np.int32).repeat(sizes)
        self.long_syms = {
            w.encode("ascii").translate(_BIT_BYTES): s for s, w in kept if len(w) > width
        }
        self.long_lengths = sorted(set(map(len, self.long_syms)))

        # one round per codeword: the rest of a window, shifted up and
        # padded with zeros, starts with the next codeword exactly when
        # that codeword fits in the rest
        self.hop = np.zeros(1 << width, np.uint32)
        self.fit_syms = np.full((1 << width, max(1, width // int(lens.min()))), -1, np.int32)
        active = np.arange(1 << width, dtype=np.uint32)
        for column in range(self.fit_syms.shape[1]):
            rest = (active << self.hop[active]) & ((1 << width) - 1)
            step = first_len[rest]
            fits = (step > 0) & (self.hop[active] + step <= width)
            active, rest = active[fits], rest[fits]
            self.hop[active] += step[fits]
            self.fit_syms[active, column] = first_sym[rest]
        self.hop[self.hop == 0] = _LONG

    def parse(self, buf: np.ndarray, count: int) -> tuple:
        """Parse buf from its start until a codeword starts at or after bit
        count; buf holds at least count + width - 1 bits.

        Returns the symbols as an int32 array, in stream order, and the
        bit the parse stopped at.  A codeword that runs past the end of
        buf stops the parse at its start.
        """
        if count <= 0:
            return np.zeros(0, np.int32), 0
        windows = _windows(buf, self.width, count)
        hops = memoryview(self.hop[windows])
        visits: list = []
        add = visits.append
        longs = {}
        pos = 0
        while True:
            # the one Python loop: a step per window, over all its codewords
            while pos < count:
                add(pos)
                pos += hops[pos]
            if pos < _LONG:
                break
            sym, pos = self._walk(buf, visits[-1])
            if sym is None:
                visits.pop()
                break
            longs[len(visits) - 1] = sym
        rows = self.fit_syms[windows[np.fromiter(visits, np.intp, len(visits))]]
        if longs:
            rows[list(longs), 0] = list(longs.values())
        return rows[rows >= 0], pos

    def _walk(self, buf: np.ndarray, start: int) -> tuple:
        """(symbol, end) of the codeword longer than the window that starts
        at bit start of buf, looked up at each long length in turn, where
        prefix-freeness makes the first hit the codeword; (None, start) if
        buf ends inside it."""
        for length in self.long_lengths:
            end = start + length
            if end > buf.size:
                break
            sym = self.long_syms.get(buf[start:end].tobytes())
            if sym is not None:
                return sym, end
        return None, start


def _windows(buf: np.ndarray, width: int, count: int) -> np.ndarray:
    """The width-bit window at each of the first count bits of buf, first
    bit most significant, from big-endian 32-bit words at each byte."""
    nbytes = (count + 7) // 8
    packed = np.zeros(nbytes + 3, np.uint32)
    bytes_ = np.packbits(buf[:count + width - 1])
    packed[:bytes_.size] = bytes_
    words = packed[:nbytes] << 24 | packed[1:nbytes + 1] << 16
    words |= packed[2:nbytes + 2] << 8 | packed[3:]
    shifts = np.arange(32 - width, 24 - width, -1, dtype=np.uint32)
    windows = words[:, None] >> shifts
    windows &= (1 << width) - 1
    return windows.reshape(-1)[:count]


def _parse(tree: CodeTree, chunks, limit: "int | None" = None) -> tuple:
    """Greedy prefix parse of a sequence of bit chunks from the root of the
    tree, stopping after limit symbols if a limit is given.

    Returns (symbol array, per-symbol counts, bits consumed).  Each emitted
    symbol consumed exactly its codeword, so the bits consumed are the total
    codeword length of the symbols; a trailing partial codeword is not
    counted.  A codeword that straddles two chunks is carried into the
    next one; when the chunks run out, their last bits are parsed padded
    with zeros, keeping the codewords that end before the padding.
    """
    tables = _Tables(tree)
    width = tables.width
    parts = []
    total = 0
    carry = np.zeros(0, np.uint8)
    for chunk in chunks:
        buf = np.concatenate((carry, chunk))
        count = buf.size - width + 1
        if limit is not None:
            # a symbol takes at most deepest bits, so this many bits hold
            # the symbols still wanted
            count = min(count, (limit - total) * tables.deepest)
        syms, end = tables.parse(buf, count)
        parts.append(syms)
        total += syms.size
        carry = buf[end:]
        if limit is not None and total >= limit:
            break
    else:
        syms, _ = tables.parse(np.concatenate((carry, np.zeros(width - 1, np.uint8))), carry.size)
        ends = np.cumsum(tables.depths[syms])
        parts.append(syms[:np.searchsorted(ends, carry.size, side="right")])
    symbols = np.concatenate(parts)[:limit]
    counts = np.bincount(symbols, minlength=tree.lengths.m)
    return symbols, counts, int(counts @ tables.depths)


def modulate(tree: CodeTree, bits) -> tuple:
    """Greedy prefix parse of a bit sequence from the root of the tree.

    Emits a symbol each time a leaf is reached; a trailing partial codeword
    is left unconsumed.  Returns (symbol list, bits consumed).
    """
    _require_matcher(tree)
    stream = _coerce_bits(bits)
    chunks = (stream[i:i + _CHUNK_BITS] for i in range(0, stream.size, _CHUNK_BITS))
    symbols, _, consumed = _parse(tree, chunks)
    return symbols.tolist(), consumed


def demodulate(tree: CodeTree, symbols) -> str:
    """Concatenated codewords of a symbol sequence, as a '0'/'1' string.

    Symbols are Python or numpy integers; anything else, bools included,
    raises ValueError rather than being rounded or parsed.  The first bad
    symbol in the sequence names the error.
    """
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


def simulate(tree: CodeTree, n_symbols: int, seed: int) -> MatchReport:
    """Run the matcher on a seeded fair-bit source until n_symbols emerge.

    Deterministic per seed; bits_consumed is the total codeword length of
    the emitted symbols (surplus generated bits are discarded).  At most
    SYMBOL_CAP symbols, since the report holds every one of them.
    """
    _require_matcher(tree)
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if n_symbols > SYMBOL_CAP:
        raise GuardExceededError(f"match guard: {n_symbols} symbols, cap is {SYMBOL_CAP}")
    source = BitSource(seed)
    chunks = (source.take(_CHUNK_BITS) for _ in itertools.count())
    symbols, counts, consumed = _parse(tree, chunks, n_symbols)
    return MatchReport(
        n_symbols=n_symbols,
        seed=seed,
        symbols=tuple(symbols.tolist()),
        symbol_counts=tuple(counts.tolist()),
        bits_consumed=consumed,
        empirical=Pmf.normalized(counts.astype(np.float64)),
    )
