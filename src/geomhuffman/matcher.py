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

from dataclasses import dataclass, field

import numpy as np

from .dyadic import CodeTree, DyadicPmf
from .errors import DegenerateTreeError
from .pmf import Pmf

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
    """Deterministic stream of IID fair bits; position counts bits handed out."""

    seed: int
    position: int = 0
    _words_used: int = field(default=0, repr=False)
    _buffer: np.ndarray = field(default=None, repr=False)
    _offset: int = field(default=0, repr=False)

    def take(self, n: int) -> np.ndarray:
        """The next n bits as a uint8 array of 0s and 1s."""
        if n < 0:
            raise ValueError("cannot take a negative number of bits")
        chunks = []
        got = 0
        while got < n:
            if self._buffer is None or self._offset >= self._buffer.size:
                count = max(1024, (n - got + 63) // 64)
                words = _splitmix64_words(self.seed, self._words_used, count)
                self._words_used += count
                # big-endian bytes -> unpackbits gives MSB-first per word
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


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Outcome of simulating a matcher: per-symbol tallies, bits consumed,
    and the empirical PMF next to the dyadic target."""

    n_symbols: int
    seed: int
    symbol_counts: tuple
    bits_consumed: int
    empirical: Pmf
    target: DyadicPmf


def _coerce_bits(bits) -> bytes:
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits, dtype=np.uint8).reshape(-1)
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return arr.tobytes()


def _require_matcher(tree: CodeTree):
    if tree.is_single_leaf:
        raise DegenerateTreeError(
            "degenerate matcher: a single-leaf tree emits symbols without consuming bits"
        )


def modulate(tree: CodeTree, bits) -> tuple:
    """Greedy prefix parse of a bit sequence from the root of the tree.

    Emits a symbol each time a leaf is reached; a trailing partial codeword
    is left unconsumed.  Returns (symbol list, bits consumed).  Fullness of
    the tree guarantees every bit path extends to a leaf.
    """
    _require_matcher(tree)
    stream = _coerce_bits(bits)
    zero = [c[0] for c in tree.children]
    one = [c[1] for c in tree.children]
    root = tree.root
    node = root
    symbols: list = []
    consumed = 0
    for i, bit in enumerate(stream):
        node = one[node] if bit else zero[node]
        if node < 0:
            symbols.append(-node - 1)
            consumed = i + 1
            node = root
    return symbols, consumed


def demodulate(tree: CodeTree, symbols) -> str:
    """Concatenated codewords of a symbol sequence, as a '0'/'1' string."""
    words = tree.codewords
    out = []
    for s in symbols:
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
    the emitted symbols (surplus buffered bits are discarded).
    """
    _require_matcher(tree)
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    source = BitSource(seed)
    zero = [c[0] for c in tree.children]
    one = [c[1] for c in tree.children]
    root = tree.root
    m = tree.lengths.m
    counts = [0] * m
    node = root
    emitted = 0
    consumed = 0
    walked = 0
    chunk_bits = 1 << 16
    while emitted < n_symbols:
        for bit in source.take(chunk_bits).tobytes():
            node = one[node] if bit else zero[node]
            walked += 1
            if node < 0:
                counts[-node - 1] += 1
                emitted += 1
                consumed = walked
                node = root
                if emitted == n_symbols:
                    break
    empirical = Pmf.normalized(np.array(counts, dtype=np.float64))
    return MatchReport(
        n_symbols=n_symbols,
        seed=seed,
        symbol_counts=tuple(counts),
        bits_consumed=consumed,
        empirical=empirical,
        target=DyadicPmf.from_code(tree.lengths),
    )
