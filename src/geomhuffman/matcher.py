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

from dataclasses import dataclass

import numpy as np

from .dyadic import CodeTree
from .errors import DegenerateTreeError, GuardExceededError
from .pmf import Pmf

SYMBOL_CAP = 1 << 24  # max number of symbols simulate may emit and hold
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


def _parse(tree: CodeTree, chunks, limit: int) -> tuple:
    """Greedy prefix parse of a sequence of bit chunks from the root of the
    tree, stopping after limit symbols.

    Returns (symbol list, per-symbol counts, bits consumed).  Each emitted
    symbol consumed exactly its codeword, so the bits consumed are the total
    codeword length of the symbols; a trailing partial codeword is not
    counted.
    """
    symbols = _walk(tree, chunks, limit)
    counts = np.bincount(np.array(symbols, dtype=np.intp), minlength=tree.lengths.m)
    depths = np.array([len(w) if w is not None else 0 for w in tree.codewords], dtype=np.int64)
    return symbols, counts, int(counts @ depths)


def _walk(tree: CodeTree, chunks, limit: int) -> list:
    # the one per-bit loop; fullness of the tree guarantees every bit path
    # extends to a leaf
    zero = [c[0] for c in tree.children]
    one = [c[1] for c in tree.children]
    root = tree.root
    node = root
    symbols: list = []
    for chunk in chunks:
        for bit in chunk:
            node = one[node] if bit else zero[node]
            if node < 0:
                symbols.append(-node - 1)
                if len(symbols) == limit:
                    return symbols
                node = root
    return symbols


def modulate(tree: CodeTree, bits) -> tuple:
    """Greedy prefix parse of a bit sequence from the root of the tree.

    Emits a symbol each time a leaf is reached; a trailing partial codeword
    is left unconsumed.  Returns (symbol list, bits consumed).
    """
    _require_matcher(tree)
    stream = _coerce_bits(bits)
    symbols, _, consumed = _parse(tree, (stream,), len(stream))
    return symbols, consumed


def demodulate(tree: CodeTree, symbols) -> str:
    """Concatenated codewords of a symbol sequence, as a '0'/'1' string.

    Symbols are Python or numpy integers; anything else, bools included,
    raises ValueError rather than being rounded or parsed.
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
    chunks = iter(lambda: source.take(1 << 16).tobytes(), None)
    symbols, counts, consumed = _parse(tree, chunks, n_symbols)
    return MatchReport(
        n_symbols=n_symbols,
        seed=seed,
        symbols=tuple(symbols),
        symbol_counts=tuple(counts.tolist()),
        bits_consumed=consumed,
        empirical=Pmf.normalized(counts.astype(np.float64)),
    )
