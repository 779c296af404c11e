"""Output checks computed apart from geomhuffman.

Nothing here imports the package under test: every reference value is
recomputed with Python integers, ``math.fsum`` or plain numpy, or is a
closed-form number from the paper.  A check raises :class:`CheckFailed`
when an output is wrong.  :class:`FixedPointFault` marks the one known
fault the benchmark keeps (``lec`` stopping before its fixed point); the
runner counts it as a failed operation instead of a wrong output.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np

INF = math.inf
EPS = 1e-9  # slack for comparing two floating-point evaluations of one quantity

# the paper's five-symbol example and its published divergences (bits)
FIVE_SYMBOL = (0.328, 0.32, 0.22, 0.11, 0.022)
FIVE_GHC_LENGTHS = (1, 2, 3, 3, INF)
FIVE_GHC_KL = 0.13619
FIVE_HUFFMAN_KL = 0.19548
PAPER_DIGITS = 5e-6

Z_CHANNEL = ((1.0, 0.5), (0.0, 0.5))
Z_CAPACITY = math.log2(5.0 / 4.0)
Z_P_STAR = (0.6, 0.4)
C_W12 = math.log2((1.0 + math.sqrt(5.0)) / 2.0)  # sum 2^-C w = 1 for w = (1, 2)


def _c_w123() -> float:
    # x + x^2 + x^3 = 1 has one real root; C = -log2 x
    roots = np.roots([1.0, 1.0, 1.0, -1.0])
    x = float(min(roots, key=lambda r: abs(r.imag)).real)
    return -math.log2(x)


C_W123 = _c_w123()

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
SPLITMIX_MIX2 = 0x94D049BB133111EB
MASK64 = (1 << 64) - 1


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


class FixedPointFault(CheckFailed):
    """``lec`` returned a code that one more GHC step improves."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def close(got: float, want: float, tol: float, what: str):
    require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: got {got!r}, expected {want!r} within {tol}",
    )


def as_lengths(raw) -> list:
    """Length vector from program output, with 'inf' strings mapped to inf."""
    return [INF if (e == "inf" or e == INF) else int(e) for e in raw]


def kraft_exact(lengths) -> None:
    """Exact Kraft equality over the finite lengths, in Python integers."""
    finite = [int(e) for e in lengths if e != INF]
    require(finite != [], "no finite codeword length")
    require(min(finite) >= 0, "negative codeword length")
    top = max(finite)
    total = sum(n << (top - length) for length, n in Counter(finite).items())
    require(total == 1 << top, f"Kraft sum {total}/2^{top} is not exactly 1")


def dyadic_probs(lengths) -> np.ndarray:
    return np.array([0.0 if e == INF else 2.0 ** -e for e in lengths])


def kl_fsum(p, x) -> float:
    """D(p || x) in bits, summed with math.fsum."""
    p = np.asarray(p, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    live = p > 0.0
    if np.any(x[live] == 0.0):
        return INF
    terms = p[live] * (np.log2(p[live]) - np.log2(x[live]))
    return math.fsum(terms.tolist())


def check_kl(reported: float, lengths, target, what: str) -> float:
    """The reported D(p || target) of the dyadic p the lengths induce."""
    own = kl_fsum(dyadic_probs(lengths), target)
    close(reported, own, EPS * max(1.0, abs(own)), f"{what} kl_bits")
    return own


TIE_RTOL = 1e-12  # product entries that differ only by rounding count as ties


def check_monotone(lengths, weights, what: str) -> None:
    """A larger weight never gets a longer codeword.

    Weights within TIE_RTOL of each other are ties: the entries of a
    product PMF that are equal in exact arithmetic may differ in the last
    bit, and either may then get the shorter codeword.
    """
    x = np.asarray(weights, dtype=np.float64)
    ell = np.array([np.inf if e == INF else float(e) for e in lengths])
    order = np.argsort(-x, kind="stable")
    xs, ls = x[order], ell[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] < xs[:-1] * (1.0 - TIE_RTOL)])
    group_max = np.maximum.reduceat(ls, starts)
    group_min = np.minimum.reduceat(ls, starts)
    earlier_max = np.maximum.accumulate(group_max)[:-1]
    bad = np.flatnonzero(earlier_max > group_min[1:])
    require(bad.size == 0, f"{what}: a larger weight has a longer codeword")


def check_dominance(d_ghc: float, d_huffman: float, d_gcc: float, k: int, what: str) -> None:
    """D_ghc <= D_huffman(p||x), D_ghc <= D_gcc <= 1 and D/k <= 1/k."""
    require(d_ghc <= d_huffman + EPS, f"{what}: D_ghc {d_ghc} > D_huffman {d_huffman}")
    require(d_ghc <= d_gcc + EPS, f"{what}: D_ghc {d_ghc} > D_gcc {d_gcc}")
    require(d_gcc <= 1.0 + EPS, f"{what}: D_gcc {d_gcc} > 1 bit")
    require(d_ghc / k <= 1.0 / k + EPS, f"{what}: D/k {d_ghc / k} > 1/k")


def product(p, k: int) -> np.ndarray:
    """k-fold product of p, first coordinate most significant."""
    p = np.asarray(p, dtype=np.float64)
    out = np.ones(1)
    for _ in range(k):
        out = np.multiply.outer(out, p).reshape(-1)
    return out


# ---------------------------------------------------------------------------
# channels


def input_divergences(h, p) -> np.ndarray:
    """D_i = sum_j h_ji log2(h_ji / r_j) with r = h p, in bits."""
    h = np.asarray(h, dtype=np.float64)
    r = h @ np.asarray(p, dtype=np.float64)
    out = np.empty(h.shape[1])
    for i in range(h.shape[1]):
        col = h[:, i]
        live = col > 0.0
        if np.any(r[live] == 0.0):
            out[i] = INF
            continue
        out[i] = math.fsum((col[live] * (np.log2(col[live]) - np.log2(r[live]))).tolist())
    return out


def mutual_info(h, p) -> float:
    p = np.asarray(p, dtype=np.float64)
    div = input_divergences(h, p)
    live = p > 0.0
    return math.fsum((p[live] * div[live]).tolist())


def check_capacity_certificate(h, p_star, capacity: float, tol: float, what: str) -> float:
    """The BA dual certificate recomputed: max_i D_i - I(p*) <= tol.

    Returns the recomputed gap.  The reported capacity must equal I(p*).
    """
    p = np.asarray(p_star, dtype=np.float64)
    require(np.all(p >= 0.0) and abs(math.fsum(p.tolist()) - 1.0) <= 1e-9, f"{what}: p* is not a PMF")
    div = input_divergences(h, p)
    mi = mutual_info(h, p)
    gap = float(np.max(div)) - mi
    require(gap <= tol * (1.0 + 1e-6) + 1e-10, f"{what}: dual gap {gap:.3e} above tol {tol:.1e}")
    close(capacity, mi, 1e-9, f"{what} capacity against I(p*)")
    return gap


def check_penalty_bound(h, p, capacity: float, p_star, gap: float, what: str) -> float:
    """I(p) >= C - D(p || p*) - 10 gap for the dyadic p; returns I(p)."""
    mi = mutual_info(h, p)
    bound = capacity - kl_fsum(p, p_star) - 10.0 * gap
    require(mi >= bound - 1e-12, f"{what}: I(p) {mi} below C - D - 10 gap {bound}")
    return mi


def block_channel(h, k: int) -> np.ndarray:
    """The k-fold product channel, materialized with np.kron."""
    out = np.ones((1, 1))
    for _ in range(k):
        out = np.kron(out, np.asarray(h, dtype=np.float64))
    return out


def check_dnc_root(capacity: float, w, what: str) -> None:
    """sum_i 2^(-C w_i) = 1."""
    res = abs(math.fsum(2.0 ** (-capacity * float(wi)) for wi in w) - 1.0)
    require(res <= 1e-11, f"{what}: root residual {res:.3e}")


def rate_per_weight(lengths, w) -> float:
    """H(p) / E[w] for the dyadic p the lengths induce, with math.fsum."""
    h = math.fsum(float(e) * 2.0 ** -e for e in lengths if e != INF)
    avg = math.fsum(2.0 ** -e * float(wi) for e, wi in zip(lengths, w) if e != INF)
    return h / avg


def block_weights(w, k: int) -> np.ndarray:
    """Explicit weights of all m^k blocks, first symbol most significant."""
    w = np.asarray(w, dtype=np.float64)
    out = np.zeros(1)
    for _ in range(k):
        out = np.add.outer(out, w).reshape(-1)
    return out


def check_block_dnc_rate(rate: float, lengths, w, k: int, capacity: float, d_total: float, what: str) -> None:
    """Rate recomputed from explicit block weights; C - D/(k w_min) <= rate <= C."""
    own = rate_per_weight(lengths, block_weights(w, k))
    close(rate, own, EPS * own, f"{what} block rate")
    lower = capacity - d_total / (k * float(np.min(w)))
    require(lower - EPS <= own <= capacity + EPS, f"{what}: rate {own} outside [{lower}, {capacity}]")


# ---------------------------------------------------------------------------
# matcher


@functools.lru_cache(maxsize=4)  # a run matches the same few streams again and again
def splitmix64_bits(seed: int, n_bits: int) -> str:
    """The first n_bits of the splitmix64 counter-mode stream, MSB first."""
    words = []
    state = seed & MASK64
    for k in range(1, (n_bits + 63) // 64 + 1):
        z = (state + k * SPLITMIX_GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * SPLITMIX_MIX1) & MASK64
        z = ((z ^ (z >> 27)) * SPLITMIX_MIX2) & MASK64
        words.append(format(z ^ (z >> 31), "064b"))
    return "".join(words)[:n_bits]


def read_codebook(text: str) -> dict:
    """symbol -> codeword from a codebook TSV; checks it is a full prefix code."""
    book = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        sym, word = line.split("\t")
        require(int(sym) not in book and set(word) <= {"0", "1"} and word != "", "bad codebook row")
        book[int(sym)] = word
    words = sorted(book.values())
    for a, b in zip(words, words[1:]):
        require(not b.startswith(a), f"codeword {a} is a prefix of {b}")
    kraft_exact([len(wd) for wd in words])
    return book


def check_match(symbols, bits_consumed: int, counts, book: dict, seed: int, n_symbols: int, what: str) -> str:
    """The symbols are the splitmix64 stream parsed with the codebook.

    With a prefix-free code, the stream's parse is unique, so it suffices
    that the symbols' codewords concatenate to a prefix of the stream.
    Returns that bit string.
    """
    require(len(symbols) == n_symbols, f"{what}: {len(symbols)} symbols, expected {n_symbols}")
    joined = "".join(book[s] for s in symbols)
    require(len(joined) == bits_consumed, f"{what}: bits_consumed {bits_consumed} != {len(joined)}")
    require(joined == splitmix64_bits(seed, len(joined)), f"{what}: symbols do not parse the bit stream")
    hist = Counter(symbols)
    require(list(counts) == [hist.get(i, 0) for i in range(len(counts))], f"{what}: counts disagree")
    return joined
