"""The benchmark's three workloads: their inputs, operations and checks.

Each workload makes its inputs from the seed in ``prepare`` and runs one
pass over its operations in ``round``.  A pass always attempts the same
operations, so the share of failed operations is the same in every run.
Every operation's outputs are checked with :mod:`checks`; only the
program's calls, made through :class:`layers.Lib`, are timed.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import checks as ck
import geomhuffman as gh

BA_TOL = 1e-4  # the slowest DMC of the sweep stops after about 2700 of BA's 100000 iterations
ZERO_CLAMP = 1e-12  # clamp_support's default threshold

# lec stops before its fixed point on the first four (one more GHC step
# raises the rate); the other four reach it
DNC_PANEL = (
    (1, 8, 5, 4, 1, 6, 4, 6),
    (9, 8, 7, 1, 7, 2),
    (3, 1, 9, 6, 5, 7, 1),
    (6, 1, 7, 9, 6, 2, 2, 5),
    (1, 2),
    (1, 2, 3),
    (1, 1, 2, 3, 5, 8),
    (2, 3, 5, 7, 11, 13),
)


class Recorder:
    """Operation counts, wrong outputs and timed samples of one run.

    While ``trace`` is set, every operation is also a span, the parent of
    the spans of the library calls it makes.
    """

    def __init__(self):
        self.samples = defaultdict(list)  # kind -> [(pass, seconds, work)]
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.trace = None

    def sample(self, kind: str, seconds: float, work: float = 1.0):
        self.samples[kind].append((self.passes, seconds, work))

    def run(self, name: str, op):
        self.attempted += 1
        if self.trace is not None:
            self.trace.op = self.attempted
            t0 = time.perf_counter()
        try:
            op()
        except ck.FixedPointFault:
            self.failed += 1
        except ck.CheckFailed as exc:
            self.wrong.append(f"{name}: {exc}")
        except Exception:  # the program raised: a failed operation
            self.failed += 1
            print(f"{name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        if self.trace is not None:
            self.trace.span(f"op {name}", t0, time.perf_counter(), apart=False)


def clamp(p) -> np.ndarray:
    arr = np.where(np.asarray(p) < ZERO_CLAMP, 0.0, p)
    return arr / arr.sum()


def dirichlet_channel(rng, n: int, m: int, diagonal: float) -> np.ndarray:
    """n x m transition matrix with Dirichlet columns (one per input),
    each with extra weight ``diagonal`` on its own output."""
    cols = []
    for i in range(m):
        alpha = np.ones(n)
        alpha[i % n] += diagonal
        cols.append(rng.dirichlet(alpha))
    return np.array(cols).T


def maxwell_boltzmann(rng, side: int) -> np.ndarray:
    """MB PMF exp(-nu |x|^2) over a side x side grid of odd integers.

    nu varies by 2% with the seed, which changes the PMF's values but
    keeps its entropy, and so the matcher's bits per symbol, nearly fixed.
    """
    a = np.arange(-(side - 1), side, 2, dtype=np.float64)
    energy = (a[:, None] ** 2 + a[None, :] ** 2).reshape(-1)
    nu = 3.5 * rng.uniform(0.98, 1.02) / side**2
    p = np.exp(-nu * energy)
    return p / p.sum()


# ---------------------------------------------------------------------------
# the command-line flow, shared by all three workloads


class CliFlow:
    """One user session through the CLI.

    ``ghc --codebook`` on a Maxwell-Boltzmann shaping target and on the
    paper's five-symbol PMF (:meth:`books`), ten more small calls
    (:meth:`small`), and ``match`` and ``dematch`` on both codebooks
    (:meth:`stream`).  cli-session runs it in subprocesses; the other
    workloads run a smaller one with ``cli.main`` in-process, where a small
    call takes milliseconds: they make the small calls and a stream group
    several times, spread over a pass, to give the medians enough samples.
    """

    def __init__(self, work: str, rng, side: int, n_symbols: int, subprocess_call: bool):
        self.work = work
        self.rng = rng
        self.side = side
        self.n_symbols = n_symbols
        # in subprocesses (cli-session) the channel and coding calls also
        # feed the channel and coding metrics
        self.subprocess_call = subprocess_call

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def prepare(self):
        rng = self.rng
        self.mb = maxwell_boltzmann(rng, self.side)
        self.chan3 = dirichlet_channel(rng, 3, 3, diagonal=4.0)
        self.chan4 = dirichlet_channel(rng, 4, 4, diagonal=4.0)
        self.w_seeded = tuple(int(v) for v in rng.integers(1, 7, size=5))
        self.seed_mb, self.seed_five = (int(v) for v in rng.integers(0, 2**63, size=2))
        specs = {
            "mb.json": {"type": "pmf", "probs": self.mb.tolist()},
            "five.json": {"type": "pmf", "probs": list(ck.FIVE_SYMBOL)},
            "z.json": {"type": "dmc", "transition": [list(r) for r in ck.Z_CHANNEL]},
            "chan3.json": {"type": "dmc", "transition": self.chan3.tolist()},
            "chan4.json": {"type": "dmc", "transition": self.chan4.tolist()},
            "w123.json": {"type": "dnc", "weights": [1, 2, 3]},
            "w12.json": {"type": "dnc", "weights": [1, 2]},
            "wseed.json": {"type": "dnc", "weights": list(self.w_seeded)},
        }
        os.makedirs(self.work, exist_ok=True)
        for name, doc in specs.items():
            with open(self.path(name), "w", encoding="ascii") as fh:
                json.dump(doc, fh)

    def _call(self, lib, rec, argv, kinds=(), work=1.0) -> dict:
        before = lib.busy
        code, out = lib.cli([str(a) for a in argv], self.subprocess_call)
        for kind in kinds:
            rec.sample(kind, lib.busy - before, work)
        ck.require(code == 0, f"{argv[0]} exited {code}")
        return json.loads(out)

    def _small(self, lib, rec, argv, kind=None, work=1.0) -> dict:
        kinds = ["cli_small"]
        if kind and self.subprocess_call:
            kinds.append(kind)
        return self._call(lib, rec, argv, kinds, work)

    def round(self, lib, rec: Recorder):
        state = self.books(lib, rec)
        self.small(lib, rec)
        self.stream(lib, rec, state)

    def books(self, lib, rec: Recorder) -> dict:
        """The two codebooks that :meth:`stream` matches with."""
        state = {}
        rec.run("cli ghc --codebook (shaping)", lambda: self._ghc_codebook(lib, rec, state))
        rec.run("cli ghc (five)", lambda: self._five(lib, rec, state, "ghc"))
        return state

    def small(self, lib, rec: Recorder):
        state = {}
        rec.run("cli huffman (five)", lambda: self._five(lib, rec, state, "huffman"))
        rec.run("cli gcc (five)", lambda: self._five(lib, rec, state, "gcc"))
        rec.run("cli oracle (five)", lambda: self._five(lib, rec, state, "oracle"))
        rec.run("cli dmc (Z)", lambda: self._dmc(lib, rec, "z.json", ck.Z_CHANNEL, 1, None))
        rec.run("cli dmc --block 2 (Z)", lambda: self._dmc(lib, rec, "z.json", ck.Z_CHANNEL, 2, None))
        rec.run("cli dmc (3x3)", lambda: self._dmc(lib, rec, "chan3.json", self.chan3, 1, BA_TOL))
        rec.run("cli dmc (4x4)", lambda: self._dmc(lib, rec, "chan4.json", self.chan4, 1, BA_TOL))
        rec.run("cli dnc --lec (1,2,3)", lambda: self._dnc(lib, rec, "w123.json", (1, 2, 3)))
        rec.run("cli dnc --block 4 (1,2)", lambda: self._dnc(lib, rec, "w12.json", (1, 2), 4))
        rec.run("cli dnc --lec (seeded)", lambda: self._dnc(lib, rec, "wseed.json", self.w_seeded))

    def stream(self, lib, rec: Recorder, state: dict):
        """One stream group: ``match`` on both codebooks, then ``dematch`` of
        both symbol streams.  Each pair of calls is one rate sample.

        In-process, ``dematch`` of both streams takes about 30 ms, a sixth
        of ``match``; it is made three times so that its median samples as
        much of the run as the ``match`` one does.
        """
        before = lib.busy
        rec.run("cli match (shaping)", lambda: self._match(lib, rec, state, "cb_mb.tsv", self.seed_mb, "mb"))
        rec.run("cli match (five)", lambda: self._match(lib, rec, state, "cb_five.tsv", self.seed_five, "five"))
        rec.sample("match", lib.busy - before, 2 * self.n_symbols)
        for _ in range(1 if self.subprocess_call else 3):
            before = lib.busy
            rec.run("cli dematch (shaping)", lambda: self._dematch(lib, rec, state, "cb_mb.tsv", "mb"))
            rec.run("cli dematch (five)", lambda: self._dematch(lib, rec, state, "cb_five.tsv", "five"))
            rec.sample("dematch", lib.busy - before, 2 * self.n_symbols)

    # -- calls and their checks --------------------------------------------

    def _ghc_codebook(self, lib, rec, state):
        argv = ["ghc", self.path("mb.json"), "--codebook", self.path("cb_mb.tsv")]
        kinds = ["code"] if self.subprocess_call else []
        rep = self._call(lib, rec, argv, kinds, self.mb.size)
        lengths = ck.as_lengths(rep["lengths"])
        ck.kraft_exact(lengths)
        d = ck.check_kl(rep["kl_bits"], lengths, self.mb, "shaping ghc")
        ck.require(d <= 1.0 + ck.EPS, "shaping ghc: D above 1 bit")
        ck.check_monotone(lengths, self.mb, "shaping ghc")
        with open(self.path("cb_mb.tsv"), encoding="ascii") as fh:
            book = ck.read_codebook(fh.read())
        ck.require(
            all(len(book[i]) == e for i, e in enumerate(lengths) if e != ck.INF)
            and len(book) == sum(e != ck.INF for e in lengths),
            "codebook lengths differ from the reported lengths",
        )
        state["mb"] = book

    def _five(self, lib, rec, state, command):
        argv = [command, self.path("five.json")]
        if command == "ghc":
            argv += ["--codebook", self.path("cb_five.tsv")]
        kind = None if command == "oracle" else "code"
        rep = self._small(lib, rec, argv, kind, len(ck.FIVE_SYMBOL))
        lengths = ck.as_lengths(rep["lengths"])
        ck.kraft_exact(lengths)
        d = ck.check_kl(rep["kl_bits"], lengths, ck.FIVE_SYMBOL, f"five-symbol {command}")
        ck.check_monotone(lengths, ck.FIVE_SYMBOL, f"five-symbol {command}")
        if command in ("ghc", "oracle"):
            ck.require(tuple(lengths) == ck.FIVE_GHC_LENGTHS, f"five-symbol {command} lengths {lengths}")
            ck.close(d, ck.FIVE_GHC_KL, ck.PAPER_DIGITS, f"five-symbol {command} D")
        if command == "huffman":
            ck.close(d, ck.FIVE_HUFFMAN_KL, ck.PAPER_DIGITS, "five-symbol huffman D")
        if command == "gcc":
            ck.require(ck.FIVE_GHC_KL - ck.PAPER_DIGITS <= d <= 1.0, "five-symbol gcc D out of range")
        if command == "ghc":
            with open(self.path("cb_five.tsv"), encoding="ascii") as fh:
                state["five"] = ck.read_codebook(fh.read())

    def _dmc(self, lib, rec, spec, h, block, tol):
        argv = ["dmc", self.path(spec), "--block", block]
        if tol is not None:
            argv += ["--tol", tol]
        rep = self._small(lib, rec, argv, "dmc")
        tol = 1e-9 if tol is None else tol
        gap = ck.check_capacity_certificate(h, rep["p_star"], rep["capacity_bits"], tol, f"cli dmc {spec}")
        if spec == "z.json":
            ck.close(rep["capacity_bits"], ck.Z_CAPACITY, 1e-6, "Z channel capacity")
            ck.require(np.allclose(rep["p_star"], ck.Z_P_STAR, atol=1e-6), "Z channel p*")
        lengths = ck.as_lengths(rep["lengths"])
        ck.kraft_exact(lengths)
        target = ck.product(clamp(rep["p_star"]), block)
        d = ck.check_kl(rep["kl_bits"], lengths, target, f"cli dmc {spec}")
        ck.close(rep["bound"], rep["capacity_bits"] - d / block, 1e-9, "per-use bound C - D/k")
        # block-DMC mutual information against the materialized product channel
        mi = ck.mutual_info(ck.block_channel(h, block), ck.dyadic_probs(lengths))
        ck.close(rep["per_use_mi"], mi / block, 1e-9, f"cli dmc {spec} per-use MI")
        ck.require(mi / block >= rep["capacity_bits"] - d / block - 10 * gap - 1e-12, "per-use MI below C - D/k")

    def _dnc(self, lib, rec, spec, w, block=None):
        """``dnc --lec``, or ``dnc --block k`` when a block length is given."""
        argv = ["dnc", self.path(spec)] + (["--lec"] if block is None else ["--block", block])
        rep = self._small(lib, rec, argv, "dnc")
        c = rep["capacity_bits"]
        ck.check_dnc_root(c, w, f"cli dnc {spec}")
        if tuple(w) == (1, 2, 3):
            ck.close(c, ck.C_W123, 1e-9, "capacity of w = (1,2,3)")
        if tuple(w) == (1, 2):
            ck.close(c, ck.C_W12, 1e-9, "capacity of w = (1,2)")
        lengths = ck.as_lengths(rep["lengths"])
        ck.kraft_exact(lengths)
        p_star = np.exp2(-c * np.asarray(w, dtype=np.float64))
        if block is None:
            rate = ck.rate_per_weight(lengths, w)
            ck.close(rep["rate"], rate, 1e-9, f"cli dnc {spec} rate")
            ck.close(rep["R"], rate / c, 1e-9, f"cli dnc {spec} R")
            ck.require(rate <= c + ck.EPS, "LEC rate above capacity")
            ck.check_kl(rep["kl_bits"], lengths, p_star ** rep["R"], f"cli dnc {spec}")
        else:
            d = ck.check_kl(rep["kl_bits"], lengths, ck.product(p_star, block), f"cli dnc {spec}")
            ck.close(rep["bound"], c - d / (block * min(w)), 1e-9, f"cli dnc {spec} bound")
            ck.check_block_dnc_rate(rep["rate"], lengths, w, block, c, d, f"cli dnc {spec}")

    def _match(self, lib, rec, state, codebook, seed, key):
        argv = ["match", self.path(codebook), "--symbols", self.n_symbols, "--seed", seed]
        rep = self._call(lib, rec, argv)
        bits = ck.check_match(
            rep["symbols"], rep["bits_consumed"], rep["counts"], state[key], seed, self.n_symbols, f"match {key}"
        )
        state[f"{key}_symbols"] = rep["symbols"]
        state[f"{key}_bits"] = bits

    def _dematch(self, lib, rec, state, codebook, key):
        symbols_file = self.path(f"symbols_{key}.txt")
        with open(symbols_file, "w", encoding="ascii") as fh:
            fh.write(" ".join(str(s) for s in state[f"{key}_symbols"]))
        argv = ["dematch", self.path(codebook), "--symbols-file", symbols_file]
        rep = self._call(lib, rec, argv)
        ck.require(rep["n_symbols"] == self.n_symbols, f"dematch {key} symbol count")
        ck.require(rep["bits"] == state[f"{key}_bits"], f"dematch {key} bits differ from the matched bit stream")

    def warm_up(self, lib):
        code, _ = lib.cli(["ghc", self.path("five.json")], subprocess_call=False)
        ck.require(code == 0, "warm-up call failed")


# ---------------------------------------------------------------------------
# block-code


BLOCK_TARGETS = (
    (ck.FIVE_SYMBOL, 1),
    (ck.FIVE_SYMBOL, 4),
    (ck.FIVE_SYMBOL, 6),  # 15625 entries
    ((0.6, 0.3, 0.1), 6),
    ((0.6, 0.3, 0.1), 11),  # 177147 entries, the largest product
)
BLOCK_DMC_COUNT = 2 * len(BLOCK_TARGETS)  # two per segment of a pass
BLOCK_DMC_KS = (1, 2, 9)
BLOCK_DNC = ((1, 2, 3), 9)


class BlockCode:
    """ghc, huffman and gcc on long products; block DMC and DNC codes.

    A pass is five segments, one per product target: its codes, two block
    DMCs, the block DNC, one in-process stream group and the small calls.
    All but the codes recur in every segment so that their medians have
    several samples per pass, spread over it.
    """

    name = "block-code"
    in_subprocesses = False  # where the program's work runs, for peak RSS

    def __init__(self, work: str, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.flow = CliFlow(work, self.rng, side=16, n_symbols=50_000, subprocess_call=False)

    def prepare(self):
        self.channels = [dirichlet_channel(self.rng, 3, 3, diagonal=4.0) for _ in range(BLOCK_DMC_COUNT)]
        self.specs = [gh.DmcSpec(h) for h in self.channels]
        self.flow.prepare()

    def warm_up(self, lib):
        self.flow.warm_up(lib)

    def round(self, lib, rec: Recorder):
        books = self.flow.books(lib, rec)
        for i, (q, k) in enumerate(BLOCK_TARGETS):
            rec.run(f"codes of {len(q)}-symbol PMF ^{k}", lambda: self._codes(lib, rec, q, k))
            for h, spec in zip(self.channels[2 * i : 2 * i + 2], self.specs[2 * i : 2 * i + 2]):
                rec.run("block DMC", lambda: self._block_dmc(lib, rec, h, spec))
            rec.run("block DNC", lambda: self._block_dnc(lib, rec))
            self.flow.stream(lib, rec, books)
            self.flow.small(lib, rec)

    def _codes(self, lib, rec, q, k):
        target = lib.product_pmf(gh.Pmf(np.array(q)), k)
        x = target.probs
        before = lib.busy
        c_ghc, d_ghc = lib.ghc(x)
        c_huf, d_huf = lib.huffman(x)
        c_gcc, d_gcc = lib.gcc(target)
        rec.sample("code", lib.busy - before, 3 * x.size)

        own = ck.product(q, k)
        ck.require(np.allclose(x, own, rtol=1e-12, atol=0.0), "product_pmf differs from the product")
        divs = []
        for name, code, d in (("ghc", c_ghc, d_ghc), ("huffman", c_huf, d_huf), ("gcc", c_gcc, d_gcc)):
            what = f"{name} on {len(q)}-symbol ^{k}"
            lengths = list(code.lengths)
            ck.kraft_exact(lengths)
            divs.append(ck.check_kl(d, lengths, x, what))
            ck.check_monotone(lengths, x, what)
        ck.check_dominance(*divs, k, f"{len(q)}-symbol ^{k}")
        if k == 1 and tuple(q) == ck.FIVE_SYMBOL:
            ck.require(tuple(c_ghc.lengths) == ck.FIVE_GHC_LENGTHS, "five-symbol GHC lengths")
            ck.close(d_ghc, ck.FIVE_GHC_KL, ck.PAPER_DIGITS, "five-symbol GHC D")
            ck.close(d_huf, ck.FIVE_HUFFMAN_KL, ck.PAPER_DIGITS, "five-symbol Huffman D")

    def _block_dmc(self, lib, rec, h, spec):
        before = lib.busy
        reports = [lib.optimize_block_dmc(spec, k, BA_TOL) for k in BLOCK_DMC_KS]
        rec.sample("dmc", lib.busy - before)

        first = reports[0]
        gap = ck.check_capacity_certificate(h, first.p_star.probs, first.capacity, BA_TOL, "block DMC")
        p_star = clamp(first.p_star.probs)
        for k, rep in zip(BLOCK_DMC_KS, reports):
            what = f"block DMC k={k}"
            ck.close(rep.capacity, first.capacity, 0.0, f"{what} capacity")
            lengths = list(rep.lengths.lengths)
            ck.kraft_exact(lengths)
            d = ck.check_kl(rep.kl_bits, lengths, ck.product(p_star, k), what)
            ck.require(d / k <= 1.0 / k + ck.EPS, f"{what}: D/k above 1/k")
            ck.close(rep.per_use_bound, rep.capacity - d / k, 1e-9, f"{what} bound")
            ck.require(rep.per_use_mi >= rep.per_use_bound - 10 * gap - 1e-12, f"{what}: MI below C - D/k")
            ck.require(rep.per_use_mi <= rep.capacity + gap + 1e-12, f"{what}: MI above capacity")
            if k <= 2:
                mi = ck.mutual_info(ck.block_channel(h, k), ck.dyadic_probs(lengths))
                ck.close(rep.per_use_mi, mi / k, 1e-9, f"{what} MI against the kron channel")

    def _block_dnc(self, lib, rec):
        w, k = BLOCK_DNC
        before = lib.busy
        rep = lib.optimize_block_dnc(gh.DncSpec(np.array(w, dtype=np.float64)), k)
        rec.sample("dnc", lib.busy - before)

        ck.close(rep.capacity, ck.C_W123, 1e-9, "block DNC capacity")
        ck.check_dnc_root(rep.capacity, w, "block DNC")
        lengths = list(rep.lengths.lengths)
        ck.kraft_exact(lengths)
        p_star = np.exp2(-rep.capacity * np.array(w, dtype=np.float64))
        d = ck.check_kl(rep.kl_bits, lengths, ck.product(p_star, k), "block DNC")
        ck.close(rep.lower_bound, rep.capacity - d / (k * min(w)), 1e-9, "block DNC bound")
        ck.check_block_dnc_rate(rep.rate, lengths, w, k, rep.capacity, d, "block DNC")


# ---------------------------------------------------------------------------
# capacity-sweep


SWEEP_CORPUS_SEED = 20105
SWEEP_DNC_COUNT = 300
SWEEP_SEGMENTS = 5  # each with a share of the DMCs and DNCs, a stream group and the small calls


def sweep_corpus() -> list:
    """The sweep's DMCs: 294 with 2-8 inputs and outputs, 32 wider.

    Columns are Dirichlet(1), as in the acceptance suite.  The corpus is
    drawn from a fixed seed: BA's iteration count varies so much between
    random channels that fresh draws per seed moved the total BA work of a
    pass by 28% (quartile spread over ten seeds), more than any bound.
    """
    rng = np.random.default_rng(SWEEP_CORPUS_SEED)
    narrow = [(m, n) for m in range(2, 9) for n in range(2, 9)] * 6
    wide = [(m, n) for m in (10, 16, 24, 32) for n in (10, 16, 24, 32)] * 2
    return [rng.dirichlet(np.ones(n), size=m).T for m, n in narrow + wide]


class CapacitySweep:
    """Many small channels: BA, clamp, ghc and MI per DMC; LEC per DNC."""

    name = "capacity-sweep"
    in_subprocesses = False  # where the program's work runs, for peak RSS

    def __init__(self, work: str, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.flow = CliFlow(work, self.rng, side=16, n_symbols=50_000, subprocess_call=False)

    def prepare(self):
        rng = self.rng
        # the seed relabels every channel's inputs and outputs and orders
        # the channels; BA's work does not depend on the labels
        corpus = sweep_corpus()
        self.channels = []
        for i in rng.permutation(len(corpus)):
            h = corpus[i]
            self.channels.append(h[rng.permutation(h.shape[0])][:, rng.permutation(h.shape[1])])
        self.dmcs = [gh.DmcSpec(h) for h in self.channels]
        weights = []
        for i in range(SWEEP_DNC_COUNT):
            m = 2 + i % 63
            w = rng.integers(1, 10, size=m) if i % 2 else rng.uniform(0.5, 8.0, size=m)
            weights.append(tuple(float(v) for v in w))
        self.dnc_weights = weights + [tuple(float(v) for v in w) for w in DNC_PANEL]
        self.dncs = [gh.DncSpec(np.array(w)) for w in self.dnc_weights]
        self.flow.prepare()

    def warm_up(self, lib):
        self.flow.warm_up(lib)

    def round(self, lib, rec: Recorder):
        books = self.flow.books(lib, rec)
        dmcs = np.array_split(np.arange(len(self.channels)), SWEEP_SEGMENTS)
        dncs = np.array_split(np.arange(len(self.dncs)), SWEEP_SEGMENTS)
        for dmc_chunk, dnc_chunk in zip(dmcs, dncs):
            for i in dmc_chunk:
                h, spec = self.channels[i], self.dmcs[i]
                rec.run(f"DMC {h.shape}", lambda: self._dmc(lib, rec, h, spec))
            for i in dnc_chunk:
                w, spec, panel = self.dnc_weights[i], self.dncs[i], i >= SWEEP_DNC_COUNT
                rec.run(f"DNC {w}", lambda: self._dnc(lib, rec, w, spec, panel))
            self.flow.stream(lib, rec, books)
            self.flow.small(lib, rec)

    def _dmc(self, lib, rec, h, spec):
        before = lib.busy
        res = lib.blahut_arimoto(spec, BA_TOL)
        p_star = lib.clamp_support(res.p_star)
        ghc_start = lib.busy
        code, d = lib.ghc(p_star.probs)
        rec.sample("code", lib.busy - ghc_start, p_star.m)
        p = lib.dyadic_pmf(code).probs
        mi = lib.mutual_information(spec, p)
        rec.sample("dmc", lib.busy - before)

        gap = ck.check_capacity_certificate(h, res.p_star.probs, res.C, BA_TOL, "sweep DMC")
        ck.close(res.achieved_tol, gap, 1e-9, "sweep DMC reported gap")
        ck.require(np.allclose(p_star.probs, clamp(res.p_star.probs), rtol=1e-12, atol=0.0), "clamp_support")
        lengths = list(code.lengths)
        ck.kraft_exact(lengths)
        own_d = ck.check_kl(d, lengths, p_star.probs, "sweep DMC ghc")
        ck.require(own_d <= 1.0 + ck.EPS, "sweep DMC: D above 1 bit")
        ck.check_monotone(lengths, p_star.probs, "sweep DMC ghc")
        dyadic = ck.dyadic_probs(lengths)
        ck.require(np.array_equal(p.probs, dyadic), "DyadicPmf differs from 2^-l")
        own_mi = ck.check_penalty_bound(h, dyadic, res.C, p_star.probs, gap, "sweep DMC")
        ck.close(mi, own_mi, 1e-9, "sweep DMC mutual information")

    def _dnc(self, lib, rec, w, spec, panel):
        before = lib.busy
        cap = lib.dnc_capacity(spec)
        res = lib.lec(spec)
        rec.sample("dnc", lib.busy - before)

        ck.check_dnc_root(cap.C, w, "sweep DNC")
        p_star = np.exp2(-cap.C * np.array(w))
        ck.require(np.allclose(cap.p_star.probs, p_star, rtol=1e-12, atol=0.0), "DNC p*")
        lengths = list(res.lengths.lengths)
        ck.kraft_exact(lengths)
        rate = ck.rate_per_weight(lengths, w)
        ck.close(res.rate, rate, 1e-9 * rate, "LEC rate")
        ck.close(res.R, rate / cap.C, 1e-9, "LEC R")
        ck.require(rate <= cap.C + ck.EPS, "LEC rate above capacity")
        if panel:
            # one more GHC step at the returned R must not raise the rate
            code, _ = gh.ghc(p_star ** res.R)
            better = ck.rate_per_weight(list(code.lengths), w)
            if better > rate * (1.0 + 1e-12):
                raise ck.FixedPointFault(f"LEC rate {rate} rises to {better} with one more step")


# ---------------------------------------------------------------------------
# cli-session


class CliSession:
    """The user's flow through ``python -m geomhuffman.cli``, one call at a time."""

    name = "cli-session"
    in_subprocesses = True  # where the program's work runs, for peak RSS

    def __init__(self, work: str, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        self.flow = CliFlow(work, self.rng, side=64, n_symbols=200_000, subprocess_call=True)

    def prepare(self):
        self.flow.prepare()

    def warm_up(self, lib):
        self.flow.warm_up(lib)

    def round(self, lib, rec: Recorder):
        self.flow.round(lib, rec)


WORKLOADS = {cls.name: cls for cls in (BlockCode, CapacitySweep, CliSession)}
