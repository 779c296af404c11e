"""Shows that every output check of the benchmark can fail.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each case runs one of the workloads'
operations twice: as is, where its checks must pass, and with one output
of the program corrupted on its way back (two codeword lengths swapped,
one matcher symbol or bit flipped, p* perturbed, ...), where its checks
must reject it.  Exits 0 when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

import run

sys.path.insert(0, run.SRC)

import checks as ck  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402


class CorruptLib(layers.Lib):
    """A Lib whose first matching call to ``method`` returns a corrupted output."""

    def __init__(self, method: str, corrupt, match=lambda *args: True):
        super().__init__(run.ROOT, layers.pinned_env(run.ROOT))
        self._fault = (method, corrupt, match)
        self.corrupted = 0

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        method, corrupt, match = super().__getattribute__("_fault")
        if name != method:
            return attr

        def wrapped(*args, **kwargs):
            out = attr(*args, **kwargs)
            if self.corrupted == 0 and match(*args):
                self.corrupted += 1
                return corrupt(out)
            return out

        return wrapped


def swap_first_two(code):
    lengths = list(code.lengths)
    lengths[0], lengths[1] = lengths[1], lengths[0]
    return SimpleNamespace(lengths=tuple(lengths))


def bump_first(code):
    lengths = list(code.lengths)
    lengths[0] += 1
    return SimpleNamespace(lengths=tuple(lengths))


def perturb(p, eps=1e-3):
    arr = np.array(p, dtype=np.float64)
    arr[0] += eps
    arr[-1] -= eps
    return arr


def edit_json(update):
    """Corrupt a CLI call's (exit code, stdout) by editing its report."""

    def corrupt(out):
        code, text = out
        rep = json.loads(text)
        update(rep)
        return code, json.dumps(rep)

    return corrupt


def flip_symbol(book):
    """Replace the first symbol by another whose codeword has the same length."""

    def update(rep):
        syms = rep["symbols"]
        syms[0] = next(s for s, w in book.items() if s != syms[0] and len(w) == len(book[syms[0]]))

    return update


def flip_bit(rep):
    bits = rep["bits"]
    rep["bits"] = ("1" if bits[0] == "0" else "0") + bits[1:]


def cases(work: str):
    block = wl.BlockCode(os.path.join(work, "block"), seed=7)
    block.prepare()
    sweep = wl.CapacitySweep(os.path.join(work, "sweep"), seed=7)
    sweep.prepare()
    flow = wl.CliFlow(os.path.join(work, "flow"), np.random.default_rng(7), side=8, n_symbols=2000, subprocess_call=False)
    flow.prepare()
    five, q3 = ck.FIVE_SYMBOL, (0.6, 0.3, 0.1)
    h, spec = block.channels[0], block.specs[0]
    dh, dspec = sweep.channels[0], sweep.dmcs[0]
    w3 = (1.0, 2.0, 3.0)
    spec3 = wl.gh.DncSpec(np.array(w3))

    def first_code(lib, rec):
        return block._codes(lib, rec, five, 1)

    def flow_call(name):
        def op(lib, rec):
            state = {}
            plain = layers.Lib(run.ROOT, layers.pinned_env(run.ROOT))
            flow._ghc_codebook(plain, rec, state)
            flow._five(plain, rec, state, "ghc")
            steps = {
                "ghc": lambda: flow._five(lib, rec, state, "ghc"),
                "huffman": lambda: flow._five(lib, rec, state, "huffman"),
                "dmc": lambda: flow._dmc(lib, rec, "z.json", ck.Z_CHANNEL, 2, None),
                "dnc": lambda: flow._dnc(lib, rec, "w123.json", (1, 2, 3)),
                "match": lambda: flow._match(lib, rec, state, "cb_mb.tsv", flow.seed_mb, "mb"),
            }
            if name == "dematch":
                flow._match(plain, rec, state, "cb_mb.tsv", flow.seed_mb, "mb")
                flow._dematch(lib, rec, state, "cb_mb.tsv", "mb")
            else:
                steps[name]()

        return op

    def cli_cmd(name):
        return lambda argv, *rest: argv[0] == name

    return [
        ("ghc: two codeword lengths swapped", first_code, "ghc", lambda r: (swap_first_two(r[0]), r[1])),
        ("huffman: kl_bits off by 1e-6", first_code, "huffman", lambda r: (r[0], r[1] + 1e-6)),
        ("gcc: one codeword length changed", first_code, "gcc", lambda r: (bump_first(r[0]), r[1])),
        ("ghc: Huffman's code (off the paper's numbers)", first_code, "ghc",
         lambda r: wl.gh.huffman(np.array(five))),
        ("ghc: gcc's code, D above Huffman's", lambda lib, rec: block._codes(lib, rec, q3, 2), "ghc",
         lambda r: wl.gh.gcc(wl.gh.product_pmf(wl.gh.Pmf(np.array(q3)), 2))),
        ("product_pmf: two entries swapped", lambda lib, rec: block._codes(lib, rec, q3, 2), "product_pmf",
         lambda p: wl.gh.Pmf(p.probs[::-1].copy())),
        ("block DMC: p* perturbed", lambda lib, rec: block._block_dmc(lib, rec, h, spec), "optimize_block_dmc",
         lambda r: dataclasses.replace(r, p_star=wl.gh.Pmf(perturb(r.p_star.probs)))),
        ("block DMC: per-use MI off by 1e-6 (kron check)", lambda lib, rec: block._block_dmc(lib, rec, h, spec),
         "optimize_block_dmc", lambda r: dataclasses.replace(r, per_use_mi=r.per_use_mi + 1e-6)),
        ("block DNC: rate off by 1e-6", lambda lib, rec: block._block_dnc(lib, rec), "optimize_block_dnc",
         lambda r: dataclasses.replace(r, rate=r.rate + 1e-6)),
        ("BA: p* perturbed", lambda lib, rec: sweep._dmc(lib, rec, dh, dspec), "blahut_arimoto",
         lambda r: dataclasses.replace(r, p_star=wl.gh.Pmf(perturb(r.p_star.probs, 1e-2)))),
        ("BA: capacity off by 1e-6", lambda lib, rec: sweep._dmc(lib, rec, dh, dspec), "blahut_arimoto",
         lambda r: dataclasses.replace(r, C=r.C + 1e-6)),
        ("clamp_support: entry moved", lambda lib, rec: sweep._dmc(lib, rec, dh, dspec), "clamp_support",
         lambda p: wl.gh.Pmf(perturb(p.probs, 1e-9))),
        ("mutual_information off by 1e-6", lambda lib, rec: sweep._dmc(lib, rec, dh, dspec), "mutual_information",
         lambda v: v + 1e-6),
        ("dnc_capacity: C off by 1e-9", lambda lib, rec: sweep._dnc(lib, rec, w3, spec3, True), "dnc_capacity",
         lambda r: dataclasses.replace(r, C=r.C * (1 + 1e-9))),
        ("lec: rate off by 1e-6", lambda lib, rec: sweep._dnc(lib, rec, w3, spec3, True), "lec",
         lambda r: dataclasses.replace(r, rate=r.rate + 1e-6)),
        ("lec: code one GHC step short of the fixed point",
         lambda lib, rec: sweep._dnc(lib, rec, w3, spec3, True), "lec",
         lambda r: dataclasses.replace(r, lengths=wl.gh.CodeLengths((1, 1, wl.ck.INF)),
                                       rate=ck.rate_per_weight((1, 1, ck.INF), w3),
                                       R=ck.rate_per_weight((1, 1, ck.INF), w3) / wl.gh.dnc_capacity(spec3).C)),
        ("cli ghc: five-symbol lengths swapped", flow_call("ghc"), "cli",
         edit_json(lambda rep: rep["lengths"].reverse()), cli_cmd("ghc")),
        ("cli huffman: kl_bits off by 1e-4", flow_call("huffman"), "cli",
         edit_json(lambda rep: rep.update(kl_bits=rep["kl_bits"] + 1e-4)), cli_cmd("huffman")),
        ("cli dmc: Z capacity off by 1e-5", flow_call("dmc"), "cli",
         edit_json(lambda rep: rep.update(capacity_bits=rep["capacity_bits"] + 1e-5)), cli_cmd("dmc")),
        ("cli dmc: per-use MI off by 1e-6 (kron check)", flow_call("dmc"), "cli",
         edit_json(lambda rep: rep.update(per_use_mi=rep["per_use_mi"] + 1e-6)), cli_cmd("dmc")),
        ("cli dnc: capacity off by 1e-6", flow_call("dnc"), "cli",
         edit_json(lambda rep: rep.update(capacity_bits=rep["capacity_bits"] + 1e-6)), cli_cmd("dnc")),
        ("cli match: one symbol flipped", flow_call("match"), "cli",
         lambda out: edit_json(flip_symbol(read_book(flow.path("cb_mb.tsv"))))(out), cli_cmd("match")),
        ("cli dematch: one bit flipped", flow_call("dematch"), "cli", edit_json(flip_bit), cli_cmd("dematch")),
    ]


def read_book(path):
    with open(path, encoding="ascii") as fh:
        return ck.read_codebook(fh.read())


def unit_cases():
    """(name, check on a good output, the same check on a corrupted one)."""
    five = ck.FIVE_SYMBOL
    good = (1, 2, 3, 3, ck.INF)
    d_good = ck.kl_fsum(ck.dyadic_probs(good), five)
    z_p = (0.6, 0.4)
    w12 = (1.0, 2.0)
    block = wl.gh.optimize_block_dnc(wl.gh.DncSpec(np.array(w12)), 4)
    b_len = list(block.lengths.lengths)
    stream = ck.splitmix64_bits(5, 4000)
    book = {0: "0", 1: "10", 2: "11"}
    syms, pos = [], 0
    while pos + 2 <= len(stream):
        s = 0 if stream[pos] == "0" else (1 if stream[pos + 1] == "0" else 2)
        syms.append(s)
        pos += len(book[s])
    counts = [syms.count(i) for i in range(3)]
    flipped = list(syms)
    i = next(i for i, s in enumerate(syms) if s != 0)
    flipped[i] = 3 - syms[i]  # 1 <-> 2, codewords of equal length
    return [
        ("kraft_exact: one length changed", lambda: ck.kraft_exact(good),
         lambda: ck.kraft_exact((1, 2, 3, 4, ck.INF))),
        ("check_kl: kl_bits off by 1e-6", lambda: ck.check_kl(d_good, good, five, "kl"),
         lambda: ck.check_kl(d_good + 1e-6, good, five, "kl")),
        ("check_monotone: two lengths swapped", lambda: ck.check_monotone(good, five, "mono"),
         lambda: ck.check_monotone((2, 1, 3, 3, ck.INF), five, "mono")),
        ("check_dominance: D_ghc above D_huffman",
         lambda: ck.check_dominance(ck.FIVE_GHC_KL, ck.FIVE_HUFFMAN_KL, 0.6, 1, "dom"),
         lambda: ck.check_dominance(ck.FIVE_HUFFMAN_KL + 0.01, ck.FIVE_HUFFMAN_KL, 0.6, 1, "dom")),
        ("check_dominance: D_gcc above 1 bit",
         lambda: ck.check_dominance(0.1, 0.2, 0.9, 1, "dom"),
         lambda: ck.check_dominance(0.1, 0.2, 1.1, 1, "dom")),
        ("capacity certificate: Z-channel p* perturbed",
         lambda: ck.check_capacity_certificate(ck.Z_CHANNEL, z_p, ck.Z_CAPACITY, 1e-9, "cert"),
         lambda: ck.check_capacity_certificate(ck.Z_CHANNEL, (0.601, 0.399), ck.Z_CAPACITY, 1e-9, "cert")),
        ("penalty bound: capacity raised by 0.1",
         lambda: ck.check_penalty_bound(ck.Z_CHANNEL, (0.5, 0.5), ck.Z_CAPACITY, z_p, 0.0, "pen"),
         lambda: ck.check_penalty_bound(ck.Z_CHANNEL, (0.5, 0.5), ck.Z_CAPACITY + 0.1, z_p, 0.0, "pen")),
        ("DNC root: C of (1,2) off by 1e-9", lambda: ck.check_dnc_root(ck.C_W12, w12, "root"),
         lambda: ck.check_dnc_root(ck.C_W12 + 1e-9, w12, "root")),
        ("block DNC rate: rate off by 1e-6",
         lambda: ck.check_block_dnc_rate(block.rate, b_len, w12, 4, block.capacity, block.kl_bits, "rate"),
         lambda: ck.check_block_dnc_rate(block.rate + 1e-6, b_len, w12, 4, block.capacity, block.kl_bits, "rate")),
        ("block DNC rate: D too small for the lower bound",
         lambda: ck.check_block_dnc_rate(block.rate, b_len, w12, 4, block.capacity, block.kl_bits, "rate"),
         lambda: ck.check_block_dnc_rate(block.rate, b_len, w12, 4, block.capacity + 0.1, 0.0, "rate")),
        ("codebook: a codeword extends another", lambda: ck.read_codebook("0\t0\n1\t10\n2\t11\n"),
         lambda: ck.read_codebook("0\t0\n1\t01\n2\t11\n")),
        ("match: one symbol flipped, same length",
         lambda: ck.check_match(syms, pos, counts, book, 5, len(syms), "match"),
         lambda: ck.check_match(flipped, pos, counts, book, 5, len(syms), "match")),
    ]


def check_fixed_point_panel(work) -> list:
    """The lec fixed-point check passes on w = (1,2,3) and fails on the panel's first DNC."""
    sweep = wl.CapacitySweep(os.path.join(work, "panel"), seed=7)
    lib = layers.Lib(run.ROOT, layers.pinned_env(run.ROOT))
    errors = []
    for w, faulty in ((wl.DNC_PANEL[0], True), ((1, 2, 3), False)):
        w = tuple(float(v) for v in w)
        try:
            sweep._dnc(lib, wl.Recorder(), w, wl.gh.DncSpec(np.array(w)), True)
            raised = False
        except ck.FixedPointFault:
            raised = True
        if raised != faulty:
            errors.append(f"lec fixed-point check on {w}: expected fault={faulty}")
    return errors


def main() -> int:
    bad = []
    for name, good, corrupted in unit_cases():
        try:
            good()
        except ck.CheckFailed as exc:
            bad.append(f"{name}: good output rejected ({exc})")
            continue
        try:
            corrupted()
            outcome = "NOT REJECTED"
            bad.append(name)
        except ck.CheckFailed as exc:
            outcome = f"rejected: {str(exc).splitlines()[0][:90]}"
        print(f"{name:50s} {outcome}")
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        for case in cases(work):
            name, op, method, corrupt = case[:4]
            match = case[4] if len(case) > 4 else (lambda *args: True)
            plain = layers.Lib(run.ROOT, layers.pinned_env(run.ROOT))
            try:
                op(plain, wl.Recorder())
            except ck.CheckFailed as exc:
                bad.append(f"{name}: uncorrupted output rejected ({exc})")
                continue
            lib = CorruptLib(method, corrupt, match)
            try:
                op(lib, wl.Recorder())
                outcome = "NOT REJECTED"
                bad.append(name)
            except ck.CheckFailed as exc:
                outcome = f"rejected: {str(exc).splitlines()[0][:90]}"
            if lib.corrupted != 1:
                bad.append(f"{name}: corruption never applied")
            print(f"{name:50s} {outcome}")
        errors = check_fixed_point_panel(work)
        print(f"{'lec fixed-point check (panel DNC and (1,2,3))':50s} {'ok' if not errors else errors}")
        bad += errors
    for name in bad:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
