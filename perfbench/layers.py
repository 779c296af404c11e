"""Calls into geomhuffman's public functions, timed from the benchmark.

Every call a workload makes into the program goes through :class:`Lib`,
which adds its duration to the current operation's time.  With a
:class:`Trace` attached, each call is also recorded as a span under its
layer (the package's modules: pmf, approximators, dyadic, dmc, dnc,
matcher, cli).  Calls inside the package are not seen; where a public
function calls other public functions (``optimize_block_dmc``,
``optimize_block_dnc``, ``cli.main``), the trace calls those parts again
apart with the same arguments and reports the remainder as self time.
Calls made apart are never counted in an operation's time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict

import geomhuffman as gh
from geomhuffman import cli

# name -> unit of every per-layer metric, in the order they are printed
LAYER_METRICS = {
    "pmf.product_pmf_s": "s",
    "approximators.ghc_s": "s",
    "approximators.ghc_calls": "count",
    "approximators.ghc_symbols": "count",
    "approximators.ghc_kept": "count",
    "approximators.ghc_max_depth": "count",
    "approximators.huffman_s": "s",
    "approximators.gcc_s": "s",
    "dyadic.code_lengths_s": "s",
    "dyadic.dyadic_pmf_s": "s",
    "dyadic.canonical_tree_s": "s",
    "dyadic.codebook_text_s": "s",
    "dyadic.parse_codebook_s": "s",
    "dmc.blahut_arimoto_s": "s",
    "dmc.mutual_information_s": "s",
    "dmc.optimize_block_self_s": "s",
    "dnc.capacity_s": "s",
    "dnc.lec_s": "s",
    "dnc.lec_iterations": "count",
    "dnc.optimize_block_self_s": "s",
    "matcher.simulate_s": "s",
    "matcher.simulate_bits": "count",
    "matcher.simulate_ns_per_bit": "ns",
    "matcher.modulate_s": "s",
    "matcher.demodulate_s": "s",
    "cli.start_s": "s",
    "cli.load_spec_s": "s",
    "cli.match_self_s": "s",
    "cli.match_replay_s": "s",
    "cli.ghc_self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_pct": "%",
}

_MAX_KEYS = ("approximators.ghc_max_depth",)


class Trace:
    """Per-layer sums and spans of one traced run, kept in memory."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.spans = []
        self.op = 0  # index of the operation now running, the parent of new spans

    def add(self, key: str, value: float):
        if key in _MAX_KEYS:
            self.sums[key] = max(self.sums[key], value)
        else:
            self.sums[key] += value

    def span(self, name: str, t0: float, t1: float, apart: bool):
        self.spans.append((name, t0, t1, self.op, apart))

    def per_pass(self, passes: int) -> dict:
        out = {}
        for key in LAYER_METRICS:
            value = self.sums.get(key, 0.0)
            out[key] = value if key in _MAX_KEYS else value / passes
        bits = self.sums.get("matcher.simulate_bits", 0.0)
        out["matcher.simulate_ns_per_bit"] = (
            1e9 * self.sums["matcher.simulate_s"] / bits if bits else 0.0
        )
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            for name, t0, t1, op, apart in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "op": op, "apart": apart}) + "\n")


def _ghc_counts(trace: Trace, code):
    finite = [e for e in code.lengths if e != math.inf]
    trace.add("approximators.ghc_calls", 1)
    trace.add("approximators.ghc_symbols", len(code.lengths))
    trace.add("approximators.ghc_kept", len(finite))
    trace.add("approximators.ghc_max_depth", max(finite))


class Lib:
    """The program's public functions, timed per call."""

    def __init__(self, root: str, env: dict, trace: "Trace | None" = None):
        self.root = root
        self.env = env
        self.trace = trace
        self.busy = 0.0  # seconds spent in timed calls so far

    # -- timing ------------------------------------------------------------

    def _call(self, key: str, fn, *args, apart: bool = False, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        if not apart:
            self.busy += t1 - t0
        if self.trace is not None:
            self.trace.span(key, t0, t1, apart)
            if key in LAYER_METRICS:
                self.trace.add(key, t1 - t0)
        return out, t1 - t0

    def call(self, key: str, fn, *args, **kwargs):
        return self._call(key, fn, *args, **kwargs)[0]

    def apart(self, key: str, fn, *args, **kwargs) -> tuple:
        return self._call(key, fn, *args, apart=True, **kwargs)

    # -- library calls -----------------------------------------------------

    def product_pmf(self, p, k):
        return self.call("pmf.product_pmf_s", gh.product_pmf, p, k)

    def ghc(self, x):
        return self._ghc(x, apart=False)[0]

    def _ghc(self, x, apart: bool) -> tuple:
        out, secs = self._call("approximators.ghc_s", gh.ghc, x, apart=apart)
        if self.trace is not None:
            code = out[0]
            _ghc_counts(self.trace, code)
            # the Kraft check and the induced PMF, as ghc builds them inside
            self.apart("dyadic.code_lengths_s", gh.CodeLengths, code.lengths)
            self.apart("dyadic.dyadic_pmf_s", gh.DyadicPmf.from_code, code)
        return out, secs

    def huffman(self, x):
        return self.call("approximators.huffman_s", gh.huffman, x)

    def gcc(self, q):
        return self.call("approximators.gcc_s", gh.gcc, q)

    def dyadic_pmf(self, code):
        return self.call("dyadic.dyadic_pmf_s", gh.DyadicPmf.from_code, code)

    def blahut_arimoto(self, dmc, tol):
        return self.call("dmc.blahut_arimoto_s", gh.blahut_arimoto, dmc, tol=tol)

    def clamp_support(self, p):
        return self.call("dmc.clamp_support", gh.clamp_support, p)

    def mutual_information(self, dmc, p):
        return self.call("dmc.mutual_information_s", gh.mutual_information, dmc, p)

    def dnc_capacity(self, spec):
        return self.call("dnc.capacity_s", gh.dnc_capacity, spec)

    def lec(self, spec):
        res = self.call("dnc.lec_s", gh.lec, spec)
        if self.trace is not None:
            self.trace.add("dnc.lec_iterations", res.iterations)
        return res

    def optimize_block_dmc(self, dmc, k, tol):
        rep, total = self._call("dmc.optimize_block_dmc", gh.optimize_block_dmc, dmc, k, tol=tol)
        if self.trace is not None:
            self._block_dmc_parts(dmc, k, tol, total)
        return rep

    def optimize_block_dnc(self, spec, k):
        rep, total = self._call("dnc.optimize_block_dnc", gh.optimize_block_dnc, spec, k)
        if self.trace is not None:
            self._block_dnc_parts(spec, k, total)
        return rep

    # -- self time of compound calls (trace only) --------------------------

    def _timed_ghc_apart(self, x) -> tuple:
        (code, _), secs = self._ghc(x, apart=True)
        return code, secs

    def _block_dmc_parts(self, dmc, k, tol, total):
        res, t_ba = self.apart("dmc.blahut_arimoto_s", gh.blahut_arimoto, dmc, tol=tol)
        p_star, t_clamp = self.apart("dmc.clamp_support", gh.clamp_support, res.p_star)
        target, t_prod = self.apart("pmf.product_pmf_s", gh.product_pmf, p_star, k)
        code, t_ghc = self._timed_ghc_apart(target.probs)
        dyadic, t_dy = self.apart("dyadic.dyadic_pmf_s", gh.DyadicPmf.from_code, code)
        if k == 1:
            # at block 1 the private block MI is the public mutual_information
            self.apart("dmc.mutual_information_s", gh.mutual_information, dmc, dyadic.probs)
        self.trace.add("dmc.optimize_block_self_s", total - (t_ba + t_clamp + t_prod + t_ghc + t_dy))

    def _block_dnc_parts(self, spec, k, total):
        cap, t_cap = self.apart("dnc.capacity_s", gh.dnc_capacity, spec)
        target, t_prod = self.apart("pmf.product_pmf_s", gh.product_pmf, cap.p_star, k)
        code, t_ghc = self._timed_ghc_apart(target.probs)
        _, t_dy = self.apart("dyadic.dyadic_pmf_s", gh.DyadicPmf.from_code, code)
        self.trace.add("dnc.optimize_block_self_s", total - (t_cap + t_prod + t_ghc + t_dy))

    # -- the command line --------------------------------------------------

    def cli(self, argv: list, subprocess_call: bool) -> tuple:
        """Run one CLI call; returns (exit code, stdout text).

        In a subprocess the call pays interpreter and numpy start-up, as a
        user does; in-process it is ``cli.main`` with stdout captured.
        """
        if subprocess_call:
            proc, _ = self._call("cli.subprocess", self._run_subprocess, argv)
            code, out = proc.returncode, proc.stdout
            if self.trace is not None:
                # per-layer figures come from the same call made in-process
                self._cli_parts(argv, self._cli_inprocess(argv, apart=True))
        else:
            code, out, total = self._cli_inprocess(argv, apart=False)
            if self.trace is not None:
                self._cli_parts(argv, (code, out, total))
        if self.trace is not None:
            self.trace.add("cli.stdout_bytes", len(out.encode("ascii")))
        return code, out

    def _run_subprocess(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "geomhuffman.cli", *argv],
            capture_output=True, text=True, env=self.env, cwd=self.root, check=False,
        )

    def _cli_inprocess(self, argv, apart: bool) -> tuple:
        out, err = io.StringIO(), io.StringIO()

        def main():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)

        code, secs = self._call("cli.main", main, apart=apart)
        return code, out.getvalue(), secs

    def _cli_parts(self, argv, result):
        code, _, total = result
        if code != 0:
            return
        command, target = argv[0], argv[1]
        if command == "match":
            self._match_parts(argv, target, total)
        elif command == "dematch":
            tree, _ = self.apart("dyadic.parse_codebook_s", gh.parse_codebook, _read(target))
            symbols = [int(t) for t in _read(argv[argv.index("--symbols-file") + 1]).split()]
            self.apart("matcher.demodulate_s", gh.demodulate, tree, symbols)
        else:
            (_, kind, payload), t_load = self.apart("cli.load_spec_s", cli.load_spec, target)
            if command == "ghc":
                self._ghc_parts(argv, payload, total - t_load)
            elif command == "huffman":
                self.apart("approximators.huffman_s", gh.huffman, payload.probs)
            elif command == "gcc":
                self.apart("approximators.gcc_s", gh.gcc, payload)
            elif command == "dmc":
                k = int(_flag(argv, "--block", 1))
                tol = float(_flag(argv, "--tol", 1e-9))
                _, t_opt = self.apart("dmc.optimize_block_dmc", gh.optimize_block_dmc, payload, k, tol=tol)
                self._block_dmc_parts(payload, k, tol, t_opt)
            elif command == "dnc":
                cap, _ = self.apart("dnc.capacity_s", gh.dnc_capacity, payload)
                k = int(_flag(argv, "--block", 1))
                if "--lec" in argv:
                    res, _ = self.apart("dnc.lec_s", gh.lec, payload)
                    self.trace.add("dnc.lec_iterations", res.iterations)
                elif k > 1:
                    _, t_opt = self.apart("dnc.optimize_block_dnc", gh.optimize_block_dnc, payload, k)
                    self._block_dnc_parts(payload, k, t_opt)
                else:
                    self._timed_ghc_apart(cap.p_star.probs)

    def _ghc_parts(self, argv, pmf, rest):
        code, t_ghc = self._timed_ghc_apart(pmf.probs)
        parts = t_ghc
        if "--codebook" in argv:
            tree, t_tree = self.apart("dyadic.canonical_tree_s", gh.canonical_tree, code)
            _, t_text = self.apart("dyadic.codebook_text_s", gh.codebook_text, tree)
            parts += t_tree + t_text
        _, t_dy = self.apart("dyadic.dyadic_pmf_s", gh.DyadicPmf.from_code, code)
        self.trace.add("cli.ghc_self_s", rest - parts - t_dy)

    def _match_parts(self, argv, codebook, total):
        n = int(_flag(argv, "--symbols", 0))
        seed = int(_flag(argv, "--seed", 0))
        tree, t_parse = self.apart("dyadic.parse_codebook_s", gh.parse_codebook, _read(codebook))
        rep, t_sim = self.apart("matcher.simulate_s", gh.simulate, tree, n, seed)
        self.trace.add("matcher.simulate_bits", rep.bits_consumed)
        bits, t_take = self.apart("matcher.bit_source", lambda: gh.BitSource(seed).take(rep.bits_consumed))
        _, t_mod = self.apart("matcher.modulate_s", gh.modulate, tree, bits)
        self.trace.add("cli.match_replay_s", t_take + t_mod)
        self.trace.add("cli.match_self_s", total - t_parse - t_sim)

    def cli_start(self):
        """Seconds for a fresh interpreter to import geomhuffman.cli."""
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import geomhuffman.cli"],
            env=self.env, cwd=self.root, check=True,
        )
        return time.perf_counter() - t0


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env

