"""Command-line frontend.

Machine-readable reports go to stdout (JSON by default, CSV with
``--format csv``), a one-line human summary goes to stderr.  Exit codes:
0 success, 1 input error, 2 internal guard (size caps, iteration caps).
Floating values are printed with 12 significant digits and identical
inputs always produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import approximators, dmc as dmc_mod, dnc as dnc_mod, dyadic, matcher
from .errors import (
    ConvergenceError,
    GuardExceededError,
    SpecFileError,
)
from .pmf import Pmf, kl_divergence


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# report serialization


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"'
    return f"{x:.12g}"


def _exact_ints(seq) -> bool:
    """Whether every entry of seq is an exact int (not a bool or a numpy
    integer), whose text is the same from str() as from the C encoder."""
    return set(map(type, seq)) <= {int}


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
        if _exact_ints(value):
            return json.dumps(value)
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _flat_value(value) -> str:
    if isinstance(value, (list, tuple)):
        if _exact_ints(value):
            return ";".join(map(str, value))
        return ";".join(_flat_value(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return "inf" if math.isinf(value) else f"{float(value):.12g}"
    return str(value)


def _check_format(fmt: str):
    if fmt not in ("json", "csv"):
        raise _UsageError(f"unknown format flag {fmt!r}")


def emit_report(report: dict, fmt: str = "json") -> str:
    """Serialize a report dict; fmt is 'json' or 'csv'."""
    _check_format(fmt)
    if fmt == "json":
        return _json_value(report)
    return "\n".join(f"{key},{_flat_value(value)}" for key, value in report.items())


def _pmf_json(p: Pmf) -> list:
    return [float(v) for v in p.probs.tolist()]


def _code_entries(code: dyadic.CodeLengths, kl_bits: float) -> dict:
    """The report entries of a code: its lengths, its dyadic PMF and its
    divergence from the target it was built for."""
    return {
        "lengths": list(code.lengths),
        "dyadic_pmf": _pmf_json(dyadic.DyadicPmf.from_code(code).probs),
        "kl_bits": kl_bits,
    }


# ---------------------------------------------------------------------------
# spec files


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from None


def _numbers(values: list) -> bool:
    """Whether every entry is exactly an int or a float, as JSON numbers are."""
    return set(map(type, values)) <= {int, float}


def load_spec(path: str):
    """Parse and validate a channel spec file.

    Returns (digest, kind, payload) where kind is 'pmf', 'dmc', or 'dnc'
    and payload is the validated Pmf / DmcSpec / DncSpec.  Arrays and the
    base must hold JSON numbers, not what numpy would coerce into them.
    """
    raw = _read_file(path)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or "type" not in doc:
        raise SpecFileError(f"{path}: top level must be an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "pmf":
            probs = doc.get("probs")
            if not isinstance(probs, list) or not probs:
                raise SpecFileError("pmf.probs: expected a nonempty array of numbers")
            try:
                payload = Pmf(np.array(probs, dtype=np.float64))
            except ValueError as exc:
                raise SpecFileError(f"pmf.probs: {exc}") from None
            if not _numbers(probs):
                raise SpecFileError("pmf.probs: expected a nonempty array of numbers")
        elif kind == "dmc":
            rows = doc.get("transition")
            if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
                raise SpecFileError("dmc.transition: expected a row-major 2-d array")
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise SpecFileError("dmc.transition: rows have unequal lengths")
            try:
                payload = dmc_mod.DmcSpec(np.array(rows, dtype=np.float64))
            except ValueError as exc:
                raise SpecFileError(f"dmc.transition: {exc}") from None
            if not all(map(_numbers, rows)):
                raise SpecFileError("dmc.transition: expected a row-major 2-d array")
        elif kind == "dnc":
            weights = doc.get("weights")
            if not isinstance(weights, list) or not weights:
                raise SpecFileError("dnc.weights: expected a nonempty array of numbers")
            base = doc.get("base", 2)
            try:
                payload = dnc_mod.DncSpec(np.array(weights, dtype=np.float64), float(base))
            except ValueError as exc:
                raise SpecFileError(f"dnc: {exc}") from None
            if not _numbers(weights):
                raise SpecFileError("dnc.weights: expected a nonempty array of numbers")
            if type(base) not in (int, float):
                raise SpecFileError("dnc.base: expected a number")
        else:
            raise SpecFileError(f"{path}: unknown spec type {kind!r}")
    except (TypeError, OverflowError) as exc:
        raise SpecFileError(f"{path}: {exc}") from None
    return _digest(raw), kind, payload


def _require_kind(kind: str, payload, wanted: str, command: str):
    if kind != wanted:
        raise SpecFileError(f"{command} needs a {wanted!r} spec, got {kind!r}")
    return payload


def _maybe_write_codebook(args, code: dyadic.CodeLengths):
    if getattr(args, "codebook", None):
        tree = dyadic.canonical_tree(code)
        try:
            with open(args.codebook, "w", encoding="ascii") as fh:
                fh.write(dyadic.codebook_text(tree))
        except OSError as exc:
            raise _UsageError(f"cannot write {args.codebook}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_approx(args):
    digest, kind, payload = load_spec(args.spec)
    pmf = _require_kind(kind, payload, "pmf", args.command)
    if args.command == "ghc":
        code, d = approximators.ghc(pmf.probs)
    elif args.command == "huffman":
        code, d = approximators.huffman(pmf.probs)
    elif args.command == "gcc":
        code, d = approximators.gcc(pmf)
    else:  # oracle
        if pmf.m > args.max_m:
            raise GuardExceededError(
                f"oracle guard: m={pmf.m} exceeds --max-m {args.max_m}"
            )
        code, d = dyadic.brute_force_min_kl(pmf.probs, l_max=args.l_max)
    _maybe_write_codebook(args, code)
    report = {"command": args.command, "input_digest": digest, **_code_entries(code, d)}
    summary = (
        f"{args.command}: m={code.m} kept={code.finite_count} kl={d:.6f} bits"
    )
    return report, summary


def _cmd_dmc(args):
    digest, kind, payload = load_spec(args.spec)
    channel = _require_kind(kind, payload, "dmc", "dmc")
    rep = dmc_mod.optimize_block_dmc(
        channel, args.block, tol=args.tol, max_iter=args.max_iter
    )
    report = {
        "command": "dmc",
        "input_digest": digest,
        "capacity_bits": rep.capacity,
        "achieved_tol": rep.achieved_tol,
        "p_star": _pmf_json(rep.p_star),
        "block": rep.block,
        **_code_entries(rep.lengths, rep.kl_bits),
        "per_use_mi": rep.per_use_mi,
        "bound": rep.per_use_bound,
    }
    summary = (
        f"dmc: C={rep.capacity:.6f} bits/use, block={rep.block}, "
        f"per-use MI={rep.per_use_mi:.6f} >= bound {rep.per_use_bound:.6f}"
    )
    return report, summary


def _cmd_dnc(args):
    digest, kind, payload = load_spec(args.spec)
    spec = _require_kind(kind, payload, "dnc", "dnc")
    if args.block < 1:
        raise _UsageError("block length k must be >= 1")
    if args.lec and args.block > 1:
        raise _UsageError("--lec and --block are mutually exclusive")
    # checked in every mode, though only --lec reads it
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise _UsageError("tol must be finite and positive")
    if args.lec:
        res = dnc_mod.lec(spec, tol=args.tol)
        cap = res.solved
        tilted = dnc_mod.weighted_target(cap.p_star, res.R)
        d = kl_divergence(dyadic.DyadicPmf.from_code(res.lengths).probs, tilted)
        entries = {"R": res.R, "rate": res.rate, "iterations": res.iterations,
                   **_code_entries(res.lengths, d)}
        summary = f"LEC R={res.R:.6f} in {res.iterations} iterations"
    elif args.block > 1:
        rep = dnc_mod.optimize_block_dnc(spec, args.block)
        cap = rep.solved
        entries = {"block": rep.block, **_code_entries(rep.lengths, rep.kl_bits),
                   "rate": rep.rate, "bound": rep.lower_bound}
        summary = f"block={rep.block}, rate={rep.rate:.6f}"
    else:
        cap = dnc_mod.dnc_capacity(spec)
        code, d = approximators.ghc(cap.p_star.probs)
        entries = _code_entries(code, d)
        summary = f"single-shot kl={d:.6f} bits"
    report = {
        "command": "dnc",
        "input_digest": digest,
        "capacity_bits": cap.C,
        "root_residual": cap.root_residual,
        "p_star": _pmf_json(cap.p_star),
        **entries,
    }
    return report, f"dnc: C={cap.C:.6f}, {summary}"


def _load_tree(path: str):
    raw = _read_file(path)
    try:
        tree = dyadic.parse_codebook(raw.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"{path}: {exc}") from None
    return _digest(raw), tree


def _cmd_match(args):
    digest, tree = _load_tree(args.codebook)
    rep = matcher.simulate(tree, args.symbols, args.seed)
    report = {
        "command": "match",
        "input_digest": digest,
        "seed": args.seed,
        "n_symbols": rep.n_symbols,
        "bits_consumed": rep.bits_consumed,
        "counts": rep.symbol_counts,
        "symbols": rep.symbols,
    }
    summary = (
        f"match: {rep.n_symbols} symbols from {rep.bits_consumed} bits (seed {args.seed})"
    )
    return report, summary


def _parse_symbol_list(args):
    """The symbol indices that --symbols or --symbols-file gives.

    Indices are ASCII decimal digits, separated by commas and whitespace.
    A text of ASCII digits, commas and ASCII whitespace with no index
    longer than 18 digits is read into one int64 array.  Any other text is
    split into tokens and read into a list of Python ints, of any size;
    the first token that is not a decimal index, or else the longest if
    one has more digits than int() reads, names the error.
    """
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
    symbols = _symbol_array(text)
    if symbols is not None:
        return symbols
    tokens = text.replace(",", " ").split()
    # indices are ASCII decimal digits only: int() would also take signs,
    # underscores and other scripts' digits
    digits = "".join(tokens)
    if tokens and not (digits.isascii() and digits.isdigit()):
        bad = next(tok for tok in tokens if not (tok.isascii() and tok.isdigit()))
        raise SpecFileError(f"{source}: symbol {bad!r} is not a decimal index")
    try:
        return list(map(int, tokens))
    except ValueError:
        # int() refuses digit strings longer than sys.get_int_max_str_digits()
        bad = max(tokens, key=len)
        raise SpecFileError(
            f"{source}: symbol '{bad[:20]}...' of {len(bad)} digits is out of range"
        ) from None


def _symbol_array(text: str):
    """The indices of a text of ASCII digits, commas and the ASCII
    whitespace that str.split and numpy's text parse share (space, tab,
    newline, carriage return, vertical tab, form feed), none of them longer
    than 18 digits, as one int64 array; None for any other text."""
    if not text.isascii():
        return None
    text = text.replace(",", " ")
    raw = np.frombuffer(text.encode("ascii"), np.uint8)
    digit = raw - 48 < 10  # uint8 wraps the characters below "0" past 10
    n_digits = np.count_nonzero(digit)
    if n_digits + np.count_nonzero(raw == 32) + np.count_nonzero(raw - 9 < 5) < raw.size:
        return None
    if not n_digits:
        return np.zeros(0, np.int64)  # numpy reads a blank text as [0]
    # 19 digits in a row: the digit mask ANDed with itself shifted by 1, 2,
    # 4, 8 and 3 places.  Shorter indices fit int64 and int() reads them
    run = digit
    for shift in (1, 2, 4, 8, 3):
        run = run[shift:] & run[:-shift]
    if run.any():
        return None
    return np.fromstring(text, np.int64, sep=" ")


def _cmd_dematch(args):
    digest, tree = _load_tree(args.codebook)
    symbols = _parse_symbol_list(args)
    bits = matcher.demodulate(tree, symbols)
    report = {
        "command": "dematch",
        "input_digest": digest,
        "n_symbols": len(symbols),
        "n_bits": len(bits),
        "bits": bits,
    }
    summary = f"dematch: {len(symbols)} symbols -> {len(bits)} bits"
    return report, summary


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="geomhuffman", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_command(name, help_text, oracle=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="channel spec JSON file (type 'pmf')")
        p.add_argument("--codebook", help="also write the canonical codebook TSV here")
        p.add_argument("--format", default="json", help="json (default) or csv")
        if oracle:
            p.add_argument("--max-m", type=int, default=10, dest="max_m",
                           help="refuse inputs with more symbols than this (default 10)")
            p.add_argument("--l-max", type=int, default=None, dest="l_max",
                           help="depth cap for the exhaustive search (default m-1)")
        p.set_defaults(func=_cmd_approx)

    add_spec_command("ghc", "optimal dyadic PMF minimizing D(p||x)")
    add_spec_command("huffman", "Huffman baseline (minimizes D(x||p))")
    add_spec_command("gcc", "greedy floor-of-log code with D <= 1 bit")
    add_spec_command("oracle", "exhaustive minimum-divergence search", oracle=True)

    p = sub.add_parser("dmc", help="discrete memoryless channel optimization")
    p.add_argument("spec", help="channel spec JSON file (type 'dmc')")
    p.add_argument("--tol", type=float, default=1e-9, help="capacity solver gap (default 1e-9)")
    p.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
    p.add_argument("--block", type=int, default=1, help="block length k (default 1)")
    p.add_argument("--format", default="json")
    p.set_defaults(func=_cmd_dmc)

    p = sub.add_parser("dnc", help="memoryless discrete noiseless channel optimization")
    p.add_argument("spec", help="channel spec JSON file (type 'dnc')")
    p.add_argument("--lec", action="store_true", help="run the fixed-point iteration for R")
    p.add_argument("--block", type=int, default=1, help="block length k (default 1)")
    p.add_argument("--tol", type=float, default=1e-12, help="LEC termination tolerance")
    p.add_argument("--format", default="json")
    p.set_defaults(func=_cmd_dnc)

    p = sub.add_parser("match", help="emit symbols by parsing seeded fair bits")
    p.add_argument("codebook", help="codebook TSV (symbol_index<TAB>codeword_bits)")
    p.add_argument("--symbols", type=int, required=True, help="number of symbols to emit")
    p.add_argument("--seed", type=int, default=0, help="bit source seed (default 0)")
    p.add_argument("--format", default="json")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("dematch", help="map symbols back to their bit stream")
    p.add_argument("codebook", help="codebook TSV (symbol_index<TAB>codeword_bits)")
    p.add_argument("--symbols", help="comma- or space-separated symbol indices")
    p.add_argument("--symbols-file", dest="symbols_file", help="file of symbol indices")
    p.add_argument("--format", default="json")
    p.set_defaults(func=_cmd_dematch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a bad format is refused before any work or written codebook
        _check_format(args.format)
        report, summary = args.func(args)
        out = emit_report(report, args.format)
    except (_UsageError, SpecFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GuardExceededError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
