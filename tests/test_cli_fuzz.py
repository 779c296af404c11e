"""A fuzz of the command line, run in process through ``cli.main``.

Spec files mix valid channels with non-number JSON values, NaN and
Infinity tokens and numbers beyond the float range, and DNC specs take
weights at the ends of the float range and bases up to 1e300; codebooks
mix valid canonical codes with duplicate symbols, gaps, prefix clashes,
random bit strings and indices that ``int()`` reads but a codebook
refuses; flags take valid and invalid values.  Every run
must end in exit 0, 1 or 2 without an exception escaping ``main``: exit
0 with parseable stdout, exit 1 or 2 with empty stdout and exactly one
``error:`` line on stderr.  ``match`` on the codebooks of random full
codes up to depth 200 must exit 0, and ``dematch`` of its symbols must
give back the seed's bits.  Sizes are small, so every example ends
within a second or so.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomhuffman import BitSource, canonical_tree, codebook_text, ghc
from geomhuffman.cli import main

# JSON texts of entries that are not numbers, and number tokens that json
# reads as non-finite or out-of-range floats
NON_NUMBERS = ['"0.5"', '"1"', '"x"', "true", "false", "null", "[0.5]", "[]", "{}"]
ODD_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "0", "-1"]
# finite weights at the ends of the float range, and a spread of 1e20
EXTREME_WEIGHTS = ["1e308", "1e-300", "5e-324", "1e20"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err, fmt="json"):
    assert code in (0, 1, 2)
    if code == 0:
        if fmt == "csv":
            assert all("," in line for line in out.splitlines())
        else:
            assert isinstance(json.loads(out), dict)
        assert err.count("\n") == 1 and not err.startswith("error:")
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


def _normalized(ints):
    total = sum(ints)
    return [repr(v / total) for v in ints]


@st.composite
def _entry_texts(draw, valid):
    """JSON texts of entries: the valid ones, one of them possibly replaced
    by a non-number or an odd number token; and whether a non-number went in."""
    texts = list(valid)
    kind = draw(st.sampled_from(["valid", "non-number", "odd"]))
    if kind == "valid":
        return texts, False
    i = draw(st.integers(0, len(texts) - 1))
    texts[i] = draw(st.sampled_from(NON_NUMBERS if kind == "non-number" else ODD_NUMBERS))
    return texts, kind == "non-number"


@st.composite
def spec_docs(draw):
    """(command, spec JSON text, whether an entry is not a number)."""
    kind = draw(st.sampled_from(["pmf", "dmc", "dnc"]))
    ints = st.integers(1, 9)
    if kind == "pmf":
        probs = _normalized(draw(st.lists(ints, min_size=1, max_size=6)))
        texts, bad = draw(_entry_texts(probs))
        command = draw(st.sampled_from(["ghc", "huffman", "gcc", "oracle"]))
        return command, '{"type": "pmf", "probs": [%s]}' % ", ".join(texts), bad
    if kind == "dmc":
        n, m = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        cols = [_normalized(draw(st.lists(ints, min_size=n, max_size=n))) for _ in range(m)]
        flat, bad = draw(_entry_texts([cols[i][j] for j in range(n) for i in range(m)]))
        rows = ("[%s]" % ", ".join(flat[j * m:(j + 1) * m]) for j in range(n))
        return "dmc", '{"type": "dmc", "transition": [%s]}' % ", ".join(rows), bad
    weight = st.one_of(st.integers(1, 5).map(str), st.sampled_from(EXTREME_WEIGHTS))
    weights = draw(st.lists(weight, min_size=2, max_size=5))
    texts, bad = draw(_entry_texts(weights))
    base = draw(st.sampled_from(["2", "3", "10", "1.5", "1e300", "1.0000001"] + NON_NUMBERS + ODD_NUMBERS))
    bad = bad or base in NON_NUMBERS
    return "dnc", '{"type": "dnc", "weights": [%s], "base": %s}' % (", ".join(texts), base), bad


def _flags(command):
    tol = st.sampled_from(["1e-9", "1e-3", "1e-300", "nan", "inf", "0", "-1"])
    block = st.sampled_from(["1", "2", "3", "0", "-1", "x"])
    fmt = st.sampled_from(["json", "csv", "yaml"])
    if command == "dmc":
        extra = {"--block": block, "--tol": tol, "--max-iter": st.sampled_from(["1", "2", "50", "0"])}
    elif command == "dnc":
        extra = {"--block": block, "--tol": tol, "--lec": st.none()}
    elif command == "oracle":
        extra = {"--max-m": st.sampled_from(["3", "10"]), "--l-max": st.sampled_from(["1", "2", "5"])}
    else:
        extra = {}
    extra["--format"] = fmt
    return st.fixed_dictionaries({}, optional=extra)


def _argv_flags(flags):
    argv = []
    for name, value in flags.items():
        argv += [name] if value is None else [name, value]
    return argv


# rows whose index int() reads (as 0, 10, 0 and 10**12 - 1) but that a
# codebook refuses: not ASCII digits, or an index of 2^24 or more
STRICT_INDEX_ROWS = ["+0\t0", "1_0\t1", " 0\t0", "999999999999\t1"]


@st.composite
def codebook_texts(draw):
    """A canonical codebook of a random code, maybe broken by a duplicate
    symbol, a gap, a flipped bit, an extra row or garbage; or random rows."""
    if draw(st.booleans()):
        rows = [
            f"{draw(st.integers(0, 6))}\t{draw(st.text('01', max_size=5))}"
            for _ in range(draw(st.integers(0, 5)))
        ]
        return "\n".join(rows) + "\n"
    weights = np.array(draw(st.lists(st.integers(1, 20), min_size=2, max_size=7)), dtype=float)
    rows = codebook_text(canonical_tree(ghc(weights)[0])).splitlines()
    fault = draw(st.sampled_from(["none", "duplicate", "gap", "flip", "extra", "garbage"]))
    i = draw(st.integers(0, len(rows) - 1))
    sym, bits = rows[i].split("\t")
    if fault == "duplicate":
        rows.append(f"{sym}\t{bits[::-1] or '0'}")
    elif fault == "gap":
        del rows[i]
    elif fault == "flip" and bits:
        rows[i] = f"{sym}\t{bits[:-1]}{'1' if bits[-1] == '0' else '0'}"
    elif fault == "extra":
        rows.append(f"{len(rows) + 3}\t{bits}1")
    elif fault == "garbage":
        rows[i] = draw(st.sampled_from(["x\t0", "1 0", "-1\t0", "2\t0a", "\t"] + STRICT_INDEX_ROWS))
    return "\n".join(rows) + "\n"


@st.composite
def spec_runs(draw):
    """(command, spec JSON text, whether an entry is not a number, flags)."""
    command, text, non_number = draw(spec_docs())
    return command, text, non_number, draw(_flags(command))


# --tol values that dmc and dnc must refuse in every mode
BAD_TOLS = ["nan", "inf", "0", "-1"]
_DNC_123 = '{"type": "dnc", "weights": [1, 2, 3]}'


@settings(max_examples=300, deadline=None)
@given(run=spec_runs())
@example(run=("dnc", _DNC_123, False, {"--tol": "nan"}))
@example(run=("dnc", _DNC_123, False, {"--block": "2", "--tol": "0"}))
def test_spec_commands_exit_cleanly(workdir, run):
    command, text, non_number, flags = run
    path = workdir / "spec.json"
    path.write_text(text)
    argv = [command, str(path)] + _argv_flags(flags)
    codebook = workdir / "spec-cb.tsv"
    codebook.unlink(missing_ok=True)
    if command not in ("dmc", "dnc"):
        argv += ["--codebook", str(codebook)]
    code, out, err = run_main(argv)
    check_outcome(code, out, err, flags.get("--format", "json"))
    # a refused call, such as one with --format yaml, writes no codebook
    assert code == 0 or not codebook.exists(), (argv, err)
    if non_number:
        assert code == 1, (text, err)
    if command in ("dmc", "dnc") and flags.get("--tol") in BAD_TOLS:
        assert code != 0, (text, flags, out)


@settings(max_examples=200, deadline=None)
@given(
    text=codebook_texts(),
    symbols=st.sampled_from(["0", "1", "7", "50", "-1", "x"]),
    seed=st.sampled_from(["0", "7", "-3", str(2**70), "y"]),
    dematch=st.lists(st.integers(-1, 8), max_size=6),
    fmt=st.sampled_from(["json", "csv", "yaml"]),
)
@example(text="+0\t0\n1\t1\n", symbols="7", seed="0", dematch=[0, 1], fmt="json")
@example(text="0\t0\n1_0\t1\n", symbols="7", seed="0", dematch=[0], fmt="csv")
@example(text="0\t1\n 0\t0\n", symbols="1", seed="7", dematch=[], fmt="json")
@example(text="0\t0\n999999999999\t1\n", symbols="1", seed="0", dematch=[0], fmt="json")
def test_codebook_commands_exit_cleanly(workdir, text, symbols, seed, dematch, fmt):
    path = workdir / "cb.tsv"
    path.write_text(text)
    strict = any(row in text.splitlines() for row in STRICT_INDEX_ROWS)
    argv = ["match", str(path), "--symbols", symbols, "--seed", seed, "--format", fmt]
    outcome = run_main(argv)
    check_outcome(*outcome, fmt)
    assert not (strict and outcome[0] == 0), outcome
    argv = ["dematch", str(path), "--symbols", ",".join(map(str, dematch)), "--format", fmt]
    outcome = run_main(argv)
    check_outcome(*outcome, fmt)
    assert not (strict and outcome[0] == 0), outcome


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(1, 5), min_size=2, max_size=5),
    base=st.sampled_from([2, 3, 10, 1.5, 1e300, 1.0000001]),
    flags=st.sampled_from([["--lec"], ["--block", "2"]]),
)
def test_small_integer_dncs_succeed(workdir, weights, base, flags):
    path = workdir / "dnc.json"
    path.write_text(json.dumps({"type": "dnc", "weights": weights, "base": base}))
    code, out, err = run_main(["dnc", str(path)] + flags)
    assert code == 0, err
    check_outcome(code, out, err)


@st.composite
def deep_codebook_texts(draw):
    """The codebook of a random full code up to depth 200, grown by
    splitting first the deepest leaf a drawn number of times, then drawn
    leaves; the leaves go to drawn symbol indices, in drawn row order."""
    leaves = [""]
    for _ in range(draw(st.integers(1, 200))):
        word = leaves.pop()
        leaves += [word + "0", word + "1"]
    for split in draw(st.lists(st.integers(0, 2**20), max_size=60)):
        i = split % len(leaves)
        if len(leaves[i]) < 200:
            word = leaves.pop(i)
            leaves += [word + "0", word + "1"]
    symbols = draw(st.lists(st.integers(0, 2 * len(leaves)), min_size=len(leaves), max_size=len(leaves), unique=True))
    rows = [f"{sym}\t{word}" for sym, word in zip(symbols, leaves)]
    return "\n".join(draw(st.permutations(rows))) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    text=deep_codebook_texts(),
    n=st.one_of(st.integers(1, 50), st.integers(1, 5000)),
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70)),
)
def test_match_of_deep_codes_dematches_to_the_seed_bits(workdir, text, n, seed):
    path = workdir / "deep.tsv"
    path.write_text(text)
    code, out, err = run_main(["match", str(path), "--symbols", str(n), "--seed", str(seed)])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["n_symbols"] == len(rep["symbols"]) == sum(rep["counts"]) == n
    code, out, err = run_main(["dematch", str(path), "--symbols", ",".join(map(str, rep["symbols"]))])
    assert code == 0, err
    bits = BitSource(seed).take(rep["bits_consumed"])
    assert json.loads(out)["bits"] == "".join(map(str, bits.tolist()))


# tokens int() reads as integers, though they are not plain decimal
# indices: signs, underscores, other scripts' digits and padded digits
NON_DECIMAL = ["+1", "-0", "-1", "0_0", "1_0", "\u0663", "\uff13", "\u00b2", "1.0", "1e0", "0x1", "0b1"]


@settings(max_examples=300, deadline=None)
@given(
    tokens=st.lists(
        st.one_of(
            st.sampled_from(["0", "1", "2", "00", "02", "3", "10"]),
            st.sampled_from(NON_DECIMAL),
            st.text(max_size=3),
        ),
        max_size=6,
    ),
    source=st.sampled_from(["--symbols", "--symbols-file"]),
)
def test_dematch_takes_decimal_digits_only(workdir, tokens, source):
    codebook = workdir / "cb3.tsv"
    codebook.write_text(codebook_text(canonical_tree(ghc(np.array([2.0, 1.0, 1.0]))[0])))
    text = ",".join(tokens)
    value = text
    if source == "--symbols-file":
        if not text.isascii():
            return  # a symbols file is ASCII; non-ASCII bytes are a decode error
        value = str(workdir / "symbols.txt")
        (workdir / "symbols.txt").write_text(text)
    code, out, err = run_main(["dematch", str(codebook), f"{source}={value}"])
    check_outcome(code, out, err)
    split = text.replace(",", " ").split()
    bad = [tok for tok in split if not re.fullmatch("[0-9]+", tok)]
    if bad:
        assert code == 1
        named = value if source == "--symbols-file" else source
        assert err == f"error: {named}: symbol {bad[0]!r} is not a decimal index\n"
    else:
        assert code == (0 if all(int(tok) <= 2 for tok in split) else 1), err
