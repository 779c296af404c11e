import json
import time
from pathlib import Path

import pytest

from geomhuffman import dnc as dnc_mod
from geomhuffman.cli import emit_report, load_spec, main
from geomhuffman.errors import SpecFileError

PAPER_PMF = '{"type": "pmf", "probs": [0.328, 0.32, 0.22, 0.11, 0.022]}'
Z_DMC = '{"type": "dmc", "transition": [[1.0, 0.5], [0.0, 0.5]]}'
W123_DNC = '{"type": "dnc", "weights": [1, 2, 3]}'
# `dmc` stdout, byte for byte, on the Z channel at blocks 1 and 2, a 4x4
# channel with zero entries and a 16x16 Dirichlet(1) channel at tol 1e-9:
# every digit of C, the gap and p_star follows from the solver's iterates
DMC_GOLDEN = json.loads((Path(__file__).parent / "data" / "dmc_stdout.json").read_text())


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, text in (
        ("pmf.json", PAPER_PMF),
        ("dmc.json", Z_DMC),
        ("dnc.json", W123_DNC),
    ):
        path = tmp_path / name
        path.write_text(text)
        paths[name.split(".")[0]] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadSpec:
    def test_valid_pmf(self, specs):
        digest, kind, payload = load_spec(specs["pmf"])
        assert kind == "pmf" and payload.m == 5 and len(digest) == 64

    def test_missing_file(self):
        with pytest.raises(SpecFileError, match="cannot read"):
            load_spec("/nonexistent/spec.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecFileError, match="not valid JSON"):
            load_spec(str(path))

    def test_unknown_type(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text('{"type": "mystery"}')
        with pytest.raises(SpecFileError, match="unknown spec type"):
            load_spec(str(path))

    def test_non_stochastic_column_named(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"type": "dmc", "transition": [[0.5, 0.5], [0.4, 0.5]]}')
        with pytest.raises(SpecFileError, match="column 0"):
            load_spec(str(path))

    def test_zero_weight_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"type": "dnc", "weights": [1, 0]}')
        with pytest.raises(SpecFileError, match="positive"):
            load_spec(str(path))

    def test_bad_pmf_sum(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"type": "pmf", "probs": [0.5, 0.4]}')
        with pytest.raises(SpecFileError, match="pmf.probs"):
            load_spec(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"type": "pmf", "probs": ["0.5", "0.5"]}', "pmf.probs: expected a nonempty array of numbers"),
        ('{"type": "pmf", "probs": [true, false]}', "pmf.probs: expected a nonempty array of numbers"),
        ('{"type": "pmf", "probs": [[0.5], [0.5]]}', "pmf.probs: expected a nonempty array of numbers"),
        ('{"type": "dnc", "weights": ["1", "2"], "base": "3"}', "dnc.weights: expected a nonempty array of numbers"),
        ('{"type": "dnc", "weights": [true, 2]}', "dnc.weights: expected a nonempty array of numbers"),
        ('{"type": "dnc", "weights": [[1], [2]]}', "dnc.weights: expected a nonempty array of numbers"),
        ('{"type": "dnc", "weights": [1, 2], "base": "3"}', "dnc.base: expected a number"),
        ('{"type": "dmc", "transition": [["1", 0.5], [0, 0.5]]}', "dmc.transition: expected a row-major 2-d array"),
        ('{"type": "dmc", "transition": [[true, 0.5], [false, 0.5]]}', "dmc.transition: expected a row-major 2-d array"),
    ],
)
def test_spec_entries_must_be_json_numbers(capsys, tmp_path, text, message):
    # numpy would coerce each of these into a valid channel
    path = tmp_path / "spec.json"
    path.write_text(text)
    command = {"pmf": "ghc", "dmc": "dmc", "dnc": "dnc"}[json.loads(text)["type"]]
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"type": "pmf", "probs": ["a", "b"]}', "pmf.probs: could not convert string to float: 'a'"),
        ('{"type": "pmf", "probs": ["0.5", "0.4"]}', "pmf.probs: PMF entries sum to 0.9, expected 1 within 1e-09"),
        ('{"type": "dnc", "weights": [1, 2], "base": true}', "dnc: log base must be > 1"),
        ('{"type": "dnc", "weights": [1, 2], "base": "x"}', "dnc: could not convert string to float: 'x'"),
    ],
)
def test_spec_errors_before_the_number_check_keep_their_message(capsys, tmp_path, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    command = {"pmf": "ghc", "dnc": "dnc"}[json.loads(text)["type"]]
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


class TestEmitReport:
    def test_json_round_trip(self):
        report = {"command": "ghc", "lengths": [1, 2, "inf"], "kl_bits": 0.136195}
        parsed = json.loads(emit_report(report, "json"))
        assert parsed == report

    def test_csv_flat_rows(self):
        report = {"command": "ghc", "lengths": [1, 2, "inf"], "kl_bits": 0.25}
        assert emit_report(report, "csv") == "command,ghc\nlengths,1;2;inf\nkl_bits,0.25"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            emit_report({}, "yaml")


class TestSubcommands:
    def test_ghc_worked_example(self, capsys, specs):
        code, out, err = run(capsys, "ghc", specs["pmf"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "ghc"
        assert report["lengths"] == [1, 2, 3, 3, "inf"]
        assert abs(report["kl_bits"] - 0.13619) < 5e-5
        assert "ghc" in err  # human summary on stderr

    def test_huffman(self, capsys, specs):
        code, out, _ = run(capsys, "huffman", specs["pmf"])
        assert code == 0
        report = json.loads(out)
        assert report["lengths"] == [2, 2, 2, 3, 3]
        assert abs(report["kl_bits"] - 0.19548) < 5e-5

    def test_gcc(self, capsys, specs):
        code, out, _ = run(capsys, "gcc", specs["pmf"])
        assert code == 0
        report = json.loads(out)
        assert report["lengths"] == [1, 1, "inf", "inf", "inf"]

    def test_oracle_matches_ghc(self, capsys, specs):
        code, out, _ = run(capsys, "oracle", specs["pmf"])
        assert code == 0
        report = json.loads(out)
        assert report["lengths"] == [1, 2, 3, 3, "inf"]

    def test_oracle_guard_exit_2(self, capsys, specs):
        code, _, err = run(capsys, "oracle", specs["pmf"], "--max-m", "3")
        assert code == 2
        assert "guard" in err

    def test_dmc(self, capsys, specs):
        code, out, _ = run(capsys, "dmc", specs["dmc"])
        assert code == 0
        report = json.loads(out)
        assert abs(report["capacity_bits"] - 0.321928094887) < 1e-6
        assert report["lengths"] == [1, 1]
        assert abs(report["per_use_mi"] - 0.311278) < 1e-5
        assert abs(report["bound"] - 0.292481) < 1e-5
        assert report["per_use_mi"] >= report["bound"]

    def test_dmc_block(self, capsys, specs):
        code, out, _ = run(capsys, "dmc", specs["dmc"], "--block", "2")
        assert code == 0
        report = json.loads(out)
        assert report["block"] == 2
        assert report["lengths"] == [2, 2, 2, 2]

    @pytest.mark.parametrize("case", DMC_GOLDEN, ids=[case["name"] for case in DMC_GOLDEN])
    def test_dmc_stdout_bytes(self, capsys, tmp_path, case):
        path = tmp_path / "spec.json"
        path.write_text(case["spec"])
        code, out, _ = run(capsys, "dmc", str(path), *case["flags"])
        assert code == 0
        assert out == case["stdout"]

    def test_dnc_lec(self, capsys, specs):
        code, out, _ = run(capsys, "dnc", specs["dnc"], "--lec")
        assert code == 0
        report = json.loads(out)
        assert abs(report["capacity_bits"] - 0.879146421607) < 1e-9
        assert abs(report["R"] - 0.97497) < 1e-4
        assert report["lengths"] == [1, 2, 2]

    def test_dnc_block(self, capsys, specs):
        code, out, _ = run(capsys, "dnc", specs["dnc"], "--block", "2")
        assert code == 0
        report = json.loads(out)
        assert report["block"] == 2
        assert len(report["lengths"]) == 9

    @pytest.mark.parametrize("flags", [(), ("--lec",), ("--block", "3")])
    def test_dnc_solves_the_capacity_once(self, capsys, specs, monkeypatch, flags):
        calls = []
        solve = dnc_mod.dnc_capacity

        def counting(spec):
            calls.append(spec)
            return solve(spec)

        monkeypatch.setattr(dnc_mod, "dnc_capacity", counting)
        code, out, _ = run(capsys, "dnc", specs["dnc"], *flags)
        assert code == 0 and json.loads(out)["command"] == "dnc"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "w, b", [((1, 1, 1, 1), 3), ((0.7, 1.4, 1.4), 10), ((5, 5, 5, 5), 1.5)]
    )
    def test_dnc_lec_on_a_dyadic_p_star(self, capsys, tmp_path, w, b):
        # lec returns R = 1 + 2**-52 here, which weighted_target takes as
        # rounding: the divergence is against p*^R, not an exit 1
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"type": "dnc", "weights": list(w), "base": b}))
        code, out, err = run(capsys, "dnc", str(path), "--lec")
        assert code == 0, err
        report = json.loads(out)
        assert report["R"] == pytest.approx(1.0, abs=1e-15)
        assert report["kl_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_dnc_block_single_leaf_rate_is_positive_zero(self, capsys, tmp_path):
        # the block code keeps one leaf, whose entropy is -0.0; the rate
        # used to print as -0
        path = tmp_path / "w.json"
        path.write_text('{"type": "dnc", "weights": [1, 1e308]}')
        code, out, err = run(capsys, "dnc", str(path), "--block", "2")
        assert code == 0, err
        assert '"rate": 0,' in out
        assert "rate=0.000000" in err

    def test_match_and_dematch_inverse(self, capsys, specs, tmp_path):
        codebook = tmp_path / "cb.tsv"
        code, _, _ = run(capsys, "ghc", specs["pmf"], "--codebook", str(codebook))
        assert code == 0
        assert codebook.read_text() == "0\t0\n1\t10\n2\t110\n3\t111\n"

        code, out, _ = run(capsys, "match", str(codebook), "--symbols", "8", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["symbols"] == [0, 2, 0, 0, 3, 1, 0, 1]  # frozen seed-7 stream
        assert report["bits_consumed"] == 14
        assert sum(report["counts"]) == 8

        code, out2, _ = run(
            capsys, "dematch", str(codebook),
            "--symbols", ",".join(str(s) for s in report["symbols"]),
        )
        assert code == 0
        dem = json.loads(out2)
        assert dem["n_bits"] == report["bits_consumed"]
        # the dematched bits are exactly the seed-7 prefix
        from geomhuffman import BitSource

        prefix = "".join(str(b) for b in BitSource(7).take(14).tolist())
        assert dem["bits"] == prefix

    def test_dematch_rejects_dropped_symbol(self, capsys, specs, tmp_path):
        codebook = tmp_path / "cb.tsv"
        run(capsys, "ghc", specs["pmf"], "--codebook", str(codebook))
        code, _, err = run(capsys, "dematch", str(codebook), "--symbols", "0,4")
        assert code == 1

    def test_dematch_non_ascii_symbols_file_names_the_file(self, capsys, specs, tmp_path):
        codebook = tmp_path / "cb.tsv"
        run(capsys, "ghc", specs["pmf"], "--codebook", str(codebook))
        path = tmp_path / "symbols.txt"
        path.write_bytes(b"0 1 \xc3\xa9\n")
        code, out, err = run(capsys, "dematch", str(codebook), "--symbols-file", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: 'ascii' codec can't decode byte 0xc3")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("source", ["--symbols", "--symbols-file"])
    def test_dematch_non_integer_token_is_named(self, capsys, specs, tmp_path, source):
        codebook = tmp_path / "cb.tsv"
        run(capsys, "ghc", specs["pmf"], "--codebook", str(codebook))
        value = "0, 1 2.5 x7"
        if source == "--symbols-file":
            path = tmp_path / "symbols.txt"
            path.write_text(value)
            value = str(path)
        code, out, err = run(capsys, "dematch", str(codebook), source, value)
        assert code == 1 and out == ""
        named = "--symbols" if source == "--symbols" else value
        assert err == f"error: {named}: symbol '2.5' is not a decimal index\n"

    @pytest.mark.parametrize("source", ["--symbols", "--symbols-file"])
    def test_dematch_over_long_token_is_named(self, capsys, specs, tmp_path, source):
        # 5000 digits are more than int() reads from a string by default
        codebook = tmp_path / "cb.tsv"
        run(capsys, "ghc", specs["pmf"], "--codebook", str(codebook))
        value = "0 " + "1" * 5000 + " 1"
        if source == "--symbols-file":
            path = tmp_path / "symbols.txt"
            path.write_text(value)
            value = str(path)
        code, out, err = run(capsys, "dematch", str(codebook), source, value)
        assert code == 1 and out == ""
        named = "--symbols" if source == "--symbols" else value
        assert err == f"error: {named}: symbol '{'1' * 20}...' of 5000 digits is out of range\n"

    def test_unknown_format_flag_is_input_error(self, capsys, specs, tmp_path):
        codebook = tmp_path / "cb.tsv"
        code, out, err = run(capsys, "ghc", specs["pmf"], "--codebook", str(codebook), "--format", "yaml")
        assert code == 1 and out == ""
        assert err == "error: unknown format flag 'yaml'\n"
        # refused before the code is built and its codebook written
        assert not codebook.exists()

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(capsys, "ghc", "/definitely/not/here.json")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [("dmc", "dmc", "--tol", "nan"), ("dmc", "dmc", "--tol", "inf"),
         ("dnc", "dnc", "--lec", "--tol", "nan"), ("dnc", "dnc", "--tol", "nan"),
         ("dnc", "dnc", "--block", "2", "--tol", "inf")],
    )
    def test_non_finite_tolerance_is_input_error(self, capsys, specs, argv):
        command, key, *flags = argv
        code, out, err = run(capsys, command, specs[key], *flags)
        assert code == 1 and out == ""
        assert err == "error: tol must be finite and positive\n"

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_below_one_is_input_error(self, capsys, specs, max_iter):
        code, out, err = run(capsys, "dmc", specs["dmc"], "--max-iter", max_iter)
        assert code == 1 and out == ""
        assert err == "error: max_iter must be >= 1\n"

    def test_iteration_cap_is_guard_error(self, capsys, specs):
        code, out, err = run(capsys, "dmc", specs["dmc"], "--max-iter", "2")
        assert code == 2 and out == ""
        assert err == (
            "error: capacity solver did not reach tol=1e-09 within 2 iterations "
            "(gap 6.345e-02)\n"
        )

    def test_unwritable_codebook_is_input_error(self, capsys, specs, tmp_path):
        target = tmp_path / "missing" / "x.tsv"
        code, out, err = run(capsys, "ghc", specs["pmf"], "--codebook", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("w", ["1e300", "1e-300"])
    def test_dnc_extreme_weights(self, capsys, tmp_path, w):
        path = tmp_path / "w.json"
        path.write_text(f'{{"type": "dnc", "weights": [{w}, {w}]}}')
        code, out, _ = run(capsys, "dnc", str(path))
        assert code == 0
        assert json.loads(out)["capacity_bits"] == pytest.approx(1.0 / float(w), rel=1e-12)

    def test_dnc_mixed_extreme_weights_print_no_warning(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"type": "dnc", "weights": [1e-300, 1e300]}')
        code, _, err = run(capsys, "dnc", str(path))
        assert code == 0
        assert err.count("\n") == 1 and err.startswith("dnc: C=")

    @pytest.mark.parametrize("flags", [(), ("--lec",), ("--block", "2")])
    def test_dnc_huge_base_and_weight_solve(self, capsys, tmp_path, flags):
        # the solve used to scale the weights by ln(b), which overflowed
        # here and ended in a RuntimeError traceback; C in bits, from mpmath
        path = tmp_path / "w.json"
        path.write_text('{"type": "dnc", "weights": [1, 1e308], "base": 1e300}')
        code, out, err = run(capsys, "dnc", str(path), *flags)
        assert code == 0, err
        assert json.loads(out)["capacity_bits"] == pytest.approx(1.0136972085300726569e-305, rel=1e-11)

    def test_dnc_infinite_base_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"type": "dnc", "weights": [1, 2, 3], "base": 1e400}')
        code, out, err = run(capsys, "dnc", str(path))
        assert code == 1 and out == ""
        assert err == "error: dnc: log base must be finite\n"

    @pytest.mark.parametrize(
        "flags", [("--block", "0"), ("--block", "-3"), ("--lec", "--block", "0")]
    )
    def test_dnc_block_below_one_is_input_error(self, capsys, specs, flags):
        code, out, err = run(capsys, "dnc", specs["dnc"], *flags)
        assert code == 1 and out == ""
        assert err == "error: block length k must be >= 1\n"

    def test_dnc_flag_errors_come_before_the_capacity_solve(self, capsys, specs, monkeypatch):
        def unreachable(spec):
            raise AssertionError("capacity solved before the flags were checked")

        monkeypatch.setattr(dnc_mod, "dnc_capacity", unreachable)
        for flags in (("--lec", "--block", "2"), ("--block", "0")):
            code, out, _ = run(capsys, "dnc", specs["dnc"], *flags)
            assert code == 1 and out == ""

    @pytest.mark.parametrize(
        "command, k, count",
        [
            ("dmc", "30", "block channel would need 1073741824"),
            # counts too long to print, or to compute in bounded time
            ("dmc", "100000000", "block channel would need 2**100000000"),
            ("dmc", "1000000000000", "block channel would need 2**1000000000000"),
            ("dnc", "100000000", "product PMF would hold 3**100000000"),
        ],
    )
    def test_huge_block_is_guard_error_at_once(self, capsys, specs, command, k, count):
        start = time.perf_counter()
        code, out, err = run(capsys, command, specs[command], "--block", k)
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert err == f"error: {count} entries, cap is 16777216\n"

    def test_huge_symbol_count_is_guard_error_at_once(self, capsys, specs, tmp_path):
        codebook = tmp_path / "cb.tsv"
        run(capsys, "ghc", specs["pmf"], "--codebook", str(codebook))
        start = time.perf_counter()
        code, out, err = run(capsys, "match", str(codebook), "--symbols", "100000000000")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert err == "error: match guard: 100000000000 symbols, cap is 16777216\n"

    def test_bad_subcommand_is_input_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_csv_format_parses_to_same_values(self, capsys, specs):
        _, out_json, _ = run(capsys, "ghc", specs["pmf"])
        _, out_csv, _ = run(capsys, "ghc", specs["pmf"], "--format", "csv")
        report = json.loads(out_json)
        rows = dict(line.split(",", 1) for line in out_csv.strip().splitlines())
        assert rows["lengths"] == "1;2;3;3;inf"
        assert float(rows["kl_bits"]) == report["kl_bits"]

    def test_stdout_machine_readable_only(self, capsys, specs):
        _, out, err = run(capsys, "dnc", specs["dnc"])
        json.loads(out)  # stdout parses as JSON
        assert err and not err.startswith("{")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("ghc", "pmf"),
            ("huffman", "pmf"),
            ("gcc", "pmf"),
            ("oracle", "pmf"),
            ("dmc", "dmc"),
            ("dnc", "dnc"),
        ],
    )
    def test_byte_identical_stdout(self, capsys, specs, argv):
        cmd, spec_key = argv
        _, out1, _ = run(capsys, cmd, specs[spec_key])
        _, out2, _ = run(capsys, cmd, specs[spec_key])
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "cmd, flags",
        [
            ("match", ("--symbols", "5000", "--seed", "3")),
            ("dematch", ("--symbols", "0,1,2,3,3,0")),
        ],
    )
    def test_byte_identical_stream_stdout(self, capsys, specs, tmp_path, cmd, flags, fmt):
        codebook = tmp_path / "cb.tsv"
        run(capsys, "ghc", specs["pmf"], "--codebook", str(codebook))
        _, out1, _ = run(capsys, cmd, str(codebook), *flags, "--format", fmt)
        _, out2, _ = run(capsys, cmd, str(codebook), *flags, "--format", fmt)
        assert out1 and out1 == out2
