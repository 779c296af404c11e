import json
import time

import pytest

from geomhuffman import dnc as dnc_mod
from geomhuffman.cli import emit_report, load_spec, main
from geomhuffman.errors import SpecFileError

PAPER_PMF = '{"type": "pmf", "probs": [0.328, 0.32, 0.22, 0.11, 0.022]}'
Z_DMC = '{"type": "dmc", "transition": [[1.0, 0.5], [0.0, 0.5]]}'
W123_DNC = '{"type": "dnc", "weights": [1, 2, 3]}'


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

    def test_unknown_format_flag_is_input_error(self, capsys, specs):
        code, _, err = run(capsys, "ghc", specs["pmf"], "--format", "yaml")
        assert code == 1
        assert "unknown format" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(capsys, "ghc", "/definitely/not/here.json")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [("dmc", "dmc", "--tol", "nan"), ("dmc", "dmc", "--tol", "inf"),
         ("dnc", "dnc", "--lec", "--tol", "nan")],
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
