"""End-to-end tests for the command-line interface.

main() is called in-process; parse failures surface as SystemExit(2)
from argparse, domain failures as return code 3, success as 0.
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

import ropcalc
from ropcalc import collision_probability, solve_space
from ropcalc.cli import main, parse_count_expr, parse_space_expr


def run(capsys, *argv):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse parse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestSpaceExpr:
    def test_plain_integer(self):
        assert parse_space_expr("365") == 365

    def test_scientific(self):
        assert parse_space_expr("8.2e9") == 8.2e9

    def test_power_form_is_exact(self):
        assert parse_space_expr("2^36") == 68_719_476_736
        assert parse_space_expr("10^20") == 10**20

    def test_outer_whitespace_tolerated(self):
        assert parse_space_expr(" 2^47 ") == 2**47

    @pytest.mark.parametrize("bad", ["abc", "2^", "^3", "2^2^2", "1e", "2^9999", "",
                                     "6,9e10", "3,65", "1,000.5", "1, 000", "2,3^4"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ValueError):
            parse_space_expr(bad)

    def test_huge_power_is_refused_before_it_is_formed(self):
        # a 2,000-digit base to the 4096th has ~27 million bits; forming it
        # first took seconds
        start = time.perf_counter()
        with pytest.raises(ValueError, match="power too large"):
            parse_space_expr("9" * 2000 + "^4096")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("text, value", [
        ("68,719,476,736", 68_719_476_736), ("1,000,000", 10**6), ("1_000_000", 10**6),
        ("1 000", 1000), ("2^1_000", 2**1000), ("1,000^2", 10**6),
    ])
    def test_separators_only_between_digit_groups(self, text, value):
        assert parse_space_expr(text) == value and type(parse_space_expr(text)) is int
        if "^" not in text:
            assert parse_count_expr(text) == value

    def test_count_expr(self):
        assert parse_count_expr("1e6") == 10**6
        assert parse_count_expr("1,000,000") == 10**6
        assert parse_count_expr("1.4e7") == 14_000_000
        for decimal_comma in ("1,4e7", "3,65", "1,5"):
            with pytest.raises(ValueError):
                parse_count_expr(decimal_comma)
        with pytest.raises(ValueError):
            parse_count_expr("2.5")
        with pytest.raises(ValueError):
            parse_count_expr("2^20")  # power form is for spaces only


class TestProb:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "prob", "-t", "365", "-p", "23")
        assert code == 0
        assert "probability: 0.5072972343239854 (50.73%)" in out
        assert "method: exact" in out

    def test_json_is_bit_for_bit(self, capsys):
        code, out, _ = run(capsys, "prob", "-t", "365", "-p", "23", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        r = collision_probability(365, 23)
        assert payload["probability"] == r.probability
        assert payload["log_survival"] == r.log_survival
        assert payload["method"] == "exact"
        assert payload["order"] is None
        assert payload["error_bound"] == 0.0
        assert payload["note"] is None

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "prob", "-t", "365", "-p", "23", "--format", "csv")
        header, row = out.strip().splitlines()
        assert header == "probability,log_survival,method,order,error_bound,note"
        assert row.startswith("0.5072972343239854,")

    def test_power_expression_space(self, capsys):
        code, out, _ = run(
            capsys, "prob", "-t", "2^36", "-p", "1e6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.9993080422308641, abs=1e-12)

    def test_series_method_and_order(self, capsys):
        code, out, _ = run(
            capsys,
            "prob", "-t", "2^36", "-p", "1e6",
            "--method", "series", "--order", "6", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["method"] == "series" and payload["order"] == 6
        assert payload["error_bound"] > 0.0

    @pytest.mark.parametrize("order", ["3.0", "3e0"])
    def test_order_is_read_as_a_count(self, capsys, order):
        code, out, _ = run(capsys, "prob", "-t", "2^47", "-p", "1.4e7",
                           "--method", "series", "--order", order, "--format", "json")
        assert code == 0 and out == _GOLDEN[1][1]["json"]

    def test_pigeonhole_note_and_null_log(self, capsys):
        code, out, _ = run(capsys, "prob", "-t", "10", "-p", "11", "--format", "json")
        payload = json.loads(out)
        assert payload["probability"] == 1.0
        assert payload["log_survival"] is None  # -inf is not valid JSON
        assert "pigeonhole" in payload["note"]

    def test_pigeonhole_text_keeps_inf(self, capsys):
        _, out, _ = run(capsys, "prob", "-t", "10", "-p", "11")
        assert "log survival: -inf" in out
        assert "note: pigeonhole" in out

    def test_text_and_table_percent_agree(self, capsys):
        # the text rendering uses the same saturation rule as the table
        _, out, _ = run(capsys, "prob", "-t", "2^36", "-p", "8419600")
        assert "(≈ 100%)" in out


class TestSolveP:
    def test_classic(self, capsys):
        code, out, _ = run(capsys, "solve-p", "-t", "365", "--target", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "space": 365.0,
            "target": 0.5,
            "population": 23,
            "probability": 0.5072972343239854,
        }

    def test_text(self, capsys):
        _, out, _ = run(capsys, "solve-p", "-t", "365", "--target", "0.5")
        assert "population: 23" in out

    def test_wide_space(self, capsys):
        code, out, _ = run(capsys, "solve-p", "-t", "2^47", "--target", "0.5", "--format", "json")
        assert json.loads(out)["population"] == 13_967_949


class TestSolveT:
    def test_default_population_is_the_world(self, capsys):
        code, out, _ = run(capsys, "solve-t", "--target", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["population"] == 8_200_000_000
        assert payload["space"] == pytest.approx(4.85034072715e19, rel=1e-6)
        assert abs(payload["probability"] - 0.5) < 1e-6

    def test_explicit_population(self, capsys):
        code, out, _ = run(
            capsys, "solve-t", "-p", "1e6", "--target", "0.5", "--format", "json"
        )
        payload = json.loads(out)
        t = solve_space(10**6, 0.5)
        assert payload["space"] == t.value

    def test_phi_flag_overrides_world_size(self, capsys):
        code, out, _ = run(
            capsys, "solve-t", "--phi", "1000", "--target", "0.5", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["population"] == 1000
        assert payload["space"] == pytest.approx(499_500 / math.log(2), rel=1e-3)

    def test_phi_is_a_second_spelling_of_population(self, capsys):
        # one option: the last of -p and --phi wins
        outs = [run(capsys, "solve-t", *flags, "--target", "0.5", "--format", "json")
                for flags in (["-p", "1000"], ["--phi", "2000", "-p", "1000"],
                              ["-p", "2000", "--phi", "1000"])]
        assert outs[0] == outs[1] == outs[2] and json.loads(outs[0][1])["population"] == 1000

    def test_tolerance_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "solve-t", "-p", "1e6", "--target", "0.5",
            "--tolerance", "1e-12", "--format", "json",
        )
        assert code == 0
        assert abs(json.loads(out)["probability"] - 0.5) < 1e-9

    def test_text_output(self, capsys):
        _, out, _ = run(capsys, "solve-t", "--target", "0.5")
        assert "space size: 4.85034e+19" in out


class TestRopTable:
    def test_default_dataset_text(self, capsys):
        code, out, _ = run(capsys, "rop-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["name", "population", "overlap"]
        assert len(lines) == 23  # header + 22 cities
        assert "New York City" in lines[1] and "≈ 100%" in lines[1]
        assert any("Miami" in ln and "79.68%" in ln for ln in lines)

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "rop-table", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 22
        miami = next(r for r in rows if r["name"] == "Miami")
        assert miami["population"] == 467_963
        assert miami["probability"] == pytest.approx(0.7967579369294363, abs=1e-10)
        assert miami["display"] == "79.68%"

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "rop-table", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "name,population,probability,display"
        assert len(lines) == 23

    def test_custom_space(self, capsys):
        code, out, _ = run(capsys, "rop-table", "-t", "2^47", "--format", "json")
        miami = next(r for r in json.loads(out) if r["name"] == "Miami")
        assert miami["display"] == "0.08%"

    def test_dataset_from_file(self, capsys, tmp_path):
        f = tmp_path / "towns.csv"
        f.write_text("name,population\nSmallville,1000\n", encoding="utf-8")
        code, out, _ = run(capsys, "rop-table", "--dataset", str(f), "--format", "json")
        assert code == 0
        [row] = json.loads(out)
        assert row["name"] == "Smallville"

    def test_byte_order_mark_gives_the_same_table(self, capsys, tmp_path):
        table = "name,population\nSmallville,1000\nMetropolis,\"9,500,000\"\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(table, encoding="utf-8")
        marked.write_text(table, encoding="utf-8-sig")  # writes U+FEFF first
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        outs = [run(capsys, "rop-table", "--dataset", str(f), "--format", "json")
                for f in (plain, marked)]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert [row["name"] for row in json.loads(outs[0][1])] == ["Smallville", "Metropolis"]

    def test_delimiter_flag(self, capsys, tmp_path):
        f = tmp_path / "tabs.tsv"
        f.write_text('name\tpopulation\nNYC\t"8,419,600"\n', encoding="utf-8")
        code, out, _ = run(
            capsys, "rop-table", "--dataset", str(f), "--delimiter", "\t", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)[0]["population"] == 8_419_600


def _child_env():
    """The environment of a child interpreter that imports the ropcalc under test."""
    paths = [os.path.dirname(os.path.dirname(ropcalc.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _peak_rss_kib(*argv):
    """Peak RSS of a fresh interpreter that runs main(argv) with stdout on devnull: its own
    RUSAGE_SELF, since RUSAGE_CHILDREN here keeps the peak of every child any test started.
    ru_maxrss is in KiB on Linux."""
    child = ("import resource, sys; from ropcalc.cli import main; code = main(sys.argv[1:]); "
             "sys.stdout.flush(); "
             "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", child, *argv], stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True, env=_child_env(), timeout=120)
    code, peak = out.stderr.split()
    assert code == "0", out.stderr
    return int(peak)


class TestCurve:
    def test_csv_curve(self, capsys):
        code, out, _ = run(
            capsys, "curve", "-t", "365", "--p-max", "30", "--samples", "4", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "population,probability"
        assert lines[1] == "0,0.0"
        assert lines[-1].startswith("30,0.7063162427192687")

    def test_json_curve_monotone(self, capsys):
        code, out, _ = run(
            capsys, "curve", "-t", "2^47", "--p-max", "4e7", "--samples", "41", "--format", "json"
        )
        rows = json.loads(out)
        assert len(rows) == 41
        probs = [r["probability"] for r in rows]
        assert probs == sorted(probs)
        assert rows[0] == {"population": 0, "probability": 0.0}
        assert rows[-1]["population"] == 40_000_000

    def test_curve_hits_half_at_headline_population(self, capsys):
        _, out, _ = run(
            capsys, "curve", "-t", "2^47", "--p-max", "2.8e7", "--samples", "3", "--format", "json"
        )
        rows = json.loads(out)
        mid = rows[1]
        assert mid["population"] == 14_000_000
        assert mid["probability"] == pytest.approx(0.501589804070813, abs=1e-9)

    def test_default_samples(self, capsys):
        _, out, _ = run(capsys, "curve", "-t", "365", "--p-max", "100", "--format", "json")
        assert len(json.loads(out)) == 101

    def test_curve_up_to_near_the_wall_takes_no_long_products(self, capsys):
        # 101 samples at p/t up to 0.95: auto walks no product past 220 * (512 - 6) factors
        # below the series' wall; a product per sample, up to 9.5e7 factors, would take ~10 s
        start = time.perf_counter()
        code, out, _ = run(capsys, "curve", "-t", "1e8", "--p-max", "9.5e7", "--format", "csv")
        elapsed = time.perf_counter() - start
        lines = out.splitlines()
        assert code == 0 and len(lines) == 102 and lines[-1] == "95000000,1.0"
        assert elapsed < 2, elapsed

    def test_long_json_curve_is_one_dumps_of_its_rows(self, capsys):
        # json rows are encoded 1,024 at a time; past two chunk boundaries the bytes are still
        # those of one json.dumps of the whole list
        code, out, _ = run(capsys, "curve", "-t", "2^47", "--p-max", "4e7", "--samples", "2049",
                           "--format", "json")
        rows = json.loads(out)
        assert code == 0 and len(rows) == 2049 and out == json.dumps(rows) + "\n"

    @pytest.mark.parametrize("samples, rows", [("1,001", 1001), ("4.0", 4), ("1e1", 10)])
    def test_samples_is_read_as_a_count(self, capsys, samples, rows):
        code, out, _ = run(capsys, "curve", "-t", "365", "--p-max", "30",
                           "--samples", samples, "--format", "json")
        payload = json.loads(out)
        assert code == 0 and len(payload) == rows and payload[-1]["population"] == 30

    def test_p_max_beyond_float_range_ends_at_p_max(self, capsys):
        # samples are i * p_max / 2 rounded half to even in exact integers: (10**400 - 1) / 2
        # ends in .5 after an odd digit, so it rounds up to 5 * 10**399
        p_max = 10**400 - 1
        code, out, _ = run(capsys, "curve", "-t", "1e30", "--p-max", str(p_max), "--samples", "3",
                           "--format", "json")
        rows = json.loads(out)
        assert code == 0 and [r["population"] for r in rows] == [0, 5 * 10**399, p_max]
        assert [r["probability"] for r in rows] == [0.0, 1.0, 1.0]

    def test_samples_past_2_pow_53_are_exact(self, capsys):
        # as floats, 2**60 + 1 is 2**60, and the curve once ended at ...976
        code, out, _ = run(capsys, "curve", "-t", "1e30", "--p-max", "1,152,921,504,606,846,977",
                           "--samples", "3", "--format", "csv")
        assert code == 0 and out.splitlines()[1:] == [
            "0,0.0", "576460752303423488,1.0", "1152921504606846977,1.0"]

    @pytest.mark.parametrize("samples, p_max, refusal", [
        ("1", "30", "--samples must be >= 2, got 1"), ("3", "0", "--p-max must be >= 1, got 0"),
    ], ids=["samples-1", "p-max-0"])
    def test_degenerate_sampling_is_three(self, capsys, samples, p_max, refusal):
        code, out, err = run(capsys, "curve", "-t", "365", "--p-max", p_max, "--samples", samples)
        assert code == 3 and out == "" and err == f"error: {refusal}\n"

    def test_p_max_at_the_float_limit_still_samples(self, capsys):
        p_max = int(sys.float_info.max)
        code, out, _ = run(capsys, "curve", "-t", "1e30", "--p-max", str(p_max),
                           "--samples", "3", "--format", "json")
        rows = json.loads(out)
        assert code == 0 and [r["population"] for r in rows] == [0, round(p_max / 2), p_max]
        assert [r["probability"] for r in rows] == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_refusal_mid_curve_prints_nothing(self, capsys, fmt):
        # the last sample, 3e8, is a pigeonhole answer and 2e8 is refused: the refused
        # samples are not closed upward in p, so only evaluating all of them first finds it
        code, out, err = run(capsys, "curve", "-t", "2e8", "--p-max", "3e8", "--samples", "4",
                             "--format", fmt)
        assert code == 3 and out == "" and "exact product needs 199999999 factors" in err

    def test_memory_stays_flat_as_output_grows(self):
        # 5e4 rows held as dicts took 60 MB against 28 MB for 101 rows
        argv = ["curve", "-t", "365", "--p-max", "30", "--format", "json", "--samples"]
        assert _peak_rss_kib(*argv, "5e4") - _peak_rss_kib(*argv, "101") <= 8 * 1024


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _, _ = run(capsys, "prob", "-t", "365", "-p", "23")
        assert code == 0

    def test_unparseable_space_is_two(self, capsys):
        code, _, err = run(capsys, "prob", "-t", "abc", "-p", "3")
        assert code == 2 and "bad space size" in err

    def test_oversized_exponent_is_two(self, capsys):
        code, _, _ = run(capsys, "prob", "-t", "2^9999", "-p", "3")
        assert code == 2

    def test_fractional_population_is_two(self, capsys):
        code, _, _ = run(capsys, "prob", "-t", "365", "-p", "2.5")
        assert code == 2

    def test_domain_error_is_three(self, capsys):
        # parses fine, fails the >= 1 domain rule
        code, _, err = run(capsys, "prob", "-t", "0.5", "-p", "3")
        assert code == 3 and "error:" in err

    def test_order_without_series_method_is_three(self, capsys):
        # auto would pick the exact product here; --order is for the series only
        code, out, err = run(capsys, "prob", "-t", "365", "-p", "23", "--order", "6")
        assert code == 3 and out == "" and "series method" in err

    @pytest.mark.parametrize("argv", [
        ["prob", "-t", "1e12", "-p", "1e6", "--method", "series", "--order", "-1"],
        ["prob", "-t", "1e12", "-p", "1e6", "--method", "series", "--order", "2.5"],
        ["curve", "-t", "365", "--p-max", "30", "--samples", "-1"],
        ["curve", "-t", "365", "--p-max", "30", "--samples", "2.5"],
    ], ids=["order-negative", "order-fraction", "samples-negative", "samples-fraction"])
    def test_order_or_samples_that_is_no_count_is_two(self, capsys, argv):
        # read like -p: a count that does not parse is argparse's exit 2
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "bad count" in err

    def test_order_above_the_cap_is_three(self, capsys):
        code, out, err = run(capsys, "prob", "-t", "1e12", "-p", "1e6",
                             "--method", "series", "--order", "513")
        assert code == 3 and out == "" and "at most 512" in err

    def test_space_over_ceiling_is_three(self, capsys):
        code, _, err = run(capsys, "prob", "-t", "1e40", "-p", "3")
        assert code == 3

    def test_space_beyond_printable_ints_is_three(self, capsys):
        # 100^2200 has 4401 digits, more than str(int) prints by default
        code, out, err = run(capsys, "prob", "-t", "100^2200", "-p", "3")
        assert code == 3 and out == "" and err.startswith("error: space size of 14617 bits")

    def test_huge_population_space_solve_is_three(self, capsys):
        code, out, err = run(capsys, "solve-t", "-p", "1e200", "--target", "0.5")
        assert code == 3 and out == "" and "1e30" in err

    def test_bad_target_is_three(self, capsys):
        code, _, err = run(capsys, "solve-p", "-t", "365", "--target", "1.5")
        assert code == 3 and "target" in err

    def test_missing_dataset_is_three(self, capsys):
        code, _, err = run(capsys, "rop-table", "--dataset", "/nonexistent/x.csv")
        assert code == 3

    def test_malformed_dataset_is_three(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("name,population\nA,ten\n", encoding="utf-8")
        code, _, err = run(capsys, "rop-table", "--dataset", str(f))
        assert code == 3 and "line 2" in err

    @pytest.mark.parametrize("argv", [("-t", "2^47", "-p", "1,4e7"), ("-t", "6,9e10", "-p", "3"),
                                      ("-t", "3,65", "-p", "23")])
    def test_decimal_comma_is_two(self, capsys, argv):
        # "1,4e7" is not read as 1.4e8 draws (probability 1.0 at 2^47)
        code, out, err = run(capsys, "prob", *argv)
        assert code == 2 and out == "" and "bad " in err

    @pytest.mark.parametrize("data", [
        b"name,population\nMalm\xf6,300000\n",
        b'name,population\nA,"' + b"1" * 140_000 + b'"\n',
    ], ids=["cp1252", "overlong-cell"])
    def test_unreadable_dataset_is_three(self, capsys, tmp_path, data):
        f = tmp_path / "bad.csv"
        f.write_bytes(data)
        code, out, err = run(capsys, "rop-table", "--dataset", str(f))
        assert code == 3 and out == "" and err.startswith("error: line 2: ")

    def test_unknown_subcommand_is_two(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand_is_two(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


# Expected stdout of every subcommand in every format, frozen as literals
# so that a change to the output code must reproduce each byte.  The
# rop-table rows come from _TOWNS, written to a temporary file.
_TOWNS = 'name,population\nSmallville,30\n"Springfield, IL",45\nMetropolis,2000\n'

_GOLDEN = [
    (["prob", "-t", "365", "-p", "23"], {
        "text": "probability: 0.5072972343239854 (50.73%)\nlog survival: -0.7078491961416731\n"
                "method: exact\nerror bound: 0\n",
        "csv": "probability,log_survival,method,order,error_bound,note\n"
               "0.5072972343239854,-0.7078491961416731,exact,,0.0,\n",
        "json": '{"probability": 0.5072972343239854, "log_survival": -0.7078491961416731, '
                '"method": "exact", "order": null, "error_bound": 0.0, "note": null}\n',
    }),
    (["prob", "-t", "2^47", "-p", "1.4e7", "--method", "series", "--order", "3"], {
        "text": "probability: 0.5015898040708131 (50.16%)\nlog survival: -0.6963318543963382\n"
                "method: series (order 3)\nerror bound: 8.50469e-14\n",
        "csv": "probability,log_survival,method,order,error_bound,note\n"
               "0.5015898040708131,-0.6963318543963382,series,3,8.504690922523748e-14,\n",
        "json": '{"probability": 0.5015898040708131, "log_survival": -0.6963318543963382, '
                '"method": "series", "order": 3, "error_bound": 8.504690922523748e-14, '
                '"note": null}\n',
    }),
    (["prob", "-t", "10", "-p", "11"], {
        "text": "probability: 1.0 (≈ 100%)\nlog survival: -inf\nmethod: exact\n"
                "error bound: 0\nnote: pigeonhole: population exceeds the number of distinct values\n",
        "csv": "probability,log_survival,method,order,error_bound,note\n"
               "1.0,-inf,exact,,0.0,pigeonhole: population exceeds the number of distinct values\n",
        "json": '{"probability": 1.0, "log_survival": null, "method": "exact", "order": null, '
                '"error_bound": 0.0, '
                '"note": "pigeonhole: population exceeds the number of distinct values"}\n',
    }),
    (["solve-p", "-t", "365", "--target", "0.5"], {
        "text": "population: 23\nprobability there: 0.5072972343239854\n",
        "csv": "space,target,population,probability\n365.0,0.5,23,0.5072972343239854\n",
        "json": '{"space": 365.0, "target": 0.5, "population": 23, '
                '"probability": 0.5072972343239854}\n',
    }),
    # the probability there is auto's series answer, 1.8 ulp from the 60-digit mpmath value
    # 0.4999999999238660022 (the product's 0.49999999992386607 is 1.2 ulp from it)
    (["solve-t", "-p", "1000", "--target", "0.5"], {
        "text": "space size: 7.20959e+05\nprobability there: 0.4999999999238659\n",
        "csv": "population,target,space,probability\n"
               "1000,0.5,720959.4167795692,0.4999999999238659\n",
        "json": '{"population": 1000, "target": 0.5, "space": 720959.4167795692, '
                '"probability": 0.4999999999238659}\n',
    }),
    (["rop-table", "-t", "1000", "--dataset", "TOWNS"], {
        "text": "name             population  overlap\n"
                "Smallville               30  35.55%\n"
                "Springfield, IL          45  63.40%\n"
                "Metropolis            2,000  ≈ 100%\n",
        "csv": "name,population,probability,display\n"
               "Smallville,30,0.3555394788027867,35.55%\n"
               '"Springfield, IL",45,0.6339629380712265,63.40%\n'
               "Metropolis,2000,1.0,≈ 100%\n",
        "json": '[{"name": "Smallville", "population": 30, "probability": 0.3555394788027867, '
                '"log_survival": -0.4393417134096781, "display": "35.55%"}, '
                '{"name": "Springfield, IL", "population": 45, "probability": 0.6339629380712265, '
                '"log_survival": -1.0050206886069573, "display": "63.40%"}, '
                '{"name": "Metropolis", "population": 2000, "probability": 1.0, '
                '"log_survival": null, "display": "\\u2248 100%"}]\n',
    }),
    (["curve", "-t", "365", "--p-max", "30", "--samples", "4"], {
        "text": "0\t0.0\n10\t0.11694817771107766\n20\t0.41143838358058005\n30\t0.7063162427192687\n",
        "csv": "population,probability\n0,0.0\n10,0.11694817771107766\n"
               "20,0.41143838358058005\n30,0.7063162427192687\n",
        "json": '[{"population": 0, "probability": 0.0}, '
                '{"population": 10, "probability": 0.11694817771107766}, '
                '{"population": 20, "probability": 0.41143838358058005}, '
                '{"population": 30, "probability": 0.7063162427192687}]\n',
    }),
]


class TestGolden:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize(
        "argv, expected", _GOLDEN, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(_GOLDEN)]
    )
    def test_stdout_is_byte_identical(self, capsys, tmp_path, argv, expected, fmt):
        towns = tmp_path / "towns.csv"
        towns.write_text(_TOWNS, encoding="utf-8")
        argv = [str(towns) if a == "TOWNS" else a for a in argv]
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert out == expected[fmt]


def test_python_m_runs_the_cli():
    # the README's `python -m ropcalc.cli`, on the ropcalc under test, installed or not
    site = os.path.dirname(os.path.dirname(ropcalc.__file__))
    paths = [site, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, "-m", "ropcalc.cli", "prob", "-t", "365", "-p", "23",
                          "--format", "json"], capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout == _GOLDEN[0][1]["json"], out.stderr


@pytest.mark.parametrize("unbuffered", [{"PYTHONUNBUFFERED": "1"}, {}],
                         ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_one_quietly(unbuffered):
    # as `ropcalc curve ... | head -1`: the reader takes one line and closes the pipe, which
    # was reported as "error: [Errno 32] Broken pipe" with the domain-error exit 3
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    env.update(unbuffered)
    argv = ["-m", "ropcalc.cli", "curve", "-t", "365", "--p-max", "30", "--samples", "1e4"]
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"0\t0.0\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


# Answers of the kernels and solvers, frozen as the --format json payloads the
# CLI printed for them (a four-block exact product, an order-40 series at
# p/t = 0.4, the 2^96 population solve, the world space solve, and the first
# row of the bundled table at 2^36, which takes the order-4 series), compared
# bit for bit.
_FROZEN_JSON = [
    (["prob", "-t", "1e12", "-p", "200003", "--method", "exact"],
     {"probability": 0.019801818102379472, "log_survival": -0.020000501336383467,
      "method": "exact", "order": None, "error_bound": 0.0, "note": None}),
    (["prob", "-t", "2500000", "-p", "1000000", "--method", "series", "--order", "40"],
     {"probability": 1.0, "log_survival": -233761.3089382243, "method": "series", "order": 40,
      "error_bound": 5e-16, "note": None}),
    (["solve-p", "-t", "2^96", "--target", "0.01"],
     {"space": 7.922816251426434e+28, "target": 0.01, "population": 39906632088519,
      "probability": 0.01000000000000047}),
    (["solve-t", "--target", "0.5"],
     {"population": 8200000000, "target": 0.5, "space": 4.850340728442743e+19,
      "probability": 0.4999999999076664}),
    (["rop-table"],
     {"name": "New York City", "population": 8419600, "probability": 1.0,
      "log_survival": -515.8111968338852, "display": "≈ 100%"}),
]


@pytest.mark.parametrize("argv, expected", _FROZEN_JSON,
                         ids=["exact-4-blocks", "series-order-40", "solve-p-2p96",
                              "solve-t-world", "rop-table-first-row"])
def test_frozen_json_answer(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and (payload[0] if isinstance(payload, list) else payload) == expected
