"""Unit tests for the overlap-table module: bit-count models, percent
formatting, the bundled city table, and the tolerant table reader.

The 22 expected table strings were verified against an independent
50-digit evaluation before being frozen here (max deviation from the
two-decimal rounding boundary: 0.0046 percentage points).
"""

import csv
import dataclasses
import io
import math
import random
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ropcalc
import ropcalc.rop as rop_module
from ropcalc import (
    DomainError,
    GaltonModel,
    IngestError,
    PopulationRecord,
    RegionModel,
    RopEntry,
    collision_probability,
    dump_populations,
    format_percent,
    load_bundled_cities,
    load_populations,
    parse_populations,
    rop_table,
    space_size,
)

from conftest import assert_same_space

# (name, parsed population, expected table rendering)
CITY_GOLDENS = [
    ("New York City", 8_419_600, "≈ 100%"),
    ("Los Angeles", 3_980_400, "≈ 100%"),
    ("Chicago", 2_746_388, "≈ 100%"),
    ("Nashville", 687_788, "96.80%"),
    ("Las Vegas", 660_929, "95.83%"),
    ("Detroit", 633_218, "94.59%"),
    ("Baltimore", 565_239, "90.22%"),
    ("Atlanta", 510_823, "85.02%"),
    ("Raleigh", 482_295, "81.59%"),
    ("Miami", 467_963, "79.68%"),
    ("Minneapolis", 429_606, "73.89%"),
    ("Tulsa", 413_066, "71.10%"),
    ("Arlington", 398_854, "68.57%"),
    ("New Orleans", 376_971, "64.44%"),
    ("Wichita", 397_532, "68.33%"),
    ("Cleveland", 367_991, "62.67%"),
    ("Tampa", 384_959, "65.98%"),
    ("Aurora", 386_261, "66.23%"),
    ("Anaheim", 345_940, "58.14%"),
    ("Honolulu", 345_510, "58.05%"),
    ("Lexington", 322_570, "53.10%"),
    ("Anchorage", 291_247, "46.05%"),
]

# The model spaces tables are shown over: Galton, regions, 1e12 and 2^64.
TABLE_SPACES = (2**36, 2**47, 10**12, 2**64)


class TestModels:
    def test_galton_board_bits(self):
        m = GaltonModel()
        assert (m.unit_squares, m.ridge_entry_exit_bits, m.adjacent_course_bits) == (24, 8, 4)
        assert_same_space(space_size(m), 2.0**36)

    def test_region_pairs(self):
        m = RegionModel()
        assert (m.independent_regions, m.choices_per_region) == (47, 2)
        assert_same_space(space_size(m), 2.0**47)

    def test_custom_bit_budget(self):
        assert_same_space(space_size(GaltonModel(10, 3, 2)), 2.0**15)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(DomainError):
            GaltonModel(0, 8, 4)
        with pytest.raises(DomainError):
            RegionModel(47, -1)

    def test_rejects_oversized_space(self):
        # 2^100 > the 1e30 ceiling
        with pytest.raises(DomainError):
            space_size(RegionModel(100, 2))

    @pytest.mark.parametrize("model, message", [
        (RegionModel(10**6, 3), "exponent too large"),
        (RegionModel(10**7, 3), "exponent too large"),
        (GaltonModel(unit_squares=10**6), "exponent too large"),
        (RegionModel(4096, 2**17), "power too large"),
    ])
    def test_huge_power_is_refused_before_it_is_formed(self, model, message):
        # as the CLI refuses -t 3^10000000; forming 3**10**7 first took ~5 s
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"^{message}$"):
            space_size(model)
        assert time.perf_counter() - start < 0.5

    def test_large_model_within_ceiling(self):
        assert space_size(RegionModel(99, 2)).value == 2.0**99

    def test_rejects_unknown_model(self):
        with pytest.raises(DomainError):
            space_size(object())

    def test_models_are_frozen(self):
        with pytest.raises(AttributeError):
            GaltonModel().unit_squares = 5


class TestFormatPercent:
    def test_two_decimals(self):
        assert format_percent(0.5072972343239854) == "50.73%"
        assert format_percent(0.0) == "0.00%"
        assert format_percent(0.00004) == "0.00%"

    def test_saturation_is_strict(self):
        assert format_percent(0.9995) == "99.95%"
        assert format_percent(math.nextafter(0.9995, 1)) == "≈ 100%"
        assert format_percent(1.0) == "≈ 100%"

    def test_rounding_follows_binary_value(self):
        # 0.79675 stores as 0.7967499999...; formatting tracks the stored value
        assert format_percent(0.79675) == "79.67%"
        assert format_percent(0.7967579369294363) == "79.68%"


class TestRopTable:
    def test_golden_rows(self, galton_space):
        table = rop_table(load_bundled_cities(), galton_space)
        assert [(e.record.name, e.record.population, e.display) for e in table] == CITY_GOLDENS

    def test_preserves_input_order(self, galton_space):
        # Wichita is deliberately out of size order in the source table
        names = [e.record.name for e in rop_table(load_bundled_cities(), galton_space)]
        assert names.index("Wichita") == 14
        assert names.index("New Orleans") == 13

    def test_single_record(self, galton_space):
        [entry] = rop_table([PopulationRecord("Miami", 467_963)], galton_space)
        assert entry.display == "79.68%"
        assert entry.result.probability == pytest.approx(0.7967579369294363, abs=1e-10)

    def test_region_space_shrinks_the_odds(self):
        # 2^47 possibilities push the Miami row down to a twelfth of a percent
        [entry] = rop_table([PopulationRecord("Miami", 467_963)], space_size(RegionModel()))
        assert entry.display == "0.08%"
        assert entry.result.probability == pytest.approx(0.0007777022990782008, rel=1e-12)

    def test_oversubscribed_space_saturates(self):
        # more people than patterns: a repeat is forced, not an error
        [entry] = rop_table([PopulationRecord("Crowd", 200)], 100)
        assert entry.display == "≈ 100%" and entry.result.probability == 1.0

    def test_empty_input_rejected(self, galton_space):
        with pytest.raises(DomainError):
            rop_table([], galton_space)

    def test_bad_record_type_rejected(self, galton_space):
        with pytest.raises(DomainError):
            rop_table([("Miami", 467_963)], galton_space)

    def test_entries_are_ordinary_frozen_records(self, galton_space):
        for entry in rop_table(load_bundled_cities(), galton_space):
            twin = RopEntry(entry.record, entry.result, entry.display)
            assert type(entry) is RopEntry
            assert entry == twin and hash(entry) == hash(twin) and repr(entry) == repr(twin)
            assert dataclasses.asdict(entry) == dataclasses.asdict(twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                entry.display = "50.00%"

    def test_every_row_goes_through_the_rebindable_name(self, monkeypatch):
        # a caller that rebinds ropcalc.rop.collision_probability, as a
        # tracer does, must see every row of every table
        calls = []

        def counting(t, p, *args, **kwargs):
            calls.append((t, p))
            return collision_probability(t, p, *args, **kwargs)

        monkeypatch.setattr(rop_module, "collision_probability", counting)
        cities = load_bundled_cities()
        tables = [rop_table(cities, space) for space in TABLE_SPACES]
        assert len(calls) == len(cities) * len(TABLE_SPACES)
        for space, table in zip(TABLE_SPACES, tables):
            for entry in table:
                assert entry.result == collision_probability(space, entry.record.population)

    def test_the_module_is_reachable_by_its_name(self):
        # the package binds nothing else to the submodule's name, so the
        # import statement, the package attribute and sys.modules agree
        import ropcalc.rop as m

        assert m is sys.modules["ropcalc.rop"] and ropcalc.rop is m
        assert m.parse_populations is parse_populations

    def test_record_errors_name_the_record(self):
        from ropcalc import IterationBudgetError

        # over the exact budget with too dense a ratio for the series
        with pytest.raises(IterationBudgetError, match="record 'Everyone'"):
            rop_table([PopulationRecord("Everyone", 200_000_000)], 300_000_000)


class TestPopulationRecord:
    def test_fields(self):
        rec = PopulationRecord("Miami", 467_963)
        assert rec.name == "Miami" and rec.population == 467_963

    @pytest.mark.parametrize("bad_name", ["", "   ", None, 42])
    def test_rejects_bad_names(self, bad_name):
        with pytest.raises(DomainError):
            PopulationRecord(bad_name, 100)

    @pytest.mark.parametrize("bad_pop", [-1, 2.5, "100", True])
    def test_rejects_bad_populations(self, bad_pop):
        with pytest.raises(DomainError):
            PopulationRecord("X", bad_pop)


class TestParsePopulations:
    def test_plain_csv(self):
        recs = parse_populations("name,population\nA,10\nB,20\n")
        assert recs == [PopulationRecord("A", 10), PopulationRecord("B", 20)]

    def test_quoted_thousands_separators(self):
        recs = parse_populations('name,population\nNYC,"8,419,600"\n')
        assert recs[0].population == 8_419_600

    def test_stray_space_inside_grouped_number(self):
        # the Baltimore quirk: a space after the comma
        recs = parse_populations('name,population\nBaltimore,"565, 239"\n')
        assert recs[0].population == 565_239

    def test_underscores_and_plus_signs(self):
        recs = parse_populations("name,population\nA,1_000_000\nB,+250\n")
        assert [r.population for r in recs] == [1_000_000, 250]

    def test_comment_and_blank_lines_skipped(self):
        text = "# heading\n\nname,population\n# mid-table note\nA,10\n\nB,20\n"
        recs = parse_populations(text)
        assert [r.name for r in recs] == ["A", "B"]

    def test_extra_columns_ignored(self):
        recs = parse_populations("rank,name,state,population\n1,A,NY,10\n")
        assert recs == [PopulationRecord("A", 10)]

    def test_header_case_insensitive(self):
        recs = parse_populations("Name,POPULATION\nA,10\n")
        assert recs[0].name == "A"

    def test_tab_delimiter_detected(self):
        recs = parse_populations("name\tpopulation\nA\t10\n")
        assert recs == [PopulationRecord("A", 10)]

    def test_semicolon_delimiter_detected(self):
        recs = parse_populations("name;population\nA;10\nB;20\n")
        assert len(recs) == 2

    def test_delimiter_tie_goes_to_comma(self):
        # two commas and two semicolons: the earlier delimiter in , tab ; wins
        recs = parse_populations("name,population,a;b;\nA,10,x\n")
        assert recs == [PopulationRecord("A", 10)]

    def test_explicit_delimiter_override(self):
        # commas inside the quoted number must not fool a tab-delimited read
        recs = parse_populations('name\tpopulation\nNYC\t"8,419,600"\n', delimiter="\t")
        assert recs[0].population == 8_419_600

    def test_unsupported_delimiter_rejected(self):
        with pytest.raises(IngestError, match="unsupported delimiter"):
            parse_populations("name|population\nA|10\n", delimiter="|")

    def test_empty_input(self):
        with pytest.raises(IngestError, match="empty table"):
            parse_populations("")
        with pytest.raises(IngestError, match="empty table"):
            parse_populations("# only comments\n\n")

    def test_header_only(self):
        with pytest.raises(IngestError, match="no data rows"):
            parse_populations("name,population\n")

    def test_missing_column(self):
        with pytest.raises(IngestError, match="'population'"):
            parse_populations("name,count\nA,10\n")

    def test_header_error_has_line_number(self):
        with pytest.raises(IngestError, match="line 3"):
            parse_populations("# one\n# two\nname,count\nA,10\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(IngestError, match="line 3: not a whole number: 'ten'"):
            parse_populations("name,population\nA,10\nB,ten\n")

    def test_duplicate_name_reports_both_lines(self):
        with pytest.raises(IngestError, match=r"line 3: duplicate name 'A' \(first seen on line 2\)"):
            parse_populations("name,population\nA,10\nA,20\n")

    def test_short_row_reports_column_count(self):
        with pytest.raises(IngestError, match="line 2: expected 2 columns, got 1"):
            parse_populations("name,population\nA\n")

    def test_errors_are_aggregated(self):
        text = "name,population\nA,ten\n,5\nB,1.5\n"
        with pytest.raises(IngestError) as exc:
            parse_populations(text)
        msg = str(exc.value)
        assert "line 2" in msg and "line 3" in msg and "line 4" in msg

    def test_negative_number_rejected(self):
        with pytest.raises(IngestError, match="not a whole number"):
            parse_populations("name,population\nA,-5\n")

    def test_unterminated_quote_ends_with_its_line(self):
        recs = parse_populations('name,population\nA,"10\nB,20\n')
        assert recs == [PopulationRecord("A", 10), PopulationRecord("B", 20)]

    def test_overlong_quoted_cell_names_the_line(self):
        # csv refuses a field longer than csv.field_size_limit() (131,072 characters)
        long_cell = '"' + "x" * 140_000 + '"'
        with pytest.raises(IngestError) as exc:
            parse_populations(f"name,population\nA,{long_cell}\nB,ten\n")
        assert str(exc.value).startswith("line 2: field larger than field limit")
        assert "line 3: not a whole number" in str(exc.value)
        with pytest.raises(IngestError, match="^line 2: field larger"):
            parse_populations(f"# note\nname,{long_cell}\nA,1\n")

    def test_cells_match_csv_reader_on_a_seeded_corpus(self):
        # lines with no quote take str.split, the rest csv.reader; every
        # non-blank line must split as csv.reader reads it alone (csv reads
        # NUL as a plain character from Python 3.11)
        pieces = ["a", "Zé", "12", " ", ",", "\t", ";", '"', '""', "_", "#", "+"]
        pieces += ["\0"] if sys.version_info >= (3, 11) else []
        rng = random.Random(2026)
        lines = 0
        while lines < 6000:
            line = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 14)))
            if rng.random() < 0.5:
                line = line.replace('"', "")
            if not line.strip():
                continue  # the parser skips blank lines before splitting
            lines += 1
            for d in (",", "\t", ";"):
                assert rop_module._cells(line, d) == next(csv.reader([line], delimiter=d)), (line, d)

    def test_tables_parse_as_with_csv_reader_on_every_line(self, monkeypatch):
        # whole tables, valid and not: the same records, or the same
        # IngestError message byte for byte, as when csv.reader splits every line
        rng = random.Random(2027)
        names = ["A", "B", " c ", "D E", '"F"', '"G;H"', "\0", "", '"i']
        counts = ["10", "0", "1_000", "+250", '"8,419,600"', '"565, 239"', " 7 ", "-5", "ten", '"12']

        def parse(text):
            try:
                return [(r.name, r.population) for r in parse_populations(text)]
            except IngestError as err:
                return str(err)

        def by_csv(line, delimiter):
            return next(csv.reader([line], delimiter=delimiter))

        tables = []
        for _ in range(600):
            d = rng.choice((",", "\t", ";"))
            rows = [d.join([rng.choice(names), rng.choice(counts)][:rng.choice((1, 2, 2, 2, 2))])
                    for _ in range(rng.randint(0, 4))]
            tables.append("\n".join([d.join(("name", "population"))] + rows) + "\n")
        ours = [parse(text) for text in tables]
        monkeypatch.setattr(rop_module, "_cells", by_csv)
        assert ours == [parse(text) for text in tables]
        assert sum(isinstance(r, list) for r in ours) >= 50 and sum(isinstance(r, str) for r in ours) >= 50

    def test_parsed_records_pass_their_own_checks(self):
        for rec in parse_populations('name,population\n A ,"1,000"\nB,0\n'):
            assert rec == PopulationRecord(rec.name, rec.population)

    def test_line_numbers_count_physical_lines(self):
        # comments and blanks still advance the counter
        text = "# c\n\nname,population\n# c\nA,x\n"
        with pytest.raises(IngestError, match="line 5"):
            parse_populations(text)


def _grouped_styles(n, delimiter):
    """The four ways a generated city table writes n: plain, _, and two comma forms."""
    commas = f"{n:,}"
    styles = [str(n), f"{n:_}", commas, commas.replace(",", ", ", 1)]
    if delimiter == ",":
        styles[2:] = [f'"{text}"' for text in styles[2:]]
    return styles


class TestGroupedDigits:
    @given(st.integers(min_value=0, max_value=10**13))
    def test_every_style_parses_back(self, n):
        for delimiter in (",", "\t", ";"):
            rows = [f"c{i}{delimiter}{cell}" for i, cell in enumerate(_grouped_styles(n, delimiter))]
            text = "\n".join([f"name{delimiter}population", *rows]) + "\n"
            records = parse_populations(text, delimiter=delimiter)
            assert [r.population for r in records] == [n] * 4

    @pytest.mark.parametrize("delimiter", [",", "\t", ";"])
    def test_non_integers_stay_refused_with_line_numbers(self, delimiter):
        cells = ["1.5", "-3", "1e3", "12a", '""']
        rows = [f"c{i}{delimiter}{cell}" for i, cell in enumerate(cells)]
        text = "\n".join([f"name{delimiter}population", "ok" + delimiter + "7", *rows]) + "\n"
        with pytest.raises(IngestError) as exc:
            parse_populations(text)
        shown = ["'1.5'", "'-3'", "'1e3'", "'12a'", "''"]
        assert str(exc.value) == "; ".join(
            f"line {line}: not a whole number: {cell}" for line, cell in enumerate(shown, start=3))


# names on one line with no outer whitespace, often led by a character the CSV reader treats
# specially (a comment mark or a quote)
_ONE_LINE_NAMES = st.tuples(st.sampled_from(["", "#", '"']), st.text()).map("".join).filter(
    lambda s: s and s.strip() == s and s.splitlines() == [s])


class TestLoadDump:
    def test_load_from_path(self, tmp_path):
        f = tmp_path / "pops.csv"
        f.write_text("name,population\nA,10\n", encoding="utf-8")
        assert load_populations(f) == [PopulationRecord("A", 10)]

    def test_load_from_stream(self):
        recs = load_populations(io.StringIO("name,population\nA,10\n"))
        assert recs == [PopulationRecord("A", 10)]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF; paths, streams and
        # strings all give the records of the same table without it
        table = "name,population\nA,10\n\nB,\"2,000\"\n"
        f = tmp_path / "bom.csv"
        f.write_text("\ufeff" + table, encoding="utf-8")
        expected = parse_populations(table)
        assert expected == [PopulationRecord("A", 10), PopulationRecord("B", 2000)]
        assert load_populations(f) == expected
        assert load_populations(io.StringIO("\ufeff" + table)) == expected
        assert parse_populations("\ufeff" + table) == expected
        # line numbers stay those of the file, and only one mark is dropped
        with pytest.raises(IngestError, match="^line 3: empty name$"):
            parse_populations("\ufeffname,population\nA,10\n,5\n")
        with pytest.raises(IngestError, match="header must name both"):
            parse_populations("\ufeff\ufeff" + table)

    @pytest.mark.parametrize("data, line, byte", [
        (b"name,population\nMalm\xf6,300000\n", 2, "0xf6"),  # Windows-1252
        (b"name,population\nA,\xff\xfe100\n", 2, "0xff"),
        (b"\xef\xbb\xbfname,population\r\n\r\nA,1\r\nB\xe9,2\r\n", 4, "0xe9"),
        (b"nam\xe9,population\nA,1\n", 1, "0xe9"),
        (b"name,population\nA,1\nB,\xe2\x82", 3, "0xe2"),  # cut mid-character
    ], ids=["cp1252", "ff-fe", "bom-crlf", "header", "truncated"])
    def test_non_utf8_table_names_the_line(self, tmp_path, data, line, byte):
        f = tmp_path / "table.csv"
        f.write_bytes(data)
        with pytest.raises(IngestError, match=f"^line {line}: byte {byte} is not UTF-8"):
            load_populations(f)

    def test_binary_stream_reads_as_a_path(self, tmp_path):
        data = "name,population\nMalmö,300000\nB,\"2,000\"\n".encode("utf-8")
        f = tmp_path / "table.csv"
        f.write_bytes(data)
        expected = [PopulationRecord("Malmö", 300_000), PopulationRecord("B", 2000)]
        assert load_populations(io.BytesIO(data)) == load_populations(f) == expected
        with f.open("rb") as fh:
            assert load_populations(fh) == expected

    def test_latin1_binary_stream_names_the_line(self):
        with pytest.raises(IngestError, match="^line 2: byte 0xf6 is not UTF-8"):
            load_populations(io.BytesIO(b"name,population\nMalm\xf6,300000\n"))

    def test_crlf_table_reads_as_lf(self, tmp_path):
        f = tmp_path / "crlf.csv"
        f.write_bytes(b"name,population\r\nA,10\r\n\r\nB,\"2,000\"\r\n")
        assert load_populations(f) == parse_populations('name,population\nA,10\n\nB,"2,000"\n')
        f.write_bytes(b"name,population\r\nA,10\r\n\r\n,5\r\n")
        with pytest.raises(IngestError, match="^line 4: empty name$"):
            load_populations(f)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_populations(tmp_path / "nope.csv")

    def test_dump_normalizes(self):
        out = dump_populations([PopulationRecord("NYC", 8_419_600)])
        assert out == "name,population\nNYC,8419600\n"

    def test_dump_quotes_names_with_commas(self):
        out = dump_populations([PopulationRecord("Washington, D.C.", 700_000)])
        assert '"Washington, D.C."' in out
        assert parse_populations(out)[0].name == "Washington, D.C."

    def test_round_trip(self):
        recs = load_bundled_cities()
        assert parse_populations(dump_populations(recs)) == recs

    @given(st.lists(
        st.builds(PopulationRecord, _ONE_LINE_NAMES, st.integers(min_value=0, max_value=10**30)),
        min_size=1, max_size=5, unique_by=lambda r: r.name))
    def test_round_trip_any_one_line_names(self, recs):
        # outer whitespace is normalized away on reading, so names here have none
        assert parse_populations(dump_populations(recs)) == recs

    def test_dump_quotes_names_that_look_like_comments(self):
        recs = [PopulationRecord("#1 Fan Club", 5), PopulationRecord("Z", 7)]
        out = dump_populations(recs)
        assert out == 'name,population\n"#1 Fan Club",5\nZ,7\n'
        assert parse_populations(out) == recs

    @pytest.mark.parametrize("name", ["A\nB", "X\u2028Y", "Caf\x85e", "A\r\nB"])
    def test_dump_refuses_names_with_line_breaks(self, name):
        with pytest.raises(DomainError, match="line break"):
            dump_populations([PopulationRecord("ok", 1), PopulationRecord(name, 2)])

    def test_bundled_table_shape(self):
        recs = load_bundled_cities()
        assert len(recs) == 22
        assert recs[0] == PopulationRecord("New York City", 8_419_600)
        assert recs[-1] == PopulationRecord("Anchorage", 291_247)
