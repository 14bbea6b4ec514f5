"""`ingest_timetags` against the row-by-row reference reader.

For every file of the corpus, for seeded random files and for exported
files (whole, at block edges and with one byte edited), the reader must
either return the reference's arrays bit for bit (dtypes included) with
the same warnings, or raise the same ParseError message naming the same
line.  Exported files must be decoded without the csv row loop.
"""
import random
import warnings

import numpy as np
import pytest

import ingest_reference as ref
from timebin import coincidence
from timebin.cli import main
from timebin.coincidence import export_timetags, ingest_timetags
from timebin.errors import ParseError

HEADER = "detector,time_ns,repetition"


def tag_file(*rows, end="\r\n", header=HEADER):
    """Text of a tag file: the header and the rows, each ended by `end`."""
    return "".join(line + end for line in (header, *rows))


CORPUS = {
    # line ends and layout
    "lf": tag_file("D1,30.5,0", "D2,42.0,1", end="\n"),
    "crlf": tag_file("D1,30.5,0", "D2,42.0,1"),
    "cr": tag_file("D1,30.5,0", "D2,42.0,1", end="\r"),
    "no_final_end": HEADER + "\r\nD1,30.5,0\r\nD2,42.0,1",
    "mixed_ends": HEADER + "\nD1,30.5,0\r\nD2,42.0,1\rD1,50.0,2\n",
    "blank_between": tag_file("D1,30.5,0", "", "", "D2,42.0,1"),
    "blank_trailing": tag_file("D1,30.5,0", "D2,42.0,1", "", ""),
    "cr_blank_lines": HEADER + "\r\nD1,30.5,0\r\r\n\rD2,42.0,1\r\n",
    "whitespace_line": tag_file("D1,30.5,0", " ", "D2,42.0,1"),
    "header_only": tag_file(),
    "header_only_lf": tag_file(end="\n"),
    "header_no_end": HEADER,
    "header_blank_lines": tag_file("", ""),
    "empty": "",
    "padded_header": tag_file("D1,30.5,0", header=" detector , time_ns,repetition "),
    "bad_header": tag_file("D1,30.5,0", header="a,b,c"),
    # quoting and padding
    "quoted_fields": tag_file('"D1","30.5","0"', 'D2,"42.0",1'),
    "quoted_header": tag_file("D1,30.5,0", header='"detector","time_ns","repetition"'),
    "quoted_line_end": tag_file('D1,"30.5\n",0', "D2,42.0,1"),
    "padded_numbers": tag_file("D1, 30.5 ,0", "D2,\t42.0\t, 1 "),
    "nbsp_padding": tag_file("D1,50.0,\xa02"),
    "padded_detector": tag_file(" D1,30.5,0"),
    # numbers
    "plus_sign": tag_file("D1,+3,+3"),
    "leading_zeros": tag_file("D1,00012,00012"),
    "bare_point": tag_file("D1,.5,0", "D2,5.,0"),
    "negative_zero": tag_file("D1,-0.0,0", "D2,0.0,0", "D1,-0.0,-0"),
    "exponent_time": tag_file("D1,1e3,0", "D2,1E-3,1"),
    "exponent_repetition": tag_file("D1,30.5,1e3"),
    "underscore_time": tag_file("D1,1_0,0"),
    "underscore_repetition": tag_file("D1,30.5,1_0"),
    "non_ascii_digits": tag_file("D1,١٢,٣"),
    "float_repetition": tag_file("D1,30.5,3.0"),
    "hex_time": tag_file("D1,0x10,0"),
    "close_decimals": tag_file("D1,0.1000000000000000055511151231257827021181583404541015625,0",
                               "D2,2.2250738585072011e-308,0", "D1,4.9e-324,1",
                               "D2,1e-400,1"),
    "empty_time": tag_file("D1,,0"),
    "control_padding": tag_file("D1,\x0c30.5,0\x0b"),
    "separator_padding": tag_file("D1,30.5\x1c,0"),
    "separator_repetition": tag_file("D1,30.5,\x1f3"),
    "non_ascii_repetition": tag_file("D1,30.5,1\u01fe"),
    # rejected values
    "inf_time": tag_file("D1,30.5,0", "D1,inf,1"),
    "nan_time": tag_file("D2,nan,0"),
    "overflow_time": tag_file("D1,1e400,0"),
    "negative_time": tag_file("D1,-1.5,0"),
    "negative_repetition": tag_file("D1,30.5,-3"),
    "max_repetition": tag_file("D1,30.5,9223372036854775807"),
    "repetition_2_63": tag_file("D1,30.5,9223372036854775808"),
    "min_int64_repetition": tag_file("D1,30.5,-9223372036854775808"),
    # detector field
    "d3": tag_file("D1,30.5,0", "D3,42.0,1"),
    "d12": tag_file("D12,30.5,0"),
    "d1_space": tag_file("D1 ,30.5,0"),
    "d1_nul": tag_file("D1\x00,30.5,0"),
    "d1_nuls": tag_file("D1\x00\x00\x00x,30.5,0"),
    "nul_repetition": tag_file("D1,30.5,0\x00"),
    "empty_detector": tag_file(",30.5,0"),
    "lowercase_detector": tag_file("d1,30.5,0"),
    # field count
    "two_fields": tag_file("D1,30.5"),
    "four_fields": tag_file("D1,30.5,0,7"),
    "trailing_comma": tag_file("D1,30.5,0,"),
    # order
    "unsorted": tag_file("D1,50.0,1", "D1,30.5,0", "D2,42.0,0"),
    "unsorted_time": tag_file("D2,42.0,3", "D2,31.0,3"),
    "detector_ties": tag_file("D2,30.5,0", "D1,30.5,0", "D1,30.5,0", "D2,30.5,1",
                              "D1,30.5,1"),
    "detector_order": tag_file("D2,30.5,0", "D1,42.0,0", "D1,31.0,0"),
    "zero_ties": tag_file("D1,0.0,0", "D1,-0.0,0", "D2,-0.0,0", "D2,0.0,0"),
}

ACCEPTED = {
    "lf", "crlf", "cr", "no_final_end", "mixed_ends", "blank_between", "blank_trailing",
    "cr_blank_lines", "header_only", "header_only_lf", "header_no_end",
    "header_blank_lines", "empty", "padded_header", "quoted_fields", "quoted_header",
    "quoted_line_end", "padded_numbers", "nbsp_padding", "plus_sign", "leading_zeros",
    "bare_point", "negative_zero", "exponent_time", "underscore_time",
    "underscore_repetition", "non_ascii_digits", "close_decimals", "control_padding",
    "max_repetition", "unsorted", "unsorted_time", "detector_ties", "detector_order",
    "zero_ties",
}


def sorted_rows(n, seed=3):
    """n random (detector, time, repetition) rows in export order."""
    rng = np.random.default_rng(seed)
    rep = np.sort(rng.integers(0, 10**6, n))
    time = rng.uniform(0.0, 606.06, n)
    det = rng.integers(0, 2, n)
    order = np.lexsort((det, time, rep))
    return list(zip(det[order], time[order], rep[order]))


def fixed_width_rows(n, rep):
    """n rows whose lines all have the same length: a two-digit integer
    part and the one repetition `rep`."""
    return [(i % 2, 10.0 + i * 80.0 / n, rep) for i in range(n)]


# rows per exported file: all but ROW_LOOP are in the form the decoder reads
EXPORTED = {
    "random": lambda: sorted_rows(5_000),
    "header_only": lambda: [],
    "one_row": lambda: [(1, 30.5, 0)],
    # 18-, 17- and 16-byte lines: the first block (2^k bytes) ends inside
    # a number, between a CR and its LF, and after a whole line
    "block_edge_in_a_number": lambda: fixed_width_rows(
        coincidence._READ_BLOCK // 18 + 100, 100),
    "block_edge_before_lf": lambda: fixed_width_rows(
        coincidence._READ_BLOCK // 17 + 100, 10),
    "block_edge_after_row": lambda: fixed_width_rows(
        coincidence._READ_BLOCK // 16 + 100, 1),
    "widths_1_and_8": lambda: [(0, 0.5, 0), (1, 7.0, 1), (0, 12345678.25, 99999999),
                               (1, 99999999.999999, 99999999)],
    "integer_part_9_digits": lambda: [(0, 0.5, 0), (1, 123456789.5, 1)],
    "repetition_9_digits": lambda: [(0, 0.5, 0), (1, 3.5, 123456789)],
    # a chunk holding a negative time goes through the %-template
    "negative_time": lambda: [(0, 1.0, 0), (1, -2.5, 1)],
}
ROW_LOOP = {"integer_part_9_digits", "repetition_9_digits", "negative_time"}

# corpus files of plain rows (no quotes) whose rows, exported in file order,
# are in the form the decoder reads; max_repetition's 19-digit repetition
# and the -0.0 of negative_zero and zero_ties ("-0.000000") are not
PLAIN_ROWS = {
    "lf", "crlf", "cr", "no_final_end", "mixed_ends", "blank_between", "blank_trailing",
    "cr_blank_lines", "padded_numbers", "plus_sign", "leading_zeros", "bare_point",
    "exponent_time", "close_decimals", "unsorted", "unsorted_time", "detector_ties",
    "detector_order",
}


def plain_rows(text):
    """The (detector, time, repetition) rows of a corpus file of unquoted
    rows, in file order."""
    rows = [line.split(",") for line in text.splitlines()[1:] if line]
    return [(int(d.strip()[1:]) - 1, float(t), int(r)) for d, t, r in rows]


def outcome(ingest, path):
    """("ok", (dtype, bytes) of each column, warnings) or ("error", message, line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            tags = ingest(path)
        except ParseError as exc:
            return "error", str(exc), exc.line
    columns = [(a.dtype.str, a.shape, a.tobytes())
               for a in (tags.detector, tags.time, tags.repetition)]
    return "ok", columns, [(w.category, str(w.message), w.filename) for w in caught]


def write(tmp_path, text):
    path = tmp_path / "tags.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def export(tmp_path, rows):
    """The path of export_timetags' file of (detector, time, repetition) rows."""
    det, time, rep = zip(*rows) if rows else ((), (), ())
    path = tmp_path / "tags.csv"
    tags = coincidence.TagArrays(np.array(det, np.int8), np.array(time, float),
                                 np.array(rep, np.int64))
    export_timetags(path, tags)
    return path


def count_row_loops(monkeypatch) -> list:
    """Record each call of the csv row loop in the returned list."""
    calls = []
    parse_rows = coincidence._parse_rows
    monkeypatch.setattr(coincidence, "_parse_rows",
                        lambda fh: calls.append(1) or parse_rows(fh))
    return calls


# the rows of an export whose line 3 is LINE_3, and the offset of each of
# its bytes by role
EDITED_ROWS = [(0, 30.5, 0), (1, 42.25, 7), (0, 12345.125, 400000)]
LINE_3 = b"D2,42.250000,7\r\n"
LINE_3_BYTES = {"d": 0, "detector_digit": 1, "comma": 2, "integer": 3, "point": 5,
                "decimal": 8, "second_comma": 12, "repetition": 13, "cr": 14, "lf": 15}
# one-byte edits: (bytes put in, bytes taken out)
EDITS = {"nul": (b"\x00", 1), "space": (b" ", 1), "xff": (b"\xff", 1), "digit": (b"3", 1),
         "insert_digit": (b"5", 0), "delete": (b"", 1)}


class TestConformance:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_matches_reference(self, tmp_path, name):
        path = write(tmp_path, CORPUS[name])
        got = outcome(ingest_timetags, path)
        assert got == outcome(ref.ingest_timetags, path)
        assert (got[0] == "ok") == (name in ACCEPTED)

    @pytest.mark.parametrize("name", sorted(PLAIN_ROWS))
    def test_plain_files_skip_the_row_parser(self, tmp_path, monkeypatch, name):
        # the corpus file's rows rewritten in export's form: out-of-order
        # rows must reach the sort with the reference's warnings
        path = export(tmp_path, plain_rows(CORPUS[name]))
        want = outcome(ref.ingest_timetags, path)
        assert want[0] == "ok"
        monkeypatch.setattr(coincidence, "_parse_rows", None)
        assert outcome(ingest_timetags, path) == want

    @pytest.mark.parametrize("name", sorted(EXPORTED.keys() - ROW_LOOP))
    def test_exported_files_skip_the_row_parser(self, tmp_path, monkeypatch, name):
        path = export(tmp_path, EXPORTED[name]())
        want = outcome(ref.ingest_timetags, path)
        monkeypatch.setattr(coincidence, "_parse_rows", None)
        assert outcome(ingest_timetags, path) == want

    def test_named_values(self, tmp_path):
        tags = ingest_timetags(write(tmp_path, CORPUS["negative_zero"]))
        assert np.signbit(tags.time).tolist() == [True, True, False]
        tags = ingest_timetags(write(tmp_path, CORPUS["max_repetition"]))
        assert tags.repetition.tolist() == [2**63 - 1]
        tags = ingest_timetags(write(tmp_path, CORPUS["detector_ties"]))
        assert tags.detector.tolist() == [0, 0, 1, 0, 1]
        with pytest.warns(UserWarning, match="D1 stream"):
            tags = ingest_timetags(write(tmp_path, CORPUS["unsorted"]))
        assert tags.time.tolist() == [30.5, 42.0, 50.0]

    def test_random_files_match_reference(self, tmp_path):
        rnd = random.Random(9)
        detectors = ["D1", "D2"] * 6 + ["D3", "D12", "D1 ", "D1\x00", " D2", '"D1"', ""]
        times = ["30.5", "42.000001", "0.0", "7", "1e3", "5.", ".5"] * 3 + [
            "-0.0", " 2.5 ", "+1", "1_0", "inf", "nan", "1e400", "-1", "0x10", '"3"',
            "١", "2\x1c", ""]
        reps = ["0", "1", "2", "400000"] * 4 + [
            "+3", "007", " 4 ", "-0", "-1", "1e3", "1_0", "3.0", "9223372036854775807",
            "9223372036854775808", "1\u01fe", "\x1d5", ""]
        odd_rows = ["", " ", "D1,30.5", "D1,30.5,0,1", ","]
        for _ in range(300):
            rows = []
            for _ in range(rnd.randrange(6)):
                if rnd.random() < 0.1:
                    rows.append(rnd.choice(odd_rows))
                else:
                    rows.append(",".join((rnd.choice(detectors), rnd.choice(times),
                                          rnd.choice(reps))))
            end = rnd.choice(["\n", "\r\n", "\r"])
            text = tag_file(*rows, end=end)
            if rnd.random() < 0.2:
                text = text[:-len(end)]
            path = write(tmp_path, text)
            assert outcome(ingest_timetags, path) == outcome(ref.ingest_timetags, path), text

    def test_exported_file_matches_reference(self, tmp_path, monkeypatch):
        self._exported_matches_reference(tmp_path, monkeypatch, "random")

    @pytest.mark.parametrize("name", sorted(EXPORTED.keys() - {"random"}))
    def test_exported_edge_case_matches_reference(self, tmp_path, monkeypatch, name):
        self._exported_matches_reference(tmp_path, monkeypatch, name)

    @staticmethod
    def _exported_matches_reference(tmp_path, monkeypatch, name):
        path = export(tmp_path, EXPORTED[name]())
        if name.startswith("block_edge"):
            # the bytes on either side of the first block's end
            edge = len(HEADER) + 2 + coincidence._READ_BLOCK
            around = path.read_bytes()[edge - 1:edge + 1]
            assert {"block_edge_in_a_number": around.isdigit(),
                    "block_edge_before_lf": around == b"\r\n",
                    "block_edge_after_row": around == b"\nD"}[name]
        want = outcome(ref.ingest_timetags, path)
        calls = count_row_loops(monkeypatch)
        assert outcome(ingest_timetags, path) == want
        assert calls == ([1] if name in ROW_LOOP else [])
        if name == "negative_time":
            assert want == ("error", "line 3: negative time -2.5", 3)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("at", sorted(LINE_3_BYTES))
    def test_exported_file_with_one_byte_edited(self, tmp_path, edit, at):
        path = export(tmp_path, EDITED_ROWS)
        data = bytearray(path.read_bytes())
        offset = data.index(LINE_3) + LINE_3_BYTES[at]
        put, taken = EDITS[edit]
        data[offset:offset + taken] = put
        path.write_bytes(bytes(data))
        got = outcome(ingest_timetags, path)
        if edit != "xff":
            assert got == outcome(ref.ingest_timetags, path)
            return
        # outside the reference's domain, which fails to decode the file
        with pytest.raises(UnicodeDecodeError):
            ref.ingest_timetags(path)
        # a replaced LF leaves line 3 ended by its CR: the byte opens line 4
        line = 4 if at == "lf" else 3
        assert got == ("error", f"line {line}: byte 0xff is not UTF-8", line)


# a field over csv's default field limit (131,072 characters)
LONG = 200_000


class TestLongFields:
    @pytest.mark.parametrize("row", ['D1,30.5,"' + "1" * LONG + '"',
                                     "D1,1." + "0" * LONG + ",0"],
                             ids=["quoted_repetition", "plain_time"])
    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, row):
        # neither line is in export's form: both reach the row loop, where
        # csv.reader fails on the long field
        path = write(tmp_path, tag_file("D1,30.5,0", row, "D2,42.0,1"))
        with pytest.raises(ParseError, match=r"field larger than field limit \(131072\)"
                           ) as err:
            ingest_timetags(path)
        assert err.value.line == 3
        assert main(["analyze", "--input", str(path), "--mode", "g2",
                     "--out", str(tmp_path / "ana")]) == 1

    def test_long_line_within_the_limit_is_read(self, tmp_path, monkeypatch):
        # 5,000 short rows, then a line within csv's field limit
        rows = ["D1,30.5,0"] * 5_000 + ["D1,1." + "0" * 100_000 + ",1"]
        path = write(tmp_path, tag_file(*rows))
        want = outcome(ref.ingest_timetags, path)
        assert want[0] == "ok" and want[2] == []
        assert outcome(ingest_timetags, path) == want
        # a line longer than any exported row takes the row loop
        calls = count_row_loops(monkeypatch)
        assert outcome(ingest_timetags, path) == want
        assert calls == [1]


class TestSimulatedFiles:
    @pytest.mark.parametrize("run, mode", [
        (["hom"], "hom"), (["bell"], "witness"), (["ghz", "--photons", "3"], "witness"),
    ], ids=["hom", "bell", "ghz3"])
    def test_simulate_output_is_decoded(self, tmp_path, monkeypatch, run, mode):
        # every tag file simulate writes must be read without the row loop
        sim, ana = tmp_path / "sim", tmp_path / "ana"
        assert main(["simulate", *run, "--defaults", "paper", "--reps", "3000",
                     "--seed", "1", "--out", str(sim)]) == 0
        path = sim / "timetags.csv"
        want = outcome(ref.ingest_timetags, path)

        def no_row_loop(fh):
            raise AssertionError("row loop called")
        monkeypatch.setattr(coincidence, "_parse_rows", no_row_loop)
        got = outcome(ingest_timetags, path)
        assert got == want and got[0] == "ok" and len(got[1][0][2]) > 0
        assert main(["analyze", "--mode", mode, "--input", str(path),
                     "--manifest", str(sim / "manifest.json"), "--out", str(ana)]) == 0
