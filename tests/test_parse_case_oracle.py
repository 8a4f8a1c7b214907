"""Differential tests: the column-wise ``parse_case_file`` against the
row-by-row parser it replaced (``oracle_parse_case``).

On every input both must return bit-identical columns and equal ids, or
raise ``ParseError`` with the same text. Each input is also parsed with
two-row blocks, so that blank lines, errors and the concatenation of the
blocks fall on block boundaries.
"""

import numpy as np
import pytest

import oracle_parse_case as oracle
from snpwoe import fileio
from snpwoe.fileio import ParseError, parse_case_file

Q_HEADER = "marker_id,x_t,x_r,q"
P_HEADER = "marker_id,x_t,x_r,p0,p1,p2"
Q_ROWS = ["rs1,0,0,0.75", "rs2,1,2,0.9", "rs3,2,2,0.75", "rs4,0,1,0.123456789",
          "rs5,1,1,1", "rs6,2,0,1e-300", "rs7,0,2,٠.٥"]
P_ROWS = ["rs1,0,0,0.25,0.5,0.25", "rs2,1,2,0.1,0.2,0.7", "rs3,2,2,1,0,0",
          f"rs4,0,1,{0.5 + 9e-10},0.3,0.2", f"rs5,1,1,{0.5 - 9.9e-10},0.3,0.2",
          f"rs6,2,1,0.5,0.3,{0.2 + 9e-10}", "rs7,0,0,0.81,0.18,0.01"]


def outcome(parse, path):
    """The case's ids and its columns' dtypes, shapes and bytes, or the
    error's text."""
    try:
        case = parse(path)
    except ParseError as exc:
        return str(exc)
    return case.ids, [(a.dtype.str, a.shape, a.tobytes()) for a in (case.x_t, case.x_r, case.priors)]


@pytest.fixture(params=[None, 2], ids=["blocks-default", "blocks-of-2"])
def check(request, monkeypatch, tmp_path):
    """``check(data)`` writes ``data`` (text or bytes) to a file and
    asserts both parsers agree on it; returns the oracle's outcome."""
    if request.param is not None:
        monkeypatch.setattr(fileio, "_BLOCK_ROWS", request.param)
    path = tmp_path / "case.csv"

    def run(data):
        if isinstance(data, str):
            path.write_text(data, encoding="utf-8", newline="")
        else:
            path.write_bytes(data)
        want = outcome(oracle.parse_case_file, path)
        assert outcome(parse_case_file, path) == want
        return want

    return run


def lines(*rows):
    return "".join(f"{row}\n" for row in rows)


class TestWellFormed:
    @pytest.mark.parametrize("header, rows", [(Q_HEADER, Q_ROWS), (P_HEADER, P_ROWS)],
                             ids=["q", "p"])
    def test_plain(self, check, header, rows):
        assert not isinstance(check(lines(header, *rows)), str)

    def test_crlf_and_bom(self, check):
        text = lines(Q_HEADER, *Q_ROWS).replace("\n", "\r\n")
        assert not isinstance(check(text.encode("utf-8-sig")), str)
        assert not isinstance(check(lines(P_HEADER, *P_ROWS).replace("\n", "\r")), str)

    def test_padded_cells(self, check):
        pad = [" ", "\t", " \t ", " "]
        rows = [",".join(pad[(i + j) % 4] + cell + pad[(i * j) % 4]
                         for j, cell in enumerate(row.split(",")))
                for i, row in enumerate([Q_HEADER, *Q_ROWS])]
        assert not isinstance(check(lines(*rows)), str)

    def test_blank_and_whitespace_lines(self, check):
        text = lines("", "  ", "\t", Q_HEADER, "", Q_ROWS[0], " , ,\t,", Q_ROWS[1], ",,",
                     *Q_ROWS[2:5], "   ", "", ",,,,,", ",,,")
        case = check(text)
        assert case[0] == ("rs1", "rs2", "rs3", "rs4", "rs5")

    def test_quoted_fields(self, check):
        text = lines(f'"{Q_HEADER.replace(",", chr(34) + "," + chr(34))}"',
                     '"rs,1",0,0,0.75', '"rs2","1","2"," 0.9 "', '"rs""3",2,2,0.75',
                     '"rs\n4",0,1,0.5', "rs5,1,1,0.5")
        assert check(text)[0] == ("rs,1", "rs2", 'rs"3', "rs\n4", "rs5")

    def test_priors_near_the_file_tolerance(self, check):
        for off in (-1e-9, -9.99e-10, 1e-10, 9.99e-10, 1e-9, 1.01e-9):
            check(lines(P_HEADER, f"rs1,0,0,{0.5 + off},0.25,0.25", "rs2,1,1,1,0,0"))

    def test_many_rows(self, check):
        rows = [f"rs{i},{i % 3},{(i // 3) % 3},{(i % 97 + 1) / 98!r}" for i in range(300)]
        assert len(check(lines(Q_HEADER, *rows))[0]) == 300


# Rows that fail one check each; {id} is a fresh marker id.
BAD_Q_ROWS = {
    "x_t-3": "{id},3,0,0.75", "x_r-9": "{id},0,9,0.75", "x_t-1.0": "{id},1.0,0,0.75",
    "x_t-plus": "{id},+1,0,0.75", "x_t-empty": "{id},,0,0.75", "x_r-wide": "{id},0,１,0.5",
    "3-cols": "{id},0,0", "5-cols": "{id},0,0,0.75,1", "1-col": "{id}",
    "q-1.5": "{id},0,0,1.5", "q-0": "{id},0,0,0", "q-neg": "{id},0,0,-0.25",
    "q-abc": "{id},0,0,abc", "q-nan": "{id},0,0,nan", "q-inf": "{id},0,0,inf",
    "q-empty": "{id},0,0,", "id-empty": ",0,0,0.75", "id-blank": "  ,1,1,0.5",
    "duplicate": "rs1,1,1,0.75",
}
BAD_P_ROWS = {
    "sum": "{id},0,0,0.6,0.3,0.2", "range": "{id},0,0,1.2,-0.1,-0.1",
    "p0-text": "{id},0,0,x,0.3,0.2", "p2-text-after-range": "{id},0,0,1.5,0.3,y",
    "nan": "{id},0,0,nan,0.5,0.5", "infs": "{id},0,0,inf,-inf,0",
    "5-cols": "{id},0,0,0.5,0.5", "dosage": "{id},0,3,0.5,0.3,0.2",
    "duplicate": "rs1,0,0,0.5,0.3,0.2",
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
class TestMalformedRows:
    @staticmethod
    def placed(header, rows, bad, where):
        rows = list(rows)
        at = {"first": 0, "middle": len(rows) // 2, "last": len(rows)}[where]
        rows.insert(at, bad.format(id="rs99"))
        return lines(header, *rows)

    @pytest.mark.parametrize("kind", BAD_Q_ROWS)
    def test_q_form(self, check, where, kind):
        text = self.placed(Q_HEADER, Q_ROWS, BAD_Q_ROWS[kind], where)
        assert isinstance(check(text), str)
        assert isinstance(check(text.replace("\n", "\r\n").encode("utf-8-sig")), str)

    @pytest.mark.parametrize("kind", BAD_P_ROWS)
    def test_p_form(self, check, where, kind):
        assert isinstance(check(self.placed(P_HEADER, P_ROWS, BAD_P_ROWS[kind], where)), str)

    def test_after_blank_and_multiline_rows(self, check, where):
        # Blank lines and quoted line breaks (\n, \r, \r\n) move the line numbers.
        rows = ["", '"rs\r11",2,1,0.5', '"rs\r\n12\r\n",0,1,0.5', Q_ROWS[0], '"rs\n10",1,1,0.5',
                "   ", Q_ROWS[1], ",,,"]
        error = check(self.placed(Q_HEADER, rows, BAD_Q_ROWS["x_t-3"], where))
        assert error.endswith("dosage must be 0, 1 or 2, got '3'")


class TestFileErrors:
    def test_header(self, check):
        for text in (lines("marker,x_t,x_r,q", *Q_ROWS), lines(Q_HEADER + ",p0", *Q_ROWS),
                     lines("", " ", "rs1,0,0,0.75"), lines(Q_HEADER), lines(P_HEADER, "", ",,"),
                     "", "\n\n  \n", lines("x", Q_HEADER, *Q_ROWS)):
            assert isinstance(check(text), str)

    def test_first_bad_line_wins(self, check):
        # The later line fails a check that a row meets first.
        error = check(lines(Q_HEADER, Q_ROWS[0], "rs9,0,0,1.5", *Q_ROWS[1:], "rs10,0,0"))
        assert ":3: column 'q'" in error
        error = check(lines(Q_HEADER, "rs9,0,0,abc", "rs1,0,0,0.75", "rs1,0,0,0.75"))
        assert ":2: column 'q'" in error

    def test_non_utf8_beats_a_bad_row(self, check):
        data = lines(Q_HEADER, "rs9,3,0,0.75", *Q_ROWS).encode() + b"rs8,0,0,0.5\xff\n"
        assert "not UTF-8" in check(data)
        # The undecodable byte lies past the bad row's block and the first chunk decoded.
        rows = [f"m{i},0,0,0.5" for i in range(5000)]
        assert "not UTF-8" in check(lines(Q_HEADER, "rs9,3,0,0.75", *rows).encode() + b"\xff\n")

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        assert outcome(parse_case_file, path) == outcome(oracle.parse_case_file, path)


def test_random_files_agree(check):
    """Seeded random files whose cells mix valid values, padding, quotes,
    blank lines and bad values, several per file."""
    rng = np.random.default_rng(20261019)
    ids = ["rs1", "rs2", "rs3", " rs4", "rs,5", "", "rs1 "]
    dosages = ["0", "1", "2", " 2", "\t1", "3", "1.0", ""]
    freqs = ["0.5", "1", "0.123456789012345678", "1e-3", " 0.9 ", "0", "1.5", "nan", "x", ""]
    triples = [["0.25", "0.5", "0.25"], ["0.1", "0.2", "0.7"], ["1", "0", "0"],
               [" 0.81", "0.18 ", "0.01"], ["0.5000000005", "0.25", "0.25"]]
    probs = ["0.25", "0.5", "1", "0", "0.3333333333333333", "-0.1", "y", "inf", ""]
    for _ in range(300):
        use_q = rng.random() < 0.5
        rows = [Q_HEADER if use_q else P_HEADER]
        for i in range(int(rng.integers(0, 8))):
            if rng.random() < 0.15:
                rows.append(str(rng.choice(["", "  ", ",,,", ",,,,,,", "\t,"])))
                continue
            good = rng.random() < 0.8
            cells = [f"m{i}" if good else str(rng.choice(ids))]
            cells += [str(rng.choice(dosages[:5] if good else dosages)) for _ in range(2)]
            if use_q:
                cells.append(str(rng.choice(freqs[:5] if good else freqs)))
            else:
                cells += (triples[rng.integers(len(triples))] if good
                          else [str(rng.choice(probs)) for _ in range(3)])
            if rng.random() < 0.05:
                cells.pop()
            if rng.random() < 0.1:
                cells[0] = f'"{cells[0]}\n"'
            rows.append(",".join(cells))
        check(lines(*rows))
