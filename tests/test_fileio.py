"""Case/table/config parsing and result CSV round-trips."""

import csv
import math
import re

import numpy as np
import pytest

from snpwoe import fileio
from snpwoe.fileio import (
    ParseError,
    fmt_float,
    load_study_config,
    parse_case_file,
    parse_pair_table_file,
    read_records_csv,
    read_summary_csv,
    write_ece_csv,
    write_records_csv,
    write_summary_csv,
)
from snpwoe.genotypes import hwe_priors
from snpwoe.scaled_beta import ScaledBeta
from snpwoe.study import (
    PriorSpec,
    StudyConfig,
    StudyRecord,
    compute_ece_by_cell,
    run_woe_study,
    summarize_records,
)


class TestFmtFloat:
    def test_round_trips_exactly(self):
        for x in (0.1, 1e-4, 2.0 / 3.0, 1.0000000000000002, 5e-324):
            assert float(fmt_float(x)) == x

    def test_numpy_scalars_render_bare(self):
        assert fmt_float(np.float64(0.25)) == "0.25"

    def test_infinities(self):
        assert fmt_float(float("-inf")) == "-inf"
        assert float(fmt_float(float("-inf"))) == -math.inf


class TestParseCaseFile:
    def test_q_form(self, tmp_path):
        p = tmp_path / "case.csv"
        p.write_text(
            "marker_id,x_t,x_r,q\n"
            "rs1,0,0,0.75\n"
            "rs2,1,2,0.9\n"
            "rs3,2,2,0.75\n"
        )
        case = parse_case_file(p)
        assert case.m == 3
        assert case.ids == ("rs1", "rs2", "rs3")
        assert case.x_t.tolist() == [0, 1, 2] and case.x_r.tolist() == [0, 2, 2]
        p75, p90 = hwe_priors(0.75), hwe_priors(0.9)
        # each row is bit-identical to the scalar HWE priors of its q
        assert case.priors.tolist() == [[p75.p0, p75.p1, p75.p2],
                                        [p90.p0, p90.p1, p90.p2],
                                        [p75.p0, p75.p1, p75.p2]]
        assert len(np.unique(case.priors, axis=0)) == 2

    def test_q_one_is_monomorphic(self, tmp_path):
        p = tmp_path / "case.csv"
        p.write_text("marker_id,x_t,x_r,q\nrs1,0,0,0.75\nrs2,0,0,1.0\n")
        assert parse_case_file(p).priors[1].tolist() == [1.0, 0.0, 0.0]

    def test_explicit_priors_form_renormalizes(self, tmp_path):
        p = tmp_path / "case.csv"
        p.write_text(
            "marker_id,x_t,x_r,p0,p1,p2\n"
            f"rs1,0,0,{0.5 + 2e-10},0.3,0.2\n"
        )
        case = parse_case_file(p)
        p0, p1, p2 = case.priors[0].tolist()
        assert math.isclose(p0 + p1 + p2, 1.0, abs_tol=1e-12)
        assert math.isclose(p0, 0.5, abs_tol=1e-9)

    def test_whitespace_and_blank_lines(self, tmp_path):
        p = tmp_path / "case.csv"
        p.write_text(
            "marker_id,x_t,x_r,q\n\n"
            " rs1 , 0 , 1 , 0.75 \n"
            "\n"
        )
        case = parse_case_file(p)
        assert case.m == 1 and case.ids == ("rs1",)

    def test_header_errors(self, tmp_path):
        p = tmp_path / "case.csv"
        p.write_text("marker,x_t,x_r,q\nrs1,0,0,0.75\n")
        with pytest.raises(ParseError, match="header"):
            parse_case_file(p)
        p.write_text("marker_id,x_t,x_r,q\n")
        with pytest.raises(ParseError, match="no markers"):
            parse_case_file(p)
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            parse_case_file(p)

    def test_row_errors_name_the_line(self, tmp_path):
        p = tmp_path / "case.csv"
        p.write_text("marker_id,x_t,x_r,q\nrs1,0,0,0.75\nrs2,3,0,0.75\n")
        with pytest.raises(ParseError, match=rf"{p}:3: .*dosage"):
            parse_case_file(p)
        p.write_text("marker_id,x_t,x_r,q\nrs1,0,0\n")
        with pytest.raises(ParseError, match="expected 4 columns, got 3"):
            parse_case_file(p)
        p.write_text("marker_id,x_t,x_r,q\nrs1,0,0,0.75\nrs2,0,0,1.5\n")
        with pytest.raises(ParseError, match=rf"{p}:3: column 'q': .*\(0, 1\], got 1.5"):
            parse_case_file(p)
        p.write_text("marker_id,x_t,x_r,q\nrs1,0,0,0.75\nrs1,1,1,0.75\n")
        with pytest.raises(ParseError, match="duplicate marker_id"):
            parse_case_file(p)
        p.write_text("marker_id,x_t,x_r,q\n,0,0,0.75\n")
        with pytest.raises(ParseError, match="nonempty"):
            parse_case_file(p)
        p.write_text("marker_id,x_t,x_r,q\nrs1,0,0,abc\n")
        with pytest.raises(ParseError, match="not a number"):
            parse_case_file(p)

    def test_bad_explicit_priors(self, tmp_path):
        p = tmp_path / "case.csv"
        p.write_text("marker_id,x_t,x_r,p0,p1,p2\nrs1,0,0,0.6,0.3,0.2\n")
        with pytest.raises(ParseError, match="sum to 1"):
            parse_case_file(p)
        p.write_text("marker_id,x_t,x_r,p0,p1,p2\nrs1,0,0,1.2,-0.1,-0.1\n")
        with pytest.raises(ParseError, match=r"\[0, 1\]"):
            parse_case_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="nope.csv"):
            parse_case_file(tmp_path / "nope.csv")

    def test_unbalanced_quote_names_its_line(self, tmp_path):
        # Line 2 opens a quote that never closes. From there every 16-character
        # line goes into one field, until it passes the CSV reader's field limit.
        limit = csv.field_size_limit()
        p = tmp_path / "case.csv"
        p.write_text('marker_id,x_t,x_r,q\n"' + "".join(f"rs{i:05},0,0,0.5\n" for i in range(20000)))
        with pytest.raises(ParseError) as exc:
            parse_case_file(p)
        assert str(exc.value) == f"{p}:{2 + limit // 16}: field larger than field limit ({limit})"
        for read in (parse_pair_table_file, read_records_csv, read_summary_csv):
            with pytest.raises(ParseError, match="field larger than field limit"):
                read(p)

    def test_nul_byte_names_its_line(self, tmp_path):
        # Python 3.10's CSV reader rejects the line; later ones read a bad dosage.
        p = tmp_path / "case.csv"
        p.write_text("marker_id,x_t,x_r,q\nrs1,0\0,0,0.5\nrs2,0,0,0.5\n")
        with pytest.raises(ParseError) as exc:
            parse_case_file(p)
        assert str(exc.value).startswith(f"{p}:2: ")

    @pytest.mark.parametrize("block_rows", [None, 2], ids=["blocks-default", "blocks-of-2"])
    @pytest.mark.parametrize("first, last, error", [
        ("rs0,0,1,0.5", b"rs3000,1,1,0.5\n", None),
        ("rs0,0,1,0.5", b"rs3000,3,1,0.5\n", ":3002: column 'x_t': dosage"),
        ("rs0,0,1,0.5", b"rs0,1,1,0.5\n", ":3002: duplicate marker_id 'rs0'"),
        ("rs0,9,1,0.5", b"rs3000,1,1,0.5\xff\n", ": not UTF-8 text"),
    ], ids=["clean", "bad-last-line", "duplicate-last-id", "bad-row-then-non-utf8-tail"])
    def test_opened_once(self, tmp_path, monkeypatch, block_rows, first, last, error):
        if block_rows is not None:
            monkeypatch.setattr(fileio, "_BLOCK_ROWS", block_rows)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(fileio, "open", counting_open, raising=False)
        p = tmp_path / "case.csv"
        rows = [first] + [f"rs{i},{i % 3},1,0.5" for i in range(1, 3000)]
        p.write_bytes("".join(f"{row}\n" for row in ["marker_id,x_t,x_r,q", *rows]).encode() + last)
        if error is None:
            assert parse_case_file(p).m == 3001
        else:
            with pytest.raises(ParseError, match=error):
                parse_case_file(p)
        assert opened == [p]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet CSV exports often begin with a UTF-8 byte-order mark.
        text = "marker_id,x_t,x_r,q\nrs1,0,1,0.75\nrs2,2,2,0.9\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        case, expected = parse_case_file(marked), parse_case_file(plain)
        assert case.ids == expected.ids == ("rs1", "rs2")
        assert case.x_t.tolist() == expected.x_t.tolist()
        assert case.x_r.tolist() == expected.x_r.tolist()
        assert case.priors.tolist() == expected.priors.tolist()


class TestParsePairTableFile:
    def test_q_form(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("q,0.9\n,0,1,2\n0,100,3,0\n1,2,50,1\n2,0,1,10\n")
        table = parse_pair_table_file(p)
        assert table.priors == hwe_priors(0.9)
        assert table.counts[0, 1] == 3 and table.counts[2, 2] == 10
        assert table.total == 167

    def test_p_form(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("p,0.5,0.3,0.2\n,0,1,2\n0,5,0,0\n1,0,5,0\n2,0,0,5\n")
        table = parse_pair_table_file(p)
        assert math.isclose(table.priors.p1, 0.3, abs_tol=1e-12)
        assert table.total == 15

    def test_format_errors(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("q,0.9\n,0,1,2\n0,1,0,0\n1,0,1,0\n")
        with pytest.raises(ParseError, match="exactly 5"):
            parse_pair_table_file(p)
        p.write_text("freq,0.9\n,0,1,2\n0,1,0,0\n1,0,1,0\n2,0,0,1\n")
        with pytest.raises(ParseError, match="first line"):
            parse_pair_table_file(p)
        p.write_text("q,0.9\n,0,1\n0,1,0,0\n1,0,1,0\n2,0,0,1\n")
        with pytest.raises(ParseError, match=",0,1,2"):
            parse_pair_table_file(p)
        p.write_text("q,0.9\n,0,1,2\n0,1,0,0\n2,0,1,0\n1,0,0,1\n")
        with pytest.raises(ParseError, match="dosage label 1"):
            parse_pair_table_file(p)
        p.write_text("q,0.9\n,0,1,2\n0,1,0,0\n1,0,-1,0\n2,0,0,1\n")
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_pair_table_file(p)
        p.write_text("q,0.9\n,0,1,2\n0,1.5,0,0\n1,0,1,0\n2,0,0,1\n")
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_pair_table_file(p)
        p.write_text("q,0.9\n,0,1,2\n0,0,0,0\n1,0,0,0\n2,0,0,0\n")
        with pytest.raises(ParseError, match="at least one pair"):
            parse_pair_table_file(p)
        p.write_text("q,0.0\n,0,1,2\n0,1,0,0\n1,0,1,0\n2,0,0,1\n")
        with pytest.raises(ParseError, match=rf"{p}:1: .*\(0, 1\], got 0.0"):
            parse_pair_table_file(p)
        # q = 1 is the rule hwe_priors and StudyConfig use: a monomorphic prior.
        p.write_text("q,1.0\n,0,1,2\n0,1,0,0\n1,0,1,0\n2,0,0,1\n")
        assert parse_pair_table_file(p).priors == hwe_priors(1.0)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("q,0.9\n,0,1,2\n0,100,3,0\n1,2,50,1\n2,0,1,10\n", encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        table = parse_pair_table_file(p)
        assert table.priors == hwe_priors(0.9)
        assert table.counts.tolist() == [[100, 3, 0], [2, 50, 1], [0, 1, 10]]


class TestLoadStudyConfig:
    def write(self, tmp_path, text):
        p = tmp_path / "study.yaml"
        p.write_text(text)
        return p

    def test_full_config(self, tmp_path):
        p = self.write(tmp_path, """
q_values: [0.75, 0.9]
w_t_values: [1e-4, 1e-2]
w_r: 1e-4
marker_counts: [50, 200]
replicates: 25
methods: [true-w, plug-in, integrate-mc, integrate-quad, profile]
priors:
  - {id: tight, mean: 1e-4, variance: 5e-9}
  - {id: uniform, shape1: 1.0, shape2: 1.0}
master_seed: 7
mc_samples: 500
quad_tol: 1e-7
profile_lower: 0.01
profile_upper: 0.4
""")
        cfg = load_study_config(p)
        # every optional key is set to a value other than its default
        assert cfg == StudyConfig(
            q_values=(0.75, 0.9), w_t_values=(1e-4, 1e-2), w_r=1e-4,
            marker_counts=(50, 200), replicates=25,
            methods=("true-w", "plug-in", "integrate-mc", "integrate-quad", "profile"),
            priors=(PriorSpec("tight", ScaledBeta.from_moments(1e-4, 5e-9)),
                    PriorSpec("uniform", ScaledBeta(1.0, 1.0))),
            master_seed=7, mc_samples=500, quad_tol=1e-7, profile_lower=0.01,
            profile_upper=0.4)
        assert cfg.q_values == (0.75, 0.9)
        # plain-YAML scientific notation arrives as a string and is coerced
        assert cfg.w_t_values == (1e-4, 1e-2) and cfg.w_r == 1e-4
        assert cfg.marker_counts == (50, 200)
        assert cfg.replicates == 25 and cfg.master_seed == 7
        assert cfg.mc_samples == 500 and cfg.quad_tol == 1e-7
        assert cfg.profile_upper == 0.4
        assert cfg.priors[0].prior_id == "tight"
        assert math.isclose(cfg.priors[0].dist.mean, 1e-4, rel_tol=1e-12)
        assert cfg.priors[1].dist.alpha == 1.0

    def test_defaults(self, tmp_path):
        p = self.write(tmp_path, """
q_values: [0.75]
w_t_values: [1e-3]
w_r: 1e-4
marker_counts: [10]
replicates: 2
methods: [true-w]
""")
        cfg = load_study_config(p)
        assert cfg.master_seed == 0 and cfg.mc_samples == 1000
        assert cfg.quad_tol == 1e-8
        assert (cfg.profile_lower, cfg.profile_upper) == (0.0, 0.5)

    def test_errors(self, tmp_path):
        base = ("q_values: [0.75]\nw_t_values: [1e-3]\nw_r: 1e-4\n"
                "marker_counts: [10]\nreplicates: 2\nmethods: [true-w]\n")
        with pytest.raises(ParseError, match="unknown config keys"):
            load_study_config(self.write(tmp_path, base + "bogus: 1\n"))
        with pytest.raises(ParseError, match="missing required"):
            load_study_config(self.write(tmp_path, "q_values: [0.75]\n"))
        for line in base.splitlines():
            key = line.split(":")[0]
            with pytest.raises(ParseError, match=rf": missing required config keys \['{key}'\]$"):
                load_study_config(self.write(tmp_path, base.replace(line + "\n", "")))
        for key in ("q_values", "w_t_values", "marker_counts", "priors"):
            text = f"{key}: 5\n" + "".join(f"{line}\n" for line in base.splitlines()
                                           if not line.startswith(f"{key}:"))
            with pytest.raises(ParseError, match=rf": {key} must be a list$"):
                load_study_config(self.write(tmp_path, text))
        with pytest.raises(ParseError, match="must be a number"):
            load_study_config(self.write(
                tmp_path, base.replace("w_r: 1e-4", "w_r: true")))
        with pytest.raises(ParseError, match="list of strings"):
            load_study_config(self.write(
                tmp_path, base.replace("methods: [true-w]", "methods: 5")))
        with pytest.raises(ParseError, match="invalid config"):
            load_study_config(self.write(
                tmp_path, base.replace("replicates: 2", "replicates: 0")))
        with pytest.raises(ParseError, match="keys"):
            load_study_config(self.write(
                tmp_path, base + "priors:\n  - {id: x, mean: 1e-4}\n"))
        with pytest.raises(ParseError, match="mapping"):
            load_study_config(self.write(tmp_path, "- 1\n- 2\n"))
        with pytest.raises(ParseError, match="invalid YAML"):
            load_study_config(self.write(tmp_path, "q_values: [0.75\n"))
        with pytest.raises(ParseError, match="missing.yaml"):
            load_study_config(tmp_path / "missing.yaml")


@pytest.mark.parametrize("old, new, name", [
    ("marker_counts: [10]", "marker_counts: [10, 50.7]", "marker_counts[1]"),
    ("replicates: 2", "replicates: 2.9", "replicates"),
    ("replicates: 2", "replicates: 2\nmaster_seed: 1.5", "master_seed"),
    ("replicates: 2", "replicates: 2\nmc_samples: 999.5", "mc_samples"),
    ("replicates: 2", "replicates: .inf", "replicates"),
])
def test_integer_keys_reject_fractions(tmp_path, old, new, name):
    p = tmp_path / "study.yaml"
    p.write_text(("q_values: [0.75]\nw_t_values: [1e-3]\nw_r: 1e-4\n"
                  "marker_counts: [10]\nreplicates: 2\nmethods: [true-w]\n").replace(old, new))
    with pytest.raises(ParseError, match=rf"^{p}: invalid config: {re.escape(name)} must be an integer, got "):
        load_study_config(p)


@pytest.fixture(scope="module")
def small_records():
    cfg = StudyConfig(
        q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
        marker_counts=(6,), replicates=4,
        methods=("true-w", "profile", "integrate-quad"),
        priors=(PriorSpec("tight", ScaledBeta.from_moments(1e-3, 1e-8)),),
        master_seed=5,
    )
    return run_woe_study(cfg)


class TestRecordsCsv:
    def test_round_trip(self, small_records, tmp_path):
        excluded = StudyRecord(hypothesis="H2", method="profile", prior_id=None,
                               m=3, q=0.75, w_t_true=0.0, replicate=0,
                               woe=-math.inf, w_hat_h1=0.0, w_hat_h2=1e-3)
        records = [*small_records, excluded]
        assert any(rec.w_hat_h1 is None for rec in records)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_minus_inf_round_trip(self, tmp_path):
        rec = StudyRecord(hypothesis="H2", method="true-w", prior_id=None,
                          m=3, q=0.75, w_t_true=0.0, replicate=0,
                          woe=-math.inf)
        path = tmp_path / "records.csv"
        write_records_csv([rec], path)
        assert "-inf" in path.read_text()
        assert read_records_csv(path) == [rec]

    def test_rewrites_are_byte_identical(self, small_records, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(small_records, p1)
        write_records_csv(small_records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_errors(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("nope\n")
        with pytest.raises(ParseError, match="header"):
            read_records_csv(p)
        write_records_csv([], p)
        header = p.read_text()
        p.write_text(header + "H1,true-w,,5,0.75,0.001,0\n")
        with pytest.raises(ParseError, match="columns"):
            read_records_csv(p)
        p.write_text(header + "H1,true-w,,5,0.75,0.001,zero,1.5,,\n")
        with pytest.raises(ParseError, match=f"{p}:2:"):
            read_records_csv(p)


class TestSummaryCsv:
    def test_round_trip(self, small_records, tmp_path):
        excluded = StudyRecord(hypothesis="H2", method="true-w", prior_id=None,
                               m=3, q=0.75, w_t_true=0.0, replicate=0, woe=-math.inf)
        rows = summarize_records([*small_records, excluded])
        assert rows[-1].prior_id is None and rows[-1].min_woe == -math.inf
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        assert read_summary_csv(path) == rows

    def test_read_errors(self, tmp_path):
        p = tmp_path / "summary.csv"
        p.write_text("bad,header\n")
        with pytest.raises(ParseError, match="header"):
            read_summary_csv(p)


class TestEceCsv:
    def test_written_cells_are_exact(self, small_records, tmp_path):
        rows = compute_ece_by_cell(small_records)
        path = tmp_path / "ece.csv"
        write_ece_csv(rows, path)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["method", "prior_id", "m", "q", "w_t_true",
                          "n_h1", "n_h2", "ece", "n_wrong", "fraction_wrong"]
        assert len(got) == 1 + len(rows)
        assert float(got[1][7]) == rows[0].ece
        assert int(got[1][8]) == rows[0].n_wrong
        assert float(got[1][9]) == rows[0].fraction_wrong
        assert got[1][3] == "0.75"
