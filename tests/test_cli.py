"""End-to-end CLI behaviour: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snpwoe.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from snpwoe.fileio import parse_case_file, read_records_csv, read_summary_csv
from snpwoe.evidence import woe_known
from snpwoe.study import compute_ece_by_cell, summarize_records

CASE_TEXT = (
    "marker_id,x_t,x_r,q\n"
    "rs1,0,0,0.75\n"
    "rs2,1,1,0.9\n"
    "rs3,2,2,0.75\n"
    "rs4,0,1,0.75\n"
    "rs5,1,1,0.9\n"
)

PAIR_TEXT = "q,0.9\n,0,1,2\n0,8100,80,1\n1,90,1700,15\n2,0,20,94\n"

CONFIG_TEXT = """
q_values: [0.75]
w_t_values: [1e-3]
w_r: 1e-4
marker_counts: [6]
replicates: 3
methods: [true-w, profile]
master_seed: 3
"""


@pytest.fixture()
def case_path(tmp_path):
    p = tmp_path / "case.csv"
    p.write_text(CASE_TEXT)
    return p


@pytest.fixture()
def pair_path(tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text(PAIR_TEXT)
    return p


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return json.loads(out)


class TestWoeCommand:
    def test_known_json_matches_library(self, case_path, capsys):
        payload = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                                    "--w-t", "1e-3", "--json"])
        case = parse_case_file(case_path)
        assert payload["woe"] == woe_known(case, 1e-3, 1e-4)
        assert payload["method"] == "known"
        assert payload["markers"] == 5
        assert payload["w_t"] == 1e-3 and payload["w_r"] == 1e-4

    def test_plugin_equals_known_at_w_r(self, case_path, capsys):
        a = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                              "--plugin", "--json"])
        b = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                              "--w-t", "1e-4", "--json"])
        assert a["woe"] == b["woe"]
        assert a["method"] == "plug-in" and b["method"] == "known"

    def test_human_output(self, case_path, capsys):
        assert main(["woe", str(case_path), "--w-r", "1e-4",
                     "--w-t", "1e-3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "markers: 5" in out
        assert "method: known" in out
        assert "WoE (log10 LR): " in out

    def test_per_marker_fixed_w(self, case_path, capsys):
        payload = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                                    "--w-t", "1e-3", "--per-marker", "--json"])
        rows = payload["per_marker_log10_lr"]
        assert [r["marker_id"] for r in rows] == ["rs1", "rs2", "rs3", "rs4",
                                                  "rs5"]
        total = math.fsum(r["log10_lr"] for r in rows)
        assert math.isclose(total, payload["woe"], rel_tol=0, abs_tol=1e-9)

    def test_profile_reports_maximizers_and_decomposition(self, case_path,
                                                          capsys):
        payload = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                                    "--profile", "--per-marker", "--json"])
        assert payload["method"] == "profile"
        assert 0.0 <= payload["w_hat_h1"] < 0.5
        assert 0.0 <= payload["w_hat_h2"] < 0.5
        total = math.fsum(r["log10_lr"]
                          for r in payload["per_marker_log10_lr"])
        assert math.isclose(total, payload["woe"], rel_tol=0, abs_tol=1e-9)

    def test_integration_mc_is_seed_deterministic(self, case_path, capsys):
        argv = ["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3",
                "--prior-var", "1e-8", "--seed", "5", "--json"]
        a = run_json(capsys, argv)
        b = run_json(capsys, argv)
        assert a == b
        assert a["method"] == "integrate-mc"
        assert a["mc_std_error"] > 0.0 and a["seed"] == 5
        # a different seed gives a different draw set
        c = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                              "--prior-mean", "1e-3", "--prior-var", "1e-8",
                              "--seed", "7", "--json"])
        assert c["woe"] != a["woe"]

    def test_long_seed_is_read_exactly(self, case_path, capsys):
        """A seed past 2**53 is used and reported with every digit: seeds one
        apart draw apart, and 400 digits are a seed, not an infinity."""
        argv = ["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3",
                "--prior-var", "1e-6", "--json", "--seed"]
        a = run_json(capsys, argv + ["12345678901234567890123"])
        b = run_json(capsys, argv + ["12345678901234567890124"])
        assert (a["seed"], b["seed"]) == (12345678901234567890123, 12345678901234567890124)
        assert a["woe"] != b["woe"]
        assert run_json(capsys, argv + ["7" * 400])["seed"] == int("7" * 400)

    def test_integration_quad_matches_library(self, case_path, capsys):
        from snpwoe.scaled_beta import ScaledBeta
        from snpwoe.unknown_w import woe_integrate_quad

        payload = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                                    "--prior-mean", "1e-3", "--prior-var",
                                    "1e-8", "--integration", "quad", "--json"])
        case = parse_case_file(case_path)
        prior = ScaledBeta.from_moments(1e-3, 1e-8)
        result = woe_integrate_quad(case, prior, 1e-4)
        assert payload["woe"] == result.woe
        assert payload["method"] == "integrate-quad"
        assert payload["quad_tol"] == 1e-8
        assert payload["quad_abserr"] == result.quad_abserr
        assert payload["quad_fallbacks"] == result.quad_fallbacks == 0
        assert math.isclose(payload["prior_mean"], 1e-3, rel_tol=1e-12)

    def test_prior_by_shapes(self, case_path, capsys):
        payload = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                                    "--prior-shape1", "1.0", "--prior-shape2",
                                    "1.0", "--integration", "quad", "--json"])
        assert payload["prior_shape1"] == 1.0
        assert math.isclose(payload["prior_mean"], 0.25, rel_tol=1e-12)

    def test_usage_errors(self, case_path, capsys):
        bad = [
            ["woe", str(case_path), "--w-r", "1e-4"],  # no method
            ["woe", str(case_path), "--w-r", "1e-4", "--w-t", "1e-3",
             "--plugin"],  # two methods
            ["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3"],
            ["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3",
             "--prior-var", "1e-8", "--prior-shape1", "1", "--prior-shape2",
             "2"],
            ["woe", str(case_path), "--w-r", "0.5", "--w-t", "1e-3"],
            ["woe", str(case_path), "--w-r", "1e-4", "--w-t", "-0.1"],
            ["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3",
             "--prior-var", "1e-8", "--mc-samples", "1"],
            ["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3",
             "--prior-var", "1e-8", "--integration", "quad", "--quad-tol",
             "0"],
            ["woe", str(case_path), "--w-r", "1e-4", "--profile",
             "--profile-upper", "0.7"],
            ["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "0.3",
             "--prior-var", "1.0"],  # moments outside the representable set
            ["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3",
             "--prior-var", "1e-8", "--per-marker"],
        ]
        for argv in bad:
            assert main(argv) == EXIT_USAGE, argv
            assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, case_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["woe", str(case_path)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_data_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["woe", str(missing), "--w-r", "1e-4",
                     "--w-t", "1e-3"]) == EXIT_DATA
        bad = tmp_path / "bad.csv"
        bad.write_text("marker_id,x_t,x_r,q\nrs1,9,0,0.75\n")
        assert main(["woe", str(bad), "--w-r", "1e-4",
                     "--w-t", "1e-3"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err

    def test_hard_exclusion_json_is_strict(self, tmp_path, capsys):
        """RFC 8259 has no literal for -inf: it is written as the text ``-inf``,
        which ``float()`` reads back; a finite value stays a number."""
        p = tmp_path / "case.csv"
        p.write_text("marker_id,x_t,x_r,q\nrs1,0,2,0.5\nrs2,1,1,0.5\n")
        assert main(["woe", str(p), "--w-r", "0", "--w-t", "0", "--per-marker", "--json"]) == EXIT_OK

        def no_constant(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert float(payload["woe"]) == -math.inf
        assert [row["log10_lr"] for row in payload["per_marker_log10_lr"]] == [
            "-inf", math.log10(2.0)]

    def test_degenerate_case_exits_4(self, tmp_path, capsys):
        p = tmp_path / "case.csv"
        p.write_text("marker_id,x_t,x_r,p0,p1,p2\nrs1,0,2,1.0,0.0,0.0\n")
        assert main(["woe", str(p), "--w-r", "0.0",
                     "--w-t", "0.0"]) == EXIT_NUMERIC
        assert "rs1" in capsys.readouterr().err


COMMON_KEYS = {"markers", "method", "w_r", "woe"}
PRIOR_KEYS = COMMON_KEYS | {"prior_mean", "prior_shape1", "prior_shape2", "prior_variance"}


@pytest.mark.parametrize("flags, keys", [
    (["--w-t", "1e-3"], COMMON_KEYS | {"w_t"}),
    (["--plugin"], COMMON_KEYS),
    (["--profile"], COMMON_KEYS | {"w_hat_h1", "w_hat_h2"}),
    (["--prior-mean", "1e-3", "--prior-var", "1e-8"],
     PRIOR_KEYS | {"mc_samples", "seed", "mc_std_error", "mc_draws_at_floor"}),
    (["--prior-mean", "1e-3", "--prior-var", "1e-8", "--integration", "quad"],
     PRIOR_KEYS | {"quad_tol", "quad_abserr", "quad_fallbacks"}),
])
def test_woe_json_keys(case_path, capsys, flags, keys):
    """Each method's payload: the inputs it used and its result's fields."""
    assert set(run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4", *flags, "--json"])) == keys


@pytest.mark.parametrize("flags, flag", [
    (["--w-t", "0.7"], "--w-t"),
    (["--profile", "--profile-lower", "0.6"], "--profile-lower"),
    (["--prior-mean", "1e-3", "--prior-var", "1e-6", "--mc-samples", "1.5"], "--mc-samples"),
    (["--prior-mean", "1e-3", "--prior-var", "1e-6", "--seed", "-1"], "--seed"),
    (["--prior-mean", "1e-3", "--prior-var", "1e-6", "--integration", "quad",
      "--quad-tol", "0"], "--quad-tol"),
    (["--prior-mean", "1e-3", "--prior-var", "1e-6", "--per-marker"], "--per-marker"),
])
def test_woe_flags_checked_before_case_file(tmp_path, capsys, flags, flag):
    """A bad flag is a usage error even when the case file does not exist."""
    assert main(["woe", str(tmp_path / "missing.csv"), "--w-r", "1e-4", *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err.splitlines()[0]


@pytest.mark.parametrize("integration", ["mc", "quad"])
def test_per_marker_with_prior_integrates_nothing(case_path, capsys, monkeypatch, integration):
    def never(*args, **kwargs):
        raise AssertionError("integrated before rejecting --per-marker")

    monkeypatch.setattr("snpwoe.cli.woe_integrate_mc", never)
    monkeypatch.setattr("snpwoe.cli.woe_integrate_quad", never)
    assert main(["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3",
                 "--prior-var", "1e-6", "--integration", integration,
                 "--per-marker"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: --per-marker is not defined")


def test_one_parser_carries_nothing_between_calls(case_path, pair_path, capsys):
    """In-process calls share one parser. Run in one process, each call
    exits and prints as it does on a freshly built parser, so no parsed
    value carries over from the call before it."""
    calls = [
        ["woe", str(case_path), "--w-r", "1e-4", "--profile", "--per-marker", "--json"],
        ["woe", str(case_path), "--w-r", "1e-4", "--integration", "simpson"],
        ["estimate", str(pair_path), "--json"],
        ["woe", str(case_path), "--w-r", "1e-4", "--profile", "--json"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert build_parser() is build_parser()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert "per_marker_log10_lr" in shared[0][1] and "per_marker_log10_lr" not in shared[3][1]


class TestMalformedInput:
    """Unreadable input is a data error (exit 3) whose message starts with
    the file's path; a bad flag value is a usage error (exit 2)."""

    def test_non_utf8_case_file(self, tmp_path, capsys):
        p = tmp_path / "case.csv"
        p.write_bytes(CASE_TEXT.encode() + b"rs6,0,0,0.5\xff\n")
        assert main(["woe", str(p), "--w-r", "1e-4", "--w-t", "1e-3"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8")

    def test_stray_quote_in_case_file(self, tmp_path, capsys):
        # The quote on line 2 never closes: its field grows past the CSV
        # reader's field limit, a data error and not a traceback.
        p = tmp_path / "case.csv"
        p.write_text('marker_id,x_t,x_r,q\n"' + "".join(f"rs{i},0,0,0.5\n" for i in range(20000)))
        assert main(["woe", str(p), "--w-r", "1e-4", "--w-t", "1e-3"]) == EXIT_DATA
        assert "field larger than field limit" in capsys.readouterr().err

    def test_non_utf8_config(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        p.write_bytes(CONFIG_TEXT.encode() + b"# \xe9t\xe9\n")
        records = tmp_path / "records.csv"
        assert main(["simulate", str(p), "--records", str(records)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8")

    def test_non_ascii_digit_count(self, tmp_path, capsys):
        p = tmp_path / "pairs.csv"
        p.write_text("q,0.9\n,0,1,2\n0,10,0,0\n1,0,\u00b2,0\n2,0,0,10\n", encoding="utf-8")
        assert main(["estimate", str(p)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {p}:4: count for pair (1, 1)")

    def test_negative_master_seed_in_config(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        p.write_text(CONFIG_TEXT.replace("master_seed: 3", "master_seed: -1"))
        records = tmp_path / "records.csv"
        assert main(["simulate", str(p), "--records", str(records), "--quiet"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {p}: invalid config: master_seed")

    def test_master_seed_of_4400_digits_exits_3(self, tmp_path, capsys):
        """An integer YAML cannot convert, past Python's 4300-digit limit, is a
        data error naming the file, not an interpreter setting."""
        p = tmp_path / "study.yaml"
        p.write_text(CONFIG_TEXT.replace("master_seed: 3", "master_seed: " + "7" * 4400))
        records = tmp_path / "records.csv"
        assert main(["simulate", str(p), "--records", str(records), "--quiet"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == (f"error: {p}: invalid YAML: an integer or date that cannot be "
                       f"converted\n")
        assert not records.exists()

    def test_repeated_grid_value_in_config_exits_3(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        p.write_text(CONFIG_TEXT.replace("q_values: [0.75]", "q_values: [0.75, 0.75]"))
        records = tmp_path / "records.csv"
        assert main(["simulate", str(p), "--records", str(records), "--quiet"]) == EXIT_DATA
        assert capsys.readouterr().err == (f"error: {p}: invalid config: q_values must be "
                                           f"distinct\n")
        assert not records.exists()

    def test_negative_seed(self, case_path, capsys):
        assert main(["woe", str(case_path), "--w-r", "1e-4", "--prior-mean", "1e-3",
                     "--prior-var", "1e-8", "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: --seed must be nonnegative")


class TestEstimateCommand:
    def test_json_output(self, pair_path, capsys):
        payload = run_json(capsys, ["estimate", str(pair_path), "--json"])
        assert payload["pairs"] == 10100
        assert 0.0 < payload["w_hat"] < 0.5
        assert payload["at_boundary"] is False
        assert payload["log_likelihood"] < 0.0

    def test_human_output_boundary(self, tmp_path, capsys):
        p = tmp_path / "pairs.csv"
        p.write_text("q,0.9\n,0,1,2\n0,10,0,0\n1,0,10,0\n2,0,0,10\n")
        assert main(["estimate", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "w_hat: 0\n" in out
        assert "at boundary: yes" in out

    def test_malformed_table_exits_3(self, tmp_path, capsys):
        p = tmp_path / "pairs.csv"
        p.write_text("q,0.9\n,0,1,2\n0,one,0,0\n1,0,1,0\n2,0,0,1\n")
        assert main(["estimate", str(p)]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("count, a", [
        ("99999999999999999999", 0), ("9223372036854775807", 1), ("9007199254740993", 2)])
    def test_count_over_2_to_the_53_exits_3(self, tmp_path, capsys, count, a):
        """A count on the diagonal over the table's limit, among others that
        would wrap an int64 total: reported at its own line."""
        rows = [["810", "9", "0"], ["10", "170", "2"], ["0", "3", "16"]]
        rows[a][a] = count
        p = tmp_path / "pairs.csv"
        p.write_text("q,0.9\n,0,1,2\n" + "".join(f"{i},{','.join(row)}\n"
                                                 for i, row in enumerate(rows)))
        assert main(["estimate", str(p), "--json"]) == EXIT_DATA
        assert capsys.readouterr().err == (f"error: {p}:{3 + a}: pair count [{a}, {a}] must be "
                                           f"at most 2**53, got {count}\n")

    def test_count_of_5000_digits_exits_3_at_its_line(self, tmp_path, capsys):
        """A count too long for Python to convert is over the table's limit,
        reported at its line like any other."""
        p = tmp_path / "pairs.csv"
        p.write_text(f"q,0.9\n,0,1,2\n0,810,9,0\n1,10,{'9' * 5000},2\n2,0,3,16\n")
        assert main(["estimate", str(p), "--json"]) == EXIT_DATA
        assert capsys.readouterr().err == (f"error: {p}:4: pair count [1, 1] must be at most "
                                           f"2**53, got a count of more than 20 digits\n")

    def test_leading_zeros_do_not_count(self, tmp_path, capsys):
        """``1`` after 5,000 zeros is the count 1."""
        padded, plain = tmp_path / "padded.csv", tmp_path / "plain.csv"
        padded.write_text(f"q,0.9\n,0,1,2\n0,810,9,0\n1,10,170,{'0' * 5000}1\n2,0,3,16\n")
        plain.write_text("q,0.9\n,0,1,2\n0,810,9,0\n1,10,170,1\n2,0,3,16\n")
        assert (run_json(capsys, ["estimate", str(padded), "--json"])
                == run_json(capsys, ["estimate", str(plain), "--json"]))

    def test_largest_counts_are_read_exactly(self, tmp_path, capsys):
        p = tmp_path / "pairs.csv"
        p.write_text(f"q,0.9\n,0,1,2\n0,{2**53},0,0\n1,0,{2**53},0\n2,0,0,{2**53}\n")
        assert run_json(capsys, ["estimate", str(p), "--json"])["pairs"] == 3 * 2**53


class TestSimulateAndEce:
    def run_simulate(self, tmp_path, capsys, extra=()):
        cfg = tmp_path / "study.yaml"
        cfg.write_text(CONFIG_TEXT)
        records = tmp_path / "records.csv"
        summary = tmp_path / "summary.csv"
        code = main(["simulate", str(cfg), "--records", str(records),
                     "--summary", str(summary), *extra])
        return code, records, summary

    def test_outputs_and_determinism(self, tmp_path, capsys):
        code, records_path, summary_path = self.run_simulate(
            tmp_path, capsys, ("--quiet",))
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        records = read_records_csv(records_path)
        # 1 cell x 3 replicates x 2 hypotheses x 2 methods
        assert len(records) == 12
        assert read_summary_csv(summary_path) == summarize_records(records)
        first_bytes = records_path.read_bytes()
        code, records_path, _ = self.run_simulate(tmp_path, capsys, ("--quiet",))
        assert code == EXIT_OK
        assert records_path.read_bytes() == first_bytes

    def test_quoted_master_seed_is_read_exactly(self, tmp_path, capsys):
        """A quoted master_seed past 2**53 is the same seed as the YAML integer."""
        seed = "12345678901234567890123"
        outputs = []
        for text in (seed, f'"{seed}"'):
            cfg = tmp_path / "study.yaml"
            cfg.write_text(CONFIG_TEXT.replace("master_seed: 3", f"master_seed: {text}"))
            records = tmp_path / "records.csv"
            assert main(["simulate", str(cfg), "--records", str(records), "--quiet"]) == EXIT_OK
            outputs.append(records.read_bytes())
        assert outputs[0] == outputs[1]

    def test_progress_output(self, tmp_path, capsys):
        code, _, _ = self.run_simulate(tmp_path, capsys)
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "simulated 3/3 case pairs" in err
        assert "wrote 12 records" in err

    def test_stale_output_is_replaced(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("stale junk\n")
        cfg = tmp_path / "study.yaml"
        cfg.write_text(CONFIG_TEXT)
        assert main(["simulate", str(cfg), "--records", str(records),
                     "--quiet"]) == EXIT_OK
        assert "stale junk" not in records.read_text()
        capsys.readouterr()

    def test_unwritable_output_exits_3_before_running(self, tmp_path, capsys):
        cfg = tmp_path / "study.yaml"
        cfg.write_text(CONFIG_TEXT)
        out = tmp_path / "no_such_dir" / "records.csv"
        assert main(["simulate", str(cfg), "--records", str(out),
                     "--quiet"]) == EXIT_DATA
        capsys.readouterr()

    def test_same_records_and_summary_path_exits_2_before_running(self, tmp_path, capsys):
        cfg = tmp_path / "study.yaml"
        cfg.write_text(CONFIG_TEXT)
        (tmp_path / "sub").mkdir()
        out = tmp_path / "out.csv"
        out.write_text("earlier results\n")
        for summary in (out, tmp_path / "sub" / ".." / "out.csv"):
            assert main(["simulate", str(cfg), "--records", str(out),
                         "--summary", str(summary), "--quiet"]) == EXIT_USAGE
            assert "same file" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "study.yaml", "sub"]

    def test_failing_method_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "study.yaml"
        cfg.write_text(CONFIG_TEXT.replace(
            "methods: [true-w, profile]",
            "methods: [integrate-quad]\nquad_tol: 1e-300\n"
            "priors:\n  - {id: tight, mean: 1e-4, variance: 5e-9}"))
        records = tmp_path / "records.csv"
        assert main(["simulate", str(cfg), "--records", str(records),
                     "--quiet"]) == EXIT_NUMERIC
        capsys.readouterr()

    def test_failed_run_keeps_previous_outputs(self, tmp_path, capsys):
        code, records, summary = self.run_simulate(tmp_path, capsys, ("--quiet",))
        assert code == EXIT_OK
        before = records.read_bytes(), summary.read_bytes()
        cfg = tmp_path / "failing.yaml"
        cfg.write_text(CONFIG_TEXT.replace(
            "methods: [true-w, profile]",
            "methods: [integrate-quad]\nquad_tol: 1e-300\n"
            "priors:\n  - {id: tight, mean: 1e-4, variance: 5e-9}"))
        assert main(["simulate", str(cfg), "--records", str(records),
                     "--summary", str(summary), "--quiet"]) == EXIT_NUMERIC
        assert (records.read_bytes(), summary.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "failing.yaml", "records.csv", "study.yaml", "summary.csv"]
        capsys.readouterr()

    def test_ece_pipeline(self, tmp_path, capsys):
        code, records_path, _ = self.run_simulate(tmp_path, capsys, ("--quiet",))
        assert code == EXIT_OK
        out = tmp_path / "ece.csv"
        assert main(["ece", str(records_path), "--out", str(out)]) == EXIT_OK
        text = out.read_text().splitlines()
        records = read_records_csv(records_path)
        rows = compute_ece_by_cell(records)
        assert len(text) == 1 + len(rows)
        assert text[0] == ("method,prior_id,m,q,w_t_true,n_h1,n_h2,ece,"
                           "n_wrong,fraction_wrong")
        for line, row in zip(text[1:], rows):
            *_, n_wrong, fraction_wrong = line.split(",")
            cell = [rec for rec in records if rec.method == row.method]
            wrong = sum(rec.woe <= 0.0 if rec.hypothesis == "H1" else rec.woe >= 0.0
                        for rec in cell)
            assert int(n_wrong) == row.n_wrong == wrong
            assert float(fraction_wrong) == wrong / (row.n_h1 + row.n_h2)
        capsys.readouterr()

    def test_ece_missing_hypothesis_exits_3(self, tmp_path, capsys):
        from snpwoe.fileio import write_records_csv
        from snpwoe.study import StudyRecord

        rec = StudyRecord(hypothesis="H1", method="true-w", prior_id=None,
                          m=3, q=0.75, w_t_true=1e-3, replicate=0, woe=2.0)
        records = tmp_path / "records.csv"
        write_records_csv([rec], records)
        out = tmp_path / "ece.csv"
        assert main(["ece", str(records), "--out", str(out)]) == EXIT_DATA
        assert "no H2" in capsys.readouterr().err

    def test_ece_nan_woe_names_its_line(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("hypothesis,method,prior_id,m,q,w_t_true,replicate,woe,w_hat_h1,w_hat_h2\n"
                           "H1,true-w,,6,0.75,0.001,0,2.0,,\n"
                           "H2,true-w,,6,0.75,0.001,0,nan,,\n")
        out = tmp_path / "ece.csv"
        assert main(["ece", str(records), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {records}:3: WoE must not be NaN\n"
        assert not out.exists()

    def test_ece_unknown_hypothesis_exits_3(self, tmp_path, capsys):
        # a lower-case "h1" row would otherwise be counted as H2
        records = tmp_path / "records.csv"
        records.write_text("hypothesis,method,prior_id,m,q,w_t_true,replicate,woe,w_hat_h1,w_hat_h2\n"
                           "H1,true-w,,6,0.75,0.001,0,2.0,,\n"
                           "h1,true-w,,6,0.75,0.001,1,3.0,,\n"
                           "H2,true-w,,6,0.75,0.001,0,-4.0,,\n")
        out = tmp_path / "ece.csv"
        assert main(["ece", str(records), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {records}:3: hypothesis must be one of")
        assert not out.exists()


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        case = tmp_path / "case.csv"
        case.write_text(CASE_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "snpwoe.cli", "woe", str(case),
             "--w-r", "1e-4", "--w-t", "1e-3", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["method"] == "known"

    @staticmethod
    def run_fresh(script, *args):
        """Run ``script`` in a fresh interpreter that imports this checkout."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, env=env, timeout=120)

    def test_import_skips_scipy_integrate_and_optimize(self):
        """Importing the package or the CLI loads no scipy module at all and no
        PyYAML: scipy.special is imported by the ScaledBeta methods that use
        it, and yaml by load_study_config."""
        script = ("import json, sys\n"
                  "def loaded():\n"
                  "    return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml'))\n"
                  "import snpwoe\n"
                  "after_package = loaded()\n"
                  "import snpwoe.cli\n"
                  "print(json.dumps([after_package, loaded()]))")
        proc = self.run_fresh(script)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [[], []]

    @pytest.mark.parametrize("flags", [
        ["woe", "{case}", "--w-r", "1e-4", "--w-t", "1e-3"],
        ["woe", "{case}", "--w-r", "1e-4", "--plugin"],
        ["woe", "{case}", "--w-r", "1e-4", "--profile"],
        ["woe", "{case}", "--w-r", "1e-4", "--prior-mean", "1e-3", "--prior-var", "1e-6",
         "--integration", "mc", "--mc-samples", "200"],
        ["estimate", "{pairs}"],
        ["ece", "{records}", "--out", "{out}"],
    ], ids=["known", "plugin", "profile", "mc", "estimate", "ece"])
    def test_commands_run_without_scipy_or_yaml(self, tmp_path, flags):
        """Every command but quadrature and simulate runs in an interpreter
        where importing scipy or yaml fails."""
        paths = {"case": tmp_path / "case.csv", "pairs": tmp_path / "pairs.csv",
                 "records": tmp_path / "records.csv", "out": tmp_path / "ece.csv"}
        paths["case"].write_text(CASE_TEXT)
        paths["pairs"].write_text(PAIR_TEXT)
        paths["records"].write_text(
            "hypothesis,method,prior_id,m,q,w_t_true,replicate,woe,w_hat_h1,w_hat_h2\n"
            "H1,true-w,,6,0.75,0.001,0,2.0,,\n"
            "H2,true-w,,6,0.75,0.001,0,-4.0,,\n")
        script = ("import sys\n"
                  "sys.modules['scipy'] = sys.modules['yaml'] = None\n"
                  "from snpwoe.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))")
        proc = self.run_fresh(script, *(arg.format(**paths) for arg in flags))
        assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
