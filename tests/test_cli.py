"""End-to-end CLI behaviour: outputs, determinism, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from snpwoe.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
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

    def test_integration_quad_matches_library(self, case_path, capsys):
        from snpwoe.scaled_beta import ScaledBeta
        from snpwoe.unknown_w import woe_integrate_quad

        payload = run_json(capsys, ["woe", str(case_path), "--w-r", "1e-4",
                                    "--prior-mean", "1e-3", "--prior-var",
                                    "1e-8", "--integration", "quad", "--json"])
        case = parse_case_file(case_path)
        prior = ScaledBeta.from_moments(1e-3, 1e-8)
        assert payload["woe"] == woe_integrate_quad(case, prior, 1e-4).woe
        assert payload["method"] == "integrate-quad"
        assert payload["quad_tol"] == 1e-8
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

    def test_degenerate_case_exits_4(self, tmp_path, capsys):
        p = tmp_path / "case.csv"
        p.write_text("marker_id,x_t,x_r,p0,p1,p2\nrs1,0,2,1.0,0.0,0.0\n")
        assert main(["woe", str(p), "--w-r", "0.0",
                     "--w-t", "0.0"]) == EXIT_NUMERIC
        assert "rs1" in capsys.readouterr().err


class TestMalformedInput:
    """Unreadable input is a data error (exit 3) whose message starts with
    the file's path; a bad flag value is a usage error (exit 2)."""

    def test_non_utf8_case_file(self, tmp_path, capsys):
        p = tmp_path / "case.csv"
        p.write_bytes(CASE_TEXT.encode() + b"rs6,0,0,0.5\xff\n")
        assert main(["woe", str(p), "--w-r", "1e-4", "--w-t", "1e-3"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8")

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
