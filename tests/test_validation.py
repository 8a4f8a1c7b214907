"""One rule per input value.

Each numeric rule (a real number, an integer with a minimum, a positive
tolerance, an error probability in [0, 0.5), the profile interval) has one
definition, and every front end calls it with its own name for the value:
the library raises ``ValueError``, ``StudyConfig`` raises ``ValueError``,
the YAML loader raises ``ParseError`` naming the file and the key (the CLI
then exits 3), and a bad ``snpwoe woe`` flag exits 2. Arrays of error
probabilities and the counts of a pair-count table follow the same rules.
"""

import math
import re
import warnings

import numpy as np
import pytest

from snpwoe import ScaledBeta, StudyConfig, hwe_priors
from snpwoe.cli import EXIT_DATA, EXIT_USAGE, main
from snpwoe.estimation import PairCountTable
from snpwoe.evidence import CaseData, joint_table_h1, joint_table_h2, log10_lik_h1, log10_lik_h2
from snpwoe.fileio import ParseError, load_study_config
from snpwoe.genotypes import channel_matrix, hwe_prior_array, validate_integer
from snpwoe.study import simulate_case, simulate_overdispersed_table
from snpwoe.unknown_w import woe_integrate_mc, woe_integrate_quad, woe_plugin, woe_profile

INF = math.inf
NAN = math.nan

CASE = CaseData.from_arrays([0, 1], [0, 2], hwe_prior_array([0.75, 0.6]))
CASE_TEXT = "marker_id,x_t,x_r,q\nrs1,0,0,0.75\nrs2,1,2,0.6\n"
PRIOR = ScaledBeta.from_moments(1e-3, 1e-6)
PRIOR_FLAGS = ["--prior-mean", "1e-3", "--prior-var", "1e-6"]
BASE_CONFIG = {"q_values": "[0.75]", "w_t_values": "[1e-3]", "w_r": "1e-4",
               "marker_counts": "[6]", "replicates": "2", "methods": "[true-w]"}

# field: (library call on the value, or None; the value's name there;
#         snpwoe woe flag; flags that select the method using it)
FIELDS = {
    "w_r": (lambda v: woe_plugin(CASE, v), "w_r", "--w-r", ["--plugin"]),
    "mc_samples": (lambda v: woe_integrate_mc(CASE, PRIOR, 1e-4, np.random.default_rng(0), v),
                   "n_samples", "--mc-samples", PRIOR_FLAGS),
    "master_seed": (None, None, "--seed", PRIOR_FLAGS),
    "quad_tol": (lambda v: woe_integrate_quad(CASE, PRIOR, 1e-4, v), "tol", "--quad-tol",
                 PRIOR_FLAGS + ["--integration", "quad"]),
    "profile_lower": (lambda v: woe_profile(CASE, 1e-4, v, 0.5), "lower", "--profile-lower",
                      ["--profile"]),
    "profile_upper": (lambda v: woe_profile(CASE, 1e-4, 0.0, v), "upper", "--profile-upper",
                      ["--profile"]),
}

NUMBER = "{name} must be a number, got "
ERROR_PROB = r"{name} must lie in \[0, 0.5\), got "
INTERVAL = r"need 0 <= {lower} < {upper} <= 0.5, got "
COLLAPSES = r"need {lower} < 0\.5 - 1e-12, got \[0\.4999999999999, 0\.5\]: the search interval collapses"

# (field, bad value, the rule's message with {name}, {lower}, {upper} to fill)
TABLE = [
    ("w_r", True, NUMBER),
    ("w_r", 0.5, ERROR_PROB + "0.5"),
    ("w_r", INF, ERROR_PROB + "inf"),
    ("w_r", -INF, ERROR_PROB + "-inf"),
    ("w_r", NAN, ERROR_PROB + "nan"),
    ("mc_samples", True, NUMBER),
    ("mc_samples", 2.5, "{name} must be an integer, got 2.5"),
    ("mc_samples", INF, "{name} must be an integer, got inf"),
    ("mc_samples", 1, "{name} must be at least 2, got 1"),
    ("master_seed", False, NUMBER),
    ("master_seed", 1.5, "{name} must be an integer, got 1.5"),
    ("master_seed", -1, "{name} must be nonnegative, got -1"),
    ("quad_tol", True, NUMBER),
    ("quad_tol", 0.0, "{name} must be positive, got 0.0"),
    ("quad_tol", -INF, "{name} must be positive, got -inf"),
    ("quad_tol", NAN, "{name} must be positive, got nan"),
    ("profile_lower", True, NUMBER),
    ("profile_lower", 0.5, INTERVAL + r"\[0.5, 0.5\]"),
    ("profile_lower", -INF, INTERVAL + r"\[-inf, 0.5\]"),
    ("profile_lower", 0.4999999999999, COLLAPSES),
    ("profile_upper", 0.7, INTERVAL + r"\[0.0, 0.7\]"),
    ("profile_upper", INF, INTERVAL + r"\[0.0, inf\]"),
    ("profile_upper", NAN, INTERVAL + r"\[0.0, nan\]"),
]


def rows(library_only=False):
    return [pytest.param(*row, id=f"{row[0]}={row[1]!r}") for row in TABLE
            if not library_only or FIELDS[row[0]][0] is not None]


def as_text(value, yaml: bool) -> str:
    """``value`` as YAML or as a command-line word."""
    if isinstance(value, bool):
        return str(value).lower()
    if math.isinf(value) or math.isnan(value):
        word = repr(value)
        return word.replace("inf", ".inf").replace("nan", ".nan") if yaml else word
    return repr(value)


def message(template: str, field: str, names: dict) -> str:
    return template.format(name=re.escape(names[field]),
                           lower=re.escape(names["profile_lower"]),
                           upper=re.escape(names["profile_upper"]))


def write_config(tmp_path, field, value):
    p = tmp_path / "study.yaml"
    entries = {**BASE_CONFIG, field: as_text(value, yaml=True)}
    p.write_text("".join(f"{key}: {text}\n" for key, text in entries.items()))
    return p


@pytest.mark.parametrize("field, value, template", rows(library_only=True))
def test_library(field, value, template):
    """Every row but the seed's: library callers pass a generator, not a seed."""
    call = FIELDS[field][0]
    names = {key: spec[1] for key, spec in FIELDS.items()}
    with pytest.raises(ValueError, match="^" + message(template, field, names)):
        call(value)


@pytest.mark.parametrize("field, value, template", rows())
def test_study_config(field, value, template):
    kwargs = dict(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
                  marker_counts=(6,), replicates=2, methods=("true-w",))
    names = {key: key for key in FIELDS}
    with pytest.raises(ValueError, match="^" + message(template, field, names)):
        StudyConfig(**{**kwargs, field: value})


@pytest.mark.parametrize("field, value, template", rows())
def test_yaml_config(tmp_path, capsys, field, value, template):
    p = write_config(tmp_path, field, value)
    names = {key: key for key in FIELDS}
    want = f"{re.escape(str(p))}: invalid config: {message(template, field, names)}"
    with pytest.raises(ParseError, match="^" + want):
        load_study_config(p)
    assert main(["simulate", str(p), "--records", str(tmp_path / "r.csv"),
                 "--quiet"]) == EXIT_DATA
    assert re.match("error: " + want, capsys.readouterr().err)
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("field, value, template", rows())
def test_cli_flag(tmp_path, capsys, field, value, template):
    _, _, flag, method_flags = FIELDS[field]
    case = tmp_path / "case.csv"
    case.write_text(CASE_TEXT)
    argv = ["woe", str(case), "--w-r", "1e-4", *method_flags,
            f"{flag}={as_text(value, yaml=False)}"]
    names = {key: spec[2] for key, spec in FIELDS.items()}
    assert main(argv) == EXIT_USAGE
    assert re.match("usage error: " + message(template, field, names), capsys.readouterr().err)


@pytest.mark.parametrize("entry, flags, want", [
    ("{id: p, shape1: true, shape2: 2}", ["--prior-shape1", "true", "--prior-shape2", "2"],
     "shape alpha must be a number"),
    ("{id: p, shape1: 1, shape2: .inf}", ["--prior-shape1", "1", "--prior-shape2", "inf"],
     "shape beta must be a finite positive number, got inf"),
    ("{id: p, mean: true, variance: 1e-6}", ["--prior-mean", "true", "--prior-var", "1e-6"],
     "mean must be a number"),
    ("{id: p, mean: 1e-3, variance: -.inf}", ["--prior-mean", "1e-3", "--prior-var=-inf"],
     "variance must be positive, got -inf"),
])
def test_prior_values(tmp_path, capsys, entry, flags, want):
    """A prior's numbers are checked by ScaledBeta for the YAML loader and
    the CLI alike."""
    p = tmp_path / "study.yaml"
    p.write_text("".join(f"{key}: {text}\n" for key, text in BASE_CONFIG.items())
                 + f"priors:\n  - {entry}\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: invalid config: priors\\[0\\]: {want}"):
        load_study_config(p)
    case = tmp_path / "case.csv"
    case.write_text(CASE_TEXT)
    assert main(["woe", str(case), "--w-r", "1e-4", *flags]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: {want}")


RNG = np.random.default_rng(0)
PRIORS75 = hwe_priors(0.75)
COUNTS_INF = np.eye(3)
COUNTS_INF[0, 1] = INF


@pytest.mark.parametrize("call, want", [
    (lambda: simulate_case("H1", 5.9, PRIORS75, 1e-3, 1e-4, RNG), "m must be an integer, got 5.9"),
    (lambda: simulate_case("H1", True, PRIORS75, 1e-3, 1e-4, RNG), "m must be a number"),
    (lambda: woe_integrate_mc(CASE, PRIOR, 1e-4, RNG, 2.9), "n_samples must be an integer"),
    (lambda: PRIOR.sample(RNG, 2.5), "n must be an integer, got 2.5"),
    (lambda: ScaledBeta(True, 2), "shape alpha must be a number"),
    (lambda: ScaledBeta.from_moments(1e-3, True), "variance must be a number"),
    (lambda: woe_integrate_quad(CASE, PRIOR, 1e-4, tol=True), "tol must be a number"),
    (lambda: simulate_overdispersed_table(10.7, PRIOR, PRIORS75, RNG),
     "n_sites must be an integer, got 10.7"),
    (lambda: hwe_priors(True), "q must be a number"),
    (lambda: log10_lik_h1(CASE, False, 1e-4), "w_t must be a number"),
    (lambda: log10_lik_h2(CASE, np.array([True, False]), 1e-4), "w_t must be a number"),
    (lambda: log10_lik_h1(CASE, [1e-3, 0.7, 0.6], 1e-4), r"w_t must lie in \[0, 0.5\), got 0.7"),
    (lambda: channel_matrix(False), "w must be a number"),
    (lambda: channel_matrix(None), "w must be a number"),
    (lambda: joint_table_h1(PRIORS75, False, 1e-4), "w must be a number"),
    (lambda: joint_table_h2(PRIORS75, 1e-3, [0.1, NAN]), r"w must lie in \[0, 0.5\), got nan"),
    (lambda: PairCountTable(np.eye(3, dtype=bool), PRIORS75),
     r"pair count \[0, 0\] must be a number, got True"),
    (lambda: PairCountTable(COUNTS_INF, PRIORS75), r"pair count \[0, 1\] must be an integer, got inf"),
    (lambda: PairCountTable(np.eye(3) / 2, PRIORS75), r"pair count \[0, 0\] must be an integer, got 0.5"),
    (lambda: PairCountTable(np.eye(3, dtype=int) - 1, PRIORS75),
     r"pair count \[0, 1\] must be nonnegative, got -1"),
    (lambda: StudyConfig(q_values=(True,), w_t_values=(1e-3,), w_r=1e-4, marker_counts=(6,),
                         replicates=2, methods=("true-w",)), r"q_values\[0\] must be a number"),
    (lambda: StudyConfig(q_values=(0.75,), w_t_values=(1e-3,), w_r=False, marker_counts=(6,),
                         replicates=2, methods=("true-w",)), "w_r must be a number"),
    (lambda: StudyConfig(q_values=(0.75,), w_t_values=(1e-3, 0.5), w_r=1e-4, marker_counts=(6,),
                         replicates=2, methods=("true-w",)), r"w_t_values\[1\] must lie in"),
    (lambda: StudyConfig(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4, marker_counts=(6, 5.9),
                         replicates=2, methods=("true-w",)), r"marker_counts\[1\] must be an integer"),
])
def test_library_rejects_what_it_used_to_coerce(call, want):
    """Bools, fractions and infinities are rejected, not cast or truncated,
    in arrays of error probabilities and pair counts too, without a numpy
    cast warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + want):
            call()


def test_integers_too_long_to_print_are_named_by_their_length():
    """An integer past 20 digits fails its rule with its length, not its
    digits, which Python refuses to print past 4300; 20 digits are shown."""
    long = "got an integer of more than 20 digits$"
    for call, want in [
        (lambda: validate_integer(-10**5000, "n", 0), "n must be nonnegative, " + long),
        (lambda: validate_integer(-10**19, "n", 0), "n must be nonnegative, got -1" + "0" * 19 + "$"),
        (lambda: PairCountTable([[-10**5000, 0, 0], [0, 1, 0], [0, 0, 1]], PRIORS75),
         r"pair count \[0, 0\] must be nonnegative, " + long),
        (lambda: StudyConfig(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4, marker_counts=(6,),
                             replicates=-10**5000, methods=("true-w",)),
         "replicates must be at least 1, " + long),
    ]:
        with pytest.raises(ValueError, match="^" + want):
            call()


def test_numeric_strings_are_numbers():
    """What ``float()`` parses is accepted, as YAML's ``1e-4`` string is."""
    cfg = StudyConfig(q_values=("0.75",), w_t_values=("1e-3",), w_r="1e-4",
                      marker_counts=("6", 7.0), replicates="2", methods=("true-w",),
                      quad_tol="1e-7", mc_samples="1e3")
    assert cfg == StudyConfig(q_values=(0.75,), w_t_values=(1e-3,), w_r=1e-4,
                              marker_counts=(6, 7), replicates=2, methods=("true-w",),
                              quad_tol=1e-7, mc_samples=1000)
    assert all(type(v) is int for v in (*cfg.marker_counts, cfg.replicates, cfg.mc_samples))
