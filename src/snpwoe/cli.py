"""Command-line interface.

Subcommands: ``woe`` (evidence for one case file), ``estimate`` (error
probability from duplicate pair counts), ``simulate`` (run a configured
study grid), ``ece`` (per-cell calibration and sign errors of a study's
records).

Exit codes: 0 success, 2 usage error, 3 data or parse error, 4 numeric
failure. Every command is deterministic given its inputs and flags;
commands that sample take an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .estimation import estimate_w_mle
from .evidence import DegenerateCaseError
from .fileio import (
    ParseError,
    load_study_config,
    parse_case_file,
    parse_pair_table_file,
    read_records_csv,
    write_ece_csv,
    write_records_csv,
    write_summary_csv,
)
from .scaled_beta import ScaledBeta
from .study import StudyError, compute_ece_by_cell, run_woe_study, summarize_records
from .unknown_w import (
    QuadratureError,
    woe_integrate_mc,
    woe_integrate_quad,
    woe_known_result,
    woe_plugin,
    woe_profile,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """Invalid flag values or combinations, detected after parsing."""


def _human(x: float) -> str:
    return f"{float(x):.4f}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snpwoe",
        description="Weight of evidence for SNP genotype comparisons "
                    "with sample-specific error probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_woe = sub.add_parser("woe", help="weight of evidence for one case file")
    p_woe.add_argument("case", help="case CSV (marker_id,x_t,x_r,q or ...,p0,p1,p2)")
    p_woe.add_argument("--w-r", type=float, required=True,
                       help="reference-sample error probability in [0, 0.5)")
    p_woe.add_argument("--w-t", type=float, default=None,
                       help="trace error probability, if known")
    p_woe.add_argument("--plugin", action="store_true",
                       help="evaluate at w_t = w_r")
    p_woe.add_argument("--profile", action="store_true",
                       help="maximize each hypothesis over w_t")
    p_woe.add_argument("--prior-mean", type=float, default=None,
                       help="prior mean of w_t (with --prior-var)")
    p_woe.add_argument("--prior-var", type=float, default=None,
                       help="prior variance of w_t (with --prior-mean)")
    p_woe.add_argument("--prior-shape1", type=float, default=None,
                       help="first beta shape of the w_t prior (with --prior-shape2)")
    p_woe.add_argument("--prior-shape2", type=float, default=None,
                       help="second beta shape of the w_t prior (with --prior-shape1)")
    p_woe.add_argument("--integration", choices=("mc", "quad"), default="mc",
                       help="integration scheme when a prior is given")
    p_woe.add_argument("--mc-samples", type=int, default=1000,
                       help="Monte Carlo draws for --integration mc")
    p_woe.add_argument("--seed", type=int, default=0,
                       help="seed for --integration mc")
    p_woe.add_argument("--quad-tol", type=float, default=1e-8,
                       help="absolute tolerance for --integration quad")
    p_woe.add_argument("--profile-lower", type=float, default=0.0,
                       help="lower end of the profile search interval")
    p_woe.add_argument("--profile-upper", type=float, default=0.5,
                       help="upper end of the profile search interval")
    p_woe.add_argument("--per-marker", action="store_true",
                       help="also print per-marker log10 LR contributions "
                            "(fixed-w and profile methods)")
    p_woe.add_argument("--json", action="store_true",
                       help="machine-readable output with full precision")
    p_woe.set_defaults(func=cmd_woe)

    p_est = sub.add_parser("estimate",
                           help="error probability MLE from duplicate pair counts")
    p_est.add_argument("table", help="pair-count table file")
    p_est.add_argument("--json", action="store_true",
                       help="machine-readable output with full precision")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a configured WoE study grid")
    p_sim.add_argument("config", help="study configuration YAML")
    p_sim.add_argument("--records", required=True,
                       help="output CSV for per-replicate records")
    p_sim.add_argument("--summary", default=None,
                       help="optional output CSV for per-cell summaries")
    p_sim.add_argument("--quiet", action="store_true",
                       help="suppress progress output on stderr")
    p_sim.set_defaults(func=cmd_simulate)

    p_ece = sub.add_parser("ece", help="empirical cross-entropy and sign errors "
                                       "per cell from study records")
    p_ece.add_argument("records", help="records CSV produced by simulate")
    p_ece.add_argument("--out", required=True, help="output CSV for ECE and sign-error rows")
    p_ece.set_defaults(func=cmd_ece)
    return parser


def _check_range(name: str, value: float, low: float, high: float,
                 include_low: bool = True) -> float:
    value = float(value)
    ok = (low <= value if include_low else low < value) and value < high
    if value != value or not ok:
        lo_br = "[" if include_low else "("
        raise UsageError(f"{name} must lie in {lo_br}{low}, {high}), got {value!r}")
    return value


def _select_woe_method(args):
    """Resolve the mutually exclusive method flags; returns a tag and, for
    integration, the prior."""
    by_moments = args.prior_mean is not None or args.prior_var is not None
    by_shapes = args.prior_shape1 is not None or args.prior_shape2 is not None
    if by_moments and (args.prior_mean is None or args.prior_var is None):
        raise UsageError("--prior-mean and --prior-var must be given together")
    if by_shapes and (args.prior_shape1 is None or args.prior_shape2 is None):
        raise UsageError("--prior-shape1 and --prior-shape2 must be given together")
    if by_moments and by_shapes:
        raise UsageError("give the prior by moments or by shapes, not both")
    modes = int(args.w_t is not None) + int(args.plugin) + int(args.profile) \
        + int(by_moments or by_shapes)
    if modes != 1:
        raise UsageError(
            "exactly one of --w-t, --plugin, --profile, or a prior "
            "(--prior-mean/--prior-var or --prior-shape1/--prior-shape2) is required"
        )
    if args.w_t is not None:
        return "known", None
    if args.plugin:
        return "plugin", None
    if args.profile:
        return "profile", None
    try:
        if by_moments:
            prior = ScaledBeta.from_moments(args.prior_mean, args.prior_var)
        else:
            prior = ScaledBeta(args.prior_shape1, args.prior_shape2)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return "integrate", prior


def cmd_woe(args) -> int:
    method, prior = _select_woe_method(args)
    w_r = _check_range("--w-r", args.w_r, 0.0, 0.5)
    case = parse_case_file(args.case)

    payload: dict = {"markers": case.m, "w_r": w_r}
    per_marker_at: tuple[float, float] | None = None
    if method == "known":
        w_t = _check_range("--w-t", args.w_t, 0.0, 0.5)
        result = woe_known_result(case, w_t, w_r)
        payload["w_t"] = w_t
        per_marker_at = (w_t, w_t)
    elif method == "plugin":
        result = woe_plugin(case, w_r)
        per_marker_at = (w_r, w_r)
    elif method == "profile":
        lo = _check_range("--profile-lower", args.profile_lower, 0.0, 0.5)
        hi = float(args.profile_upper)
        if not lo < hi <= 0.5:
            raise UsageError(f"--profile-upper must lie in (lower, 0.5], got {hi!r}")
        result = woe_profile(case, w_r, lo, hi)
        payload["w_hat_h1"] = result.w_hat_h1
        payload["w_hat_h2"] = result.w_hat_h2
        per_marker_at = (result.w_hat_h1, result.w_hat_h2)
    else:
        payload["prior_shape1"] = prior.alpha
        payload["prior_shape2"] = prior.beta
        payload["prior_mean"] = prior.mean
        payload["prior_variance"] = prior.variance
        if args.integration == "mc":
            if args.mc_samples < 2:
                raise UsageError(f"--mc-samples must be at least 2, got {args.mc_samples}")
            if args.seed < 0:
                raise UsageError(f"--seed must be nonnegative, got {args.seed}")
            rng = np.random.default_rng(np.random.SeedSequence(args.seed))
            result = woe_integrate_mc(case, prior, w_r, rng, args.mc_samples)
            payload["mc_samples"] = args.mc_samples
            payload["seed"] = args.seed
            payload["mc_std_error"] = result.mc_std_error
        else:
            if not args.quad_tol > 0.0:
                raise UsageError(f"--quad-tol must be positive, got {args.quad_tol!r}")
            result = woe_integrate_quad(case, prior, w_r, args.quad_tol)
            payload["quad_tol"] = args.quad_tol

    payload["method"] = result.method
    payload["woe"] = result.woe

    marker_rows = None
    if args.per_marker:
        if per_marker_at is None:
            raise UsageError("--per-marker is not defined for integration methods")
        # Each marker's log10 probability gap between the H1 and H2
        # evaluation points; for profile these are the two maximizers.
        w1, w2 = per_marker_at
        kernel = case.kernel(w_r)
        contributions = (kernel.log10_h1(w1) - kernel.log10_h2(w2))[kernel.inverse]
        marker_rows = [(case.marker_label(i), float(c))
                       for i, c in enumerate(contributions)]
        payload["per_marker_log10_lr"] = [
            {"marker_id": mid, "log10_lr": c} for mid, c in marker_rows
        ]

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"markers: {case.m}")
    print(f"method: {result.method}")
    if "prior_shape1" in payload:
        print(f"prior: ScaledBeta(shape1={payload['prior_shape1']:.6g}, "
              f"shape2={payload['prior_shape2']:.6g}), "
              f"mean {payload['prior_mean']:.6g}, variance {payload['prior_variance']:.6g}")
    if result.w_hat_h1 is not None:
        print(f"w_hat_h1: {result.w_hat_h1:.6g}")
        print(f"w_hat_h2: {result.w_hat_h2:.6g}")
    if result.mc_std_error is not None:
        print(f"mc std error: {_human(result.mc_std_error)}")
    print(f"WoE (log10 LR): {_human(result.woe)}")
    if marker_rows is not None:
        print("marker_id,log10_lr")
        for mid, c in marker_rows:
            print(f"{mid},{_human(c)}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    table = parse_pair_table_file(args.table)
    est = estimate_w_mle(table)
    if args.json:
        print(json.dumps({
            "pairs": table.total,
            "w_hat": est.w,
            "log_likelihood": est.log_likelihood,
            "at_boundary": est.at_boundary,
        }, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"pairs: {table.total}")
    print(f"w_hat: {est.w:.6g}")
    print(f"log-likelihood: {_human(est.log_likelihood)}")
    print(f"at boundary: {'yes' if est.at_boundary else 'no'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_study_config(args.config)
    outputs = [args.records] + ([args.summary] if args.summary else [])
    # Outputs are written beside themselves and renamed into place at the
    # end, so a failed run keeps earlier results. Creating the temporaries
    # first fails on an unwritable output before burning compute.
    temps: list[str] = []

    def progress(done: int, total: int) -> None:
        if not args.quiet and (done % 50 == 0 or done == total):
            print(f"simulated {done}/{total} case pairs", file=sys.stderr)

    try:
        for out in outputs:
            temps.append(f"{out}.tmp")
            open(temps[-1], "w").close()
        records = run_woe_study(config, progress=progress)
        write_records_csv(records, temps[0])
        if args.summary:
            write_summary_csv(summarize_records(records), temps[1])
        for tmp, out in zip(temps, outputs):
            os.replace(tmp, out)
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
    if not args.quiet:
        print(f"wrote {len(records)} records to {args.records}", file=sys.stderr)
    return EXIT_OK


def cmd_ece(args) -> int:
    records = read_records_csv(args.records)
    try:
        rows = compute_ece_by_cell(records)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    write_ece_csv(rows, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateCaseError, QuadratureError, StudyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
