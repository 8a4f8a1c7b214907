"""Command-line interface.

Subcommands: ``woe`` (evidence for one case file), ``estimate`` (error
probability from duplicate pair counts), ``simulate`` (run a configured
study grid), ``ece`` (per-cell calibration and sign errors of a study's
records).

Exit codes: 0 success, 2 usage error, 3 data or parse error, 4 numeric
failure. Every command is deterministic given its inputs and flags;
commands that sample take an explicit ``--seed``. In-process calls of
:func:`main` share one argument parser, built on the first call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from functools import cache, partial

import numpy as np

from .estimation import estimate_w_mle
from .evidence import DegenerateCaseError, per_marker_log10_lr
from .fileio import (
    ParseError,
    fmt_float,
    load_study_config,
    parse_case_file,
    parse_pair_table_file,
    read_records_csv,
    write_ece_csv,
    write_records_csv,
    write_summary_csv,
)
from .genotypes import validate_error_prob, validate_integer, validate_positive
from .scaled_beta import ScaledBeta
from .study import StudyError, compute_ece_by_cell, run_woe_study, summarize_records
from .unknown_w import (
    QuadratureError,
    validate_profile_interval,
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


def _strict(value):
    """``value``, or a non-finite float as its text (``-inf``, ``inf``), as
    the CSV writer renders it and ``float()`` reads it back."""
    return fmt_float(value) if isinstance(value, float) and not math.isfinite(value) else value


def _print_json(payload: dict) -> None:
    """``payload``, whose nested values are already strict, as RFC 8259 JSON."""
    print(json.dumps({key: _strict(value) for key, value in payload.items()},
                     indent=2, sort_keys=True, allow_nan=False))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one; each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="snpwoe",
        description="Weight of evidence for SNP genotype comparisons "
                    "with sample-specific error probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_woe = sub.add_parser("woe", help="weight of evidence for one case file")
    p_woe.add_argument("case", help="case CSV (marker_id,x_t,x_r,q or ...,p0,p1,p2)")
    p_woe.add_argument("--w-r", required=True,
                       help="reference-sample error probability in [0, 0.5)")
    p_woe.add_argument("--w-t", help="trace error probability, if known")
    p_woe.add_argument("--plugin", action="store_true",
                       help="evaluate at w_t = w_r")
    p_woe.add_argument("--profile", action="store_true",
                       help="maximize each hypothesis over w_t")
    p_woe.add_argument("--prior-mean", help="prior mean of w_t (with --prior-var)")
    p_woe.add_argument("--prior-var", help="prior variance of w_t (with --prior-mean)")
    p_woe.add_argument("--prior-shape1",
                       help="first beta shape of the w_t prior (with --prior-shape2)")
    p_woe.add_argument("--prior-shape2",
                       help="second beta shape of the w_t prior (with --prior-shape1)")
    p_woe.add_argument("--integration", choices=("mc", "quad"), default="mc",
                       help="integration scheme when a prior is given")
    p_woe.add_argument("--mc-samples", default=1000,
                       help="Monte Carlo draws for --integration mc")
    p_woe.add_argument("--seed", default=0,
                       help="seed for --integration mc")
    p_woe.add_argument("--quad-tol", default=1e-8,
                       help="absolute tolerance for --integration quad")
    p_woe.add_argument("--profile-lower", default=0.0,
                       help="lower end of the profile search interval")
    p_woe.add_argument("--profile-upper", default=0.5,
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


def _flag(check, *args):
    """``check(*args)`` on a flag value; a ``ValueError`` is a usage error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _woe_call(args, payload: dict):
    """The library call the method flags select, bound to its checked flag
    values, which also go into ``payload``. Every flag of the selected
    method is checked, in a fixed order, before the case file is read."""
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
    if by_moments:
        prior = _flag(ScaledBeta.from_moments, args.prior_mean, args.prior_var)
    elif by_shapes:
        prior = _flag(ScaledBeta, args.prior_shape1, args.prior_shape2)
    w_r = payload["w_r"] = _flag(validate_error_prob, args.w_r, "--w-r")
    if args.w_t is not None:
        w_t = payload["w_t"] = _flag(validate_error_prob, args.w_t, "--w-t")
        return partial(woe_known_result, w_t=w_t, w_r=w_r)
    if args.plugin:
        return partial(woe_plugin, w_r=w_r)
    if args.profile:
        lo, hi = _flag(validate_profile_interval, args.profile_lower, args.profile_upper,
                       ("--profile-lower", "--profile-upper"))
        return partial(woe_profile, w_r=w_r, lower=lo, upper=hi)
    payload.update(prior_shape1=prior.alpha, prior_shape2=prior.beta,
                   prior_mean=prior.mean, prior_variance=prior.variance)
    if args.integration == "mc":
        n_samples = payload["mc_samples"] = _flag(validate_integer, args.mc_samples,
                                                  "--mc-samples", 2)
        seed = payload["seed"] = _flag(validate_integer, args.seed, "--seed", 0)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        call = partial(woe_integrate_mc, prior=prior, w_r=w_r, rng=rng, n_samples=n_samples)
    else:
        tol = payload["quad_tol"] = _flag(validate_positive, args.quad_tol, "--quad-tol")
        call = partial(woe_integrate_quad, prior=prior, w_r=w_r, tol=tol)
    if args.per_marker:
        raise UsageError("--per-marker is not defined for integration methods")
    return call


def cmd_woe(args) -> int:
    payload: dict = {}
    evaluate = _woe_call(args, payload)
    case = parse_case_file(args.case)
    result = evaluate(case)
    payload["markers"] = case.m
    payload.update((key, value) for key, value in asdict(result).items() if value is not None)

    if args.per_marker:
        # H1 and H2 at the method's w_t; for profile, at their own maximizers.
        w_t = payload.get("w_hat_h1", payload.get("w_t", payload["w_r"]))
        lrs = per_marker_log10_lr(case, w_t, payload["w_r"], payload.get("w_hat_h2"))
        payload["per_marker_log10_lr"] = [{"marker_id": case.marker_label(i), "log10_lr": _strict(lr)}
                                          for i, lr in enumerate(lrs.tolist())]

    if args.json:
        _print_json(payload)
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
    if args.per_marker:
        print("marker_id,log10_lr")
        for row in payload["per_marker_log10_lr"]:
            print(f"{row['marker_id']},{_human(row['log10_lr'])}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    table = parse_pair_table_file(args.table)
    est = estimate_w_mle(table)
    if args.json:
        _print_json({
            "pairs": table.total,
            "w_hat": est.w,
            "log_likelihood": est.log_likelihood,
            "at_boundary": est.at_boundary,
        })
        return EXIT_OK
    print(f"pairs: {table.total}")
    print(f"w_hat: {est.w:.6g}")
    print(f"log-likelihood: {_human(est.log_likelihood)}")
    print(f"at boundary: {'yes' if est.at_boundary else 'no'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.summary and os.path.realpath(args.summary) == os.path.realpath(args.records):
        raise UsageError(f"--records and --summary name the same file: {args.records}")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateCaseError, QuadratureError, StudyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
