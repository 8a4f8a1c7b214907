"""Benchmark of snpwoe: three workloads, each in its own process, each
driven by one single-threaded closed-loop caller (the next operation starts
only after the previous one returns and its output has been checked).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload casework --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 35]   # every workload, report
    python3 perfbench/run.py --smoke                           # tiny sizes, a few seconds

Workloads (see README.md for why each exists):

- ``casework``: ``snpwoe.cli.main(["woe", ...])`` in-process on case files
  where every marker has its own ``q``. One operation is one round: a fresh
  H1 case and a fresh H2 case through each of the five methods, then
  ``estimate_w_mle_per_marker`` on a fresh set of duplicate pairs.
- ``study-quick`` / ``study-full``: ``snpwoe simulate`` in-process on the
  configs in ``configs/``, writing records and summary; one operation is
  one whole command.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
start with ``env``, ``input``, ``metric`` or ``note``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
from inputs import ESTIMATE, WOE_METHODS
from speed import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKLOADS = ("casework", "study-quick", "study-full")
SETUP_REPEATS = 5
# Longest a single-workload run may take.
CHILD_TIMEOUT_S = 180


def program_env() -> dict:
    """Environment of a child interpreter that imports the program. Bytecode
    caches are allowed, so imports after the first read them, as they do
    for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def environment() -> str:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} blas={blas} "
            f"{threads} l3={l3}")


def setup_times(repeats: int) -> list[float]:
    """Seconds to ``import snpwoe.cli`` in a fresh interpreter, which every
    CLI call pays; one warm-up import first writes the bytecode cache. The
    reported ``setup_s`` divides their median by the run's slowness: import
    times drift with the machine's load as the kernel does, by up to 25%
    between sets of runs a few minutes apart."""
    code = ("import time; t = time.perf_counter(); import snpwoe.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], env=program_env(),
                              capture_output=True, text=True, check=True, timeout=120)
        if i:
            times.append(float(done.stdout.strip()))
    return times


def tail(values: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    rank = len(values) - 10
    pct = 100 * rank // len(values) if rank > 0 else 0
    if pct < 50:
        return "p-tail n/a"
    return f"p{pct} {sorted(values)[rank - 1]:.6g}"


class Run:
    """Operation counts, failure reasons and timings of one process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.calls: dict[str, list[float]] = {}
        self.calibration = Calibration()

    def record(self, kind: str, seconds: float, failure: str | None) -> None:
        self.attempted += 1
        self.calls.setdefault(kind, []).append(seconds)
        if failure is not None:
            self.failures.append(f"{kind}: {failure}")


def cli(argv: list[str], clock=time.perf_counter) -> tuple[float, int | None, str, str | None]:
    """``snpwoe.cli.main(argv)`` with output captured: (seconds, exit code,
    stdout, exception text). Looked up at call time, so tracing sees it."""
    import snpwoe.cli
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = snpwoe.cli.main(argv)
    except Exception as exc:  # a failing operation is counted, the run goes on
        return clock() - start, None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return clock() - start, code, out.getvalue(), None


def estimate(sizes: inputs.Sizes, rnd: int, clock=time.perf_counter):
    """(seconds, estimate or None, exception text) of one MLE call; the
    observations are built before the clock starts."""
    import snpwoe.estimation
    from snpwoe.evidence import MarkerObservation
    from snpwoe.genotypes import hwe_priors
    q, first, second = inputs.duplicate_arrays(sizes, rnd)
    observations = [MarkerObservation(int(a), int(b), hwe_priors(float(f)))
                    for a, b, f in zip(first, second, q)]
    start = clock()
    try:
        est = snpwoe.estimation.estimate_w_mle_per_marker(observations)
    except Exception as exc:  # counted as a failed operation
        return clock() - start, None, f"{type(exc).__name__}: {exc}"
    return clock() - start, est, None


def check(fn, *args) -> str | None:
    """A check's reason for failing, also when malformed output makes the
    check itself raise."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def woe_failure(code, error, text, method, m, ref) -> str | None:
    if error is not None:
        return error
    if code != 0:
        return f"exit code {code}"
    return check(checks.woe_output, text, method, m, ref)


def casework_round(run: Run, sizes: inputs.Sizes, rnd: int, workdir: Path,
                   ref: dict) -> float:
    """One fresh case pair through every method plus one MLE; returns the
    round's wall seconds."""
    clock = run.calibration.now
    total = 0.0
    for method in WOE_METHODS:
        m = inputs.case_m(sizes, method)
        for hyp in (0, 1):
            path = inputs.case_path(workdir, rnd, method, hyp)
            argv = inputs.woe_argv(path, method, inputs.mc_seed(rnd, hyp))
            seconds, code, text, error = cli(argv, clock)
            run.record(method, seconds, woe_failure(code, error, text, method, m,
                                                    ref[method][hyp]))
            total += seconds
    seconds, est, error = estimate(sizes, rnd, clock)
    run.record(ESTIMATE, seconds, error or check(checks.estimate_output, est, ref[ESTIMATE]))
    return total + seconds


def simulate(run: Run, config: Path, workdir: Path, index: int, ref: dict) -> float:
    """One ``snpwoe simulate`` command; returns its wall seconds."""
    records = workdir / f"records-{index}.csv"
    summary = workdir / f"summary-{index}.csv"
    argv = ["simulate", str(config), "--records", str(records), "--summary", str(summary)]
    seconds, code, _text, error = cli(argv, run.calibration.now)
    failure = error or (f"exit code {code}" if code != 0 else None)
    if failure is None:
        failure = (check(checks.study_records, records, ref["records"], ref["quad_tol"])
                   or check(checks.study_summary, summary, records))
    run.record("simulate", seconds, failure)
    return seconds


def closed_loop(op, limit: int, seconds: float) -> list[float]:
    """Call ``op(i)`` for i = 0, 1, ... one after another, and stop before a
    call that would likely end past ``seconds`` (judged by the median call
    so far) or at ``limit`` calls. Returns each call's wall seconds."""
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < limit:
        walls.append(op(len(walls)))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return walls


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[Run, dict]:
    ref_key = workload + ("-smoke" if smoke else "")
    reference = checks.load_reference()[ref_key]
    workdir = WORK / f"{ref_key}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run()
    try:
        if workload == "casework":
            sizes = inputs.SMOKE if smoke else inputs.FULL
            order = [int(r) for r in np.random.default_rng(seed).permutation(sizes.pool_rounds)]
            described = inputs.write_casework_inputs(sizes, order, workdir)

            def op(i):
                return casework_round(run, sizes, order[i], workdir,
                                      reference["rounds"][str(order[i])])
            limit, pairs_per_op = len(order), 1
        else:
            config, content = inputs.study_config(workload, smoke, workdir)
            pairs_per_op = inputs.case_pairs(content)
            print(f"input {config.name} pairs={pairs_per_op} m={content['marker_counts']} "
                  f"priors=1 per case, at most 9 patterns per case "
                  f"(cases are simulated by the program)")

            def op(i):
                return simulate(run, config, workdir, i, reference)
            limit = 1 if smoke else 10**6
        with run.calibration:
            walls = closed_loop(op, limit, seconds)
        if workload == "casework":
            for rnd in order[:len(walls)]:
                print("\n".join(described[rnd]))
        result = {"walls": walls, "pairs_per_op": pairs_per_op,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if trace:
            from spans import Tracer
            calibration = run.calibration
            untraced_samples = len(calibration.samples)
            tracer = Tracer(calibration.now)
            tracer.install()
            try:
                with calibration:
                    traced = [op(i) for i in range(len(walls))]
            finally:
                tracer.uninstall()
            slowness = calibration.slowness(untraced_samples)
            result["layers"] = tracer.metrics(
                pairs_per_op * len(walls), slowness,
                sum(walls) / calibration.slowness(0, untraced_samples), sum(traced) / slowness)
            result["absent"] = tracer.absent
            spans_path = WORK / f"spans-{ref_key}-seed{seed}.jsonl.gz"
            tracer.write(spans_path)
            print(f"note {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run, result


def report(workload: str, run: Run, result: dict, setup: list[float]) -> dict:
    """Print the metric lines; return the end-to-end metrics."""
    walls, pairs = result["walls"], result["pairs_per_op"]
    raw = pairs * len(walls) / sum(walls)
    slowness = run.calibration.slowness()
    for kind, values in run.calls.items():
        name = f"woe_s.{kind}" if kind in WOE_METHODS else f"{kind}_s"
        print(f"metric {workload} {name} {statistics.median(values):.6g} s "
              f"(median, {tail(values)}, n={len(values)})")
    metrics = {
        "case_pairs_per_s": (raw * slowness, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup) / slowness, "s"),
    }
    for name, (value, unit) in metrics.items():
        print(f"metric {workload} {name} {value:.6g} {unit}")
    print(f"metric {workload} failed_frac {len(run.failures) / run.attempted:.6g} "
          f"({len(run.failures)} of {run.attempted} operations)")
    print(f"note {len(walls)} operations of {pairs} case pair(s) in {sum(walls):.3f} s: "
          f"{raw:.6g} pairs/s as measured, times a slowness of {slowness:.4f} from "
          f"{len(run.calibration.samples)} calibration samples; setup_s is the median of "
          f"{len(setup)} imports, {statistics.median(setup):.6g} s as measured, over the slowness")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_report(workload: str, result: dict) -> dict:
    from spans import metric_units
    units = metric_units()
    for hook in result["absent"]:
        print(f"note hook {hook} is absent; its metrics read 0")
    layers = result["layers"]
    print(f"note {workload} tracing overhead {layers['trace.overhead_s']:.6g} s/pair "
          f"({layers['trace.overhead_pct']:.3g}%): traced minus untraced time over the "
          f"same operations, each pass at the reference speed")
    return {name: {"value": layers[name], "unit": unit} for name, (unit, _better) in units.items()}


def one_workload(args) -> int:
    print(environment())
    setup = setup_times(SETUP_REPEATS) if not args.trace else []
    run, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    for failure in run.failures:
        print(f"note failed {failure}")
    metrics = layer_report(args.workload, result) if args.trace else report(args.workload, run, result, setup)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


def all_workloads(args) -> int:
    """Every workload in its own process, untraced then traced, with one
    report of every metric line."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith(("metric", "note failed", "note hook", f"note {workload}")) or (
                        line.startswith("env") and workload == WORKLOADS[0] and not trace):
                    print(line)
            last = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
            ok = ok and bool(last.get("correct"))
            if trace and last:
                for name, metric in last["metrics"].items():
                    print(f"metric {workload} {name} {metric['value']:.6g} {metric['unit']}")
            if done.returncode != 0:
                print(f"note {workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    return 0 if ok else 1


def smoke() -> int:
    """Every workload at tiny size, untraced and traced, outputs checked."""
    ok = True
    for workload in WORKLOADS:
        start = time.perf_counter()
        run, result = run_workload(workload, 0, 0.0, trace=True, smoke=True)
        ok = ok and not run.failures
        print(f"smoke {workload}: {run.attempted} operations, {len(run.failures)} failed, "
              f"{len(result['absent'])} absent hooks, {time.perf_counter() - start:.2f} s")
        for failure in run.failures:
            print(f"note failed {failure}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and report")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, outputs checked")
    args = parser.parse_args()
    if not (SRC / "snpwoe" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/snpwoe; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.all:
        return all_workloads(args)
    if args.workload is None:
        parser.error("give --workload, --all or --smoke")
    return one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
