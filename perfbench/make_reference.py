"""Recompute ``reference.json``: the program's outputs on every benchmark
input, through the same calls the benchmark times.

Run from the root of a checkout, only at a commit whose outputs are
trusted (the references define what the benchmark accepts):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import inputs
import run
from inputs import ESTIMATE, WOE_METHODS


def casework(sizes: inputs.Sizes, workdir) -> dict:
    rounds = {}
    inputs.write_casework_inputs(sizes, range(sizes.pool_rounds), workdir)
    for rnd in range(sizes.pool_rounds):
        out = {}
        for method in WOE_METHODS:
            out[method] = []
            for hyp in (0, 1):
                argv = inputs.woe_argv(inputs.case_path(workdir, rnd, method, hyp),
                                       method, inputs.mc_seed(rnd, hyp))
                _s, code, text, error = run.cli(argv)
                if code != 0:
                    raise SystemExit(f"round {rnd} {method}: exit {code} {error}")
                out[method].append(json.loads(text)["woe"])
        _s, est, error = run.estimate(sizes, rnd)
        if est is None:
            raise SystemExit(f"round {rnd} estimate: {error}")
        out[ESTIMATE] = {"w": est.w, "log_likelihood": est.log_likelihood,
                         "at_boundary": est.at_boundary}
        rounds[str(rnd)] = out
        print(f"round {rnd} done", file=sys.stderr)
    return {"rounds": rounds}


def study(workload: str, smoke: bool, workdir) -> dict:
    config, content = inputs.study_config(workload, smoke, workdir)
    records = workdir / "records.csv"
    _s, code, _text, error = run.cli(["simulate", str(config), "--records", str(records), "--quiet"])
    if code != 0:
        raise SystemExit(f"{workload}: exit {code} {error}")
    return {"quad_tol": float(content.get("quad_tol", 1e-8)),
            "records": checks.read_csv(records)}


def dump(reference: dict) -> str:
    """JSON with one round or one record per line, so diffs stay readable."""
    blocks = []
    for key in sorted(reference):
        entry = reference[key]
        if "rounds" in entry:
            rows = [f"{json.dumps(r)}: {json.dumps(v, sort_keys=True)}"
                    for r, v in sorted(entry["rounds"].items(), key=lambda kv: int(kv[0]))]
            body = '{"rounds": {\n' + ",\n".join(rows) + "}}"
        else:
            rows = [json.dumps(row) for row in entry["records"]]
            body = (f'{{"quad_tol": {json.dumps(entry["quad_tol"])}, "records": [\n'
                    + ",\n".join(rows) + "]}")
        blocks.append(f"{json.dumps(key)}: {body}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    if not (run.SRC / "snpwoe" / "__init__.py").is_file():
        print(f"error: no program source at {run.SRC}/snpwoe", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for smoke in (True, False):
        suffix = "-smoke" if smoke else ""
        for workload in run.WORKLOADS:
            workdir = run.WORK / f"reference{suffix}-{workload}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            if workload == "casework":
                reference[workload + suffix] = casework(inputs.SMOKE if smoke else inputs.FULL, workdir)
            else:
                reference[workload + suffix] = study(workload, smoke, workdir)
            shutil.rmtree(workdir)
            print(f"{workload}{suffix} done", file=sys.stderr)
    checks.REFERENCE.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
