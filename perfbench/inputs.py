"""Seeded benchmark inputs, made with the benchmark's own numpy code.

Nothing here calls the program's simulator, so a change to
``snpwoe.study.simulate_case`` cannot change what the benchmark feeds in.

Casework inputs form a fixed pool of rounds. One round holds, for each of
the five ``snpwoe woe`` methods, one H1 and one H2 case (every marker with
its own allele frequency ``q``, drawn uniformly from (0.05, 0.95)), plus one
set of duplicate pairs for the error-probability MLE. Every array is a pure
function of ``(pool_seed, round, slot)``, so the reference outputs stored in
``reference.json`` hold for every run; ``--seed`` only chooses the order in
which a run visits the pool. No round repeats inside a process, so a cache
keyed on file content cannot inflate the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent

W_R = 1e-4
W_T = 1e-3        # true trace error probability, also the --w-t of "known"
W_DUP = 1e-2      # error probability of the duplicate reads behind the MLE
PRIOR_MEAN = 1e-3
PRIOR_VAR = 1e-6
MC_SAMPLES = 1000
WOE_METHODS = ("known", "plug-in", "profile", "integrate-mc", "integrate-quad")
HYPOTHESES = ("H1", "H2")
ESTIMATE = "estimate"


@dataclass(frozen=True)
class Sizes:
    """``m`` markers per case (and duplicate pairs per MLE); quadrature
    cases have ``quad_m`` markers because one quad call costs about 45 ms
    per marker (2-core Xeon, when the benchmark was added)."""

    m: int
    quad_m: int
    pool_rounds: int
    pool_seed: int


FULL = Sizes(m=200, quad_m=20, pool_rounds=48, pool_seed=20261017)
SMOKE = Sizes(m=50, quad_m=5, pool_rounds=1, pool_seed=20261018)

STUDY_CONFIGS = {
    "study-quick": HERE / "configs" / "woe_study_quick.yaml",
    "study-full": HERE / "configs" / "woe_study_full_1rep.yaml",
}


def case_m(sizes: Sizes, method: str) -> int:
    return sizes.quad_m if method == "integrate-quad" else sizes.m


def _hwe_dosages(q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Alternate-allele counts under HWE: P(0) = q^2, P(2) = (1 - q)^2."""
    u = rng.random(q.size)
    p0 = q * q
    return (u >= p0).astype(np.int64) + (u >= p0 + 2.0 * q * (1.0 - q)).astype(np.int64)


def _observe(z: np.ndarray, w: float, rng: np.random.Generator) -> np.ndarray:
    """Each of the two allele calls flips independently with probability w."""
    flip1 = rng.random(z.size) < w
    flip2 = rng.random(z.size) < w
    return ((z >= 1) ^ flip1).astype(np.int64) + ((z == 2) ^ flip2).astype(np.int64)


def case_arrays(sizes: Sizes, rnd: int, method: str, hyp: int):
    """(q, x_t, x_r) of one casework case; ``hyp`` 0 is H1, 1 is H2."""
    slot = 2 * WOE_METHODS.index(method) + hyp
    rng = np.random.default_rng([sizes.pool_seed, rnd, slot])
    m = case_m(sizes, method)
    q = rng.uniform(0.05, 0.95, m)
    z_t = _hwe_dosages(q, rng)
    z_r = z_t if hyp == 0 else _hwe_dosages(q, rng)
    return q, _observe(z_t, W_T, rng), _observe(z_r, W_R, rng)


def duplicate_arrays(sizes: Sizes, rnd: int):
    """(q, first read, second read) of ``sizes.m`` duplicate pairs."""
    rng = np.random.default_rng([sizes.pool_seed, rnd, 2 * len(WOE_METHODS)])
    q = rng.uniform(0.05, 0.95, sizes.m)
    z = _hwe_dosages(q, rng)
    return q, _observe(z, W_DUP, rng), _observe(z, W_DUP, rng)


def mc_seed(rnd: int, hyp: int) -> int:
    return 2 * rnd + hyp


def case_path(workdir: Path, rnd: int, method: str, hyp: int) -> Path:
    return workdir / f"r{rnd:03d}-{method}-{HYPOTHESES[hyp]}.csv"


def write_case(path: Path, q, x_t, x_r) -> None:
    lines = ["marker_id,x_t,x_r,q"]
    lines += [f"rs{i},{a},{b},{float(f)!r}" for i, (a, b, f) in enumerate(zip(x_t, x_r, q))]
    path.write_text("\n".join(lines) + "\n")


def shape(q, x_t, x_r) -> str:
    """m, distinct priors and observed (prior, pair) patterns of one input."""
    priors = len(set(q.tolist()))
    patterns = len(set(zip(q.tolist(), x_t.tolist(), x_r.tolist())))
    return f"m={len(q)} priors={priors} patterns={patterns}"


def write_casework_inputs(sizes: Sizes, order, workdir: Path) -> dict[int, list[str]]:
    """Write every case file of the rounds in ``order``; returns one
    description line per input, by round."""
    described = {}
    for rnd in order:
        lines = described[rnd] = []
        for method in WOE_METHODS:
            for hyp in (0, 1):
                arrays = case_arrays(sizes, rnd, method, hyp)
                path = case_path(workdir, rnd, method, hyp)
                write_case(path, *arrays)
                lines.append(f"input {path.name} {shape(*arrays)}")
        lines.append(f"input r{rnd:03d}-{ESTIMATE} {shape(*duplicate_arrays(sizes, rnd))}")
    return described


def woe_argv(path: Path, method: str, seed: int) -> list[str]:
    """``snpwoe woe`` arguments for one method, default tol and bounds."""
    argv = ["woe", str(path), "--w-r", repr(W_R), "--json"]
    prior = ["--prior-mean", repr(PRIOR_MEAN), "--prior-var", repr(PRIOR_VAR)]
    return argv + {
        "known": ["--w-t", repr(W_T)],
        "plug-in": ["--plugin"],
        "profile": ["--profile"],
        "integrate-mc": prior + ["--integration", "mc", "--mc-samples",
                                 str(MC_SAMPLES), "--seed", str(seed)],
        "integrate-quad": prior + ["--integration", "quad"],
    }[method]


def study_config(workload: str, smoke: bool, workdir: Path) -> tuple[Path, dict]:
    """Config path for a study workload and its parsed content. Smoke mode
    writes a copy cut to m=50 and one replicate per cell."""
    path = STUDY_CONFIGS[workload]
    config = yaml.safe_load(path.read_text())
    if smoke:
        config["marker_counts"] = [50]
        config["replicates"] = 1
        path = workdir / f"{workload}-smoke.yaml"
        path.write_text(yaml.safe_dump(config))
    return path, config


def case_pairs(config: dict) -> int:
    """Case pairs one ``simulate`` run produces: grid cells x replicates."""
    return (len(config["q_values"]) * len(config["w_t_values"])
            * len(config["marker_counts"]) * int(config["replicates"]))
