"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from snpwoe.evidence import CaseData, MarkerObservation
from snpwoe.genotypes import GenotypePriors, hwe_priors


def random_case(rng: np.random.Generator, m: int | None = None,
                n_priors: int = 1) -> CaseData:
    """A case with random observations and random (HWE) priors.

    Observations are drawn uniformly over the nine dosage pairs, so the
    case need not be likely under either hypothesis; that stresses the
    numerics more than model-consistent data.
    """
    if m is None:
        m = int(rng.integers(1, 25))
    qs = rng.uniform(0.05, 0.95, size=n_priors)
    priors = [hwe_priors(float(q)) for q in qs]
    markers = tuple(
        MarkerObservation(int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                          priors[int(rng.integers(0, n_priors))])
        for _ in range(m)
    )
    return CaseData(markers)


def same_case(a: CaseData, b: CaseData) -> bool:
    """Whether two cases hold the same columns and ids."""
    return a.ids == b.ids and all(np.array_equal(getattr(a, name), getattr(b, name))
                                  for name in ("x_t", "x_r", "priors"))


def markers(case: CaseData) -> list[tuple[int, int, GenotypePriors]]:
    """Each marker of ``case`` as (x_t, x_r, priors), read from its columns."""
    return [(a, b, GenotypePriors(*p)) for a, b, p in
            zip(case.x_t.tolist(), case.x_r.tolist(), case.priors.tolist())]


def digests_under_blas_threads(module: str) -> dict[str, str]:
    """What ``module.digests()`` prints in fresh interpreters with one and
    with two OpenBLAS threads, keyed by the thread count."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, (str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH"))))
    seen = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", f"import {module} as t; print(t.digests())"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        seen[threads] = proc.stdout.strip()
    return seen


def table_frequencies(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Empirical 3x3 pair frequencies from two dosage vectors."""
    counts = np.zeros((3, 3))
    np.add.at(counts, (x1, x2), 1.0)
    return counts / x1.size


def peak_rss_above_case_mb(call: str, setup: str = "", m: int = 100_000) -> float:
    """Peak RSS in MB that the Python statement ``call`` adds, in a fresh
    interpreter, above a built ``case`` of ``m`` markers with per-marker q
    (its ``x_t``, ``x_r`` and ``priors``) and whatever ``setup`` builds
    from it. ``call`` sees ``np`` and the names ``snpwoe`` exports."""
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from snpwoe import *
        from snpwoe.genotypes import hwe_prior_array
        rng = np.random.default_rng(1)
        case = CaseData.from_arrays(rng.integers(0, 3, {m}), rng.integers(0, 3, {m}),
                                    hwe_prior_array(rng.uniform(0.05, 0.95, {m})))
        {setup}
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        {call}
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) / 1024.0)
    """).format(m=m, setup=setup, call=call)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return float(proc.stdout)
