"""Monte Carlo's row terms against the loop they replaced, and wherever
they are evaluated.

``woe_integrate_mc`` evaluates a block of rows at the shared draws as one
matrix product and takes one ``log10`` of each likelihood ratio;
``oracle_mc`` keeps the loop before it, Horner's rule once per hypothesis
and the difference of two logs. Every per-draw sum must be within 1e-12
relative of the oracle's, the scale floored at 1. A row's term must be the
same bits wherever it is evaluated: alone, anywhere in a block of any size,
under any block size of the sums and any number of BLAS threads.
"""

import hashlib
import math

import numpy as np
import pytest

import oracle_mc
from conftest import digests_under_blas_threads
from snpwoe import unknown_w
from snpwoe.evidence import CaseData
from snpwoe.genotypes import hwe_prior_array
from snpwoe.scaled_beta import ScaledBeta
from snpwoe.unknown_w import woe_integrate_mc
from test_maximize_oracle import simulated

REL = 1e-12
SIZES = (1, 2, 17, 200, 20_000)
DRAWS = (2, 1000, 10_000)   # above _SUM_BLOCK / 2 draws, every block is one row
PRIOR = ScaledBeta.from_moments(1e-3, 1e-6)
# The two Monte Carlo priors CI runs on its two-marker heavy.csv case: a
# beta with a tiny first shape, and one that puts every default draw at the
# floor.
HEAVY_CASE = ([2, 1], [0, 1], hwe_prior_array([0.5, 0.5]))
HEAVY_PRIORS = ((0.0, ScaledBeta(0.005, 5.0), False),
                (1e-4, ScaledBeta.from_moments(1e-5, 4.9998e-6), True))


def compare(case, w_r, prior, n, seed=0):
    """Checks the per-draw sums of ``woe_integrate_mc(case, prior, w_r,
    default_rng(seed), n)`` against the oracle's on the same draws, and that
    the result is their mean; returns the draws."""
    kernel = case.kernel(w_r)
    draws = np.maximum(prior.sample(np.random.default_rng(seed), n), unknown_w._W_FLOOR)
    new = unknown_w._mc_sums(kernel, draws)
    old = oracle_mc.mc_sums(kernel, draws)
    scale = np.maximum(1.0, np.abs(old))
    assert (np.abs(new - old) <= REL * scale).all(), np.max(np.abs(new - old) / scale)
    result = woe_integrate_mc(case, prior, w_r, np.random.default_rng(seed), n)
    assert result.woe == math.fsum(new.tolist()) / n
    assert result.mc_draws_at_floor == np.count_nonzero(draws == unknown_w._W_FLOOR)
    return draws


@pytest.mark.parametrize("per_marker", [False, True], ids=["shared-q", "per-marker-q"])
@pytest.mark.parametrize("w_r", [0.0, 1e-4])
def test_simulated_cases(per_marker, w_r):
    rng = np.random.default_rng([23, per_marker, int(w_r > 0)])
    for m in SIZES:
        for n in DRAWS:
            compare(simulated(rng, m, w_r, per_marker, (m + n) % 2), w_r, PRIOR, n, m + n)


@pytest.mark.parametrize("w_r, prior, all_at_floor", HEAVY_PRIORS)
def test_heavy_priors(w_r, prior, all_at_floor):
    for n in DRAWS:
        draws = compare(CaseData.from_arrays(*HEAVY_CASE), w_r, prior, n)
        if n == 1000:
            assert (draws == unknown_w._W_FLOOR).all() == all_at_floor
            assert (draws == unknown_w._W_FLOOR).any()


@pytest.mark.parametrize("w_r", [0.0, 1e-4])
def test_genotype_masses_near_1e_300(w_r):
    """p-form priors with masses of 1e-300 and 1e-299 against every
    dosage pair, at moderate draws and at draws all on the floor."""
    tiny = [(1e-300, 0.5, 0.5), (0.5, 1e-300, 0.5), (0.5, 0.5, 1e-300), (1.0, 1e-300, 1e-299),
            (1e-299, 1.0, 1e-300), (1e-300, 1e-299, 1.0), (0.3, 1e-300, 0.7)]
    pairs = [(a, b) for a in range(3) for b in range(3)]
    x_t, x_r = np.array([pair for pair in pairs for _ in tiny]).T
    case = CaseData.from_arrays(x_t, x_r, tiny * len(pairs))
    for prior in (HEAVY_PRIORS[0][1], HEAVY_PRIORS[1][1], PRIOR):
        for n in DRAWS:
            compare(case, w_r, prior, n)


def position_case():
    """A kernel of 45 rows with per-marker q, monomorphic rows among them,
    and 1000 draws that include the floor and the largest float below 1/2."""
    rng = np.random.default_rng(2301)
    q = np.append(rng.uniform(0.05, 0.95, 36), np.ones(9))
    pairs = np.array([(a, b) for a in range(3) for b in range(3)] * 5).T
    kernel = CaseData.from_arrays(*pairs, hwe_prior_array(q)).kernel(1e-4)
    draws = np.maximum(PRIOR.sample(rng, 1000), unknown_w._W_FLOOR)
    draws[:3] = unknown_w._W_FLOOR, np.nextafter(0.5, 0.0), 0.25
    return kernel, draws


def row_terms(kernel, draws, blocks=True):
    """Each row's term evaluated alone, after checking that all rows at
    once, all rows in reverse and, with ``blocks``, every block of 2 to
    ``_SUM_BLOCK // n`` rows at every start give each row the same bits."""
    powers = np.stack((np.ones_like(draws), draws, draws * draws))
    m = len(kernel.counts)
    out = np.empty((2 * m, len(draws)))
    alone = np.array([kernel.log10_ratio(powers, slice(i, i + 1), out)[0].copy()
                      for i in range(m)])
    for size in range(2, unknown_w._SUM_BLOCK // len(draws) + 1) if blocks else ():
        for start in range(m - size + 1):
            block = kernel.log10_ratio(powers, slice(start, start + size), out)
            assert block.tobytes() == alone[start:start + size].tobytes(), (size, start)
    assert kernel.log10_ratio(powers, slice(None), out).tobytes() == alone.tobytes()
    assert kernel.log10_ratio(powers, np.arange(m)[::-1], out).tobytes() == alone[::-1].tobytes()
    return alone


def digests() -> str:
    """Digests of the position case's row terms, and of the row terms and
    per-draw sums of 2000 rows, whose product in one piece is large enough
    for BLAS to thread."""
    kernel, draws = position_case()
    rng = np.random.default_rng(2302)
    big = CaseData.from_arrays(rng.integers(0, 3, 2000), rng.integers(0, 3, 2000),
                               hwe_prior_array(rng.uniform(0.05, 0.95, 2000))).kernel(1e-4)
    arrays = (row_terms(kernel, draws), row_terms(big, draws, blocks=False),
              unknown_w._mc_sums(big, draws))
    return " ".join(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)


def test_row_terms_do_not_depend_on_their_block(monkeypatch):
    kernel, draws = position_case()
    alone = row_terms(kernel, draws)
    monomorphic = (kernel.c_h1 == kernel.c_t).all(axis=1)
    assert monomorphic.sum() == 9 and (alone[monomorphic] == 0.0).all()
    want = unknown_w._mc_sums(kernel, draws).tobytes()
    for block in (1000, 2000, 3001, 1 << 20):
        monkeypatch.setattr(unknown_w, "_SUM_BLOCK", block)
        assert unknown_w._mc_sums(kernel, draws).tobytes() == want, block


def test_row_terms_do_not_depend_on_blas_threads():
    """The same terms and sums in fresh interpreters with one and two
    OpenBLAS threads, and in this one."""
    seen = digests_under_blas_threads("test_mc_oracle")
    assert seen["1"] == seen["2"] == digests()
