"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured quantities.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The two Monte-Carlo convergence studies (2000 paths each) are
shared between criteria 5, 6 and 9 through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from helpers import brute_hierarchical, brute_remainder, random_raw_slice, walk_terms
from levystep import (
    AmplitudeSpec,
    AtomSpec,
    LevyModel,
    LinearCoefficients,
    build_path,
    hierarchical_set,
    remainder_set,
)
from levystep.harness import (
    config_from_dict,
    path_rng,
    strong_error_study,
    truncation_study,
)
from levystep.path import sample_dw_dz, stack
from levystep.schemes import milstein_terms
from test_multiindex import A_HALF, A_ONE, B_HALF, B_ONE, render

IDENT = AmplitudeSpec(1.0, 1.0)

REF_MODEL = {
    "small": {"kind": "atoms", "atoms": [[0.5, 0.6], [-0.4, 0.4]]},
    "tail": {"kind": "atoms", "atoms": [[1.5, 0.3], [-2.0, 0.2]]},
    "p": {"coef": 1.0, "exponent": 1.0},
    "q": {"coef": 1.0, "exponent": 1.0},
}

REF_CONFIG = {
    "model": REF_MODEL,
    "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1,
    "y0": 1.0, "T": 1.0,
    "scheme": "euler",
    "ladder_levels": [3, 4, 5, 6, 7, 8],
    "finest_level": 10,
    "paths": 2000,
    "seed": 1337,
}


def ref_model_objects():
    model = LevyModel(small=AtomSpec(((0.5, 0.6), (-0.4, 0.4))),
                      tail=AtomSpec(((1.5, 0.3), (-2.0, 0.2))),
                      p=IDENT, q=IDENT)
    return model, LinearCoefficients.for_model(-0.5, 0.3, 0.2, 0.1, model)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def euler_study():
    t0 = time.perf_counter()
    rep = strong_error_study(config_from_dict(REF_CONFIG))
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def milstein_study():
    cfg = dict(REF_CONFIG, scheme="milstein")
    t0 = time.perf_counter()
    rep = strong_error_study(config_from_dict(cfg))
    return rep, time.perf_counter() - t0


def test_criterion_1_index_set_oracle():
    # generated hierarchical and remainder sets match brute-force enumeration
    # for order 1/2 .. 2 and reproduce the published order-1/2 and order-1
    # listings exactly; runtime under 1 s
    t0 = time.perf_counter()
    ok = True
    for gamma in (0.5, 1, 1.5, 2):
        bound = int(round(2 * gamma)) + 1
        a = hierarchical_set(gamma)
        ok &= set(a) == brute_hierarchical(gamma, bound)
        ok &= set(remainder_set(a)) == brute_remainder(set(a), max(map(len, a)))
    half = hierarchical_set(0.5)
    one = hierarchical_set(1)
    ok &= render(half) == A_HALF
    ok &= sorted(remainder_set(half)) == sorted(B_HALF)
    ok &= render(one) == A_ONE
    ok &= sorted(remainder_set(one)) == sorted(B_ONE)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _report(1, ok, f"set oracles + frozen listings, {elapsed:.2f}s (< 1s)")


def test_criterion_2_joint_increment_law():
    # 1e6 joint draws at delta = 0.1: Var dW = delta, Var dZ = delta^3/3,
    # Cov = delta^2/2, each within 3 standard errors; runtime under 5 s
    t0 = time.perf_counter()
    n, d = 1_000_000, 0.1
    dw, dz = sample_dw_dz(np.full(n, d), np.random.default_rng(123456))
    dev_vw = abs(dw.var(ddof=1) - d) / (d * math.sqrt(2.0 / (n - 1)))
    dev_vz = abs(dz.var(ddof=1) - d**3 / 3) / ((d**3 / 3) * math.sqrt(2.0 / (n - 1)))
    cov = float(np.cov(dw, dz)[0, 1])
    se_cov = math.sqrt((d * d**3 / 3 + (d**2 / 2) ** 2) / (n - 1))
    dev_cov = abs(cov - d**2 / 2) / se_cov
    elapsed = time.perf_counter() - t0
    ok = dev_vw < 3 and dev_vz < 3 and dev_cov < 3 and elapsed < 5.0
    assert _report(2, ok, "joint (dW, dZ) law deviations "
                   f"{dev_vw:.2f}/{dev_vz:.2f}/{dev_cov:.2f} s.e. (< 3), "
                   f"{elapsed:.2f}s (< 5s)")


def test_criterion_3_aggregation_identities():
    # 100 random paths: combining the two child slices of any dyadic interval
    # reproduces the parent dW with zero ulp drift and the parent dZ to 1e-12;
    # runtime under 10 s
    t0 = time.perf_counter()
    model, _ = ref_model_objects()
    dw_exact = True
    worst_dz = 0.0
    n_jumps = 0
    for i in range(100):
        path = build_path(1.0, 6, model, path_rng(7, i))
        n_jumps += len(path.jumps)
        for lv in range(6):
            par = path.slices(lv)
            children = path.slices(lv + 1)
            width = 1.0 / 2 ** (lv + 1)
            cl_dw, cr_dw = children.dw[0::2], children.dw[1::2]
            if not np.array_equal(par.dw, cl_dw + cr_dw):
                dw_exact = False
            gap = np.abs(par.dz - (children.dz[0::2] + children.dz[1::2] + cl_dw * width))
            worst_dz = max(worst_dz, float(gap.max()))
    elapsed = time.perf_counter() - t0
    ok = dw_exact and worst_dz <= 1e-12 and n_jumps > 0 and elapsed < 10.0
    assert _report(3, ok, f"dW telescoping exact: {dw_exact}, worst dZ gap "
                   f"{worst_dz:.1e} (<= 1e-12), {n_jumps} jumps total, "
                   f"{elapsed:.2f}s (< 10s)")


def test_criterion_4_term_evaluator_oracle():
    # all 13 order-1 terms match the independent ordered-event-walk evaluator
    # on 1000 random slices with up to 6 jumps, to 1e-12; runtime under 10 s
    t0 = time.perf_counter()
    coef = LinearCoefficients(
        drift=-0.4, diffusion=0.6, small_jump=0.5, tail_jump=0.3,
        p=lambda x: 1.3 * x + 0.2 * x * x, q=lambda x: 0.7 * x,
        p_integral=0.25)
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(1000):
        raw = random_raw_slice(rng, max_jumps=6)
        y = float(rng.uniform(0.5, 2.0))
        got = milstein_terms(y, raw.to_slice(), coef)
        for key, expect in walk_terms(y, raw, coef).items():
            dev = abs(float(got[key][0]) - expect) / max(1.0, abs(expect))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert _report(4, ok, f"13 terms vs event walk, worst relative deviation "
                   f"{worst:.1e} (<= 1e-12), {elapsed:.2f}s (< 10s)")


def test_criterion_5_euler_strong_order(euler_study):
    # reference linear config, 2000 paths, steps 2^-3 .. 2^-8: fitted
    # RMS-error slope within [0.35, 0.65]
    rep, elapsed = euler_study
    ok = 0.35 <= rep.slope <= 0.65
    assert _report(5, ok, f"euler slope {rep.slope:.4f} in [0.35, 0.65], "
                   f"ci {rep.slope_ci[0]:.3f}..{rep.slope_ci[1]:.3f}, "
                   f"{elapsed:.1f}s")


def test_criterion_6_milstein_strong_order(euler_study, milstein_study):
    # same config: slope within [0.8, 1.2] and the order-1 scheme at least as
    # accurate as the order-1/2 scheme at every step size (paired, 2 s.e.)
    eul, _ = euler_study
    mil, elapsed = milstein_study
    slope_ok = 0.8 <= mil.slope <= 1.2
    diff = eul.per_path - mil.per_path  # same seeds: paired comparison
    dm = diff.mean(axis=0)
    dse = diff.std(axis=0, ddof=1) / math.sqrt(diff.shape[0])
    not_worse = bool(np.all(dm + 2.0 * dse >= 0.0))
    ok = slope_ok and not_worse
    assert _report(6, ok, f"milstein slope {mil.slope:.4f} in [0.8, 1.2]; "
                   f"error <= euler at all 6 deltas within 2 s.e.: {not_worse}, "
                   f"{elapsed:.1f}s")


@pytest.mark.parametrize("a,seed", [(0.5, 2025), (1.2, 2026)])
def test_criterion_7_truncation_rate(a, seed):
    # power-law small-jump density with p = x: log-log slope of the coupled
    # truncation error vs epsilon within +-0.3 of 2 - a
    cfg = {
        "model": {
            "small": {"kind": "power_law", "c": 1.0, "a": a},
            "tail": REF_MODEL["tail"],
            "p": {"coef": 1.0, "exponent": 1.0},
            "q": {"coef": 1.0, "exponent": 1.0},
        },
        "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1,
        "y0": 1.0, "T": 1.0, "scheme": "euler",
        "epsilons": [0.5, 0.25, 0.125],
        "truncation_level": 5,
        "ladder_levels": [3, 5],
        "finest_level": 8,
        "paths": 600,
        "seed": seed,
    }
    t0 = time.perf_counter()
    rep = truncation_study(config_from_dict(cfg))
    elapsed = time.perf_counter() - t0
    target = 2.0 - a
    ok = abs(rep.slope - target) <= 0.3
    assert _report(7, ok, f"a={a}: truncation slope {rep.slope:.3f}, target "
                   f"{target} +-0.3, {elapsed:.1f}s")


def test_criterion_8_martingale_centering():
    # Monte-Carlo mean of the compensated small-jump term over 1e5
    # single-interval paths within 3 standard errors of zero; under 30 s.
    # Every path draws on its own stream; the slices of 1000 paths at a time
    # are stacked into one batch and evaluated together
    t0 = time.perf_counter()
    model, coef = ref_model_objects()
    n, chunk = 100_000, 1000
    vals = np.empty(n)
    for start in range(0, n, chunk):
        paths = [build_path(1.0, 0, model, path_rng(42, i)) for i in range(start, start + chunk)]
        batch, _ = stack([path.slices(0) for path in paths])
        vals[start:start + chunk] = milstein_terms(1.0, batch, coef)["2"]
        if start == 0:
            first = paths
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(n)
    elapsed = time.perf_counter() - t0
    # the first chunk, one path per evaluation, bit for bit
    alone = np.array([milstein_terms(1.0, path.slices(0), coef)["2"][0] for path in first])
    same = alone.tobytes() == vals[:chunk].tobytes()
    ok = abs(mean) <= 3.0 * se and elapsed < 30.0 and same
    assert _report(8, ok, f"mean I2 {mean:.2e}, {abs(mean) / se:.2f} s.e. from 0 "
                   f"(< 3), {elapsed:.1f}s (< 30s), first {chunk} paths alone "
                   f"{'equal' if same else 'DIFFER'}")


def test_criterion_9_second_moment_stability(euler_study, milstein_study):
    # E sup |Y|^2 across the step-size ladder stays finite and within a
    # factor 2 of itself for both schemes on the reference config
    details = []
    ok = True
    for rep, _ in (euler_study, milstein_study):
        sup_sq = rep.scheme_sup_sq
        spread = float(sup_sq.max() / sup_sq.min())
        ok &= bool(np.all(np.isfinite(sup_sq))) and spread <= 2.0
        details.append(f"{rep.scheme.value} spread {spread:.3f}")
    assert _report(9, ok, "E sup |Y|^2 finite, " + ", ".join(details) + " (<= 2)")
