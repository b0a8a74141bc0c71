"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity next to its tolerance.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ordfuse.defaults import default_fading, default_scenario
from ordfuse.dp_policy import (
    CostMode,
    CostModel,
    concavity_check,
    run_policy_batch,
    solve_backward,
    solve_one_threshold,
)
from ordfuse.fading_link import participation_prob
from ordfuse.fusion_sim import make_detector, run_monte_carlo, run_monte_carlo_fading, sweep
from ordfuse.llr_distributions import LlrLaw, correction_term, exceed_prob, llr_pdf
from ordfuse.order_stats import SensorEnsemble, ranked_pdf
from ordfuse.reference import (
    compare_with_block_oracle,
    joint_topk_pdf,
    posterior_update_exact,
    subset_weight_sum,
)
from ordfuse.sensing_model import Hypothesis, draw_slots

H0, H1 = Hypothesis.H0, Hypothesis.H1


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


@pytest.fixture(scope="module")
def zero_cost_model():
    return CostModel(mode=CostMode.WEIGHTED_THROUGHPUT, c=0.0)


@pytest.fixture(scope="module")
def throughput_policies(zero_cost_model):
    cfg = default_scenario()
    two = solve_backward(cfg, zero_cost_model)
    one = solve_one_threshold(cfg, zero_cost_model)
    return cfg, two, one


@pytest.fixture(scope="module")
def policy_m60():
    cfg = default_scenario(M=60)
    cm = CostModel.throughput(c=0.0001)
    return cfg, cm, solve_backward(cfg, cm)


def test_criterion_1_fading_participation_constant():
    started = time.time()
    delta = participation_prob(default_fading())
    ok = abs(delta - 0.743) <= 0.001
    _report(
        "criterion 1 (participation constant)", ok,
        f"delta = {delta:.6f}, target 0.743 +- 0.001, {time.time() - started:.2f}s",
    )
    assert ok


def test_criterion_2_sequential_block_equivalence():
    started = time.time()
    cfg = default_scenario(M=10, K=8)
    report = compare_with_block_oracle(cfg, 100_000, seed=20260811)
    ok = report.agreement_fraction == 1.0 and report.n_disagreements == 0
    _report(
        "criterion 2 (sequential/block equivalence)", ok,
        f"agreement {report.agreement_fraction:.6f} on {report.trials} slots "
        f"(first disagreement: {report.first_disagreement}), {time.time() - started:.1f}s",
    )
    assert ok


def test_criterion_3_zero_lower_threshold(throughput_policies):
    started = time.time()
    cfg, two, one = throughput_policies
    lows_zero = bool(np.all(two.pi_low[: cfg.K - 1] == 0.0))
    h1_empty = not np.any(two.actions[: cfg.K - 1] == 1)

    _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(314), 10_000)
    d_two, s_two = run_policy_batch(ordered, two)
    d_one, s_one = run_policy_batch(ordered, one)
    coincide = np.array_equal(d_two, d_one) and np.array_equal(s_two, s_one)

    ok = lows_zero and h1_empty and coincide
    _report(
        "criterion 3 (zero lower threshold)", ok,
        f"pi_low(k<K)=0: {lows_zero}, busy region empty: {h1_empty}, "
        f"one-threshold coincidence on 10000 slots: {coincide}, {time.time() - started:.1f}s",
    )
    assert ok


def test_criterion_4_genie_throughput_limit(policy_m60):
    started = time.time()
    cfg, cm, policy = policy_m60

    def detector(ordered_values):
        return run_policy_batch(ordered_values, policy)

    met = run_monte_carlo(cfg, detector, 100_000, seed=60613, cost_model=cm)
    target = cfg.pi0 * (1.0 - (cfg.tau_N + cfg.tau) / cfg.tau_s)
    ok = abs(met.norm_throughput_secondary - target) <= 0.02
    _report(
        "criterion 4 (genie throughput limit)", ok,
        f"secondary throughput {met.norm_throughput_secondary:.4f} vs {target:.2f} +- 0.02 "
        f"(avg probes {met.avg_stage:.2f}), {time.time() - started:.1f}s",
    )
    assert ok


def test_criterion_5_forced_horizon():
    started = time.time()
    cfg = default_scenario()
    det_free = make_detector("dp", cfg, CostModel.error_min(c=0.0))
    met_free = run_monte_carlo(cfg, det_free, 100_000, seed=555)
    time_free = cfg.tau_N + met_free.avg_stage * cfg.tau

    det_paid = make_detector("dp", cfg, CostModel.error_min(c=0.0001))
    met_paid = run_monte_carlo(cfg, det_paid, 100_000, seed=555)
    time_paid = cfg.tau_N + met_paid.avg_stage * cfg.tau

    ok = time_free == 1.0 and time_paid < 1.0
    _report(
        "criterion 5 (forced horizon)", ok,
        f"c=0 sensing time {time_free} (exact 1.0 required), "
        f"c=1e-4 sensing time {time_paid:.4f} (< 1.0 required), {time.time() - started:.1f}s",
    )
    assert ok


def test_criterion_6_high_snr_probing_bound():
    started = time.time()
    base = default_scenario(M=100, sigma2_s=(50.0,) * 100)
    results = sweep("K", [4, 8, 12], base, [("bs", None)], 100_000, seed=6001)
    details = []
    ok = True
    for k, (met,) in results:
        bound = k / 2 + 0.5
        ok = ok and met.avg_stage <= bound
        details.append(f"K={int(k)}: {met.avg_stage:.3f} <= {bound}")
    _report(
        "criterion 6 (high-SNR probing bound)", ok,
        "; ".join(details) + f", {time.time() - started:.1f}s",
    )
    assert ok


def test_criterion_7_property_suite(throughput_policies, policy_m60):
    started = time.time()
    cfg, two, _ = throughput_policies
    ens = SensorEnsemble.from_config(cfg)
    law = ens.laws[0]
    checks = {}

    # (a) ranked normalization, every rank at M = 10 and a smaller ensemble
    hi = law.effective_range(1e-13)[1]
    worst = 0.0
    for ens_a in (ens, SensorEnsemble((law,) * 4)):
        for rank in range(1, ens_a.m + 1):
            total, _ = quad(lambda y: ranked_pdf(rank, y, H1, ens_a), -law.shift, hi,
                            limit=400, points=[0.0, law.shift])
            worst = max(worst, abs(total - 1.0))
    checks["a:ranked-normalization"] = worst <= 1e-6

    # (b) rank-sum identity at 20 points
    ys = np.linspace(-1.5, 8.0, 20)
    total = sum(ranked_pdf(m, ys, H0, ens) for m in range(1, ens.m + 1))
    checks["b:rank-sum"] = bool(np.max(np.abs(total - ens.m * llr_pdf(ys, H0, law))) <= 1e-8)

    # (c) subset sums vs brute-force enumeration through M = 8
    ok_c = True
    for m_total in range(2, 9):
        rng = np.random.default_rng(m_total)
        laws = tuple(LlrLaw.energy(3, g) for g in rng.uniform(0.5, 4.0, m_total))
        ens_c = SensorEnsemble(laws)
        hi_arg, lo_arg = rng.uniform(0.2, 3.0, 2)
        for m_sub in range(0, m_total + 1):
            fast = subset_weight_sum(m_sub, H1, hi_arg, lo_arg, set(), ens_c)
            brute = 0.0
            for subset in itertools.combinations(range(m_total), m_sub):
                prod = 1.0
                for v in range(m_total):
                    b = exceed_prob(hi_arg if v in subset else lo_arg, H1, laws[v])
                    prod *= b if v in subset else (1.0 - b)
                brute += prod
            ok_c = ok_c and abs(fast - brute) <= 1e-12 * max(1.0, brute)
    checks["c:subset-vs-brute"] = ok_c

    # (d) reported value equals the log density ratio
    ys = np.linspace(-law.shift + 1e-3, 30.0, 300)
    ratio = np.log(llr_pdf(ys, H1, law)) - np.log(llr_pdf(ys, H0, law))
    checks["d:llr-identity"] = bool(np.max(np.abs(ratio - ys)) <= 1e-9)

    # (e) exact posterior chain equals joint Bayes
    cfg3 = default_scenario(M=3, K=3, sigma2_s=(2.0,) * 3)
    ens3 = SensorEnsemble.from_config(cfg3)
    _, _, ordered3, _ = draw_slots(cfg3, np.random.default_rng(71), 100)
    worst_e = 0.0
    for row in ordered3:
        pi, prev = cfg3.pi0, None
        for k, y in enumerate(row[:3], start=1):
            pi = posterior_update_exact(pi, prev, float(y), k, ens3)
            prev = float(y)
        j0 = joint_topk_pdf(row[:3], H0, ens3)
        j1 = joint_topk_pdf(row[:3], H1, ens3)
        direct = cfg3.pi0 * j0 / (cfg3.pi0 * j0 + (1 - cfg3.pi0) * j1)
        worst_e = max(worst_e, abs(pi - direct))
    checks["e:exact-chain"] = worst_e <= 1e-10

    # (f) concavity of every throughput solve used in this suite
    cfg60, cm60, pol60 = policy_m60
    pol_paid = solve_backward(cfg, CostModel.throughput(c=0.0001))
    checks["f:concavity"] = (
        concavity_check(two) and concavity_check(pol60) and concavity_check(pol_paid)
    )

    # (g) symmetric mean-shift law has identically zero correction term
    shift_law = LlrLaw.shift_in_mean(3, -1.0, 1.0, 1.0)
    grid = np.linspace(0.0, 25.0, 500)
    checks["g:zero-correction"] = bool(np.max(np.abs(correction_term(grid, shift_law))) <= 1e-9)

    ok = all(checks.values())
    _report(
        "criterion 7 (property suite)", ok,
        ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
        + f", {time.time() - started:.1f}s",
    )
    assert ok, checks


def test_criterion_8_figure_trends():
    started = time.time()
    details = []

    # error probability non-increasing in M within 3 sigma
    res = sweep("M", [4, 8, 12, 16], default_scenario(), [("bs", None)], 30_000, seed=808)
    p = [met.p_error for _, (met,) in res]
    se = [math.sqrt(v * (1 - v) / 30_000) for v in p]
    trend_pe = all(p[i + 1] <= p[i] + 3 * (se[i] + se[i + 1]) for i in range(len(p) - 1))
    details.append(f"p_error vs M {['%.4f' % v for v in p]} non-increasing: {trend_pe}")

    # DP probes no more sensors than the sequential band detector for M >= 10
    cm = CostModel.error_min(c=0.0001)
    trend_probe = True
    for m in (10, 14):
        cfg = default_scenario(M=m)
        met_dp = run_monte_carlo(cfg, make_detector("dp", cfg, cm), 30_000, seed=809)
        met_bs = run_monte_carlo(cfg, make_detector("bs", cfg), 30_000, seed=809)
        trend_probe = trend_probe and met_dp.avg_stage <= met_bs.avg_stage
        details.append(f"M={m}: DP {met_dp.avg_stage:.2f} <= BS {met_bs.avg_stage:.2f}")

    # fading increases the average number of probed sensors
    trend_fading = True
    for m in (10, 16):
        cfg = default_scenario(M=m)
        met_fade = run_monte_carlo_fading(cfg, default_fading(), "dp", 30_000,
                                          seed=810, cost_model=cm)
        met_perf = run_monte_carlo(cfg, make_detector("dp", cfg, cm), 30_000,
                                   seed=810, cost_model=cm)
        noise = 3.0 * math.sqrt(cfg.K ** 2 / 4 / 30_000)
        trend_fading = trend_fading and met_fade.avg_stage >= met_perf.avg_stage - noise
        details.append(f"M={m}: fading {met_fade.avg_stage:.2f} >= perfect {met_perf.avg_stage:.2f}")

    ok = trend_pe and trend_probe and trend_fading
    _report(
        "criterion 8 (figure trends)", ok,
        "; ".join(details) + f", {time.time() - started:.1f}s",
    )
    assert ok
