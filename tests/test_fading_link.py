import math

import numpy as np
import pytest
from scipy.integrate import quad

from ordfuse.defaults import default_fading, default_scenario
from ordfuse.dp_policy import CostModel
from ordfuse.fading_link import (
    FadingConfig,
    effective_config,
    gain_threshold,
    participation_pmf,
    participation_prob,
    sample_participants,
)
from ordfuse.fusion_sim import make_detector, run_monte_carlo, run_monte_carlo_fading
from ordfuse.order_stats import weighted_subset_coeffs


class TestGainThreshold:
    def test_baseline_hand_value(self, fading):
        # (Gamma/P_over_sigma) (2^(bits/(W tau_b)) - 1) = 0.4 (2^0.8 - 1)
        expected = 0.4 * (2.0 ** 0.8 - 1.0)
        assert gain_threshold(fading) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.2964404506, abs=1e-9)

    def test_infinite_power_drives_threshold_to_zero(self):
        fading = FadingConfig(W=50e3, bits=20, tau_b=5e-4, P_over_sigma=1e12, Gamma=2.0)
        assert gain_threshold(fading) < 1e-11

    def test_zero_payload_always_decodable(self):
        fading = FadingConfig(W=50e3, bits=0, tau_b=5e-4, P_over_sigma=5.0, Gamma=2.0)
        assert gain_threshold(fading) == 0.0
        assert participation_prob(fading) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="Gamma"):
            FadingConfig(W=50e3, bits=20, tau_b=5e-4, P_over_sigma=5.0, Gamma=1.0)
        with pytest.raises(ValueError, match="coherence"):
            FadingConfig(W=50e3, bits=20, tau_b=5e-4, P_over_sigma=5.0, Gamma=2.0, T_c=0)


class TestParticipationProb:
    def test_baseline_value(self, fading):
        assert participation_prob(fading) == pytest.approx(0.743, abs=0.001)

    def test_tail_integral_oracle(self, fading):
        mean = fading.gain_mean
        thr = gain_threshold(fading)
        oracle, _ = quad(lambda x: math.exp(-x / mean) / mean, thr, 60.0 * mean, limit=200)
        assert participation_prob(fading) == pytest.approx(oracle, abs=1e-10)


class TestParticipationPmf:
    def test_sums_to_one(self, fading):
        total = sum(participation_pmf(m, 10, fading) for m in range(11))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean_is_sum_of_probs(self, fading):
        mean = sum(m * participation_pmf(m, 10, fading) for m in range(11))
        assert mean == pytest.approx(10 * participation_prob(fading), rel=1e-10)

    def test_symmetric_binomial_collapse(self, fading):
        # the subset recurrence with every sensor's inclusion weight equal
        delta = participation_prob(fading)
        coeffs = weighted_subset_coeffs(np.full(10, delta), np.full(10, 1.0 - delta), 10)
        for m in (0, 3, 7, 10):
            assert participation_pmf(m, 10, fading) == pytest.approx(coeffs[m], rel=1e-12)

    def test_large_network_average(self, fading):
        mean = sum(m * participation_pmf(m, 100, fading) for m in range(101))
        assert mean == pytest.approx(74.3, abs=0.1)

    def test_out_of_range(self, fading):
        with pytest.raises(ValueError):
            participation_pmf(11, 10, fading)


class TestSampleParticipants:
    def test_certain_inclusion(self):
        fading = FadingConfig(W=50e3, bits=0, tau_b=5e-4, P_over_sigma=5.0, Gamma=2.0)
        got = sample_participants(fading, 5, np.random.default_rng(0))
        assert got == frozenset(range(5))

    def test_certain_exclusion(self):
        fading = FadingConfig(W=1.0, bits=10_000, tau_b=1e-4, P_over_sigma=1e-6, Gamma=2.0)
        got = sample_participants(fading, 5, np.random.default_rng(0))
        assert got == frozenset()

    def test_empirical_inclusion_rate(self, fading):
        rng = np.random.default_rng(61)
        n = 100_000
        counts = np.zeros(10)
        delta = participation_prob(fading)
        for _ in range(200):
            batch = rng.random((n // 200, 10)) < delta
            counts += batch.sum(axis=0)
        rate = counts / n
        se = math.sqrt(delta * (1 - delta) / n)
        assert np.all(np.abs(rate - delta) < 3.5 * se)


class TestEffectiveConfig:
    def test_identity_on_full_set(self, scenario):
        reduced = effective_config(scenario, range(scenario.M))
        assert reduced == scenario

    def test_k_clipped_to_participants(self, scenario):
        reduced = effective_config(scenario, {0, 2, 4})
        assert reduced.M == 3
        assert reduced.K == 3
        assert reduced.sigma2_s == (2.0, 2.0, 2.0)

    def test_empty_set_flagged(self, scenario):
        assert effective_config(scenario, set()) is None

    def test_bad_indices_rejected(self, scenario):
        with pytest.raises(ValueError):
            effective_config(scenario, {11})

    def test_selects_per_sensor_parameters(self):
        cfg = default_scenario(sigma2_s=tuple(float(i + 1) for i in range(10)))
        reduced = effective_config(cfg, {1, 3})
        assert reduced.sigma2_s == (2.0, 4.0)


class TestFadingSimulation:
    def test_probing_increases_under_fading(self):
        # fewer participating sensors make the ranked reports less informative
        cm = CostModel.error_min()
        for m in (10, 16):
            cfg = default_scenario(M=m)
            met_fade = run_monte_carlo_fading(cfg, default_fading(), "dp", 30_000,
                                              seed=5, cost_model=cm)
            det = make_detector("dp", cfg, cm)
            met_perfect = run_monte_carlo(cfg, det, 30_000, seed=5, cost_model=cm)
            n = 30_000
            se = math.sqrt(np.var(np.arange(1, cfg.K + 1)) / n) * 3  # coarse stage noise
            assert met_fade.avg_stage >= met_perfect.avg_stage - 3 * se

    def test_matches_reduced_sensor_count_on_error(self):
        # fading with M sensors tracks a clean network of ~ceil(M delta) sensors
        cm = CostModel.error_min()
        cfg10 = default_scenario(M=10)
        met_fade = run_monte_carlo_fading(cfg10, default_fading(), "dp", 40_000,
                                          seed=8, cost_model=cm)
        cfg8 = default_scenario(M=8)
        det8 = make_detector("dp", cfg8, cm)
        met_8 = run_monte_carlo(cfg8, det8, 40_000, seed=8, cost_model=cm)
        se = math.sqrt(met_fade.p_error * (1 - met_fade.p_error) / 40_000) \
            + math.sqrt(met_8.p_error * (1 - met_8.p_error) / 40_000)
        assert abs(met_fade.p_error - met_8.p_error) < 3.0 * se + 0.01

    def test_histogram_accounts_every_slot(self, fading):
        cfg = default_scenario()
        met = run_monte_carlo_fading(cfg, fading, "bs", 5_000, seed=9)
        assert sum(met.stage_histogram) == met.trials == 5_000

    def test_non_identical_rejected(self, fading):
        cfg = default_scenario(sigma2_s=tuple(1.0 + 0.1 * i for i in range(10)))
        with pytest.raises(NotImplementedError):
            run_monte_carlo_fading(cfg, fading, "bs", 100, seed=1)
