import math

import numpy as np
import pytest

from ordfuse import llr_distributions
from ordfuse.bs_thresholds import _stage_extrema, decide_batch, map_block_batch
from ordfuse.defaults import default_scenario
from ordfuse.llr_distributions import correction_term, envelope_for, law_for_sensor
from ordfuse.reference import (
    compare_with_block_oracle,
    correction_extrema,
    envelope_extrema,
    thresholds_at_stage,
)
from ordfuse.sensing_model import Hypothesis, MeasurementModel, draw_slots

H0, H1 = Hypothesis.H0, Hypothesis.H1


def _one_row(values) -> np.ndarray:
    """One slot's ordered values as the single row of a batch."""
    return np.asarray(values, dtype=float)[None, :]


class TestThresholdsAtStage:
    @pytest.mark.parametrize("which", ["energy", "shift"])
    def test_batch_decisions_follow_stage_thresholds(self, which, request):
        # oracle: walk each slot's running sum through the reference band,
        # stage by stage; decide_batch must stop at the same stage with the
        # same declaration (every sum here stays over 2e-3 from a threshold,
        # far beyond the envelope's 1e-6 certification, so agreement is exact)
        cfg = request.getfixturevalue("scenario" if which == "energy" else "shift_scenario")
        law = law_for_sensor(cfg, 0)
        _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(43), 1000)
        declared, stage = decide_batch(ordered, cfg, law)
        for i, row in enumerate(ordered):
            running = 0.0
            for k in range(1, cfg.K + 1):
                running += row[k - 1]
                lo, hi = thresholds_at_stage(k, row[k - 1], cfg, law)
                if k == cfg.K or running < lo or running > hi:
                    break
            assert stage[i] == k
            assert declared[i] == (running >= lo if k == cfg.K else running > hi)

    def test_final_stage_collapses(self, scenario, law):
        lo, hi = thresholds_at_stage(scenario.K, 1.3, scenario, law)
        assert lo == hi
        expected = scenario.log_prior_ratio() - (scenario.M - scenario.K) * correction_term(1.3, law)
        assert lo == pytest.approx(expected, rel=1e-12)

    def test_all_sensors_report_reduces_to_plain_band(self, law):
        cfg = default_scenario(M=8, K=8, pi0=0.6)
        lo, hi = thresholds_at_stage(3, 1.1, cfg, law)
        prior = math.log(0.6 / 0.4)
        assert lo == pytest.approx(prior - 5 * 1.1, rel=1e-12)
        assert hi == pytest.approx(prior + 5 * 1.1, rel=1e-12)

    def test_zero_magnitude_equal_priors(self, law):
        cfg = default_scenario(M=8, K=8)
        lo, hi = thresholds_at_stage(4, 0.0, cfg, law)
        assert lo == 0.0 and hi == 0.0

    def test_band_never_inverted(self, scenario, law, rng):
        for _ in range(50):
            k = int(rng.integers(1, scenario.K))
            y = float(rng.uniform(0.0, 6.0))
            lo, hi = thresholds_at_stage(k, y, scenario, law)
            assert lo <= hi

    def test_continue_region_nonempty_condition(self, scenario, law, rng):
        # band width is 2(K-k)|y| + (M-K)(max-min), so the stated condition is sufficient
        for _ in range(50):
            k = int(rng.integers(1, scenario.K))
            y = float(rng.uniform(0.01, 6.0))
            lo_c, hi_c = correction_extrema(y, law)
            condition = (scenario.K - k) * y + (scenario.M - scenario.K) * (hi_c - lo_c)
            lo, hi = thresholds_at_stage(k, y, scenario, law)
            if condition > 1e-12:
                assert hi > lo

    def test_stage_validated(self, scenario, law):
        with pytest.raises(ValueError):
            thresholds_at_stage(0, 1.0, scenario, law)

    @pytest.mark.parametrize("which", ["energy", "shift"])
    def test_matches_refined_extrema_thresholds(self, which, request):
        # thresholds read the envelope; the golden-refined reference extrema
        # give the same band to within the envelope's 1e-6 certification
        cfg = request.getfixturevalue("scenario" if which == "energy" else "shift_scenario")
        law = law_for_sensor(cfg, 0)
        rng = np.random.default_rng(61)
        logprior = cfg.log_prior_ratio()
        for _ in range(40):
            k = int(rng.integers(1, cfg.K))
            y = float(rng.uniform(0.0, 3.0 * law.shift))
            lo_c, hi_c = correction_extrema(y, law)
            span = (cfg.K - k) * y
            lo, hi = thresholds_at_stage(k, y, cfg, law)
            assert lo == pytest.approx(logprior - span - (cfg.M - cfg.K) * hi_c, abs=1e-6)
            assert hi == pytest.approx(logprior + span - (cfg.M - cfg.K) * lo_c, abs=1e-6)

    def test_matches_batch_internal_extrema(self, scenario, law):
        # the golden-refined reference and the envelope-based batch path agree
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(2), 64)
        absy = np.abs(ordered[:, : scenario.K]).T  # stage-major
        rho_min, rho_max, _ = _stage_extrema(absy, law)
        for i in (0, 5, 20):
            for k in (1, 4, 7):
                lo_ref, hi_ref = correction_extrema(absy[k - 1, i], law)
                assert rho_min[k - 1, i] == pytest.approx(lo_ref, abs=1e-6)
                assert rho_max[k - 1, i] == pytest.approx(hi_ref, abs=1e-6)

    def test_batch_extrema_per_slot_monotone(self, scenario, law):
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(3), 500)
        absy = np.abs(ordered[:, : scenario.K]).T  # stage-major
        rho_min, rho_max, point = _stage_extrema(absy, law)
        assert np.all(np.diff(rho_min, axis=0) >= 0.0)
        assert np.all(np.diff(rho_max, axis=0) <= 0.0)
        # stage extrema always dominate the final report's correction value
        assert np.all(rho_min <= point[-1:] + 0.0)
        assert np.all(rho_max >= point[-1:] - 0.0)

    @pytest.mark.parametrize("which", ["energy", "shift"])
    def test_equals_envelope_extrema_with_suffix(self, which, request):
        # the envelope's own point evaluation is absorbed by the suffix
        # extrema, which include the point: the result is bit-identical
        cfg = request.getfixturevalue("scenario" if which == "energy" else "shift_scenario")
        law = law_for_sensor(cfg, 0)
        _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(29), 4096)
        absy = np.abs(ordered[:, : cfg.K]).T  # stage-major
        rho_min, rho_max, point = _stage_extrema(absy, law)

        env_min, env_max = envelope_extrema(absy, law)
        envelope = envelope_for(law)
        ref_point = envelope.term(absy, envelope.cell(absy))
        suf_min = np.minimum.accumulate(ref_point[::-1], axis=0)[::-1]
        suf_max = np.maximum.accumulate(ref_point[::-1], axis=0)[::-1]
        assert np.array_equal(rho_min, np.minimum(env_min, suf_min))
        assert np.array_equal(rho_max, np.maximum(env_max, suf_max))
        assert np.array_equal(point, ref_point)


class TestRunDetector:
    def test_single_sensor_is_map_sign_test(self):
        cfg = default_scenario(M=1, K=1, sigma2_s=(2.0,))
        law = law_for_sensor(cfg, 0)
        for y in (-2.0, -0.1, 0.0, 0.1, 2.0):
            declared, stage = decide_batch(_one_row([y]), cfg, law)
            assert stage[0] == 1
            assert declared[0] == (H1 if y >= 0.0 else H0)

    def test_all_zero_llrs_prior_tilt(self, law):
        # zero sum sits below the prior-tilted threshold, so the channel is
        # declared free; with zero magnitudes the band collapses immediately
        cfg = default_scenario(pi0=0.6)
        declared, _ = decide_batch(_one_row([0.0] * 10), cfg, law)
        assert declared[0] == H0
        assert map_block_batch(_one_row([0.0] * cfg.K), cfg, law)[0] == H0

    def test_sensing_time(self, scenario, law):
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(5), 1)
        _, stage = decide_batch(ordered, scenario, law)
        sensing_time = scenario.sensing_time(int(stage[0]))
        assert sensing_time == pytest.approx(scenario.tau_N + stage[0] * scenario.tau)
        assert sensing_time <= scenario.tau_s + 1e-12

    def test_too_few_values_rejected(self, scenario, law):
        with pytest.raises(ValueError, match="K"):
            decide_batch(_one_row([1.0, -0.5]), scenario, law)

    def test_matches_block_decision_per_slot(self, scenario, law):
        truth, _, ordered, _ = draw_slots(scenario, np.random.default_rng(11), 20_000)
        d_seq, _ = decide_batch(ordered, scenario, law)
        d_blk = map_block_batch(ordered, scenario, law)
        assert np.array_equal(d_seq, d_blk)

    def test_shift_in_mean_matches_block_rule(self, shift_scenario, shift_law):
        _, _, ordered, _ = draw_slots(shift_scenario, np.random.default_rng(19), 10_000)
        d_seq, _ = decide_batch(ordered, shift_scenario, shift_law)
        d_blk = map_block_batch(ordered, shift_scenario, shift_law)
        assert np.array_equal(d_seq, d_blk)

    def test_single_slot_wrapper_matches_batch(self, scenario, law):
        # a single slot is a one-row batch and decides as it does in the batch
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(13), 200)
        declared, stage = decide_batch(ordered, scenario, law)
        for i in range(0, 200, 17):
            one_declared, one_stage = decide_batch(ordered[i : i + 1], scenario, law)
            assert one_declared[0] == declared[i]
            assert one_stage[0] == stage[i]

    def test_correction_term_evaluated_only_in_flagged_cells(self, scenario, law, monkeypatch):
        envelope = envelope_for(law)  # build the cached envelope before counting
        points = []

        def counting(y, law_):
            points.append(np.size(y))
            return correction_term(y, law_)

        monkeypatch.setattr(llr_distributions, "correction_term", counting)
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(31), 300)
        decide_batch(ordered, scenario, law)
        absy = np.abs(ordered[:, : scenario.K])
        flagged = int(np.count_nonzero(envelope._exact[envelope.cell(absy)]))
        # the reports next to the support kink; a table whose cells failed
        # their midpoint check would send every report to the exact term
        assert 0 < flagged <= 0.05 * absy.size
        assert sum(points) == flagged


class TestFragileRegimes:
    """Sequential band decisions equal block MAP slot by slot at the edges
    of the parameter space, in the style of acceptance criterion 2."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"N": 1},
            {"sigma2_s": (0.05,) * 10},
            {"sigma2_s": (50.0,) * 10},
            {"pi0": 0.0},
            {"pi0": 0.01},
            {"pi0": 0.99},
            {"pi0": 1.0},
            {"M": 8, "K": 8},
            {"K": 1},
            {"M": 100, "K": 12, "tau": 0.05},
        ],
        ids=["N1", "snr-low", "snr-high", "pi0-zero", "pi0-low", "pi0-high", "pi0-one", "M8K8", "K1",
             "M100K12"],
    )
    def test_full_depth_agrees_with_block_map(self, overrides):
        cfg = default_scenario(**overrides)
        report = compare_with_block_oracle(cfg, 8192, seed=7)
        assert report.agreement_fraction == 1.0, report.first_disagreement
        assert report.n_disagreements == 0


class TestMapBlockDecision:
    def test_equal_priors_sign_rule_when_all_report(self, law):
        cfg = default_scenario(M=8, K=8)
        busy = _one_row([2.0, -1.0, 0.5, -0.4, 0.3, -0.2, 0.1, -0.05])
        assert map_block_batch(busy, cfg, law)[0] == H1
        assert map_block_batch(-busy, cfg, law)[0] == H0

    def test_prior_tilt_toward_busy(self, shift_scenario, shift_law):
        # zero sum and zero correction with a busy-leaning prior declares busy
        cfg = default_scenario(
            pi0=0.4,
            measurement_model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
            mu0=(-1.0,) * 10,
            mu1=(1.0,) * 10,
        )
        values = [1.0, -1.0, 0.8, -0.8, 0.5, -0.5, 0.2, -0.2]
        assert map_block_batch(_one_row(values), cfg, shift_law)[0] == H1

    def test_error_rate_matches_direct_law_sampling_oracle(self, scenario, law):
        # independent oracle: sample the LLR law directly (no Gaussian pipeline)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        truth = (rng.random(n) >= scenario.pi0).astype(np.int8)
        q = rng.chisquare(law.dof, size=(n, scenario.M))
        scale = np.where(truth[:, None] == 0, law.scale0, law.scale1)
        y = scale * q - law.shift
        ordered = np.take_along_axis(y, np.argsort(-np.abs(y), axis=1), axis=1)
        d_oracle = map_block_batch(ordered, scenario, law)
        p_oracle = float(np.mean(d_oracle != truth))

        truth2, _, ordered2, _ = draw_slots(scenario, np.random.default_rng(77), n)
        d2 = map_block_batch(ordered2, scenario, law)
        p_pipeline = float(np.mean(d2 != truth2))
        se = math.sqrt(2 * p_oracle * (1 - p_oracle) / n)
        assert abs(p_pipeline - p_oracle) < 3.0 * se


class TestStoppingBehaviour:
    def test_high_snr_probing_bound_smoke(self):
        # small version of the high-SNR claim; the acceptance suite runs it in full
        cfg = default_scenario(M=40, K=4, sigma2_s=(50.0,) * 40)
        law = law_for_sensor(cfg, 0)
        _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(31), 20_000)
        _, stage = decide_batch(ordered, cfg, law)
        assert stage.mean() <= cfg.K / 2 + 0.5

    def test_stage_in_range(self, scenario, law):
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(37), 5_000)
        _, stage = decide_batch(ordered, scenario, law)
        assert stage.min() >= 1 and stage.max() <= scenario.K
