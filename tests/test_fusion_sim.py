import math
from dataclasses import replace

import numpy as np
import pytest

from ordfuse.defaults import default_scenario
from ordfuse.dp_policy import CostModel
from ordfuse.fusion_sim import make_detector, prior_only, run_monte_carlo, sweep
from ordfuse.reference import AgreementReport, compare_with_block_oracle


class TestRunMonteCarlo:
    def test_metrics_bookkeeping(self, scenario):
        met = run_monte_carlo(scenario, make_detector("bs", scenario), 5_000, seed=1)
        assert met.trials == 5_000
        assert sum(met.stage_histogram) == 5_000
        assert sum(sum(row) for row in met.decision_confusion) == 5_000
        assert 0.0 <= met.p_error <= 1.0
        assert met.norm_throughput_secondary >= 0.0

    def test_p_error_stderr(self, scenario):
        met = run_monte_carlo(scenario, prior_only(scenario.pi0), 4_000, seed=3)
        assert met.p_error_stderr == pytest.approx(math.sqrt(met.p_error * (1 - met.p_error) / 4_000))
        assert met.p_error_stderr > 0.0

    def test_same_seed_reproducible(self, scenario):
        a = run_monte_carlo(scenario, make_detector("bs", scenario), 20_000, seed=97)
        b = run_monte_carlo(scenario, make_detector("bs", scenario), 20_000, seed=97)
        assert a == b

    def test_prior_only_error_rate(self, scenario):
        # always declaring busy errs exactly on the free slots
        met = run_monte_carlo(scenario, prior_only(scenario.pi0), 40_000, seed=2)
        se = math.sqrt(0.25 / 40_000)
        assert met.p_error == pytest.approx(0.5, abs=3 * se)
        assert met.stage_histogram[0] == 40_000

    def test_genie_throughput_formula(self, scenario):
        # one perfect probe: pi0 * R_s * (1 - (tau_N + tau)/tau_s) = 0.35;
        # the genie declares the true hypothesis, so it runs beside the
        # engine's chunk stream, which it needs to see
        from ordfuse.fusion_sim import _Accumulator, _chunks

        acc = _Accumulator(scenario.K, None)
        for truth, ordered in _chunks(scenario, 123, 40_000):
            stage = np.ones(ordered.shape[0], dtype=np.int64)
            acc.add(truth, truth.astype(np.int8), stage, scenario)
        met = acc.metrics()
        assert met.p_error == 0.0
        se = math.sqrt(0.25 / 40_000) * 0.7
        assert met.norm_throughput_secondary == pytest.approx(0.35, abs=3 * se)

    def test_throughput_cannot_beat_genie_bound(self, scenario):
        bound = scenario.pi0 * (1.0 - (scenario.tau_N + scenario.tau) / scenario.tau_s)
        for detector in (
            make_detector("bs", scenario),
            make_detector("block-map", scenario),
            make_detector("dp", scenario, CostModel.throughput()),
        ):
            met = run_monte_carlo(scenario, detector, 20_000, seed=3)
            se = math.sqrt(0.25 / 20_000)
            assert met.norm_throughput_secondary <= bound + 3 * se

    def test_block_map_always_probes_k(self, scenario):
        met = run_monte_carlo(scenario, make_detector("block-map", scenario), 2_000, seed=4)
        assert met.stage_histogram[scenario.K] == 2_000
        assert met.avg_stage == scenario.K

    def test_bs_and_block_match_on_shared_stream(self, scenario):
        a = run_monte_carlo(scenario, make_detector("bs", scenario), 30_000, seed=5)
        b = run_monte_carlo(scenario, make_detector("block-map", scenario), 30_000, seed=5)
        assert a.p_error == b.p_error
        assert a.decision_confusion == b.decision_confusion

    def test_success_probabilities_enter(self, scenario):
        # the ledger books each slot's success probability, so halving eta_s
        # halves the secondary throughput exactly
        cm = CostModel.throughput(eta_s=0.5)
        met_full = run_monte_carlo(scenario, make_detector("bs", scenario), 20_000,
                                   seed=6, cost_model=CostModel.throughput())
        met_half = run_monte_carlo(scenario, make_detector("bs", scenario), 20_000,
                                   seed=6, cost_model=cm)
        ratio = met_half.norm_throughput_secondary / met_full.norm_throughput_secondary
        assert ratio == pytest.approx(0.5, rel=1e-12)
        assert met_half.decision_confusion == met_full.decision_confusion

    def test_ledger_books_expected_success(self):
        # a declare-free detector with every success probability off its
        # default: both throughputs are closed forms in the confusion counts
        cfg = default_scenario(pi0=0.6)
        cm = CostModel.throughput(eta_s=0.7, delta_s=0.2, eta_p=0.9, delta_p=0.1,
                                  R_s=1.5, R_p=2.0)
        met = run_monte_carlo(cfg, make_detector("prior-only", cfg), 30_000, seed=21,
                              cost_model=cm)
        (n00, n01), (n10, n11) = met.decision_confusion
        assert n01 == n11 == 0 and n00 > 0 and n10 > 0
        q = met.trials
        time_left = 1.0 - cfg.tau_N / cfg.tau_s
        assert met.norm_throughput_secondary == pytest.approx(
            (n00 * cm.eta_s + n10 * cm.delta_s) * cm.R_s * time_left / q, rel=1e-12)
        assert met.norm_throughput_primary == pytest.approx(
            n10 * cm.delta_p * cm.R_p / q, rel=1e-12)
        # the cost model changes the ledger only, never the decisions
        default = run_monte_carlo(cfg, make_detector("prior-only", cfg), 30_000, seed=21)
        assert met.p_error == default.p_error
        assert met.avg_stage == default.avg_stage
        assert met.stage_histogram == default.stage_histogram

    def test_trials_validated(self, scenario):
        with pytest.raises(ValueError):
            run_monte_carlo(scenario, make_detector("bs", scenario), 0, seed=1)


class TestCompareWithBlockOracle:
    def test_all_report_trivial_agreement(self):
        cfg = default_scenario(M=8, K=8)
        report = compare_with_block_oracle(cfg, 20_000, seed=7)
        assert report.agreement_fraction == 1.0
        assert report.first_disagreement is None

    def test_partial_report_agreement(self, scenario):
        report = compare_with_block_oracle(scenario, 50_000, seed=8)
        assert isinstance(report, AgreementReport)
        assert report.agreement_fraction == 1.0
        assert report.n_disagreements == 0

    def test_shift_in_mean_agreement(self, shift_scenario):
        report = compare_with_block_oracle(shift_scenario, 10_000, seed=9)
        assert report.agreement_fraction == 1.0


class TestSweep:
    def test_error_rate_non_increasing_in_m(self, scenario):
        results = sweep("M", [4, 8, 12, 16], scenario, [("bs", None)], 30_000, seed=10)
        p = [met.p_error for _, (met,) in results]
        se = [met.p_error_stderr for _, (met,) in results]
        for i in range(len(p) - 1):
            assert p[i + 1] <= p[i] + 3 * (se[i] + se[i + 1])

    def test_zero_cost_never_stops_early(self, scenario):
        cm = CostModel.error_min()
        results = sweep("c", [0.0], scenario, [("dp", cm)], 5_000, seed=11)
        _, (met,) = results[0]
        assert met.stage_histogram[scenario.K] == 5_000
        assert scenario.tau_N + met.avg_stage * scenario.tau == pytest.approx(1.0)

    def test_sensing_time_decreases_with_cost(self, scenario):
        cm = CostModel.error_min()
        results = sweep("c", [0.0, 1e-4, 1e-2], scenario, [("dp", cm)], 10_000, seed=12)
        times = [scenario.tau_N + met.avg_stage * scenario.tau for _, (met,) in results]
        assert times[0] == pytest.approx(1.0)
        assert times[0] > times[1] > times[2]

    def test_k_axis_refits_timing(self, scenario):
        results = sweep("K", [12], default_scenario(M=100), [("bs", None)], 500, seed=13)
        assert len(results) == 1  # would raise at construction if timing stayed invalid

    def test_m_axis_extends_sigma(self, scenario):
        results = sweep("M", [15], scenario, [("bs", None)], 500, seed=14)
        assert results[0][1][0].trials == 500

    def test_m_axis_rejects_non_identical_sensors(self):
        # there is no one signal power to repeat over the new sensor count
        cfg = default_scenario(M=4, sigma2_s=(1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError, match="identical sensors"):
            sweep("M", [4, 6], cfg, [("dp", CostModel.error_min())], 10, seed=18)

    def test_unknown_axis_rejected(self, scenario):
        with pytest.raises(ValueError, match="axis"):
            sweep("Q", [1], scenario, [("bs", None)], 10, seed=17)

    @pytest.mark.parametrize("values,columns", [([], [("bs", None)]), ([4], [])])
    def test_empty_values_or_columns_rejected(self, scenario, values, columns):
        with pytest.raises(ValueError, match="at least one"):
            sweep("M", values, scenario, columns, 10, seed=18)

    def test_c_axis_needs_a_cost_model_per_column(self, scenario):
        with pytest.raises(ValueError, match="cost model"):
            sweep("c", [0.0], scenario, [("dp", CostModel.error_min()), ("bs", None)], 10, seed=18)

    @pytest.mark.parametrize("axis,values", [("M", [6, 9]), ("K", [4, 6]), ("c", [0.0, 1e-3])])
    def test_columns_equal_independent_runs(self, scenario, axis, values):
        # bs books the throughput model and dp the error-min model, as in
        # fig-throughput-compare; 10k trials span two chunks
        cm_thr = CostModel.throughput(omega=0.5, c=1e-4)
        cm_err = CostModel.error_min(c=1e-4)
        columns = [("bs", cm_thr), ("block-map", cm_err), ("dp", cm_err), ("prior-only", cm_thr)]
        results = sweep(axis, values, scenario, columns, 10_000, seed=21)
        assert [value for value, _ in results] == values
        for value, metrics in results:
            assert len(metrics) == len(columns)
            if axis == "M":
                cfg = scenario.with_sensors(value)
            elif axis == "K":
                cfg = replace(scenario, K=value)  # timing valid as it is, so no refit
            else:
                cfg = scenario
            for (kind, cm), met in zip(columns, metrics):
                if axis == "c":
                    cm = replace(cm, c=value)
                assert met == run_monte_carlo(cfg, make_detector(kind, cfg, cm), 10_000, 21, cm)


class TestMakeDetector:
    def test_kinds_constructible(self, scenario):
        make_detector("bs", scenario)
        make_detector("block-map", scenario)
        make_detector("dp", scenario, CostModel.error_min())
        make_detector("prior-only", scenario)

    def test_one_threshold_needs_zero_costs(self, scenario):
        from ordfuse.dp_policy import CostMode

        det = make_detector("one-threshold", scenario,
                            CostModel(mode=CostMode.WEIGHTED_THROUGHPUT, c=0.0))
        met = run_monte_carlo(scenario, det, 2_000, seed=19)
        assert met.trials == 2_000

    def test_dp_requires_cost_model(self, scenario):
        with pytest.raises(ValueError, match="cost model"):
            make_detector("dp", scenario)

    def test_unknown_kind(self, scenario):
        with pytest.raises(ValueError, match="unknown detector"):
            make_detector("nope", scenario)

    def test_bs_requires_identical_sensors(self):
        cfg = default_scenario(sigma2_s=tuple(1.0 + 0.2 * i for i in range(10)))
        with pytest.raises(ValueError, match="identical"):
            make_detector("bs", cfg)


class TestDpVsBsTrend:
    def test_dp_probes_fewer_sensors(self, scenario):
        # the solved policy trades a little error for much earlier stopping
        cm = CostModel.error_min()
        for m in (10, 14):
            cfg = default_scenario(M=m)
            det_dp = make_detector("dp", cfg, cm)
            met_dp = run_monte_carlo(cfg, det_dp, 20_000, seed=20)
            met_bs = run_monte_carlo(cfg, make_detector("bs", cfg), 20_000, seed=20)
            assert met_dp.avg_stage <= met_bs.avg_stage
