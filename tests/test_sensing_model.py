import math
from dataclasses import replace

import numpy as np
import pytest

from ordfuse.defaults import default_scenario
from ordfuse.reference import llr_from_samples, rank_by_magnitude
from ordfuse.sensing_model import MeasurementModel, _stable_on_ties, draw_slots


class TestScenarioConfig:
    def test_timing_invariant_rejected(self):
        with pytest.raises(ValueError, match="tau_s - tau_N - K\\*tau"):
            default_scenario(M=20, K=12)

    def test_sensor_count_invariant(self):
        with pytest.raises(ValueError, match="M >= K"):
            default_scenario(M=4, K=8, sigma2_s=(2.0,) * 4)

    def test_prior_range(self):
        with pytest.raises(ValueError, match="pi0"):
            default_scenario(pi0=1.5)

    def test_variances_positive(self):
        with pytest.raises(ValueError, match="variances"):
            default_scenario(sigma2=0.0)

    def test_sigma2_s_length(self):
        with pytest.raises(ValueError, match="sigma2_s"):
            default_scenario(sigma2_s=(2.0, 2.0))

    def test_shift_in_mean_requires_means(self):
        with pytest.raises(ValueError, match="mu0 and mu1"):
            default_scenario(measurement_model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN)

    @pytest.mark.parametrize("m", [1, 4, 10, 16, 100])
    def test_default_scenario_on_m_sensors(self, m):
        # K capped at m and the signal power repeated, with or without a K
        base = default_scenario()
        assert default_scenario(M=m) == replace(base, M=m, K=min(8, m), sigma2_s=(2.0,) * m)
        for k in range(1, min(m, 8) + 1):
            assert default_scenario(M=m, K=k) == replace(base, M=m, K=k, sigma2_s=(2.0,) * m)

    def test_with_sensors_repeats_means(self, shift_scenario):
        cfg = shift_scenario.with_sensors(3)
        assert (cfg.M, cfg.K, cfg.mu0, cfg.mu1) == (3, 3, (-1.0,) * 3, (1.0,) * 3)
        assert cfg.sigma2_s == (2.0,) * 3

    def test_with_sensors_rejects_non_identical(self):
        cfg = default_scenario(M=4, sigma2_s=(1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError, match="identical sensors"):
            cfg.with_sensors(8)


class TestLlrFromSamples:
    def test_zero_samples(self, scenario):
        # closed form at zero energy: -(N/2) log(1 + gamma)
        expected = -1.5 * math.log(3.0)
        assert llr_from_samples([0.0, 0.0, 0.0], 0, scenario) == pytest.approx(expected, rel=1e-12)

    def test_unit_samples_hand_value(self, scenario):
        # (1/2)(2/3)*3 - (3/2) ln 3 evaluated by hand
        expected = 1.0 - 1.5 * math.log(3.0)
        assert llr_from_samples([1.0, 1.0, 1.0], 0, scenario) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_snr_gives_zero_llr(self):
        cfg = default_scenario(sigma2_s=(1e-12,) * 10)
        assert abs(llr_from_samples([0.3, -1.2, 2.0], 0, cfg)) < 1e-9

    def test_wrong_sample_count(self, scenario):
        with pytest.raises(ValueError, match="expected 3 samples"):
            llr_from_samples([1.0, 2.0], 0, scenario)

    def test_monotone_in_energy(self, scenario):
        # energy-model LLR must increase with total energy
        energies = [llr_from_samples([e, 0.0, 0.0], 0, scenario) for e in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_shift_in_mean_matches_gaussian_logpdf_ratio(self, shift_scenario):
        rng = np.random.default_rng(7)
        x = rng.normal(size=3)
        got = llr_from_samples(x, 0, shift_scenario)

        def logpdf(v, mu):
            return -0.5 * (v - mu) ** 2 / shift_scenario.sigma2

        expected = sum(logpdf(v, 1.0) - logpdf(v, -1.0) for v in x)
        assert got == pytest.approx(expected, rel=1e-12)


class TestRankByMagnitude:
    def test_basic_ordering(self):
        assert rank_by_magnitude([-3.0, 1.0, 2.5]) == [(0, -3.0), (2, 2.5), (1, 1.0)]

    def test_tie_break_by_index(self):
        assert rank_by_magnitude([0.0, 0.0]) == [(0, 0.0), (1, 0.0)]

    def test_distinct_values_strictly_decreasing(self, rng):
        values = rng.normal(size=12)
        mags = [abs(v) for _, v in rank_by_magnitude(values)]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank_by_magnitude([])

    def test_deterministic(self, rng):
        values = rng.normal(size=8)
        assert rank_by_magnitude(values) == rank_by_magnitude(values)


class TestStableOnTies:
    """`draw_slots`' ordering: numpy's default argsort, checked for an exact
    tie in magnitude, falls back to the stable sort for the whole chunk, so
    the order is the stable sort's on every row."""

    @staticmethod
    def _sort_kinds(monkeypatch, llr):
        order = np.argsort(-np.abs(llr), axis=1)
        kinds = []
        argsort = np.argsort

        def recording_argsort(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording_argsort)
        ordered_values, order = _stable_on_ties(llr, np.take_along_axis(llr, order, axis=1), order)
        monkeypatch.undo()
        assert order.dtype == np.intp
        for row, values, sensors in zip(llr, ordered_values, order):
            expected = rank_by_magnitude(row)
            assert sensors.tolist() == [s for s, _ in expected]
            # bytes, so that 0.0 and -0.0 are told apart
            assert values.tobytes() == np.array([v for _, v in expected]).tobytes()
        return kinds

    def test_tied_rows(self, monkeypatch):
        llr = np.array([
            [1.5, -0.3, -1.5, 0.3, 2.0, -2.0],  # +-x pairs
            [0.7, 0.7, -0.7, 0.1, 0.7, 0.2],  # one magnitude four times
            [0.0, -0.0, 0.5, -0.0, 0.0, -0.5],  # signed zeros
            [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0],  # nothing but zeros
        ])
        assert self._sort_kinds(monkeypatch, llr) == ["stable"]

    def test_one_tied_row_sorts_the_chunk_stably(self, monkeypatch):
        llr = np.random.default_rng(83).standard_normal((8192, 10))
        assert self._sort_kinds(monkeypatch, llr) == []
        llr[4100, 7] = -llr[4100, 2]
        assert self._sort_kinds(monkeypatch, llr) == ["stable"]


class TestDrawSlot:
    def test_degenerate_priors(self, rng):
        cfg_free = default_scenario(pi0=1.0)
        cfg_busy = default_scenario(pi0=0.0)
        truth_free, _, _, _ = draw_slots(cfg_free, np.random.default_rng(0), 500)
        truth_busy, _, _, _ = draw_slots(cfg_busy, np.random.default_rng(0), 500)
        assert not truth_free.any()
        assert truth_busy.all()

    def test_single_slot_structure(self, scenario):
        truth, llr, ordered_values, order = draw_slots(scenario, np.random.default_rng(3), 1)
        assert truth[0] in (0, 1)
        assert llr.shape == (1, scenario.M)
        ranked = np.abs(ordered_values[0])
        assert np.all(ranked[:-1] >= ranked[1:])
        assert sorted(order[0]) == list(range(scenario.M))
        assert np.array_equal(ordered_values[0], llr[0, order[0]])

    def test_energy_mean_under_h0(self):
        # E[sum |X|^2 | H0] = N sigma^2 = 3; SE over 1e5 slots x 10 sensors ~ 0.0025
        cfg = default_scenario(pi0=1.0)
        rng = np.random.default_rng(11)
        _, llr, _, _ = draw_slots(cfg, rng, 100_000)
        # invert the LLR map to recover the energy statistic
        g = 2.0
        energy = (llr + 1.5 * math.log(3.0)) * (2.0 * cfg.sigma2) * (g + 1.0) / g
        assert energy.mean() == pytest.approx(3.0, abs=0.05)

    def test_sample_variance_under_h1(self):
        # conditional second moment: sigma2_s + sigma2 = 3, within 3 SE
        cfg = default_scenario(pi0=0.0)
        rng = np.random.default_rng(13)
        _, llr, _, _ = draw_slots(cfg, rng, 120_000)
        g = 2.0
        energy = (llr + 1.5 * math.log(3.0)) * (2.0 * cfg.sigma2) * (g + 1.0) / g
        per_sample = energy.mean() / cfg.N
        n_samples = llr.size * cfg.N
        se = math.sqrt(2.0 / n_samples) * 3.0  # var of chi2 mean, scaled
        assert abs(per_sample - 3.0) < 3.0 * se + 1e-3

    @pytest.mark.parametrize("which", ["energy", "shift"])
    def test_ties_go_to_the_lower_sensor_index(self, which, shift_scenario):
        # a stub generator makes two ties in the one slot: identical energy
        # sensors with equal normals have equal LLRs, and mirrored samples
        # under the shift-in-mean model give LLRs of +v and -v
        cfg = default_scenario() if which == "energy" else shift_scenario
        z = np.random.default_rng(17).standard_normal((1, cfg.M, cfg.N))
        pairs = ((1, 6), (3, 8))
        for low, high in pairs:
            if which == "energy":
                z[0, high] = z[0, low]
            else:  # busy slot, unit variance: samples z + 1, mirrored as -(z + 1)
                z[0, high] = -z[0, low] - 2.0

        class StubRng:
            def random(self, n):
                return np.full(n, 0.75)  # >= pi0: busy

            def standard_normal(self, shape):
                assert shape == z.shape
                return z.copy()

        truth, llr, ordered_values, order = draw_slots(cfg, StubRng(), 1)
        assert truth[0] == 1
        position = {int(sensor): k for k, sensor in enumerate(order[0])}
        for low, high in pairs:
            assert abs(llr[0, low]) == abs(llr[0, high])
            assert position[high] == position[low] + 1
        assert np.array_equal(ordered_values[0], llr[0, order[0]])

    def test_ordered_matches_rank_by_magnitude(self, scenario):
        truth, llr, ordered_values, order = draw_slots(scenario, np.random.default_rng(5), 50)
        for i in range(50):
            expected = rank_by_magnitude(llr[i])
            assert [v for _, v in expected] == pytest.approx(list(ordered_values[i]))
            assert [s for s, _ in expected] == list(order[i])

    @pytest.mark.parametrize("which", ["energy", "shift"])
    def test_llr_matches_llr_from_samples(self, which, shift_scenario):
        # oracle: rebuild every sensor's samples from the same seed in the
        # same draw order (truth, then the (n, M, N) normals) and recompute
        # each LLR one sensor at a time
        if which == "energy":
            cfg = default_scenario(sigma2_s=tuple(0.5 + 0.4 * i for i in range(10)), pi0=0.4)
        else:
            cfg = shift_scenario
        n = 64
        truth, llr, _, _ = draw_slots(cfg, np.random.default_rng(71), n)
        rng = np.random.default_rng(71)
        busy = rng.random(n) >= cfg.pi0
        z = rng.standard_normal((n, cfg.M, cfg.N))
        assert np.array_equal(truth, busy)
        assert 0 < busy.sum() < n
        expected = np.empty((n, cfg.M))
        for s in range(n):
            for i in range(cfg.M):
                if cfg.measurement_model is MeasurementModel.ENERGY_CHI_SQUARE:
                    var = cfg.sigma2 + (cfg.sigma2_s[i] if busy[s] else 0.0)
                    x = z[s, i] * math.sqrt(var)
                else:
                    x = z[s, i] * math.sqrt(cfg.sigma2) + (cfg.mu1[i] if busy[s] else cfg.mu0[i])
                expected[s, i] = llr_from_samples(x, i, cfg)
        np.testing.assert_allclose(llr, expected, rtol=0.0, atol=1e-12)
