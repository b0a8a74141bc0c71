import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import ordfuse
import ordfuse.dp_policy as dp
from ordfuse.defaults import default_scenario
from ordfuse.dp_policy import (
    Action,
    CostMode,
    CostModel,
    PolicyTable,
    PosteriorUndefined,
    accumulated_llr_equivalent,
    concavity_check,
    decision_cost,
    run_policy_batch,
    _belief_grid,
    _continuation,
    solve_backward,
    solve_one_threshold,
)
from ordfuse.order_stats import SensorEnsemble, ranked_pdf
from ordfuse.reference import (
    dense_continuation,
    joint_topk_pdf,
    posterior_update,
    posterior_update_exact,
)
from ordfuse.sensing_model import Hypothesis, MeasurementModel, ScenarioConfig, draw_slots

H0, H1 = Hypothesis.H0, Hypothesis.H1


@pytest.fixture(scope="module")
def non_identical():
    """M=6 sensors with distinct signal powers and their error-min policy."""
    cfg = default_scenario(M=6, sigma2_s=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5))
    assert not SensorEnsemble.from_config(cfg).is_identical
    return cfg, solve_backward(cfg, CostModel.error_min(c=0.0001))


@pytest.mark.parametrize(
    "name, fixture",
    [("error-min", "policy_error_min"), ("one-threshold", "policy_one_threshold"),
     ("non-identical-m6", "non_identical")],
)
def test_policy_values_match_recorded_digest(request, check_digest, name, fixture):
    policy = request.getfixturevalue(fixture)
    if fixture == "non_identical":
        policy = policy[1]
    check_digest(f"policy/{name}", policy.values.tobytes())


class TestDecisionCost:
    def test_error_min_zero_one(self, scenario):
        cm = CostModel.error_min()
        for k in (1, 5, 8):
            assert decision_cost(k, H0, H0, cm, scenario) == 0.0
            assert decision_cost(k, H1, H1, cm, scenario) == 0.0
            assert decision_cost(k, H0, H1, cm, scenario) == 1.0
            assert decision_cost(k, H1, H0, cm, scenario) == 1.0

    def test_throughput_hand_value(self):
        # -(1-omega) R_s eta_s (tau_s - tau_N - tau)/tau_s = -0.5 * 0.7
        cfg = default_scenario()
        cm = CostModel.throughput(omega=0.5)
        assert decision_cost(1, H0, H0, cm, cfg) == pytest.approx(-0.35, rel=1e-12)

    def test_false_free_with_zero_costs(self, scenario):
        cm = CostModel.throughput()
        assert decision_cost(3, H1, H0, cm, scenario) == 0.0

    def test_busy_detection_reward(self, scenario):
        cm = CostModel.throughput(omega=0.5)
        assert decision_cost(2, H1, H1, cm, scenario) == pytest.approx(-0.5)

    def test_collision_penalty_enters(self, scenario):
        cm = CostModel(mode=CostMode.WEIGHTED_THROUGHPUT, P_col=2.0)
        assert decision_cost(8, H0, H1, cm, scenario) == pytest.approx(2.0)

    def test_cost_model_validation(self):
        with pytest.raises(ValueError, match="omega"):
            CostModel(mode=CostMode.WEIGHTED_THROUGHPUT, omega=1.5)
        with pytest.raises(ValueError, match="c"):
            CostModel(mode=CostMode.ERROR_MIN, c=-0.1)


class TestPosteriorUpdate:
    def test_equal_densities_leave_belief(self, shift_scenario):
        # the mean-shift pair is symmetric at zero, so the lowest-rank density
        # is hypothesis-independent there and the belief must not move
        ens = SensorEnsemble.from_config(shift_scenario)
        rank = shift_scenario.M
        f0 = ranked_pdf(rank, 0.0, H0, ens)
        f1 = ranked_pdf(rank, 0.0, H1, ens)
        assert f0 == pytest.approx(f1, rel=1e-12) and f0 > 0
        assert posterior_update(0.37, 0.0, rank - 1, ens) == pytest.approx(0.37, abs=1e-12)

    def test_absorbing_endpoints(self, ensemble):
        assert posterior_update(0.0, 1.0, 0, ensemble) == 0.0
        assert posterior_update(1.0, 1.0, 0, ensemble) == 1.0

    def test_zero_predictive_density_raises(self, ensemble):
        with pytest.raises(PosteriorUndefined):
            posterior_update(0.5, -5.0, 0, ensemble)

    def test_exact_first_stage_reduces_to_marginal(self, ensemble):
        assert posterior_update_exact(0.5, None, 1.2, 1, ensemble) == pytest.approx(
            posterior_update(0.5, 1.2, 0, ensemble), rel=1e-14
        )

    def test_symmetric_law_freezes_exact_chain(self):
        # mirror-image laws make the conditional density at a zero-valued
        # report hypothesis-independent, leaving the exact chain at the prior
        from ordfuse.sensing_model import MeasurementModel

        cfg = default_scenario(
            M=2, K=2, sigma2_s=(2.0, 2.0),
            measurement_model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
            mu0=(-1.0, -1.0), mu1=(1.0, 1.0),
        )
        ens = SensorEnsemble.from_config(cfg)
        pi = posterior_update_exact(0.4, 0.5, 0.0, 2, ens)
        assert pi == pytest.approx(0.4, abs=1e-9)

    def test_exact_chain_equals_joint_bayes(self):
        cfg = default_scenario(M=3, K=3, sigma2_s=(2.0,) * 3)
        ens = SensorEnsemble.from_config(cfg)
        _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(41), 50)
        for row in ordered:
            pi = cfg.pi0
            prev = None
            for k, y in enumerate(row[:3], start=1):
                pi = posterior_update_exact(pi, prev, float(y), k, ens)
                prev = float(y)
            j0 = joint_topk_pdf(row[:3], H0, ens)
            j1 = joint_topk_pdf(row[:3], H1, ens)
            direct = cfg.pi0 * j0 / (cfg.pi0 * j0 + (1 - cfg.pi0) * j1)
            assert pi == pytest.approx(direct, abs=1e-10)

    def test_approximate_chain_deviation_reported(self, scenario, ensemble, capsys):
        # the reduced-complexity chain is not exact; measure and report only
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(43), 200)
        devs = []
        for row in ordered:
            pi_a = scenario.pi0
            for k in range(scenario.K):
                pi_a = posterior_update(pi_a, float(row[k]), k, ensemble)
            j0 = joint_topk_pdf(row[: scenario.K], H0, ensemble)
            j1 = joint_topk_pdf(row[: scenario.K], H1, ensemble)
            exact = scenario.pi0 * j0 / (scenario.pi0 * j0 + (1 - scenario.pi0) * j1)
            devs.append(abs(pi_a - exact))
        print(f"approximate-chain deviation: mean={np.mean(devs):.4f} max={np.max(devs):.4f}")
        assert np.isfinite(devs).all()


class TestSolveBackward:
    def test_terminal_error_min_values(self, policy_error_min):
        grid = policy_error_min.grid
        np.testing.assert_allclose(
            policy_error_min.values[-1], np.minimum(grid, 1.0 - grid), atol=0
        )

    def test_large_continuation_cost_stops_immediately(self, scenario):
        policy = solve_backward(scenario, CostModel.error_min(c=0.5))
        assert not np.any(policy.actions == Action.CONTINUE)

    def test_zero_lower_threshold_theorem(self, policy_throughput_zero, scenario):
        assert np.all(policy_throughput_zero.pi_low[: scenario.K - 1] == 0.0)
        for k in range(scenario.K - 1):
            assert not np.any(policy_throughput_zero.actions[k] == Action.DECLARE_H1)

    def test_value_at_certain_busy(self, policy_throughput_zero, policy_throughput_default):
        # J_k(0) = -omega R_p at every stage
        for policy in (policy_throughput_zero, policy_throughput_default):
            np.testing.assert_allclose(policy.values[:, 0], -0.5, atol=1e-8)

    def test_value_below_stop_costs(self, scenario, policy_throughput_default):
        from ordfuse.dp_policy import _stage_stop_costs

        for k in range(1, scenario.K + 1):
            s0, s1 = _stage_stop_costs(k, policy_throughput_default.grid,
                                       policy_throughput_default.cost_model, scenario)
            row = policy_throughput_default.values[k - 1]
            assert np.all(row <= np.minimum(s0, s1) + 1e-12)

    def test_concavity_throughput(self, policy_throughput_zero, policy_throughput_default):
        assert concavity_check(policy_throughput_zero)
        assert concavity_check(policy_throughput_default)

    def test_concavity_of_affine_minimum(self, policy_error_min):
        # the terminal row is the minimum of two affine functions
        terminal_only = PolicyTable(
            grid=policy_error_min.grid,
            values=policy_error_min.values[-1:],
            actions=policy_error_min.actions[-1:],
            pi_low=policy_error_min.pi_low[-1:],
            pi_high=policy_error_min.pi_high[-1:],
            cost_model=policy_error_min.cost_model,
            scenario=replace(policy_error_min.scenario, K=1),
        )
        assert concavity_check(terminal_only)

    def test_quadrature_failure_raises_solver_error(self, scenario, monkeypatch):
        import ordfuse.dp_policy as dp

        def starved_edges(ens, per_segment):
            ranges = [law.effective_range(1e-12) for law in ens.laws]
            lo = min(r[0] for r in ranges)
            hi = max(r[1] for r in ranges)
            return np.array([lo, 0.0, hi])

        monkeypatch.setattr(dp, "_quadrature_edges", starved_edges)
        with pytest.raises(dp.SolverError, match="node masses"):
            solve_backward(scenario, CostModel.error_min())

    def test_concavity_negative_control(self, policy_throughput_zero):
        corrupted = PolicyTable(
            grid=policy_throughput_zero.grid,
            values=policy_throughput_zero.values.copy(),
            actions=policy_throughput_zero.actions,
            pi_low=policy_throughput_zero.pi_low,
            pi_high=policy_throughput_zero.pi_high,
            cost_model=policy_throughput_zero.cost_model,
            scenario=policy_throughput_zero.scenario,
        )
        span = corrupted.values[3].max() - corrupted.values[3].min()
        corrupted.values[3, 500] += 1e-3 * span
        assert not concavity_check(corrupted)

    def test_grid_refinement_stability(self, monkeypatch, scenario):
        cm = CostModel.throughput(c=0.0001)
        coarse = solve_backward(scenario, cm)
        monkeypatch.setattr(dp, "_GRID_SIZE", 2001)
        fine = solve_backward(scenario, cm)
        for k in range(scenario.K):
            for coarse_thr, fine_thr in (
                (coarse.pi_low[k], fine.pi_low[k]),
                (coarse.pi_high[k], fine.pi_high[k]),
            ):
                idx = np.searchsorted(coarse.grid, coarse_thr)
                lo = coarse.grid[max(idx - 2, 0)]
                hi = coarse.grid[min(idx + 2, len(coarse.grid) - 1)]
                assert lo - 1e-12 <= fine_thr <= hi + 1e-12

    def test_error_min_c0_never_stops_early(self, policy_error_min_free, scenario):
        early = policy_error_min_free.actions[: scenario.K - 1]
        interior = early[:, 1:-1]
        assert np.all(interior == Action.CONTINUE)


# the dp benchmark's non-identical scenario: sigma2_s 1.0, 1.2, ..., 4.0
_M16 = {"M": 16, "sigma2_s": tuple(round(1.0 + 0.2 * i, 1) for i in range(16))}


def _uniform_edges(ensemble, per_segment, halvings=0):
    """`per_segment` uniform edges in every segment between the breakpoints
    and the support ends, and `halvings` halvings of every segment's first
    panel toward its start: no sizing by width."""
    ranges = [law.effective_range(1e-12) for law in ensemble.laws]
    lo = min(r[0] for r in ranges)
    hi = max(r[1] for r in ranges)
    cuts = {0.0}.union(*({-law.shift, law.shift} for law in ensemble.laws))
    pts = [lo] + sorted(p for p in cuts if lo < p < hi) + [hi]
    pieces = []
    for p, q in zip(pts[:-1], pts[1:]):
        edges = np.linspace(p, q, per_segment)
        pieces += [p + (edges[1] - p) * 0.5 ** np.arange(halvings, 0, -1), edges]
    return np.unique(np.concatenate(pieces))


class TestQuadratureLayout:
    @pytest.mark.parametrize(
        "overrides, n_nodes",
        [
            # 8 halvings at -shift, 23 panels in each of four segments
            ({}, 1600),
            # 40 halvings at -shift and 8 at +shift
            ({"N": 1}, 2240),
            # five segments, none graded
            ({"measurement_model": MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
              "mu0": (-1.0,) * 10, "mu1": (1.0,) * 10}, 1840),
            # shift 320: the left tail is narrower than the shift
            ({"N": 40, "measurement_model": MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
              "mu0": (-2.0,) * 10, "mu1": (2.0,) * 10}, 1840),
        ],
        ids=["energy", "energy-N1", "shift", "shift-320"],
    )
    def test_identical_sensor_node_count(self, overrides, n_nodes):
        # identical sensors keep the layout of one panel count per segment
        nodes, *_ = dp._quadrature_rank_densities(default_scenario(**overrides))
        assert nodes.size == n_nodes

    @pytest.mark.parametrize("overrides", [{}, {"N": 1}], ids=["energy", "energy-N1"])
    def test_identical_sensor_values_converge(self, monkeypatch, overrides):
        """The solve's values lie within 1e-5 of a solve on an independent
        layout: 16 times the uniform edges a segment, and 40 halvings at
        every segment start. That layout is itself within 6e-9 (N=3) and
        5e-8 (N=1) of one with 64 times the edges."""
        cfg = default_scenario(**overrides)
        cost_model = CostModel.error_min(c=0.0001)
        solved = solve_backward(cfg, cost_model)
        monkeypatch.setattr(dp, "_quadrature_edges", lambda ens, n: _uniform_edges(ens, 16 * n, halvings=40))
        reference = solve_backward(cfg, cost_model)
        assert np.abs(solved.values - reference.values).max() <= 1e-5

    @pytest.mark.parametrize("per_segment", [24, 48])
    def test_no_panel_of_zero_width(self, non_identical, per_segment):
        # the geometric tail edges end exactly on their segment's end, so no
        # edge lands an ulp from a breakpoint
        configs = (default_scenario(), default_scenario(N=1), default_scenario(**_M16), non_identical[0])
        for cfg in configs:
            edges = dp._quadrature_edges(SensorEnsemble.from_config(cfg), per_segment)
            assert np.all(np.diff(edges) > 4.0 * np.spacing(np.abs(edges[1:])))

    def test_distinct_edges_bit_equal_to_unique(self, monkeypatch, non_identical):
        # the sort-and-mask dedup returns `np.unique`'s array bit for bit on
        # the edge layouts of the solver's scenarios, zero's sign included:
        # every layout has 0.0 as an edge, more than once. Given both signed
        # zeros, `np.unique` keeps the one its hash table met first, which
        # is not always the first in input order, so that case is pinned to
        # the stable sort's rule alone.
        def bits(a):
            return a.view(np.int64).tolist()

        seen = []
        real = dp._sorted_distinct
        monkeypatch.setattr(dp, "_sorted_distinct", lambda a: seen.append(a) or real(a))
        configs = (default_scenario(), default_scenario(N=1), default_scenario(**_M16), non_identical[0],
                   default_scenario(measurement_model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
                                    mu0=(-1.0,) * 10, mu1=(1.0,) * 10))
        for cfg in configs:
            for per_segment in (24, 48):
                dp._quadrature_edges(SensorEnsemble.from_config(cfg), per_segment)
        assert len(seen) == 2 * len(configs)
        for a in seen:
            assert np.count_nonzero(a == 0.0) > 1
            assert bits(real(a)) == bits(np.unique(a))
        assert bits(real(np.array([2.0, -0.0, 0.0, -0.0]))) == bits(np.array([-0.0, 2.0]))
        assert bits(real(np.array([2.0, 0.0, -0.0, 0.0]))) == bits(np.array([0.0, 2.0]))

    def test_gauss_rule_bit_equal_to_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(16)
        assert dp._GAUSS_NODES.tolist() == x.tolist()
        assert dp._GAUSS_WEIGHTS.tolist() == w.tolist()

    def test_non_identical_masses_and_node_budget(self, non_identical):
        for cfg, budget in ((default_scenario(**_M16), 5000), (non_identical[0], 4000)):
            nodes, _, _, _, mass_error = dp._quadrature_rank_densities(cfg)
            assert mass_error <= 1e-8
            assert nodes.size <= budget

    @pytest.mark.parametrize(
        "n_samples, sigma2_s",
        [
            (3, np.geomspace(1e-3, 1e4, 6)),
            (1, np.geomspace(0.1, 1e3, 6)),
            (1, np.geomspace(100, 1e4, 6)),
            (10, (1e-4, 100.0)),
        ],
        ids=["N3-snr-1e-3-to-1e4", "N1-snr-0.1-to-1e3", "N1-snr-1e2-to-1e4", "N10-M2-snr-1e-4-to-1e2"],
    )
    def test_signal_powers_decades_apart_converge(self, n_samples, sigma2_s):
        # the weakest laws' bulk ends decades below the strongest law's tail;
        # at N=1 the strong laws' H0 mass above +shift sits within a few
        # units of it, in a tail piece hundreds of units wide; at N=10 the
        # weak law's last 1e-6 lies within 0.002 of its own 1e-6 point, in a
        # segment 23 units wide
        m = len(sigma2_s)
        cfg = default_scenario(M=m, K=min(m, 4), N=n_samples, sigma2_s=tuple(sigma2_s))
        *_, mass_error = dp._quadrature_rank_densities(cfg)
        assert mass_error <= 1e-6

    def test_non_identical_decides_as_uniform_layout(self, monkeypatch, non_identical):
        """Width-sized, graded panels give the actions and thresholds of a
        solve on uniform panels with more nodes."""
        for cfg in (default_scenario(**_M16), non_identical[0]):
            for cost_model in (CostModel.error_min(c=0.0001), CostModel.throughput(c=0.0001)):
                sized = solve_backward(cfg, cost_model)
                with monkeypatch.context() as m:
                    m.setattr(dp, "_quadrature_edges", _uniform_edges)
                    uniform = solve_backward(cfg, cost_model)
                assert uniform.diagnostics["nodes"] > sized.diagnostics["nodes"]
                assert np.array_equal(sized.actions, uniform.actions)
                assert np.array_equal(sized.pi_low, uniform.pi_low)
                assert np.array_equal(sized.pi_high, uniform.pi_high)
                np.testing.assert_allclose(sized.values, uniform.values, rtol=0, atol=1e-5)


class TestLayoutCache:
    """Solves on equal sensors and K share one rank-density layout, whatever
    their cost models; the solves that look inside a layout clear the cache
    first."""

    def test_equal_scenario_reuses_layout(self, monkeypatch, non_identical):
        calls = []
        real = dp.ranked_pdfs
        monkeypatch.setattr(dp, "ranked_pdfs", lambda *args: calls.append(args[0]) or real(*args))
        dp._rank_density_layout.cache_clear()
        solve_backward(non_identical[0], CostModel.error_min(c=0.0001))
        assert len(calls) == 2
        # an equal scenario, not the same object, under another cost model
        cfg = default_scenario(M=6, sigma2_s=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5))
        assert cfg == non_identical[0] and cfg is not non_identical[0]
        cost_model = CostModel.throughput(c=0.0001)
        cached = solve_backward(cfg, cost_model)
        assert len(calls) == 2
        dp._rank_density_layout.cache_clear()
        fresh = solve_backward(cfg, cost_model)
        assert len(calls) == 4
        for name in ("values", "actions", "pi_low", "pi_high"):
            assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert cached.diagnostics == fresh.diagnostics

    def test_patched_edges_get_their_own_layout(self, monkeypatch):
        cfg = default_scenario()
        assert solve_backward(cfg, CostModel.error_min()).diagnostics["nodes"] == 1600
        layouts = []
        monkeypatch.setattr(dp, "_quadrature_edges",
                            lambda ens, n: layouts.append(_uniform_edges(ens, 2 * n)) or layouts[-1])
        patched = solve_backward(cfg, CostModel.error_min())
        assert patched.diagnostics["nodes"] == 16 * (layouts[-1].size - 1) != 1600

    def test_holds_at_most_its_bound(self):
        dp._rank_density_layout.cache_clear()
        powers = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
        assert len(powers) > dp._LAYOUT_CACHE_SIZE
        for power in powers:
            dp._quadrature_rank_densities(default_scenario(M=4, K=3, sigma2_s=(power,) * 4))
        info = dp._rank_density_layout.cache_info()
        assert info.misses == len(powers)
        assert info.currsize == dp._LAYOUT_CACHE_SIZE

    def test_cached_arrays_reject_writes(self):
        nodes, weights, f0, f1, _ = dp._quadrature_rank_densities(default_scenario())
        for array in (nodes, weights, f0, f1):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def _assert_matches_dense(monkeypatch, cfg, cost_model, grid_size=1001):
    """Solve with `reference.dense_continuation` as the continuation, and with
    the runtime one, on a belief grid of `grid_size` points.

    At every stage of the oracle's solve the runtime continuation is
    evaluated on the same inputs. The two solves must give the same actions
    and thresholds bit for bit, and values and continuations within 1e-13
    (observed: about 1e-15).
    """
    gaps = [0.0]

    def checked(*args):
        dense = dense_continuation(*args)
        gaps.append(float(np.abs(_continuation(*args) - dense).max()))
        return dense

    monkeypatch.setattr(dp, "_GRID_SIZE", grid_size)
    with monkeypatch.context() as m:
        m.setattr(dp, "_continuation", checked)
        dense = solve_backward(cfg, cost_model)
    fast = solve_backward(cfg, cost_model)
    assert max(gaps) <= 1e-13
    np.testing.assert_allclose(fast.values, dense.values, rtol=0, atol=1e-13)
    assert np.array_equal(fast.actions, dense.actions)
    assert np.array_equal(fast.pi_low, dense.pi_low)
    assert np.array_equal(fast.pi_high, dense.pi_high)


class TestContinuation:
    def test_matches_dense_reference(self, monkeypatch, scenario, non_identical):
        """The log-odds correlation computes the dense oracle's interpolant
        exactly, so solves of the identical M=10 and non-identical M=6
        sensors, under both cost modes and on grids of 1001, 129 and 225
        points, differ from the oracle's only by rounding."""
        for cfg in (scenario, non_identical[0]):
            for cost_model in (CostModel.error_min(c=0.0001), CostModel.throughput(c=0.0001)):
                for grid_size in (1001, 129, 225):
                    _assert_matches_dense(monkeypatch, cfg, cost_model, grid_size)

    @pytest.mark.parametrize("grid_size", [129, 225, 1001, 2001])
    def test_clipped_shifts_match_dense_reference(self, monkeypatch, grid_size):
        """Nodes that shift the log-odds by up to and past +-(G - 2) cells, so
        that their bins sit at both clipped ends of the taps, among them
        nodes with f0 = 0 or f1 = 0: the FFT convolution keeps only outputs
        that no circular wrap reaches, and matches the dense oracle."""
        monkeypatch.setattr(dp, "_GRID_SIZE", grid_size)
        grid = _belief_grid()
        g = grid.size
        step = 2.0 * dp._LOG_ODDS_SPAN / (g - 3)
        rng = np.random.default_rng(grid_size)
        ends = [-(g + 5), -(g - 2), -(g - 3), -1, 0, 1, g - 3, g - 2, g + 5]
        cells = np.concatenate([ends, rng.integers(-(g + 5), g + 6, 300)])
        llr = (cells + rng.uniform(0.2, 0.8, cells.size)) * step
        scale = rng.uniform(0.1, 1.0, cells.size)
        f0 = scale * np.exp(np.minimum(llr, 0.0))
        f1 = scale * np.exp(-np.maximum(llr, 0.0))
        f0 = np.concatenate([f0, [0.0, 0.7, 0.0]])
        f1 = np.concatenate([f1, [0.4, 0.0, 0.0]])
        weights = rng.uniform(0.0, 2.0 / f0.size, f0.size)
        # a kinked line with distinct end values, so a wrapped tap would show
        j_next = np.minimum(0.2 + 0.6 * grid, 0.9 - 0.6 * grid)
        fast = _continuation(grid, j_next, f0, f1, weights)
        dense = dense_continuation(grid, j_next, f0, f1, weights)
        assert np.abs(fast - dense).max() <= 1e-13

    def test_values_reproducible_across_blas_threads(self):
        """Solve values have the same bytes with one and two BLAS threads: the
        continuation's FFT and the quadrature's mass matvec `f0 @ weights`
        must not depend on the thread count."""
        script = (
            "import hashlib\n"
            "from ordfuse.defaults import default_scenario\n"
            "from ordfuse.dp_policy import CostModel, solve_backward\n"
            "for cfg in (default_scenario(),\n"
            "            default_scenario(M=6, sigma2_s=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5))):\n"
            "    policy = solve_backward(cfg, CostModel.error_min(c=0.0001))\n"
            "    print(hashlib.sha256(policy.values.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env.update({var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(ordfuse.__file__).parents[1]), env.get("PYTHONPATH", "")]
            )
            done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True, timeout=300)
            digests.append(done.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    def test_peak_memory_is_bounded(self):
        # 13,184 nodes on the 1001-point grid, more than any solve the tests
        # run, where one dense grid x node array alone is about 105 MB
        rng = np.random.default_rng(71)
        n_nodes = 13_184
        grid = _belief_grid()
        f0, f1 = rng.uniform(0.0, 2.0, (2, n_nodes))
        weights = rng.uniform(0.0, 1e-3, n_nodes)
        j_next = np.minimum(grid, 1.0 - grid)
        tracemalloc.start()
        try:
            _continuation(grid, j_next, f0, f1, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


_FRAGILE = pytest.mark.parametrize(
    "overrides, grid_size",
    [
        ({"N": 1}, 1001),
        ({"sigma2_s": (0.05,) * 10}, 1001),
        ({"sigma2_s": (50.0,) * 10}, 1001),
        ({"pi0": 0.01}, 1001),
        ({"pi0": 0.99}, 1001),
        ({"K": 1}, 1001),
        ({"M": 8, "K": 8}, 1001),
        ({"M": 100, "K": 12, "tau": 0.05}, 129),
        ({"measurement_model": MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
          "mu0": (-1.0,) * 10, "mu1": (1.0,) * 10}, 1001),
    ],
    ids=["N1", "snr-low", "snr-high", "pi0-low", "pi0-high", "K1", "M8K8", "M100K12", "shift"],
)


class TestFragileRegimes:
    """The runtime continuation against the dense oracle at the edges of the
    parameter space, under both cost modes. Non-identical M=6 sensors are
    covered by `TestContinuation.test_matches_dense_reference`."""

    @pytest.mark.parametrize(
        "cost_model",
        [CostModel.error_min(c=0.0001), CostModel.throughput(c=0.0001)],
        ids=["error-min", "throughput"],
    )
    @_FRAGILE
    def test_solve_matches_dense_oracle(self, monkeypatch, overrides, grid_size, cost_model):
        cfg = default_scenario(**overrides)
        _assert_matches_dense(monkeypatch, cfg, cost_model, grid_size)

    @pytest.mark.parametrize(
        "cost_model",
        [CostModel.throughput(c=0.0),
         CostModel.throughput(omega=0.2, c=0.0, R_s=3.0, eta_p=0.7, delta_s=0.1)],
        ids=["default", "non-default"],
    )
    @_FRAGILE
    def test_zero_cost_throughput_never_declares_busy_early(
        self, monkeypatch, overrides, grid_size, cost_model
    ):
        # the one-threshold solve is this solve under its label, so this is
        # what makes it one-threshold
        monkeypatch.setattr(dp, "_GRID_SIZE", grid_size)
        cfg = default_scenario(**overrides)
        policy = solve_backward(cfg, cost_model)
        k = cfg.K
        assert not np.any(policy.actions[: k - 1] == Action.DECLARE_H1)
        assert np.all(policy.pi_low[: k - 1] == 0.0)


class TestOneThreshold:
    def test_requires_zero_cost_model(self, scenario):
        with pytest.raises(ValueError, match="one-threshold"):
            solve_one_threshold(scenario, CostModel.throughput(c=0.0001))
        with pytest.raises(ValueError, match="one-threshold"):
            solve_one_threshold(scenario, CostModel.error_min(c=0.0))

    def test_no_busy_region_before_horizon(self, policy_one_threshold, scenario):
        early = policy_one_threshold.actions[: scenario.K - 1]
        assert not np.any(early == Action.DECLARE_H1)
        assert np.all(policy_one_threshold.pi_low[: scenario.K - 1] == 0.0)

    def test_certain_free_declares_free(self, scenario, zero_cost_throughput):
        policy = solve_one_threshold(replace(scenario, pi0=1.0), zero_cost_throughput)
        declared, stage = run_policy_batch(np.full((1, 8), 0.5), policy)
        assert declared[0] == H0
        assert stage[0] == 1

    def test_threshold_shape_matches_zero_lower_threshold(self, policy_one_threshold):
        # free-side thresholds strictly inside (0, 1); busy side pinned at 0
        assert np.all(policy_one_threshold.pi_high[:-1] < 1.0)
        assert np.all(policy_one_threshold.pi_high[:-1] > 0.5)


class TestRunPolicy:
    def test_large_cost_stops_at_stage_one(self, scenario):
        policy = solve_backward(scenario, CostModel.error_min(c=0.5))
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(47), 100)
        _, stage = run_policy_batch(ordered, policy)
        assert np.all(stage == 1)

    def test_certain_free_prior(self, scenario):
        policy = solve_backward(replace(scenario, pi0=1.0), CostModel.throughput(c=0.0001))
        declared, stage = run_policy_batch(np.ones((1, 8)), policy)
        assert declared[0] == H0
        assert stage[0] == 1
        assert scenario.sensing_time(int(stage[0])) == pytest.approx(scenario.tau_N + scenario.tau)

    @staticmethod
    def _assert_single_matches_batch(cfg, policy, n_slots=50):
        # each slot run alone, as a one-row batch, decides as it does in the batch
        _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(53), n_slots)
        declared, stage = run_policy_batch(ordered, policy)
        for i in range(n_slots):
            one_declared, one_stage = run_policy_batch(ordered[i : i + 1], policy)
            assert one_declared[0] == declared[i]
            assert one_stage[0] == stage[i]

    def test_single_and_batch_agree(self, scenario, policy_error_min):
        self._assert_single_matches_batch(scenario, policy_error_min)

    def test_single_and_batch_agree_non_identical(self, non_identical):
        # enough slots that some stop at every stage, so the batch drops
        # slots in many patterns while the survivors' beliefs must not shift
        self._assert_single_matches_batch(*non_identical, n_slots=256)

    def test_edge_batches_match_one_row_calls(self, scenario, policy_error_min):
        # batches in which no slot stops at stage 1, every slot stops there,
        # and a single slot continues past it: the executor's split then
        # takes empty and one-element index arrays
        n = 100
        _, _, ordered, _ = draw_slots(scenario, np.random.default_rng(79), n)
        alone = [run_policy_batch(ordered[i : i + 1], policy_error_min) for i in range(n)]
        first = np.array([stage[0] == 1 for _, stage in alone])
        stops, goes = np.flatnonzero(first), np.flatnonzero(~first)
        assert stops.size >= 4 and goes.size >= 4
        for rows in (goes[:4], stops[:4], np.append(stops[:4], goes[0])):
            declared, stage = run_policy_batch(ordered[rows], policy_error_min)
            assert declared.tolist() == [alone[i][0][0] for i in rows]
            assert stage.tolist() == [alone[i][1][0] for i in rows]

    def test_report_outside_support_raises(self, policy_error_min):
        # -5.0 lies below the energy law's support, so no rank density is positive
        with pytest.raises(PosteriorUndefined):
            run_policy_batch(np.full((1, 8), -5.0), policy_error_min)

    def test_report_outside_support_after_stopping_is_ignored(self, policy_error_min):
        # the first slot declares busy on its first report; its later reports
        # lie outside the support but are never read
        _, _, ordered, _ = draw_slots(default_scenario(), np.random.default_rng(67), 1)
        slots = np.vstack([[12.0] + [-5.0] * 7, ordered[0, :8]])
        declared, stage = run_policy_batch(slots, policy_error_min)
        assert declared[0] == 1 and stage[0] == 1
        assert stage[1] >= 1

    def test_average_stage_decreases_with_m(self):
        # more sensors concentrate the top-ranked evidence; probes shrink toward one
        cm = CostModel.error_min(c=0.0001)
        means = []
        for m in (10, 20, 30):
            cfg = default_scenario(M=m)
            policy = solve_backward(cfg, cm)
            _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(59), 20_000)
            _, stage = run_policy_batch(ordered, policy)
            means.append(stage.mean())
        assert means[0] > means[1] > means[2]
        assert means[2] < 2.5


class TestSerialization:
    def test_round_trip(self, policy_throughput_default, tmp_path):
        path = tmp_path / "policy.json"
        policy_throughput_default.save(path)
        loaded = PolicyTable.load(path)
        resaved = tmp_path / "resaved.json"
        loaded.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()
        np.testing.assert_array_equal(loaded.grid, policy_throughput_default.grid)
        np.testing.assert_array_equal(loaded.values, policy_throughput_default.values)
        np.testing.assert_array_equal(loaded.actions, policy_throughput_default.actions)
        np.testing.assert_array_equal(loaded.pi_low, policy_throughput_default.pi_low)
        assert loaded.cost_model == policy_throughput_default.cost_model
        assert loaded.kind == policy_throughput_default.kind
        assert loaded.scenario == policy_throughput_default.scenario

        # every cost field and every scenario field survives the file, not
        # only the ones the fixture sets: a shift-in-mean scenario with
        # per-sensor values, solved under a cost that sets every field
        cm = CostModel(
            mode=CostMode.WEIGHTED_THROUGHPUT, omega=0.3, R_p=2.0, R_s=1.5, eta_p=0.9,
            eta_s=0.8, delta_p=0.1, delta_s=0.2, e_pt=0.01, e_st=0.02, P_col=0.3,
            L_f=0.2, L_b=0.1, c=0.001,
        )
        defaults = CostModel(mode=CostMode.ERROR_MIN)
        assert all(getattr(cm, f.name) != getattr(defaults, f.name) for f in fields(CostModel))
        sc = ScenarioConfig(
            M=4, N=2, K=3, tau_s=2.0, tau_N=0.3, tau=0.2, pi0=0.4, sigma2=1.5,
            sigma2_s=(1.0, 2.5, 3.0, 4.0),
            measurement_model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
            mu0=(-0.5, -1.0, 0.0, 0.25), mu1=(0.75, 1.0, 2.0, 1.5),
        )
        base = default_scenario()
        assert all(getattr(sc, f.name) != getattr(base, f.name) for f in fields(ScenarioConfig))
        solved = solve_backward(sc, cm)
        solved.save(path)
        loaded = PolicyTable.load(path)
        assert loaded.cost_model == cm
        assert loaded.scenario == sc
        assert loaded.pi_high.tobytes() == solved.pi_high.tobytes()

    def test_saved_file_is_an_indented_record(self, policy_error_min, tmp_path):
        path = tmp_path / "policy.json"
        policy_error_min.save(path)
        text = path.read_text(encoding="utf-8")
        stored = json.loads(text)
        assert text == json.dumps(stored, indent=2)
        assert list(stored) == ["format", "version", "kind", "scenario", "cost_model",
                                "pi_low", "pi_high", "diagnostics"]
        assert (stored["format"], stored["version"]) == ("ordfuse-policy", 4)
        assert stored["pi_low"] == policy_error_min.pi_low.tolist()
        assert stored["pi_high"] == policy_error_min.pi_high.tolist()
        assert len(text) < 2048

    def test_round_trip_non_identical(self, non_identical, tmp_path):
        # the re-solved arrays equal the saved policy's bit for bit, and the
        # file resaves to its bytes
        policy = non_identical[1]
        path = tmp_path / "policy.json"
        policy.save(path)
        loaded = PolicyTable.load(path)
        resaved = tmp_path / "resaved.json"
        loaded.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()
        for name in ("grid", "values", "actions", "pi_low", "pi_high"):
            got, want = getattr(loaded, name), getattr(policy, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert got.flags.writeable, name
        assert loaded.scenario == policy.scenario
        assert loaded.diagnostics == policy.diagnostics

    @pytest.mark.parametrize("which", ["identical", "non-identical"])
    def test_loaded_policy_decides_as_solved(self, which, policy_error_min, non_identical, tmp_path):
        policy = policy_error_min if which == "identical" else non_identical[1]
        path = tmp_path / "policy.json"
        policy.save(path)
        _, _, ordered, _ = draw_slots(policy.scenario, np.random.default_rng(73), 2000)
        declared, stage = run_policy_batch(ordered, PolicyTable.load(path))
        expected_declared, expected_stage = run_policy_batch(ordered, policy)
        np.testing.assert_array_equal(declared, expected_declared)
        np.testing.assert_array_equal(stage, expected_stage)

    def test_diagnostics_round_trip(self, policy_throughput_default, tmp_path):
        path = tmp_path / "policy.json"
        policy_throughput_default.save(path)
        loaded = PolicyTable.load(path)
        resaved = tmp_path / "resaved.json"
        loaded.save(resaved)
        assert resaved.read_bytes() == path.read_bytes()
        assert loaded.diagnostics == policy_throughput_default.diagnostics
        assert set(loaded.diagnostics) == {"quadrature_mass_error", "nodes", "grid_size"}
        assert loaded.diagnostics["nodes"] == 1600
        assert loaded.diagnostics["grid_size"] == policy_throughput_default.grid.size == 1001
        assert 0.0 <= loaded.diagnostics["quadrature_mass_error"] <= 1e-6
        assert concavity_check(loaded)

    def test_rejects_version_1_file(self, policy_error_min, tmp_path):
        # version 1 kept K and the timing but no sensors or prior
        path = tmp_path / "policy.json"
        policy_error_min.save(path)
        payload = json.loads(path.read_text())
        del payload["scenario"]
        payload.update(version=1, k_max=8, timing=[1.0, 0.2, 0.1])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="not a recognized policy file"):
            PolicyTable.load(path)

    def test_rejects_version_2_file(self, policy_error_min, tmp_path):
        # version 2 wrote the arrays as nested lists of decimal text
        path = tmp_path / "policy.json"
        policy_error_min.save(path)
        payload = json.loads(path.read_text())
        payload.update(version=2, grid=policy_error_min.grid.tolist(),
                       values=policy_error_min.values.tolist(),
                       actions=policy_error_min.actions.astype(int).tolist())
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="not a recognized policy file"):
            PolicyTable.load(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.update(pi_high=[0.5] + r["pi_high"][1:]), r"\['pi_high'\] differ"),
            (lambda r: r.update(pi_low=r["pi_low"][:-1]), r"\['pi_low'\] differ"),
            (lambda r: r["scenario"].update(K=3), r"\['diagnostics', 'pi_high', 'pi_low'\] differ"),
            (lambda r: r["scenario"].update(sigma2_s=[4.0] + r["scenario"]["sigma2_s"][1:]),
             r"\['diagnostics', 'pi_high', 'pi_low'\] differ"),
            (lambda r: r.update(kind="three-threshold"), "unknown policy kind 'three-threshold'"),
            # the error-min cost fails the one-threshold solve's cost rule
            (lambda r: r.update(kind="one-threshold"), "one-threshold solve requires"),
            # version 3 also stored the grid, values and actions, in base64
            (lambda r: r.update(version=3), "not a recognized policy file"),
        ],
        ids=["edited-pi-high", "short-pi-low", "edited-K", "edited-sigma2_s", "unknown-kind",
             "one-threshold-costly", "version-3"],
    )
    def test_rejects_edited_record(self, policy_error_min, tmp_path, edit, message):
        path = tmp_path / "policy.json"
        policy_error_min.save(path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            PolicyTable.load(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a recognized"):
            PolicyTable.load(path)


class TestLlrEquivalent:
    def test_prior_midpoint(self):
        # belief equal to the prior (pi0 = 0.5: log prior ratio 0) maps to
        # zero accumulated evidence
        assert accumulated_llr_equivalent(0.5, 0.0) == pytest.approx(0.0)

    def test_degenerate_ends(self):
        assert accumulated_llr_equivalent(0.0, 0.0) == math.inf
        assert accumulated_llr_equivalent(1.0, 0.0) == -math.inf

    def test_monotone_decreasing_in_belief(self):
        pis = np.linspace(0.01, 0.99, 25)
        values = [accumulated_llr_equivalent(p, 0.0) for p in pis]
        assert all(a > b for a, b in zip(values, values[1:]))
