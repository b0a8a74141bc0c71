"""Monte Carlo engine: run a detector over simulated slots and account for
error rate, probing depth and normalized throughputs.

Chunks use counter-derived child streams of the run seed, so results are
reproducible for a given seed and merge associatively across chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bs_thresholds import decide_batch, map_block_batch
from .dp_policy import CostModel, run_policy_batch, solve_backward, solve_one_threshold
from .fading_link import FadingConfig, effective_config, participation_prob
from .llr_distributions import law_for_sensor
from .order_stats import SensorEnsemble
from .sensing_model import ScenarioConfig, draw_slots

SIM_CHUNK = 8192  # fixed partition size; results depend only on (config, seed)


@dataclass(frozen=True)
class SimMetrics:
    trials: int
    p_error: float
    avg_stage: float
    norm_throughput_secondary: float
    norm_throughput_primary: float
    stage_histogram: tuple[int, ...]  # index k = slots decided after k reports; 0 = prior-only
    decision_confusion: tuple[tuple[int, int], tuple[int, int]]  # [truth][declared]

    @property
    def p_error_stderr(self) -> float:
        """Binomial standard error of `p_error` over the run's slots."""
        return (self.p_error * (1 - self.p_error) / self.trials) ** 0.5


def prior_only(pi0: float):
    """Detector that declares the prior MAP hypothesis without probing (ties go to busy)."""
    declared = 0 if pi0 > 0.5 else 1

    def decide(ordered_values):
        n = np.asarray(ordered_values).shape[0]
        return np.full(n, declared, dtype=np.int8), np.zeros(n, dtype=np.int64)

    return decide


DETECTOR_KINDS = ("bs", "block-map", "dp", "one-threshold", "prior-only")
# detectors that read a single law and so need identical sensors
IDENTICAL_ONLY_KINDS = ("bs", "block-map")


def make_detector(kind: str, config: ScenarioConfig, cost_model: CostModel | None = None):
    """A detector: a callable that maps (n_slots, >=K) ordered LLRs to
    (declared, stage) arrays, declared in {0, 1} and stage in 0..K.

    The callables look the batch functions up when called, so a wrapper
    installed on the module (as the benchmark's tracer does) sees every call.
    """
    if kind in IDENTICAL_ONLY_KINDS:
        if not SensorEnsemble.from_config(config).is_identical:
            raise ValueError(f"detector '{kind}' requires identical sensors")
        law = law_for_sensor(config, 0)
        if kind == "bs":
            return lambda ordered_values: decide_batch(ordered_values, config, law)

        def block_map(ordered_values):
            # one-shot MAP on the top-K reports; always probes K sensors
            declared = map_block_batch(ordered_values, config, law)
            return declared, np.full(declared.shape, config.K, dtype=np.int64)

        return block_map
    if kind in ("dp", "one-threshold"):
        if cost_model is None:
            raise ValueError(f"{kind} detector needs a cost model")
        solve = solve_backward if kind == "dp" else solve_one_threshold
        policy = solve(config, cost_model)
        return lambda ordered_values: run_policy_batch(ordered_values, policy)
    if kind == "prior-only":
        return prior_only(config.pi0)
    raise ValueError(f"unknown detector kind: {kind}")


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _chunks(config: ScenarioConfig, seed: int, total: int, first_key: int = 0):
    """Draw `total` slots in SIM_CHUNK-sized chunks, each from its own child
    stream; yields (truth, ordered_values) per chunk."""
    for idx, offset in enumerate(range(0, total, SIM_CHUNK)):
        rng = _chunk_rng(seed, first_key + idx)
        truth, _, ordered_values, _ = draw_slots(config, rng, min(SIM_CHUNK, total - offset))
        yield truth, ordered_values


class _Accumulator:
    def __init__(self, k_max: int, cost_model: CostModel | None):
        self.k_max = k_max
        self.cost_model = cost_model if cost_model is not None else CostModel.throughput()
        self.trials = 0
        self.wrong = 0
        self.stage_sum = 0
        self.hist = np.zeros(k_max + 1, dtype=np.int64)
        self.confusion = np.zeros((2, 2), dtype=np.int64)
        self.thr_s = 0.0
        self.thr_p = 0.0

    def add(self, truth, declared, stage, config: ScenarioConfig):
        """Book one chunk. Each slot adds its success probability, the
        expectation of its transmission outcome given truth and decision."""
        cm = self.cost_model
        secondary_tx = declared == 0
        clean_s = secondary_tx & (truth == 0)
        collide_s = secondary_tx & (truth == 1)
        p_s = clean_s * cm.eta_s + collide_s * cm.delta_s
        silent_p = (truth == 1) & (declared == 1)
        collide_p = (truth == 1) & (declared == 0)
        p_p = silent_p * cm.eta_p + collide_p * cm.delta_p
        time_left = 1.0 - (config.tau_N + stage * config.tau) / config.tau_s
        self.trials += truth.shape[0]
        self.wrong += int(np.count_nonzero(truth != declared))
        self.stage_sum += int(stage.sum())
        self.hist += np.bincount(np.minimum(stage, self.k_max), minlength=self.k_max + 1)
        for t in (0, 1):
            for d in (0, 1):
                self.confusion[t, d] += int(np.count_nonzero((truth == t) & (declared == d)))
        self.thr_s += float(np.sum(p_s * cm.R_s * time_left))
        self.thr_p += float(np.sum(p_p * cm.R_p))

    def metrics(self) -> SimMetrics:
        q = self.trials
        return SimMetrics(
            trials=q,
            p_error=self.wrong / q,
            avg_stage=self.stage_sum / q,
            norm_throughput_secondary=self.thr_s / q,
            norm_throughput_primary=self.thr_p / q,
            stage_histogram=tuple(int(v) for v in self.hist),
            decision_confusion=tuple(tuple(int(v) for v in row) for row in self.confusion),
        )


def _simulate(config: ScenarioConfig, seed: int, total: int, columns, first_key: int = 0) -> None:
    """Stream each chunk of `total` slots through every (detector,
    accumulator) column, so all columns see the same slots and no chunk is
    kept."""
    if total < 1:
        raise ValueError("trials must be >= 1")
    for truth, ordered_values in _chunks(config, seed, total, first_key):
        for detector, acc in columns:
            declared, stage = detector(ordered_values)
            acc.add(truth, declared, stage, config)


def run_monte_carlo(
    config: ScenarioConfig,
    detector,
    trials: int,
    seed: int,
    cost_model: CostModel | None = None,
) -> SimMetrics:
    """Simulate `trials` slots through `detector` and aggregate the metrics:
    the one-column case of `sweep`'s chunk loop.

    `detector` is a callable as `make_detector` returns. `cost_model` only
    feeds the success probabilities and rates of the throughput bookkeeping,
    which books expectations and so draws nothing; defaults are deterministic
    successes.
    """
    acc = _Accumulator(config.K, cost_model)
    _simulate(config, seed, trials, [(detector, acc)])
    return acc.metrics()


SWEEP_AXES = ("M", "K", "c")


def _apply_axis(axis: str, value, config: ScenarioConfig) -> ScenarioConfig:
    """The scenario at one axis value; the c axis leaves it as it is."""
    if axis == "M":
        return config.with_sensors(int(value))
    if axis == "K":
        k = int(value)
        tau, tau_n = config.tau, config.tau_N
        if config.tau_s - tau_n - k * tau < 0:
            # keep the sampling window at two mini-slots and refit the slot
            tau = config.tau_s / (k + 2)
            tau_n = 2.0 * tau
        return replace(config, K=k, tau=tau, tau_N=tau_n)
    if axis == "c":
        return config
    raise ValueError(f"unknown sweep axis: {axis} (expected one of {SWEEP_AXES})")


def sweep(
    axis: str,
    values,
    config: ScenarioConfig,
    columns,
    trials: int,
    seed: int,
) -> list[tuple[float, tuple[SimMetrics, ...]]]:
    """At each axis value, one Monte Carlo run per (detector kind, cost
    model) column, in column order, on slots drawn once for that value and
    handed to every column; each column equals its own `run_monte_carlo`.
    Every value uses the same seed, so the slot randomness is common across
    values. The c axis sets c in every column's cost model."""
    values, columns = list(values), list(columns)
    if not values or not columns:
        raise ValueError("sweep needs at least one value and at least one column")
    if axis == "c" and any(cost_model is None for _, cost_model in columns):
        raise ValueError("sweep over c needs a cost model in every column")
    out = []
    for value in values:
        cfg = _apply_axis(axis, value, config)
        runs = []
        for kind, cost_model in columns:
            cm = replace(cost_model, c=float(value)) if axis == "c" else cost_model
            runs.append((make_detector(kind, cfg, cm), _Accumulator(cfg.K, cm)))
        _simulate(cfg, seed, trials, runs)
        out.append((value, tuple(acc.metrics() for _, acc in runs)))
    return out


def run_monte_carlo_fading(
    config: ScenarioConfig,
    fading: FadingConfig,
    detector_kind: str,
    trials: int,
    seed: int,
    cost_model: CostModel | None = None,
) -> SimMetrics:
    """Monte Carlo with the participant set redrawn every coherence period.

    Implemented for identical sensors. Every sensor has the same link, so
    the reduced scenario depends only on the participant count; periods are
    grouped by that count and each group runs vectorized.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not SensorEnsemble.from_config(config).is_identical:
        raise NotImplementedError("fading runs support identical sensors")
    delta = participation_prob(fading)

    n_periods = -(-trials // fading.T_c)
    rng_counts = _chunk_rng(seed, 0)
    counts = rng_counts.binomial(config.M, delta, size=n_periods)
    slots_per_period = np.full(n_periods, fading.T_c, dtype=np.int64)
    slots_per_period[-1] = trials - fading.T_c * (n_periods - 1)

    acc = _Accumulator(config.K, cost_model)
    for m_eff in np.flatnonzero(np.bincount(counts)).tolist():
        n_slots = int(slots_per_period[counts == m_eff].sum())
        if m_eff == 0:
            cfg = config
            detector = prior_only(config.pi0)
        else:
            cfg = effective_config(config, range(m_eff))
            detector = make_detector(detector_kind, cfg, cost_model)
        _simulate(cfg, seed, n_slots, [(detector, acc)], first_key=(1 + m_eff) * 1_000_000)
    return acc.metrics()
