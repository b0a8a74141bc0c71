"""Slot-level measurement model: primary activity, sensor samples, local LLRs,
and the magnitude-ordered transmission sequence."""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np


class Hypothesis(enum.IntEnum):
    H0 = 0  # channel free
    H1 = 1  # channel busy


class MeasurementModel(enum.Enum):
    ENERGY_CHI_SQUARE = "energy"
    SHIFT_IN_MEAN_GAUSSIAN = "shift-in-mean"


def record(config) -> dict | None:
    """A config dataclass as JSON-ready fields: enum members as their values,
    paths as text."""
    if config is None:
        return None
    return {
        k: v.value if isinstance(v, enum.Enum) else str(v) if isinstance(v, Path) else v
        for k, v in asdict(config).items()
    }


def _as_sensor_list(value, m: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * m
    out = tuple(float(v) for v in value)
    if len(out) != m:
        raise ValueError(f"{name} must have one entry per sensor (expected {m}, got {len(out)})")
    return out


def _require_finite(values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError("every value must be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    """Slot timing, prior, sensor count and per-sensor signal powers.

    Every value is finite. Timing must satisfy tau_s > 0, tau_N >= 0,
    tau >= 0 and tau_s - tau_N - K*tau >= 0, so that K reporting mini-slots
    fit in the slot after the sampling window. Under the energy model each
    sensor's SNR must leave 1 + SNR above 1, or the two hypotheses coincide
    in floating point.
    """

    M: int
    N: int
    K: int
    tau_s: float
    tau_N: float
    tau: float
    pi0: float
    sigma2: float
    sigma2_s: tuple[float, ...]
    measurement_model: MeasurementModel = MeasurementModel.ENERGY_CHI_SQUARE
    mu0: tuple[float, ...] | None = None  # shift-in-mean only
    mu1: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma2_s", _as_sensor_list(self.sigma2_s, self.M, "sigma2_s"))
        if self.M < self.K or self.K < 1:
            raise ValueError("sensor counts must satisfy M >= K >= 1")
        if self.N < 1:
            raise ValueError("samples per slot must satisfy N >= 1")
        _require_finite((self.tau_s, self.tau_N, self.tau, self.pi0, self.sigma2, *self.sigma2_s))
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError("prior pi0 must lie in [0, 1]")
        if self.sigma2 <= 0 or any(s <= 0 for s in self.sigma2_s):
            raise ValueError("all variances must be > 0")
        if not (self.tau_s > 0 and self.tau_N >= 0 and self.tau >= 0):
            raise ValueError("timing must satisfy tau_s > 0, tau_N >= 0 and tau >= 0")
        if self.tau_s - self.tau_N - self.K * self.tau < -1e-12:
            raise ValueError("timing must satisfy tau_s - tau_N - K*tau >= 0")
        if self.measurement_model is MeasurementModel.ENERGY_CHI_SQUARE:
            if not all(math.isfinite(g) and 1.0 + g > 1.0 for g in map(self.snr, range(self.M))):
                raise ValueError("energy model requires every SNR sigma2_s/sigma2 to be finite "
                                 "with 1 + SNR > 1")
        else:
            if self.mu0 is None or self.mu1 is None:
                raise ValueError("shift-in-mean model requires mu0 and mu1")
            object.__setattr__(self, "mu0", _as_sensor_list(self.mu0, self.M, "mu0"))
            object.__setattr__(self, "mu1", _as_sensor_list(self.mu1, self.M, "mu1"))
            _require_finite(self.mu0 + self.mu1)
            if any(a == b for a, b in zip(self.mu0, self.mu1)):
                raise ValueError("shift-in-mean model requires mu0 != mu1 per sensor")

    def with_sensors(self, m: int) -> "ScenarioConfig":
        """The same scenario on m sensors: K capped at m and each per-sensor
        value repeated. Non-identical sensors have no value to repeat."""
        per_sensor = {
            name: values for name in ("sigma2_s", "mu0", "mu1")
            if (values := getattr(self, name)) is not None
        }
        if any(len(set(values)) > 1 for values in per_sensor.values()):
            raise ValueError("changing the sensor count requires identical sensors")
        return replace(self, M=m, K=min(self.K, m),
                       **{name: values[:1] * m for name, values in per_sensor.items()})

    def snr(self, sensor: int) -> float:
        """Local SNR gamma_i = sigma2_s_i / sigma2."""
        return self.sigma2_s[sensor] / self.sigma2

    def sensing_time(self, stage: int) -> float:
        return self.tau_N + stage * self.tau

    def log_prior_ratio(self) -> float:
        """log(pi0 / (1 - pi0)); +-inf at the degenerate priors."""
        if self.pi0 == 0.0:
            return -math.inf
        if self.pi0 == 1.0:
            return math.inf
        return math.log(self.pi0 / (1.0 - self.pi0))


def draw_slots(config: ScenarioConfig, rng: np.random.Generator, n_slots: int):
    """Vectorized slot draws.

    Returns (truth, llr, ordered_values, order) where truth is (n,) of
    {0,1}, llr is (n, M), ordered_values is (n, M) sorted by descending |llr|
    per slot (ties broken by lower sensor index, as by a stable sort) and
    order holds the sensor index of each ordered value. A single slot is the
    one-row case.

    Under the energy model the samples are the normals scaled by the
    hypothesis' standard deviation, so their energy is var_h times the
    normals' own: the LLR is that energy times var_h g/(g+1)/(2 sigma2),
    with var_0 = sigma2 and var_1 = sigma2_s + sigma2, less the offset.
    """
    m, n_samp = config.M, config.N
    truth = (rng.random(n_slots) >= config.pi0).astype(np.int8)  # 1 = busy
    z = rng.standard_normal((n_slots, m, n_samp))
    sigma2_s = np.asarray(config.sigma2_s)
    if config.measurement_model is MeasurementModel.ENERGY_CHI_SQUARE:
        g = sigma2_s / config.sigma2
        var = np.stack([np.full(m, config.sigma2), sigma2_s + config.sigma2])
        coef = var * (g / (g + 1.0)) / (2.0 * config.sigma2)  # (hypothesis, sensor)
        llr = coef[truth] * np.einsum("ijk,ijk->ij", z, z) - 0.5 * n_samp * np.log1p(g)[None, :]
    else:
        mu0 = np.asarray(config.mu0)
        mu1 = np.asarray(config.mu1)
        mean = np.where(truth[:, None] == 0, mu0[None, :], mu1[None, :])
        x = z * math.sqrt(config.sigma2) + mean[:, :, None]
        diff = (x - mu0[None, :, None]) ** 2 - (x - mu1[None, :, None]) ** 2
        llr = diff.sum(axis=2) / (2.0 * config.sigma2)
    order = np.argsort(-np.abs(llr), axis=1)
    ordered_values = np.take_along_axis(llr, order, axis=1)
    # freed here, the normals leave the tie check's temporaries room in
    # memory the chunk already holds; freed before the sort, they leave it
    # to the returned arrays, and a loop of chunks faults about twice as
    # many pages of trimmed heap back in
    del z
    ordered_values, order = _stable_on_ties(llr, ordered_values, order)
    return truth, llr, ordered_values, order


def _stable_on_ties(llr: np.ndarray, ordered_values: np.ndarray, order: np.ndarray):
    """(ordered_values, order) of the stable sort of each row of `llr` by
    descending magnitude, from those of numpy's default argsort.

    The default kind is faster, and the two sorts agree on every row
    without two equal magnitudes. So its result stands unless its sorted
    magnitudes hold an exact tie; a chunk with one is sorted again by the
    stable kind."""
    magnitude = np.abs(ordered_values)
    if np.any(magnitude[:, 1:] == magnitude[:, :-1]):
        order = np.argsort(-np.abs(llr), axis=1, kind="stable")
        ordered_values = np.take_along_axis(llr, order, axis=1)
    return ordered_values, order

