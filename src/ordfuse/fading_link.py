"""Fading reporting channels: which sensors can deliver their report in time.

A sensor participates in a coherence period when its reporting-link gain
supports pushing the payload through within the per-report budget. The
fusion machinery then runs unchanged on the reduced sensor set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .order_stats import weighted_subset_coeffs
from .sensing_model import ScenarioConfig


@dataclass(frozen=True)
class FadingConfig:
    """Reporting-link budget: bandwidth, payload, per-report transmit window,
    per-sensor power-to-noise ratios, SNR gap, exponential gain means and
    coherence period."""

    W: float  # reporting bandwidth, Hz
    bits: int  # payload per report
    tau_b: float  # transmit window per report, seconds; must be < tau
    P_over_sigma: tuple[float, ...]  # P_i / sigma_f^2, linear
    Gamma: tuple[float, ...]  # SNR gap to capacity, > 1
    gain_mean: tuple[float, ...]  # exponential gain means
    T_c: int  # coherence period, in slots

    def __post_init__(self):
        for name in ("P_over_sigma", "Gamma", "gain_mean"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if len(self.Gamma) != self.m or len(self.gain_mean) != self.m:
            raise ValueError("per-sensor fields must all have the same length")
        if self.W <= 0 or self.bits < 0 or self.tau_b <= 0:
            raise ValueError("W and tau_b must be > 0 and bits >= 0")
        if any(g <= 1.0 for g in self.Gamma):
            raise ValueError("SNR gap Gamma must exceed 1")
        if any(p <= 0 for p in self.P_over_sigma) or any(m <= 0 for m in self.gain_mean):
            raise ValueError("powers and gain means must be > 0")
        if self.T_c < 1:
            raise ValueError("coherence period must cover at least one slot")

    @classmethod
    def symmetric(
        cls, m: int, W: float, bits: int, tau_b: float,
        P_over_sigma: float, Gamma: float, gain_mean: float = 1.0, T_c: int = 1,
    ) -> "FadingConfig":
        return cls(
            W=W, bits=bits, tau_b=tau_b,
            P_over_sigma=(P_over_sigma,) * m,
            Gamma=(Gamma,) * m,
            gain_mean=(gain_mean,) * m,
            T_c=T_c,
        )

    @property
    def m(self) -> int:
        return len(self.P_over_sigma)


def gain_threshold(sensor: int, fading: FadingConfig) -> float:
    """Smallest link gain that still lets the sensor deliver its report in time."""
    rate_exp = fading.bits / (fading.W * fading.tau_b)
    try:
        growth = 2.0 ** rate_exp - 1.0
    except OverflowError:
        return math.inf
    return (fading.Gamma[sensor] / fading.P_over_sigma[sensor]) * growth


def participation_prob(sensor: int, fading: FadingConfig) -> float:
    """Probability the sensor's gain clears its decodability threshold."""
    return math.exp(-gain_threshold(sensor, fading) / fading.gain_mean[sensor])


def participation_pmf(m_bar: int, fading: FadingConfig) -> float:
    """Probability that exactly m_bar of the sensors participate."""
    if not 0 <= m_bar <= fading.m:
        raise ValueError("m_bar must lie in 0..M")
    delta = np.array([participation_prob(i, fading) for i in range(fading.m)])
    return float(weighted_subset_coeffs(delta, 1.0 - delta, m_bar)[m_bar])


def sample_participants(fading: FadingConfig, m: int, rng: np.random.Generator) -> frozenset[int]:
    """Independent per-sensor inclusion draw, held fixed for one coherence period."""
    delta = np.array([participation_prob(i, fading) for i in range(m)])
    mask = rng.random(m) < delta
    return frozenset(int(i) for i in np.flatnonzero(mask))


def effective_config(config: ScenarioConfig, participants) -> ScenarioConfig | None:
    """Reduced scenario containing only the participating sensors.

    K is clipped to the participant count. Returns None for an empty set:
    the fusion center then has no reports and falls back to the prior.
    """
    idx = sorted(participants)
    if any(i < 0 or i >= config.M for i in idx):
        raise ValueError("participants must be valid sensor indices")
    if not idx:
        return None
    kwargs = dict(
        M=len(idx),
        K=min(config.K, len(idx)),
        sigma2_s=tuple(config.sigma2_s[i] for i in idx),
    )
    if config.mu0 is not None:
        kwargs["mu0"] = tuple(config.mu0[i] for i in idx)
        kwargs["mu1"] = tuple(config.mu1[i] for i in idx)
    return replace(config, **kwargs)
