"""Fading reporting channels: which sensors can deliver their report in time.

A sensor participates in a coherence period when its reporting-link gain
supports pushing the payload through within the per-report budget. The
fusion machinery then runs unchanged on the reduced sensor set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .sensing_model import ScenarioConfig, _require_finite


@dataclass(frozen=True)
class FadingConfig:
    """Reporting-link budget: bandwidth, payload, per-report transmit window,
    power-to-noise ratio, SNR gap, exponential gain mean and coherence
    period. Every sensor has the same link."""

    W: float  # reporting bandwidth, Hz
    bits: int  # payload per report
    tau_b: float  # transmit window per report, seconds; must be < tau
    P_over_sigma: float  # P / sigma_f^2, linear
    Gamma: float  # SNR gap to capacity, > 1
    gain_mean: float = 1.0  # exponential gain mean
    T_c: int = 1  # coherence period, in slots

    def __post_init__(self):
        _require_finite((self.W, self.tau_b, self.P_over_sigma, self.Gamma, self.gain_mean))
        if self.W <= 0 or self.bits < 0 or self.tau_b <= 0:
            raise ValueError("W and tau_b must be > 0 and bits >= 0")
        if self.Gamma <= 1.0:
            raise ValueError("SNR gap Gamma must exceed 1")
        if self.P_over_sigma <= 0 or self.gain_mean <= 0:
            raise ValueError("power and gain mean must be > 0")
        if self.T_c < 1:
            raise ValueError("coherence period must cover at least one slot")


def gain_threshold(fading: FadingConfig) -> float:
    """Smallest link gain that still lets a sensor deliver its report in time."""
    rate_exp = fading.bits / (fading.W * fading.tau_b)
    try:
        growth = 2.0 ** rate_exp - 1.0
    except OverflowError:
        return math.inf
    return (fading.Gamma / fading.P_over_sigma) * growth


def participation_prob(fading: FadingConfig) -> float:
    """Probability a sensor's gain clears its decodability threshold."""
    return math.exp(-gain_threshold(fading) / fading.gain_mean)


def participation_pmf(m_bar: int, m: int, fading: FadingConfig) -> float:
    """Probability that exactly m_bar of m sensors participate."""
    if not 0 <= m_bar <= m:
        raise ValueError("m_bar must lie in 0..m")
    delta = participation_prob(fading)
    return math.comb(m, m_bar) * delta ** m_bar * (1.0 - delta) ** (m - m_bar)


def sample_participants(fading: FadingConfig, m: int, rng: np.random.Generator) -> frozenset[int]:
    """Independent per-sensor inclusion draw, held fixed for one coherence period."""
    mask = rng.random(m) < participation_prob(fading)
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
