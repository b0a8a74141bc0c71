"""Baseline simulation parameters shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import replace

from .fading_link import FadingConfig
from .sensing_model import MeasurementModel, ScenarioConfig

DEFAULT_SEED = 20260811
DEFAULT_TRIALS = 20000


def default_scenario(**overrides) -> ScenarioConfig:
    """Ten identical energy sensors, eight reporting stages in a unit slot."""
    base = ScenarioConfig(
        M=10,
        N=3,
        K=8,
        tau_s=1.0,
        tau_N=0.2,
        tau=0.1,
        pi0=0.5,
        sigma2=1.0,
        sigma2_s=(2.0,) * 10,
        measurement_model=MeasurementModel.ENERGY_CHI_SQUARE,
    )
    if "M" in overrides:
        base = base.with_sensors(overrides["M"])
    return replace(base, **overrides)


def default_fading() -> FadingConfig:
    """Unit-mean exponential link gains with a 20-bit report over 50 kHz."""
    return FadingConfig(
        W=50_000.0,
        bits=20,
        tau_b=0.0005,
        P_over_sigma=5.0,
        Gamma=2.0,
    )
