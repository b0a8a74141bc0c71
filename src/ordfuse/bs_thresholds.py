"""Sequential fusion detector over magnitude-ordered LLR reports.

The running sum of reported LLRs is compared per stage against data-dependent
thresholds built from the report's magnitude and the extrema of the
correction term for never-reporting sensors. The detector's declared
hypothesis matches the one-shot MAP rule on the top-K reports, realization by
realization, which the tests assert exactly.
"""

from __future__ import annotations

import numpy as np

from .llr_distributions import LlrLaw, envelope_for
from .sensing_model import ScenarioConfig


def _stage_extrema(absy: np.ndarray, law: LlrLaw):
    """Running correction-term extrema per (slot, stage).

    Combines the envelope's grid extrema with this slot's own later report
    magnitudes so the stage-k extremum always dominates every later query
    point of the same slot, keeping the sequential and block rules aligned.
    The suffix extrema include the stage's own point, so this equals the
    extrema over [0, |y_k|] (`reference.envelope_extrema`) combined with
    them. The envelope's table gives the term at each report, and one cell
    index per report serves both the table and the grid extrema.
    """
    envelope = envelope_for(law)
    cell = envelope.cell(absy)
    grid_min, grid_max = envelope.prefix_extrema(cell)
    point = envelope.term(absy, cell)
    suf_min = np.minimum.accumulate(point[:, ::-1], axis=1)[:, ::-1]
    suf_max = np.maximum.accumulate(point[:, ::-1], axis=1)[:, ::-1]
    return np.minimum(grid_min, suf_min), np.maximum(grid_max, suf_max), point


def decide_batch(ordered_values: np.ndarray, config: ScenarioConfig, law: LlrLaw):
    """Vectorized sequential decisions.

    ordered_values: (n_slots, >=K) LLRs sorted by descending magnitude.
    Returns (declared, stage) with declared in {0, 1} and stage in 1..K.
    """
    k_max, m_total = config.K, config.M
    y = np.asarray(ordered_values, dtype=float)
    if y.ndim != 2 or y.shape[1] < k_max:
        raise ValueError(f"need at least K={k_max} ordered values per slot")
    y = y[:, :k_max]
    absy = np.abs(y)
    running = np.cumsum(y, axis=1)
    logprior = config.log_prior_ratio()
    unreported = m_total - k_max

    rho_min, rho_max, rho_point = _stage_extrema(absy, law)
    span = (k_max - np.arange(1, k_max))[None, :] * absy[:, : k_max - 1]
    t_low = logprior - span - unreported * rho_max[:, : k_max - 1]
    t_high = logprior + span - unreported * rho_min[:, : k_max - 1]

    early = running[:, : k_max - 1]
    low_hit = early < t_low
    high_hit = early > t_high
    final_h1 = running[:, k_max - 1] + unreported * rho_point[:, k_max - 1] >= logprior

    stop = np.concatenate(
        [low_hit | high_hit, np.ones((y.shape[0], 1), dtype=bool)], axis=1
    )
    first = np.argmax(stop, axis=1)
    rows = np.arange(y.shape[0])
    at_final = first == k_max - 1
    declared = np.where(
        at_final,
        final_h1,
        high_hit[rows, np.minimum(first, k_max - 2)] if k_max > 1 else False,
    ).astype(np.int8)
    return declared, (first + 1).astype(np.int64)


def map_block_batch(ordered_values: np.ndarray, config: ScenarioConfig, law: LlrLaw):
    """Vectorized one-shot MAP decisions on the top-K reports."""
    k_max = config.K
    y = np.asarray(ordered_values, dtype=float)[:, :k_max]
    total = y.sum(axis=1)
    envelope = envelope_for(law)
    a = np.abs(y[:, -1])
    corr = (config.M - k_max) * envelope.term(a, envelope.cell(a))
    return (total + corr >= config.log_prior_ratio()).astype(np.int8)

