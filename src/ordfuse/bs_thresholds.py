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
    """Running correction-term extrema per (stage, slot).

    absy is stage-major, (K, n_slots). Combines the envelope's grid extrema
    with this slot's own later report magnitudes so the stage-k extremum
    always dominates every later query point of the same slot, keeping the
    sequential and block rules aligned. The suffix extrema include the
    stage's own point, so this equals the extrema over [0, |y_k|]
    (`reference.envelope_extrema`) combined with them. The envelope's table
    gives the term at each report, and one cell index per report serves
    both the table and the grid extrema.
    """
    envelope = envelope_for(law)
    cell = envelope.cell(absy)
    rho_min, rho_max = envelope.prefix_extrema(cell)
    point = envelope.term(absy, cell)
    # fold the suffix extrema into the grid extrema one stage row at a time,
    # from the last stage back
    suf_min, suf_max = point[-1].copy(), point[-1].copy()
    for k in range(absy.shape[0] - 1, -1, -1):
        np.minimum(suf_min, point[k], out=suf_min)
        np.maximum(suf_max, point[k], out=suf_max)
        np.minimum(rho_min[k], suf_min, out=rho_min[k])
        np.maximum(rho_max[k], suf_max, out=rho_max[k])
    return rho_min, rho_max, point


def decide_batch(ordered_values: np.ndarray, config: ScenarioConfig, law: LlrLaw):
    """Vectorized sequential decisions.

    ordered_values: (n_slots, >=K) LLRs sorted by descending magnitude.
    Returns (declared, stage) with declared in {0, 1} and stage in 1..K.
    The work runs stage-major, on one (K, n_slots) copy of the reports.
    """
    k_max, m_total = config.K, config.M
    y = np.asarray(ordered_values, dtype=float)
    if y.ndim != 2 or y.shape[1] < k_max:
        raise ValueError(f"need at least K={k_max} ordered values per slot")
    y = np.ascontiguousarray(y[:, :k_max].T)
    absy = np.abs(y)
    # running sums one contiguous row at a time: the same adds as
    # np.cumsum(y, axis=0), whose inner loop runs down the strided stage axis
    running = np.empty_like(y)
    running[0] = y[0]
    for k in range(1, k_max):
        np.add(running[k - 1], y[k], out=running[k])
    logprior = config.log_prior_ratio()
    unreported = m_total - k_max

    rho_min, rho_max, rho_point = _stage_extrema(absy, law)
    final_h1 = running[-1] + unreported * rho_point[-1] >= logprior
    if k_max == 1:
        return final_h1.astype(np.int8), np.ones(y.shape[1], dtype=np.int64)
    span = (k_max - np.arange(1, k_max))[:, None] * absy[:-1]
    t_low = logprior - span - unreported * rho_max[:-1]
    t_high = logprior + span - unreported * rho_min[:-1]

    early = running[:-1]
    high_hit = early > t_high
    stop = (early < t_low) | high_hit
    first = np.argmax(stop, axis=0)
    stopped = stop.any(axis=0)
    declared = np.where(stopped, high_hit[first, np.arange(y.shape[1])], final_h1)
    stage = np.where(stopped, first + 1, k_max)
    return declared.astype(np.int8), stage.astype(np.int64)


def map_block_batch(ordered_values: np.ndarray, config: ScenarioConfig, law: LlrLaw):
    """Vectorized one-shot MAP decisions on the top-K reports."""
    k_max = config.K
    y = np.asarray(ordered_values, dtype=float)[:, :k_max]
    total = y.sum(axis=1)
    envelope = envelope_for(law)
    a = np.abs(y[:, -1])
    corr = (config.M - k_max) * envelope.term(a, envelope.cell(a))
    return (total + corr >= config.log_prior_ratio()).astype(np.int8)

