"""Densities of magnitude-ranked LLRs for identical and non-identical sensors.

Rank 1 is the largest magnitude. All combinatorial subset sums are evaluated
with the elementary-symmetric coefficient recurrence, never by enumerating
subsets, so costs stay polynomial in the number of sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .llr_distributions import LlrLaw, exceed_prob, law_for_sensor, llr_pdf
from .sensing_model import Hypothesis, ScenarioConfig


@dataclass(frozen=True)
class SensorEnsemble:
    laws: tuple[LlrLaw, ...]

    def __post_init__(self):
        if len(self.laws) < 1:
            raise ValueError("ensemble needs at least one sensor")

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "SensorEnsemble":
        return cls(tuple(law_for_sensor(config, i) for i in range(config.M)))

    @property
    def m(self) -> int:
        return len(self.laws)

    @property
    def is_identical(self) -> bool:
        return all(law == self.laws[0] for law in self.laws[1:])


def weighted_subset_coeffs(p: np.ndarray, q: np.ndarray, m_max: int) -> np.ndarray:
    """Coefficients c[j] = sum over j-subsets S of prod_{v in S} p_v prod_{v not in S} q_v.

    p and q have shape (V, ...) with one row per sensor; the result has shape
    (m_max + 1, ...). Runs the coefficient recurrence on prod_v (p_v x + q_v).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    tail = p.shape[1:]
    c = np.zeros((m_max + 1,) + tail)
    c[0] = 1.0
    for v in range(p.shape[0]):
        top = min(v + 1, m_max)
        for j in range(top, 0, -1):
            c[j] = c[j] * q[v] + c[j - 1] * p[v]
        c[0] = c[0] * q[v]
    return c


def ranked_pdfs(k_max: int, y, hyp: Hypothesis, ensemble: SensorEnsemble) -> np.ndarray:
    """Marginal densities of ranks 1..k_max at y under hyp; row m - 1 is rank m.

    Each law's density and tail are evaluated once, and each leave-one-out
    coefficient recurrence runs once to depth k_max - 1: coefficient j never
    reads an entry above j, so every row equals a recurrence stopped at its
    own rank.
    """
    if not 1 <= k_max <= ensemble.m:
        raise ValueError(f"rank {k_max} out of range for {ensemble.m} sensors")
    y = np.asarray(y, dtype=float)
    n_sensors = ensemble.m
    if ensemble.is_identical:
        law = ensemble.laws[0]
        f = np.asarray(llr_pdf(y, hyp, law), dtype=float)
        b = np.asarray(exceed_prob(y, hyp, law), dtype=float)
        return np.stack([
            n_sensors * f * math.comb(n_sensors - 1, m - 1)
            * b ** (m - 1) * (1.0 - b) ** (n_sensors - m)
            for m in range(1, k_max + 1)
        ])
    f_all = np.stack([np.asarray(llr_pdf(y, hyp, law), dtype=float) for law in ensemble.laws])
    b_all = np.stack([np.asarray(exceed_prob(y, hyp, law), dtype=float) for law in ensemble.laws])
    out = np.zeros((k_max,) + y.shape)
    for r in range(n_sensors):
        keep = [v for v in range(n_sensors) if v != r]
        out = out + f_all[r] * weighted_subset_coeffs(b_all[keep], 1.0 - b_all[keep], k_max - 1)
    return out


def ranked_pdf(m: int, y, hyp: Hypothesis, ensemble: SensorEnsemble):
    """Marginal density of the rank-m LLR (m-th largest magnitude) under hyp."""
    out = ranked_pdfs(m, y, hyp, ensemble)[m - 1]
    return out if out.ndim else float(out)
