"""Densities of magnitude-ranked LLRs for identical and non-identical sensors.

Rank 1 is the largest magnitude. All combinatorial subset sums are evaluated
with the elementary-symmetric coefficient recurrence, never by enumerating
subsets, so costs stay polynomial in the number of sensors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .llr_distributions import LawStack, LlrLaw, exceed_prob, law_for_sensor, llr_pdf
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

    @functools.cached_property
    def is_identical(self) -> bool:
        return all(law == self.laws[0] for law in self.laws[1:])

    @functools.cached_property
    def stack(self) -> LawStack:
        """The laws' scales and shifts as columns, for one pass over all laws."""
        return LawStack.of(self.laws)


def weighted_subset_coeffs(p: np.ndarray, q: np.ndarray, m_max: int, start=None) -> np.ndarray:
    """Coefficients c[j] = sum over j-subsets S of prod_{v in S} p_v prod_{v not in S} q_v.

    p and q have shape (V, ...) with one row per sensor; the result has shape
    (m_max + 1, ...). Runs the coefficient recurrence on prod_v (p_v x + q_v),
    continuing from the polynomial `start` (coefficients 0..m_max, not
    modified; default 1), so sensors can be folded in over several calls.
    Each sensor updates every coefficient at once from the previous ones,
    c[j] q_v + c[j - 1] p_v; a coefficient above the number of sensors
    folded in so far stays +0, as 0 q_v + 0 p_v with p and q finite.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if start is None:
        c = np.zeros((m_max + 1,) + p.shape[1:])
        c[0] = 1.0
    else:
        c = np.array(start, dtype=float)
    carry = np.empty_like(c[:-1])
    for v in range(p.shape[0]):
        np.multiply(c[:-1], p[v], out=carry)
        c *= q[v]
        c[1:] += carry
    return c


def _check_rank(m: int, ensemble: SensorEnsemble) -> None:
    if not 1 <= m <= ensemble.m:
        raise ValueError(f"rank {m} out of range for {ensemble.m} sensors")


def _density_and_tail(y: np.ndarray, hyp: Hypothesis, law: LlrLaw | LawStack):
    """The density f and magnitude tail b = Pr(|Y| > |y|) at y of one law,
    or of every law of a stack, one row per law."""
    return (np.asarray(llr_pdf(y, hyp, law), dtype=float),
            np.asarray(exceed_prob(y, hyp, law), dtype=float))


def _binomial_row(m: int, n_sensors: int, f: np.ndarray, b: np.ndarray):
    """Rank-m density of n identical sensors: n f C(n - 1, m - 1) b^(m-1) (1 - b)^(n-m)."""
    return (n_sensors * f * math.comb(n_sensors - 1, m - 1)
            * b ** (m - 1) * (1.0 - b) ** (n_sensors - m))


def _forward_pass(depth: int, row, y: np.ndarray, hyp: Hypothesis, ensemble: SensorEnsemble):
    """The sum over sensors r of f_r c_r[row]: f_r the density of sensor r
    at y, c_r coefficients 0..depth of the other sensors' subset polynomial
    prod_{v != r} (b_v x + 1 - b_v), b_v the tail probability of sensor v
    at |y|.

    One pass over the sensors carries two polynomials: `weights`, the
    product over the sensors folded so far, and `total`, the sum over those
    sensors r of f_r times the product over the others. Folding sensor v
    sets total <- total (b_v x + q_v) + f_v weights, then weights <-
    weights (b_v x + q_v), with q_v = 1 - b_v. Sensor 0 starts total at f_0
    and the last sensor's weights are never read, so M sensors take
    2(M - 1) folds, every term nonnegative.
    """
    f, b = _density_and_tail(y, hyp, ensemble.stack)
    weights = weighted_subset_coeffs(b[:0], b[:0], depth)  # the unit polynomial
    total = f[0] * weights
    for v in range(1, ensemble.m):
        weights = weighted_subset_coeffs(b[v - 1:v], 1.0 - b[v - 1:v], depth, weights)
        total = weighted_subset_coeffs(b[v:v + 1], 1.0 - b[v:v + 1], depth, total)
        total += f[v] * weights
    return total[row]


def ranked_pdfs(k_max: int, y, hyp: Hypothesis, ensemble: SensorEnsemble) -> np.ndarray:
    """Marginal densities of ranks 1..k_max at y under hyp; row m - 1 is rank m.

    Each law's density and tail are evaluated once. For non-identical
    sensors rank m is sum_r f_r(y) c_r[m - 1], with c_r the leave-one-out
    coefficients, all summed by the one forward pass of `_forward_pass`
    to depth k_max - 1: coefficient j never reads an entry above j, so
    every row equals a pass stopped at its own rank.
    """
    _check_rank(k_max, ensemble)
    y = np.asarray(y, dtype=float)
    if ensemble.is_identical:
        f, b = _density_and_tail(y, hyp, ensemble.laws[0])
        return np.stack([_binomial_row(m, ensemble.m, f, b) for m in range(1, k_max + 1)])
    return _forward_pass(k_max - 1, ..., y, hyp, ensemble)


def ranked_pdf(m: int, y, hyp: Hypothesis, ensemble: SensorEnsemble):
    """Marginal density of the rank-m LLR (m-th largest magnitude) under hyp:
    row m - 1 of `ranked_pdfs(m, ...)`, forming that row only."""
    _check_rank(m, ensemble)
    y = np.asarray(y, dtype=float)
    if ensemble.is_identical:
        out = _binomial_row(m, ensemble.m, *_density_and_tail(y, hyp, ensemble.laws[0]))
    else:
        out = _forward_pass(m - 1, m - 1, y, hyp, ensemble)
    return out if out.ndim else float(out)
