"""Reference implementations that the tests check the runtime against.

Nothing in the runtime imports this module and `ordfuse` does not re-export
it. Each function computes, by a slower or more direct route, a quantity the
runtime gets elsewhere: one sensor's LLR from its samples and the magnitude
ranking (`draw_slots`), the band thresholds at one stage (`decide_batch`),
the chi-square tails from scipy at every point
(`llr_distributions._chi2_cdf` and `_chi2_sf`), the correction-term
extrema over an interval (`CorrectionEnvelope` and
`bs_thresholds._stage_extrema`), the belief update (`run_policy_batch`),
the solver's continuation over the whole belief grid at once
(`dp_policy._continuation`), and the exact rank densities and subset sums
behind the solver's marginal recursion. `compare_with_block_oracle` runs
the sequential band detector and block MAP on the Monte Carlo engine's slot
stream and reports where they disagree.

`envelope_extrema` reads the term at its query point from the envelope's
cubic table, which checks each cell's midpoint against `correction_term`
and evaluates the exact term in cells that miss by more than 1e-12. Both
detectors read that table, so the oracle equals the detector's extrema bit
for bit; the tests pin the table within 1e-10 of `correction_term`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .bs_thresholds import decide_batch, map_block_batch
from .dp_policy import PosteriorUndefined
from .fusion_sim import _chunks
from .llr_distributions import (
    LlrLaw,
    correction_term,
    envelope_for,
    exceed_prob,
    law_for_sensor,
    llr_pdf,
)
from .order_stats import SensorEnsemble, ranked_pdf, weighted_subset_coeffs
from .sensing_model import Hypothesis, MeasurementModel, ScenarioConfig

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class UndefinedConditional(ValueError):
    """Conditional density requested at a point of zero marginal density."""


# ---------------------------------------------------------------------------
# Slot model


def llr_from_samples(samples, sensor: int, config: ScenarioConfig) -> float:
    """Local log-likelihood ratio of one sensor's N samples."""
    x = np.asarray(samples, dtype=float)
    if x.shape != (config.N,):
        raise ValueError(f"expected {config.N} samples, got shape {x.shape}")
    if config.measurement_model is MeasurementModel.ENERGY_CHI_SQUARE:
        g = config.snr(sensor)
        energy = float(np.sum(x * x))
        return (g / (g + 1.0)) * energy / (2.0 * config.sigma2) - 0.5 * config.N * math.log1p(g)
    m0 = config.mu0[sensor]
    m1 = config.mu1[sensor]
    return float(np.sum((x - m0) ** 2 - (x - m1) ** 2)) / (2.0 * config.sigma2)


def rank_by_magnitude(llr) -> list[tuple[int, float]]:
    """(sensor, llr) pairs sorted by descending |llr|; ties keep the lower index."""
    values = np.asarray(llr, dtype=float)
    if values.size == 0:
        raise ValueError("cannot rank an empty LLR list")
    order = np.argsort(-np.abs(values), kind="stable")
    return [(int(i), float(values[i])) for i in order]


# ---------------------------------------------------------------------------
# Band thresholds and the sequential/block agreement


def thresholds_at_stage(
    k: int, y_k: float, config: ScenarioConfig, law: LlrLaw
) -> tuple[float, float]:
    """(t_low, t_high) for the running LLR sum at stage k given |y_k|.

    Reads only the envelope's extrema over [0, |y_k|], not the slot's later
    reports that `decide_batch` also folds in. At the forced stage k == K the
    two thresholds coincide.
    """
    if not 1 <= k <= config.K:
        raise ValueError("stage k must satisfy 1 <= k <= K")
    logprior = config.log_prior_ratio()
    a = abs(y_k)
    unreported = config.M - config.K
    if k == config.K:
        t = logprior - unreported * correction_term(a, law)
        return t, t
    lo_corr, hi_corr = (float(v) for v in envelope_extrema(a, law))
    span = (config.K - k) * a
    t_low = logprior - span - unreported * hi_corr
    t_high = logprior + span - unreported * lo_corr
    return t_low, t_high


@dataclass(frozen=True)
class AgreementReport:
    trials: int
    agreement_fraction: float
    n_disagreements: int
    first_disagreement: dict | None


def compare_with_block_oracle(
    config: ScenarioConfig, trials: int, seed: int
) -> AgreementReport:
    """Per-realization agreement of the sequential detector with the block MAP
    rule on the slots `run_monte_carlo` draws for this seed; reports the
    first disagreement if any."""
    law = law_for_sensor(config, 0)
    n_disagree = 0
    first = None
    offset = 0
    for truth, ordered_values in _chunks(config, seed, trials):
        seq_declared, seq_stage = decide_batch(ordered_values, config, law)
        blk_declared = map_block_batch(ordered_values, config, law)
        mism = np.flatnonzero(seq_declared != blk_declared)
        if mism.size and first is None:
            i = int(mism[0])
            first = {
                "slot": offset + i,
                "truth": int(truth[i]),
                "sequential": int(seq_declared[i]),
                "sequential_stage": int(seq_stage[i]),
                "block": int(blk_declared[i]),
                "top_k": [float(v) for v in ordered_values[i, : config.K]],
            }
        n_disagree += int(mism.size)
        offset += truth.shape[0]
    return AgreementReport(
        trials=trials,
        agreement_fraction=1.0 - n_disagree / trials,
        n_disagreements=n_disagree,
        first_disagreement=first,
    )


# ---------------------------------------------------------------------------
# Chi-square tails


def chi2_tails(q, dof: int):
    """(lower, upper) tail of the chi-square law with `dof` degrees of freedom
    at q, each from scipy's regularized incomplete gamma functions at every
    point (`llr_distributions._chi2_cdf` and `_chi2_sf` compute, without
    scipy, the tail that lies away from the mean directly, the upper one
    above the mean in closed form and the lower one below it by its power
    series, and the other as its complement)."""
    x = np.maximum(np.asarray(q, dtype=float), 0.0) * 0.5
    return special.gammainc(0.5 * dof, x), special.gammaincc(0.5 * dof, x)


# ---------------------------------------------------------------------------
# Correction term


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Abscissa of a local minimum of f on [lo, hi] (unimodal on the bracket)."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def refine_extrema(f, grid: np.ndarray, values: np.ndarray, tol: float = 1e-10):
    """(min, max) of f over [grid[0], grid[-1]] via local refinement around best cells.

    `values` holds f on `grid`. Refines one bracket around the grid argmin and
    argmax each; endpoints are kept as candidates.
    """
    i_min = int(np.argmin(values))
    i_max = int(np.argmax(values))
    out = []
    for idx, sign in ((i_min, 1.0), (i_max, -1.0)):
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, len(grid) - 1)]
        best = values[idx]
        if hi > lo:
            x = golden_section_min(lambda t: sign * f(t), lo, hi, tol=tol)
            cand = f(x)
            if sign * cand < sign * best:
                best = cand
        out.append(best)
    return float(out[0]), float(out[1])


def envelope_extrema(y, law: LlrLaw):
    """(min, max) of the correction term over [0, |y|], elementwise in y: the
    envelope's grid extrema combined with the envelope's table of the term
    at |y|, the value the detectors read."""
    a = np.abs(np.asarray(y, dtype=float))
    envelope = envelope_for(law)
    cell = envelope.cell(a)
    grid_min, grid_max = envelope.prefix_extrema(cell)
    point = envelope.term(a, cell)
    return np.minimum(grid_min, point), np.maximum(grid_max, point)


def correction_extrema(y_max: float, law: LlrLaw, grid_size: int = 512) -> tuple[float, float]:
    """(min, max) of the correction term over [0, y_max].

    Uniform grid scan followed by golden-section refinement around the best
    cells; endpoints stay candidates. Accurate to well below 1e-6 for the
    smooth laws supported here. The scan concentrates on the range where the
    term varies; beyond the law's effective support it is flat near zero and
    only the endpoint needs evaluating.
    """
    if y_max < 0:
        raise ValueError("y_max must be >= 0")
    if y_max == 0.0:
        return 0.0, 0.0
    flat_beyond = max(abs(v) for v in law.effective_range(1e-14))
    grid = np.linspace(0.0, min(y_max, flat_beyond), grid_size)
    values = np.asarray(correction_term(grid, law), dtype=float)
    lo, hi = refine_extrema(lambda t: float(correction_term(t, law)), grid, values)
    if y_max > flat_beyond:
        tail = float(correction_term(y_max, law))
        lo, hi = min(lo, tail), max(hi, tail)
    return lo, hi


# ---------------------------------------------------------------------------
# Belief updates


def posterior_update(pi_k: float, y: float, k: int, ensemble: SensorEnsemble) -> float:
    """Belief update with the rank-(k+1) marginal densities (k reports absorbed)."""
    rank = k + 1
    f0 = float(ranked_pdf(rank, y, Hypothesis.H0, ensemble))
    f1 = float(ranked_pdf(rank, y, Hypothesis.H1, ensemble))
    den = pi_k * f0 + (1.0 - pi_k) * f1
    if den <= 0.0:
        raise PosteriorUndefined(f"predictive density vanishes at rank {rank}, y={y}")
    return pi_k * f0 / den


def posterior_update_exact(
    pi_k: float, y_prev: float | None, y: float, k: int, ensemble: SensorEnsemble
) -> float:
    """Belief update with the exact conditional rank densities.

    k indexes the incoming observation (1-based); the first stage has nothing
    to condition on and reduces to the marginal update.
    """
    if k == 1:
        return posterior_update(pi_k, y, 0, ensemble)
    if y_prev is None:
        raise ValueError("conditioning value required for k >= 2")
    f0 = conditional_pdf(k, y, y_prev, Hypothesis.H0, ensemble)
    f1 = conditional_pdf(k, y, y_prev, Hypothesis.H1, ensemble)
    den = pi_k * f0 + (1.0 - pi_k) * f1
    if den <= 0.0:
        raise PosteriorUndefined(f"conditional predictive density vanishes at stage {k}")
    return pi_k * f0 / den


# ---------------------------------------------------------------------------
# Solver continuation


def dense_continuation(grid, j_next, f0, f1, weights):
    """Expected next-stage value at every grid belief from dense grid x node arrays."""
    mix = grid[:, None] * f0[None, :] + (1.0 - grid)[:, None] * f1[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        post = grid[:, None] * f0[None, :] / mix
    post = np.where(mix > 0.0, post, grid[:, None])
    j_interp = np.interp(post.ravel(), grid, j_next).reshape(post.shape)
    return (mix * j_interp) @ weights


# ---------------------------------------------------------------------------
# Exact rank densities and subset sums


def subset_weight_sum(
    m_sub: int,
    hyp: Hypothesis,
    hi_arg: float,
    lo_arg: float,
    excluded,
    ensemble: SensorEnsemble,
) -> float:
    """Sum over size-m_sub subsets of the non-excluded sensors of the mixed
    magnitude-tail weights: exceed probability at hi_arg for members, central
    mass at lo_arg for non-members."""
    excluded = frozenset(excluded)
    included = [v for v in range(ensemble.m) if v not in excluded]
    if not 0 <= m_sub <= len(included):
        raise ValueError(f"subset size {m_sub} out of range for {len(included)} sensors")
    p = np.array([exceed_prob(hi_arg, hyp, ensemble.laws[v]) for v in included])
    q = np.array([1.0 - exceed_prob(lo_arg, hyp, ensemble.laws[v]) for v in included])
    return float(weighted_subset_coeffs(p, q, m_sub)[m_sub])


def joint_consecutive_pdf(
    m: int, alpha: float, gamma: float, hyp: Hypothesis, ensemble: SensorEnsemble
) -> float:
    """Joint density of (rank-m, rank-(m-1)) LLRs at (alpha, gamma) under hyp.

    Zero whenever |alpha| > |gamma|: a later report can never exceed an
    earlier one in magnitude.
    """
    if m < 2:
        raise ValueError("consecutive-rank joint needs m >= 2")
    if m > ensemble.m:
        raise ValueError(f"rank {m} out of range for {ensemble.m} sensors")
    if abs(alpha) > abs(gamma):
        return 0.0
    n_sensors = ensemble.m
    if ensemble.is_identical:
        law = ensemble.laws[0]
        b_gamma = exceed_prob(gamma, hyp, law)
        b_alpha = exceed_prob(alpha, hyp, law)
        return (
            n_sensors
            * (n_sensors - 1)
            * llr_pdf(alpha, hyp, law)
            * llr_pdf(gamma, hyp, law)
            * math.comb(n_sensors - 2, m - 2)
            * b_gamma ** (m - 2)
            * (1.0 - b_alpha) ** (n_sensors - m)
        )
    total = 0.0
    for k in range(n_sensors):
        f_k = llr_pdf(alpha, hyp, ensemble.laws[k])
        if f_k == 0.0:
            continue
        for j in range(n_sensors):
            if j == k:
                continue
            f_j = llr_pdf(gamma, hyp, ensemble.laws[j])
            if f_j == 0.0:
                continue
            keep = [v for v in range(n_sensors) if v != k and v != j]
            p = np.array([exceed_prob(gamma, hyp, ensemble.laws[v]) for v in keep])
            q = np.array([1.0 - exceed_prob(alpha, hyp, ensemble.laws[v]) for v in keep])
            coeff = weighted_subset_coeffs(p, q, m - 2)[m - 2] if keep else (1.0 if m == 2 else 0.0)
            total += f_k * f_j * coeff
    return float(total)


def conditional_pdf(
    m: int, alpha: float, gamma: float, hyp: Hypothesis, ensemble: SensorEnsemble
) -> float:
    """Density of the rank-m LLR at alpha given the rank-(m-1) LLR equals gamma."""
    marginal = ranked_pdf(m - 1, gamma, hyp, ensemble)
    if marginal <= 0.0:
        raise UndefinedConditional(
            f"rank-{m - 1} marginal vanishes at {gamma}; conditional undefined"
        )
    return joint_consecutive_pdf(m, alpha, gamma, hyp, ensemble) / marginal


def conditional_pdf_closed_form(
    m: int, alpha: float, gamma: float, hyp: Hypothesis, ensemble: SensorEnsemble
) -> float:
    """Identical-sensor closed form of the consecutive-rank conditional density."""
    if not ensemble.is_identical:
        raise ValueError("closed form requires identical sensors")
    if m < 2 or m > ensemble.m:
        raise ValueError("rank out of range")
    if abs(alpha) > abs(gamma):
        return 0.0
    law = ensemble.laws[0]
    n_sensors = ensemble.m
    b_alpha = exceed_prob(alpha, hyp, law)
    b_gamma = exceed_prob(gamma, hyp, law)
    if b_gamma >= 1.0:
        raise UndefinedConditional("conditioning value has zero central mass")
    return (
        (n_sensors + 1 - m)
        * llr_pdf(alpha, hyp, law)
        * (1.0 - b_alpha) ** (n_sensors - m)
        / (1.0 - b_gamma) ** (n_sensors - m + 1)
    )


def joint_topk_pdf(values, hyp: Hypothesis, ensemble: SensorEnsemble) -> float:
    """Joint density of the top-k magnitude-ordered LLR vector (identical sensors).

    Includes the M!/(M-k)! rank-assignment factor so the density integrates
    to one over the ordered region.
    """
    if not ensemble.is_identical:
        raise ValueError("joint top-k density implemented for identical sensors only")
    y = np.asarray(values, dtype=float)
    k = y.size
    if not 1 <= k <= ensemble.m:
        raise ValueError("need between 1 and M ordered values")
    mags = np.abs(y)
    if np.any(mags[1:] > mags[:-1]):
        return 0.0
    law = ensemble.laws[0]
    dens = np.asarray(llr_pdf(y, hyp, law), dtype=float)
    mass = 1.0 - exceed_prob(mags[-1], hyp, law)
    return float(math.perm(ensemble.m, k) * np.prod(dens) * mass ** (ensemble.m - k))
