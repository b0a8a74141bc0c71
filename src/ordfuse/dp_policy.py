"""Belief-grid backward induction for the sequential fusion policy.

Solves the finite-horizon optimal-stopping problem over the posterior
probability that the channel is free. Stage k's continuation expectation
integrates the next stage's value against the rank-(k+1) marginal mixture,
the reduced-complexity recursion that drops conditioning on the previous
report; no exact conditional recursion is implemented. The tests check the
continuation against `ordfuse.reference.dense_continuation`, and the belief
chain against `posterior_update_exact` and Bayes on `joint_topk_pdf`.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .order_stats import SensorEnsemble, ranked_pdf, ranked_pdfs
from .sensing_model import Hypothesis, MeasurementModel, ScenarioConfig, record

_TIE_TOL = 1e-11  # stop-vs-continue ties within quadrature noise resolve to continuing
# the 16-point Gauss-Legendre rule on [-1, 1], bit for bit numpy's `leggauss(16)`
_GAUSS_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GAUSS_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_LOG_ODDS_SPAN = 16.0  # belief-grid interior covers log-odds in [-span, span]
_GRID_SIZE = 1001  # belief-grid points G
# rank-density layouts kept per process. Within one command a repeat is of
# the latest layout (fig-sensing-vs-c's c values); only a process that runs
# several commands, as the benchmark worker does, reuses an older one
_LAYOUT_CACHE_SIZE = 2


class SolverError(RuntimeError):
    """Backward induction could not certify its quadrature."""


class PosteriorUndefined(ValueError):
    """Belief update at a point where the predictive density vanishes."""


class CostMode(enum.Enum):
    ERROR_MIN = "error-min"
    WEIGHTED_THROUGHPUT = "weighted-throughput"


class Action(enum.IntEnum):
    DECLARE_H0 = 0
    DECLARE_H1 = 1
    CONTINUE = 2


@dataclass(frozen=True)
class CostModel:
    """Stage decision costs: either 0/1 error counting or the throughput ledger.

    Throughput terms are rates weighted by omega (primary) and 1 - omega
    (secondary); transmission costs, collision penalty and lost-opportunity
    costs are expressed in the same rate units. `c` is the cost of soliciting
    one more report.
    """

    mode: CostMode
    omega: float = 0.5
    R_p: float = 1.0
    R_s: float = 1.0
    eta_p: float = 1.0
    eta_s: float = 1.0
    delta_p: float = 0.0
    delta_s: float = 0.0
    e_pt: float = 0.0
    e_st: float = 0.0
    P_col: float = 0.0
    L_f: float = 0.0
    L_b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        for name in ("omega", "eta_p", "eta_s", "delta_p", "delta_s"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("R_p", "R_s", "e_pt", "e_st", "P_col", "L_f", "L_b", "c"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.c < 0:
            raise ValueError("continuation cost c must be >= 0")

    @property
    def is_pure_throughput(self) -> bool:
        """Throughput ledger with c = 0 and every auxiliary cost zero: the only
        cost model the one-threshold solve accepts."""
        return (
            self.mode is CostMode.WEIGHTED_THROUGHPUT
            and self.c == 0.0
            and all(getattr(self, name) == 0.0 for name in ("e_pt", "e_st", "P_col", "L_f", "L_b"))
        )

    @classmethod
    def error_min(cls, c: float = 0.0001) -> "CostModel":
        return cls(mode=CostMode.ERROR_MIN, c=c)

    @classmethod
    def throughput(cls, omega: float = 0.5, c: float = 0.0001, **kwargs) -> "CostModel":
        return cls(mode=CostMode.WEIGHTED_THROUGHPUT, omega=omega, c=c, **kwargs)


def decision_cost(
    k: int, decided: Hypothesis, truth: Hypothesis, cost_model: CostModel, config: ScenarioConfig
) -> float:
    """Cost of declaring `decided` at stage k when `truth` holds."""
    if not 1 <= k <= config.K:
        raise ValueError("stage k must satisfy 1 <= k <= K")
    if cost_model.mode is CostMode.ERROR_MIN:
        return 0.0 if decided == truth else 1.0
    cm = cost_model
    remaining = (config.tau_s - config.tau_N - k * config.tau) / config.tau_s
    if decided == Hypothesis.H0:
        if truth == Hypothesis.H0:
            return (-(1.0 - cm.omega) * cm.R_s * cm.eta_s + cm.e_st) * remaining
        return (
            -cm.omega * cm.R_p * cm.delta_p
            - (1.0 - cm.omega) * cm.R_s * cm.delta_s * remaining
            + cm.e_pt
            + cm.e_st * remaining
            + cm.P_col
        )
    if truth == Hypothesis.H0:
        return cm.L_f
    return -cm.omega * cm.R_p * cm.eta_p + cm.e_pt + cm.L_b


@dataclass
class PolicyTable:
    """Per-stage value function, grid actions and extracted belief thresholds,
    with the scenario they were solved for: its sensors, prior and timing.

    Beliefs are the posterior probability the channel is free, so the
    declare-busy region sits below pi_low and declare-free above pi_high.
    """

    grid: np.ndarray
    values: np.ndarray  # (K, G)
    actions: np.ndarray  # (K, G)
    pi_low: np.ndarray  # (K,)
    pi_high: np.ndarray  # (K,)
    cost_model: CostModel
    scenario: ScenarioConfig
    kind: str = "two-threshold"
    diagnostics: dict = field(default_factory=dict)

    def save(self, path) -> None:
        """Write the policy as an indented JSON record, format version 4: its
        kind, scenario, cost model, per-stage thresholds and solver
        diagnostics. `load` solves the grid, values and actions again."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_file_record(self), fh, indent=2)

    @classmethod
    def load(cls, path) -> "PolicyTable":
        """Read a version-4 policy record and solve its scenario and cost
        model again with the solver its kind names. The record must equal
        the re-solve's; an edited threshold or field, or a file from another
        solver version, raises ValueError. Returns the re-solved table."""
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        header = (stored.get("format"), stored.get("version")) if isinstance(stored, dict) else None
        if header != ("ordfuse-policy", 4):
            raise ValueError("not a recognized policy file")
        sc, cm = stored["scenario"], stored["cost_model"]
        scenario = ScenarioConfig(**{**sc, "measurement_model": MeasurementModel(sc["measurement_model"])})
        cost_model = CostModel(**{**cm, "mode": CostMode(cm["mode"])})
        solve = {"two-threshold": solve_backward, "one-threshold": solve_one_threshold}.get(stored["kind"])
        if solve is None:
            raise ValueError(f"unknown policy kind {stored['kind']!r}")
        policy = solve(scenario, cost_model)
        resolved = json.loads(json.dumps(_file_record(policy)))
        if differ := sorted(k for k in stored.keys() | resolved if stored.get(k) != resolved.get(k)):
            raise ValueError(f"policy file does not match a fresh solve of its record: {differ} differ")
        return policy


def _file_record(policy: PolicyTable) -> dict:
    """The JSON-ready record that `PolicyTable.save` writes and `load` checks."""
    return {
        "format": "ordfuse-policy",
        "version": 4,
        "kind": policy.kind,
        "scenario": record(policy.scenario),
        "cost_model": record(policy.cost_model),
        "pi_low": policy.pi_low.tolist(),
        "pi_high": policy.pi_high.tolist(),
        "diagnostics": policy.diagnostics,
    }


def accumulated_llr_equivalent(pi_threshold: float, log_prior_ratio: float) -> float:
    """Running-LLR-sum value whose plain Bayes posterior from the prior with
    log(pi0 / (1 - pi0)) = log_prior_ratio equals the belief threshold;
    +-inf at the degenerate thresholds and priors."""
    if pi_threshold <= 0.0:
        return math.inf
    if pi_threshold >= 1.0:
        return -math.inf
    return log_prior_ratio + math.log((1.0 - pi_threshold) / pi_threshold)


def panels_from_edges(edges: np.ndarray):
    """Composite Gauss-Legendre nodes/weights over consecutive edge intervals."""
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with at least two entries")
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    nodes = (lo + half * (_GAUSS_NODES[None, :] + 1.0)).ravel()
    weights = (half * _GAUSS_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _quadrature_edges(ensemble: SensorEnsemble, per_segment: int) -> np.ndarray:
    """Panel edges over the ensemble's effective support.

    Panels never straddle the laws' breakpoints: zero, where the magnitude
    ordering kinks the densities, the support reflections at +-shift, and
    `mid`, the largest upper 1e-6 point of a law. A law whose own 1e-6
    point lies below an eighth of the last such breakpoint adds its own, so
    the tail above `mid` cannot swallow a narrower law's bulk. Below `mid`,
    a segment gets edges in proportion to its width: `per_segment` once it
    is as wide as the smallest shift, and never fewer than two. A
    shift-in-mean left tail keeps `per_segment` uniform edges, and each
    segment ending at or above `mid` gets `per_segment` geometric ones.
    Then every segment's first panel is halved toward the segment's start
    as often as `halvings` says, and no other breakpoint is graded. An
    energy law's support starts at -shift, where its chi-square density has
    an integrable endpoint singularity: 40 halvings for one-dof laws, whose
    density is unbounded there, and 8 for the rest. A one-dof law's +shift
    and a narrower law's own 1e-6 point get 8 each. With powers far apart,
    the segment above either can be tens to thousands of units wide, while
    the mass it must see lies within a few units of its start: under H0, a
    strong one-dof law's mass above +shift, and the narrow law's last 1e-6.
    """
    laws = ensemble.laws
    ranges = [law.effective_range(1e-12) for law in laws]
    lo = min(r[0] for r in ranges)
    hi = max(r[1] for r in ranges)
    mid = min(max(law.effective_range(1e-6)[1] for law in laws), hi)
    breakpoints = {0.0, mid}
    halvings = {}  # graded segment start -> halvings of its first panel
    cut = mid
    for m in sorted((law.effective_range(1e-6)[1] for law in laws), reverse=True):
        if 0.0 < m < cut / 8.0:
            breakpoints.add(m)
            halvings[m] = 8
            cut = m
    for law in laws:
        breakpoints.update((-law.shift, law.shift))
        if law.model is MeasurementModel.ENERGY_CHI_SQUARE:
            halvings[-law.shift] = 40 if law.dof == 1 else 8
            if law.dof == 1:
                halvings[law.shift] = 8
    pts = [lo] + sorted(p for p in breakpoints if lo < p < hi) + [hi]
    s_min = min(law.shift for law in laws)
    pieces = []
    for i, (p, q) in enumerate(zip(pts[:-1], pts[1:])):
        width = q - p
        if q >= mid:
            edges = p + width * np.expm1(np.linspace(0.0, 1.0, per_segment) * math.log(8.0)) / 7.0
            # the rounded ratio ends an ulp short of one, which can leave an
            # edge an ulp from q and so a panel of zero width
            edges[-1] = q
        else:
            count = per_segment
            if i > 0 or p in halvings:  # not a shift-in-mean left tail
                count = min(per_segment, max(2, math.ceil(per_segment * width / s_min)))
            edges = np.linspace(p, q, count)
        pieces.append(p + (edges[1] - p) * 0.5 ** np.arange(halvings.get(p, 0), 0, -1))
        pieces.append(edges)
    return _sorted_distinct(np.concatenate([[lo], *pieces, [hi]]))


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a float array in ascending order, as
    `np.unique` gives them, without its import of `numpy.ma`. Of -0.0 and
    +0.0 the stable sort keeps the first in input order."""
    ordered = np.sort(values, kind="stable")
    return ordered[np.concatenate([[True], ordered[1:] != ordered[:-1]])]


def _quadrature_rank_densities(config: ScenarioConfig):
    """Nodes, weights and normalized rank densities for ranks 1..K.

    Node masses are forced to one per (rank, hypothesis); a mass off by more
    than the tolerance even after panel doubling raises SolverError. The
    arrays are read-only: `_rank_density_layout` shares them between every
    solve on equal sensors, K and panel edges.
    """
    ensemble = SensorEnsemble.from_config(config)
    for per_segment in (24, 48):
        edges = _quadrature_edges(ensemble, per_segment)
        nodes, weights, f0, f1, mass0, mass1 = _rank_density_layout(ensemble, config.K, edges.tobytes())
        err = max(np.abs(mass0 - 1.0).max(), np.abs(mass1 - 1.0).max())
        if err <= 1e-6:
            return nodes, weights, f0, f1, err
    raise SolverError(
        "rank-density quadrature did not converge: "
        f"node masses H0={mass0.tolist()}, H1={mass1.tolist()}"
    )


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _rank_density_layout(ensemble: SensorEnsemble, k_max: int, edges: bytes):
    """Nodes and weights of the Gauss-Legendre panels between `edges` (the
    float64 bytes of an edge array), the rank densities of ranks 1..k_max
    normalized by their node masses under H0 and H1, and those masses.

    They depend on the sensors' laws, k_max and the panels, never on the
    cost model, so solves on equal ones share a read-only copy. Keying on
    the edges themselves keeps a patched `_quadrature_edges` off another
    layout's entry.
    """
    nodes, weights = panels_from_edges(np.frombuffer(edges))
    f0 = ranked_pdfs(k_max, nodes, Hypothesis.H0, ensemble)
    f1 = ranked_pdfs(k_max, nodes, Hypothesis.H1, ensemble)
    mass0 = f0 @ weights
    mass1 = f1 @ weights
    # a layout that fails the mass check may have a zero mass; its
    # densities are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        layout = (nodes, weights, f0 / mass0[:, None], f1 / mass1[:, None], mass0, mass1)
    for array in layout:
        array.flags.writeable = False
    return layout


def _stage_stop_costs(k: int, grid: np.ndarray, cost_model: CostModel, config: ScenarioConfig):
    l00 = decision_cost(k, Hypothesis.H0, Hypothesis.H0, cost_model, config)
    l01 = decision_cost(k, Hypothesis.H0, Hypothesis.H1, cost_model, config)
    l10 = decision_cost(k, Hypothesis.H1, Hypothesis.H0, cost_model, config)
    l11 = decision_cost(k, Hypothesis.H1, Hypothesis.H1, cost_model, config)
    stop0 = l00 * grid + l01 * (1.0 - grid)
    stop1 = l10 * grid + l11 * (1.0 - grid)
    return stop0, stop1


def _continuation(grid, j_next, f0, f1, weights):
    """Expected next-stage value at every grid belief, as two correlations.

    The value is sum_n w_n mix J(post) with mix = pi f0_n + (1 - pi) f1_n,
    post = pi f0_n / mix and J the piecewise-linear interpolant of `j_next`.
    On cell j, J(p) = J_j + b_j (p - pi_j), and mix post = pi f0_n, so

        mix J(post) = pi f0_n L1_j + (1 - pi) f1_n L0_j,

    with L0_j = J_j - b_j pi_j and L1_j = J_j + b_j (1 - pi_j) the cell's
    line at 0 and at 1. A report only shifts the log-odds, by
    l_n = log f0_n - log f1_n. `grid` must be `_belief_grid()`: its interior
    z_m = -S + (m - 1) h, h = 2S / (G - 3), is uniform in log-odds, so
    interior point i lands in cell clip(i + d_n, 0, G - 2) with
    d_n = floor(l_n / h). Binning w f0 and w f1 by d_n therefore turns the
    sum over nodes into two correlations against the edge-padded lines: the
    same interpolant with no binning error. Both run as one batched real FFT
    convolution with the reversed bins, in O(N + G log G) per stage. Nodes
    with f0 = f1 = 0 have mix = 0 and are dropped; at the endpoints the
    posterior stays put.
    """
    g = grid.size
    slope = np.diff(j_next) / np.diff(grid)
    line0 = j_next[:-1] - slope * grid[:-1]
    line1 = j_next[:-1] + slope * (1.0 - grid[:-1])
    live = (f0 > 0.0) | (f1 > 0.0)
    f0, f1, w = f0[live], f1[live], weights[live]
    with np.errstate(divide="ignore"):
        llr = np.log(f0) - np.log(f1)
    # shifts of at least G - 2 cells send every interior point to an end cell
    step = 2.0 * _LOG_ODDS_SPAN / (g - 3)
    shift = np.clip(np.floor(llr / step), 2 - g, g - 2).astype(np.intp) + (g - 2)
    a0 = np.bincount(shift, w * f0, minlength=2 * g - 3)
    a1 = np.bincount(shift, w * f1, minlength=2 * g - 3)
    # output i - 1 reads padded entry i - 1 + (d + G - 2), which must hold
    # cell clip(i + d, 0, G - 2)
    lines = np.pad(np.stack([line1, line0]), ((0, 0), (g - 3, g - 2)), mode="edge")
    # the 'valid' correlation of a 3G - 6 line with 2G - 3 taps is the full
    # convolution with the reversed taps at outputs 2G - 4 ... 3G - 7; with
    # n >= 3G - 6 no circular wrap reaches them
    n = _fft_length(lines.shape[1])
    spectra = np.fft.rfft(lines, n) * np.fft.rfft(np.stack([a0, a1])[:, ::-1], n)
    c1, c0 = np.fft.irfft(spectra, n)[:, 2 * g - 4:3 * g - 6]
    inner = grid[1:-1]
    out = np.empty(g)
    out[0] = j_next[0] * a1.sum()
    out[1:-1] = inner * c1 + (1.0 - inner) * c0
    out[-1] = j_next[-1] * a0.sum()
    return out


def _fft_length(n: int) -> int:
    """Smallest 2^k or 3 * 2^k of at least n, a length pocketfft runs fast."""
    power = 1 << (n - 1).bit_length()
    return 3 * power // 4 if 3 * power // 4 >= n else power


def _belief_grid() -> np.ndarray:
    """Belief grid with log-odds spacing plus exact endpoints.

    The optimal stop thresholds sit within O(c) of certainty, far inside the
    first uniform cell of any practical grid; spacing the points evenly in
    log-odds resolves those neighborhoods while keeping the grid small.
    `_continuation` relies on this layout.
    """
    z = np.linspace(-_LOG_ODDS_SPAN, _LOG_ODDS_SPAN, _GRID_SIZE - 2)
    interior = 1.0 / (1.0 + np.exp(-z))
    return np.concatenate([[0.0], interior, [1.0]])


def _extract_thresholds(actions_row: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    h1_idx = np.flatnonzero(actions_row == Action.DECLARE_H1)
    h0_idx = np.flatnonzero(actions_row == Action.DECLARE_H0)
    pi_low = float(grid[h1_idx[-1]]) if h1_idx.size else 0.0
    pi_high = float(grid[h0_idx[0]]) if h0_idx.size else 1.0
    return pi_low, pi_high


def _solve(config: ScenarioConfig, cost_model: CostModel) -> PolicyTable:
    k_max = config.K
    grid = _belief_grid()
    nodes, weights, f0, f1, quad_err = _quadrature_rank_densities(config)

    values = np.zeros((k_max, grid.size))
    actions = np.zeros((k_max, grid.size), dtype=np.int8)
    pi_low = np.zeros(k_max)
    pi_high = np.zeros(k_max)

    stop0, stop1 = _stage_stop_costs(k_max, grid, cost_model, config)
    values[-1] = np.minimum(stop0, stop1)
    actions[-1] = np.where(stop0 <= stop1, Action.DECLARE_H0, Action.DECLARE_H1)
    pi_low[-1], pi_high[-1] = _extract_thresholds(actions[-1], grid)

    for k in range(k_max - 1, 0, -1):
        stop0, stop1 = _stage_stop_costs(k, grid, cost_model, config)
        cont = cost_model.c + _continuation(grid, values[k], f0[k], f1[k], weights)
        stop_best = np.minimum(stop0, stop1)
        act_stop = np.where(stop0 <= stop1, Action.DECLARE_H0, Action.DECLARE_H1)
        values[k - 1] = np.minimum(stop_best, cont)
        # stopping must win strictly: where continuing merely ties (the
        # zero-cost regimes), one more report is never worse than stopping
        actions[k - 1] = np.where(stop_best < cont - _TIE_TOL, act_stop, Action.CONTINUE)
        pi_low[k - 1], pi_high[k - 1] = _extract_thresholds(actions[k - 1], grid)

    return PolicyTable(
        grid=grid,
        values=values,
        actions=actions,
        pi_low=pi_low,
        pi_high=pi_high,
        cost_model=cost_model,
        scenario=config,
        diagnostics={
            "quadrature_mass_error": float(quad_err),
            "nodes": len(nodes),
            "grid_size": grid.size,
        },
    )


def solve_backward(config: ScenarioConfig, cost_model: CostModel) -> PolicyTable:
    """Two-threshold backward induction over the belief grid."""
    return _solve(config, cost_model)


def solve_one_threshold(config: ScenarioConfig, cost_model: CostModel) -> PolicyTable:
    """Throughput special case: before the last stage the only stop is declare-free.

    Requires `cost_model.is_pure_throughput` (c = 0 and every auxiliary cost
    zero); anything else is a contract violation. Under such a cost the
    two-threshold solve already never declares busy before stage K: the
    continuation is never worse than a declare-busy cost that does not
    depend on the stage, and ties resolve to continuing. So the solve is the
    same backward induction, labelled one-threshold.
    """
    if not cost_model.is_pure_throughput:
        raise ValueError("one-threshold solve requires c = 0 and zero auxiliary costs")
    return replace(_solve(config, cost_model), kind="one-threshold")


def run_policy_batch(ordered_values: np.ndarray, policy: PolicyTable):
    """Vectorized policy execution over slots, from the prior and on the
    sensors of the scenario the policy was solved for.

    Returns (declared, stage) arrays; declared in {0, 1}, stage in 1..K.
    """
    k_max = policy.scenario.K
    ensemble = SensorEnsemble.from_config(policy.scenario)
    y = np.asarray(ordered_values, dtype=float)
    if y.ndim != 2 or y.shape[1] < k_max:
        raise ValueError(f"need at least K={k_max} ordered values per slot")
    n = y.shape[0]
    declared = np.full(n, -1, dtype=np.int8)
    stage = np.zeros(n, dtype=np.int64)
    # slots still running and their beliefs; stopped slots are dropped, so
    # densities and updates are evaluated only where they are used
    active = np.arange(n)
    pi = np.full(n, float(policy.scenario.pi0))
    for k in range(1, k_max + 1):
        yk = y[active, k - 1]
        f0 = np.asarray(ranked_pdf(k, yk, Hypothesis.H0, ensemble), dtype=float)
        f1 = np.asarray(ranked_pdf(k, yk, Hypothesis.H1, ensemble), dtype=float)
        den = pi * f0 + (1.0 - pi) * f1
        bad = den <= 0.0
        if np.any(bad):
            raise PosteriorUndefined(
                f"predictive density vanishes at stage {k} for {int(bad.sum())} slot(s)"
            )
        pi = pi * f0 / den
        stop_h0 = pi >= policy.pi_high[k - 1]
        # every slot still running stops at the last stage
        stop = stop_h0 | (pi <= policy.pi_low[k - 1]) | (k == k_max)
        # index arrays split the slots without the data-dependent branches
        # of boolean-mask gathers
        stopped = np.flatnonzero(stop)
        going = np.flatnonzero(~stop)
        done = active.take(stopped)
        declared[done] = np.where(stop_h0.take(stopped), 0, 1)
        stage[done] = k
        active = active.take(going)
        pi = pi.take(going)
        if active.size == 0:
            break
    return declared, stage


def concavity_check(policy: PolicyTable) -> bool:
    """Chord concavity of every stage's value function on the belief grid:
    each interior point must sit on or above the chord of its neighbors."""
    x = policy.grid
    w_left = x[2:] - x[1:-1]
    w_right = x[1:-1] - x[:-2]
    w_full = x[2:] - x[:-2]
    for row in policy.values:
        span = float(row.max() - row.min())
        tol = 1e-9 * max(span, 1.0)
        chord = (row[:-2] * w_left + row[2:] * w_right) / w_full
        if np.any(chord - row[1:-1] > tol):
            return False
    return True
