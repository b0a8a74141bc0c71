"""Conditional laws of a sensor's LLR and the correction terms built on them.

For the energy detector the LLR is an affine map of a chi-square variable:
(Y + shift)/scale_r is chi-square with `dof` degrees of freedom under
hypothesis r, with scale0 < scale1. For the mean-shift Gaussian model the
LLR is Gaussian with means -+shift and common variance scale^2. Both
families satisfy log f(y|H1)/f(y|H0) = y on the support interior, so the
detector can accumulate reported values directly.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import erfcx_table
from .sensing_model import Hypothesis, MeasurementModel, ScenarioConfig

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_ZERO_LIMIT = 1e-8  # below this the central-mass ratio is at its analytic limit
# correction-envelope grid: points out to the 1e-6 quantile, then beyond it
_ENVELOPE_DENSE_POINTS = 16384
_ENVELOPE_TAIL_POINTS = 4096
# largest midpoint miss of a correction-table cell that is not evaluated exactly
_TABLE_TOLERANCE = 1e-12
# the closed-form tail takes the log of x clipped here, far past any tail
# above 1e-300, so that x = inf gives a zero tail and not inf - inf
_X_MAX = 1e300
# erfcx on the pieces of `erfcx_table`, highest power first for Horner's
# rule, as arrays and as lists of Python floats for scalars
_ERFCX_ROWS = np.frombuffer(erfcx_table.ROWS, dtype="<f8").reshape(-1, erfcx_table.PIECES)[::-1]
_ERFCX_FLOATS = _ERFCX_ROWS.tolist()
_SQRT_HALF = math.sqrt(0.5)
# larger arrays take the tails in slices of this many points, which keep the
# dozens of array passes of a tail in cache
_TAIL_CHUNK = 8192
# a tail inversion stops once a Newton step moves x by at most this many ulps
_NEWTON_ULPS = 4.0
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class LlrLaw:
    """Conditional distribution of one sensor's LLR under both hypotheses."""

    model: MeasurementModel
    dof: int
    scale0: float
    scale1: float
    shift: float

    def __post_init__(self):
        if self.dof < 1:
            raise ValueError("dof must be >= 1")
        if self.scale0 <= 0 or self.scale1 <= 0 or self.shift <= 0:
            raise ValueError("scales and shift must be > 0")
        if self.model is MeasurementModel.ENERGY_CHI_SQUARE:
            # the chi-square tails are in closed form for integer dof only
            if not isinstance(self.dof, numbers.Integral):
                raise ValueError("energy model requires an integer dof")
            if self.scale0 >= self.scale1:
                raise ValueError("energy model requires scale0 < scale1")

    @classmethod
    def energy(cls, dof: int, snr: float) -> "LlrLaw":
        if snr <= 0:
            raise ValueError("snr must be > 0")
        return cls(
            model=MeasurementModel.ENERGY_CHI_SQUARE,
            dof=dof,
            scale0=snr / (2.0 * (snr + 1.0)),
            scale1=snr / 2.0,
            shift=0.5 * dof * math.log1p(snr),
        )

    @classmethod
    def shift_in_mean(cls, dof: int, mu0: float, mu1: float, sigma2: float) -> "LlrLaw":
        if mu0 == mu1:
            raise ValueError("means must differ")
        if sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")
        d2 = dof * (mu1 - mu0) ** 2 / sigma2
        return cls(
            model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
            dof=dof,
            scale0=math.sqrt(d2),
            scale1=math.sqrt(d2),
            shift=0.5 * d2,
        )

    def scale(self, hyp: Hypothesis) -> float:
        return self.scale0 if hyp == Hypothesis.H0 else self.scale1

    def mean(self, hyp: Hypothesis) -> float:
        """E[Y | hyp]: dof scale - shift for the energy model, -+shift for
        the shift-in-mean model."""
        if self.model is MeasurementModel.ENERGY_CHI_SQUARE:
            return self.dof * self.scale(hyp) - self.shift
        return -self.shift if hyp == Hypothesis.H0 else self.shift

    def effective_range(self, tail_mass: float = 1e-12) -> tuple[float, float]:
        """Interval holding all but `tail_mass` of Y under either hypothesis."""
        if self.model is MeasurementModel.ENERGY_CHI_SQUARE:
            q_hi = _chi2_upper_quantile(self.dof, tail_mass)
            return -self.shift, max(self.scale0, self.scale1) * q_hi - self.shift
        spread = self.scale0 * math.sqrt(2.0) * _erfc_inverse(tail_mass)
        return -self.shift - spread, self.shift + spread


@dataclass(frozen=True, eq=False)
class LawStack:
    """Laws that share one model and dof, with their scales and shifts
    stacked as (laws, 1) columns that broadcast against a row of points.
    `llr_pdf` and `exceed_prob` evaluate a tuple of laws through it, one row
    per law, with the element-wise steps and so the bits of each law alone."""

    model: MeasurementModel
    dof: int
    scale0: np.ndarray
    scale1: np.ndarray
    shift: np.ndarray

    @classmethod
    def of(cls, laws) -> "LawStack":
        model, dof = laws[0].model, laws[0].dof
        if any(law.model is not model or law.dof != dof for law in laws):
            raise ValueError("laws evaluated together must share one model and dof")

        def column(name):
            return np.array([getattr(law, name) for law in laws])[:, None]

        return cls(model, dof, column("scale0"), column("scale1"), column("shift"))

    def __len__(self) -> int:
        return self.shift.shape[0]

    def rows(self, start: int, stop: int) -> "LawStack":
        return LawStack(self.model, self.dof, self.scale0[start:stop],
                        self.scale1[start:stop], self.shift[start:stop])

    scale = LlrLaw.scale
    mean = LlrLaw.mean


def law_for_sensor(config: ScenarioConfig, sensor: int) -> LlrLaw:
    if config.measurement_model is MeasurementModel.ENERGY_CHI_SQUARE:
        return LlrLaw.energy(config.N, config.snr(sensor))
    return LlrLaw.shift_in_mean(config.N, config.mu0[sensor], config.mu1[sensor], config.sigma2)


def _chi2_cdf(q, dof: int):
    return _chi2_tail(q, dof, upper=False)


def _chi2_sf(q, dof: int):
    return _chi2_tail(q, dof, upper=True)


def _chi2_tail(q, dof: int, upper: bool):
    """One tail of the chi-square law with `dof` degrees of freedom at q.

    With x = q/2 and a = dof/2, the upper tail is computed directly at and
    above the mean (x >= a), in closed form, and the lower tail below it, by
    its power series; the other tail is the complement, so the two tails add
    to one within one rounding. Arrays of more than `_TAIL_CHUNK` points are
    taken in slices."""
    if not (isinstance(q, np.ndarray) and q.ndim):
        # a scalar, as a Python float: its arithmetic costs a tenth of a 0-d
        # array's
        x = max(float(q), 0.0) * 0.5
        return _one_side_tail(x, dof, upper, above=x >= 0.5 * dof)
    if q.size == 1:
        # a one-point array pays the call overhead of dozens of array
        # passes, several times the scalar path's cost: it takes the scalar
        # path and is reshaped
        return np.reshape(_chi2_tail(q.item(), dof, upper), q.shape)
    if q.size > _TAIL_CHUNK:
        return _in_chunks(lambda part: _chi2_tail(part, dof, upper), q)
    if not q.size:
        # `exceed_prob` passes the points inside the support, often none
        return np.empty(q.shape)
    x = np.maximum(q, 0.0) * 0.5
    above = x >= 0.5 * dof
    # an input wholly on one side of the mean needs no mask and no scatter
    n_above = np.count_nonzero(above)
    if n_above in (0, above.size):
        return _one_side_tail(x, dof, upper, above=n_above > 0)
    out = np.empty_like(x)
    out[above] = _one_side_tail(x[above], dof, upper, above=True)
    out[~above] = _one_side_tail(x[~above], dof, upper, above=False)
    return out


def _in_chunks(f, x: np.ndarray) -> np.ndarray:
    """f on x in slices of `_TAIL_CHUNK` points. Each point's steps do not
    depend on the slice it is in, so the bits are those of f on all of x."""
    flat = x.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _TAIL_CHUNK):
        out[start : start + _TAIL_CHUNK] = f(flat[start : start + _TAIL_CHUNK])
    return out.reshape(x.shape)


def _one_side_tail(x, dof: int, upper: bool, above: bool):
    """The requested tail at points x that all lie above the mean, or all below it."""
    if above:
        direct = _chi2_upper_above_mean(x, dof)
    else:
        direct = _chi2_lower_below_mean(x, dof)
    return direct if upper == above else 1.0 - direct


def _chi2_upper_above_mean(x, dof: int):
    """Pr(chi2_dof > 2x) at x >= dof/2 in closed form (Abramowitz & Stegun
    26.4.4-26.4.5): the sum of e^-x x^p / Gamma(p+1) over p = dof/2 - 1,
    dof/2 - 2, ... down to 0 or 1/2, plus erfc(sqrt(x)) = e^-x erfcx(sqrt(x))
    for odd dof.

    Each term is p/x times the one before it, less than one at x >= dof/2,
    so the sum runs from the largest term down and nothing overflows. The
    cost grows with dof, about three array passes per term."""
    p = 0.5 * dof - 1.0
    total = 0.0
    if p >= 0.0:
        term = np.exp(p * np.log(np.minimum(x, _X_MAX)) - x - math.lgamma(p + 1.0))
        total = term
    while p >= 1.0:
        term = term * (p / x)
        total = total + term
        p -= 1.0
    if dof % 2:
        total = total + np.exp(-x) * _erfcx(np.sqrt(x))
    return total


def _chi2_lower_below_mean(x, dof: int):
    """Pr(chi2_dof <= 2x) at 0 <= x <= dof/2 from its power series (DLMF
    8.7.1): x^a e^-x / Gamma(a+1) times the sum over n >= 0 of
    x^n / ((a+1)...(a+n)), a = dof/2.

    The sum is taken in t = x/a <= 1 by Horner's rule on the coefficients of
    `_lower_series`, one multiply and one add per term; x = 0 gives zero."""
    a = 0.5 * dof
    coeffs = _lower_series(dof)
    t = x / a
    total = t * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        total += c
        total *= t
    total += 1.0
    if isinstance(x, float):
        log_x = np.log(x) if x > 0.0 else -math.inf
    else:
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
    return np.exp(a * log_x - x - math.lgamma(a + 1.0)) * total


@functools.lru_cache(maxsize=None)
def _lower_series(dof: int) -> tuple[float, ...]:
    """Coefficients a^n / ((a+1)...(a+n)) of the lower-tail series in t = x/a,
    a = dof/2, for n = 0, 1, ... while what the later terms could add at
    t = 1 is at least 2^-54 of the sum, which is at least one.

    Each is dof^n / ((dof+2)(dof+4)...(dof+2n)), a ratio of integers, so it
    is correctly rounded. Each term is a/(a+n+1) < 1 times the one before,
    so the terms after term n add less than a/(n+1) times term n."""
    coeffs = [1.0]
    num = den = 1
    n = 0
    while coeffs[-1] * 0.5 * dof / (n + 1) >= 2.0**-54:
        n += 1
        num *= dof
        den *= dof + 2 * n
        coeffs.append(num / den)
    return tuple(coeffs)


def _erfcx(v):
    """exp(v^2) erfc(v) at v >= 0 from the piecewise polynomials of
    `erfcx_table`, within 5 ulps where exp(-v^2) does not underflow.

    The piece is read off s = PIECES * SCALE / (SCALE + v) in [0, PIECES];
    v = 0 is the end of the last piece, and NaN, which picks the last piece
    too, gives NaN."""
    pieces = erfcx_table.PIECES
    s = (pieces * erfcx_table.SCALE) / (erfcx_table.SCALE + v)
    if isinstance(v, float):
        # a scalar: the same steps in Python arithmetic
        s = float(s)
        if math.isnan(s):
            return s
        start = float(math.floor(min(s, pieces - 0.5)))
        piece = int(start)
        rows = _ERFCX_FLOATS
    else:
        start = np.floor(np.fmin(s, pieces - 0.5))
        piece = start.astype(np.intp)
        rows = _ERFCX_ROWS
    t = s - start
    out = rows[0][piece]
    for row in rows[1:]:
        out *= t
        out += row[piece]
    return out


def _ndtr(z):
    """Pr(Z <= z) for a standard normal Z: half of
    erfc(|z|/sqrt(2)) = exp(-z^2/2) erfcx(|z|/sqrt(2)) below zero, one minus
    that above it. Arrays of more than `_TAIL_CHUNK` points are taken in
    slices."""
    if isinstance(z, np.ndarray) and z.ndim and z.size == 1:
        # as in `_chi2_tail`, one point takes the scalar path
        return np.reshape(_ndtr(z.item()), z.shape)
    if isinstance(z, np.ndarray) and z.size > _TAIL_CHUNK:
        return _in_chunks(_ndtr, z)
    half_tail = 0.5 * np.exp(-0.5 * z * z) * _erfcx(np.abs(z) * _SQRT_HALF)
    return np.where(z < 0.0, half_tail, 1.0 - half_tail)


def _invert_tail(tail, density, tail_mass: float, x: float) -> float:
    """The x > 0 at which a falling tail, with derivative -density, equals
    `tail_mass`: Newton's method on log tail(x) from `x`, each step at most
    halving x.

    Far out, log tail(x) is near-linear, concave for a log-concave density
    and convex otherwise, so after at most one jump across the root the
    steps approach it monotonically. They stop within _NEWTON_ULPS ulps, or
    once a step under 1e-10 x is no shorter than the one before: the
    rounding of the tail then moves x more than the method does."""
    moved = math.inf
    for _ in range(_NEWTON_STEPS):
        value = tail(x)
        # where the tail underflows, x is far right of the root: halve it
        step = math.log(value / tail_mass) * value / density(x) if value > 0.0 else -x
        x_next = max(x + step, 0.5 * x)
        last, moved = moved, abs(x_next - x)
        if moved <= _NEWTON_ULPS * np.spacing(x_next) or last <= moved <= 1e-10 * x_next:
            return x_next
        x = x_next
    raise ArithmeticError(f"tail inversion at tail mass {tail_mass} did not converge")


@functools.lru_cache(maxsize=None)
def _erfc_inverse(tail_mass: float) -> float:
    """The v >= 0 with erfc(v) = tail_mass, for 0 < tail_mass <= 1. It lies
    left of sqrt(-log tail_mass), as erfc(v) < exp(-v^2)."""
    return _invert_tail(
        math.erfc,
        lambda v: 2.0 / math.sqrt(math.pi) * math.exp(-v * v),
        tail_mass,
        math.sqrt(-math.log(tail_mass)),
    )


@functools.lru_cache(maxsize=None)
def _chi2_upper_quantile(dof: int, tail_mass: float) -> float:
    """The q with Pr(chi2_dof > q) = tail_mass, for 0 < tail_mass < 1/2:
    Newton's method in x = q/2, from the Wilson-Hilferty approximation."""
    a = 0.5 * dof
    z = math.sqrt(2.0) * _erfc_inverse(2.0 * tail_mass)
    k = 2.0 / (9.0 * dof)
    x = _invert_tail(
        lambda x: float(_chi2_sf(2.0 * x, dof)),
        lambda x: math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a)),
        tail_mass,
        a * (1.0 - k + z * math.sqrt(k)) ** 3,
    )
    return 2.0 * x


def _by_law(kernel, y, hyp: Hypothesis, law):
    """`kernel(y, hyp, law)` for one `LlrLaw`; for a tuple of laws, or their
    `LawStack`, one row per law.

    The (law, point) block is taken in slices of whole rows, as many as fit
    in `_TAIL_CHUNK` elements and at least one, so a tail's dozens of array
    passes stay in cache and a call pays its per-pass overhead once per
    slice, not once per law."""
    y = np.asarray(y, dtype=float)
    if isinstance(law, LlrLaw):
        return kernel(y, hyp, law)
    stack = law if isinstance(law, LawStack) else LawStack.of(law)
    points = y.ravel()
    out = np.empty((len(stack), points.size))
    step = max(1, _TAIL_CHUNK // max(points.size, 1))
    for start in range(0, len(stack), step):
        out[start : start + step] = kernel(points, hyp, stack.rows(start, start + step))
    return out.reshape((len(stack),) + y.shape)


def _pdf(y, hyp: Hypothesis, law):
    if law.model is MeasurementModel.ENERGY_CHI_SQUARE:
        s = law.scale(hyp)
        q = (y + law.shift) / s
        half = 0.5 * law.dof
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (half - 1.0) * np.log(q) - 0.5 * q - math.lgamma(half) - half * math.log(2.0)
        return np.where(q > 0.0, np.exp(logpdf) / s, 0.0)
    z = (y - law.mean(hyp)) / law.scale0
    return np.exp(-0.5 * z * z - _LOG_SQRT_2PI) / law.scale0


def llr_pdf(y, hyp: Hypothesis, law):
    """Density of the LLR at y under `hyp`; zero outside the support. For a
    tuple of laws that share one model and dof, or their `LawStack`, one
    row per law."""
    out = _by_law(_pdf, y, hyp, law)
    return out if out.ndim else float(out)


def _llr_tail(y, hyp: Hypothesis, law, upper: bool):
    """Pr(Y > y | hyp) if `upper`, else Pr(Y <= y | hyp). The energy lower
    tail is zero at chi-square argument q <= 0, below the support, and is
    not evaluated there."""
    if law.model is MeasurementModel.ENERGY_CHI_SQUARE:
        q = (y + law.shift) / law.scale(hyp)
        if upper:
            return _chi2_sf(q, law.dof)
        if np.ndim(q) == 0:
            return _chi2_cdf(q, law.dof) if q > 0.0 else 0.0
        inside = q > 0.0
        out = np.zeros(inside.shape)
        out[inside] = _chi2_cdf(q[inside], law.dof)
        return out
    z = (y - law.mean(hyp)) / law.scale0
    return _ndtr(-z if upper else z)


def _exceed(y, hyp: Hypothesis, law):
    a = np.abs(y)
    return _llr_tail(a, hyp, law, upper=True) + _llr_tail(-a, hyp, law, upper=False)


def exceed_prob(b, hyp: Hypothesis, law):
    """Pr(|Y| > |b| | hyp), the magnitude tail used by the order statistics.
    For a tuple of laws that share one model and dof, or their `LawStack`,
    one row per law."""
    out = _by_law(_exceed, b, hyp, law)
    return out if out.ndim else float(out)


def _log_central_mass(a, hyp: Hypothesis, law: LlrLaw):
    """log Pr(|Y| <= a | hyp) for a >= 0, from tails that are each computed
    directly, away from the mean, so that no difference cancels.

    Below |E[Y | hyp]| the interval [-a, a] lies on one side of the mean, and
    the mass is the difference of the two tails on that side: the lower
    tails if the mean is positive, the upper tails if it is negative. From
    |E[Y | hyp]| on it straddles the mean, and the log mass is log1p of minus
    the magnitude tail, the sum of the two outer tails. A zero mass gives
    -inf; the caller silences numpy's divide warning."""
    flat = a.ravel()
    mean = law.mean(hyp)
    near = flat < abs(mean)
    n_near = np.count_nonzero(near)
    out = np.empty_like(flat)
    # a side without points is skipped: a tail costs dozens of array passes,
    # on an empty array too
    if n_near:
        upper = mean < 0.0
        inner = flat[near]
        # the tail at the end nearer the mean less the one at the farther end
        nearer, farther = (-inner, inner) if upper else (inner, -inner)
        out[near] = np.log(_llr_tail(nearer, hyp, law, upper) - _llr_tail(farther, hyp, law, upper))
    if n_near < flat.size:
        out[~near] = np.log1p(-exceed_prob(flat[~near], hyp, law))
    return out.reshape(a.shape)


def correction_term(y, law: LlrLaw):
    """log of the central-mass ratio Pr(|Y|<=y|H1) / Pr(|Y|<=y|H0).

    Vanishes at y = 0 (analytic limit equals the density ratio there, which
    is one) and as y -> inf (both masses reach one).
    """
    a = np.abs(np.asarray(y, dtype=float))
    # at a = 0 both masses are zero, and the difference of their logs is NaN
    # until the analytic zero replaces it
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _log_central_mass(a, Hypothesis.H1, law) - _log_central_mass(a, Hypothesis.H0, law)
    out = np.where(a < _ZERO_LIMIT, 0.0, out)
    return out if out.ndim else float(out)


def _correction_slope(a, law: LlrLaw):
    """Derivative of `correction_term` at a > 0: the sum over hypotheses of
    +-(f(a) + f(-a)) / Pr(|Y| <= a), f the LLR density, + for H1."""
    out = np.zeros_like(a)
    for hyp, sign in ((Hypothesis.H1, 1.0), (Hypothesis.H0, -1.0)):
        density = llr_pdf(a, hyp, law) + llr_pdf(-a, hyp, law)
        out += sign * density * np.exp(-_log_central_mass(a, hyp, law))
    return out


class CorrectionEnvelope:
    """The correction term on a dense grid: its running extrema over [0, a]
    and a cubic table of the term itself.

    The grid is three uniform pieces, so the cell holding a report is
    computed arithmetically (`cell`), and both the prefix min/max arrays and
    the table are read at that cell. Extrema over nested intervals are
    monotone, which the prefix arrays realize by construction; callers
    combine them with the term at their own query points.

    Each table cell holds the cubic Hermite interpolant of the term from its
    values and exact derivatives at the cell's two nodes. At build time each
    cell is checked at its midpoint against `correction_term`. Reports in a
    flagged cell get `correction_term` itself; a cell is flagged when
    - its midpoint misses by more than `_TABLE_TOLERANCE`: next to the
      support kink at |y| = shift, or where the term is noisy;
    - it starts below `_ZERO_LIMIT`, where the term steps from its analytic
      zero to the computed value;
    - it lies past the last node.
    So the table caches the one implementation of the term and follows any
    change to it.
    """

    def __init__(self, law: LlrLaw):
        lo_mid, hi_mid = law.effective_range(1e-6)
        _, hi_far = law.effective_range(1e-14)
        y_mid = max(abs(lo_mid), abs(hi_mid), 2.0 * law.shift)
        y_hi = max(abs(hi_far), 4.0 * law.shift, y_mid * 1.5)
        # the term's structure sits within a few shifts of the origin; spend
        # half the dense budget there and the rest out to the 1e-6 quantile,
        # which keeps at least half of [0, y_mid]
        y_core = min(4.0 * law.shift, 0.5 * y_mid)
        half = _ENVELOPE_DENSE_POINTS // 2
        pieces = (  # (start, stop, nodes, endpoint) of each linspace
            (0.0, y_core, half, False),
            (y_core, y_mid, _ENVELOPE_DENSE_POINTS - half, False),
            (y_mid, y_hi, _ENVELOPE_TAIL_POINTS, True),
        )
        grid = np.concatenate([np.linspace(lo, hi, n, endpoint=end) for lo, hi, n, end in pieces])
        values = np.asarray(correction_term(grid, law), dtype=float)
        self._law = law
        self._grid = grid
        self._prefix_min = np.minimum.accumulate(values)
        self._prefix_max = np.maximum.accumulate(values)
        # where each piece starts, its first node and its nodes per unit of
        # |y|; every piece has positive length, as shift > 0
        starts, _, counts, _ = zip(*pieces)
        self._piece_start = np.array(starts)
        self._piece_first = np.cumsum((0,) + counts[:-1])
        self._piece_density = np.array([(n - end) / (hi - lo) for lo, hi, n, end in pieces])
        # the last cell has no end node: NaN compares false with every a
        self._cell_end = np.append(grid[1:], np.nan)

        width = np.diff(grid)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            slope = _correction_slope(grid, law)
            secant = np.diff(values) / width
            d0, d1 = slope[:-1], slope[1:]
            # coefficients of powers of (a - node), one row per power so
            # that each is one gather
            self._cubic = np.zeros((4, grid.size))
            self._cubic[:, :-1] = (
                values[:-1],
                d0,
                (3.0 * secant - 2.0 * d0 - d1) / width,
                (d0 + d1 - 2.0 * secant) / width**2,
            )
            mid = grid[:-1] + 0.5 * width
            miss = ~(
                np.abs(self._cubic_at(mid, np.arange(grid.size - 1)) - correction_term(mid, law))
                <= _TABLE_TOLERANCE
            )
        self._exact = np.append(miss | (grid[:-1] < _ZERO_LIMIT), True)
        self._cubic[:, self._exact] = 0.0

    def cell(self, a) -> np.ndarray:
        """Index of the grid cell holding each a >= 0: the last node <= a,
        `searchsorted(grid, a, "right") - 1`, from the piece arithmetic and
        one correction step each way."""
        a = np.asarray(a, dtype=float)
        piece = (a >= self._piece_start[1]).astype(np.intp) + (a >= self._piece_start[2])
        guess = self._piece_first[piece] + (a - self._piece_start[piece]) * self._piece_density[piece]
        idx = np.minimum(guess, self._grid.size - 1).astype(np.intp)
        idx -= self._grid[idx] > a
        idx += self._cell_end[idx] <= a
        return idx

    def prefix_extrema(self, cell: np.ndarray):
        """(min, max) of the term over grid nodes 0..cell, elementwise."""
        return self._prefix_min[cell], self._prefix_max[cell]

    def term(self, a: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """The correction term at each a >= 0 in `cell`: the cubic, or the
        exact term where the cell is flagged."""
        out = np.asarray(self._cubic_at(a, cell))
        exact = self._exact[cell]
        out[exact] = correction_term(a[exact], self._law)
        return out

    def _cubic_at(self, a, cell):
        u = a - self._grid[cell]
        c0, c1, c2, c3 = (row[cell] for row in self._cubic)
        return c0 + u * (c1 + u * (c2 + u * c3))


@functools.lru_cache(maxsize=32)
def envelope_for(law: LlrLaw) -> CorrectionEnvelope:
    return CorrectionEnvelope(law)
