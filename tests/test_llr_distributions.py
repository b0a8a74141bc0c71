import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from ordfuse import dp_policy, llr_distributions
from ordfuse.defaults import default_scenario
from ordfuse.dp_policy import CostModel, solve_backward
from ordfuse.fusion_sim import make_detector, run_monte_carlo
from ordfuse.llr_distributions import (
    _TAIL_CHUNK,
    _ZERO_LIMIT,
    LawStack,
    LlrLaw,
    _chi2_cdf,
    _chi2_sf,
    _erfcx,
    _llr_tail,
    _log_central_mass,
    _ndtr,
    correction_term,
    envelope_for,
    exceed_prob,
    llr_pdf,
)
from ordfuse.reference import chi2_tails, correction_extrema, envelope_extrema
from ordfuse.sensing_model import Hypothesis, MeasurementModel

H0, H1 = Hypothesis.H0, Hypothesis.H1


def _cdf(y, hyp, law):
    """Pr(Y <= y | hyp)."""
    return _llr_tail(y, hyp, law, upper=False)


class TestLawConstruction:
    def test_energy_scales(self, law):
        assert law.scale0 == pytest.approx(2.0 / 6.0)
        assert law.scale1 == pytest.approx(1.0)
        assert law.scale0 < law.scale1
        assert law.shift == pytest.approx(1.5 * math.log(3.0))

    def test_invalid_snr(self):
        with pytest.raises(ValueError):
            LlrLaw.energy(3, 0.0)

    def test_shift_in_mean_symmetric_means(self, shift_law):
        # d^2 = N (mu1 - mu0)^2 / sigma2 = 12
        assert shift_law.scale0 == pytest.approx(math.sqrt(12.0))
        assert shift_law.shift == pytest.approx(6.0)


TAIL_DOFS = (1, 2, 3, 4, 5, 8, 10, 20, 40, 41, 100)


def _tail_points(dof):
    """Log-spaced q from 1e-8 to 1e3, and q = dof and 50 ulps either side."""
    ulps = np.arange(-50, 51)
    return np.concatenate([np.logspace(-8.0, 3.0, 2001), dof + ulps * np.spacing(float(dof))])


class TestChi2Tails:
    """The closed-form upper tail above the mean and the power-series lower
    tail below it, each with its complement, against scipy's pair at every
    point."""

    @pytest.mark.parametrize("dof", TAIL_DOFS)
    def test_match_scipy_oracle(self, dof):
        q = _tail_points(dof)
        for got, want in zip((_chi2_cdf(q, dof), _chi2_sf(q, dof)), chi2_tails(q, dof)):
            kept = want >= 1e-300
            assert np.all(np.abs(got[kept] - want[kept]) <= 1e-12 * want[kept])

    @pytest.mark.parametrize("dof", TAIL_DOFS)
    def test_tails_complementary(self, dof):
        q = _tail_points(dof)
        assert np.max(np.abs(_chi2_cdf(q, dof) + _chi2_sf(q, dof) - 1.0)) <= 2.0**-52

    @pytest.mark.parametrize("dof", TAIL_DOFS)
    def test_nonpositive_q_gives_zero_and_one(self, dof):
        q = np.array([0.0, -0.0, -1e-300, -3.0, -np.inf])
        assert np.array_equal(_chi2_cdf(q, dof), np.zeros(5))
        assert np.array_equal(_chi2_sf(q, dof), np.ones(5))

    @pytest.mark.parametrize("dof", (1, 4, 41))
    def test_infinite_and_nan_q(self, dof):
        q = np.array([np.inf, np.nan, 2.0 * dof])
        assert np.array_equal(_chi2_cdf(q, dof)[:2], [1.0, np.nan], equal_nan=True)
        assert np.array_equal(_chi2_sf(q, dof)[:2], [0.0, np.nan], equal_nan=True)

    @pytest.mark.parametrize("dof", (3, 40))
    @pytest.mark.parametrize("q", (0.5, 3.0, 40.0, 300.0))
    def test_scalar_forms_match_one_element_array(self, dof, q):
        for tail in (_chi2_cdf, _chi2_sf):
            want = tail(np.array([q]), dof)[0]
            assert tail(q, dof) == want
            assert tail(np.asarray(q), dof) == want

    @pytest.mark.parametrize("dof", (1, 3, 40, 41))
    def test_scalar_matches_array(self, dof):
        # a scalar takes the tails in Python floats, with the steps and so
        # the bits of the array path
        q = _tail_points(dof)
        for tail in (_chi2_cdf, _chi2_sf):
            assert np.array_equal([tail(v, dof) for v in q], tail(q, dof))

    def test_empty_input(self):
        for tail in (_chi2_cdf, _chi2_sf):
            assert tail(np.empty((2, 0)), 3).shape == (2, 0)
        assert correction_term(np.empty(0), LlrLaw.energy(3, 2.0)).shape == (0,)

    @pytest.mark.parametrize("dof", (3, 40))
    def test_chunked_matches_unchunked(self, dof, monkeypatch):
        # an array larger than a chunk is taken in slices, with the bits of
        # one pass over the whole array
        q = np.random.default_rng(3).chisquare(dof, 5000)
        want = [tail(q, dof) for tail in (_chi2_cdf, _chi2_sf)]
        monkeypatch.setattr(llr_distributions, "_TAIL_CHUNK", 700)
        for tail, expected in zip((_chi2_cdf, _chi2_sf), want):
            assert np.array_equal(tail(q, dof), expected)
            assert np.array_equal(tail(q.reshape(50, 100), dof), expected.reshape(50, 100))

    @pytest.mark.parametrize("dof", (2, 3, 40))
    def test_mixed_input_matches_each_side_alone(self, dof):
        # an input on both sides of the mean is split, computed per side and
        # scattered back
        q = _tail_points(dof)
        above = q >= dof
        for tail in (_chi2_cdf, _chi2_sf):
            got = tail(q, dof)
            assert np.array_equal(got[above], tail(q[above], dof))
            assert np.array_equal(got[~above], tail(q[~above], dof))

    def test_energy_law_rejects_non_integer_dof(self):
        with pytest.raises(ValueError, match="integer dof"):
            LlrLaw.energy(2.5, 2.0)


class TestOnePointTails:
    """A one-point array takes the scalar path and is reshaped: its bits are
    those of the same point inside a larger array, on both sides of the
    mean."""

    @pytest.mark.parametrize("dof", (1, 2, 3, 10, 100))
    def test_chi2_one_point_matches_array(self, dof):
        q = _tail_points(dof)[::7]
        assert np.any(q < dof) and np.any(q > dof)
        for tail in (_chi2_cdf, _chi2_sf):
            want = tail(q, dof)
            for shape in ((1,), (1, 1)):
                got = np.concatenate([tail(np.full(shape, v), dof).ravel() for v in q])
                assert tail(np.full(shape, q[0]), dof).shape == shape
                assert np.array_equal(got, want)

    def test_ndtr_one_point_matches_array(self):
        z = np.concatenate([np.linspace(-38.0, 9.0, 471), [0.0, -0.0, np.inf, -np.inf]])
        want = _ndtr(z)
        for shape in ((1,), (1, 1)):
            assert _ndtr(np.full(shape, z[0])).shape == shape
            assert np.array_equal([_ndtr(np.full(shape, v)).item() for v in z], want)

    def test_gaussian_law_one_point_matches_array(self, shift_law):
        y = np.linspace(-3.0 * shift_law.shift, 3.0 * shift_law.shift, 301)
        for hyp in (H0, H1):
            for f in (_cdf, exceed_prob):
                want = f(y, hyp, shift_law)
                assert np.array_equal([f(y[i : i + 1], hyp, shift_law)[0] for i in range(y.size)], want)


def _energy_stack_laws():
    # the dp benchmark's non-identical sensors: sigma2_s 1.0 to 4.0
    return tuple(LlrLaw.energy(3, 1.0 + 0.2 * i) for i in range(16))


def _shift_stack_laws():
    return tuple(LlrLaw.shift_in_mean(3, 0.0, mu1, 1.0) for mu1 in (0.1, 0.5, 1.0, 2.0, 3.0))


class TestLawStack:
    """`llr_pdf` and `exceed_prob` on a tuple of laws, or their `LawStack`,
    give bit for bit the rows of one call per law, however the (law, point)
    block is cut into slices."""

    LAWS = [pytest.param(_energy_stack_laws, id="energy"),
            pytest.param(_shift_stack_laws, id="shift")]

    @staticmethod
    def _points(laws, n):
        # every law's shift and its neighbours on both sides, either sign,
        # then points spread over the supports, repeated up to n
        shifts = np.array([law.shift for law in laws])
        near = np.concatenate([shifts * f for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.5, 2.0)])
        base = np.concatenate([near, -near, [0.0], np.linspace(-2.0 * shifts.max(), 30.0, 997)])
        return np.resize(base, n)

    @staticmethod
    def _assert_rows_match(laws, y):
        stack = LawStack.of(laws)
        for hyp in (H0, H1):
            for f in (llr_pdf, exceed_prob):
                want = np.stack([np.asarray(f(y, hyp, law)) for law in laws])
                assert np.array_equal(f(y, hyp, laws), want)
                assert np.array_equal(f(y, hyp, stack), want)

    @pytest.mark.parametrize("laws", LAWS)
    @pytest.mark.parametrize("n", (0, 1, _TAIL_CHUNK - 1, _TAIL_CHUNK, _TAIL_CHUNK + 1))
    def test_rows_match_per_law_calls(self, laws, n):
        laws = laws()
        self._assert_rows_match(laws, self._points(laws, n))

    @pytest.mark.parametrize("laws", LAWS)
    def test_row_slice_boundaries(self, laws):
        # rows per slice change where n crosses a divisor of the chunk size:
        # 3 and 2 rows at 2730 and 2731, all and all but one at M and M + 1
        # rows' worth, and a last slice of one row
        laws = laws()
        m = len(laws)
        for n in (_TAIL_CHUNK // 3, _TAIL_CHUNK // 3 + 1, _TAIL_CHUNK // m, _TAIL_CHUNK // m + 1):
            self._assert_rows_match(laws, self._points(laws, n))

    @pytest.mark.parametrize("laws", LAWS)
    def test_shapes(self, laws):
        laws = laws()
        for y, shape in ((1.5, ()), (np.array(1.5), ()), (np.ones((3, 4)), (3, 4)),
                         (np.empty((2, 0)), (2, 0))):
            for f in (llr_pdf, exceed_prob):
                got = f(y, H1, laws)
                assert got.shape == (len(laws),) + shape
                want = [f(np.asarray(y), H1, law) for law in laws]
                assert np.array_equal(got, np.reshape(want, got.shape))

    def test_columns(self):
        laws = _energy_stack_laws()
        stack = LawStack.of(laws)
        assert len(stack) == 16 and stack.shift.shape == (16, 1)
        assert stack.scale(H0) is stack.scale0 and stack.scale(H1) is stack.scale1
        assert stack.scale1[:, 0].tolist() == [law.scale1 for law in laws]
        part = stack.rows(3, 5)
        assert part.shift[:, 0].tolist() == [laws[3].shift, laws[4].shift]

    def test_rejects_mixed_laws(self):
        with pytest.raises(ValueError, match="one model and dof"):
            LawStack.of((LlrLaw.energy(3, 2.0), LlrLaw.energy(4, 2.0)))
        with pytest.raises(ValueError, match="one model and dof"):
            exceed_prob(1.0, H0, (LlrLaw.energy(3, 2.0), LlrLaw.shift_in_mean(3, 0.0, 1.0, 1.0)))


def test_tail_bits_match_recorded_digest(check_digest):
    # the tails' bits, which a CSV digest cannot see move by one ulp: per law,
    # a seeded unsorted mix of points on both sides of both means, one point,
    # and points above both means; then a 16-law stack on the mix
    laws = [LlrLaw.energy(n, snr) for n in (1, 3, 10, 40) for snr in (0.1, 2.0, 50.0)]
    laws.append(LlrLaw.shift_in_mean(3, -1.0, 1.0, 2.0))
    rng = np.random.default_rng(29)
    outputs = []
    for law in laws:
        lo, hi = law.effective_range(1e-9)
        near = [law.mean(hyp) + law.scale(hyp) * math.sqrt(2.0 * law.dof) * rng.standard_normal(250)
                for hyp in (H0, H1)]
        mix = rng.permutation(np.concatenate(near + [rng.uniform(lo, hi, 100)]))
        top = max(abs(law.mean(H0)), abs(law.mean(H1)))
        for y in (mix, np.array([0.5 * hi]), rng.uniform(top, hi, 200)):
            outputs += [f(y, hyp, law) for hyp in (H0, H1) for f in (exceed_prob, llr_pdf)]
            outputs.append(correction_term(y, law))
    stack = LawStack.of(tuple(LlrLaw.energy(3, snr) for snr in np.geomspace(0.1, 50.0, 16)))
    y = rng.uniform(-stack.shift.max(), 60.0, 600)
    outputs += [f(y, hyp, stack) for hyp in (H0, H1) for f in (exceed_prob, llr_pdf)]
    check_digest("kernel/tails", b"".join(np.asarray(out, dtype=float).tobytes() for out in outputs))


class TestErfcx:
    """The tabled erfcx against scipy's over the range where exp(-v^2) does
    not underflow. Each is within about 8 ulps of the exact value, so they
    agree within 4e-15."""

    def test_matches_scipy(self):
        v = np.concatenate([[0.0], np.logspace(-12.0, math.log10(27.3), 4001),
                            np.linspace(0.0, 27.3, 4001)])
        assert np.max(np.abs(_erfcx(v) - special.erfcx(v)) / special.erfcx(v)) <= 4e-15

    def test_ends_and_nan(self):
        got = _erfcx(np.array([np.inf, 1e300, np.nan]))
        assert np.all(np.isfinite(got[:2])) and np.isnan(got[2])
        assert math.isnan(_erfcx(math.nan))

    def test_float_matches_array(self):
        v = np.concatenate([[0.0, 1e-300], np.logspace(-8.0, 3.0, 200)])
        assert np.array_equal([_erfcx(float(x)) for x in v], _erfcx(v))


SHIFT_LAWS = [
    pytest.param(LlrLaw.shift_in_mean(3, 0.0, mu1, 1.0), id=f"shift-mu1-{mu1:g}")
    for mu1 in (0.1, 1.0, 3.0)
]


class TestNormalTails:
    """The shift-in-mean cdf and magnitude tail against scipy's `ndtr`. Both
    round z^2/2 in exp(-z^2/2), which moves a tail of 1e-300 by up to about
    2.5e-13 of itself in scipy and 1e-13 here, so they agree within 5e-13
    wherever the oracle is at least 1e-300."""

    @staticmethod
    def _means(law):
        return ((H0, -law.shift), (H1, law.shift))

    @pytest.mark.parametrize("law", SHIFT_LAWS)
    def test_tails_match_ndtr(self, law):
        for hyp, mean in self._means(law):
            z = np.concatenate([np.linspace(-38.0, 9.0, 4001), np.linspace(-1.0, 1.0, 401)])
            y = mean + law.scale0 * z
            want = special.ndtr((y - mean) / law.scale0)
            got = _cdf(y, hyp, law)
            kept = want >= 1e-300
            assert np.all(np.abs(got[kept] - want[kept]) <= 5e-13 * want[kept])
            want = special.ndtr(-(y - mean) / law.scale0)
            got = _llr_tail(y, hyp, law, upper=True)
            kept = want >= 1e-300
            assert np.all(np.abs(got[kept] - want[kept]) <= 5e-13 * want[kept])

    @pytest.mark.parametrize("law", SHIFT_LAWS)
    def test_exceed_prob_matches_ndtr(self, law):
        for hyp, mean in self._means(law):
            a = np.linspace(0.0, law.shift + 38.0 * law.scale0, 4001)
            want = special.ndtr(-(a - mean) / law.scale0) + special.ndtr((-a - mean) / law.scale0)
            got = exceed_prob(a, hyp, law)
            kept = want >= 1e-300
            assert np.all(np.abs(got[kept] - want[kept]) <= 5e-13 * want[kept])

    def test_scalar_and_chunked_match_array(self, shift_law, monkeypatch):
        # as for the chi-square tails: a scalar, or an array taken in slices,
        # gets the bits of one pass over the whole array
        y = np.linspace(-40.0, 40.0, 1001)
        for f in (_cdf, exceed_prob):
            want = f(y, H0, shift_law)
            assert np.array_equal([f(v, H0, shift_law) for v in y], want)
            with monkeypatch.context() as patch:
                patch.setattr(llr_distributions, "_TAIL_CHUNK", 90)
                assert np.array_equal(f(y, H0, shift_law), want)


TAIL_MASSES = (1e-6, 1e-12, 1e-14)


class TestEffectiveRange:
    """The quantiles that bound each law's support, solved by Newton's method
    on the tails, against scipy's inverses: within 2e-15, a few ulps."""

    @pytest.mark.parametrize("tail_mass", TAIL_MASSES)
    @pytest.mark.parametrize("dof", TAIL_DOFS)
    def test_energy_matches_gammainccinv(self, dof, tail_mass):
        law = LlrLaw.energy(dof, 2.0)
        lo, hi = law.effective_range(tail_mass)
        assert lo == -law.shift
        q_hi = 2.0 * special.gammainccinv(0.5 * dof, tail_mass)
        assert hi == pytest.approx(law.scale1 * q_hi - law.shift, rel=2e-15)

    @pytest.mark.parametrize("tail_mass", TAIL_MASSES)
    @pytest.mark.parametrize("dof", TAIL_DOFS)
    def test_shift_in_mean_matches_erfcinv(self, dof, tail_mass):
        law = LlrLaw.shift_in_mean(dof, -1.0, 1.0, 4.0)
        lo, hi = law.effective_range(tail_mass)
        spread = law.scale0 * math.sqrt(2.0) * special.erfcinv(tail_mass)
        assert lo == pytest.approx(-law.shift - spread, rel=2e-15)
        assert hi == pytest.approx(law.shift + spread, rel=2e-15)


class TestPdfCdf:
    def test_zero_outside_support(self, law):
        assert llr_pdf(-law.shift - 0.5, H0, law) == 0.0
        assert llr_pdf(-law.shift - 1e-9, H1, law) == 0.0

    @pytest.mark.parametrize("hyp", [H0, H1])
    def test_pdf_normalizes(self, law, hyp):
        hi = law.effective_range(1e-13)[1]
        total, _ = quad(lambda y: llr_pdf(y, hyp, law), -law.shift, hi, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_cdf_limits(self, law):
        assert _cdf(-law.shift, H0, law) == 0.0
        assert _cdf(1e9, H0, law) == pytest.approx(1.0, abs=1e-15)
        assert _cdf(1e9, H1, law) == pytest.approx(1.0, abs=1e-15)

    def test_cdf_monotone(self, law):
        ys = np.linspace(-law.shift, 30.0, 400)
        for hyp in (H0, H1):
            values = _cdf(ys, hyp, law)
            assert np.all(np.diff(values) >= 0)

    @pytest.mark.parametrize("hyp", [H0, H1])
    def test_cdf_finite_difference_matches_pdf(self, law, hyp):
        # central differences, h small enough that the 1e-6 bound is honest
        h = 1e-5
        ys = np.linspace(-law.shift + 0.2, 8.0, 20)
        fd = (_cdf(ys + h, hyp, law) - _cdf(ys - h, hyp, law)) / (2.0 * h)
        assert np.max(np.abs(fd - llr_pdf(ys, hyp, law))) < 1e-6

    def test_density_ratio_identity(self, law):
        # log f(y|H1) - log f(y|H0) = y across the support interior
        ys = np.linspace(-law.shift + 1e-3, 25.0, 200)
        direct = np.log(llr_pdf(ys, H1, law)) - np.log(llr_pdf(ys, H0, law))
        assert np.max(np.abs(direct - ys)) < 1e-9

    def test_density_ratio_identity_pointwise(self, law):
        got = math.log(llr_pdf(1.0, H1, law) / llr_pdf(1.0, H0, law))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_density_ratio_identity_shift_law(self, shift_law):
        ys = np.linspace(-12.0, 12.0, 101)
        direct = np.log(llr_pdf(ys, H1, shift_law)) - np.log(llr_pdf(ys, H0, shift_law))
        assert np.max(np.abs(direct - ys)) < 1e-9


class TestExceedProb:
    def test_at_zero(self, law):
        assert exceed_prob(0.0, H0, law) == pytest.approx(1.0, abs=1e-15)

    def test_at_infinity(self, law):
        assert exceed_prob(1e9, H1, law) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("law", [
        pytest.param(LlrLaw.energy(3, 2.0), id="energy-N3-snr2"),
        pytest.param(LlrLaw.energy(1, 0.1), id="energy-N1-snr0.1"),
        pytest.param(LlrLaw.energy(40, 50.0), id="energy-N40-snr50"),
        pytest.param(LlrLaw.shift_in_mean(3, -1.0, 1.0, 1.0), id="shift-6"),
        pytest.param(LlrLaw.shift_in_mean(40, -2.0, 2.0, 1.0), id="shift-320"),
    ])
    def test_complement_identity(self, law):
        # the log central mass takes the difference of two tails below
        # |E[Y|hyp]| and log1p of minus the magnitude tail from there on
        for hyp in (H0, H1):
            edge = abs(law.mean(hyp))
            b = edge * np.concatenate([np.linspace(0.0, 1.0, 40, endpoint=False)[1:],
                                       np.linspace(1.0, 6.0, 40)])
            total = np.exp(_log_central_mass(b, hyp, law)) + exceed_prob(b, hyp, law)
            assert np.max(np.abs(total - 1.0)) <= 1e-12


def _quad_log_mass(y, hyp, law):
    """log Pr(|Y| <= y | hyp) by adaptive quadrature of the law's density
    over [-y, y], cut at the mode and the energy law's support start."""
    if law.model is MeasurementModel.ENERGY_CHI_SQUARE:
        kinks = (-law.shift, law.scale(hyp) * max(law.dof - 2, 0) - law.shift)
    else:
        kinks = (law.mean(hyp),)
    cuts = sorted({-y, y} | {c for c in kinks if -y < c < y})
    return math.log(sum(
        quad(lambda w: llr_pdf(w, hyp, law), lo, hi, limit=200, epsabs=0.0, epsrel=1e-12)[0]
        for lo, hi in zip(cuts, cuts[1:])
    ))


QUAD_LAWS = [
    pytest.param(LlrLaw.energy(dof, snr), id=f"energy-N{dof}-snr{snr:g}")
    for dof in (1, 3, 10, 40) for snr in (0.1, 2.0, 50.0, 1000.0)
]


class TestCorrectionTerm:
    def test_zero_at_origin(self, law):
        assert correction_term(0.0, law) == 0.0

    def test_vanishes_at_infinity(self, law):
        assert abs(correction_term(200.0, law)) < 1e-12

    def test_quadrature_cross_check(self, law):
        # independent oracle: integrate the densities instead of differencing cdfs
        for y in np.linspace(0.15, law.shift - 0.05, 7):
            m = [quad(lambda w, h=h: llr_pdf(w, h, law), -y, y, limit=200)[0] for h in (H1, H0)]
            oracle = math.log(m[0] / m[1])
            assert correction_term(y, law) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("law", QUAD_LAWS)
    def test_matches_quadrature_across_laws(self, law):
        # log-spaced |y| out to four shifts, and each hypothesis's |E[Y|hyp]|,
        # where the log central mass changes form; past about 2e4 plain
        # quadrature misses the SNR-1000 laws' mass
        edges = [abs(law.mean(hyp)) for hyp in (H0, H1)]
        for y in [*np.geomspace(1e-4, 4.0 * law.shift, 7), *edges]:
            oracle = _quad_log_mass(y, H1, law) - _quad_log_mass(y, H0, law)
            assert correction_term(y, law) == pytest.approx(oracle, abs=1e-9)

    def test_non_monotone(self, law):
        # dips negative in the interior and returns to zero in the tail
        ys = np.linspace(0.0, 40.0, 800)
        values = correction_term(ys, law)
        assert values.min() < -0.3
        assert abs(values[-1]) < 1e-6

    @pytest.mark.parametrize(("dof", "mu", "shift"), [(3, 1.0, 6.0), (10, 2.0, 80.0), (40, 2.0, 320.0)])
    def test_shift_in_mean_identically_zero(self, dof, mu, shift):
        # the two hypotheses' |Y| laws are mirror images, and each log
        # central mass takes the same tails in the same order
        law = LlrLaw.shift_in_mean(dof, -mu, mu, 1.0)
        assert law.shift == shift
        ys = np.concatenate([np.linspace(0.0, 4.0 * shift, 4001), shift * (1.0 + np.arange(-5, 6) * 1e-15)])
        assert np.all(correction_term(ys, law) == 0.0)

    def test_quadrature_cross_check_extreme_snr(self):
        # N=40, SNR 50: H0's central interval lies in the upper tail of
        # chi-square(40), where a cdf difference or 1 - tail would cancel
        law = LlrLaw.energy(40, 50.0)
        for y in (0.05, 0.222, 2.1, 6.48):
            m = [quad(lambda w, h=h: llr_pdf(w, h, law), -y, y, limit=200, epsabs=0.0,
                      epsrel=1e-12)[0] for h in (H1, H0)]
            assert correction_term(y, law) == pytest.approx(math.log(m[0] / m[1]), abs=1e-9)


class TestCorrectionTermShape:
    def test_python_scalar_gives_float(self, law):
        got = correction_term(1.5, law)
        assert type(got) is float
        assert got == correction_term(np.array([1.5]), law)[0]

    def test_zero_d_array_gives_float(self, law):
        got = correction_term(np.array(1.5), law)
        assert type(got) is float
        assert got == correction_term(1.5, law)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty(self, law, shape):
        got = correction_term(np.empty(shape), law)
        assert isinstance(got, np.ndarray) and got.shape == shape

    def test_matrix_equals_flat_evaluation(self, law, rng):
        # magnitudes on both sides of each |E[Y|hyp]| in one array
        y = rng.uniform(0.0, 20.0, (250, 8))
        got = correction_term(y, law)
        assert got.shape == y.shape
        assert np.array_equal(got, correction_term(y.ravel(), law).reshape(y.shape))

    def test_negative_gives_value_at_magnitude(self, law, rng):
        y = rng.uniform(0.0, 20.0, 500)
        assert np.array_equal(correction_term(-y, law), correction_term(y, law))

    def test_zero_below_limit(self, law):
        y = np.array([0.0, 1e-12, -5e-9, 0.99 * _ZERO_LIMIT, -0.99 * _ZERO_LIMIT])
        assert np.array_equal(correction_term(y, law), np.zeros(5))


SPLIT_LAWS = [
    pytest.param(LlrLaw.energy(dof, snr), id=f"energy-N{dof}-snr{snr:g}")
    for dof in (1, 2, 3, 8, 40) for snr in (0.05, 2.0, 50.0)
] + SHIFT_LAWS


class TestMeanSplit:
    """The log central mass changes form at |E[Y|hyp]|: below it the
    difference of the two tails on the mean's far side, from it on log1p of
    minus the magnitude tail."""

    @pytest.mark.parametrize("law", SPLIT_LAWS)
    @pytest.mark.parametrize("hyp", [H0, H1])
    def test_log_mass_matches_quadrature(self, law, hyp):
        # points on both sides of the split, down to a thousandth of it; on
        # the high-SNR laws a cdf difference cancels there
        edge = abs(law.mean(hyp))
        ys = edge * np.array([1e-3, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0])
        want = [_quad_log_mass(y, hyp, law) for y in ys]
        assert _log_central_mass(ys, hyp, law) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("law", SPLIT_LAWS)
    def test_forms_agree_at_the_split(self, law):
        # at |E[Y|hyp]| the mass is neither near zero nor near one, so
        # neither form cancels and the log mass has no step where it
        # changes form
        for hyp in (H0, H1):
            edge = abs(law.mean(hyp))
            ys = edge + np.arange(-200, 201) * np.spacing(edge)
            upper = law.mean(hyp) < 0.0
            nearer, farther = (-ys, ys) if upper else (ys, -ys)
            by_tails = np.log(_llr_tail(nearer, hyp, law, upper) - _llr_tail(farther, hyp, law, upper))
            by_exceed = np.log1p(-exceed_prob(ys, hyp, law))
            assert np.all(np.abs(by_tails - by_exceed) <= 1e-14 * np.abs(by_exceed))
            below = ys < edge
            got = _log_central_mass(ys, hyp, law)
            assert np.array_equal(got[below], by_tails[below])
            assert np.array_equal(got[~below], by_exceed[~below])


class TestCorrectionExtrema:
    def test_degenerate_interval(self, law):
        assert correction_extrema(0.0, law) == (0.0, 0.0)

    def test_negative_rejected(self, law):
        with pytest.raises(ValueError):
            correction_extrema(-1.0, law)

    def test_bounds_hold_on_random_points(self, law, rng):
        y_max = 5.0
        lo, hi = correction_extrema(y_max, law)
        values = correction_term(rng.uniform(0.0, y_max, 1000), law)
        assert np.all(values >= lo - 1e-12)
        assert np.all(values <= hi + 1e-12)

    def test_nested_interval_monotonicity(self, law):
        # evaluation noise near the origin is ~1e-10; the envelope used by the
        # detector is exactly monotone by construction (prefix arrays)
        mins, maxs = zip(*(correction_extrema(a, law) for a in (0.5, 1.0, 2.0, 4.0, 8.0)))
        assert all(a >= b - 1e-9 for a, b in zip(mins, mins[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(maxs, maxs[1:]))

    def test_envelope_near_monotone_in_query(self, law):
        # exact per-slot monotonicity is restored inside the detector by the
        # suffix augmentation; the raw envelope is monotone to grid resolution
        queries = np.linspace(0.0, 20.0, 500)
        lo, hi = envelope_extrema(queries, law)
        assert np.all(np.diff(lo) <= 1e-7)
        assert np.all(np.diff(hi) >= -1e-7)

    def test_envelope_agrees_with_refined_extrema(self, law):
        for a in (0.3, 1.0, 2.5, 6.0, 15.0):
            lo_ref, hi_ref = correction_extrema(a, law)
            lo_env, hi_env = envelope_extrema(a, law)
            assert lo_env == pytest.approx(lo_ref, abs=1e-6)
            assert hi_env == pytest.approx(hi_ref, abs=1e-6)

    def test_envelope_vector_queries(self, law):
        a = np.array([[0.5, 2.0], [4.0, 0.0]])
        lo, hi = envelope_extrema(a, law)
        assert lo.shape == a.shape
        assert np.all(lo <= 0.0) and np.all(hi >= lo)


def _searchsorted_cell(grid, a):
    return np.clip(np.searchsorted(grid, a, side="right") - 1, 0, grid.size - 1)


INDEX_LAWS = [
    pytest.param(LlrLaw.energy(dof, 2.0), id=f"energy-N{dof}") for dof in (1, 3, 10)
] + [pytest.param(LlrLaw.shift_in_mean(3, -1.0, 1.0, 1.0), id="shift")]

TABLE_LAWS = [
    pytest.param(LlrLaw.energy(dof, snr), id=f"energy-N{dof}-snr{snr:g}")
    for dof in (1, 2, 3, 5, 10) for snr in (0.1, 1.0, 2.0, 10.0)
] + [pytest.param(LlrLaw.shift_in_mean(3, -1.0, 1.0, 1.0), id="shift")]


class TestCorrectionEnvelope:
    @pytest.mark.parametrize("law", INDEX_LAWS)
    def test_cell_equals_searchsorted(self, law):
        envelope = envelope_for(law)
        grid = envelope._grid
        a = np.concatenate([
            grid,
            np.nextafter(grid, -np.inf)[1:],
            np.nextafter(grid, np.inf),
            [0.0, 1.5 * grid[-1], 1e300, np.inf],
        ])
        assert np.array_equal(envelope.cell(a), _searchsorted_cell(grid, a))

    @pytest.mark.parametrize("law", TABLE_LAWS)
    def test_table_follows_exact_term(self, law):
        envelope = envelope_for(law)
        top = 1.1 * envelope._grid[-1]
        a = np.concatenate([np.linspace(0.0, top, 40_001), np.logspace(-6.0, math.log10(top), 4_000)])
        got = envelope.term(a, envelope.cell(a))
        assert got[0] == 0.0
        assert np.max(np.abs(got - correction_term(a, law))) <= 1e-10

    @pytest.mark.parametrize("law", TABLE_LAWS)
    def test_no_cell_has_zero_width(self, law):
        # the dense core stops at half the 1e-6 quantile even where 4 shifts
        # reach past it (shift law, energy N=10 at SNR 0.1)
        assert np.all(np.diff(envelope_for(law)._grid) > 0.0)


@pytest.fixture
def scipy_tails(monkeypatch):
    """Switches the chi-square tails to scipy's pair when called; the cached
    envelopes and rank-density layouts built on either pair are dropped at
    each switch and at teardown."""

    def clear():
        envelope_for.cache_clear()
        dp_policy._rank_density_layout.cache_clear()

    def switch():
        monkeypatch.setattr(llr_distributions, "_chi2_cdf", lambda q, dof: chi2_tails(q, dof)[0])
        monkeypatch.setattr(llr_distributions, "_chi2_sf", lambda q, dof: chi2_tails(q, dof)[1])
        clear()

    clear()
    yield switch
    monkeypatch.undo()
    clear()


def _decisions():
    """Policies on the default and a 16-sensor non-identical scenario, and
    Monte Carlo metrics of every detector on the default scenario."""
    cost = CostModel.error_min()
    default = default_scenario()
    mixed = default_scenario(M=16, K=8, sigma2_s=tuple(1.0 + 0.2 * i for i in range(16)))
    policies = [solve_backward(cfg, cost) for cfg in (default, mixed)]
    metrics = [
        run_monte_carlo(default, make_detector(kind, default, cost), 20_000, seed=14, cost_model=cost)
        for kind in ("bs", "block-map", "dp")
    ]
    return policies, metrics


def test_decisions_match_scipy_tails(scipy_tails):
    policies, metrics = _decisions()
    scipy_tails()
    want_policies, want_metrics = _decisions()
    for got, want in zip(policies, want_policies):
        assert np.array_equal(got.actions, want.actions)
        assert np.array_equal(got.pi_low, want.pi_low)
        assert np.array_equal(got.pi_high, want.pi_high)
    assert metrics == want_metrics
