import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from ordfuse.defaults import default_scenario
from ordfuse.llr_distributions import LlrLaw, exceed_prob, llr_pdf
from ordfuse.order_stats import SensorEnsemble, ranked_pdf, ranked_pdfs, weighted_subset_coeffs
from ordfuse.reference import (
    UndefinedConditional,
    conditional_pdf,
    conditional_pdf_closed_form,
    joint_consecutive_pdf,
    joint_topk_pdf,
    subset_weight_sum,
)
from ordfuse.sensing_model import Hypothesis, draw_slots

H0, H1 = Hypothesis.H0, Hypothesis.H1


def _random_ensemble(m, rng):
    return SensorEnsemble(tuple(LlrLaw.energy(3, g) for g in rng.uniform(0.5, 4.0, m)))


# the non-identical fixtures of the solver tests and of the dp benchmark
M6 = SensorEnsemble.from_config(default_scenario(M=6, sigma2_s=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5)))
M16 = SensorEnsemble.from_config(
    default_scenario(M=16, sigma2_s=tuple(round(1.0 + 0.2 * i, 1) for i in range(16)))
)


def _textbook_coeffs(p, q, m_max):
    """The coefficient recurrence one coefficient at a time, each sensor
    updating only the coefficients up to its own degree."""
    c = np.zeros((m_max + 1,) + p.shape[1:])
    c[0] = 1.0
    for v in range(p.shape[0]):
        for j in range(min(v + 1, m_max), 0, -1):
            c[j] = c[j] * q[v] + c[j - 1] * p[v]
        c[0] = c[0] * q[v]
    return c


def _leave_one_out_pdfs(k_max, y, hyp, ensemble):
    """Rank densities from one recurrence per left-out sensor, each over
    the other M - 1 sensors from scratch."""
    y = np.asarray(y, dtype=float)
    f = np.stack([np.asarray(llr_pdf(y, hyp, law), dtype=float) for law in ensemble.laws])
    b = np.stack([np.asarray(exceed_prob(y, hyp, law), dtype=float) for law in ensemble.laws])
    out = np.zeros((k_max,) + y.shape)
    for r in range(ensemble.m):
        keep = [v for v in range(ensemble.m) if v != r]
        out = out + f[r] * weighted_subset_coeffs(b[keep], 1.0 - b[keep], k_max - 1)
    return out


def _per_law_ranked_pdf(m, y, hyp, ensemble):
    """Rank-m density of non-identical sensors from one `llr_pdf` and one
    `exceed_prob` call per law, stacked, then the shared-prefix
    leave-one-out recurrences in their fold order."""
    y = np.asarray(y, dtype=float)
    f = np.stack([np.asarray(llr_pdf(y, hyp, law), dtype=float) for law in ensemble.laws])
    b = np.stack([np.asarray(exceed_prob(y, hyp, law), dtype=float) for law in ensemble.laws])
    q = 1.0 - b
    out = np.zeros(y.shape)
    prefix = None
    for r in range(ensemble.m):
        out += f[r] * weighted_subset_coeffs(b[r + 1:], q[r + 1:], m - 1, prefix)[m - 1]
        prefix = weighted_subset_coeffs(b[r:r + 1], q[r:r + 1], m - 1, prefix)
    return out


def _traced_peak(fn, *args):
    """Peak bytes traced while fn runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _brute_subset_sum(m_sub, hyp, hi_arg, lo_arg, excluded, ensemble):
    included = [v for v in range(ensemble.m) if v not in excluded]
    total = 0.0
    for subset in itertools.combinations(included, m_sub):
        prod = 1.0
        for v in included:
            if v in subset:
                prod *= exceed_prob(hi_arg, hyp, ensemble.laws[v])
            else:
                prod *= 1.0 - exceed_prob(lo_arg, hyp, ensemble.laws[v])
        total += prod
    return total


class TestSubsetWeightSum:
    def test_empty_subset(self, ensemble):
        got = subset_weight_sum(0, H0, 1.0, 0.7, set(), ensemble)
        expected = np.prod([1.0 - exceed_prob(0.7, H0, law) for law in ensemble.laws])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_identical_sensors_binomial_collapse(self, ensemble):
        hi, lo = 1.3, 0.8
        m_sub = 3
        beta_hi = exceed_prob(hi, H1, ensemble.laws[0])
        beta_lo = exceed_prob(lo, H1, ensemble.laws[0])
        expected = math.comb(10, m_sub) * beta_hi ** m_sub * (1 - beta_lo) ** 7
        got = subset_weight_sum(m_sub, H1, hi, lo, set(), ensemble)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m_total", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_brute_force_enumeration(self, m_total):
        rng = np.random.default_rng(m_total)
        ens = _random_ensemble(m_total, rng)
        excluded = {0} if m_total > 2 else set()
        for m_sub in range(0, m_total - len(excluded) + 1):
            hi, lo = rng.uniform(0.2, 3.0, 2)
            got = subset_weight_sum(m_sub, H1, hi, lo, excluded, ens)
            brute = _brute_subset_sum(m_sub, H1, hi, lo, excluded, ens)
            assert got == pytest.approx(brute, abs=1e-12, rel=1e-12)

    def test_out_of_range_rejected(self, ensemble):
        with pytest.raises(ValueError, match="out of range"):
            subset_weight_sum(11, H0, 1.0, 1.0, set(), ensemble)

    def test_coeff_recurrence_full_vector(self, rng):
        p = rng.uniform(0.1, 0.9, 6)
        q = 1.0 - p
        coeffs = weighted_subset_coeffs(p, q, 6)
        assert coeffs.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m_max", [0, 1, 3, 7, 12])
    def test_recurrence_bit_identical_to_textbook(self, rng, m_max):
        # updating all coefficients at once leaves those above the degree +0
        p = rng.uniform(0.0, 1.0, (9, 40))
        p[:, :3] = (0.0, 1.0, 0.5)
        for pv, qv in ((p, 1.0 - p), (p[:, 0], 1.0 - p[:, 0])):
            assert np.array_equal(weighted_subset_coeffs(pv, qv, m_max), _textbook_coeffs(pv, qv, m_max))
            for split in (0, 1, 4, 9):
                head = weighted_subset_coeffs(pv[:split], qv[:split], m_max)
                kept = head.copy()
                both = weighted_subset_coeffs(pv[split:], qv[split:], m_max, head)
                assert np.array_equal(both, _textbook_coeffs(pv, qv, m_max))
                assert np.array_equal(head, kept)


class TestRankedPdf:
    def test_single_sensor_equals_law_pdf(self, law):
        ens = SensorEnsemble((law,))
        ys = np.linspace(-1.5, 6.0, 20)
        np.testing.assert_allclose(ranked_pdf(1, ys, H0, ens), llr_pdf(ys, H0, ens.laws[0]), rtol=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 5, 9, 10])
    def test_normalization_identical(self, ensemble, rank):
        law = ensemble.laws[0]
        hi = law.effective_range(1e-13)[1]
        total, _ = quad(
            lambda y: ranked_pdf(rank, y, H1, ensemble), -law.shift, hi,
            limit=400, points=[0.0, law.shift],
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_normalization_non_identical(self, rank):
        rng = np.random.default_rng(rank + 50)
        ens = _random_ensemble(3, rng)
        lo = min(law.effective_range()[0] for law in ens.laws)
        hi = max(law.effective_range(1e-13)[1] for law in ens.laws)
        total, _ = quad(lambda y: ranked_pdf(rank, y, H0, ens), lo, hi, limit=400, points=[0.0])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rank_sum_identity(self, ensemble):
        # summing the marginal over all ranks recovers M times the sensor pdf
        rng = np.random.default_rng(3)
        ys = rng.uniform(-1.5, 8.0, 20)
        total = sum(ranked_pdf(m, ys, H1, ensemble) for m in range(1, 11))
        np.testing.assert_allclose(total, 10.0 * llr_pdf(ys, H1, ensemble.laws[0]), atol=1e-8)

    def test_general_path_matches_identical_path(self, ensemble):
        mixed = SensorEnsemble(ensemble.laws[:9] + (LlrLaw.energy(3, 2.0 + 1e-13),))
        assert not mixed.is_identical
        ys = np.linspace(-1.2, 5.0, 9)
        for rank in (1, 4, 8):
            np.testing.assert_allclose(
                ranked_pdf(rank, ys, H0, mixed),
                ranked_pdf(rank, ys, H0, ensemble),
                rtol=1e-9,
            )

    def test_rank_out_of_range(self, ensemble):
        with pytest.raises(ValueError, match="rank"):
            ranked_pdf(0, 1.0, H0, ensemble)
        with pytest.raises(ValueError, match="rank"):
            ranked_pdf(11, 1.0, H0, ensemble)

    def test_monte_carlo_histogram(self, scenario, ensemble):
        # empirical rank-2 frequency per bin vs the bin-integrated density
        cfg = default_scenario(pi0=1.0)
        _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(17), 300_000)
        values = ordered[:, 1]
        hist, edges = np.histogram(values, bins=40, range=(-1.65, 3.0), density=True)
        width = edges[1] - edges[0]
        fine = np.linspace(edges[0], edges[-1], 40 * 16 + 1)
        dens = np.asarray(ranked_pdf(2, fine, H0, ensemble))
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(fine))])
        theory = np.diff(cum[::16]) / width
        se = np.sqrt(np.maximum(theory, 1e-12) / (values.size * width))
        assert np.all(np.abs(hist - theory) < 4.0 * se + 1e-4)


class TestSensorEnsemble:
    def test_caches_identity_and_stack(self):
        ens = SensorEnsemble(M6.laws)
        assert not ens.is_identical and "is_identical" in vars(ens)
        stack = ens.stack
        assert ens.stack is stack
        assert stack.shift[:, 0].tolist() == [law.shift for law in ens.laws]
        # the caches are not fields: equality and hashing see the laws only
        assert ens == SensorEnsemble(M6.laws) and hash(ens) == hash(SensorEnsemble(M6.laws))


class TestRankedPdfs:
    @pytest.mark.parametrize("kind", ["identical", "non-identical", "M16"])
    def test_rows_independent_of_depth(self, ensemble, kind):
        # row m - 1 is bit-identical whether the recurrence stops at rank m or K
        ens = {"identical": ensemble,
               "non-identical": _random_ensemble(10, np.random.default_rng(73)),
               "M16": M16}[kind]
        ys = np.linspace(-1.6, 9.0, 301)
        for hyp in (H0, H1):
            full = ranked_pdfs(8, ys, hyp, ens)
            assert full.shape == (8, ys.size)
            for m in range(1, 9):
                assert np.array_equal(full[m - 1], ranked_pdfs(m, ys, hyp, ens)[m - 1])
                assert np.array_equal(full[m - 1], ranked_pdf(m, ys, hyp, ens))

    @pytest.mark.parametrize("ens", [M6, M16], ids=["M6", "M16"])
    def test_shared_prefix_bit_identical_to_leave_one_out(self, ens):
        ys = np.concatenate([np.linspace(-2.1, 25.0, 257), [0.0, 1e-9, 60.0]])
        for hyp in (H0, H1):
            oracle = _leave_one_out_pdfs(ens.m, ys, hyp, ens)
            assert np.array_equal(ranked_pdfs(ens.m, ys, hyp, ens), oracle)
            for m in range(1, ens.m + 1):
                assert np.array_equal(ranked_pdf(m, ys, hyp, ens), oracle[m - 1])
            for y in (-1.3, 0.0, 0.8, 4.5):
                oracle = _leave_one_out_pdfs(ens.m, y, hyp, ens)
                assert np.array_equal(ranked_pdfs(ens.m, y, hyp, ens), oracle)
                for m in range(1, ens.m + 1):
                    got = ranked_pdf(m, y, hyp, ens)
                    assert type(got) is float and got == oracle[m - 1]

    @pytest.mark.parametrize("ens", [M6, M16], ids=["M6", "M16"])
    def test_law_pass_bit_identical_to_per_law_calls(self, ens):
        # the executor's sizes: a full chunk at stage 1, the live slots of
        # later stages, one slot
        rng = np.random.default_rng(18)
        for n in (8192, 2076, 148, 1):
            ys = rng.uniform(-2.5, 14.0, n)
            for hyp in (H0, H1):
                rows = ranked_pdfs(ens.m, ys, hyp, ens)
                for m in (1, 2, 5, ens.m):
                    want = _per_law_ranked_pdf(m, ys, hyp, ens)
                    assert np.array_equal(ranked_pdf(m, ys, hyp, ens), want)
                    assert np.array_equal(rows[m - 1], want)

    def test_stage_one_memory_within_per_law_loop(self):
        # one law pass holds the (M, n) density and tail blocks and slices
        # of at most `_TAIL_CHUNK` points, as the per-law loop holds its
        # stacks; a pass that also stacked both hypotheses would hold
        # (2, M, n) blocks, about 2 MB more of a 3.4 MB peak, and fail here
        ys = np.random.default_rng(5).uniform(-2.5, 14.0, 8192)
        for hyp in (H0, H1):
            assert np.array_equal(ranked_pdf(1, ys, hyp, M16), _per_law_ranked_pdf(1, ys, hyp, M16))
            peak = _traced_peak(ranked_pdf, 1, ys, hyp, M16)
            loop_peak = _traced_peak(_per_law_ranked_pdf, 1, ys, hyp, M16)
            assert peak <= 1.1 * loop_peak

    def test_deep_rank_memory_within_per_law_loop(self):
        # each leave-one-out coefficient block, (rank, n), is dropped once
        # added, as the per-law loop drops it; a block still held while the
        # next one is computed puts one block more on the peak
        ys = np.random.default_rng(5).uniform(-2.5, 14.0, 8192)
        block = 8 * ys.nbytes
        for hyp in (H0, H1):
            peak = _traced_peak(ranked_pdf, 8, ys, hyp, M16)
            loop_peak = _traced_peak(_per_law_ranked_pdf, 8, ys, hyp, M16)
            assert peak <= loop_peak + block // 2

    def test_rank_sum_identity_hundred_sensors(self):
        # M up to 100: the ranks of one slot partition the M sensors. The
        # rows of one depth-100 call are the rank densities (checked bit for
        # bit at a few ranks); 100 separate `ranked_pdf` calls take seconds.
        ens = SensorEnsemble.from_config(
            default_scenario(M=100, sigma2_s=tuple(np.linspace(1.0, 4.0, 100)))
        )
        ys = np.linspace(-1.9, 20.0, 36)
        for hyp in (H0, H1):
            rows = ranked_pdfs(100, ys, hyp, ens)
            expected = sum(llr_pdf(ys, hyp, law) for law in ens.laws)
            np.testing.assert_allclose(rows.sum(axis=0), expected, rtol=1e-12, atol=0.0)
            for m in (1, 8, 100):
                assert np.array_equal(ranked_pdf(m, ys, hyp, ens), rows[m - 1])

    def test_scalar_point(self, ensemble):
        rows = ranked_pdfs(3, 1.2, H1, ensemble)
        assert rows.shape == (3,)
        assert ranked_pdf(2, 1.2, H1, ensemble) == rows[1]

    def test_depth_out_of_range(self, ensemble):
        with pytest.raises(ValueError, match="rank"):
            ranked_pdfs(0, 1.0, H0, ensemble)
        with pytest.raises(ValueError, match="rank"):
            ranked_pdfs(11, 1.0, H0, ensemble)


class TestJointConsecutive:
    def test_zero_when_order_violated(self, ensemble):
        assert joint_consecutive_pdf(2, 2.0, 1.0, H0, ensemble) == 0.0
        assert joint_consecutive_pdf(2, -2.0, 1.5, H1, ensemble) == 0.0

    def test_two_sensor_closed_form(self):
        law = LlrLaw.energy(3, 2.0)
        ens = SensorEnsemble((law, law))
        alpha, gamma = 0.4, -1.1
        expected = 2.0 * llr_pdf(alpha, H0, law) * llr_pdf(gamma, H0, law)
        assert joint_consecutive_pdf(2, alpha, gamma, H0, ens) == pytest.approx(expected, rel=1e-12)

    def test_rank_validation(self, ensemble):
        with pytest.raises(ValueError):
            joint_consecutive_pdf(1, 0.1, 0.5, H0, ensemble)

    def test_double_integral_is_one(self):
        law = LlrLaw.energy(3, 2.0)
        ens = SensorEnsemble((law,) * 3)
        hi = law.effective_range(1e-10)[1]

        def inner(gamma):
            a = abs(gamma)
            lo_a = max(-a, -law.shift)
            if lo_a >= a:
                return 0.0
            val, _ = quad(
                lambda alpha: joint_consecutive_pdf(2, alpha, gamma, H1, ens),
                lo_a, a, limit=100, points=[0.0],
            )
            return val

        total, _ = quad(inner, -law.shift, hi, limit=200, points=[0.0, law.shift])
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_general_matches_identical(self, ensemble):
        mixed = SensorEnsemble(ensemble.laws[:9] + (LlrLaw.energy(3, 2.0 + 1e-13),))
        rng = np.random.default_rng(23)
        for _ in range(10):
            gamma = rng.uniform(-1.5, 4.0)
            alpha = rng.uniform(-abs(gamma), abs(gamma))
            for m in (2, 5):
                a = joint_consecutive_pdf(m, alpha, gamma, H1, mixed)
                b = joint_consecutive_pdf(m, alpha, gamma, H1, ensemble)
                assert a == pytest.approx(b, rel=1e-9, abs=1e-15)


class TestConditional:
    def test_normalizes_given_gamma(self, ensemble):
        law = ensemble.laws[0]
        for gamma in (1.2, -1.5, 3.0):
            a = abs(gamma)
            total, _ = quad(
                lambda alpha: conditional_pdf(3, alpha, gamma, H1, ensemble),
                max(-a, -law.shift), a, limit=200, points=[0.0],
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form(self, ensemble, rng):
        for _ in range(50):
            gamma = rng.uniform(-1.6, 5.0)
            alpha = rng.uniform(-abs(gamma), abs(gamma))
            m = int(rng.integers(2, 10))
            general = conditional_pdf(m, alpha, gamma, H0, ensemble)
            closed = conditional_pdf_closed_form(m, alpha, gamma, H0, ensemble)
            assert general == pytest.approx(closed, rel=1e-10, abs=1e-14)

    def test_zero_marginal_raises(self, ensemble):
        with pytest.raises(UndefinedConditional):
            conditional_pdf(2, -3.0, -5.0, H0, ensemble)

    def test_monte_carlo_conditional_density(self):
        # kernel-free histogram oracle for f(alpha | gamma in strip), M=3, m=2
        cfg = default_scenario(M=3, K=3, pi0=0.0, sigma2_s=(2.0,) * 3)
        ens = SensorEnsemble.from_config(cfg)
        _, _, ordered, _ = draw_slots(cfg, np.random.default_rng(29), 1_000_000)
        gamma_c, half = 2.0, 0.05
        strip = ordered[np.abs(ordered[:, 0] - gamma_c) < half]
        alphas = strip[:, 1]
        hist, edges = np.histogram(alphas, bins=24, range=(-1.6, 2.0), density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        theory = np.array([conditional_pdf(2, a, gamma_c, H1, ens) for a in mids])
        se = np.sqrt(np.maximum(theory, 1e-9) / (alphas.size * (edges[1] - edges[0])))
        # strip width adds O(half) bias on top of sampling noise
        assert np.all(np.abs(hist - theory) < 3.0 * se + 0.05)


class TestJointTopK:
    def test_markov_chain_reconstruction(self, scenario, ensemble):
        # the rank-1 marginal times the conditional chain rebuilds the block joint;
        # tuples drawn from the model so they live inside the support
        _, _, ordered_all, _ = draw_slots(scenario, np.random.default_rng(31), 20)
        for row in ordered_all:
            ordered = row[:4]
            k = len(ordered)
            for hyp in (H0, H1):
                chain = float(ranked_pdf(1, ordered[0], hyp, ensemble))
                for j in range(2, k + 1):
                    chain *= conditional_pdf(j, ordered[j - 1], ordered[j - 2], hyp, ensemble)
                direct = joint_topk_pdf(ordered, hyp, ensemble)
                assert chain == pytest.approx(direct, rel=1e-8, abs=1e-300)

    def test_zero_when_unordered(self, ensemble):
        assert joint_topk_pdf([0.5, 2.0], H0, ensemble) == 0.0

    def test_requires_identical(self):
        mixed = SensorEnsemble((LlrLaw.energy(3, 1.0), LlrLaw.energy(3, 2.0)))
        with pytest.raises(ValueError, match="identical"):
            joint_topk_pdf([1.0, 0.5], H0, mixed)

    def test_nonnegative_density(self, ensemble, rng):
        for _ in range(200):
            raw = rng.normal(0.0, 2.0, 5)
            ordered = raw[np.argsort(-np.abs(raw))]
            assert joint_topk_pdf(ordered, H1, ensemble) >= 0.0
