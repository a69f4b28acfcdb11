"""Sampler checks: single draws, threads, and full standard runs.

The statistical oracles are the shrinkage law (each step multiplies the
prior volume by an independent Uniform(0,1)) and two published mean run
lengths for n = 500 ten-dimensional runs.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import argmax_log_x_relative_posterior_mass
from varlive.models import (
    EXP_POWER,
    GAUSSIAN,
    ModelSpec,
    analytic_log_evidence,
    log_likelihood_from_log_x,
)
from varlive.runs import (
    combine_threads,
    live_point_counts,
    log_prior_volumes,
    point_log_weights,
)
from varlive import sampler
from varlive.sampler import SamplerConfig, sample_thread_batch, standard_run

M3 = ModelSpec(family=GAUSSIAN, d=3, sigma_pi=10.0)
M10 = ModelSpec(family=GAUSSIAN, d=10, sigma_pi=10.0)


def log_z_estimate(run):
    return float(np.logaddexp.reduce(point_log_weights(run) + run.log_l))


@pytest.fixture(scope="module")
def small_run_ensemble():
    """500 censored runs, d=3, n=20: shared by the volume-moment and
    evidence-bias checks."""
    cfg = SamplerConfig(n_live=20, keep_final_live=False)
    rng = np.random.default_rng(np.random.SeedSequence(20260101))
    return [standard_run(M3, cfg, rng) for _ in range(500)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_live=0)


def draws_above(m, log_x, n, rng):
    """n independent draws above the contour enclosing exp(log_x): one
    point per thread, no end contour.  Returns the contour and the draws'
    fields as arrays."""
    contour = float(log_likelihood_from_log_x(m, log_x)) if log_x < 0.0 \
        else -np.inf
    ths = sample_thread_batch(m, contour, np.inf, rng, n)
    assert all(len(t) == 1 for t in ths)
    fields = ("log_l", "birth_log_l", "theta1", "radius", "true_log_x")
    return contour, SimpleNamespace(**{
        f: np.concatenate([getattr(t, f) for t in ths]) for f in fields})


def thread(m, start, end, rng, **kwargs):
    return sample_thread_batch(m, start, end, rng, 1, **kwargs)[0]


class TestDrawPointAbove:
    def test_mean_log_shrinkage_from_prior(self):
        _, pts = draws_above(M3, 0.0, 100000, np.random.default_rng(11))
        assert np.mean(pts.true_log_x) == pytest.approx(-1.0, abs=0.01)
        assert np.all(pts.birth_log_l == -np.inf)

    def test_strictly_inside_contour(self):
        contour, pts = draws_above(M3, -2.0, 300, np.random.default_rng(12))
        assert np.all(pts.log_l > contour)
        assert np.all(pts.true_log_x < -2.0)
        assert np.all(pts.birth_log_l == contour)

    def test_sphere_symmetry_moments(self):
        _, pts = draws_above(M10, -3.0, 20000, np.random.default_rng(13))
        t1, r = pts.theta1, pts.radius
        # E[theta1 | r] = 0 and E[(theta1/r)^2] = 1/d
        se_mean = np.std(t1) / math.sqrt(t1.size)
        assert abs(np.mean(t1)) < 5 * se_mean
        frac = (t1 / r) ** 2
        se_frac = np.std(frac) / math.sqrt(frac.size)
        assert abs(np.mean(frac) - 0.1) < 5 * se_frac
        assert np.all(np.abs(t1) <= r)


class TestSampleThread:
    def test_expected_length_five_crossings(self):
        rng = np.random.default_rng(21)
        end = float(log_likelihood_from_log_x(M3, -5.0))
        lens = [len(t) for t in sample_thread_batch(M3, -np.inf, end, rng,
                                                     2000)]
        # crossings of -ln X past 5 are Poisson(5); one overshoot retained
        assert np.mean(lens) == pytest.approx(6.0, abs=0.2)

    def test_chain_structure(self):
        rng = np.random.default_rng(22)
        end = float(log_likelihood_from_log_x(M3, -5.0))
        th = thread(M3, -np.inf, end, rng)
        assert th.thread_id == 0
        assert np.all(np.diff(th.log_l) > 0.0)
        assert th.log_l[-1] > end
        assert np.all(th.log_l[:-1] <= end)
        assert th.birth_log_l[0] == -np.inf
        np.testing.assert_array_equal(th.birth_log_l[1:], th.log_l[:-1])
        combine_threads(M3, [th]).validate()

    def test_tiny_interval_length_one(self):
        rng = np.random.default_rng(23)
        end = float(log_likelihood_from_log_x(M3, -2.0))
        assert len(thread(M3, end - 1e-9, end, rng)) == 1

    def test_open_ended_single_point(self):
        rng = np.random.default_rng(24)
        start = float(log_likelihood_from_log_x(M3, -3.0))
        th = thread(M3, start, np.inf, rng)
        assert len(th) == 1
        assert th.log_l[0] > start

    def test_censored_thread(self):
        rng = np.random.default_rng(25)
        end = float(log_likelihood_from_log_x(M3, -4.0))
        th = thread(M3, -np.inf, end, rng, censor_at_end=True)
        assert th.open_end_log_l == end
        assert np.all(th.log_l <= end)
        combine_threads(M3, [th]).validate()

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            thread(M3, 1.0, 1.0, np.random.default_rng(0))


class TestSampleThreadBatch:
    def test_merged_batch_is_valid_run(self):
        rng = np.random.default_rng(31)
        end = float(log_likelihood_from_log_x(M3, -5.0))
        ths = sample_thread_batch(M3, -np.inf, end, rng, 400)
        lens = [len(t) for t in ths]
        assert np.mean(lens) == pytest.approx(6.0, abs=0.45)
        run = combine_threads(M3, ths)
        run.validate()

    def test_censored_batch_holds_counts(self):
        rng = np.random.default_rng(32)
        end = float(log_likelihood_from_log_x(M3, -4.0))
        ths = sample_thread_batch(M3, -np.inf, end, rng, 50,
                                  censor_at_end=True)
        run = combine_threads(M3, ths)
        assert np.all(live_point_counts(run) == 50)

    def test_one_point_rule(self):
        rng = np.random.default_rng(33)
        start = float(log_likelihood_from_log_x(M3, -3.0))
        ths = sample_thread_batch(M3, start, np.inf, rng, 2)
        assert [t.thread_id for t in ths] == [0, 1]
        assert all(len(t) == 1 and t.log_l[0] > start for t in ths)

    def test_empty_id_list(self):
        assert sample_thread_batch(M3, -np.inf, 0.0,
                                   np.random.default_rng(0), 0) == []

    def test_censored_threads_without_points(self):
        # a region far thinner than one shrinkage step leaves most censored
        # threads with no point; each thread is a slice of the batch arrays
        rng = np.random.default_rng(34)
        start = float(log_likelihood_from_log_x(M3, -3.0))
        end = float(log_likelihood_from_log_x(M3, -3.05))
        ths = sample_thread_batch(M3, start, end, rng, 40,
                                  censor_at_end=True)
        empty = [th for th in ths if len(th) == 0]
        assert 0 < len(empty) < len(ths)
        for th in ths:
            assert th.birth_log_l.dtype == np.float64
            assert th.birth_log_l.shape == th.log_l.shape
            if len(th):
                assert th.birth_log_l[0] == start
                np.testing.assert_array_equal(th.birth_log_l[1:],
                                              th.log_l[:-1])
        run = combine_threads(M3, ths)
        run.validate()
        assert np.all(live_point_counts(run) == 40)

    def test_depth_top_ups_are_bounded(self):
        # shrinkage draws that are all zero never reach the region end
        class ZeroDraws:
            def standard_exponential(self, size):
                return np.zeros(size)

        end = float(log_likelihood_from_log_x(M3, -2.0))
        with pytest.raises(RuntimeError, match="MAX_TOP_UPS"):
            sample_thread_batch(M3, -np.inf, end, ZeroDraws(), 3)
        with pytest.raises(RuntimeError, match="MAX_TOP_UPS"):
            standard_run(M3, SamplerConfig(n_live=3), ZeroDraws())


class TestStandardRun:
    def test_published_run_length_gaussian(self):
        cfg = SamplerConfig(n_live=500)
        rng = np.random.default_rng(np.random.SeedSequence(41))
        lens = [len(standard_run(M10, cfg, rng)) for _ in range(50)]
        assert np.mean(lens) == pytest.approx(15189, rel=0.05)

    def test_published_run_length_exp_power(self):
        m = ModelSpec(family=EXP_POWER, d=10, sigma_pi=10.0, b=2.0)
        cfg = SamplerConfig(n_live=500)
        rng = np.random.default_rng(np.random.SeedSequence(42))
        lens = [len(standard_run(m, cfg, rng)) for _ in range(50)]
        assert np.mean(lens) == pytest.approx(18093, rel=0.05)

    def test_count_profile_with_tail(self):
        run = standard_run(M3, SamplerConfig(n_live=30), 43)
        run.validate()
        c = live_point_counts(run)
        assert np.all(c[:-30] == 30)
        np.testing.assert_array_equal(c[-30:], np.arange(30, 0, -1))

    def test_count_profile_censored(self):
        run = standard_run(M3, SamplerConfig(n_live=30,
                                             keep_final_live=False), 44)
        run.validate()
        assert np.all(live_point_counts(run) == 30)
        assert run.n_open >= 29  # the last killer's interval is degenerate

    def test_single_live_point(self):
        run = standard_run(M3, SamplerConfig(n_live=1), 45)
        assert np.all(live_point_counts(run) == 1)
        assert len(run) > 3

    def test_bit_reproducible(self):
        a = standard_run(M3, SamplerConfig(n_live=25), 46)
        b = standard_run(M3, SamplerConfig(n_live=25), 46)
        np.testing.assert_array_equal(a.log_l, b.log_l)
        np.testing.assert_array_equal(a.theta1, b.theta1)
        np.testing.assert_array_equal(a.true_log_x, b.true_log_x)
        c = standard_run(M3, SamplerConfig(n_live=25), 47)
        assert not np.array_equal(a.log_l, c.log_l)

    def test_deepening_is_bounded(self, monkeypatch):
        monkeypatch.setattr(sampler, "_assemble", lambda *args: None)
        with pytest.raises(RuntimeError,
                           match=f"after {sampler.MAX_DEEPENINGS} deepenings"):
            standard_run(M3, SamplerConfig(n_live=3), 49)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12))
    def test_first_from_equals_per_thread_search(self, seed, n):
        # the per-thread searchsorted loop standard_run ran before, over a
        # random merge that keeps each thread's chain order
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 8, size=n)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        total = int(offsets[-1])
        tid_flat = np.repeat(np.arange(n, dtype=np.int64), counts)
        keys = rng.random(total)
        for t in range(n):
            keys[offsets[t]:offsets[t + 1]].sort()
        order = np.argsort(keys, kind="stable")
        pos_flat = np.empty(total, dtype=np.int64)
        pos_flat[order] = np.arange(total)
        for k in range(total + 1):
            want = []
            for t in range(n):
                row = pos_flat[offsets[t]:offsets[t + 1]]
                j = int(np.searchsorted(row, k))
                want.append(None if j >= counts[t] else offsets[t] + j)
            got = sampler._first_from(tid_flat[order], offsets, counts, k)
            if None in want:
                assert got is None
            else:
                assert got.tolist() == want

    def test_int_rng_is_a_seed(self):
        # an int seed draws what default_rng(seed) draws and is recorded;
        # a run drawn from a generator records no seed
        cfg = SamplerConfig(n_live=5)
        seeded = standard_run(M3, cfg, 5)
        drawn = standard_run(M3, cfg, np.random.default_rng(5))
        for field in ("log_l", "birth_log_l", "theta1", "radius",
                      "true_log_x", "thread_id", "open_birth_log_l",
                      "open_end_log_l", "open_thread_id"):
            np.testing.assert_array_equal(getattr(seeded, field),
                                          getattr(drawn, field))
        assert seeded.provenance.seed == 5
        assert type(seeded.provenance.seed) is int
        assert drawn.provenance.seed is None
        assert standard_run(M3, cfg, np.int64(5)).provenance.seed == 5
        assert standard_run(M3, cfg).provenance.seed is None

    @pytest.mark.parametrize("rng", [True, False, np.True_],
                             ids=["True", "False", "numpy_True"])
    def test_bool_rng_refused(self, rng):
        with pytest.raises(TypeError, match="not a bool"):
            standard_run(M3, SamplerConfig(n_live=5), rng)

    def test_seed_sequence_rng_seeds_a_generator(self):
        # a SeedSequence seeds default_rng, as SPEC 7 allows; the run
        # records no seed, since the sequence is not an int
        cfg = SamplerConfig(n_live=5)
        seeded = standard_run(M3, cfg, np.random.SeedSequence(5))
        drawn = standard_run(
            M3, cfg, np.random.default_rng(np.random.SeedSequence(5)))
        for field in ("log_l", "theta1", "thread_id", "open_end_log_l"):
            np.testing.assert_array_equal(getattr(seeded, field),
                                          getattr(drawn, field))
        assert seeded.provenance == drawn.provenance
        assert seeded.provenance.seed is None

    @pytest.mark.parametrize("rng", [5.0, np.float64(5.0), "5", b"5", 5 + 0j,
                                     Fraction(5)],
                             ids=["float", "float64", "str", "bytes",
                                  "complex", "Fraction"])
    def test_non_int_seed_refused_at_the_call(self, rng):
        # these used to pass for a generator and fail deep in the sampler
        # with AttributeError
        with pytest.raises(TypeError, match="rng must be an int seed"):
            standard_run(M3, SamplerConfig(n_live=5), rng)

    def test_provenance(self):
        run = standard_run(M3, SamplerConfig(n_live=5), 48)
        assert run.provenance.algorithm == "standard"
        assert run.provenance.seed == 48
        assert run.provenance.init_thread_ids == tuple(range(5))

    def test_true_volume_moments(self, small_run_ensemble):
        # E[ln X_i] = -i/n, Var[ln X_i] = i/n^2 at the i-th death (1-based)
        n = 20
        n_runs = len(small_run_ensemble)
        shortest = min(len(r) for r in small_run_ensemble)
        for i in (5, 60, shortest):
            vals = np.array([r.true_log_x[i - 1] for r in small_run_ensemble])
            want_mean = -i / n
            want_var = i / n ** 2
            se_mean = math.sqrt(want_var / n_runs)
            assert abs(np.mean(vals) - want_mean) < 5 * se_mean
            se_var = want_var * math.sqrt(2.0 / (n_runs - 1))
            assert abs(np.var(vals, ddof=1) - want_var) < 5 * se_var

    def test_estimated_volumes_track_truth(self, small_run_ensemble):
        run = small_run_ensemble[0]
        resid = log_prior_volumes(run) - run.true_log_x
        i = np.arange(1, len(run) + 1)
        z = resid / np.sqrt(i) * 20.0  # standardized by sd = sqrt(i)/n
        assert abs(np.mean(z)) < 1.0

    def test_evidence_consistent_with_known_biases(self, small_run_ensemble):
        lnz = np.array([log_z_estimate(r) for r in small_run_ensemble])
        truth = analytic_log_evidence(M3)
        var = np.var(lnz, ddof=1)
        se = math.sqrt(var / lnz.size)
        mean = float(np.mean(lnz))
        # Deterministic e^(-i/n) volumes make E[Z-hat] the evidence under the
        # tilted volume density alpha e^(-alpha v), alpha = n(1 - e^(-1/n)),
        # an upward ln-tilt of at most (1 - alpha) v_bulk; sampled-shrinkage
        # reasoning instead allows a downward ln-skew of about Var/2.  Any
        # volume bookkeeping bug moves lnZ by whole nats, far outside both.
        n = 20
        alpha = n * -math.expm1(-1.0 / n)
        v_bulk = -argmax_log_x_relative_posterior_mass(M3)
        tilt = (1.0 - alpha) * v_bulk
        assert truth - 0.5 * var - 3 * se < mean < truth + tilt + 3 * se
