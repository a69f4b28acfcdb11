"""Tests for the log-scale incomplete gamma kernel and sphere coordinate draws.

Reference values come from three independent routes: hand-frozen closed forms
(erf(1), factorials, the Gamma(5,1) median), scipy's probability-scale
implementations inside their representable range, and a log-domain trapezoid
quadrature of the defining integral for the deep tail where scipy returns 0.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from conftest import traced_memory
from reference import (
    log_gamma,
    log_reg_upper_inc_gamma,
    reference_log_reg_lower_inc_gamma,
    reg_lower_inc_gamma,
)
from varlive import specialfn as sf

# Frozen oracle values (computed once, independently of the implementation).
LN_GAMMA_HALF = 0.5723649429247001      # ln sqrt(pi)
LN_GAMMA_TEN = 12.801827480081469       # ln 9!
ERF_ONE = 0.8427007929497149
GAMMA5_MEDIAN = 4.670908882795985


def x_values(a):
    """x at 0, tiny, on both sides of the series / continued-fraction
    split at a + 1, and on the split itself."""
    return st.one_of(
        st.just(0.0),
        st.floats(5e-324, 1e-8),                      # tiny
        st.floats(0.0, a + 1.0),                      # series side
        st.floats(a + 1.0, 4.0 * a + 60.0),           # fraction side
        st.sampled_from([a + 1.0, math.nextafter(a + 1.0, math.inf)]))


class TestLogGamma:
    def test_frozen_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(LN_GAMMA_HALF, abs=1e-12)
        assert log_gamma(10.0) == pytest.approx(LN_GAMMA_TEN, abs=1e-12)

    def test_relative_error_across_domain(self):
        x = np.geomspace(1e-3, 1e6, 400)
        ref = np.array([math.lgamma(v) for v in x])
        out = log_gamma(x)
        assert np.all(np.abs(out - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_array_in_array_out(self):
        out = log_gamma([1.0, 2.0])
        assert isinstance(out, np.ndarray)
        assert out.shape == (2,)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)

    def test_scalar_float_and_shape_kept(self):
        assert type(log_gamma(2.5)) is float
        assert type(log_gamma(np.float64(2.5))) is float
        out = log_gamma(np.full((2, 3), 2.5))
        assert out.shape == (2, 3) and out.dtype == np.float64
        assert log_gamma(np.empty(0)).shape == (0,)


def same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


class TestLogGammaMatchesScipy:
    """The Cephes lgam port against scipy.special.gammaln, which runs the
    same routine in C: equal bits, not merely close values."""

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_positive_floats_bitwise(self, x):
        ref = float(sp.gammaln(x))
        assert same_bits(log_gamma(x), ref)
        assert same_bits(sf._gammaln(x), ref)

    @pytest.mark.parametrize("x", [
        # branch edges of lgam: the [2, 3) interval, the switch to Stirling
        # at 13, the short series from 1000 and the bare form above 1e8
        2.0, 3.0, 13.0, 1000.0, 1e8, 0.5, 1.0,
        # subnormals, the smallest normal, the overflow threshold and the
        # largest finite argument
        5e-324, 1e-310, 2.2250738585072014e-308, 2.556348e305,
        1.7976931348623157e308])
    def test_edges_bitwise(self, x):
        for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
            if v > 0.0:
                assert same_bits(log_gamma(v), float(sp.gammaln(v)))

    def test_every_half_integer_shape_bitwise(self):
        # the radial shapes a = d/2 and a + 1 for every dimension to 2e5
        x = np.arange(1, 200_001) * 0.5
        assert np.flatnonzero(log_gamma(x) != sp.gammaln(x)).size == 0


class TestRegLowerIncGamma:
    def test_frozen_values(self):
        assert reg_lower_inc_gamma(0.5, 1.0) == pytest.approx(ERF_ONE, abs=1e-10)
        assert reg_lower_inc_gamma(5.0, 4.6709) == pytest.approx(0.5, abs=1e-4)

    def test_endpoints(self):
        assert reg_lower_inc_gamma(2.0, 0.0) == 0.0
        assert sf.log_reg_lower_inc_gamma(2.0, 0.0) == -np.inf
        assert log_reg_upper_inc_gamma(2.0, 0.0) == 0.0

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(20260822)
        for a in [0.5, 1.0, 2.5, 5.0, 50.0, 500.0]:
            x = np.concatenate([
                rng.uniform(0.0, a + 1.0, 300),
                rng.uniform(a + 1.0, 8.0 * a + 20.0, 300),
                [0.0, a + 1.0],
            ])
            assert reg_lower_inc_gamma(a, x) == pytest.approx(
                sp.gammainc(a, x), abs=1e-10)

    def test_log_against_scipy_where_representable(self):
        for a in [0.5, 5.0, 50.0, 500.0]:
            x = np.linspace(1e-3, a, 200)
            ref = sp.gammainc(a, x)
            m = ref > 1e-280
            lp = sf.log_reg_lower_inc_gamma(a, x[m])
            ref_lp = np.log(ref[m])
            assert np.all(np.abs(lp - ref_lp) <= 1e-11 * np.maximum(1.0, np.abs(ref_lp)))

    def test_deep_tail_against_quadrature(self):
        # ln P(a,x) = a ln x - ln Gamma(a) + ln int_0^1 s^(a-1) exp(-x s) ds,
        # evaluated by log-domain trapezoid far below double underflow.
        def ln_p_quad(a, x, n=1_000_001):
            s = np.linspace(0.0, 1.0, n)
            with np.errstate(divide="ignore"):
                f = (a - 1.0) * np.log(s) - x * s
            f[0] = -np.inf
            w = np.full(n, 1.0 / (n - 1))
            w[0] *= 0.5
            w[-1] *= 0.5
            return a * math.log(x) - math.lgamma(a) + sp.logsumexp(f + np.log(w))

        cases = [(5.0, 0.5), (50.0, 3.0), (500.0, 30.0), (500.0, 120.0)]
        for a, x in cases:
            mine = sf.log_reg_lower_inc_gamma(a, x)
            assert mine == pytest.approx(ln_p_quad(a, x), abs=1e-6)
        # the a=500 rows are genuinely below double underflow
        assert sf.log_reg_lower_inc_gamma(500.0, 30.0) < -745.0

    def test_series_cf_crossover_consistency(self):
        for a in [0.5, 5.0, 500.0]:
            below = sf.log_reg_lower_inc_gamma(a, a + 1.0 - 1e-9)
            above = sf.log_reg_lower_inc_gamma(a, a + 1.0 + 1e-9)
            assert below == pytest.approx(above, abs=1e-8)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(3)
        a_vals = [0.5, 5.0, 500.0]
        x1 = rng.uniform(0.0, 60.0, 10_000)
        x2 = x1 + rng.uniform(0.0, 60.0, 10_000)
        for a in a_vals:
            assert np.all(reg_lower_inc_gamma(a, x2) >= reg_lower_inc_gamma(a, x1))

    @settings(deadline=None)
    @given(a=st.floats(0.5, 600.0), data=st.data())
    def test_0d_equals_array_path_bitwise(self, a, data):
        x = data.draw(x_values(a))
        got = sf.log_reg_lower_inc_gamma(a, np.asarray(x))
        want = sf.log_reg_lower_inc_gamma(a, np.array([x]))
        assert type(got) is float
        assert np.float64(got).tobytes() == want[0].tobytes(), (a, x)

    @settings(deadline=None)
    @given(a=st.floats(0.5, 600.0), data=st.data())
    def test_float_equals_array_path_bitwise(self, a, data):
        # a Python float takes the 0-d path, not a float path of its own
        x = data.draw(x_values(a))
        for func in (sf.log_reg_lower_inc_gamma, log_reg_upper_inc_gamma,
                     reg_lower_inc_gamma):
            got = func(a, x)
            want = func(a, np.array([x]))
            assert type(got) is float
            assert np.float64(got).tobytes() == want[0].tobytes(), \
                (func.__name__, a, x)

    @settings(deadline=None)
    @given(a=st.floats(0.5, 600.0),
           fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True),
                          min_size=1, max_size=30))
    def test_series_array_equals_each_element_bitwise(self, a, fracs):
        # The array series runs until its slowest element converges, so the
        # other elements add terms they would not add alone.  Those terms
        # cannot move a converged sum: once term <= 1e-17 * total, every
        # later term is smaller still (x / (a + k) < 1 for x <= a + 1 and
        # k >= 2) and below half an ulp of the sum (at least 2**-54 * total),
        # so each addition rounds back to the same sum.  A series that stops
        # per block of x therefore gives the same bits.
        x = np.array(fracs) * (a + 1.0)
        got = sf._log_p_series(a, x)
        for xi, gi in zip(x, got):
            want = sf._log_p_series(a, np.asarray(xi))
            assert want.tobytes() == gi.tobytes(), (a, xi)

    @settings(deadline=None)
    @given(a=st.floats(0.5, 600.0),
           below=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                          min_size=1, max_size=30),
           above=st.lists(st.floats(1.0, 3.0), max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_ascending_and_shuffled_calls_bitwise(self, a, below, above,
                                                  seed):
        # The same values ascending and shuffled give the same bytes, and on
        # the zeros and the series region those of each element's own 0-d
        # call.  Above a + 1 the continued fraction runs until its slowest
        # element converges, so there an element's bits are those of the
        # array of the points above a + 1 alone.
        x = np.sort(np.array(below + above) * (a + 1.0))
        got = sf.log_reg_lower_inc_gamma(a, x)
        perm = np.random.default_rng(seed).permutation(x.size)
        shuffled = sf.log_reg_lower_inc_gamma(a, x[perm])
        assert shuffled.tobytes() == got[perm].tobytes(), (a, x[perm])
        upper = x > a + 1.0
        want = np.array([sf.log_reg_lower_inc_gamma(a, v) for v in x[~upper]])
        assert got[~upper].tobytes() == want.tobytes(), (a, x)
        if upper.any():
            alone = sf.log_reg_lower_inc_gamma(a, x[upper])
            assert got[upper].tobytes() == alone.tobytes(), (a, x)

    @settings(deadline=None)
    @given(a=st.floats(0.5, 600.0),
           blocks=st.integers(1, 2), extra=st.sampled_from([-1, 0, 1]),
           distinct=st.integers(1, 4 * sf._QUERY_BLOCK),
           upper_share=st.sampled_from([0.0, 0.01, 0.3]),
           ascending=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_whole_array_series_bitwise(self, a, blocks, extra,
                                               distinct, upper_share,
                                               ascending, seed):
        # The series stops block by block; the whole-array series of the
        # reference runs every element until the slowest has converged.
        # x holds `distinct` values at most (ties), zeros, x = a + 1
        # exactly, the smallest subnormal, and a share of points above
        # a + 1, so shuffled x mixes both regions inside one block; block
        # boundaries fall at, one before and one after the end of x.
        rng = np.random.default_rng(seed)
        n = blocks * sf._QUERY_BLOCK + extra
        pool = rng.uniform(0.0, 1.0, distinct)
        above = rng.random(distinct) < upper_share
        pool[above] = rng.uniform(1.0, 3.0, np.count_nonzero(above))
        x = pool[rng.integers(0, distinct, n)] * (a + 1.0)
        x[rng.integers(0, n, 4)] = [0.0, a + 1.0, 5e-324,
                                    math.nextafter(a + 1.0, math.inf)]
        if ascending:
            x.sort()
        got = sf.log_reg_lower_inc_gamma(a, x)
        want = reference_log_reg_lower_inc_gamma(a, x)
        assert got.tobytes() == want.tobytes(), (a, n, ascending, seed)

    def test_ascending_call_memory_budget(self):
        # The series runs one block of x at a time, so the call peaks at
        # the output, the continued fraction's region mask (1/8 of an array)
        # and block temporaries, with no copy or mask of x beyond them.
        # All of x but a zero and a few points of the continued fraction's
        # region is in the series region.
        a = 500.0
        x = np.append(np.linspace(0.0, a + 1.0, 999_990),
                      np.linspace(a + 2.0, 3.0 * a, 10))
        out, _, peak = traced_memory(lambda: sf.log_reg_lower_inc_gamma(a, x))
        assert out.shape == x.shape and out[0] == -np.inf
        assert peak <= 1.5 * x.nbytes + 64 * 1024

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(1.0, -0.1)
        with pytest.raises(ValueError):
            sf.log_reg_lower_inc_gamma(1.0, [-1.0, 2.0])
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                sf.log_reg_lower_inc_gamma(1.0, np.asarray(bad))


class TestInverse:
    def test_frozen_median(self):
        assert sf.inv_reg_lower_inc_gamma(5.0, 0.5) == pytest.approx(GAMMA5_MEDIAN, abs=1e-3)
        assert sf.inv_reg_lower_inc_gamma(0.5, ERF_ONE) == pytest.approx(1.0, abs=1e-9)

    def test_zero(self):
        assert sf.inv_reg_lower_inc_gamma(2.0, 0.0) == 0.0
        assert sf.inv_log_reg_lower_inc_gamma(2.0, -np.inf) == 0.0

    def test_round_trip_probability_scale(self):
        # At a=500 the small-x probabilities underflow, so the round trip
        # has to run on the log scale there; everywhere else both scales work.
        for a in [0.5, 1.0, 5.0, 500.0]:
            for x in [0.1, 1.0, 10.0, a]:
                lp = sf.log_reg_lower_inc_gamma(a, x)
                x_back = sf.inv_log_reg_lower_inc_gamma(a, lp)
                assert abs(x_back - x) <= 1e-8 * (1.0 + x)
                p = reg_lower_inc_gamma(a, x)
                if p > 0.0:
                    x_back = sf.inv_reg_lower_inc_gamma(a, p)
                    assert abs(x_back - x) <= 1e-8 * (1.0 + x)

    def test_round_trip_upper_half(self):
        for a in [0.5, 5.0, 500.0]:
            for p in [0.6, 0.9, 0.99, 1.0 - 1e-12]:
                x = sf.inv_reg_lower_inc_gamma(a, p)
                assert reg_lower_inc_gamma(a, x) == pytest.approx(p, abs=1e-10)

    def test_round_trip_log_scale_deep(self):
        cases = [(0.5, [-5.0, -50.0, -250.0]),
                 (5.0, [-5.0, -50.0, -500.0]),
                 (500.0, [-5.0, -500.0, -3000.0])]
        for a, lps in cases:
            for lp in lps:
                x = sf.inv_log_reg_lower_inc_gamma(a, lp)
                assert sf.log_reg_lower_inc_gamma(a, x) == pytest.approx(lp, abs=1e-10)

    def test_inverse_bits(self):
        # contour-map nodes, support floors and estimator truths rest on
        # these bits: a sha256 of every solve's float64 bytes, NaN where
        # the preimage underflows and the solve raises
        digest = hashlib.sha256()
        raised = 0
        for a in (0.5, 1.5, 5.0, 50.0, 500.0):
            for lp in np.linspace(-3000.0, -1e-6, 400).tolist():
                try:
                    x = sf.inv_log_reg_lower_inc_gamma(a, lp)
                except ValueError:
                    x = math.nan
                    raised += 1
                digest.update(np.float64(x).tobytes())
        assert raised == 605
        assert digest.hexdigest() == ("60a3dcfebb7b1ba4597d005f5e3f7012"
                                      "a3ae285257c3337179db9de3ace5e3c7")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.inv_reg_lower_inc_gamma(1.0, 1.0)
        with pytest.raises(ValueError):
            sf.inv_reg_lower_inc_gamma(1.0, -0.01)
        with pytest.raises(ValueError):
            sf.inv_log_reg_lower_inc_gamma(1.0, 0.1)
        with pytest.raises(ValueError):
            # preimage underflows double precision
            sf.inv_log_reg_lower_inc_gamma(0.5, -500.0)

    def test_unconverged_solve_raises(self):
        # a step function never gets within tol of the target, and a NaN
        # derivative forces bisection, which keeps halving towards 0
        with pytest.raises(RuntimeError, match="converge"):
            sf._solve_monotone(lambda u: -1.0 if u < 0 else 1.0,
                               lambda u, f: float("nan"), 0.0, -1.0, 1.0,
                               1e-12)

    def test_unbracketed_solve_raises(self, monkeypatch):
        # ln P that stays above the target keeps moving the lower end of the
        # bracket down; the fake gives up after far more calls than the
        # bound allows, so an unbounded loop fails here instead of hanging
        calls = []

        class Unbounded(Exception):
            pass

        def never_brackets(a, x):
            calls.append(x)
            if len(calls) > 10_000:
                raise Unbounded
            return 0.0

        monkeypatch.setattr(sf, "_log_p_float", never_brackets)
        with pytest.raises(RuntimeError,
                           match=f"{sf._BRACKET_DOUBLINGS} doublings"):
            sf.inv_log_reg_lower_inc_gamma(2.0, -5.0)
        assert len(calls) == sf._BRACKET_DOUBLINGS + 1

    @pytest.mark.parametrize("step", [-2.0, 2.0])
    def test_bracket_bound(self, step):
        # the upper end stops earlier in practice: math.exp overflows once
        # it passes ln x = 709.8
        seen = []

        def outside(u):
            seen.append(u)
            return True

        with pytest.raises(RuntimeError, match="doublings"):
            sf._expand_bracket(outside, 1.0, step)
        assert len(seen) == sf._BRACKET_DOUBLINGS + 1
        assert seen[:4] == [1.0, 1.0 + step, 1.0 + 3 * step, 1.0 + 7 * step]
        assert sf._expand_bracket(lambda u: u < 5.0, 1.0, 2.0) == 7.0


class TestSphereCoordinate:
    def test_d1_is_random_sign(self):
        rng = np.random.default_rng(0)
        u = sf.sample_beta_first_coordinate(1, rng, size=1000)
        assert set(np.unique(u)) == {-1.0, 1.0}

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for d in [2, 3, 10, 1000]:
            u = sf.sample_beta_first_coordinate(d, rng, size=10_000)
            assert np.all(np.abs(u) <= 1.0)

    def test_moments(self):
        rng = np.random.default_rng(20260822)
        n = 1_000_000
        for d in [2, 3, 10, 1000]:
            u = sf.sample_beta_first_coordinate(d, rng, size=n)
            se_mean = math.sqrt(1.0 / d / n)
            assert abs(float(np.mean(u))) <= 5.0 * se_mean
            m2 = float(np.mean(u * u))
            e4 = 3.0 / (d * (d + 2.0))
            se2 = math.sqrt(max(e4 - (1.0 / d) ** 2, 0.0) / n)
            assert abs(m2 - 1.0 / d) <= 0.002
            assert abs(m2 - 1.0 / d) <= 5.0 * se2

    def test_d3_first_coordinate_uniform(self):
        # In 3 dimensions the sphere marginal is exactly uniform on [-1, 1].
        rng = np.random.default_rng(5)
        u = sf.sample_beta_first_coordinate(3, rng, size=1_000_000)
        assert float(np.mean(u ** 4)) == pytest.approx(0.2, abs=0.003)

    def test_scalar_and_shape(self):
        rng = np.random.default_rng(2)
        for d in (1, 10):
            v = sf.sample_beta_first_coordinate(d, rng, size=())
            assert v.shape == () and abs(float(v)) <= 1.0
            arr = sf.sample_beta_first_coordinate(d, rng, size=(3, 4))
            assert arr.shape == (3, 4)

    def test_deterministic_given_seed(self):
        a = sf.sample_beta_first_coordinate(7, np.random.default_rng(99), size=50)
        b = sf.sample_beta_first_coordinate(7, np.random.default_rng(99), size=50)
        assert np.array_equal(a, b)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sf.sample_beta_first_coordinate(0, np.random.default_rng(0), size=1)
