"""Model geometry tests: likelihood formulas, contour maps, evidence oracles.

Truth routes used here, in decreasing independence from the implementation:
closed forms (Gaussian evidence, posterior moments via the conjugate
posterior width), scipy distribution functions, and the radius-domain
quadrature which shares no code with the ln X route.  The contour tables
are checked bit for bit against scipy's PchipInterpolator.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.stats import chi2

import varlive
import varlive.cli  # every varlive module that binds a models cache
from conftest import traced_memory, use_fresh_model_caches
from reference import (
    argmax_log_x_relative_posterior_mass,
    log_evidence_radius_quadrature,
    reference_log_x_from_log_likelihood,
    reference_pchip_eval,
    reference_pchip_nodes,
    reference_pchip_table,
)
from varlive import models as md
from varlive import specialfn as sf
from varlive.models import ModelSpec
from varlive.specialfn import _QUERY_BLOCK

G10 = ModelSpec(md.GAUSSIAN, 10, 10.0)
G3 = ModelSpec(md.GAUSSIAN, 3, 10.0)
EP2 = ModelSpec(md.EXP_POWER, 10, 10.0, b=2.0)
EP34 = ModelSpec(md.EXP_POWER, 10, 10.0, b=0.75)
C10 = ModelSpec(md.CAUCHY, 10, 10.0)
EP1000 = ModelSpec(md.EXP_POWER, 1000, 10.0, b=2.0)

# every lru_cache of varlive.models as the process holds it, taken when this
# module is collected, before any test swaps one in
PROCESS_CACHES = {name: obj for name, obj in vars(md).items()
                  if hasattr(obj, "cache_info")}

# ln Gamma(5.5) - 5.5 ln(pi), evaluated independently with math.lgamma
CAUCHY_D10_PEAK = -2.3382004045529845


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("triangle", 10, 10.0)
        with pytest.raises(ValueError):
            ModelSpec(md.GAUSSIAN, 0, 10.0)
        with pytest.raises(ValueError):
            ModelSpec(md.GAUSSIAN, 10, -1.0)
        with pytest.raises(ValueError):
            ModelSpec(md.EXP_POWER, 10, 10.0, b=0.0)

    def test_round_trip_dict(self):
        for m in [G10, EP2, C10]:
            assert ModelSpec.from_dict(m.to_dict()) == m

    @pytest.mark.parametrize("d", [2.5, True, "3", None])
    def test_from_dict_rejects_non_integer_d(self, d):
        # before from_dict checked this, 2.5 read as d=2 and true as d=1
        with pytest.raises(ValueError, match="d must be an integer"):
            ModelSpec.from_dict({**G3.to_dict(), "d": d})

    def test_from_dict_accepts_integral_float_d(self):
        assert ModelSpec.from_dict({**G3.to_dict(), "d": 3.0}) == G3

    @pytest.mark.parametrize("bad", [True, "10", None, math.nan, math.inf])
    @pytest.mark.parametrize("key", ["sigma_pi", "b"])
    def test_from_dict_rejects_non_float_fields(self, key, bad):
        # before from_dict checked these, "10" read as sigma_pi=10.0 and
        # true as b=1.0
        with pytest.raises(ValueError, match=f"{key} must be a finite number"):
            ModelSpec.from_dict({**EP2.to_dict(), key: bad})

    def test_from_dict_accepts_integer_floats(self):
        m = ModelSpec.from_dict({**EP2.to_dict(), "sigma_pi": 10, "b": 2})
        assert m == EP2
        assert type(m.sigma_pi) is float and type(m.b) is float

    def test_hashable_immutable(self):
        assert len({G10, ModelSpec(md.GAUSSIAN, 10, 10.0)}) == 1
        with pytest.raises(Exception):
            G10.d = 5


class TestLogLikelihood:
    def test_gaussian_peak(self):
        assert md.log_likelihood_at_radius(G10, 0.0) == pytest.approx(
            -5.0 * math.log(2.0 * math.pi), abs=1e-12)

    def test_gaussian_r2(self):
        peak = md.log_likelihood_at_radius(G10, 0.0)
        assert md.log_likelihood_at_radius(G10, 2.0) == pytest.approx(peak - 2.0, abs=1e-12)

    def test_cauchy_peak(self):
        assert md.log_likelihood_at_radius(C10, 0.0) == pytest.approx(
            CAUCHY_D10_PEAK, abs=1e-12)

    def test_exp_power_reduces_to_gaussian_at_b1(self):
        ep1 = ModelSpec(md.EXP_POWER, 10, 10.0, b=1.0)
        r = np.linspace(0.0, 8.0, 50)
        assert md.log_likelihood_at_radius(ep1, r) == pytest.approx(
            md.log_likelihood_at_radius(G10, r), abs=1e-10)

    def test_strictly_decreasing_in_radius(self):
        r = np.linspace(0.0, 50.0, 2000)
        for m in [G10, EP2, EP34, C10]:
            v = md.log_likelihood_at_radius(m, r)
            assert np.all(np.diff(v) < 0.0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            md.log_likelihood_at_radius(G10, -1.0)


class TestVolumeMaps:
    def test_boundaries(self):
        assert md.radius_from_log_x(G10, -np.inf) == 0.0
        assert md.radius_from_log_x(G10, 0.0) == np.inf
        assert md.log_likelihood_from_log_x(G10, 0.0) == -np.inf
        assert md.log_likelihood_from_log_x(C10, 0.0) == -np.inf

    def test_gaussian_two_below_peak(self):
        # 2 nats below the peak is r = 2, and X(r) = chi2_d.cdf(r^2/sigma^2)
        peak = md.log_likelihood_at_radius(G10, 0.0)
        assert md.log_x_from_log_likelihood(G10, peak - 2.0) == pytest.approx(
            chi2.logcdf(0.04, 10), rel=1e-12)

    def test_exp_power_hand_case(self):
        # r^(2b)/2 = 8 at b=2 gives r = 2
        peak = md.log_likelihood_at_radius(EP2, 0.0)
        assert md.log_x_from_log_likelihood(EP2, peak - 8.0) == pytest.approx(
            chi2.logcdf(0.04, 10), rel=1e-12)

    def test_log_x_all_families_against_scipy(self):
        # below r ~ 0.05 the b=2 drop r^4/2 cancels against the stored
        # normalization constant, so start where the drop is representable
        for m in [G10, EP2, EP34, C10]:
            r = np.geomspace(0.05, 40.0, 200)
            logl = md.log_likelihood_at_radius(m, r)
            got = [md.log_x_from_log_likelihood(m, v) for v in logl]
            want = chi2.logcdf((r / m.sigma_pi) ** 2, m.d)
            # a relative radius error e moves ln X by about d e
            assert np.allclose(got, want, rtol=1e-9, atol=0.0)

    def test_half_mass_radius(self):
        # r^2/(2 sigma^2) = 4.6709 is the Gamma(5,1) median
        logl = md.log_likelihood_at_radius(G10, 30.565)
        assert md.log_x_from_log_likelihood(G10, logl) == pytest.approx(
            math.log(0.5), abs=1e-3)

    def test_composition(self):
        direct = md.log_likelihood_at_radius(G10, 30.565)
        via_x = md.log_likelihood_from_log_x(
            G10, md.log_x_from_log_likelihood(G10, direct))
        assert via_x == pytest.approx(direct, abs=1e-6)

    def test_round_trip_radius_logx(self):
        # ln X rounds to -0.0 once 1 - X underflows (r beyond ~39 sigma at
        # d=10); such points cannot round trip in double and are skipped
        for m in [G10, G3, EP2, C10, ModelSpec(md.GAUSSIAN, 2, 0.1)]:
            r = np.geomspace(1e-3 * m.sigma_pi, 40.0 * m.sigma_pi, 120)
            lx = sf.log_reg_lower_inc_gamma(0.5 * m.d,
                                            0.5 * (r / m.sigma_pi) ** 2)
            representable = lx < 0.0
            assert np.all(r[~representable] > 38.0 * m.sigma_pi)
            back = md.radius_from_log_x(m, lx[representable])
            assert np.all(np.abs(back - r[representable]) <= 1e-8 * r[representable])

    def test_monotone_on_random_pairs(self):
        rng = np.random.default_rng(8)
        lx = -rng.uniform(1e-6, 60.0, 10_000)
        perm = rng.permutation(10_000)
        l1 = md.log_likelihood_from_log_x(G10, lx)
        l2 = l1[perm]
        lower = lx[perm] < lx
        assert np.all((l2 > l1)[lower])

    def test_rejects_positive_logx(self):
        with pytest.raises(ValueError):
            md.radius_from_log_x(G10, 0.5)

    @settings(deadline=None)
    @given(family=st.sampled_from(md.FAMILIES),
           d=st.sampled_from([1, 2, 3, 10, 1000]),
           b=st.sampled_from([0.75, 2.0]), frac=st.floats(0.0, 1.0))
    # contours whose square r * r rounds differently from pow(r, 2)
    @example(family=md.EXP_POWER, d=1000, b=2.0, frac=0.3883333333333333)
    @example(family=md.EXP_POWER, d=10, b=0.75, frac=0.4473333333333333)
    def test_float_log_x_has_the_0d_array_bits(self, family, d, b, frac):
        # the sampler's region ends took the 0-d array route before the
        # float path replaced it, so these are the bits to keep.  (A
        # 1-element array squares with r * r where a 0-d one calls pow,
        # which moves a few exp_power contours by an ulp.)
        m = ModelSpec(family, d, 10.0, b)
        a = 0.5 * d
        r_hi = m.sigma_pi * math.sqrt(2.0 * (a + 45.0 * math.sqrt(a) + 300.0))
        logl = md.log_likelihood_at_radius(m, frac * r_hi)
        got = md.log_x_from_log_likelihood(m, logl)
        assert type(got) is float
        assert same_bits(got, reference_log_x_from_log_likelihood(m, logl))

    @pytest.mark.parametrize("m", [G3, EP2, EP34, C10,
                                   ModelSpec(md.EXP_POWER, 1000, 10.0, 2.0)])
    def test_float_log_x_edges(self, m):
        peak = md.log_likelihood_at_radius(m, 0.0)
        for logl, want in ((peak, -np.inf), (-np.inf, 0.0)):
            assert md.log_x_from_log_likelihood(m, logl) == want
            assert md.log_x_from_log_likelihood(m, np.array(logl)) == want
        for bad in (peak + 1.0, math.nextafter(peak, math.inf), math.nan):
            with pytest.raises(ValueError):
                md.log_x_from_log_likelihood(m, bad)
            with pytest.raises(ValueError):
                md.log_x_from_log_likelihood(m, np.array(bad))


class TestEvidence:
    def test_closed_form_d10(self):
        assert md.analytic_log_evidence(G10) == pytest.approx(
            -5.0 * math.log(2.0 * math.pi * 101.0), abs=1e-12)
        assert md.analytic_log_evidence(G10) == pytest.approx(-32.264988, abs=1e-5)

    def test_closed_form_d3(self):
        assert md.analytic_log_evidence(G3) == pytest.approx(-9.6797, abs=5e-4)

    def test_quadrature_matches_closed_form(self):
        for d in [2, 3, 10, 100]:
            m = ModelSpec(md.GAUSSIAN, d, 10.0)
            assert md.log_evidence_quadrature(m) == pytest.approx(
                md.analytic_log_evidence(m), abs=1e-6)

    def test_quadrature_node_convergence(self):
        for m in [G10, EP2, C10]:
            a = md.log_evidence_quadrature(m, 1_000_001)
            b = md.log_evidence_quadrature(m, 4_000_001)
            assert a == pytest.approx(b, abs=1e-7)

    def test_independent_radius_route(self):
        for m in [G10, G3, EP2, EP34, C10]:
            assert log_evidence_radius_quadrature(m) == pytest.approx(
                md.log_evidence_quadrature(m), abs=1e-8)

    def test_non_gaussian_regression_values(self):
        # frozen from the two agreeing quadrature routes
        assert md.analytic_log_evidence(EP2) == pytest.approx(-32.2258688, abs=1e-6)
        assert md.analytic_log_evidence(EP34) == pytest.approx(-32.3749961, abs=1e-6)
        assert md.analytic_log_evidence(C10) == pytest.approx(-32.5212479, abs=1e-6)


class TestPosteriorMass:
    def test_boundary_zero(self):
        assert md.relative_posterior_mass(G10, 0.0) == 0.0

    def test_total_mass_is_evidence(self):
        ratio = md.posterior_mass_remaining(G10, 0.0) / math.exp(md.analytic_log_evidence(G10))
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_remaining_monotone(self):
        lx = np.linspace(-60.0, -0.01, 500)
        vals = md.posterior_mass_remaining(G10, lx)
        assert np.all(np.diff(vals) >= 0.0)

    def test_argmax_is_stationary(self):
        xstar = argmax_log_x_relative_posterior_mass(G10)
        h = 1e-4
        deriv = (md.log_relative_posterior_mass(G10, xstar + h)
                 - md.log_relative_posterior_mass(G10, xstar - h)) / (2.0 * h)
        assert abs(deriv) < 1e-3
        # rough location: within a few units of -d ln(sigma_pi)
        assert -25.0 < xstar < -15.0

    @pytest.mark.parametrize("m, want", [
        (G3, "-0x1.a6896a2f6f360p+2"), (G10, "-0x1.3d95146333852p+4"),
        (EP2, "-0x1.b44fa8c974270p+4"), (EP34, "-0x1.c9e339f9e4454p+3"),
        (C10, "-0x1.4366e8c9139c8p+4")])
    def test_argmax_bits(self, fresh_model_caches, m, want):
        # a fresh process's bits
        assert argmax_log_x_relative_posterior_mass(m).hex() == want

    def test_integrates_to_evidence(self):
        # direct check that L(X) X integrates (in ln X) to exp(ln Z)
        lx = np.linspace(-90.0, -1e-6, 400_001)
        f = md.relative_posterior_mass(G10, np.array([-20.0]))  # warm the map
        g = reference_posterior_grid(G10)
        total = float(np.sum(np.exp(g.log_l + g.log_x))) * (g.log_x[1] - g.log_x[0])
        assert total == pytest.approx(math.exp(md.analytic_log_evidence(G10)), rel=1e-5)
        assert f[0] > 0.0


class TestContourMap:
    def test_matches_exact_paths(self):
        # interpolation error concentrates where the contour height dives
        # toward ln X = 0 (slope ~ 1e4 per ln-unit); everything carrying
        # posterior weight sits far below that, so the tight band applies
        # to lx <= -0.1 and a loose one to the dive
        cmap = md.get_contour_map(G10, -60.0)
        lx = np.linspace(-55.0, -0.5, 50)
        exact_logl = np.array([md.log_likelihood_from_log_x(G10, v) for v in lx])
        assert np.max(np.abs(cmap.log_l(lx) - exact_logl)) < 1e-7
        exact_r = np.array([md.radius_from_log_x(G10, v) for v in lx])
        assert np.max(np.abs(cmap.radius(lx) - exact_r) / exact_r) < 1e-10
        steep = np.geomspace(0.4, 1e-4, 20)
        exact_steep = np.array([md.log_likelihood_from_log_x(G10, -v) for v in steep])
        assert np.max(np.abs(cmap.log_l(-steep) - exact_steep)) < 0.05

    def test_out_of_range_raises(self):
        cmap = md.get_contour_map(G10, -60.0)
        with pytest.raises(ValueError):
            cmap.log_l(cmap.log_x_floor - 50.0)
        lowest = cmap._nodes[0]
        top = cmap.log_x_top
        for query in (math.nextafter(lowest, -math.inf),
                      math.nextafter(top, math.inf), 0.0, math.nan,
                      np.array([-5.0, math.nan]), np.array([top, 1.0])):
            for method in (cmap.log_l, cmap.radius, cmap.log_l_and_radius):
                with pytest.raises(ValueError, match="outside tabulated"):
                    method(query)
        # both end nodes are inside; the paired query repeats the single ones
        ends = np.array([lowest, top])
        logl, radius = cmap.log_l_and_radius(ends)
        assert logl.tobytes() == cmap.log_l(ends).tobytes()
        assert radius.tobytes() == cmap.radius(ends).tobytes()
        assert np.all(np.isfinite(logl)) and np.all(np.isfinite(radius))
        for method in (cmap.log_l, cmap.radius):
            assert method(np.empty(0)).shape == (0,)

    def test_cache_reuses_deepest(self):
        a = md.get_contour_map(G3, -40.0)
        b = md.get_contour_map(G3, -30.0)
        assert b is a
        c = md.get_contour_map(G3, 2.0 * a.log_x_floor)
        assert c is not a
        assert c.log_x_floor <= 2.0 * a.log_x_floor

    def test_build_memory_budget(self):
        # numpy reports its buffers to tracemalloc, so the bound counts node
        # arrays on any machine: a map holds its search nodes, its node
        # radii and the node slopes of its two tables, and its build peaks
        # at those four plus the block temporaries of the slope pass (the
        # node gamma pass runs in place, beside fewer arrays, and no ln L
        # row is made); the slack covers the Python objects around them
        cmap, held, peak = traced_memory(lambda: md.ContourMap(G3, -60.0))
        assert cmap._nodes.size >= 200_000
        array = cmap._nodes.nbytes
        slack = 64 * 1024
        assert held <= 4 * array + slack
        assert peak <= 4.5 * array + slack

    # sha256 of log_l then radius on a grid from 30 below the requested
    # floor to the top node, from empty caches; the gaussian and cauchy
    # maps were recorded while the tables were scipy PchipInterpolator
    # objects, the d=1000 map of the dyn2_d1000 benchmark workload (at the
    # floor of a 2-point run, as its pipeline builds it) while the series
    # ran over the whole node array
    @pytest.mark.parametrize("m,digest", [
        ((G3, -60.0),
         "525b0a4e3670e3ac63ca9d8a4361c5a3b36bdc84798417565cf5abc581ef7008"),
        ((C10, -60.0),
         "7c27e4ffa00ef3076b6f54ed12fa9f00608e4eade77595dce8b8f58f09449684"),
        ((EP1000, None),
         "06d13c4e3d402da15f8ab80ded1da54d7d9a9a113c1fc56d34cbae43810bcbc1"),
    ])
    def test_tables_pinned(self, fresh_model_caches, m, digest):
        model, floor = m
        if floor is None:
            floor = md.sampling_log_x_floor(model, 2)
        cmap = md.get_contour_map(model, floor)
        grid = np.append(np.linspace(floor - 30.0, -1e-9, 50_001),
                         cmap.log_x_top)
        h = hashlib.sha256()
        h.update(cmap.log_l(grid).tobytes())
        h.update(cmap.radius(grid).tobytes())
        assert h.hexdigest() == digest

    def test_no_scipy_interpolate_at_run_time(self, tmp_path):
        # a fresh interpreter: importing varlive and varlive.cli, building a
        # map and sampling a run load no scipy module at all; then, with
        # scipy made unimportable, every CLI stage runs on a gaussian d=3
        # ensemble
        config = {
            "model": {"family": "gaussian", "d": 3, "sigma_pi": 10.0},
            "n_runs": 2, "seed": 7, "estimators": ["log_z", "mean_theta1"],
            "bootstrap_reps": 4, "gain_boot": 4, "profile_runs": 2,
            "arms": [{"name": "std", "method": "standard", "n_live": 20},
                     {"name": "dyn", "method": "dyn1", "goal_g": 1.0,
                      "n_init": 5, "budget": 600}]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        stages = [[stage, "--config", str(config_path),
                   "--out", str(tmp_path / "out")]
                  for stage in ("generate", "compare", "alloc-profile",
                                "bootstrap-table")]
        code = "\n".join([
            "import json, sys",
            "import varlive, varlive.cli",
            "from varlive.models import ModelSpec, get_contour_map",
            "from varlive.sampler import SamplerConfig, standard_run",
            "m = ModelSpec('gaussian', 3, 10.0)",
            "get_contour_map(m, -60.0)",
            "standard_run(m, SamplerConfig(n_live=20), 1)",
            "loaded = sorted(k for k in sys.modules"
            " if k.partition('.')[0] == 'scipy')",
            "sys.modules['scipy'] = None",
            f"codes = [varlive.cli.main(argv) for argv in {stages!r}]",
            "loaded += sorted(k for k, v in sys.modules.items()"
            " if k.partition('.')[0] == 'scipy' and v is not None)",
            "print(json.dumps([loaded, codes]))"])
        src = os.path.dirname(os.path.dirname(os.path.abspath(varlive.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        assert json.loads(out.stdout.splitlines()[-1]) == [[], [0, 0, 0, 0]]
        for name in ("manifest.json", "report.csv", "alloc_profile.csv",
                     "bootstrap_table.csv"):
            assert (tmp_path / "out" / name).is_file()


class TestLogLFromRadius:
    """A contour map keeps no ln L node values: its build and every query
    compute them from the node radii with the closed form
    (`models._log_l_at_radius`).  That gives the bits of the whole ln L row
    the build used to keep only because numpy's ufuncs give an entry the
    same bits whatever the length of the array around it."""

    @pytest.mark.parametrize("m,floor", [
        (G3, -60.0), (C10, -60.0), (EP1000, None),
        (ModelSpec(md.EXP_POWER, 3, 10.0, b=0.7), -60.0)])
    def test_gathered_radii_give_the_whole_row_bits(self, m, floor):
        if floor is None:
            floor = md.sampling_log_x_floor(m, 2)
        cmap = md.ContourMap(m, floor)
        radius = cmap._radius
        whole = md.log_likelihood_at_radius(m, radius)
        rng = np.random.default_rng(26)
        for shape in [(1,), (14,), (_QUERY_BLOCK,), (_QUERY_BLOCK + 17,),
                      (2, 14)]:
            k = rng.integers(0, radius.size, shape)
            k.reshape(-1)[[0, -1]] = [radius.size - 1, 0]
            assert md._log_l_at_radius(m, radius[k]).tobytes() \
                == whole[k].tobytes(), shape
            assert cmap._log_l_nodes(k).tobytes() == whole[k].tobytes()
        for m_ends in (1, 14, _QUERY_BLOCK + 17):
            ends = rng.integers(0, radius.size - 1, m_ends) + [[0], [1]]
            both = cmap._log_l_and_radius_nodes(ends)
            assert both[:, 0].tobytes() == whole[ends].tobytes()
            assert both[:, 1].tobytes() == radius[ends].tobytes()
        # the windows the slope pass reads, and its two end windows
        for b in md._blocks(radius.size - 2):
            window = slice(b.start, b.stop + 2)
            assert cmap._log_l_nodes(window).tobytes() \
                == whole[window].tobytes()
        for window in (slice(0, 3), slice(-3, None)):
            assert cmap._log_l_nodes(window).tobytes() \
                == whole[window].tobytes()

    @pytest.mark.parametrize("m", [G3, C10])
    def test_queries_match_four_coefficient_table(self, m):
        # the tables of the map's nodes and of its whole ln L and radius
        # rows, as the map held them before it kept node values and
        # slopes alone (tests/reference.py), give every query's bits
        cmap = md.ContourMap(m, -60.0)
        x = cmap._nodes
        rows = [md.log_likelihood_at_radius(m, cmap._radius),
                cmap._radius.copy()]
        tables = [reference_pchip_table(x, row) for row in rows]
        nodes = reference_pchip_nodes(x.copy())
        rng = np.random.default_rng(11)
        q = np.concatenate([x[::53], 0.5 * (x[:-1:61] + x[1::61]),
                            rng.uniform(x[0], x[-1], _QUERY_BLOCK),
                            x[[0, 1, -2, -1]]])
        want = reference_pchip_eval(nodes, tables, q)
        log_l, radius = cmap.log_l_and_radius(q)
        assert log_l.tobytes() == want[0].tobytes()
        assert radius.tobytes() == want[1].tobytes()
        assert cmap.log_l(q).tobytes() == want[0].tobytes()
        assert cmap.radius(q).tobytes() == want[1].tobytes()


def pchip_table(x, y):
    """_pchip_table of the node values held in the array y."""
    return md._pchip_table(x, y.__getitem__)


def pchip_eval(x, values, slopes, q):
    """_pchip_eval of tables whose node values are held in the array
    values, shaped like slopes."""
    def y(ends):
        return np.moveaxis(values[..., ends], -2, 0)

    return md._pchip_eval(x, y, slopes, q)


def blockwise_pchip_eval(x, values, slopes, q):
    """_pchip_eval of a long query as separate queries of one block each,
    concatenated: the bytes the preallocated output must hold."""
    flat = q.reshape(-1)
    parts = [pchip_eval(x, values, slopes, flat[b])
             for b in md._blocks(flat.size)]
    return np.concatenate(parts, axis=-1).reshape(values.shape[:-1] + q.shape)


def same_bits(a, b) -> bool:
    """Equal arrays, NaN where the other is NaN and equal bits elsewhere."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@st.composite
def pchip_nodes(draw):
    """(x, y, fracs): strictly increasing nodes with gaps over eight
    decades, values with flat runs, sign changes and monotone stretches,
    and query positions as fractions of the node range."""
    n = draw(st.integers(3, 40))
    gaps = draw(st.lists(st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 1.0),
                                   st.floats(1.0, 100.0)),
                         min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-1e3, 1e3)) + np.cumsum([0.0] + gaps)
    shape = draw(st.sampled_from(["increasing", "decreasing", "any"]))
    steps = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
        min_size=n - 1, max_size=n - 1)))
    if shape == "increasing":
        steps = np.abs(steps)
    elif shape == "decreasing":
        steps = -np.abs(steps)
    y = draw(st.floats(-1e3, 1e3)) + np.cumsum(np.concatenate([[0.0], steps]))
    fracs = draw(st.lists(st.floats(0.0, 1.0), max_size=50))
    return x.tolist(), y.tolist(), fracs


class TestPchipTable:
    """The numpy node slopes and the node-value query against scipy's
    PchipInterpolator(x, y, extrapolate=False), and the query against the
    four-coefficient table it replaced (tests/reference.py), bit for bit."""

    @settings(deadline=None)
    @given(data=pchip_nodes())
    # interior: a flat run and a sign change set node slopes to 0
    @example(data=([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 2.0, 0.0], []))
    # both end-slope masks (see test_end_slope_masks)
    @example(data=([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 11.0, 10.0], [0.5]))
    @example(data=([-3.0, -1.0, -0.5], [-0.0, -0.0, 2.0], [0.0]))
    def test_matches_scipy_bitwise(self, data):
        x, y, fracs = (np.array(v, dtype=float) for v in data)
        assume(np.all(np.diff(x) > 0.0))
        with np.errstate(over="ignore"):  # slopes near the underflow limit
            refs = [PchipInterpolator(x, v, extrapolate=False)
                    for v in (y, -y)]
        values = np.stack([y, -y])
        slopes = np.stack([pchip_table(x, v) for v in values])
        for d, ref in zip(slopes, refs):
            assert d[:-1].tobytes() == ref.c[2].tobytes()

        mid = 0.5 * (x[:-1] + x[1:])
        inside = np.minimum(x[0] + fracs * (x[-1] - x[0]), x[-1])
        outside = [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
                   x[0] - 1.0, x[-1] + 1.0, -np.inf, np.inf, np.nan]
        for q in (x, mid, inside, x[-1:], np.array(outside),
                  *map(np.asarray, x)):
            got = pchip_eval(x, values, slopes, q)
            assert got.shape == (2,) + q.shape
            for g, ref in zip(got, refs):
                assert same_bits(g, ref(q)), q

    @settings(deadline=None)
    @given(data=pchip_nodes(), long=st.booleans())
    # -0.0 node values, with +0.0 and -0.0 neighbours, queried on the nodes
    @example(data=([-2.0, -1.0, 0.0, 1.0, 2.0], [-0.0, 0.0, -0.0, -0.0, 1.0],
                   [0.0, 0.25, 0.5, 0.75, 1.0]), long=False)
    # on the -0.0 node every term of the power sum is -0.0, so only the
    # 0.0 the sum starts from makes the value 0.0
    @example(data=([0.0, 1.0, 2.0, 3.0], [1 / 3, -0.0, -1.0, -8.0], []),
             long=False)
    @example(data=([0.0, 1.0, 3.0], [1.0, -0.0, -0.0], [1.0]), long=True)
    def test_matches_four_coefficient_table_bitwise(self, data, long):
        # the node-value query against the table of nine node arrays it
        # replaced: every query on a node, inside, on either end, a float
        # past either end, infinite or NaN, for one table (a 1-d values
        # array) and for two, as a scalar, a short query and one longer
        # than a block
        x, y, fracs = (np.array(v, dtype=float) for v in data)
        assume(np.all(np.diff(x) > 0.0))
        values = np.stack([y, -y])  # -y turns every 0.0 into -0.0
        with np.errstate(over="ignore"):
            slopes = np.stack([pchip_table(x, v) for v in values])
            tables = [reference_pchip_table(x, v.copy()) for v in values]
        nodes = reference_pchip_nodes(x.copy())
        q = np.concatenate([
            x, 0.5 * (x[:-1] + x[1:]), x[0] + fracs * (x[-1] - x[0]),
            [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
             np.nextafter(x[-1], -np.inf), -np.inf, np.inf, np.nan]])
        if long:
            q = np.resize(q, _QUERY_BLOCK + 17)
        for query in (q, q[-1], q.reshape(1, -1)):
            query = np.asarray(query)
            want = reference_pchip_eval(nodes, tables, query)
            got = pchip_eval(x, values, slopes, query)
            assert got.shape == (2,) + query.shape
            for row in range(2):
                one = pchip_eval(x, values[row], slopes[row], query)
                assert one.shape == query.shape
                assert same_bits(got[row], want[row])
                assert one.tobytes() == got[row].tobytes()

    def test_long_query_matches_scipy_bitwise(self):
        # more than one block of queries, in a 2-d shape, some outside
        rng = np.random.default_rng(7)
        x = np.cumsum(rng.uniform(1e-3, 1.0, 500))
        y = np.cumsum(rng.normal(size=500))
        q = rng.uniform(x[0] - 1.0, x[-1] + 1.0, (3, _QUERY_BLOCK + 11))
        q[0, :5] = [np.nan, x[0], x[-1], -np.inf, np.inf]
        got = pchip_eval(x, y, pchip_table(x, y), q)
        ref = PchipInterpolator(x, y, extrapolate=False)
        assert got.shape == q.shape
        assert same_bits(got, ref(q))

    @pytest.mark.parametrize("shape", [(2 * _QUERY_BLOCK + 123,),
                                       (3, _QUERY_BLOCK + 11)])
    def test_long_query_matches_block_concatenation(self, shape):
        # the preallocated output holds the bytes of one query per block,
        # concatenated, NaN outside the nodes included, for one and for two
        # tables
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.uniform(1e-3, 1.0, 700))
        values = np.stack([np.cumsum(rng.normal(size=700)), np.sqrt(x)])
        slopes = np.stack([pchip_table(x, v) for v in values])
        q = rng.uniform(x[0] - 2.0, x[-1] + 2.0, shape)
        q.reshape(-1)[:5] = [np.nan, x[0], x[-1], -np.inf, np.inf]
        for rows in (0, slice(0, 1), slice(None)):
            got = pchip_eval(x, values[rows], slopes[rows], q)
            want = blockwise_pchip_eval(x, values[rows], slopes[rows], q)
            assert got.shape == want.shape == values[rows].shape[:-1] + shape
            assert got.tobytes() == want.tobytes()

    def test_multi_block_table_matches_scipy_bitwise(self):
        # more nodes than two blocks of the table build: increasing values,
        # whose node slopes are nonzero at every block edge, then values
        # with sign changes throughout and flat runs next to the edges;
        # queried on every node and interval midpoint
        block = _QUERY_BLOCK
        rng = np.random.default_rng(11)
        x = np.cumsum(rng.uniform(1e-3, 1.0, 2 * block + 7))
        steps = rng.normal(size=x.size - 1)
        flat = steps.copy()
        flat[[block - 2, block + 1, 2 * block - 2, 2 * block + 1]] = 0.0
        q = np.concatenate([x, 0.5 * (x[:-1] + x[1:])])
        for y_steps in (np.abs(steps), flat):
            y = np.concatenate([[0.0], np.cumsum(y_steps)])
            ref = PchipInterpolator(x, y, extrapolate=False)
            d = pchip_table(x, y)
            assert d[:-1].tobytes() == ref.c[2].tobytes()
            assert same_bits(pchip_eval(x, y, d, q), ref(q))

    def test_end_slope_masks(self):
        # unit spacing, so the three-point estimate is (3 m0 - m1) / 2
        assert md._pchip_end_slope(1.0, 1.0, 1.0, 2.0) == 0.5
        # its sign differs from m0's: 0
        assert md._pchip_end_slope(1.0, 1.0, 1.0, 10.0) == 0.0
        # m0 and m1 differ in sign and |d| = 6.5 > 3 |m0|: 3 m0
        assert md._pchip_end_slope(1.0, 1.0, -1.0, 10.0) == -3.0
        # the same sign pattern with |d| = 2 <= 3 |m0| keeps d
        assert md._pchip_end_slope(1.0, 1.0, -1.0, 1.0) == -2.0


def reference_log_evidence_quadrature(m, n_nodes=1_000_001):
    """log_evidence_quadrature as it was before it ran in place: a boolean
    gather of the nodes inside the map and one array per pass."""
    deep = md._quad_floor(m)
    fine_floor = md._posterior_support_floor(m) - 60.0
    cmap = md.get_contour_map(m, max(fine_floor, deep))
    grid = np.linspace(deep, 0.0, n_nodes)
    logl = np.full(n_nodes, md._log_norm_const(m))
    inside = grid >= cmap.log_x_floor
    top = cmap.log_x_top
    capped = np.minimum(grid[inside], top)
    logl[inside] = cmap.log_l(capped)
    logl[-1] = -np.inf
    h = grid[1] - grid[0]
    logw = np.full(n_nodes, math.log(h))
    logw[0] += math.log(0.5)
    logw[-1] += math.log(0.5)
    terms = logl + grid + logw
    mx = np.max(terms)
    return float(mx + math.log(np.sum(np.exp(terms - mx))))


def reference_posterior_grid(m, n_nodes=400_001):
    """The posterior as trapezoid weights on the uniform ln X grid of
    `_remaining_table`, with the contour's ln L and radius at each node
    (the package's posterior_grid before it ran in place)."""
    fine_floor = md._posterior_support_floor(m) - 60.0
    cmap = md.get_contour_map(m, fine_floor)
    grid = np.linspace(fine_floor, min(-1e-9, cmap.log_x_top), n_nodes)
    logl, radius = cmap.log_l_and_radius(grid)
    h = grid[1] - grid[0]
    logw = logl + grid + math.log(h)
    logw[0] -= math.log(2.0)
    logw[-1] -= math.log(2.0)
    mx = float(np.max(logw))
    log_z = mx + math.log(np.sum(np.exp(logw - mx)))
    weight = np.exp(logw - log_z)
    return SimpleNamespace(log_x=grid, log_l=logl, radius=radius,
                           weight=weight / float(np.sum(weight)),
                           log_z=float(log_z))


def reference_remaining_table(m):
    """_remaining_table as it was when it read a whole posterior grid."""
    g = reference_posterior_grid(m)
    with np.errstate(divide="ignore"):
        logw = np.log(g.weight) + g.log_z
    log_cum = np.logaddexp.accumulate(logw)
    return g.log_x, log_cum


class TestQuadratureReference:
    """The in-place quadratures give their reference's bytes on the same
    map, from empty caches."""

    @pytest.mark.parametrize("m", [G3, C10, EP34])
    def test_log_evidence_quadrature(self, fresh_model_caches, m):
        got = md.log_evidence_quadrature(m)
        # the grid starts below the map, so the suffix is a proper one
        assert md._quad_floor(m) < md.get_contour_map(m, 0.0).log_x_floor
        assert got.hex() == reference_log_evidence_quadrature(m).hex()
        got = md.log_evidence_quadrature(m, 1001)
        assert got.hex() == reference_log_evidence_quadrature(m, 1001).hex()

    @pytest.mark.parametrize("m", [G3, C10, EP34])
    def test_remaining_table(self, fresh_model_caches, m):
        got_grid, got_cum = md._remaining_table(m)
        want_x, want_cum = reference_remaining_table(m)
        got_x = got_grid.nodes(np.arange(got_grid.n))
        assert got_x.tobytes() == want_x.tobytes()
        assert got_cum.tobytes() == want_cum.tobytes()
        # the alloc-profile grid: 513 points from below the table to 0;
        # then queries below the grid, on its nodes (the first, some inner
        # ones, the top), just off them, above the top, NaN and infinite
        near = want_x[[0, 1, 2, 199_999, 200_000, 399_999, 400_000]]
        for grid in (np.linspace(want_x[0] - 5.0, 0.0, 513),
                     np.concatenate([
                         [want_x[0] - 1.0, np.nextafter(want_x[0], -np.inf)],
                         near, np.nextafter(near, -np.inf),
                         np.nextafter(near, 0.0), want_x[::997],
                         [0.0, -0.0, np.nan, -np.inf]]).reshape(3, -1)):
            got = md.log_posterior_mass_remaining(m, grid)
            want = np.interp(grid, want_x, want_cum, left=-np.inf,
                             right=float(want_cum[-1]))
            assert got.shape == grid.shape
            assert got.tobytes() == want.tobytes()
        for q in (want_x[5], want_x[0] - 1.0, 0.0):
            got = md.log_posterior_mass_remaining(m, float(q))
            assert isinstance(got, float)
            assert got == float(np.interp(q, want_x, want_cum, left=-np.inf,
                                          right=float(want_cum[-1])))
        assert md.log_posterior_mass_remaining(m, np.empty(0)).size == 0

    def test_remaining_table_memory_budget(self, fresh_model_caches):
        # with the map and the support floor cached, the table holds one
        # grid array and peaks at blocks above it, and a lookup holds
        # nothing and peaks at little more; a long two-table query holds
        # no block list beside its outputs
        fine_floor = md._posterior_support_floor(G3) - 60.0
        cmap = md.get_contour_map(G3, fine_floor)
        table, held, peak = traced_memory(lambda: md._remaining_table(G3))
        array = table[1].nbytes
        assert table[1].size == table[0].n == 400_001
        slack = 64 * 1024
        assert held <= array + slack
        assert peak <= 1.25 * array
        lookup = np.linspace(fine_floor - 5.0, 0.0, 513)
        _, held, peak = traced_memory(
            lambda: md.log_posterior_mass_remaining(G3, lookup))
        assert held <= slack
        assert peak <= 1.3 * array
        grid = np.linspace(fine_floor, cmap.log_x_top, 400_001)
        _, held, peak = traced_memory(lambda: cmap.log_l_and_radius(grid))
        assert held <= 2 * array + slack
        assert peak <= 2.5 * array

    def test_log_evidence_quadrature_memory_budget(self, fresh_model_caches):
        # with the map and the support floor cached, the quadrature sums
        # its terms in one buffer of n_nodes entries, and its other
        # temporaries are blocks
        md.get_contour_map(G3, md._posterior_support_floor(G3) - 60.0)
        n = 1_000_001
        _, held, peak = traced_memory(lambda: md.log_evidence_quadrature(G3, n))
        array = 8 * n
        assert held <= 64 * 1024
        assert peak <= 1.2 * array


class TestPosteriorGridTruths:
    """Conjugate-posterior closed forms vs the quadrature grid (Gaussian)."""

    def test_d3_moments(self):
        g = reference_posterior_grid(G3)
        sig_post = math.sqrt(100.0 / 101.0)
        mean_r = float(np.sum(g.weight * g.radius))
        expect = sig_post * math.sqrt(2.0) * math.gamma(2.0) / math.gamma(1.5)
        assert mean_r == pytest.approx(expect, rel=1e-8)
        m2 = float(np.sum(g.weight * g.radius ** 2)) / 3.0
        assert m2 == pytest.approx(sig_post ** 2, rel=1e-8)

    def test_d3_median_radius(self):
        g = reference_posterior_grid(G3)
        order = np.argsort(g.radius)
        cw = np.cumsum(g.weight[order])
        med = float(np.interp(0.5, cw, g.radius[order]))
        sig_post = math.sqrt(100.0 / 101.0)
        assert med == pytest.approx(sig_post * math.sqrt(chi2.ppf(0.5, 3)), abs=1e-3)

    def test_weights_normalized(self):
        for m in [G10, EP2]:
            g = reference_posterior_grid(m)
            assert float(np.sum(g.weight)) == pytest.approx(1.0, abs=1e-12)
            assert g.log_z == pytest.approx(md.analytic_log_evidence(m), abs=1e-6)


class TestFreshModelCaches:
    """The fixture that bit-exact pins start from."""

    def test_covers_every_cache(self, fresh_model_caches):
        # the process caches stay on the module under test while the
        # fixture holds; a cache it missed would still be there
        assert {"_posterior_support_floor",
                "analytic_log_evidence"} <= set(PROCESS_CACHES)
        modules = [module for name, module in list(sys.modules.items())
                   if name.partition(".")[0] == "varlive"]
        assert varlive.experiments in modules
        for name, cached in PROCESS_CACHES.items():
            fresh = getattr(md, name)
            assert fresh is not cached, name
            assert fresh.cache_info().currsize == 0, name
            for module in modules:
                assert getattr(module, name, None) is not cached, \
                    (module.__name__, name)
        assert md._MAP_CACHE == {}

    def test_forgets_a_deeper_map(self, monkeypatch):
        # ln Z of exp_power d=10 b=2 moves in its last bit when a deeper map
        # was built first; empty caches give a fresh process's value
        use_fresh_model_caches(monkeypatch)
        md.get_contour_map(EP2, -1000.0)
        deeper = md.analytic_log_evidence(EP2)
        use_fresh_model_caches(monkeypatch)
        assert md.analytic_log_evidence(EP2).hex() == "-0x1.01ce944efe5bbp+5"
        assert deeper.hex() == "-0x1.01ce944efe5bcp+5"

    def test_empty_map_cache_resets_remaining_mass(self, monkeypatch):
        # the remaining-mass table is built from the map on each call, so
        # emptying the map cache alone gives a fresh process's curve again;
        # the deeper map moves 260 of these 513 values
        use_fresh_model_caches(monkeypatch)
        grid = np.linspace(md._posterior_support_floor(EP2) - 65.0, 0.0, 513)
        md.get_contour_map(EP2, -1000.0)
        deeper = md.log_posterior_mass_remaining(EP2, grid)
        monkeypatch.setattr(md, "_MAP_CACHE", {})
        again = md.log_posterior_mass_remaining(EP2, grid)
        use_fresh_model_caches(monkeypatch)
        fresh = md.log_posterior_mass_remaining(EP2, grid)
        assert again.tobytes() == fresh.tobytes()
        assert np.count_nonzero(deeper != fresh) > 0
