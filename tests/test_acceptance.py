"""Acceptance gate: two groups of checks.

Benchmark criteria read the committed ensemble cache (acceptance_cache/,
rebuilt with `python3 -m varlive.accept_gen`) and verify efficiency
gains, unbiasedness, and error-calibration statistics at their stated
tolerances.  Property criteria run live at desk scale.
"""

import functools
import json
import math

import numpy as np
import pytest

from varlive.accept_gen import EST_KEYS, block_config, load_block, run_row
from varlive.analysis import (efficiency_gain, estimate, estimator_from_key,
                              information_content, weighted_quantile)
from varlive.dynamic import (AlgorithmOneConfig, GoalConfig,
                             dynamic_run_algorithm1, savitzky_golay_smooth)
from varlive.experiments import _resolve_arm, estimator_truth
from varlive.models import ModelSpec
from varlive.runio import run_to_dict
from varlive.runs import (NestedRun, combine_runs, combine_threads,
                          live_point_counts, point_log_weights,
                          split_into_threads)
from varlive.sampler import SamplerConfig, standard_run


@functools.lru_cache(maxsize=None)
def block(name):
    try:
        return load_block(name)
    except FileNotFoundError as exc:
        pytest.fail(str(exc), pytrace=False)


def arm(blk, name):
    for entry in blk["arms"]:
        if entry["name"] == name:
            return entry
    raise KeyError(name)


@functools.lru_cache(maxsize=None)
def gain(block_name, dyn_name, est_key):
    blk = block(block_name)
    std = arm(blk, "std")
    dyn = arm(blk, dyn_name)
    rng = np.random.default_rng(blk["seed"] * 1000 + EST_KEYS.index(est_key))
    return efficiency_gain(np.array(std["estimates"][est_key]),
                           np.array(dyn["estimates"][est_key]),
                           std["mean_samples"], dyn["mean_samples"],
                           n_boot=1000, rng=rng)


def describe(g):
    return f"gain {g.gain:.3f} (sigma {g.sigma:.3f})"


# ---------------------------------------------------------------------------
# criterion 1: four-arm speedup table, d=10 gaussian


class TestCriterion1:
    def test_log_z_gain_at_g0(self):
        g = gain("c1", "dyn_g0", "log_z")
        assert 1.1 <= g.gain <= 1.8, describe(g)

    def test_mean_theta1_gain_at_g1(self):
        g = gain("c1", "dyn_g1", "mean_theta1")
        assert 2.8 <= g.gain <= 4.5, describe(g)

    def test_median_radius_gain_at_g1(self):
        g = gain("c1", "dyn_g1", "median_radius")
        assert 3.4 <= g.gain <= 5.6, describe(g)

    def test_g025_improves_both_goals(self):
        gz = gain("c1", "dyn_g025", "log_z")
        gt = gain("c1", "dyn_g025", "mean_theta1")
        assert gz.gain > 1.0, describe(gz)
        assert gt.gain > 1.0, describe(gt)


# ---------------------------------------------------------------------------
# criterion 2: exp-power spot checks, d=10


class TestCriterion2:
    def test_b2_median_radius_gain_at_g1(self):
        g = gain("c2_b2", "dyn_g1", "median_radius")
        assert 5.0 <= g.gain <= 8.5, describe(g)

    def test_b075_log_z_gain_at_g0(self):
        g = gain("c2_b075", "dyn_g0", "log_z")
        assert 1.3 <= g.gain <= 2.0, describe(g)


# ---------------------------------------------------------------------------
# criterion 3: parameter-goal gain grows with dimension


class TestCriterion3:
    def test_gain_strictly_increasing_in_dimension(self):
        gains = [gain(f"c3_d{d}", "dyn_g1", "mean_theta1").gain
                 for d in (2, 10, 100)]
        assert gains[0] < gains[1] < gains[2], gains

    def test_d100_gain_above_5(self):
        g = gain("c3_d100", "dyn_g1", "mean_theta1")
        assert g.gain > 5.0, describe(g)

    def test_d1000_median_radius_gain_above_20(self):
        g = gain("c3_d1000", "dyn_g1", "median_radius")
        assert g.gain > 20.0, describe(g)

    def test_runtime_under_one_hour(self):
        total = sum(block(f"c3_d{d}")["wall_seconds"]
                    for d in (2, 10, 100, 1000))
        assert total < 3600.0, f"{total:.0f}s"


# ---------------------------------------------------------------------------
# criterion 4: narrow prior, evidence goal


class TestCriterion4:
    def test_log_z_gain_above_3(self):
        g = gain("c4", "dyn_g0", "log_z")
        assert g.gain > 3.0, describe(g)


# ---------------------------------------------------------------------------
# criterion 5: bootstrap error calibration over 500 repeats


def _c5_columns():
    blk = block("c5")
    dyn = arm(blk, "dyn_g1")
    model = ModelSpec.from_dict(blk["model"])
    cols = {}
    for key in EST_KEYS:
        truth = estimator_truth(model, estimator_from_key(key))
        est = np.array(dyn["estimates"][key])
        boot = np.array(dyn["boot_std"][key])
        upper = np.array(dyn["cred_upper95"][key])
        cols[key] = (truth, est, boot, upper)
    return cols


class TestCriterion5:
    def test_bootstrap_matches_repeat_spread(self):
        for key, (truth, est, boot, upper) in _c5_columns().items():
            ratio = boot.mean() / est.std(ddof=1)
            assert 0.9 <= ratio <= 1.1, f"{key}: ratio {ratio:.3f}"

    def test_one_sigma_coverage(self):
        for key, (truth, est, boot, upper) in _c5_columns().items():
            cover = np.mean(np.abs(est - truth) <= boot)
            assert 0.63 <= cover <= 0.73, f"{key}: coverage {cover:.3f}"

    def test_95_credible_upper_coverage(self):
        for key, (truth, est, boot, upper) in _c5_columns().items():
            cover = np.mean(truth <= upper)
            assert 0.93 <= cover <= 0.97, f"{key}: coverage {cover:.3f}"


# ---------------------------------------------------------------------------
# criterion 6: unbiasedness of every criterion-1 arm


class TestCriterion6:
    def test_log_z_unbiased(self):
        blk = block("c1")
        model = ModelSpec.from_dict(blk["model"])
        truth = estimator_truth(model, estimator_from_key("log_z"))
        assert truth == pytest.approx(-32.264979, abs=1e-5)
        for entry in blk["arms"]:
            vals = np.array(entry["estimates"]["log_z"])
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            dev = abs(vals.mean() - truth)
            tol = max(0.06, 3.0 * se)
            assert dev <= tol, f"{entry['name']}: dev {dev:.4f} tol {tol:.4f}"

    def test_mean_theta1_unbiased(self):
        blk = block("c1")
        for entry in blk["arms"]:
            vals = np.array(entry["estimates"]["mean_theta1"])
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            dev = abs(vals.mean())
            assert dev <= 3.0 * se, f"{entry['name']}: dev {dev:.5f} se {se:.5f}"

    def test_rmse_tracks_spread_for_all_estimators(self):
        blk = block("c1")
        model = ModelSpec.from_dict(blk["model"])
        for entry in blk["arms"]:
            for key in EST_KEYS:
                truth = estimator_truth(model, estimator_from_key(key))
                vals = np.array(entry["estimates"][key])
                rmse = math.sqrt(np.mean((vals - truth) ** 2))
                ratio = rmse / vals.std(ddof=1)
                assert 0.98 <= ratio <= 1.05, \
                    f"{entry['name']}/{key}: ratio {ratio:.4f}"


# ---------------------------------------------------------------------------
# criterion 7: tuned parameter importance on heavy tails


class TestCriterion7:
    def test_tuned_beats_untuned_and_sits_in_band(self):
        tuned = gain("c7", "dyn_tuned", "mean_theta1")
        untuned = gain("c7", "dyn_untuned", "mean_theta1")
        assert tuned.gain > untuned.gain, \
            f"tuned {describe(tuned)} vs untuned {describe(untuned)}"
        assert 1.0 <= tuned.gain <= 1.8, describe(tuned)


# ---------------------------------------------------------------------------
# criterion 8: property suites (live, no cache)


M3 = ModelSpec(family="gaussian", d=3, sigma_pi=10.0)


class TestCriterion8:
    def test_combine_split_round_trip_exact(self):
        rng = np.random.default_rng(81)
        run = dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=0.5),
            AlgorithmOneConfig(n_init=10, sample_budget=220), rng=rng)
        back = combine_threads(run.model, split_into_threads(run))
        for attr in ("log_l", "birth_log_l", "theta1", "radius",
                     "true_log_x", "thread_id"):
            np.testing.assert_array_equal(getattr(back, attr),
                                          getattr(run, attr), err_msg=attr)

    def test_count_summation_exact(self):
        rng = np.random.default_rng(82)
        parts = [standard_run(M3, SamplerConfig(n_live=n), rng)
                 for n in (7, 12, 23)]
        merged = combine_runs(parts)
        counts = live_point_counts(merged)
        total = np.zeros_like(counts)
        for part in parts:
            # interval cover: a point is live at contour L iff birth < L <= death
            for k, ll in enumerate(merged.log_l):
                total[k] += int(np.sum((part.birth_log_l < ll)
                                       & (ll <= part.log_l)))
        np.testing.assert_array_equal(counts, total)

    def test_shrinkage_moments(self):
        rng = np.random.default_rng(83)
        n, draws = 25, 20000
        t = rng.uniform(size=(draws, n)).max(axis=1)
        se_log = (1.0 / n) / math.sqrt(draws)
        assert abs(np.log(t).mean() + 1.0 / n) < 5 * se_log
        mean_t = n / (n + 1.0)
        var_t = n / ((n + 1.0) ** 2 * (n + 2.0))
        assert abs(t.mean() - mean_t) < 5 * math.sqrt(var_t / draws)

    def test_savitzky_golay_reproduces_cubics(self):
        x = np.linspace(-2.0, 3.0, 41)
        y = 0.3 * x ** 3 - 1.1 * x ** 2 + 0.25 * x - 4.0
        out = savitzky_golay_smooth(y, window=7, order=3)
        np.testing.assert_allclose(out, y, atol=1e-10)

    def test_entropy_bounds(self):
        m = ModelSpec(family="gaussian", d=2, sigma_pi=10.0)
        for seed, n_live in ((84, 30), (85, 5), (86, 1)):
            rng = np.random.default_rng(seed)
            run = standard_run(m, SamplerConfig(n_live=n_live), rng)
            h = information_content(run)
            assert 1.0 - 1e-12 <= h <= len(run) + 1e-9
        # single-thread scaffold with likelihoods chosen to cancel the
        # trapezium weights exactly: 16 equal posterior weights
        n = 16
        chain = np.arange(n, dtype=float)
        births = np.concatenate(([-np.inf], chain[:-1]))
        scaffold = NestedRun(m, chain, births, np.zeros(n), np.zeros(n),
                             -np.arange(1, n + 1, dtype=float),
                             np.zeros(n, dtype=np.int64))
        log_l = -point_log_weights(scaffold)
        assert np.all(np.diff(log_l) > 0)
        flat = NestedRun(m, log_l, np.concatenate(([-np.inf], log_l[:-1])),
                         np.zeros(n), np.zeros(n),
                         -np.arange(1, n + 1, dtype=float),
                         np.zeros(n, dtype=np.int64))
        assert information_content(flat) == pytest.approx(16.0, abs=1e-9)

    def test_weighted_quantile_brute_force(self):
        # independent midpoint-rule twin, checked for every N <= 20
        def brute(values, weights, q):
            order = sorted(range(len(values)), key=lambda i: values[i])
            v = [values[i] for i in order]
            w = [weights[i] for i in order]
            total = sum(w)
            pos = []
            acc = 0.0
            for wi in w:
                pos.append((acc + 0.5 * wi) / total)
                acc += wi
            if q <= pos[0]:
                return v[0]
            if q >= pos[-1]:
                return v[-1]
            for i in range(len(pos) - 1):
                if pos[i] <= q <= pos[i + 1]:
                    frac = (q - pos[i]) / (pos[i + 1] - pos[i])
                    return v[i] + frac * (v[i + 1] - v[i])
            raise AssertionError("unreachable")

        rng = np.random.default_rng(85)
        for n in range(1, 21):
            vals = rng.normal(size=n)
            weights = rng.uniform(0.1, 2.0, size=n)
            for q in (0.05, 0.25, 0.5, 0.84, 0.95):
                got = weighted_quantile(vals, weights, q)
                want = brute(list(vals), list(weights), q)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_deterministic_replay_byte_exact(self):
        def snap(seed):
            rng = np.random.default_rng(seed)
            run = dynamic_run_algorithm1(
                M3, GoalConfig(goal_g=1.0),
                AlgorithmOneConfig(n_init=8, sample_budget=150), rng=rng)
            return json.dumps(run_to_dict(run), sort_keys=True)

        assert snap(4242) == snap(4242)
        assert snap(4242) != snap(4243)


# ---------------------------------------------------------------------------
# cache replay: committed rows recomputed through the per-run code


def replayed_rows(block_name, run_index):
    """(arm name, cached entry, recomputed row) for every arm of one run of
    a block, run in block order after checking the cached settings."""
    blk = block(block_name)
    config = block_config(block_name)
    realized = {"std": arm(blk, "std")["mean_samples"]}
    out = []
    for arm_index, arm_cfg in enumerate(config.arms):
        entry = blk["arms"][arm_index]
        resolved = _resolve_arm(config, arm_cfg, realized)
        assert entry["settings"] == resolved
        boot_reps = config.bootstrap_reps \
            if arm_cfg.name == config.table_arm else 0
        assert ("boot_std" in entry) == (boot_reps > 0)
        row = run_row(config.model, resolved, config.seed, arm_index,
                      run_index, config.estimators, boot_reps)
        out.append((arm_cfg.name, entry, row))
    return out


# a bit-exact replay starts from empty model caches and runs the arms in
# block order, as a block build does
@pytest.mark.usefixtures("fresh_model_caches")
class TestCacheReplay:
    @pytest.mark.parametrize("block_name,run_index",
                             [("c4", 0), ("c4", 7), ("c3_d2", 3), ("c5", 0)])
    def test_committed_rows_reproduce(self, block_name, run_index):
        for name, entry, row in replayed_rows(block_name, run_index):
            assert row["n"] == entry["n_samples"][run_index]
            for column, cached in (("est", "estimates"),
                                   ("boot_std", "boot_std"),
                                   ("cred_upper95", "cred_upper95")):
                if column in row:
                    assert row[column] == [entry[cached][k][run_index]
                                           for k in EST_KEYS], \
                        (name, column)

    @pytest.mark.parametrize("block_name", ["c1", "c7"])
    def test_algorithm1_arms_reproduce(self, block_name):
        # run 0 of c1 runs Algorithm 1 at G = 0, 0.25 and 1, that of c7 the
        # tuned variant.  The sample count and ln Z follow every scheduler
        # decision and replay bit for bit.  The cached theta1 and radius
        # columns of these two blocks differ in their last bits from what
        # the per-run code computes (mean_theta1 of c1's std run is
        # 0.008077023807044373 against a cached 0.008077023807044378), so
        # those are compared to 1e-12.
        lz = EST_KEYS.index("log_z")
        for name, entry, row in replayed_rows(block_name, 0):
            assert row["n"] == entry["n_samples"][0], name
            cached = [entry["estimates"][k][0] for k in EST_KEYS]
            assert row["est"][lz] == cached[lz], name
            assert row["est"] == pytest.approx(cached, rel=1e-12, abs=1e-14), \
                name
