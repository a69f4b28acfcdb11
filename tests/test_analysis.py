import dataclasses
import hashlib
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from varlive.analysis import (
    LOG_Z,
    MAX_DEGENERATE_REDRAWS,
    MEAN_RADIUS,
    MEAN_THETA1,
    MEDIAN_THETA1,
    EstimatorId,
    bootstrap_replicates,
    bootstrap_resample,
    efficiency_gain,
    estimate,
    estimates,
    estimator_from_key,
    information_content,
    jackknife_std_sigma,
    weighted_quantile,
)
from varlive import analysis, runs
from varlive.dynamic import (AlgorithmOneConfig, AlgorithmTwoConfig,
                             GoalConfig, dynamic_run_algorithm1,
                             dynamic_run_algorithm2)
from varlive.experiments import _bootstrap_columns
from varlive.models import ModelSpec, analytic_log_evidence
from varlive.runs import (
    NestedRun,
    RunProvenance,
    combine_runs,
    combine_threads,
    live_point_counts,
    point_log_weights,
    split_into_threads,
)
from varlive.sampler import SamplerConfig, standard_run

M3 = ModelSpec(family="gaussian", d=3, sigma_pi=10.0)


def chain_run(log_l, theta1=None, model=M3):
    log_l = np.asarray(log_l, dtype=float)
    n = log_l.size
    birth = np.concatenate([[-np.inf], log_l[:-1]])
    t1 = np.zeros(n) if theta1 is None else np.asarray(theta1, dtype=float)
    return NestedRun(model, log_l, birth, t1, np.abs(t1) + 1.0,
                     np.full(n, -np.inf), np.zeros(n, dtype=np.int64))


def run_with_posterior(p, theta1=None):
    """Single-thread run whose posterior weights equal p exactly.

    Requires p_i e^i increasing so the synthesized contours stay sorted.
    """
    p = np.asarray(p, dtype=float)
    shell = chain_run(np.arange(p.size, dtype=float))
    log_w = point_log_weights(shell)
    log_l = np.log(p) - log_w
    assert np.all(np.diff(log_l) > 0)
    return chain_run(log_l, theta1=theta1)


class TestEstimatorId:
    def test_keys_round_trip(self):
        for key in ("log_z", "mean_radius", "credible_theta1:0.84"):
            assert estimator_from_key(key).key == key

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorId("nope")
        with pytest.raises(ValueError):
            EstimatorId("credible_theta1")
        with pytest.raises(ValueError):
            EstimatorId("credible_theta1", 1.2)
        with pytest.raises(ValueError):
            EstimatorId("log_z", 0.5)


class TestLogEvidence:
    def test_single_point_boundary_convention(self):
        run = chain_run([3.7])
        assert estimate(run, LOG_Z) == pytest.approx(
            math.log(0.5) + 3.7, abs=1e-14)

    def test_combine_order_invariance(self):
        a = standard_run(M3, SamplerConfig(n_live=10), 1)
        b = standard_run(M3, SamplerConfig(n_live=7), 2)
        ab = estimate(combine_runs([a, b]), LOG_Z)
        ba = estimate(combine_runs([b, a]), LOG_Z)
        assert ab == ba

    def test_mean_over_ensemble_near_truth(self):
        # smoke-level version of the ensemble bias check
        vals = [estimate(
            standard_run(M3, SamplerConfig(n_live=100, keep_final_live=False),
                         60000 + s), LOG_Z)
                for s in range(60)]
        truth = analytic_log_evidence(M3)
        assert truth == pytest.approx(-9.6797, abs=5e-4)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - truth) < max(0.06, 4 * se)

    def test_empty_rejected(self):
        empty = NestedRun(M3, np.empty(0), np.empty(0), np.empty(0),
                          np.empty(0), np.empty(0),
                          np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            estimate(empty, LOG_Z)


class TestWeightedQuantile:
    def test_equal_weights_median_of_three(self):
        assert weighted_quantile([1.0, 2.0, 3.0], [1, 1, 1], 0.5) == 2.0

    def test_matches_ordinary_quantile_small_n(self):
        rng = np.random.default_rng(5)
        for n in range(1, 21):
            v = rng.normal(size=n)
            w = np.full(n, 1.0 / n)
            for q in (0.05, 0.25, 0.5, 0.75, 0.84, 0.95):
                mine = weighted_quantile(v, w, q)
                ref = float(np.quantile(v, q, method="hazen"))
                assert mine == pytest.approx(ref, abs=1e-12)

    def test_clamps_at_extremes(self):
        v = [1.0, 2.0]
        assert weighted_quantile(v, [1, 1], 0.01) == 1.0
        assert weighted_quantile(v, [1, 1], 0.99) == 2.0

    def test_heavy_weight_pulls_quantile(self):
        # midpoint positions 0.495 and 0.995: q=0.5 interpolates just past
        # the heavy value
        got = weighted_quantile([0.0, 10.0], [99.0, 1.0], 0.5)
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_quantile([1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            weighted_quantile([], [], 0.5)
        with pytest.raises(ValueError):
            weighted_quantile([1.0, 2.0], [1.0, -1.0], 0.5)

    @pytest.mark.parametrize("values,weights", [
        ([1.0, math.nan, 3.0], [1.0, 1.0, 1.0]),
        ([1.0, math.inf, 3.0], [1.0, 1.0, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, math.nan, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 1.0])])
    def test_non_finite_rejected(self, values, weights):
        # the equal-weight median of [1, nan, 3] used to read 3.0, and a NaN
        # weight gave nan
        with pytest.raises(ValueError, match="finite"):
            weighted_quantile(values, weights, 0.5)


class TestEstimate:
    def test_mean_and_median_hand_case(self):
        run = run_with_posterior([0.25, 0.5, 0.25], theta1=[1.0, 2.0, 3.0])
        assert estimate(run, MEAN_THETA1) == pytest.approx(2.0, abs=1e-12)
        assert estimate(run, MEDIAN_THETA1) == pytest.approx(2.0, abs=1e-12)

    def test_second_moment_and_radius(self):
        run = run_with_posterior([0.5, 0.5], theta1=[1.0, -3.0])
        sm = estimate(run, EstimatorId("second_moment_theta1"))
        assert sm == pytest.approx(5.0, abs=1e-12)
        assert estimate(run, MEAN_RADIUS) == pytest.approx(3.0, abs=1e-12)

    def test_credible_level_on_known_weights(self):
        run = run_with_posterior([0.25, 0.25, 0.25, 0.25],
                                 theta1=[0.0, 1.0, 2.0, 3.0])
        got = estimate(run, EstimatorId("credible_theta1", 0.84))
        ref = float(np.quantile([0.0, 1.0, 2.0, 3.0], 0.84, method="hazen"))
        assert got == pytest.approx(ref, abs=1e-12)

    def test_log_z_dispatch(self):
        # one thread: X = e^-1, e^-2; trapezium weights (1 - e^-2)/2, e^-1/2
        run = chain_run([1.0, 2.0])
        z = math.e * (1.0 - math.exp(-2.0)) / 2.0 + math.e / 2.0
        assert estimate(run, LOG_Z) == pytest.approx(math.log(z), abs=1e-14)


ALL_ESTIMATORS = tuple(estimator_from_key(k) for k in (
    "log_z", "mean_theta1", "median_theta1", "credible_theta1:0.84",
    "second_moment_theta1", "mean_radius", "median_radius"))


def _digest(values):
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


class TestEstimates:
    def test_matches_single_estimator_calls(self):
        run = standard_run(M3, SamplerConfig(n_live=20), 5)
        got = estimates(run, ALL_ESTIMATORS)
        assert got.tolist() == [estimate(run, e) for e in ALL_ESTIMATORS]
        assert estimates(run, ALL_ESTIMATORS[::-1]).tolist() == \
            got[::-1].tolist()

    def test_one_weight_pass(self, monkeypatch):
        calls = []
        weights = runs.point_log_weights

        def counted(run):
            calls.append(1)
            return weights(run)

        # posterior_weights looks the name up in runs
        monkeypatch.setattr(runs, "point_log_weights", counted)
        monkeypatch.setattr(analysis, "point_log_weights", counted)
        run = standard_run(M3, SamplerConfig(n_live=20), 5)
        estimates(run, ALL_ESTIMATORS)
        assert len(calls) == 1

    def test_one_sort_per_quantile_column(self, monkeypatch):
        # median_theta1 and credible_theta1 share the theta1 sort
        calls = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        run = standard_run(M3, SamplerConfig(n_live=20), 5)
        monkeypatch.setattr(np, "argsort", counted)
        estimates(run, ALL_ESTIMATORS)
        assert len(calls) == 2

    def test_zero_posterior_weights_rejected(self, monkeypatch):
        monkeypatch.setattr(analysis, "point_log_weights",
                            lambda run: np.full(len(run), -np.inf))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="all posterior weights"):
                estimates(chain_run([1.0, 2.0]), [LOG_Z, MEAN_THETA1])

    def test_pinned_digests(self, fresh_model_caches):
        # sha256 of the seven estimates, recorded before estimates() shared
        # one weight pass between them; an empty map cache fixes the
        # sampled bits (they depend on the deepest map built so far)
        std = standard_run(M3, SamplerConfig(n_live=30, keep_final_live=False),
                           2024)
        dyn = dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=1.0),
            AlgorithmOneConfig(n_init=10, sample_budget=1500, n_batch=5),
            rng=2024)
        expect = {
            "standard": "9a0ec624a5c45eedcc74789fd1fbb73a"
                        "cb4aa68ff91bdcf2a75f974fd470cc9a",
            "dyn1": "958c71fc4ea268295878eac02dbae2c7"
                    "476accaac6bf821a7075a05dc9a738b3",
        }
        for name, run in (("standard", std), ("dyn1", dyn)):
            assert _digest(estimates(run, ALL_ESTIMATORS)) == expect[name]


class TestInformationContent:
    def test_equal_weights_give_n(self):
        run = run_with_posterior(np.full(8, 0.125))
        assert information_content(run) == pytest.approx(8.0, rel=1e-12)

    def test_hand_entropy(self):
        run = run_with_posterior([0.5, 0.25, 0.25])
        assert information_content(run) == pytest.approx(2.0 ** 1.5,
                                                         rel=1e-12)

    def test_dominant_weight_approaches_one(self):
        run = run_with_posterior([1e-9, 1e-9, 1.0 - 2e-9])
        assert information_content(run) == pytest.approx(1.0, abs=1e-6)

    def test_bounds_on_sampled_runs(self):
        for s in range(5):
            run = standard_run(M3, SamplerConfig(n_live=20), 300 + s)
            h = information_content(run)
            assert 1.0 <= h <= len(run) + 1e-9


class TestBootstrapResample:
    def test_single_thread_identity(self):
        run = chain_run([0.5, 1.0, 2.0])
        out = bootstrap_resample(run, np.random.default_rng(0))
        assert np.array_equal(out.log_l, run.log_l)
        assert np.array_equal(live_point_counts(out),
                              live_point_counts(run))

    def test_thread_count_preserved_and_valid(self):
        run = standard_run(M3, SamplerConfig(n_live=12), 9)
        out = bootstrap_resample(run, np.random.default_rng(1))
        assert len(split_into_threads(out)) == len(split_into_threads(run))
        out.validate()

    def test_initial_class_sizes_preserved(self):
        dyn = dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=1.0),
            AlgorithmOneConfig(n_init=10, sample_budget=250, n_batch=4),
            rng=17)
        n_threads = len(split_into_threads(dyn))
        out = bootstrap_resample(dyn, np.random.default_rng(2))
        assert len(split_into_threads(out)) == n_threads
        assert len(out.provenance.init_thread_ids) == 10
        out.validate()

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_init=st.integers(2, 8),
           stratified=st.booleans())
    def test_replicate_keeps_thread_and_class_counts(self, seed, n_init,
                                                     stratified):
        dyn = dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=0.5),
            AlgorithmOneConfig(n_init=n_init, sample_budget=60 * n_init + 60,
                               n_batch=2), rng=seed)
        if not stratified:
            # a run whose provenance names no initial threads
            dyn = dyn.with_provenance(dataclasses.replace(
                dyn.provenance, init_thread_ids=None))
        out = bootstrap_resample(dyn, np.random.default_rng(seed))
        threads = split_into_threads(out)
        assert len(threads) == len(split_into_threads(dyn))
        if stratified:
            # every replicate thread is a copy from its own class
            def chains(run, in_class):
                ids = set(run.provenance.init_thread_ids)
                return {tuple(th.log_l) for th in split_into_threads(run)
                        if (th.thread_id in ids) == in_class}

            assert len(out.provenance.init_thread_ids) == n_init
            for in_class in (True, False):
                assert chains(out, in_class) <= chains(dyn, in_class)
        else:
            assert out.provenance.init_thread_ids is None
        out.validate()


RUN_FIELDS = ("log_l", "birth_log_l", "theta1", "radius", "true_log_x",
              "thread_id", "open_birth_log_l", "open_end_log_l",
              "open_thread_id")


def threaded_run(rng, n_threads, n_ghosts, censor):
    """Random chains under shuffled, gapped thread ids; with censor some
    threads stay open past their last point, and n_ghosts point-free
    censored threads are added.  Provenance marks a random subset of the
    threads initial."""
    labels = 3 * rng.permutation(n_threads + n_ghosts)
    log_l, birth, tid = [], [], []
    opens = []
    for t in labels[:n_threads].tolist():
        start = -np.inf if rng.random() < 0.7 else float(rng.uniform(-5.0, 0.0))
        lo = start if np.isfinite(start) else -4.0
        chain = np.sort(rng.uniform(lo + 1e-9, 10.0,
                                    size=int(rng.integers(1, 7)))).tolist()
        log_l += chain
        birth += [start] + chain[:-1]
        tid += [t] * len(chain)
        if censor and rng.random() < 0.4:
            opens.append((chain[-1], chain[-1] + float(rng.uniform(0.1, 3.0)), t))
    for t in labels[n_threads:].tolist():
        b = float(rng.uniform(-5.0, 5.0))
        opens.append((b, b + float(rng.uniform(0.1, 3.0)), t))
    ob, oe, ot = (list(col) for col in zip(*opens)) if opens else ([], [], [])
    init = tuple(t for t in labels.tolist() if rng.random() < 0.5)
    n = len(log_l)
    return NestedRun(M3, log_l, birth, np.linspace(-0.5, 0.5, n),
                     np.linspace(1.0, 2.0, n), np.linspace(-0.1, -1.0, n), tid,
                     open_birth_log_l=ob, open_end_log_l=oe, open_thread_id=ot,
                     provenance=RunProvenance(
                         algorithm="dynamic_alg2", seed=5, n_init=4,
                         goal_g=0.25, sample_budget=300,
                         importance_variant="exact", init_thread_ids=init))


class TestBootstrapGather:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_threads=st.integers(0, 15),
           n_ghosts=st.integers(0, 4), censor=st.booleans(),
           stratified=st.booleans())
    def test_equals_combined_picked_threads(self, seed, n_threads, n_ghosts,
                                            censor, stratified):
        run = threaded_run(np.random.default_rng(seed), n_threads, n_ghosts,
                           censor)
        if not stratified:
            run = run.with_provenance(dataclasses.replace(
                run.provenance, init_thread_ids=None))
        out = bootstrap_resample(run, np.random.default_rng(seed))
        # replay the picks: one draw per nonempty class, initial class first
        threads = split_into_threads(run)
        if stratified:
            init = set(run.provenance.init_thread_ids)
            classes = [[th for th in threads if th.thread_id in init],
                       [th for th in threads if th.thread_id not in init]]
        else:
            classes = [threads]
        rng = np.random.default_rng(seed)
        picked = [cls[p] for cls in classes if cls
                  for p in rng.integers(0, len(cls), size=len(cls))]
        expect = combine_threads(run.model, picked)
        for field in RUN_FIELDS:
            got, want = getattr(out, field), getattr(expect, field)
            assert got.dtype == want.dtype, field
            np.testing.assert_array_equal(got, want, err_msg=field)
        prov = run.provenance
        assert out.provenance == RunProvenance(
            algorithm="bootstrap", n_init=prov.n_init, goal_g=prov.goal_g,
            sample_budget=prov.sample_budget,
            importance_variant=prov.importance_variant,
            init_thread_ids=tuple(range(len(classes[0]))) if stratified
            else None)

    def test_pinned_stratified_replicate(self, fresh_model_caches):
        # sha256 over every array and the provenance of one stratified
        # replicate of a censored Algorithm 2 run, recorded while the
        # bootstrap still split the run into Thread objects; an empty map
        # cache fixes the sampled bits
        dyn = dynamic_run_algorithm2(
            M3, GoalConfig(goal_g=0.5),
            AlgorithmTwoConfig(n_init=10, total_budget=800), rng=2024)
        assert dyn.n_open > 0
        out = bootstrap_resample(dyn, np.random.default_rng(5))
        h = hashlib.sha256()
        for field in RUN_FIELDS:
            h.update(getattr(out, field).tobytes())
        h.update(json.dumps(out.provenance.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == ("4f044531820ca10aa8c88ad892a57310"
                                 "e52e9c2b057b28e869c007d616ff533d")


class TestBootstrapError:
    # the per-run error columns of bootstrap-table and the cache blocks
    def test_replicate_count_and_degenerate_std(self):
        run = chain_run([0.5, 1.0, 2.0])  # one thread: every replicate equal
        reps = bootstrap_replicates(run, [LOG_Z], 16, np.random.default_rng(3))
        assert reps.shape == (16, 1)
        assert _bootstrap_columns(run, [LOG_Z], 16, 3)[0][0] == 0.0

    def test_std_positive_for_multithread(self):
        run = standard_run(M3, SamplerConfig(n_live=15), 21)
        std, cred95 = _bootstrap_columns(run, [LOG_Z], 25, 4, 0)
        # the replicates come from the stream (seed, (2, *key))
        reps = bootstrap_replicates(run, [LOG_Z], 25, np.random.default_rng(
            np.random.SeedSequence(4, spawn_key=(2, 0))))
        assert std[0] > 0.0
        assert reps.min() <= cred95[0] <= reps.max()

    def test_rejects_tiny_rep_count(self):
        run = chain_run([0.5])
        with pytest.raises(ValueError, match="at least 2 replications"):
            bootstrap_replicates(run, [LOG_Z], 1, np.random.default_rng(0))


class TestEfficiencyGain:
    def test_variance_ratio_hand_case(self):
        g = efficiency_gain([-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0], 100.0, 100.0,
                            rng=np.random.default_rng(0))
        assert g.gain == pytest.approx(4.0, abs=1e-12)
        assert g.sigma >= 0.0

    def test_sample_count_factor(self):
        g = efficiency_gain([-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0],
                            10_000.0, 5_000.0, rng=np.random.default_rng(0))
        assert g.gain == pytest.approx(8.0, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        base = efficiency_gain(a, b, 1.0, 1.0, n_boot=10,
                               rng=np.random.default_rng(0)).gain
        up = efficiency_gain(3.0 * a, b, 1.0, 1.0, n_boot=10,
                             rng=np.random.default_rng(0)).gain
        down = efficiency_gain(a, 3.0 * b, 1.0, 1.0, n_boot=10,
                               rng=np.random.default_rng(0)).gain
        assert up == pytest.approx(9.0 * base, rel=1e-12)
        assert down == pytest.approx(base / 9.0, rel=1e-12)

    @pytest.mark.parametrize("n_boot", [1, 0, -3])
    def test_too_few_replicates_rejected(self, n_boot):
        # one replicate (or none) used to give sigma nan and a RuntimeWarning
        with pytest.raises(ValueError, match="n_boot must be >= 2"):
            efficiency_gain([1.0, 2.0, 4.0], [3.0, 5.0, 6.0], 1.0, 1.0,
                            n_boot=n_boot, rng=np.random.default_rng(0))

    def test_zero_dynamic_variance_rejected(self):
        with pytest.raises(ValueError):
            efficiency_gain([1.0, 2.0], [3.0, 3.0], 1.0, 1.0,
                            rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arm", [0, 1])
    def test_non_finite_result_rejected(self, bad, arm):
        # a NaN in either arm used to give GainEstimate(nan, nan)
        arms = [[1.0, 2.0, 4.0], [3.0, 5.0, 6.0]]
        arms[arm][1] = bad
        with pytest.raises(ValueError, match="finite"):
            efficiency_gain(*arms, 1.0, 1.0, n_boot=10,
                            rng=np.random.default_rng(0))

    def test_rng_is_a_required_keyword(self):
        # an omitted rng used to seed 0 silently, where None means fresh
        # entropy everywhere else in the package
        with pytest.raises(TypeError, match="rng"):
            efficiency_gain([-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0], 1.0, 1.0)
        with pytest.raises(TypeError):
            efficiency_gain([-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0], 1.0, 1.0, 10,
                            np.random.default_rng(0))

    def test_degenerate_redraws_bounded(self):
        class FirstPick:  # every resample repeats the first result
            bit_generator = types.SimpleNamespace(state=None)

            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

        with pytest.raises(RuntimeError,
                           match=f"{MAX_DEGENERATE_REDRAWS} redraws"):
            efficiency_gain([1.0, 2.0], [3.0, 4.0], 1.0, 1.0, n_boot=2,
                            rng=FirstPick())

    def test_sigma_tracks_spread(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        g = efficiency_gain(a, b, 1.0, 1.0, n_boot=400,
                            rng=np.random.default_rng(8))
        # variance-ratio sampling error ~ sqrt(2/n_a + 2/n_b) relative
        assert 0.05 < g.sigma / g.gain < 0.35

    def test_equal_arms_draw_one_block(self):
        class Counted:
            def __init__(self, rng):
                self.rng = rng
                self.bit_generator = rng.bit_generator
                self.calls = 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

        data = np.random.default_rng(9)
        rng = Counted(np.random.default_rng(10))
        efficiency_gain(data.normal(size=16), data.normal(size=16), 1.0, 1.0,
                        n_boot=300, rng=rng)
        assert rng.calls == 1

    @settings(deadline=None)
    @given(n_std=st.integers(2, 64), n_dyn=st.integers(2, 64),
           same_size=st.booleans(), n_boot=st.integers(2, 200),
           ties=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           factor=st.floats(0.1, 10.0))
    def test_equals_per_replicate_loop(self, n_std, n_dyn, same_size, n_boot,
                                       ties, seed, factor):
        # the same gain, sigma and generator state as the loop it replaced,
        # whether the arms share a size or not and whether the dynamic arm
        # has ties that make some of its resamples degenerate
        data = np.random.default_rng(seed)
        if same_size:
            n_dyn = n_std
        a = data.normal(size=n_std)
        b = data.normal(size=n_dyn)
        if ties:  # one outlier: a resample misses it with chance >= 1/4
            b = np.zeros(n_dyn)
            b[data.integers(0, n_dyn)] = 1.0
        got_rng = np.random.default_rng(seed + 1)
        ref_rng = np.random.default_rng(seed + 1)
        got = efficiency_gain(a, b, factor, 1.0, n_boot=n_boot, rng=got_rng)
        ref = reference_efficiency_gain(a, b, factor, 1.0, n_boot=n_boot,
                                        rng=ref_rng)
        assert got.gain == ref.gain
        assert got.sigma == ref.sigma
        assert got_rng.integers(0, 2 ** 63) == ref_rng.integers(0, 2 ** 63)


def reference_efficiency_gain(std_results, dyn_results, mean_samples_std,
                              mean_samples_dyn, n_boot=1000, rng=None):
    """efficiency_gain as a loop of one replicate after another, each
    redrawing the dynamic arm while its variance is zero."""
    a = np.asarray(std_results, dtype=float)
    b = np.asarray(dyn_results, dtype=float)
    factor = mean_samples_std / mean_samples_dyn
    gain = (float(np.var(a, ddof=1)) / float(np.var(b, ddof=1))) * factor
    if rng is None:
        rng = np.random.default_rng(0)
    reps = np.empty(n_boot)
    for i in range(n_boot):
        ra = a[rng.integers(0, a.size, size=a.size)]
        for _ in range(MAX_DEGENERATE_REDRAWS):
            vb = np.var(b[rng.integers(0, b.size, size=b.size)], ddof=1)
            if vb != 0.0:
                break
        else:
            raise RuntimeError("degenerate dynamic arm")
        reps[i] = (np.var(ra, ddof=1) / vb) * factor
    return analysis.GainEstimate(gain=gain,
                                 sigma=float(np.std(reps, ddof=1)))


class TestJackknife:
    def test_matches_direct_formula(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        loo = [np.std(np.delete(x, i), ddof=1) for i in range(5)]
        expect = math.sqrt(4 / 5 * sum((s - np.mean(loo)) ** 2 for s in loo))
        assert jackknife_std_sigma(x) == pytest.approx(expect, rel=1e-12)

    def test_small_samples_give_nan(self):
        assert math.isnan(jackknife_std_sigma([1.0, 2.0]))

    @pytest.mark.parametrize("n", [3, 4, 17, 64, 333])
    def test_equals_leave_one_out_loop(self, n):
        x = np.random.default_rng(n).normal(size=n)
        loo = np.array([np.std(np.delete(x, i), ddof=1) for i in range(n)])
        expect = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
        assert jackknife_std_sigma(x) == expect
