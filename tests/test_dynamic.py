import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.signal import savgol_filter
from scipy.stats import spearmanr

from reference import (
    argmax_log_x_relative_posterior_mass,
    log_prior_volumes,
    posterior_weights,
    reg_lower_inc_gamma,
)
from varlive.dynamic import (
    AlgorithmOneConfig,
    AlgorithmTwoConfig,
    GoalConfig,
    algorithm2_allocation,
    combined_importance,
    dynamic_run_algorithm1,
    dynamic_run_algorithm2,
    savitzky_golay_smooth,
)
from varlive import dynamic, runs
from varlive.models import ModelSpec, radius_from_log_x
from varlive.runs import (
    NestedRun,
    live_point_counts,
    point_log_weights,
)
from varlive.sampler import SamplerConfig, standard_run

M2 = ModelSpec(family="gaussian", d=2, sigma_pi=10.0)
M3 = ModelSpec(family="gaussian", d=3, sigma_pi=10.0)
M10 = ModelSpec(family="gaussian", d=10, sigma_pi=10.0)


def chain_run(log_l, theta1=None, model=M3):
    """Single-thread run with the given dead-point contours."""
    log_l = np.asarray(log_l, dtype=float)
    n = log_l.size
    birth = np.concatenate([[-np.inf], log_l[:-1]])
    t1 = np.zeros(n) if theta1 is None else np.asarray(theta1, dtype=float)
    return NestedRun(model, log_l, birth, t1, np.abs(t1) + 1.0,
                     np.full(n, -np.inf), np.zeros(n, dtype=np.int64))


def censored_standard(m, n_live, seed):
    cfg = SamplerConfig(n_live=n_live, keep_final_live=False)
    return standard_run(m, cfg, seed)


EVIDENCE = GoalConfig(goal_g=0.0)
TUNED = GoalConfig(goal_g=1.0, importance_variant="tuned")


class TestEvidenceImportance:
    def test_two_equal_weight_points(self):
        # second contour chosen so L1 w1 == L2 w2 under unit live count
        run = chain_run([0.0, math.log(math.e - 1.0 / math.e)])
        assert_allclose(combined_importance(run, EVIDENCE), [2 / 3, 1 / 3],
                        rtol=0, atol=1e-12)

    def test_single_point_is_one(self):
        assert_allclose(combined_importance(chain_run([1.0]), EVIDENCE), [1.0])

    def test_matches_brute_force_tail_sums(self):
        # retained final live points give a varying count profile
        run = standard_run(M3, SamplerConfig(n_live=25), 88)
        lw = np.exp(run.log_l + point_log_weights(run))
        counts = live_point_counts(run)
        tail = np.array([lw[i:].sum() for i in range(len(run))])
        expect = (tail / counts) / (tail / counts).sum()
        assert_allclose(combined_importance(run, EVIDENCE), expect,
                        rtol=1e-10)
        # uniform rescaling of the count divisor cancels in normalization
        halved = (tail / (2.0 * counts)) / (tail / (2.0 * counts)).sum()
        assert_allclose(expect, halved, rtol=1e-13)

    def test_empty_run_rejected(self):
        empty = NestedRun(M3, np.empty(0), np.empty(0), np.empty(0),
                          np.empty(0), np.empty(0),
                          np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            combined_importance(empty, EVIDENCE)


class TestParamImportance:
    def test_equals_posterior_weights(self):
        run = censored_standard(M3, 40, seed=7)
        assert np.array_equal(combined_importance(run, GoalConfig(goal_g=1.0)),
                              posterior_weights(run))

    def test_tuned_symmetric_pair(self):
        run = chain_run([0.0, math.log(math.e - 1.0 / math.e)],
                        theta1=[0.4, -0.4])
        assert_allclose(combined_importance(run, TUNED), [0.5, 0.5],
                        rtol=0, atol=1e-12)

    def test_tuned_degenerate_rejected(self):
        # every value at the mean gives no tuned profile, and
        # combined_importance keeps the posterior weights (see
        # test_tuned_variant_with_fallback)
        lw = np.log([0.2, 0.3, 0.5])
        assert dynamic._tuned(lw, np.full(3, 0.3), 0.3) is None
        assert dynamic._tuned(lw, np.array([0.3, 0.3, 0.5]), 0.3) is not None


class TestCombinedImportance:
    def test_endpoints_reduce_exactly(self):
        # G = 0 gives the evidence term alone and G = 1 the posterior
        # weights, bit for bit: no endpoint mixes in a zero-weight term
        run = censored_standard(M2, 30, seed=3)
        counts = live_point_counts(run)
        lw = point_log_weights(run) + run.log_l
        assert np.array_equal(combined_importance(run, EVIDENCE),
                              dynamic._evidence(counts, lw))
        assert np.array_equal(combined_importance(run, GoalConfig(goal_g=1.0)),
                              posterior_weights(run))

    def test_mixture_normalized_and_linear(self):
        run = censored_standard(M2, 30, seed=3)
        prof = combined_importance(run, GoalConfig(goal_g=0.25))
        assert prof.sum() == pytest.approx(1.0, abs=1e-12)
        assert_allclose(prof,
                        0.75 * combined_importance(run, EVIDENCE)
                        + 0.25 * posterior_weights(run),
                        rtol=1e-12)

    def test_tuned_variant_with_fallback(self):
        flat = chain_run([0.0, 0.5, 1.0], theta1=[0.2, 0.2, 0.2])
        prof = combined_importance(
            flat, GoalConfig(goal_g=1.0, importance_variant="tuned"))
        assert_allclose(prof, posterior_weights(flat))

    def test_tuned_variant_formula(self):
        run = censored_standard(M2, 25, seed=11)
        p = posterior_weights(run)
        mean = np.sum(p * run.theta1)
        expect = np.abs(run.theta1 - mean) * p
        assert_allclose(combined_importance(run, TUNED), expect / expect.sum(),
                        rtol=1e-12)

    def test_parameter_goal_makes_one_count_pass(self, monkeypatch):
        calls = []
        counts = runs.live_point_counts

        def counted(run):
            calls.append(1)
            return counts(run)

        monkeypatch.setattr(runs, "live_point_counts", counted)
        monkeypatch.setattr(dynamic, "live_point_counts", counted)
        run = censored_standard(M2, 30, seed=3)
        # every goal and variant shares one count and weight pass
        for g in (0.0, 0.25, 1.0):
            for variant in ("standard", "tuned"):
                calls.clear()
                combined_importance(run, GoalConfig(
                    goal_g=g, importance_variant=variant))
                assert len(calls) == 1, (g, variant)

    def test_pinned_digests(self, fresh_model_caches):
        # sha256 over the importance of a censored standard run followed by
        # that of an Algorithm 1 run, recorded before a zero-weight term
        # stopped being computed; an empty map cache fixes the sampled bits
        std = censored_standard(M3, 30, seed=2024)
        dyn = dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=1.0),
            AlgorithmOneConfig(n_init=10, sample_budget=1500, n_batch=5),
            rng=2024)
        expect = {
            (0.0, "standard"): "657adf1d5d4b2121ba095bf7ecdd2975"
                               "40f29d95a59537794f02f1263d19b6eb",
            (0.0, "tuned"): "657adf1d5d4b2121ba095bf7ecdd2975"
                            "40f29d95a59537794f02f1263d19b6eb",
            (0.25, "standard"): "10997b947987001fd13fb6a2fdea335b"
                                "4fcd6fd1bd532b6770c27fd54ee64f42",
            (0.25, "tuned"): "f0358b9c88d1625d2e3d56a7ab87c8e7"
                             "cb25c250154cb1abef3d799ab8eec80f",
            (1.0, "standard"): "a19d072ebbb0c8f8d365e0e5d14e8e0f"
                               "e9d7fac3cefa9d8bbbcb322dfeff1247",
            (1.0, "tuned"): "bc6f9100835bfb96353cf8c2ca8013ef"
                            "7f9015ab5a94e52c981f16197a777f15",
        }
        for (g, variant), digest in expect.items():
            goal = GoalConfig(goal_g=g, importance_variant=variant)
            prof = np.concatenate([combined_importance(std, goal),
                                   combined_importance(dyn, goal)])
            assert hashlib.sha256(prof.tobytes()).hexdigest() == digest, \
                (g, variant)

    def test_goal_validation(self):
        with pytest.raises(ValueError):
            GoalConfig(goal_g=1.5)
        for variant in ("bogus", "exact"):
            with pytest.raises(ValueError):
                GoalConfig(goal_g=0.5, importance_variant=variant)


class TestAlgorithmOne:
    def test_budget_at_initial_run_is_identity(self):
        std = standard_run(M2, SamplerConfig(n_live=15), 77)
        dyn = dynamic_run_algorithm1(
            M2, GoalConfig(goal_g=0.5),
            AlgorithmOneConfig(n_init=15, sample_budget=len(std)), rng=77)
        assert np.array_equal(dyn.log_l, std.log_l)
        assert np.array_equal(dyn.true_log_x, std.true_log_x)
        prov = dyn.provenance
        assert prov.algorithm == "dynamic_alg1"
        assert prov.n_init == 15 and prov.goal_g == 0.5
        assert prov.sample_budget == len(std)
        assert prov.importance_variant == "standard"
        assert prov.init_thread_ids == tuple(range(15))
        assert prov.seed == 77

    def test_meets_budget_and_validates(self):
        std = standard_run(M3, SamplerConfig(n_live=20), 5)
        budget = len(std) + 200
        dyn = dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=1.0),
            AlgorithmOneConfig(n_init=20, sample_budget=budget, n_batch=5),
            rng=5)
        assert len(dyn) >= budget
        dyn.validate()
        assert dyn.provenance.init_thread_ids == tuple(range(20))
        # merged run really holds more live points somewhere
        assert live_point_counts(dyn).max() > 20

    @pytest.mark.parametrize("seed,d,g,variant,n_init,n_batch", [
        (0, 1, 0.0, "standard", 3, 1),
        (1, 2, 0.4, "standard", 8, 4),
        (2, 5, 1.0, "tuned", 5, 2),
        (3, 2, 1.0, "standard", 8, 1),
        (4, 1, 0.0, "tuned", 5, 4),
        (5, 5, 0.4, "tuned", 3, 2),
    ])
    def test_random_configs_produce_valid_runs(self, seed, d, g, variant,
                                               n_init, n_batch):
        m = ModelSpec(family="gaussian", d=d, sigma_pi=10.0)
        budget = 150 + 30 * seed
        dyn = dynamic_run_algorithm1(
            m, GoalConfig(goal_g=g, importance_variant=variant),
            AlgorithmOneConfig(n_init=n_init, sample_budget=budget,
                               n_batch=n_batch), rng=seed)
        assert len(dyn) >= budget
        dyn.validate()

    @pytest.mark.parametrize("goal_g,variant,digest", [
        (0.0, "standard",
         "52acbff673c5f13a4a23a8ed2572ec7c5b71f6559a0cdf37747d62a4518be190"),
        (0.0, "tuned",
         "f07fdf8445b3c721e9b79856e81d2e0076a75a5b798923589c80b0116bfbb8ba"),
        (0.25, "standard",
         "e3225b38847d7f9387f4d355098598ca7d483ca66af078f6a2933a7285ec894b"),
        (0.25, "tuned",
         "5db2b03e2be1367dcbe82a4b518b681983adbb949d944265130bad30c8c4dc0d"),
        (1.0, "standard",
         "ea6cdc4eef9637e9d1a209775f2bf53b9d52b35910a1b3250059c4584aef78fd"),
        (1.0, "tuned",
         "bba6cdabbd1811efb10bc9856d70aca01930764774db0f51d46350e99937baf0"),
    ])
    def test_seeded_run_pinned(self, fresh_model_caches, goal_g, variant,
                               digest):
        # recorded before region ends were converted in Python floats and
        # merges stopped lexsorting; replay from an empty map cache
        run = dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=goal_g, importance_variant=variant),
            AlgorithmOneConfig(n_init=10, sample_budget=1500, n_batch=5),
            rng=1704)
        assert run_digest(run) == digest

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
           g=st.sampled_from([0.0, 0.25, 1.0]),
           variant=st.sampled_from(["standard", "tuned"]),
           n_init=st.integers(2, 8), n_batch=st.integers(1, 6),
           budget=st.integers(1, 400))
    def test_ends_within_one_batch_of_budget(self, seed, d, g, variant,
                                             n_init, n_batch, budget):
        m = ModelSpec(family="gaussian", d=d, sigma_pi=10.0)
        run = dynamic_run_algorithm1(
            m, GoalConfig(goal_g=g, importance_variant=variant),
            AlgorithmOneConfig(n_init=n_init, sample_budget=budget,
                               n_batch=n_batch), rng=seed)
        assert len(run) >= budget
        # every batch thread holds a point and each merge relabels the batch
        # above every earlier id, so the last batch is the top n_batch ids
        n_threads = int(run.thread_id.max()) + 1
        batches, rest = divmod(n_threads - n_init, n_batch)
        assert rest == 0 and batches >= 0
        if batches:
            last = np.count_nonzero(run.thread_id >= n_threads - n_batch)
            assert len(run) - last < budget

    def _mean_count_profile(self, runs, grid):
        prof = np.zeros((len(runs), grid.size))
        for i, run in enumerate(runs):
            counts = live_point_counts(run)
            vols = log_prior_volumes(run)
            idx = np.clip(np.searchsorted(-vols, -grid), 0, counts.size - 1)
            prof[i] = counts[idx]
        return prof.mean(axis=0)

    def test_parameter_goal_concentrates_at_posterior_bulk(self):
        peak = argmax_log_x_relative_posterior_mass(M3)
        runs = [dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=1.0),
            AlgorithmOneConfig(n_init=20, sample_budget=1600, n_batch=8),
            rng=200 + s) for s in range(4)]
        grid = np.linspace(peak - 5.0, peak + 5.0, 81)
        mean_prof = self._mean_count_profile(runs, grid)
        assert abs(grid[np.argmax(mean_prof)] - peak) <= 2.0
        assert mean_prof.max() > 3 * 20

    def test_evidence_goal_tracks_remaining_mass(self):
        peak = argmax_log_x_relative_posterior_mass(M3)
        runs = [dynamic_run_algorithm1(
            M3, GoalConfig(goal_g=0.0),
            AlgorithmOneConfig(n_init=20, sample_budget=1600, n_batch=8),
            rng=300 + s) for s in range(5)]
        grid = np.linspace(peak, peak - 3.0, 20)  # deeper than the bulk
        mean_prof = self._mean_count_profile(runs, grid)
        sigma_post = math.sqrt(100.0 / 101.0)
        r = radius_from_log_x(M3, grid)
        remaining = reg_lower_inc_gamma(1.5, r * r / (2.0 * sigma_post ** 2))
        rho = spearmanr(mean_prof, remaining).statistic
        assert rho > 0.9


class TestSavitzkyGolay:
    def test_cubic_reproduced_exactly(self):
        t = np.linspace(-2.0, 3.0, 50)
        y = 0.3 * t ** 3 - t ** 2 + 2.0 * t - 5.0
        assert_allclose(savitzky_golay_smooth(y, 7, 3), y, atol=1e-10)

    def test_constant_unchanged(self):
        y = np.full(30, 2.5)
        assert_allclose(savitzky_golay_smooth(y, 5, 1), y, atol=1e-14)

    def test_step_midpoints_are_local_means(self):
        y = np.array([0.0] * 5 + [1.0] * 5)
        sm = savitzky_golay_smooth(y, 5, 1)
        assert sm[3] == pytest.approx(0.2)  # window holds one raised value
        assert sm[4] == pytest.approx(0.4)
        assert sm[5] == pytest.approx(0.6)

    def test_short_input_passes_through(self):
        y = np.array([1.0, 4.0, 9.0])
        assert_allclose(savitzky_golay_smooth(y, 5, 2), y)

    def test_window_validation(self):
        y = np.zeros(10)
        with pytest.raises(ValueError):
            savitzky_golay_smooth(y, 4, 1)
        with pytest.raises(ValueError):
            savitzky_golay_smooth(y, 5, 5)

    def test_interior_matches_scipy(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=60)
        mine = savitzky_golay_smooth(y, 9, 2)
        ref = savgol_filter(y, 9, 2)
        assert_allclose(mine[4:-4], ref[4:-4], atol=1e-12)


def run_digest(run):
    """sha256 over a run's point arrays, open intervals and provenance."""
    h = hashlib.sha256()
    for field in ("log_l", "birth_log_l", "theta1", "radius", "true_log_x",
                  "thread_id", "open_birth_log_l", "open_end_log_l",
                  "open_thread_id"):
        h.update(np.ascontiguousarray(getattr(run, field)).tobytes())
    h.update(json.dumps(run.provenance.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


class TestAlgorithmTwo:
    @pytest.mark.parametrize("goal_g,digest", [
        (0.0, "2ed6fb995e2058ae41997ac92a95a3016f963a2b85eeffefa697ace0e963a751"),
        (1.0, "678fc67a013ee9ae335e6a4c37e3a104e1fc0e3ab64f02ac1fddff670bdc8e5e"),
    ])
    def test_seeded_run_pinned(self, fresh_model_caches, goal_g, digest):
        # sampled bits depend in their last digits on the contour maps the
        # process built before, so replay from an empty map cache
        run = dynamic_run_algorithm2(
            M3, GoalConfig(goal_g=goal_g),
            AlgorithmTwoConfig(n_init=5, total_budget=2000), rng=2017)
        assert run_digest(run) == digest

    def test_budget_at_initial_run_is_identity(self):
        std = censored_standard(M2, 10, seed=321)
        dyn = dynamic_run_algorithm2(
            M2, GoalConfig(goal_g=0.0),
            AlgorithmTwoConfig(n_init=10, total_budget=len(std)), rng=321)
        assert np.array_equal(dyn.log_l, std.log_l)
        assert dyn.provenance.algorithm == "dynamic_alg2"
        assert dyn.provenance.init_thread_ids == tuple(range(10))

    def test_infeasible_budget_rejected(self):
        std = censored_standard(M2, 10, seed=321)
        with pytest.raises(ValueError):
            dynamic_run_algorithm2(
                M2, GoalConfig(goal_g=0.0),
                AlgorithmTwoConfig(n_init=10, total_budget=len(std) - 5),
                rng=321)

    def test_config_validation(self):
        # the smoothing window 2 n_init + 1 must be longer than the cubic
        for n_init in (0, 1):
            with pytest.raises(ValueError, match="n_init must be >= 2"):
                AlgorithmTwoConfig(n_init=n_init, total_budget=100)
        assert AlgorithmTwoConfig(n_init=2, total_budget=100).n_init == 2
        with pytest.raises(ValueError, match="total_budget"):
            AlgorithmTwoConfig(n_init=10, total_budget=0)

    def test_realized_counts_match_allocation(self):
        goal = GoalConfig(goal_g=0.5)
        init = censored_standard(M3, 15, seed=99)
        cfg = AlgorithmTwoConfig(n_init=15, total_budget=len(init) + 900)
        extra = algorithm2_allocation(init, goal, cfg)
        assert extra.sum() > 0
        dyn = dynamic_run_algorithm2(M3, goal, cfg, rng=99)
        dyn.validate()
        counts = live_point_counts(dyn)
        idx = np.searchsorted(dyn.log_l, init.log_l)
        assert np.array_equal(dyn.log_l[idx], init.log_l)
        dev = counts[idx] - (15 + extra)
        assert np.max(np.abs(dev)) <= 1

    def test_allocation_cost_near_target(self):
        goal = GoalConfig(goal_g=1.0)
        init = censored_standard(M10, 20, seed=14)
        cfg = AlgorithmTwoConfig(n_init=20, total_budget=len(init) + 1500)
        extra = algorithm2_allocation(init, goal, cfg)
        assert extra.min() >= 0
        assert extra.sum() / 20 == pytest.approx(1500, rel=0.05)

    def test_realized_totals_near_budget(self):
        # supplement threads share the initial run's ln X gaps, so totals
        # carry a correlated ~6% scatter; the mean must land on budget
        budget = 2500
        totals = []
        for s in range(20):
            dyn = dynamic_run_algorithm2(
                M10, GoalConfig(goal_g=1.0),
                AlgorithmTwoConfig(n_init=20, total_budget=budget),
                rng=4000 + s)
            totals.append(len(dyn))
            assert abs(len(dyn) - budget) <= 0.25 * budget
        assert abs(np.mean(totals) - budget) <= 0.1 * budget
        dyn.validate()


@pytest.mark.parametrize("scheduler, cfg", [
    (dynamic_run_algorithm1,
     AlgorithmOneConfig(n_init=10, sample_budget=400, n_batch=5)),
    (dynamic_run_algorithm2, AlgorithmTwoConfig(n_init=10, total_budget=600))],
    ids=["algorithm1", "algorithm2"])
def test_int_rng_is_a_seed(scheduler, cfg):
    # as for standard_run: an int seed draws what default_rng(seed) draws
    # and is recorded, a generator records none, and a bool is refused
    goal = GoalConfig(goal_g=0.5)
    seeded = scheduler(M2, goal, cfg, rng=5)
    drawn = scheduler(M2, goal, cfg, rng=np.random.default_rng(5))
    for field in ("log_l", "birth_log_l", "theta1", "radius", "true_log_x",
                  "thread_id", "open_birth_log_l", "open_end_log_l",
                  "open_thread_id"):
        np.testing.assert_array_equal(getattr(seeded, field),
                                      getattr(drawn, field))
    assert seeded.provenance.seed == 5 and drawn.provenance.seed is None
    assert seeded.provenance == dataclasses.replace(drawn.provenance, seed=5)
    with pytest.raises(TypeError, match="not a bool"):
        scheduler(M2, goal, cfg, rng=True)
