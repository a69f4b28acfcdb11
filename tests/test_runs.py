"""Run containers: counts, volumes, weights, combine/split.

Hand-built thread structures with known live counts are the primary oracles;
a brute-force O(N^2) count sweep straight from the definition backs the
vectorized implementation on randomized runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import log_prior_volumes, posterior_weights
from varlive.models import GAUSSIAN, ModelSpec
from varlive.runio import run_from_dict, run_to_dict
from varlive.runs import (
    NestedRun,
    RunProvenance,
    Thread,
    combine_runs,
    combine_threads,
    live_point_counts,
    point_log_weights,
    split_into_threads,
    thread_index,
)

M = ModelSpec(family=GAUSSIAN, d=2, sigma_pi=10.0)
M_OTHER = ModelSpec(family=GAUSSIAN, d=3, sigma_pi=10.0)
POINT_FIELDS = ("log_l", "birth_log_l", "theta1", "radius", "true_log_x",
                "thread_id")
OPEN_FIELDS = ("open_birth_log_l", "open_end_log_l", "open_thread_id")


def build_run(threads, opens=None, model=M):
    """threads: {tid: (start_log_l, [log_l, ...])}; opens: [(tid, birth, end)]."""
    log_l, birth, tid = [], [], []
    for t, (start, chain) in threads.items():
        prev = start
        for ll in chain:
            log_l.append(ll)
            birth.append(prev)
            tid.append(t)
            prev = ll
    n = len(log_l)
    kwargs = {}
    if opens:
        kwargs = dict(
            open_birth_log_l=[o[1] for o in opens],
            open_end_log_l=[o[2] for o in opens],
            open_thread_id=[o[0] for o in opens],
        )
    # distinct per-point values, so any permutation of the points shows
    return NestedRun(model, log_l, birth, np.linspace(-0.5, 0.5, n),
                     np.linspace(1.0, 2.0, n), np.linspace(-0.1, -1.0, n),
                     tid, **kwargs)


def censored_run(threads, model=M):
    """Standard-run shape without final-live retention: every thread stays
    alive through the highest recorded contour."""
    top = max(max(chain) for _, chain in threads.values() if chain)
    opens = [(t, chain[-1] if chain else start, top)
             for t, (start, chain) in threads.items()]
    return build_run(threads, opens=opens, model=model)


def brute_counts(run, log_l=None):
    """Definition, term by term, at the run's own points or at the given
    likelihoods."""
    out = []
    for ll in run.log_l if log_l is None else log_l:
        c = int(np.sum((run.birth_log_l < ll) & (ll <= run.log_l)))
        c += int(np.sum((run.open_birth_log_l < ll)
                        & (ll <= run.open_end_log_l)))
        out.append(c)
    return np.array(out, dtype=np.int64)


def random_run(rng, n_threads=12, censor=False, model=M):
    threads = {}
    opens = []
    for t in range(n_threads):
        start = -np.inf if rng.random() < 0.7 else float(rng.uniform(-5.0, 0.0))
        length = int(rng.integers(1, 7))
        lo = start if np.isfinite(start) else -4.0
        chain = np.sort(rng.uniform(lo + 1e-9, 10.0, size=length)).tolist()
        threads[t] = (start, chain)
        if censor and rng.random() < 0.4:
            opens.append((t, chain[-1], chain[-1] + float(rng.uniform(0.1, 3.0))))
    run = build_run(threads, opens=opens or None, model=model)
    assert len(np.unique(run.log_l)) == len(run)
    return run


def tied_run(rng, n_threads=6, censor=False, model=M):
    """random_run on an integer likelihood grid, so contours tie within and
    across threads (and across runs drawn from one generator)."""
    threads = {}
    opens = []
    for t in range(n_threads):
        start = -np.inf if rng.random() < 0.7 else float(rng.integers(-3, 3))
        lo = int(start) + 1 if np.isfinite(start) else -3
        chain = np.unique(rng.integers(lo, 10, size=int(rng.integers(1, 7))))
        threads[t] = (start, chain.astype(float).tolist())
        if censor and rng.random() < 0.4:
            opens.append((t, float(chain[-1]),
                          float(chain[-1] + rng.integers(1, 4))))
    return build_run(threads, opens=opens or None, model=model)


def falling_ties(run):
    """The run loaded from a run file that lists its points in (log_l,
    falling thread id) order: the file is sorted by log_l, but its tie
    groups are not in thread order."""
    doc = run_to_dict(run)
    order = np.lexsort((-run.thread_id, run.log_l)).tolist()
    for key, values in doc["points"].items():
        doc["points"][key] = [values[i] for i in order]
    return run_from_dict(doc)


def combine_reference(runs):
    """combine_runs by concatenation and one sort: relabelled ids, then the
    stable log_l order, or the (log_l, thread_id, arrival) order where thread
    ids fall inside a tie group of it."""
    offset = 0
    shifted = []
    init = []
    for r in runs:
        ids = np.concatenate([r.thread_id, r.open_thread_id])
        shift = offset - (int(ids.min()) if ids.size else 0)
        if ids.size:
            offset = int(ids.max()) + shift + 1
        shifted.append((r, shift))
        if init is not None and r.provenance.init_thread_ids is not None:
            init.extend(i + shift for i in r.provenance.init_thread_ids)
        else:
            init = None

    def cat(get):
        return np.concatenate([get(r, s) for r, s in shifted])

    log_l = cat(lambda r, s: r.log_l)
    tid = cat(lambda r, s: r.thread_id + s)
    order = np.argsort(log_l, kind="stable")
    if np.any((log_l[order][1:] == log_l[order][:-1])
              & (tid[order][1:] < tid[order][:-1])):
        order = np.lexsort((np.arange(log_l.size), tid, log_l))
    ob = cat(lambda r, s: r.open_birth_log_l)
    oe = cat(lambda r, s: r.open_end_log_l)
    ot = cat(lambda r, s: r.open_thread_id + s)
    keep = oe > ob
    return {
        "log_l": log_l[order],
        "birth_log_l": cat(lambda r, s: r.birth_log_l)[order],
        "theta1": cat(lambda r, s: r.theta1)[order],
        "radius": cat(lambda r, s: r.radius)[order],
        "true_log_x": cat(lambda r, s: r.true_log_x)[order],
        "thread_id": tid[order],
        "open_birth_log_l": ob[keep],
        "open_end_log_l": oe[keep],
        "open_thread_id": ot[keep],
        "provenance": RunProvenance(
            algorithm="combined",
            init_thread_ids=None if init is None else tuple(init)),
    }


class TestConstruction:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 200),
           n_parts=st.integers(1, 4), ties=st.booleans(),
           sorted_parts=st.booleans(), tid_rising=st.booleans())
    def test_order_equals_lexsort_reference(self, seed, n, n_parts, ties,
                                            sorted_parts, tid_rising):
        rng = np.random.default_rng(seed)
        log_l = (rng.integers(0, max(n // 3, 1), n).astype(float) if ties
                 else rng.standard_normal(n))
        tid = rng.integers(0, 6, n)
        if sorted_parts:
            # concatenated likelihood-sorted parts, as combine_runs builds
            parts = np.split(np.arange(n),
                             np.sort(rng.integers(0, n + 1, n_parts - 1)))
            idx = np.concatenate([p[np.argsort(log_l[p], kind="stable")]
                                  for p in parts])
            log_l, tid = log_l[idx], tid[idx]
        if tid_rising:
            # thread ids nondecreasing in arrival order, as a bootstrap
            # replicate's rows are: ties need no lexsort
            tid = np.sort(tid)
        arrival = np.arange(n, dtype=float)
        run = NestedRun(M, log_l, log_l - 1.0, arrival, np.ones(n),
                        np.zeros(n), tid)
        ref = np.lexsort((np.arange(n), tid, log_l))
        np.testing.assert_array_equal(run.log_l, log_l[ref])
        np.testing.assert_array_equal(run.birth_log_l, log_l[ref] - 1.0)
        np.testing.assert_array_equal(run.thread_id, tid[ref])
        np.testing.assert_array_equal(run.theta1, arrival[ref])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_log_l_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            NestedRun(M, [1.0, bad], [-np.inf, 1.0], [0.0, 0.0], [1.0, 1.0],
                      [-1.0, -2.0], [0, 0])

    def test_sorted_on_entry(self):
        run = build_run({0: (-np.inf, [3.0, 5.0]), 1: (-np.inf, [1.0, 4.0])})
        assert run.log_l.tolist() == [1.0, 3.0, 4.0, 5.0]
        assert run.thread_id.tolist() == [1, 0, 1, 0]
        run.validate()

    def test_tie_broken_by_thread_id(self):
        run = NestedRun(M, [2.0, 2.0], [-np.inf, -np.inf], [0.0, 0.0],
                        [1.0, 1.0], [-0.5, -0.6], [5, 2])
        assert run.thread_id.tolist() == [2, 5]

    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_threads=st.integers(1, 12),
           censor=st.booleans(), ties=st.booleans())
    def test_any_row_order_gives_the_canonical_run(self, seed, n_threads,
                                                   censor, ties):
        rng = np.random.default_rng(seed)
        make = tied_run if ties else random_run
        run = make(rng, n_threads=n_threads, censor=censor)
        kwargs = dict(open_birth_log_l=run.open_birth_log_l,
                      open_end_log_l=run.open_end_log_l,
                      open_thread_id=run.open_thread_id,
                      provenance=run.provenance)
        cols = [getattr(run, f) for f in POINT_FIELDS]
        canonical = NestedRun(M, *cols, **kwargs)
        # points already in order are kept as given, not copied
        assert all(getattr(canonical, f) is getattr(run, f)
                   for f in POINT_FIELDS)
        perm = rng.permutation(len(run))
        shuffled = NestedRun(M, *(c[perm] for c in cols), **kwargs)
        for field in POINT_FIELDS + OPEN_FIELDS:
            got, want = getattr(shuffled, field), getattr(canonical, field)
            assert got.dtype == want.dtype, field
            np.testing.assert_array_equal(got, want, err_msg=field)
        assert shuffled.provenance == canonical.provenance

    def test_birth_must_be_below(self):
        with pytest.raises(ValueError):
            NestedRun(M, [1.0], [1.0], [0.0], [1.0], [-0.5], [0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            NestedRun(M, [1.0, 2.0], [-np.inf], [0.0], [1.0], [-0.5], [0])

    def test_empty_run(self):
        run = NestedRun(M, [], [], [], [], [], [])
        assert len(run) == 0
        assert live_point_counts(run).shape == (0,)
        assert log_prior_volumes(run).shape == (0,)
        run.validate()

    def test_validate_rejects_broken_chain(self):
        run = NestedRun(M, [1.0, 3.0], [-np.inf, 2.0],  # 2.0 != 1.0
                        [0.0, 0.0], [1.0, 1.0], [-0.5, -1.0], [0, 0])
        with pytest.raises(ValueError, match="link"):
            run.validate()

    def test_validate_rejects_theta_outside_radius(self):
        # a NaN in theta1, radius or true_log_x used to pass every check
        nan = math.nan
        for theta1, radius, true_log_x, message in [
                (2.0, 1.0, -0.5, "theta1"), (nan, 1.0, -0.5, "theta1"),
                (0.5, nan, -0.5, "radius"), (0.5, -1.0, -0.5, "radius"),
                (0.5, 1.0, nan, "true_log_x")]:
            run = NestedRun(M, [1.0], [-np.inf], [theta1], [radius],
                            [true_log_x], [0])
            with pytest.raises(ValueError, match=message):
                run.validate()
        NestedRun(M, [1.0], [-np.inf], [0.5], [1.0], [-np.inf], [0]).validate()

    def test_validate_rejects_open_interval_off_its_thread(self):
        # thread 0 ends at 2.0, so its censored interval must open there;
        # a point-free censored thread (7) may open anywhere
        build_run({0: (-np.inf, [1.0, 2.0])},
                  opens=[(0, 2.0, 3.0), (7, 0.5, 1.5)]).validate()
        run = build_run({0: (-np.inf, [1.0, 2.0])}, opens=[(0, 1.0, 3.0)])
        with pytest.raises(ValueError, match="continue"):
            run.validate()

    def test_validate_rejects_initial_ids_of_no_thread(self):
        # a point-free censored thread (7) is a thread of the run
        run = build_run({0: (-np.inf, [1.0, 2.0]), 1: (-np.inf, [1.5])},
                        opens=[(7, 0.5, 1.5)])
        run.with_provenance(RunProvenance(init_thread_ids=(0, 7))).validate()
        bad = run.with_provenance(RunProvenance(init_thread_ids=(0, 2, 9)))
        with pytest.raises(ValueError,
                           match=r"initial thread ids \[2, 9\] name no"):
            bad.validate()

    def test_degenerate_open_interval_dropped(self):
        run = build_run({0: (-np.inf, [1.0])}, opens=[(0, 1.0, 1.0)])
        assert run.n_open == 0
        with pytest.raises(ValueError):
            build_run({0: (-np.inf, [1.0])}, opens=[(0, 1.0, 0.5)])

    def test_provenance_dict_round_trip(self):
        prov = RunProvenance(algorithm="dynamic", seed=11, n_init=5,
                             goal_g=0.25, sample_budget=1000,
                             importance_variant="tuned",
                             init_thread_ids=(0, 1, 2))
        assert RunProvenance.from_dict(prov.to_dict()) == prov
        assert RunProvenance.from_dict({"algorithm": "standard"}).seed is None

    @pytest.mark.parametrize("key,bad", [
        ("seed", True), ("seed", 1.5), ("n_init", 2.5), ("n_init", "5"),
        ("sample_budget", False), ("sample_budget", "100"),
        ("goal_g", "1"), ("goal_g", True), ("goal_g", math.nan),
        ("goal_g", [0.5])])
    def test_provenance_fields_fail_loudly(self, key, bad):
        # {"seed": true, "n_init": 2.5, "goal_g": "1"} used to load as is
        with pytest.raises(ValueError, match=f"provenance {key} must be"):
            RunProvenance.from_dict({"algorithm": "dynamic", key: bad})


class TestLiveCounts:
    def test_two_threads_retained_tail(self):
        # A: -inf -> 1 -> 3, B: -inf -> 2 -> 5; B's last point runs alone
        run = build_run({0: (-np.inf, [1.0, 3.0]), 1: (-np.inf, [2.0, 5.0])})
        assert live_point_counts(run).tolist() == [2, 2, 2, 1]

    def test_decreasing_tail(self):
        run = build_run({0: (-np.inf, [1.0, 3.0]), 1: (-np.inf, [2.0])})
        assert live_point_counts(run).tolist() == [2, 2, 1]

    def test_censoring_keeps_count_constant(self):
        run = censored_run({0: (-np.inf, [1.0, 3.0]), 1: (-np.inf, [2.0])})
        assert live_point_counts(run).tolist() == [2, 2, 2]

    def test_constant_hundred_and_sum(self):
        rng = np.random.default_rng(7)
        runs = []
        for _ in range(2):
            threads = {}
            for t in range(100):
                chain = np.sort(rng.uniform(0.0, 10.0, size=rng.integers(2, 6)))
                threads[t] = (-np.inf, chain.tolist())
            runs.append(censored_run(threads))
        for run in runs:
            assert np.all(live_point_counts(run) == 100)
        both = combine_runs(runs)
        # constant 200 wherever the two censored ranges overlap
        shared_top = min(float(r.log_l.max()) for r in runs)
        counts = live_point_counts(both)
        overlap = both.log_l <= shared_top
        assert overlap.sum() > 0.9 * len(both)
        assert np.all(counts[overlap] == 200)
        assert np.all(counts[~overlap] == 100)

    def test_dynamic_style_midrun_spawn(self):
        # extra thread alive only on (1, 4]
        run = build_run({0: (-np.inf, [1.0, 3.0, 6.0]), 1: (1.0, [2.0, 4.0])})
        assert live_point_counts(run).tolist() == [1, 2, 2, 2, 1]

    @pytest.mark.parametrize("censor", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, censor, seed):
        rng = np.random.default_rng(100 + seed)
        run = random_run(rng, censor=censor)
        run.validate()
        np.testing.assert_array_equal(live_point_counts(run), brute_counts(run))

    def test_every_point_counts_itself(self):
        rng = np.random.default_rng(55)
        run = random_run(rng, n_threads=20, censor=True)
        assert np.all(live_point_counts(run) >= 1)


class TestVolumes:
    def test_hand_example(self):
        run = build_run({0: (-np.inf, [1.0, 3.0]), 1: (-np.inf, [2.0])})
        np.testing.assert_allclose(log_prior_volumes(run),
                                   [-0.5, -1.0, -2.0], rtol=0, atol=1e-15)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(8)
        run = random_run(rng, censor=True)
        assert np.all(np.diff(log_prior_volumes(run)) < 0.0)


class TestWeights:
    def test_single_point(self):
        run = build_run({0: (-np.inf, [1.0])})
        w = np.exp(point_log_weights(run))
        np.testing.assert_allclose(w, [0.5], rtol=1e-15)

    def test_three_point_trapezium(self):
        # n = 2 throughout; X = (a, a^2, a^3) with a = e^(-1/2)
        run = censored_run({0: (-np.inf, [1.0, 3.0]), 1: (-np.inf, [2.0])})
        a = math.exp(-0.5)
        w = np.exp(point_log_weights(run))
        expected = [0.5 * (1 - a * a),
                    0.5 * a * (1 - a * a),
                    0.5 * a * a]
        np.testing.assert_allclose(w, expected, rtol=1e-14)

    def test_total_weight_telescopes(self):
        rng = np.random.default_rng(21)
        run = random_run(rng, censor=True)
        lnx = log_prior_volumes(run)
        total = np.exp(point_log_weights(run)).sum()
        x1, xn = np.exp(lnx[0]), np.exp(lnx[-1])
        np.testing.assert_allclose(total, 0.5 * (1.0 + x1 - xn), rtol=1e-12)
        assert x1 < total <= 1.0

    def test_empty_run_rejected(self):
        run = NestedRun(M, [], [], [], [], [], [])
        with pytest.raises(ValueError):
            point_log_weights(run)


class TestPosteriorWeights:
    def test_flat_likelihood_reduces_to_prior_weights(self):
        run = censored_run({0: (-10.0, [1.0, 1.0 + 1e-13]),
                            1: (-10.0, [1.0 + 2e-13])})
        w = np.exp(point_log_weights(run))
        np.testing.assert_allclose(posterior_weights(run), w / w.sum(),
                                   rtol=1e-9)

    def test_dominant_point(self):
        run = build_run({0: (-np.inf, [0.0, 1.0, 900.0])})
        p = posterior_weights(run)
        assert p[-1] == pytest.approx(1.0, abs=1e-15)
        assert p[0] == 0.0  # underflows 900 log-units below the peak
        np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=0)

    def test_simplex(self):
        rng = np.random.default_rng(31)
        run = random_run(rng, censor=True)
        p = posterior_weights(run)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)


class TestCombine:
    def test_two_singleton_runs_interleave(self):
        r1 = build_run({0: (-np.inf, [1.0, 3.0])})
        r2 = build_run({0: (-np.inf, [2.0, 5.0])})
        both = combine_runs([r1, r2])
        assert both.log_l.tolist() == [1.0, 2.0, 3.0, 5.0]
        assert live_point_counts(both).tolist() == [2, 2, 2, 1]
        assert len(set(both.thread_id.tolist())) == 2
        both.validate()

    def test_counts_add_at_shared_contours(self):
        rng = np.random.default_rng(41)
        r1 = random_run(rng, censor=True)
        r2 = random_run(rng, censor=True)
        both = combine_runs([r1, r2])
        np.testing.assert_array_equal(live_point_counts(both),
                                      brute_counts(both))
        assert len(both) == len(r1) + len(r2)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_runs=st.integers(1, 4),
           censor=st.booleans(), ties=st.booleans())
    def test_counts_add_exactly(self, seed, n_runs, censor, ties):
        rng = np.random.default_rng(seed)
        make = tied_run if ties else random_run
        parts = [make(rng, censor=censor) for _ in range(n_runs)]
        both = combine_runs(parts)
        counts = live_point_counts(both)
        np.testing.assert_array_equal(
            counts, sum(brute_counts(p, both.log_l) for p in parts))
        np.testing.assert_array_equal(counts, brute_counts(both))

    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_runs=st.integers(1, 4),
           censor=st.booleans(), ties=st.booleans(),
           empty_at=st.none() | st.integers(0, 4),
           falling=st.booleans(), with_init=st.booleans())
    def test_equals_concatenate_and_sort_reference(
            self, seed, n_runs, censor, ties, empty_at, falling, with_init):
        rng = np.random.default_rng(seed)
        make = tied_run if ties else random_run
        parts = [make(rng, n_threads=int(rng.integers(1, 8)), censor=censor)
                 for _ in range(n_runs)]
        if falling:
            parts = [falling_ties(r) for r in parts]
        if with_init:
            parts = [r.with_provenance(RunProvenance(
                init_thread_ids=tuple(np.unique(r.thread_id)[:2].tolist())))
                for r in parts]
        if empty_at is not None:
            parts.insert(min(empty_at, n_runs),
                         NestedRun(M, [], [], [], [], [], []))
        both = combine_runs(parts)
        ref = combine_reference(parts)
        for name, want in ref.items():
            got = getattr(both, name)
            if name == "provenance":
                assert got == want
            else:
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)
        both.validate()

    def test_order_independent(self):
        rng = np.random.default_rng(42)
        r1, r2, r3 = (random_run(rng, censor=True) for _ in range(3))
        ab = combine_runs([combine_runs([r1, r2]), r3])
        ba = combine_runs([r1, combine_runs([r3, r2])])
        np.testing.assert_array_equal(ab.log_l, ba.log_l)
        np.testing.assert_array_equal(live_point_counts(ab),
                                      live_point_counts(ba))
        np.testing.assert_allclose(point_log_weights(ab),
                                   point_log_weights(ba), rtol=0, atol=0)

    def test_singleton_and_empty(self):
        r1 = build_run({0: (-np.inf, [1.0, 3.0])})
        empty = NestedRun(M, [], [], [], [], [], [])
        out = combine_runs([r1, empty])
        np.testing.assert_array_equal(out.log_l, r1.log_l)
        same = combine_runs([r1])
        np.testing.assert_array_equal(same.log_l, r1.log_l)
        with pytest.raises(ValueError):
            combine_runs([])

    def test_model_mismatch_rejected(self):
        r1 = build_run({0: (-np.inf, [1.0])})
        r2 = build_run({0: (-np.inf, [1.0])}, model=M_OTHER)
        with pytest.raises(ValueError):
            combine_runs([r1, r2])

    def test_init_ids_tracked_when_present(self):
        r1 = build_run({0: (-np.inf, [1.0])}).with_provenance(
            RunProvenance(algorithm="standard", init_thread_ids=(0,)))
        r2 = build_run({0: (-np.inf, [2.0])}).with_provenance(
            RunProvenance(algorithm="standard", init_thread_ids=(0,)))
        both = combine_runs([r1, r2])
        assert both.provenance.init_thread_ids is not None
        assert len(set(both.provenance.init_thread_ids)) == 2
        bare = combine_runs([r1, build_run({0: (-np.inf, [2.0])})])
        assert bare.provenance.init_thread_ids is None


class TestSplit:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_threads=st.integers(1, 20),
           censor=st.booleans())
    def test_round_trip_exact(self, seed, n_threads, censor):
        run = random_run(np.random.default_rng(seed), n_threads=n_threads,
                         censor=censor)
        threads = split_into_threads(run)
        assert sum(len(t) for t in threads) == len(run)
        back = combine_threads(run.model, threads)
        for field in ("log_l", "birth_log_l", "theta1", "radius",
                      "true_log_x", "thread_id", "open_birth_log_l",
                      "open_end_log_l", "open_thread_id"):
            np.testing.assert_array_equal(getattr(back, field),
                                          getattr(run, field), err_msg=field)
        np.testing.assert_array_equal(live_point_counts(back),
                                      live_point_counts(run))

    def test_thread_chains_link(self):
        rng = np.random.default_rng(52)
        run = random_run(rng, censor=True)
        for t in split_into_threads(run):
            if len(t) == 0:
                assert t.open_end_log_l is not None
                continue
            assert t.birth_log_l[0] == t.start_log_l
            np.testing.assert_array_equal(t.birth_log_l[1:], t.log_l[:-1])
            assert np.all(np.diff(t.log_l) > 0.0)

    def test_pointless_censored_thread_survives(self):
        run = build_run({0: (-np.inf, [1.0, 2.0])},
                        opens=[(7, 0.5, 1.5)])
        threads = split_into_threads(run)
        assert len(threads) == 2
        ghost = [t for t in threads if t.thread_id == 7][0]
        assert len(ghost) == 0
        assert ghost.start_log_l == 0.5
        assert ghost.open_end_log_l == 1.5
        back = combine_threads(run.model, threads)
        np.testing.assert_array_equal(live_point_counts(back),
                                      live_point_counts(run))

    def test_thread_index_of_hand_run(self):
        run = build_run({4: (-np.inf, [1.0, 3.0]), 9: (-np.inf, [2.0])},
                        opens=[(9, 2.0, 4.0), (6, 0.5, 2.5)])
        ids, rows, offsets, open_pos = thread_index(run)
        assert ids.tolist() == [4, 6, 9]
        assert run.thread_id[rows].tolist() == [4, 4, 9]
        assert run.log_l[rows].tolist() == [1.0, 3.0, 2.0]
        assert offsets.tolist() == [0, 2, 2, 3]
        assert run.open_thread_id[open_pos[open_pos >= 0]].tolist() == [6, 9]
        assert open_pos[0] == -1

    def test_negative_thread_id_rejected(self):
        run = NestedRun(M, [1.0], [-np.inf], [0.0], [1.0], [-0.5], [-1])
        with pytest.raises(ValueError):
            split_into_threads(run)

    def test_thread_to_run_preserves_open_interval(self):
        th = Thread(thread_id=3, start_log_l=-np.inf,
                    log_l=np.array([1.0, 2.0]),
                    birth_log_l=np.array([-np.inf, 1.0]),
                    theta1=np.zeros(2), radius=np.ones(2),
                    true_log_x=np.array([-0.5, -1.0]),
                    open_end_log_l=4.0)
        run = th.to_run(M)
        assert run.thread_id.tolist() == [0, 0]
        assert run.n_open == 1
        assert run.open_birth_log_l[0] == 2.0
        assert run.open_end_log_l[0] == 4.0
        assert run.open_thread_id.tolist() == [0]


def thread_as_run(th, model=M):
    """One thread as a run of its own, built directly: what a merge of
    per-thread runs starts from."""
    n = len(th)
    kwargs = {}
    if th.open_end_log_l is not None:
        kwargs = dict(open_birth_log_l=[th.log_l[-1] if n else th.start_log_l],
                      open_end_log_l=[th.open_end_log_l],
                      open_thread_id=[th.thread_id])
    return NestedRun(model, th.log_l, th.birth_log_l, th.theta1, th.radius,
                     th.true_log_x, np.full(n, th.thread_id), **kwargs)


class TestCombineThreads:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_threads=st.integers(1, 20),
           censor=st.booleans(), n_picks=st.integers(1, 30))
    def test_equals_merge_of_thread_runs(self, seed, n_threads, censor,
                                         n_picks):
        rng = np.random.default_rng(seed)
        threads = split_into_threads(
            random_run(rng, n_threads=n_threads, censor=censor))
        # any order, repeats allowed, as a bootstrap draws them
        picked = [threads[int(k)]
                  for k in rng.integers(0, len(threads), size=n_picks)]
        one = combine_threads(M, picked)
        many = combine_runs([thread_as_run(th) for th in picked])
        for field in ("log_l", "birth_log_l", "theta1", "radius",
                      "true_log_x", "thread_id", "open_birth_log_l",
                      "open_end_log_l", "open_thread_id"):
            np.testing.assert_array_equal(getattr(one, field),
                                          getattr(many, field), err_msg=field)
        assert one.provenance.init_thread_ids == ()

    def test_relabelled_in_list_order(self):
        run = build_run({4: (-np.inf, [1.0, 3.0]), 9: (-np.inf, [2.0])},
                        opens=[(6, 0.5, 2.5)])
        by_id = {t.thread_id: t for t in split_into_threads(run)}
        out = combine_threads(M, [by_id[9], by_id[6], by_id[4]])
        assert out.thread_id.tolist() == [2, 0, 2]
        assert out.open_thread_id.tolist() == [1]
        assert out.open_birth_log_l.tolist() == [0.5]
        out.validate()

    def test_merge_onto_run_keeps_its_initial_ids(self):
        base = censored_run({0: (-np.inf, [1.0, 3.0]),
                             1: (-np.inf, [2.0])}).with_provenance(
            RunProvenance(algorithm="standard", init_thread_ids=(0, 1)))
        extra = split_into_threads(build_run({0: (1.0, [1.5, 2.5])}))
        both = combine_runs([base, combine_threads(M, extra)])
        assert both.provenance.init_thread_ids == (0, 1)
        assert set(both.thread_id.tolist()) == {0, 1, 2}

    def test_no_threads_gives_empty_run(self):
        out = combine_threads(M, [])
        assert len(out) == 0 and out.n_open == 0


class TestRunDoc:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_threads=st.integers(1, 20),
           censor=st.booleans(), data=st.data())
    def test_corrupt_doc_raises_value_error(self, seed, n_threads, censor,
                                            data):
        run = random_run(np.random.default_rng(seed), n_threads=n_threads,
                         censor=censor)
        run_from_dict(run_to_dict(run))
        truncated = run_to_dict(run)
        field = data.draw(st.sampled_from(sorted(truncated["points"])))
        truncated["points"][field].pop()
        with pytest.raises(ValueError):
            run_from_dict(truncated)
        # a required key missing from a section (b of the model is optional)
        doc = run_to_dict(run)
        section, key = data.draw(st.sampled_from(
            [("model", k) for k in ("family", "d", "sigma_pi")]
            + [(name, k) for name in ("points", "open_intervals")
               for k in sorted(doc[name])]))
        del doc[section][key]
        with pytest.raises(ValueError, match=f"has no '{key}'"):
            run_from_dict(doc)
        # a version that equals 1 without being the integer 1
        doc = run_to_dict(run)
        doc["version"] = data.draw(st.sampled_from([True, 1.0]))
        with pytest.raises(ValueError, match="version"):
            run_from_dict(doc)
        if len(run) > 1:
            # random_run draws distinct log_l values
            i, j = data.draw(st.lists(st.integers(0, len(run) - 1),
                                      min_size=2, max_size=2, unique=True))
            swapped = run_to_dict(run)
            log_l = swapped["points"]["log_l"]
            log_l[i], log_l[j] = log_l[j], log_l[i]
            with pytest.raises(ValueError):
                run_from_dict(swapped)
        # a non-finite log_l anywhere
        k = data.draw(st.integers(0, len(run) - 1))
        non_finite = run_to_dict(run)
        non_finite["points"]["log_l"][k] = data.draw(
            st.sampled_from(["nan", "inf", "-inf"]))
        with pytest.raises(ValueError):
            run_from_dict(non_finite)
        if run.n_open:
            # a second open interval for a censored thread
            k = data.draw(st.integers(0, run.n_open - 1))
            duplicated = run_to_dict(run)
            for values in duplicated["open_intervals"].values():
                values.append(values[k])
            with pytest.raises(ValueError):
                run_from_dict(duplicated)
        # an integer field holding a bool, a non-integral number or a string,
        # or a real field holding a bool, a string or a non-finite number
        target = data.draw(st.sampled_from(
            ["d", "thread_id", "init_thread_ids", "seed", "n_init",
             "sample_budget", "goal_g", "sigma_pi", "b"]
            + (["open_thread_id"] if run.n_open else [])))
        if target in ("goal_g", "sigma_pi", "b"):
            bad = data.draw(st.one_of(st.booleans(), st.sampled_from(
                [math.inf, -math.inf, math.nan, "3"])))
        else:
            bad = data.draw(st.one_of(st.booleans(), st.sampled_from(
                [0.5, 5.25, -1.5, math.inf, math.nan, "3"])))
        wrong = run_to_dict(run)
        if target in ("d", "sigma_pi", "b"):
            wrong["model"][target] = bad
        elif target in ("seed", "n_init", "sample_budget", "goal_g"):
            wrong["provenance"][target] = bad
        elif target == "init_thread_ids":
            wrong["provenance"]["init_thread_ids"] = [0, bad]
        else:
            ids = wrong["points" if target == "thread_id"
                        else "open_intervals"]["thread_id"]
            ids[data.draw(st.integers(0, len(ids) - 1))] = bad
        with pytest.raises(ValueError):
            run_from_dict(wrong)
