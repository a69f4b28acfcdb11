"""Estimators, bootstrap errors, and efficiency gains.

Everything here consumes immutable runs and returns plain numbers, so the
experiment layer can fan out over ensembles without shared state.  The two
conventions that matter:

* weighted quantiles place each sorted value at the midpoint of its weight
  interval (cumulative weight minus half its own) and interpolate linearly,
  which reduces exactly to the ordinary sample quantile under equal weights;
* sampling errors come from resampling whole threads with replacement,
  stratified by the run itself: when its provenance names its initial
  threads (init_thread_ids), they are drawn separately from the
  dynamically added ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .runs import (
    NestedRun,
    RunProvenance,
    point_log_weights,
    thread_index,
)

__all__ = [
    "EstimatorId",
    "ESTIMATOR_KINDS",
    "estimator_from_key",
    "weighted_quantile",
    "estimates",
    "estimate",
    "bootstrap_resample",
    "bootstrap_replicates",
    "jackknife_std_sigma",
    "GainEstimate",
    "efficiency_gain",
]

ESTIMATOR_KINDS = (
    "log_z",
    "mean_theta1",
    "median_theta1",
    "credible_theta1",
    "second_moment_theta1",
    "mean_radius",
    "median_radius",
)


@dataclass(frozen=True)
class EstimatorId:
    """Which statistic to extract from a run; credible_theta1 carries its
    one-tailed probability level q."""

    kind: str
    q: float | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "credible_theta1":
            if self.q is None or not 0.0 < self.q < 1.0:
                raise ValueError("credible_theta1 needs q in (0, 1)")
        elif self.q is not None:
            raise ValueError(f"{self.kind} takes no level")

    @property
    def key(self) -> str:
        if self.kind == "credible_theta1":
            return f"credible_theta1:{self.q:g}"
        return self.kind


def estimator_from_key(key: str) -> EstimatorId:
    if ":" in key:
        kind, _, level = key.partition(":")
        return EstimatorId(kind, float(level))
    return EstimatorId(key)


def weighted_quantile(values, weights, q: float) -> float:
    """Quantile of a weighted sample, midpoint convention.

    Sorted values sit at cumulative weight minus half their own weight
    (normalized); the quantile interpolates linearly between them and clamps
    at the extremes.  Equal weights reduce this to the ordinary sample
    quantile with (i + 1/2)/N plotting positions.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or values.size == 0:
        raise ValueError("values and weights must be equal-length, nonempty")
    if not (np.isfinite(values).all() and np.isfinite(weights).all()):
        raise ValueError("values and weights must be finite")
    if np.any(weights < 0.0) or weights.sum() <= 0.0:
        raise ValueError("weights must be nonnegative with positive total")
    return float(np.interp(q, *_quantile_nodes(values, weights)))


def _quantile_nodes(values: np.ndarray, weights: np.ndarray):
    """(positions, sorted values) that weighted_quantile interpolates."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order] / weights.sum()
    return np.cumsum(w) - 0.5 * w, v


def _values_for(run: NestedRun, eid: EstimatorId) -> np.ndarray:
    """The values whose posterior mean is eid, a mean kind."""
    if eid.kind == "mean_theta1":
        return run.theta1
    if eid.kind == "second_moment_theta1":
        return run.theta1 * run.theta1
    return run.radius


def estimates(run: NestedRun, eids) -> np.ndarray:
    """Every estimator in eids, in order, from one weight pass: ln Z is the
    quadrature evidence over the dead points, the rest are posterior-weighted
    statistics.  Quantiles of one value column share one sort."""
    if len(run) == 0:
        raise ValueError("empty run has no estimates")
    lw = run.log_l + point_log_weights(run)
    mx = float(lw.max())
    e = np.exp(lw - mx)
    total = e.sum()
    p = None
    quantile_nodes = {}  # value column -> _quantile_nodes
    out = np.empty(len(eids))
    for k, eid in enumerate(eids):
        if eid.kind == "log_z":
            out[k] = mx + math.log(float(total))
            continue
        if p is None:
            if not math.isfinite(mx):
                raise ValueError("all posterior weights are zero")
            p = e / total
        if eid.kind in ("mean_theta1", "second_moment_theta1", "mean_radius"):
            out[k] = np.sum(p * _values_for(run, eid))
            continue
        column = "radius" if eid.kind == "median_radius" else "theta1"
        if column not in quantile_nodes:
            quantile_nodes[column] = _quantile_nodes(getattr(run, column), p)
        q = eid.q if eid.kind == "credible_theta1" else 0.5
        out[k] = np.interp(q, *quantile_nodes[column])
    return out


def estimate(run: NestedRun, eid: EstimatorId) -> float:
    """One estimator of the run (see estimates)."""
    return float(estimates(run, (eid,))[0])


def _resample_index(run: NestedRun):
    """What every replicate of the run draws from: its thread index, the
    resampling classes (positions into the index's thread ids) and the
    relabelled initial thread ids of a replicate."""
    ids, rows, offsets, open_pos = thread_index(run)
    init_ids = run.provenance.init_thread_ids
    if init_ids is not None:
        in_init = np.isin(ids, init_ids)
        classes = [np.flatnonzero(in_init), np.flatnonzero(~in_init)]
        new_init = tuple(range(len(classes[0])))
    else:
        classes = [np.arange(ids.size)]
        new_init = None
    return rows, offsets, open_pos, classes, new_init


def bootstrap_resample(run: NestedRun, rng, *, _index=None) -> NestedRun:
    """Resample whole threads with replacement, preserving the thread count.

    When the run's provenance names its initial threads, they form their
    own resampling class, so the constant-count scaffold of a dynamic run
    is preserved in every replication; a run without init_thread_ids
    resamples all its threads as one class.  _index is the run's
    _resample_index, passed in by callers that draw many replicates of one
    run.
    """
    if _index is None:
        _index = _resample_index(run)
    rows, offsets, open_pos, classes, new_init = _index
    picked = np.concatenate([np.empty(0, dtype=np.int64), *(
        cls[rng.integers(0, len(cls), size=len(cls))]
        for cls in classes if len(cls))])
    # the picked threads' rows, thread after thread; picks are relabelled
    # 0..k-1 in pick order, and the run constructor sorts the rows by log_l
    start = offsets[picked]
    length = offsets[picked + 1] - start
    sel = rows[np.arange(length.sum())
               + np.repeat(start - np.cumsum(length) + length, length)]
    opened = open_pos[picked]
    censored = np.flatnonzero(opened >= 0)
    pos = opened[censored]
    prov = run.provenance
    return NestedRun(
        run.model, run.log_l[sel], run.birth_log_l[sel], run.theta1[sel],
        run.radius[sel], run.true_log_x[sel],
        np.repeat(np.arange(picked.size), length),
        open_birth_log_l=run.open_birth_log_l[pos],
        open_end_log_l=run.open_end_log_l[pos], open_thread_id=censored,
        provenance=RunProvenance(
            algorithm="bootstrap", seed=None, n_init=prov.n_init,
            goal_g=prov.goal_g, sample_budget=prov.sample_budget,
            importance_variant=prov.importance_variant,
            init_thread_ids=new_init))


def bootstrap_replicates(run: NestedRun, eids, n_reps: int, rng) -> np.ndarray:
    """n_reps x len(eids) estimates, one row per thread-bootstrap replicate
    (bootstrap_resample) of the run, so every estimator sees the same
    replicate noise."""
    if n_reps < 2:
        raise ValueError("need at least 2 replications")
    index = _resample_index(run)
    reps = np.empty((n_reps, len(eids)))
    for r in range(n_reps):
        reps[r] = estimates(bootstrap_resample(run, rng, _index=index), eids)
    return reps


def jackknife_std_sigma(results) -> float:
    """Jackknife uncertainty of the sample standard deviation; nan below
    three results."""
    x = np.asarray(results, dtype=float)
    n = x.size
    if n < 3:
        return float("nan")
    loo = np.std(np.broadcast_to(x, (n, n))[~np.eye(n, dtype=bool)]
                 .reshape(n, n - 1), axis=1, ddof=1)
    return float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


# each draw is degenerate with chance <= 1/2 once an arm has two distinct results
MAX_DEGENERATE_REDRAWS = 1000


@dataclass(frozen=True)
class GainEstimate:
    gain: float
    sigma: float


def efficiency_gain(std_results, dyn_results, mean_samples_std: float,
                    mean_samples_dyn: float, n_boot: int = 1000, *,
                    rng) -> GainEstimate:
    """Variance ratio of the two arms, corrected by their sample-count ratio.

    The uncertainty bootstraps each arm's result set independently; the
    sample-count factor is treated as exact.  Each replicate draws indices
    for the standard arm, then for the dynamic arm, and redraws the dynamic
    arm while its resample has zero variance.  When the arms have the same
    size n, all replicates come from one rng.integers block of shape
    (n_boot, 2, n), which holds exactly the draws the per-replicate loop
    makes, in its order, and leaves rng in the same state.  Unequal arms,
    or a block with a degenerate dynamic row, restore rng to its state
    before the block and run the loop, so the result never depends on
    which path ran.  rng, the generator the replicates draw from, has no
    default: each caller names its stream.
    """
    a = np.asarray(std_results, dtype=float)
    b = np.asarray(dyn_results, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least 2 results per arm")
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2: one replicate has no spread")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("every result of both arms must be finite")
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    if var_b == 0.0:
        raise ValueError("dynamic arm has zero variance")
    factor = mean_samples_std / mean_samples_dyn
    gain = (var_a / var_b) * factor
    if a.size == b.size:
        state = rng.bit_generator.state
        idx = rng.integers(0, a.size, size=(n_boot, 2, a.size))
        vb = np.var(b[idx[:, 1]], axis=1, ddof=1)
        if np.all(vb != 0.0):
            reps = (np.var(a[idx[:, 0]], axis=1, ddof=1) / vb) * factor
            return GainEstimate(gain=gain, sigma=float(np.std(reps, ddof=1)))
        rng.bit_generator.state = state
    reps = np.empty(n_boot)
    for i in range(n_boot):
        ra = a[rng.integers(0, a.size, size=a.size)]
        for _ in range(MAX_DEGENERATE_REDRAWS):  # redo degenerate draws
            vb = np.var(b[rng.integers(0, b.size, size=b.size)], ddof=1)
            if vb != 0.0:
                break
        else:
            raise RuntimeError(f"efficiency_gain: {MAX_DEGENERATE_REDRAWS} "
                               "redraws of the dynamic arm had zero variance")
        reps[i] = (np.var(ra, ddof=1) / vb) * factor
    return GainEstimate(gain=gain, sigma=float(np.std(reps, ddof=1)))
