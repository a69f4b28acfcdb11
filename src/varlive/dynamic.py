"""Dynamic live-point allocation: importance functions and both schedulers.

Standard nested sampling spends the same effort everywhere.  The point of the
dynamic variants is to measure, per dead point, how much each region of the
shrinkage actually contributes to the targets of interest, then feed more
live points exactly there:

* evidence importance: the share of evidence at-or-above each contour,
  divided by the local live count (more points where evidence accrues and
  coverage is thin);
* parameter importance: the posterior weight itself (more points where
  posterior mass sits);
* a goal knob G in [0, 1] interpolating between the two, each term
  normalized to unit sum first.

Two schedulers realize an allocation.  The iterative one alternates between
recomputing importance on the merged run and spawning a batch of fresh
threads across the high-importance region, until a sample budget is spent.
The single-pass one smooths the importance profile of the initial run,
scales it to the remaining budget, and realizes the resulting count profile
in one sweep by opening threads at rising edges and censoring the oldest at
falling edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec
from .runs import (
    IMPORTANCE_VARIANTS,
    NestedRun,
    RunProvenance,
    _log_weights,
    _normalised_weights,
    combine_runs,
    combine_threads,
    live_point_counts,
)
from .sampler import (SamplerConfig, _resolve_rng, sample_thread_batch,
                      standard_run)

__all__ = [
    "GoalConfig",
    "AlgorithmOneConfig",
    "AlgorithmTwoConfig",
    "combined_importance",
    "dynamic_run_algorithm1",
    "savitzky_golay_smooth",
    "algorithm2_allocation",
    "dynamic_run_algorithm2",
]


# Algorithm 1 samples where the importance exceeds this share of its maximum
REGION_FRACTION = 0.9
# Algorithm 2's Savitzky-Golay smoothing order, over 2 n_init + 1 points
SMOOTH_ORDER = 3


@dataclass(frozen=True)
class GoalConfig:
    """What to optimize allocation for.

    goal_g = 0 targets evidence accuracy, 1 targets parameter estimates,
    intermediate values mix the two normalized importances linearly.  The
    "exact" variant weighs the evidence part by its variance-derived
    refinement; the "tuned" variant targets the posterior mean of theta1,
    |theta1_i - theta1-bar| L_i w_i in place of the posterior weights.
    """

    goal_g: float
    importance_variant: str = "standard"

    def __post_init__(self):
        if not 0.0 <= self.goal_g <= 1.0:
            raise ValueError("goal_g must lie in [0, 1]")
        if self.importance_variant not in IMPORTANCE_VARIANTS:
            raise ValueError("importance_variant must be one of "
                             f"{IMPORTANCE_VARIANTS}")


@dataclass(frozen=True)
class AlgorithmOneConfig:
    n_init: int
    sample_budget: int
    n_batch: int = 1

    def __post_init__(self):
        if self.n_init < 1:
            raise ValueError("n_init must be >= 1")
        if self.n_batch < 1:
            raise ValueError("n_batch must be >= 1")
        if self.sample_budget < 1:
            raise ValueError("sample_budget must be positive")


@dataclass(frozen=True)
class AlgorithmTwoConfig:
    """The single-pass scheduler's settings.  Its smoothing window, 2 n_init
    + 1 points, must be longer than SMOOTH_ORDER, so n_init is at least 2."""

    n_init: int
    total_budget: int

    def __post_init__(self):
        if self.n_init < 2:
            raise ValueError("n_init must be >= 2")
        if self.total_budget < 1:
            raise ValueError("total_budget must be positive")


def _unit_sum(v: np.ndarray) -> np.ndarray:
    return v / np.sum(v)


def _evidence(counts, lw):
    """Evidence importance: share of evidence at-or-above each contour per
    live point, i.e. (sum_{k>=i} L_k w_k) / n_i, normalized to unit sum."""
    ln_tail = np.logaddexp.accumulate(lw[::-1])[::-1]
    return _unit_sum(np.exp(ln_tail - ln_tail.max()) / counts)


def _evidence_exact(counts, lw):
    """Variance-derived refinement of the evidence importance.

    Weighs the strictly-above evidence and the point's own contribution by
    count-dependent factors; approaches the plain ratio form as counts grow.
    """
    n = lw.shape[0]
    ln_above = np.full(n, -np.inf)
    if n > 1:
        ln_above[:-1] = np.logaddexp.accumulate(lw[::-1])[::-1][1:]
    counts = counts.astype(float)
    coef_tail = (counts + 1.0) / (np.sqrt(counts) * (counts + 2.0) ** 1.5)
    coef_self = np.sqrt(counts) / (counts + 2.0) ** 1.5
    scale = max(float(lw.max()), float(ln_above.max()))
    raw = coef_tail * np.exp(ln_above - scale) + coef_self * np.exp(lw - scale)
    return _unit_sum(raw)


def _tuned(lw, values, mean):
    """Parameter importance tuned to the posterior mean of values,
    |f(theta_i) - f-bar| L_i w_i normalized; None on the degenerate all-zero
    profile (every value at the mean)."""
    raw = np.abs(values - mean) * np.exp(lw - lw.max())
    total = raw.sum()
    return None if total == 0.0 else raw / total


def combined_importance(run: NestedRun, goal: GoalConfig) -> np.ndarray:
    """Goal-weighted importance (1-G) evidence part + G parameter part,
    aligned to run order and summing to one; a term with zero weight is not
    computed, and every term shares one count and weight pass.  The
    parameter part is the posterior weights, or the tuned importance when
    that is not degenerate."""
    if len(run) == 0:
        raise ValueError("importance of an empty run is undefined")
    g = goal.goal_g
    counts = live_point_counts(run)
    lw = _log_weights(counts) + run.log_l
    if g < 1.0:
        if goal.importance_variant == "exact":
            imp_z = _evidence_exact(counts, lw)
        else:
            imp_z = _evidence(counts, lw)
        if g == 0.0:
            return imp_z
    imp_param = _normalised_weights(lw)
    if goal.importance_variant == "tuned":
        tuned = _tuned(lw, run.theta1, float(np.sum(imp_param * run.theta1)))
        if tuned is not None:
            imp_param = tuned
    if g == 1.0:
        return imp_param
    return _unit_sum((1.0 - g) * imp_z + g * imp_param)


def dynamic_run_algorithm1(m: ModelSpec, goal: GoalConfig,
                           cfg: AlgorithmOneConfig, rng=None) -> NestedRun:
    """Iterative scheduler: repeatedly spawn a batch of threads across the
    current high-importance region until the sample budget is spent."""
    rng, seed = _resolve_rng(rng)
    run = standard_run(m, SamplerConfig(n_live=cfg.n_init), rng)
    while len(run) < cfg.sample_budget:
        prof = combined_importance(run, goal)
        high = (prof > REGION_FRACTION * prof.max()).nonzero()[0]
        j, k = int(high[0]), int(high[-1])
        start = -np.inf if j == 0 else float(run.log_l[j - 1])
        # one point past the top of the region; when the region reaches the
        # run's end, one point above the final contour
        end = float(run.log_l[k + 1]) if k + 1 < len(run) \
            else float(run.log_l[-1])
        if not start < end:  # degenerate single-contour region
            end = np.inf
        threads = sample_thread_batch(m, start, end, rng, cfg.n_batch)
        run = combine_runs([run, combine_threads(m, threads)])
    init_ids = run.provenance.init_thread_ids
    return run.with_provenance(RunProvenance(
        algorithm="dynamic_alg1", seed=seed, n_init=cfg.n_init,
        goal_g=goal.goal_g, sample_budget=cfg.sample_budget,
        importance_variant=goal.importance_variant,
        init_thread_ids=init_ids))


def savitzky_golay_smooth(values, window: int, order: int) -> np.ndarray:
    """Least-squares local polynomial smoothing.

    Sequences shorter than the window pass through unchanged; endpoints are
    smoothed with the window shrunk symmetrically around the point.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and positive")
    if order < 0 or order >= window:
        raise ValueError("order must satisfy 0 <= order < window")
    vals = np.asarray(values, dtype=float)
    nv = vals.shape[0]
    if nv < window:
        return vals.copy()
    half = window // 2
    # interior: convolution with the midpoint least-squares coefficients
    offs = np.arange(-half, half + 1, dtype=float)
    design = np.vander(offs, order + 1, increasing=True)
    # first row of (A^T A)^-1 A^T evaluates the fitted polynomial at 0
    coeffs = np.linalg.lstsq(design, np.eye(window), rcond=None)[0][0]
    out = np.empty(nv)
    out[half:nv - half] = np.convolve(vals, coeffs[::-1], mode="valid")
    for i in list(range(half)) + list(range(nv - half, nv)):
        h = min(i, nv - 1 - i)
        if h == 0:
            out[i] = vals[i]
            continue
        o = np.arange(-h, h + 1, dtype=float)
        d = np.vander(o, min(order, 2 * h) + 1, increasing=True)
        c = np.linalg.lstsq(d, vals[i - h:i + h + 1], rcond=None)[0]
        out[i] = c[0]
    return out


def algorithm2_allocation(init_run: NestedRun, goal: GoalConfig,
                          cfg: AlgorithmTwoConfig) -> np.ndarray:
    """Supplement live counts n(L_i) the single-pass scheduler will realize.

    Smooths the initial run's combined importance, then scales it by the
    factor K (found by bisection) at which the expected supplement cost
    matches the remaining budget.  Each initial-run step spans 1/n_init in
    ln X in expectation and a supplement thread contributes about one point
    per unit ln X, so the expected cost of a profile is sum(n_i)/n_init.
    """
    n_init = cfg.n_init
    if cfg.total_budget < len(init_run):
        raise ValueError(
            f"total_budget {cfg.total_budget} infeasible: initial run "
            f"already holds {len(init_run)} samples")
    target_extra = cfg.total_budget - len(init_run)

    prof = combined_importance(init_run, goal)
    smooth = np.clip(savitzky_golay_smooth(prof, 2 * n_init + 1,
                                           SMOOTH_ORDER), 0.0, None)

    def counts_for(k: float) -> np.ndarray:
        scaled = k * smooth
        return np.where(scaled > n_init, np.rint(scaled - n_init), 0.0)

    def cost(k: float) -> float:
        return float(counts_for(k).sum()) / n_init

    extra = np.zeros(len(init_run))
    if target_extra > 0 and smooth.max() > 0.0:
        hi = n_init / smooth.max()  # first K at which any point activates
        while cost(hi) < target_extra:
            hi *= 2.0
            if hi > 1e300:
                raise RuntimeError("budget scaling diverged")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cost(mid) < target_extra:
                lo = mid
            else:
                hi = mid
        # bracket ends straddle the target; keep the closer realization
        extra = counts_for(hi)
        if abs(cost(lo) - target_extra) < abs(cost(hi) - target_extra):
            extra = counts_for(lo)
    return extra.astype(np.int64)


def dynamic_run_algorithm2(m: ModelSpec, goal: GoalConfig,
                           cfg: AlgorithmTwoConfig, rng=None) -> NestedRun:
    """Single-pass scheduler: smooth the initial run's importance, scale it
    to the remaining budget, and realize the resulting live-count profile
    with censored supplement threads."""
    rng, seed = _resolve_rng(rng)
    init_run = standard_run(
        m, SamplerConfig(n_live=cfg.n_init, keep_final_live=False), rng)
    n_init = cfg.n_init
    extra = algorithm2_allocation(init_run, goal, cfg)

    run = init_run
    if extra.any():
        # supplement threads open at rising edges of the profile and close,
        # oldest first, at falling edges; the rest stay open to the top.
        # First in, first out: the k-th thread opened is the k-th closed.
        contours = np.concatenate([[-np.inf], init_run.log_l[:-1]])
        delta = np.diff(extra, prepend=0)
        opens = np.repeat(contours, np.maximum(delta, 0))
        closes = np.concatenate([np.repeat(contours, np.maximum(-delta, 0)),
                                 np.full(extra[-1], init_run.log_l[-1])])
        # both sequences are nondecreasing, so equal (open, close) pairs are
        # consecutive; each run of them is one batch
        edges = np.flatnonzero((opens[1:] != opens[:-1])
                               | (closes[1:] != closes[:-1])) + 1
        bounds = np.concatenate([[0], edges, [opens.size]]).tolist()
        threads = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            start, end = float(opens[a]), float(closes[a])
            if start < end:
                threads.extend(sample_thread_batch(
                    m, start, end, rng, b - a, censor_at_end=True))
        run = combine_runs([init_run, combine_threads(m, threads)])
    init_ids = run.provenance.init_thread_ids
    return run.with_provenance(RunProvenance(
        algorithm="dynamic_alg2", seed=seed, n_init=n_init,
        goal_g=goal.goal_g, sample_budget=cfg.total_budget,
        importance_variant=goal.importance_variant,
        init_thread_ids=init_ids))
