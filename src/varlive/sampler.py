"""Perfect nested sampling over spherically symmetric models.

Shrinkage is simulated per thread: each live point's successive prior volumes
follow ln X -> ln X + ln U, so a thread is a unit-rate Poisson process in
-ln X.  Likelihoods and radii come from the model's contour map, making every
draw an exact sample from the constrained prior and leaving nothing to an
MCMC approximation.

standard_run generates all thread trajectories to a safe depth first, merges
them in likelihood order, then locates the termination step with a bracketed
scan: cheap log-domain bounds isolate a window, and the exact mean-live-
likelihood condition is evaluated only inside it.  sample_thread_batch
draws many threads between one pair of contours the same way and is what
the dynamic schedulers build on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .models import (
    ModelSpec,
    get_contour_map,
    log_x_from_log_likelihood,
    sampling_log_x_floor,
)
from .runs import NestedRun, RunProvenance, Thread
from .specialfn import sample_beta_first_coordinate

__all__ = ["SamplerConfig", "sample_thread_batch", "standard_run"]


# 15-nat steps below sampling_log_x_floor (which covers the posterior bulk)
MAX_DEEPENINGS = 20
# blocks of shrinkage draws one _ensure_depth call may add; the first block
# already reaches its target with a margin of 12 standard deviations
MAX_TOP_UPS = 50
# a standard run, and so each dynamic run's initial run, stops once the
# evidence still held by the live points (mean live likelihood times current
# volume) drops below this fraction of the dead-point evidence
TERMINATION_FRACTION = 1e-3


@dataclass(frozen=True)
class SamplerConfig:
    """Standard-run settings.

    keep_final_live: append the surviving live points as a decreasing-count
    tail; otherwise record censored alive-intervals so derived counts stay
    at n_live everywhere.
    """

    n_live: int
    keep_final_live: bool = True

    def __post_init__(self):
        if self.n_live < 1:
            raise ValueError("n_live must be >= 1")


def sample_thread_batch(m: ModelSpec, start_log_l: float, end_log_l: float,
                        rng, n: int, censor_at_end: bool = False
                        ) -> list[Thread]:
    """Run n live points, threads 0..n-1, from the start contour until each
    first exceeds the end contour.

    The overshooting point is retained by default; with censor_at_end it is
    discarded and each thread carries an open alive-interval through
    end_log_l instead.  end_log_l = +inf means exactly one point above the
    start contour.  All shrinkage draws come from one exponential block and
    all angular draws from one batch, so a whole spawn costs a few array
    operations.
    """
    if n == 0:
        return []
    if not start_log_l < end_log_l:
        raise ValueError("need start_log_l < end_log_l")
    log_x0 = log_x_from_log_likelihood(m, start_log_l)

    if end_log_l == np.inf:
        # one point above the start contour per thread
        lnx_flat = log_x0 - rng.standard_exponential(n)
        counts = np.ones(n, dtype=np.int64)
    else:
        span = log_x0 - log_x_from_log_likelihood(m, end_log_l)
        depth = _ensure_depth(rng, n, None, span + 40.0)
        cross = (depth > span).argmax(axis=1)  # first point past the end
        counts = cross + (0 if censor_at_end else 1)
        keep = np.arange(depth.shape[1])[None, :] < counts[:, None]
        lnx_flat = log_x0 - depth[keep]

    if lnx_flat.size:
        cm = get_contour_map(m, float(lnx_flat.min()) - 1.0)
        lnl_flat, radius_flat = cm.log_l_and_radius(
            np.minimum(lnx_flat, cm.log_x_top))
    else:
        lnl_flat = radius_flat = lnx_flat
    theta_flat = radius_flat * sample_beta_first_coordinate(
        m.d, rng, size=lnx_flat.shape)

    # every thread is a slice of the flat arrays; a point is born on its
    # predecessor's contour, a thread's first point on the start contour
    ends = counts.cumsum()
    starts = ends - counts
    birth_flat = np.empty_like(lnl_flat)
    birth_flat[1:] = lnl_flat[:-1]
    birth_flat[starts[counts > 0]] = start_log_l
    open_end = end_log_l if censor_at_end else None
    return [Thread(thread_id=tid, start_log_l=start_log_l,
                   log_l=lnl_flat[a:b], birth_log_l=birth_flat[a:b],
                   theta1=theta_flat[a:b], radius=radius_flat[a:b],
                   true_log_x=lnx_flat[a:b], open_end_log_l=open_end)
            for tid, (a, b) in enumerate(zip(starts.tolist(), ends.tolist()))]


def _ensure_depth(rng, n: int, depth: np.ndarray | None, target: float):
    """Per-thread cumulative -ln X samples covering depth >= target."""
    if depth is None:
        k0 = int(target + 12.0 * math.sqrt(max(target, 1.0)) + 16.0)
        depth = rng.standard_exponential((n, k0)).cumsum(axis=1)
    top_ups = 0
    while (depth[:, -1] < target).any():
        if top_ups == MAX_TOP_UPS:
            raise RuntimeError(
                f"_ensure_depth: depth {target:g} not reached after "
                f"MAX_TOP_UPS = {MAX_TOP_UPS} blocks of shrinkage draws")
        top_ups += 1
        short = float(np.max(target - depth[:, -1]))
        k = int(short + 8.0 * math.sqrt(max(short, 1.0)) + 16.0)
        block = np.cumsum(rng.standard_exponential((n, k)), axis=1)
        depth = np.concatenate([depth, depth[:, -1:] + block], axis=1)
    return depth


def _resolve_rng(rng) -> tuple[np.random.Generator, int | None]:
    """(generator, seed the run records) for a sampler's rng argument: an
    int seed, a SeedSequence or None goes through np.random.default_rng,
    and only an int is recorded; a bool, a string or any other number
    raises TypeError, and any other value is the generator itself and
    records none."""
    if isinstance(rng, numbers.Integral) and not isinstance(rng, bool):
        return np.random.default_rng(rng), int(rng)
    if rng is None or isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng), None
    if isinstance(rng, (numbers.Number, np.bool_, str, bytes)):
        raise TypeError("rng must be an int seed, a SeedSequence, None or "
                        f"a generator, not a {type(rng).__name__}")
    return rng, None


def standard_run(m: ModelSpec, cfg: SamplerConfig, rng=None) -> NestedRun:
    """Constant-count nested sampling run drawn from rng, an int seed (which
    the run records), None or a generator (_resolve_rng)."""
    rng, seed = _resolve_rng(rng)
    n = cfg.n_live
    floor = sampling_log_x_floor(m, n)
    depth = None
    for _ in range(MAX_DEEPENINGS + 1):
        depth = _ensure_depth(rng, n, depth, -floor)
        out = _assemble(m, cfg, rng, depth, floor, seed)
        if out is not None:
            return out
        floor -= 15.0  # termination not reached in covered depth; go deeper
    raise RuntimeError(
        f"standard_run: termination not reached after {MAX_DEEPENINGS} "
        f"deepenings of the draw floor (to ln X = {floor + 15.0:g})")


def _assemble(m: ModelSpec, cfg: SamplerConfig, rng, depth: np.ndarray,
              floor: float, seed: int | None) -> NestedRun | None:
    n = cfg.n_live
    usable = depth <= -floor
    counts = usable.sum(axis=1)
    if np.any(counts == 0):
        return None
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])
    lnx_flat = -depth[usable]  # row-major: per-thread chain order preserved
    tid_flat = np.repeat(np.arange(n, dtype=np.int64), counts)
    seq_flat = np.arange(total) - np.repeat(offsets[:-1], counts)

    order = np.argsort(-lnx_flat, kind="stable")
    lnx_s = lnx_flat[order]
    tid_s = tid_flat[order]
    cm = get_contour_map(m, floor)
    lnl_s = np.asarray(cm.log_l(np.minimum(lnx_s, cm.log_x_top)))
    lnl_flat = np.empty(total)
    lnl_flat[order] = lnl_s
    # next point in the same thread (the value a death hands to the live set)
    next_flat = np.full(total, np.nan)
    has_next = seq_flat < np.repeat(counts, counts) - 1
    idx = np.flatnonzero(has_next)
    next_flat[idx] = lnl_flat[idx + 1]
    next_s = next_flat[order]

    k_term = _termination_index(lnl_s, next_s, lnl_flat, tid_s, offsets,
                                counts, n)
    if k_term is None:
        return None

    # live set at the termination step
    live_idx = _first_from(tid_s, offsets, counts, k_term + 1)
    if live_idx is None:
        return None  # thread exhausted before termination cleared it

    dead = order[:k_term + 1]
    birth_flat = np.where(seq_flat == 0, -np.inf,
                          lnl_flat[np.maximum(np.arange(total) - 1, 0)])
    if cfg.keep_final_live:
        tail = live_idx[np.argsort(-lnx_flat[live_idx], kind="stable")]
        keep = np.concatenate([dead, tail])
        open_kwargs = {}
    else:
        keep = dead
        last_dead = np.where(live_idx - offsets[:n] > 0,
                             lnl_flat[np.maximum(live_idx - 1, 0)], -np.inf)
        terminal = float(lnl_s[k_term])
        open_kwargs = dict(
            open_birth_log_l=last_dead,
            open_end_log_l=np.full(n, terminal),
            open_thread_id=np.arange(n, dtype=np.int64))
    lnx_keep = lnx_flat[keep]
    radius = np.asarray(cm.radius(np.minimum(lnx_keep, cm.log_x_top)))
    theta1 = radius * sample_beta_first_coordinate(m.d, rng, size=keep.size)
    prov = RunProvenance(algorithm="standard", seed=seed,
                         init_thread_ids=tuple(range(n)))
    return NestedRun(m, lnl_flat[keep], birth_flat[keep], theta1, radius,
                     lnx_keep, tid_flat[keep], provenance=prov, **open_kwargs)


def _first_from(tid_s, offsets, counts, k: int) -> np.ndarray | None:
    """Flat index of each thread's first point at merged position k or
    later, or None when some thread has no point there.  A thread's points
    keep their chain order in the merge, so the first k merged points hold
    the first few of each thread."""
    j = np.bincount(tid_s[:k], minlength=counts.shape[0])
    if (j >= counts).any():
        return None
    return offsets[:-1] + j


def _termination_index(lnl_s, next_s, lnl_flat, tid_s, offsets, counts,
                       n) -> int | None:
    """First step where mean-live-likelihood evidence drops below
    TERMINATION_FRACTION of dead evidence, or None if not reached."""
    total = lnl_s.shape[0]
    steps = np.arange(total)
    ln_dx = -steps / n + math.log(-math.expm1(-1.0 / n))  # X_{k-1} - X_k
    ln_dead = np.logaddexp.accumulate(lnl_s + ln_dx)
    ln_x_after = -(steps + 1.0) / n
    rhs = math.log(TERMINATION_FRACTION) + ln_dead
    # each death removes the minimum of the live set, so the live maximum is
    # a running max over inserted successors; the mean lies within a factor
    # n of it.  Bracket the crossing with those bounds, then evaluate the
    # exact mean only inside the window.
    m0 = float(lnl_flat[offsets[:-1]].max())  # initial live maximum
    nan_next = np.isnan(next_s)
    k_nan = int(np.argmax(nan_next)) if nan_next.any() else total
    max_live = np.maximum.accumulate(
        np.maximum(np.where(nan_next, -np.inf, next_s), m0))
    upper = max_live + ln_x_after - rhs
    lower = upper - math.log(n)
    hit_hi = upper < 0.0
    hit_hi[k_nan:] = False  # max_live is only exact while no thread exhausted
    if not hit_hi.any():
        return None
    k_hi = int(np.argmax(hit_hi))
    hit_lo = lower < 0.0
    k_lo = int(np.argmax(hit_lo)) if hit_lo.any() else k_hi
    scale = float(max_live[k_hi])
    # live sum just before the window, added in thread order
    live_idx = _first_from(tid_s, offsets, counts, k_lo)
    if live_idx is None:
        return None
    live0 = 0.0
    for x in (lnl_flat[live_idx] - scale).tolist():
        live0 += math.exp(x)
    win = slice(k_lo, k_hi + 1)
    gain = np.exp(next_s[win] - scale) - np.exp(lnl_s[win] - scale)  # >= 0
    live_sum = live0 + np.cumsum(gain)
    lhs = np.log(live_sum) + scale - math.log(n) + ln_x_after[win]
    ok = lhs < rhs[win]
    # the upper bound already crossed at k_hi, so the exact scan must hit
    return k_lo + int(np.argmax(ok)) if ok.any() else k_hi
