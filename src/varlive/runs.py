"""Nested sampling run containers and the count/volume/weight machinery.

A run is a likelihood-sorted sequence of dead points, each tagged with the
contour it was born inside (birth_log_l) and a thread label.  Live point
counts are never stored: they are derived from the birth/death contours by a
sweep, which is what makes runs combinable by simple concatenation.

The (log_l, thread_id, arrival) order is the run's own: NestedRun sorts
points that break it, so a valid run built from its points in any order is
the same run, and no caller says whether its points are sorted.

Runs may additionally carry censored alive-intervals: (birth, end] likelihood
ranges through which a thread was alive but whose terminal point is not part
of the recorded sequence.  A standard run that discards its final live points
records one such interval per live point, keeping the derived counts equal to
n everywhere; the profile-targeted dynamic sampler uses them for threads cut
at a target contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import ModelSpec, as_float, as_int

__all__ = [
    "RunProvenance",
    "NestedRun",
    "Thread",
    "live_point_counts",
    "log_prior_volumes",
    "point_log_weights",
    "posterior_weights",
    "combine_runs",
    "combine_threads",
    "split_into_threads",
    "thread_index",
]


# how a dynamic run weighted its points (`dynamic.GoalConfig`)
IMPORTANCE_VARIANTS = ("standard", "exact", "tuned")


@dataclass(frozen=True)
class RunProvenance:
    """Where a run came from; init_thread_ids marks the constant-count seed
    threads of a dynamic run (needed for class-preserving bootstrap)."""

    algorithm: str = "unknown"
    seed: int | None = None
    n_init: int | None = None
    goal_g: float | None = None
    sample_budget: int | None = None
    importance_variant: str | None = None
    init_thread_ids: tuple[int, ...] | None = None

    def to_dict(self):
        out = {"algorithm": self.algorithm}
        for key in ("seed", "n_init", "goal_g", "sample_budget", "importance_variant"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.init_thread_ids is not None:
            out["init_thread_ids"] = list(self.init_thread_ids)
        return out

    @classmethod
    def from_dict(cls, data):
        def field(key, convert):
            val = data.get(key)
            return None if val is None else convert(val, f"provenance {key}")
        ids = data.get("init_thread_ids")
        algorithm = data.get("algorithm", "unknown")
        if not isinstance(algorithm, str):
            raise ValueError("provenance algorithm must be a string, "
                             f"got {algorithm!r}")
        variant = data.get("importance_variant")
        if variant is not None and variant not in IMPORTANCE_VARIANTS:
            raise ValueError("provenance importance_variant must be one of "
                             f"{IMPORTANCE_VARIANTS}, got {variant!r}")
        return cls(
            algorithm=algorithm,
            seed=field("seed", as_int),
            n_init=field("n_init", as_int),
            goal_g=field("goal_g", as_float),
            sample_budget=field("sample_budget", as_int),
            importance_variant=variant,
            init_thread_ids=None if ids is None else tuple(
                as_int(i, "init thread id") for i in ids),
        )


_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)
_LOG_HALF = float(np.log(0.5))
_THREADS_PROVENANCE = RunProvenance(algorithm="combined", init_thread_ids=())


class NestedRun:
    """Immutable likelihood-sorted run over one model.

    Points are kept as parallel arrays (log_l, birth_log_l, theta1, radius,
    true_log_x, thread_id), sorted ascending by log_l with ties broken by
    (thread_id, arrival order); points already in that order are kept as
    given.  true_log_x is the generator's actual volume, carried for
    diagnostics only; estimators never read it.
    """

    __slots__ = ("model", "log_l", "birth_log_l", "theta1", "radius",
                 "true_log_x", "thread_id", "open_birth_log_l",
                 "open_end_log_l", "open_thread_id", "provenance")

    def __init__(self, model: ModelSpec, log_l, birth_log_l, theta1, radius,
                 true_log_x, thread_id, *, open_birth_log_l=None,
                 open_end_log_l=None, open_thread_id=None,
                 provenance: RunProvenance | None = None):
        log_l = np.ascontiguousarray(log_l, dtype=np.float64)
        birth_log_l = np.ascontiguousarray(birth_log_l, dtype=np.float64)
        theta1 = np.ascontiguousarray(theta1, dtype=np.float64)
        radius = np.ascontiguousarray(radius, dtype=np.float64)
        true_log_x = np.ascontiguousarray(true_log_x, dtype=np.float64)
        thread_id = np.ascontiguousarray(thread_id, dtype=np.int64)
        n = log_l.shape[0]
        for arr in (birth_log_l, theta1, radius, true_log_x, thread_id):
            if arr.shape != (n,):
                raise ValueError("point arrays must share one length")
        if not np.isfinite(log_l).all():
            raise ValueError("every point must have a finite log_l")
        if (log_l <= birth_log_l).any():
            raise ValueError("every point must lie strictly above its birth contour")
        if n > 1 and _out_of_order(log_l, thread_id):
            # the stable order is the (log_l, thread_id, arrival) order
            # unless thread_id falls inside some tie group; timsort merges
            # sorted parts in linear time
            order = log_l.argsort(kind="stable")
            sorted_l = log_l[order]
            sorted_tid = thread_id[order]
            if _out_of_order(sorted_l, sorted_tid):
                order = np.lexsort((thread_id, log_l))
                sorted_l = log_l[order]
                sorted_tid = thread_id[order]
            log_l = sorted_l
            birth_log_l = birth_log_l[order]
            theta1 = theta1[order]
            radius = radius[order]
            true_log_x = true_log_x[order]
            thread_id = sorted_tid
        self.model = model
        self.log_l = log_l
        self.birth_log_l = birth_log_l
        self.theta1 = theta1
        self.radius = radius
        self.true_log_x = true_log_x
        self.thread_id = thread_id
        if open_birth_log_l is None:
            self.open_birth_log_l = _EMPTY_F
            self.open_end_log_l = _EMPTY_F
            self.open_thread_id = _EMPTY_I
        else:
            ob = np.ascontiguousarray(open_birth_log_l, dtype=np.float64)
            oe = np.ascontiguousarray(open_end_log_l, dtype=np.float64)
            ot = np.ascontiguousarray(open_thread_id, dtype=np.int64)
            if not (ob.shape == oe.shape == ot.shape):
                raise ValueError("open-interval arrays must share one length")
            if (oe < ob).any():
                raise ValueError("open intervals must have end >= birth")
            keep = oe > ob  # (b, b] covers nothing; drop silently
            if not keep.all():
                ob, oe, ot = ob[keep], oe[keep], ot[keep]
            self.open_birth_log_l = ob
            self.open_end_log_l = oe
            self.open_thread_id = ot
        self.provenance = provenance if provenance is not None else RunProvenance()

    def __len__(self):
        return self.log_l.shape[0]

    @property
    def n_open(self) -> int:
        return self.open_birth_log_l.shape[0]

    def with_provenance(self, provenance: RunProvenance) -> "NestedRun":
        return NestedRun(self.model, self.log_l, self.birth_log_l, self.theta1,
                         self.radius, self.true_log_x, self.thread_id,
                         open_birth_log_l=self.open_birth_log_l,
                         open_end_log_l=self.open_end_log_l,
                         open_thread_id=self.open_thread_id,
                         provenance=provenance)

    def validate(self) -> None:
        """Full invariant check; O(N log N), meant for tests and ingestion."""
        if np.any(self.radius < 0.0):
            raise ValueError("negative radius")
        if np.any(np.abs(self.theta1) > self.radius):
            raise ValueError("theta1 outside [-radius, radius]")
        # per-thread chains: strictly increasing log_l, birth linkage
        _, rows, offsets, open_pos = thread_index(self)
        tid = self.thread_id[rows]
        ll = self.log_l[rows]
        bb = self.birth_log_l[rows]
        same = tid[1:] == tid[:-1]
        if np.any(same & (ll[1:] <= ll[:-1])):
            raise ValueError("thread log_l chain not strictly increasing")
        if np.any(same & (bb[1:] != ll[:-1])):
            raise ValueError("thread birth does not link to predecessor")
        # censored intervals continue their thread's last recorded point
        has = (open_pos >= 0) & (offsets[1:] > offsets[:-1])
        if np.any(self.open_birth_log_l[open_pos[has]]
                  != ll[offsets[1:][has] - 1]):
            raise ValueError("open interval does not continue its thread")
        if np.any(live_point_counts(self) < 1):
            raise ValueError("orphan sample with zero live count")


def _out_of_order(log_l: np.ndarray, thread_id: np.ndarray) -> bool:
    """Whether points break the (log_l, thread_id) order: log_l falls
    somewhere, or thread ids fall inside some tie group of log_l."""
    prev, nxt = log_l[:-1], log_l[1:]
    if (nxt < prev).any():
        return True
    tie = nxt == prev
    return bool(tie.any()
                and (thread_id[1:][tie] < thread_id[:-1][tie]).any())


@dataclass(frozen=True)
class Thread:
    """One live point's trajectory: a chain of points from a start contour,
    optionally censored at open_end_log_l (alive through that contour but
    its next point unrecorded)."""

    thread_id: int
    start_log_l: float
    log_l: np.ndarray
    birth_log_l: np.ndarray
    theta1: np.ndarray
    radius: np.ndarray
    true_log_x: np.ndarray
    open_end_log_l: float | None = None

    def __len__(self):
        return self.log_l.shape[0]

    def to_run(self, model: ModelSpec) -> NestedRun:
        return combine_threads(model, [self])


def live_point_counts(run: NestedRun) -> np.ndarray:
    """n_i at each recorded point: threads born strictly below L_i and not
    yet dead there, plus censored intervals alive through L_i."""
    n = len(run)
    if n == 0:
        return _EMPTY_I.copy()
    births = run.birth_log_l.copy()
    births.sort()
    # points strictly below L_i: the first index of L_i's value in log_l
    deaths_below = np.arange(n)
    tie = run.log_l[1:] == run.log_l[:-1]
    if tie.any():
        deaths_below[1:][tie] = 0
        np.maximum.accumulate(deaths_below, out=deaths_below)
    counts = births.searchsorted(run.log_l, side="left")
    counts -= deaths_below
    if run.n_open:
        ob = np.sort(run.open_birth_log_l)
        oe = np.sort(run.open_end_log_l)
        counts += ob.searchsorted(run.log_l, side="left")
        counts -= oe.searchsorted(run.log_l, side="left")
    return counts.astype(np.int64, copy=False)


def log_prior_volumes(run: NestedRun) -> np.ndarray:
    """E[ln X_i] = -sum_{k<=i} 1/n_k (deterministic expectation, no sampled
    shrinkage ratios)."""
    counts = live_point_counts(run)
    if counts.shape[0] == 0:
        return _EMPTY_F.copy()
    return -np.cumsum(1.0 / counts)


def point_log_weights(run: NestedRun) -> np.ndarray:
    """ln of the trapezium weights w_i = (X_{i-1} - X_{i+1})/2, with X_0 = 1
    and X_{N+1} = 0."""
    if len(run) == 0:
        raise ValueError("weights of an empty run are undefined")
    return _log_weights(live_point_counts(run))


def _log_weights(counts: np.ndarray) -> np.ndarray:
    """point_log_weights from a nonempty run's live counts."""
    # ln X_0 = 0, ln X_1 .. ln X_N, ln X_{N+1} = -inf
    lnx = np.empty(counts.shape[0] + 2)
    lnx[0] = 0.0
    lnx[-1] = -np.inf
    np.cumsum(1.0 / counts, out=lnx[1:-1])
    np.negative(lnx[1:-1], out=lnx[1:-1])
    prev = lnx[:-2]
    nxt = lnx[2:]
    # w = (X_prev - X_next)/2 = X_prev (1 - e^(nxt - prev)) / 2; nxt < prev
    return _LOG_HALF + prev + np.log1p(-np.exp(nxt - prev))


def posterior_weights(run: NestedRun) -> np.ndarray:
    """Simplex weights p_i proportional to w_i L_i; sums to exactly 1."""
    return _normalised_weights(point_log_weights(run) + run.log_l)


def _normalised_weights(lw: np.ndarray) -> np.ndarray:
    """posterior_weights from ln(w_i L_i)."""
    mx = lw.max()
    if not math.isfinite(mx):
        raise ValueError("all posterior weights are zero")
    p = np.exp(lw - mx)
    p /= p.sum()
    return p


def combine_runs(runs: Sequence[NestedRun]) -> NestedRun:
    """Merge runs over one model; counts of the result are the pointwise sum
    of the constituents' counts at every likelihood.  Thread ids are
    relabelled to be disjoint, each run's above the previous run's.

    Every run is sorted, so merging them one after another into the sorted
    result gives the stable sort of their concatenated points in linear
    time.  Relabelled ids rise from run to run, so that merge is already in
    (log_l, thread_id) order, and NestedRun keeps it as it is."""
    runs = list(runs)
    if not runs:
        raise ValueError("nothing to combine")
    model = runs[0].model
    for r in runs[1:]:
        if r.model is not model and r.model != model:
            raise ValueError("cannot combine runs over different models")
    open_parts = []
    merged = None
    offset = 0
    all_init: list[int] = []
    have_init = True
    for r in runs:
        ids = [a for a in (r.thread_id, r.open_thread_id) if a.size]
        shift = offset
        if ids:
            shift -= min([int(a.min()) for a in ids])
            offset = max([int(a.max()) for a in ids]) + shift + 1
        prov_ids = r.provenance.init_thread_ids
        if prov_ids is None:
            have_init = False
        elif have_init:
            all_init.extend([int(i) + shift for i in prov_ids])
        part = (r.log_l, r.birth_log_l, r.theta1, r.radius, r.true_log_x,
                r.thread_id + shift)
        merged = part if merged is None else _merge_sorted(merged, part)
        if r.n_open:
            open_parts.append((r, shift))
    open_kwargs = {}
    if open_parts:
        open_kwargs = dict(
            open_birth_log_l=np.concatenate(
                [r.open_birth_log_l for r, _ in open_parts]),
            open_end_log_l=np.concatenate(
                [r.open_end_log_l for r, _ in open_parts]),
            open_thread_id=np.concatenate(
                [r.open_thread_id + s for r, s in open_parts]))
    prov = RunProvenance(
        algorithm="combined",
        init_thread_ids=tuple(all_init) if have_init else None)
    return NestedRun(model, *merged, provenance=prov, **open_kwargs)


def _merge_sorted(a, b):
    """Point columns (log_l first) of two likelihood-sorted point sets,
    merged stably: among equal log_l, a's points come first."""
    pos_b = a[0].searchsorted(b[0], side="right")
    pos_b += np.arange(b[0].shape[0])
    from_a = np.ones(a[0].shape[0] + b[0].shape[0], dtype=bool)
    from_a[pos_b] = False
    out = []
    for col_a, col_b in zip(a, b):
        col = np.empty(from_a.shape[0], dtype=col_a.dtype)
        col[from_a] = col_a
        col[pos_b] = col_b
        out.append(col)
    return out


def combine_threads(model: ModelSpec, threads: Sequence[Thread]) -> NestedRun:
    """One run from threads, relabelled 0..k-1 in list order.  A censored
    thread stays open from its last point (its start contour when it has
    none) through its open_end_log_l.  The run carries an empty initial-
    thread set, so combining it onto a run keeps that run's initial ids."""
    threads = list(threads)
    arrays = [(th.log_l, th.birth_log_l, th.theta1, th.radius, th.true_log_x)
              for th in threads]
    log_l, birth, theta1, radius, tlx = (
        [np.concatenate([_EMPTY_F, *col]) for col in zip(*arrays)]
        if threads else [_EMPTY_F] * 5)
    tid = np.repeat(np.arange(len(threads), dtype=np.int64),
                    [a[0].shape[0] for a in arrays])
    censored = [k for k, th in enumerate(threads)
                if th.open_end_log_l is not None]
    open_kwargs = {}
    if censored:
        open_kwargs = dict(
            open_birth_log_l=[threads[k].log_l[-1] if len(threads[k])
                              else threads[k].start_log_l for k in censored],
            open_end_log_l=[threads[k].open_end_log_l for k in censored],
            open_thread_id=censored)
    return NestedRun(model, log_l, birth, theta1, radius, tlx, tid,
                     provenance=_THREADS_PROVENANCE, **open_kwargs)


def thread_index(run: NestedRun):
    """How a run splits into threads, as index arrays (ids, rows, offsets,
    open_pos):

    ids       thread ids in ascending order, point-free censored ones included
    rows      the point rows ordered by (thread, log_l)
    offsets   thread k's rows are rows[offsets[k]:offsets[k + 1]]
    open_pos  position of thread k's open interval, -1 when it has none

    Raises ValueError for a negative thread id or for a thread with more
    than one open interval."""
    # np.unique by hand: numpy's imports numpy.ma (about 10 ms) on first use
    ids = np.sort(np.concatenate([run.thread_id, run.open_thread_id]))
    first = np.ones(ids.size, dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ids = ids[first]
    if ids.size and ids[0] < 0:
        raise ValueError("run has unlabelled points")
    rows = np.lexsort((run.log_l, run.thread_id))
    offsets = np.append(np.searchsorted(run.thread_id[rows], ids), len(run))
    open_pos = np.full(ids.size, -1, dtype=np.int64)
    open_pos[np.searchsorted(ids, run.open_thread_id)] = np.arange(run.n_open)
    if np.count_nonzero(open_pos >= 0) != run.n_open:
        raise ValueError("thread has more than one open interval")
    return ids, rows, offsets, open_pos


def split_into_threads(run: NestedRun) -> list[Thread]:
    """Partition a run into its threads (including point-free censored ones),
    ordered by thread id."""
    ids, rows, offsets, open_pos = thread_index(run)
    threads = []
    for k, t in enumerate(ids.tolist()):
        sel = rows[offsets[k]:offsets[k + 1]]
        pos = int(open_pos[k])
        start = run.birth_log_l[sel[0]] if sel.size \
            else run.open_birth_log_l[pos]
        threads.append(Thread(
            thread_id=t, start_log_l=float(start),
            log_l=run.log_l[sel], birth_log_l=run.birth_log_l[sel],
            theta1=run.theta1[sel], radius=run.radius[sel],
            true_log_x=run.true_log_x[sel],
            open_end_log_l=None if pos < 0 else float(run.open_end_log_l[pos])))
    return threads
