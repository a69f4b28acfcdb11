"""Ensemble generation and report builders behind the command-line tools.

An experiment is a model, a list of arms (sampler configurations), a run
count, and a seed.  Generation writes one JSON run file per (arm, run)
plus a deterministic manifest; the report builders read those files back
and emit CSV.  Every random stream is keyed by (purpose, arm, run) off
the root seed, so outputs are identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import PurePath

import numpy as np

from .analysis import (EstimatorId, bootstrap_replicates,
                       efficiency_gain, estimates, estimator_from_key,
                       jackknife_std_sigma, weighted_quantile)
from .dynamic import (AlgorithmOneConfig, AlgorithmTwoConfig, GoalConfig,
                      dynamic_run_algorithm1, dynamic_run_algorithm2)
from .models import (GAUSSIAN, ModelSpec, _coarse_log_x_peak,
                     _log_l_at_radius, analytic_log_evidence, as_float,
                     as_int, as_object, posterior_mass_remaining,
                     relative_posterior_mass)
from .runio import load_run, save_run, write_atomic, write_json
from .runs import NestedRun, live_point_counts
from .sampler import TERMINATION_FRACTION, SamplerConfig, standard_run
from .specialfn import inv_log_reg_lower_inc_gamma

__all__ = [
    "ArmConfig", "ExperimentConfig", "MissingRunsError",
    "config_from_dict", "load_experiment_config", "estimator_truth",
    "generate_ensemble", "load_manifest",
    "compare_report", "alloc_profile_rows", "bootstrap_table_rows",
    "write_csv", "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.json"

# each arm method and the provenance algorithm its sampler writes
_METHODS = {"standard": "standard", "dyn1": "dynamic_alg1",
            "dyn2": "dynamic_alg2"}

# spawn-key stream tags; keep stable so ensembles are reproducible
_STREAM_GENERATE = 0
_STREAM_GAIN = 1
_STREAM_BOOT = 2

# fraction of the matched standard arm's live-point count used when a
# dynamic arm leaves n_init unset
_DEFAULT_INIT_FRACTION = {"dyn1": 0.1, "dyn2": 0.2}

# the settings each method never reads: an arm may leave them at their
# defaults, but a value that differs is refused rather than dropped
_UNREAD = {"standard": ("n_init", "budget", "goal_g", "importance_variant",
                        "n_batch"),
           "dyn1": ("n_live",),
           "dyn2": ("n_live", "n_batch")}


@dataclass(frozen=True)
class ArmConfig:
    """One sampler configuration inside an experiment.

    Dynamic arms may leave budget unset, in which case it is matched to
    the mean realized sample count of the arm named by gain_vs; n_init
    left unset defaults to a fixed fraction of that arm's n_live (10%
    for the iterative scheduler, 20% for the single-pass one).
    """

    name: str
    method: str
    n_live: int | None = None
    n_init: int | None = None
    budget: int | None = None
    goal_g: float = 0.0
    importance_variant: str = "standard"
    gain_vs: str | None = None
    n_batch: int = 1

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or "/" in self.name \
                or self.name != self.name.strip():
            raise ValueError(f"bad arm name {self.name!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        unread = [k for k in _UNREAD[self.method]
                  if getattr(self, k) != self.__dataclass_fields__[k].default]
        if unread:
            raise ValueError(f"arm {self.name!r}: a {self.method} arm does "
                             f"not read {unread}")
        if self.method == "standard" and self.n_live is None:
            raise ValueError("standard arms need n_live")
        if self.method != "standard" and self.n_init is None \
                and self.gain_vs is None:
            raise ValueError("dynamic arms need n_init or a gain_vs arm to derive it")

    @classmethod
    def from_dict(cls, data: dict) -> "ArmConfig":
        as_object(data, "arm", ("name", "method"))
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown arm keys: {sorted(extra)}")
        data = _typed_fields(cls, data, as_int, (
            "n_live", "n_init", "budget", "n_batch"), "arm")
        return cls(**_typed_fields(cls, data, as_float, ("goal_g",), "arm"))


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    arms: tuple[ArmConfig, ...]
    n_runs: int
    seed: int
    estimators: tuple[EstimatorId, ...]
    workers: int = 1
    gain_boot: int = 1000
    bootstrap_reps: int = 200
    profile_arm: str | None = None
    profile_runs: int = 5
    table_arm: str | None = None

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.arms:
            raise ValueError("experiment needs at least one arm")
        if not self.estimators:
            raise ValueError("experiment needs at least one estimator")
        if self.gain_boot < 2 or self.bootstrap_reps < 2:
            raise ValueError("gain_boot and bootstrap_reps must be >= 2")
        if self.profile_runs < 1:
            raise ValueError("profile_runs must be >= 1")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise ValueError("arm names must be unique")
        for i, arm in enumerate(self.arms):
            if arm.gain_vs is not None and arm.gain_vs not in names:
                raise ValueError(f"arm {arm.name!r} references unknown arm {arm.gain_vs!r}")
            if arm.gain_vs == arm.name:
                raise ValueError(f"arm {arm.name!r} cannot reference itself")
            if arm.method != "standard" and arm.budget is None \
                    and arm.gain_vs not in names[:i]:
                raise ValueError(
                    f"arm {arm.name!r} needs an explicit budget or must come "
                    f"after its gain_vs arm {arm.gain_vs!r}")
            # the arm's settings are checked here by the code generate runs,
            # so a bad one fails before any run file is written; a budget
            # left to the gain_vs arm is checked as 1, the least mean sample
            # count a run can have
            try:
                resolved = _resolve_arm(self, arm, dict.fromkeys(names, 1))
                _arm_sampler(resolved)
                if arm.method == "dyn2" and arm.budget is not None:
                    _check_initial_run_fits(self.model, resolved)
            except ValueError as exc:
                raise ValueError(f"arm {arm.name!r}: {exc}") from None
        for key in ("profile_arm", "table_arm"):
            focus = getattr(self, key)
            if focus is not None and focus not in names:
                raise ValueError(f"{key} {focus!r} names no arm")

    def arm(self, name: str) -> ArmConfig:
        for a in self.arms:
            if a.name == name:
                return a
        raise KeyError(name)


def _typed_fields(cls, data: dict, convert, keys, where: str) -> dict:
    """data with each of keys that it holds passed through convert (as_int
    or as_float), so a bool, a string or a fractional count fails here and
    not inside a sampler; None stays only where the field's default is None
    (unset)."""
    out = dict(data)
    for key in keys:
        if key in out and not (out[key] is None
                               and cls.__dataclass_fields__[key].default is None):
            out[key] = convert(out[key], f"{where} {key}")
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    as_object(data, "experiment config",
              ("model", "arms", "n_runs", "seed", "estimators"))
    extra = set(data) - set(ExperimentConfig.__dataclass_fields__)
    if extra:
        raise ValueError(f"unknown experiment keys: {sorted(extra)}")
    data = _typed_fields(ExperimentConfig, data, as_int, (
        "n_runs", "seed", "workers", "gain_boot", "bootstrap_reps",
        "profile_runs"), "experiment")
    model = ModelSpec.from_dict(data.pop("model"))
    arms = tuple(ArmConfig.from_dict(a)
                 for a in _as_list(data.pop("arms"), "experiment arms"))
    keys = _as_list(data.pop("estimators"), "experiment estimators")
    for key in keys:
        if not isinstance(key, str):
            raise ValueError(f"estimator key {key!r} is not a string")
    estimators = tuple(map(estimator_from_key, keys))
    return ExperimentConfig(model=model, arms=arms, estimators=estimators, **data)


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# analytic truths for the error analysis


def estimator_truth(m: ModelSpec, eid: EstimatorId) -> float | None:
    """Exact value of an estimator's target, or None when no closed form
    is wired up for the family."""
    if eid.kind == "log_z":
        return analytic_log_evidence(m)
    if eid.kind in ("mean_theta1", "median_theta1"):
        return 0.0
    if m.family != GAUSSIAN:
        return None
    # posterior of a unit-width likelihood under a centred Gaussian prior
    # is Gaussian with variance sigma_pi^2 / (1 + sigma_pi^2)
    var = m.sigma_pi ** 2 / (1.0 + m.sigma_pi ** 2)
    sig = math.sqrt(var)
    if eid.kind == "second_moment_theta1":
        return var
    if eid.kind == "credible_theta1":
        q = eid.q
        if q == 0.5:
            return 0.0
        half_width = math.sqrt(2.0 * inv_log_reg_lower_inc_gamma(
            0.5, math.log(abs(2.0 * q - 1.0))))
        return sig * half_width if q > 0.5 else -sig * half_width
    if eid.kind == "mean_radius":
        d = m.d
        return sig * math.sqrt(2.0) * math.exp(math.lgamma(0.5 * (d + 1)) - math.lgamma(0.5 * d))
    if eid.kind == "median_radius":
        return sig * math.sqrt(2.0 * inv_log_reg_lower_inc_gamma(
            0.5 * m.d, math.log(0.5)))
    raise ValueError(f"unknown estimator kind {eid.kind!r}")


# ---------------------------------------------------------------------------
# generation


def _arm_n_init(config: ExperimentConfig, arm: ArmConfig) -> int:
    """A dynamic arm's n_init: its own, or the default fraction of its
    gain_vs arm's n_live."""
    if arm.n_init is not None:
        return arm.n_init
    ref = config.arm(arm.gain_vs)
    if ref.method != "standard":
        raise ValueError("n_init can only default off a standard arm")
    return max(1, round(_DEFAULT_INIT_FRACTION[arm.method] * ref.n_live))


def _resolve_arm(config: ExperimentConfig, arm: ArmConfig,
                 realized_mean: dict[str, float]) -> dict:
    """The arm's name and settings as a plain picklable dict, with n_init
    and budget filled in; a budget left unset is the mean sample count of
    the gain_vs arm in realized_mean."""
    base = {"name": arm.name, "method": arm.method}
    if arm.method == "standard":
        base["n_live"] = int(arm.n_live)
        return base
    budget = arm.budget
    if budget is None:
        budget = int(round(realized_mean[arm.gain_vs]))
    base.update(n_init=int(_arm_n_init(config, arm)), budget=int(budget),
                goal_g=float(arm.goal_g),
                importance_variant=arm.importance_variant,
                n_batch=int(arm.n_batch))
    return base


def _stream(entropy: int, spawn_key: tuple) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy,
                                                        spawn_key=spawn_key))


def _arm_sampler(resolved: dict) -> tuple:
    """(sampler, configs) for an arm resolved by _resolve_arm: the sampler
    function and the config objects it takes after the model, whose
    constructors check every setting's range."""
    method = resolved["method"]
    if method == "standard":
        return standard_run, (SamplerConfig(n_live=resolved["n_live"]),)
    goal = GoalConfig(goal_g=resolved["goal_g"],
                      importance_variant=resolved["importance_variant"])
    if method == "dyn1":
        return dynamic_run_algorithm1, (goal, AlgorithmOneConfig(
            n_init=resolved["n_init"], sample_budget=resolved["budget"],
            n_batch=resolved["n_batch"]))
    return dynamic_run_algorithm2, (goal, AlgorithmTwoConfig(
        n_init=resolved["n_init"], total_budget=resolved["budget"]))


def _check_initial_run_fits(m: ModelSpec, resolved: dict) -> None:
    """ValueError for a dyn2 budget below n_init |ln X_peak| / 2: half the
    points a standard run of n_init live points takes to reach the
    posterior's mode in ln X (_coarse_log_x_peak).  The half leaves room
    for exp_power d=1000, whose initial runs at n_init 2 (7 299-7 728
    points over 40 seeds) barely pass n_init |ln X_peak| = 7 414."""
    n_init, budget = resolved["n_init"], resolved["budget"]
    depth = abs(_coarse_log_x_peak(m))
    if budget < 0.5 * n_init * depth:
        raise ValueError(
            f"budget {budget} is below n_init {n_init} x |ln X_peak| "
            f"{depth:.4g} / 2, half the points its initial run takes to "
            "reach the posterior's mode")


def _sample_run(m: ModelSpec, resolved: dict, seed: int, arm_index: int,
                run_index: int) -> NestedRun:
    """Run run_index of an arm resolved by _resolve_arm, drawn from the
    stream (seed, (0, arm_index, run_index))."""
    sampler, configs = _arm_sampler(resolved)
    return sampler(m, *configs,
                   _stream(seed, (_STREAM_GENERATE, arm_index, run_index)))


def _arm_rows(config: ExperimentConfig, task, arm_args):
    """Yields (arm, resolved settings, rows, mean sample count) for each arm
    in order.  The rows are task(config.model, resolved, config.seed,
    arm_index, run_index, *arm_args(arm)) for each run, over a process pool
    when config.workers > 1; each holds its run's sample count as "n", and
    their mean sets the budget of a later arm that leaves it to this one."""
    realized_mean: dict[str, float] = {}
    for arm_index, arm in enumerate(config.arms):
        resolved = _resolve_arm(config, arm, realized_mean)
        extra = arm_args(arm)
        tasks = [(config.model, resolved, config.seed, arm_index, j, *extra)
                 for j in range(config.n_runs)]
        if config.workers > 1:
            # imported here: concurrent.futures and multiprocessing add to
            # the start-up of every process that never uses a pool
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                rows = list(pool.map(task, *zip(*tasks)))
        else:
            rows = [task(*t) for t in tasks]
        realized_mean[arm.name] = float(np.mean([r["n"] for r in rows]))
        yield arm, resolved, rows, realized_mean[arm.name]


def _generate_one(m: ModelSpec, resolved: dict, seed: int, arm_index: int,
                  run_index: int, out_dir: str) -> dict:
    """Samples one run and saves it under out_dir; returns its sample count
    and its path relative to out_dir."""
    run = _sample_run(m, resolved, seed, arm_index, run_index)
    os.makedirs(os.path.join(out_dir, resolved["name"]), exist_ok=True)
    rel = os.path.join(resolved["name"], f"run_{run_index:05d}.json")
    save_run(run, os.path.join(out_dir, rel))
    return {"n": len(run), "path": rel}


def _manifest(config: ExperimentConfig, arm_records) -> dict:
    """The manifest of config's ensemble whose i-th arm ran the (path,
    n_samples) run records arm_records[i], numbered by position, its budgets
    resolved as _arm_rows resolves them; an arm with no records (one a
    manifest lacks) gets mean_samples 0."""
    realized_mean: dict[str, float] = {}
    arms = []
    for arm, recs in zip(config.arms, arm_records):
        resolved = _resolve_arm(config, arm, realized_mean)
        realized_mean[arm.name] = float(np.mean([n for _, n in recs] or [0]))
        arms.append({**resolved, "termination_fraction": TERMINATION_FRACTION,
                     "mean_samples": realized_mean[arm.name],
                     "gain_vs": arm.gain_vs,
                     "runs": [{"index": j, "path": path, "n_samples": n}
                              for j, (path, n) in enumerate(recs)]})
    return {"version": 1, "seed": config.seed, "n_runs": config.n_runs,
            "model": config.model.to_dict(), "arms": arms}


def generate_ensemble(config: ExperimentConfig, out_dir: str) -> dict:
    """Write every run file plus the manifest _manifest builds; returns it.

    The manifest is byte-identical across repeats and worker counts
    (config.workers) for a fixed config: no timestamps, sorted keys,
    derived settings frozen into it.  A manifest already in out_dir is
    removed before the first run file is written, so a run that fails
    leaves no manifest beside the run files it overwrote.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    try:
        os.remove(manifest_path)
    except FileNotFoundError:
        pass
    manifest = _manifest(config, [
        [(r["path"], r["n"]) for r in rows] for _, _, rows, _ in _arm_rows(
            config, _generate_one, lambda arm: (out_dir,))])
    write_json(manifest, manifest_path)
    return manifest


# ---------------------------------------------------------------------------
# reading ensembles back


class MissingRunsError(ValueError):
    """Raised when a manifest names run files that are not on disk."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        preview = ", ".join(self.missing[:8])
        more = "" if len(self.missing) <= 8 else f" (+{len(self.missing) - 8} more)"
        super().__init__(f"missing {len(self.missing)} run file(s): {preview}{more}")


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, "
                         f"got {type(value).__name__}")
    return value


def load_manifest(out_dir: str) -> dict:
    """The manifest of the ensemble in out_dir, checked before any run file
    is read.  ValueError for a manifest without a list of arms and a model,
    an arm without a name and a non-empty list of runs, a run without a
    path and an integer n_samples, or a run path that is absolute or has a
    '..' component, which could name a file outside out_dir;
    MissingRunsError for run files that are not on disk."""
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no manifest at {path}")
    with open(path, encoding="utf-8") as fh:
        manifest = as_object(json.load(fh), "manifest", ("arms", "model"))
    ModelSpec.from_dict(manifest["model"])
    paths = []
    for entry in _as_list(manifest["arms"], "manifest arms"):
        as_object(entry, "manifest arm", ("name", "runs"))
        if not _as_list(entry["runs"], f"runs of arm {entry['name']!r}"):
            raise ValueError(f"manifest arm {entry['name']!r} lists no runs")
        for rec in entry["runs"]:
            as_object(rec, "manifest run", ("path", "n_samples"))
            run_path = rec["path"]
            if not isinstance(run_path, str) or os.path.isabs(run_path) \
                    or os.pardir in PurePath(run_path).parts:
                raise ValueError(f"run path {run_path!r} must be relative to "
                                 "the ensemble directory and stay inside it")
            as_int(rec["n_samples"], f"manifest n_samples of {run_path!r}")
            paths.append(run_path)
    missing = [p for p in paths if not os.path.exists(os.path.join(out_dir, p))]
    if missing:
        raise MissingRunsError(sorted(missing))
    return manifest


def _leaves(doc, where: str = "") -> dict:
    """The scalar fields of a JSON document by path ("arms[1].budget")."""
    if isinstance(doc, dict):
        parts = [(f"{where}.{k}".lstrip("."), v) for k, v in doc.items()]
    elif isinstance(doc, list):
        parts = [(f"{where}[{i}]", v) for i, v in enumerate(doc)]
    else:
        return {where: doc}
    return {p: leaf for path, v in parts for p, leaf in _leaves(v, path).items()}


def _read_ensemble(config: ExperimentConfig, out_dir: str) -> dict:
    """The arm entries, by name, of the manifest in out_dir (load_manifest),
    which must be the one _manifest builds from config and the manifest's
    own run records, n_runs aside (a report reads every run listed);
    ValueError names the first field that differs in value or type."""
    manifest = load_manifest(out_dir)
    records = {e["name"]: [(r["path"], r["n_samples"]) for r in e["runs"]]
               for e in manifest["arms"]}
    want = _manifest(config, [records.get(a.name, []) for a in config.arms])
    want["n_runs"] = manifest.get("n_runs")
    want, got = _leaves(want), _leaves(manifest)
    for path in {**want, **got}:
        w, g = (repr(doc[path]) if path in doc else "absent"
                for doc in (want, got))
        if w != g:
            raise ValueError(f"the manifest in {out_dir} gives {path} {g}, "
                             f"but the config gives {w}")
    return {e["name"]: e for e in manifest["arms"]}


# how far a run's log_l may stray from the model's ln L at the run's
# radius, relative to max(|ln L|, 1).  The contour map's two tables agree
# to about 1e-13 in the posterior bulk and to 9.2e-6 near ln X = 0, the
# worst point of the ten acceptance-cache blocks at n_runs=2 and of both
# benchmark workloads: a margin of about 11.  A shift of every point by 1
# fails where |ln L| < 1e4, as in every posterior bulk here; at d=1000,
# where log_l reaches -5.9e9, a prior-edge point may stray by 5.9e5.
_LOG_L_RTOL = 1e-4


def _arm_runs(out_dir: str, model: ModelSpec, entry: dict,
              recs: list | None = None) -> Iterator[NestedRun]:
    """The runs of the arm entry's run records recs (all by default), in
    order; ValueError, naming the file, for a run whose sample count is not
    its record's n_samples, whose model is not the manifest's, whose
    provenance contradicts the arm's settings, or whose log_l strays from
    the model's ln L at its radius by more than _LOG_L_RTOL."""
    settings = (_METHODS.get(entry.get("method")), entry.get("n_init"),
                entry.get("goal_g"), entry.get("importance_variant"),
                entry.get("budget"), entry.get("n_live", entry.get("n_init")))
    for rec in entry["runs"] if recs is None else recs:
        path = rec["path"]
        run = load_run(os.path.join(out_dir, path))
        if rec["n_samples"] != len(run):
            raise ValueError(f"manifest n_samples of {path!r} is "
                             f"{rec['n_samples']!r}, but the run holds "
                             f"{len(run)}")
        if run.model != model:
            raise ValueError(f"run {path!r} has model "
                             f"{run.model.to_dict()}, but the manifest's is "
                             f"{model.to_dict()}")
        prov = run.provenance
        got = (prov.algorithm, prov.n_init, prov.goal_g,
               prov.importance_variant, prov.sample_budget,
               len(prov.init_thread_ids or ()))
        if got != settings:
            raise ValueError(f"run {path!r} has provenance (algorithm, "
                             "n_init, goal_g, importance_variant, budget, "
                             f"initial thread count) {got}, but arm "
                             f"{entry['name']!r} gives {settings}")
        # written so that a NaN ln L strays too
        want = _log_l_at_radius(model, run.radius)
        stray = ~(np.abs(run.log_l - want)
                  <= _LOG_L_RTOL * np.maximum(np.abs(want), 1.0))
        if stray.any():
            i = int(np.argmax(stray))
            raise ValueError(f"run {path!r}: point {i} has log_l "
                             f"{run.log_l[i]!r}, but the model gives "
                             f"{want[i]!r} at its radius {run.radius[i]!r}")
        yield run


def write_csv(rows: Iterable[dict], path: str) -> None:
    """Writes rows to path (write_atomic) as CSV, the first row's keys as
    the header; a row source that fails part way leaves no file."""
    rows = iter(rows)
    first = next(rows, None)

    def write(fh):
        if first is not None:
            writer = csv.DictWriter(fh, fieldnames=list(first),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerow(first)
            writer.writerows(rows)

    write_atomic(path, write)


def _default_focus_arm(config: ExperimentConfig) -> str:
    for arm in config.arms:
        if arm.method != "standard":
            return arm.name
    return config.arms[0].name


# ---------------------------------------------------------------------------
# compare


# the columns of a compare row, in order; a row leaves empty those it
# does not use
_COMPARE_ROW = dict.fromkeys(("row", "arm", "estimator", "baseline", "value",
                              "sigma", "spread", "spread_sigma", "rmse",
                              "truth"), "")


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def compare_report(config: ExperimentConfig, out_dir: str) -> list[dict]:
    """Report rows: per arm, its mean sample count ("samples") and a summary
    of each estimator over its runs ("estimate"); then, per arm with a
    gain_vs arm, each estimator's efficiency gain over it ("gain").  Like
    each report, it reads only an ensemble that config wrote
    (_read_ensemble)."""
    entries = _read_ensemble(config, out_dir)
    rows = []
    values: dict[str, np.ndarray] = {}
    for arm in config.arms:
        entry = entries[arm.name]
        n_runs = len(entry["runs"])
        if n_runs < 2:
            raise ValueError(f"compare needs n_runs >= 2, but the manifest "
                             f"lists {n_runs} for arm {arm.name!r}")
        mat = np.empty((n_runs, len(config.estimators)))
        for i, run in enumerate(_arm_runs(out_dir, config.model, entry)):
            mat[i] = estimates(run, config.estimators)
        values[arm.name] = mat
        rows.append({**_COMPARE_ROW, "row": "samples", "arm": arm.name,
                     "value": _fmt(entry["mean_samples"])})
        for k, eid in enumerate(config.estimators):
            col = mat[:, k]
            truth = estimator_truth(config.model, eid)
            rmse = None if truth is None else \
                float(np.sqrt(np.mean((col - truth) ** 2)))
            std = float(col.std(ddof=1))
            rows.append({**_COMPARE_ROW, "row": "estimate", "arm": arm.name,
                         "estimator": eid.key, "value": _fmt(col.mean()),
                         "sigma": _fmt(std / math.sqrt(n_runs)),
                         "spread": _fmt(std),
                         "spread_sigma": _fmt(jackknife_std_sigma(col)),
                         "rmse": _fmt(rmse), "truth": _fmt(truth)})
    for arm_index, arm in enumerate(config.arms):
        if arm.gain_vs is None:
            continue
        for k, eid in enumerate(config.estimators):
            rng = _stream(config.seed, (_STREAM_GAIN, arm_index, k))
            g = efficiency_gain(
                values[arm.gain_vs][:, k], values[arm.name][:, k],
                entries[arm.gain_vs]["mean_samples"],
                entries[arm.name]["mean_samples"],
                n_boot=config.gain_boot, rng=rng)
            rows.append({**_COMPARE_ROW, "row": "gain", "arm": arm.name,
                         "estimator": eid.key, "baseline": arm.gain_vs,
                         "value": _fmt(g.gain), "sigma": _fmt(g.sigma)})
    return rows


# ---------------------------------------------------------------------------
# allocation profile


def alloc_profile_rows(config: ExperimentConfig,
                       out_dir: str) -> Iterator[dict]:
    """Per-run (log-volume, live count) polylines for one arm, plus the
    relative posterior mass and posterior mass remaining curves scaled so
    each integrates (over log-volume) to the mean polyline area.

    Every number is computed before this returns, so a failure (ValueError
    for an ensemble that config did not write, ZeroDivisionError for a
    curve whose area is 0) comes before any row; the rows themselves are
    made one at a time as the iterator is read."""
    arm_name = config.profile_arm or _default_focus_arm(config)
    entry = _read_ensemble(config, out_dir)[arm_name]
    recs = entry["runs"][:config.profile_runs]
    polylines = []
    areas = []
    low = 0.0
    m = config.model
    for index, run in enumerate(_arm_runs(out_dir, m, entry, recs)):
        counts = live_point_counts(run)
        logv = -np.cumsum(1.0 / counts)  # E[ln X_i] = -sum_{k<=i} 1/n_k
        # cumsum adds left to right like a running total; np.sum pairs
        # terms and would move the last bits of the area
        prev = np.concatenate([[0.0], logv[:-1]])
        areas.append(float(np.cumsum(counts * (prev - logv))[-1]))
        low = min(low, float(logv[-1]))
        polylines.append((index, logv, counts))
    mean_area = float(np.mean(areas))
    grid = np.linspace(low, 0.0, 513)
    curves = []
    for curve_name, func in (("relative_posterior_mass", relative_posterior_mass),
                             ("posterior_mass_remaining", posterior_mass_remaining)):
        vals = np.asarray(func(m, grid), dtype=float)
        raw_area = float(np.trapezoid(vals, grid))
        curves.append((curve_name, vals * (mean_area / raw_area)))

    def rows():
        for index, logv, counts in polylines:
            for v, c in zip(logv.tolist(), counts.tolist()):
                yield {"row": "run", "name": arm_name, "index": index,
                       "log_x": repr(v), "value": repr(float(c))}
        for curve_name, scaled in curves:
            for v, y in zip(grid.tolist(), scaled.tolist()):
                yield {"row": "curve", "name": curve_name, "index": "",
                       "log_x": repr(v), "value": repr(y)}

    return rows()


# ---------------------------------------------------------------------------
# bootstrap table


_TABLE_STATS = ("mean", "repeats_std", "bootstrap_std",
                "bootstrap_over_repeats", "coverage_1sigma",
                "credible_upper_95", "coverage_95")


def _bootstrap_columns(run: NestedRun, eids, n_reps: int, seed: int,
                       *key: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-estimator spread and 95% upper credible bound of n_reps bootstrap
    replicates of run, drawn from the stream (seed, (2, *key))."""
    reps = bootstrap_replicates(run, eids, n_reps,
                                _stream(seed, (_STREAM_BOOT, *key)))
    uniform = np.ones(reps.shape[0])
    cred95 = [weighted_quantile(reps[:, k], uniform, 0.95)
              for k in range(reps.shape[1])]
    return reps.std(axis=0, ddof=1), np.array(cred95)


def bootstrap_table_rows(config: ExperimentConfig, out_dir: str) -> list[dict]:
    """Seven summary statistics per estimator for one arm's ensemble.

    Each run of an ensemble that config wrote (_read_ensemble) is
    resampled bootstrap_reps times (bootstrap_replicates).
    """
    arm_name = config.table_arm or _default_focus_arm(config)
    entry = _read_ensemble(config, out_dir)[arm_name]
    n_runs = len(entry["runs"])
    if n_runs < 2:
        raise ValueError("bootstrap table needs at least 2 runs to measure "
                         "repeat spread")
    eids = config.estimators
    truths = []
    for eid in eids:
        t = estimator_truth(config.model, eid)
        if t is None:
            raise ValueError(f"no analytic truth for estimator {eid.key!r}; "
                             "coverage columns need one")
        truths.append(t)
    truths = np.array(truths)
    n_est = len(eids)
    est = np.empty((n_runs, n_est))
    boot_std = np.empty((n_runs, n_est))
    cred95 = np.empty((n_runs, n_est))
    for j, run in enumerate(_arm_runs(out_dir, config.model, entry)):
        est[j] = estimates(run, eids)
        boot_std[j], cred95[j] = _bootstrap_columns(
            run, eids, config.bootstrap_reps, config.seed, j)
    repeats_std = est.std(axis=0, ddof=1)
    mean_boot = boot_std.mean(axis=0)
    stats = {
        "mean": est.mean(axis=0),
        "repeats_std": repeats_std,
        "bootstrap_std": mean_boot,
        "bootstrap_over_repeats": mean_boot / repeats_std,
        "coverage_1sigma": np.mean(np.abs(est - truths) <= boot_std, axis=0),
        "credible_upper_95": cred95.mean(axis=0),
        "coverage_95": np.mean(truths <= cred95, axis=0),
    }
    rows = []
    for name in _TABLE_STATS:
        row = {"statistic": name}
        for k, eid in enumerate(eids):
            row[eid.key] = repr(float(stats[name][k]))
        rows.append(row)
    return rows

