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
from dataclasses import dataclass, field
from pathlib import PurePath

import numpy as np

from .analysis import (EstimatorId, GainEstimate, bootstrap_replicates,
                       efficiency_gain, estimates, estimator_from_key,
                       jackknife_std_sigma, weighted_quantile)
from .dynamic import (AlgorithmOneConfig, AlgorithmTwoConfig, GoalConfig,
                      dynamic_run_algorithm1, dynamic_run_algorithm2)
from .models import (GAUSSIAN, ModelSpec, analytic_log_evidence, as_float,
                     as_int, as_object, posterior_mass_remaining,
                     relative_posterior_mass)
from .runio import load_run, save_run
from .runs import (IMPORTANCE_VARIANTS, NestedRun, live_point_counts,
                   log_prior_volumes)
from .sampler import SamplerConfig, standard_run

__all__ = [
    "ArmConfig", "ExperimentConfig", "MissingRunsError",
    "EstimatorSummary", "ExperimentReport",
    "config_from_dict", "load_experiment_config", "estimator_truth",
    "generate_ensemble", "load_manifest",
    "compare_report", "alloc_profile_rows", "write_alloc_profile_csv",
    "bootstrap_table_rows", "write_bootstrap_table_csv",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.json"

_METHODS = ("standard", "dyn1", "dyn2")

# spawn-key stream tags; keep stable so ensembles are reproducible
_STREAM_GENERATE = 0
_STREAM_GAIN = 1
_STREAM_BOOT = 2

# fraction of the matched standard arm's live-point count used when a
# dynamic arm leaves n_init unset
_DEFAULT_INIT_FRACTION = {"dyn1": 0.1, "dyn2": 0.2}


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
    termination_fraction: float = 1e-3

    def __post_init__(self):
        if not self.name or "/" in self.name or self.name != self.name.strip():
            raise ValueError(f"bad arm name {self.name!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.importance_variant not in IMPORTANCE_VARIANTS:
            raise ValueError(f"unknown importance variant {self.importance_variant!r}")
        if self.method == "standard":
            if self.n_live is None or self.n_live < 1:
                raise ValueError("standard arms need n_live >= 1")
        else:
            if not 0.0 <= self.goal_g <= 1.0:
                raise ValueError("goal_g must lie in [0, 1]")
            if self.n_init is not None and self.n_init < 1:
                raise ValueError("n_init must be >= 1 when given")
            if self.budget is not None and self.budget < 1:
                raise ValueError("budget must be >= 1 when given")
            if self.n_init is None and self.gain_vs is None:
                raise ValueError("dynamic arms need n_init or a gain_vs arm to derive it")
        if self.n_batch < 1:
            raise ValueError("n_batch must be >= 1")
        if not 0.0 < self.termination_fraction < 1.0:
            raise ValueError("termination_fraction must be in (0, 1)")

    @classmethod
    def from_dict(cls, data: dict) -> "ArmConfig":
        as_object(data, "arm", ("name", "method"))
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown arm keys: {sorted(extra)}")
        data = _typed_fields(cls, data, as_int, (
            "n_live", "n_init", "budget", "n_batch"), "arm")
        return cls(**_typed_fields(cls, data, as_float, (
            "goal_g", "termination_fraction"), "arm"))


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
        for arm in self.arms:
            if arm.gain_vs is not None and arm.gain_vs not in names:
                raise ValueError(f"arm {arm.name!r} references unknown arm {arm.gain_vs!r}")
            if arm.gain_vs == arm.name:
                raise ValueError(f"arm {arm.name!r} cannot reference itself")
            # Algorithm 2 smooths over 2 n_init + 1 points with a cubic
            if arm.method == "dyn2" and (n_init := _arm_n_init(self, arm)) < 2:
                raise ValueError(
                    f"arm {arm.name!r}: dyn2 needs n_init >= 2, got {n_init}")
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
    arms = tuple(ArmConfig.from_dict(a) for a in data.pop("arms"))
    estimators = tuple(estimator_from_key(k) for k in data.pop("estimators"))
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
        from .specialfn import inv_reg_lower_inc_gamma
        half_width = math.sqrt(2.0 * inv_reg_lower_inc_gamma(0.5, abs(2.0 * q - 1.0)))
        return sig * half_width if q > 0.5 else -sig * half_width
    if eid.kind == "mean_radius":
        d = m.d
        return sig * math.sqrt(2.0) * math.exp(math.lgamma(0.5 * (d + 1)) - math.lgamma(0.5 * d))
    if eid.kind == "median_radius":
        from .specialfn import inv_reg_lower_inc_gamma
        return sig * math.sqrt(2.0 * inv_reg_lower_inc_gamma(0.5 * m.d, 0.5))
    raise ValueError(f"unknown estimator kind {eid.kind!r}")


# ---------------------------------------------------------------------------
# generation


def _arm_n_init(config: ExperimentConfig, arm: ArmConfig) -> int:
    """A dynamic arm's n_init: its own, or the default fraction of its
    gain_vs arm's n_live."""
    if arm.n_init is not None:
        return arm.n_init
    ref = config.arm(arm.gain_vs)
    if ref.method != "standard" or ref.n_live is None:
        raise ValueError(
            f"arm {arm.name!r}: n_init can only default off a standard arm")
    return max(1, round(_DEFAULT_INIT_FRACTION[arm.method] * ref.n_live))


def _resolve_arm(config: ExperimentConfig, arm: ArmConfig,
                 realized_mean: dict[str, float]) -> dict:
    """Fill in derived budget / n_init; returns a plain picklable dict."""
    base = {"method": arm.method,
            "termination_fraction": arm.termination_fraction}
    if arm.method == "standard":
        base["n_live"] = int(arm.n_live)
        return base
    n_init = _arm_n_init(config, arm)
    budget = arm.budget
    if budget is None:
        if arm.gain_vs not in realized_mean:
            raise ValueError(
                f"arm {arm.name!r} needs an explicit budget or must come after "
                f"its gain_vs arm {arm.gain_vs!r}")
        budget = int(round(realized_mean[arm.gain_vs]))
    base.update(n_init=int(n_init), budget=int(budget),
                goal_g=float(arm.goal_g),
                importance_variant=arm.importance_variant,
                n_batch=int(arm.n_batch))
    return base


def _run_spawn_key(arm_index: int, run_index: int) -> tuple[int, int, int]:
    return (_STREAM_GENERATE, arm_index, run_index)


def _stream(entropy: int, spawn_key: tuple) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy,
                                                        spawn_key=spawn_key))


def _map_tasks(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for every task, in order, over a process pool when
    workers > 1."""
    if workers > 1:
        # imported here: concurrent.futures and multiprocessing add to the
        # start-up of every process that never uses a pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*t) for t in tasks]


def _sample_run(m: ModelSpec, resolved: dict, rng) -> NestedRun:
    """One run of an arm resolved by _resolve_arm."""
    method = resolved["method"]
    if method == "standard":
        cfg = SamplerConfig(n_live=resolved["n_live"],
                            termination_fraction=resolved["termination_fraction"],
                            keep_final_live=True)
        return standard_run(m, cfg, rng)
    goal = GoalConfig(goal_g=resolved["goal_g"],
                      importance_variant=resolved["importance_variant"])
    if method == "dyn1":
        cfg = AlgorithmOneConfig(
            n_init=resolved["n_init"], sample_budget=resolved["budget"],
            n_batch=resolved["n_batch"],
            termination_fraction=resolved["termination_fraction"])
        return dynamic_run_algorithm1(m, goal, cfg, rng=rng)
    cfg = AlgorithmTwoConfig(
        n_init=resolved["n_init"], total_budget=resolved["budget"],
        termination_fraction=resolved["termination_fraction"])
    return dynamic_run_algorithm2(m, goal, cfg, rng=rng)


def _generate_one(model_dict: dict, resolved: dict, entropy: int,
                  spawn_key: tuple, path: str) -> int:
    run = _sample_run(ModelSpec.from_dict(model_dict), resolved,
                      _stream(entropy, spawn_key))
    save_run(run, path)
    return len(run)


def generate_ensemble(config: ExperimentConfig, out_dir: str,
                      workers: int | None = None) -> dict:
    """Write every run file plus a manifest; returns the manifest dict.

    The manifest is byte-identical across repeats and worker counts for
    a fixed config: no timestamps, sorted keys, derived settings frozen
    into it.
    """
    workers = config.workers if workers is None else workers
    os.makedirs(out_dir, exist_ok=True)
    model_dict = config.model.to_dict()
    realized_mean: dict[str, float] = {}
    arm_entries = []
    for arm_index, arm in enumerate(config.arms):
        resolved = _resolve_arm(config, arm, realized_mean)
        arm_dir = os.path.join(out_dir, arm.name)
        os.makedirs(arm_dir, exist_ok=True)
        rels = [os.path.join(arm.name, f"run_{j:05d}.json")
                for j in range(config.n_runs)]
        sizes = _map_tasks(_generate_one, [
            (model_dict, resolved, config.seed, _run_spawn_key(arm_index, j),
             os.path.join(out_dir, rel)) for j, rel in enumerate(rels)],
            workers)
        mean_samples = float(np.mean(sizes))
        realized_mean[arm.name] = mean_samples
        entry = {"name": arm.name, "mean_samples": mean_samples,
                 "gain_vs": arm.gain_vs,
                 "runs": [{"index": j, "path": rel, "n_samples": int(n)}
                          for j, (rel, n) in enumerate(zip(rels, sizes))]}
        entry.update(resolved)
        arm_entries.append(entry)
    manifest = {"version": 1, "seed": config.seed, "n_runs": config.n_runs,
                "model": model_dict, "arms": arm_entries}
    tmp = os.path.join(out_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, MANIFEST_NAME))
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
    is read.  ValueError for a manifest without a list of arms, an arm
    without a name and a list of runs, a run without a path and an integer
    n_samples, or a run path that is absolute or has a '..' component,
    which could name a file outside out_dir; MissingRunsError for run files
    that are not on disk."""
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no manifest at {path}")
    with open(path, encoding="utf-8") as fh:
        manifest = as_object(json.load(fh), "manifest", ("arms",))
    paths = []
    for entry in _as_list(manifest["arms"], "manifest arms"):
        as_object(entry, "manifest arm", ("name", "runs"))
        for rec in _as_list(entry["runs"], f"runs of arm {entry['name']!r}"):
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


def _manifest_arm(manifest: dict, name: str) -> dict:
    for entry in manifest["arms"]:
        if entry["name"] == name:
            return entry
    raise ValueError(f"arm {name!r} not present in manifest")


def _write_csv(path: str, columns, rows: Iterable[dict]) -> None:
    """Writes a header and rows to path + ".tmp", then renames it to path,
    so a row source that fails part way leaves no file at path."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns,
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _default_focus_arm(config: ExperimentConfig) -> str:
    for arm in config.arms:
        if arm.method != "standard":
            return arm.name
    return config.arms[0].name


# ---------------------------------------------------------------------------
# compare


@dataclass(frozen=True)
class EstimatorSummary:
    mean: float
    std: float
    std_sigma: float
    rmse: float | None
    truth: float | None


@dataclass
class ExperimentReport:
    arm_order: tuple[str, ...]
    estimator_keys: tuple[str, ...]
    mean_samples: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)   # (arm, key) -> EstimatorSummary
    gains: dict = field(default_factory=dict)       # (arm, key) -> GainEstimate
    baselines: dict = field(default_factory=dict)   # arm -> gain_vs arm
    n_runs: int = 0

    _COLUMNS = ("row", "arm", "estimator", "baseline", "value", "sigma",
                "spread", "spread_sigma", "rmse", "truth")

    def to_rows(self) -> list[dict]:
        def fmt(x):
            return "" if x is None else repr(float(x))
        rows = []
        for arm in self.arm_order:
            rows.append({"row": "samples", "arm": arm, "estimator": "",
                         "baseline": "", "value": fmt(self.mean_samples[arm]),
                         "sigma": "", "spread": "", "spread_sigma": "",
                         "rmse": "", "truth": ""})
            for key in self.estimator_keys:
                s = self.summaries[(arm, key)]
                sem = s.std / math.sqrt(self.n_runs)
                rows.append({"row": "estimate", "arm": arm, "estimator": key,
                             "baseline": "", "value": fmt(s.mean),
                             "sigma": fmt(sem), "spread": fmt(s.std),
                             "spread_sigma": fmt(s.std_sigma),
                             "rmse": fmt(s.rmse), "truth": fmt(s.truth)})
        for arm in self.arm_order:
            base = self.baselines.get(arm)
            if base is None:
                continue
            for key in self.estimator_keys:
                g = self.gains[(arm, key)]
                rows.append({"row": "gain", "arm": arm, "estimator": key,
                             "baseline": base, "value": fmt(g.gain),
                             "sigma": fmt(g.sigma), "spread": "",
                             "spread_sigma": "", "rmse": "", "truth": ""})
        return rows

    def write_csv(self, path: str) -> None:
        _write_csv(path, self._COLUMNS, self.to_rows())

    def gain(self, arm: str, key: str) -> GainEstimate:
        return self.gains[(arm, key)]


def compare_report(config: ExperimentConfig, out_dir: str) -> ExperimentReport:
    if config.n_runs < 2:
        raise ValueError("compare needs n_runs >= 2")
    manifest = load_manifest(out_dir)
    keys = tuple(e.key for e in config.estimators)
    report = ExperimentReport(arm_order=tuple(a.name for a in config.arms),
                              estimator_keys=keys, n_runs=config.n_runs)
    values: dict[str, np.ndarray] = {}
    for arm in config.arms:
        entry = _manifest_arm(manifest, arm.name)
        mat = np.empty((len(entry["runs"]), len(config.estimators)))
        lengths = []
        for i, rec in enumerate(entry["runs"]):
            run = load_run(os.path.join(out_dir, rec["path"]))
            if rec["n_samples"] != len(run):
                raise ValueError(f"manifest n_samples of {rec['path']!r} "
                                 f"is {rec['n_samples']!r}, but the run "
                                 f"holds {len(run)}")
            lengths.append(len(run))
            mat[i] = estimates(run, config.estimators)
        values[arm.name] = mat
        # the mean generate wrote, from the runs themselves
        mean_samples = float(np.mean(lengths))
        if as_float(entry.get("mean_samples"), "mean_samples") != mean_samples:
            raise ValueError(f"manifest mean_samples of arm {arm.name!r} "
                             f"is {entry['mean_samples']!r}, but its runs "
                             f"hold {mean_samples!r} on average")
        report.mean_samples[arm.name] = mean_samples
        for k, eid in enumerate(config.estimators):
            col = mat[:, k]
            truth = estimator_truth(config.model, eid)
            rmse = None if truth is None else \
                float(np.sqrt(np.mean((col - truth) ** 2)))
            report.summaries[(arm.name, keys[k])] = EstimatorSummary(
                mean=float(col.mean()), std=float(col.std(ddof=1)),
                std_sigma=jackknife_std_sigma(col), rmse=rmse, truth=truth)
    for arm_index, arm in enumerate(config.arms):
        if arm.gain_vs is None:
            continue
        report.baselines[arm.name] = arm.gain_vs
        base = values[arm.gain_vs]
        mine = values[arm.name]
        for k, eid in enumerate(config.estimators):
            rng = _stream(config.seed, (_STREAM_GAIN, arm_index, k))
            report.gains[(arm.name, keys[k])] = efficiency_gain(
                base[:, k], mine[:, k],
                report.mean_samples[arm.gain_vs], report.mean_samples[arm.name],
                n_boot=config.gain_boot, rng=rng)
    return report


# ---------------------------------------------------------------------------
# allocation profile


def alloc_profile_rows(config: ExperimentConfig,
                       out_dir: str) -> Iterator[dict]:
    """Per-run (log-volume, live count) polylines for one arm, plus the
    relative posterior mass and posterior mass remaining curves scaled so
    each integrates (over log-volume) to the mean polyline area.

    Every number is computed before this returns, so a failure (a curve
    whose area is 0 raises ZeroDivisionError) comes before any row; the
    rows themselves are made one at a time as the iterator is read."""
    manifest = load_manifest(out_dir)
    arm_name = config.profile_arm or _default_focus_arm(config)
    entry = _manifest_arm(manifest, arm_name)
    recs = entry["runs"][:config.profile_runs]
    polylines = []
    areas = []
    low = 0.0
    m = config.model
    for rec in recs:
        run = load_run(os.path.join(out_dir, rec["path"]))
        logv = log_prior_volumes(run)
        counts = live_point_counts(run)
        # cumsum adds left to right like a running total; np.sum pairs
        # terms and would move the last bits of the area
        prev = np.concatenate([[0.0], logv[:-1]])
        areas.append(float(np.cumsum(counts * (prev - logv))[-1]))
        low = min(low, float(logv[-1]))
        polylines.append((rec["index"], logv, counts))
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


def write_alloc_profile_csv(rows: Iterable[dict], path: str) -> None:
    _write_csv(path, ("row", "name", "index", "log_x", "value"), rows)


# ---------------------------------------------------------------------------
# bootstrap table


_TABLE_STATS = ("mean", "repeats_std", "bootstrap_std",
                "bootstrap_over_repeats", "coverage_1sigma",
                "credible_upper_95", "coverage_95")


def _bootstrap_columns(reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-estimator spread and 95% upper credible bound of a replicate
    matrix from bootstrap_replicates."""
    uniform = np.ones(reps.shape[0])
    cred95 = [weighted_quantile(reps[:, k], uniform, 0.95)
              for k in range(reps.shape[1])]
    return reps.std(axis=0, ddof=1), np.array(cred95)


def bootstrap_table_rows(config: ExperimentConfig, out_dir: str) -> list[dict]:
    """Seven summary statistics per estimator for one arm's ensemble.

    Each run is resampled bootstrap_reps times (bootstrap_replicates).
    """
    manifest = load_manifest(out_dir)
    arm_name = config.table_arm or _default_focus_arm(config)
    entry = _manifest_arm(manifest, arm_name)
    if len(entry["runs"]) < 2:
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
    n_runs = len(entry["runs"])
    n_est = len(eids)
    est = np.empty((n_runs, n_est))
    boot_std = np.empty((n_runs, n_est))
    cred95 = np.empty((n_runs, n_est))
    for j, rec in enumerate(entry["runs"]):
        run = load_run(os.path.join(out_dir, rec["path"]))
        est[j] = estimates(run, eids)
        reps = bootstrap_replicates(run, eids, config.bootstrap_reps,
                                    _stream(config.seed, (_STREAM_BOOT, j)))
        boot_std[j], cred95[j] = _bootstrap_columns(reps)
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


def write_bootstrap_table_csv(rows: list[dict], config: ExperimentConfig,
                              path: str) -> None:
    _write_csv(path, ["statistic"] + [e.key for e in config.estimators], rows)
