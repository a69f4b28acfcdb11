"""Regenerates the benchmark ensemble cache used by the acceptance tests.

Each block is one seeded ensemble written as an experiment config: a model
plus a list of arms run many times, through the arm loop of
`varlive.experiments` that `varlive generate` runs.  The cache stores
per-run sample counts and estimator values - plus bootstrap spread columns
for the block's table_arm - rather than the runs themselves, so the
committed files stay small while the tests can recompute every gain and
coverage statistic exactly.

    python3 -m varlive.accept_gen              # build missing blocks
    python3 -m varlive.accept_gen --force c1   # rebuild one block
    python3 -m varlive.accept_gen --list

Blocks are deterministic: fixed seeds, streams keyed (stream, arm, run),
so a rebuild reproduces the committed files bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .analysis import estimates
from .experiments import (ExperimentConfig, _arm_rows, _bootstrap_columns,
                          _sample_run, config_from_dict)
from .models import ModelSpec

__all__ = ["BLOCKS", "EST_KEYS", "block_config", "default_cache_dir",
           "run_row", "generate_block", "load_block", "main"]

EST_KEYS = ("log_z", "mean_theta1", "median_theta1", "credible_theta1:0.84",
            "second_moment_theta1", "mean_radius", "median_radius")

CACHE_VERSION = 1

# ---------------------------------------------------------------------------
# block table: every ensemble the acceptance tests consume


def _gauss(d, sigma):
    return {"family": "gaussian", "d": d, "sigma_pi": sigma}


def _ep(d, b):
    return {"family": "exp_power", "d": d, "sigma_pi": 10.0, "b": b}


def _std(n_live, name="std"):
    return {"name": name, "method": "standard", "n_live": n_live}


def _dyn(name, goal_g, n_init, n_batch, variant="standard"):
    return {"name": name, "method": "dyn1", "goal_g": goal_g, "n_init": n_init,
            "n_batch": n_batch, "importance_variant": variant,
            "gain_vs": "std"}


BLOCKS: dict[str, dict] = {
    # four-arm speedup table at d=10
    "c1": {"model": _gauss(10, 10.0), "n_runs": 500, "seed": 101,
           "arms": [_std(500), _dyn("dyn_g0", 0.0, 50, 10),
                    _dyn("dyn_g025", 0.25, 50, 10),
                    _dyn("dyn_g1", 1.0, 50, 10)]},
    # exp-power spot checks at d=10
    "c2_b2": {"model": _ep(10, 2.0), "n_runs": 500, "seed": 102,
              "arms": [_std(500), _dyn("dyn_g1", 1.0, 50, 10)]},
    "c2_b075": {"model": _ep(10, 0.75), "n_runs": 500, "seed": 103,
                "arms": [_std(500), _dyn("dyn_g0", 0.0, 50, 10)]},
    # dimension scan for the parameter-goal trend
    "c3_d2": {"model": _gauss(2, 10.0), "n_runs": 100, "seed": 104,
              "arms": [_std(200), _dyn("dyn_g1", 1.0, 20, 5)]},
    "c3_d10": {"model": _gauss(10, 10.0), "n_runs": 100, "seed": 105,
               "arms": [_std(200), _dyn("dyn_g1", 1.0, 20, 10)]},
    "c3_d100": {"model": _gauss(100, 10.0), "n_runs": 100, "seed": 106,
                "arms": [_std(200), _dyn("dyn_g1", 1.0, 20, 20)]},
    "c3_d1000": {"model": _ep(1000, 2.0), "n_runs": 50, "seed": 107,
                 "arms": [_std(200), _dyn("dyn_g1", 1.0, 20, 100)]},
    # narrow-prior evidence-goal spot check
    "c4": {"model": _gauss(2, 0.1), "n_runs": 200, "seed": 108,
           "arms": [_std(200), _dyn("dyn_g0", 0.0, 20, 5)]},
    # error-calibration ensemble; dynamic arm carries bootstrap columns
    "c5": {"model": _gauss(3, 10.0), "n_runs": 500, "seed": 109,
           "arms": [_std(200), _dyn("dyn_g1", 1.0, 20, 5)],
           "table_arm": "dyn_g1", "bootstrap_reps": 200},
    # tuned-vs-untuned parameter importance on heavy tails
    "c7": {"model": {"family": "cauchy", "d": 10, "sigma_pi": 10.0},
           "n_runs": 500, "seed": 110,
           "arms": [_std(500), _dyn("dyn_untuned", 1.0, 50, 10),
                    _dyn("dyn_tuned", 1.0, 50, 10, variant="tuned")]},
}


def block_config(name: str, n_runs: int | None = None) -> ExperimentConfig:
    """The block as an experiment over the cached estimators; without a
    table_arm no arm carries bootstrap columns."""
    spec = dict(BLOCKS[name], estimators=list(EST_KEYS))
    if n_runs is not None:
        spec["n_runs"] = n_runs
    return config_from_dict(spec)


def default_cache_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "acceptance_cache"))


# ---------------------------------------------------------------------------
# per-run work (module-level for pickling)


def run_row(m: ModelSpec, resolved: dict, entropy: int, arm_index: int,
            run_index: int, eids, boot_reps: int) -> dict:
    """One cached run: sample count, estimates and, when boot_reps > 0, the
    bootstrap spread columns."""
    run = _sample_run(m, resolved, entropy, arm_index, run_index)
    out = {"n": len(run), "est": estimates(run, eids).tolist()}
    if boot_reps:
        boot_std, cred95 = _bootstrap_columns(run, eids, boot_reps, entropy,
                                              arm_index, run_index)
        out["boot_std"] = boot_std.tolist()
        out["cred_upper95"] = cred95.tolist()
    return out


def generate_block(name: str, out_dir: str, n_runs: int | None = None,
                   workers: int = 1, log=print) -> dict:
    config = block_config(name, n_runs)

    def arm_args(arm):
        # only the table arm carries bootstrap columns
        boot_reps = config.bootstrap_reps if arm.name == config.table_arm \
            else 0
        return config.estimators, boot_reps

    t_start = t0 = time.perf_counter()
    arms_out = []
    for arm, resolved, rows, mean_samples in _arm_rows(config, run_row,
                                                       workers, arm_args):
        entry = {"name": arm.name,
                 "settings": {k: v for k, v in resolved.items()
                              if k != "termination_fraction"},
                 "n_samples": [r["n"] for r in rows],
                 "mean_samples": mean_samples,
                 "estimates": {key: [r["est"][k] for r in rows]
                               for k, key in enumerate(EST_KEYS)}}
        if arm.name == config.table_arm:
            for column in ("boot_std", "cred_upper95"):
                entry[column] = {key: [r[column][k] for r in rows]
                                 for k, key in enumerate(EST_KEYS)}
        arms_out.append(entry)
        log(f"  [{name}] arm {arm.name}: {config.n_runs} runs, "
            f"mean {mean_samples:.0f} samples, "
            f"{time.perf_counter() - t0:.1f}s")
        t0 = time.perf_counter()
    block = {"version": CACHE_VERSION, "name": name,
             "model": BLOCKS[name]["model"], "seed": config.seed,
             "n_runs": config.n_runs, "estimator_keys": list(EST_KEYS),
             "wall_seconds": time.perf_counter() - t_start,
             "arms": arms_out}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(block, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    log(f"  [{name}] wrote {path} ({block['wall_seconds']:.1f}s total)")
    return block


def load_block(name: str, cache_dir: str | None = None) -> dict:
    cache_dir = cache_dir or default_cache_dir()
    path = os.path.join(cache_dir, f"{name}.json")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"acceptance cache block {name!r} missing at {path}; "
            "regenerate with: python3 -m varlive.accept_gen")
    with open(path, encoding="utf-8") as fh:
        block = json.load(fh)
    if block.get("version") != CACHE_VERSION:
        raise ValueError(f"cache block {name!r} has version "
                         f"{block.get('version')!r}, want {CACHE_VERSION}")
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m varlive.accept_gen",
        description="build the acceptance-test ensemble cache")
    parser.add_argument("blocks", nargs="*",
                        help="block names (default: all missing)")
    parser.add_argument("--out", default=default_cache_dir())
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--runs", type=int, default=None,
                        help="override run count (spot checks only)")
    parser.add_argument("--force", action="store_true",
                        help="rebuild even if the block file exists")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    if args.list:
        for name, spec in BLOCKS.items():
            arms = ", ".join(a["name"] for a in spec["arms"])
            print(f"{name}: {spec['model']['family']} d={spec['model']['d']} "
                  f"runs={spec['n_runs']} arms=[{arms}]")
        return 0
    names = args.blocks or list(BLOCKS)
    unknown = [n for n in names if n not in BLOCKS]
    if unknown:
        print(f"unknown blocks: {unknown}", file=sys.stderr)
        return 2
    for name in names:
        path = os.path.join(args.out, f"{name}.json")
        if os.path.exists(path) and not args.force and args.runs is None:
            print(f"  [{name}] exists, skipping")
            continue
        generate_block(name, args.out, n_runs=args.runs, workers=args.workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
