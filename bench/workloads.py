"""Workload definitions for the varlive CLI pipeline benchmark.

Each workload is an experiment config plus the CLI stages that run on it.
The seed in the config is a placeholder: every stage receives the workload
seed through `--seed`, as a user would override it.  See README.md for why
each workload was chosen and which layers it is meant to stress.
"""

ESTIMATORS = ["log_z", "mean_theta1", "median_theta1", "credible_theta1:0.84",
              "second_moment_theta1", "mean_radius", "median_radius"]

# Known program failures, by (workload, stage): the error type the stage
# reports and the cause.  A known failure still counts as a failed operation;
# it only keeps `correct` true.
KNOWN_FAILURES = {
    ("dyn2_d1000", "alloc-profile"): (
        "ZeroDivisionError",
        "relative_posterior_mass is the unnormalised L(X)*X, which underflows "
        "to 0 over the whole grid at d=1000, so raw_area in "
        "experiments.alloc_profile_rows is 0"),
}

WORKLOADS = {
    "boot_d3": {
        "why": "stratified thread bootstrap dominates; Algorithm 1 and the "
               "alloc-profile row loop run; sampling and run I/O are small",
        "stages": ["generate", "compare", "alloc-profile", "bootstrap-table"],
        "config": {
            "model": {"family": "gaussian", "d": 3, "sigma_pi": 10.0},
            "n_runs": 16,
            "seed": 0,
            "estimators": ESTIMATORS,
            "bootstrap_reps": 20,
            "arms": [
                {"name": "std", "method": "standard", "n_live": 50},
                {"name": "dyn_g1", "method": "dyn1", "goal_g": 1.0,
                 "n_init": 10, "n_batch": 5, "gain_vs": "std"},
            ],
            "profile_arm": "dyn_g1",
            "table_arm": "dyn_g1",
        },
    },
    "dyn2_d1000": {
        "why": "cold d=1000 contour map, large runs through runio, "
               "standard_run on big arrays and the Algorithm 2 FIFO loop",
        "stages": ["generate", "compare", "alloc-profile"],
        "config": {
            "model": {"family": "exp_power", "d": 1000, "sigma_pi": 10.0,
                      "b": 2.0},
            "n_runs": 16,
            "seed": 0,
            "estimators": ESTIMATORS,
            "arms": [
                {"name": "std", "method": "standard", "n_live": 3},
                {"name": "dyn_g1", "method": "dyn2", "goal_g": 1.0,
                 "n_init": 2, "gain_vs": "std"},
            ],
            "profile_arm": "dyn_g1",
        },
    },
}


def min_live_count(config: dict) -> int:
    """Smallest live-point count any arm starts from, which sets the
    deepest contour map the pipeline needs."""
    return min(a.get("n_live", a.get("n_init")) for a in config["arms"])
