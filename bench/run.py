"""End-to-end benchmark of the varlive CLI pipeline.

    python3 bench/run.py --workload boot_d3 --seed 3 --seconds 50 --trace 0
    python3 bench/run.py --smoke

Run from the repository root.  Every repetition of a workload is one fresh
process (bench/pipeline.py) that runs the workload's CLI stages back to back
with workers = 1 and BLAS/OpenMP threads pinned to 1.  Repetitions start
until `--seconds` is used up, all with the same seed, so their output digests
must agree.  The set-up time is the median of several fresh processes.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of traced repetitions (interleaved with untraced ones, whose difference is
the tracing overhead).  `--smoke` runs every workload once, traced, at tiny
sizes and checks that the wrappers see every call site.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
README.md explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

from workloads import KNOWN_FAILURES, WORKLOADS, min_live_count

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1704
SETUP_PROBES = 3
# a run must end within this many seconds, whatever --seconds asks for
HARD_LIMIT_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
LOG_Z_SEMS = 5.0

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "generate_samples_per_s": "samples/s",
    "compare_s": "s", "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not measure (missing program, hung process)."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv, env, deadline) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a child could start")
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "pipeline.py")]
                              + argv, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {argv[0]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_config(config: dict) -> dict:
    return {**config, "n_runs": 3, "bootstrap_reps": 3, "profile_runs": 2}


class Checks:
    """Operations attempted and failed: stage calls plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.unexpected.append(what)

    def stage(self, workload: str, rec: dict) -> None:
        self.attempted += 1
        if rec["rc"] == 0:
            return
        self.failed += 1
        known = KNOWN_FAILURES.get((workload, rec["stage"]))
        error = (rec.get("error") or {}).get("error")
        if known is not None and error == known[0]:
            self.known.append(f"{rec['stage']}: {error} ({known[1]})")
        else:
            self.unexpected.append(f"{rec['stage']} exited {rec['rc']}: "
                                   f"{rec.get('error')}")


def check_repetition(checks: Checks, workload: str, rep: dict,
                     reference: dict, config: dict, full_size: bool) -> None:
    for rec in rep["stages"]:
        checks.stage(workload, rec)
        if "digest" in rec:
            ref = reference.setdefault(rec["stage"], rec["digest"])
            checks.check(rec["digest"] == ref,
                         f"{rec['stage']} output digest differs between "
                         f"repetitions of one seed")
        if "log_z" in rec and full_size:
            for arm, row in sorted(rec["log_z"].items()):
                err = abs(row["mean"] - row["truth"])
                checks.check(err <= LOG_Z_SEMS * row["sem"],
                             f"arm {arm}: log_z mean {row['mean']!r} is "
                             f"{err / row['sem']:.2f} SEM from the truth "
                             f"{row['truth']!r}")
    layers = rep.get("layers")
    if layers is None:
        return
    n_runs = config["n_runs"] * len(config["arms"])
    expect = {
        "runio.save_run.calls": n_runs,
        "sampler.standard_run.calls": n_runs,
        "analysis.bootstrap_resample.calls":
            config["n_runs"] * config["bootstrap_reps"]
            if "bootstrap-table" in WORKLOADS[workload]["stages"] else 0,
        "dynamic.dynamic_run_algorithm1.iterations":
            layers["dynamic.dynamic_run_algorithm1.batches"][0],
    }
    for key, want in expect.items():
        got = layers[key][0]
        checks.check(got == want, f"trace saw {key} = {got:g}, expected {want:g}")


def stage_seconds(rep, stage):
    for rec in rep["stages"]:
        if rec["stage"] == stage:
            return rec["s"]
    return 0.0


def pipeline_seconds(rep):
    return sum(s["s"] for s in rep["stages"])


def end_to_end(setup_s, reps) -> dict:
    gen = [r["stages"][0] for r in reps]
    values = {
        "setup_s": setup_s,
        "pipeline_s": median(map(pipeline_seconds, reps)),
        "generate_samples_per_s": median(g.get("samples", 0) / g["s"] for g in gen),
        "compare_s": median(stage_seconds(r, "compare") for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(traced, untraced) -> dict:
    """Per-layer medians over the traced repetitions, plus the overhead of
    tracing: traced minus untraced median pipeline time."""
    out = {key: {"value": median(r["layers"][key][0] for r in traced),
                 "unit": unit}
           for key, (_, unit) in traced[0]["layers"].items()}
    out["trace.overhead_s"] = {
        "value": median(map(pipeline_seconds, traced))
        - median(map(pipeline_seconds, untraced)),
        "unit": "s"}
    return out


def count_src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def machine_info(root, seed) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "src_lines": count_src_lines(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
        "seed": seed,
    }


def run_workload(root, workload, seed, seconds, trace, smoke, deadline):
    spec = WORKLOADS[workload]
    config = smoke_config(spec["config"]) if smoke else spec["config"]
    work = os.path.join(root, ".bench_work", workload)
    os.makedirs(work, exist_ok=True)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    env = child_env(root)

    # compile bytecode once so the set-up probes all see a warm cache
    subprocess.run([sys.executable, "-c", "import varlive.cli"], env=env,
                   check=True, capture_output=True, timeout=60)
    setup_runs = [run_child(["setup", "--config", config_path,
                             "--n-min", str(min_live_count(config))],
                            env, deadline)["setup_s"]
                  for _ in range(1 if smoke else SETUP_PROBES)]

    out_dir = os.path.join(work, "out")
    stages_argv = ["stages", "--config", config_path, "--out", out_dir,
                   "--seed", str(seed), "--stages", ",".join(spec["stages"])]
    reps, traced = [], []
    checks = Checks()
    reference: dict = {}
    log_z: dict = {}
    t_start = time.monotonic()
    durations = []
    while True:
        with_trace = (trace or smoke) and len(traced) < len(reps)
        argv = list(stages_argv)
        if with_trace:
            argv += ["--trace", "--spans", os.path.join(work, "spans.jsonl")]
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.monotonic()
        rep = run_child(argv, env, deadline)
        durations.append(time.monotonic() - t0)
        (traced if with_trace else reps).append(rep)
        check_repetition(checks, workload, rep, reference, config, not smoke)
        log_z = next((r["log_z"] for r in rep["stages"] if "log_z" in r), log_z)
        if (trace or smoke) and not traced:
            continue
        if smoke:
            break
        # stop when the next repetition would end more than half a
        # repetition past the budget
        if time.monotonic() - t_start + 0.5 * median(durations) > seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    if seed == DEFAULT_SEED and not smoke:
        with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload, {})
        for stage, digest in sorted(reference.items()):
            checks.check(recorded.get(stage) == digest,
                         f"{stage} digest for the default seed differs from "
                         f"bench/digests.json")

    result = {"workload": workload, "seed": seed, "trace": int(trace),
              "smoke": smoke, "repetitions": len(reps),
              "traced_repetitions": len(traced),
              "setup_runs_s": setup_runs, "digests": reference,
              "log_z": log_z,
              "metadata": machine_info(root, seed),
              "end_to_end": end_to_end(median(setup_runs), reps),
              "stage_median_s": {stage: median([stage_seconds(r, stage) for r in reps])
                                 for stage in spec["stages"]},
              "repetition_stage_s": [{rec["stage"]: rec["s"] for rec in r["stages"]}
                                     for r in reps],
              "known_failures": sorted(set(checks.known)),
              "unexpected_failures": checks.unexpected,
              "attempted": checks.attempted, "failed": checks.failed}
    if traced:
        result["per_layer"] = per_layer(traced, reps)
    if "bootstrap-table" in spec["stages"]:
        reps_total = config["n_runs"] * config["bootstrap_reps"]
        result["bootstrap_reps_per_s"] = median(
            reps_total / stage_seconds(r, "bootstrap-table") for r in reps)
    return result


def print_summary(result) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"repetitions {result['repetitions']} untraced, "
          f"{result['traced_repetitions']} traced")
    for key, m in result["end_to_end"].items():
        print(f"  {key:<26} {m['value']:>14.6g} {m['unit']}")
    for stage, seconds in result["stage_median_s"].items():
        print(f"  {'median ' + stage:<26} {seconds:>14.6g} s")
    if "bootstrap_reps_per_s" in result:
        print(f"  {'bootstrap_reps_per_s':<26} "
              f"{result['bootstrap_reps_per_s']:>14.6g} replicates/s")
    print(f"  {'failed_frac':<26} "
          f"{result['failed'] / max(result['attempted'], 1):>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for item in result["known_failures"]:
        print(f"  known failure: {item}")
    for item in result["unexpected_failures"]:
        print(f"  FAILED: {item}")
    for key, m in result.get("per_layer", {}).items():
        print(f"  {key:<52} {m['value']:>14.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traced run of every workload")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "varlive", "__init__.py")):
        print("bench: no src/varlive under the current directory; run from "
              "the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    names = sorted(WORKLOADS) if args.smoke else [args.workload]
    try:
        results = [run_workload(root, name, args.seed, args.seconds,
                                bool(args.trace), args.smoke, deadline)
                   for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(root, ".bench_results"), exist_ok=True)
    for result in results:
        tag = "smoke" if args.smoke else f"trace{args.trace}"
        path = os.path.join(root, ".bench_results",
                            f"BENCH_{result['workload']}_seed{args.seed}_{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print_summary(result)

    correct = all(not r["unexpected_failures"] for r in results)
    metrics = {}
    if not args.smoke:
        metrics = results[0]["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
