"""One measured process of the benchmark; started fresh by run.py.

    python3 bench/pipeline.py setup --config CFG --n-min N
    python3 bench/pipeline.py stages --config CFG --out DIR --seed S
        --stages generate,compare,alloc-profile [--trace] [--spans FILE]

`setup` times what every CLI process pays before its first run: importing
varlive, parsing the config and building the contour map deep enough for
the smallest live-point count.  `stages` runs the CLI stages as a closed
loop, each a call into `varlive.cli.main` that starts when the previous one
returns, and reports their times, return codes, output digests and the
process's peak RSS.  Either mode prints one JSON object as its last line.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the setup clock starts before any import
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

STAGE_OUTPUT = {"compare": "report.csv", "alloc-profile": "alloc_profile.csv",
                "bootstrap-table": "bootstrap_table.csv"}


def setup(args) -> dict:
    import varlive  # noqa: F401
    from varlive.experiments import load_experiment_config
    from varlive.models import get_contour_map, sampling_log_x_floor
    config = load_experiment_config(args.config)
    get_contour_map(config.model, sampling_log_x_floor(config.model, args.n_min))
    return {"setup_s": time.perf_counter() - _T0}


def _digest(paths, root) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode())
        h.update(b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _generate_outputs(out_dir):
    found = []
    for dirpath, _, files in os.walk(out_dir):
        found.extend(os.path.join(dirpath, f) for f in files
                     if f.endswith(".json"))
    return found


def _log_z_rows(report_path):
    with open(report_path, encoding="utf-8") as fh:
        return {row["arm"]: {"mean": float(row["value"]),
                             "sem": float(row["sigma"]),
                             "truth": float(row["truth"])}
                for row in csv.DictReader(fh)
                if row["row"] == "estimate" and row["estimator"] == "log_z"}


def stages(args) -> dict:
    import varlive.cli
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    for stage in args.stages.split(","):
        argv = [stage, "--config", args.config, "--out", args.out,
                "--seed", str(args.seed)]
        if tracer is not None:
            tracer.stage = stage
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = varlive.cli.main(argv)
        seconds = time.perf_counter() - t0
        rec = {"stage": stage, "rc": rc, "s": seconds}
        if rc != 0:
            lines = err.getvalue().strip().splitlines()
            rec["error"] = json.loads(lines[-1]) if lines else None
        elif stage == "generate":
            rec["digest"] = _digest(_generate_outputs(args.out), args.out)
            with open(os.path.join(args.out, "manifest.json"),
                      encoding="utf-8") as fh:
                manifest = json.load(fh)
            rec["samples"] = sum(r["n_samples"] for arm in manifest["arms"]
                                 for r in arm["runs"])
            rec["runs"] = sum(len(arm["runs"]) for arm in manifest["arms"])
        else:
            path = os.path.join(args.out, STAGE_OUTPUT[stage])
            rec["digest"] = _digest([path], args.out)
            if stage == "compare":
                rec["log_z"] = _log_z_rows(path)
        results.append(rec)
    # ru_maxrss is in KiB on Linux
    out = {"stages": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "stages"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--n-min", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--stages")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else stages(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
