"""Command-line front end.

Subcommands: generate, compare, alloc-profile, bootstrap-table.  Each takes
--config (experiment JSON), --out (ensemble directory) and a --seed
override; generate also takes a --workers override, the only stage that
runs a process pool.  Failures exit nonzero after printing a one-line JSON
error record to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import experiments

__all__ = ["main"]

# each report stage: the file it writes and the experiments function that
# builds its rows, looked up on the module when the stage runs, so a wrapper
# put on the module attribute (bench/layertrace.py) is the one called
_REPORTS = {"compare": ("report.csv", "compare_report"),
            "alloc-profile": ("alloc_profile.csv", "alloc_profile_rows"),
            "bootstrap-table": ("bootstrap_table.csv", "bootstrap_table_rows")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varlive",
        description="nested-sampling benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("generate", "sample every arm's runs and write a manifest"),
            ("compare", "per-arm estimator summaries and efficiency gains"),
            ("alloc-profile", "live-count polylines against analytic mass curves"),
            ("bootstrap-table", "bootstrap error statistics for one arm")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", required=True, help="ensemble directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override root seed from the config")
        if name == "generate":
            p.add_argument("--workers", type=int, default=None,
                           help="override worker count from the config")
    return parser


def _load_config(args):
    config = experiments.load_experiment_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:
            return 0
        print(json.dumps({"error": "UsageError",
                          "message": "invalid command line"}), file=sys.stderr)
        return int(exc.code)
    try:
        config = _load_config(args)
        if args.command == "generate":
            experiments.generate_ensemble(config, args.out)
            out_path = os.path.join(args.out, experiments.MANIFEST_NAME)
        else:
            file_name, builder = _REPORTS[args.command]
            rows = getattr(experiments, builder)(config, args.out)
            out_path = os.path.join(args.out, file_name)
            experiments.write_csv(rows, out_path)
    except Exception as exc:  # noqa: BLE001 - every failure becomes a record
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, experiments.MissingRunsError):
            record["missing"] = list(exc.missing)
        print(json.dumps(record), file=sys.stderr)
        return 1
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
