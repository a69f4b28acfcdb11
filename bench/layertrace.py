"""Span and counter tracing of varlive's layers, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
`varlive.*` module that holds a reference to it, because consumers import
with `from .x import f` and look the name up in their own module.  Each
wrapped call records one span (name, start, end, parent span, stage id)
in memory.  Two hot, tiny calls (`NestedRun.__init__`, `Thread.to_run`)
only bump counters.  `Tracer.layer_metrics()` turns the spans into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# (module, function) pairs that get one span per call
TRACED = (
    ("specialfn", "log_reg_lower_inc_gamma"),
    ("specialfn", "inv_log_reg_lower_inc_gamma"),
    ("models", "get_contour_map"),
    ("models", "analytic_log_evidence"),
    ("sampler", "standard_run"),
    ("sampler", "sample_thread_batch"),
    ("dynamic", "dynamic_run_algorithm1"),
    ("dynamic", "dynamic_run_algorithm2"),
    ("dynamic", "combined_importance"),
    ("dynamic", "algorithm2_allocation"),
    ("runs", "combine_runs"),
    ("runs", "split_into_threads"),
    ("runs", "live_point_counts"),
    ("runs", "point_log_weights"),
    ("analysis", "estimate"),
    ("analysis", "bootstrap_resample"),
    ("analysis", "efficiency_gain"),
    ("runio", "save_run"),
    ("runio", "load_run"),
    ("experiments", "generate_ensemble"),
    ("experiments", "compare_report"),
    ("experiments", "alloc_profile_rows"),
    ("experiments", "bootstrap_table_rows"),
    ("cli", "main"),
)

ALG1 = "dynamic.dynamic_run_algorithm1"
ALG2 = "dynamic.dynamic_run_algorithm2"
BOOT = "analysis.bootstrap_resample"

# span fields
NAME, START, END, PARENT, STAGE, INFO = range(6)


def _points_of_threads(threads) -> int:
    return sum(len(th) for th in threads)


class Tracer:
    """In-memory span list plus counters; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open = Counter()
        self.counters = Counter()
        self.stage = None
        self._maps_seen: list = []  # keeps returned maps alive so ids stay unique

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, info=None):
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.stage, None]
            spans.append(span)
            stack.append(idx)
            opened[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                span[START] = t0
                stack.pop()
                opened[name] -= 1
            if info is not None:
                span[INFO] = info(args, kwargs, out)
            return out
        return wrapper

    def _contour_map_info(self, args, kwargs, out):
        if any(m is out for m in self._maps_seen):
            return 0
        self._maps_seen.append(out)
        return 1

    def install(self) -> None:
        """Patch every traced name in every loaded varlive module."""
        import varlive.cli  # noqa: F401 - loads every module the CLI reaches
        from varlive import runs

        info = {
            "models.get_contour_map": self._contour_map_info,
            "sampler.standard_run": lambda a, k, out: len(out),
            "sampler.sample_thread_batch":
                lambda a, k, out: _points_of_threads(out),
            "runs.combine_runs": lambda a, k, out: len(out),
            "runio.save_run": lambda a, k, out: (len(a[0]), os.path.getsize(a[1])),
            "runio.load_run": lambda a, k, out: (len(out), os.path.getsize(a[0])),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "varlive" or n.startswith("varlive.")) and m]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            orig = getattr(sys.modules[f"varlive.{mod_name}"], fn_name)
            wrapper = self._wrap(name, orig, info.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

        counters = self.counters
        opened = self._open
        init = runs.NestedRun.__init__

        def counted_init(run_self, *args, **kwargs):
            counters["runs.NestedRun.constructed"] += 1
            if opened[BOOT]:
                counters["runs.NestedRun.constructed_in_boot"] += 1
            init(run_self, *args, **kwargs)

        to_run = runs.Thread.to_run

        def counted_to_run(thread_self, model):
            counters["runs.Thread.to_run.calls"] += 1
            return to_run(thread_self, model)

        runs.NestedRun.__init__ = counted_init
        runs.Thread.to_run = counted_to_run

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "stage": s[STAGE]},
                                    separators=(",", ":")))
                fh.write("\n")

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics (value, unit) computed from the recorded spans."""
        spans = self.spans
        n = len(spans)
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        # ancestor names of each span, built parent-first (parents precede
        # children in the list)
        anc: list[frozenset] = []
        for s in spans:
            p = s[PARENT]
            anc.append(frozenset() if p < 0 else anc[p] | {spans[p][NAME]})

        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[NAME], []).append(i)

        def idx(name, under=None, stage=None):
            return [i for i in by_name.get(name, ())
                    if (under is None or under in anc[i])
                    and (stage is None or spans[i][STAGE] == stage)]

        def total(ids):
            # time of the outermost spans only, so self-recursion is not
            # counted twice
            return sum(dur[i] for i in ids if spans[i][NAME] not in anc[i])

        def self_time(ids):
            return sum(dur[i] - child[i] for i in ids)

        def info_sum(ids, k=None):
            # a call that raised carries no info
            return sum((spans[i][INFO] if k is None else spans[i][INFO][k])
                       for i in ids if spans[i][INFO] is not None)

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}

        def put(key, value, unit):
            out[key] = (float(value), unit)

        def calls_s(name):
            ids = idx(name)
            put(f"{name}.calls", len(ids), "count")
            put(f"{name}.s", total(ids), "s")
            return ids

        def latency(name, ids):
            ms = sorted(dur[i] * 1e3 for i in ids)
            p50, tail = _quantiles(ms)
            put(f"{name}.ms_p50", p50, "ms")
            put(f"{name}.ms_tail", tail, "ms")

        calls_s("specialfn.log_reg_lower_inc_gamma")
        calls_s("specialfn.inv_log_reg_lower_inc_gamma")

        ids = idx("models.get_contour_map")
        built = [i for i in ids if spans[i][INFO]]
        put("models.get_contour_map.calls", len(ids), "count")
        put("models.get_contour_map.builds", len(built), "count")
        put("models.get_contour_map.build_s", total(built), "s")
        put("models.analytic_log_evidence.s",
            total(idx("models.analytic_log_evidence")), "s")

        ids = calls_s("sampler.standard_run")
        put("sampler.standard_run.points", info_sum(ids), "count")
        lookups = Counter(spans[i][PARENT] for i in idx("models.get_contour_map"))
        put("sampler.standard_run.retries",
            sum(max(lookups[i] - 1, 0) for i in ids), "count")
        latency("sampler.standard_run", ids)
        ids = calls_s("sampler.sample_thread_batch")
        put("sampler.sample_thread_batch.points", info_sum(ids), "count")

        ids = calls_s(ALG1)
        put(f"{ALG1}.self_s", self_time(ids), "s")
        iterations = len(idx("dynamic.combined_importance", under=ALG1))
        put(f"{ALG1}.iterations", iterations, "count")
        put(f"{ALG1}.batches",
            len(idx("sampler.sample_thread_batch", under=ALG1)), "count")
        latency(ALG1, ids)
        calls_s("dynamic.combined_importance")
        merge = [i for i in by_name.get("runs.combine_runs", ())
                 if ALG1 in anc[i] or ALG2 in anc[i]]
        put("dynamic.merge_s", total(merge), "s")
        ids = calls_s(ALG2)
        put(f"{ALG2}.self_s", self_time(ids), "s")
        put("dynamic.algorithm2_allocation.s",
            total(idx("dynamic.algorithm2_allocation")), "s")

        ids = calls_s("runs.combine_runs")
        put("runs.combine_runs.points_out", info_sum(ids), "count")
        calls_s("runs.split_into_threads")
        calls_s("runs.live_point_counts")
        calls_s("runs.point_log_weights")
        put("runs.NestedRun.constructed",
            self.counters["runs.NestedRun.constructed"], "count")
        put("runs.Thread.to_run.calls",
            self.counters["runs.Thread.to_run.calls"], "count")

        calls_s("analysis.estimate")
        ids = calls_s(BOOT)
        latency(BOOT, ids)
        calls_s("analysis.efficiency_gain")

        for name in ("runio.save_run", "runio.load_run"):
            ids = calls_s(name)
            nbytes = info_sum(ids, 1)
            put(f"{name}.bytes", nbytes, "bytes")
            put(f"{name}.mb_per_s", ratio(nbytes / 1e6, total(ids)), "MB/s")

        for fn in ("generate_ensemble", "compare_report", "alloc_profile_rows",
                   "bootstrap_table_rows"):
            put(f"experiments.{fn}.self_s",
                self_time(idx(f"experiments.{fn}")), "s")
        put("cli.main.self_s", self_time(idx("cli.main")), "s")

        # waste ratios, each over the base named in the key
        n_boot = len(idx(BOOT))
        put("runs.nestedrun_per_boot_rep",
            ratio(self.counters["runs.NestedRun.constructed_in_boot"], n_boot),
            "ratio")
        put("analysis.weight_passes_per_run",
            ratio(len(idx("runs.point_log_weights", stage="compare")),
                  len(idx("runio.load_run", stage="compare"))), "ratio")
        put("dynamic.live_counts_per_iteration",
            ratio(len(idx("runs.live_point_counts", under=ALG1)), iterations),
            "ratio")
        put("dynamic.resorted_points_per_new_point",
            ratio(info_sum(idx("runs.combine_runs", under=ALG1)),
                  info_sum(idx("sampler.sample_thread_batch", under=ALG1))),
            "ratio")
        saves = idx("runio.save_run")
        put("runio.save_bytes_per_point",
            ratio(info_sum(saves, 1), info_sum(saves, 0)), "bytes")
        put("trace.spans", n, "count")
        return out


_PCTS = (50.0, 90.0, 99.0, 99.9)


def _quantiles(sorted_ms):
    """Median and the highest of _PCTS with at least ten calls beyond it
    (the median when there are too few calls for any tail)."""
    n = len(sorted_ms)
    if n == 0:
        return 0.0, 0.0

    def at(p):
        return sorted_ms[min(n - 1, int(p / 100.0 * n))]

    pct = 50.0
    for p in _PCTS:
        if n - int(p / 100.0 * n) - 1 >= 10:
            pct = p
    return at(50.0), at(pct)
