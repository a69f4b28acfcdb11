"""Run persistence: versioned JSON with parallel point arrays.

Floats travel as JSON numbers (repr round-trip keeps them bit-exact); the
few non-finite values (prior-wide births) are encoded as strings so the
files stay standard JSON.  A loaded file must list its points by log_l;
tied points are put in thread id order as every run's are.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .models import ModelSpec, as_int, as_object
from .runs import NestedRun, RunProvenance

__all__ = ["save_run", "load_run", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_NON_FINITE = {"nan", "inf", "-inf"}


def _enc(values: np.ndarray) -> list:
    out = values.tolist()
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        x = out[i]
        out[i] = "nan" if x != x else ("inf" if x > 0 else "-inf")
    return out


def _dec(values) -> np.ndarray:
    """A float array from a list of numbers and the strings "nan", "inf" and
    "-inf", as _enc writes it; ValueError for any other entry (null, a
    bool, a bare NaN, another string, an object or a list)."""
    if not isinstance(values, list):
        raise ValueError("run file arrays must be flat lists")
    kinds = set(map(type, values))
    if not kinds <= {float, int} and not (
            kinds <= {float, int, str}
            and {v for v in values if type(v) is str} <= _NON_FINITE):
        raise ValueError("run file arrays must be flat lists of numbers "
                         "and the strings 'nan', 'inf', '-inf' (no null, "
                         "bool, object, list or other string)")
    out = np.array(values, dtype=float)
    # json reads a bare NaN as a float; the writer encodes nan as "nan"
    if any(values[i] != "nan" for i in np.flatnonzero(np.isnan(out)).tolist()):
        raise ValueError("run file array holds a bare NaN")
    return out


def _dec_ids(values) -> np.ndarray:
    if not isinstance(values, list):
        raise ValueError("run file thread ids must be a flat list")
    if not set(map(type, values)) <= {int}:
        values = [as_int(v, "run file thread id") for v in values]
    return np.array(values, dtype=np.int64)


def run_to_dict(run: NestedRun) -> dict:
    return {
        "version": FORMAT_VERSION,
        "model": run.model.to_dict(),
        "provenance": run.provenance.to_dict(),
        "points": {
            "log_l": _enc(run.log_l),
            "birth_log_l": _enc(run.birth_log_l),
            "theta1": _enc(run.theta1),
            "radius": _enc(run.radius),
            "true_log_x": _enc(run.true_log_x),
            "thread_id": run.thread_id.tolist(),
        },
        "open_intervals": {
            "birth_log_l": _enc(run.open_birth_log_l),
            "end_log_l": _enc(run.open_end_log_l),
            "thread_id": run.open_thread_id.tolist(),
        },
    }


def _section(doc: dict, key: str, keys=()) -> dict:
    return as_object(doc.get(key), f"run file {key}", keys)


def run_from_dict(doc: dict) -> NestedRun:
    """The run a document describes; raises ValueError when the document
    is not a run document, lists its points out of log_l order, or breaks a
    run invariant (NestedRun.validate).  Tied points come out in thread id
    order, whatever order the file lists them in."""
    if not isinstance(doc, dict):
        raise ValueError("run file must hold a JSON object, "
                         f"got {type(doc).__name__}")
    version = doc.get("version")
    # True and 1.0 compare equal to 1 but are not the integer 1
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported run file version {version!r}")
    model = ModelSpec.from_dict(_section(doc, "model"))
    pts = _section(doc, "points", ("log_l", "birth_log_l", "theta1",
                                   "radius", "true_log_x", "thread_id"))
    opens = _section(doc, "open_intervals",
                     ("birth_log_l", "end_log_l", "thread_id"))
    provenance = RunProvenance.from_dict(_section(doc, "provenance"))
    log_l = _dec(pts["log_l"])
    # a writer lists points by log_l; NestedRun would sort any other order
    if (log_l[1:] < log_l[:-1]).any():
        raise ValueError("run file points not sorted by log_l")
    run = NestedRun(
        model,
        log_l, _dec(pts["birth_log_l"]), _dec(pts["theta1"]),
        _dec(pts["radius"]), _dec(pts["true_log_x"]),
        _dec_ids(pts["thread_id"]),
        open_birth_log_l=_dec(opens["birth_log_l"]),
        open_end_log_l=_dec(opens["end_log_l"]),
        open_thread_id=_dec_ids(opens["thread_id"]),
        provenance=provenance)
    run.validate()
    return run


def write_json(doc: dict, path: str) -> None:
    """Writes doc to path as compact JSON with sorted keys and a final
    newline.  The text goes to path + ".tmp", which is then renamed to
    path, so no reader sees a half-written file."""
    tmp = path + ".tmp"
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)


def save_run(run: NestedRun, path: str) -> None:
    write_json(run_to_dict(run), path)


def load_run(path: str) -> NestedRun:
    with open(path, encoding="utf-8") as fh:
        return run_from_dict(json.load(fh))
