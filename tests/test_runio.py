"""Run-file round trips must be bit-exact and standard JSON."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from varlive.analysis import LOG_Z, MEAN_THETA1, MEDIAN_RADIUS, estimate
from varlive.dynamic import (AlgorithmOneConfig, AlgorithmTwoConfig,
                             GoalConfig, dynamic_run_algorithm1,
                             dynamic_run_algorithm2)
from varlive.models import ModelSpec
from varlive.runio import (_dec, _enc, load_run, run_from_dict, run_to_dict,
                           save_run)
from varlive.runs import NestedRun
from varlive.sampler import SamplerConfig, standard_run

M3 = ModelSpec(family="gaussian", d=3, sigma_pi=10.0)


def _sample_runs():
    rng = np.random.default_rng(42)
    std = standard_run(M3, SamplerConfig(n_live=30), rng)
    goal = GoalConfig(goal_g=0.5)
    d1 = dynamic_run_algorithm1(M3, goal,
                                AlgorithmOneConfig(n_init=8, sample_budget=160),
                                rng=rng)
    d2 = dynamic_run_algorithm2(M3, goal,
                                AlgorithmTwoConfig(n_init=8, total_budget=200),
                                rng=rng)
    return {"standard": std, "alg1": d1, "alg2": d2}


@pytest.fixture(scope="module")
def runs():
    return _sample_runs()


@pytest.mark.parametrize("kind", ["standard", "alg1", "alg2"])
def test_round_trip_bit_exact(runs, kind, tmp_path):
    run = runs[kind]
    path = str(tmp_path / "run.json")
    save_run(run, path)
    back = load_run(path)
    for attr in ("log_l", "birth_log_l", "theta1", "radius", "true_log_x",
                 "thread_id", "open_birth_log_l", "open_end_log_l",
                 "open_thread_id"):
        np.testing.assert_array_equal(getattr(back, attr), getattr(run, attr),
                                      err_msg=attr)
    assert back.model == run.model
    assert back.provenance == run.provenance
    for eid in (LOG_Z, MEAN_THETA1, MEDIAN_RADIUS):
        assert estimate(back, eid) == estimate(run, eid)


def test_resave_byte_identical(runs, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    save_run(runs["alg1"], a)
    save_run(load_run(a), b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_file_is_strict_json(runs, tmp_path):
    # non-finite floats must travel as strings, not bare Infinity tokens
    path = str(tmp_path / "run.json")
    save_run(runs["standard"], path)
    text = Path(path).read_text(encoding="utf-8")
    assert '"-inf"' in text  # prior-wide birth contours

    def reject(token):
        raise AssertionError(f"bare {token} token in file")

    doc = json.loads(text, parse_constant=reject)
    back = run_from_dict(doc)
    np.testing.assert_array_equal(back.birth_log_l, runs["standard"].birth_log_l)


def test_version_guard(runs):
    doc = run_to_dict(runs["standard"])
    doc["version"] = 999
    with pytest.raises(ValueError, match="version"):
        run_from_dict(doc)


def test_codec_matches_elementwise_reference(runs, tmp_path):
    def enc_reference(values):
        out = []
        for x in map(float, values):
            if math.isinf(x):
                out.append("inf" if x > 0 else "-inf")
            elif math.isnan(x):
                out.append("nan")
            else:
                out.append(x)
        return out

    values = np.array([1.5, -np.inf, np.inf, np.nan, -0.0, 5e-324, -2.0])
    encoded = _enc(values)
    assert json.dumps(encoded) == json.dumps(enc_reference(values))
    np.testing.assert_array_equal(_dec(encoded), values)
    with pytest.raises(ValueError, match="null"):
        _dec([1.0, None])
    with pytest.raises(ValueError, match="flat"):
        _dec([[1.0], [2.0]])
    # the file is what the pure-Python encoder writes for the same document
    path = str(tmp_path / "run.json")
    save_run(runs["alg2"], path)
    ref = io.StringIO()
    json.dump(run_to_dict(runs["alg2"]), ref, separators=(",", ":"),
              sort_keys=True)
    assert Path(path).read_text(encoding="utf-8") == ref.getvalue() + "\n"


def test_swapped_log_l_rejected_on_load(tmp_path):
    # before load validated, this file loaded and ln Z read -9.557 (-8.645)
    run = standard_run(M3, SamplerConfig(n_live=20), 1)
    doc = run_to_dict(run)
    log_l = doc["points"]["log_l"]
    log_l[0], log_l[17] = log_l[17], log_l[0]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="sorted"):
        load_run(str(path))


def test_falling_tie_order_loads_in_thread_order(tmp_path):
    # three threads tie at log_l 2 and 3; the file lists each tie group in
    # falling thread id order, which loaded as written before the run
    # ordered its own points
    births = {0: [-np.inf, 1.0, 2.0], 1: [-np.inf, 2.0], 2: [-np.inf]}
    chains = {0: [1.0, 2.0, 3.0], 1: [2.0, 3.0], 2: [3.0]}
    tid = np.repeat([0, 1, 2], [3, 2, 1])
    log_l = np.concatenate([chains[t] for t in range(3)])
    run = NestedRun(M3, log_l, np.concatenate([births[t] for t in range(3)]),
                    np.linspace(-0.5, 0.5, 6), np.linspace(1.0, 2.0, 6),
                    np.linspace(-0.1, -1.0, 6), tid)
    assert run.thread_id.tolist() == [0, 0, 1, 0, 1, 2]
    doc = run_to_dict(run)
    falling = [0, 2, 1, 5, 4, 3]
    for key, values in doc["points"].items():
        doc["points"][key] = [values[i] for i in falling]
    assert doc["points"]["thread_id"] == [0, 1, 0, 2, 1, 0]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = load_run(str(path))
    assert run_to_dict(back) == run_to_dict(run)


def test_second_open_interval_rejected_on_load(tmp_path):
    # before load checked this, the file loaded with counts reaching 21 and
    # ln Z -8.645536 (-8.645509), and splitting kept one of the two intervals
    run = standard_run(M3, SamplerConfig(n_live=20,
                                         keep_final_live=False), 1)
    doc = run_to_dict(run)
    for values in doc["open_intervals"].values():
        values.append(values[0])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="more than one open interval"):
        load_run(str(path))


@pytest.mark.parametrize("field,value", [
    ("d", 2.5), ("d", True), ("thread_id", 5.25), ("thread_id", True),
    ("open_thread_id", 2.5), ("init_thread_ids", 0.5)])
def test_non_integer_field_rejected_on_load(tmp_path, field, value):
    # before load checked these, the file loaded: d 2.5 as a d=2 model, true
    # as d=1, thread id 5.25 as 5 (true as 1) and init id 0.5 as 0
    run = standard_run(M3, SamplerConfig(n_live=20,
                                         keep_final_live=False), 1)
    doc = run_to_dict(run)
    if field == "d":
        doc["model"]["d"] = value
    elif field == "init_thread_ids":
        doc["provenance"]["init_thread_ids"] = [value]
    else:
        ids = doc["points" if field == "thread_id"
                  else "open_intervals"]["thread_id"]
        ids[ids.index(int(value))] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="must be an integer"):
        load_run(str(path))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_log_l_rejected_on_load(tmp_path, value):
    # before NestedRun checked this, either file loaded and ln Z read nan
    run = standard_run(M3, SamplerConfig(n_live=20), 1)
    doc = run_to_dict(run)
    doc["points"]["log_l"][-1] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="finite log_l"):
        load_run(str(path))


@pytest.mark.parametrize("doc", [[], "run", 5, None])
def test_non_object_document_rejected(doc):
    # used to raise AttributeError from doc.get
    with pytest.raises(ValueError, match="run file must hold a JSON object"):
        run_from_dict(doc)


@pytest.mark.parametrize("section", ["model", "points", "open_intervals",
                                     "provenance"])
@pytest.mark.parametrize("value", ["missing", None, [], 3])
def test_bad_section_rejected(section, value):
    # used to raise KeyError for a missing section, TypeError or
    # AttributeError for one that is not an object
    doc = run_to_dict(standard_run(M3, SamplerConfig(n_live=20), 1))
    if value == "missing":
        del doc[section]
    else:
        doc[section] = value
    with pytest.raises(ValueError, match=f"run file {section} must be"):
        run_from_dict(doc)


@pytest.mark.parametrize("key,value", [
    ("algorithm", 5), ("algorithm", None), ("algorithm", ["standard"]),
    ("importance_variant", [1]), ("importance_variant", "first_order"),
    ("importance_variant", 0)])
def test_bad_provenance_label_rejected(key, value):
    # {"algorithm": 5} and {"importance_variant": [1]} used to load as is
    doc = run_to_dict(standard_run(M3, SamplerConfig(n_live=20), 1))
    doc["provenance"][key] = value
    with pytest.raises(ValueError, match=f"provenance {key} must be"):
        run_from_dict(doc)


M2 = ModelSpec(family="gaussian", d=2, sigma_pi=10.0)


def five_thread_doc() -> dict:
    return run_to_dict(standard_run(M2, SamplerConfig(n_live=5), 1))


@pytest.mark.parametrize("section,key", [("points", "log_l"),
                                         ("open_intervals", "end_log_l")])
def test_array_given_as_object_rejected(section, key):
    # used to raise TypeError from numpy
    doc = five_thread_doc()
    doc[section][key] = {"a": 1}
    with pytest.raises(ValueError, match="run file arrays must be flat lists"):
        run_from_dict(doc)


@pytest.mark.parametrize("entry", [{"a": 1}, [0.5], True, "0.5", None,
                                   "Infinity"],
                         ids=["object", "list", "bool", "numeric_string",
                              "null", "other_string"])
def test_array_entry_that_is_no_number_rejected(entry):
    # an object or a list used to raise TypeError from numpy, and true and
    # "0.5" were read as the numbers 1.0 and 0.5; the writer puts only
    # numbers and "nan", "inf", "-inf" in an array
    doc = five_thread_doc()
    doc["points"]["theta1"][0] = entry
    with pytest.raises(ValueError, match="run file arrays must be flat "
                                         "lists of numbers"):
        run_from_dict(doc)


@pytest.mark.parametrize("value", [5, "12"])
def test_init_thread_ids_must_be_a_list(value):
    # 5 used to raise TypeError, and "12" was read digit by digit
    doc = five_thread_doc()
    doc["provenance"]["init_thread_ids"] = value
    with pytest.raises(ValueError,
                       match="provenance init_thread_ids must be a list"):
        run_from_dict(doc)


def test_init_thread_ids_of_no_thread_rejected():
    # used to load, and the bootstrap then drew its initial class from
    # threads the run does not hold
    doc = five_thread_doc()
    assert doc["provenance"]["init_thread_ids"] == [0, 1, 2, 3, 4]
    doc["provenance"]["init_thread_ids"] = [99, 100]
    with pytest.raises(ValueError, match=r"initial thread ids \[99, 100\] "
                                         "name no thread of the run"):
        run_from_dict(doc)
