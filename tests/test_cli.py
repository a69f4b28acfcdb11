"""Command-line behaviour: exit codes, outputs, error records."""

import csv
import json
import os
from pathlib import Path

import pytest

from varlive.cli import main


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    cfg = {
        "model": {"family": "gaussian", "d": 2, "sigma_pi": 10.0},
        "n_runs": 3,
        "seed": 55,
        "estimators": ["log_z", "median_radius"],
        "bootstrap_reps": 12,
        "gain_boot": 30,
        "arms": [
            {"name": "std", "method": "standard", "n_live": 30},
            {"name": "dyn", "method": "dyn1", "goal_g": 1.0, "gain_vs": "std"},
        ],
    }
    path = tmp_path_factory.mktemp("cfg") / "exp.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def generated(config_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("out"))
    assert main(["generate", "--config", config_path, "--out", out]) == 0
    return out


def test_generate_writes_manifest(generated, capsys):
    assert os.path.exists(os.path.join(generated, "manifest.json"))
    assert os.path.exists(os.path.join(generated, "dyn", "run_00002.json"))


def test_compare_writes_report(config_path, generated, capsys):
    assert main(["compare", "--config", config_path, "--out", generated]) == 0
    out_path = os.path.join(generated, "report.csv")
    assert os.path.exists(out_path)
    assert capsys.readouterr().out.strip().endswith("report.csv")
    header = Path(out_path).read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[:4] == ["row", "arm", "estimator", "baseline"]


def test_alloc_profile_and_bootstrap_table(config_path, generated):
    assert main(["alloc-profile", "--config", config_path,
                 "--out", generated]) == 0
    assert os.path.exists(os.path.join(generated, "alloc_profile.csv"))
    assert main(["bootstrap-table", "--config", config_path,
                 "--out", generated]) == 0
    table = os.path.join(generated, "bootstrap_table.csv")
    lines = Path(table).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8  # header plus seven statistics
    assert lines[0] == "statistic,log_z,median_radius"


@pytest.mark.parametrize("stage, file_name, builder", [
    ("compare", "report.csv", "compare_report"),
    ("alloc-profile", "alloc_profile.csv", "alloc_profile_rows"),
    ("bootstrap-table", "bootstrap_table.csv", "bootstrap_table_rows")])
def test_report_csv_holds_the_builder_rows(config_path, generated, stage,
                                           file_name, builder):
    # every report goes through one writer, with the first row's keys as
    # the header; the bootstrap table's header follows the estimator list
    from varlive import experiments
    assert main([stage, "--config", config_path, "--out", generated]) == 0
    with open(os.path.join(generated, file_name), newline="",
              encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        got = list(reader)
    config = experiments.load_experiment_config(config_path)
    want = [{k: str(v) for k, v in row.items()}
            for row in getattr(experiments, builder)(config, generated)]
    assert got == want
    if stage == "bootstrap-table":
        assert reader.fieldnames == ["statistic"] + [
            e.key for e in config.estimators]


def test_zero_curve_error_record(config_path, generated, tmp_path, capsys,
                                 monkeypatch):
    # the exp_power d=1000 failure: the relative posterior mass underflows
    # to 0, so alloc_profile_rows raises from the call, before any row; the
    # stage exits 1 with a ZeroDivisionError record, and no
    # alloc_profile.csv (nor its temporary file) is written
    import shutil

    from varlive import experiments
    out = str(tmp_path / "zero")
    shutil.copytree(generated, out, ignore=shutil.ignore_patterns("*.csv"))
    monkeypatch.setattr(experiments, "relative_posterior_mass",
                        lambda m, logx: 0.0 * logx)
    with pytest.raises(ZeroDivisionError):
        experiments.alloc_profile_rows(
            experiments.load_experiment_config(config_path), out)
    rc = main(["alloc-profile", "--config", config_path, "--out", out])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ZeroDivisionError"
    assert not [f for f in os.listdir(out) if "alloc_profile" in f]


def test_missing_runs_error_record(config_path, generated, tmp_path, capsys):
    # clone the ensemble, delete one run, expect a machine-readable record
    import shutil
    broken = str(tmp_path / "broken")
    shutil.copytree(generated, broken)
    victim = os.path.join("std", "run_00001.json")
    os.remove(os.path.join(broken, victim))
    rc = main(["compare", "--config", config_path, "--out", broken])
    assert rc != 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "MissingRunsError"
    assert victim in record["missing"]


def test_bad_config_error_record(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"family": "gaussian", "d": 2,
                                         "sigma_pi": 1.0},
                               "n_runs": 0, "seed": 1,
                               "estimators": ["log_z"],
                               "arms": [{"name": "a", "method": "standard",
                                         "n_live": 5}]}))
    rc = main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc != 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "n_runs" in record["message"]


def test_usage_error_is_record_not_traceback(capsys):
    rc = main(["no-such-command"])
    assert rc != 0
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "UsageError"


@pytest.mark.parametrize("stage", ["compare", "alloc-profile",
                                   "bootstrap-table"])
def test_workers_is_a_generate_flag(config_path, generated, stage, capsys):
    # the report stages run no pool; they used to accept --workers, ignore
    # it, and fail on --workers 0 with "workers must be >= 1"
    rc = main([stage, "--config", config_path, "--out", generated,
               "--workers", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "UsageError"


def test_seed_override_changes_output(config_path, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    c = str(tmp_path / "c")
    for out, seed in ((a, "900"), (b, "900"), (c, "901")):
        assert main(["generate", "--config", config_path, "--out", out,
                     "--seed", seed]) == 0
    read = lambda d: Path(d, "manifest.json").read_bytes()
    assert read(a) == read(b)
    assert read(a) != read(c)
