"""Ensemble generation, manifests, and the three report builders."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil

import numpy as np
import pytest

from varlive.analysis import estimator_from_key
from varlive.experiments import (ArmConfig, ExperimentConfig,
                                 MissingRunsError, alloc_profile_rows,
                                 bootstrap_table_rows, compare_report,
                                 config_from_dict, estimator_truth,
                                 generate_ensemble, load_manifest, write_csv)
from varlive.models import ModelSpec


def small_config_doc(**overrides):
    base = {
        "model": {"family": "gaussian", "d": 2, "sigma_pi": 10.0},
        "n_runs": 4,
        "seed": 1234,
        "estimators": ["log_z", "mean_theta1", "median_radius"],
        "bootstrap_reps": 16,
        "gain_boot": 40,
        "arms": [
            {"name": "std", "method": "standard", "n_live": 40},
            {"name": "dyn1", "method": "dyn1", "goal_g": 1.0, "gain_vs": "std"},
            {"name": "dyn2", "method": "dyn2", "goal_g": 0.0, "budget": 350,
             "gain_vs": "std"},
        ],
    }
    base.update(overrides)
    return base


def small_config(**overrides):
    return config_from_dict(small_config_doc(**overrides))


def write_manifest(out_dir, manifest):
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh)


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ens"))
    cfg = small_config()
    manifest = generate_ensemble(cfg, out)
    return cfg, out, manifest


class TestConfig:
    def test_round_trip(self):
        # every field of an arm is a key from_dict accepts and keeps
        cfg = small_config()
        for arm in cfg.arms:
            assert ArmConfig.from_dict(dataclasses.asdict(arm)) == arm

    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            small_config(arms=[{"name": "a", "method": "standard", "n_live": 5},
                               {"name": "a", "method": "standard", "n_live": 5}])
        with pytest.raises(ValueError, match="method"):
            ArmConfig(name="x", method="magic")
        with pytest.raises(ValueError, match="n_init or a gain_vs"):
            ArmConfig(name="x", method="dyn1")
        with pytest.raises(ValueError, match="unknown arm keys"):
            ArmConfig.from_dict({"name": "x", "method": "standard",
                                 "n_live": 5, "colour": "red"})
        with pytest.raises(ValueError, match="references unknown"):
            small_config(arms=[{"name": "a", "method": "standard", "n_live": 5,
                                "gain_vs": "ghost"}])
        with pytest.raises(ValueError, match="itself"):
            small_config(arms=[{"name": "a", "method": "standard", "n_live": 5,
                                "gain_vs": "a"}])
        with pytest.raises(ValueError, match="estimator"):
            small_config(estimators=[])
        with pytest.raises(ValueError, match="n_runs"):
            small_config(n_runs=0)
        # one replicate has no spread (gain_boot=1 gave sigma nan) and
        # profile_runs=0 used to turn silently into 1
        with pytest.raises(ValueError, match="gain_boot"):
            small_config(gain_boot=1)
        with pytest.raises(ValueError, match="bootstrap_reps"):
            small_config(bootstrap_reps=1)
        with pytest.raises(ValueError, match="profile_runs"):
            small_config(profile_runs=0)
        # a missing key or a section that is not an object used to raise
        # KeyError, TypeError or AttributeError
        for key in ("model", "arms", "n_runs", "seed", "estimators"):
            doc = small_config_doc()
            del doc[key]
            with pytest.raises(ValueError, match=f"config has no '{key}'"):
                config_from_dict(doc)
        for key in ("family", "d", "sigma_pi"):
            model = {"family": "gaussian", "d": 2, "sigma_pi": 10.0}
            del model[key]
            with pytest.raises(ValueError, match=f"model has no '{key}'"):
                small_config(model=model)
        for key in ("name", "method"):
            arm = {"name": "std", "method": "standard", "n_live": 40}
            del arm[key]
            with pytest.raises(ValueError, match=f"arm has no '{key}'"):
                small_config(arms=[arm])
        with pytest.raises(ValueError, match="config must be a JSON object"):
            config_from_dict([small_config_doc()])
        with pytest.raises(ValueError, match="model must be a JSON object"):
            small_config(model="gaussian")
        with pytest.raises(ValueError, match="arm must be a JSON object"):
            small_config(arms=["std"])

    def test_unknown_experiment_key(self):
        # used to raise TypeError from ExperimentConfig.__init__
        with pytest.raises(ValueError, match="unknown experiment keys.*'colour'"):
            small_config(colour="red")

    @pytest.mark.parametrize("key", ["profile_arm", "table_arm"])
    def test_focus_arm_must_name_an_arm(self, key):
        # used to load and fail only when the stage ran, reading the manifest
        with pytest.raises(ValueError, match=f"{key} 'ghost' names no arm"):
            small_config(**{key: "ghost"})
        assert getattr(small_config(**{key: "dyn2"}), key) == "dyn2"

    @pytest.mark.parametrize("bad", [2.5, True, "3", None])
    @pytest.mark.parametrize("key", ["n_runs", "seed", "workers", "gain_boot",
                                     "bootstrap_reps", "profile_runs"])
    def test_experiment_counts_must_be_integers(self, key, bad):
        # a fractional count used to load and fail later inside a sampler
        with pytest.raises(ValueError, match=f"experiment {key} must be an integer"):
            small_config(**{key: bad})

    @pytest.mark.parametrize("bad", [20.5, True, "3"])
    @pytest.mark.parametrize("key", ["n_live", "n_init", "budget", "n_batch"])
    def test_arm_counts_must_be_integers(self, key, bad):
        arm = {"name": "a", "method": "dyn1", "n_init": 5, key: bad}
        with pytest.raises(ValueError, match=f"arm {key} must be an integer"):
            ArmConfig.from_dict(arm)

    def test_arm_seed_is_an_unknown_key(self):
        # every arm's streams are keyed off the experiment seed, as
        # accept_gen.run_row keys them
        with pytest.raises(ValueError, match=r"unknown arm keys: \['seed'\]"):
            ArmConfig.from_dict({"name": "a", "method": "standard",
                                 "n_live": 5, "seed": 9})

    @pytest.mark.parametrize("method, key, value", [
        ("standard", "n_init", 5), ("standard", "budget", 100),
        ("standard", "goal_g", 0.5), ("standard", "importance_variant", "tuned"),
        ("standard", "n_batch", 7), ("dyn1", "n_live", 99),
        ("dyn2", "n_live", 99), ("dyn2", "n_batch", 7)])
    def test_settings_the_method_never_reads_are_refused(self, method, key,
                                                         value):
        # a dyn2 arm with n_batch 7 and n_live 99 used to load; its manifest
        # recorded n_batch 7 and n_live vanished
        size = {"n_live": 5} if method == "standard" else {"n_init": 5}
        arm = {"name": "a", "method": method, **size}
        assert ArmConfig.from_dict(arm).method == method
        with pytest.raises(ValueError, match=(
                rf"arm 'a': a {method} arm does not read \['{key}'\]")):
            ArmConfig.from_dict({**arm, key: value})

    @pytest.mark.parametrize("arms", [
        # n_init derived off a gain_vs arm that is not standard
        [{"name": "std", "method": "standard", "n_live": 20},
         {"name": "d2", "method": "dyn2", "n_init": 4, "budget": 100},
         {"name": "a", "method": "dyn1", "budget": 100, "gain_vs": "d2"}],
        # a budget matched to a gain_vs arm that comes later in the list
        [{"name": "s0", "method": "standard", "n_live": 20},
         {"name": "a", "method": "dyn1", "n_init": 4, "gain_vs": "std"},
         {"name": "std", "method": "standard", "n_live": 20}]],
        ids=["n_init_off_a_dynamic_arm", "gain_vs_arm_listed_later"])
    def test_arm_resolution_checked_at_load(self, arms):
        # both used to load, and generate wrote the runs of the arms before
        # arm 'a' and then raised
        with pytest.raises(ValueError, match="arm 'a'"):
            small_config(arms=arms)

    @pytest.mark.parametrize("n_init", [None, 1])
    def test_dyn2_n_init_checked_at_load(self, n_init):
        # a dyn2 arm's n_init, given or derived (20% of its gain_vs arm's
        # n_live: round(0.2 * 5) = 1), used to load, and generate wrote the
        # standard arm's runs before failing on smoothing settings that no
        # config can set
        dyn = {"name": "dyn", "method": "dyn2", "gain_vs": "std"}
        if n_init is not None:
            dyn["n_init"] = n_init
        arms = [{"name": "std", "method": "standard", "n_live": 5}, dyn]
        with pytest.raises(ValueError,
                           match="arm 'dyn': dyn2 needs n_init >= 2, got 1"):
            small_config(arms=arms)
        arms[0]["n_live"] = 8  # round(0.2 * 8) = 2
        if n_init is not None:
            dyn["n_init"] = 2
        assert small_config(arms=arms).arms[1].method == "dyn2"

    @pytest.mark.parametrize("bad", [True, "0.5", None, math.nan, math.inf])
    @pytest.mark.parametrize("key", ["goal_g", "termination_fraction"])
    def test_arm_reals_must_be_finite_numbers(self, key, bad):
        # {"goal_g": true} used to run G = 1, and a bool termination_fraction
        # failed only inside the sampler
        for arm in ({"name": "a", "method": "dyn1", "n_init": 5},
                    {"name": "a", "method": "standard", "n_live": 5}):
            with pytest.raises(ValueError,
                               match=f"arm {key} must be a finite number"):
                ArmConfig.from_dict({**arm, key: bad})

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.25, 1.5])
    def test_termination_fraction_checked_at_load(self, frac):
        for arm in ({"name": "a", "method": "dyn2", "n_init": 5},
                    {"name": "a", "method": "standard", "n_live": 5}):
            with pytest.raises(ValueError, match=r"termination_fraction must be in \(0, 1\)"):
                ArmConfig.from_dict({**arm, "termination_fraction": frac})

    def test_integral_reals_load_as_float(self):
        arm = ArmConfig.from_dict({"name": "a", "method": "dyn1", "n_init": 5,
                                   "goal_g": 1, "termination_fraction": 0.5})
        assert type(arm.goal_g) is float and arm.goal_g == 1.0
        assert arm.termination_fraction == 0.5

    def test_integral_counts_load_as_int(self):
        cfg = small_config(n_runs=4.0, seed=1234.0, arms=[
            {"name": "std", "method": "standard", "n_live": 40.0,
             "n_init": None},
            {"name": "dyn", "method": "dyn1", "n_init": 5.0, "budget": 300.0,
             "n_batch": 2.0}])
        assert cfg == small_config(arms=[
            {"name": "std", "method": "standard", "n_live": 40},
            {"name": "dyn", "method": "dyn1", "n_init": 5, "budget": 300,
             "n_batch": 2}])
        for value in (cfg.n_runs, cfg.seed, cfg.arms[0].n_live,
                      *(getattr(cfg.arms[1], k)
                        for k in ("n_init", "budget", "n_batch"))):
            assert type(value) is int
        assert cfg.arms[0].n_init is None
        with pytest.raises(ValueError, match="arm n_batch must be an integer"):
            ArmConfig.from_dict({"name": "a", "method": "dyn1", "n_init": 5,
                                 "n_batch": None})


class TestGenerate:
    def test_manifest_deterministic(self, ensemble, tmp_path):
        cfg, out, _ = ensemble
        again = str(tmp_path / "again")
        generate_ensemble(cfg, again)
        for rel in ("manifest.json", os.path.join("std", "run_00001.json"),
                    os.path.join("dyn1", "run_00003.json")):
            a = open(os.path.join(out, rel), "rb").read()
            b = open(os.path.join(again, rel), "rb").read()
            assert a == b, rel

    def test_budget_matches_standard_arm(self, ensemble):
        _, _, manifest = ensemble
        by_name = {a["name"]: a for a in manifest["arms"]}
        want = round(by_name["std"]["mean_samples"])
        assert by_name["dyn1"]["budget"] == want
        assert by_name["dyn2"]["budget"] == 350  # explicit value kept

    def test_default_init_fractions(self, ensemble):
        _, _, manifest = ensemble
        by_name = {a["name"]: a for a in manifest["arms"]}
        assert by_name["dyn1"]["n_init"] == 4   # 10% of 40
        assert by_name["dyn2"]["n_init"] == 8   # 20% of 40

    def test_manifest_counts_match_files(self, ensemble):
        from varlive.runio import load_run
        _, out, manifest = ensemble
        for arm in manifest["arms"]:
            for rec in arm["runs"]:
                run = load_run(os.path.join(out, rec["path"]))
                assert len(run.log_l) == rec["n_samples"]

    def test_worker_count_transparent(self, tmp_path):
        cfg = small_config(n_runs=2,
                           arms=[{"name": "std", "method": "standard",
                                  "n_live": 25},
                                 {"name": "dyn1", "method": "dyn1",
                                  "goal_g": 0.5, "gain_vs": "std"}])
        seq = str(tmp_path / "w1")
        par = str(tmp_path / "w2")
        generate_ensemble(dataclasses.replace(cfg, workers=1), seq)
        generate_ensemble(dataclasses.replace(cfg, workers=2), par)
        for rel in ("manifest.json", os.path.join("dyn1", "run_00000.json")):
            assert open(os.path.join(seq, rel), "rb").read() == \
                open(os.path.join(par, rel), "rb").read(), rel
        assert compare_report(cfg, seq) == compare_report(cfg, par)


class TestTruths:
    @pytest.mark.parametrize("d", [2, 3, 10])
    @pytest.mark.parametrize("sigma_pi", [0.1, 10.0])
    def test_against_scipy(self, d, sigma_pi):
        from scipy import stats
        m = ModelSpec(family="gaussian", d=d, sigma_pi=sigma_pi)
        sig = sigma_pi / math.sqrt(1.0 + sigma_pi ** 2)
        cred = estimator_truth(m, estimator_from_key("credible_theta1:0.84"))
        assert cred == pytest.approx(sig * stats.norm.ppf(0.84), rel=1e-10)
        med_r = estimator_truth(m, estimator_from_key("median_radius"))
        assert med_r == pytest.approx(sig * math.sqrt(stats.chi2.ppf(0.5, d)),
                                      rel=1e-9)
        mean_r = estimator_truth(m, estimator_from_key("mean_radius"))
        assert mean_r == pytest.approx(sig * stats.chi.mean(d), rel=1e-10)
        assert estimator_truth(m, estimator_from_key("second_moment_theta1")) \
            == pytest.approx(sig ** 2, rel=1e-12)

    def test_non_gaussian_families(self):
        m = ModelSpec(family="exp_power", d=4, sigma_pi=10.0, b=2.0)
        assert estimator_truth(m, estimator_from_key("log_z")) is not None
        assert estimator_truth(m, estimator_from_key("mean_theta1")) == 0.0
        assert estimator_truth(m, estimator_from_key("median_radius")) is None


class TestCompare:
    def test_report_structure(self, ensemble):
        cfg, out, _ = ensemble
        rows = compare_report(cfg, out)
        kinds = [r["row"] for r in rows]
        assert kinds.count("samples") == 3
        assert kinds.count("estimate") == 9
        assert kinds.count("gain") == 6
        for r in rows:
            if r["row"] == "estimate":
                assert math.isfinite(float(r["value"]))
                assert float(r["spread"]) > 0.0
                assert r["truth"] != ""  # gaussian: every estimator has one
                assert float(r["rmse"]) > 0.0
            if r["row"] == "gain":
                assert r["baseline"] == "std"
                assert float(r["sigma"]) > 0.0

    def test_csv_written(self, ensemble, tmp_path):
        cfg, out, manifest = ensemble
        path = str(tmp_path / "report.csv")
        write_csv(compare_report(cfg, out), path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 + 9 + 6
        got = next(r for r in rows if r["row"] == "samples" and r["arm"] == "std")
        assert float(got["value"]) == manifest["arms"][0]["mean_samples"]

    def test_identical_seeded_arms_gain_exactly_one(self, tmp_path):
        cfg = small_config(
            n_runs=3,
            arms=[{"name": "a", "method": "standard", "n_live": 30},
                  {"name": "b", "method": "standard", "n_live": 30,
                   "gain_vs": "a"}])
        out = str(tmp_path / "twin")
        manifest = generate_ensemble(cfg, out)
        # each arm has its own streams, so b becomes a copy of a
        a, b = manifest["arms"]
        b.update(mean_samples=a["mean_samples"], runs=[
            {**rec, "n_samples": a_rec["n_samples"]}
            for rec, a_rec in zip(b["runs"], a["runs"])])
        for a_rec, rec in zip(a["runs"], b["runs"]):
            shutil.copy(os.path.join(out, a_rec["path"]),
                        os.path.join(out, rec["path"]))
        write_manifest(out, manifest)
        gains = {r["estimator"]: float(r["value"])
                 for r in compare_report(cfg, out) if r["row"] == "gain"}
        assert gains == {e.key: 1.0 for e in cfg.estimators}

    def test_missing_runs_listed(self, tmp_path):
        cfg = small_config(n_runs=2,
                           arms=[{"name": "std", "method": "standard",
                                  "n_live": 20}])
        out = str(tmp_path / "holey")
        generate_ensemble(cfg, out)
        victim = os.path.join("std", "run_00001.json")
        os.remove(os.path.join(out, victim))
        with pytest.raises(MissingRunsError) as err:
            compare_report(cfg, out)
        assert victim in err.value.missing
        assert victim in str(err.value)

    def test_manifest_sample_counts_checked(self, tmp_path):
        # the sample counts come from the runs; a manifest that disagrees
        # with them (a bool mean once gave a gain of 213 and exit code 0)
        # is refused
        cfg = small_config(n_runs=2,
                           arms=[{"name": "std", "method": "standard",
                                  "n_live": 20},
                                 {"name": "dyn", "method": "standard",
                                  "n_live": 10, "gain_vs": "std"}])
        out = str(tmp_path / "counts")
        manifest = generate_ensemble(cfg, out)
        rows = compare_report(cfg, out)
        assert {r["arm"]: float(r["value"]) for r in rows
                if r["row"] == "samples"} == {a["name"]: a["mean_samples"]
                                              for a in manifest["arms"]}
        for arm, key, value in [(1, "mean_samples", True),
                                (1, "mean_samples", 1e6),
                                (0, "mean_samples", None),
                                (0, "n_samples", 1),
                                (1, "n_samples", True)]:
            bad = json.loads(json.dumps(manifest))
            target = bad["arms"][arm]
            if key == "n_samples":
                target = target["runs"][1]
            target[key] = value
            write_manifest(out, bad)
            with pytest.raises(ValueError, match=key):
                compare_report(cfg, out)

    def test_run_paths_stay_inside_the_ensemble(self, tmp_path):
        cfg = small_config(n_runs=2,
                           arms=[{"name": "std", "method": "standard",
                                  "n_live": 20}])
        out = str(tmp_path / "ens")
        manifest = generate_ensemble(cfg, out)
        # a run file outside the ensemble, which each bad path names
        outside = str(tmp_path / "outside.json")
        shutil.copy(os.path.join(out, "std", "run_00000.json"), outside)
        for bad_path in (outside, os.path.join("..", "outside.json"),
                         os.path.join("std", "..", "..", "outside.json")):
            bad = json.loads(json.dumps(manifest))
            bad["arms"][0]["runs"][1]["path"] = bad_path
            write_manifest(out, bad)
            for stage in (compare_report, alloc_profile_rows,
                          bootstrap_table_rows):
                with pytest.raises(ValueError, match="run path"):
                    stage(cfg, out)

    def test_malformed_manifest_rejected(self, tmp_path):
        # a malformed manifest used to raise KeyError or TypeError in the
        # stage that read it
        cfg = small_config(n_runs=2,
                           arms=[{"name": "std", "method": "standard",
                                  "n_live": 20}])
        out = str(tmp_path / "ens")
        manifest = generate_ensemble(cfg, out)
        runs = ("arms", 0, "runs")
        rel = manifest["arms"][0]["runs"][1]["path"]
        for keys, value, message in [
                ((), [manifest], "manifest must be a JSON object"),
                (("arms",), None, "manifest has no 'arms'"),
                (("arms",), {"std": []}, "manifest arms must be a JSON list"),
                (("arms", 0, "name"), None, "manifest arm has no 'name'"),
                (runs, 5, "runs of arm 'std' must be a JSON list"),
                ((*runs, 1), rel, "manifest run must be a JSON object"),
                ((*runs, 1, "path"), None, "manifest run has no 'path'"),
                ((*runs, 1, "n_samples"), None,
                 "manifest run has no 'n_samples'"),
                ((*runs, 1, "n_samples"), "8",
                 f"manifest n_samples of {rel!r} must be an integer")]:
            bad = json.loads(json.dumps(manifest))
            if not keys:
                bad = value
            else:
                parent = bad
                for key in keys[:-1]:
                    parent = parent[key]
                if value is None:
                    del parent[keys[-1]]
                else:
                    parent[keys[-1]] = value
            write_manifest(out, bad)
            for stage in (compare_report, alloc_profile_rows,
                          bootstrap_table_rows):
                with pytest.raises(ValueError) as err:
                    stage(cfg, out)
                assert str(err.value).startswith(message), (keys, stage)

    def test_single_run_rejected(self, tmp_path):
        cfg = small_config(n_runs=1,
                           arms=[{"name": "std", "method": "standard",
                                  "n_live": 20}])
        out = str(tmp_path / "single")
        generate_ensemble(cfg, out)
        with pytest.raises(ValueError, match="n_runs"):
            compare_report(cfg, out)

    def test_sigma_counts_the_runs_the_manifest_lists(self, ensemble):
        # sigma is the spread over the root of the number of runs compared;
        # a config whose n_runs differs from the ensemble's (4 runs per arm)
        # used to divide by the root of its own n_runs, or to refuse n_runs 1
        cfg, out, manifest = ensemble
        assert all(len(arm["runs"]) == 4 for arm in manifest["arms"])
        rows = compare_report(cfg, out)
        for n_runs in (1, 16):
            assert compare_report(dataclasses.replace(cfg, n_runs=n_runs),
                                  out) == rows
        for r in rows:
            if r["row"] == "estimate":
                assert float(r["sigma"]) == float(r["spread"]) / 2.0


class TestAllocProfile:
    def test_area_self_consistency(self, ensemble):
        cfg, out, _ = ensemble
        rows = list(alloc_profile_rows(cfg, out))
        run_rows = [r for r in rows if r["row"] == "run"]
        curve_rows = [r for r in rows if r["row"] == "curve"]
        assert {r["name"] for r in run_rows} == {"dyn1"}

        by_run = {}
        for r in run_rows:
            by_run.setdefault(r["index"], []).append(
                (float(r["log_x"]), float(r["value"])))
        areas = []
        for pts in by_run.values():
            prev = 0.0
            area = 0.0
            for v, c in pts:  # rows arrive likelihood-ordered, volume decreasing
                area += c * (prev - v)
                prev = v
            areas.append(area)
        mean_area = np.mean(areas)

        curves = {}
        for r in curve_rows:
            curves.setdefault(r["name"], []).append(
                (float(r["log_x"]), float(r["value"])))
        assert set(curves) == {"relative_posterior_mass",
                               "posterior_mass_remaining"}
        for name, pts in curves.items():
            assert len(pts) == 513
            xs = np.array([p[0] for p in pts])
            ys = np.array([p[1] for p in pts])
            assert np.all(np.diff(xs) > 0)
            area = np.trapezoid(ys, xs)
            assert area == pytest.approx(mean_area, rel=1e-6), name

    def test_profile_run_count(self, ensemble):
        import dataclasses
        cfg, out, _ = ensemble
        cfg2 = dataclasses.replace(cfg, profile_runs=2, profile_arm="std")
        rows = list(alloc_profile_rows(cfg2, out))
        indices = {r["index"] for r in rows if r["row"] == "run"}
        assert indices == {0, 1}
        assert {r["name"] for r in rows if r["row"] == "run"} == {"std"}

    def test_rows_are_streamed(self, ensemble):
        cfg, out, _ = ensemble
        rows = alloc_profile_rows(cfg, out)
        assert not isinstance(rows, list)
        assert next(rows)["row"] == "run"


class TestCsvWriters:
    def test_failing_rows_leave_no_file(self, tmp_path):
        # a row source that raises part way used to leave a partial CSV
        path = str(tmp_path / "alloc_profile.csv")

        def rows():
            yield {"row": "run", "name": "a", "index": 0, "log_x": "-1.0",
                   "value": "1.0"}
            raise RuntimeError("halfway")

        with pytest.raises(RuntimeError, match="halfway"):
            write_csv(rows(), path)
        assert os.listdir(tmp_path) == []

    def test_replaces_an_old_file(self, tmp_path):
        path = tmp_path / "alloc_profile.csv"
        path.write_text("old\n")
        write_csv(iter([{"row": "curve", "name": "c", "index": "",
                         "log_x": "-0.5", "value": "2.0"}]), str(path))
        assert path.read_bytes() == (b"row,name,index,log_x,value\n"
                                     b"curve,c,,-0.5,2.0\n")
        assert os.listdir(tmp_path) == ["alloc_profile.csv"]


class TestBootstrapTable:
    def test_rows_and_statistics(self, ensemble):
        cfg, out, _ = ensemble
        rows = bootstrap_table_rows(cfg, out)
        assert [r["statistic"] for r in rows] == [
            "mean", "repeats_std", "bootstrap_std", "bootstrap_over_repeats",
            "coverage_1sigma", "credible_upper_95", "coverage_95"]
        table = {r["statistic"]: r for r in rows}
        for key in ("log_z", "mean_theta1", "median_radius"):
            ratio = float(table["bootstrap_over_repeats"][key])
            assert ratio == pytest.approx(
                float(table["bootstrap_std"][key]) /
                float(table["repeats_std"][key]), rel=1e-12)
            for cov_row in ("coverage_1sigma", "coverage_95"):
                cov = float(table[cov_row][key])
                assert 0.0 <= cov <= 1.0
            assert float(table["credible_upper_95"][key]) >= \
                float(table["mean"][key]) - 3 * float(table["repeats_std"][key])

    def test_single_run_rejected(self, tmp_path):
        cfg = small_config(n_runs=1,
                           arms=[{"name": "std", "method": "standard",
                                  "n_live": 20}])
        out = str(tmp_path / "single")
        generate_ensemble(cfg, out)
        with pytest.raises(ValueError, match="at least 2 runs"):
            bootstrap_table_rows(cfg, out)


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_pinned_report_rows(tmp_path, fresh_model_caches):
    # sha256 of the compare and alloc-profile rows of a seeded gaussian d=3
    # ensemble, recorded while efficiency_gain drew one replicate at a time
    # and the profile summed its areas in a Python loop; an empty map cache
    # and empty posterior-grid caches fix the sampled bits and the curves
    cfg = config_from_dict({
        "model": {"family": "gaussian", "d": 3, "sigma_pi": 10.0},
        "n_runs": 6, "seed": 3,
        "estimators": ["log_z", "mean_theta1", "median_theta1",
                       "credible_theta1:0.84", "second_moment_theta1",
                       "mean_radius", "median_radius"],
        "gain_boot": 300,
        "arms": [{"name": "std", "method": "standard", "n_live": 20},
                 {"name": "dyn1", "method": "dyn1", "goal_g": 1.0,
                  "n_init": 5, "n_batch": 3, "gain_vs": "std"}]})
    out = str(tmp_path / "pinned")
    generate_ensemble(cfg, out)
    assert rows_digest(compare_report(cfg, out)) == (
        "bef41815db5aa396ea115f04d89cbce81cb97c905dbe567d802f9aa55da88f9a")
    assert rows_digest(list(alloc_profile_rows(cfg, out))) == (
        "77c0b477ad5744a2bccb910cbb6cb015089f3eb984d2d4e4996fe4d4efb82250")
