"""The acceptance-cache builder: seeded blocks at two runs per arm, and the
command line."""

import hashlib
import json

import pytest

from conftest import use_fresh_model_caches
from varlive import accept_gen
from varlive.analysis import estimates
from varlive.experiments import _resolve_arm, generate_ensemble
from varlive.runio import load_run


@pytest.mark.parametrize("name, digest", [
    # bootstrap-free gaussian d=2 block with a narrow prior
    ("c4", "5de7d1337a3c8fa616e042c09bc71c598eee11b55bcad62350d951bff07bddfe"),
    # the table arm carries the bootstrap spread columns
    ("c5", "8cdaaff889877dbdfb856bc9dac2bf155731ef034cfd83ad76e49fd775451001"),
    # cauchy d=10 with the tuned importance variant
    ("c7", "34ca93a043917d6fed87ed3a4ca3edd12ec3e745b149f4937c4361c37b546ab2"),
])
def test_generate_block_pinned(tmp_path, fresh_model_caches, name, digest):
    # a sha256 of the block without its wall time, as a fresh process
    # builds it; the file holds the returned block
    block = accept_gen.generate_block(name, str(tmp_path), n_runs=2,
                                      log=lambda *args: None)
    with open(tmp_path / f"{name}.json", encoding="utf-8") as fh:
        assert json.load(fh) == block
    del block["wall_seconds"]
    text = json.dumps(block, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_main_list_and_unknown_block(capsys):
    assert accept_gen.main(["--list"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [line.partition(":")[0] for line in listed] == list(accept_gen.BLOCKS)
    assert accept_gen.main(["c4", "no_such_block"]) == 2
    assert "no_such_block" in capsys.readouterr().err


def test_run_row_samples_the_runs_generate_writes(tmp_path, monkeypatch):
    # generate and run_row both key run j of arm i by (seed, (0, i, j));
    # from empty map caches and in generate's order they sample the same runs
    config = accept_gen.block_config("c4", n_runs=1)
    use_fresh_model_caches(monkeypatch)
    manifest = generate_ensemble(config, str(tmp_path))
    use_fresh_model_caches(monkeypatch)
    realized = {e["name"]: e["mean_samples"] for e in manifest["arms"]}
    for arm_index, entry in enumerate(manifest["arms"]):
        resolved = _resolve_arm(config, config.arms[arm_index], realized)
        row = accept_gen.run_row(config.model, resolved, config.seed,
                                 arm_index, 0, config.estimators, 0)
        run = load_run(str(tmp_path / entry["runs"][0]["path"]))
        assert row == {"n": len(run),
                       "est": estimates(run, config.estimators).tolist()}
