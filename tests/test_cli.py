import gc
import json
import re
import warnings

import pytest

from drift.cli import main

MICRO = {
    "experiment_id": "cli-micro",
    "seed": 5,
    "dataset": {"classes": 3, "side": 8, "n_per_class": 10},
    "model": {"channels": [4, 8], "pretrain_epochs": 6},
    "bank": {"k": 2, "hidden": 4},
    "train": {"epochs": 2, "batch_size": 30, "w_js": 0, "w_lvjp": 0,
              "w_adv": 0, "pgd_steps": 2,
              "probes": {"p_v": 1, "p_w": 1, "seed": 5}},
    "attacks": [{"kind": "pgd", "norm": "linf", "epsilon": 8 / 255,
                 "steps": 3}],
    "out_dir": "overridden by --out",
}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(MICRO))
    run = tmp / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    return run


def test_train_emits_artifacts(trained_run):
    for name in ("checkpoint.dtns", "metrics.json", "manifest.json",
                 "attacks.csv", "training_log.csv"):
        assert (trained_run / name).exists(), name


def test_diagnose_reruns_at_the_run_seed(trained_run):
    # the run wrote gradnorm.json at its seed 5; diagnose must rewrite the
    # same bytes from the checkpoint, not redraw at seed 0
    path = trained_run / "gradnorm.json"
    written = path.read_bytes()
    ckpt = str(trained_run / "checkpoint.dtns")
    assert main(["diagnose", "--checkpoint", ckpt, "--what", "gradnorm"]) == 0
    assert path.read_bytes() == written


def test_attack_subcommand(trained_run, capsys):
    ckpt = str(trained_run / "checkpoint.dtns")
    assert main(["attack", "--checkpoint", ckpt, "--attack", "pgd",
                 "--norm", "linf", "--eps", "0.03", "--steps", "3",
                 "--eot", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "robust accuracy" in out
    csvs = list(trained_run.glob("attack_pgd-*.csv"))
    assert csvs and "eot2" in csvs[0].name


def test_attack_flags_left_unset_take_the_spec_defaults(trained_run):
    ckpt = str(trained_run / "checkpoint.dtns")
    assert main(["attack", "--checkpoint", ckpt, "--attack", "pgd",
                 "--steps", "2"]) == 0
    assert (trained_run / "attack_pgd-linf-eps0.0313725.csv").exists()


def test_attack_bpda_flag(trained_run, capsys):
    ckpt = str(trained_run / "checkpoint.dtns")
    assert main(["attack", "--checkpoint", ckpt, "--attack", "pgd",
                 "--eps", "0.03", "--steps", "2", "--eot", "2",
                 "--bpda"]) == 0
    assert list(trained_run.glob("attack_pgd-*bpda.csv"))


def test_attack_bpda_without_eot_exits_2(trained_run, capsys):
    ckpt = str(trained_run / "checkpoint.dtns")
    before = set(trained_run.glob("attack_*.csv"))
    assert main(["attack", "--checkpoint", ckpt, "--attack", "pgd",
                 "--eps", "0.03", "--steps", "2", "--bpda"]) == 2
    assert "bpda_identity needs eot_samples >= 1" in capsys.readouterr().err
    assert set(trained_run.glob("attack_*.csv")) == before


def test_square_attack_with_eot_exits_2(trained_run, capsys):
    ckpt = str(trained_run / "checkpoint.dtns")
    before = set(trained_run.glob("attack_*.csv"))
    assert main(["attack", "--checkpoint", ckpt, "--attack", "square",
                 "--eps", "0.03", "--steps", "1", "--eot", "5"]) == 2
    assert "eot_samples must be 0" in capsys.readouterr().err
    assert set(trained_run.glob("attack_*.csv")) == before


def test_square_attack_subcommand(trained_run):
    ckpt = str(trained_run / "checkpoint.dtns")
    assert main(["attack", "--checkpoint", ckpt, "--attack", "square",
                 "--eps", "0.03", "--steps", "1"]) == 0


def test_diagnose_consensus(trained_run, capsys):
    ckpt = str(trained_run / "checkpoint.dtns")
    assert main(["diagnose", "--checkpoint", ckpt,
                 "--what", "consensus"]) == 0
    assert "mean off-diagonal consensus" in capsys.readouterr().out
    report = json.loads((trained_run / "consensus_exact.json").read_text())
    assert report["mode"] == "exact"


def test_diagnose_on_a_one_filter_checkpoint(tmp_path, capsys):
    # K = 1 is a valid bank: consensus and transfer write their file and
    # print only what a single filter defines, no off-diagonal figure
    from drift.dtns import save_checkpoint
    from drift.models import build_base_model, build_filter_bank
    model = build_base_model((3, 8, 8), 3, seed=0, channels=(4, 8)).freeze()
    bank = build_filter_bank("res_block", 1, seed=0)
    path = tmp_path / "checkpoint.dtns"
    save_checkpoint(path, bank, model, data_seed=5, n_per_class=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for what, name in (("consensus", "consensus_exact.json"),
                           ("transfer", "transfer.csv")):
            assert main(["diagnose", "--checkpoint", str(path),
                         "--what", what]) == 0
            assert (tmp_path / name).exists()
    out = capsys.readouterr().out
    assert "accuracy under transfer: diag" in out
    assert "off-diag" not in out and "nan" not in out


def test_diagnose_gradnorm(trained_run):
    ckpt = str(trained_run / "checkpoint.dtns")
    assert main(["diagnose", "--checkpoint", ckpt, "--what", "gradnorm"]) == 0
    stats = json.loads((trained_run / "gradnorm.json").read_text())
    assert set(stats) == {"median", "p05", "p95"}


def test_landscape_subcommand(trained_run, capsys):
    ckpt = str(trained_run / "checkpoint.dtns")
    assert main(["diagnose", "--checkpoint", ckpt,
                 "--what", "landscape"]) == 0
    assert "loss range over the plane" in capsys.readouterr().out
    lines = (trained_run / "landscape.csv").read_text().splitlines()
    assert lines[:2] == ["tau,grid_n,dir_seed,eot_k", f"{3 / 255!r},41,5,128"]
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert len(rows) == 41 and all(len(r) == 41 for r in rows)


def test_report_subcommand(trained_run, capsys):
    assert main(["report", "--dir", str(trained_run)]) == 0
    out = capsys.readouterr().out
    assert "cli-micro" in out
    assert "clean accuracy" in out
    assert "complete" in out
    for stage in ("dataset", "pretrain", "train", "attacks", "diagnostics"):
        assert f"page faults {stage}" in out


def test_report_closes_every_file(trained_run, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["report", "--dir", str(trained_run)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_errors_exit_nonzero(tmp_path, capsys):
    assert main(["report", "--dir", str(tmp_path / "missing")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("change, key", [
    ({"attack": []}, "attack"),
    ({"bank": {"kk": 3}}, "bank.kk"),
    ({"bank": {"k": 0}}, "config bank: k"),
    ({"seed": 2 ** 64}, "config seed"),
    ({"attacks": [{"kind": "pgd", "seed": -1}]}, "config attacks[0].seed"),
    ({"attacks": [{"kind": "pgd", "eot_samples": -3}]},
     "config attacks[0]: eot_samples"),
    ({"attacks": [{"kind": "pgd", "bpda_identity": True}]},
     "config attacks[0]: bpda_identity"),
    ({"attacks": [{"kind": "square", "norm": "l2"}]},
     "config attacks[0]: square is defined for the linf norm"),
    ({"attacks": [{"kind": "mim", "norm": "l2"}]},
     "config attacks[0]: mim is defined for the linf norm"),
    ({"attacks": [{"kind": "square", "query_budget": -5}]},
     "config attacks[0]: query_budget"),
    ({"attacks": [{"kind": "pgd", "steps": 10}, {"kind": "pgd", "steps": 40}]},
     "config attacks[0] and attacks[1] share the label"),
])
def test_invalid_config_exits_2_naming_the_key(tmp_path, capsys, change, key):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(MICRO, **change)))
    assert main(["train", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_checkpoint_without_dataset_meta_is_rejected(tmp_path, capsys):
    from drift.dtns import save_checkpoint
    from drift.models import build_base_model, build_filter_bank
    model = build_base_model((3, 8, 8), 3, seed=0, channels=(4, 8)).freeze()
    bank = build_filter_bank("res_block", 2, seed=0)
    path = tmp_path / "bare.dtns"
    save_checkpoint(path, bank, model)
    assert main(["attack", "--checkpoint", str(path), "--attack", "pgd",
                 "--eps", "0.03", "--steps", "2"]) == 2
    assert "dataset metadata" in capsys.readouterr().err


@pytest.mark.parametrize("slot, value, message", [
    (1, 7, "unknown filter arch code 7"),
    (None, None, r"shape \(14,\); it needs 15 entries"),
], ids=["arch_code", "short_meta"])
@pytest.mark.parametrize("command", [
    ["attack", "--attack", "pgd", "--eps", "0.03", "--steps", "2"],
    ["diagnose", "--what", "consensus"],
], ids=["attack", "diagnose"])
def test_malformed_checkpoint_metadata_exits_2(trained_run, tmp_path, capsys,
                                               slot, value, message, command):
    from drift.dtns import read_tensors, write_tensors
    tensors = read_tensors(trained_run / "checkpoint.dtns")
    meta = tensors["__meta__"]
    if slot is None:
        meta = meta[:-1]
    else:
        meta[slot] = value
    path = tmp_path / "checkpoint.dtns"
    write_tensors(path, dict(tensors, __meta__=meta))
    assert main([command[0], "--checkpoint", str(path)] + command[1:]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.dtns"]


def test_seed_env_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(MICRO, attacks=[])))
    monkeypatch.setenv("DRIFT_SEED", "11")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["dataset"]["seed"] == 11


@pytest.mark.parametrize("value", ["abc", "1.5", "-1", str(2 ** 63)])
def test_malformed_seed_env_exits_2(tmp_path, monkeypatch, capsys, value):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(MICRO))
    monkeypatch.setenv("DRIFT_SEED", value)
    assert main(["train", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o")]) == 2
    assert "DRIFT_SEED must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
