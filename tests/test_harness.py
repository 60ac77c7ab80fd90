import json

import numpy as np
import pytest

from drift.attacks import AttackSpec
from drift.data import generate_synthetic_dataset
from drift.errors import DomainError, StageError
from drift.harness import (
    ATTACK_CSV_FIELDS, DatasetSpec, INFERENCE_TAG,
    MetricsRecord, attack_label, config_from_dict, default_config,
    evaluate_robust_accuracy, load_config, measure_overhead,
    rerun_from_manifest, run_experiment, stochastic_predict,
)
from drift.models import (
    build_base_model, build_filter_bank, filter_forward_np,
    sample_filter_index,
)

MICRO = {
    "experiment_id": "micro",
    "seed": 5,
    "dataset": {"classes": 3, "side": 8, "n_per_class": 10},
    "model": {"channels": [4, 8], "pretrain_epochs": 6},
    "bank": {"k": 2, "hidden": 4},
    "train": {"epochs": 2, "batch_size": 30, "w_js": 0, "w_lvjp": 0,
              "w_adv": 0, "pgd_steps": 2,
              "probes": {"p_v": 1, "p_w": 1, "seed": 5}},
    "attacks": [
        {"kind": "pgd", "norm": "linf", "epsilon": 8 / 255, "steps": 3},
        {"kind": "square", "norm": "linf", "epsilon": 8 / 255, "steps": 1,
         "query_budget": 20},
    ],
    "diagnostics": {"consensus": True, "gradnorm": True},
}


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro-run")
    config = config_from_dict(dict(MICRO, out_dir=str(out)))
    metrics = run_experiment(config)
    return config, metrics, out


@pytest.fixture(scope="module")
def tiny_setup():
    model = build_base_model((1, 8, 8), 3, seed=0, channels=(4, 8)).freeze()
    bank = build_filter_bank("res_block", 2, seed=1, channels=1)
    _, ev = generate_synthetic_dataset(3, 8, 6, seed=2, channels=1)
    return bank, model, ev


# -- configuration -----------------------------------------------------------

def test_config_json_round_trip(tmp_path):
    config = config_from_dict(dict(MICRO, out_dir="somewhere"))
    path = tmp_path / "config.json"
    config.save_json(path)
    again = load_config(path)
    assert again.to_dict() == config.to_dict()
    assert again.model.channels == (4, 8)
    assert isinstance(again.attacks[0], AttackSpec)


def test_seed_env_var_wins(monkeypatch):
    monkeypatch.setenv("DRIFT_SEED", "9")
    config = config_from_dict({"seed": 3})
    assert config.seed == 9
    assert config.dataset.seed == 9
    assert config.train.seed == 9
    assert config.inference_seed == 9


def test_seed_propagates_when_unset():
    config = config_from_dict({"seed": 7, "attacks": [{"kind": "pgd"}]})
    assert config.dataset.seed == 7
    assert config.train.seed == 7
    assert config.attacks[0].seed == 7


def test_dataset_spec_rejects_non_rgb():
    with pytest.raises(DomainError):
        DatasetSpec(channels=1)


def test_config_rejects_unknown_top_level_key():
    # a misspelled "attacks" must not silently run with no attacks
    with pytest.raises(DomainError, match="unknown config key attack$"):
        config_from_dict({"attack": [{"kind": "pgd"}]})


def test_config_rejects_unknown_nested_key():
    with pytest.raises(DomainError, match="unknown config key bank.kk"):
        config_from_dict({"bank": {"kk": 3}})
    with pytest.raises(DomainError, match="train.probes.p_x"):
        config_from_dict({"train": {"probes": {"p_x": 1}}})
    with pytest.raises(DomainError, match=r"attacks\[1\].eps"):
        config_from_dict({"attacks": [{"kind": "pgd"}, {"eps": 0.1}]})


@pytest.mark.parametrize("section, body, key", [
    ("bank", {"k": 0}, "k"),
    ("bank", {"hidden": 0}, "hidden"),
    ("model", {"channels": [0, 0]}, "channels"),
    ("bank", {"arch": "no_such_arch"}, "arch"),
    ("train", {"pgd_steps": 0}, "pgd_steps"),
    ("train", {"pgd_steps": -2}, "pgd_steps"),
    ("dataset", {"side": 0}, "side"),
    ("dataset", {"classes": 1}, "classes"),
    ("dataset", {"n_per_class": 0}, "n_per_class"),
])
def test_config_rejects_degenerate_specs(section, body, key):
    with pytest.raises(DomainError, match=f"config {section}: {key}"):
        config_from_dict({section: body})


@pytest.mark.parametrize("body, where", [
    ({"seed": 2 ** 64}, "seed"),
    ({"seed": 2 ** 63}, "seed"),
    ({"seed": -1}, "seed"),
    ({"inference_seed": -1}, "inference_seed"),
    ({"dataset": {"seed": 2 ** 63}}, "dataset.seed"),
    ({"train": {"seed": -1}}, "train.seed"),
    ({"train": {"probes": {"seed": 2 ** 64}}}, "train.probes.seed"),
    ({"attacks": [{"kind": "pgd"}, {"seed": -3}]}, r"attacks\[1\].seed"),
    ({"dataset": {"seed": 1.5}}, "dataset.seed"),
])
def test_config_rejects_seeds_outside_int64(body, where):
    with pytest.raises(DomainError, match=f"config {where} must be an integer"):
        config_from_dict(body)


def test_config_accepts_the_largest_seed():
    config = config_from_dict({"seed": 2 ** 63 - 1, "attacks": [{"kind": "pgd"}]})
    assert config.dataset.seed == config.train.probes.seed == 2 ** 63 - 1
    assert config.attacks[0].seed == config.inference_seed == 2 ** 63 - 1


def test_default_config_is_complete():
    config = default_config(out_dir="x", seed=3)
    assert config.seed == 3
    assert config.dataset.channels == 3
    assert config.bank.k == 4
    kinds = {a.kind for a in config.attacks}
    assert {"pgd", "mim", "square"} <= kinds
    assert any(a.eot_samples >= 1 for a in config.attacks)


def test_config_rejects_attacks_sharing_a_label():
    # steps and seed are not in the label, so these pairs would overwrite
    # each other's robust_accuracy entry
    with pytest.raises(DomainError, match=r"config attacks\[0\] and attacks\[1\] "
                                          r"share the label pgd-linf-eps0.0156863$"):
        config_from_dict({"attacks": [{"kind": "pgd", "steps": 10},
                                      {"kind": "pgd", "steps": 40}]})
    with pytest.raises(DomainError, match=r"attacks\[1\] and attacks\[2\] share "
                                          r"the label pgd-linf-eps0.0156863-eot5$"):
        config_from_dict({"attacks": [{"kind": "mim"},
                                      {"kind": "pgd", "eot_samples": 5, "seed": 7},
                                      {"kind": "pgd", "eot_samples": 5}]})


def test_attack_labels_distinguish_budgets():
    a = AttackSpec(kind="pgd", epsilon=8 / 255, steps=40)
    b = AttackSpec(kind="pgd", epsilon=8 / 255, steps=40, eot_samples=5)
    c = AttackSpec(kind="square", epsilon=8 / 255, steps=1, query_budget=700)
    labels = {attack_label(s) for s in (a, b, c)}
    assert len(labels) == 3


# -- metrics record ----------------------------------------------------------

def test_metrics_record_rejects_out_of_range():
    with pytest.raises(DomainError):
        MetricsRecord("x", 0, clean_accuracy=101.0, robust_accuracy={})
    with pytest.raises(DomainError):
        MetricsRecord("x", 0, clean_accuracy=50.0,
                      robust_accuracy={"pgd": -0.1})


def test_metrics_record_serializes_without_timings():
    rec = MetricsRecord("x", 0, 50.0, {"none": 50.0}, timings={"train": 1.0},
                        page_faults={"train": 7})
    d = rec.to_dict(include_timings=False)
    assert "timings" not in d and "page_faults" not in d
    assert rec.to_dict()["timings"] == {"train": 1.0}
    assert rec.to_dict()["page_faults"] == {"train": 7}


# -- stochastic inference ----------------------------------------------------

def test_stochastic_predict_matches_per_sample_draws(tiny_setup):
    bank, model, ev = tiny_setup
    x, ids = ev.x[:8], ev.ids[:8]
    preds, logits = stochastic_predict(bank, model, x, ids, seed=4)
    for r in range(8):
        idx = sample_filter_index(bank.k, [4, INFERENCE_TAG, int(ids[r]), 0])
        ref = model.forward_np(filter_forward_np(bank.filters[idx], x[r:r + 1]))
        np.testing.assert_allclose(logits[r], ref[0], rtol=1e-12)
        assert preds[r] == ref[0].argmax()


def test_stochastic_predict_is_deterministic(tiny_setup):
    bank, model, ev = tiny_setup
    p1, l1 = stochastic_predict(bank, model, ev.x, ev.ids, seed=4)
    p2, l2 = stochastic_predict(bank, model, ev.x, ev.ids, seed=4)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(l1, l2)


def test_stochastic_predict_varies_with_seed(tiny_setup):
    bank, model, ev = tiny_setup
    draws = {tuple(sample_filter_index(bank.k, [s, INFERENCE_TAG, int(i), 0])
                   for i in ev.ids) for s in range(6)}
    assert len(draws) > 1


# -- evaluation --------------------------------------------------------------

def test_none_entry_equals_clean(tiny_setup):
    bank, model, ev = tiny_setup
    rec = evaluate_robust_accuracy(bank, model, ev, [], inference_seed=1)
    assert rec.robust_accuracy["none"] == rec.clean_accuracy


def test_evaluation_rejects_attacks_sharing_a_label(tiny_setup, tmp_path):
    bank, model, ev = tiny_setup
    specs = [AttackSpec(kind="pgd", epsilon=4 / 255, steps=s) for s in (1, 2)]
    path = tmp_path / "a.csv"
    with pytest.raises(DomainError, match=r"attacks\[0\] and attacks\[1\] share"):
        evaluate_robust_accuracy(bank, model, ev, specs, inference_seed=1,
                                 csv_path=path)
    assert not path.exists()


def test_evaluation_csv_format_and_determinism(tiny_setup, tmp_path):
    bank, model, ev = tiny_setup
    spec = AttackSpec(kind="pgd", norm="linf", epsilon=4 / 255, steps=2)
    p1, p2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    r1 = evaluate_robust_accuracy(bank, model, ev, [spec], inference_seed=1,
                                  csv_path=p1)
    r2 = evaluate_robust_accuracy(bank, model, ev, [spec], inference_seed=1,
                                  csv_path=p2)
    assert r1.robust_accuracy == r2.robust_accuracy
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == ",".join(ATTACK_CSV_FIELDS)
    assert len(lines) == 1 + len(ev.y)
    first = lines[1].split(",")
    assert first[1] == "pgd"
    assert int(first[5]) in (0, 1)
    assert int(first[6]) == 2
    float(first[2]), float(first[7])


def test_square_rows_carry_real_query_counts(tiny_setup, tmp_path):
    bank, model, ev = tiny_setup
    spec = AttackSpec(kind="square", norm="linf", epsilon=8 / 255, steps=1,
                      query_budget=15)
    path = tmp_path / "sq.csv"
    evaluate_robust_accuracy(bank, model, ev, [spec], inference_seed=1,
                             csv_path=path)
    queries = [int(line.split(",")[6])
               for line in path.read_text().splitlines()[1:]]
    assert all(1 <= q <= 15 for q in queries)


# -- experiment pipeline -----------------------------------------------------

def test_run_writes_all_artifacts(micro_run):
    _, metrics, out = micro_run
    for name in ("training_log.csv", "checkpoint.dtns", "attacks.csv",
                 "metrics.json", "manifest.json", "consensus_exact.json",
                 "gradnorm.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["stages_completed"] == [
        "dataset", "pretrain", "train", "attacks", "diagnostics"]
    assert metrics.consensus_mean_offdiag is not None
    assert set(metrics.timings) == set(manifest["stages_completed"])
    assert set(metrics.page_faults) == set(manifest["stages_completed"])
    assert all(isinstance(n, int) and n >= 0
               for n in metrics.page_faults.values())


def test_metrics_json_matches_record(micro_run):
    _, metrics, out = micro_run
    on_disk = json.loads((out / "metrics.json").read_text())
    assert on_disk == metrics.to_dict()


def test_manifest_with_a_crn_key_is_rejected(micro_run, tmp_path):
    # EoT draws have one stream, common random numbers, and no crn option;
    # a manifest written while AttackSpec had one is rejected, key path named
    _, _, out = micro_run
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["attacks"][0]["crn"] = True
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(DomainError, match=r"^unknown config key attacks\[0\]\.crn$"):
        rerun_from_manifest(path, tmp_path / "rerun")
    assert not (tmp_path / "rerun").exists()


def test_manifest_rerun_reproduces_numbers(micro_run, tmp_path):
    _, metrics, out = micro_run
    again = rerun_from_manifest(out / "manifest.json", tmp_path / "rerun")
    assert again.to_dict(include_timings=False) == \
        metrics.to_dict(include_timings=False)
    for name in ("attacks.csv", "training_log.csv", "checkpoint.dtns",
                 "consensus_exact.json"):
        assert (tmp_path / "rerun" / name).read_bytes() == \
            (out / name).read_bytes(), name


def test_disabled_diagnostics_emit_nothing(tmp_path):
    cfg = dict(MICRO, experiment_id="quiet", out_dir=str(tmp_path / "q"),
               diagnostics={"consensus": False, "gradnorm": False},
               attacks=[])
    metrics = run_experiment(config_from_dict(cfg))
    names = {p.name for p in (tmp_path / "q").iterdir()}
    assert not names & {"consensus_exact.json", "gradnorm.json",
                        "mismatch.json", "transfer.csv", "probes.json",
                        "landscape.csv"}
    assert metrics.consensus_mean_offdiag is None


def test_failed_stage_is_tagged_and_leaves_partial_manifest(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("training failed")
    monkeypatch.setattr("drift.harness.train_drift", boom)
    cfg = dict(MICRO, out_dir=str(tmp_path / "boom"))
    with pytest.raises(StageError) as err:
        run_experiment(config_from_dict(cfg))
    assert err.value.stage == "train"
    manifest = json.loads((tmp_path / "boom" / "manifest.json").read_text())
    assert manifest["status"] == "failed:train"
    assert manifest["partial"] is True
    assert manifest["stages_completed"] == ["dataset", "pretrain"]


def test_eval_split_is_disjoint_from_training(micro_run):
    config, _, _ = micro_run
    tr, ev = generate_synthetic_dataset(config.dataset.classes,
                                        config.dataset.side,
                                        config.dataset.n_per_class,
                                        config.dataset.seed)
    assert not set(tr.ids.tolist()) & set(ev.ids.tolist())


# -- overhead ----------------------------------------------------------------

def test_overhead_requires_enough_trials(tiny_setup):
    bank, model, _ = tiny_setup
    with pytest.raises(DomainError):
        measure_overhead(bank, model, n_trials=99)


def test_overhead_param_bytes_analytic(tiny_setup):
    bank, model, _ = tiny_setup
    ov = measure_overhead(bank, model, n_trials=100)
    # res_block, 1 channel, hidden 16: (16*1*9 + 16) + (1*16*9 + 1), float64
    assert ov["param_bytes"] == ((16 * 9 + 16) + (16 * 9 + 1)) * 8
    assert ov["bank_param_bytes"] == 2 * ov["param_bytes"]
    assert ov["ratio"] > 1.0


def test_overhead_identity_only_is_free(tiny_setup):
    _, model, _ = tiny_setup
    ov = measure_overhead(None, model, n_trials=150)
    assert 0.5 < ov["ratio"] < 1.5
    assert ov["param_bytes"] == 0
