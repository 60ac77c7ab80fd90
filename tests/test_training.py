"""Optimizer arithmetic, gradient hygiene, and the training loop contract."""

import copy

import numpy as np
import pytest

from drift.data import generate_synthetic_dataset
from drift.errors import DivergenceError, DomainError
from drift.losses import LossWeights, ProbeConfig
from drift.models import (
    build_base_model, build_filter_bank, pretrain_and_freeze,
)
from drift import training
from drift.rng import rng_from
from drift.training import (
    EPOCH_TAG, OptimizerState, TrainConfig, clip_gradients, global_grad_norm,
    optimizer_step, read_training_log, sanitize_gradients, train_drift,
    write_training_log,
)

RNG = np.random.default_rng(20)


# ---------------------------------------------------------------------------
# optimizer_step
# ---------------------------------------------------------------------------

def test_adamw_zero_grad_applies_only_decay():
    p = {"w": np.array([2.0, -4.0])}
    st = OptimizerState.for_params(p)
    out, st = optimizer_step(p, {"w": np.zeros(2)}, st, lr=0.5,
                             weight_decay=0.1)
    np.testing.assert_array_equal(out["w"], np.array([2.0, -4.0]) * (1 - 0.05))
    assert st.t == 1


def test_adamw_first_step_matches_hand_formula():
    lr, wd, b1, b2, eps = 1e-3, 0.0, 0.9, 0.999, 1e-8
    p = {"w": np.array([0.0])}
    st = OptimizerState.for_params(p)
    out, st = optimizer_step(p, {"w": np.array([1.0])}, st, lr, wd)
    m = (1 - b1) * 1.0
    v = (1 - b2) * 1.0
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    want = -lr * mhat / (np.sqrt(vhat) + eps)
    np.testing.assert_allclose(out["w"][0], want, rtol=0, atol=0)


def test_adamw_two_steps_match_hand_recurrence():
    lr, wd, b1, b2, eps = 0.01, 0.02, 0.9, 0.999, 1e-8
    p = {"w": np.array([1.5])}
    st = OptimizerState.for_params(p)
    g1, g2 = 0.7, -0.3

    pw, m, v = 1.5, 0.0, 0.0
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        pw = pw - lr * wd * pw - lr * mhat / (np.sqrt(vhat) + eps)

    p, st = optimizer_step(p, {"w": np.array([g1])}, st, lr, wd)
    p, st = optimizer_step(p, {"w": np.array([g2])}, st, lr, wd)
    np.testing.assert_allclose(p["w"][0], pw, rtol=1e-15)


def test_adamw_decay_is_decoupled_from_moments():
    # With zero gradient the update must not touch m/v at all.
    p = {"w": np.array([10.0])}
    st = OptimizerState.for_params(p)
    optimizer_step(p, {"w": np.zeros(1)}, st, lr=0.1, weight_decay=0.5)
    assert st.m["w"][0] == 0.0 and st.v["w"][0] == 0.0


def test_adamw_rejects_nonfinite_and_mismatched_grads():
    p = {"w": np.zeros(2)}
    st = OptimizerState.for_params(p)
    with pytest.raises(DomainError):
        optimizer_step(p, {"w": np.array([np.nan, 0.0])}, st, 1e-3, 0.0)
    with pytest.raises(DomainError):
        optimizer_step(p, {"w": np.zeros(3)}, st, 1e-3, 0.0)


# ---------------------------------------------------------------------------
# sanitize / clip
# ---------------------------------------------------------------------------

def test_sanitize_replaces_nonfinite_with_zero():
    g = {"a": np.array([1.0, np.nan, -np.inf])}
    out, n = sanitize_gradients(g)
    np.testing.assert_array_equal(out["a"], np.array([1.0, 0.0, 0.0]))
    assert n == 2


def test_sanitize_clean_input_untouched():
    g = {"a": np.array([1.0, -2.0])}
    out, n = sanitize_gradients(g)
    assert n == 0
    np.testing.assert_array_equal(out["a"], g["a"])


def test_clip_halves_when_norm_is_twice_the_cap():
    g = {"a": np.array([3.0]), "b": np.array([4.0])}   # global norm 5
    out = clip_gradients(g, 2.5)
    np.testing.assert_allclose(out["a"][0], 1.5, rtol=1e-15)
    np.testing.assert_allclose(out["b"][0], 2.0, rtol=1e-15)


def test_clip_postnorm_equals_min_of_prenorm_and_cap():
    for trial in range(10):
        g = {str(i): RNG.standard_normal(5) for i in range(3)}
        cap = float(RNG.uniform(0.1, 5.0))
        pre = global_grad_norm(g)
        post = global_grad_norm(clip_gradients(g, cap))
        want = min(pre, cap)
        assert abs(post - want) <= 1e-12 * max(want, 1.0)


def test_clip_under_cap_returns_same_values():
    g = {"a": np.array([0.1, 0.1])}
    out = clip_gradients(g, 10.0)
    np.testing.assert_array_equal(out["a"], g["a"])


# ---------------------------------------------------------------------------
# train_drift on a micro problem
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def micro_setup():
    train, _ = generate_synthetic_dataset(3, 8, 20, seed=5)
    model = build_base_model((3, 8, 8), 3, seed=5, channels=(4, 8))
    model = pretrain_and_freeze(model, (train.x, train.y), epochs=10, lr=1e-3,
                                batch_size=30)
    return model, (train.x, train.y)


def micro_config(**kw):
    base = dict(epochs=2, batch_size=30, lr=1e-3,
                w_js=0, w_lvjp=0, w_adv=0, pgd_steps=2,
                probes=ProbeConfig(p_v=1, p_w=1, seed=3), seed=7)
    base.update(kw)
    return TrainConfig(**base)


def test_train_requires_frozen_base(micro_setup):
    _, data = micro_setup
    model = build_base_model((3, 8, 8), 3, seed=5, channels=(4, 8))
    bank = build_filter_bank("res_block", 2, seed=1)
    with pytest.raises(DomainError):
        train_drift(model, bank, data, micro_config())


def test_train_zero_epochs_leaves_bank_bitwise_unchanged(micro_setup):
    model, data = micro_setup
    bank = build_filter_bank("res_block", 2, seed=1)
    before = copy.deepcopy({i: f.params for i, f in enumerate(bank.filters)})
    bank, log = train_drift(model, bank, data, micro_config(epochs=0))
    assert log == []
    for i, f in enumerate(bank.filters):
        for k, a in f.params.items():
            np.testing.assert_array_equal(a, before[i][k])


def test_warmup_gating_zeroes_inactive_components(micro_setup):
    model, data = micro_setup
    bank = build_filter_bank("res_block", 2, seed=1)
    cfg = micro_config(epochs=3, w_js=1, w_lvjp=2, w_adv=2)
    _, log = train_drift(model, bank, data, cfg)
    assert log[0]["js"] == 0.0 and log[0]["lvjp"] == 0.0 and log[0]["adv"] == 0.0
    assert log[1]["js"] > 0.0 and log[1]["lvjp"] == 0.0 and log[1]["adv"] == 0.0
    assert log[2]["js"] > 0.0 and log[2]["lvjp"] > 0.0 and log[2]["adv"] > 0.0


def test_single_filter_bank_never_gets_js(micro_setup):
    model, data = micro_setup
    bank = build_filter_bank("res_block", 1, seed=1)
    _, log = train_drift(model, bank, data, micro_config(epochs=1))
    assert log[0]["js"] == 0.0
    assert log[0]["lvjp"] > 0.0   # identity group still gives K+1 >= 2 groups


def test_first_epoch_ce_matches_frozen_model_ce(micro_setup):
    model, data = micro_setup
    bank = build_filter_bank("res_block", 2, seed=1)
    cfg = micro_config(epochs=1, batch_size=len(data[1]),
                       weights=LossWeights(alpha=1.0, beta_js=0.0,
                                           beta_lvjp=0.0, lambda_adv=0.0))
    _, log = train_drift(model, bank, data, cfg)

    z = model.forward_np(data[0])
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    ce = float(np.mean(lse - z[np.arange(len(data[1])), data[1]]))
    np.testing.assert_allclose(log[0]["ce"], ce, rtol=1e-12)


@pytest.mark.parametrize("weights", [
    LossWeights(),
    LossWeights(0.0, 0.0, 0.0, 0.0),
    LossWeights(*np.random.default_rng(21).uniform(0.0, 2.0, 4)),
], ids=["desk", "zero", "random"])
def test_logged_total_is_the_weighted_sum_of_the_logged_terms(micro_setup,
                                                              weights):
    # One batch per epoch, so each logged mean is the batch's own value; adv
    # is inactive in epoch 1 and counts as 0.0 there.
    model, data = micro_setup
    bank = build_filter_bank("res_block", 2, seed=1)
    cfg = micro_config(epochs=2, batch_size=len(data[1]), w_adv=1,
                       weights=weights)
    _, log = train_drift(model, bank, data, cfg)
    w = weights
    for row in log:
        want = (w.alpha * row["ce"] + w.beta_js * row["js"]
                + w.beta_lvjp * row["lvjp"] + w.lambda_adv * row["adv"])
        assert row["total"] == want
        assert row["ce"] > 0.0
    assert log[0]["adv"] == 0.0
    for name, wt in (("js", w.beta_js), ("lvjp", w.beta_lvjp),
                     ("adv", w.lambda_adv)):
        assert (log[1][name] > 0.0) == (wt > 0.0)


def test_nonfinite_term_skips_the_batch_at_once(micro_setup, monkeypatch):
    # Batch 0 holds a NaN sample, so its ce is NaN: no later term is built
    # for it, no update is applied, and the epoch means are batch 1's alone.
    model, (x, y) = micro_setup
    cfg = micro_config(epochs=1)
    first = rng_from(cfg.seed, EPOCH_TAG, 1).permutation(len(y))[0]
    x = x.copy()
    x[first, 0, 0, 0] = np.nan
    calls = {}

    def record(name, value_of=lambda out: None):
        fn = getattr(training, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.setdefault(name, []).append(value_of(out))
            return out
        monkeypatch.setattr(training, name, wrapper)

    for name in ("ce_component", "js_component", "lvjp_component",
                 "adv_component"):
        record(name, lambda out: float(out.value))
    record("pgd")
    record("optimizer_step")
    bank = build_filter_bank("res_block", 2, seed=1)
    _, log = train_drift(model, bank, (x, y), cfg)

    assert {k: len(v) for k, v in calls.items()} == {
        "ce_component": 2, "js_component": 1, "lvjp_component": 1,
        "adv_component": 1, "pgd": 1, "optimizer_step": 1}
    assert np.isnan(calls["ce_component"][0])
    for name in ("ce", "js", "lvjp", "adv"):
        assert log[0][name] == calls[f"{name}_component"][-1]


def test_training_is_deterministic(micro_setup):
    model, data = micro_setup
    runs = []
    for _ in range(2):
        bank = build_filter_bank("res_block", 2, seed=1)
        bank, log = train_drift(model, bank, data,
                                micro_config(epochs=2, w_adv=1))
        runs.append((bank, log))
    assert runs[0][1] == runs[1][1]
    for f0, f1 in zip(runs[0][0].filters, runs[1][0].filters):
        for k in f0.params:
            np.testing.assert_array_equal(f0.params[k], f1.params[k])


def test_training_moves_parameters_and_preserves_base(micro_setup):
    model, data = micro_setup
    checksum = model.checksum()
    bank = build_filter_bank("res_block", 2, seed=1)
    before = copy.deepcopy(bank.filters[0].params)
    bank, log = train_drift(model, bank, data, micro_config(epochs=1))
    moved = any(not np.array_equal(bank.filters[0].params[k], before[k])
                for k in before)
    assert moved
    assert model.checksum() == checksum
    assert all(np.isfinite(row["total"]) for row in log)


def test_poisoned_bank_raises_divergence(micro_setup):
    model, data = micro_setup
    bank = build_filter_bank("res_block", 2, seed=1)
    bank.filters[0].params["w1"] = np.full_like(
        bank.filters[0].params["w1"], np.nan)
    with pytest.raises(DivergenceError):
        train_drift(model, bank, data, micro_config(epochs=1))


def test_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(epochs=-1)
    with pytest.raises(DomainError):
        TrainConfig(epochs=2, w_js=3)
    with pytest.raises(DomainError):
        TrainConfig(clip_norm=0.0)
    cfg = TrainConfig(epochs=4, w_js=0, w_lvjp=0, w_adv=0,
                      pgd_epsilon=0.02, pgd_steps=4)
    assert cfg.pgd_step_size == 0.005


def test_log_csv_round_trip(tmp_path, micro_setup):
    model, data = micro_setup
    bank = build_filter_bank("res_block", 2, seed=1)
    _, log = train_drift(model, bank, data, micro_config(epochs=2, w_adv=1))
    path = tmp_path / "log.csv"
    write_training_log(log, path)
    assert read_training_log(path) == log
