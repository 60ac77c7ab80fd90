"""Base model, filters, identity init, freezing, inference sampling."""

import numpy as np
import pytest

from drift import DomainError
from drift.data import generate_synthetic_dataset
from drift.harness import stochastic_predict
from drift.models import (
    FilterArch, bind_params, build_base_model, build_filter_bank,
    base_apply, filter_forward, filter_forward_np, filter_param_count,
    init_filter_identity, param_checksum, pretrain_and_freeze,
    sample_filter_index,
)
from drift.rng import rng_from
from drift.tape import Tape, cross_entropy_rows, grad, mean_all, vjp

RNG = np.random.default_rng(42)


def test_build_base_model_deterministic():
    m1 = build_base_model((3, 16, 16), 10, seed=7)
    m2 = build_base_model((3, 16, 16), 10, seed=7)
    m3 = build_base_model((3, 16, 16), 10, seed=8)
    assert m1.checksum() == m2.checksum()
    assert m1.checksum() != m3.checksum()


def test_base_forward_shapes():
    m = build_base_model((3, 16, 16), 10, seed=7)
    xb = RNG.uniform(0, 1, (5, 3, 16, 16))
    assert m.forward_np(xb).shape == (5, 10)


def test_base_model_degenerate_args():
    with pytest.raises(DomainError):
        build_base_model((3, 0, 16), 10, seed=0)
    with pytest.raises(DomainError):
        build_base_model((3, 16, 16), 1, seed=0)


def test_taped_and_numpy_base_forward_match():
    m = build_base_model((3, 8, 8), 5, seed=3)
    x = RNG.uniform(0, 1, (4, 3, 8, 8))
    t = Tape()
    logits = base_apply(bind_params(t, m.params), t.leaf(x))
    np.testing.assert_array_equal(logits.value, m.forward_np(x))


# -- filters ------------------------------------------------------------------

def test_res_block_identity_init_bitwise():
    f = init_filter_identity("res_block", seed=0)
    x = RNG.uniform(0, 1, (1, 3, 16, 16))
    assert filter_forward_np(f, x).tobytes() == x.tobytes()
    t = Tape()
    xv = t.leaf(x)
    assert filter_forward(f, xv).value.tobytes() == x.tobytes()


def test_identity_init_seeds_differ_but_both_identity():
    f1 = init_filter_identity("res_block", seed=1)
    f2 = init_filter_identity("res_block", seed=2)
    assert param_checksum(f1.params) != param_checksum(f2.params)
    x = RNG.uniform(0, 1, (1, 3, 8, 8))
    assert filter_forward_np(f1, x).tobytes() == filter_forward_np(f2, x).tobytes()


@pytest.mark.parametrize("arch", ["res_block"])
def test_filter_shape_preserving(arch):
    f = init_filter_identity(arch, seed=4)
    x = RNG.uniform(0, 1, (1, 3, 12, 12))
    assert filter_forward_np(f, x).shape == x.shape
    xb = RNG.uniform(0, 1, (2, 3, 12, 12))
    assert filter_forward_np(f, xb).shape == xb.shape


@pytest.mark.parametrize("arch", ["res_block"])
def test_filter_vjp_matches_fd(arch):
    f = init_filter_identity(arch, seed=9)
    # move params off the identity so the test is not trivial
    r = np.random.default_rng(1)
    for k in f.params:
        f.params[k] = f.params[k] + 0.05 * r.standard_normal(f.params[k].shape)
    x0 = RNG.uniform(0.2, 0.8, (1, 3, 6, 6))
    v = r.standard_normal((1, 3, 6, 6))

    t = Tape()
    xv = t.leaf(x0)
    y = filter_forward(f, xv)
    (g,) = vjp(t, y, v, [xv])

    def scal(x):
        return float(np.vdot(v, filter_forward_np(f, x)))

    eta = 1e-5
    u = r.standard_normal(x0.shape)
    u /= np.linalg.norm(u)
    fd = (scal(x0 + eta * u) - scal(x0 - eta * u)) / (2 * eta)
    an = float(np.vdot(u, g.value))
    assert abs(an - fd) / (abs(fd) + 1e-12) < 1e-5


def test_res_block_param_count():
    f = init_filter_identity("res_block", seed=0)
    assert filter_param_count(f) == 883


def test_taped_and_numpy_filter_match():
    f = init_filter_identity("res_block", seed=5)
    x = RNG.uniform(0, 1, (2, 3, 8, 8))
    t = Tape()
    y = filter_forward(f, t.leaf(x))
    np.testing.assert_array_equal(y.value, filter_forward_np(f, x))


def test_tape_free_forwards_call_the_module_layer_functions(monkeypatch):
    # per-layer profiling rebinds drift.models.np_conv2d / np_dense; the
    # tape-free forwards must look them up at call time
    import drift.models as models
    calls = {"np_conv2d": 0, "np_dense": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(models, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(models, name, counted)
    x = np.random.default_rng(0).uniform(0, 1, (2, 3, 8, 8))
    build_base_model((3, 8, 8), 5, seed=3).forward_np(x)
    assert calls == {"np_conv2d": 2, "np_dense": 1}
    calls["np_conv2d"] = 0
    filter_forward_np(init_filter_identity("res_block", seed=5), x)
    assert calls == {"np_conv2d": 2, "np_dense": 1}


# -- pretraining and freeze ---------------------------------------------------

@pytest.fixture(scope="module")
def desk():
    train, eval_ = generate_synthetic_dataset(10, 16, 40, seed=0)
    model = build_base_model((3, 16, 16), 10, seed=0)
    model = pretrain_and_freeze(model, (train.x, train.y), epochs=30, lr=1e-3)
    return model, train, eval_


def test_pretrain_reaches_train_accuracy(desk):
    model, train, eval_ = desk
    pred = model.forward_np(train.x).argmax(axis=1)
    assert (pred == train.y).mean() >= 0.95
    pred_ev = model.forward_np(eval_.x).argmax(axis=1)
    assert (pred_ev == eval_.y).mean() >= 0.90


def test_freeze_makes_params_readonly(desk):
    model, _, _ = desk
    assert model.frozen
    with pytest.raises(ValueError):
        model.params["fc_b"][0] = 1.0
    assert model.checksum() == model.frozen_checksum


def test_zero_epochs_freezes_without_update():
    tr, _ = generate_synthetic_dataset(2, 8, 4, seed=1)
    m = build_base_model((3, 8, 8), 2, seed=1)
    before = m.checksum()
    m = pretrain_and_freeze(m, (tr.x, tr.y), epochs=0, lr=1e-3)
    assert m.frozen and m.checksum() == before


def _adam_pretrain_reference(model, dataset, epochs, lr, batch_size=100):
    """Pretraining with a hand-written Adam loop: the reference that
    optimizer_step at weight decay 0 must reproduce bitwise."""
    x_all, y_all = dataset
    n = x_all.shape[0]
    rng = rng_from(model.seed, 101)
    names = sorted(model.params)
    m_state = {k: np.zeros_like(model.params[k]) for k in names}
    v_state = {k: np.zeros_like(model.params[k]) for k in names}
    step = 0
    b1, b2, eps = 0.9, 0.999, 1e-8
    for _ in range(int(epochs)):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            tape = Tape()
            pv = bind_params(tape, model.params)
            logits = base_apply(pv, tape.leaf(x_all[idx]))
            loss = mean_all(cross_entropy_rows(logits, y_all[idx]))
            gs = grad(tape, loss, [pv[k] for k in names])
            step += 1
            for k, g in zip(names, gs):
                gv = np.nan_to_num(g.value, nan=0.0, posinf=0.0, neginf=0.0)
                m_state[k] = b1 * m_state[k] + (1 - b1) * gv
                v_state[k] = b2 * v_state[k] + (1 - b2) * gv * gv
                mhat = m_state[k] / (1 - b1 ** step)
                vhat = v_state[k] / (1 - b2 ** step)
                model.params[k] = model.params[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return model


def test_pretrain_matches_reference_adam_bitwise():
    tr, _ = generate_synthetic_dataset(4, 8, 30, seed=1)
    got = pretrain_and_freeze(build_base_model((3, 8, 8), 4, seed=2, channels=(4, 8)),
                              (tr.x, tr.y), epochs=3, lr=1e-2, batch_size=32)
    ref = _adam_pretrain_reference(
        build_base_model((3, 8, 8), 4, seed=2, channels=(4, 8)),
        (tr.x, tr.y), epochs=3, lr=1e-2, batch_size=32)
    assert sorted(got.params) == sorted(ref.params)
    assert got.checksum() != build_base_model((3, 8, 8), 4, seed=2, channels=(4, 8)).checksum()
    for k in ref.params:
        assert got.params[k].tobytes() == ref.params[k].tobytes(), k


def test_separable_blobs_perfect_accuracy():
    # two well-separated classes; a few epochs reach 100% train accuracy
    tr, _ = generate_synthetic_dataset(2, 8, 20, seed=3)
    m = build_base_model((3, 8, 8), 2, seed=3)
    m = pretrain_and_freeze(m, (tr.x, tr.y), epochs=30, lr=1e-3)
    pred = m.forward_np(tr.x).argmax(axis=1)
    assert (pred == tr.y).mean() == 1.0


def test_sample_mode_k1_always_filter_zero():
    assert all(sample_filter_index(1, [s]) == 0 for s in range(20))


def test_sampling_uniformity():
    draws = [sample_filter_index(4, [99, i]) for i in range(10_000)]
    freq = np.bincount(draws, minlength=4) / 10_000
    assert freq.min() >= 0.22 and freq.max() <= 0.28


def test_identity_init_ensemble_matches_base_accuracy(desk):
    model, _, eval_ = desk
    bank = build_filter_bank("res_block", 4, seed=0)
    base_pred = model.forward_np(eval_.x).argmax(axis=1)
    ens, _ = stochastic_predict(bank, model, eval_.x, eval_.ids, seed=7)
    assert np.array_equal(base_pred, ens)


@pytest.mark.parametrize("hidden", [0, -3])
def test_filter_arch_rejects_degenerate_hidden(hidden):
    with pytest.raises(DomainError, match="hidden must be at least 1"):
        FilterArch("res_block", hidden=hidden)


def test_filter_arch_validation():
    for name in ("resnet50", "single_conv", "deep_conv"):
        with pytest.raises(DomainError, match="arch must be 'res_block'"):
            FilterArch(name)
    with pytest.raises(DomainError):
        build_filter_bank("res_block", 0, seed=0)


def test_np_dense_reuses_a_read_only_transpose_bitwise():
    # a read-only weight's contiguous transpose is copied once and reused;
    # a writeable weight is copied on every call, so mutating it is seen
    from drift.models import np_dense
    x = RNG.normal(size=(3, 64))
    w, b = RNG.normal(size=(10, 64)), RNG.normal(size=10)

    def reference(w):
        return x @ np.ascontiguousarray(w.T) + np.broadcast_to(b, (len(x), 10))

    frozen = w.copy()
    frozen.flags.writeable = False
    for _ in range(2):
        np.testing.assert_array_equal(np_dense(x, frozen, b), reference(w))
    other = w[::-1].copy()
    other.flags.writeable = False
    np.testing.assert_array_equal(np_dense(x, other, b), reference(other))
    np.testing.assert_array_equal(np_dense(x, w, b), reference(w))
    w[0, 0] += 1.0
    np.testing.assert_array_equal(np_dense(x, w, b), reference(w))
