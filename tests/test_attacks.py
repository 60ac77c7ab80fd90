"""Attack suite: closed-form oracles, projections, determinism, threat models."""

from itertools import product

import numpy as np
import pytest

from conftest import micro_bank
from drift import DomainError, ShapeError
from drift import attacks as attacks_module
from drift.attacks import (
    EOT_TAG, AttackSpec, GradientOracle, _margins, _pipeline_loss_grad,
    adaptive_attack, base_oracle, check_budget, ensemble_margin_score,
    eot_draw_counts, eot_oracle, filter_oracle, mim, pgd,
    square_attack,
)
from drift.diagnostics import eot_loss_rows, gradient_norm_stats
from drift.models import (
    Filter, FilterArch, FilterBank, base_apply, bind_params, build_base_model,
    build_filter_bank, filter_forward, filter_forward_np, sample_filter_index,
)
from drift.tape import Tape, conv2d, cross_entropy_rows, dense, grad, sum_all, vjp

RNG = np.random.default_rng(1000)


def linear_oracle(c):
    """loss(x) = <c, x> per sample; gradient is the constant field c."""
    def fn(x, y, step):
        loss = (x * c).reshape(x.shape[0], -1).sum(axis=1)
        return loss, np.broadcast_to(c, x.shape).copy()
    return GradientOracle(fn)


# -- spec validation ----------------------------------------------------------

def test_attack_spec_defaults_and_validation():
    s = AttackSpec(epsilon=4 / 255)
    assert s.step_size == pytest.approx(0.4 / 255)
    with pytest.raises(DomainError):
        AttackSpec(epsilon=0.0)
    with pytest.raises(DomainError):
        AttackSpec(steps=0)
    with pytest.raises(DomainError):
        AttackSpec(kind="cw")
    with pytest.raises(DomainError):
        AttackSpec(norm="l1")
    # specs that would run other than their label says
    for kwargs, message in (({"eot_samples": -3}, "eot_samples"),
                            ({"query_budget": -5}, "query_budget"),
                            ({"bpda_identity": True}, "bpda_identity")):
        with pytest.raises(DomainError, match=message):
            AttackSpec(**kwargs)


def test_square_spec_rejects_eot_samples():
    # Square scores one filter draw per query: an EoT count would be recorded
    # in attacks.csv for an attack that never ran EoT
    assert AttackSpec(kind="square", eot_samples=0).eot_samples == 0
    for m in (1, 5):
        with pytest.raises(DomainError, match="eot_samples must be 0"):
            AttackSpec(kind="square", eot_samples=m)


# -- pgd ----------------------------------------------------------------------

def test_pgd_linear_scorer_fixed_point():
    c = RNG.standard_normal((1, 1, 4, 4))
    x0 = np.full((1, 1, 4, 4), 0.5)
    spec = AttackSpec(epsilon=0.05, steps=1, step_size=0.05)
    x_adv, delta = pgd(linear_oracle(c), x0, np.array([0]), spec)
    np.testing.assert_allclose(delta, spec.epsilon * np.sign(c), rtol=1e-12)
    # more steps stay at the projection fixed point
    spec5 = AttackSpec(epsilon=0.05, steps=5, step_size=0.05)
    x_adv5, delta5 = pgd(linear_oracle(c), x0, np.array([0]), spec5)
    np.testing.assert_allclose(delta5, delta, rtol=1e-12)


def test_pgd_zero_gradient_zero_delta():
    c = np.zeros((1, 1, 3, 3))
    x0 = np.full((1, 1, 3, 3), 0.4)
    spec = AttackSpec(epsilon=0.1, steps=1)
    for norm in ("linf", "l2"):
        spec = AttackSpec(epsilon=0.1, steps=1, norm=norm)
        _, delta = pgd(linear_oracle(c), x0, np.array([0]), spec)
        assert np.all(delta == 0.0)


def test_pgd_nonfinite_gradient_sanitized():
    def fn(x, y, step):
        g = np.full(x.shape, np.nan)
        return np.zeros(x.shape[0]), g
    spec = AttackSpec(epsilon=0.1, steps=2)
    x0 = np.full((2, 1, 2, 2), 0.5)
    _, delta = pgd(GradientOracle(fn), x0, np.zeros(2, dtype=int), spec)
    assert np.all(delta == 0.0)


def test_unbatched_inputs_raise_shape_error():
    # every array carries a batch axis; an image [C,H,W] without one is
    # refused where it enters
    img = np.full((1, 4, 4), 0.5)
    t = Tape()
    with pytest.raises(ShapeError):
        conv2d(t.leaf(img), t.leaf(np.zeros((2, 1, 3, 3))), t.leaf(np.zeros(2)), 1)
    with pytest.raises(ShapeError):
        dense(t.leaf(np.zeros(16)), t.leaf(np.zeros((3, 16))), t.leaf(np.zeros(3)))
    spec = AttackSpec(epsilon=0.1, steps=1)
    with pytest.raises(ShapeError):
        pgd(linear_oracle(np.ones_like(img)), img, np.array([0]), spec)
    with pytest.raises(ShapeError):
        square_attack(lambda x, y, seeds: np.ones(len(x)), img, np.array([0]),
                      AttackSpec(kind="square", epsilon=0.1, query_budget=3))


def test_pgd_rejects_out_of_range_input():
    spec = AttackSpec(epsilon=0.1)
    with pytest.raises(DomainError):
        pgd(linear_oracle(np.ones((1, 1, 2, 2))), np.full((1, 1, 2, 2), 1.5),
            np.array([0]), spec)


def test_l2_projection_radial():
    c = np.ones((1, 1, 2, 2))
    x0 = np.full((1, 1, 2, 2), 0.5)
    spec = AttackSpec(epsilon=0.08, steps=7, step_size=0.05, norm="l2")
    _, delta = pgd(linear_oracle(c), x0, np.array([0]), spec)
    assert np.linalg.norm(delta) <= spec.epsilon * (1 + 1e-9)
    # gradient is uniform, so the step direction is x/2 scaled; norm saturates
    assert np.linalg.norm(delta) == pytest.approx(spec.epsilon, rel=1e-9)


# -- lemma oracle: first-order transfer --------------------------------------

def test_first_order_transfer_identity():
    # linear pipelines: loss_i(x) = <c_i, x>; attack i, measure increase on j
    d = (1, 1, 4, 4)
    r = np.random.default_rng(7)
    eps = 0.01
    c_i = r.standard_normal(d)
    c_j = r.standard_normal(d)
    x0 = np.full(d, 0.5)
    spec = AttackSpec(epsilon=eps, steps=1, step_size=eps, norm="l2")
    _, delta = pgd(linear_oracle(c_i), x0, np.array([0]), spec)

    increase = float(np.vdot(c_j, delta))
    cos = np.vdot(c_i, c_j) / (np.linalg.norm(c_i) * np.linalg.norm(c_j))
    predicted = eps * np.linalg.norm(c_j) * cos
    assert abs(increase - predicted) / abs(predicted) < 1e-10


def test_transfer_monotone_in_consensus():
    # g_j at controlled angle: transfer success grows with squared cosine
    d = 16
    e1 = np.zeros(d); e1[0] = 1.0
    e2 = np.zeros(d); e2[1] = 1.0
    eps = 0.01
    increases = []
    for gamma in (0.0, 0.25, 0.5, 0.9):
        cj = np.sqrt(gamma) * e1 + np.sqrt(1 - gamma) * e2
        c_i = e1.reshape(1, 1, 4, 4)
        c_j = cj.reshape(1, 1, 4, 4)
        spec = AttackSpec(epsilon=eps, steps=1, step_size=eps, norm="l2")
        _, delta = pgd(linear_oracle(c_i), np.full((1, 1, 4, 4), 0.5), np.array([0]), spec)
        increases.append(float(np.vdot(c_j, delta)))
    assert all(b > a for a, b in zip(increases, increases[1:]))


# -- mim ----------------------------------------------------------------------

def test_mim_decay_zero_matches_pgd_signs():
    c = RNG.standard_normal((1, 1, 4, 4)) + 0.2
    x0 = np.full((1, 1, 4, 4), 0.5)
    spec = AttackSpec(kind="mim", epsilon=0.03, steps=6, step_size=0.005,
                      momentum_decay=0.0)
    spec_p = AttackSpec(epsilon=0.03, steps=6, step_size=0.005)
    _, d_m = mim(linear_oracle(c), x0, np.array([0]), spec)
    _, d_p = pgd(linear_oracle(c), x0, np.array([0]), spec_p)
    np.testing.assert_allclose(d_m, d_p, atol=1e-15)


def test_mim_constant_gradient_matches_pgd():
    c = RNG.standard_normal((1, 1, 3, 3)) + 0.1
    x0 = np.full((1, 1, 3, 3), 0.5)
    spec = AttackSpec(kind="mim", epsilon=0.02, steps=5, step_size=0.004)
    spec_p = AttackSpec(epsilon=0.02, steps=5, step_size=0.004)
    _, d_m = mim(linear_oracle(c), x0, np.array([0]), spec)
    _, d_p = pgd(linear_oracle(c), x0, np.array([0]), spec_p)
    np.testing.assert_allclose(d_m, d_p, atol=1e-15)


def test_mim_oscillating_gradients_match_hand_simulation():
    # scripted gradient sequence with alternating signs in one coordinate
    gs = [np.array([[[1.0, -1.0]]]), np.array([[[-1.0, -1.0]]]),
          np.array([[[1.0, -1.0]]]), np.array([[[-1.0, -1.0]]])]

    def fn(x, y, step):
        g = gs[step][None]
        return np.zeros(1), g.copy()

    spec = AttackSpec(kind="mim", epsilon=0.1, steps=4, step_size=0.02,
                      momentum_decay=1.0)
    x0 = np.full((1, 1, 1, 2), 0.5)
    _, d_mim = mim(GradientOracle(fn), x0, np.array([0]), spec)

    m = np.zeros((1, 1, 2))
    delta = np.zeros((1, 1, 2))
    for t in range(4):
        g = gs[t]
        m = 1.0 * m + g / np.abs(g).sum()
        delta = np.clip(delta + 0.02 * np.sign(m), -0.1, 0.1)
        delta = np.clip(0.5 + delta, 0, 1) - 0.5
    np.testing.assert_allclose(d_mim[0], delta, atol=1e-15)

    spec_p = AttackSpec(epsilon=0.1, steps=4, step_size=0.02)
    _, d_pgd = pgd(GradientOracle(fn), x0, np.array([0]), spec_p)
    assert not np.allclose(d_mim, d_pgd)


def test_mim_l2_rejected():
    with pytest.raises(DomainError):
        AttackSpec(kind="mim", norm="l2", epsilon=0.1)


# -- real-pipeline attacks ----------------------------------------------------

@pytest.fixture(scope="module")
def attack_setup(desk_base, desk_data):
    _, eval_ = desk_data
    bank = micro_bank(4, seed=50, hidden=16, jitter=0.08)
    x = eval_.x[:24]
    y = eval_.y[:24]
    return desk_base, bank, x, y


def test_budget_exactness_and_box(attack_setup):
    model, bank, x, y = attack_setup
    for norm, eps in (("linf", 8 / 255), ("l2", 1.0)):
        spec = AttackSpec(norm=norm, epsilon=eps, steps=10, seed=3)
        x_adv, delta = pgd(base_oracle(model), x, y, spec)
        check_budget(delta, spec)
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0
        np.testing.assert_array_equal(x_adv, x + delta)


def test_pgd_determinism(attack_setup):
    model, bank, x, y = attack_setup
    spec = AttackSpec(epsilon=4 / 255, steps=8, seed=11)
    a1, _ = pgd(base_oracle(model), x, y, spec)
    a2, _ = pgd(base_oracle(model), x, y, spec)
    assert a1.tobytes() == a2.tobytes()


def test_adaptive_attack_determinism_and_budget(attack_setup):
    model, bank, x, y = attack_setup
    spec = AttackSpec(epsilon=4 / 255, steps=5, eot_samples=3, seed=21)
    a1, d1 = adaptive_attack(bank, model, x, y, spec)
    a2, d2 = adaptive_attack(bank, model, x, y, spec)
    assert a1.tobytes() == a2.tobytes()
    check_budget(d1, spec)
    spec_b = AttackSpec(epsilon=4 / 255, steps=5, eot_samples=3, seed=21,
                        bpda_identity=True)
    a3, _ = adaptive_attack(bank, model, x, y, spec_b)
    assert a3.tobytes() != a1.tobytes()  # different backward model


def test_adaptive_requires_eot(attack_setup):
    model, bank, x, y = attack_setup
    with pytest.raises(DomainError):
        adaptive_attack(bank, model, x, y, AttackSpec(eot_samples=0))


def test_eot_collapse_k1_equals_single_pipeline(attack_setup):
    model, _, x, y = attack_setup
    f = micro_bank(1, seed=77, hidden=16, jitter=0.1).filters[0]
    bank1 = FilterBank([f])
    spec_e = AttackSpec(epsilon=4 / 255, steps=4, eot_samples=1, seed=5)
    spec_f = AttackSpec(epsilon=4 / 255, steps=4, seed=5)
    xa, _ = adaptive_attack(bank1, model, x[:8], y[:8], spec_e)
    xb, _ = pgd(filter_oracle(bank1, model, 0), x[:8], y[:8], spec_f)
    assert xa.tobytes() == xb.tobytes()


def test_adaptive_bpda_identity_bank_matches_base_attack(attack_setup):
    model, _, x, y = attack_setup
    bank_id = build_filter_bank("res_block", 3, seed=0)
    spec = AttackSpec(epsilon=4 / 255, steps=4, eot_samples=2, seed=9,
                      bpda_identity=True)
    xa, _ = adaptive_attack(bank_id, model, x[:8], y[:8], spec)
    spec_b = AttackSpec(epsilon=4 / 255, steps=4, seed=9)
    xb, _ = pgd(base_oracle(model), x[:8], y[:8], spec_b)
    assert xa.tobytes() == xb.tobytes()


# -- eot gradient -------------------------------------------------------------

def eot_grad(bank, model, x, y, eot_samples, seed, step=0):
    return eot_oracle(bank, model, eot_samples, seed=seed)(x, y, step)[1]


def test_eot_gradient_crn_repeatable(attack_setup):
    # draws are keyed by (seed, sample id, step, draw) alone, so a repeated
    # call at the same step, on the same oracle or a new one, sees the same
    # filters
    model, bank, x, y = attack_setup
    oracle = eot_oracle(bank, model, 5, seed=2)
    first = [oracle(x[:6], y[:6], t) for t in (0, 1)]
    again = [oracle(x[:6], y[:6], t) for t in (0, 1)]
    fresh = [eot_oracle(bank, model, 5, seed=2)(x[:6], y[:6], t) for t in (0, 1)]
    for (l1, g1), (l2, g2), (l3, g3) in zip(first, again, fresh):
        assert l1.tobytes() == l2.tobytes() == l3.tobytes()
        assert g1.tobytes() == g2.tobytes() == g3.tobytes()


def test_eot_sample_count_must_be_positive(attack_setup):
    # the one draw function rejects it, so every EoT path does
    model, bank, x, y = attack_setup
    for run in (lambda: eot_draw_counts(bank.k, 0, 0, [0], 0),
                lambda: eot_oracle(bank, model, 0)(x[:2], y[:2], 0),
                lambda: gradient_norm_stats(bank, model, (x[:2], y[:2]), eot_k=0)):
        with pytest.raises(DomainError, match="at least one EoT sample"):
            run()


def test_eot_gradient_k1_bank(attack_setup):
    model, _, x, y = attack_setup
    f = micro_bank(1, seed=60, hidden=16, jitter=0.1).filters[0]
    bank1 = FilterBank([f])
    g5 = eot_grad(bank1, model, x[:4], y[:4], 5, seed=0)
    g1 = eot_grad(bank1, model, x[:4], y[:4], 1, seed=0)
    np.testing.assert_allclose(g5, g1, rtol=1e-12)


def test_eot_variance_shrinks_with_samples():
    model_shape = (3, 6, 6)
    from drift.models import build_base_model
    model = build_base_model(model_shape, 4, seed=3, channels=(6, 6))
    model.freeze()
    bank = micro_bank(3, seed=61, hidden=4, jitter=0.5)
    x = np.random.default_rng(8).uniform(0.2, 0.8, (1,) + model_shape)
    y = np.array([1])

    def first_coord(ks, seed):
        return eot_grad(bank, model, x, y, ks, seed=seed).ravel()[0]

    v5 = np.var([first_coord(5, s) for s in range(150)])
    v20 = np.var([first_coord(20, s) for s in range(150)])
    assert v20 <= (0.25 * 1.3) * v5


# -- eot by multiplicity ------------------------------------------------------

@pytest.fixture(scope="module")
def eot_setup():
    model = build_base_model((3, 8, 8), 4, seed=4, channels=(4, 6)).freeze()
    x = np.random.default_rng(12).uniform(0.0, 1.0, (6, 3, 8, 8))
    y = np.array([0, 1, 2, 3, 1, 0])
    ids = np.array([3, 17, 4, 9, 40, 11])
    banks = {1: micro_bank(1, seed=70, hidden=4, jitter=0.3),
             3: micro_bank(3, seed=71, hidden=4, jitter=0.3)}
    return model, banks, x, y, ids


def _one_pipeline(model, filt, x, y, bpda):
    """Loss and input gradient of one row through one filter, written out."""
    t = Tape()
    if bpda:
        xv = t.leaf(filter_forward_np(filt, x))
        logits = base_apply(bind_params(t, model.params), xv)
    else:
        xv = t.leaf(x)
        logits = base_apply(bind_params(t, model.params), filter_forward(filt, xv))
    ce = cross_entropy_rows(logits, y)
    (g,) = grad(t, sum_all(ce), [xv])
    return ce.value[0], g.value[0]


def _per_draw_mean(bank, model, x, y, ids, m, seed, step, bpda):
    """The EoT mean as defined: one filter draw at a time, then / M."""
    loss = np.zeros(len(y))
    g = np.zeros_like(x)
    for r, s in enumerate(ids):
        for j in range(m):
            i = sample_filter_index(bank.k, [seed, EOT_TAG, int(s), step, j])
            l_r, g_r = _one_pipeline(model, bank.filters[i], x[r:r + 1],
                                     y[r:r + 1], bpda)
            loss[r] += l_r
            g[r] += g_r
    return loss / m, g / m


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("called_before", [True, False])
@pytest.mark.parametrize("bpda", [False, True])
def test_eot_by_multiplicity_equals_per_draw_mean(eot_setup, k, called_before,
                                                  bpda):
    # the oracle holds no call state: an earlier call at another step leaves
    # the draws at this one as they are
    model, banks, x, y, ids = eot_setup
    bank, m, seed, step = banks[k], 7, 6, 2
    oracle = eot_oracle(bank, model, m, seed=seed, sample_ids=ids, bpda=bpda)
    if called_before:
        oracle(x, y, 0)
    loss, g = oracle(x, y, step)
    loss_ref, g_ref = _per_draw_mean(bank, model, x, y, ids, m, seed, step,
                                     bpda)
    np.testing.assert_allclose(loss, loss_ref, rtol=1e-12)
    np.testing.assert_allclose(g, g_ref, rtol=1e-12,
                               atol=1e-12 * np.abs(g_ref).max())


@pytest.mark.parametrize("bpda", [False, True])
def test_eot_oracle_makes_at_most_k_taped_passes(eot_setup, monkeypatch, bpda):
    model, banks, x, y, ids = eot_setup
    bank = banks[3]
    calls = []

    def counting_grad(*args, **kwargs):
        calls.append(1)
        return grad(*args, **kwargs)
    monkeypatch.setattr(attacks_module, "grad", counting_grad)
    for m in (1, 5, 40):
        oracle = eot_oracle(bank, model, m, seed=1, sample_ids=ids, bpda=bpda)
        calls.clear()
        oracle(x, y, 0)
        assert 1 <= len(calls) <= bank.k


def test_eot_oracle_loss_equals_eot_loss_rows(eot_setup):
    model, banks, x, y, ids = eot_setup
    bank, m, seed, step = banks[3], 9, 8, 3
    loss, _ = eot_oracle(bank, model, m, seed=seed, sample_ids=ids)(x, y, step)
    rows = eot_loss_rows(bank, model, x, y, m, seed=seed, step=step,
                         sample_ids=ids)
    np.testing.assert_allclose(loss, rows, rtol=1e-12, atol=1e-12)


def test_eot_draw_counts_draws_each_distinct_id_once(monkeypatch):
    ids, k, m = [5, 2, 5, 5, 2], 3, 6
    one_at_a_time = np.concatenate(
        [eot_draw_counts(k, m, 4, [s], 1) for s in ids])
    keys = []

    def counting(k, seed):
        keys.append(tuple(seed))
        return sample_filter_index(k, seed)
    monkeypatch.setattr(attacks_module, "sample_filter_index", counting)
    got = eot_draw_counts(k, m, 4, ids, 1)
    np.testing.assert_array_equal(got, one_at_a_time)
    assert len(keys) == len(set(keys)) == 2 * m


# -- bpda ---------------------------------------------------------------------

def test_bpda_identity_filter_equals_true_gradient(attack_setup):
    model, _, x, y = attack_setup
    bank_id = build_filter_bank("res_block", 2, seed=1)
    _, g_bpda = _pipeline_loss_grad(model, bank_id.filters[0], x[:4], y[:4],
                                    bpda=True)
    t = Tape()
    xv = t.leaf(x[:4])
    z = filter_forward(bank_id.filters[0], xv)
    logits = base_apply(bind_params(t, model.params), z)
    (g_true,) = grad(t, sum_all(cross_entropy_rows(logits, y[:4])), [xv])
    np.testing.assert_array_equal(g_bpda, g_true.value)


def test_bpda_constant_shift_filter(attack_setup):
    model, _, x, y = attack_setup
    # res_block with zero first conv: f(x) = x + conv2(relu(b1)) + b2 = x + c
    h = 4
    params = {
        "w1": np.zeros((h, 3, 3, 3)),
        "b1": np.full(h, 0.5),
        "w2": np.random.default_rng(3).uniform(-0.01, 0.01, (3, h, 3, 3)),
        "b2": np.zeros(3),
    }
    filt = Filter(FilterArch("res_block", hidden=h), params)
    xs = np.clip(x[:4], 0.0, 0.9)  # keep x + c inside the box
    shift = filter_forward_np(filt, xs) - xs
    assert np.ptp(shift.reshape(4, -1)[:, 1:-1]) < 0.05  # roughly constant

    _, g_bpda = _pipeline_loss_grad(model, filt, xs, y[:4], bpda=True)
    t = Tape()
    uv = t.leaf(xs + shift)
    logits = base_apply(bind_params(t, model.params), uv)
    (g_base,) = grad(t, sum_all(cross_entropy_rows(logits, y[:4])), [uv])
    np.testing.assert_allclose(g_bpda, g_base.value, rtol=1e-12)


def test_bpda_chain_rule_decomposition(attack_setup):
    model, bank, x, y = attack_setup
    xs = x[:4]
    _, g_bpda = _pipeline_loss_grad(model, bank.filters[1], xs, y[:4],
                                    bpda=True)
    t = Tape()
    xv = t.leaf(xs)
    z = filter_forward(bank.filters[1], xv)
    logits = base_apply(bind_params(t, model.params), z)
    (g_true,) = grad(t, sum_all(cross_entropy_rows(logits, y[:4])), [xv])
    # true gradient = J_f(x)^T applied to the bpda cotangent
    (composed,) = vjp(t, z, g_bpda, [xv])
    np.testing.assert_allclose(g_true.value, composed.value, rtol=1e-10, atol=1e-14)


# -- square attack ------------------------------------------------------------

def base_score(model):
    """The pipeline's margin score on a K=1 identity res_block bank, whose
    output is bitwise the base model's."""
    return ensemble_margin_score(build_filter_bank("res_block", 1, seed=0),
                                 model)


def test_square_attack_margin_monotone(attack_setup):
    model, _, x, y = attack_setup
    score = base_score(model)
    m0 = _margins(model.forward_np(x[:6]), y[:6])
    assert score(x[:6], y[:6], [[4, s] for s in range(6)]).tobytes() \
        == m0.tobytes()
    spec = AttackSpec(kind="square", epsilon=8 / 255, steps=1,
                      query_budget=150, seed=4)
    x_adv, success, queries = square_attack(score, x[:6], y[:6], spec)
    m1 = _margins(model.forward_np(x_adv), y[:6])
    assert np.all(m1 <= m0 + 1e-12)
    assert np.all(np.abs(x_adv - x[:6]) <= spec.epsilon + 1e-12)
    assert x_adv.min() >= 0 and x_adv.max() <= 1
    assert np.all(queries <= spec.query_budget)
    assert np.all(success == (m1 < 0))


def test_square_attack_misclassified_input_one_query(attack_setup):
    model, _, x, y = attack_setup
    wrong = (y[:4] + 1) % 10
    score = base_score(model)
    spec = AttackSpec(kind="square", epsilon=8 / 255, query_budget=50, seed=1)
    _, success, queries = square_attack(score, x[:4], wrong, spec)
    assert success.all()
    assert np.all(queries == 1)


def test_square_attack_zero_budget(attack_setup):
    model, _, x, y = attack_setup
    spec = AttackSpec(kind="square", epsilon=8 / 255, query_budget=0, seed=1)
    x_adv, success, queries = square_attack(base_score(model),
                                            x[:3], y[:3], spec)
    assert x_adv.tobytes() == x[:3].tobytes()
    assert not success.any() and np.all(queries == 0)


def test_square_attack_tiny_epsilon_no_success(attack_setup):
    model, _, x, y = attack_setup
    correct = model.forward_np(x[:4]).argmax(axis=1) == y[:4]
    xs, ys = x[:4][correct], y[:4][correct]
    spec = AttackSpec(kind="square", epsilon=1e-9, query_budget=40, seed=2)
    x_adv, success, _ = square_attack(base_score(model), xs, ys, spec)
    assert not success.any()
    assert np.allclose(x_adv, xs, atol=2e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the filter that scores a Square proposal is drawn "
                   "from the proposal's own stream (ROADMAP item 8)")
def test_square_filter_draw_is_independent_of_the_square_position():
    # a score that never improves keeps delta at zero, so each proposal is
    # x0 plus its one square; the filter is drawn as ensemble_margin_score
    # draws it, from the row seed the attack passes
    k, n, h = 4, 200, 16
    x0 = np.full((n, 3, h, h), 0.5)
    seen = {}

    def score(x, y, row_seeds):
        filters = attacks_module.draw_counts(k, [[s] for s in row_seeds]).argmax(axis=1)
        for img, f in zip(x, filters):
            rows = np.flatnonzero(np.abs(img - 0.5).max(axis=(0, 2)) > 0)
            if rows.size:
                seen.setdefault(rows.size, set()).add((int(rows[0]), int(f)))
        return np.zeros(len(x))

    square_attack(score, x0, np.zeros(n, dtype=np.int64),
                  AttackSpec(kind="square", epsilon=0.1, query_budget=200, seed=7))
    # a broken precondition fails the test outright: only the pairs check
    # below is the expected failure
    if sorted(seen) != [1, 2, 4, 8]:
        pytest.fail(f"square sides {sorted(seen)}, expected [1, 2, 4, 8]")
    for side, pairs in seen.items():
        assert pairs == set(product(range(h - side + 1), range(k))), side


def test_square_attack_determinism_stochastic_defense(attack_setup):
    model, bank, x, y = attack_setup
    score = ensemble_margin_score(bank, model)
    spec = AttackSpec(kind="square", epsilon=8 / 255, query_budget=60, seed=13)
    a1, s1, q1 = square_attack(score, x[:5], y[:5], spec)
    a2, s2, q2 = square_attack(score, x[:5], y[:5], spec)
    assert a1.tobytes() == a2.tobytes()
    assert np.array_equal(q1, q2)


def test_square_rejects_l2():
    with pytest.raises(DomainError):
        AttackSpec(kind="square", norm="l2", epsilon=0.1)


# -- monotone strength --------------------------------------------------------

def test_robust_accuracy_monotone_in_eps(attack_setup):
    model, _, x, y = attack_setup
    accs = []
    for eps in (1 / 255, 2 / 255, 4 / 255, 8 / 255):
        spec = AttackSpec(epsilon=eps, steps=20, seed=17)
        x_adv, _ = pgd(base_oracle(model), x, y, spec)
        accs.append(float((model.forward_np(x_adv).argmax(axis=1) == y).mean()))
    assert all(a >= b - 1e-12 for a, b in zip(accs, accs[1:]))
    assert accs[0] > accs[-1]  # the sweep actually bites
