"""Loss components: closed-form oracles, invariants, parameter-gradient flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drift_helpers import (
    affine_res_filter, cos_sq, identity_filter, linear_base_model, micro_bank,
    negation_filter, projection_filter,
)
from drift.losses import (
    _base_vjps, adv_component, bind_bank, ce_component, cos_sq_rows,
    draw_input_probes, draw_logit_probes, js_component, lvjp_component,
)
from drift.models import (
    FilterBank, base_apply, bind_params, build_base_model, build_filter_bank,
    filter_apply,
)
from drift.tape import (
    Tape, add, cross_entropy_rows, grad, maximum, mean_all, scale, sum_all, vjp,
)

RNG = np.random.default_rng(314)


def value(component, bank, pre, x, arg, **kw):
    """Float value of a taped loss component built on a fresh tape, with the
    bank bound on it; None when the component is skipped. pre holds the
    arguments between the tape and the input Var (the bank for js, the model
    for the others)."""
    tape = Tape()
    x_var = tape.leaf(np.asarray(x, dtype=np.float64))
    out = component(tape, *pre, x_var, arg, bind_bank(tape, bank), **kw)
    return None if out is None else float(out.value)


def js_value(bank, x, p_v, seed):
    v = draw_input_probes(p_v, np.shape(x)[1:], seed)
    return value(js_component, bank, (bank,), x, v)


def lvjp_value(bank, model, x, p_w, seed, include_identity=True):
    w = draw_logit_probes(p_w, model.k_classes, seed)
    return value(lvjp_component, bank, (model,), x, w,
                 include_identity=include_identity)


# -- cos_sq -------------------------------------------------------------------

def test_cos_sq_basic_values():
    assert cos_sq(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(0.5, abs=1e-12)
    a = RNG.standard_normal(10)
    assert cos_sq(a, a) == pytest.approx(1.0, abs=1e-9)
    assert cos_sq(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cos_sq_degenerate_guard():
    a = np.zeros(5)
    b = RNG.standard_normal(5)
    assert cos_sq(a, b) == 0.0
    assert cos_sq(b, np.full(5, 1e-12)) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_cos_sq_invariances(seed, s, t):
    r = np.random.default_rng(seed)
    a = r.standard_normal(8)
    b = r.standard_normal(8)
    c = cos_sq(a, b)
    assert 0.0 <= c <= 1.0
    assert abs(cos_sq(b, a) - c) <= 1e-12
    assert abs(cos_sq(s * a, t * b) - c) <= 1e-9
    assert abs(cos_sq(a, -b) - c) <= 1e-12


def test_cos_sq_rows_matches_scalar():
    a = RNG.standard_normal((6, 3, 2))
    b = RNG.standard_normal((6, 3, 2))
    b[3] = 0.0  # degenerate row
    t = Tape()
    out = cos_sq_rows(t.leaf(a), t.leaf(b))
    for n in range(6):
        assert out.value[n] == pytest.approx(cos_sq(a[n], b[n]), abs=1e-10)
    assert out.value[3] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cos_sq_rows_dtype_and_values_do_not_depend_on_a_degenerate_row(dtype):
    # a degenerate row is masked to +0.0; every other row, and the dtype, is
    # what the rows give without it
    a = RNG.standard_normal((3, 4)).astype(dtype)
    b = RNG.standard_normal((3, 4)).astype(dtype)
    t = Tape()
    clean = cos_sq_rows(t.leaf(a), t.leaf(b)).value
    a[1] = 0.0
    av, bv = t.leaf(a), t.leaf(b)
    out = cos_sq_rows(av, bv)
    assert out.value.dtype == clean.dtype == dtype
    kept = cos_sq_rows(t.leaf(a[[0, 2]]), t.leaf(b[[0, 2]])).value
    assert out.value[[0, 2]].tobytes() == kept.tobytes()
    assert out.value[1] == 0.0 and not np.signbit(out.value[1])
    ga, gb = grad(t, sum_all(out), [av, bv])
    assert ga.value.dtype == dtype and not ga.value[1].any() and not gb.value[1].any()


# -- ce -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_setup():
    tr_x = RNG.uniform(0, 1, (6, 3, 8, 8))
    tr_y = RNG.integers(0, 4, 6)
    model = build_base_model((3, 8, 8), 4, seed=1)
    model.freeze()
    return model, tr_x, tr_y


def test_loss_ce_identity_bank_equals_base_ce(small_setup):
    model, x, y = small_setup
    bank = build_filter_bank("res_block", 3, seed=2)
    got = value(ce_component, bank, (model,), x, y)
    t = Tape()
    logits = base_apply(bind_params(t, model.params), t.leaf(x))
    want = float(mean_all(cross_entropy_rows(logits, y)).value)
    assert got == pytest.approx(want, rel=1e-12)


def test_loss_ce_k1_and_duplication(small_setup):
    model, x, y = small_setup
    bank = FilterBank([micro_bank(1, seed=3).filters[0]])
    v1 = value(ce_component, bank, (model,), x, y)
    xdup = np.concatenate([x, x])
    ydup = np.concatenate([y, y])
    v2 = value(ce_component, bank, (model,), xdup, ydup)
    assert v1 == pytest.approx(v2, rel=1e-12)


# -- js -----------------------------------------------------------------------

def test_loss_js_identical_filters_is_one():
    f = micro_bank(1, seed=5).filters[0]
    bank = FilterBank([f, f])
    x = RNG.uniform(0, 1, (3, 3, 8, 8))
    val = js_value(bank, x, p_v=3, seed=1)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_loss_js_identity_vs_negation_is_one():
    bank = FilterBank([identity_filter(), negation_filter()])
    x = RNG.uniform(0, 1, (2, 3, 6, 6))
    val = js_value(bank, x, p_v=4, seed=2)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_loss_js_orthogonal_projections_is_zero():
    bank = FilterBank([projection_filter([0]), projection_filter([1, 2])])
    x = RNG.uniform(0, 1, (2, 3, 6, 6))
    val = js_value(bank, x, p_v=4, seed=3)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_loss_js_k1_skipped():
    bank = micro_bank(1, seed=6)
    assert js_value(bank, RNG.uniform(0, 1, (2, 3, 6, 6)), p_v=5, seed=0) is None


def test_loss_js_in_unit_interval():
    bank = micro_bank(3, seed=7, jitter=0.3)
    x = RNG.uniform(0, 1, (4, 3, 6, 6))
    val = js_value(bank, x, p_v=5, seed=4)
    assert 0.0 <= val <= 1.0


def test_loss_js_probe_variance_slope():
    # standard error of the P-probe estimate scales as 1/sqrt(P)
    bank = micro_bank(2, seed=8, jitter=0.4, c=3)
    x = RNG.uniform(0, 1, (2, 3, 4, 4))
    ps = [2, 5, 10, 20, 40]
    variances = []
    for p in ps:
        vals = [js_value(bank, x, p_v=p, seed=s) for s in range(220)]
        variances.append(np.var(vals))
    slope = np.polyfit(np.log(ps), np.log(variances), 1)[0]
    assert -1.3 <= slope <= -0.7


# -- lvjp ---------------------------------------------------------------------

def test_loss_lvjp_identity_bank_is_one(small_setup):
    model, x, _ = small_setup
    bank = build_filter_bank("res_block", 3, seed=9)
    val = lvjp_value(bank, model, x, p_w=3, seed=5, include_identity=True)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_loss_lvjp_k1_without_identity_skipped(small_setup):
    model, x, _ = small_setup
    bank = micro_bank(1, seed=10)
    assert lvjp_value(bank, model, x, p_w=5, seed=0,
                      include_identity=False) is None


def test_loss_lvjp_rotation_oracle():
    # M = identity logits on a 2-pixel image; f2 rotates (x0,x1)->(-x1,x0).
    # Probe gradients are w and R^T w; squared cosine has closed form.
    model = linear_base_model(1, 2, c=1)
    rot = np.zeros((1, 1, 3, 3))
    rot[0, 0, 1, 0] = 1.0   # y1 = x0 (offset -1)
    rot[0, 0, 1, 2] = -1.0  # y0 = -x1 (offset +1)
    bank = FilterBank([identity_filter(c=1), affine_res_filter(rot)])
    x = np.array([[[[0.3, 0.6]]]])

    got = lvjp_value(bank, model, x, p_w=25, seed=11, include_identity=False)
    w = draw_logit_probes(25, 2, 11)
    r_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    want = np.mean([cos_sq(wi, r_mat.T @ wi) for wi in w])
    assert got == pytest.approx(want, rel=1e-10)


def test_loss_lvjp_unit_interval(small_setup):
    model, x, _ = small_setup
    bank = micro_bank(3, seed=12, jitter=0.2)
    val = lvjp_value(bank, model, x, p_w=4, seed=6)
    assert 0.0 <= val <= 1.0


# -- adv ----------------------------------------------------------------------

def test_loss_adv_zero_delta_identity_bank(small_setup):
    model, x, y = small_setup
    bank = build_filter_bank("res_block", 3, seed=13)
    got = value(adv_component, bank, (model,), x, y)
    want = value(ce_component, bank, (model,), x, y)
    assert got == pytest.approx(want, rel=1e-12)


def test_loss_adv_max_dominance(small_setup):
    model, x, y = small_setup
    bank = micro_bank(3, seed=14, jitter=0.3)
    eps = 8 / 255
    xadv = np.clip(x + RNG.uniform(-eps, eps, x.shape), 0.0, 1.0)
    val = value(adv_component, bank, (model,), xadv, y)
    for i in range(bank.k):
        single = FilterBank([bank.filters[i]])
        assert val >= value(adv_component, single, (model,), xadv, y) - 1e-12


# -- parameter gradient flow --------------------------------------------------

def _flatten_bank_params(bank):
    names = [(i, k) for i, f in enumerate(bank.filters) for k in sorted(f.params)]
    vec = np.concatenate([bank.filters[i].params[k].ravel() for i, k in names])
    return names, vec


def _set_bank_params(bank, names, vec):
    pos = 0
    for i, k in names:
        arr = bank.filters[i].params[k]
        n = arr.size
        bank.filters[i].params[k] = vec[pos:pos + n].reshape(arr.shape)
        pos += n


@pytest.mark.parametrize("component", ["ce", "js", "lvjp", "adv"])
def test_component_param_gradients_match_fd(component):
    model = build_base_model((3, 4, 4), 3, seed=20, channels=(4, 4))
    model.freeze()
    bank = micro_bank(2, seed=21, hidden=4, jitter=0.15)
    x = np.random.default_rng(22).uniform(0.1, 0.9, (3, 3, 4, 4))
    y = np.array([0, 2, 1])
    probes_v = draw_input_probes(2, x.shape[1:], seed=23)
    probes_w = draw_logit_probes(2, 3, seed=24)
    eps = 8 / 255
    delta = np.random.default_rng(25).uniform(-eps, eps, x.shape)
    xadv = np.clip(x + delta, 0, 1)

    def evaluate(return_grad):
        tape = Tape()
        pvars = bind_bank(tape, bank)
        xv = tape.leaf(x)
        if component == "ce":
            out = ce_component(tape, model, xv, y, bank_pvars=pvars)
        elif component == "js":
            out = js_component(tape, bank, xv, probes_v, bank_pvars=pvars)
        elif component == "lvjp":
            out = lvjp_component(tape, model, xv, probes_w,
                                 include_identity=True, bank_pvars=pvars)
        else:
            out = adv_component(tape, model, tape.leaf(xadv), y, bank_pvars=pvars)
        if not return_grad:
            return float(out.value)
        wrt = [pv[k] for pv in pvars for k in sorted(pv)]
        gs = grad(tape, out, wrt)
        return np.concatenate([g.value.ravel() for g in gs])

    names, vec0 = _flatten_bank_params(bank)
    g = evaluate(return_grad=True)

    rng = np.random.default_rng(26)
    eta = 1e-6
    for _ in range(3):
        u = rng.standard_normal(vec0.size)
        u /= np.linalg.norm(u)
        _set_bank_params(bank, names, vec0 + eta * u)
        fp = evaluate(return_grad=False)
        _set_bank_params(bank, names, vec0 - eta * u)
        fm = evaluate(return_grad=False)
        _set_bank_params(bank, names, vec0)
        fd = (fp - fm) / (2 * eta)
        an = float(np.vdot(u, g))
        assert abs(an - fd) / (abs(fd) + 1e-12) < 1e-4, f"{component}: {an} vs {fd}"


# The component builders before the pipeline logits and the probed-pair loop
# were each written once, kept here as the reference.

def _reference_mean_of(terms):
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t)
    return scale(out, 1.0 / len(terms))


def _reference_ce(tape, bank, model, x_var, y, bank_pvars):
    model_pvars = bind_params(tape, model.params)
    terms = []
    for pv in bank_pvars:
        logits = base_apply(model_pvars, filter_apply(pv, x_var))
        terms.append(mean_all(cross_entropy_rows(logits, y)))
    return _reference_mean_of(terms)


def _reference_js(tape, bank, x_var, probes_v, bank_pvars):
    k = bank.k
    if k < 2:
        return None
    n = x_var.value.shape[0]
    outs = [filter_apply(pv, x_var) for pv in bank_pvars]
    terms = []
    for v in probes_v:
        cot = np.broadcast_to(v, (n,) + v.shape).copy()
        us = [vjp(tape, y, cot, [x_var])[0] for y in outs]
        for i in range(k):
            for j in range(i + 1, k):
                terms.append(mean_all(cos_sq_rows(us[i], us[j])))
    return _reference_mean_of(terms)


def _reference_lvjp(tape, bank, model, x_var, probes_w, bank_pvars,
                    include_identity):
    k = bank.k
    model_pvars = bind_params(tape, model.params)
    n = x_var.value.shape[0]
    logits = [base_apply(model_pvars, filter_apply(pv, x_var))
              for pv in bank_pvars]
    logits_id = base_apply(model_pvars, x_var) if include_identity else None
    pair_terms, id_terms = [], []
    for w in probes_w:
        cot = np.broadcast_to(w, (n, w.shape[0])).copy()
        gs = [vjp(tape, z, cot, [x_var])[0] for z in logits]
        for i in range(k):
            for j in range(i + 1, k):
                pair_terms.append(mean_all(cos_sq_rows(gs[i], gs[j])))
        if include_identity:
            g_id = vjp(tape, logits_id, cot, [x_var])[0]
            for i in range(k):
                id_terms.append(mean_all(cos_sq_rows(gs[i], g_id)))
    groups = [_reference_mean_of(t) for t in (pair_terms, id_terms) if t]
    if not groups:
        return None
    return _reference_mean_of(groups)


def _reference_adv(tape, bank, model, xadv_var, y, bank_pvars):
    model_pvars = bind_params(tape, model.params)
    worst = None
    for pv in bank_pvars:
        logits = base_apply(model_pvars, filter_apply(pv, xadv_var))
        ce = cross_entropy_rows(logits, y)
        worst = ce if worst is None else maximum(worst, ce)
    return mean_all(worst)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("component", ["ce", "js", "lvjp", "lvjp_no_id", "adv"])
def test_components_match_reference_builders(component, k):
    model = build_base_model((3, 4, 4), 3, seed=30, channels=(4, 4))
    model.freeze()
    bank = micro_bank(k, seed=31, hidden=4, jitter=0.15)
    x = np.random.default_rng(32).uniform(0.1, 0.9, (3, 3, 4, 4))
    y = np.array([0, 2, 1])
    probes_v = draw_input_probes(2, x.shape[1:], seed=33)
    probes_w = draw_logit_probes(2, 3, seed=34)
    builders = {
        "ce": (lambda t, xv, pv: ce_component(t, model, xv, y, pv),
               lambda t, xv, pv: _reference_ce(t, bank, model, xv, y, pv)),
        "js": (lambda t, xv, pv: js_component(t, bank, xv, probes_v, pv),
               lambda t, xv, pv: _reference_js(t, bank, xv, probes_v, pv)),
        "lvjp": (lambda t, xv, pv: lvjp_component(t, model, xv, probes_w,
                                                  pv, include_identity=True),
                 lambda t, xv, pv: _reference_lvjp(t, bank, model, xv,
                                                   probes_w, pv, True)),
        "lvjp_no_id": (lambda t, xv, pv: lvjp_component(
                           t, model, xv, probes_w, pv,
                           include_identity=False),
                       lambda t, xv, pv: _reference_lvjp(t, bank, model, xv,
                                                         probes_w, pv, False)),
        "adv": (lambda t, xv, pv: adv_component(t, model, xv, y, pv),
                lambda t, xv, pv: _reference_adv(t, bank, model, xv, y, pv)),
    }

    def run(build):
        tape = Tape()
        pvars = bind_bank(tape, bank)
        out = build(tape, tape.leaf(x), pvars)
        if out is None:
            return None, [], len(tape.nodes)
        wrt = [pv[name] for pv in pvars for name in sorted(pv)]
        gs = [g.value for g in grad(tape, out, wrt)]
        return out.value, gs, len(tape.nodes)

    new, ref = (run(b) for b in builders[component])
    if component.startswith("lvjp"):
        # the frozen base runs off the caller's tape
        assert new[2] < ref[2]
    else:
        assert new[2] == ref[2]
    if ref[0] is None:
        assert new[0] is None
        return
    assert new[0].tobytes() == ref[0].tobytes()
    assert len(new[1]) == len(ref[1]) == sum(len(f.params) for f in bank.filters)
    for a, b in zip(new[1], ref[1]):
        assert a.tobytes() == b.tobytes()


def _base_leaves(tape, model):
    """Leaves on tape that hold one of the base's parameter arrays."""
    arrays = [id(a) for a in model.params.values()]
    return [n for n in tape.nodes if n.op == "leaf" and id(n.value) in arrays]


@pytest.mark.parametrize("include_identity", [True, False])
def test_lvjp_records_no_base_on_the_callers_tape(include_identity):
    model = build_base_model((3, 4, 4), 3, seed=40, channels=(4, 4))
    model.freeze()
    bank = micro_bank(3, seed=41, hidden=4, jitter=0.15)
    x = np.random.default_rng(42).uniform(0.1, 0.9, (3, 3, 4, 4))
    probes_w = draw_logit_probes(2, 3, seed=43)

    def tape_after(build, *pre):
        tape = Tape()
        pvars = bind_bank(tape, bank)
        out = build(tape, *pre, tape.leaf(x), probes_w, pvars, include_identity)
        grad(tape, out, [v for pv in pvars for v in pv.values()])
        return tape

    # the check sees the base where the full-tape reference binds it
    assert _base_leaves(tape_after(_reference_lvjp, bank, model), model)
    assert _base_leaves(tape_after(lvjp_component, model), model) == []


def test_base_vjps_match_one_tape():
    model = build_base_model((3, 4, 4), 3, seed=44, channels=(4, 4))
    model.freeze()
    z = np.random.default_rng(45).uniform(-0.5, 1.5, (5, 3, 4, 4))
    cots = [np.random.default_rng(46 + i).standard_normal((5, 3))
            for i in range(4)]
    t = Tape()
    z_var = t.leaf(z)
    logits = base_apply(bind_params(t, model.params), z_var)
    want = [vjp(t, logits, c, [z_var])[0].value for c in cots]
    got = _base_vjps(model, z, cots)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == z.shape
        assert a.tobytes() == b.tobytes()
