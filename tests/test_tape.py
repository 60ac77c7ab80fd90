"""Autodiff core: finite-difference oracles, closed forms, vjp contract."""

from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import micro_bank
from drift import ShapeError, TapeError
from drift import tape as tape_module
from drift.attacks import _pipeline_loss_grad
from drift.losses import (
    ProbeConfig, bind_bank, ce_component, draw_logit_probes, lvjp_component,
)
from drift.models import build_base_model, pretrain_and_freeze
from drift.tape import (
    _BACKWARD, _FORWARD, Tape, Var, _bcast, _pick, _sum, add, conv2d,
    cross_entropy_rows, dense, dot_rows, div, grad, logsumexp_rows, matmul,
    maximum, mul, relu, reshape, rows_scale, scale, sqrt, sub, sum_all, vjp,
)
from drift.training import TrainConfig, train_drift


def rel_err(approx, exact):
    return abs(approx - exact) / (abs(exact) + 1e-12)


def fd_directional(f, x, u, eta=1e-5):
    """Centered finite difference of scalar f along direction u."""
    return (f(x + eta * u) - f(x - eta * u)) / (2 * eta)


def check_grad(build, x0, rng, n_dirs=3, tol=1e-5, eta=1e-5):
    """build(tape, x_var) -> scalar Var. Checks grad against centered FD."""
    tape = Tape()
    xv = tape.leaf(x0)
    out = build(tape, xv)
    (g,) = grad(tape, out, [xv])

    def f(x):
        t = Tape()
        return float(build(t, t.leaf(x)).value)

    for _ in range(n_dirs):
        u = rng.standard_normal(x0.shape)
        u /= np.linalg.norm(u)
        fd = fd_directional(f, x0, u, eta)
        an = float(np.vdot(u, g.value))
        assert rel_err(an, fd) < tol, f"analytic {an} vs fd {fd}"


RNG = np.random.default_rng(20240811)


# -- elementwise and reductions ---------------------------------------------

def test_add_mul_chain_fd():
    x0 = RNG.standard_normal((4, 3))

    def build(t, x):
        y = add(mul(x, x), scale(x, 3.0))
        return sum_all(y)

    check_grad(build, x0, RNG)


def test_div_sqrt_fd():
    x0 = RNG.uniform(0.5, 2.0, size=(5,))

    def build(t, x):
        c = t.leaf(np.full(5, 3.0))
        return sum_all(div(sqrt(x), c))

    check_grad(build, x0, RNG)


def test_relu_fd_away_from_kink():
    x0 = RNG.standard_normal((6, 6))
    x0[np.abs(x0) < 1e-2] = 0.3  # keep clear of the kink

    def build(t, x):
        return sum_all(relu(x))

    check_grad(build, x0, RNG)


def test_relu_subgradient_at_zero_is_zero():
    t = Tape()
    x = t.leaf(np.array([-1.0, 0.0, 2.0]))
    y = sum_all(relu(x))
    (g,) = grad(t, y, [x])
    assert np.array_equal(g.value, np.array([0.0, 0.0, 1.0]))


def test_maximum_fd():
    a0 = RNG.standard_normal(8)
    b0 = RNG.standard_normal(8)
    sep = np.abs(a0 - b0) < 1e-2
    a0[sep] += 0.5

    t = Tape()
    av, bv = t.leaf(a0), t.leaf(b0)
    out = sum_all(maximum(av, bv))
    ga, gb = grad(t, out, [av, bv])
    assert np.array_equal(ga.value, (a0 >= b0).astype(float))
    assert np.array_equal(gb.value, (a0 < b0).astype(float))


def test_dot_backward_closed_form():
    a0 = RNG.standard_normal(7)
    b0 = RNG.standard_normal(7)
    t = Tape()
    av, bv = t.leaf(a0), t.leaf(b0)
    ga, gb = grad(t, sum_all(mul(av, bv)), [av, bv])
    np.testing.assert_allclose(ga.value, b0, rtol=1e-12)
    np.testing.assert_allclose(gb.value, a0, rtol=1e-12)


def test_rows_scale_dot_rows_fd():
    x0 = RNG.standard_normal((3, 4))

    def build(t, x):
        v = t.leaf(np.array([0.5, -1.0, 2.0]))
        return sum_all(rows_scale(mul(x, x), v))

    check_grad(build, x0, RNG)


def test_dot_rows_matches_per_row_dots():
    a0 = RNG.standard_normal((4, 2, 3))
    b0 = RNG.standard_normal((4, 2, 3))
    t = Tape()
    out = dot_rows(t.leaf(a0), t.leaf(b0))
    expect = (a0 * b0).reshape(4, -1).sum(axis=1)
    np.testing.assert_allclose(out.value, expect, rtol=1e-12)


# -- dense / matmul ----------------------------------------------------------

def test_dense_backward_closed_form():
    w0 = RNG.standard_normal((3, 5))
    b0 = RNG.standard_normal(3)
    x0 = RNG.standard_normal((1, 5))
    u = RNG.standard_normal((1, 3))

    t = Tape()
    xv, wv, bv = t.leaf(x0), t.leaf(w0), t.leaf(b0)
    y = dense(xv, wv, bv)
    np.testing.assert_allclose(y.value[0], w0 @ x0[0] + b0, rtol=1e-12)

    gx, gw, gb = vjp(t, y, u, [xv, wv, bv])
    np.testing.assert_allclose(gx.value[0], w0.T @ u[0], rtol=1e-12)
    np.testing.assert_allclose(gw.value, np.outer(u, x0), rtol=1e-12)
    np.testing.assert_allclose(gb.value, u[0], rtol=1e-12)


def test_dense_batched_matches_loop():
    w0 = RNG.standard_normal((3, 5))
    b0 = RNG.standard_normal(3)
    x0 = RNG.standard_normal((4, 5))
    t = Tape()
    y = dense(t.leaf(x0), t.leaf(w0), t.leaf(b0))
    np.testing.assert_allclose(y.value, x0 @ w0.T + b0, rtol=1e-12)


def test_matmul_fd():
    x0 = RNG.standard_normal((3, 4))
    w0 = np.random.default_rng(7).standard_normal((4, 2))

    def build(t, x):
        w = t.leaf(w0)
        return sum_all(mul(matmul(x, w), matmul(x, w)))

    check_grad(build, x0, RNG)


# -- conv2d ------------------------------------------------------------------

def test_conv2d_forward_matches_direct():
    x0 = RNG.standard_normal((1, 2, 5, 5))
    k0 = RNG.standard_normal((3, 2, 3, 3))
    b0 = RNG.standard_normal(3)
    t = Tape()
    y = conv2d(t.leaf(x0), t.leaf(k0), t.leaf(b0), padding=1)
    assert y.value.shape == (1, 3, 5, 5)

    xp = np.pad(x0[0], ((0, 0), (1, 1), (1, 1)))
    ref = np.zeros((3, 5, 5))
    for o in range(3):
        for i in range(5):
            for j in range(5):
                ref[o, i, j] = np.vdot(xp[:, i:i + 3, j:j + 3], k0[o]) + b0[o]
    np.testing.assert_allclose(y.value[0], ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("pad", [0, 1])
def test_conv2d_grads_fd(pad):
    x0 = RNG.standard_normal((1, 2, 6, 6))
    k0 = RNG.standard_normal((3, 2, 3, 3)) * 0.3
    b0 = RNG.standard_normal(3) * 0.3

    def loss(x, k, b):
        t = Tape()
        y = conv2d(t.leaf(x), t.leaf(k), t.leaf(b), padding=pad)
        return float(sum_all(mul(y, y)).value)

    t = Tape()
    xv, kv, bv = t.leaf(x0), t.leaf(k0), t.leaf(b0)
    y = conv2d(xv, kv, bv, padding=pad)
    out = sum_all(mul(y, y))
    gx, gk, gb = grad(t, out, [xv, kv, bv])

    eta = 1e-5
    for arr, g, name in ((x0, gx, "x"), (k0, gk, "k"), (b0, gb, "b")):
        u = np.random.default_rng(3).standard_normal(arr.shape)
        u /= np.linalg.norm(u)
        if name == "x":
            fd = (loss(arr + eta * u, k0, b0) - loss(arr - eta * u, k0, b0)) / (2 * eta)
        elif name == "k":
            fd = (loss(x0, arr + eta * u, b0) - loss(x0, arr - eta * u, b0)) / (2 * eta)
        else:
            fd = (loss(x0, k0, arr + eta * u) - loss(x0, k0, arr - eta * u)) / (2 * eta)
        an = float(np.vdot(u, g.value))
        assert rel_err(an, fd) < 1e-5, f"{name}: {an} vs {fd}"


def test_conv2d_batched_matches_per_sample():
    # BLAS blocking may differ with row count, so equality is up to a few ulp.
    x0 = RNG.standard_normal((4, 2, 5, 5))
    k0 = RNG.standard_normal((3, 2, 3, 3))
    b0 = RNG.standard_normal(3)
    t = Tape()
    yb = conv2d(t.leaf(x0), t.leaf(k0), t.leaf(b0), padding=1)
    for n in range(4):
        t2 = Tape()
        y1 = conv2d(t2.leaf(x0[n:n + 1]), t2.leaf(k0), t2.leaf(b0), padding=1)
        np.testing.assert_allclose(yb.value[n], y1.value[0], rtol=1e-13, atol=0)


def test_conv2d_channel_mismatch_raises():
    t = Tape()
    with pytest.raises(ShapeError):
        conv2d(t.leaf(np.zeros((1, 2, 4, 4))), t.leaf(np.zeros((3, 5, 3, 3))),
               t.leaf(np.zeros(3)), padding=1)


def _slab_pad_nhwc(x, pad):
    n, c, h, w = x.shape
    if not pad:
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    out = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    out[:, pad:pad + h, pad:pad + w, :] = x.transpose(0, 2, 3, 1)
    return out


def _slab_conv2d(vals, pad):
    """Reference: the im2col-by-slabs forward kernel the window view replaced."""
    x, k = vals
    o, c, kh, kw = k.shape
    xn = _slab_pad_nhwc(x, pad)
    n, hp, wp, _ = xn.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    dt = np.result_type(x, k)
    col = np.empty((n, ho, wo, kh, kw, c), dtype=dt)
    for i in range(kh):
        for j in range(kw):
            col[:, :, :, i, j, :] = xn[:, i:i + ho, j:j + wo, :]
    k2 = np.ascontiguousarray(k.transpose(2, 3, 1, 0), dtype=dt)
    out = col.reshape(n * ho * wo, kh * kw * c) @ k2.reshape(kh * kw * c, o)
    return np.ascontiguousarray(out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2))


def _slab_conv2d_kgrad(vals, pad):
    """Reference: the im2col-by-slabs kernel-gradient kernel."""
    x, gy = vals
    kh = x.shape[2] + 2 * pad - gy.shape[2] + 1
    kw = x.shape[3] + 2 * pad - gy.shape[3] + 1
    xn = _slab_pad_nhwc(x, pad)
    c = xn.shape[3]
    n, o, ho, wo = gy.shape
    dt = np.result_type(x, gy)
    col = np.empty((n, ho, wo, kh, kw, c), dtype=dt)
    for i in range(kh):
        for j in range(kw):
            col[:, :, :, i, j, :] = xn[:, i:i + ho, j:j + wo, :]
    g2 = np.ascontiguousarray(gy.transpose(0, 2, 3, 1), dtype=dt)
    dk = col.reshape(n * ho * wo, kh * kw * c).T @ g2.reshape(n * ho * wo, o)
    return np.ascontiguousarray(dk.reshape(kh, kw, c, o).transpose(3, 2, 0, 1))


@pytest.mark.parametrize("ksize, pad", [(k, p) for k in (1, 3, 5) for p in (0, 1, 2)])
def test_conv_kernels_bitwise_equal_slab_reference(ksize, pad):
    # H != W throughout; the transposed view checks strides other than C order,
    # and C = 1 with pad = 0 is where the NHWC input can be a view of x itself,
    # so the input must also come back unchanged.
    rng = np.random.default_rng(ksize * 10 + pad)
    for n in (1, 3):
        for c in (1, 3, 16):
            for o in (1, 3, 32):
                x = rng.standard_normal((n, c, 7, 5))
                x_t = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
                k = rng.standard_normal((o, c, ksize, ksize))
                for xin in (x, x_t):
                    ref = _slab_conv2d([xin, k], pad)
                    y = _FORWARD["conv2d"]([xin, k], pad)
                    assert y.flags.c_contiguous and y.dtype == ref.dtype
                    assert np.array_equal(y, ref), (n, c, o)
                    gy = rng.standard_normal(y.shape)
                    ref = _slab_conv2d_kgrad([xin, gy], pad)
                    dk = _FORWARD["conv2d_kgrad"]([xin, gy], pad)
                    assert dk.flags.c_contiguous and dk.shape == k.shape
                    assert np.array_equal(dk, ref), (n, c, o)
                    assert np.array_equal(xin, x), (n, c, o)


def test_conv_kernels_bitwise_equal_slab_reference_mixed_dtype():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 3, 6, 9)).astype(np.float32)
    k = rng.standard_normal((16, 3, 3, 3))
    y = _FORWARD["conv2d"]([x, k], 1)
    assert y.dtype == np.float64 and np.array_equal(y, _slab_conv2d([x, k], 1))
    gy = rng.standard_normal(y.shape)
    assert np.array_equal(_FORWARD["conv2d_kgrad"]([x, gy], 1),
                          _slab_conv2d_kgrad([x, gy], 1))


@pytest.mark.parametrize("col_bytes", ["default", 1])
@pytest.mark.parametrize("c, o", [(3, 16), (16, 3), (16, 32), (32, 16)])
@pytest.mark.parametrize("n", [9, 10, 11, 50, 200])
def test_conv_forward_in_chunks_bitwise_equal_slab_reference(monkeypatch, n, c, o,
                                                              col_bytes):
    # the desk's 16x16 convs at batch sizes that cut the im2col matrix into
    # chunks, folding a short last one; a 1-byte budget leaves each chunk as
    # few images as the multiply-add floor allows
    if col_bytes != "default":
        monkeypatch.setattr(tape_module, "_COL_BYTES", col_bytes)
    rng = np.random.default_rng(n * 100 + c + o)
    x = rng.standard_normal((n, c, 16, 16))
    k = rng.standard_normal((o, c, 3, 3))
    y = _FORWARD["conv2d"]([x, k], 1)
    assert y.flags.c_contiguous
    assert np.array_equal(y, _slab_conv2d([x, k], 1))


def test_biased_conv_records_one_node_and_sums_its_bias_gradient():
    r = np.random.default_rng(12)
    t = Tape()
    xv, kv, bv = t.leaf(r.standard_normal((3, 2, 5, 5))), \
        t.leaf(r.standard_normal((4, 2, 3, 3))), t.leaf(r.standard_normal(4))
    before = len(t)
    y = conv2d(xv, kv, bv, padding=1)
    assert len(t) == before + 1
    assert t.nodes[y.index].op == "conv2d"
    assert t.nodes[y.index].parents == (xv.index, kv.index, bv.index)
    g = r.standard_normal(y.shape)
    (gb,) = vjp(t, y, g, [bv])
    assert gb.value.tobytes() == g.sum((0, 2, 3)).tobytes()


def _old_bwd_conv2d(tape, node, ni, g, need):
    """conv2d's rule before the bias joined the conv node (two parents)."""
    x, k = Var(tape, node.parents[0]), Var(tape, node.parents[1])
    kh = k.value.shape[2]
    return _pick(node, need, lambda: tape._record(
        "conv2d", (g, tape._record("swap_flip", (k,))), kh - 1 - node.ctx),
        lambda: tape._record("conv2d_kgrad", (x, g), node.ctx))


def _old_conv2d(x, kernel, bias, padding):
    """The composite as it was: an unbiased conv node, the bias's broadcast
    and their sum."""
    y = x.tape._record("conv2d", (x, kernel), int(padding))
    return add(y, _bcast(bias, y.value.shape, (0, 2, 3)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_biased_conv_is_byte_equal_to_the_graph_it_replaced(monkeypatch, dtype):
    r = np.random.default_rng(13)
    x = r.uniform(0, 1, (12, 3, 8, 8)).astype(dtype)
    params = [(0.3 * r.standard_normal(shape)).astype(dtype)
              for shape in ((16, 3, 3, 3), (16,), (3, 16, 3, 3), (3,))]
    u = r.standard_normal(x.shape).astype(dtype)

    def run(conv):
        # a res_block and its vjp into the input and every parameter, then
        # the gradient of a loss on all of them: second order through every
        # conv, both biases and the kernel and bias gradients
        t = Tape()
        xv = t.leaf(x)
        ps = [t.leaf(p) for p in params]
        w1, b1, w2, b2 = ps
        y = add(xv, conv(relu(conv(xv, w1, b1, 1)), w2, b2, 1))
        firsts = vjp(t, y, u, [xv] + ps)
        loss = reduce(add, [sum_all(mul(v, v)) for v in [y] + firsts])
        return t, [v.value for v in [y, loss] + firsts + grad(t, loss, ps)]

    t_new, new = run(conv2d)
    # the old graph, with the old kernel and rule: unchunked and two parents
    monkeypatch.setitem(_FORWARD, "conv2d", _slab_conv2d)
    monkeypatch.setitem(_BACKWARD, "conv2d", _old_bwd_conv2d)
    t_old, old = run(_old_conv2d)
    assert len(t_old) - len(t_new) == 2 * 2  # bcast and add per biased conv
    for a, b in zip(new, old):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert a.tobytes() == b.tobytes()


# -- softmax cross-entropy ---------------------------------------------------

def xent(zv, label):
    """Scalar CE of one logit vector [K], through cross_entropy_rows on [1, K]."""
    return sum_all(cross_entropy_rows(reshape(zv, (1, zv.value.shape[0])),
                                      [label]))


def test_xent_backward_is_softmax_minus_onehot():
    z0 = RNG.standard_normal(6)
    t = Tape()
    zv = t.leaf(z0)
    loss = xent(zv, 2)
    (g,) = grad(t, loss, [zv])
    p = np.exp(z0 - z0.max())
    p /= p.sum()
    p[2] -= 1.0
    np.testing.assert_allclose(g.value, p, rtol=1e-12, atol=1e-14)


def test_xent_stable_at_large_logits():
    t = Tape()
    z = t.leaf(np.array([1000.0, 0.0, -1000.0]))
    loss = xent(z, 0)
    assert np.isfinite(loss.value)
    assert float(loss.value) < 1e-8


def test_xent_batched_matches_scalar():
    z0 = RNG.standard_normal((5, 4))
    labels = np.array([0, 3, 1, 2, 2])
    t = Tape()
    out = cross_entropy_rows(t.leaf(z0), labels)
    for n in range(5):
        t2 = Tape()
        s = xent(t2.leaf(z0[n]), int(labels[n]))
        np.testing.assert_allclose(out.value[n], s.value, rtol=1e-12)


def test_xent_second_order_fd():
    # d/dz of ||dL/dz||^2 must match finite differences: exercises
    # differentiating through a recorded backward pass.
    z0 = RNG.standard_normal(5)

    def gnorm2(z):
        t = Tape()
        zv = t.leaf(z)
        loss = xent(zv, 1)
        (g,) = grad(t, loss, [zv])
        return t, zv, sum_all(mul(g, g))

    t, zv, out = gnorm2(z0)
    (h,) = grad(t, out, [zv])

    eta = 1e-5
    u = RNG.standard_normal(5)
    u /= np.linalg.norm(u)
    fplus = float(gnorm2(z0 + eta * u)[2].value)
    fminus = float(gnorm2(z0 - eta * u)[2].value)
    fd = (fplus - fminus) / (2 * eta)
    an = float(np.vdot(u, h.value))
    assert rel_err(an, fd) < 1e-4


def test_second_order_through_conv():
    x0 = RNG.standard_normal((1, 1, 4, 4)) * 0.5
    k0 = RNG.standard_normal((1, 1, 3, 3)) * 0.5
    b0 = np.zeros(1)

    def gnorm2(k):
        t = Tape()
        xv, kv, bv = t.leaf(x0), t.leaf(k), t.leaf(b0)
        y = conv2d(xv, kv, bv, padding=1)
        out = sum_all(mul(y, y))
        (gx,) = grad(t, out, [xv])
        return t, kv, sum_all(mul(gx, gx))

    t, kv, out = gnorm2(k0)
    (h,) = grad(t, out, [kv])

    eta = 1e-5
    u = RNG.standard_normal(k0.shape)
    u /= np.linalg.norm(u)
    fd = (float(gnorm2(k0 + eta * u)[2].value)
          - float(gnorm2(k0 - eta * u)[2].value)) / (2 * eta)
    an = float(np.vdot(u, h.value))
    assert rel_err(an, fd) < 1e-4


# -- vjp contract -------------------------------------------------------------

def test_vjp_linearity_in_cotangent():
    x0 = RNG.standard_normal((1, 6))
    w0 = RNG.standard_normal((4, 6))
    b0 = RNG.standard_normal(4)
    u1 = RNG.standard_normal((1, 4))
    u2 = RNG.standard_normal((1, 4))
    a, b = 0.7, -2.3

    t = Tape()
    xv = t.leaf(x0)
    y = relu(dense(xv, t.leaf(w0), t.leaf(b0)))
    (g1,) = vjp(t, y, u1, [xv])
    (g2,) = vjp(t, y, u2, [xv])
    (gc,) = vjp(t, y, a * u1 + b * u2, [xv])
    np.testing.assert_allclose(gc.value, a * g1.value + b * g2.value,
                               rtol=1e-12, atol=1e-14)


def test_vjp_disconnected_leaf_yields_zeros():
    t = Tape()
    x = t.leaf(np.ones(3))
    z = t.leaf(np.ones((2, 2)))
    y = sum_all(mul(x, x))
    gz, = vjp(t, y, np.asarray(1.0), [z])
    assert np.array_equal(gz.value, np.zeros((2, 2)))


def test_vjp_multiple_wrt_order():
    t = Tape()
    a = t.leaf(np.array([1.0, 2.0]))
    b = t.leaf(np.array([3.0, 4.0]))
    y = sum_all(mul(a, b))
    gb, ga = vjp(t, y, np.asarray(1.0), [b, a])
    np.testing.assert_array_equal(ga.value, b.value)
    np.testing.assert_array_equal(gb.value, a.value)


def test_vjp_foreign_tape_raises():
    t1, t2 = Tape(), Tape()
    x1 = t1.leaf(np.ones(2))
    x2 = t2.leaf(np.ones(2))
    y = sum_all(x1)
    with pytest.raises(TapeError):
        vjp(t1, y, np.asarray(1.0), [x2])
    with pytest.raises(TapeError):
        vjp(t2, y, np.asarray(1.0), [x2])


def test_vjp_rejects_a_wrt_node_that_is_not_a_leaf():
    # dz/dy = 2y = 18 would be silently returned as 0 if y were accepted
    t = Tape()
    x = t.leaf(np.asarray(3.0))
    y = mul(x, x)
    z = sum_all(mul(y, y))
    (gx,) = grad(t, z, [x])
    assert float(gx.value) == 108.0
    with pytest.raises(TapeError, match="not a leaf"):
        grad(t, z, [y])
    with pytest.raises(TapeError, match="not a leaf"):
        grad(t, z, [x, y])


def test_vjp_cotangent_shape_mismatch_raises():
    t = Tape()
    x = t.leaf(np.ones(3))
    y = relu(x)
    with pytest.raises(ShapeError):
        vjp(t, y, np.ones(4), [x])


def test_grad_requires_scalar():
    t = Tape()
    x = t.leaf(np.ones(3))
    with pytest.raises(ShapeError):
        grad(t, relu(x), [x])


def test_reused_subexpression_accumulates():
    # y = x*x + x*x: adjoint must accumulate both paths
    t = Tape()
    x = t.leaf(np.array([3.0]))
    sq = mul(x, x)
    y = sum_all(add(sq, sq))
    (g,) = grad(t, y, [x])
    np.testing.assert_allclose(g.value, np.array([12.0]), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_vjp_scaling_property(n, seed):
    r = np.random.default_rng(seed)
    x0 = r.standard_normal(n)
    u = r.standard_normal(n)
    c = float(r.uniform(-3, 3))
    t = Tape()
    xv = t.leaf(x0)
    y = mul(xv, xv)
    (g1,) = vjp(t, y, u, [xv])
    (g2,) = vjp(t, y, c * u, [xv])
    np.testing.assert_allclose(g2.value, c * g1.value, rtol=1e-9, atol=1e-12)


# -- replay -------------------------------------------------------------------

def replay(tape):
    """True when recomputing every non-leaf node from its parents' stored
    values, by its op's forward kernel, reproduces its value bitwise."""
    for node in tape.nodes:
        if node.op != "leaf":
            vals = [tape.nodes[i].value for i in node.parents]
            if _FORWARD[node.op](vals, node.ctx).tobytes() != node.value.tobytes():
                return False
    return True


def test_tape_replay_bitwise():
    t = Tape()
    x = t.leaf(RNG.standard_normal((1, 2, 4, 4)))
    k = t.leaf(RNG.standard_normal((3, 2, 3, 3)))
    b = t.leaf(RNG.standard_normal(3))
    y = conv2d(x, k, b, padding=1)
    h = reshape(relu(y), (1, 48))
    logits = dense(h, t.leaf(RNG.standard_normal((5, 48))), t.leaf(RNG.standard_normal(5)))
    out = sum_all(cross_entropy_rows(logits, [2]))
    grad(t, out, [x, k, b])  # extend the tape with backward nodes too
    assert replay(t)


def test_float32_is_preserved():
    t = Tape()
    x = t.leaf(np.ones((2, 2), dtype=np.float32))
    y = mul(x, x)
    assert y.value.dtype == np.float32


# -- vjp builds only the contributions to parents that depend on wrt ---------

# every (full shape, axes) pattern the package sums over and broadcasts
# along: all axes of a scalar (sum_all of a 0-d value), the dense bias, the
# logsumexp/softmax rows, the conv bias, and sum_all of a matrix and a batch
_AXES_CASES = [((), ()), ((3, 4), (0,)), ((3, 4), (1,)),
               ((2, 4, 5, 5), (0, 2, 3)), ((3, 4), (0, 1)),
               ((2, 4, 5, 5), (0, 1, 2, 3))]


def _reduced(shape, axes):
    return tuple(n for i, n in enumerate(shape) if i not in axes)


# names the sum and bcast cases after the kernel that served each axes
# pattern before those two ops replaced them
_AXES_NAMES = {"all": ("sum_all", "bcast_full"), (0,): ("sum_axis0", "bcast_rows"),
               (1,): ("sum_axis1", "expand_cols"),
               (0, 2, 3): ("sum_nhw", "conv_bias")}


def _axes_names(shape, axes):
    return _AXES_NAMES["all" if len(axes) == len(shape) else axes]


# (case name, op, parent shapes, ctx), at least one application per backward
# rule; the name is the op's, except for sum and bcast, which are named per
# axes pattern; parent values are drawn positive, which keeps div and sqrt
# finite
_RULE_CASES = [(op, op, shapes, ctx) for op, shapes, ctx in [
    ("add", ((3, 4), (3, 4)), None), ("sub", ((3, 4), (3, 4)), None),
    ("mul", ((3, 4), (3, 4)), None), ("div", ((3, 4), (3, 4)), None),
    ("maximum", ((3, 4), (3, 4)), None),
    ("scale", ((3, 4),), 1.5), ("add_const", ((3, 4),), 0.5),
    ("relu", ((3, 4),), None), ("sqrt", ((3, 4),), None),
    ("reshape", ((3, 4),), (4, 3)), ("transpose2d", ((3, 4),), None),
    ("matmul", ((3, 4), (4, 2)), None),
    ("rows_scale", ((3, 4), (3,)), None), ("dot_rows", ((3, 4), (3, 4)), None),
    ("conv2d", ((2, 3, 5, 5), (4, 3, 3, 3)), 1),
    ("conv2d", ((2, 3, 5, 5), (4, 3, 3, 3), (4,)), 1),
    ("conv2d_kgrad", ((2, 3, 5, 5), (2, 4, 5, 5)), 1),
    ("swap_flip", ((4, 3, 3, 3),), None),
    ("logsumexp_rows", ((3, 4),), None), ("softmax_rows", ((3, 4),), None),
]] + [(_axes_names(shape, axes)[0], "sum", (shape,), axes)
      for shape, axes in _AXES_CASES] + [
    (_axes_names(shape, axes)[1], "bcast", (_reduced(shape, axes),), (shape, axes))
    for shape, axes in _AXES_CASES]


def _apply_rule(op, shapes, ctx, need):
    """Record `op` on a fresh tape, then run its backward rule with `need`.
    Returns (the node's parent indices, the rule's pairs as (index, bytes))."""
    r = np.random.default_rng(0)
    t = Tape()
    parents = [t.leaf(r.uniform(0.5, 2.0, sh)) for sh in shapes]
    out = t._record(op, parents, ctx)
    g = t.leaf(r.standard_normal(out.shape))
    node = t.nodes[out.index]
    pairs = _BACKWARD[op](t, node, out.index, g, need)
    return node.parents, [(p, c.value.tobytes()) for p, c in pairs]


def test_every_forward_op_has_a_backward_rule():
    assert set(_BACKWARD) == set(_FORWARD)


def test_every_backward_rule_has_a_rule_contract_case():
    assert {op for _, op, _, _ in _RULE_CASES} == set(_BACKWARD)


@pytest.mark.parametrize("name", sorted({name for name, _, _, _ in _RULE_CASES}))
def test_backward_rule_returns_exactly_the_needed_parents(name):
    cases = [(op, shapes, ctx) for n, op, shapes, ctx in _RULE_CASES if n == name]
    for op, shapes, ctx in cases:
        parents, every = _apply_rule(op, shapes, ctx, [True] * len(shapes))
        assert [p for p, _ in every] == list(parents)
        for need in product([False, True], repeat=len(shapes)):
            _, got = _apply_rule(op, shapes, ctx, list(need))
            assert got == [pair for pair, n in zip(every, need) if n]


# the eight broadcast and sum kernels that _bcast and _sum replaced, as they
# were; _OLD_PAIRS maps each axes pattern to the pair that served it
_OLD_KERNELS = {
    "sum_all": lambda v, c: np.asarray(v[0].sum()),
    "bcast_full": lambda v, c: np.broadcast_to(v[0], c).copy(),
    "bcast_rows": lambda v, c: np.broadcast_to(v[0], (c,) + v[0].shape).copy(),
    "sum_axis0": lambda v, c: v[0].sum(axis=0),
    "expand_cols": lambda v, c: np.repeat(v[0][:, None], c, axis=1),
    "sum_axis1": lambda v, c: v[0].sum(axis=1),
    "conv_bias": lambda v, c: np.broadcast_to(v[0][None, :, None, None], (c[0], v[0].shape[0], c[1], c[2])).copy(),
    "sum_nhw": lambda v, c: v[0].sum(axis=(0, 2, 3)),
}
_OLD_PAIRS = {  # axes -> (old sum kernel, old broadcast kernel and its ctx)
    "all": ("sum_all", "bcast_full", lambda shape: shape),
    (0,): ("sum_axis0", "bcast_rows", lambda shape: shape[0]),
    (1,): ("sum_axis1", "expand_cols", lambda shape: shape[1]),
    (0, 2, 3): ("sum_nhw", "conv_bias", lambda shape: (shape[0],) + shape[2:]),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape, axes", [
    ((), ()), ((37, 10), (0,)), ((37, 10), (1,)), ((7, 4, 9, 11), (0, 2, 3)),
    ((37, 10), (0, 1)), ((7, 4, 9, 11), (0, 1, 2, 3))],
    ids=["scalar", "dense_bias", "rows", "conv_bias", "all_2d", "all_4d"])
def test_sum_and_bcast_are_byte_equal_to_the_kernels_they_replaced(shape, axes, dtype):
    r = np.random.default_rng(1)
    x = r.standard_normal(shape).astype(dtype)
    part = r.standard_normal(_reduced(shape, axes)).astype(dtype)
    old_sum, old_bcast, old_ctx = _OLD_PAIRS[
        "all" if len(axes) == len(shape) else axes]
    pairs = (
        (_FORWARD["sum"]([x], axes), _OLD_KERNELS[old_sum]([x], None)),
        (_FORWARD["bcast"]([part], (shape, axes)),
         _OLD_KERNELS[old_bcast]([part], old_ctx(shape))))
    for new, old in pairs:
        assert (new.shape, new.dtype) == (old.shape, old.dtype)
        assert new.tobytes() == old.tobytes()
    assert pairs[1][0].flags.c_contiguous
    t = Tape()
    xv, pv = t.leaf(x), t.leaf(part)
    assert _sum(xv, axes).value.tobytes() == pairs[0][0].tobytes()
    assert _bcast(pv, shape, axes).value.tobytes() == pairs[1][0].tobytes()


# the three ops that cross_entropy_rows' one-hot inner product and
# scale(g, -1) replaced, as they were, plus sub's rule from when it used neg
def _old_neg(a):
    return a.tape._record("neg", (a,))


def _old_pick_rows(z, idx):
    return z.tape._record("pick_rows", (z,), np.asarray(idx, dtype=np.int64))


def _old_scatter_rows_kernel(vals, ctx):
    (v,) = vals
    idx, k = ctx
    out = np.zeros((v.shape[0], k), dtype=v.dtype)
    out[np.arange(v.shape[0]), idx] = v
    return out


def _old_pick_rows_rule(tape, node, ni, g, need):
    k = tape.nodes[node.parents[0]].value.shape[1]
    return _pick(node, need, lambda: g.tape._record(
        "scatter_rows", (g,), (node.ctx, k)))


_OLD_FORWARD = {
    "neg": lambda v, c: -v[0],
    "pick_rows": lambda v, c: v[0][np.arange(v[0].shape[0]), c],
    "scatter_rows": _old_scatter_rows_kernel,
}
_OLD_BACKWARD = {
    "neg": lambda tape, node, ni, g, need: _pick(node, need, lambda: _old_neg(g)),
    "pick_rows": _old_pick_rows_rule,
    "scatter_rows": lambda tape, node, ni, g, need: _pick(
        node, need, lambda: _old_pick_rows(g, node.ctx[0])),
    "sub": lambda tape, node, ni, g, need: _pick(
        node, need, lambda: g, lambda: _old_neg(g)),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cross_entropy_is_byte_equal_to_the_ops_it_replaced(monkeypatch, dtype):
    for op, kernel in _OLD_FORWARD.items():
        monkeypatch.setitem(_FORWARD, op, kernel)
    for op, rule in _OLD_BACKWARD.items():
        monkeypatch.setitem(_BACKWARD, op, rule)
    r = np.random.default_rng(5)
    z = (4 * r.standard_normal((9, 10))).astype(dtype)
    labels = r.integers(0, 10, 9)
    # upstream cotangents of both signs: a positive one makes the one-hot
    # rule's off-label zeros -0.0 where scatter_rows wrote +0.0
    u = np.array([-1.5, 2.0, -0.25, 0.5, 1.0, -3.0, 0.75, -1.0, 0.125], dtype=dtype)
    w = r.standard_normal((9, 10)).astype(dtype)

    def run(ce):
        t = Tape()
        zv, cot = t.leaf(z), t.leaf(u)
        loss = ce(zv, labels)
        (g,) = vjp(t, loss, cot, [zv])
        # second order, through the one-hot rule's own backward
        hz, hu = grad(t, sum_all(mul(g, t.leaf(w))), [zv, cot])
        return t, [v.value for v in (loss, g, hz, hu)]

    t_new, new = run(cross_entropy_rows)
    t_old, old = run(lambda zv, y: sub(logsumexp_rows(zv), _old_pick_rows(zv, y)))
    assert {"neg", "pick_rows", "scatter_rows"} <= {n.op for n in t_old.nodes}
    for a, b in zip(new, old):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert a.tobytes() == b.tobytes()
    one_hot_rule = [n.value for n in t_new.nodes if n.op == "rows_scale"][0]
    assert np.signbit(one_hot_rule[one_hot_rule == 0]).any()


def _compute_then_drop(monkeypatch):
    """Make every rule build all contributions and vjp keep the needed ones:
    the backward work before rules were given the need flags."""
    for op, rule in list(_BACKWARD.items()):
        def every(tape, node, ni, g, need, rule=rule):
            pairs = rule(tape, node, ni, g, [True] * len(need))
            return [pair for pair, n in zip(pairs, need) if n]
        monkeypatch.setitem(_BACKWARD, op, every)


def _kernel_calls(monkeypatch, record=None):
    """Count conv2d / conv2d_kgrad / matmul kernel runs; `record` (optional)
    receives each conv2d call's values: (input, kernel), plus the bias of a
    forward conv."""
    calls = dict.fromkeys(("conv2d", "conv2d_kgrad", "matmul"), 0)
    for op in calls:
        def counted(vals, ctx, op=op, kernel=_FORWARD[op]):
            calls[op] += 1
            if record is not None and op == "conv2d":
                record.append(vals)
            return kernel(vals, ctx)
        monkeypatch.setitem(_FORWARD, op, counted)
    return calls


def _small_base(seed=0):
    return build_base_model((3, 6, 6), 4, seed=seed, channels=(4, 5))


@pytest.mark.parametrize("every_flag", [False, True])
def test_input_gradient_runs_no_kernel_gradient(monkeypatch, every_flag):
    # res_block filter (2 convs) + base (2 convs, 1 dense), gradient wrt x only
    filt = micro_bank(1, seed=3, hidden=4).filters[0]
    model = _small_base().freeze()
    x = np.random.default_rng(4).uniform(0, 1, (2, 3, 6, 6))
    if every_flag:
        _compute_then_drop(monkeypatch)
    calls = _kernel_calls(monkeypatch)
    _pipeline_loss_grad(model, filt, x, np.array([0, 3]))
    assert calls["conv2d_kgrad"] == (4 if every_flag else 0)
    assert calls["matmul"] == (3 if every_flag else 2)  # forward + input gradient


@pytest.mark.parametrize("every_flag", [False, True])
def test_bank_gradient_of_ce_runs_no_conv_into_the_input(monkeypatch, every_flag):
    bank = micro_bank(2, seed=5, hidden=4)
    model = _small_base().freeze()
    x = np.random.default_rng(6).uniform(0, 1, (2, 3, 6, 6))
    if every_flag:
        _compute_then_drop(monkeypatch)
    convs = []
    _kernel_calls(monkeypatch, convs)
    tape = Tape()
    pvars = bind_bank(tape, bank)
    out = ce_component(tape, model, tape.leaf(x), np.array([1, 2]), pvars)
    convs.clear()
    grad(tape, out, [v for pv in pvars for v in pv.values()])
    # a data-gradient conv into the input batch runs with a first-layer
    # filter kernel, flipped by swap_flip
    flipped = [_FORWARD["swap_flip"]([f.params["w1"]], None) for f in bank.filters]
    into_input = sum(any(np.array_equal(k, f) for f in flipped) for _, k in convs)
    assert into_input == (bank.k if every_flag else 0)


@pytest.mark.parametrize("every_flag", [False, True])
def test_pretraining_runs_no_conv_into_its_input_batch(monkeypatch, every_flag):
    x = np.random.default_rng(7).uniform(0, 1, (4, 3, 6, 6))
    if every_flag:
        _compute_then_drop(monkeypatch)
    convs = []
    calls = _kernel_calls(monkeypatch, convs)
    pretrain_and_freeze(_small_base(), (x, np.array([0, 1, 2, 3])), epochs=2,
                        lr=1e-3, batch_size=4)
    # the base's first conv maps 3 channels to 4, so only its data gradient
    # has a kernel with 3 output channels
    into_input = sum(vals[1].shape[0] == 3 for vals in convs)
    assert into_input == (2 if every_flag else 0)
    assert calls["conv2d_kgrad"] == 2 * 2


def test_second_order_gradient_bitwise_equal_to_compute_then_drop(monkeypatch):
    bank = micro_bank(2, seed=8, hidden=4, jitter=0.15)
    model = _small_base(seed=1).freeze()
    x = np.random.default_rng(9).uniform(0.1, 0.9, (2, 3, 6, 6))
    probes_w = draw_logit_probes(2, model.k_classes, seed=10)

    def run():
        tape = Tape()
        pvars = bind_bank(tape, bank)
        out = lvjp_component(tape, model, tape.leaf(x), probes_w, pvars)
        gs = grad(tape, out, [v for pv in pvars for v in pv.values()])
        return [v.value.tobytes() for v in [out] + gs], len(tape)

    pruned, pruned_len = run()
    _compute_then_drop(monkeypatch)
    full, full_len = run()
    assert pruned == full
    assert pruned_len < full_len


def test_a_training_step_records_every_op(monkeypatch):
    # an op no run records is code only its own tests keep alive
    recorded = set()
    append = Tape._append

    def spy(tape, op, parents, value, ctx):
        recorded.add(op)
        return append(tape, op, parents, value, ctx)
    monkeypatch.setattr(Tape, "_append", spy)
    x = np.random.default_rng(2).uniform(0, 1, (6, 3, 6, 6))
    y = np.arange(6) % 4
    cfg = TrainConfig(epochs=1, batch_size=len(y), w_js=0, w_lvjp=0, w_adv=0,
                      pgd_steps=1, probes=ProbeConfig(p_v=1, p_w=1, seed=3),
                      seed=4)
    _, log = train_drift(_small_base(seed=2).freeze(),
                         micro_bank(2, seed=3, hidden=4), (x, y), cfg)
    assert all(log[0][term] > 0 for term in ("js", "lvjp", "adv"))
    assert sorted(set(_FORWARD) - recorded) == []
