"""Dense tensor ops with tape-based reverse-mode autodiff.

Values are plain numpy arrays (row-major, float32 or float64). A Tape records
every primitive application as a node holding the operator id, parent node
indices, the forward value, and whatever the backward rule needs. `vjp` pulls
a cotangent back to any set of recorded leaves, and builds only the
contributions to parents that depend on `wrt`: no kernel gradient for a frozen
weight, no input gradient for a constant input.

Backward rules are themselves built from recorded primitives, so the result
of a vjp call is an ordinary node and can be differentiated again. That is
what lets losses defined on Jacobian probes have exact parameter gradients.
Every broadcast (biases, row-wise backward terms) is one primitive, `bcast`,
and every reduction is its adjoint, `sum`; each is the other's backward rule.
The only non-differentiable pieces are the ReLU/maximum selection masks,
which enter as constant leaves (their derivative is zero almost everywhere,
matching the subgradient-at-zero convention).
"""

import numpy as np

from .errors import DomainError, ShapeError, TapeError

__all__ = [
    "Tape", "Var", "vjp", "grad",
    "conv2d", "relu", "dense",
    "add", "sub", "mul", "div", "neg", "scale", "add_const", "maximum",
    "sum_all", "sqrt", "reshape", "matmul", "transpose2d",
    "dot_rows", "rows_scale", "mean_all", "logsumexp_rows", "softmax_rows",
    "pick_rows", "cross_entropy_rows",
]


class Node:
    """One recorded primitive application."""

    __slots__ = ("op", "parents", "value", "ctx")

    def __init__(self, op, parents, value, ctx):
        self.op = op
        self.parents = parents
        self.value = value
        self.ctx = ctx


class Tape:
    """Append-only record of one forward (and backward) computation.

    Tapes are cheap; make one per forward pass and drop it. Nodes only ever
    reference earlier nodes, so replaying in index order reproduces every
    stored value bitwise.
    """

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)

    def leaf(self, value, dtype=None):
        """Record an input/constant node and return its Var."""
        arr = np.asarray(value, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > 0 and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        return self._append("leaf", (), arr, None)

    def _append(self, op, parents, value, ctx):
        self.nodes.append(Node(op, parents, value, ctx))
        return Var(self, len(self.nodes) - 1)

    def _record(self, op, parent_vars, ctx=None):
        for p in parent_vars:
            if p.tape is not self:
                raise TapeError(f"node #{p.index} belongs to a different tape")
        vals = [p.value for p in parent_vars]
        value = _FORWARD[op](vals, ctx)
        return self._append(op, tuple(p.index for p in parent_vars), value, ctx)

    def replay(self):
        """Recompute every non-leaf value from its parents.

        Returns True if every recomputed value is bitwise identical to the
        stored one. Leaves keep their stored values.
        """
        for node in self.nodes:
            if node.op == "leaf":
                continue
            vals = [self.nodes[i].value for i in node.parents]
            redone = _FORWARD[node.op](vals, node.ctx)
            if redone.tobytes() != node.value.tobytes():
                return False
        return True


class Var:
    """Reference to one node on one tape; the handle all ops work with."""

    __slots__ = ("tape", "index")

    def __init__(self, tape, index):
        self.tape = tape
        self.index = index

    @property
    def value(self):
        return self.tape.nodes[self.index].value

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(#{self.index}, shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)


def _same_tape(*vars_):
    t = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not t:
            raise TapeError("operands live on different tapes")
    return t


def _check_same_shape(a, b, opname):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{opname}: shapes {a.value.shape} and {b.value.shape} differ")


# ---------------------------------------------------------------------------
# Forward kernels. Each takes (parent_values, ctx) and returns a C-contiguous
# array; keeping them in one registry is what makes Tape.replay possible.
# ---------------------------------------------------------------------------

def _im2col(x, kh, kw, pad, dtype):
    """[N,C,H,W] -> [N*Ho*Wo, kh*kw*C] im2col, columns (i, j, c): one copy of a
    read-only view of the NHWC input (zero-padded when pad > 0) whose window
    axes (i, j) step like its rows and columns. Both conv kernels ran 1.1-2.1x
    faster (batch 1 and 50) than with kh*kw strided slab writes; as_strided
    gives sliding_window_view's columns at about 6 us less per call."""
    n, c, h, w = x.shape
    xn = x.transpose(0, 2, 3, 1)
    if pad:
        xn = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xn[:, pad:pad + h, pad:pad + w, :] = x.transpose(0, 2, 3, 1)
    ho, wo = xn.shape[1] - kh + 1, xn.shape[2] - kw + 1
    win = np.lib.stride_tricks.as_strided(
        xn, (n, ho, wo, kh, kw, c), xn.strides[:3] + xn.strides[1:], writeable=False)
    return np.ascontiguousarray(win, dtype=dtype).reshape(n * ho * wo, kh * kw * c)


def _k_conv2d(vals, ctx):
    x, k = vals
    o, c, kh, kw = k.shape
    dt = np.result_type(x, k)
    k2 = np.ascontiguousarray(k.transpose(2, 3, 1, 0), dtype=dt).reshape(kh * kw * c, o)
    col = _im2col(x, kh, kw, ctx, dt)
    out = (col @ k2).reshape(x.shape[0], x.shape[2] + 2 * ctx - kh + 1, -1, o)
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _k_conv2d_kgrad(vals, ctx):
    x, gy = vals
    n, o, ho, wo = gy.shape
    kh, kw = x.shape[2] + 2 * ctx - ho + 1, x.shape[3] + 2 * ctx - wo + 1
    dt = np.result_type(x, gy)
    g2 = np.ascontiguousarray(gy.transpose(0, 2, 3, 1), dtype=dt).reshape(n * ho * wo, o)
    dk = _im2col(x, kh, kw, ctx, dt).T @ g2
    return np.ascontiguousarray(dk.reshape(kh, kw, -1, o).transpose(3, 2, 0, 1))


def _k_swap_flip(vals, ctx):
    (k,) = vals
    return np.ascontiguousarray(k[:, :, ::-1, ::-1].swapaxes(0, 1))


def _k_logsumexp_rows(vals, ctx):
    (z,) = vals
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def _k_softmax_rows(vals, ctx):
    (z,) = vals
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _k_scatter_rows(vals, ctx):
    (v,) = vals
    idx, k = ctx
    out = np.zeros((v.shape[0], k), dtype=v.dtype)
    out[np.arange(v.shape[0]), idx] = v
    return out


_FORWARD = {
    "add": lambda v, c: v[0] + v[1],
    "sub": lambda v, c: v[0] - v[1],
    "mul": lambda v, c: v[0] * v[1],
    "div": lambda v, c: v[0] / v[1],
    "neg": lambda v, c: -v[0],
    "scale": lambda v, c: v[0] * c,
    "add_const": lambda v, c: v[0] + c,
    "relu": lambda v, c: np.maximum(v[0], 0.0),
    "maximum": lambda v, c: np.maximum(v[0], v[1]),
    "sum": lambda v, c: np.asarray(v[0].sum(axis=c)),
    "bcast": lambda v, c: np.broadcast_to(np.expand_dims(v[0], c[1]), c[0]).copy(),
    "sqrt": lambda v, c: np.sqrt(v[0]),
    "reshape": lambda v, c: v[0].reshape(c) if not c else np.ascontiguousarray(v[0].reshape(c)),
    "transpose2d": lambda v, c: np.ascontiguousarray(v[0].T),
    "matmul": lambda v, c: v[0] @ v[1],
    "rows_scale": lambda v, c: v[0] * v[1].reshape((-1,) + (1,) * (v[0].ndim - 1)),
    "dot_rows": lambda v, c: (v[0] * v[1]).reshape(v[0].shape[0], -1).sum(axis=1),
    "conv2d": _k_conv2d,
    "conv2d_kgrad": _k_conv2d_kgrad,
    "swap_flip": _k_swap_flip,
    "logsumexp_rows": _k_logsumexp_rows,
    "softmax_rows": _k_softmax_rows,
    "pick_rows": lambda v, c: v[0][np.arange(v[0].shape[0]), c],
    "scatter_rows": _k_scatter_rows,
}


# ---------------------------------------------------------------------------
# Primitive ops (record on the operands' tape)
# ---------------------------------------------------------------------------

def add(a, b):
    _check_same_shape(a, b, "add")
    return _same_tape(a, b)._record("add", (a, b))


def sub(a, b):
    _check_same_shape(a, b, "sub")
    return _same_tape(a, b)._record("sub", (a, b))


def mul(a, b):
    _check_same_shape(a, b, "mul")
    return _same_tape(a, b)._record("mul", (a, b))


def div(a, b):
    _check_same_shape(a, b, "div")
    return _same_tape(a, b)._record("div", (a, b))


def neg(a):
    return a.tape._record("neg", (a,))


def scale(a, c):
    return a.tape._record("scale", (a,), float(c))


def add_const(a, c):
    return a.tape._record("add_const", (a,), float(c))


def relu(x):
    """Elementwise max(0, x); subgradient at exactly 0 is 0."""
    return x.tape._record("relu", (x,))


def maximum(a, b):
    _check_same_shape(a, b, "maximum")
    return _same_tape(a, b)._record("maximum", (a, b))


def _sum(a, axes):
    """Sum over `axes`; the adjoint of _bcast."""
    return a.tape._record("sum", (a,), tuple(axes))


def _bcast(a, shape, axes):
    """Insert `axes` into a and broadcast it to `shape`; the adjoint of _sum."""
    return a.tape._record("bcast", (a,), (tuple(shape), tuple(axes)))


def sum_all(a):
    return _sum(a, range(a.value.ndim))


def mean_all(a):
    n = max(a.value.size, 1)
    return scale(sum_all(a), 1.0 / n)


def sqrt(a):
    """Elementwise square root. Backward divides by the output, so keep
    inputs strictly positive."""
    return a.tape._record("sqrt", (a,))


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.value.size:
        raise ShapeError(f"reshape: cannot view {a.value.shape} as {shape}")
    return a.tape._record("reshape", (a,), shape)


def transpose2d(a):
    if a.value.ndim != 2:
        raise ShapeError("transpose2d expects a matrix")
    return a.tape._record("transpose2d", (a,))


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")
    return _same_tape(a, b)._record("matmul", (a, b))


def rows_scale(a, v):
    """out[n, ...] = a[n, ...] * v[n]."""
    if v.value.ndim != 1 or a.value.shape[0] != v.value.shape[0]:
        raise ShapeError("rows_scale: leading dims disagree")
    return _same_tape(a, v)._record("rows_scale", (a, v))


def dot_rows(a, b):
    """Per-row inner product: [N, ...] x [N, ...] -> [N]."""
    _check_same_shape(a, b, "dot_rows")
    return _same_tape(a, b)._record("dot_rows", (a, b))


def _conv2d_raw(x, k, pad):
    return _same_tape(x, k)._record("conv2d", (x, k), int(pad))


def _conv2d_kgrad(x, gy, pad):
    return _same_tape(x, gy)._record("conv2d_kgrad", (x, gy), int(pad))


def _swap_flip(k):
    return k.tape._record("swap_flip", (k,))


def logsumexp_rows(z):
    if z.value.ndim != 2:
        raise ShapeError("logsumexp_rows expects [N, K]")
    return z.tape._record("logsumexp_rows", (z,))


def softmax_rows(z):
    if z.value.ndim != 2:
        raise ShapeError("softmax_rows expects [N, K]")
    return z.tape._record("softmax_rows", (z,))


def pick_rows(z, idx):
    idx = np.asarray(idx, dtype=np.int64)
    if z.value.ndim != 2 or idx.shape != (z.value.shape[0],):
        raise ShapeError("pick_rows expects [N, K] and [N] indices")
    if idx.min() < 0 or idx.max() >= z.value.shape[1]:
        raise DomainError("pick_rows: index out of range")
    return z.tape._record("pick_rows", (z,), idx)


def _scatter_rows(v, idx, k):
    return v.tape._record("scatter_rows", (v,), (np.asarray(idx, dtype=np.int64), int(k)))


# ---------------------------------------------------------------------------
# Composite ops with the public per-sample contracts (batched axis optional)
# ---------------------------------------------------------------------------

def conv2d(x, kernel, bias, padding):
    """2-D cross-correlation plus per-channel bias, stride 1.

    x is [C,H,W] or [N,C,H,W]; kernel [C_out,C_in,k,k]; bias [C_out].
    With padding = (k-1)/2 the spatial size is preserved.
    """
    single = x.value.ndim == 3
    if single:
        x = reshape(x, (1,) + x.value.shape)
    if x.value.ndim != 4 or kernel.value.ndim != 4:
        raise ShapeError("conv2d expects image [.,C,H,W] and kernel [O,C,k,k]")
    _, c, h, w = x.value.shape
    o, ck, kh, kw = kernel.value.shape
    if ck != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {ck}")
    if bias.value.shape != (o,):
        raise ShapeError("conv2d: bias must be [C_out]")
    if h == 0 or w == 0:
        raise DomainError("conv2d: zero-extent spatial dims")
    pad = int(padding)
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ShapeError("conv2d: kernel larger than padded input")
    y = _conv2d_raw(x, kernel, pad)
    y = add(y, _bcast(bias, y.value.shape, (0, 2, 3)))
    if single:
        y = reshape(y, y.value.shape[1:])
    return y


def dense(x, w, b):
    """Affine map W x + b. x is [n] or [N,n]; w [m,n]; b [m]."""
    single = x.value.ndim == 1
    if single:
        x = reshape(x, (1,) + x.value.shape)
    if w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]:
        raise ShapeError(f"dense: x {x.value.shape} vs W {w.value.shape}")
    if b.value.shape != (w.value.shape[0],):
        raise ShapeError("dense: bias length must match output dim")
    y = matmul(x, transpose2d(w))
    y = add(y, _bcast(b, y.value.shape, (0,)))
    if single:
        y = reshape(y, (y.value.shape[1],))
    return y


def cross_entropy_rows(logits, labels):
    """Per-sample softmax cross-entropy: [N,K] x [N] -> [N]."""
    labels = np.asarray(labels, dtype=np.int64)
    return sub(logsumexp_rows(logits), pick_rows(logits, labels))


# ---------------------------------------------------------------------------
# Backward rules. Each gets `need`, one flag per parent (does it depend on
# wrt?), and returns [(parent_index, contribution Var), ...] for the needed
# parents only, in parent order. Contributions are built out of recorded
# primitives so second-order differentiation works.
# ---------------------------------------------------------------------------

def _pvar(tape, node, i):
    return Var(tape, node.parents[i])


def _pick(node, need, *makers):
    """Pair each needed parent with its contribution, calling only its maker."""
    return [(p, make()) for p, n, make in zip(node.parents, need, makers) if n]


def _bwd_add(tape, node, ni, g, need):
    return _pick(node, need, lambda: g, lambda: g)


def _bwd_sub(tape, node, ni, g, need):
    return _pick(node, need, lambda: g, lambda: neg(g))


def _bwd_mul(tape, node, ni, g, need):
    a, b = _pvar(tape, node, 0), _pvar(tape, node, 1)
    return _pick(node, need, lambda: mul(g, b), lambda: mul(g, a))


def _bwd_div(tape, node, ni, g, need):
    b, out = _pvar(tape, node, 1), Var(tape, ni)
    return _pick(node, need, lambda: div(g, b), lambda: neg(mul(g, div(out, b))))


def _bwd_neg(tape, node, ni, g, need):
    return _pick(node, need, lambda: neg(g))


def _bwd_scale(tape, node, ni, g, need):
    return _pick(node, need, lambda: scale(g, node.ctx))


def _bwd_add_const(tape, node, ni, g, need):
    return _pick(node, need, lambda: g)


def _bwd_relu(tape, node, ni, g, need):
    x = tape.nodes[node.parents[0]].value
    return _pick(node, need, lambda: mul(g, tape.leaf((x > 0).astype(x.dtype))))


def _bwd_maximum(tape, node, ni, g, need):
    a = tape.nodes[node.parents[0]].value
    b = tape.nodes[node.parents[1]].value
    take_a = (a >= b).astype(a.dtype)
    return _pick(node, need, lambda: mul(g, tape.leaf(take_a)),
                 lambda: mul(g, tape.leaf(1.0 - take_a)))


def _bwd_sum(tape, node, ni, g, need):
    shp = tape.nodes[node.parents[0]].value.shape
    return _pick(node, need, lambda: _bcast(g, shp, node.ctx))


def _bwd_bcast(tape, node, ni, g, need):
    return _pick(node, need, lambda: _sum(g, node.ctx[1]))


def _bwd_sqrt(tape, node, ni, g, need):
    out = Var(tape, ni)
    return _pick(node, need, lambda: scale(div(g, out), 0.5))


def _bwd_reshape(tape, node, ni, g, need):
    orig = tape.nodes[node.parents[0]].value.shape
    return _pick(node, need, lambda: reshape(g, orig))


def _bwd_transpose2d(tape, node, ni, g, need):
    return _pick(node, need, lambda: transpose2d(g))


def _bwd_matmul(tape, node, ni, g, need):
    a, b = _pvar(tape, node, 0), _pvar(tape, node, 1)
    return _pick(node, need, lambda: matmul(g, transpose2d(b)),
                 lambda: matmul(transpose2d(a), g))


def _bwd_rows_scale(tape, node, ni, g, need):
    a, v = _pvar(tape, node, 0), _pvar(tape, node, 1)
    return _pick(node, need, lambda: rows_scale(g, v), lambda: dot_rows(g, a))


def _bwd_dot_rows(tape, node, ni, g, need):
    a, b = _pvar(tape, node, 0), _pvar(tape, node, 1)
    return _pick(node, need, lambda: rows_scale(b, g), lambda: rows_scale(a, g))


def _bwd_conv2d(tape, node, ni, g, need):
    x, k = _pvar(tape, node, 0), _pvar(tape, node, 1)
    pad = node.ctx
    kh = k.value.shape[2]
    return _pick(node, need, lambda: _conv2d_raw(g, _swap_flip(k), kh - 1 - pad),
                 lambda: _conv2d_kgrad(x, g, pad))


def _bwd_conv2d_kgrad(tape, node, ni, g, need):
    # forward was dk = kgrad(x, gy); cotangent g has kernel shape
    x, gy = _pvar(tape, node, 0), _pvar(tape, node, 1)
    pad = node.ctx
    kh = g.value.shape[2]
    return _pick(node, need, lambda: _conv2d_raw(gy, _swap_flip(g), kh - 1 - pad),
                 lambda: _conv2d_raw(x, g, pad))


def _bwd_swap_flip(tape, node, ni, g, need):
    return _pick(node, need, lambda: _swap_flip(g))


def _bwd_logsumexp_rows(tape, node, ni, g, need):
    z = _pvar(tape, node, 0)
    return _pick(node, need,
                 lambda: mul(softmax_rows(z), _bcast(g, z.value.shape, (1,))))


def _bwd_softmax_rows(tape, node, ni, g, need):
    out = Var(tape, ni)
    return _pick(node, need, lambda: mul(out, sub(g, _bcast(
        _sum(mul(g, out), (1,)), out.value.shape, (1,)))))


def _bwd_pick_rows(tape, node, ni, g, need):
    k = tape.nodes[node.parents[0]].value.shape[1]
    return _pick(node, need, lambda: _scatter_rows(g, node.ctx, k))


def _bwd_scatter_rows(tape, node, ni, g, need):
    idx, _ = node.ctx
    return _pick(node, need, lambda: pick_rows(g, idx))


_BACKWARD = {
    "add": _bwd_add, "sub": _bwd_sub, "mul": _bwd_mul, "div": _bwd_div,
    "neg": _bwd_neg, "scale": _bwd_scale, "add_const": _bwd_add_const,
    "relu": _bwd_relu, "maximum": _bwd_maximum,
    "sum": _bwd_sum, "bcast": _bwd_bcast, "sqrt": _bwd_sqrt,
    "reshape": _bwd_reshape, "transpose2d": _bwd_transpose2d,
    "matmul": _bwd_matmul,
    "rows_scale": _bwd_rows_scale, "dot_rows": _bwd_dot_rows,
    "conv2d": _bwd_conv2d, "conv2d_kgrad": _bwd_conv2d_kgrad,
    "swap_flip": _bwd_swap_flip,
    "logsumexp_rows": _bwd_logsumexp_rows, "softmax_rows": _bwd_softmax_rows,
    "pick_rows": _bwd_pick_rows, "scatter_rows": _bwd_scatter_rows,
}


def vjp(tape, output, cotangent, wrt):
    """Pull `cotangent` back from `output` to each leaf in `wrt`.

    Returns one Var per wrt entry holding J^T cotangent (zeros when the
    output does not depend on that leaf). Forward values are never touched;
    repeated calls with different cotangents are independent. The returned
    Vars are recorded nodes, so they can be differentiated again.
    """
    if output.tape is not tape:
        raise TapeError("output Var belongs to a different tape")
    for wv in wrt:
        if wv.tape is not tape:
            raise TapeError("wrt Var belongs to a different tape")
        if tape.nodes[wv.index].op != "leaf":
            raise TapeError(f"wrt node #{wv.index} is not a leaf")
    if isinstance(cotangent, Var):
        if cotangent.tape is not tape:
            raise TapeError("cotangent Var belongs to a different tape")
        cot = cotangent
    else:
        cot = tape.leaf(np.asarray(cotangent, dtype=output.value.dtype))
    if cot.value.shape != output.value.shape:
        raise ShapeError(
            f"cotangent shape {cot.value.shape} != output shape {output.value.shape}")

    wrt_idx = {w.index for w in wrt}
    out_i = output.index

    # needed[i]: node i depends on some wrt leaf (forward reachability)
    needed = np.zeros(out_i + 1, dtype=bool)
    nodes = tape.nodes
    for i in range(out_i + 1):
        if i in wrt_idx:
            needed[i] = True
            continue
        for p in nodes[i].parents:
            if needed[p]:
                needed[i] = True
                break

    # nodes that feed the output, restricted to needed ones
    if not needed[out_i]:
        return [tape.leaf(np.zeros_like(w.value)) for w in wrt]
    live = set()
    stack = [out_i]
    while stack:
        i = stack.pop()
        if i in live or not needed[i]:
            continue
        live.add(i)
        stack.extend(nodes[i].parents)

    adjoint = {out_i: cot}
    for i in sorted(live, reverse=True):
        g = adjoint.pop(i, None)
        if g is None:
            continue
        node = nodes[i]
        if node.op == "leaf":
            adjoint[i] = g  # keep leaf adjoints for collection
            continue
        need = [needed[p] for p in node.parents]
        for pi, contrib in _BACKWARD[node.op](tape, node, i, g, need):
            prev = adjoint.get(pi)
            adjoint[pi] = contrib if prev is None else add(prev, contrib)

    results = []
    for w in wrt:
        got = adjoint.get(w.index)
        results.append(got if got is not None else tape.leaf(np.zeros_like(w.value)))
    return results


def grad(tape, output, wrt):
    """vjp with cotangent 1 for a scalar output."""
    if output.value.shape != ():
        raise ShapeError("grad expects a scalar output")
    one = np.asarray(1.0, dtype=output.value.dtype)
    return vjp(tape, output, one, wrt)
