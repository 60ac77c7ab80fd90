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
Every broadcast (dense biases, row-wise backward terms) is one primitive,
`bcast`, and every reduction is its adjoint, `sum`; each is the other's
backward rule. A conv's bias is a parent of its conv node instead.
The only non-differentiable pieces are the ReLU/maximum selection masks,
which enter as boolean constant leaves of one byte per element (their
derivative is zero almost everywhere, matching the subgradient-at-zero
convention; `mul` by a mask is bitwise `mul` by its 0/1 floats), and
cross-entropy's one-hot labels, a float constant leaf.
"""

import numpy as np

from .errors import DomainError, ShapeError, TapeError

__all__ = [
    "Tape", "Var", "vjp", "grad",
    "conv2d", "relu", "dense",
    "add", "sub", "mul", "div", "scale", "add_const", "maximum",
    "sum_all", "sqrt", "reshape", "matmul", "transpose2d",
    "dot_rows", "rows_scale", "mean_all", "logsumexp_rows", "softmax_rows",
    "cross_entropy_rows",
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
    reference earlier nodes, so recomputing the non-leaf nodes in index
    order, each by its op's forward kernel, reproduces every stored value
    bitwise.
    """

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)

    def leaf(self, value):
        """Record an input/constant node and return its Var."""
        arr = np.asarray(value)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > 0 and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        return self._append("leaf", (), arr, None)

    def _mask(self, mask):
        """Record a fresh boolean array as a constant leaf, one byte per
        element; `mul` by it gives the bytes `mul` by its 0/1 floats gives,
        the sign of a zero included."""
        return self._append("leaf", (), np.asarray(mask), None)

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
        return scale(self, -1.0)


def _check_same_shape(a, b, opname):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{opname}: shapes {a.value.shape} and {b.value.shape} differ")


# ---------------------------------------------------------------------------
# Forward kernels. Each takes (parent_values, ctx) and returns a C-contiguous
# array; keeping them in one registry is what lets any node be recomputed from
# its op, its parents' values and its ctx.
# ---------------------------------------------------------------------------

def _im2col(x, kh, kw, pad, dtype):
    """[N,C,H,W] -> [N*Ho*Wo, kh*kw*C] im2col, columns (i, j, c): one copy of a
    view of the zero-padded NHWC input whose window axes (i, j) step like its
    rows and columns. Both conv kernels ran 1.1-2.1x faster (batch 1 and 50)
    than with kh*kw strided slab writes. The view is built with the ndarray
    constructor over the padded NHWC copy."""
    n, c, h, w = x.shape
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    buf = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    buf[:, pad:pad + h, pad:pad + w, :] = x.transpose(0, 2, 3, 1)
    s = buf.strides
    win = np.ndarray((n, ho, wo, kh, kw, c), buf.dtype, buf, 0, s[:3] + s[1:])
    return np.ascontiguousarray(win, dtype=dtype).reshape(n * ho * wo, kh * kw * c)


def _im2col_conv(x, k2, kh, kw, pad, dt):
    """[N,C,H,W] -> [N,O,Ho,Wo] view: the im2col matrix times the kernel
    k2 [kh*kw*C, O], rows (i, j, c)."""
    n, _, h, w = x.shape
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    y = _im2col(x, kh, kw, pad, dt) @ k2
    return y.reshape(n, ho, wo, k2.shape[1]).transpose(0, 3, 1, 2)


def _taps_conv(x, kt, kh, kw, pad, dt):
    """[N,C,H,W] -> [N,O,Ho,Wo] view: the conv as one GEMM of the tap-stacked
    kernel kt [kh*kw*O, C], rows (i, j, o), by the zero-padded input laid out
    channel-major, [C, N*Hp*Wp]. Row block (i, j) of the product is that tap's
    contribution at every padded position; shifted left by its flat offset
    i*Wp + j, each block lines up with the output positions it feeds, so the
    taps are added into block (0, 0) in (i, j) order, each add one long
    contiguous slice. Positions whose window runs past a row or an image are
    summed too and cropped."""
    n, c, h, w = x.shape
    o = kt.shape[0] // (kh * kw)
    hp, wp = h + 2 * pad, w + 2 * pad
    size = n * hp * wp
    buf = np.zeros((c, n, hp, wp), dtype=dt)
    buf[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    prod = kt @ buf.reshape(c, size)
    m = max(size - (kh - 1) * wp - (kw - 1), 0)  # 0 for an empty batch
    y = prod[:o, :m]
    for t in range(1, kh * kw):
        off = t // kw * wp + t % kw
        y += prod[t * o:(t + 1) * o, off:off + m]
    y = prod[:o].reshape(o, n, hp, wp)
    return y[:, :, :hp - kh + 1, :wp - kw + 1].transpose(1, 0, 2, 3)


def _takes_taps(c, o):
    """Whether a conv from c to o channels, and its kernel gradient, run on
    the tap layout: few output channels (see below)."""
    return o < c and o <= 4


# A forward conv runs one of two GEMM layouts. The im2col layout multiplies
# the [N*Ho*Wo, kh*kw*C] window matrix by the [kh*kw*C, O] kernel. With few
# output channels that GEMM reads a 9x-inflated matrix to write O columns,
# and OpenBLAS runs it slowly: a 16->3 conv at batch 50 took 3.7 ms, about
# 3 GFLOP/s against 16-40 for 16->32. A conv with O < C and O <= 4 takes the
# tap layout (_taps_conv) instead, whose GEMM reads the input once and writes
# the inflated matrix: the 16->3 conv ran 1.0-1.2x faster at batch 1 and
# 2.9-4x at batch 16-100 (1 BLAS thread, 16x16 images). The tap layout was
# 2.2-5.9x slower at 3->16 and 16->32, and up to 1.4x slower at 32->16.
#
# Either layout runs in chunks of whole images once the inflated matrix (the
# im2col matrix, or the tap product) passes _COL_BYTES, so each chunk is read
# back while still in the core's L2 cache (2 MiB on the 2-core Xeon this was
# tuned on), and its buffers stay far below glibc's 32 MiB mmap threshold
# (see drift._keep_freed_memory). At batch 50 the desk's four convs, all on
# im2col then, ran 1.1-2.3x faster than with the whole matrix, and 1 MiB beat
# 4 MiB by up to 16%. Every chunk's GEMM does more than _CHUNK_MACS
# multiply-adds: OpenBLAS switches to a small-matrix kernel, with another
# summation order, at M*N*K <= 1e6 (a 16->3 conv cut into 8-image chunks
# differed in the last bit), so above this floor each chunk runs the kernel
# the unchunked call runs and the output is bitwise independent of the
# chunking.
#
# A kernel gradient reduces over all N*Ho*Wo output positions and runs
# unchunked, as one GEMM, on the layout its conv's forward takes
# (_takes_taps). The im2col layout multiplies the transposed window matrix
# by the [N*Ho*Wo, O] cotangent; for 16->3 at batch 50 that copies a 14.7 MB
# matrix to write 3 columns, and took 3.0 ms (3.7 GFLOP/s). The tap layout
# (_taps_kgrad) writes the cotangent kh*kw times, shifted by tap, into a
# 3.5 MB buffer and multiplies it by the zero-padded input: 1.15 ms (9.6
# GFLOP/s), and about even at batch 1. It ran 2.8-3.8x slower at 3->16 and
# 1.7-2.0x at 16->32, and about even at 32->16 (0.9-1.05x), which the rule
# keeps on im2col (1 BLAS thread, 16x16 images, batch 1 and 50).
_COL_BYTES = 1 << 20
_CHUNK_MACS = 1 << 20


def _k_conv2d(vals, ctx):
    """Conv forward, [x, k] or [x, k, bias]; the bias is added to the conv's
    output, as a separate add of its broadcast would. Few output channels take
    the tap layout, the rest im2col (see above). The im2col layout sums each
    output's kh*kw*C products in one GEMM dot; the tap layout sums C per tap
    in its GEMM, then adds the taps, which differs by about 1e-15 relative."""
    x, k, *bias = vals
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    ho, wo = h + 2 * ctx - kh + 1, w + 2 * ctx - kw + 1
    dt = np.result_type(x, k)
    out = np.empty((n, o, ho, wo), dtype=np.result_type(dt, *bias))
    if _takes_taps(c, o):
        conv, kmat, inner = _taps_conv, k.transpose(2, 3, 0, 1), c
        per_image = (h + 2 * ctx) * (w + 2 * ctx) * kh * kw * o
    else:
        conv, kmat, inner = _im2col_conv, k.transpose(2, 3, 1, 0), o
        per_image = ho * wo * kh * kw * c
    kmat = np.ascontiguousarray(kmat, dtype=dt).reshape(-1, inner)
    step = max(_COL_BYTES // (per_image * dt.itemsize), _CHUNK_MACS // (per_image * inner) + 1)
    # a short last chunk is folded into the one before
    bounds = list(range(step, n - step + 1, step)) + [n]
    start = 0
    for stop in bounds:
        out[start:stop] = conv(x[start:stop], kmat, kh, kw, ctx, dt)
        start = stop
    if bias:
        out += bias[0][:, None, None]
    return out


def _im2col_kgrad(x, gy, kh, kw, pad, dt):
    """[O, C, kh, kw] view: the transposed im2col matrix of x times the
    channel-last cotangent [N*Ho*Wo, O]."""
    n, o, ho, wo = gy.shape
    g2 = np.ascontiguousarray(gy.transpose(0, 2, 3, 1), dtype=dt).reshape(n * ho * wo, o)
    dk = _im2col(x, kh, kw, pad, dt).T @ g2
    return dk.reshape(kh, kw, -1, o).transpose(3, 2, 0, 1)


def _taps_kgrad(x, gy, kh, kw, pad, dt):
    """[O, C, kh, kw] view: one GEMM of a tap-stacked cotangent [kh*kw*O,
    N*Hp*Wp], rows (i, j, o), by the transposed zero-padded input laid out
    channel-major, [C, N*Hp*Wp]. Block (i, j) of the cotangent buffer holds
    gy at rows i..i+Ho and columns j..j+Wo of each padded image and zeros
    elsewhere, so its product with x sums gy against x shifted by that tap."""
    n, c, h, w = x.shape
    o, ho, wo = gy.shape[1:]
    hp, wp = h + 2 * pad, w + 2 * pad
    xbuf = np.zeros((c, n, hp, wp), dtype=dt)
    xbuf[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    gbuf = np.zeros((kh, kw, o, n, hp, wp), dtype=dt)
    g = gy.transpose(1, 0, 2, 3)
    for i in range(kh):
        for j in range(kw):
            gbuf[i, j, :, :, i:i + ho, j:j + wo] = g
    dk = gbuf.reshape(kh * kw * o, n * hp * wp) @ xbuf.reshape(c, n * hp * wp).T
    return dk.reshape(kh, kw, o, c).transpose(2, 3, 0, 1)


def _k_conv2d_kgrad(vals, ctx):
    """Kernel gradient, one GEMM over every output position on the layout
    the conv's forward takes (see above): chunking its row reduction would
    change the summation order. The two layouts sum those positions in
    different orders: over 16,200-20,000 positions they differed by up to
    4e-14 of the largest entry in float64, 8e-6 in float32."""
    x, gy = vals
    n, o, ho, wo = gy.shape
    kh, kw = x.shape[2] + 2 * ctx - ho + 1, x.shape[3] + 2 * ctx - wo + 1
    kgrad = _taps_kgrad if _takes_taps(x.shape[1], o) else _im2col_kgrad
    return np.ascontiguousarray(kgrad(x, gy, kh, kw, ctx, np.result_type(x, gy)))


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


_FORWARD = {
    "add": lambda v, c: v[0] + v[1],
    "sub": lambda v, c: v[0] - v[1],
    "mul": lambda v, c: v[0] * v[1],
    "div": lambda v, c: v[0] / v[1],
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
}


# ---------------------------------------------------------------------------
# Primitive ops (record on the operands' tape)
# ---------------------------------------------------------------------------

def add(a, b):
    _check_same_shape(a, b, "add")
    return a.tape._record("add", (a, b))


def sub(a, b):
    _check_same_shape(a, b, "sub")
    return a.tape._record("sub", (a, b))


def mul(a, b):
    _check_same_shape(a, b, "mul")
    return a.tape._record("mul", (a, b))


def div(a, b):
    _check_same_shape(a, b, "div")
    return a.tape._record("div", (a, b))


def scale(a, c):
    return a.tape._record("scale", (a,), float(c))


def add_const(a, c):
    return a.tape._record("add_const", (a,), float(c))


def relu(x):
    """Elementwise max(0, x); subgradient at exactly 0 is 0."""
    return x.tape._record("relu", (x,))


def maximum(a, b):
    _check_same_shape(a, b, "maximum")
    return a.tape._record("maximum", (a, b))


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
    return a.tape._record("matmul", (a, b))


def rows_scale(a, v):
    """out[n, ...] = a[n, ...] * v[n]."""
    if v.value.ndim != 1 or a.value.shape[0] != v.value.shape[0]:
        raise ShapeError("rows_scale: leading dims disagree")
    return a.tape._record("rows_scale", (a, v))


def dot_rows(a, b):
    """Per-row inner product: [N, ...] x [N, ...] -> [N]."""
    _check_same_shape(a, b, "dot_rows")
    return a.tape._record("dot_rows", (a, b))


def _conv2d_raw(x, k, pad):
    return x.tape._record("conv2d", (x, k), int(pad))


def _conv2d_kgrad(x, gy, pad):
    return x.tape._record("conv2d_kgrad", (x, gy), int(pad))


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


# ---------------------------------------------------------------------------
# Composite ops; every input carries a leading batch axis
# ---------------------------------------------------------------------------

def conv2d(x, kernel, bias, padding):
    """2-D cross-correlation plus per-channel bias, stride 1.

    x is [N,C,H,W]; kernel [C_out,C_in,k,k]; bias [C_out].
    With padding = (k-1)/2 the spatial size is preserved. One node: the
    bias is the conv's third parent, added by its kernel.
    """
    if x.value.ndim != 4 or kernel.value.ndim != 4:
        raise ShapeError("conv2d expects image [N,C,H,W] and kernel [O,C,k,k]")
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
    return x.tape._record("conv2d", (x, kernel, bias), pad)


def dense(x, w, b):
    """Affine map W x + b per row. x is [N,n]; w [m,n]; b [m]."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]:
        raise ShapeError(f"dense: x {x.value.shape} vs W {w.value.shape}")
    if b.value.shape != (w.value.shape[0],):
        raise ShapeError("dense: bias length must match output dim")
    y = matmul(x, transpose2d(w))
    return add(y, _bcast(b, y.value.shape, (0,)))


def cross_entropy_rows(logits, labels):
    """Per-sample softmax cross-entropy: [N,K] x [N] -> [N]. The true-class
    logit is picked as the row's inner product with a one-hot leaf."""
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.value
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise ShapeError("cross_entropy_rows expects [N, K] logits and [N] labels")
    if labels.min() < 0 or labels.max() >= z.shape[1]:
        raise DomainError("cross_entropy_rows: label out of range")
    one_hot = logits.tape.leaf(np.eye(z.shape[1], dtype=z.dtype)[labels])
    return sub(logsumexp_rows(logits), dot_rows(logits, one_hot))


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
    return _pick(node, need, lambda: g, lambda: scale(g, -1.0))


def _bwd_mul(tape, node, ni, g, need):
    a, b = _pvar(tape, node, 0), _pvar(tape, node, 1)
    return _pick(node, need, lambda: mul(g, b), lambda: mul(g, a))


def _bwd_div(tape, node, ni, g, need):
    b, out = _pvar(tape, node, 1), Var(tape, ni)
    return _pick(node, need, lambda: div(g, b), lambda: scale(mul(g, div(out, b)), -1.0))


def _bwd_scale(tape, node, ni, g, need):
    return _pick(node, need, lambda: scale(g, node.ctx))


def _bwd_add_const(tape, node, ni, g, need):
    return _pick(node, need, lambda: g)


def _bwd_relu(tape, node, ni, g, need):
    x = tape.nodes[node.parents[0]].value
    return _pick(node, need, lambda: mul(g, tape._mask(x > 0)))


def _bwd_maximum(tape, node, ni, g, need):
    a = tape.nodes[node.parents[0]].value
    b = tape.nodes[node.parents[1]].value
    take_a = a >= b
    return _pick(node, need, lambda: mul(g, tape._mask(take_a)),
                 lambda: mul(g, tape._mask(~take_a)))


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
    # the bias gradient is recorded before the data and kernel gradients: a
    # vjp through this backward sums its contributions in that order, which
    # keeps second-order gradients bitwise equal to earlier releases
    db = _sum(g, (0, 2, 3)) if len(need) == 3 and need[2] else None
    return _pick(node, need, lambda: _conv2d_raw(g, _swap_flip(k), kh - 1 - pad),
                 lambda: _conv2d_kgrad(x, g, pad), lambda: db)


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


_BACKWARD = {
    "add": _bwd_add, "sub": _bwd_sub, "mul": _bwd_mul, "div": _bwd_div,
    "scale": _bwd_scale, "add_const": _bwd_add_const,
    "relu": _bwd_relu, "maximum": _bwd_maximum,
    "sum": _bwd_sum, "bcast": _bwd_bcast, "sqrt": _bwd_sqrt,
    "reshape": _bwd_reshape, "transpose2d": _bwd_transpose2d,
    "matmul": _bwd_matmul,
    "rows_scale": _bwd_rows_scale, "dot_rows": _bwd_dot_rows,
    "conv2d": _bwd_conv2d, "conv2d_kgrad": _bwd_conv2d_kgrad,
    "swap_flip": _bwd_swap_flip,
    "logsumexp_rows": _bwd_logsumexp_rows, "softmax_rows": _bwd_softmax_rows,
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

    # one downward sweep; a node gets an adjoint only through needed parents
    adjoint = {out_i: cot}
    for i in range(out_i, -1, -1):
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
