"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and an exact vector-Jacobian product, so
a single :func:`backward` call on a scalar loss yields gradients for all
leaf tensors that were created with ``requires_grad=True``.  All math runs
in 64-bit floats.

The module also provides :class:`Parameters` (a named, ordered collection of
trainable leaves with a flat scalar enumeration), :func:`no_grad` (a mode
in which operations record no graph) and :func:`finite_difference_check`,
the independent gradient oracle used throughout the test suite.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericsError, ValidationError

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# Creation order of every tensor: a node is always made after its inputs.
_next_seq = itertools.count().__next__

# False inside no_grad(): operations then record no parents and no VJP.
_grad_enabled = True


@contextmanager
def no_grad():
    """Run operations without recording a graph, as ``torch.no_grad`` does.

    A node made inside has ``requires_grad`` False, no parents and no VJP,
    and its value is bitwise the one grad mode computes, so an evaluation
    that only needs a value keeps no activations alive.  Blocks nest; each
    restores the mode it found, also when it exits by an exception.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    """False inside :func:`no_grad`."""
    return _grad_enabled


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop.

    Leaf tensors hold data directly; tensors produced by operations keep
    references to their inputs and a closure computing the vector-Jacobian
    product.  Tensors are treated as immutable once built into a graph;
    parameter updates mutate ``data`` in place only between training steps,
    after the previous graph has been consumed.
    """

    __slots__ = ("data", "requires_grad", "op", "_seq", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        data = np.array(values, dtype=np.float64)
        if not np.isfinite(data).all():
            raise ValidationError("leaf tensor rejected: contains NaN or Inf")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._seq = _next_seq()
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple] | None = None

    @classmethod
    def _result(cls, data: Array, parents: tuple["Tensor", ...],
                vjp: Callable[[Array], tuple], op: str) -> "Tensor":
        data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(data).all():
            # Overflow and domain errors surface here as a typed error
            # naming the primitive; numpy warnings stay suppressed.
            raise NumericsError(f"non-finite values produced by primitive '{op}'")
        out = cls.__new__(cls)
        out.data = data
        out.op = op
        out._seq = _next_seq()
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        else:
            # Constant subgraphs, and every node made under no_grad, are
            # pruned so backward never visits them.
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    # ---- basic introspection -------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValidationError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- indexing --------------------------------------------------------

    def __getitem__(self, key):
        return narrow(self, key)


def as_tensor(value) -> Tensor:
    """Wrap scalars / arrays as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


constant = as_tensor  # a non-trainable tensor, named for readability


# ---- broadcasting helper -------------------------------------------------


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---- elementwise arithmetic ----------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._result(data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor._result(data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor._result(data, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor._result(data, (a, b), vjp, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._result(-a.data, (a,), lambda g: (-g,), "neg")


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = as_tensor(a)
    p = float(exponent)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        data = a.data ** p

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

    return Tensor._result(data, (a,), vjp, "power")


# ---- linear algebra --------------------------------------------------------


def _mT(a: Array) -> Array:
    """The last two axes of ``a`` swapped, as a view."""
    return np.swapaxes(a, -1, -2)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValidationError(
            f"matmul expects operands with 2 or more axes, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValidationError(f"matmul shapes do not conform: {a.shape} @ {b.shape}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            data = a.data @ b.data
    except ValueError:
        raise ValidationError(
            f"matmul leading axes do not broadcast: {a.shape} @ {b.shape}") from None

    def vjp(g):
        return _unbroadcast(g @ _mT(b.data), a.shape), _unbroadcast(_mT(a.data) @ g, b.shape)

    return Tensor._result(data, (a, b), vjp, "matmul")


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise ValidationError(f"transpose expects 2 or more axes, got shape {a.shape}")
    return Tensor._result(_mT(a.data).copy(), (a,), lambda g: (_mT(g),), "transpose")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(tuple(int(s) for s in shape)).copy()
    return Tensor._result(data, (a,), lambda g: (g.reshape(a.shape),), "reshape")


# ---- reductions ------------------------------------------------------------


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, tuple(range(a.ndim)) if axis is None else axis)
        # A read-only view: VJPs only read the gradient they are given.
        return (np.broadcast_to(g, a.shape),)

    return Tensor._result(data, (a,), vjp, "sum")


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = range(a.ndim) if axis is None else (axis,) if isinstance(axis, int) else axis
    count = math.prod(a.shape[ax] for ax in axes)
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def dot(a, b) -> Tensor:
    """Inner product of two same-shape tensors."""
    return tensor_sum(mul(a, b))


# ---- transcendental primitives ---------------------------------------------


def _log_sigmoid(x: Array):
    """log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|)) of an array: the value
    and the VJP that maps an output gradient g to g * sigmoid(-x).  The
    single canonical formula.

    Branch-free: the forward and sigmoid(-x) = exp(min(-x, 0)) /
    (1 + exp(-|x|)) need no masks.  The VJP recomputes exp(-|x|) rather than
    keep it alive until backward.
    """
    data = np.log1p(np.exp(-np.abs(x)))
    data -= np.minimum(x, 0.0)
    np.negative(data, out=data)

    def vjp(g):
        sig = np.exp(np.minimum(-x, 0.0))
        sig /= 1.0 + np.exp(-np.abs(x))
        return g * sig

    return data, vjp


def _gelu(x: Array):
    """GELU, tanh approximation, of an array: the value and the VJP that maps
    an output gradient to the input's.  The single canonical formula."""
    # The cubic in Horner form: ``x ** 3`` would send every negative entry
    # to libm's scalar pow, which is far slower than two multiplies.
    x2 = x * x
    inner = _GELU_C * x * (1.0 + _GELU_A * x2)
    t = np.tanh(inner)

    def vjp(g):
        # Past |x| = 1e150, 1 - t*t is 0 and x*x may be inf; the cap keeps
        # their product 0 rather than NaN and changes nothing below it.
        dinner = np.minimum(x2, 1e300)
        dinner *= 3.0 * _GELU_A
        dinner += 1.0
        dinner *= _GELU_C
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)

    return 0.5 * x * (1.0 + t), vjp


def gelu(a) -> Tensor:
    """GELU as its own node; :func:`transformer_block` applies the same formula."""
    a = as_tensor(a)
    with np.errstate(over="ignore"):   # x * x may overflow; the value stays finite
        data, vjp = _gelu(a.data)
    return Tensor._result(data, (a,), lambda g: (vjp(g),), "gelu")


# ---- softmax family ---------------------------------------------------------


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    if not (-a.ndim <= axis < a.ndim):
        raise ValidationError(f"log_softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def vjp(g):
        # The softmax is built here, so a no-grad pass never pays for it.
        return (g - np.exp(data) * g.sum(axis=axis, keepdims=True),)

    return Tensor._result(data, (a,), vjp, "log_softmax")


# ---- gather / scatter -------------------------------------------------------


def _scatter_add(cells: np.ndarray, values: np.ndarray, shape) -> np.ndarray:
    """Sum ``values`` into a zero array of ``shape`` at flat ``cells``.

    ``np.bincount`` adds into each cell in index order starting from 0.0,
    as ``np.add.at`` does, so the two agree bitwise.
    """
    size = int(np.prod(shape))
    return np.bincount(cells, weights=values.reshape(-1), minlength=size).reshape(shape)


def _scatter_rows(idx: np.ndarray, values: np.ndarray, shape) -> np.ndarray:
    """Sum row i of ``values`` into row ``idx[i]`` of a zero array of ``shape``."""
    width = math.prod(shape[1:])
    return _scatter_add((idx.reshape(-1, 1) * width + np.arange(width)).ravel(), values, shape)


def take_rows(a, indices) -> Tensor:
    """Select rows (axis 0) by an integer index array of any shape.

    Repeated indices accumulate gradient, which is what embedding lookups
    need.
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValidationError(
            f"take_rows index out of range for axis of length {a.shape[0]}")
    data = a.data[idx]

    return Tensor._result(data, (a,), lambda g: (_scatter_rows(idx, g, a.shape),), "take_rows")


def take_pairs(a, rows, cols) -> Tensor:
    """Select elements a[rows[i], cols[i]], returning a 1-D tensor."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if a.ndim != 2:
        raise ValidationError(f"take_pairs expects a 2-D tensor, got {a.shape}")
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValidationError("take_pairs expects matching 1-D row/col index arrays")
    if rows.size and (rows.min() < 0 or rows.max() >= a.shape[0]
                      or cols.min() < 0 or cols.max() >= a.shape[1]):
        raise ValidationError(f"take_pairs index out of range for shape {a.shape}")
    data = a.data[rows, cols]

    def vjp(g):
        return (_scatter_add(rows * a.shape[1] + cols, g, a.shape),)

    return Tensor._result(data, (a,), vjp, "take_pairs")


def _segment_runs(segments, count: int, values: Tensor) -> tuple[Array, Array]:
    """The segment id of each row of ``values``, which must be sorted runs of
    every id 0..count-1, and the row at which each run starts."""
    seg = np.asarray(segments, dtype=np.int64)
    if seg.ndim == 1 and seg.shape == values.shape[:1] and seg.size and seg[-1] == count - 1:
        step = np.diff(seg, prepend=-1)
        if np.all((step == 0) | (step == 1)):
            return seg, np.flatnonzero(step)
    raise ValidationError(f"segment ids must be sorted runs of every id 0..{count - 1}, "
                          f"one per row of values of shape {values.shape}")


def segment_softmax(values, segments, count: int) -> Tensor:
    """Softmax over the rows of each segment, the scatter-softmax of a
    destination-sorted edge list; each run's max is subtracted first."""
    v = as_tensor(values)
    seg, starts = _segment_runs(segments, count, v)
    e = np.exp(v.data - np.maximum.reduceat(v.data, starts)[seg])
    data = e / np.add.reduceat(e, starts)[seg]
    return Tensor._result(data, (v,), lambda g: (
        data * (g - np.add.reduceat(g * data, starts)[seg]),), "segment_softmax")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ValidationError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis))

    return Tensor._result(data, tuple(parts), vjp, "concat")


def narrow(a, key) -> Tensor:
    """Basic (int/slice) indexing; use take_rows for index arrays."""
    a = as_tensor(a)
    data = a.data[key]

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return Tensor._result(np.array(data), (a,), vjp, "narrow")


# ---- composite losses and normalizations ------------------------------------


def _layer_norm(x: Array, gain: Array, bias: Array, eps: float = 1e-5):
    """Normalize the last axis of ``x`` to zero mean / unit variance, then
    affine: the value and the VJP that maps an output gradient to those of
    ``(x, gain, bias)``.

    ``eps`` is added to the variance before the square root, so a constant
    row maps to exact zeros before the affine shift.  The forward takes the
    float steps of the composed mean / variance / power chain in its order,
    and the VJP is the closed form.
    """
    scale = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * scale
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * scale + eps) ** -0.5
    normed = centered * inv

    def vjp(g):
        gn = g * gain
        gx = inv * (gn - gn.mean(axis=-1, keepdims=True)
                    - normed * (gn * normed).mean(axis=-1, keepdims=True))
        return gx, _unbroadcast(g * normed, gain.shape), _unbroadcast(g, bias.shape)

    return normed * gain + bias, vjp


def _attention(x: Array, wq: Array, wk: Array, wv: Array, wo: Array, valid):
    """Multi-head attention over a (..., L, d) batch, summed over the M
    heads: the value and the VJP that maps an output gradient to those of
    ``(x, wq, wk, wv, wo)``.

    ``wq``, ``wk``, ``wv`` are (M, d, d/M) and ``wo`` (M, d/M, d): head m
    reads slice m of each, and its logits are scaled by 1/sqrt(d/M), the key
    width.  ``valid`` ((..., L) boolean, or None for all True) marks the keys
    a query may read: a False key's logit gets -1e30, which takes it out of
    every softmax.  The forward takes the float steps of the matmul / softmax
    chain in its order and keeps the weights P; the VJP's softmax step is the
    closed form dS = P * (dP - rowsum(dP * P)).
    """
    m, d, dh = wq.shape if wq.ndim == 3 else (-1, -1, -1)
    mask = None if valid is None else f"{np.shape(valid)} {np.asarray(valid).dtype}"
    if x.ndim < 2 or x.shape[-1] != d or {wk.shape, wv.shape} != {wq.shape} \
            or wo.shape != (m, dh, d) or mask not in (None, f"{x.shape[:-1]} bool"):
        raise ValidationError(f"attention shapes do not conform: x {x.shape}, wq {wq.shape}, "
                              f"wk {wk.shape}, wv {wv.shape}, wo {wo.shape}, "
                              f"boolean key mask (a layer's valid_mask) {mask}")
    scale = 1.0 / np.sqrt(dh)
    xh = x.reshape(x.shape[:-2] + (1,) + x.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        q, v = xh @ wq, xh @ wv
        kt = _mT(xh @ wk).copy()
        p = q @ kt
        p *= scale
    if valid is not None:
        p += np.where(valid, 0.0, -1e30)[..., None, None, :]
    if not np.isfinite(p).all():
        # Checked here, as a logit of -inf would vanish in the softmax.
        raise NumericsError("non-finite values produced by primitive "
                            "'transformer_block', in its attention logits")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = p @ v
        data = (mixed @ wo).sum(axis=-3)

    def vjp(g):
        g = g[..., None, :, :]
        gmixed = g @ _mT(wo)
        gs = gmixed @ _mT(v)
        gs -= (gmixed * mixed).sum(axis=-1, keepdims=True)   # rowsum(dP * P)
        gs *= p
        gs *= scale
        gq, gk, gv = gs @ _mT(kt), _mT(gs) @ q, _mT(p) @ gmixed
        gx = (gq @ _mT(wq) + gk @ _mT(wk) + gv @ _mT(wv)).sum(axis=-3)
        return (gx, *(_unbroadcast(_mT(xh) @ gw, wq.shape) for gw in (gq, gk, gv)),
                _unbroadcast(_mT(mixed) @ g, wo.shape))

    return data, vjp


def transformer_block(x, wq, wk, wv, wo, ln1_gain, ln1_bias, ff_w1, ff_b1, ff_w2, ff_b2,
                      ln2_gain, ln2_bias, valid) -> Tensor:
    """One transformer layer over a (..., L, d) batch:

        h   = LayerNorm1(x + attention(x)),
        out = LayerNorm2(h + gelu(h @ ff_w1 + ff_b1) @ ff_w2 + ff_b2),

    with the attention of :func:`_attention` (``valid`` is its key mask).

    One node.  The forward takes the float steps of the chain of attention,
    add, LayerNorm, matmul, add, GELU, matmul, add, add and LayerNorm nodes
    in that order, and the VJP adds each fan-in as :func:`backward` adds it
    in that chain: h's gradient is the residual's plus the feed-forward's,
    x's the residual's plus the attention's, and bias and gain gradients are
    summed over the leading axes as :func:`_unbroadcast` sums them.  So the
    value and every gradient are bitwise those of the chain.
    """
    inputs = tuple(as_tensor(t) for t in (x, wq, wk, wv, wo, ln1_gain, ln1_bias,
                                          ff_w1, ff_b1, ff_w2, ff_b2, ln2_gain, ln2_bias))
    x, wq, wk, wv, wo, g1, b1, w1, c1, w2, c2, g2, b2 = (t.data for t in inputs)
    d, f = (a.shape[-1] if a.ndim else 0 for a in (x, w1))
    shapes = [t.shape for t in inputs[5:]]
    if shapes != [(d,), (d,), (d, f), (f,), (f, d), (d,), (d,), (d,)]:
        raise ValidationError(f"transformer_block shapes do not conform to width {d}: "
                              "ln1_gain, ln1_bias, ff_w1, ff_b1, ff_w2, ff_b2, ln2_gain, "
                              f"ln2_bias are {shapes}")
    mixed, attention_vjp = _attention(x, wq, wk, wv, wo, valid)
    with np.errstate(over="ignore", invalid="ignore"):
        h, norm1_vjp = _layer_norm(x + mixed, g1, b1)
        hidden, gelu_vjp = _gelu(h @ w1 + c1)
        data, norm2_vjp = _layer_norm(h + (hidden @ w2 + c2), g2, b2)

    def vjp(g):
        gr2, gg2, gb2 = norm2_vjp(g)
        gpre = gelu_vjp(gr2 @ _mT(w2))
        gr1, gg1, gb1 = norm1_vjp(gr2 + gpre @ _mT(w1))
        gx, gwq, gwk, gwv, gwo = attention_vjp(gr1)
        return (gr1 + gx, gwq, gwk, gwv, gwo, gg1, gb1,
                _unbroadcast(_mT(h) @ gpre, w1.shape), _unbroadcast(gpre, c1.shape),
                _unbroadcast(_mT(hidden) @ gr2, w2.shape), _unbroadcast(gr2, c2.shape),
                gg2, gb2)

    return Tensor._result(data, inputs, vjp, "transformer_block")


def graph_attention_terms(inputs: Sequence[Tensor], edges):
    """Check :func:`graph_attention`'s inputs and run its forward up to the
    softmax.  Returns the row at which each destination's run starts; each
    edge's flat (destination, relation row) index into a (nodes, relation
    rows) table; the queries of the nodes and of the edges' destinations;
    the keys of the edges' sources and of the relation rows; and alpha."""
    x, table, wq, bq, wk, wm, bm, wn, bn = inputs
    k, d = x.shape if x.ndim == 2 else (0, 0)
    width = wq.shape[-1] if wq.ndim else 0
    shapes = [t.shape for t in inputs]
    if k == 0 or shapes[1:] != [table.shape[:1] + (d,), (d, width), (width,), (2 * d, width),
                                (2 * d, d), (d,), (d, d), (d,)]:
        raise ValidationError("graph_attention shapes do not conform: x, relation_table, "
                              f"f_q_w, f_q_b, f_k_w, f_m_w, f_m_b, f_n_w, f_n_b are {shapes}")
    dst, src, rel = (np.asarray(a, dtype=np.int64) for a in edges)
    dst, starts = _segment_runs(dst, k, dst)
    if {src.shape, rel.shape} != {dst.shape} or min(src.min(), rel.min()) < 0 \
            or src.max() >= k or rel.max() >= len(table.data):
        raise ValidationError("graph_attention edges: src must index rows of x and rel rows "
                              "of relation_table, one of each per dst")
    pair = dst * len(table.data) + rel
    with np.errstate(over="ignore", invalid="ignore"):
        # f_k reads [node | relation]: the nodes and the relation rows go
        # through its two halves, and the few relation rows' logit terms
        # are read from one (nodes, relation rows) product.
        q = x.data @ wq.data + bq.data
        queries = np.take(q, dst, axis=0)
        node_keys = np.take(x.data @ wk.data[:d], src, axis=0)
        rel_keys = table.data @ wk.data[d:]
        logits = np.einsum("ij,ij->i", queries, node_keys)
        logits += np.take(q @ rel_keys.T, pair)
        logits *= 1.0 / np.sqrt(width)
    if not np.isfinite(logits).all():
        raise NumericsError("non-finite values produced by primitive 'graph_attention'")
    alpha = np.exp(logits - np.maximum.reduceat(logits, starts)[dst])
    alpha /= np.add.reduceat(alpha, starts)[dst]
    return starts, pair, q, queries, node_keys, rel_keys, alpha


def graph_attention(x, table, wq, bq, wk, wm, bm, wn, bn, edges) -> Tensor:
    """One graph-attention layer with its residual over ``edges``, (dst, src,
    rel) index arrays sorted by dst in which every row of ``x`` has a run.
    Edge e = (i, j, r) carries the pair p_e = [x_j | table_r], and

        out_i = (sum_e alpha_e * (p_e @ wm + bm)) @ wn + bn + x_i,
        alpha_e = softmax over i's run of (x_i @ wq + bq) . (p_e @ wk) / sqrt(D),

    where D, the attention width, is the column count of ``wq``.

    One node.  The forward projects the nodes and the relation rows through
    each half of ``wk`` and ``wm`` before it gathers node terms per edge, so
    no (edges, 2d) pair is formed; relation-row terms go through (nodes,
    relation rows) tables, as the relation rows are few.  The VJP sums each
    edge's terms into its destination by runs, into its source by a
    scatter-add and into its relation row through those tables, and forms
    the weight gradients as small matmuls.
    """
    inputs = tuple(as_tensor(t) for t in (x, table, wq, bq, wk, wm, bm, wn, bn))
    x, table, wq, bq, wk, wm, bm, wn, bn = inputs
    dst, src, rel = edges = tuple(np.asarray(a, dtype=np.int64) for a in edges)
    starts, pair, q, queries, node_keys, rel_keys, alpha = graph_attention_terms(inputs, edges)
    (k, d), width, rows = x.shape, wq.shape[1], len(table.data)
    scale = 1.0 / np.sqrt(width)
    with np.errstate(over="ignore", invalid="ignore"):
        node_messages = np.take(x.data @ wm.data[:d], src, axis=0)
        rel_messages = table.data @ wm.data[d:] + bm.data
        # Each destination's total weight on each relation row.
        rel_alpha = _scatter_add(pair, alpha, (k, rows))
        aggregated = np.add.reduceat(node_messages * alpha[:, None], starts, axis=0)
        aggregated += rel_alpha @ rel_messages
        data = aggregated @ wn.data + bn.data + x.data

    def vjp(g):
        gagg = g @ wn.data.T
        gagg_e = np.take(gagg, dst, axis=0)
        gs = np.einsum("ij,ij->i", gagg_e, node_messages)           # d loss / d alpha
        gs += np.take(gagg @ rel_messages.T, pair)
        gs = (gs - np.add.reduceat(gs * alpha, starts)[dst]) * alpha * scale   # d / d (q . k)
        rel_gs = _scatter_add(pair, gs, (k, rows))
        gq = np.add.reduceat(node_keys * gs[:, None], starts, axis=0) + rel_gs @ rel_keys
        # The node-half key and message gradients side by side, so that one
        # scatter-add serves both.
        gterms = np.empty((len(dst), width + d))
        np.multiply(queries, gs[:, None], out=gterms[:, :width])
        np.multiply(gagg_e, alpha[:, None], out=gterms[:, width:])
        gnodes = _scatter_rows(src, gterms, (k, width + d))
        grels = np.concatenate([rel_gs.T @ q, rel_alpha.T @ gagg], axis=1)
        wkm = np.concatenate([wk.data, wm.data], axis=1)
        gwkm = np.concatenate([x.data.T @ gnodes, table.data.T @ grels])
        # bm joined each relation row's message, so its gradient sums theirs.
        return (g + gq @ wq.data.T + gnodes @ wkm[:d].T, grels @ wkm[d:].T, x.data.T @ gq,
                gq.sum(axis=0), gwkm[:, :width], gwkm[:, width:], grels[:, width:].sum(axis=0),
                aggregated.T @ g, g.sum(axis=0))

    return Tensor._result(data, inputs, vjp, "graph_attention")


def distmult_scores(entities: Array, relations: Array, end_rows: Array,
                    relation_rows: Array) -> tuple[Array, Array]:
    """DistMult (Yang et al., 2015) of both endpoint queries of P triplets
    against every row of ``entities``: the (P, 2, d) queries, where query
    ``[p, 0]`` is head * relation (it scores tails) and ``[p, 1]`` is
    tail * relation (it scores heads), and the (2P, rows) scores of the
    queries in that order.  ``end_rows`` is (P, 2) and ``relation_rows``
    (P, 1), rows of the two tables.  The one DistMult scorer: training and
    ranking both score through it."""
    # BLAS rounds a product with a transposed view otherwise than with a
    # contiguous copy, and every product here is the chain's, layouts too.
    with np.errstate(over="ignore", invalid="ignore"):
        queries = entities[end_rows] * relations[relation_rows]
        return queries, queries.reshape(2 * len(end_rows), -1) @ np.ascontiguousarray(entities.T)


def distmult_sampling_loss(entity_matrix, relation_matrix, end_rows, relation_rows,
                           candidate_rows, coins, gamma: float) -> Tensor:
    """The negative-sampling loss of P positives with n corruptions each,
    over the :func:`distmult_scores` of their ``(P, 2)`` ``end_rows`` and
    ``(P,)`` ``relation_rows``:

        mean_p ( -log sigmoid(s[p, 0] + gamma)
                 + mean_j -log sigmoid(-(s[p, j] + gamma)) ),  j = 1..n.

    s[p, 0] scores the tail under head * relation.  Corruption j replaces
    the head if ``coins[p, j - 1]`` is 1, else the tail, and s[p, j] scores
    its row ``candidate_rows[p, j - 1]`` under the query of the kept end.

    One node.  The forward takes the float steps of the chain of two
    take_rows, mul, reshape, transpose and matmul nodes and the grid's
    take_pairs, add, log-sigmoid, neg and mean nodes, in that order; the
    closed-form VJP sums the entity gradient's product part and gather part
    in the order ``backward`` summed the chain's, so value and gradients
    are bitwise the chain's.  A non-finite query or read score raises; an
    unread score reaches neither value nor gradients.
    """
    entity_matrix, relation_matrix = as_tensor(entity_matrix), as_tensor(relation_matrix)
    ends = np.asarray(end_rows, dtype=np.int64)
    rel = np.asarray(relation_rows, dtype=np.int64).reshape(-1, 1)
    candidates = np.asarray(candidate_rows, dtype=np.int64)
    coins = np.asarray(coins, dtype=np.int64)
    p, n = candidates.shape if candidates.ndim == 2 else (0, 0)
    if entity_matrix.ndim != 2 or relation_matrix.shape[1:] != entity_matrix.shape[1:] \
            or ends.shape != (p, 2) or rel.shape != (p, 1) or coins.shape != (p, n) or not p * n:
        raise ValidationError(
            f"distmult_sampling_loss expects (rows, d) tables, (P, 2) end rows, P relation "
            f"rows and (P, n) candidates and coins, P, n >= 1; got {entity_matrix.shape}, "
            f"{relation_matrix.shape}, {ends.shape}, {rel.shape}, {candidates.shape}, "
            f"{coins.shape}")
    n_rows = entity_matrix.shape[0]
    if min(ends.min(), candidates.min(), rel.min(), coins.min()) < 0 \
            or max(ends.max(), candidates.max()) >= n_rows \
            or rel.max() >= relation_matrix.shape[0] or coins.max() > 1:
        raise ValidationError(
            f"distmult_sampling_loss index out of range for tables {entity_matrix.shape} "
            f"and {relation_matrix.shape}, or a coin not 0 or 1")
    table, relation = entity_matrix.data, relation_matrix.data
    queries, scores = distmult_scores(table, relation, ends, rel)
    if not np.isfinite(queries).all():
        raise NumericsError("non-finite values produced by primitive 'distmult_sampling_loss'")
    # The grid's flat cells in the scores: the positive is its tail under
    # query 2p, a corruption its candidate under query 2p + coin.
    cells = np.empty((p, 1 + n), dtype=np.int64)
    cells[:, 0] = ends[:, 1]
    np.multiply(coins, n_rows, out=cells[:, 1:])
    cells[:, 1:] += candidates
    cells += (2 * n_rows) * np.arange(p)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        x = scores.take(cells)
        x += gamma
        if not np.isfinite(x).all():
            raise NumericsError(
                "non-finite values produced by primitive 'distmult_sampling_loss'")
        np.negative(x[:, 1:], out=x[:, 1:])
        terms, log_sigmoid_vjp = _log_sigmoid(x)
        np.negative(terms, out=terms)
        data = (terms[:, 0] + terms[:, 1:].sum(axis=1) * (1.0 / n)).sum() * (1.0 / p)

    def vjp(g):
        # The mean's gradient per positive; its negatives share it 1/n each.
        share = g * (1.0 / p)
        weights = np.empty((p, 1 + n))
        weights[:, 0] = -share
        weights[:, 1:] = share * (1.0 / n)
        g_scores = _scatter_add(cells.ravel(), log_sigmoid_vjp(weights),
                                (2 * p, n_rows))
        g_queries = (g_scores @ np.asfortranarray(table)).reshape(queries.shape)
        product = (queries.reshape(2 * p, -1).T @ g_scores).T
        # The gathers are redone rather than kept alive until backward.
        factor = relation[rel]
        gathered = _scatter_rows(ends, g_queries * factor, table.shape)
        g_factor = np.multiply(g_queries, table[ends], out=g_queries).sum(axis=1, keepdims=True)
        return product + gathered, _scatter_rows(rel, g_factor, relation.shape)

    return Tensor._result(data, (entity_matrix, relation_matrix), vjp,
                          "distmult_sampling_loss")


def mse(pred, target) -> Tensor:
    """Mean squared error over every element."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ValidationError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = sub(pred, target)
    return tensor_mean(mul(diff, diff))


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValidationError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValidationError(
            f"cross_entropy rows ({logits.shape[0]}) and targets ({targets.shape}) mismatch")
    if logits.shape[0] == 0:
        raise ValidationError("cross_entropy on zero rows")
    picked = take_pairs(log_softmax(logits, axis=1),
                        np.arange(logits.shape[0]), targets)
    return neg(tensor_mean(picked))


def l2_normalize_rows(x, eps: float = 1e-12) -> Tensor:
    """Scale each row of a 2-D tensor to unit L2 norm."""
    x = as_tensor(x)
    sq = tensor_sum(mul(x, x), axis=1, keepdims=True)
    return mul(x, power(add(sq, eps), -0.5))


# ---- backward pass -----------------------------------------------------------


def _consumed(g):
    raise ValidationError("backward reached a node whose graph an earlier backward consumed")


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Reverse-mode sweep from a scalar loss.

    Returns a mapping from each ``requires_grad`` leaf tensor reached from
    ``loss`` to its gradient array (same shape as the leaf).  Nodes are
    visited in descending creation order, which runs a node's VJP only after
    every node that consumes it; fan-out contributions accumulate by
    summation in that order.  The sweep consumes the graph: once a node's VJP
    has run, the node drops its inputs and VJP, so each activation is freed
    as soon as nothing upstream needs it, and a later sweep that reaches a
    consumed node raises :class:`ValidationError`.
    """
    if not isinstance(loss, Tensor):
        raise ValidationError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValidationError(f"backward expects a scalar loss, got shape {loss.shape}")

    # A max-heap on creation order.  ``grads`` is the only visited set; as
    # each VJP runs its node's entry is dropped, so only leaves' remain.
    grads = {loss: np.ones_like(loss.data)} if loss.requires_grad else {}
    heap = [(-loss._seq, loss)]
    while heap:
        node = heapq.heappop(heap)[1]
        if node._vjp is None:
            continue
        parent_grads = node._vjp(grads.pop(node))
        for parent, pg in zip(node._parents, parent_grads):
            if not parent.requires_grad:
                continue
            acc = grads.get(parent)
            if acc is None:
                grads[parent] = pg
                heapq.heappush(heap, (-parent._seq, parent))
            else:
                grads[parent] = acc + pg
        node._parents, node._vjp = (), _consumed
    return grads


# ---- parameter collections ----------------------------------------------------


class Parameters:
    """Ordered name -> leaf-tensor mapping with a flat scalar enumeration.

    The flat enumeration (insertion order, row-major within each tensor) is
    what the finite-difference harness samples from, what checkpoints
    serialize and how :meth:`flat` lays the data out for the optimizer.
    """

    def __init__(self):
        self._items: dict[str, Tensor] = {}
        self._flat: Array | None = None
        # Each tensor's name and first flat index, then the total; see locate.
        self._names: list[str] = []
        self._starts: list[int] = [0]

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._items:
            raise ValidationError(f"duplicate parameter name {name!r}")
        if not isinstance(tensor, Tensor):
            raise ValidationError(f"parameter {name!r} is not a Tensor")
        tensor.requires_grad = True
        self._items[name] = tensor
        self._names.append(name)
        self._starts.append(self._starts[-1] + tensor.size)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._items[name]
        except KeyError:
            raise ValidationError(f"unknown parameter {name!r}") from None

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        return list(self._items)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._items.items()

    def flat_size(self) -> int:
        return sum(t.size for t in self._items.values())

    def views(self, buffer: Array) -> dict[str, Array]:
        """``buffer``, laid out in the flat enumeration, as one view per name."""
        out, start = {}, 0
        for name, t in self._items.items():
            out[name] = buffer[start:start + t.size].reshape(t.shape)
            start += t.size
        return out

    def flat(self) -> Array:
        """Every parameter's data as one float64 buffer in the flat enumeration.

        Each tensor's ``data`` is a view into it, so an in-place update of the
        buffer updates every parameter.  The buffer is built on first use, and
        again if a parameter was added or had its ``data`` rebound since.
        """
        flat = self._flat
        if flat is None or any(t.data.base is not flat for t in self._items.values()):
            flat = np.empty(self.flat_size())
            for t, view in zip(self._items.values(), self.views(flat).values()):
                view[...] = t.data
                t.data = view
            self._flat = flat
        return flat

    def locate(self, flat_index: int) -> tuple[str, int]:
        """Map a flat scalar index to (parameter name, offset within it), by
        the sizes the parameters had when they were added."""
        if flat_index < 0:
            raise ValidationError("negative flat index")
        # The last tensor starting at or before the index; empty ones start
        # where the next does, so they are never it.
        i = bisect.bisect_right(self._starts, flat_index) - 1
        if i == len(self._items):
            raise ValidationError(f"flat index {flat_index} out of range")
        return self._names[i], flat_index - self._starts[i]

    def load_data(self, values: dict[str, Array]) -> None:
        """Copy ``values`` into the parameters' data in place; every value is
        checked before any is written."""
        missing = set(self._items) ^ set(values)
        if missing:
            raise ValidationError(f"parameter name mismatch on load: {sorted(missing)}")
        for name, t in self._items.items():
            if np.shape(values[name]) != t.data.shape:
                raise ValidationError(f"parameter {name!r} shape mismatch: "
                                      f"{np.shape(values[name])} vs {t.data.shape}")
        for name, t in self._items.items():
            t.data[...] = values[name]


def finite_difference_check(fn: Callable[[], Tensor], params: Parameters,
                            eps: float = 1e-4, sample_count: int = 200,
                            seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences.

    ``fn`` must be a pure function of the current parameter values that
    returns a scalar Tensor.  Its first call builds the graph for the
    analytic gradients; every perturbed call runs under :func:`no_grad`.
    For ``sample_count`` seeded random scalar coordinates we compute
    (f(theta+eps) - f(theta-eps)) / (2 eps) and return the maximum of
    |a - n| / max(|a|, |n|, 1e-8) over the sample.  A non-finite analytic
    gradient or relative error raises :class:`NumericsError` naming the
    coordinate.

    The coordinates are evaluated in ascending flat order, so consecutive
    perturbations mostly fall in the same parameter group: a ``fn`` that
    memoizes what a perturbation cannot reach, as ``model.compute_step``
    does on its plan, then still holds the unperturbed upstream outputs
    from the previous evaluation.  The maximum does not depend on the order.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    if sample_count < 1:
        raise ValidationError("sample_count must be >= 1")

    loss = fn()
    analytic = backward(loss)
    by_name = {name: analytic.get(t) for name, t in params.items()}

    total = params.flat_size()
    rng = np.random.default_rng(seed)
    count = min(sample_count, total)
    coords = np.sort(rng.choice(total, size=count, replace=False))

    worst = 0.0
    for flat_index in coords:
        name, offset = params.locate(int(flat_index))
        tensor = params[name]
        original = tensor.data.flat[offset]

        def _eval(value: float) -> float:
            tensor.data.flat[offset] = value
            try:
                with no_grad():
                    out = float(fn().data.reshape(()))
            except NumericsError as exc:
                raise NumericsError(
                    f"objective non-finite at perturbed parameter {name}[{offset}]: {exc}"
                ) from exc
            finally:
                tensor.data.flat[offset] = original
            if not math.isfinite(out):
                raise NumericsError(
                    f"objective non-finite at perturbed parameter {name}[{offset}]")
            return out

        f_plus = _eval(original + eps)
        f_minus = _eval(original - eps)

        numeric = (f_plus - f_minus) / (2.0 * eps)
        grad = by_name.get(name)
        analytic_value = 0.0 if grad is None else float(grad.flat[offset])
        rel = abs(analytic_value - numeric) / max(abs(analytic_value), abs(numeric), 1e-8)
        # max() keeps its first argument against a NaN, so test explicitly.
        if not math.isfinite(rel):
            raise NumericsError(f"gradient check non-finite at parameter {name}[{offset}]: "
                                f"analytic {analytic_value}, numeric {numeric}")
        worst = max(worst, rel)
    return worst
