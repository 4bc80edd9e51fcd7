"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and an exact vector-Jacobian product, so
a single :func:`backward` call on a scalar loss yields gradients for all
leaf tensors that were created with ``requires_grad=True``.  All math runs
in 64-bit floats.

The module also provides :class:`Parameters` (a named, ordered collection of
trainable leaves with a flat scalar enumeration) and
:func:`finite_difference_check`, the independent gradient oracle used
throughout the test suite.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericsError, ValidationError

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# Creation order of every tensor: a node is always made after its inputs.
_next_seq = itertools.count().__next__


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
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        else:
            # Constant subgraphs are pruned so backward never visits them.
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


def log_sigmoid(a) -> Tensor:
    """Numerically stable log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|)).

    Branch-free: the forward and the VJP, sigmoid(-x) = exp(min(-x, 0)) /
    (1 + exp(-|x|)), need no masks.  The VJP recomputes exp(-|x|) rather
    than keep it alive until backward.
    """
    a = as_tensor(a)
    d = a.data
    data = np.log1p(np.exp(-np.abs(d)))
    data -= np.minimum(d, 0.0)
    np.negative(data, out=data)

    def vjp(g):
        sig = np.exp(np.minimum(-d, 0.0))
        sig /= 1.0 + np.exp(-np.abs(d))
        return (g * sig,)

    return Tensor._result(data, (a,), vjp, "log_sigmoid")


def gelu(a) -> Tensor:
    """GELU, tanh approximation; the single canonical formula used everywhere."""
    a = as_tensor(a)
    x = a.data
    # The cubic in Horner form: ``x ** 3`` would send every negative entry
    # to libm's scalar pow, which is far slower than two multiplies.
    x2 = x * x
    inner = _GELU_C * x * (1.0 + _GELU_A * x2)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * dgelu,)

    return Tensor._result(data, (a,), vjp, "gelu")


# ---- softmax family ---------------------------------------------------------


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    if not (-a.ndim <= axis < a.ndim):
        raise ValidationError(f"log_softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    soft = np.exp(data)

    def vjp(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

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


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    ``eps`` is added to the variance before the square root, so a constant
    row maps to exact zeros before the affine shift.  One node: the forward
    takes the float steps of the composed mean / variance / power chain in
    its order, and the VJP is the closed form for ``(x, gain, bias)``.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * scale + eps) ** -0.5
    normed = centered * inv
    data = normed * gain.data + bias.data

    def vjp(g):
        gn = g * gain.data
        gx = inv * (gn - gn.mean(axis=-1, keepdims=True)
                    - normed * (gn * normed).mean(axis=-1, keepdims=True))
        return gx, _unbroadcast(g * normed, gain.shape), _unbroadcast(g, bias.shape)

    return Tensor._result(data, (x, gain, bias), vjp, "layer_norm")


def attention(x, wq, wk, wv, wo, valid) -> Tensor:
    """Multi-head attention over a (..., L, d) batch, summed over the M heads.

    ``wq``, ``wk``, ``wv`` are (M, d, d/M) and ``wo`` (M, d/M, d): head m
    reads slice m of each, and its logits are scaled by 1/sqrt(d/M), the key
    width.  ``valid`` ((..., L) boolean, or None for all True) marks the keys
    a query may read: a False key's logit gets -1e30, which takes it out of
    every softmax.  One node: the forward takes the float steps of the
    matmul / softmax chain in its order and keeps the weights P; the VJP's
    softmax step is the closed form dS = P * (dP - rowsum(dP * P)).
    """
    x, wq, wk, wv, wo = (as_tensor(t) for t in (x, wq, wk, wv, wo))
    m, d, dh = wq.shape if wq.ndim == 3 else (-1, -1, -1)
    mask = None if valid is None else f"{np.shape(valid)} {np.asarray(valid).dtype}"
    if x.ndim < 2 or x.shape[-1] != d or {wk.shape, wv.shape} != {wq.shape} \
            or wo.shape != (m, dh, d) or mask not in (None, f"{x.shape[:-1]} bool"):
        raise ValidationError(f"attention shapes do not conform: x {x.shape}, wq {wq.shape}, "
                              f"wk {wk.shape}, wv {wv.shape}, wo {wo.shape}, "
                              f"boolean key mask (a layer's valid_mask) {mask}")
    scale = 1.0 / np.sqrt(dh)
    xh = x.data.reshape(x.shape[:-2] + (1,) + x.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        q, v = xh @ wq.data, xh @ wv.data
        kt = _mT(xh @ wk.data).copy()
        p = q @ kt
        p *= scale
    if valid is not None:
        p += np.where(valid, 0.0, -1e30)[..., None, None, :]
    if not np.isfinite(p).all():
        raise NumericsError("non-finite values produced by primitive 'attention'")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = p @ v
        data = (mixed @ wo.data).sum(axis=-3)

    def vjp(g):
        g = g[..., None, :, :]
        gmixed = g @ _mT(wo.data)
        gs = gmixed @ _mT(v)
        gs -= (gmixed * mixed).sum(axis=-1, keepdims=True)   # rowsum(dP * P)
        gs *= p
        gs *= scale
        gq, gk, gv = gs @ _mT(kt), _mT(gs) @ q, _mT(p) @ gmixed
        gx = (gq @ _mT(wq.data) + gk @ _mT(wk.data) + gv @ _mT(wv.data)).sum(axis=-3)
        return (gx, *(_unbroadcast(_mT(xh) @ gw, wq.shape) for gw in (gq, gk, gv)),
                _unbroadcast(_mT(mixed) @ g, wo.shape))

    return Tensor._result(data, (x, wq, wk, wv, wo), vjp, "attention")


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

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._items:
            raise ValidationError(f"duplicate parameter name {name!r}")
        if not isinstance(tensor, Tensor):
            raise ValidationError(f"parameter {name!r} is not a Tensor")
        tensor.requires_grad = True
        self._items[name] = tensor
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
        """Map a flat scalar index to (parameter name, offset within it)."""
        if flat_index < 0:
            raise ValidationError("negative flat index")
        remaining = flat_index
        for name, t in self._items.items():
            if remaining < t.size:
                return name, remaining
            remaining -= t.size
        raise ValidationError(f"flat index {flat_index} out of range")

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
    returns a scalar Tensor.  For ``sample_count`` seeded random scalar
    coordinates we compute (f(theta+eps) - f(theta-eps)) / (2 eps) and
    return the maximum of |a - n| / max(|a|, |n|, 1e-8) over the sample.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if sample_count < 1:
        raise ValidationError("sample_count must be >= 1")

    loss = fn()
    analytic = backward(loss)
    by_name = {name: analytic.get(t) for name, t in params.items()}

    total = params.flat_size()
    rng = np.random.default_rng(seed)
    count = min(sample_count, total)
    coords = rng.choice(total, size=count, replace=False)

    worst = 0.0
    for flat_index in coords:
        name, offset = params.locate(int(flat_index))
        tensor = params[name]
        original = tensor.data.flat[offset]

        def _eval(value: float) -> float:
            tensor.data.flat[offset] = value
            try:
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
        worst = max(worst, rel)
    return worst
