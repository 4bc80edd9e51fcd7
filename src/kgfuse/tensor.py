"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and an exact vector-Jacobian product, so
a single :func:`backward` call on a scalar loss yields gradients for all
leaf tensors that were created with ``requires_grad=True``.  All math runs
in 64-bit floats; 32-bit storage is only ever used by the binary embedding
file format, never here.

The module also provides :class:`Parameters` (a named, ordered collection of
trainable leaves with a flat scalar enumeration) and
:func:`finite_difference_check`, the independent gradient oracle used
throughout the test suite.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericsError, ValidationError

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _check_finite_leaf(data: Array) -> None:
    if not np.all(np.isfinite(data)):
        raise ValidationError("leaf tensor rejected: contains NaN or Inf")


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop.

    Leaf tensors hold data directly; tensors produced by operations keep
    references to their inputs and a closure computing the vector-Jacobian
    product.  Tensors are treated as immutable once built into a graph;
    parameter updates mutate ``data`` in place only between training steps,
    after the previous graph has been consumed.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        data = np.array(values, dtype=np.float64)
        _check_finite_leaf(data)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple] | None = None

    @classmethod
    def _result(cls, data: Array, parents: tuple["Tensor", ...],
                vjp: Callable[[Array], tuple], op: str) -> "Tensor":
        data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(data)):
            # Overflow and domain errors surface here as a typed error
            # naming the primitive; numpy warnings stay suppressed.
            raise NumericsError(f"non-finite values produced by primitive '{op}'")
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.op = op
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

    # ---- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return narrow(self, key)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    """Wrap scalars / arrays as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def constant(value) -> Tensor:
    """A non-trainable tensor (alias of ``as_tensor`` for readability)."""
    return as_tensor(value)


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


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(f"matmul shapes do not conform: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor._result(data, (a, b), vjp, "matmul")


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValidationError(f"transpose expects a 2-D tensor, got shape {a.shape}")
    return Tensor._result(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return Tensor._result(data.copy(), (a,), vjp, "reshape")


# ---- reductions ------------------------------------------------------------


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is None:
            gg = g.reshape((1,) * a.ndim)
        elif keepdims:
            gg = g
        else:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return Tensor._result(data, (a,), vjp, "sum")


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def dot(a, b) -> Tensor:
    """Inner product of two same-shape tensors."""
    return tensor_sum(mul(a, b))


# ---- transcendental primitives ---------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return Tensor._result(data, (a,), lambda g: (g * data,), "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = np.log(a.data)
    return Tensor._result(data, (a,), lambda g: (g / a.data,), "log")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        data = np.sqrt(a.data)
    return Tensor._result(data, (a,), lambda g: (g * 0.5 / data,), "sqrt")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)
    return Tensor._result(data, (a,), lambda g: (g * (1.0 - data * data),), "tanh")


def _sigmoid_values(d: Array) -> Array:
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = _sigmoid_values(a.data)
    return Tensor._result(data, (a,), lambda g: (g * data * (1.0 - data),), "sigmoid")


def log_sigmoid(a) -> Tensor:
    """Numerically stable log(sigmoid(x)) via the softplus identity."""
    a = as_tensor(a)
    d = a.data
    softplus = np.log1p(np.exp(-np.abs(d)))
    data = np.where(d >= 0, -softplus, d - softplus)

    def vjp(g):
        return (g * _sigmoid_values(-d),)

    return Tensor._result(data, (a,), vjp, "log_sigmoid")


def gelu(a) -> Tensor:
    """GELU, tanh approximation; the single canonical formula used everywhere."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x ** 3)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * dgelu,)

    return Tensor._result(data, (a,), vjp, "gelu")


# ---- softmax family ---------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis`` (row max subtracted before exponentials)."""
    a = as_tensor(a)
    if not (-a.ndim <= axis < a.ndim):
        raise ValidationError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (data * (g - (g * data).sum(axis=axis, keepdims=True)),)

    return Tensor._result(data, (a,), vjp, "softmax")


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

    def vjp(g):
        width = int(np.prod(a.shape[1:]))
        cells = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        return (_scatter_add(cells, g, a.shape),)

    return Tensor._result(data, (a,), vjp, "take_rows")


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


def pairs_to_padded(values, rows, cols, shape: tuple[int, int], fill: float) -> Tensor:
    """Scatter a 1-D tensor into a fresh (rows x cols) matrix filled with ``fill``.

    Each (rows[i], cols[i]) destination must be unique.  Used to lay
    variable-length attention neighborhoods into a padded matrix so a row
    softmax can normalize them in one shot.
    """
    v = as_tensor(values)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if v.ndim != 1 or rows.shape != v.shape or cols.shape != v.shape:
        raise ValidationError("pairs_to_padded expects 1-D values and matching indices")
    data = np.full(shape, float(fill), dtype=np.float64)
    data[rows, cols] = v.data

    def vjp(g):
        return (g[rows, cols],)

    return Tensor._result(data, (v,), vjp, "pairs_to_padded")


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
    row maps to exact zeros before the affine shift.
    """
    x = as_tensor(x)
    mu = tensor_mean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tensor_mean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, eps), -0.5)
    return add(mul(mul(centered, inv), gain), bias)


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


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Reverse-mode sweep from a scalar loss.

    Returns a mapping from each ``requires_grad`` leaf tensor to its
    gradient array (same shape as the leaf) and also stores it on
    ``leaf.grad``.  Every graph node is visited exactly once, in reverse
    topological order; fan-out contributions accumulate by summation.
    """
    if not isinstance(loss, Tensor):
        raise ValidationError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValidationError(f"backward expects a scalar loss, got shape {loss.shape}")

    # Iterative post-order topological sort (graphs can exceed the Python
    # recursion limit at training scale).
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, Array] = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            node.grad = g
            leaf_grads[node] = g
    return leaf_grads


# ---- parameter collections ----------------------------------------------------


class Parameters:
    """Ordered name -> leaf-tensor mapping with a flat scalar enumeration.

    The flat enumeration (insertion order, row-major within each tensor) is
    what the finite-difference harness samples from and what checkpoints
    serialize.
    """

    def __init__(self):
        self._items: dict[str, Tensor] = {}

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

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        return list(self._items)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._items.items()

    def tensors(self) -> list[Tensor]:
        return list(self._items.values())

    def flat_size(self) -> int:
        return sum(t.size for t in self._items.values())

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

    def copy_data(self) -> dict[str, Array]:
        return {name: t.data.copy() for name, t in self._items.items()}

    def load_data(self, values: dict[str, Array]) -> None:
        missing = set(self._items) ^ set(values)
        if missing:
            raise ValidationError(f"parameter name mismatch on load: {sorted(missing)}")
        for name, t in self._items.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValidationError(
                    f"parameter {name!r} shape mismatch: {arr.shape} vs {t.data.shape}")
            t.data[...] = arr


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
                tensor.data.flat[offset] = original
                raise NumericsError(
                    f"objective non-finite at perturbed parameter {name}[{offset}]: {exc}"
                ) from exc
            if not math.isfinite(out):
                tensor.data.flat[offset] = original
                raise NumericsError(
                    f"objective non-finite at perturbed parameter {name}[{offset}]")
            return out

        f_plus = _eval(original + eps)
        f_minus = _eval(original - eps)
        tensor.data.flat[offset] = original

        numeric = (f_plus - f_minus) / (2.0 * eps)
        grad = by_name.get(name)
        analytic_value = 0.0 if grad is None else float(grad.flat[offset])
        rel = abs(analytic_value - numeric) / max(abs(analytic_value), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
