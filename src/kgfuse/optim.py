"""AdamW with decoupled weight decay.

Moments update with bias correction as usual; decay is applied directly to
the weights rather than through the gradient, so with zero gradients a
parameter shrinks by exactly (1 - lr * weight_decay) per step.  One step is a
handful of numpy passes over flat buffers laid out as
:meth:`Parameters.flat`, each element taking the same operations, in the
same order, as a per-tensor update would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .tensor import Parameters, Tensor


@dataclass
class AdamState:
    """Moments laid out as :meth:`Parameters.flat`: ``m[name]`` and
    ``v[name]`` are views into ``m_flat`` and ``v_flat``, so they are
    written in place, never rebound."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: Parameters) -> "AdamState":
        m_flat, v_flat = np.zeros(params.flat_size()), np.zeros(params.flat_size())
        return cls(m_flat, v_flat, params.views(m_flat), params.views(v_flat))


def _flat_gradient(params: Parameters, grads: dict[Tensor, np.ndarray]) -> np.ndarray:
    """``grads`` laid out as :meth:`Parameters.flat`, zero for a parameter
    without one.  Raises for the first parameter, in order, whose gradient
    is non-finite or of the wrong shape; within one, non-finite first."""
    found = [(name, tensor, grads.get(tensor)) for name, tensor in params.items()]
    flat = None
    if all(grad is None or grad.shape == tensor.shape for _, tensor, grad in found):
        # The leading empty array lets a store without parameters concatenate.
        flat = np.concatenate([np.zeros(0)] + [
            np.zeros(tensor.size) if grad is None else grad.reshape(-1)
            for _, tensor, grad in found])
    if flat is None or not np.isfinite(flat).all():
        for name, tensor, grad in found:
            if grad is None:
                continue
            if not np.isfinite(grad).all():
                raise NumericsError(f"non-finite gradient for parameter {name!r}")
            if grad.shape != tensor.shape:
                raise ValidationError(
                    f"gradient shape {grad.shape} does not match {name!r} {tensor.shape}")
    return flat


def optimizer_step(params: Parameters, grads: dict[Tensor, np.ndarray],
                   state: AdamState, lr: float, weight_decay: float,
                   betas: tuple[float, float] = (0.9, 0.999),
                   eps: float = 1e-8) -> None:
    """One in-place AdamW update; parameters without a gradient still decay.

    Every gradient is checked before anything is written, so a step that
    raises leaves the parameters and ``state`` as they were.
    """
    # Config's rules, checked first and written so that a NaN fails each.
    if not (0 < lr < np.inf and 0 < eps < np.inf and 0 <= weight_decay < np.inf
            and all(0 <= beta < 1 for beta in betas)):
        raise ValidationError(f"lr {lr} and eps {eps} must be finite and > 0, weight_decay "
                              f"{weight_decay} finite and >= 0, betas {betas} in [0,1)")
    grad = _flat_gradient(params, grads)
    data = params.flat()
    m, v = state.m_flat, state.v_flat
    if m.shape != data.shape or v.shape != data.shape:
        raise ValidationError("optimizer state does not match the parameters")
    beta1, beta2 = betas
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    scratch = np.empty_like(grad)
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=scratch)
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=scratch)
    v += np.multiply(scratch, grad, out=scratch)
    # update = (m / bc1) / (sqrt(v / bc2) + eps), written over grad.
    denom = np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
    denom += eps
    update = np.divide(m, bc1, out=grad)
    update /= denom
    # data -= lr * (update + weight_decay * data)
    step = np.multiply(data, weight_decay, out=scratch)
    step += update
    step *= lr
    data -= step
