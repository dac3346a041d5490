"""Dense float64 arrays with reverse-mode automatic differentiation.

Every differentiable operation used by the models lives here as a small
numpy kernel with an explicit backward function. There is no taping DSL:
each op builds one graph node, `Tensor(value, parents, bwd)`, whose
closure knows how to push gradients to its parents. `backward()` keeps a
gradient only while it is live: an interior node's gradient exists from the
first closure that contributes to it until its own closure has run, and
afterwards only the leaves (weights, inputs) hold `.grad`. Each gradient is
written once: the first contribution is stored as it is and a later one is
added out of place (`_accumulate`), so there are no zero buffers, and one
array may be the gradient of two nodes at once. The sums are the same IEEE
adds in the same order as a zero buffer plus each contribution, so every bit
is the same, except that an element that is exactly zero may keep a negative
sign (a zero buffer gave 0.0 + -0.0 = +0.0). AdamW moments start at +0.0 and
absorb that sign, so no written output can see it.

Inside `with no_grad():` the same ops compute the same values, but a node
keeps neither its parents nor its closure, so the arrays a closure would
have captured are freed as soon as the op's last reader is done. The
forward-only paths run this way: `denoiser.predict_x0` (every reverse
diffusion step), `metrics.FeatureExtractor.features` and the perturbed
evaluations of `finite_diff_check`. `backward()` inside `no_grad` raises.

`finite_diff_check` verifies any scalar-reduced op against central
differences. `Params` names the weights of a model.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .errors import NumericalError, ShapeError

__all__ = [
    "Tensor",
    "tensor",
    "Params",
    "no_grad",
    "is_grad_enabled",
    "matmul",
    "concat",
    "reshape",
    "broadcast_to",
    "exp",
    "silu",
    "softplus",
    "relu",
    "softmax",
    "layer_norm",
    "scaled_dot_attention",
    "causal_depthwise_conv",
    "huber_loss",
    "l1_loss",
    "finite_diff_check",
]


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block; the previous mode returns on exit, also
    after an exception, so blocks nest. The mode is process-wide."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    """False inside `no_grad`."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accumulate(p: Tensor, contribution) -> None:
    """Give `p` one closure's contribution to its gradient: the first is stored
    as it is, a later one makes a new array `p.grad + contribution`. No stored
    gradient is written in place, so a contribution may be a view, or the
    very array that another node receives."""
    p.grad = contribution if p.grad is None else p.grad + contribution


def _writable(p: Tensor) -> np.ndarray:
    """A gradient buffer of `p` that a closure writing part of it may change in
    place: zeros, or a copy of the gradient so far. The closure stores it back
    as `p.grad` once it is done."""
    return np.zeros_like(p.value) if p.grad is None else p.grad.copy()


class Tensor:
    """A float64 array plus the gradient of a scalar loss.

    `value` is immutable by convention after construction. After
    `backward()` on a loss node, `grad` holds the gradient of each leaf
    tensor (weights, inputs: no parents) and is None on every interior
    node. A closure hands each parent its contribution through
    `_accumulate`; the two ops that write part of a gradient (`__getitem__`
    and `causal_depthwise_conv`) write into a `_writable` buffer. Under
    `no_grad` no tensor keeps any parents.
    """

    __slots__ = ("value", "grad", "_parents", "_bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if _grad_enabled:
            self._parents, self._bwd = parents, bwd
        else:
            self._parents, self._bwd = (), None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    # -- graph traversal ------------------------------------------------

    def _topo(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        return order

    def backward(self):
        """Set each reachable leaf's `.grad` to d(self)/d(leaf).

        Non-scalar outputs are seeded with ones (i.e. the gradient of
        their sum). Every reachable node's grad is cleared first, so
        repeated calls do not accumulate across steps. Closures run in
        reverse topological order; an interior node drops its grad once
        its own closure has run, so after the sweep only leaves hold
        `.grad`. A leaf's `.grad` may be the very array another leaf
        holds, or a read-only view: read it, never write into it.
        """
        if not _grad_enabled:
            raise RuntimeError("backward() inside autodiff.no_grad(): no graph was recorded")
        order = self._topo()
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._bwd is not None:
                node._bwd(node.grad)
                node.grad = None

    # -- operators ------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)

        def bwd(g):
            _accumulate(self, _unbroadcast(g, self.value.shape))
            _accumulate(other, _unbroadcast(g, other.value.shape))

        return Tensor(self.value + other.value, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.value, (self,), lambda g: _accumulate(self, -g))

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)

        def bwd(g):
            _accumulate(self, _unbroadcast(g * other.value, self.value.shape))
            _accumulate(other, _unbroadcast(g * self.value, other.value.shape))

        return Tensor(self.value * other.value, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / float(scalar))

    def __getitem__(self, key):
        def bwd(g):
            grad = _writable(self)
            if _is_basic_key(key):  # each element is hit at most once, so += is exact
                grad[key] += g
            else:  # an advanced key may repeat an index; add.at adds every hit
                np.add.at(grad, key, g)
            self.grad = grad

        return Tensor(self.value[key], (self,), bwd)

    def sum(self, axis=None):
        def bwd(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g, self.value.shape))

        return Tensor(self.value.sum(axis=axis), (self,), bwd)

    def mean(self, axis=None):
        n = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis) / n


def _is_basic_key(key) -> bool:
    """True for a key of ints and slices, which selects each element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, (int, np.integer, slice)) for k in parts)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def tensor(value) -> Tensor:
    """Leaf tensor from any array-like, copied to float64."""
    return Tensor(np.array(value, dtype=np.float64))


class Params:
    """Base for weight dataclasses. `named` keys every Tensor field, in field order, as
    `prefix.field`; nested `Params` recurse, and item i of the list `blocks` is `block<i>`."""

    def named(self, prefix: str = "") -> dict:
        key = lambda name: f"{prefix}.{name}" if prefix else name
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[key(f.name)] = value
            elif isinstance(value, Params):
                out.update(value.named(key(f.name)))
            elif f.name == "blocks":
                for i, block in enumerate(value):
                    out.update(block.named(key(f"block{i}")))
        return out


# -- linear algebra -----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.value.shape} x {b.value.shape}")

    def bwd(g):
        _accumulate(a, g @ b.value.T)
        # one row: the outer product, the same single products as a dgemm of inner size 1
        _accumulate(b, a.value.T * g if a.value.shape[0] == 1 else a.value.T @ g)

    return Tensor(a.value @ b.value, (a, b), bwd)


def concat(parts, axis=-1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.value.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            _accumulate(p, piece)

    return Tensor(np.concatenate([p.value for p in parts], axis=axis), tuple(parts), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    return Tensor(x.value.reshape(shape), (x,),
                  lambda g: _accumulate(x, g.reshape(x.value.shape)))


def broadcast_to(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    return Tensor(np.broadcast_to(x.value, shape).copy(), (x,),
                  lambda g: _accumulate(x, _unbroadcast(g, x.value.shape)))


# -- elementwise nonlinearities ----------------------------------------


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    e = np.exp(x.value)
    return Tensor(e, (x,), lambda g: _accumulate(x, g * e))


def silu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.value))
    return Tensor(x.value * s, (x,),
                  lambda g: _accumulate(x, g * (s + x.value * s * (1.0 - s))))


def softplus(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return Tensor(np.logaddexp(0.0, x.value), (x,),
                  lambda g: _accumulate(x, g / (1.0 + np.exp(-x.value))))


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return Tensor(np.maximum(x.value, 0.0), (x,),
                  lambda g: _accumulate(x, g * (x.value > 0.0)))


# -- rows/sequence primitives ------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.value - x.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(x, s * (g - inner))

    return Tensor(s, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row (x - mean) / sqrt(var + 1e-5) over the last axis, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.value.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty feature dimension")
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv

    def bwd(g):
        gxhat = g * gamma.value
        _accumulate(gamma, _unbroadcast(g * xhat, gamma.value.shape))
        _accumulate(beta, _unbroadcast(g, beta.value.shape))
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * (gxhat - m1 - xhat * m2))

    return Tensor(xhat * gamma.value + beta.value, (x, gamma, beta), bwd)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d)) v for 2-D inputs (length x features)."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if k.value.shape[0] == 0:  # the matmuls check the other shapes; softmax cannot
        raise ShapeError("attention with zero keys")
    d = q.value.shape[1]
    logits = matmul(q, transpose(k)) * (1.0 / np.sqrt(d))
    return matmul(softmax(logits), v)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return Tensor(x.value.T.copy(), (x,), lambda g: _accumulate(x, g.T))


def causal_depthwise_conv(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Per-channel causal convolution over axis 0.

    x: L x C, kernel: w x C (tap 0 is the current frame), bias: C.
    Output frame t only sees frames <= t (zero padding on the left).
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    L, C = x.value.shape
    w = kernel.value.shape[0]
    if kernel.value.shape[1] != C or bias.value.shape != (C,):
        raise ShapeError(f"conv weights {kernel.value.shape}/{bias.value.shape} mismatch C={C}")
    y = np.zeros_like(x.value)
    for j in range(min(w, L)):
        y[j:] += kernel.value[j] * x.value[:L - j]

    def bwd(g):
        _accumulate(bias, g.sum(axis=0))
        g_kernel, g_x = _writable(kernel), _writable(x)
        for j in range(min(w, L)):
            g_kernel[j] += (g[j:] * x.value[:L - j]).sum(axis=0)
            g_x[:L - j] += kernel.value[j] * g[j:]
        kernel.grad, x.grad = g_kernel, g_x

    return Tensor(y + bias.value, (x, kernel, bias), bwd)


# -- losses -------------------------------------------------------------


def huber_loss(diff: Tensor, delta: float = 1.0) -> Tensor:
    """Mean Huber penalty of an error tensor."""
    diff = _as_tensor(diff)
    d = diff.value
    absd = np.abs(d)
    quad = 0.5 * d * d
    lin = delta * (absd - 0.5 * delta)
    val = np.where(absd <= delta, quad, lin).mean()
    return Tensor(val, (diff,),
                  lambda g: _accumulate(diff, g * np.clip(d, -delta, delta) / d.size))


def l1_loss(diff: Tensor) -> Tensor:
    """Mean absolute value of an error tensor."""
    diff = _as_tensor(diff)
    return Tensor(np.abs(diff.value).mean(), (diff,),
                  lambda g: _accumulate(diff, g * np.sign(diff.value) / diff.value.size))


# -- verification -------------------------------------------------------


def finite_diff_check(op, point: np.ndarray, eps: float = 1e-5) -> float:
    """Compare the analytic gradient of sum(op(x)) against central differences.

    `op` maps a Tensor to a Tensor (any shape; reduced by summation).
    Returns max over coordinates of |analytic - numeric| / max(1, |numeric|).
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-6, 1e-3]")
    point = np.asarray(point, dtype=np.float64)
    x = tensor(point)
    out = op(x).sum()
    if not np.isfinite(out.value):
        raise NumericalError("non-finite value in forward pass")
    out.backward()
    analytic = x.grad.copy()

    def scalar_at(p):
        v = op(tensor(p)).value.sum()
        if not np.isfinite(v):
            raise NumericalError("non-finite value during finite differences")
        return v

    flat = point.ravel()
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            p = flat.copy()
            p[i] += eps
            hi = scalar_at(p.reshape(point.shape))
            p[i] -= 2 * eps
            lo = scalar_at(p.reshape(point.shape))
            numeric[i] = (hi - lo) / (2 * eps)
    numeric = numeric.reshape(point.shape)
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
