"""Dense float64 tensors with define-by-run reverse-mode differentiation.

The graph is rebuilt on every forward pass: each Tensor remembers the
tensors it was computed from and a closure that routes the incoming
gradient to them.  Everything is float64; non-finite losses or gradients
raise instead of propagating.
"""

import contextlib
import math

import numpy as np

from .errors import ContractError, NumericError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        # a leaf; `node` records where a computed tensor came from
        self._parents = ()
        self._backward = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, scalar):
        return mul(self, 1.0 / float(scalar))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def parameter(name, data):
    """A named trainable leaf."""
    return Tensor(data, requires_grad=True, name=name)


def constant(data):
    return Tensor(data, requires_grad=False)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum a gradient over the axes numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


_recording = True  # False inside `no_grad()`


@contextlib.contextmanager
def no_grad():
    """Record no graph: every op inside returns a constant."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def recorded(inputs):
    """The inputs an op on `inputs` would record a backward to: those that
    require grad, and none under `no_grad()`.  Empty means no backward."""
    return tuple(p for p in inputs if p.requires_grad) if _recording else ()


def node(data, parents, backward):
    """The one constructor of graph nodes.

    Records only the `recorded` parents, and attaches `backward` only when
    there is at least one; otherwise the result is a constant.  Every op
    builds its closure before calling this, so no closure can refer to the
    node it belongs to, and no node is a reference cycle.
    """
    parents = recorded(parents)
    out = Tensor(data, requires_grad=bool(parents))
    if parents:
        out._parents = parents
        out._backward = backward
    return out


# primitive operations ----------------------------------------------
# Each op ends in `return node(value, inputs, _bw)`.  A closure that
# needs the op's result captures the array, never the output Tensor.


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    def _bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))
    return node(a.data + b.data, (a, b), _bw)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    def _bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))
    return node(a.data * b.data, (a, b), _bw)


def matmul(x, w):
    """x [..., n] @ w [n, m]; the right operand must be 2-d."""
    x, w = _as_tensor(x), _as_tensor(w)
    if w.data.ndim != 2:
        raise ContractError(f"matmul right operand must be 2-d, got shape {w.data.shape}")
    def _bw(g):
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            n, m = w.data.shape
            w._accum(x.data.reshape(-1, n).T @ g.reshape(-1, m))
    return node(x.data @ w.data, (x, w), _bw)


def reshape(x, shape):
    x = _as_tensor(x)
    def _bw(g):
        x._accum(g.reshape(x.data.shape))
    return node(x.data.reshape(shape), (x,), _bw)


def getitem(x, key):
    """Slicing and integer-array gathers; backward scatter-adds."""
    x = _as_tensor(x)
    def _bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        x._accum(gx)
    return node(x.data[key], (x,), _bw)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    def _bw(g):
        offset = 0
        for t in tensors:
            s = t.data.shape[axis]
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + s)
                t._accum(g[tuple(idx)])
            offset += s
    return node(np.concatenate([t.data for t in tensors], axis=axis), tensors, _bw)


def tsum(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accum(np.broadcast_to(g, x.data.shape))
    return node(x.data.sum(axis=axis, keepdims=keepdims), (x,), _bw)


# reverse pass -------------------------------------------------------


def backward(loss):
    """Propagate d(loss)/d(node) through the recorded graph."""
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is not finite")
    # iterative topological order; per-step CRF graphs of long sentences
    # are too deep for recursion
    topo = []
    visited = set()
    work = [(loss, False)]
    while work:
        t, done = work.pop()
        if done:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        work.append((t, True))
        for p in t._parents:
            if id(p) not in visited:
                work.append((p, False))
    loss._accum(np.ones_like(loss.data))
    for t in reversed(topo):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def reverse_gradients(loss, params):
    """d(loss)/d(p) for every named parameter; zeros if unreachable.

    params: mapping name -> Tensor.  Grads are returned as plain arrays,
    the ones `_accum` built, and the parameters' .grad slots are cleared.
    """
    for p in params.values():
        p.grad = None
    backward(loss)
    grads = {}
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        grads[name] = g
        p.grad = None
    return grads


# initialization -----------------------------------------------------


def seeded_init(shape, seed):
    """Deterministic glorot-uniform init, bound sqrt(6/(fan_in+fan_out)).

    `seed` may be an int or a numpy Generator.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ContractError("seeded_init requires a nonempty shape")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    fan_in = shape[0]
    fan_out = shape[-1] if len(shape) > 1 else shape[0]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(table, seed):
    """Named trainable leaves for a parameter table of (name, shape, fill)
    rows, drawn in table order from one generator.  A fill of None is a
    glorot draw; any other fill is a constant broadcast to the shape."""
    rng = np.random.default_rng(seed)
    return {name: parameter(name, seeded_init(shape, rng) if fill is None
                            else np.full(shape, fill, dtype=np.float64))
            for name, shape, fill in table}


# optimizer ----------------------------------------------------------


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class Adam:
    """Standard Adam with bias correction, applied in place."""

    def __init__(self, lr=0.001):
        self.lr = lr
        self.step_count = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            if name not in grads:
                raise ContractError(f"no gradient for parameter {name!r}")
            g = grads[name]
            if g.shape != p.data.shape:
                raise ContractError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name!r} shape {p.data.shape}")
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def clip_by_global_norm(grads, max_norm):
    """Scale the whole gradient dict so its global L2 norm is <= max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        grads = {k: g * scale for k, g in grads.items()}
    return grads, total


# verification harness -----------------------------------------------


def finite_difference_check(loss_fn, params, eps=1e-5, max_coords=100, seed=0):
    """Max relative error between reverse-mode and central differences.

    loss_fn is a pure closure over `params` returning a scalar Tensor.
    At most `max_coords` coordinates are sampled per parameter.
    """
    analytic = reverse_gradients(loss_fn(), params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        an = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(loss_fn().data)
            flat[i] = orig - eps
            f_minus = float(loss_fn().data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            diff = abs(fd - an[i])
            # the floor keeps near-zero gradients (where central differences
            # are dominated by float64 roundoff, not by gradient error) from
            # inflating the relative measure
            scale = max(abs(fd), abs(an[i]), 1e-6)
            worst = max(worst, diff / scale)
    return worst
