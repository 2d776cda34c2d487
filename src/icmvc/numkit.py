"""Dense float64 matrix numerics with tape-based reverse-mode autodiff.

Every value is a 2-D ``numpy.float64`` array ("matrix"). A :class:`DiffNode`
wraps one matrix together with backward rules toward its parents. A node is
*active* when it is a trainable leaf (made by :func:`leaf`) or has an active
parent; constants (made by :func:`constant`, or raw arrays passed to an op)
are inactive. Calling :func:`backward` on a scalar (1x1) root differentiates
only the active nodes behind it: vjps into constants are never run and
constants never hold a gradient (reverse-mode activity analysis). The engine
is eager; the gradients of active leaves are the same numbers that running
every vjp into zero-filled buffers would give. Only leaves keep ``grad``
after :func:`backward`: an interior node's is freed once its vjps have run.
The fused ops are one node each whose hand-written vjps read only the upstream
gradient and arrays the forward saved: :func:`affine` for a dense layer over
one input or a list of them, :func:`mix` for a per-row weighted sum of nodes,
:func:`gcn_layer` for a graph-convolution layer over a constant operator (dense
or ``scipy.sparse``, never a node), and :func:`contrast_pair` for a whole
contrastive loss, which computes its gradients in the forward, one row block
of its pair matrix at a time. None saves an array its vjps do not read.

Numerical conventions (applied uniformly so downstream losses never see a
NaN from an in-contract input):
  * inputs to ``log`` and the row sums in :func:`contrast_pair` are clamped to ``EPS = 1e-12``,
  * L2-normalizing an exactly-zero row returns the zero row with zero
    gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

EPS = 1e-12
CONTRAST_BLOCK_ROWS = 256  # rows of E per block; also the longest sum in one contrast product


def as_matrix(data) -> np.ndarray:
    """Coerce a scalar (to 1x1) or a matrix-shaped sequence or array to a 2-D
    float64 array; any other rank is a :class:`ShapeError`."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected a scalar or a matrix, got {arr.ndim} dimensions")
    return arr


class DiffNode:
    """One tape entry: a matrix value plus backward rules to its parents.

    ``active`` is fixed at construction: given for a leaf, and for an op
    node true iff any parent is active. ``grad`` is lazily allocated; a node
    left untouched by :func:`backward`, and an interior node after it (whose
    gradient is freed once used), reports an all-zero gradient.
    """

    __slots__ = ("value", "_grad", "parents", "_vjps", "active")

    def __init__(self, value, parents=(), vjps=(), active=False):
        self.value = as_matrix(value)
        self._grad = None
        self.parents = tuple(parents)
        self._vjps = tuple(vjps)
        # a plain loop: any() over a generator measured about 0.7 us more per
        # node, paid for every tape node of every epoch
        if not active:
            for parent in self.parents:
                if parent.active:
                    active = True
                    break
        self.active = active

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def zero_grad(self):
        self._grad = None

    # Operator sugar; non-node operands are treated as constants.
    def __add__(self, other):
        return elementwise(self, _ensure(other), "add")

    def __sub__(self, other):
        return elementwise(self, _ensure(other), "sub")

    def __mul__(self, other):
        return elementwise(self, _ensure(other), "mul")

    def __matmul__(self, other):
        return matmul(self, _ensure(other))


def constant(data) -> DiffNode:
    """Wrap data as an inactive leaf: :func:`backward` never differentiates it."""
    return DiffNode(data)


def leaf(data) -> DiffNode:
    """Wrap data as a trainable leaf: :func:`backward` fills its gradient."""
    return DiffNode(data, active=True)


def _ensure(x) -> DiffNode:
    return x if isinstance(x, DiffNode) else DiffNode(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _check_broadcast(a: np.ndarray, b: np.ndarray):
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    """Matrix product with the usual transpose backward rules."""
    a, b = _ensure(a), _ensure(b)
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul {a.value.shape} @ {b.value.shape}")
    av, bv = a.value, b.value
    return DiffNode(av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))


def elementwise(a: DiffNode, b: DiffNode, kind: str) -> DiffNode:
    """Pointwise add/sub/mul with row- or column-vector broadcasting."""
    a, b = _ensure(a), _ensure(b)
    av, bv = a.value, b.value
    _check_broadcast(av, bv)
    ash, bsh = av.shape, bv.shape
    if kind == "add":
        out = av + bv
        vjps = (lambda g: _unbroadcast(g, ash), lambda g: _unbroadcast(g, bsh))
    elif kind == "sub":
        out = av - bv
        vjps = (lambda g: _unbroadcast(g, ash), lambda g: _unbroadcast(-g, bsh))
    elif kind == "mul":
        out = av * bv
        vjps = (
            lambda g: _unbroadcast(g * bv, ash),
            lambda g: _unbroadcast(g * av, bsh),
        )
    return DiffNode(out, (a, b), vjps)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def unary(a: DiffNode, kind: str) -> DiffNode:
    """Pointwise relu/sigmoid/exp/log/square/neg."""
    a = _ensure(a)
    av = a.value
    if kind == "relu":
        out = np.maximum(av, 0.0)
        vjp = lambda g: g * (av > 0)
    elif kind == "sigmoid":
        out = _stable_sigmoid(av)
        vjp = lambda g: g * out * (1.0 - out)
    elif kind == "exp":
        out = np.exp(av)
        vjp = lambda g: g * out
    elif kind == "log":
        safe = np.maximum(av, EPS)
        out = np.log(safe)
        vjp = lambda g: g / safe
    elif kind == "square":
        out = av * av
        vjp = lambda g: g * 2.0 * av
    elif kind == "neg":
        out = -av
        vjp = lambda g: -g
    return DiffNode(out, (a,), (vjp,))


def reduce(a: DiffNode, kind: str) -> DiffNode:
    """sum to 1x1, row_sum to Nx1, col_sum to 1xC."""
    a = _ensure(a)
    av = a.value
    if kind == "sum":
        out = np.array([[av.sum()]])
        vjp = lambda g: np.full_like(av, g[0, 0])
    elif kind == "row_sum":
        out = av.sum(axis=1, keepdims=True)
        vjp = lambda g: np.broadcast_to(g, av.shape).copy()
    elif kind == "col_sum":
        out = av.sum(axis=0, keepdims=True)
        vjp = lambda g: np.broadcast_to(g, av.shape).copy()
    return DiffNode(out, (a,), (vjp,))


def row_softmax(a: DiffNode, temperature: float) -> DiffNode:
    """Per-row softmax of ``a / temperature``; rows sum to one."""
    if temperature <= 0:
        raise ConfigError(f"softmax temperature must be positive, got {temperature}")
    a = _ensure(a)
    z = a.value / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return (g - inner) * s / temperature

    return DiffNode(s, (a,), (vjp,))


def _unit_rows(av: np.ndarray, out=None):
    """Rows of ``av`` at unit L2 norm (a zero row stays zero, with zero gradient), written
    into ``out`` when given, and their vjp."""
    norms = np.sqrt((av * av).sum(axis=1, keepdims=True))
    nonzero = norms > 0.0
    safe = np.where(nonzero, norms, 1.0)
    out = np.divide(av, safe, out=out)
    out[~nonzero[:, 0]] = 0.0

    def vjp(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return np.where(nonzero, (g - out * inner) / safe, 0.0)

    return out, vjp


def row_l2_normalize(a: DiffNode) -> DiffNode:
    """Scale every row to unit L2 norm; an exactly-zero row stays zero."""
    a = _ensure(a)
    out, vjp = _unit_rows(a.value)
    return DiffNode(out, (a,), (vjp,))


def contrast_pair(a: DiffNode, b: DiffNode, tau: float) -> DiffNode:
    """NT-Xent loss over both anchor directions (row i of ``a`` and ``b`` are positives), 1x1.

    With the unit rows of ``a`` stacked over those of ``b`` as Z (2N x D) and
    E = exp(Z Zᵀ / tau), it is sum_k log r_k - 2 sum_i cos(a_i, b_i) / tau, for
    r = rowsum(E) clamped to ``EPS``. The forward also runs the hand-derived
    backward for both parents; each vjp only scales its saved gradient. E is
    never whole: one pass forms it ``CONTRAST_BLOCK_ROWS`` rows at a time, and
    each block gives its rows' sums, positives and, since E is symmetric, its
    share ``E_Bᵀ [Z_B, Z_B / r_B]`` of the gradient products. Those sum at
    most ``CONTRAST_BLOCK_ROWS`` terms each (the cosines sum D), short enough
    for OpenBLAS to give the same bits at any thread count.
    """
    if tau <= 0:
        raise ConfigError(f"contrast temperature must be positive, got {tau}")
    a, b = _ensure(a), _ensure(b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"contrast_pair operands differ: {a.value.shape} vs {b.value.shape}")
    n, d = a.value.shape
    z = np.empty((2 * n, d))  # the unit rows of a over those of b
    unit_vjp_a, unit_vjp_b = _unit_rows(a.value, z[:n])[1], _unit_rows(b.value, z[n:])[1]
    r, positives = np.empty((2 * n, 1)), np.empty(n)
    products = np.zeros((2 * n, 2 * d))  # E [Z, Z / r]
    pair = np.empty((min(CONTRAST_BLOCK_ROWS, 2 * n), 2 * d))  # one block's [Z_B, Z_B / r_B]
    for start in range(0, 2 * n, CONTRAST_BLOCK_ROWS):
        stop = start + CONTRAST_BLOCK_ROWS
        zb = z[start:stop]
        e = zb @ z.T  # this block's cosines, then exp(cosines / tau) in place
        positives[start:stop] = np.diagonal(e, offset=n + start)  # cos(a_i, b_i) of its rows i < n
        e /= tau
        np.exp(e, out=e)
        r[start:stop] = np.maximum(e.sum(axis=1, keepdims=True), EPS)
        # E is symmetric: its columns in this block are the block's rows transposed
        block = pair[: zb.shape[0]]
        block[:, :d] = zb
        np.multiply(1.0 / r[start:stop], zb, out=block[:, d:])
        products += e.T @ block
        del e  # freed before the next block's
    value = np.log(r).sum() - 2.0 * positives.sum() / tau
    # dL/dZ = (E Z / r + E (Z / r) - 2 [Z_b; Z_a]) / tau
    ez, ez_inv = np.hsplit(products, 2)
    dz = ((1.0 / r) * ez + ez_inv - 2.0 * np.roll(z, n, axis=0)) / tau
    grad_a, grad_b = unit_vjp_a(dz[:n]), unit_vjp_b(dz[n:])
    # a fresh array per call: backward() keeps the first contribution as given
    return DiffNode([[value]], (a, b), (lambda g: g[0, 0] * grad_a, lambda g: g[0, 0] * grad_b))


def affine(x: DiffNode | list, w: DiffNode, b: DiffNode, act: str | None = None) -> DiffNode:
    """``act(x @ w + b)`` as one node, for a 1 x C bias row and ``act`` None or ``"relu"``.

    ``x`` is one node or a list of nodes that share a row count. A list is
    stacked side by side only for the forward product: input v's vjp reads
    its own rows of ``w``, and the weight vjp stacks the per-input products,
    so no stacked copy stays on the tape. With relu, the node keeps the bool
    mask of its positive outputs, and each vjp applies it to the upstream
    gradient; each returns a fresh array.
    """
    xs = [_ensure(n) for n in x] if isinstance(x, list) else [_ensure(x)]
    w, b = _ensure(w), _ensure(b)
    xvs, wv = [n.value for n in xs], w.value
    bounds = np.cumsum([0] + [xv.shape[1] for xv in xvs])
    if bounds[-1] != wv.shape[0] or b.value.shape != (1, wv.shape[1]):
        raise ShapeError(f"affine {[xv.shape for xv in xvs]} @ {wv.shape} + {b.value.shape}")
    out = (np.hstack(xvs) if len(xvs) > 1 else xvs[0]) @ wv  # the stacked inputs die here
    out += b.value
    if act is None:
        masked = lambda g: g
    elif act == "relu":
        np.maximum(out, 0.0, out=out)
        positive = out > 0
        masked = lambda g: g * positive
    else:
        raise ConfigError(f"unknown affine activation {act!r}")

    def weight_vjp(g):
        g = masked(g)
        return np.vstack([xv.T @ g for xv in xvs]) if len(xvs) > 1 else xvs[0].T @ g

    vjps = tuple((lambda g, rows=wv[lo:hi]: masked(g) @ rows.T) for lo, hi in zip(bounds[:-1], bounds[1:]))
    vjps += (weight_vjp, lambda g: masked(g).sum(axis=0, keepdims=True))
    return DiffNode(out, (*xs, w, b), vjps)


def mix(weights: DiffNode, nodes) -> DiffNode:
    """``sum_v weights[:, v] * nodes[v]`` as one node, added left to right, for N x V ``weights``.

    The vjps read only ``weights`` and the nodes' values, which their own
    nodes already hold: no per-view product stays on the tape.
    """
    weights, nodes = _ensure(weights), [_ensure(n) for n in nodes]
    wv, hvs = weights.value, [n.value for n in nodes]
    out = wv[:, :1] * hvs[0]
    for v in range(1, len(hvs)):
        out += wv[:, v : v + 1] * hvs[v]
    vjps = (lambda g: np.hstack([(g * hv).sum(axis=1, keepdims=True) for hv in hvs]),)
    vjps += tuple((lambda g, col=wv[:, v : v + 1]: g * col) for v in range(len(hvs)))
    return DiffNode(out, (weights, *nodes), vjps)


def gcn_layer(h: DiffNode, operator, w: DiffNode, residual: bool = False) -> DiffNode:
    """``relu(operator @ h @ w)``, plus ``h`` when ``residual``, as one node.

    ``operator`` is a constant matrix, a numpy array or ``scipy.sparse``, and
    never a tape node. Forward and backward touch it only through
    ``operator @ .`` and ``operator.T @ .``, so one path serves both kinds.
    """
    h, w = _ensure(h), _ensure(w)
    hv, wv = h.value, w.value
    if operator.shape[1] != hv.shape[0] or hv.shape[1] != wv.shape[0]:
        raise ShapeError(f"gcn_layer {operator.shape} @ {hv.shape} @ {wv.shape}")
    if residual and (operator.shape[0], wv.shape[1]) != hv.shape:
        raise ShapeError(f"gcn_layer residual needs an output of shape {hv.shape}")
    propagated = operator @ hv  # kept for the weight vjp
    out = propagated @ wv
    np.maximum(out, 0.0, out=out)
    positive = out > 0
    if residual:
        out += hv
        vjp_h = lambda g: operator.T @ ((g * positive) @ wv.T) + g
    else:
        vjp_h = lambda g: operator.T @ ((g * positive) @ wv.T)
    return DiffNode(out, (h, w), (vjp_h, lambda g: propagated.T @ (g * positive)))


def transpose(a: DiffNode) -> DiffNode:
    a = _ensure(a)
    return DiffNode(a.value.T.copy(), (a,), (lambda g: g.T,))


def diag_col(a: DiffNode) -> DiffNode:
    """Main diagonal of a square matrix as an Nx1 column."""
    a = _ensure(a)
    n, c = a.value.shape
    if n != c:
        raise ShapeError(f"diag_col needs a square matrix, got {a.value.shape}")
    out = np.diag(a.value).reshape(-1, 1).copy()

    def vjp(g):
        full = np.zeros_like(a.value)
        np.fill_diagonal(full, g[:, 0])
        return full

    return DiffNode(out, (a,), (vjp,))


def _topo_order(root: DiffNode):
    """Post-order of ``root`` and the active nodes it reaches."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.active and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: DiffNode) -> None:
    """Populate gradients of every active node reachable from a scalar root.

    Gradients of those nodes are reset first, so repeated calls are
    idempotent; a node consumed by several paths receives the summed
    contribution, in the same order as an exhaustive sweep would add it.
    No vjp into an inactive node runs, so a constant's ``grad`` reads as zeros;
    only leaves keep theirs, an interior node's is dropped after its vjps run.
    """
    if root.value.shape != (1, 1):
        raise ContractError(f"backward root must be 1x1, got {root.value.shape}")
    order = _topo_order(root)
    for node in order:
        node._grad = None
    root._grad = np.ones((1, 1))
    for node in reversed(order):
        g = node._grad
        if node.parents:  # an interior node's gradient is spent once its vjps have run
            node._grad = None
        for parent, vjp in zip(node.parents, node._vjps):
            if parent.active:
                c = vjp(g)
                # never in place: a vjp may return g itself or a view of it
                parent._grad = c if parent._grad is None else parent._grad + c


def zero_grads(params):
    for p in params:
        p.zero_grad()


class AdamState:
    """Moment buffers and step counter for bias-corrected Adam."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.value) for p in self.params]
        self.second_moment = [np.zeros_like(p.value) for p in self.params]


def adam_step(state: AdamState):
    """One in-place Adam update from each param's .grad."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.BETA1**t
    bc2 = 1.0 - state.BETA2**t
    for p, m, v in zip(state.params, state.first_moment, state.second_moment):
        g = p.grad
        if p.value.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.value.shape}")
        m *= state.BETA1
        m += (1.0 - state.BETA1) * g
        v *= state.BETA2
        v += (1.0 - state.BETA2) * (g * g)
        p.value -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.EPS)
