"""Independent reference implementations used to cross-check the library.

Everything here is written as plain scalar loops (or a direct formula) on
purpose: these are the oracles, so they must not share code paths with the
vectorized implementations they verify.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from icmvc.errors import FormatError, ParseError


# ---------------------------------------------------------------------------
# finite differences


def numeric_gradient(f, value: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() wrt an array mutated in place."""
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = value[idx]
        value[idx] = original + h
        f_plus = f()
        value[idx] = original - h
        f_minus = f()
        value[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad


def numeric_gradient_multi(f, value: np.ndarray, n_outputs: int, h: float = 1e-5):
    """Central differences of a tuple-valued f() wrt one array, mutated in place.

    One sweep over the coordinates yields the numeric gradient of every
    output simultaneously (two forward evaluations per coordinate total).
    """
    grads = [np.zeros_like(value) for _ in range(n_outputs)]
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = value[idx]
        value[idx] = original + h
        f_plus = f()
        value[idx] = original - h
        f_minus = f()
        value[idx] = original
        for k in range(n_outputs):
            grads[k][idx] = (f_plus[k] - f_minus[k]) / (2.0 * h)
        it.iternext()
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise |a-n| / max(|a|,|n|,floor).

    The floor keeps finite-difference roundoff (about 1e-10 absolute at
    h=1e-5) from registering as a large relative error on near-zero entries.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# exhaustive reverse sweep


def exhaustive_backward(root) -> dict:
    """Reference backward over a numkit tape, with no activity analysis.

    Zero-fills a gradient buffer for every node reachable from ``root``,
    constants included, runs every vjp and adds each contribution in place.
    Returns ``id(node) -> gradient`` for every reachable node; the nodes'
    own gradients are left untouched.
    """
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in seen)
    grads = {id(node): np.zeros_like(node.value) for node in order}
    grads[id(root)] = np.ones((1, 1))
    for node in reversed(order):
        g = grads[id(node)]
        for parent, vjp in zip(node.parents, node._vjps):
            grads[id(parent)] += vjp(g)
    return grads


# ---------------------------------------------------------------------------
# contrastive / guidance losses as scalar loops


def _cos(u, v) -> float:
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(u, v)) / (nu * nv)


def loop_instance_loss(z1, z2, tau: float, include_self: bool = True) -> float:
    n = len(z1)
    total = 0.0
    for a, b in ((z1, z2), (z2, z1)):
        for i in range(n):
            pos = math.exp(_cos(a[i], b[i]) / tau)
            denom = 0.0
            for j in range(n):
                if include_self or j != i:
                    denom += math.exp(_cos(a[i], a[j]) / tau)
                denom += math.exp(_cos(a[i], b[j]) / tau)
            total += -math.log(pos / denom)
    return total / (2.0 * n)


def loop_cluster_loss(y1, y2, tau: float, include_self: bool = True) -> float:
    n = len(y1)
    c = len(y1[0])
    cols1 = [[y1[i][j] for i in range(n)] for j in range(c)]
    cols2 = [[y2[i][j] for i in range(n)] for j in range(c)]
    total = 0.0
    for a, b in ((cols1, cols2), (cols2, cols1)):
        for j in range(c):
            pos = math.exp(_cos(a[j], b[j]) / tau)
            denom = 0.0
            for k in range(c):
                if include_self or k != j:
                    denom += math.exp(_cos(a[j], a[k]) / tau)
                denom += math.exp(_cos(a[j], b[k]) / tau)
            total += -math.log(pos / denom)
    contrast = total / (2.0 * c)
    entropy = 0.0
    for cols in (cols1, cols2):
        for j in range(c):
            p = sum(cols[j]) / n
            if p > 0.0:
                entropy += -p * math.log(p)
    return contrast - entropy


def loop_guidance_loss(y, p) -> float:
    total = 0.0
    for yi, pi in zip(y, p):
        for yij, pij in zip(yi, pi):
            if pij > 0.0:
                total += pij * math.log(pij / yij)
    return total / len(y)


def loop_target(y1, y2, y):
    n, c = len(y1), len(y1[0])
    q = [[max(y1[i][j], y2[i][j], y[i][j]) for j in range(c)] for i in range(n)]
    p = []
    for row in q:
        s = sum(v * v for v in row)
        p.append([v * v / s for v in row])
    return q, p


# ---------------------------------------------------------------------------
# graph pipeline, row by row


def loop_squared_distances(x) -> list:
    n = len(x)
    d2 = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a, b in zip(x[i], x[j]):
                diff = a - b
                acc += diff * diff
            d2[i][j] = acc
    return d2


def loop_rbf(x, observed, t: float):
    n = len(x)
    d2 = loop_squared_distances(x)
    s = [[-1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if observed[i] and observed[j]:
                s[i][j] = math.exp(-d2[i][j] / t)
    return s


def loop_knn(s, observed, k: int):
    n = len(s)
    adj = [[0.0] * n for _ in range(n)]
    for i in range(n):
        if not observed[i]:
            continue
        candidates = [j for j in range(n) if j != i and observed[j]]
        candidates.sort(key=lambda j: (-s[i][j], j))
        for j in candidates[:k]:
            adj[i][j] = 1.0
    return adj


def loop_transfer(adjacencies, mask, rule: str):
    n = len(mask)
    n_views = len(mask[0])
    out = [[row[:] for row in a] for a in adjacencies]
    for v in range(n_views):
        for i in range(n):
            if mask[i][v]:
                continue
            sources = [w for w in range(n_views) if mask[i][w]]
            rows = [adjacencies[w][i] for w in sources]
            if rule == "copy":
                new_row = rows[0][:]
            elif rule == "union":
                new_row = [float(any(r[j] > 0 for r in rows)) for j in range(n)]
            elif rule == "intersection":
                new_row = [float(all(r[j] > 0 for r in rows)) for j in range(n)]
            else:
                raise ValueError(rule)
            out[v][i] = new_row
    return out


def loop_symmetrize(adj):
    n = len(adj)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (adj[i][j] > 0 or adj[j][i] > 0):
                out[i][j] = 1.0
    return out


def loop_normalize(adj):
    n = len(adj)
    tilde = [[adj[i][j] + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    deg = [sum(row) for row in tilde]
    return [
        [tilde[i][j] / math.sqrt(deg[i] * deg[j]) for j in range(n)] for i in range(n)
    ]


# ---------------------------------------------------------------------------
# edge keys: convert test patterns to and from what the graph steps pass


def dense_to_keys(adj) -> np.ndarray:
    """Sorted int64 edge keys ``i * N + j`` of a dense N x N 0/1 pattern,
    the form the graph steps pass each other."""
    n = len(adj)
    keys = [i * n + j for i in range(n) for j in range(n) if adj[i][j] != 0]
    return np.array(keys, dtype=np.int64)


def keys_to_dense(keys, n: int) -> np.ndarray:
    """The dense N x N 0/1 pattern whose edges have the given keys."""
    adj = np.zeros((n, n))
    for key in keys:
        i, j = divmod(int(key), n)
        adj[i, j] = 1.0
    return adj


# ---------------------------------------------------------------------------
# clustering metrics from first principles


def contingency_table(truth, pred):
    ct = max(truth) + 1
    cp = max(pred) + 1
    table = [[0] * cp for _ in range(ct)]
    for t, p in zip(truth, pred):
        table[t][p] += 1
    return table


def exhaustive_accuracy(pred, truth) -> float:
    """Best matched fraction over every injective cluster mapping."""
    table = contingency_table(truth, pred)
    ct, cp = len(table), len(table[0])
    size = max(ct, cp)
    padded = [[table[i][j] if i < ct and j < cp else 0 for j in range(size)] for i in range(size)]
    best = 0
    for perm in itertools.permutations(range(size)):
        best = max(best, sum(padded[perm[j]][j] for j in range(size)))
    return best / len(pred)


def formula_nmi(pred, truth) -> float:
    table = contingency_table(truth, pred)
    n = len(pred)
    row = [sum(r) for r in table]
    col = [sum(table[i][j] for i in range(len(table))) for j in range(len(table[0]))]
    mi = 0.0
    for i in range(len(table)):
        for j in range(len(table[0])):
            nij = table[i][j]
            if nij > 0:
                mi += (nij / n) * math.log(n * nij / (row[i] * col[j]))
    ht = -sum((r / n) * math.log(r / n) for r in row if r > 0)
    hp = -sum((c / n) * math.log(c / n) for c in col if c > 0)
    if ht == 0.0 and hp == 0.0:
        return 1.0
    if ht == 0.0 or hp == 0.0:
        return 0.0
    return mi / math.sqrt(ht * hp)


def pair_counting_ari(pred, truth) -> float:
    n = len(pred)
    same_both = same_truth = same_pred = 0
    for i in range(n):
        for j in range(i + 1, n):
            st = truth[i] == truth[j]
            sp = pred[i] == pred[j]
            same_truth += st
            same_pred += sp
            same_both += st and sp
    total = n * (n - 1) // 2
    expected = same_truth * same_pred / total
    maximum = (same_truth + same_pred) / 2.0
    if maximum == expected:
        return 1.0
    return (same_both - expected) / (maximum - expected)


# ---------------------------------------------------------------------------
# CSV cells, one float() call each


def loop_read_matrix(path) -> np.ndarray:
    """``dataio.read_matrix`` as a per-line, per-cell ``float()`` loop: the
    same array for a good file, the same error class and message for a bad one."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path.name}: byte {exc.start} is not UTF-8 text") from None
    if "_" in text or not text.isascii():
        for lineno, line in enumerate(text.split("\n"), start=1):
            for col, cell in enumerate(line.strip().split(","), start=1):
                if "_" in cell or not cell.isascii():
                    raise ParseError(f"{path.name}: line {lineno}, column {col}: {cell!r} is not a decimal")
    rows, linenos = [], []
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        linenos.append(lineno)
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(f"{path.name}: line {lineno} has {len(cells)} cells, expected {width}")
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(f"{path.name}: line {lineno}, column {col}: {cell!r} is not numeric") from None
        rows.append(parsed)
    if not rows:
        raise FormatError(f"{path.name}: empty file")
    matrix = np.array(rows, dtype=np.float64)
    finite = np.isfinite(matrix)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ParseError(
            f"{path.name}: line {linenos[row]}, column {col + 1}: {matrix[row, col]!r} is not finite"
        )
    return matrix
