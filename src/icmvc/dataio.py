"""Dataset files, observation masks, synthetic blob generation, zero-fill.

A dataset directory holds ``view1.csv .. viewV.csv``, each index once (one
instance per row, ASCII decimals separated by commas, no header),
``labels.csv`` (one integer per line),
an optional ``mask.csv`` (0/1 per view column), and ``meta.json``. Floats are
serialized with their shortest round-trip representation, so save followed
by load is bit-exact.

Mask sampling uses the PCG64 generator; the algorithm name is echoed into
run manifests so masks can be regenerated from (seed, algorithm) alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, GenerationError, ParseError

MASK_PRNG = "pcg64"


@dataclass
class ViewSet:
    """Per-view feature matrices sharing one instance axis."""

    views: list

    def __post_init__(self):
        if not self.views:
            raise DataError("a ViewSet needs at least one view")
        n = self.views[0].shape[0]
        if any(v.shape[0] != n for v in self.views):
            raise DataError("views disagree on instance count")

    @property
    def n_instances(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def dims(self) -> list:
        return [v.shape[1] for v in self.views]


def _format_float(x: float) -> str:
    return repr(float(x))


def atomic_write(path: Path, text: str):
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``, so no reader sees a half-written file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_matrix(path: Path, matrix: np.ndarray, integer: bool = False):
    lines = []
    for row in np.atleast_2d(matrix):
        if integer:
            lines.append(",".join(str(int(v)) for v in row))
        else:
            lines.append(",".join(_format_float(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def read_matrix(path: Path) -> np.ndarray:
    """Parse a headerless CSV of ASCII decimals; every cell must be finite.

    ``float()`` also takes digit separators (``1_5``) and non-ASCII digits
    and spaces; a cell holding either is a :class:`ParseError`.
    """
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


def read_labels(path: Path) -> np.ndarray:
    """One integer label in [0, 2**53) per line, as int64. Larger decimals
    do not survive the float parse exactly, so they are rejected."""
    raw = read_matrix(path)
    if raw.shape[1] != 1:
        raise FormatError(f"{path.name}: expected one label per line")
    values = raw[:, 0]
    bad = (values < 0) | (values != np.floor(values)) | (values >= 2.0**53)
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(f"{path.name}: label {values[i]!r} (entry {i + 1}) is not an integer in [0, 2**53)")
    return values.astype(np.int64)


def _view_index(path: Path) -> int:
    suffix = path.stem[len("view"):]
    if not suffix.isdecimal() or int(suffix) < 1:
        raise FormatError(f"{path.name}: view files must be named view<k>.csv with k a positive integer")
    return int(suffix)


def minmax_scale(x: np.ndarray, name: str) -> np.ndarray:
    """Per-feature scaling to [0, 1]; constant features map to 0.

    A feature whose range exceeds the largest float64 cannot be scaled; it
    is a :class:`ParseError` naming the file ``name`` and the column.
    """
    lo = x.min(axis=0)
    with np.errstate(over="ignore"):
        span = x.max(axis=0) - lo
    overflow = ~np.isfinite(span)
    if overflow.any():
        col = int(np.argmax(overflow)) + 1
        raise ParseError(f"{name}: column {col} spans a range too wide for float64")
    span = np.where(span > 0, span, 1.0)
    return (x - lo) / span


def save_dataset(path, views: ViewSet, labels: np.ndarray, mask: np.ndarray | None = None) -> list:
    """Write the directory layout readable by :func:`load_dataset`; returns
    the names of the files written. A ``mask.csv`` or ``view<k>.csv`` that an
    earlier dataset left in ``path`` is removed, so none is read with this one."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    names = [f"view{v}.csv" for v in range(1, views.n_views + 1)] + ["labels.csv", "meta.json"]
    for v, matrix in enumerate(views.views, start=1):
        write_matrix(path / f"view{v}.csv", matrix)
    write_matrix(path / "labels.csv", np.asarray(labels).reshape(-1, 1), integer=True)
    if mask is not None:
        write_matrix(path / "mask.csv", np.asarray(mask).astype(int), integer=True)
        names.append("mask.csv")
    for old in [*path.glob("view*.csv"), path / "mask.csv"]:
        if old.name not in names and (old.stem == "mask" or old.stem[len("view"):].isdecimal()):
            old.unlink(missing_ok=True)
    meta = {
        "n_instances": views.n_instances,
        "n_views": views.n_views,
        "n_clusters": int(np.unique(labels).size),
        "dims": views.dims,
    }
    atomic_write(path / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return names


def load_dataset(path, minmax: bool = False):
    """Read a dataset directory; returns (ViewSet, labels, mask or None).

    With ``minmax`` each view is feature-scaled to [0, 1] after reading.
    When a mask is present, missing rows are zero-filled on load (after any
    scaling, so placeholder zeros never leak into feature ranges).
    """
    path = Path(path)
    view_paths = sorted(path.glob("view*.csv"), key=lambda p: (_view_index(p), p.name))
    if not view_paths:
        raise FormatError(f"{path}: no view files found")
    if [_view_index(p) for p in view_paths] != list(range(1, len(view_paths) + 1)):
        names = ", ".join(p.name for p in view_paths)
        raise FormatError(f"{path}: view files must be numbered 1..V once each, found {names}")
    matrices = [read_matrix(p) for p in view_paths]
    n = matrices[0].shape[0]
    for p, m in zip(view_paths, matrices):
        if m.shape[0] != n:
            raise FormatError(f"{p.name}: {m.shape[0]} rows, expected {n}")

    labels = read_labels(path / "labels.csv")
    if labels.shape[0] != n:
        raise FormatError(f"labels.csv: {labels.shape[0]} rows, expected {n}")

    mask = None
    mask_path = path / "mask.csv"
    if mask_path.exists():
        raw = read_matrix(mask_path)
        if raw.shape != (n, len(matrices)):
            raise FormatError(f"mask.csv: shape {raw.shape}, expected ({n}, {len(matrices)})")
        if not np.isin(raw, (0.0, 1.0)).all():
            raise FormatError("mask.csv: entries must be 0 or 1")
        mask = raw.astype(bool)
        if not mask.any(axis=1).all():
            bad = int(np.where(~mask.any(axis=1))[0][0])
            raise DataError(f"mask.csv: instance {bad} is missing in every view")

    if minmax:
        matrices = [minmax_scale(m, p.name) for p, m in zip(view_paths, matrices)]
    views = ViewSet(matrices)
    if mask is not None:
        views = zero_fill(views, mask)
    return views, labels, mask


def make_mask(n: int, n_views: int, eta: float, seed: int) -> np.ndarray:
    """Mark floor(eta * n) instances as missing exactly one view each."""
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"missing rate must lie in [0, 1], got {eta}")
    if n_views < 2:
        raise ConfigError("need at least 2 views to delete one")
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = np.ones((n, n_views), dtype=bool)
    # tolerate decimal eta values that land just below an integer product
    n_incomplete = int(np.floor(eta * n + 1e-9))
    rows = rng.choice(n, size=n_incomplete, replace=False)
    dropped = rng.integers(0, n_views, size=n_incomplete)
    mask[rows, dropped] = False
    return mask


def zero_fill(views: ViewSet, mask: np.ndarray) -> ViewSet:
    """Zero the rows of each view where the mask says the instance is missing."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (views.n_instances, views.n_views):
        raise DataError(f"mask shape {mask.shape} does not match views")
    filled = []
    for v, matrix in enumerate(views.views):
        out = matrix.copy()
        out[~mask[:, v]] = 0.0
        filled.append(out)
    return ViewSet(filled)


def _random_rotation(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def synth_blobs(
    n: int,
    n_views: int,
    n_clusters: int,
    dim: int,
    noise_sigma: float,
    seed: int = 0,
):
    """Cluster-consistent Gaussian blobs, one independent layout per view.

    Centers are redrawn (up to 100 times) until every pair is at least
    6 * noise_sigma apart; each view then applies its own random rotation so
    the views differ while sharing the label partition. Cluster sizes are
    balanced within one instance.
    """
    if n_views < 1 or n_clusters < 1 or dim < 1:
        raise ConfigError(f"need at least 1 view, 1 cluster and 1 dimension, got {n_views}, {n_clusters} and {dim}")
    if n < n_clusters * n_views:
        raise ConfigError(f"need n >= clusters * views, got {n} < {n_clusters * n_views}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ConfigError(f"noise_sigma must be finite and nonnegative, got {noise_sigma}")
    rng = np.random.Generator(np.random.PCG64(seed))

    counts = np.full(n_clusters, n // n_clusters)
    counts[: n % n_clusters] += 1
    labels = np.repeat(np.arange(n_clusters), counts)

    spread = max(1.0, 4.0 * noise_sigma)
    matrices = []
    for _ in range(n_views):
        centers = None
        for _attempt in range(100):
            candidate = rng.normal(size=(n_clusters, dim)) * spread
            diff = candidate[:, None, :] - candidate[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            if dist.min() >= 6.0 * noise_sigma:
                centers = candidate
                break
        if centers is None:
            raise GenerationError("could not separate cluster centers; lower noise_sigma or raise dim")
        points = centers[labels] + noise_sigma * rng.normal(size=(n, dim))
        matrices.append(points @ _random_rotation(rng, dim))
    return ViewSet(matrices), labels
