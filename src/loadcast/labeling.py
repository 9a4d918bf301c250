"""Appliance state labeling: per-variable k-means over sliding windows,
with silhouette-score selection of the state count.

Each variable of a load series is embedded as one window per time step
(forward windows, with trailing windows reused at the tail), clustered
for every candidate state count, and the count with the best silhouette
wins. Cluster ids are then canonicalized by ascending centroid mean so
label 0 is always the lowest-power state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SeriesFrame
from .errors import ConfigError, DataError, ShapeError, prefix_errors, reading

DEFAULT_WINDOW = 24
# States per variable: labeling's search range by default, the teacher's
# class-count range and the generator's level count.
MIN_STATES, MAX_STATES = 2, 5

# Silhouette is O(n^2); k selection above this many windows runs on a
# seeded subsample instead (labels themselves always cover every row).
# The n x n distance matrix is built once per row selection: once per
# variable under the cap, once per candidate k above it.
SILHOUETTE_CAP = 2048

# Entries per row-block buffer in _exact_dists (2**15 float64 = 256 KB):
# a block and its up to eight scratch buffers stay in cache while every
# coordinate is added into them.
_BLOCK_ELEMS = 1 << 15


@dataclass
class StateProfile:
    """Per-step, per-variable integer state labels plus state counts.

    labels: (l, D) int matrix, variable i taking values in [0, counts[i]).
    counts: length-D state counts, each in [MIN_STATES, MAX_STATES] when
    produced by identify_states with the default bounds.
    """

    labels: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.labels.ndim != 2 or self.counts.shape != (self.labels.shape[1],):
            raise ShapeError(
                f"labels {self.labels.shape} inconsistent with counts {self.counts.shape}"
            )
        if self.labels.size and (
            (self.labels < 0).any() or (self.labels >= self.counts[None, :]).any()
        ):
            bad = np.argwhere((self.labels < 0) | (self.labels >= self.counts[None, :]))[0]
            raise ShapeError(
                f"label {self.labels[tuple(bad)]} out of range for variable {bad[1]} "
                f"with {self.counts[bad[1]]} states"
            )


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    inertia_history: list[float]
    n_iter: int


def embed_windows(series: np.ndarray, w: int) -> np.ndarray:
    """One width-w window per time step of a univariate series.

    Row t holds series[t:t+w]; past the last full forward window the row
    holds the window ending at t (clamped to the series start), so every
    row has width w and the tail reuses trailing values.
    """
    series = np.asarray(series, dtype=np.float64).reshape(-1)
    l = series.shape[0]
    if w < 1:
        raise ConfigError(f"window size must be >= 1, got {w}")
    if w > l:
        raise ConfigError(f"window size {w} exceeds series length {l}")
    t = np.arange(l)
    starts = np.where(t <= l - w, t, np.maximum(0, t - w + 1))
    return series[starts[:, None] + np.arange(w)]


def _pairwise_sq_dists(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray) -> np.ndarray:
    # |a-b|^2 = |a|^2 + |b|^2 - 2ab, clipped against rounding; a_sq is (a * a).sum(axis=1)
    d = a_sq[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def _exact_dists(rows: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances via explicit differences.

    The quadratic-form shortcut loses ~1e-13 to cancellation when
    points are close relative to their magnitude; silhouette promises
    exact agreement with the textbook definition, so pay for precision.

    The output is built in row blocks of about _BLOCK_ELEMS entries, one
    coordinate at a time, and each squared difference is added in
    numpy's pairwise-summation order for a contiguous axis (see
    _add_sq_diffs), so every entry is bit-identical to
    ``np.sqrt(((a - b) ** 2).sum())``. Since ``(a-b)**2 == (b-a)**2``
    in IEEE arithmetic, the matrix is exactly symmetric with a zero
    diagonal.
    """
    n, dim = rows.shape
    out = np.empty((n, n))
    coords = np.ascontiguousarray(rows.T)
    block = max(1, _BLOCK_ELEMS // max(1, n))
    scratch = np.empty((8 if dim >= 8 else 1, min(block, n), n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = out[start:stop]
        _add_sq_diffs(coords, 0, dim, start, stop, d2, scratch[:, : stop - start])
        np.sqrt(d2, out=d2)
    return out


def _sq_diff(coords: np.ndarray, j: int, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    c = coords[j]
    np.subtract(c[start:stop, None], c[None, :], out=out)
    return np.multiply(out, out, out=out)


def _add_sq_diffs(
    coords: np.ndarray, lo: int, hi: int, start: int, stop: int, out: np.ndarray, scratch: np.ndarray
) -> None:
    """out = sum over coordinates lo..hi-1 of the squared differences of
    rows start..stop against every row, in the order numpy's pairwise sum
    adds a contiguous axis of length hi-lo: one after another below 8;
    eight interleaved partial sums up to 128, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail one by one; above
    128, the two halves split at a multiple of 8, each summed the same way.
    """
    m = hi - lo
    if m > 128:
        half = m // 2 - (m // 2) % 8
        _add_sq_diffs(coords, lo, lo + half, start, stop, out, scratch)
        right = np.empty_like(out)
        _add_sq_diffs(coords, lo + half, hi, start, stop, right, scratch)
        out += right
        return
    _sq_diff(coords, lo, start, stop, out)
    if m < 8:
        for j in range(lo + 1, hi):
            out += _sq_diff(coords, j, start, stop, scratch[0])
        return
    r = [out, *scratch[:7]]
    for p in range(1, 8):
        _sq_diff(coords, lo + p, start, stop, r[p])
    tmp = scratch[7]
    full = lo + m - m % 8
    for j in range(lo + 8, full):
        r[(j - lo) % 8] += _sq_diff(coords, j, start, stop, tmp)
    r[0] += r[1]
    r[2] += r[3]
    r[0] += r[2]
    r[4] += r[5]
    r[6] += r[7]
    r[4] += r[6]
    r[0] += r[4]
    for j in range(full, hi):
        out += _sq_diff(coords, j, start, stop, tmp)


def _kmeans_pp_init(
    rows: np.ndarray, row_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = rows.shape[0]
    centroids = np.empty((k, rows.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = rows[first]
    sq = _pairwise_sq_dists(rows, row_sq, centroids[:1]).ravel()
    for j in range(1, k):
        total = sq.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            nxt = int(rng.integers(n))
        else:
            nxt = int(rng.choice(n, p=sq / total))
        centroids[j] = rows[nxt]
        sq = np.minimum(sq, _pairwise_sq_dists(rows, row_sq, centroids[j : j + 1]).ravel())
    return centroids


def kmeans(
    embedding: np.ndarray, k: int, seed: int, max_iter: int = 100, n_distinct: int | None = None
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding on window embedding rows.

    Converges when assignments stop changing or max_iter is hit. An
    empty cluster is reseeded to the point farthest from its assigned
    centroid. Inertia is the sum of squared distances to assigned
    centroids, recorded once per assignment pass. Centroids are cluster
    means, bit for bit as rows[assignments == c].mean(axis=0), summed by
    one np.bincount per coordinate. n_distinct is the embedding's number
    of distinct rows when the caller has counted them already; it is
    counted here otherwise.
    """
    rows = np.asarray(embedding, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"embedding must be 2-D, got shape {rows.shape}")
    if n_distinct is None:
        n_distinct = np.unique(rows, axis=0).shape[0]
    if not 1 <= k <= n_distinct:
        raise ConfigError(f"k={k} outside [1, {n_distinct}] distinct rows")
    rng = np.random.default_rng(seed)
    row_sq = (rows * rows).sum(axis=1)
    centroids = _kmeans_pp_init(rows, row_sq, k, rng)
    assignments = np.full(rows.shape[0], -1, dtype=np.int64)
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        sq = _pairwise_sq_dists(rows, row_sq, centroids)
        new_assign = sq.argmin(axis=1)
        point_sq = sq[np.arange(rows.shape[0]), new_assign]
        if np.bincount(new_assign, minlength=k).min() == 0:
            for c in range(k):
                if not (new_assign == c).any():
                    far = int(point_sq.argmax())
                    centroids[c] = rows[far]
                    sq[:, c] = _pairwise_sq_dists(rows, row_sq, centroids[c : c + 1]).ravel()
                    new_assign = sq.argmin(axis=1)
                    point_sq = sq[np.arange(rows.shape[0]), new_assign]
        history.append(float(point_sq.sum()))
        if (new_assign == assignments).all():
            assignments = new_assign
            break
        assignments = new_assign
        if rows.shape[1] == 1:  # .mean sums a single column pairwise
            centroids[:, 0] = [rows[assignments == c, 0].mean() for c in range(k)]
            continue
        # row after row from 0.0, as .mean sums axis 0 of a wider matrix
        sizes = np.bincount(assignments, minlength=k)
        for j, coord in enumerate(rows.T):
            centroids[:, j] = np.bincount(assignments, weights=coord, minlength=k) / sizes
    return KMeansResult(assignments, centroids, history[-1], history, n_iter)


def silhouette(
    embedding: np.ndarray, assignments: np.ndarray, dist: np.ndarray | None = None
) -> float:
    """Mean silhouette value (b-a)/max(a,b) over all points.

    a is the mean distance to the point's own cluster (excluding
    itself), b the smallest mean distance to another cluster. Points in
    singleton clusters, and points with max(a,b)=0, contribute 0.

    dist, when given, must be ``_exact_dists(embedding)``, so that one
    matrix serves every clustering of the same rows; its diagonal is
    zeroed in place. Without it the matrix is built here. Either way it
    must be exactly symmetric: the per-cluster sums gather the member
    rows, ``dist[members].sum(axis=0)``, which adds the same values in
    the same order (one member after another) as summing the member
    columns would.
    """
    rows = np.asarray(embedding, dtype=np.float64)
    assignments = np.asarray(assignments)
    n = rows.shape[0]
    if assignments.shape != (n,):
        raise ShapeError(f"{assignments.shape} assignments for {n} rows")
    labels, counts = np.unique(assignments, return_counts=True)
    if labels.size < 2:
        raise ConfigError(f"silhouette needs >= 2 clusters, got {labels.size}")
    if dist is None:
        dist = _exact_dists(rows)
    elif dist.shape != (n, n):
        raise ShapeError(f"distance matrix {dist.shape} for {n} rows")
    np.fill_diagonal(dist, 0.0)
    # per-point summed distance to each cluster
    sums = np.zeros((n, labels.size))
    for j, lab in enumerate(labels):
        sums[:, j] = dist[assignments == lab].sum(axis=0)
    scores = np.zeros(n)
    for j, lab in enumerate(labels):
        members = assignments == lab
        if counts[j] == 1:
            continue  # singleton: s = 0
        a = sums[members, j] / (counts[j] - 1)
        other = np.ones(labels.size, dtype=bool)
        other[j] = False
        b = (sums[members][:, other] / counts[other]).min(axis=1)
        denom = np.maximum(a, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(denom > 0, (b - a) / denom, 0.0)
        scores[members] = s
    return float(scores.mean())


def _selection_indices(n: int, cap: int, rng: np.random.Generator, assignments: np.ndarray) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    idx = np.sort(rng.choice(n, size=cap, replace=False))
    present = np.unique(assignments[idx])
    missing = np.setdiff1d(np.unique(assignments), present)
    if missing.size:
        extras = [int(np.nonzero(assignments == m)[0][0]) for m in missing]
        idx = np.sort(np.concatenate([idx, np.asarray(extras, dtype=idx.dtype)]))
    return idx


def identify_states(
    frame: SeriesFrame,
    w: int = DEFAULT_WINDOW,
    min_s: int = MIN_STATES,
    max_s: int = MAX_STATES,
    seed: int = 0,
    silhouette_cap: int = SILHOUETTE_CAP,
) -> StateProfile:
    """Label every (step, variable) with a state id, choosing each
    variable's state count by silhouette score over [min_s, max_s].

    Ties keep the smallest k. Labels are canonicalized so centroid
    means are non-decreasing in label id. Deterministic for a given
    seed; k-means and subsample seeds are derived per (variable, k).
    The silhouette distance matrix is built once per row selection and
    shared by every k scored on it: once per variable when l is within
    silhouette_cap, once per k when each k draws its own subsample.

    Only k up to the variable's number of distinct windows are scored;
    a variable with fewer distinct windows than min_s (say, a constant
    column) raises DataError naming it.
    """
    if min_s < MIN_STATES:
        raise ConfigError(f"min_s must be >= {MIN_STATES}, got {min_s}")
    if max_s < min_s:
        raise ConfigError(f"max_s={max_s} below min_s={min_s}")
    l, d = frame.values.shape
    labels = np.zeros((l, d), dtype=np.int64)
    counts = np.zeros(d, dtype=np.int64)
    for i in range(d):
        embedding = embed_windows(frame.values[:, i], w)
        n_distinct = np.unique(embedding, axis=0).shape[0]
        if n_distinct < min_s:
            raise DataError(
                f"variable {frame.variable_names[i]!r}: {n_distinct} distinct "
                f"window(s) of width {w}, fewer than min_s={min_s} states"
            )
        best_score = -np.inf
        best: KMeansResult | None = None
        best_k = 0
        dist = dist_idx = None
        for k in range(min_s, min(max_s, n_distinct) + 1):
            child = np.random.SeedSequence(entropy=(seed, i, k)).generate_state(1)[0]
            result = kmeans(embedding, k, seed=int(child), n_distinct=n_distinct)
            sub_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i, k, 1)))
            idx = _selection_indices(l, silhouette_cap, sub_rng, result.assignments)
            if dist_idx is None or not np.array_equal(idx, dist_idx):
                dist = None  # release the old matrix before building the next
                dist, dist_idx = _exact_dists(embedding[idx]), idx
            score = silhouette(embedding[idx], result.assignments[idx], dist=dist)
            if score > best_score:
                best_score, best, best_k = score, result, k
        assert best is not None
        order = np.argsort(best.centroids.mean(axis=1), kind="stable")
        remap = np.empty(best_k, dtype=np.int64)
        remap[order] = np.arange(best_k)
        labels[:, i] = remap[best.assignments]
        counts[i] = best_k
    return StateProfile(labels, counts)


def save_states_csv(profile: StateProfile, frame: SeriesFrame, path: str | Path) -> None:
    """Persist labels as CSV (same header/timestamps as the frame) plus a
    JSON sidecar <path>.meta.json listing the state count per variable."""
    path = Path(path)
    if profile.labels.shape != frame.values.shape:
        raise ShapeError(
            f"labels {profile.labels.shape} do not match frame values {frame.values.shape}"
        )
    with path.open("w", newline="", encoding="utf-8") as f:
        f.write("timestamp," + ",".join(frame.variable_names) + "\n")
        for ts, row in zip(frame.timestamps, profile.labels):
            f.write(str(int(ts)) + "," + ",".join(str(int(v)) for v in row) + "\n")
    meta = [
        {"name": name, "states": int(n)}
        for name, n in zip(frame.variable_names, profile.counts)
    ]
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def load_states_csv(path: str | Path) -> tuple[StateProfile, np.ndarray, list[str]]:
    """Read a state CSV and its sidecar; returns (profile, timestamps, names)."""
    path = Path(path)
    with reading(path), path.open(newline="", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        if header[:1] != ["timestamp"]:
            raise DataError("header must start with 'timestamp'")
        names = header[1:]
        rows = [line for line in f if line.strip()]
        if not rows:  # before np.loadtxt, which would warn about it
            raise DataError("no data rows")
        body = np.loadtxt(rows, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    with reading(sidecar):
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        meta_names = [m["name"] for m in meta]
        counts = [m["states"] for m in meta]
        if meta_names != names:
            raise DataError(f"names {meta_names} do not match {path}'s header {names}")
        for name, n in zip(names, counts):
            if type(n) is not int or not MIN_STATES <= n <= MAX_STATES:
                raise DataError(
                    f"variable {name!r}: states must be an integer in "
                    f"[{MIN_STATES}, {MAX_STATES}], got {json.dumps(n)}"
                )
    with prefix_errors(f"{path}: "):
        try:
            profile = StateProfile(body[:, 1:], counts)
        except ShapeError as exc:  # label columns or values that disagree with the sidecar
            raise DataError(str(exc)) from None
    return profile, body[:, 0], names
