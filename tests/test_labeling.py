"""State labeling tests: window embedding, k-means, silhouette (against
a brute-force oracle), and full state identification on planted data."""

import math
import tracemalloc

import numpy as np
import pytest

from loadcast import labeling
from loadcast.data import SeriesFrame
from loadcast.errors import ConfigError, DataError, ShapeError
from loadcast.pipeline import RunConfig


def one_var_frame(series):
    series = np.asarray(series, dtype=np.float64)
    ts = 3600 * np.arange(len(series))
    return SeriesFrame(ts, series[:, None], ["x"])


def brute_silhouette(rows, assignments):
    """Textbook O(n^2) definition, scalar loops only."""
    n = len(rows)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if assignments[j] == assignments[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(math.dist(rows[i], rows[j]) for j in own) / len(own)
        bs = []
        for c in set(assignments) - {assignments[i]}:
            members = [j for j in range(n) if assignments[j] == c]
            bs.append(sum(math.dist(rows[i], rows[j]) for j in members) / len(members))
        b = min(bs)
        m = max(a, b)
        scores.append(0.0 if m == 0 else (b - a) / m)
    return sum(scores) / n


def planted_square_wave(levels, dwell, reps, sigma=0.0, seed=0):
    """Blocky series cycling through levels with fixed dwell."""
    rng = np.random.default_rng(seed)
    blocks = []
    states = []
    for _ in range(reps):
        for s, level in enumerate(levels):
            blocks.append(np.full(dwell, level))
            states.append(np.full(dwell, s))
    series = np.concatenate(blocks) + rng.normal(0, sigma, size=dwell * len(levels) * reps)
    return series, np.concatenate(states)


def test_embed_windows_rule_example():
    out = labeling.embed_windows(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    np.testing.assert_array_equal(out, [[1, 2], [2, 3], [3, 4], [3, 4]])


def test_embed_windows_full_length_window():
    out = labeling.embed_windows(np.array([1.0, 2.0, 3.0]), 3)
    np.testing.assert_array_equal(out, [[1, 2, 3]] * 3)


def test_embed_windows_constant_series():
    out = labeling.embed_windows(np.full(6, 2.5), 3)
    assert (out == 2.5).all() and out.shape == (6, 3)


def test_embed_windows_rejects_too_wide():
    with pytest.raises(ConfigError, match="exceeds series length"):
        labeling.embed_windows(np.ones(3), 4)


def test_kmeans_single_cluster_centroid_is_mean():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(12, 3))
    result = labeling.kmeans(rows, 1, seed=0)
    assert set(result.assignments) == {0}
    np.testing.assert_allclose(result.centroids[0], rows.mean(axis=0))


def test_kmeans_recovers_planted_partition():
    rng = np.random.default_rng(1)
    rows = np.vstack([rng.normal(0, 0.2, (25, 4)), rng.normal(10, 0.2, (25, 4))])
    result = labeling.kmeans(rows, 2, seed=3)
    first, second = result.assignments[:25], result.assignments[25:]
    assert len(set(first)) == 1 and len(set(second)) == 1 and first[0] != second[0]


def test_kmeans_inertia_non_increasing():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(80, 5))
    result = labeling.kmeans(rows, 4, seed=1)
    hist = result.inertia_history
    assert all(later <= earlier * (1 + 1e-9) for earlier, later in zip(hist, hist[1:]))
    assert result.inertia == hist[-1]


def test_kmeans_rejects_k_above_distinct_rows():
    rows = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ConfigError, match="distinct"):
        labeling.kmeans(rows, 3, seed=0)


def test_kmeans_deterministic_under_seed():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(40, 3))
    a = labeling.kmeans(rows, 3, seed=11)
    b = labeling.kmeans(rows, 3, seed=11)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def _sq_dists(a, b):
    d = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def kmeans_per_cluster(rows, k, seed, max_iter=100):
    """k-means as it was written with one pass per cluster: row norms on
    every distance call, an emptiness check per cluster on every pass,
    and each centroid a masked .mean. Returns (assignments, centroids,
    inertia history, iterations, whether a cluster was reseeded)."""
    rng = np.random.default_rng(seed)
    n = rows.shape[0]
    centroids = np.empty((k, rows.shape[1]))
    centroids[0] = rows[int(rng.integers(n))]
    sq = _sq_dists(rows, centroids[:1]).ravel()
    for j in range(1, k):
        total = sq.sum()
        nxt = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=sq / total))
        centroids[j] = rows[nxt]
        sq = np.minimum(sq, _sq_dists(rows, centroids[j : j + 1]).ravel())
    assignments = np.full(n, -1, dtype=np.int64)
    history, reseeded = [], False
    for n_iter in range(1, max_iter + 1):
        sq = _sq_dists(rows, centroids)
        new_assign = sq.argmin(axis=1)
        point_sq = sq[np.arange(n), new_assign]
        for c in range(k):
            if not (new_assign == c).any():
                reseeded = True
                centroids[c] = rows[int(point_sq.argmax())]
                sq[:, c] = _sq_dists(rows, centroids[c : c + 1]).ravel()
                new_assign = sq.argmin(axis=1)
                point_sq = sq[np.arange(n), new_assign]
        history.append(float(point_sq.sum()))
        if (new_assign == assignments).all():
            assignments = new_assign
            break
        assignments = new_assign
        for c in range(k):
            centroids[c] = rows[assignments == c].mean(axis=0)
    return assignments, centroids, history, n_iter, reseeded


def assert_kmeans_matches_per_cluster(rows, k, seed):
    result = labeling.kmeans(rows, k, seed=seed)
    assignments, centroids, history, n_iter, reseeded = kmeans_per_cluster(rows, k, seed)
    np.testing.assert_array_equal(result.assignments, assignments)
    assert result.centroids.tobytes() == centroids.tobytes()
    assert [h.hex() for h in result.inertia_history] == [h.hex() for h in history]
    assert result.n_iter == n_iter
    return reseeded


@pytest.mark.parametrize("dim", [1, 2, 4, 9])
def test_kmeans_equals_the_per_cluster_loop_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    for trial in range(4):
        rows = rng.normal(size=(int(rng.integers(50, 400)), dim)) * 10.0 ** rng.integers(-3, 4)
        for k in range(2, 6):
            assert_kmeans_matches_per_cluster(rows, k, seed=trial)
    series, _ = planted_square_wave([0.0, 2.0, 5.0], dwell=6, reps=10, sigma=0.3, seed=dim)
    windows = labeling.embed_windows(series, dim)
    for k in range(2, 6):
        assert_kmeans_matches_per_cluster(windows, k, seed=dim)


def test_kmeans_reseeds_an_emptied_cluster_as_the_per_cluster_loop_did():
    # rows 1e8 from the origin and 1e-4 apart: the distances' cancellation
    # puts points nearer another centroid, and a pass leaves a cluster empty
    rng = np.random.default_rng(1)
    rows = 1e8 + np.vstack([
        rng.normal(scale=1e-4, size=(5, 2)),
        rng.normal(scale=1e-3, size=(5, 2)) + 0.01,
        rng.normal(size=(5, 2)) + 5.0,
    ])
    assert assert_kmeans_matches_per_cluster(rows, 3, seed=0)


def test_silhouette_tight_far_pairs():
    rows = np.array([[0.0], [0.1], [10.0], [10.1]])
    score = labeling.silhouette(rows, np.array([0, 0, 1, 1]))
    assert score > 0.95
    assert abs(score - brute_silhouette(rows.tolist(), [0, 0, 1, 1])) < 1e-12


def test_silhouette_identical_points_degenerate_zero():
    rows = np.ones((6, 2))
    score = labeling.silhouette(rows, np.array([0, 0, 0, 1, 1, 1]))
    assert score == 0.0


def test_silhouette_requires_two_clusters():
    with pytest.raises(ConfigError, match=">= 2 clusters"):
        labeling.silhouette(np.ones((4, 1)), np.zeros(4, dtype=int))


@pytest.mark.parametrize("seed", range(8))
def test_silhouette_equals_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 60))
    k = int(rng.integers(2, 6))
    rows = rng.normal(scale=rng.uniform(0.5, 20), size=(n, int(rng.integers(1, 6))))
    assignments = rng.integers(0, k, size=n)
    if len(set(assignments)) < 2:
        assignments[0], assignments[1] = 0, 1
    ours = labeling.silhouette(rows, assignments)
    ref = brute_silhouette(rows.tolist(), assignments.tolist())
    assert abs(ours - ref) < 1e-12


def test_silhouette_with_precomputed_dists_is_bit_identical():
    rng = np.random.default_rng(21)
    rows = rng.normal(scale=7.0, size=(90, 4))
    for k in range(2, 6):
        assignments = rng.integers(0, k, size=90)
        ours = labeling.silhouette(rows, assignments, dist=labeling._exact_dists(rows))
        assert ours == labeling.silhouette(rows, assignments)


def test_silhouette_rejects_mis_shaped_dists():
    rows = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ShapeError, match="distance matrix"):
        labeling.silhouette(rows, np.array([0, 0, 1, 1]), dist=np.zeros((3, 3)))


def parent_exact_dists(rows):
    """Reference: each chunk broadcasts (chunk, n, w) differences and sums
    the last axis with numpy's pairwise sum."""
    n, dim = rows.shape
    out = np.empty((n, n))
    chunk = max(1, (1 << 22) // max(1, n * dim))
    for start in range(0, n, chunk):
        block = rows[start : start + chunk]
        d2 = ((block[:, None, :] - rows[None, :, :]) ** 2).sum(axis=-1)
        out[start : start + chunk] = np.sqrt(d2)
    return out


def parent_silhouette(rows, assignments):
    """Reference: silhouette with per-cluster sums over column masks."""
    n = rows.shape[0]
    labels, counts = np.unique(assignments, return_counts=True)
    dist = parent_exact_dists(rows)
    np.fill_diagonal(dist, 0.0)
    sums = np.zeros((n, labels.size))
    for j, lab in enumerate(labels):
        sums[:, j] = dist[:, assignments == lab].sum(axis=1)
    scores = np.zeros(n)
    for j, lab in enumerate(labels):
        members = assignments == lab
        if counts[j] == 1:
            continue
        a = sums[members, j] / (counts[j] - 1)
        other = np.ones(labels.size, dtype=bool)
        other[j] = False
        b = (sums[members][:, other] / counts[other]).min(axis=1)
        denom = np.maximum(a, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(denom > 0, (b - a) / denom, 0.0)
        scores[members] = s
    return float(scores.mean())


@pytest.mark.parametrize("w", [1, 2, 4, 7, 8, 9, 16, 24, 128, 129, 130, 260])
def test_exact_dists_bit_identical_to_parent_for_every_width(w):
    # the widths cover each branch of numpy's pairwise sum: sequential
    # below 8, eight partial sums up to 128, a halving split above
    rng = np.random.default_rng(w)
    rows = rng.normal(scale=rng.uniform(0.1, 50.0), size=(75, w))
    dist = labeling._exact_dists(rows)
    assert np.array_equal(dist, parent_exact_dists(rows))
    assert np.array_equal(dist, dist.T)
    assert (np.diag(dist) == 0.0).all()


def block_edge_sizes():
    # n rows fill exactly one row block at n = isqrt(_BLOCK_ELEMS)
    edge = math.isqrt(labeling._BLOCK_ELEMS)
    return [1, 2, edge - 1, edge, edge + 1, 2048]


@pytest.mark.parametrize("n", block_edge_sizes())
def test_exact_dists_bit_identical_to_parent_at_block_edges(n):
    rng = np.random.default_rng(n)
    for w in (4, 24):
        rows = rng.normal(scale=3.0, size=(n, w))
        rows[n // 2] = rows[0]  # repeated windows, as in flat load series
        dist = labeling._exact_dists(rows)
        assert np.array_equal(dist, parent_exact_dists(rows))
        assert np.array_equal(dist, dist.T)


def test_exact_dists_peak_memory_is_the_output_plus_block_buffers():
    n, w = labeling.SILHOUETTE_CAP, 24
    rows = np.random.default_rng(5).normal(size=(n, w))
    tracemalloc.start()
    try:
        dist = labeling._exact_dists(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dist.nbytes + (8 << 20)


@pytest.mark.parametrize("k", range(2, 6))
def test_silhouette_bit_identical_to_column_mask_sums(k):
    rng = np.random.default_rng(50 + k)
    n = 301
    rows = rng.normal(scale=4.0, size=(n, 4))
    assignments = rng.integers(0, k - 1, size=n)
    assignments[n // 3] = k - 1  # a singleton cluster
    assert labeling.silhouette(rows, assignments) == parent_silhouette(rows, assignments)
    rows_24 = rng.normal(size=(n, 24))
    dist = labeling._exact_dists(rows_24)
    ours = labeling.silhouette(rows_24, assignments, dist=dist)
    assert ours == parent_silhouette(rows_24, assignments)


def test_identify_states_constant_variable_is_data_error_naming_it():
    series, _ = planted_square_wave([0.0, 4.0], dwell=20, reps=4, sigma=0.2, seed=3)
    frame = SeriesFrame(
        3600 * np.arange(len(series)), np.stack([series, np.zeros_like(series)], axis=1), ["on", "off"]
    )
    with pytest.raises(DataError, match="variable 'off': 1 distinct"):
        labeling.identify_states(frame, w=4, seed=3)


def test_identify_states_scores_k_only_up_to_distinct_windows(monkeypatch):
    series = np.zeros(60)
    series[0] = 3.0  # windows: the one holding the spike, and all zeros
    scored = []
    kmeans = labeling.kmeans

    def recording(embedding, k, seed, max_iter=100, n_distinct=None):
        scored.append((k, n_distinct))
        return kmeans(embedding, k, seed, max_iter, n_distinct)

    monkeypatch.setattr(labeling, "kmeans", recording)
    profile = labeling.identify_states(one_var_frame(series), w=4, seed=0)
    assert scored == [(2, 2)] and profile.counts[0] == 2
    assert profile.labels[0, 0] == 1 and (profile.labels[1:, 0] == 0).all()


def align_labels(pred, true, k):
    """Best label permutation agreement (k <= 5 so brute force is fine)."""
    from itertools import permutations

    best = 0.0
    for perm in permutations(range(k)):
        mapped = np.asarray(perm)[pred]
        best = max(best, float((mapped == true).mean()))
    return best


def test_identify_states_planted_three_levels():
    series, states = planted_square_wave([0.0, 5.0, 10.0], dwell=100, reps=6, sigma=0.5, seed=4)
    frame = one_var_frame(series)
    profile = labeling.identify_states(frame, w=4, seed=4)
    assert profile.counts[0] == 3
    assert align_labels(profile.labels[:, 0], states, 3) >= 0.95


def test_identify_states_binary_square_wave():
    series, _ = planted_square_wave([0.0, 8.0], dwell=100, reps=8, sigma=0.8, seed=5)
    profile = labeling.identify_states(one_var_frame(series), w=4, seed=5)
    assert profile.counts[0] == 2


def test_identify_states_deterministic():
    series, _ = planted_square_wave([0.0, 4.0], dwell=20, reps=8, sigma=0.2, seed=6)
    frame = one_var_frame(series)
    a = labeling.identify_states(frame, w=6, seed=9)
    b = labeling.identify_states(frame, w=6, seed=9)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.counts, b.counts)


def test_identify_states_centroid_means_ascend_with_label():
    series, states = planted_square_wave([0.0, 5.0, 10.0], dwell=100, reps=6, sigma=0.5, seed=7)
    profile = labeling.identify_states(one_var_frame(series), w=4, seed=7)
    embedding = labeling.embed_windows(series, 4)
    label_means = [
        embedding[profile.labels[:, 0] == lab].mean()
        for lab in range(int(profile.counts[0]))
    ]
    assert label_means == sorted(label_means)


def test_identify_states_choice_maximizes_silhouette():
    series, _ = planted_square_wave([0.0, 6.0], dwell=30, reps=10, sigma=0.15, seed=8)
    frame = one_var_frame(series)
    profile = labeling.identify_states(frame, w=6, seed=8)
    embedding = labeling.embed_windows(series, 6)
    scores = {}
    for k in range(2, 6):
        child = np.random.SeedSequence(entropy=(8, 0, k)).generate_state(1)[0]
        result = labeling.kmeans(embedding, k, seed=int(child))
        scores[k] = labeling.silhouette(embedding, result.assignments)
    best_k = min(k for k, s in scores.items() if s == max(scores.values()))
    assert profile.counts[0] == best_k


def test_identify_states_with_silhouette_subsample_cap():
    # selection on a capped subsample must still find the planted k
    series, states = planted_square_wave([0.0, 5.0, 10.0], dwell=150, reps=5, sigma=0.5, seed=12)
    frame = one_var_frame(series)
    profile = labeling.identify_states(frame, w=4, seed=12, silhouette_cap=256)
    assert profile.counts[0] == 3
    assert align_labels(profile.labels[:, 0], states, 3) >= 0.95


def three_var_frame(length, seed):
    specs = [([0.0, 5.0, 10.0], 30), ([0.0, 4.0], 25), ([1.0, 3.0, 6.0, 9.0], 20)]
    columns = []
    for j, (levels, dwell) in enumerate(specs):
        reps = length // (dwell * len(levels)) + 1
        series, _ = planted_square_wave(levels, dwell=dwell, reps=reps, sigma=0.4, seed=seed + j)
        columns.append(series[:length])
    return SeriesFrame(3600 * np.arange(length), np.stack(columns, axis=1), ["a", "b", "c"])


def test_identify_states_builds_one_distance_matrix_per_variable(monkeypatch):
    frame = three_var_frame(300, seed=30)
    calls = []
    exact = labeling._exact_dists

    def counting(rows):
        calls.append(len(rows))
        return exact(rows)

    monkeypatch.setattr(labeling, "_exact_dists", counting)
    labeling.identify_states(frame, w=4, seed=30)
    assert calls == [300] * frame.n_variables


def per_k_identify_states(frame, w, seed, silhouette_cap, min_s=2, max_s=5):
    """Per-k oracle: every candidate k scores its own freshly built matrix."""
    l, d = frame.values.shape
    labels = np.zeros((l, d), dtype=np.int64)
    counts = np.zeros(d, dtype=np.int64)
    for i in range(d):
        embedding = labeling.embed_windows(frame.values[:, i], w)
        best_score, best, best_k = -np.inf, None, 0
        for k in range(min_s, max_s + 1):
            child = np.random.SeedSequence(entropy=(seed, i, k)).generate_state(1)[0]
            result = labeling.kmeans(embedding, k, seed=int(child))
            sub_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i, k, 1)))
            idx = labeling._selection_indices(l, silhouette_cap, sub_rng, result.assignments)
            score = labeling.silhouette(embedding[idx], result.assignments[idx])
            if score > best_score:
                best_score, best, best_k = score, result, k
        order = np.argsort(best.centroids.mean(axis=1), kind="stable")
        remap = np.empty(best_k, dtype=np.int64)
        remap[order] = np.arange(best_k)
        labels[:, i] = remap[best.assignments]
        counts[i] = best_k
    return labels, counts


@pytest.mark.parametrize("length, cap", [(700, 256), (200, 256)])
def test_identify_states_matches_per_k_oracle(length, cap):
    frame = three_var_frame(length, seed=40)
    profile = labeling.identify_states(frame, w=4, seed=40, silhouette_cap=cap)
    labels, counts = per_k_identify_states(frame, w=4, seed=40, silhouette_cap=cap)
    np.testing.assert_array_equal(profile.labels, labels)
    np.testing.assert_array_equal(profile.counts, counts)


def test_state_profile_rejects_out_of_range_labels():
    with pytest.raises(ShapeError, match="out of range"):
        labeling.StateProfile(np.array([[0, 2]]), np.array([2, 2]))


def test_states_csv_round_trip(tmp_path):
    series, _ = planted_square_wave([0.0, 3.0], dwell=10, reps=4, sigma=0.1, seed=10)
    frame = one_var_frame(series)
    profile = labeling.identify_states(frame, w=4, seed=10)
    path = tmp_path / "states.csv"
    labeling.save_states_csv(profile, frame, path)
    back, ts, names = labeling.load_states_csv(path)
    np.testing.assert_array_equal(back.labels, profile.labels)
    np.testing.assert_array_equal(back.counts, profile.counts)
    np.testing.assert_array_equal(ts, frame.timestamps)
    assert names == frame.variable_names


def test_states_csv_writes_the_exact_text_and_sidecar(tmp_path):
    values = np.array([[0.1, -0.0], [1e-300, 2.5]])
    frame = SeriesFrame(np.array([1672531200, 1672534800]), values, ["a", "b"])
    profile = labeling.StateProfile(np.array([[0, 2], [1, 0]]), [2, 3])
    path = tmp_path / "s.csv"
    labeling.save_states_csv(profile, frame, path)
    assert path.read_bytes() == b"timestamp,a,b\n1672531200,0,2\n1672534800,1,0\n"
    sidecar = (tmp_path / "s.csv.meta.json").read_bytes()
    assert sidecar == (
        b'[\n  {\n    "name": "a",\n    "states": 2\n  },\n'
        b'  {\n    "name": "b",\n    "states": 3\n  }\n]\n'
    )


@pytest.mark.parametrize(
    "meta", ["{bad", '[{"states": 2}]', '[{"name": "x"}]', '{"name": "x", "states": 2}']
)
def test_malformed_sidecar_is_data_error_naming_it(tmp_path, meta):
    frame = one_var_frame([0.0, 1.0, 0.0, 1.0])
    path = tmp_path / "states.csv"
    labeling.save_states_csv(labeling.StateProfile(np.array([[0], [1], [0], [1]]), [2]), frame, path)
    sidecar = tmp_path / "states.csv.meta.json"
    sidecar.write_text(meta, encoding="utf-8")
    with pytest.raises(DataError, match="states.csv.meta.json"):
        labeling.load_states_csv(path)


# each state CSV body under the header timestamp,x, and the message it fails with
STATE_CSV_FAULTS = {
    b"0,0\n3600,x\n": "line 3: column 'x': not an integer: 'x'",
    b"0,0\n3600,1,0\n": "line 3: expected 2 cells, got 3",
    b"0,0\n3600\n": "line 3: expected 2 cells, got 1",
    b"0,0\n\n3600,1\n": "line 3: expected 2 cells, got 0",
    b"0,0\n3600,\n": "line 3: column 'x': empty cell",
    b"0,0\n3600,1.0\n": "line 3: column 'x': not an integer: '1.0'",
    b"0,0\n3600,9223372036854775808\n": "line 3: column 'x': out of range",
    b"0,0\n1e3,1\n": "line 3: column 'timestamp': not an integer: '1e3'",
    # bytes are decoded ahead of the rows, so bad UTF-8 names no line
    b"0,0\n3600,\xff\n": "cannot parse: UnicodeDecodeError",
    # a label its sidecar's state count does not allow is found after the table is read
    b"0,0\n3600,2\n": "label 2 out of range for variable 0 with 2 states",
}


@pytest.mark.parametrize("body", list(STATE_CSV_FAULTS))
def test_malformed_state_csv_is_data_error_naming_it(tmp_path, body):
    frame = one_var_frame([0.0, 1.0])
    path = tmp_path / "states.csv"
    labeling.save_states_csv(labeling.StateProfile(np.array([[0], [1]]), [2]), frame, path)
    path.write_bytes(b"timestamp,x\n" + body)
    with pytest.raises(DataError) as err:
        labeling.load_states_csv(path)
    assert str(err.value).startswith(f"{path}: {STATE_CSV_FAULTS[body]}"), err.value


def test_state_csv_cells_are_read_as_data_csv_cells(tmp_path):
    frame = one_var_frame([0.0, 1.0])
    path = tmp_path / "states.csv"
    labeling.save_states_csv(labeling.StateProfile(np.array([[0], [1]]), [2]), frame, path)
    path.write_bytes(b'timestamp,x\n"0", 1\n3600,"1"\n')
    profile, ts, _ = labeling.load_states_csv(path)
    np.testing.assert_array_equal(profile.labels, [[1], [1]])
    np.testing.assert_array_equal(ts, [0, 3600])


@pytest.mark.parametrize("min_s, max_s", [(1, 3), (3, 2), (2, 6), (6, 7)])
def test_identify_states_searches_only_counts_a_state_csv_holds(min_s, max_s):
    """Counts above MAX_STATES were once labeled, written, and then refused
    by load_states_csv; RunConfig and identify_states share one range rule."""
    frame = one_var_frame(np.arange(40.0) % 8)
    with pytest.raises(ConfigError) as err:
        labeling.identify_states(frame, w=2, min_s=min_s, max_s=max_s)
    with pytest.raises(ConfigError) as config_err:
        RunConfig(min_s=min_s, max_s=max_s)
    assert str(err.value) == str(config_err.value)


@pytest.mark.parametrize("directory", ["states.csv", "states.csv.meta.json"])
def test_state_file_that_is_a_directory_is_data_error_naming_it(tmp_path, directory):
    frame = one_var_frame([0.0, 1.0])
    path = tmp_path / "states.csv"
    labeling.save_states_csv(labeling.StateProfile(np.array([[0], [1]]), [2]), frame, path)
    (tmp_path / directory).unlink()
    (tmp_path / directory).mkdir()
    with pytest.raises(DataError, match=f"{directory}: "):
        labeling.load_states_csv(path)
