"""State labeling tests: window embedding, k-means, silhouette (against
a brute-force oracle), and full state identification on planted data."""

import math

import numpy as np
import pytest

from loadcast import labeling
from loadcast.data import SeriesFrame
from loadcast.errors import ConfigError, DataError


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


def test_state_profile_rejects_out_of_range_labels():
    from loadcast.errors import ShapeError

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
