"""K-means, mixture EM, bagged clustering and canonical ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (hungarian_agreement, kmeans_reference, sample_from_matrix,
                      truth_partition)
from peelsort.cluster import (ClusterResult, bagged_cluster, export_labels,
                              gmm_em, kmeans, order_clusters)
from peelsort.errors import ParameterError


def two_blobs(n_per=100, separation=10.0, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, dim))
    b = rng.standard_normal((n_per, dim))
    a[:, 0] -= separation
    b[:, 0] += separation
    points = np.vstack([a, b])
    truth = np.repeat([0, 1], n_per)
    return points, truth


# --- kmeans ---

def test_kmeans_k_equals_n():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((8, 3))
    result = kmeans(points, 8, seed=0)
    assert sorted(result.labels) == list(range(8))
    wcss = sum(np.sum((points[i] - result.centers[result.labels[i]]) ** 2)
               for i in range(8))
    assert wcss == pytest.approx(0.0, abs=1e-18)


def test_kmeans_k_one_is_centroid():
    rng = np.random.default_rng(2)
    points = rng.standard_normal((50, 4))
    result = kmeans(points, 1, seed=0)
    assert np.allclose(result.centers[0], points.mean(axis=0), atol=1e-9)
    assert np.all(result.labels == 0)


def test_kmeans_separates_blobs():
    points, truth = two_blobs(seed=3)
    result = kmeans(points, 2, seed=0)
    assert hungarian_agreement(result.labels, truth) >= int(0.99 * len(truth))


def test_kmeans_nearest_center_postcondition():
    points, _ = two_blobs(seed=4)
    result = kmeans(points, 2, seed=0)
    dists = ((points[:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(result.labels, np.argmin(dists, axis=1))


def test_kmeans_validation_and_determinism():
    points, _ = two_blobs(seed=5)
    with pytest.raises(ParameterError):
        kmeans(points, len(points) + 1, seed=0)
    with pytest.raises(ParameterError):
        kmeans(points, 2, seed=0, restarts=0)
    a = kmeans(points, 2, seed=9)
    b = kmeans(points, 2, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)


@st.composite
def grid_points(draw):
    """Points on an integer grid, some drawn many times, so that distances
    and within-cluster sums of squares tie exactly; optionally scaled off
    the grid so that the sums round."""
    d = draw(st.integers(1, 10))
    distinct = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                             min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=24))
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.5e3]))
    return np.array([distinct[i] for i in picks], dtype=float) * scale


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kmeans_equals_point_by_point_reference(data):
    points = data.draw(grid_points())
    K = data.draw(st.integers(1, len(points)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    restarts = data.draw(st.integers(1, 3))
    result = kmeans(points, K, seed=seed, restarts=restarts)
    labels, centers, n_pruned = kmeans_reference(points, K, seed, restarts)
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.centers, centers)
    assert result.n_pruned == n_pruned


@pytest.mark.parametrize("dim", [2, 4, 7, 10])
def test_kmeans_centers_are_member_means_bit_for_bit(dim):
    # the per-coordinate bincount sums rows in index order, as mean(axis=0)
    # does on an (m, d >= 2) array; a single column is summed pairwise
    rng = np.random.default_rng(dim)
    points = np.vstack([rng.standard_normal((300, dim)) * rng.uniform(0.1, 50.0, dim) + shift
                        for shift in (-20.0, 0.0, 20.0)])
    result = kmeans(points, 3, seed=dim, restarts=2)
    for j in range(result.K):
        assert np.array_equal(result.centers[j], points[result.labels == j].mean(axis=0))


@pytest.mark.parametrize("seed, tied", [(3, 1), (9, 2)])
def test_kmeans_tie_goes_to_the_lower_label(seed, tied):
    # these seeds end with centers (2, 0) and (1, 3): the point `tied` lies
    # at distance 1 from both, and takes label 0 whichever side it is on
    points = np.arange(4.0)[:, None]
    result = kmeans(points, 2, seed=seed, restarts=1)
    dists = (points - result.centers.T) ** 2
    assert dists[tied, 0] == dists[tied, 1] == 1.0
    assert result.labels[tied] == 0


# --- gmm ---

def test_gmm_single_gaussian_recovers_mean():
    rng = np.random.default_rng(6)
    true_mean = np.array([3.0, -1.0])
    points = true_mean + rng.standard_normal((400, 2))
    model, result = gmm_em(points, 1, seed=0)
    assert np.all(np.abs(model.means[0] - true_mean) <= 3.0 / np.sqrt(400))
    assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert result.K == 1


def test_gmm_log_likelihood_monotone():
    points, _ = two_blobs(n_per=80, separation=4.0, seed=7)
    model, _ = gmm_em(points, 2, seed=0)
    assert len(model.ll_trace) >= 2
    assert np.all(np.diff(model.ll_trace) >= -1e-10)


def test_gmm_matches_kmeans_on_separated_blobs():
    points, truth = two_blobs(seed=8)
    _, from_gmm = gmm_em(points, 2, seed=0)
    from_kmeans = kmeans(points, 2, seed=0)
    agree = hungarian_agreement(from_gmm.labels, from_kmeans.labels)
    assert agree == len(truth)


def test_gmm_weights_simplex_and_covariances_pd():
    points, _ = two_blobs(seed=9)
    model, _ = gmm_em(points, 2, seed=0)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    for cov in model.covariances:
        np.linalg.cholesky(cov)  # raises if not PD


def test_gmm_determinism():
    points, _ = two_blobs(seed=10)
    a, ra = gmm_em(points, 2, seed=3)
    b, rb = gmm_em(points, 2, seed=3)
    assert np.array_equal(ra.labels, rb.labels)
    assert a.log_likelihood == b.log_likelihood


# --- bagged ---

def test_bagged_single_replicate_is_relabelled_kmeans():
    points, _ = two_blobs(seed=11)
    result = bagged_cluster(points, 2, B=1, seed=5)
    # replay the single bootstrap replicate by hand
    child = np.random.SeedSequence(5).spawn(1)[0]
    rng = np.random.default_rng(child)
    resample = points[rng.integers(0, len(points), len(points))]
    inner = kmeans(resample, 2, seed=int(child.generate_state(1)[0]), restarts=1)
    dists = ((points[:, None, :] - inner.centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(result.labels, np.argmin(dists, axis=1))
    assert np.allclose(result.centers, inner.centers)


def test_bagged_separates_blobs():
    points, truth = two_blobs(seed=13)
    result = bagged_cluster(points, 2, B=10, seed=0)
    assert hungarian_agreement(result.labels, truth) >= int(0.99 * len(truth))


def test_bagged_determinism():
    points, _ = two_blobs(seed=14)
    a = bagged_cluster(points, 2, B=5, seed=7)
    b = bagged_cluster(points, 2, B=5, seed=7)
    assert np.array_equal(a.labels, b.labels)


# --- ordering ---

def waveform_sample(labels, big=120.0, small=80.0, width=8):
    rows = []
    for lab in labels:
        level = big if lab == 0 else small
        rows.append(np.full(width, level / width))
    return sample_from_matrix(np.asarray(rows))


def test_order_clusters_by_l1_size():
    # cluster 1 carries the L1-120 waveform, cluster 0 the L1-80 one
    labels = np.array([1, 0, 1, 0, 0])
    rows = np.array([[15.0] * 8, [10.0] * 8, [15.0] * 8, [10.0] * 8, [10.0] * 8])
    sample = sample_from_matrix(rows)
    result = ClusterResult(labels=labels, centers=np.zeros((2, 2)), n_pruned=0)
    ordered = order_clusters(result, sample)
    # the 15-amplitude waveform (L1 = 120) must become cluster 0
    assert np.array_equal(ordered.labels, np.array([0, 1, 0, 1, 1]))


def test_order_clusters_preserves_size_multiset():
    rng = np.random.default_rng(15)
    rows = rng.standard_normal((30, 8)) * 5
    labels = rng.integers(0, 3, 30)
    result = ClusterResult(labels=labels, centers=np.zeros((3, 2)), n_pruned=0)
    ordered = order_clusters(result, sample_from_matrix(rows))
    assert sorted(np.bincount(ordered.labels)) == sorted(np.bincount(labels))


def test_order_clusters_idempotent_and_permutation_covariant():
    rng = np.random.default_rng(16)
    rows = np.vstack([rng.standard_normal((10, 8)) + 6,
                      rng.standard_normal((10, 8)),
                      rng.standard_normal((10, 8)) - 3])
    sample = sample_from_matrix(rows)
    labels = np.repeat([2, 0, 1], 10)
    centers = rng.standard_normal((3, 2))
    result = ClusterResult(labels=labels, centers=centers, n_pruned=0)
    once = order_clusters(result, sample)
    twice = order_clusters(once, sample)
    assert np.array_equal(once.labels, twice.labels)

    perm = np.array([1, 2, 0])
    permuted = ClusterResult(labels=perm[labels], centers=centers[np.argsort(perm)],
                             n_pruned=0)
    again = order_clusters(permuted, sample)
    assert np.array_equal(again.labels, once.labels)


def test_locust_cluster_zero_is_largest_waveform(locust_run):
    truth = locust_run["truth"]
    clean = locust_run["clean"]
    keep = locust_run["keep"]
    result = locust_run["result"]
    # generator ids are sorted by descending template size, so the ordered
    # cluster 0 must collect events of true neuron 0
    truth_ids = truth_partition(truth, locust_run["sample"], keep)
    members = truth_ids[result.labels == 0]
    members = members[members >= 0]
    assert members.size >= 3
    assert np.median(members) == 0


def test_export_labels(tmp_path):
    result = ClusterResult(labels=np.array([1, 0]), centers=np.zeros((2, 2)), n_pruned=0)
    path = tmp_path / "labels.csv"
    export_labels(result, np.array([500, 700]), path)
    assert path.read_text() == "event_ref,cluster\n500,1\n700,0\n"


def test_cluster_result_counts_one_cluster_per_center():
    result = ClusterResult(labels=np.array([0, 2, 1]), centers=np.zeros((3, 2)))
    assert result.K == 3 and result.counts().tolist() == [1, 1, 1]
    with pytest.raises(ParameterError, match=r"\[0, K\)"):
        ClusterResult(labels=np.array([0, 2]), centers=np.zeros((2, 2)))
