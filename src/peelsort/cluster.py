"""Partitioning projected events into neuron candidates.

Three interchangeable methods: plain K-means, a full-covariance Gaussian
mixture fitted by EM, and bagged clustering (K-means on bootstrap
resamples, pooled centers regrouped by average-linkage hierarchical
clustering).  All are deterministic given (points, K, seed).  Clusters are
then relabeled in a canonical order: descending L1 norm of the cluster's
point-wise median waveform, computed in full waveform space so orderings
stay comparable across projection depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.special import logsumexp

from .errors import ParameterError
from .events import EventSample
from .ingest import write_csv

KMEANS_MAX_ITER = 300
EM_MAX_ITER = 500
EM_TOL_PER_POINT = 1e-8
COV_REG_FACTOR = 1e-6

METHODS = ("kmeans", "gmm", "bagged")


@dataclass
class ClusterResult:
    """Labels in [0, K) plus the centers that produced them.

    ``n_pruned`` counts clusters that ended up empty (or, for GMM,
    vanishing-weight components) and were removed with relabeling.
    ``pooled_centers`` keeps the pre-grouping bootstrap centers for the
    bagged method, for diagnostics.
    """

    labels: np.ndarray
    centers: np.ndarray
    method: str
    K: int
    n_pruned: int = 0
    pooled_centers: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.K):
            raise ParameterError("labels must lie in [0, K)")

    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.K)


@dataclass
class GmmModel:
    """Full-covariance Gaussian mixture.

    ``log_likelihood`` is the total (summed over points) at the final
    EM iteration.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    log_likelihood: float
    ll_trace: np.ndarray | None = None

    @property
    def K(self) -> int:
        return self.weights.size


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ParameterError(f"expected an (n, k) point matrix, got shape {pts.shape}")
    return pts


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _seed_centers(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each new center drawn with probability ~ D^2."""
    n = points.shape[0]
    centers = np.empty((K, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, K):
        total = d2.sum()
        if total <= 0:
            # remaining points coincide with chosen centers; fall back to uniform
            centers[j] = points[rng.integers(n)]
        else:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    labels = np.argmin(_sq_dists(points, centers), axis=1)
    for _ in range(KMEANS_MAX_ITER):
        for j in range(centers.shape[0]):
            members = points[labels == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
        new_labels = np.argmin(_sq_dists(points, centers), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    wcss = float(np.sum((points - centers[labels]) ** 2))
    return labels, centers, wcss


def _drop_empty(labels: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    present = np.unique(labels)
    if present.size == centers.shape[0]:
        return labels.astype(np.int64), centers, 0
    relabeled = np.searchsorted(present, labels).astype(np.int64)
    return relabeled, centers[present], centers.shape[0] - present.size


def kmeans(points, K: int, seed: int, restarts: int = 10) -> ClusterResult:
    """Best of `restarts` k-means++-seeded Lloyd runs, by within-cluster
    sum of squares.  Ties keep the lowest replicate index."""
    pts = _as_points(points)
    n = pts.shape[0]
    if not 1 <= K <= n:
        raise ParameterError(f"K must satisfy 1 <= K <= {n}, got {K}")
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    children = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    for child in children:
        rng = np.random.default_rng(child)
        labels, centers, wcss = _lloyd(pts, _seed_centers(pts, K, rng))
        if best is None or wcss < best[2]:
            best = (labels, centers, wcss)
    labels, centers, _ = best
    labels, centers, n_pruned = _drop_empty(labels, centers)
    return ClusterResult(labels=labels, centers=centers, method="kmeans",
                         K=centers.shape[0], n_pruned=n_pruned)


def _log_gaussians(points: np.ndarray, means: np.ndarray,
                   covariances: np.ndarray) -> np.ndarray:
    """Per-component Gaussian log-densities, shape (n, K)."""
    n, k = points.shape
    out = np.empty((n, means.shape[0]))
    for j in range(means.shape[0]):
        chol = np.linalg.cholesky(covariances[j])
        diff = points - means[j]
        # solve L y = diff^T, then |y|^2 is the Mahalanobis distance
        y = np.linalg.solve(chol, diff.T)
        maha = np.sum(y * y, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, j] = -0.5 * (k * np.log(2.0 * np.pi) + logdet + maha)
    return out


def gmm_em(points, K: int, seed: int, restarts: int = 10) -> tuple[GmmModel, ClusterResult]:
    """EM on a full-covariance mixture, initialized from a k-means run.

    Covariance diagonals are regularized by 1e-6 times the mean feature
    variance each M-step.  Iteration stops when the log-likelihood gain
    falls below 1e-8 per point, or after 500 iterations.  Components whose
    weight drops below 1/(10n) are pruned and counted in
    ``ClusterResult.n_pruned``.
    """
    pts = _as_points(points)
    n, k = pts.shape
    if not 1 <= K <= n:
        raise ParameterError(f"K must satisfy 1 <= K <= {n}, got {K}")
    reg = COV_REG_FACTOR * float(np.mean(np.var(pts, axis=0)))
    if reg <= 0:
        reg = COV_REG_FACTOR
    init = kmeans(pts, K, seed=seed, restarts=restarts)
    K_eff = init.K
    weights = init.counts().astype(np.float64) / n
    means = init.centers.copy()
    covariances = np.empty((K_eff, k, k))
    global_cov = np.cov(pts, rowvar=False).reshape(k, k)
    for j in range(K_eff):
        members = pts[init.labels == j]
        if members.shape[0] >= 2:
            diff = members - means[j]
            covariances[j] = diff.T @ diff / members.shape[0]
        else:
            covariances[j] = global_cov
        covariances[j][np.diag_indices(k)] += reg

    ll_prev = -np.inf
    trace = []
    for _ in range(EM_MAX_ITER):
        # E-step
        log_joint = _log_gaussians(pts, means, covariances) + np.log(weights)
        log_norm = logsumexp(log_joint, axis=1)
        resp = np.exp(log_joint - log_norm[:, None])
        ll = float(log_norm.sum())
        trace.append(ll)
        # M-step; the count floor keeps a dying component finite until pruning
        counts = np.maximum(resp.sum(axis=0), 1e-12)
        weights = counts / n
        means = (resp.T @ pts) / counts[:, None]
        for j in range(means.shape[0]):
            diff = pts - means[j]
            covariances[j] = (resp[:, j, None] * diff).T @ diff / counts[j]
            covariances[j][np.diag_indices(k)] += reg
        if ll - ll_prev < EM_TOL_PER_POINT * n:
            ll_prev = ll
            break
        ll_prev = ll

    keep = np.flatnonzero(weights >= 1.0 / (10.0 * n))
    n_pruned = weights.size - keep.size
    if keep.size == 0:
        raise ParameterError("every mixture component degenerated")
    weights = weights[keep] / weights[keep].sum()
    means = means[keep]
    covariances = covariances[keep]
    log_joint = _log_gaussians(pts, means, covariances) + np.log(weights)
    ll_final = float(logsumexp(log_joint, axis=1).sum())
    labels = np.argmax(log_joint, axis=1)
    labels, centers, n_empty = _drop_empty(labels, means.copy())
    model = GmmModel(weights=weights, means=means, covariances=covariances,
                     log_likelihood=ll_final, ll_trace=np.array(trace))
    result = ClusterResult(labels=labels, centers=centers, method="gmm",
                           K=centers.shape[0], n_pruned=n_pruned + n_empty)
    return model, result


def bagged_cluster(points, K: int, B: int, seed: int) -> ClusterResult:
    """K-means on B bootstrap resamples; pooled centers are regrouped by
    average-linkage hierarchical clustering cut at K, and each point takes
    the label of its nearest group-mean center."""
    pts = _as_points(points)
    n = pts.shape[0]
    if not 1 <= K <= n:
        raise ParameterError(f"K must satisfy 1 <= K <= {n}, got {K}")
    if B < 1:
        raise ParameterError(f"bootstrap count must be >= 1, got {B}")
    root = np.random.SeedSequence(seed)
    pooled = []
    for child in root.spawn(B):
        rng = np.random.default_rng(child)
        resample = pts[rng.integers(0, n, n)]
        sub_seed = int(child.generate_state(1)[0])
        pooled.append(kmeans(resample, min(K, resample.shape[0]),
                             seed=sub_seed, restarts=1).centers)
    pooled = np.vstack(pooled)
    if pooled.shape[0] > K:
        groups = fcluster(linkage(pooled, method="average"), t=K, criterion="maxclust")
    else:
        groups = np.arange(1, pooled.shape[0] + 1)
    centers = np.vstack([pooled[groups == g].mean(axis=0)
                         for g in np.unique(groups)])
    labels = np.argmin(_sq_dists(pts, centers), axis=1)
    labels, centers, n_pruned = _drop_empty(labels, centers)
    return ClusterResult(labels=labels, centers=centers, method="bagged",
                         K=centers.shape[0], n_pruned=n_pruned,
                         pooled_centers=pooled)


def order_clusters(result: ClusterResult, sample: EventSample) -> ClusterResult:
    """Relabel clusters by descending L1 norm of their point-wise median
    waveform (full waveform space, not projection space).  Ties keep the
    original label order."""
    if len(sample) != result.labels.size:
        raise ParameterError(
            f"labels ({result.labels.size}) do not align with events ({len(sample)})")
    flat = sample.cuts.reshape(len(sample), -1)
    sizes = np.empty(result.K)
    for j in range(result.K):
        members = flat[result.labels == j]
        sizes[j] = np.abs(np.median(members, axis=0)).sum()
    order = np.argsort(-sizes, kind="stable")
    remap = np.empty(result.K, dtype=np.int64)
    remap[order] = np.arange(result.K)
    return ClusterResult(labels=remap[result.labels], centers=result.centers[order],
                         method=result.method, K=result.K, n_pruned=result.n_pruned,
                         pooled_centers=result.pooled_centers)


def export_labels(result: ClusterResult, event_refs: np.ndarray, path) -> None:
    """CSV with one row per event: event_ref, cluster label."""
    write_csv(path, ["event_ref", "cluster"],
              zip(np.asarray(event_refs).tolist(), result.labels.tolist()))
