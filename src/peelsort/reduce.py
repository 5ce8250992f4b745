"""Dimension reduction of events by principal component analysis.

Events are flattened to (channels * width)-dimensional vectors, centered on
their mean, and projected onto the leading eigenvectors of the sample
covariance.  A handful of components (4 by default) retains the structure
that separates neurons while discarding most of the noise.  The full basis
is kept on the model so callers can pick the projection depth later.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .events import EventSample
from .ingest import write_csv


@dataclass
class PcaModel:
    """Mean vector plus the principal axes of the event cloud.

    Attributes
    ----------
    mean : ndarray, shape (d,)
        Mean of the flattened training events.
    components : ndarray, shape (d, d)
        Orthonormal rows, ordered by decreasing explained variance.
    explained_variance : ndarray, shape (d,)
        Variance along each component, descending, >= 0.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def available(self) -> int:
        return self.components.shape[0]

    def explained_fraction(self, k: int) -> float:
        """Fraction of total variance captured by the first k components."""
        total = float(self.explained_variance.sum())
        if total <= 0:
            return 0.0
        return float(self.explained_variance[:k].sum() / total)


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude coordinate of each component positive.

    Eigenvectors are defined up to sign; this pins one so repeated fits
    produce identical output.  Ties take the lowest index (argmax).
    """
    out = components.copy()
    for row in out:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return out


def fit_pca(sample: EventSample) -> PcaModel:
    """Fit a PCA model to flattened events, keeping the full basis.

    Parameters
    ----------
    sample : EventSample
        Training events (superpositions should be excluded by the caller),
        flattened channel-major.
    """
    matrix = sample.cuts.reshape(len(sample), -1)
    n, d = matrix.shape
    if n < 2:
        raise ParameterError(f"PCA needs >= 2 events, got {n}")
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return PcaModel(mean=mean,
                    components=_fix_signs(eigvecs[:, order].T),
                    explained_variance=np.maximum(eigvals[order], 0.0))


def project(sample: EventSample, model: PcaModel, k: int) -> np.ndarray:
    """Coordinates of the events on the model's first k components, shape
    (events, k); row i is the event at ``sample.peaks[i]``."""
    if not 1 <= k <= model.available:
        raise ParameterError(f"component count must satisfy 1 <= k <= {model.available}, got {k}")
    matrix = sample.cuts.reshape(len(sample), -1)
    if matrix.shape[1] != model.mean.size:
        raise ParameterError(
            f"event dimension {matrix.shape[1]} does not match model dimension {model.mean.size}")
    return (matrix - model.mean) @ model.components[:k].T


def reconstruct(model: PcaModel, coords: np.ndarray) -> np.ndarray:
    """Map reduced coordinates back to flattened waveform space."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or not 1 <= coords.shape[1] <= model.available:
        raise ParameterError(f"expected (n, <= {model.available}) coordinates, got {coords.shape}")
    return coords @ model.components[:coords.shape[1]] + model.mean


def export_projections(coords: np.ndarray, event_refs: np.ndarray, path) -> None:
    """CSV with one row per event: event_ref then one column per component."""
    write_csv(path, ["event_ref"] + [f"pc{i + 1}" for i in range(coords.shape[1])],
              ([ref] + row for ref, row in zip(np.asarray(event_refs).tolist(), coords.tolist())))


def export_scatter_pairs(coords: np.ndarray, event_refs: np.ndarray, directory) -> None:
    """One CSV per component pair (i < j) for scatter-matrix plotting."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    refs = np.asarray(event_refs).tolist()
    for i in range(coords.shape[1]):
        for j in range(i + 1, coords.shape[1]):
            write_csv(directory / f"pc{i + 1}_pc{j + 1}.csv",
                      ["event_ref", f"pc{i + 1}", f"pc{j + 1}"],
                      zip(refs, coords[:, i].tolist(), coords[:, j].tolist()))
