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

from .errors import DataFormatError, ParameterError
from .events import EventSample
from .ingest import read_csv, write_csv


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


@dataclass
class ProjectedEvents:
    """Coordinates of events in the reduced space, one row per event.

    ``event_refs`` are the peak indices of the source events, so rows can
    be traced back to positions in the recording.
    """

    coords: np.ndarray
    event_refs: np.ndarray

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]


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


def project(sample: EventSample, model: PcaModel, k: int) -> ProjectedEvents:
    """Project events onto the model's first k components."""
    if not 1 <= k <= model.available:
        raise ParameterError(f"component count must satisfy 1 <= k <= {model.available}, got {k}")
    matrix = sample.cuts.reshape(len(sample), -1)
    if matrix.shape[1] != model.mean.size:
        raise ParameterError(
            f"event dimension {matrix.shape[1]} does not match model dimension {model.mean.size}")
    coords = (matrix - model.mean) @ model.components[:k].T
    return ProjectedEvents(coords=coords, event_refs=sample.peaks)


def reconstruct(model: PcaModel, coords: np.ndarray) -> np.ndarray:
    """Map reduced coordinates back to flattened waveform space."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or not 1 <= coords.shape[1] <= model.available:
        raise ParameterError(f"expected (n, <= {model.available}) coordinates, got {coords.shape}")
    return coords @ model.components[:coords.shape[1]] + model.mean


def _projection_header(k: int) -> list[str]:
    return ["event_ref"] + [f"pc{i + 1}" for i in range(k)]


def export_projections(pe: ProjectedEvents, path) -> None:
    """CSV with one row per event: event_ref then one column per component."""
    write_csv(path, _projection_header(pe.k),
              ([ref] + row for ref, row in zip(pe.event_refs.tolist(), pe.coords.tolist())))


def load_projections(path) -> ProjectedEvents:
    """Read a CSV written by export_projections."""
    rows = read_csv(path, lambda columns: _projection_header(columns - 1))
    try:
        refs = [int(row[0]) for row in rows]
        coords = [[float(v) for v in row[1:]] for row in rows]
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad value ({exc})") from exc
    return ProjectedEvents(coords=np.array(coords, dtype=np.float64),
                           event_refs=np.array(refs, dtype=np.int64))


def export_scatter_pairs(pe: ProjectedEvents, directory) -> list[Path]:
    """One CSV per component pair (i < j) for scatter-matrix plotting."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(pe.k):
        for j in range(i + 1, pe.k):
            path = directory / f"pc{i + 1}_pc{j + 1}.csv"
            write_csv(path, ["event_ref", f"pc{i + 1}", f"pc{j + 1}"],
                      zip(pe.event_refs.tolist(), pe.coords[:, i].tolist(),
                          pe.coords[:, j].tolist()))
            written.append(path)
    return written
