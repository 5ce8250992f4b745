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
from .ingest import atomic_write_text


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


def _flatten(data) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(data, EventSample):
        return data.cuts.reshape(len(data), -1), data.peaks
    matrix = np.asarray(data, dtype=np.float64)
    if matrix.ndim != 2:
        raise ParameterError(f"expected a 2-D event matrix, got ndim={matrix.ndim}")
    return matrix, np.arange(matrix.shape[0], dtype=np.int64)


def fit_pca(sample) -> PcaModel:
    """Fit a PCA model to flattened events, keeping the full basis.

    Parameters
    ----------
    sample : EventSample or ndarray, shape (n, d)
        Training events (superpositions should be excluded by the caller);
        an EventSample is flattened channel-major.
    """
    matrix, _ = _flatten(sample)
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


def project(sample, model: PcaModel, k: int) -> ProjectedEvents:
    """Project events onto the model's first k components."""
    if not 1 <= k <= model.available:
        raise ParameterError(f"component count must satisfy 1 <= k <= {model.available}, got {k}")
    matrix, refs = _flatten(sample)
    if matrix.shape[1] != model.mean.size:
        raise ParameterError(
            f"event dimension {matrix.shape[1]} does not match model dimension {model.mean.size}")
    coords = (matrix - model.mean) @ model.components[:k].T
    return ProjectedEvents(coords=coords, event_refs=refs)


def reconstruct(model: PcaModel, coords: np.ndarray) -> np.ndarray:
    """Map reduced coordinates back to flattened waveform space."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or not 1 <= coords.shape[1] <= model.available:
        raise ParameterError(f"expected (n, <= {model.available}) coordinates, got {coords.shape}")
    return coords @ model.components[:coords.shape[1]] + model.mean


def export_projections(pe: ProjectedEvents, path) -> None:
    """CSV with one row per event: event_ref then one column per component.

    Values are written with 17 significant digits so a re-import recovers
    them bit for bit.
    """
    lines = [",".join(["event_ref"] + [f"pc{i + 1}" for i in range(pe.k)])]
    for ref, row in zip(pe.event_refs, pe.coords):
        lines.append(",".join([str(int(ref))] + [f"{v:.17g}" for v in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_projections(path) -> ProjectedEvents:
    """Read a CSV written by export_projections."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or not lines[0].startswith("event_ref"):
        raise DataFormatError(f"{path}: not a projections file")
    refs, rows = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        refs.append(int(cells[0]))
        rows.append([float(c) for c in cells[1:]])
    return ProjectedEvents(coords=np.array(rows, dtype=np.float64),
                           event_refs=np.array(refs, dtype=np.int64))


def export_scatter_pairs(pe: ProjectedEvents, directory) -> list[Path]:
    """One CSV per component pair (i < j) for scatter-matrix plotting."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(pe.k):
        for j in range(i + 1, pe.k):
            lines = [f"event_ref,pc{i + 1},pc{j + 1}"]
            for ref, row in zip(pe.event_refs, pe.coords):
                lines.append(f"{int(ref)},{row[i]:.17g},{row[j]:.17g}")
            path = directory / f"pc{i + 1}_pc{j + 1}.csv"
            atomic_write_text(path, "\n".join(lines) + "\n")
            written.append(path)
    return written
