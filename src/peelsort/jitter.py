"""Sub-sample jitter estimation and cancellation against templates.

A spike sampled with an unknown sub-sample offset delta looks like
f + delta*f' + delta^2/2*f'' plus noise.  Each cluster therefore carries a
template with the center waveform and its first two discrete derivatives,
one row k of a (3, K, channels, width) ``waves`` array: waves[0, k] is f,
waves[1, k] is f' and waves[2, k] is f''.  The offset is first solved in
closed form from the linear term, then refined by a single Newton-Raphson
step on the second-order residual; one step is enough because the linear
estimate already lands close.  Every sum in both is an inner product, so
``estimate_jitter`` fits any number of events against all templates of a
catalogue from one einsum; one template k is the case waves[:, [k]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterResult
from .errors import DegenerateDataError, ParameterError
from .events import EventSample
from .ingest import Recording, STAGE_NORMALIZED
from .preprocess import median


def _central_difference(x: np.ndarray) -> np.ndarray:
    """Discrete derivative along the last axis (>= 3 samples), amplitude
    per sample: the central difference (x[i+1] - x[i-1])/2 inside, which is
    exact for quadratics, and one-sided differences at both ends."""
    d = np.empty_like(x)
    d[..., 1:-1] = (x[..., 2:] - x[..., :-2]) / 2.0
    d[..., 0] = x[..., 1] - x[..., 0]
    d[..., -1] = x[..., -1] - x[..., -2]
    return d


# samples each side of a window that two central differences reach
_MARGIN = 2


def _derivative_cuts(data: np.ndarray, starts: np.ndarray,
                     width: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative cuts, (n, channels, width) each, equal to
    cuts of _central_difference applied once and twice to the whole trace.

    Each window is widened by _MARGIN samples on each side and differenced
    twice.  A widened window that would cross a trace edge is shifted to
    end at that edge instead, so the one-sided endpoint rule falls on the
    trace's own endpoint.
    """
    samples = data.shape[1]
    if starts.size and (starts.min() < 0 or starts.max() + width > samples):
        raise ParameterError("event windows fall outside the recording")
    span = min(width + 2 * _MARGIN, samples)
    lo = np.clip(starts - _MARGIN, 0, samples - span)
    windows = lo[:, None] + np.arange(span)
    d1 = _central_difference(data[np.arange(data.shape[0])[:, None], windows[:, None, :]])
    d2 = _central_difference(d1)
    at = (starts - lo)[:, None, None] + np.arange(width)
    return np.take_along_axis(d1, at, axis=2), np.take_along_axis(d2, at, axis=2)


def build_templates(rec: Recording, sample: EventSample,
                    result: ClusterResult) -> np.ndarray:
    """The (3, K, channels, width) waves of one template per cluster, in
    cluster order: point-wise medians of the cluster's clean events, cut
    identically from the recording and from its first and second
    derivative traces (every f, then every f1, then every f2).

    The derivatives are taken on each clean event's window only (see
    _derivative_cuts).

    Raises
    ------
    DegenerateDataError
        If a cluster retains fewer than 3 non-superposed events.
    """
    if rec.stage != STAGE_NORMALIZED:
        raise ParameterError(f"templates are built from a normalized recording, got {rec.stage!r}")
    if len(sample) != result.labels.size:
        raise ParameterError(
            f"labels ({result.labels.size}) do not align with events ({len(sample)})")
    clean = np.flatnonzero(~sample.superposed)
    labels = result.labels[clean]
    cuts1, cuts2 = _derivative_cuts(rec.data, sample.peaks[clean] - sample.spec.before,
                                    sample.spec.width)
    waves = np.empty((3, result.K, sample.channels, sample.spec.width))
    for j in range(result.K):
        members = np.flatnonzero(labels == j)
        if members.size < 3:
            raise DegenerateDataError(
                f"cluster {j} has only {members.size} clean events; need >= 3 for a template")
        for wave, cuts in zip(waves[:, j], (sample.cuts[clean[members]], cuts1[members],
                                            cuts2[members])):
            wave[...] = median(cuts, axis=0)
    return waves


@dataclass
class JitterFit:
    """(..., K) arrays of one batched fit, one entry per event and
    template: the linear and refined offsets, the residual the refined
    one leaves, and ``fallback`` where the Newton step was rejected and
    ``delta`` kept the starting value; and the events' (...) energies
    sum(g^2)."""

    delta_linear: np.ndarray
    delta: np.ndarray
    rss_after: np.ndarray
    fallback: np.ndarray
    energy: np.ndarray


def estimate_jitter(g: np.ndarray, waves: np.ndarray, delta0: np.ndarray | None = None,
                    neuron_ids: np.ndarray | None = None) -> JitterFit:
    """Offsets of events g, shape (..., C, W), against all K templates of
    the (3, K, C, W) ``waves`` at once; the results have shape (..., K).

    ``delta0``, if given, holds finite starting offsets that broadcast to
    (..., K).  Without it the start is the closed-form solution of the
    first-order model g = f + delta*f1: sum((g - f)*f1) / sum(f1^2).  Sums
    run over all channels and positions: every channel is in MAD units, so
    equal weights are the right weights.

    Then exactly one Newton-Raphson step on the second-order residual
    h(delta) = sum(g - f - delta*f1 - delta^2/2*f2)^2, whose first two
    derivatives at delta0 are analytic.  If the local curvature is
    non-positive, or the step lands beyond half the cut width, the
    starting value is kept and ``fallback`` is set.

    Every sum is an inner product of g with itself or with the (3K, C*W)
    basis of flattened waves, or of two waveforms of one template, each
    taken by the einsum that projects events: an event equal to a template
    projects onto it with the template's own products, and a batch fit
    equals one fit per event, bit for bit.

    Raises
    ------
    ParameterError
        If the events' (C, W) is not the templates', or ``delta0`` is not
        finite.
    DegenerateDataError
        If the linear estimate is asked of a template with a flat
        derivative, named by ``neuron_ids`` (default: by its row).
    """
    if g.shape[-2:] != waves.shape[2:]:
        raise ParameterError(
            f"event shape {g.shape[-2:]} does not match templates {waves.shape[2:]}")
    if delta0 is not None and not np.isfinite(delta0).all():
        raise ParameterError(f"starting offsets must be finite, got {delta0}")
    k = waves.shape[1]
    basis = np.ascontiguousarray(waves).reshape(3 * k, -1)
    # gram[i, j]: each template's inner product of its waveforms i and j (f, f1, f2)
    gram = np.einsum("ikjk->ijk", np.einsum("...x,yx->...y", basis, basis).reshape(3, k, 3, k))
    flat = np.ascontiguousarray(g).reshape(*g.shape[:-2], g.shape[-2] * g.shape[-1])
    gf, gf1, gf2 = np.split(np.einsum("...x,yx->...y", flat, basis), 3, axis=-1)
    energy = np.einsum("...x,...x->...", flat, flat)
    (ff, ff1, ff2), (_, f11, f12), (_, _, f22) = gram
    # inner products of the unaligned residual g - f with itself, f1 and f2
    r0, r1, r2 = energy[..., None] - 2.0 * gf + ff, gf1 - ff1, gf2 - ff2
    if delta0 is None:
        flat_rows = np.flatnonzero(f11 == 0.0)
        if flat_rows.size:
            name = flat_rows[0] if neuron_ids is None else neuron_ids[flat_rows[0]]
            raise DegenerateDataError(f"template {name} has a flat derivative")
        delta0 = r1 / f11
    d = delta0
    h1 = -2.0 * (r1 + d * (r2 - f11) - d * d * (1.5 * f12 + 0.5 * d * f22))
    h2 = 2.0 * (f11 - r2 + d * (3.0 * f12 + 1.5 * d * f22))
    with np.errstate(divide="ignore", invalid="ignore"):
        stepped = delta0 - h1 / h2
    fallback = (h2 <= 0.0) | (np.abs(stepped) > g.shape[-1] / 2.0)
    d = np.where(fallback, delta0, stepped)
    # a residual near zero is a difference of energies near g.g, so it
    # carries their rounding; below zero it can be nothing else
    rss_after = np.maximum(
        r0 - d * (2.0 * r1 + d * (r2 - f11 - d * (f12 + 0.25 * d * f22))), 0.0)
    return JitterFit(delta_linear=delta0, delta=d, rss_after=rss_after,
                     fallback=fallback, energy=energy)


def aligned_center(waves: np.ndarray, k, delta) -> np.ndarray:
    """Second-order prediction f + delta*f1 + delta^2/2*f2 of template row
    ``k`` of the (3, K, C, W) ``waves`` at offset ``delta``: (n, C, W) for
    (n,) rows and offsets, (C, W) for one of each."""
    d = np.asarray(delta, dtype=np.float64)[..., None, None]
    # summed in that order, gathering one waveform at a time
    aligned = waves[1, k] * d
    aligned += waves[0, k]
    aligned += waves[2, k] * (0.5 * d * d)
    return aligned
