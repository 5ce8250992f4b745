"""Sub-sample jitter estimation and cancellation against templates.

A spike sampled with an unknown sub-sample offset delta looks like
f + delta*f' + delta^2/2*f'' plus noise.  Each cluster therefore carries a
template with the center waveform and its first two discrete derivatives.
The offset is first solved in closed form from the linear term, then
refined by a single Newton-Raphson step on the second-order residual; one
step is enough because the linear estimate already lands close.
Every sum in both is an inner product, so ``fit_jitter`` fits any number
of events against all templates of a catalogue from one einsum; the
single-template functions are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterResult
from .errors import DegenerateDataError, ParameterError
from .events import EventSample
from .ingest import Recording, STAGE_NORMALIZED


@dataclass
class Template:
    """Center waveform of one cluster plus its discrete derivatives.

    f1 is in amplitude per sample, f2 per sample squared, so predictions
    f + delta*f1 + delta^2/2*f2 take delta in sample units.
    """

    neuron_id: int
    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    l1_size: float

    def __post_init__(self):
        if not (self.f.shape == self.f1.shape == self.f2.shape):
            raise ParameterError("template waveform and derivatives must share one shape")
        if not np.isfinite([self.f, self.f1, self.f2]).all():
            raise ParameterError("template waveform and derivatives must be finite")
        if not abs(self.l1_size - np.abs(self.f).sum()) <= 1e-9:  # NaN fails too
            raise ParameterError("l1_size does not match the waveform")

    @property
    def width(self) -> int:
        return self.f.shape[1]


@dataclass
class JitterEstimate:
    """Linear and refined offsets with the residuals they imply.

    ``fallback`` is set when the Newton step was rejected (non-positive
    curvature, or a step beyond half the cut width) and ``delta`` kept the
    starting value.
    """

    delta_linear: float
    delta: float
    rss_before: float
    rss_after: float
    fallback: bool = False


def _central_difference(x: np.ndarray) -> np.ndarray:
    """Discrete derivative along the last axis (>= 3 samples), amplitude
    per sample: the central difference (x[i+1] - x[i-1])/2 inside, which is
    exact for quadratics, and one-sided differences at both ends."""
    d = np.empty_like(x)
    d[..., 1:-1] = (x[..., 2:] - x[..., :-2]) / 2.0
    d[..., 0] = x[..., 1] - x[..., 0]
    d[..., -1] = x[..., -1] - x[..., -2]
    return d


def derivative_recording(rec: Recording) -> Recording:
    """Discrete time derivative of every channel (see _central_difference)."""
    if rec.samples < 3:
        raise ParameterError(f"derivative needs >= 3 samples, got {rec.samples}")
    return rec.with_data(_central_difference(rec.data), rec.stage)


# samples each side of a window that two central differences reach
_MARGIN = 2


def _derivative_cuts(data: np.ndarray, starts: np.ndarray,
                     width: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative cuts, (n, channels, width) each, equal to
    cuts of derivative_recording applied once and twice to the whole trace.

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
                    result: ClusterResult) -> list[Template]:
    """One template per cluster: point-wise medians of the cluster's clean
    events, cut identically from the recording and from its first and
    second derivative traces.

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
    templates = []
    for j in range(result.K):
        members = np.flatnonzero(labels == j)
        if members.size < 3:
            raise DegenerateDataError(
                f"cluster {j} has only {members.size} clean events; need >= 3 for a template")
        f = np.median(sample.cuts[clean[members]], axis=0)
        f1 = np.median(cuts1[members], axis=0)
        f2 = np.median(cuts2[members], axis=0)
        templates.append(Template(neuron_id=j, f=f, f1=f1, f2=f2,
                                  l1_size=float(np.abs(f).sum())))
    return templates


@dataclass(frozen=True)
class TemplateStack:
    """K templates as one (3K, C*W) basis for a batched fit: the flattened
    f of every template, then every f1, then every f2.

    ``gram[i, j]`` holds, for each of the K templates, the inner product
    of its waveforms i and j (0: f, 1: f1, 2: f2).  The products are taken
    by the einsum that projects events, so an event equal to a template
    projects onto it with the template's own products, bit for bit.
    gram[1, 1] = sum(f1^2) is the denominator of the linear offset.
    """

    neuron_ids: np.ndarray
    basis: np.ndarray
    gram: np.ndarray

    @classmethod
    def of(cls, templates: list[Template]) -> TemplateStack:
        basis = np.stack([getattr(t, name).ravel()
                          for name in ("f", "f1", "f2") for t in templates])
        k = len(templates)
        products = np.einsum("...x,yx->...y", basis, basis).reshape(3, k, 3, k)
        return cls(neuron_ids=np.array([t.neuron_id for t in templates], dtype=np.int64),
                   basis=basis, gram=np.einsum("ikjk->ijk", products))


@dataclass
class JitterFit:
    """(..., K) arrays of one batched fit, one entry per event and
    template (see JitterEstimate), and the events' (...) energies sum(g^2)."""

    delta_linear: np.ndarray
    delta: np.ndarray
    rss_after: np.ndarray
    fallback: np.ndarray
    energy: np.ndarray


def fit_jitter(g: np.ndarray, stack: TemplateStack,
               delta0: np.ndarray | None = None) -> JitterFit:
    """Offsets of events g, shape (..., C, W), against every stacked
    template at once; the results have shape (..., K).

    Without ``delta0`` the start is the closed-form solution of the
    first-order model g = f + delta*f1: sum((g - f)*f1) / sum(f1^2).  Sums
    run over all channels and positions: every channel is in MAD units, so
    equal weights are the right weights.

    Then exactly one Newton-Raphson step on the second-order residual
    h(delta) = sum(g - f - delta*f1 - delta^2/2*f2)^2, whose first two
    derivatives at delta0 are analytic.  If the local curvature is
    non-positive, or the step lands beyond half the cut width, the
    starting value is kept and ``fallback`` is set.

    Every sum is an inner product of g with itself or with the stacked
    basis (one einsum each), or a constant of ``stack.gram``.  einsum sums
    each in one fixed order whatever the number of events, so a batch fit
    equals one fit per event, bit for bit.

    Raises
    ------
    DegenerateDataError
        If the linear estimate is asked of a template with a flat derivative.
    """
    flat = np.ascontiguousarray(g).reshape(*g.shape[:-2], g.shape[-2] * g.shape[-1])
    gf, gf1, gf2 = np.split(np.einsum("...x,yx->...y", flat, stack.basis), 3, axis=-1)
    energy = np.einsum("...x,...x->...", flat, flat)
    (ff, ff1, ff2), (_, f11, f12), (_, _, f22) = stack.gram
    # inner products of the unaligned residual g - f with itself, f1 and f2
    r0, r1, r2 = energy[..., None] - 2.0 * gf + ff, gf1 - ff1, gf2 - ff2
    if delta0 is None:
        flat_ids = np.flatnonzero(f11 == 0.0)
        if flat_ids.size:
            raise DegenerateDataError(
                f"template {stack.neuron_ids[flat_ids[0]]} has a flat derivative")
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


def _fit_one(g: np.ndarray, t: Template, delta0: float | None = None) -> JitterEstimate:
    if g.shape != t.f.shape:
        raise ParameterError(f"event shape {g.shape} does not match template {t.f.shape}")
    fit = fit_jitter(g, TemplateStack.of([t]),
                     None if delta0 is None else np.array([delta0], dtype=np.float64))
    diff = g - t.f
    return JitterEstimate(delta_linear=float(fit.delta_linear[0]),
                          delta=float(fit.delta[0]),
                          rss_before=float(np.sum(diff * diff)),
                          rss_after=float(fit.rss_after[0]),
                          fallback=bool(fit.fallback[0]))


def estimate_jitter_linear(g: np.ndarray, t: Template) -> float:
    """Closed-form offset from the first-order model g = f + delta*f'
    (the starting value of fit_jitter)."""
    return _fit_one(g, t).delta_linear


def refine_jitter_newton(g: np.ndarray, t: Template, delta0: float) -> JitterEstimate:
    """One Newton-Raphson step from ``delta0`` (see fit_jitter)."""
    if not np.isfinite(delta0):
        raise ParameterError(f"starting offset must be finite, got {delta0}")
    return _fit_one(g, t, delta0)


def estimate_jitter(g: np.ndarray, t: Template) -> JitterEstimate:
    """Linear estimate followed by the single Newton refinement."""
    return _fit_one(g, t)


def aligned_center(t: Template, delta: float) -> np.ndarray:
    """Second-order prediction of the template at the given offset."""
    return t.f + delta * t.f1 + 0.5 * delta * delta * t.f2
