"""Sub-sample jitter estimation and cancellation against templates.

A spike sampled with an unknown sub-sample offset delta looks like
f + delta*f' + delta^2/2*f'' plus noise.  Each cluster therefore carries a
template with the center waveform and its first two discrete derivatives.
The offset is first solved in closed form from the linear term, then
refined by a single Newton-Raphson step on the second-order residual; one
step is enough because the linear estimate already lands close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterResult
from .errors import DegenerateDataError, ParameterError
from .events import CutSpec, EventSample, make_cuts
from .ingest import Recording, STAGE_NORMALIZED
from .detect import PeakList


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
        if abs(self.l1_size - np.abs(self.f).sum()) > 1e-9:
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


def derivative_recording(rec: Recording) -> Recording:
    """Discrete time derivative, amplitude per sample.

    Interior samples use the central difference (x[i+1] - x[i-1])/2, which
    is exact for quadratics; endpoints fall back to one-sided differences.
    """
    if rec.samples < 3:
        raise ParameterError(f"derivative needs >= 3 samples, got {rec.samples}")
    x = rec.data
    d = np.empty_like(x)
    d[:, 1:-1] = (x[:, 2:] - x[:, :-2]) / 2.0
    d[:, 0] = x[:, 1] - x[:, 0]
    d[:, -1] = x[:, -1] - x[:, -2]
    return rec.with_data(d, rec.stage)


def build_templates(rec: Recording, sample: EventSample,
                    result: ClusterResult) -> list[Template]:
    """One template per cluster: point-wise medians of the cluster's clean
    events, cut identically from the recording and from its first and
    second derivative traces.

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
    d1 = derivative_recording(rec)
    d2 = derivative_recording(d1)
    peaks = PeakList(indices=sample.peaks, source_stage=rec.stage)
    cuts1 = make_cuts(d1, peaks, sample.spec)
    cuts2 = make_cuts(d2, peaks, sample.spec)
    if len(cuts1) != len(sample) or len(cuts2) != len(sample):
        raise ParameterError("derivative cuts lost events; peaks too close to an edge")
    clean = ~sample.superposed
    templates = []
    for j in range(result.K):
        members = np.flatnonzero((result.labels == j) & clean)
        if members.size < 3:
            raise DegenerateDataError(
                f"cluster {j} has only {members.size} clean events; need >= 3 for a template")
        f = np.median(sample.cuts[members], axis=0)
        f1 = np.median(cuts1.cuts[members], axis=0)
        f2 = np.median(cuts2.cuts[members], axis=0)
        templates.append(Template(neuron_id=j, f=f, f1=f1, f2=f2,
                                  l1_size=float(np.abs(f).sum())))
    return templates


def estimate_jitter_linear(g: np.ndarray, t: Template) -> float:
    """Closed-form offset from the first-order model g = f + delta*f'.

    Sums run over all channels and positions: every channel is in MAD
    units, so equal weights are the right weights.
    """
    if g.shape != t.f.shape:
        raise ParameterError(f"event shape {g.shape} does not match template {t.f.shape}")
    denom = float(np.sum(t.f1 * t.f1))
    if denom == 0.0:
        raise DegenerateDataError(f"template {t.neuron_id} has a flat derivative")
    return float(np.sum((g - t.f) * t.f1) / denom)


def refine_jitter_newton(g: np.ndarray, t: Template, delta0: float) -> JitterEstimate:
    """One Newton-Raphson step on the second-order residual.

    The objective is h(delta) = sum(g - f - delta*f1 - delta^2/2*f2)^2;
    its first two derivatives at delta0 are analytic.  Exactly one step is
    taken.  If the local curvature is non-positive, or the step lands
    beyond half the cut width, the starting value is kept and ``fallback``
    is set.
    """
    if g.shape != t.f.shape:
        raise ParameterError(f"event shape {g.shape} does not match template {t.f.shape}")
    if not np.isfinite(delta0):
        raise ParameterError(f"starting offset must be finite, got {delta0}")

    def residual(delta):
        return g - t.f - delta * t.f1 - 0.5 * delta * delta * t.f2

    r0 = residual(delta0)
    slope = t.f1 + delta0 * t.f2
    h1 = -2.0 * float(np.sum(r0 * slope))
    h2 = 2.0 * float(np.sum(slope * slope) - np.sum(r0 * t.f2))
    fallback = False
    if h2 <= 0.0:
        delta = delta0
        fallback = True
    else:
        delta = delta0 - h1 / h2
        if abs(delta) > t.width / 2.0:
            delta = delta0
            fallback = True
    diff = g - t.f
    rss_before = float(np.sum(diff * diff))
    r_hat = residual(delta)
    rss_after = float(np.sum(r_hat * r_hat))
    return JitterEstimate(delta_linear=delta0, delta=delta, rss_before=rss_before,
                          rss_after=rss_after, fallback=fallback)


def estimate_jitter(g: np.ndarray, t: Template) -> JitterEstimate:
    """Linear estimate followed by the single Newton refinement."""
    return refine_jitter_newton(g, t, estimate_jitter_linear(g, t))


def aligned_center(t: Template, delta: float) -> np.ndarray:
    """Second-order prediction of the template at the given offset."""
    return t.f + delta * t.f1 + 0.5 * delta * delta * t.f2
