"""Synthetic multi-channel recordings with exact ground truth.

Each neuron fires as an independent homogeneous Poisson process.  A spike
scheduled on grid point t0 with sub-sample offset delta contributes the
band-limited evaluation of the neuron's template on the sample grid
offset by delta (windowed-sinc interpolation), and its true time is
recorded as t0 + delta: sorting should report exactly that number.
Auto-correlated Gaussian noise is added on top.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ParameterError
from .ingest import Recording, STAGE_RAW, read_csv, write_csv

SINC_HALF_WIDTH = 32
JITTER_UNIFORM = "uniform_half_sample"
JITTER_NONE = "none"

# spawn key reserved for the noise stream, clear of any neuron index
_NOISE_KEY = 1 << 20

TRUTH_HEADER = ["neuron", "true_time_samples"]


@dataclass(frozen=True)
class NeuronSpec:
    """True waveform (channels x support samples, MAD units) and rate."""

    template: np.ndarray
    rate_hz: float

    def __post_init__(self):
        t = np.asarray(self.template, dtype=np.float64)
        if t.ndim != 2 or t.shape[1] < 3:
            raise ParameterError(f"template must be channels x >=3 samples, got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ParameterError("template contains non-finite values")
        if self.rate_hz <= 0:
            raise ParameterError(f"firing rate must be positive, got {self.rate_hz}")
        object.__setattr__(self, "template", t)

    @property
    def channels(self) -> int:
        return self.template.shape[0]

    @property
    def support_width(self) -> int:
        return self.template.shape[1]

    @property
    def peak_position(self) -> int:
        return int(np.argmax(np.abs(self.template).max(axis=0)))


@dataclass(frozen=True)
class NoiseModel:
    """Stationary AR(1) Gaussian noise, unit-variance-scaled to sigma."""

    sigma: float = 1.0
    ar_coeff: float = 0.4

    def __post_init__(self):
        if self.sigma < 0:
            raise ParameterError(f"noise sigma must be >= 0, got {self.sigma}")
        if not 0 <= self.ar_coeff < 1:
            raise ParameterError(f"AR coefficient must lie in [0, 1), got {self.ar_coeff}")


@dataclass(frozen=True)
class JitterModel:
    """Sub-sample offset law: uniform over one sampling period, or none."""

    distribution: str = JITTER_UNIFORM

    def __post_init__(self):
        if self.distribution not in (JITTER_UNIFORM, JITTER_NONE):
            raise ParameterError(f"unknown jitter distribution {self.distribution!r}")


@dataclass
class GroundTruth:
    """The recording plus the (neuron_id, true_time_samples) list."""

    spikes: list[tuple[int, float]]
    recording: Recording

    def __post_init__(self):
        times = [t for _, t in self.spikes]
        if any(a > b for a, b in zip(times, times[1:])):
            raise ParameterError("ground-truth spikes must be sorted by time")
        if times and (times[0] < 0 or times[-1] >= self.recording.samples):
            raise ParameterError("ground-truth spike times must lie inside the recording")

    def times_of(self, neuron_id: int) -> np.ndarray:
        return np.array([t for n, t in self.spikes if n == neuron_id], dtype=np.float64)


def _windowed_sinc(u: np.ndarray, half_width: int) -> np.ndarray:
    w = np.where(np.abs(u) <= half_width,
                 0.5 * (1.0 + np.cos(np.pi * u / half_width)), 0.0)
    return np.sinc(u) * w


def sinc_shift(row: np.ndarray, delta: float,
               half_width: int = SINC_HALF_WIDTH) -> np.ndarray:
    """Band-limited evaluation of a sampled waveform at grid + delta.

    out[j] approximates the underlying continuous waveform at j + delta;
    delta = 0 reproduces the input exactly.  Used both for spike placement
    and as the accuracy reference in tests.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise ParameterError(f"sinc_shift works on one channel row, got ndim={row.ndim}")
    n = row.size
    u = np.arange(n)[:, None] + delta - np.arange(n)[None, :]
    return _windowed_sinc(u, half_width) @ row


def _placement_block(template: np.ndarray, delta: float, pad: int) -> np.ndarray:
    """Template evaluated at grid - delta over support extended by pad.

    Shifting the waveform delta samples later puts its peak at exactly
    t0 + delta on the trace, so a cut anchored at t0 sees f(t + delta)
    and the jitter estimator recovers -delta.
    """
    w = template.shape[1]
    coords = np.arange(-pad, w + pad)
    u = coords[:, None] - delta - np.arange(w)[None, :]
    return template @ _windowed_sinc(u, SINC_HALF_WIDTH).T


def render_spike_train(neuron: NeuronSpec, times: np.ndarray, n_samples: int,
                       ) -> tuple[np.ndarray, list[float]]:
    """Noise-free trace for one neuron's spikes at continuous times.

    Each time splits into its nearest grid point and a sub-sample offset.
    Spikes whose padded support would clip an edge are dropped; the times
    actually placed are returned alongside the trace.
    """
    trace = np.zeros((neuron.channels, n_samples))
    pad = SINC_HALF_WIDTH
    p = neuron.peak_position
    placed = []
    for t in np.atleast_1d(np.asarray(times, dtype=np.float64)):
        t0 = int(np.round(t))
        delta = float(t - t0)
        start = t0 - p - pad
        stop = start + neuron.support_width + 2 * pad
        if start < 0 or stop > n_samples:
            continue
        trace[:, start:stop] += _placement_block(neuron.template, delta, pad)
        placed.append(t)
    return trace, placed


def generate(neurons: list[NeuronSpec], noise: NoiseModel, jitter: JitterModel,
             duration_s: float, rate_hz: float, seed: int) -> GroundTruth:
    """Simulate a recording; empty neuron list gives pure noise.

    Per-neuron randomness comes from SeedSequence(seed, spawn_key=(i,)),
    the noise stream from its own reserved key, so adding a neuron never
    perturbs the others' spike trains.
    """
    from scipy.signal import lfilter
    if duration_s <= 0:
        raise ParameterError(f"duration must be positive, got {duration_s}")
    if rate_hz <= 0:
        raise ParameterError(f"sampling rate must be positive, got {rate_hz}")
    channel_counts = {n.channels for n in neurons}
    if len(channel_counts) > 1:
        raise ParameterError(f"neurons disagree on channel count: {sorted(channel_counts)}")
    channels = channel_counts.pop() if channel_counts else 1
    n_samples = int(round(duration_s * rate_hz))
    trace = np.zeros((channels, n_samples))
    spikes: list[tuple[int, float]] = []
    for i, neuron in enumerate(neurons):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        arrivals = []
        t = rng.exponential(1.0 / neuron.rate_hz)
        while t < duration_s:
            arrivals.append(t)
            t += rng.exponential(1.0 / neuron.rate_hz)
        grid = np.round(np.asarray(arrivals) * rate_hz)
        if jitter.distribution == JITTER_UNIFORM:
            deltas = rng.uniform(-0.5, 0.5, size=grid.size)
        else:
            deltas = np.zeros(grid.size)
        contribution, placed = render_spike_train(neuron, grid + deltas, n_samples)
        trace += contribution
        del contribution  # released before the next neuron is rendered
        spikes.extend((i, t) for t in placed)
    if noise.sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_NOISE_KEY,)))
        gain = noise.sigma * np.sqrt(1.0 - noise.ar_coeff ** 2)
        for row in trace:  # row by row draws the same stream as one whole-array draw
            row += lfilter([gain], [1.0, -noise.ar_coeff], rng.standard_normal(n_samples))
    spikes.sort(key=lambda s: s[1])
    rec = Recording(data=trace, rate_hz=rate_hz, stage=STAGE_RAW)
    return GroundTruth(spikes=spikes, recording=rec)


def dog_template(channel_gains, peak_amplitude: float, sigma_narrow: float,
                 lobe_ratio: float = 0.6, support: int = 81) -> np.ndarray:
    """Difference-of-Gaussians spike shape scaled per channel.

    sum of a narrow positive Gaussian and a wide negative one; smooth
    everywhere, so a second-order Taylor expansion is accurate over half a
    sample.  Peak amplitude is exact on the strongest channel.
    """
    gains = np.asarray(channel_gains, dtype=np.float64)
    if gains.ndim != 1 or gains.size < 1:
        raise ParameterError("channel_gains must be a 1-D vector")
    if not 0 < lobe_ratio < 1:
        raise ParameterError(f"lobe_ratio must lie in (0, 1), got {lobe_ratio}")
    u = np.arange(support) - support // 2
    shape = (np.exp(-u ** 2 / (2.0 * sigma_narrow ** 2))
             - lobe_ratio * np.exp(-u ** 2 / (2.0 * (2.0 * sigma_narrow) ** 2)))
    shape *= peak_amplitude / (1.0 - lobe_ratio)
    return gains[:, None] * shape[None, :] / np.max(np.abs(gains))


_LOCUST_GAINS = np.array([
    [1.00, 0.55, 0.20, 0.05],
    [0.10, 1.00, 0.50, 0.15],
    [0.05, 0.25, 1.00, 0.55],
    [0.45, 0.10, 0.30, 1.00],
    [1.00, 0.05, 0.60, 0.25],
    [0.30, 1.00, 0.05, 0.50],
    [0.60, 0.35, 1.00, 0.05],
    [0.05, 0.60, 0.35, 1.00],
    [1.00, 0.80, 0.05, 0.45],
    [0.40, 0.05, 0.80, 1.00],
])

_LOCUST_SIGMAS = np.array([2.6, 3.0, 3.4, 2.8, 3.8, 2.5, 3.2, 4.0, 2.9, 3.6])
# lobe ratios stay below 0.6 so the positive peak always dominates the
# trough; past ~0.7 the trough wins and detection lands off the peak
_LOCUST_LOBES = np.array([0.50, 0.56, 0.52, 0.60, 0.48, 0.58, 0.54, 0.45, 0.55, 0.60])


def locust_like_neurons() -> list[NeuronSpec]:
    """Ten separable tetrode neurons: peak amplitudes log-spaced 15 down
    to 5 MAD units, the big ones firing slowest (0.5 up to 3 Hz).

    Neurons come out sorted by the L1 norm of their waveform, matching
    the canonical cluster order, so neuron ids line up with cluster ids
    when sorting succeeds.
    """
    amps = np.geomspace(15.0, 5.0, 10)
    templates = [dog_template(_LOCUST_GAINS[i], amps[i],
                              _LOCUST_SIGMAS[i], _LOCUST_LOBES[i])
                 for i in range(10)]
    templates.sort(key=lambda t: -np.abs(t).sum())
    rates = np.linspace(0.5, 3.0, 10)
    return [NeuronSpec(template=t, rate_hz=r) for t, r in zip(templates, rates)]


def locust_like_scenario(seed: int) -> GroundTruth:
    """Canned 4-channel, 15 kHz, 20 s scenario with 10 neurons."""
    return generate(locust_like_neurons(), NoiseModel(sigma=1.0, ar_coeff=0.4),
                    JitterModel(JITTER_UNIFORM), duration_s=20.0,
                    rate_hz=15000.0, seed=seed)


def save_truth_csv(truth: GroundTruth, path) -> None:
    """CSV with one row per true spike: neuron, true_time_samples."""
    write_csv(path, TRUTH_HEADER, truth.spikes)


def load_truth_csv(path) -> list[tuple[int, float]]:
    """Read a truth file written by save_truth_csv; another header, a row
    of another width or a cell that is not a number is a DataFormatError."""
    rows = read_csv(path, TRUTH_HEADER)
    try:
        return [(int(n), float(t)) for n, t in rows]
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad value ({exc})") from exc


def score_sorting(reported, truth, tolerance: float = 1.0) -> dict:
    """Score a sort against ground truth.

    Both arguments are sequences of (neuron_id, time_samples) pairs with
    non-negative integer ids, ``truth`` in time order (a ParameterError
    otherwise); pass peel's spike train as ``zip(train.neuron,
    train.corrected_time)``.  Each reported spike, in stable time order,
    takes the nearest untaken true spike within ``tolerance`` samples
    (ties to the earlier one).  Labels are then mapped to neurons by the
    Hungarian method on the confusion matrix of matched pairs, as in
    SpikeInterface's ``comparison`` module.

    Returns counts ``reported``, ``true``, ``matched`` and ``correct``
    (label mapped to the matched neuron); ``recovery`` = correct / true,
    ``misassignment`` = (matched - correct) / matched, and
    ``false_positive_frac`` = (reported - matched) / reported, each 0.0
    over a zero count; ``timing_err_p50``/``p90`` of |reported - true|
    over correct matches (NaN if none); ``mapping``, label -> neuron for
    each label that shares a matched spike with its neuron.
    """
    from scipy.optimize import linear_sum_assignment
    rep_ids, rep_times = _id_time_columns(reported)
    true_ids, true_times = _id_time_columns(truth)
    if np.any(true_times[1:] < true_times[:-1]):
        raise ParameterError("true spikes must be in time order")
    taken = np.zeros(true_times.size, dtype=bool)
    hit = np.full(rep_times.size, -1, dtype=np.int64)
    # each report looks only at the true spikes within tolerance, widened by
    # one each side against rounding at the bounds; the gap test decides
    lows = np.maximum(np.searchsorted(true_times, rep_times - tolerance) - 1, 0)
    highs = np.searchsorted(true_times, rep_times + tolerance, side="right") + 1
    for r in np.argsort(rep_times, kind="stable"):
        lo, hi = lows[r], highs[r]
        gaps = np.abs(true_times[lo:hi] - rep_times[r])
        gaps[taken[lo:hi]] = np.inf
        if gaps.size and gaps.min() <= tolerance:
            j = lo + int(np.argmin(gaps))
            taken[j] = True
            hit[r] = j
    matched = hit >= 0
    rep, tru = rep_ids[matched], true_ids[hit[matched]]
    conf = np.zeros((rep_ids.max(initial=-1) + 1, true_ids.max(initial=-1) + 1), int)
    np.add.at(conf, (rep, tru), 1)
    rows, cols = linear_sum_assignment(-conf)
    assigned = np.zeros(conf.shape, dtype=bool)
    assigned[rows, cols] = True
    right = assigned[rep, tru]
    errors = np.abs(rep_times[matched][right] - true_times[hit[matched]][right])
    n_rep, n_true = rep_ids.size, true_ids.size
    n_matched, n_correct = int(matched.sum()), int(right.sum())
    return {
        "reported": n_rep, "true": n_true, "matched": n_matched, "correct": n_correct,
        "recovery": n_correct / n_true if n_true else 0.0,
        "misassignment": (n_matched - n_correct) / n_matched if n_matched else 0.0,
        "false_positive_frac": (n_rep - n_matched) / n_rep if n_rep else 0.0,
        "timing_err_p50": float(np.quantile(errors, 0.5)) if errors.size else float("nan"),
        "timing_err_p90": float(np.quantile(errors, 0.9)) if errors.size else float("nan"),
        "mapping": {int(r): int(c) for r, c in zip(rows, cols) if conf[r, c]},
    }


def _id_time_columns(pairs) -> tuple[np.ndarray, np.ndarray]:
    table = np.asarray(list(pairs), dtype=np.float64).reshape(-1, 2)
    ids = table[:, 0].astype(np.int64)
    if np.any(ids < 0) or np.any(ids != table[:, 0]):
        raise ParameterError("neuron ids must be non-negative integers")
    return ids, table[:, 1]
