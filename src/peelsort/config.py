"""Pipeline configuration: flat key = value text with dotted keys.

Every stage parameter lives here under one schema; unknown keys and
bad values of enumerated or bounded keys are rejected up front, so a typo
cannot silently fall back to a default or fail deep inside a run.  The
resolved configuration is echoed into every run report.
"""

from __future__ import annotations

import math
from pathlib import Path

from .cluster import METHODS
from .detect import POLARITIES, DetectionParams
from .errors import ConfigError
from .peel import DEFAULT_MAX_ROUNDS
from .preprocess import FilterSpec

# key -> (type, default, description)
SCHEMA: dict[str, tuple[type, object, str]] = {
    "run.output_dir": (str, "peelsort-out", "directory all outputs are written to"),
    "run.seed": (int, 0, "master seed for simulation"),
    "run.estimation_window_s": (float, 0.0,
                                "seconds of recording used to build the model and to take "
                                "the normalization and detection statistics; 0 = first half"),
    "data.files": (str, "", "comma-separated per-channel data files"),
    "data.rate_hz": (float, 15000.0, "sampling rate of the input files"),
    "preprocess.highpass": (bool, False, "apply the high-pass filter before normalizing"),
    "preprocess.cutoff_hz": (float, FilterSpec.cutoff_hz, "high-pass cutoff frequency"),
    "preprocess.taps": (int, FilterSpec.taps, "high-pass FIR length (odd)"),
    "detect.box_width": (int, DetectionParams.box_width, "box filter width in samples"),
    "detect.threshold_mad": (float, DetectionParams.threshold, "detection threshold in MAD units"),
    "detect.min_separation": (int, DetectionParams.min_separation,
                              "minimum distance between accepted peaks"),
    "detect.guard": (int, DetectionParams.guard, "samples ignored at each edge"),
    "detect.polarity": (str, DetectionParams.polarity, "peak polarity: max, min or both"),
    "events.wide_before": (int, 80, "wide-cut samples before the peak"),
    "events.wide_after": (int, 80, "wide-cut samples after the peak"),
    "events.noise_level": (float, 1.0, "MAD level that closes the cut window"),
    "events.before": (int, 0, "cut samples before the peak; 0 = from data (pin both or neither)"),
    "events.after": (int, 0, "cut samples after the peak; 0 = from data (pin both or neither)"),
    "events.side_threshold": (float, 4.0, "side-peak level that flags a superposition"),
    "reduce.components": (int, 4, "principal components kept"),
    "cluster.method": (str, "kmeans", "clustering method: kmeans, gmm or bagged"),
    "cluster.k": (int, 10, "number of clusters"),
    "cluster.seed": (int, 0, "clustering seed"),
    "cluster.restarts": (int, 10, "independent k-means restarts"),
    "cluster.bootstrap_b": (int, 10, "bootstrap replicates for bagged clustering"),
    "peel.max_rounds": (int, DEFAULT_MAX_ROUNDS, "maximum classify-and-subtract rounds"),
    "peel.acceptance_factor": (float, 1.0, "acceptance margin on the event norm"),
    "synth.duration_s": (float, 20.0, "simulated duration in seconds"),
}
# enumerated keys -> the values they accept
CHOICES: dict[str, tuple[str, ...]] = {
    "detect.polarity": POLARITIES,
    "cluster.method": METHODS,
}
# numeric keys -> the smallest value they accept
MINIMA: dict[str, float] = {"run.estimation_window_s": 0.0, "events.before": 0,
                            "events.after": 0, "cluster.k": 1, "cluster.restarts": 1,
                            "cluster.bootstrap_b": 1, "peel.max_rounds": 1}
# numeric keys -> the value they must exceed
STRICT_MINIMA: dict[str, float] = {"peel.acceptance_factor": 0.0}


def _parse_value(key: str, raw: str):
    kind = SCHEMA[key][0]
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({kind.__name__} expected)") from exc
    return raw


class PipelineConfig:
    """Validated configuration; attribute access via get(key)."""

    def __init__(self, values: dict | None = None):
        self.values = {key: default for key, (_, default, _) in SCHEMA.items()}
        for key, value in (values or {}).items():
            self.set(key, value)

    def set(self, key: str, value):
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key: {key}")
        if isinstance(value, str):
            value = _parse_value(key, value)
        kind = SCHEMA[key][0]
        if isinstance(value, bool) is not (kind is bool):
            raise ConfigError(f"bad value for {key}: {value!r} ({kind.__name__} expected)")
        if kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, kind):
            raise ConfigError(f"bad value for {key}: {value!r} ({kind.__name__} expected)")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"bad value for {key}: {value!r} (finite float expected)")
        if key in CHOICES and value not in CHOICES[key]:
            raise ConfigError(f"bad value for {key}: {value!r} "
                              f"(one of {', '.join(CHOICES[key])} expected)")
        if key in MINIMA and not value >= MINIMA[key]:
            raise ConfigError(f"bad value for {key}: {value!r} (>= {MINIMA[key]} expected)")
        if key in STRICT_MINIMA and not value > STRICT_MINIMA[key]:
            raise ConfigError(f"bad value for {key}: {value!r} (> {STRICT_MINIMA[key]} expected)")
        self.values[key] = value

    def get(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key: {key}")
        return self.values[key]

    def channel_files(self) -> list[str]:
        files = [f.strip() for f in self.get("data.files").split(",") if f.strip()]
        if not files:
            raise ConfigError("data.files is empty; point it at the channel data files")
        return files

    def echo(self) -> dict:
        return dict(sorted(self.values.items()))


def load_config(path) -> PipelineConfig:
    """Parse a `key = value` file; '#' starts a comment, blanks ignored."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = PipelineConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        cfg.set(key.strip(), value.strip())
    return cfg


def save_config(cfg: PipelineConfig, path) -> None:
    """Write the resolved configuration back out, one key per line."""
    from .ingest import atomic_write_text

    lines = [f"{key} = {value}" for key, value in cfg.echo().items()]
    atomic_write_text(path, "\n".join(lines) + "\n")
