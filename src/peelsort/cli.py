"""Command-line pipeline driver.

Subcommands cover the whole workflow: simulate a recording, detect peaks,
inspect events, reduce dimensions, build the template catalogue (model),
classify by peeling, or run model + classify in one go (sort).  Every
parameter is a config key; each key is also exposed as a flag, so
`--config file` plus flag overrides fully determines a run.  All outputs
land in run.output_dir, written atomically, and each command leaves a JSON
run report echoing the resolved configuration.

Exit codes: 0 success, 2 configuration error, 3 input or catalogue error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import bagged_cluster, export_labels, gmm_em, kmeans, order_clusters
from .config import SCHEMA, PipelineConfig, load_config, save_config
from .detect import DetectionParams, detect, write_peaks
from .errors import (ConfigError, DataFormatError, DegenerateDataError,
                     ParameterError, PeelSortError)
from .events import (CutSpec, export_events_csv, flag_superpositions,
                     make_cuts, non_superposed, optimal_cut_bounds)
from .ingest import (Recording, atomic_write_text, load_recording, save_channels,
                     write_csv)
from .jitter import build_templates
from .peel import (Catalogue, export_spikes_csv, export_unclassified_csv,
                   load_catalogue, peel, save_catalogue,
                   unclassified_rate_per_round)
from .preprocess import FilterSpec, highpass, mad, normalize
from .reduce import export_projections, export_scatter_pairs, fit_pca, project
from .synth import (JITTER_UNIFORM, JitterModel, NoiseModel, generate,
                    locust_like_neurons, save_truth_csv)


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.get("run.output_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _detection_params(cfg: PipelineConfig) -> DetectionParams:
    return DetectionParams(box_width=cfg.get("detect.box_width"),
                           threshold=cfg.get("detect.threshold_mad"),
                           min_separation=cfg.get("detect.min_separation"),
                           guard=cfg.get("detect.guard"),
                           polarity=cfg.get("detect.polarity"))


class _RawInput:
    """The raw recording named by the config, read from disk at most once.

    ``sort`` hands one instance to both of its phases: the model phase
    reads its estimation window with ``peek`` and the classify phase takes
    the array over with ``take``, so no raw copy is held while peeling.
    """

    def __init__(self, cfg: PipelineConfig):
        self._cfg = cfg
        self._rec = None

    def peek(self) -> Recording:
        if self._rec is None:
            self._rec = load_recording(self._cfg.channel_files(),
                                       rate_hz=self._cfg.get("data.rate_hz"))
        return self._rec

    def take(self) -> Recording:
        rec = self.peek()
        self._rec = None
        return rec


def _load_normalized(cfg: PipelineConfig, source: _RawInput | None = None,
                     estimation_window: bool = False) -> Recording:
    """Load (from ``source`` when given), filter if configured and
    normalize; with ``estimation_window`` keep only the model-estimation
    window (default: the first half) and leave ``source`` loaded."""
    source = source or _RawInput(cfg)
    if estimation_window:
        rec = source.peek()
        window_s = cfg.get("run.estimation_window_s")
        limit = int(round(window_s * rec.rate_hz)) if window_s > 0 else rec.samples // 2
        rec = Recording(data=rec.data[:, :limit], rate_hz=rec.rate_hz, stage=rec.stage)
    else:
        rec = source.take()
    if cfg.get("preprocess.highpass"):
        rec = highpass(rec, FilterSpec(cutoff_hz=cfg.get("preprocess.cutoff_hz"),
                                       taps=cfg.get("preprocess.taps")))
    return normalize(rec)


def _cut_events(rec: Recording, cfg: PipelineConfig):
    """Detect, wide cuts, data-driven bounds unless pinned, recut, flag
    side peaks.  Returns the peaks and the flagged sample."""
    peaks = detect(rec, _detection_params(cfg))
    wide = CutSpec(before=cfg.get("events.wide_before"),
                   after=cfg.get("events.wide_after"))
    wide_sample = make_cuts(rec, peaks, wide)
    if cfg.get("events.before") > 0 and cfg.get("events.after") > 0:
        spec = CutSpec(before=cfg.get("events.before"), after=cfg.get("events.after"))
    else:
        spec = optimal_cut_bounds(wide_sample, noise_level=cfg.get("events.noise_level"))
    sample = make_cuts(rec, peaks, spec)
    return peaks, flag_superpositions(sample, side_threshold=cfg.get("events.side_threshold"),
                                      polarity=cfg.get("detect.polarity"))


def _reduce_events(clean, cfg: PipelineConfig, projections: Path, scatter_dir: Path):
    """PCA of the clean events, projection on the kept components, export."""
    model = fit_pca(clean)
    pe = project(clean, model, cfg.get("reduce.components"))
    export_projections(pe, projections)
    export_scatter_pairs(pe, scatter_dir)
    return model, pe


def _report(cfg: PipelineConfig, command: str, counts: dict, timings: dict,
            summary: str) -> dict:
    """Write report_<command>.json, print the one-line summary, return counts."""
    report = {
        "version": __version__,
        "command": command,
        "config": cfg.echo(),
        "counts": counts,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
    }
    atomic_write_text(_out_dir(cfg) / f"report_{command}.json",
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"{command}: {summary}")
    return counts


def cmd_simulate(cfg: PipelineConfig) -> dict:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    truth = generate(locust_like_neurons(), NoiseModel(sigma=1.0, ar_coeff=0.4),
                     JitterModel(JITTER_UNIFORM),
                     duration_s=cfg.get("synth.duration_s"),
                     rate_hz=cfg.get("data.rate_hz"),
                     seed=cfg.get("run.seed"))
    paths = [out / f"channel_{i}.f64.gz" for i in range(truth.recording.channels)]
    save_channels(truth.recording, paths)
    save_truth_csv(truth, out / "truth.csv")
    save_config(cfg, out / "config_used.txt")
    counts = {"channels": truth.recording.channels,
              "samples": truth.recording.samples,
              "true_spikes": len(truth.spikes)}
    return _report(cfg, "simulate", counts, {"total": time.perf_counter() - t0},
                   f"{counts['true_spikes']} spikes on {counts['channels']} channels "
                   f"x {counts['samples']} samples -> {out}")


def cmd_detect(cfg: PipelineConfig) -> dict:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    rec = _load_normalized(cfg)
    peaks = detect(rec, _detection_params(cfg))
    write_peaks(peaks, out / "peaks.txt")
    counts = {"channels": rec.channels, "samples": rec.samples, "detected": len(peaks)}
    return _report(cfg, "detect", counts, {"total": time.perf_counter() - t0},
                   f"{counts['detected']} peaks -> {out / 'peaks.txt'}")


def cmd_events(cfg: PipelineConfig) -> dict:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    peaks, sample = _cut_events(_load_normalized(cfg), cfg)
    export_events_csv(sample, out / "events.csv")
    counts = {"detected": len(peaks), "cut": len(sample),
              "dropped_at_edge": sample.n_dropped_edge,
              "flagged_superposed": int(sample.superposed.sum()),
              "cut_before": sample.spec.before, "cut_after": sample.spec.after}
    return _report(cfg, "events", counts, {"total": time.perf_counter() - t0},
                   f"{counts['cut']} events (window -{counts['cut_before']}/"
                   f"+{counts['cut_after']}, {counts['flagged_superposed']} superposed)"
                   f" -> {out / 'events.csv'}")


def cmd_reduce(cfg: PipelineConfig, export_path=None, scatter_dir=None) -> dict:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    peaks, sample = _cut_events(_load_normalized(cfg), cfg)
    clean, _ = non_superposed(sample)
    target = Path(export_path) if export_path else out / "projections.csv"
    model, _ = _reduce_events(clean, cfg, target,
                              Path(scatter_dir) if scatter_dir else out / "scatter")
    k = cfg.get("reduce.components")
    counts = {"detected": len(peaks), "cut": len(sample),
              "clean": len(clean), "components": k,
              "explained_fraction": round(model.explained_fraction(k), 6)}
    return _report(cfg, "reduce", counts, {"total": time.perf_counter() - t0},
                   f"{counts['clean']} events -> {k} components "
                   f"({counts['explained_fraction']:.1%} of variance) -> {target}")


def _export_cluster_mads(clean_sample, result, path) -> None:
    """Point-wise MAD of each cluster's events, one row per channel."""
    members = (clean_sample.cuts[result.labels == j] for j in range(result.K))
    write_csv(path, ["cluster", "channel"] + [f"t{t}" for t in range(clean_sample.spec.width)],
              ([j, c] + profile for j, cuts in enumerate(members) if len(cuts) >= 2
               for c, profile in enumerate(mad(cuts, axis=0).tolist())))


def cmd_model(cfg: PipelineConfig, source: _RawInput | None = None) -> dict:
    out = _out_dir(cfg)
    timings = {}
    t0 = time.perf_counter()
    rec = _load_normalized(cfg, source, estimation_window=True)
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    peaks, sample = _cut_events(rec, cfg)
    clean, _ = non_superposed(sample)
    timings["events"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, pe = _reduce_events(clean, cfg, out / "projections.csv", out / "scatter")
    timings["reduce"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    method = cfg.get("cluster.method")
    K = cfg.get("cluster.k")
    seed = cfg.get("cluster.seed")
    if method == "kmeans":
        result = kmeans(pe.coords, K, seed=seed, restarts=cfg.get("cluster.restarts"))
    elif method == "gmm":
        _, result = gmm_em(pe.coords, K, seed=seed, restarts=cfg.get("cluster.restarts"))
    else:  # bagged; the config rejects every other method
        result = bagged_cluster(pe.coords, K, B=cfg.get("cluster.bootstrap_b"), seed=seed)
    result = order_clusters(result, clean)
    export_labels(result, clean.peaks, out / "labels.csv")
    _export_cluster_mads(clean, result, out / "cluster_mads.csv")
    timings["cluster"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    templates = build_templates(rec, clean, result)
    catalogue = Catalogue(templates=templates, spec=clean.spec,
                          channels=rec.channels, rate_hz=rec.rate_hz)
    save_catalogue(catalogue, out / "catalogue.txt")
    timings["templates"] = time.perf_counter() - t0

    counts = {"window_samples": rec.samples, "detected": len(peaks),
              "cut": len(sample), "dropped_at_edge": sample.n_dropped_edge,
              "flagged_superposed": int(sample.superposed.sum()),
              "clean": len(clean),
              "clusters_pruned": result.n_pruned,
              "cluster_sizes": [int(c) for c in result.counts()],
              "cut_before": clean.spec.before, "cut_after": clean.spec.after}
    return _report(cfg, "model", counts, timings,
                   f"{result.K} templates from {counts['clean']} clean events "
                   f"(sizes {counts['cluster_sizes']}) -> {out / 'catalogue.txt'}")


def cmd_classify(cfg: PipelineConfig, catalogue_path=None,
                 source: _RawInput | None = None) -> dict:
    out = _out_dir(cfg)
    catalogue_path = Path(catalogue_path) if catalogue_path else out / "catalogue.txt"
    timings = {}
    t0 = time.perf_counter()
    catalogue = load_catalogue(catalogue_path)
    rec = _load_normalized(cfg, source)
    if catalogue.channels != rec.channels:
        raise DataFormatError(
            f"catalogue has {catalogue.channels} channels, recording has {rec.channels}")
    if catalogue.rate_hz != rec.rate_hz:
        raise DataFormatError(
            f"catalogue rate {catalogue.rate_hz} Hz does not match recording "
            f"rate {rec.rate_hz} Hz")
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    train, decisions, residual = peel(rec, catalogue, _detection_params(cfg),
                                      max_rounds=cfg.get("peel.max_rounds"),
                                      acceptance_factor=cfg.get("peel.acceptance_factor"))
    timings["peel"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    export_spikes_csv(decisions, rec.rate_hz, out / "spikes.csv")
    export_unclassified_csv(decisions, out / "unclassified.csv")
    save_channels(residual, [out / f"residual_channel_{i}.f64"
                             for i in range(residual.channels)])
    timings["write"] = time.perf_counter() - t0

    rounds = unclassified_rate_per_round(decisions)
    examined = Counter(d.round for d in decisions)
    accepted = Counter(d.round for d in decisions if d.classified)
    counts = {"examined": len(decisions),
              "accepted": len(train),
              "unclassified": len(decisions) - len(train),
              "rounds": len(rounds),
              "examined_per_round": {str(r): examined[r] for r in rounds},
              "accepted_per_round": {str(r): accepted[r] for r in rounds},
              "unclassified_per_round": {str(r): examined[r] - accepted[r] for r in rounds},
              "unclassified_rate_per_round": {str(r): round(v, 6) for r, v in rounds.items()}}
    return _report(cfg, "classify", counts, timings,
                   f"{counts['accepted']} spikes in {counts['rounds']} rounds "
                   f"({counts['unclassified']} unclassified) -> {out / 'spikes.csv'}")


def cmd_sort(cfg: PipelineConfig) -> dict:
    source = _RawInput(cfg)
    model_counts = cmd_model(cfg, source)
    classify_counts = cmd_classify(cfg, source=source)
    return {"model": model_counts, "classify": classify_counts}


def _flag_for(key: str) -> str:
    return "--" + key.replace(".", "-").replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="configuration file (key = value lines)")
    for key, (_, default, help_text) in SCHEMA.items():
        parser.add_argument(_flag_for(key), dest=key, metavar="V",
                            help=f"{help_text} (default: {default})")


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    for key in SCHEMA:
        value = getattr(args, key, None)
        if value is not None:
            cfg.set(key, value)
    if (cfg.get("events.before") > 0) != (cfg.get("events.after") > 0):
        raise ConfigError("events.before and events.after are pinned together or both 0")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peelsort",
        description="Template-matching spike sorting with jitter cancellation.")
    parser.add_argument("--version", action="version", version=f"peelsort {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "generate a synthetic recording with ground truth",
        "detect": "detect peaks on the normalized recording",
        "events": "cut and flag events around detected peaks",
        "reduce": "project events onto principal components",
        "model": "build the template catalogue from the estimation window",
        "classify": "peel the recording against a catalogue",
        "sort": "model then classify in one run",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        if name == "simulate":
            p.add_argument("--scenario", dest="synth.scenario", metavar="NAME",
                           help="shorthand for --synth-scenario")
            p.add_argument("--seed", dest="run.seed", metavar="N",
                           help="shorthand for --run-seed")
            p.add_argument("--out", dest="run.output_dir", metavar="DIR",
                           help="shorthand for --run-output-dir")
        if name == "reduce":
            p.add_argument("--components", dest="reduce.components", metavar="K",
                           help="shorthand for --reduce-components")
            p.add_argument("--export", metavar="PATH",
                           help="projections CSV path (default: <output_dir>/projections.csv)")
            p.add_argument("--scatter-matrix", dest="scatter_matrix", metavar="DIR",
                           help="directory for per-component-pair CSVs")
        if name == "classify":
            p.add_argument("--catalogue", metavar="PATH",
                           help="catalogue file (default: <output_dir>/catalogue.txt)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "simulate":
            cmd_simulate(cfg)
        elif args.command == "detect":
            cmd_detect(cfg)
        elif args.command == "events":
            cmd_events(cfg)
        elif args.command == "reduce":
            cmd_reduce(cfg, export_path=args.export, scatter_dir=args.scatter_matrix)
        elif args.command == "model":
            cmd_model(cfg)
        elif args.command == "classify":
            cmd_classify(cfg, catalogue_path=args.catalogue)
        elif args.command == "sort":
            cmd_sort(cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"peelsort: configuration error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"peelsort: input error: {exc}", file=sys.stderr)
        return 3
    except (DegenerateDataError, np.linalg.LinAlgError) as exc:
        print(f"peelsort: numerical failure: {exc}", file=sys.stderr)
        return 4
    except PeelSortError as exc:
        print(f"peelsort: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
