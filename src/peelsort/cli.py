"""Command-line pipeline driver.

Subcommands cover the whole workflow: simulate a recording, detect peaks,
inspect events, reduce dimensions, build the template catalogue (model),
classify by peeling, or run model + classify in one go (sort).  Every
parameter is a config key; each key is also exposed as a flag, so
`--config file` plus flag overrides fully determines a run.  All outputs
land in run.output_dir, written atomically, and each command leaves a JSON
run report echoing the resolved configuration.

A sort's two phases are library functions that write nothing, ``model``
and ``classify``: the commands load, call them and write what they return.

Exit codes: 0 success, 2 configuration error, 3 input or catalogue error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import bagged_cluster, export_labels, gmm_em, kmeans, order_clusters
from .config import SCHEMA, PipelineConfig, load_config, save_config
from .detect import DetectionParams, check_detectable, detect, detection_pass, write_peaks
from .errors import (ConfigError, DataFormatError, DegenerateDataError,
                     ParameterError, PeelSortError)
from .events import (CutSpec, export_events_csv, flag_superpositions,
                     make_cuts, non_superposed, optimal_cut_bounds)
# load_recording and normalize are not called here: the benchmark's tracer
# looks both up in this module
from .ingest import (Recording, atomic_write_text, load_recording,  # noqa: F401
                     save_channels, write_csv)
from .jitter import build_templates
from .peel import (Catalogue, export_spikes_csv, export_unclassified_csv,
                   load_catalogue, peel, save_catalogue)
from .preprocess import FilterSpec, load_normalized, mad, normalize  # noqa: F401
from .reduce import export_projections, export_scatter_pairs, fit_pca, project
from .synth import locust_like_scenario, save_truth_csv

# exit code and message of each error a command reports; the first class it is decides
FAILURES = {ConfigError: (2, "configuration error"), ParameterError: (2, "configuration error"),
            DataFormatError: (3, "input error"), DegenerateDataError: (4, "numerical failure"),
            np.linalg.LinAlgError: (4, "numerical failure"), PeelSortError: (2, "error")}


def _fail(exc: Exception) -> int:
    """Print an error of ``FAILURES`` as a command does; its exit code."""
    code, what = next(v for kind, v in FAILURES.items() if isinstance(exc, kind))
    print(f"peelsort: {what}: {exc}", file=sys.stderr)
    return code


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


def _window_samples(cfg: PipelineConfig, samples: int) -> int:
    """Samples in the estimation window of a recording of ``samples``
    (default: the first half); a window longer than the recording is the
    whole recording."""
    window_s = cfg.get("run.estimation_window_s")
    if window_s > 0:
        return min(int(round(window_s * cfg.get("data.rate_hz"))), samples)
    return samples // 2


def _window(rec: Recording, cfg: PipelineConfig) -> Recording:
    """The estimation window of ``rec``, a view of its first samples."""
    return rec.with_data(rec.data[:, :_window_samples(cfg, rec.samples)], rec.stage)


def _detection_pass(rec: Recording, p: DetectionParams):
    """``detection_pass`` of a recording ``detect`` takes; ParameterError
    for one it does not."""
    check_detectable(rec, p)
    return detection_pass(rec.data, p)


def _normalization(cfg: PipelineConfig):
    """The estimation window (of the sample count) whose statistics normalize
    every recording, and the FilterSpec applied first, or None."""
    spec = (FilterSpec(cutoff_hz=cfg.get("preprocess.cutoff_hz"), taps=cfg.get("preprocess.taps"))
            if cfg.get("preprocess.highpass") else None)
    return (lambda samples: _window_samples(cfg, samples)), spec


def _load_normalized(cfg: PipelineConfig) -> Recording:
    """Read the whole recording, filter it if configured, then normalize it
    in place by the median and MAD of each channel's estimation window."""
    return load_normalized(cfg.channel_files(), cfg.get("data.rate_hz"), *_normalization(cfg))


def _need_events(count: int, least: int, what: str) -> None:
    """Too few events is a fact of the data, wherever met: exit 4, not 2."""
    if count < least:
        raise DegenerateDataError(f"too few {what}: {count}, need >= {least}")


def _cut_events(rec: Recording, cfg: PipelineConfig):
    """Detect, wide cuts, data-driven bounds unless pinned, recut, flag
    side peaks.  Returns the detection pass, the peaks and the flagged
    sample."""
    p = _detection_params(cfg)
    first_pass = _detection_pass(rec, p)
    peaks = detect(rec, p, first_pass)
    wide = CutSpec(before=cfg.get("events.wide_before"),
                   after=cfg.get("events.wide_after"))
    wide_sample = make_cuts(rec, peaks, wide)
    if cfg.get("events.before") > 0 and cfg.get("events.after") > 0:
        spec = CutSpec(before=cfg.get("events.before"), after=cfg.get("events.after"))
    else:
        _need_events(len(wide_sample), 2, "events to choose the cut window from")
        spec = optimal_cut_bounds(wide_sample, noise_level=cfg.get("events.noise_level"))
    sample = make_cuts(rec, peaks, spec)
    return first_pass, peaks, flag_superpositions(
        sample, side_threshold=cfg.get("events.side_threshold"),
        polarity=cfg.get("detect.polarity"))


def _event_counts(peaks, sample) -> dict:
    return {"detected": len(peaks), "cut": len(sample), "dropped_at_edge": sample.n_dropped_edge,
            "flagged_superposed": int(sample.superposed.sum()),
            "cut_before": sample.spec.before, "cut_after": sample.spec.after}


def _reduce_events(clean, cfg: PipelineConfig):
    """PCA of the clean events and their projection on the kept components."""
    _need_events(len(clean), 2, "clean events for PCA")
    pca = fit_pca(clean)
    return pca, project(clean, pca, cfg.get("reduce.components"))


def _report(cfg: PipelineConfig, command: str, counts: dict, timings: dict,
            summary: str) -> None:
    """Write report_<command>.json and print the one-line summary."""
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


def cmd_simulate(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    truth = locust_like_scenario(cfg.get("run.seed"), cfg.get("synth.duration_s"),
                                 cfg.get("data.rate_hz"))
    paths = [out / f"channel_{i}.f64.gz" for i in range(truth.recording.channels)]
    save_channels(truth.recording, paths)
    save_truth_csv(truth, out / "truth.csv")
    save_config(cfg, out / "config_used.txt")
    counts = {"channels": truth.recording.channels,
              "samples": truth.recording.samples,
              "true_spikes": len(truth.spikes)}
    _report(cfg, "simulate", counts, {"total": time.perf_counter() - t0},
            f"{counts['true_spikes']} spikes on {counts['channels']} channels "
            f"x {counts['samples']} samples -> {out}")


def cmd_detect(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    rec = _load_normalized(cfg)
    peaks = detect(rec, _detection_params(cfg))
    write_peaks(peaks, out / "peaks.txt")
    counts = {"channels": rec.channels, "samples": rec.samples, "detected": len(peaks)}
    _report(cfg, "detect", counts, {"total": time.perf_counter() - t0},
            f"{counts['detected']} peaks -> {out / 'peaks.txt'}")


def cmd_events(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    _, peaks, sample = _cut_events(_load_normalized(cfg), cfg)
    export_events_csv(sample, out / "events.csv")
    counts = _event_counts(peaks, sample)
    _report(cfg, "events", counts, {"total": time.perf_counter() - t0},
            f"{counts['cut']} events (window -{counts['cut_before']}/"
            f"+{counts['cut_after']}, {counts['flagged_superposed']} superposed)"
            f" -> {out / 'events.csv'}")


def cmd_reduce(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    _, peaks, sample = _cut_events(_load_normalized(cfg), cfg)
    clean, _ = non_superposed(sample)
    pca, coords = _reduce_events(clean, cfg)
    _write_model(out, {"clean": clean, "coords": coords})
    k = cfg.get("reduce.components")
    counts = {"detected": len(peaks), "cut": len(sample),
              "clean": len(clean), "components": k,
              "explained_fraction": round(pca.explained_fraction(k), 6)}
    _report(cfg, "reduce", counts, {"total": time.perf_counter() - t0},
            f"{counts['clean']} events -> {k} components "
            f"({counts['explained_fraction']:.1%} of variance) -> {out / 'projections.csv'}")


def _write_model(out: Path, found: dict) -> None:
    """Write what ``model`` found: the projections, then the clusters and
    the point-wise MAD of each one's events, one row per channel."""
    if "coords" in found:
        clean, coords = found["clean"], found["coords"]
        export_projections(coords, clean.peaks, out / "projections.csv")
        export_scatter_pairs(coords, clean.peaks, out / "scatter")
    if "result" in found:
        result = found["result"]
        export_labels(result, clean.peaks, out / "labels.csv")
        members = (clean.cuts[result.labels == j] for j in range(result.K))
        write_csv(out / "cluster_mads.csv",
                  ["cluster", "channel"] + [f"t{t}" for t in range(clean.spec.width)],
                  ([j, c] + profile for j, cuts in enumerate(members) if len(cuts) >= 2
                   for c, profile in enumerate(mad(cuts, axis=0).tolist())))


def model(rec: Recording, cfg: PipelineConfig):
    """Build the catalogue from the estimation window of ``rec``, the whole
    normalized recording.  Returns the ``Catalogue``; what was found on the
    way (``window``, a view of ``rec``, ``first_pass``, the window's
    ``detection_pass``, ``peaks``, ``sample``, ``clean``, ``keep``, ``pca``,
    ``coords``, ``result``), also an error's ``found``;
    the counts of report_model.json; and the seconds of each layer."""
    found, timings = {}, {}
    try:
        t0 = time.perf_counter()
        window = found["window"] = _window(rec, cfg)
        first_pass, peaks, sample = _cut_events(window, cfg)
        clean, keep = non_superposed(sample)
        found.update(first_pass=first_pass, peaks=peaks, sample=sample, clean=clean,
                     keep=keep)
        timings["events"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        pca, coords = _reduce_events(clean, cfg)
        found.update(pca=pca, coords=coords)
        timings["reduce"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        method = cfg.get("cluster.method")
        K = cfg.get("cluster.k")
        _need_events(len(clean), K, f"clean events for {K} clusters")
        seed = cfg.get("cluster.seed")
        if method == "kmeans":
            result = kmeans(coords, K, seed=seed, restarts=cfg.get("cluster.restarts"))
        elif method == "gmm":
            _, result = gmm_em(coords, K, seed=seed, restarts=cfg.get("cluster.restarts"))
        else:  # bagged; the config rejects every other method
            result = bagged_cluster(coords, K, B=cfg.get("cluster.bootstrap_b"), seed=seed)
        result = found["result"] = order_clusters(result, clean)
        timings["cluster"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        catalogue = Catalogue(np.arange(result.K), build_templates(window, clean, result),
                              clean.spec, rec.rate_hz)
        timings["templates"] = time.perf_counter() - t0
    except tuple(FAILURES) as exc:
        exc.found = found
        raise
    counts = {"window_samples": window.samples, **_event_counts(peaks, sample),
              "clean": len(clean), "clusters_pruned": result.n_pruned,
              "cluster_sizes": [int(c) for c in result.counts()]}
    return catalogue, found, counts, timings


def cmd_model(cfg: PipelineConfig):
    """Build the catalogue; return the whole normalized recording and the
    detection pass of its estimation window."""
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    rec = _load_normalized(cfg)
    load_s = time.perf_counter() - t0
    try:
        catalogue, found, counts, timings = model(rec, cfg)
    except tuple(FAILURES) as exc:
        _write_model(out, exc.found)  # what was found shows why it failed
        raise
    t0 = time.perf_counter()
    _write_model(out, found)
    save_catalogue(catalogue, out / "catalogue.txt")
    timings.update(load=load_s, write=time.perf_counter() - t0)
    _report(cfg, "model", counts, timings,
            f"{catalogue.neuron_ids.size} templates from {counts['clean']} clean events "
            f"(sizes {counts['cluster_sizes']}) -> {out / 'catalogue.txt'}")
    return rec, found["first_pass"]


def classify(rec: Recording, catalogue: Catalogue, cfg: PipelineConfig, first_pass=None):
    """Peel ``rec``, a normalized recording handed over: in place, so its
    samples are the residual's afterwards and it may not be read again.
    Peel detects at the statistics of the estimation window, from
    ``first_pass``, the ``detection_pass`` of the window that ``model``
    returns, or, without it, from a pass classify takes.  Returns the
    spike train, the decisions, the residual, the counts of
    report_classify.json and the seconds of the peel."""
    t0 = time.perf_counter()
    dp = _detection_params(cfg)
    if first_pass is None:
        first_pass = _detection_pass(_window(rec, cfg), dp)
    train, decisions, residual = peel(rec, catalogue, dp,
                                      max_rounds=cfg.get("peel.max_rounds"),
                                      acceptance_factor=cfg.get("peel.acceptance_factor"),
                                      in_place=True, first_pass=first_pass)
    timings = {"peel": time.perf_counter() - t0}
    examined = np.bincount(decisions.round)
    accepted = np.bincount(decisions.round[decisions.classified], minlength=examined.size)
    missed = examined - accepted
    # a rate rising while sorting fresh data: the catalogue no longer fits
    per_round = {"examined": examined.tolist(), "accepted": accepted.tolist(),
                 "unclassified": missed.tolist(),
                 "unclassified_rate": [round(v, 6) for v in (missed / examined).tolist()]}
    counts = {"examined": len(decisions), "accepted": len(train),
              "unclassified": len(decisions) - len(train), "rounds": examined.size,
              **{f"{name}_per_round": dict(zip(map(str, range(examined.size)), values))
                 for name, values in per_round.items()}}
    return train, decisions, residual, counts, timings


def cmd_classify(cfg: PipelineConfig, catalogue_path=None,
                 rec: Recording | None = None, first_pass=None) -> None:
    """Peel ``rec``, handed over to ``classify`` with the detection pass
    of its estimation window, if taken (default: the normalized recording
    the config names)."""
    out = _out_dir(cfg)
    catalogue_path = Path(catalogue_path) if catalogue_path else out / "catalogue.txt"
    t0 = time.perf_counter()
    catalogue = load_catalogue(catalogue_path)
    if rec is None:
        rec = _load_normalized(cfg)
    load_s = time.perf_counter() - t0
    train, decisions, residual, counts, timings = classify(rec, catalogue, cfg, first_pass)

    t0 = time.perf_counter()
    export_spikes_csv(decisions, residual.rate_hz, out / "spikes.csv")
    export_unclassified_csv(decisions, out / "unclassified.csv")
    save_channels(residual, [out / f"residual_channel_{i}.f64"
                             for i in range(residual.channels)])
    timings.update(load=load_s, write=time.perf_counter() - t0)
    _report(cfg, "classify", counts, timings,
            f"{counts['accepted']} spikes in {counts['rounds']} rounds "
            f"({counts['unclassified']} unclassified) -> {out / 'spikes.csv'}")


def cmd_sort(cfg: PipelineConfig) -> None:
    rec, first_pass = cmd_model(cfg)
    cmd_classify(cfg, rec=rec, first_pass=first_pass)


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
            p.add_argument("--seed", dest="run.seed", metavar="N",
                           help="shorthand for --run-seed")
            p.add_argument("--out", dest="run.output_dir", metavar="DIR",
                           help="shorthand for --run-output-dir")
        if name == "reduce":
            p.add_argument("--components", dest="reduce.components", metavar="K",
                           help="shorthand for --reduce-components")
        if name == "classify":
            p.add_argument("--catalogue", metavar="PATH",
                           help="catalogue file (default: <output_dir>/catalogue.txt)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "classify":
            cmd_classify(cfg, catalogue_path=args.catalogue)
        else:
            {"simulate": cmd_simulate, "detect": cmd_detect, "events": cmd_events,
             "reduce": cmd_reduce, "model": cmd_model, "sort": cmd_sort}[args.command](cfg)
    except tuple(FAILURES) as exc:
        return _fail(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
