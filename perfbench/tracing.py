"""In-memory spans around the pipeline's public layer functions.

The benchmark wraps names in the ``peelsort.cli`` and ``peelsort.peel``
module namespaces from outside: the package itself carries no timers.
Each call of a wrapped function records a span (id, name, start, end,
parent id, attributes); hot inner calls are only counted.  The spans are
kept in memory and written out once, when the sort ends.  ``summarize``
turns them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _peel_attrs(args, kwargs, result):
    train, decisions, _ = result
    rec = args[0]
    return {"examined": len(decisions), "accepted": len(train),
            "rounds": max((d.round for d in decisions), default=-1) + 1,
            "recording_s": rec.samples / rec.rate_hz}


def _events_attrs(args, kwargs, result):
    return {"cut": len(result), "superposed": int(result.superposed_mask().sum()),
            "width": result.spec.width}


# name in peelsort.cli -> (layer span, attribute observer)
CLI_LAYERS = {
    "cmd_model": ("model", None),
    "cmd_classify": ("classify", None),
    "load_recording": ("ingest.load", lambda a, k, r: {"bytes": _file_bytes(a[0])}),
    "save_channels": ("ingest.save", lambda a, k, r: {"bytes": _file_bytes(a[1])}),
    "normalize": ("preprocess.normalize", None),
    "detect": ("detect", lambda a, k, r: {"peaks": len(r)}),
    "make_cuts": ("events", None),
    "optimal_cut_bounds": ("events", None),
    "flag_superpositions": ("events", _events_attrs),
    "non_superposed": ("events", None),
    "fit_pca": ("reduce.fit", None),
    "project": ("reduce.fit", None),
    "export_projections": ("reduce.export", None),
    "export_scatter_pairs": ("reduce.export", None),
    "kmeans": ("cluster", lambda a, k, r: {"events": len(a[0])}),
    "order_clusters": ("cluster", None),
    "export_labels": ("cluster", None),
    "build_templates": ("jitter.templates", None),
    "save_catalogue": ("cli.catalogue", None),
    "load_catalogue": ("cli.catalogue", None),
    "peel": ("peel", _peel_attrs),
    "export_spikes_csv": ("cli.export", None),
    "export_unclassified_csv": ("cli.export", None),
}
# name in peelsort.peel -> span nested inside the peel span
PEEL_LAYERS = {
    "detect": "peel.detect",
    "classify_event": "peel.classify",
}
# name in peelsort.peel -> call counter
PEEL_COUNTED = {"estimate_jitter": "jitter.estimate_calls"}

PHASES = ("model", "classify")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, fn, name, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span["attrs"] = observe(args, kwargs, result)
            return result
        return wrapper

    def counter(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, cli, layers: bool) -> None:
        """Wrap the two phases of ``sort`` and, with ``layers``, the layer
        functions the CLI and the peel loop look up."""
        for attr, (name, observe) in CLI_LAYERS.items():
            if layers or name in PHASES:
                setattr(cli, attr, self.span(getattr(cli, attr), name, observe))
        if not layers:
            return
        # the package re-exports the peel() function as peelsort.peel
        peel_module = importlib.import_module("peelsort.peel")
        for attr, name in PEEL_LAYERS.items():
            setattr(peel_module, attr, self.span(getattr(peel_module, attr), name))
        for attr, name in PEEL_COUNTED.items():
            setattr(peel_module, attr, self.counter(getattr(peel_module, attr), name))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _total(spans, name) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _attr_sum(spans, name, key) -> float:
    return sum(s["attrs"][key] for s in spans if s["name"] == name and "attrs" in s)


def self_test(spans: list[dict], sort_s: float) -> list[str]:
    """Problems with the span tree; empty when it is well formed."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} never closed")
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
                problems.append(f"span {s['id']} {s['name']} leaks out of its parent")
        if s["name"] in PEEL_LAYERS.values():
            if s["parent"] is None or by_id[s["parent"]]["name"] != "peel":
                problems.append(f"span {s['id']} {s['name']} is not inside peel")
    layer_s = sum(s["end"] - s["start"] for s in _top_layers(spans, by_id))
    if layer_s > sort_s:
        problems.append(f"layer spans sum to {layer_s:.6f} s > sort {sort_s:.6f} s")
    return problems


def _top_layers(spans, by_id):
    """Layer spans called directly by a phase (or outside any span)."""
    return [s for s in spans if s["name"] not in PHASES
            and (s["parent"] is None or by_id[s["parent"]]["name"] in PHASES)]


def summarize(trace: dict, sort_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sort."""
    spans = trace["spans"]
    counts = trace["counts"]
    by_id = {s["id"]: s for s in spans}
    n = Counter(s["name"] for s in spans)
    peel_s = _total(spans, "peel")
    peel_detect_s = _total(spans, "peel.detect")
    peel_classify_s = _total(spans, "peel.classify")
    examined = _attr_sum(spans, "peel", "examined")
    accepted = _attr_sum(spans, "peel", "accepted")
    cut = _attr_sum(spans, "events", "cut")
    top = sum(s["end"] - s["start"] for s in _top_layers(spans, by_id))
    return {
        "ingest.load_s": _total(spans, "ingest.load"),
        "ingest.load_calls": n["ingest.load"],
        "ingest.bytes_read": _attr_sum(spans, "ingest.load", "bytes"),
        "ingest.save_s": _total(spans, "ingest.save"),
        "ingest.bytes_written": _attr_sum(spans, "ingest.save", "bytes"),
        "preprocess.normalize_s": _total(spans, "preprocess.normalize"),
        "preprocess.normalize_calls": n["preprocess.normalize"],
        "detect.s": _total(spans, "detect"),
        "detect.peaks": _attr_sum(spans, "detect", "peaks"),
        "events.s": _total(spans, "events"),
        "events.cut": cut,
        "events.superposed_frac": (_attr_sum(spans, "events", "superposed") / cut
                                   if cut else 0.0),
        "events.width": max((s["attrs"]["width"] for s in spans
                             if s["name"] == "events" and "attrs" in s), default=0),
        "reduce.fit_s": _total(spans, "reduce.fit"),
        "reduce.export_s": _total(spans, "reduce.export"),
        "cluster.s": _total(spans, "cluster"),
        "cluster.events": _attr_sum(spans, "cluster", "events"),
        "jitter.templates_s": _total(spans, "jitter.templates"),
        "peel.s": peel_s,
        "peel.rounds": _attr_sum(spans, "peel", "rounds"),
        "peel.examined": examined,
        "peel.accepted": accepted,
        "peel.accept_ratio": accepted / examined if examined else 0.0,
        "peel.s_per_rec_s": peel_s / _attr_sum(spans, "peel", "recording_s"),
        "peel.detect_s": peel_detect_s,
        "peel.classify_s": peel_classify_s,
        "jitter.estimate_calls": counts.get("jitter.estimate_calls", 0),
        "peel.subtract_s": peel_s - peel_detect_s - peel_classify_s,
        "cli.catalogue_s": _total(spans, "cli.catalogue"),
        "cli.export_s": _total(spans, "cli.export"),
        "cli.other_s": sort_s - top,
    }
