"""peelsort benchmark: time ``peelsort sort`` as a user runs it and score it.

    python3 perfbench/run.py --workload dense-60s --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Set-up generates the workload's
recordings for the seed (cached under ``.perfbench/``), then sorts them in a
fresh process per repetition, repeating until ``--seconds`` have passed.
Every sort is checked and scored against ground truth.  With ``--trace 0``
the result carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced sorts (alternated with untraced ones, whose
difference is the tracing overhead).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os

# one BLAS thread in this process and in every sort it starts: with more,
# the first eigh of a fresh process sometimes stalls for about a second
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_SETUP_SAMPLES = 3
# a run ends within this many seconds of its start: no sort starts unless
# 1.5 times the longest one of its mode so far, plus RESERVE_S for the
# set-up launches and the result, still fits; a sort running at the
# deadline is killed and left out of the result as incomplete
RUN_DEADLINE_S = 170.0
RESERVE_S = 10.0
MIN_RECOVERY = 0.90
MAX_MISASSIGNMENT = 0.05


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": BLAS_ENV}


class Runner:
    """Starts fresh processes that import peelsort or sort one recording."""

    def __init__(self, sort_flags, run_dir: Path, started: float):
        self.sort_flags = sort_flags
        self.run_dir = run_dir
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0

    def launch(self, mode: str, inputs=None) -> dict:
        """One fresh process; returns its timings, exit code (None if it was
        killed at the deadline), wall time and peak RSS."""
        out = self.run_dir / f"rep{self.count}"
        self.count += 1
        out.mkdir(parents=True)
        result_path = out / "timing.json"
        sort_args = []
        if inputs is not None:
            sort_args = ["--data-files", ",".join(str(p) for p in inputs.channel_files),
                         "--run-output-dir", str(out), *self.sort_flags]
        with open(out / "log.txt", "wb") as log:
            launch, t0 = time.time(), time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "sortproc.py"), repr(launch),
                 str(result_path), mode, *sort_args],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            status, rusage = self._wait(proc)
        rep = {"mode": mode, "dir": out, "status": status, "inputs": inputs,
               "wall_s": time.perf_counter() - t0, "peak_rss_mb": rusage.ru_maxrss / 1024.0}
        try:
            rep.update(json.loads(result_path.read_text()))
        except (OSError, ValueError):
            pass
        return rep

    def _wait(self, proc):
        """Reap the child with os.wait4 for its own rusage; kill it at the
        deadline and return None as its status."""
        deadline = self.started + RUN_DEADLINE_S
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, rusage
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return None, rusage
            time.sleep(0.005)

    def fits(self, seconds: float) -> bool:
        """Whether a launch expected to take ``seconds`` ends before the deadline."""
        return (time.perf_counter() + 1.5 * seconds + RESERVE_S
                < self.started + RUN_DEADLINE_S)


def check_sort(rep: dict) -> tuple[list[str], dict | None]:
    """Output check of one sort; returns (problems, quality scores)."""
    import numpy as np
    from peelsort.errors import PeelSortError
    from peelsort.ingest import load_recording
    from peelsort.synth import load_truth_csv

    from score import read_spikes_csv, score
    from workloads import RATE_HZ

    inputs = rep["inputs"]

    if rep["status"] != 0:
        return [f"sort exited with status {rep['status']}"], None
    if "sort_s" not in rep:
        return ["sort process wrote no timings"], None
    out = rep["dir"]
    problems = []
    try:
        spikes = read_spikes_csv(out / "spikes.csv")
    except (OSError, IndexError, KeyError, ValueError) as exc:
        return [f"unreadable spikes.csv: {exc}"], None
    peak, delta = spikes["peak_index"], spikes["delta"]
    if np.any(np.abs(spikes["corrected_time_samples"] - (peak - delta)) > 1e-9):
        problems.append("corrected_time_samples != peak_index - delta")
    if not np.all(spikes["rss_after"] < spikes["rss_before"]):
        problems.append("an accepted spike did not lower the residual energy")
    residuals = sorted(out.glob("residual_channel_*"),
                       key=lambda p: int(p.name.split("_")[2].split(".")[0]))
    if len(residuals) != inputs.channels:
        problems.append(f"{len(residuals)} residual files for {inputs.channels} channels")
    else:
        try:
            shape = load_recording(residuals, rate_hz=RATE_HZ).data.shape
        except PeelSortError as exc:
            shape = str(exc)
        if shape != (inputs.channels, inputs.samples):
            problems.append(f"residual shape {shape}, expected "
                            f"{(inputs.channels, inputs.samples)}")
    truth = load_truth_csv(inputs.truth_csv)
    quality = score(spikes["neuron"], spikes["corrected_time_samples"],
                    [n for n, _ in truth], [t for _, t in truth])
    if quality["recovery"] < MIN_RECOVERY:
        problems.append(f"recovery {quality['recovery']:.4f} < {MIN_RECOVERY}")
    if quality["misassignment"] > MAX_MISASSIGNMENT:
        problems.append(f"misassignment {quality['misassignment']:.4f} > {MAX_MISASSIGNMENT}")
    return problems, quality


def median(values):
    return statistics.median(values) if values else float("nan")


def pooled_quality(reps: list[dict]) -> dict:
    """Quality over the distinct recordings the sorts covered."""
    import numpy as np

    from score import rates

    by_input = {}
    for r in reps:
        by_input.setdefault(r["inputs"].directory, r["quality"])
    qs = list(by_input.values())
    pooled = rates(**{k: sum(q[k] for q in qs)
                      for k in ("reported", "true", "matched", "correct")},
                   errors=np.concatenate([q["errors"] for q in qs]))
    pooled.pop("errors")
    return {"recordings": len(qs), **pooled}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "peelsort" / "cli.py").is_file():
        print(f"perfbench: no peelsort sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    recordings = workloads.prepare(workload, args.seed, WORK / "inputs")
    input_s = time.perf_counter() - t0

    run_dir = WORK / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(workloads.SORT_FLAGS, run_dir, started)
    runner.launch("import")  # warm the file cache and bytecode before timing

    # repetitions cycle through the recordings; a traced sort runs on the
    # same recording as the untraced one before it, and pairs stay whole
    # unless the deadline ends the run first
    modes = ["sort", "trace"] if args.trace else ["sort"]
    reps = []
    longest = {}  # mode -> longest wall time of a sort so far
    incomplete = 0
    t_measure = time.perf_counter()
    while (not reps or len(reps) % len(modes)
           or time.perf_counter() - t_measure < args.seconds):
        n = len(reps)
        mode = modes[n % len(modes)]
        if not runner.fits(longest.get(mode, max(longest.values(), default=0.0))):
            break
        rep = runner.launch(mode, recordings[(n // len(modes)) % len(recordings)])
        if rep["status"] is None:
            incomplete += 1
            break
        longest[mode] = max(longest.get(mode, 0.0), rep["wall_s"])
        rep["problems"], rep["quality"] = check_sort(rep)
        if rep["mode"] == "trace" and not rep["problems"]:
            rep["problems"] = tracing.self_test(rep["trace"]["spans"], rep["sort_s"])
        if not rep["problems"]:
            shutil.rmtree(rep["dir"], ignore_errors=True)
        reps.append(rep)
    setup = [r["setup_s"] for r in reps if "setup_s" in r]
    while len(setup) < MIN_SETUP_SAMPLES:
        rep = runner.launch("import")
        if rep["status"] != 0 or "setup_s" not in rep:
            break
        shutil.rmtree(rep["dir"], ignore_errors=True)
        setup.append(rep["setup_s"])

    ok = [r for r in reps if not r["problems"]]
    failed = len(reps) - len(ok)
    if not reps:
        print(f"perfbench: no sort finished within the {RUN_DEADLINE_S:g} s deadline",
              file=sys.stderr)
        return 1
    if not ok:
        for r in reps:
            print(f"perfbench: sort in {r['dir']} failed: {'; '.join(r['problems'])}",
                  file=sys.stderr)
        return 1

    plain = [r for r in ok if r["mode"] == "sort"]
    quality = pooled_quality(ok)
    e2e = {
        "setup_s": median(setup),
        "sort_s": median([r["sort_s"] for r in plain]),
        "model_s": median([r["model_s"] for r in plain]),
        "classify_s": median([r["classify_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "recovery": quality["recovery"],
        "label_accuracy": 1.0 - quality["misassignment"],
        "precision": 1.0 - quality["false_positive_frac"],
        "timing_err_p50": quality["timing_err_p50"],
        "timing_err_p90": quality["timing_err_p90"],
    }
    layer = {}
    traced = [r for r in ok if r["mode"] == "trace"]
    if traced:
        per_rep = [tracing.summarize(r["trace"], r["sort_s"]) for r in traced]
        layer = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
        pairs = [(u, t) for u, t in zip(reps[::2], reps[1::2])
                 if not u["problems"] and not t["problems"]]
        layer["trace.overhead_s"] = median([t["sort_s"] - u["sort_s"] for u, t in pairs])

    facts = machine_facts()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for inputs in recordings:
        print(f"input: {inputs.directory.name} {inputs.channels} channels x "
              f"{inputs.samples} samples, {inputs.true_spikes} true spikes, "
              f"{inputs.input_bytes} bytes")
    print(f"inputs prepared in {input_s:.2f} s; quality pooled over "
          f"{quality['recordings']} recordings")
    n_plain = len(plain)
    print(f"{'setup_s':24s} {e2e['setup_s']:12.6g} s (median of {len(setup)} launches)")
    for name in ("sort_s", "model_s", "classify_s", "peak_rss_mb"):
        print(f"{name:24s} {e2e[name]:12.6g} {end_to_end[name]} (median of {n_plain} sorts)")
    for name in ("recovery", "label_accuracy", "precision", "timing_err_p50", "timing_err_p90"):
        print(f"{name:24s} {e2e[name]:12.6g} {end_to_end[name]} "
              f"(over {quality['true']} true spikes)")
    print(f"{'misassignment':24s} {quality['misassignment']:12.6g} frac")
    print(f"{'false_positive_frac':24s} {quality['false_positive_frac']:12.6g} frac")
    print(f"{'failed_frac':24s} {failed / len(reps):12.6g} frac ({failed} of {len(reps)} sorts)")
    if incomplete:
        print(f"{incomplete} sort killed at the {RUN_DEADLINE_S:g} s deadline, not counted")
    for name, value in layer.items():
        print(f"{name:24s} {value:12.6g} {per_layer[name]} (median of {len(traced)} traced sorts)")
    for r in reps:
        if r["problems"]:
            print(f"FAILED sort in {r['dir']}: {'; '.join(r['problems'])}")

    chosen = (per_layer, layer) if args.trace else (end_to_end, e2e)
    metrics = {name: {"value": chosen[1][name], "unit": unit}
               for name, unit in chosen[0].items()}
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "inputs": [{"recording": i.directory.name, "channels": i.channels,
                    "samples": i.samples, "true_spikes": i.true_spikes,
                    "input_bytes": i.input_bytes} for i in recordings],
        "prepare_s": input_s,
        "quality": quality, "end_to_end": e2e, "per_layer": layer,
        "setup_samples": setup, "incomplete": incomplete,
        "reps": [{**{k: v for k, v in r.items() if k not in ("trace", "dir", "quality")},
                  "inputs": r["inputs"].directory.name,
                  "quality": {k: v for k, v in (r["quality"] or {}).items()
                              if k != "errors"}}
                 for r in reps],
    }
    if not failed:
        shutil.rmtree(run_dir, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
