"""One repetition of ``peelsort sort`` in a fresh process.

    python3 perfbench/sortproc.py LAUNCH RESULT_JSON MODE [sort args...]

LAUNCH is the wall-clock time (``time.time()``) at which the parent
started this process; set-up time runs from there until ``peelsort.cli``
is imported.  MODE is ``import`` (stop after the import), ``sort`` (time
the sort and its model/classify phases) or ``trace`` (also record
per-layer spans).  Timings go to RESULT_JSON; the exit code is the CLI's.
"""

import sys
import time

import peelsort.cli as cli

IMPORTED = time.time()

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    launch, result_path, mode, sort_args = float(argv[0]), argv[1], argv[2], argv[3:]
    result = {"setup_s": IMPORTED - launch}
    code = 0
    if mode != "import":
        tracer = Tracer()
        tracer.install(cli, layers=(mode == "trace"))
        t0 = time.perf_counter()
        code = cli.main(["sort", *sort_args])
        result["sort_s"] = time.perf_counter() - t0
        phase = {s["name"]: s["end"] - s["start"] for s in tracer.spans
                 if s["name"] in ("model", "classify")}
        result["model_s"] = phase.get("model")
        result["classify_s"] = phase.get("classify")
        if mode == "trace":
            result["trace"] = tracer.dump()
    result["exit_code"] = code
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
