"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so repetitions never
share a heap.  It times set-up (the ``vncalc`` import plus input
generation), runs the workload body once (traced or not), checks the
outputs outside the timed region, and prints one JSON object as the last
line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --golden PATH --out-dir DIR --tag TAG [--setup-only]

With ``--setup-only`` it stops after set-up and prints only ``setup_s``:
``run.py`` uses that to sample set-up time more often than once per
repetition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from tracer import MODULES, Tracer
from workloads import INPUT_SEEDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def layer_figures(tracer, body_s: float) -> dict[str, float]:
    """Every per-layer figure of one traced repetition, by metric name."""
    stats = tracer.summarize()
    out: dict[str, float] = {}
    for name, row in stats.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            row["self_s"] for name, row in stats.items() if name.split(".")[0] == module
        )
    out.update(tracer.counters)
    for phase in ("grow_ball", "save_ball", "load_ball"):
        out[f"search.{phase}.s"] = out.get(f"search.{phase}.total_s", 0.0)
    candidates = tracer.children_of("search.grow_ball", "element.compose")
    out["search.candidates"] = candidates
    out["search.fresh_ratio"] = out.get("search.fresh", 0) / candidates if candidates else 0.0
    out["trace.spans"] = len(tracer.span_start)
    out["trace.traced_s"] = body_s
    out["trace.self_sum_s"] = sum(row["self_s"] for row in stats.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", help="golden.json; omit to skip the digest comparison")
    parser.add_argument("--out-dir", required=True, help="temporary inputs and span files go here")
    parser.add_argument("--tag", default="rep", help="names this repetition's span files")
    parser.add_argument("--setup-only", action="store_true", help="time set-up, run nothing")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    golden = None
    if args.golden:
        with open(args.golden) as fh:
            golden = json.load(fh)[workload.name][str(args.seed % INPUT_SEEDS)]
    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.out_dir)
    try:
        t0 = time.perf_counter()
        import vncalc

        if not os.path.abspath(vncalc.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"imported vncalc from {vncalc.__file__}, not from {SRC}")
        state = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        gc.collect()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = workload.run(state)
            body_s = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        digests, failed, notes = workload.check(state, out, golden)
        record = {
            "setup_s": setup_s,
            "body_s": body_s,
            "ops": out["ops"],
            "calls": [round(seconds, 9) for seconds in out["calls"]],
            "failed": failed,
            "digests": digests,
            "notes": notes,
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            record["layers"] = layer_figures(tracer, body_s)
            tracer.write(os.path.join(args.out_dir, f"spans-{args.tag}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
