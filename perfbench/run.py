"""vncalc benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses the ``src/vncalc``
next to this directory and nothing installed.  Repetitions run one after
another, each in a fresh interpreter (``worker.py``), until ``--seconds``
of measuring have passed; there is one client and never more than one
worker process.  See README.md for the workloads and metrics.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced repetitions alternate and the metrics are the
per-layer ones from the traced repetition of median length.  Exit status
is 0 when every output check passed, 1 when one failed or a repetition
crashed, and 2 when the program or the workload cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import MODULES
from workloads import INPUT_SEEDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")
TIME_LIMIT_S = 170.0  # a run must end well within 180 s
# Share of an untraced run spent on extra set-up samples.  One set-up per
# repetition gives as few as five samples a run; the probes add one set-up
# at a time after each repetition, so that some samples fall in the host's
# fast phases (see end_to_end).
SETUP_PROBE_SHARE = 0.1

END_TO_END = {
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SUITES = ("eq2", "eq3", "trick", "isolation", "involutions", "maximal", "en", "abelianization")

PER_LAYER = {
    "element.compose.calls": "count",
    "element.compose.self_s": "s",
    "element.compose.rows_in": "count",
    "element.compose.pair_work": "count",
    "element.compose.rows_out": "count",
    "element.canonicalize.calls": "count",
    "element.canonicalize.self_s": "s",
    "element.canonicalize.merges": "count",
    "element.canonicalize.peak_rows": "count",
    "element.power.calls": "count",
    "element.power.total_s": "s",
    "element.invert.self_s": "s",
    "element.parse_element.calls": "count",
    "element.parse_element.self_s": "s",
    "element.format_element.self_s": "s",
    "words.word_new.calls": "count",
    "words.from_words.calls": "count",
    "words.from_words.self_s": "s",
    **{
        f"constructions.{fn}.{key}": unit
        for fn in ("embed", "make_t", "make_s_alpha", "default_base")
        for key, unit in (("calls", "count"), ("total_s", "s"))
    },
    **{
        f"verify.{suite}.{key}": unit
        for suite in SUITES
        for key, unit in (("s", "s"), ("checks", "count"))
    },
    "search.grow_ball.s": "s",
    "search.save_ball.s": "s",
    "search.load_ball.s": "s",
    "search.candidates": "count",
    "search.fresh_ratio": "ratio",
    "search.ball_bytes": "B",
    "expressions.parse_expression.self_s": "s",
    "expressions.eval_expression.total_s": "s",
    "render.render_dot.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.spans": "count",
}


class RepetitionError(Exception):
    """A worker crashed, timed out or printed no result."""


def host_info(seed: int) -> dict[str, object]:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def run_repetition(
    workload: str, seed: int, trace: int, golden: str | None, tag: str, timeout: float,
    setup_only: bool = False,
) -> dict:
    """Run worker.py once in a fresh interpreter and return its record.

    With ``golden`` None the digests are not compared, only reported.  With
    ``setup_only`` the worker stops after set-up and reports only ``setup_s``.
    """
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, "-s", os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--out-dir", OUT_DIR, "--tag", tag,
    ]
    if golden is not None:
        cmd += ["--golden", golden]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, timeout)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionError(f"repetition {tag} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepetitionError(
            f"repetition {tag} exited {proc.returncode}:\n{proc.stderr.strip()[-4000:]}"
        )
    return json.loads(lines[-1])


def percentile(values, q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, float]:
    """Throughput over the whole run; percentiles of the per-call mean latencies.

    The host's speed changes from one moment to the next, between two
    levels about 1.4x apart.  A percentile of raw call times jumps with the
    share of calls that met the slow level; a mean over the run moves
    smoothly with it.  So each call's latency is first averaged over the
    run's repetitions, and the percentiles are taken over those means.

    Set-up time is the fastest set-up sample of the run.  Set-up repeats the
    same work, and its samples fall into two clusters, about 40 and 60 ms on
    ball-roundtrip, by the phase the host was in.  Their median jumps between
    the clusters with the share of the run each phase took; the fastest
    sample needs only one set-up in a fast phase.
    """
    # Every repetition makes the same calls on the same inputs, in the same
    # order (main checks the counts), so calls line up across repetitions.
    means = [statistics.fmean(column) for column in zip(*(rep["calls"] for rep in reps))]
    return {
        "ops_per_s": sum(rep["ops"] for rep in reps) / sum(rep["body_s"] for rep in reps),
        "call_p50_ms": percentile(means, 50) * 1e3,
        "call_p95_ms": percentile(means, 95) * 1e3,
        "setup_s": min(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict[str, float], dict]:
    """Figures of the traced repetition of median length, plus the overhead."""
    chosen = sorted(traced, key=lambda rep: rep["body_s"])[(len(traced) - 1) // 2]
    figures = dict(chosen["layers"])
    figures["trace.untraced_s"] = statistics.median(rep["body_s"] for rep in untraced)
    figures["trace.overhead_s"] = figures["trace.traced_s"] - figures["trace.untraced_s"]
    return {name: figures.get(name, 0) for name in PER_LAYER}, chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "vncalc", "__init__.py")):
        print(f"error: no vncalc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_dir = os.path.join(OUT_DIR, "spans")
    results_dir = os.path.join(OUT_DIR, "results")

    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []  # set-up times of the untraced repetitions and probes
    probe_s = 0.0  # wall time spent on set-up probes so far
    step_s = 0.0  # mean wall time of one loop step so far
    try:
        # Start another step while it is expected to end no later than half a
        # step past --seconds, so that runs last --seconds on average.
        while not untraced or time.monotonic() - started + step_s / 2 < args.seconds:
            if time.monotonic() + step_s > deadline:
                break
            untraced.append(run_repetition(
                args.workload, args.seed, 0, GOLDEN, f"u{len(untraced)}",
                deadline - time.monotonic(),
            ))
            setups.append(untraced[-1]["setup_s"])
            if args.trace:
                traced.append(run_repetition(
                    args.workload, args.seed, 1, GOLDEN, f"t{len(traced)}",
                    deadline - time.monotonic(),
                ))
            while not args.trace and probe_s < SETUP_PROBE_SHARE * (time.monotonic() - started):
                probe_start = time.monotonic()
                setups.append(run_repetition(
                    args.workload, args.seed, 0, None, "probe",
                    deadline - probe_start, setup_only=True,
                )["setup_s"])
                probe_s += time.monotonic() - probe_start
            step_s = (time.monotonic() - started) / len(untraced)
    except RepetitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = untraced + traced
    notes = sorted({note for rep in reps for note in rep["notes"]})
    digests = {json.dumps(rep["digests"], sort_keys=True) for rep in reps}
    if len(digests) > 1:
        notes.append("repetitions on the same inputs produced different outputs")
    if len({len(rep["calls"]) for rep in reps}) > 1:
        notes.append("repetitions on the same inputs made different numbers of calls")
    attempted = sum(rep["ops"] for rep in reps)
    failed = min(attempted, sum(rep["failed"] for rep in reps) + (len(digests) > 1))

    if args.trace:
        values, chosen = per_layer(untraced, traced)
        if values["trace.self_sum_s"] > values["trace.traced_s"]:
            notes.append("traced self times sum to more than the traced run time")
            failed = max(failed, 1)
        units = PER_LAYER
        os.makedirs(spans_dir, exist_ok=True)
        for rep_index, rep in enumerate(traced):
            stem = os.path.join(OUT_DIR, f"spans-t{rep_index}")
            for ext in (".json", ".bin"):
                if rep is chosen:
                    shutil.move(stem + ext, os.path.join(spans_dir, args.workload + ext))
                elif os.path.exists(stem + ext):
                    os.remove(stem + ext)
    else:
        values, units = end_to_end(untraced, setups), END_TO_END
    correct = failed == 0 and not notes

    info = host_info(args.seed)
    info.update(
        workload=args.workload,
        input_seed=args.seed % INPUT_SEEDS,
        trace=args.trace,
        run_seconds=args.seconds,
        elapsed_s=time.monotonic() - started,
        repetitions={"untraced": len(untraced), "traced": len(traced)},
        samples={"calls": sum(len(rep["calls"]) for rep in untraced), "setups": len(setups)},
        fail_ratio=failed / attempted,
        notes=notes,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"info": info, "result": result, "repetitions": reps, "setups": setups}, fh, indent=1)
    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
