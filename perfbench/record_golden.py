"""Record golden output digests for every workload and input seed.

    python3 perfbench/record_golden.py

Runs one untraced repetition per (workload, input seed) with the digest
comparison switched off, refuses to record if any independent check
fails, and rewrites ``golden.json``.  Run it only on a commit whose
outputs are known to be right: the digests pin the program's output byte
for byte.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, RepetitionError, run_repetition
from workloads import INPUT_SEEDS, WORKLOADS


def main() -> int:
    golden = {}
    for name in WORKLOADS:
        table = {}
        for seed in range(INPUT_SEEDS):
            try:
                record = run_repetition(name, seed, 0, None, "record", 600.0)
            except RepetitionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if record["failed"] or record["notes"]:
                print(f"{name} seed {seed}: checks failed: {record['notes']}", file=sys.stderr)
                return 1
            table[str(seed)] = record["digests"]
            print(f"{name} seed {seed}: {record['ops']} ops in {record['body_s']:.2f} s", flush=True)
        golden[name] = table
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
