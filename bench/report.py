#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics in one table.

    python3 bench/report.py --seed 1 --seconds 30 [--out bench/baseline.json]

Each run is a separate ``bench/run.py`` process, one after another. The table
has one row per metric, with its unit, and one column per workload; it
includes ``error_rate`` and the throughputs, which the result lines of
``run.py`` leave out. ``--out`` also writes the runs' records, environment
and output digests included, as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_TIMEOUT_S = 180


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", default=None, help="write every run's record here as JSON")
    args = parser.parse_args(argv)

    records: dict[str, dict[int, dict]] = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                check=True, timeout=RUN_TIMEOUT_S, stdout=subprocess.DEVNULL,
            )
            path = BENCH / "work" / f"{workload}-seed{args.seed}-trace{trace}.json"
            records.setdefault(workload, {})[trace] = json.loads(path.read_text())

    names: dict[str, str] = {}
    for per_trace in records.values():
        for record in per_trace.values():
            for name, metric in record["metrics"].items():
                names.setdefault(name, metric["unit"])
    print(f"{'metric':28s} {'unit':9s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for trace, title in ((0, "end to end (untraced)"), (1, "per layer (traced)")):
        print(f"-- {title}")
        shown = [n for n in names if any(n in records[w][trace]["metrics"] for w in WORKLOADS)]
        for name in shown:
            cells = []
            for w in WORKLOADS:
                metric = records[w][trace]["metrics"].get(name)
                cells.append(f"{metric['value']:14.6g}" if metric else f"{'-':>14s}")
            print(f"{name:28s} {names[name]:9s}" + "".join(cells))
    env = records[WORKLOADS[0]][0]["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "runs": records}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
