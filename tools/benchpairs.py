"""Run the benchmark on a parent checkout and a changed one in alternating
pairs, and write a summary of the pairs as JSON.

Usage::

    python tools/benchpairs.py PARENT [--change DIR] [--workload W ...]
        [--pairs N] [--seed S] [--out FILE]

PARENT and DIR (default: this checkout) are checkouts holding
``perfbench/run.py`` and ``BENCHMARK.json``.  Pair k runs the changed
checkout's ``BENCHMARK.json`` ``command`` with ``--workload W --seed S+k
--seconds R``, R its ``run_seconds``, untraced (the runner's default),
once in each checkout, each run a fresh process in the checkout's own
directory; the parent runs first in even pairs, the change in odd ones.
The end-to-end metrics and whether lower or higher is better come from
the same ``BENCHMARK.json``.

For each workload and metric the summary holds both sides' medians, the
parent's interquartile range (numpy's linear percentiles), the number of
pairs the change won (strictly better), and every value.  Per workload it
holds each side's ``correct`` flags and ``failed`` counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, bench: dict, workload: str, seed: int) -> dict:
    """The result line of one run of `bench`'s command in `checkout`."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"])]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output from {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """The summary of one workload's ``(parent, change)`` result pairs,
    for the `metrics` of ``BENCHMARK.json``'s ``end_to_end`` list."""
    out = {"pairs": len(pairs)}
    for side, k in (("parent", 0), ("change", 1)):
        out[f"{side}_correct"] = [p[k]["correct"] for p in pairs]
        out[f"{side}_failed"] = [p[k]["failed"] for p in pairs]
    for m in metrics:
        name = m["name"]
        parent = np.array([p[0]["metrics"][name]["value"] for p in pairs])
        change = np.array([p[1]["metrics"][name]["value"] for p in pairs])
        won = change < parent if m["better"] == "lower" else change > parent
        q1, q3 = np.percentile(parent, [25, 75])
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent_median": float(np.median(parent)),
            "change_median": float(np.median(change)),
            "parent_iqr": float(q3 - q1),
            "change_won": int(won.sum()),
            "parent": parent.tolist(),
            "change": change.tolist(),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--workload", nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {"command": bench["command"], "run_seconds": bench["run_seconds"],
               "seeds": [args.seed, args.seed + args.pairs - 1], "workloads": {}}
    for workload in workloads:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            flip = 1 if k % 2 == 0 else -1  # the parent runs first in even pairs
            runs = [run_once(side, bench, workload, seed)
                    for side in (args.parent, args.change)[::flip]]
            pairs.append(tuple(runs[::flip]))
            print(workload, seed, *(round(r["metrics"]["run_s"]["value"], 3)
                                    for r in pairs[-1]), flush=True)
        summary["workloads"][workload] = summarize(pairs, bench["end_to_end"])
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
