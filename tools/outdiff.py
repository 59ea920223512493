"""Run a fixed list of CLI and experiment invocations on a parent checkout
and a changed one, and report every difference in their outputs as JSON.

Usage::

    python tools/outdiff.py PARENT [--change DIR] [--out FILE]

PARENT and DIR (default: this checkout) are checkouts holding
``src/concdim``.  Each side gets its own temporary work directory.  The
tool writes the input CSVs there from a fixed seed, then runs each of the
53 invocations of `INVOCATIONS` as ``python -m concdim.cli ARGS`` in a
fresh process, in that directory, with relative paths and the side's
``src`` first on ``PYTHONPATH``.  The commands write to their own
``--out`` directories; ``bound`` reads the covering CSV that ``net
--grid`` wrote before it, to ``cover``.

The report lists every invocation whose exit code, stdout or stderr
differs, and every file of the work directories (inputs and outputs) that
exists on one side only or whose bytes differ; text differences come as
unified diffs.  It is printed, or written to FILE.  The exit code is 0
when there is no difference and 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: seed of the input CSVs.
SEED = 20240811


def _profile_runs(csv: str) -> list[list[str]]:
    """alpha and sep in both modes, at a point and on a grid, and dims."""
    runs = []
    for mode in ("exact", "heuristic"):
        runs += [
            ["alpha", "--points", csv, "--mode", mode, "--eps", "0.7"],
            ["alpha", "--points", csv, "--mode", mode, "--grid", "0.1", "0.5", "0.9",
             "1.3", "--eps", "0.6"],
            ["sep", "--points", csv, "--mode", mode, "--kappa", "0.3"],
            ["sep", "--points", csv, "--mode", mode, "--grid", "0.1", "0.2", "0.3",
             "0.45"],
        ]
    return runs + [["dims", "--points", csv]]


SPHERE = ["--family", "sphere", "--param", "n_dim=2", "--param", "n=200"]
CLOUD = ["--family", "gaussian_cloud", "--param", "d=3", "--param", "sigma=1",
         "--param", "n=12"]

#: the command lines; the k-th writes to ``out/k`` unless it names ``--out``.
INVOCATIONS = [
    *_profile_runs("p12.csv"), *_profile_runs("p20.csv"), *_profile_runs("w12.csv"),
    ["alpha", "--points", "p300.csv", "--eps", "0.7"],
    ["sep", "--points", "p300.csv", "--kappa", "0.3"],
    ["dims", "--points", "p300.csv"],
    ["alpha", "--dist", "d12.csv", "--eps", "0.7"],
    ["sep", "--analytic-d", "9", "--kappa", "0.25"],
    ["sep", "--analytic-d", "13", "--kappa", "0.5"],
    ["alpha", *SPHERE],
    ["obsdiam", "--points", "p300.csv", "--kappa", "0.1"],
    ["obsdiam", *SPHERE, "--kappa", "0.1"],
    ["net", "--points", "p300.csv", "--radius", "0.5"],
    ["net", "--points", "p300.csv", "--grid", "0.005", "0.01", "0.05", "0.2", "0.5",
     "1", "2", "4", "--out", "cover"],
    ["bound", "--cover", "cover/covering.csv", "--eps", "0.5", "--delta", "0.1"],
    ["emd", "--space", "d12.csv", "--mu", "mu.csv", "--nu", "nu.csv"],
    ["gen", "--family", "sphere", "--param", "n_dim=2", "--param", "n=50", "--seed", "3"],
    ["experiment", "--name", "sphere_separation", "--param", "dims=3,10",
     "--param", "n=300", "--param", "restarts=2"],
    ["experiment", "--name", "sphere_alpha_line", "--param", "dims=1,2",
     "--param", "n=400", "--param", "anchors=8"],
    ["experiment", "--name", "hamming_dimension", "--param", "d_values=3,5,7"],
    ["experiment", "--name", "noise_instability", "--param", "n=500",
     "--param", "n_seeds=2", "--param", "d=20"],
    ["experiment", "--name", "sampling_convergence", "--param", "sizes=50,100",
     "--param", "n_seeds=3"],
    # integral floats: run, and recorded in the manifest, as ints
    ["experiment", "--name", "sampling_convergence", "--param", "n_seeds=1e0",
     "--param", "sizes=50,"],
    # refusals: each exits 2 and writes nothing
    ["experiment", "--name", "sampling_convergence", "--param", "n_seeds=0"],
    ["experiment", "--name", "sampling_convergence", "--param", "sizes=1,",
     "--param", "n_seeds=1"],
    ["experiment", "--name", "noise_instability", "--param", "sigma2=-1",
     "--param", "n=5", "--param", "n_seeds=1"],
    ["experiment", "--name", "sampling_convergence", "--param", "d=3",
     "--param", "sizes=4,20", "--param", "n_seeds=1"],
    ["dims", *CLOUD, "--restarts", "0"],
    ["sep", *CLOUD, "--mode", "exact", "--restarts", "-2"],
]


def _write_rows(path: Path, header, rows) -> None:
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_inputs(work: Path) -> None:
    """The input CSVs, from `SEED`: 12-, 20- and 300-point clouds in two
    coordinates, the 12 points with a ``weight`` column, their distance
    matrix, and two measures on it."""
    rng = np.random.default_rng(SEED)
    header = ["x0", "x1"]
    for n in (12, 20, 300):
        _write_rows(work / f"p{n}.csv", header, rng.normal(size=(n, 2)))
    x = rng.normal(size=(12, 2))
    _write_rows(work / "w12.csv", [*header, "weight"],
                np.column_stack([x, rng.uniform(0.5, 2.0, size=12)]))
    _write_rows(work / "d12.csv", None,
                np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)))
    for name in ("mu", "nu"):
        w = rng.uniform(0.5, 2.0, size=12)
        _write_rows(work / f"{name}.csv", None, (w / w.sum())[:, None])


def run_side(checkout: Path, work: Path, invocations=INVOCATIONS) -> list[dict]:
    """Write the inputs into `work` and run each invocation there with
    `checkout`'s ``src``; each run's command line, exit code and output."""
    write_inputs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(checkout).resolve() / "src"), *filter(None, [env.get("PYTHONPATH")])])
    runs = []
    for k, args in enumerate(invocations):
        if "--out" not in args:
            args = [*args, "--out", f"out/{k}"]
        proc = subprocess.run([sys.executable, "-m", "concdim.cli", *args], cwd=work,
                              env=env, capture_output=True, text=True)
        runs.append({"args": " ".join(args), "exit": proc.returncode,
                     "stdout": proc.stdout, "stderr": proc.stderr})
    return runs


def read_tree(work: Path) -> dict[str, bytes]:
    """Every file under `work`, by its relative path."""
    return {p.relative_to(work).as_posix(): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


def _unified(a: str, b: str) -> list[str]:
    return list(difflib.unified_diff(a.splitlines(), b.splitlines(), "parent", "change",
                                     n=0, lineterm=""))


def compare(parent_runs: list[dict], change_runs: list[dict],
            parent_files: dict[str, bytes], change_files: dict[str, bytes]) -> list[dict]:
    """Every difference between the two sides' runs and files."""
    diffs = []
    for p, c in zip(parent_runs, change_runs):
        if p["exit"] != c["exit"]:
            diffs.append({"args": p["args"], "exit": [p["exit"], c["exit"]]})
        for stream in ("stdout", "stderr"):
            if p[stream] != c[stream]:
                diffs.append({"args": p["args"], stream: _unified(p[stream], c[stream])})
    for name in sorted(parent_files.keys() | change_files.keys()):
        a, b = parent_files.get(name), change_files.get(name)
        if a == b:
            continue
        if a is None or b is None:
            diffs.append({"file": name, "only_in": "change" if a is None else "parent"})
            continue
        try:
            diffs.append({"file": name, "diff": _unified(a.decode(), b.decode())})
        except UnicodeDecodeError:
            diffs.append({"file": name, "bytes": [len(a), len(b)]})
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    sides = {}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        with tempfile.TemporaryDirectory(prefix=f"outdiff-{side}-") as work:
            runs = run_side(checkout, Path(work))
            sides[side] = runs, read_tree(Path(work))
    (p_runs, p_files), (c_runs, c_files) = sides["parent"], sides["change"]
    diffs = compare(p_runs, c_runs, p_files, c_files)
    report = json.dumps({"invocations": len(INVOCATIONS), "files": len(c_files),
                         "differences": diffs}, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(report)
    else:
        args.out.write_text(report)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
