"""Run one benchmark workload against the concdim sources of this checkout.

    python3 perfbench/run.py --workload noise_rows --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

A run makes its inputs from ``--seed`` (setup), then runs whole rounds of
the workload's operations: as many as fill ``--seconds`` at the
workload's reference round length, at least one.  Each round starts from
fresh spaces, so rounds do the same work.  After the timed rounds it
checks the first round's outputs against computations made apart from
concdim, and every later round's outputs for equality with the first.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced (``--trace 0``) the
metrics are ``run_s`` (median round wall time), ``peak_rss_mb`` (the
process's ``ru_maxrss`` after the first round) and ``setup_s`` (imports
plus the median of several input generations).  Traced (``--trace 1``)
they are the per-layer metrics of :mod:`layertrace`, and the spans are
written to ``perfbench/out/``.  ``failed`` counts operations that raised
or returned a wrong output; ``correct`` is false when any output was
wrong.  The exit code is 0 only when no operation failed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("noise_rows", "sphere_dense", "exact_small")
#: input generations timed per untraced run; setup_s uses their median.
SETUP_REPS = 5
#: mallopt parameter number of the mmap threshold in glibc's malloc.h.
M_MMAP_THRESHOLD = -3


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_process() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use, and fix
    glibc's mmap threshold; must run before NumPy is imported.

    glibc raises its mmap threshold each time a freed mmapped chunk is
    larger, up to 32 MiB, and concdim's 33.5 MB row blocks sit just under
    that cap: whether a block then came from the heap or from mmap, and so
    what stayed resident, changed from run to run (peak 217 or 241 MB on
    one and the same input).  Fixed at glibc's default 128 KiB, every large
    array is mapped and unmapped, and ``ru_maxrss`` reads the live peak.
    """
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(ncpu)
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:  # glibc; other allocators are left as they are
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt(M_MMAP_THRESHOLD, 128 * 1024)
    return ncpu


def import_program():
    """Import concdim from this checkout's ``src``, and only from there."""
    if not (SRC / "concdim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no concdim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import concdim

    where = Path(concdim.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: concdim imported from {where}, not from {SRC}")
    return concdim


def round_count(wl, seconds: float) -> int:
    """Rounds that fill `seconds` at the workload's reference round length.

    The count depends on `seconds` alone, never on how fast this run goes,
    so every run of a workload medians over the same rounds.
    """
    return max(1, round(seconds / wl.round_s))


def run_rounds(wl, inputs, indices, work_dir: Path, tracer):
    """Run one whole round per index; return ``[(wall_s, outputs, errors,
    op_names)]`` per round."""
    rounds = []
    for r in indices:
        if tracer is not None:
            tracer.start_phase(f"round{r}")
        outs, errs, names = {}, {}, []
        t = time.perf_counter()
        with redirect_stdout(sys.stderr):
            for name, thunk in wl.ops(inputs, work_dir / f"round{r}"):
                names.append(name)
                try:
                    outs[name] = thunk()
                except Exception:  # an operation that raises counts as failed
                    errs[name] = traceback.format_exc()
        rounds.append((time.perf_counter() - t, outs, errs, names))
    return rounds


def verdicts(wl, inputs, rounds, same) -> list[tuple[str, str, bool]]:
    """``(operation, problem, raised)`` for every failed operation of every
    round; `raised` tells an operation that raised from a wrong output."""
    _, first, first_errs, _ = rounds[0]
    problems: dict[str, list[str]] = {}
    for name, check in wl.checks(inputs, first):
        try:
            found = check()
        except Exception:  # a check that cannot read the output rejects it
            found = [traceback.format_exc()]
        problems.setdefault(name, []).extend(found)
    failed = []
    for r, (_, outs, errs, names) in enumerate(rounds):
        for name in names:
            if name in errs:
                failed.append((name, errs[name], True))
            elif r > 0 and (name in first_errs or not same(outs[name], first[name])):
                failed.append((name, f"round {r + 1} output differs from round 1", False))
            elif problems.get(name):
                failed.append((name, "; ".join(problems[name]), False))
    return failed


def run_one(args) -> int:
    ncpu = pin_process()
    import_program()
    sys.path.insert(0, str(HERE))
    import checks
    import layertrace
    import workloads

    import_s = time.perf_counter() - _T0
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.start_phase("setup")
        tracer.active = True
    gen_s = []
    for _ in range(1 if tracer else SETUP_REPS):
        t = time.perf_counter()
        inputs = wl.setup(args.seed)
        gen_s.append(time.perf_counter() - t)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        rounds = run_rounds(wl, inputs, [0], work_dir, tracer)
        # a user runs the operations once per process
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds += run_rounds(wl, inputs, range(1, round_count(wl, args.seconds)),
                             work_dir, tracer)
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
        failed = verdicts(wl, inputs, rounds, checks.same)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    run_s = statistics.median(r[0] for r in rounds)
    for name, problem, _ in failed:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} round(s), "
          f"BLAS threads {ncpu}")
    if tracer is None:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": import_s + statistics.median(gen_s), "unit": "s"},
        }
    else:
        metrics = tracer.layer_metrics()
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, workload=args.workload, seed=args.seed,
                    round_s=[r[0] for r in rounds])
        print(f"traced run_s {run_s:.4f} s (spans in {path.relative_to(HERE.parent)})")
    for name, m in metrics.items():
        v = m["value"]
        print(f"  {name} = {v if isinstance(v, int) else f'{v:.6g}'} {m['unit']}")
    attempted = sum(len(r[3]) for r in rounds)
    print(f"  attempted {attempted}, failed {len(failed)}")
    correct = all(raised for _, _, raised in failed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(done.stdout)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
