"""Command-line interface: dataset generation, invariants, experiments.

Exit codes: 0 success, 2 input error, 3 resource limit, 4 internal
invariant violation, 5 unwritable output location: one for each class of
`errors`, mapped in one table, ``_FAILURES``.  Any other exception is a
fault of the package, not of the input, and is not mapped to a code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import (
    ORACLE_LIMIT,
    alpha_exact,
    alpha_exact_profile,
    alpha_lower,
    observable_diameter,
    sep_exact,
    sep_exact_profile,
    sep_hamming_analytic,
    sep_lower,
)
from .covering import covering_profile, greedy_net, sample_size_bound, CoveringProfile
from .dimension import dimension_report
from .errors import InputError, InvariantViolation, OutputError, ResourceLimitError
from .experiments import EXPERIMENT_NAMES, ExperimentSpec, run as run_experiment
from .features import dictionary as make_dictionary
from .io import check_writable, read_csv_rows, write_csv, write_outputs
from .mmspace import (
    GeneratorSpec,
    MMSpace,
    check_int,
    generate,
    load_distance_csv,
    load_points_csv,
)
from .transport import emd

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INVARIANT = 4
EXIT_OUTPUT = 5

#: each failure the CLI maps to an exit code, and the label of its message
_FAILURES = {
    InputError: ("input error", EXIT_INPUT),
    ResourceLimitError: ("resource limit", EXIT_LIMIT),
    InvariantViolation: ("internal invariant violation", EXIT_INVARIANT),
    OutputError: ("output error", EXIT_OUTPUT),
}


def _parse_value(text: str):
    if "," in text:
        return [_parse_value(part) for part in text.split(",") if part != ""]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"--param expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = _parse_value(val.strip())
    return out


def _load_space(args) -> tuple[MMSpace, dict]:
    """The space of --points, --dist or --family, and its provenance for
    the manifest."""
    given = [x is not None for x in (args.points, args.dist, args.family)]
    if sum(given) != 1:
        raise InputError("provide exactly one of --points, --dist, --family")
    if args.family is not None:
        spec = GeneratorSpec(args.family, args.seed, _parse_params(args.param))
        return generate(spec), {"generator": spec.to_json_dict()}
    if args.points is not None:
        space = load_points_csv(args.points, metric=args.metric)
    else:
        space = load_distance_csv(args.dist)
    return space, {"input_file": args.points or args.dist, "n": space.n}


def _emit(args, manifest: str, fields: dict, files=(), lines=()) -> int:
    """Hand a command's results, once they are all computed, to
    `io.write_outputs`: each ``(name, write)`` pair of `files`, then the
    JSON manifest `manifest` (the command, the seed, ``outputs``, the names
    of `files` if any, and `fields`); then print `lines`."""
    outputs = {"outputs": [name for name, _ in files]} if files else {}
    write_outputs(args.out, files, manifest, command=args.command, seed=args.seed,
                  **outputs, **fields)
    for line in lines:
        print(line)
    return EXIT_OK


def _features(args):
    """The features of ``--dictionary``, ``kind`` or ``kind:k`` with k a
    decimal integer, as a function of the space.  The spec is parsed here,
    before any space is read, so that any other is refused first;
    `features.dictionary` checks the kind."""
    kind, colon, k = args.dictionary.partition(":")
    if colon and not k.isdecimal():
        raise InputError("--dictionary must be kind or kind:k with k a decimal "
                         f"integer, got {args.dictionary!r}")
    opts = {"k": int(k)} if colon else {}
    return lambda space: make_dictionary(space, kind, seed=args.seed, **opts)


def _profile(args, space: MMSpace, kind: str, grid=None, features=None):
    """The `kind` ("alpha" or "sep") profile of `space` on `grid`: exact
    under ``--mode exact``, and under ``auto`` (``dims`` has no --mode) up
    to ``ORACLE_LIMIT`` points; else witness lower bounds, alpha's from the
    dictionary that `features` (see `_features`) makes of `space`."""
    mode = getattr(args, "mode", "auto")
    if mode == "exact" or mode == "auto" and space.n <= ORACLE_LIMIT:
        return (alpha_exact_profile if kind == "alpha" else sep_exact_profile)(space, grid)
    if kind == "alpha":
        return alpha_lower(space, grid, dictionary=features(space))
    return sep_lower(space, grid, restarts=args.restarts, seed=args.seed)


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(args.family, args.seed, _parse_params(args.param))
    space = generate(spec)
    header = [f"x{i}" for i in range(space.coords.shape[1])]
    return _emit(
        args, "manifest.json", dict(generator=spec.to_json_dict(), n=space.n,
                                    metric=space.metric, weights="uniform"),
        [("points.csv", lambda path: write_csv(path, header, space.coords.tolist()))],
        [f"wrote {Path(args.out) / 'points.csv'} (n={space.n}, metric={space.metric})"])


def _write_profile(args, kind: str, var: str, x, oracle, features=None) -> int:
    """Write the `kind` profile to ``<kind>.csv`` and ``<kind>.json``, with
    its value at ``x`` (the option ``--<var>``) if given: `oracle`'s in
    exact mode, the profile's lower bound otherwise."""
    space, provenance = _load_space(args)
    grid = np.asarray(args.grid, dtype=float) if args.grid else None
    profile = _profile(args, space, kind, grid, features)
    fields, lines = dict(provenance, profile=profile.metadata()), []
    if x is not None:
        value = oracle(space, x) if profile.mode == "exact" else profile.at(x)
        fields[f"{kind}_at_{var}"] = {var: x, kind: value}
        lines.append(f"{kind} at {var}={x}: {value}")
    name = f"{kind}.csv"
    return _emit(args, f"{kind}.json", fields, [(name, profile.to_csv)],
                 [*lines, f"mode: {profile.mode}", f"wrote {Path(args.out) / name}"])


def _cmd_alpha(args) -> int:
    if args.eps is not None and not 0 <= args.eps < math.inf:
        raise InputError(f"eps must be finite and nonnegative, got {args.eps!r}")
    return _write_profile(args, "alpha", "eps", args.eps, alpha_exact, _features(args))


def _cmd_sep(args) -> int:
    check_int(args.restarts, "--restarts", least=1)
    if args.kappa is not None and not 0 < args.kappa <= 0.5:
        raise InputError(f"kappa must lie in (0, 1/2], got {args.kappa!r}")
    if args.analytic_d is None:
        return _write_profile(args, "sep", "kappa", args.kappa, sep_exact)
    if args.kappa is None:
        raise InputError("--analytic-d requires --kappa")
    val = sep_hamming_analytic(args.analytic_d, args.kappa)
    return _emit(args, "sep.json", dict(mode="analytic", d=args.analytic_d,
                                        kappa=args.kappa, sep=val),
                 lines=["mode: analytic",
                        f"sep_{args.kappa}(hamming_cube({args.analytic_d})) = {val}"])


def _cmd_obsdiam(args) -> int:
    if not 0 < args.kappa < 1:
        raise InputError(f"kappa must lie in (0, 1), got {args.kappa!r}")
    features = _features(args)
    space, provenance = _load_space(args)
    val = observable_diameter(space, args.kappa, features(space))
    return _emit(args, "obsdiam.json", dict(
        provenance, kappa=args.kappa, dictionary=args.dictionary,
        observable_diameter=val, mode="lower_bound"),
        lines=["mode: lower_bound", f"observable diameter at kappa={args.kappa}: {val}"])


def _cmd_dims(args) -> int:
    check_int(args.restarts, "--restarts", least=1)
    features = _features(args)
    space, provenance = _load_space(args)
    alpha_profile = _profile(args, space, "alpha", features=features)
    sep_profile = _profile(args, space, "sep")
    report = dimension_report(space, alpha_profile, sep_profile)
    return _emit(args, "dimensions.json", dict(provenance, report=report), lines=[
        f"modes: alpha={alpha_profile.mode}, sep={sep_profile.mode}",
        json.dumps(report, sort_keys=True, indent=2)])


def _read_vector(path) -> np.ndarray:
    """The numbers of a CSV of one column or one row."""
    _, rows = read_csv_rows(path)
    data = np.asarray(rows)
    if min(data.shape) != 1:
        raise InputError(f"{path}: expected one column or one row, got "
                         f"{data.shape[0]} rows of {data.shape[1]} values")
    return data.ravel()


def _cmd_emd(args) -> int:
    space = load_distance_csv(args.space)
    mu, nu = _read_vector(args.mu), _read_vector(args.nu)
    plan = emd(space, mu, nu)
    upper = float(np.sqrt(plan.cost))
    return _emit(args, "emd.json", dict(
        space=args.space, cost=plan.cost, dconc_upper=upper,
        marginal_residuals=list(plan.marginal_residuals)), [("plan.csv", plan.to_csv)],
        [f"emd cost: {plan.cost}", f"dconc upper bound (sqrt cost): {upper}"])


def _cmd_net(args) -> int:
    if args.radius is not None and not math.isfinite(args.radius):
        raise InputError(f"radius must be finite, got {args.radius!r}")
    if args.radius is None and not args.grid:
        raise InputError("net requires --radius or --grid")
    space, provenance = _load_space(args)
    if args.grid:
        profile = covering_profile(space, np.asarray(args.grid, dtype=float))
        return _emit(args, "net.json", provenance, [("covering.csv", profile.to_csv)],
                     [f"wrote {Path(args.out) / 'covering.csv'}"])
    ids = greedy_net(space, args.radius)
    return _emit(args, "net.json", dict(
        provenance, radius=args.radius, net_size=int(ids.size),
        net_ids=[int(i) for i in ids]),
        lines=[f"net size at radius {args.radius}: {ids.size}"])


def _cmd_bound(args) -> int:
    _, rows = read_csv_rows(args.cover)
    rows = np.asarray(rows)
    if rows.shape[1] != 3 or not np.isfinite(rows).all() or np.any(rows[:, 1:] % 1):
        raise InputError(f"{args.cover}: a covering profile has 3 columns, a finite "
                         "radius u and the whole counts n_upper, n_lower")
    profile = CoveringProfile(rows[:, 0], rows[:, 1].astype(int),
                              rows[:, 2].astype(int))
    n = sample_size_bound(args.eps, args.delta, profile, args.constant_C)
    return _emit(args, "bound.json", dict(
        eps=args.eps, delta=args.delta, constant_C=args.constant_C,
        cover=args.cover, sample_size=n), lines=[
        f"sample-size bound: {n}",
        "caveat: the multiplicative constant C is not fixed by the theory; "
        f"this bound uses C={args.constant_C}"])


def _cmd_experiment(args) -> int:
    """Run the experiment, which writes its own files once it is done (see
    `experiments.run`)."""
    spec = ExperimentSpec(args.name, args.seed, _parse_params(args.param))
    out = Path(args.out)
    manifest = run_experiment(spec, out)
    print(f"experiment {args.name}: wrote {out / 'manifest.json'}")
    for name in manifest["summary"].get("curves", []):
        print(f"  curve: {out / name}")
    return EXIT_OK


def _add_space_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", help="point-cloud CSV (optional header; "
                                    "weight column allowed)")
    p.add_argument("--dist", help="distance-matrix CSV")
    p.add_argument("--family", help="generator family instead of a file")
    p.add_argument("--param", action="append", default=[],
                   help="generator parameter key=value (repeatable)")
    p.add_argument("--metric", default="euclidean",
                   choices=["euclidean", "normalized_hamming"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="concdim",
        description="Concentration invariants and intrinsic dimensions of "
                    "finite metric measure spaces.")
    ap.add_argument("--version", action="version", version=f"concdim {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic space as CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", default=[])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("alpha", help="concentration profile")
    _add_space_options(p)
    p.add_argument("--mode", default="auto", choices=["auto", "exact", "heuristic"])
    p.add_argument("--eps", type=float, help="also report alpha at this eps")
    p.add_argument("--grid", type=float, nargs="*", help="explicit eps grid")
    p.add_argument("--dictionary", default="anchors_random:32")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("sep", help="separation profile")
    _add_space_options(p)
    p.add_argument("--mode", default="auto", choices=["auto", "exact", "heuristic"])
    p.add_argument("--kappa", type=float, help="also report sep at this kappa")
    p.add_argument("--grid", type=float, nargs="*", help="explicit kappa grid")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--analytic-d", type=int,
                   help="exact Hamming-cube value for this d (no input space)")
    p.set_defaults(func=_cmd_sep)

    p = sub.add_parser("obsdiam", help="observable diameter via a dictionary")
    _add_space_options(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--dictionary", default="anchors_random:32")
    p.set_defaults(func=_cmd_obsdiam)

    p = sub.add_parser("dims", help="dimension report (all functionals)")
    _add_space_options(p)
    p.add_argument("--dictionary", default="anchors_random:32")
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("emd", help="exact transport distance between measures")
    p.add_argument("--space", required=True, help="distance-matrix CSV")
    p.add_argument("--mu", required=True, help="first weight vector CSV")
    p.add_argument("--nu", required=True, help="second weight vector CSV")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_emd)

    p = sub.add_parser("net", help="greedy net / covering profile")
    _add_space_options(p)
    p.add_argument("--radius", type=float)
    p.add_argument("--grid", type=float, nargs="*")
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("bound", help="sampling-size bound from a covering profile")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--constant-C", type=float, default=1.0, dest="constant_C")
    p.add_argument("--cover", required=True, help="covering-profile CSV")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("experiment", help="run a named reproduction experiment")
    p.add_argument("--name", required=True,
                   help=f"one of {', '.join(EXPERIMENT_NAMES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", default=[])
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_experiment)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_writable(args.out)
        return args.func(args)
    except tuple(_FAILURES) as exc:
        label, code = _FAILURES[type(exc)]
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
