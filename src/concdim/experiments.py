"""Reproducible experiment harness: seeded runs emitting CSV curves.

Each experiment is declared by an :class:`ExperimentSpec`.  Its runner
computes everything first and returns its summary and its files, one CSV
per curve; only then does :func:`run` hand them to ``io.write_outputs``,
which makes the output directory and writes them, with a
``manifest.json`` capturing everything needed to rerun it
byte-identically: the spec, derived seeds, grids, certificate modes, and
the RNG algorithm.  Parameters take their default's type, an integer
through ``mmspace.check_int``, and the values no library call checks (a
``sampling_convergence`` ``n_seeds`` below 1 or size below 2, a
``noise_instability`` ``sigma2`` below 0) are refused before the run.  So
a refused spec, or a run that fails, leaves no directory.  An output
directory that cannot be made or written is an ``OutputError``, raised
before the run where ``io.check_writable`` can tell.  Numbers are serialized with ``repr`` so reruns with an equal spec
produce identical bytes.

Experiments
-----------
sphere_separation
    separation-function lower bounds for sphere samples across dimensions.
sphere_alpha_line
    concentration-function lower bounds across dimensions together with
    the crossing of the line ``alpha = eps/2``, the resulting
    point-distance brackets, and whether each sample resolves the
    crossing (mean nearest-neighbour spacing at most half the bracket's
    lower end).
hamming_dimension
    separation dimension of Hamming cubes from the analytic profile.
noise_instability
    Gaussian clouds at noise scale ``sigma**2 = 1/d``: greedy 1-separated
    subsets, the separation value they certify, and the separation
    dimension of the sample.
sampling_convergence
    separation dimension of Hamming-cube subsamples against the full-cube
    value as the sample grows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .concentration import (
    MASS_TOL,
    SeparationProfile,
    alpha_lower,
    default_kappa_grid,
    greedy_separated_subset,
    sep_hamming_profile,
    sep_lower,
    split_witness,
)
from .dimension import dconc_to_point_bracket, dim_separation
from .errors import InputError, ResourceLimitError
from .features import dictionary as make_dictionary
from .io import check_writable, write_csv, write_outputs
from .mmspace import GeneratorSpec, MMSpace, check_int, diameter, generate

#: per-space sample-size ceiling for experiment runs.
MAX_EXPERIMENT_POINTS = 100_000


@dataclass(frozen=True)
class ExperimentSpec:
    """Name, seed, and parameter overrides of one experiment run."""

    name: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "seed": self.seed,
                "params": {k: self.params[k] for k in sorted(self.params)}}


def derived_seed(root: int, *path: int) -> int:
    """Deterministic child seed for an indexed sub-task."""
    return int(np.random.SeedSequence([root, *path]).generate_state(1)[0])


def _params(spec: ExperimentSpec, defaults: dict) -> dict:
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise InputError(f"unknown params for {spec.name}: {unknown}")
    merged = dict(defaults)
    merged.update({k: _typed(k, v, defaults[k]) for k, v in spec.params.items()})
    if merged.get("n", 0) and int(merged["n"]) > MAX_EXPERIMENT_POINTS:
        raise ResourceLimitError(
            f"experiments are limited to {MAX_EXPERIMENT_POINTS} points per "
            f"space; got n={merged['n']}"
        )
    return merged


def _typed(name: str, value, default):
    """`value` in the type of `default`: a list of the type of its first
    element, an integer (``mmspace.check_int``) or a finite float;
    InputError otherwise.  Bools are not numbers."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise InputError(f"param {name} must be a list, got {value!r} "
                             f"(one value is written {name}={value},)")
        return [_typed(name, v, default[0]) for v in value]
    if isinstance(default, int):
        return check_int(value, f"param {name}")
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise InputError(f"param {name} must be a finite number, got {value!r}")


def _sphere(dim: int, n: int, seed: int) -> MMSpace:
    return generate(GeneratorSpec("sphere", seed, {"n_dim": dim, "n": n}))


def _run_sphere_separation(spec: ExperimentSpec) -> tuple[dict, list]:
    p = _params(spec, {"dims": [3, 10, 30, 100], "n": 3000, "restarts": 4,
                       "check_kappas": [0.05, 0.1, 0.2]})
    grid = default_kappa_grid()
    files = []
    curves = {}
    for idx, dim in enumerate(p["dims"]):
        seed = derived_seed(spec.seed, idx)
        space = _sphere(dim, p["n"], seed)
        prof = sep_lower(space, grid, restarts=p["restarts"],
                         seed=derived_seed(spec.seed, idx, 1))
        files.append((f"sep_sphere_d{dim}.csv", prof.to_csv))
        curves[dim] = prof
    checks = {}
    for kap in p["check_kappas"]:
        vals = [curves[d].at(kap) for d in p["dims"]]
        checks[repr(kap)] = {
            "values_by_dim": vals,
            "pointwise_decreasing": all(a > b for a, b in zip(vals, vals[1:])),
        }
    return {"kappa_checks": checks, "mode": "lower_bound",
            "kappa_grid_size": int(grid.size)}, files


def _mean_nn_spacing(space: MMSpace) -> float:
    """Mean distance from each point to its nearest other point."""
    if space.n < 2:
        return 0.0
    nearest = [np.partition(blk, 1, axis=1)[:, 1] for _, blk in space.iter_blocks()]
    return float(np.concatenate(nearest).mean())


def _run_sphere_alpha_line(spec: ExperimentSpec) -> tuple[dict, list]:
    p = _params(spec, {"dims": [1, 2, 3], "n": 3000, "anchors": 16})
    files = []
    crossings = []
    midpoints = []
    spacings = []
    for idx, dim in enumerate(p["dims"]):
        seed = derived_seed(spec.seed, idx)
        space = _sphere(dim, p["n"], seed)
        feats = make_dictionary(space, "anchors_random", k=p["anchors"],
                                seed=derived_seed(spec.seed, idx, 1))
        grid = np.linspace(0.0, diameter(space), 201)
        prof = alpha_lower(space, grid, dictionary=feats)
        files.append((f"alpha_sphere_d{dim}.csv", prof.to_csv))
        bracket = dconc_to_point_bracket(prof)
        crossings.append(2.0 * bracket.lo)
        midpoints.append(bracket.midpoint)
        spacings.append(_mean_nn_spacing(space))
    return {
        "alpha_eq_half_eps_crossings": crossings,
        "bracket_midpoints": midpoints,
        "midpoints_strictly_decreasing": all(
            a > b for a, b in zip(midpoints, midpoints[1:])
        ),
        # a sample coarser than the crossing scale keeps alpha at 1/2 there,
        # so its bracket measures the sampling, not the sphere
        "mean_nn_spacing_by_dim": spacings,
        "resolved": all(sp <= c / 4.0 for sp, c in zip(spacings, crossings)),
        "mode": "lower_bound",
    }, files


def _run_hamming_dimension(spec: ExperimentSpec) -> tuple[dict, list]:
    p = _params(spec, {"d_values": list(range(11, 26, 2))})
    rows = []
    dims = []
    for d in p["d_values"]:
        prof = sep_hamming_profile(int(d))
        dim = dim_separation(prof)
        rows.append([int(d), float(dim)])
        dims.append(dim)
    return {
        "monotone_increasing": all(a < b for a, b in zip(dims, dims[1:])),
        "mode": "analytic",
    }, [("hamming_sep_dimension.csv",
         lambda path: write_csv(path, ["d", "dim_separation"], rows))]


def _noise_profile(space: MMSpace, min_side_mass: float, min_distance: float,
                   seed: int, restarts: int) -> SeparationProfile:
    """Combine the separated-subset witness with greedy growth bounds."""
    grid = np.unique(np.concatenate([default_kappa_grid(), [0.475]]))
    greedy = sep_lower(space, grid, restarts=restarts, seed=seed)
    witness = np.where(grid <= min_side_mass + MASS_TOL, min_distance, 0.0)
    vals = np.maximum(greedy.sep, witness)
    vals = np.minimum.accumulate(vals)
    return SeparationProfile(grid, vals, "lower_bound", greedy.diameter)


def _run_noise_instability(spec: ExperimentSpec) -> tuple[dict, list]:
    p = _params(spec, {"d": 50, "sigma2": 1.0 / 50.0, "n": 10_000, "n_seeds": 5,
                       "min_distance": 1.0, "restarts": 2})
    if p["sigma2"] < 0:
        raise InputError(f"param sigma2 must be >= 0, got {p['sigma2']!r}")
    rows = []
    summaries = []
    for s in range(p["n_seeds"]):
        seed = derived_seed(spec.seed, s)
        space = generate(GeneratorSpec(
            "gaussian_cloud", seed,
            {"d": p["d"], "sigma": math.sqrt(p["sigma2"]), "n": p["n"]},
        ))
        subset = greedy_separated_subset(space, p["min_distance"])
        coverage = len(subset) / space.n
        min_side, _, _ = split_witness(space, subset)
        prof = _noise_profile(space, min_side, p["min_distance"],
                              derived_seed(spec.seed, s, 1), p["restarts"])
        sep_0475 = prof.at(0.475)
        dim = dim_separation(prof)
        rows.append([s, float(coverage), float(min_side), sep_0475, float(dim)])
        summaries.append((coverage, sep_0475, dim))
    coverages = [c for c, _, _ in summaries]
    return {
        "coverage_by_seed": [float(c) for c in coverages],
        "seeds_with_95pct_coverage": int(sum(c >= 0.95 for c in coverages)),
        "seeds_with_sep_ge_1_at_0.475": int(sum(s >= 1.0 for _, s, _ in summaries)),
        "seeds_with_dim_le_1.125": int(sum(d <= 1.125 for _, _, d in summaries)),
        "mode": "lower_bound",
    }, [("noise_instability.csv", lambda path: write_csv(
        path, ["seed_index", "separated_coverage", "witness_side_mass",
               "sep_at_0.475", "dim_separation"], rows))]


def _run_sampling_convergence(spec: ExperimentSpec) -> tuple[dict, list]:
    p = _params(spec, {"d": 8, "sizes": [50, 100, 150, 200, 256], "n_seeds": 20,
                       "restarts": 4})
    check_int(p["n_seeds"], "param n_seeds", least=1)
    for size in p["sizes"]:  # a 1-point sample has dimension inf
        check_int(size, "param sizes", least=2)
    cube = generate(GeneratorSpec("hamming_cube", 0, {"d": p["d"]}))
    cube_dim = dim_separation(sep_hamming_profile(p["d"]))
    rows = []
    errors: dict[int, list[float]] = {size: [] for size in p["sizes"]}
    for s in range(p["n_seeds"]):
        for size in p["sizes"]:
            seed = derived_seed(spec.seed, s, size)
            rng = np.random.default_rng(seed)
            ids = rng.choice(cube.n, size=min(size, cube.n), replace=False)
            sub = cube.subspace(np.sort(ids))
            prof = sep_lower(sub, restarts=p["restarts"],
                             seed=derived_seed(spec.seed, s, size, 1))
            dim = dim_separation(prof)
            err = abs(dim - cube_dim)
            rows.append([s, int(size), float(dim), float(err)])
            errors[size].append(err)
    medians = [float(np.median(errors[size])) for size in p["sizes"]]
    return {
        "cube_dim_separation": float(cube_dim),
        "median_abs_error_by_size": medians,
        "strictly_decreasing": all(a > b for a, b in zip(medians, medians[1:])),
        "mode": "lower_bound",
    }, [("sampling_convergence.csv", lambda path: write_csv(
        path, ["seed_index", "sample_size", "dim_separation", "abs_error"], rows))]


#: each runner returns its summary and its files, as ``(name, write)``
#: pairs that `run` calls with the file's path once the run is done.
_RUNNERS = {
    "sphere_separation": _run_sphere_separation,
    "sphere_alpha_line": _run_sphere_alpha_line,
    "hamming_dimension": _run_hamming_dimension,
    "noise_instability": _run_noise_instability,
    "sampling_convergence": _run_sampling_convergence,
}

#: every experiment's name, for messages and the command line's help.
EXPERIMENT_NAMES = tuple(_RUNNERS)


def run(spec: ExperimentSpec, out_dir) -> dict:
    """Run one experiment, then write its curves and ``manifest.json`` to
    `out_dir` through ``io.write_outputs``; return the manifest.  The runner
    computes everything and writes nothing, and `out_dir` is made only once
    it has returned, so a refused spec or a failed run leaves no directory.
    An `out_dir` that cannot be made is an ``OutputError`` before the run
    (``io.check_writable``), and one that cannot be written after it.  An
    integral float seed runs, and is recorded, as its int."""
    if spec.name not in _RUNNERS:
        raise InputError(
            f"unknown experiment {spec.name!r}; choose from {EXPERIMENT_NAMES}"
        )
    spec = replace(spec, seed=check_int(spec.seed, "seed", least=0))
    check_writable(out_dir)
    summary, files = _RUNNERS[spec.name](spec)
    summary["curves"] = [name for name, _ in files]
    return write_outputs(out_dir, files, "manifest.json",
                         experiment=spec.to_json_dict(), summary=summary)
