"""Reproducible experiment harness: seeded runs emitting CSV curves.

Each experiment is an entry of one table, ``_EXPERIMENTS``: its runner and
the defaults of its parameters.  :func:`run` reads an
:class:`ExperimentSpec`'s parameters once against those defaults, and the
runner takes the values read and the seed.  It computes everything first
and returns its summary and its files, one CSV per curve; only then does
:func:`run` hand them to ``io.write_outputs``, which makes the output
directory and writes them, with a ``manifest.json`` capturing everything
needed to rerun it byte-identically: the name, the seed, each given
parameter as read, derived seeds, grids, certificate modes, and the RNG
algorithm.  A parameter takes its default's type, an integer through
``mmspace.check_int``, so ``n_seeds=1e0`` runs, and is recorded, as
``n_seeds=1``.  The values no library call checks (a
``sampling_convergence`` ``n_seeds`` below 1 or size below 2 or above
the cube's ``2**d`` points, a ``noise_instability`` ``sigma2`` below 0)
are refused before the run.  So a refused spec, or a run that fails,
leaves no directory.  An output directory that cannot be made or written
is an ``OutputError``, raised before the run where ``io.check_writable``
can tell.  Numbers are serialized with ``repr`` so reruns with an equal
spec produce identical bytes.

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
from dataclasses import dataclass, field

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


def derived_seed(root: int, *path: int) -> int:
    """Deterministic child seed for an indexed sub-task."""
    return int(np.random.SeedSequence([root, *path]).generate_state(1)[0])


def _params(spec: ExperimentSpec, defaults: dict) -> dict:
    """`defaults` with `spec`'s parameters over them, each read in its
    default's type (`_typed`); InputError for a name `defaults` lacks,
    ResourceLimitError for more than ``MAX_EXPERIMENT_POINTS`` points."""
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise InputError(f"unknown params for {spec.name}: {unknown}")
    merged = dict(defaults)
    merged.update({k: _typed(k, v, defaults[k]) for k, v in spec.params.items()})
    if merged.get("n", 0) > MAX_EXPERIMENT_POINTS:
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


def _spheres(p: dict, seed: int):
    """``(dim, space, seed)`` for each of ``p["dims"]`` in turn: a sample of
    ``p["n"]`` points on the sphere S^dim, and the seed of its witnesses."""
    for idx, dim in enumerate(p["dims"]):
        space = generate(GeneratorSpec("sphere", derived_seed(seed, idx),
                                       {"n_dim": dim, "n": p["n"]}))
        yield dim, space, derived_seed(seed, idx, 1)


def _run_sphere_separation(p: dict, seed: int) -> tuple[dict, list]:
    grid = default_kappa_grid()
    files = []
    curves = {}
    for dim, space, witness_seed in _spheres(p, seed):
        prof = sep_lower(space, grid, restarts=p["restarts"], seed=witness_seed)
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


def _run_sphere_alpha_line(p: dict, seed: int) -> tuple[dict, list]:
    files = []
    crossings = []
    midpoints = []
    spacings = []
    for dim, space, witness_seed in _spheres(p, seed):
        feats = make_dictionary(space, "anchors_random", k=p["anchors"],
                                seed=witness_seed)
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


def _run_hamming_dimension(p: dict, seed: int) -> tuple[dict, list]:
    dims = [dim_separation(sep_hamming_profile(d)) for d in p["d_values"]]
    rows = [[d, float(dim)] for d, dim in zip(p["d_values"], dims)]
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


def _run_noise_instability(p: dict, seed: int) -> tuple[dict, list]:
    if p["sigma2"] < 0:
        raise InputError(f"param sigma2 must be >= 0, got {p['sigma2']!r}")
    rows = []
    summaries = []
    for s in range(p["n_seeds"]):
        space = generate(GeneratorSpec(
            "gaussian_cloud", derived_seed(seed, s),
            {"d": p["d"], "sigma": math.sqrt(p["sigma2"]), "n": p["n"]},
        ))
        subset = greedy_separated_subset(space, p["min_distance"])
        coverage = len(subset) / space.n
        min_side, _, _ = split_witness(space, subset)
        prof = _noise_profile(space, min_side, p["min_distance"],
                              derived_seed(seed, s, 1), p["restarts"])
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


def _run_sampling_convergence(p: dict, seed: int) -> tuple[dict, list]:
    check_int(p["n_seeds"], "param n_seeds", least=1)
    cube = generate(GeneratorSpec("hamming_cube", 0, {"d": p["d"]}))
    for size in p["sizes"]:  # a 1-point sample has dimension inf
        check_int(size, "param sizes", least=2)
        if size > cube.n:
            raise InputError(f"param sizes must be at most 2**d = {cube.n}, got {size}")
    cube_dim = dim_separation(sep_hamming_profile(p["d"]))
    rows = []
    errors: dict[int, list[float]] = {size: [] for size in p["sizes"]}
    for s in range(p["n_seeds"]):
        for size in p["sizes"]:
            rng = np.random.default_rng(derived_seed(seed, s, size))
            ids = rng.choice(cube.n, size=size, replace=False)
            sub = cube.subspace(np.sort(ids))
            prof = sep_lower(sub, restarts=p["restarts"],
                             seed=derived_seed(seed, s, size, 1))
            dim = dim_separation(prof)
            err = abs(dim - cube_dim)
            rows.append([s, size, float(dim), float(err)])
            errors[size].append(err)
    medians = [float(np.median(errors[size])) for size in p["sizes"]]
    return {
        "cube_dim_separation": float(cube_dim),
        "median_abs_error_by_size": medians,
        "strictly_decreasing": all(a > b for a, b in zip(medians, medians[1:])),
        "mode": "lower_bound",
    }, [("sampling_convergence.csv", lambda path: write_csv(
        path, ["seed_index", "sample_size", "dim_separation", "abs_error"], rows))]


#: each experiment's runner and the defaults of its parameters.  `run`
#: reads the parameters (`_params`) and calls ``runner(params, seed)``,
#: which returns its summary and its files, as ``(name, write)`` pairs
#: that `run` calls with the file's path once the run is done.
_EXPERIMENTS = {
    "sphere_separation": (_run_sphere_separation, {
        "dims": [3, 10, 30, 100], "n": 3000, "restarts": 4,
        "check_kappas": [0.05, 0.1, 0.2]}),
    "sphere_alpha_line": (_run_sphere_alpha_line, {
        "dims": [1, 2, 3], "n": 3000, "anchors": 16}),
    "hamming_dimension": (_run_hamming_dimension, {
        "d_values": list(range(11, 26, 2))}),
    "noise_instability": (_run_noise_instability, {
        "d": 50, "sigma2": 1.0 / 50.0, "n": 10_000, "n_seeds": 5,
        "min_distance": 1.0, "restarts": 2}),
    "sampling_convergence": (_run_sampling_convergence, {
        "d": 8, "sizes": [50, 100, 150, 200, 256], "n_seeds": 20, "restarts": 4}),
}

#: every experiment's name, for messages and the command line's help.
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run(spec: ExperimentSpec, out_dir) -> dict:
    """Run one experiment, then write its curves and ``manifest.json`` to
    `out_dir` through ``io.write_outputs``; return the manifest.

    The name and the seed are checked and the parameters read once
    (`_params`), all before `out_dir` is checked and the runner called
    with the values read.  The runner computes everything and writes
    nothing, and `out_dir` is made only once it has returned, so a refused
    spec or a failed run leaves no directory.  An `out_dir` that cannot be
    made is an ``OutputError`` before the run (``io.check_writable``), and
    one that cannot be written after it.  The manifest's ``experiment``
    block records the name, the seed and each given parameter as read: an
    integral float seed or integer parameter runs, and is recorded, as its
    int."""
    if spec.name not in _EXPERIMENTS:
        raise InputError(
            f"unknown experiment {spec.name!r}; choose from {EXPERIMENT_NAMES}"
        )
    runner, defaults = _EXPERIMENTS[spec.name]
    seed = check_int(spec.seed, "seed", least=0)
    p = _params(spec, defaults)
    check_writable(out_dir)
    summary, files = runner(p, seed)
    summary["curves"] = [name for name, _ in files]
    experiment = {"name": spec.name, "seed": seed,
                  "params": {k: p[k] for k in spec.params}}
    return write_outputs(out_dir, files, "manifest.json",
                         experiment=experiment, summary=summary)
