"""Reproducible experiment harness: seeded runs emitting CSV curves.

Each experiment is declared by an :class:`ExperimentSpec` and writes, into
an output directory, one CSV per curve plus a ``manifest.json`` capturing
everything needed to rerun it byte-identically: the spec, derived seeds,
grids, certificate modes, and the RNG algorithm.  Numbers are serialized
with ``repr`` so reruns with an equal spec produce identical bytes.

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

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import (
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
from .mmspace import GeneratorSpec, MMSpace, diameter, generate

RNG_ALGORITHM = "numpy PCG64"

#: per-space sample-size ceiling for experiment runs.
MAX_EXPERIMENT_POINTS = 100_000

EXPERIMENT_NAMES = (
    "sphere_separation",
    "sphere_alpha_line",
    "hamming_dimension",
    "noise_instability",
    "sampling_convergence",
)


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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _write_manifest(out_dir: Path, payload: dict) -> Path:
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _params(spec: ExperimentSpec, defaults: dict) -> dict:
    unknown = sorted(set(spec.params) - set(defaults))
    if unknown:
        raise InputError(f"unknown params for {spec.name}: {unknown}")
    merged = dict(defaults)
    merged.update(spec.params)
    if merged.get("n", 0) and int(merged["n"]) > MAX_EXPERIMENT_POINTS:
        raise ResourceLimitError(
            f"experiments are limited to {MAX_EXPERIMENT_POINTS} points per "
            f"space; got n={merged['n']}"
        )
    return merged


def _sphere(dim: int, n: int, seed: int) -> MMSpace:
    return generate(GeneratorSpec("sphere", seed, {"n_dim": dim, "n": n}))


def _run_sphere_separation(spec: ExperimentSpec, out_dir: Path) -> dict:
    p = _params(spec, {"dims": [3, 10, 30, 100], "n": 3000, "restarts": 4,
                       "check_kappas": [0.05, 0.1, 0.2]})
    grid = default_kappa_grid()
    outputs = []
    curves = {}
    for idx, dim in enumerate(p["dims"]):
        seed = derived_seed(spec.seed, idx)
        space = _sphere(dim, p["n"], seed)
        prof = sep_lower(space, grid, restarts=p["restarts"],
                         seed=derived_seed(spec.seed, idx, 1))
        name = f"sep_sphere_d{dim}.csv"
        prof.to_csv(out_dir / name)
        outputs.append(name)
        curves[dim] = prof
    checks = {}
    for kap in p["check_kappas"]:
        j = int(np.searchsorted(grid, kap))
        vals = [float(curves[d].sep[j]) for d in p["dims"]]
        checks[repr(kap)] = {
            "values_by_dim": vals,
            "pointwise_decreasing": all(a > b for a, b in zip(vals, vals[1:])),
        }
    return {"curves": outputs, "kappa_checks": checks,
            "mode": "lower_bound", "kappa_grid_size": int(grid.size)}


def _mean_nn_spacing(space: MMSpace) -> float:
    """Mean distance from each point to its nearest other point."""
    if space.n < 2:
        return 0.0
    nearest = [np.partition(blk, 1, axis=1)[:, 1] for _, blk in space.iter_blocks()]
    return float(np.concatenate(nearest).mean())


def _run_sphere_alpha_line(spec: ExperimentSpec, out_dir: Path) -> dict:
    p = _params(spec, {"dims": [1, 2, 3], "n": 3000, "anchors": 16})
    outputs = []
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
        name = f"alpha_sphere_d{dim}.csv"
        prof.to_csv(out_dir / name)
        outputs.append(name)
        bracket = dconc_to_point_bracket(prof)
        crossings.append(2.0 * bracket.lo)
        midpoints.append(bracket.midpoint)
        spacings.append(_mean_nn_spacing(space))
    return {
        "curves": outputs,
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
    }


def _run_hamming_dimension(spec: ExperimentSpec, out_dir: Path) -> dict:
    p = _params(spec, {"d_values": list(range(11, 26, 2))})
    rows = []
    dims = []
    for d in p["d_values"]:
        prof = sep_hamming_profile(int(d))
        dim = dim_separation(prof)
        rows.append([int(d), float(dim)])
        dims.append(dim)
    _write_csv(out_dir / "hamming_sep_dimension.csv", ["d", "dim_separation"], rows)
    return {
        "curves": ["hamming_sep_dimension.csv"],
        "monotone_increasing": all(a < b for a, b in zip(dims, dims[1:])),
        "mode": "analytic",
    }


def _noise_profile(space: MMSpace, min_side_mass: float, min_distance: float,
                   seed: int, restarts: int) -> SeparationProfile:
    """Combine the separated-subset witness with greedy growth bounds."""
    grid = np.unique(np.concatenate([default_kappa_grid(), [0.475]]))
    greedy = sep_lower(space, grid, restarts=restarts, seed=seed)
    witness = np.where(grid <= min_side_mass + 1e-12, min_distance, 0.0)
    vals = np.maximum(greedy.sep, witness)
    vals = np.minimum.accumulate(vals)
    return SeparationProfile(grid, vals, "lower_bound", greedy.diameter, step=False)


def _run_noise_instability(spec: ExperimentSpec, out_dir: Path) -> dict:
    p = _params(spec, {"d": 50, "sigma2": 1.0 / 50.0, "n": 10_000, "n_seeds": 5,
                       "min_distance": 1.0, "restarts": 2})
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
        at = int(np.searchsorted(prof.kappa_grid, 0.475))
        sep_0475 = float(prof.sep[at])
        dim = dim_separation(prof)
        rows.append([s, float(coverage), float(min_side), sep_0475, float(dim)])
        summaries.append((coverage, sep_0475, dim))
    _write_csv(out_dir / "noise_instability.csv",
               ["seed_index", "separated_coverage", "witness_side_mass",
                "sep_at_0.475", "dim_separation"], rows)
    coverages = [c for c, _, _ in summaries]
    return {
        "curves": ["noise_instability.csv"],
        "coverage_by_seed": [float(c) for c in coverages],
        "seeds_with_95pct_coverage": int(sum(c >= 0.95 for c in coverages)),
        "seeds_with_sep_ge_1_at_0.475": int(sum(s >= 1.0 for _, s, _ in summaries)),
        "seeds_with_dim_le_1.125": int(sum(d <= 1.125 for _, _, d in summaries)),
        "mode": "lower_bound",
    }


def _run_sampling_convergence(spec: ExperimentSpec, out_dir: Path) -> dict:
    p = _params(spec, {"d": 8, "sizes": [50, 100, 150, 200, 256], "n_seeds": 20,
                       "restarts": 4})
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
    _write_csv(out_dir / "sampling_convergence.csv",
               ["seed_index", "sample_size", "dim_separation", "abs_error"], rows)
    medians = [float(np.median(errors[size])) for size in p["sizes"]]
    return {
        "curves": ["sampling_convergence.csv"],
        "cube_dim_separation": float(cube_dim),
        "median_abs_error_by_size": medians,
        "strictly_decreasing": all(a > b for a, b in zip(medians, medians[1:])),
        "mode": "lower_bound",
    }


_RUNNERS = {
    "sphere_separation": _run_sphere_separation,
    "sphere_alpha_line": _run_sphere_alpha_line,
    "hamming_dimension": _run_hamming_dimension,
    "noise_instability": _run_noise_instability,
    "sampling_convergence": _run_sampling_convergence,
}


def run(spec: ExperimentSpec, out_dir) -> dict:
    """Run one experiment, write its curves and manifest, return the summary."""
    if spec.name not in _RUNNERS:
        raise InputError(
            f"unknown experiment {spec.name!r}; choose from {EXPERIMENT_NAMES}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _RUNNERS[spec.name](spec, out)
    manifest = {
        "experiment": spec.to_json_dict(),
        "rng_algorithm": RNG_ALGORITHM,
        "package_version": __version__,
        "summary": summary,
    }
    _write_manifest(out, manifest)
    return manifest
