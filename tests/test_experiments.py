import json

import numpy as np
import pytest

from concdim.errors import InputError
from concdim.experiments import ExperimentSpec, derived_seed, run


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(InputError, match="unknown experiment"):
        run(ExperimentSpec("nope"), tmp_path)


def test_unknown_param_rejected(tmp_path):
    with pytest.raises(InputError, match="unknown params"):
        run(ExperimentSpec("hamming_dimension", 0, {"bogus": 1}), tmp_path)


def test_derived_seed_deterministic():
    assert derived_seed(7, 1, 2) == derived_seed(7, 1, 2)
    assert derived_seed(7, 1, 2) != derived_seed(7, 2, 1)


def test_hamming_dimension_curve(tmp_path):
    manifest = run(ExperimentSpec("hamming_dimension", 0,
                                  {"d_values": [11, 13, 15, 17]}), tmp_path)
    assert manifest["summary"]["monotone_increasing"] is True
    rows = np.loadtxt(tmp_path / "hamming_sep_dimension.csv",
                      delimiter=",", skiprows=1)
    assert rows.shape == (4, 2)
    assert np.all(np.diff(rows[:, 1]) > 0)


def test_manifest_records_provenance(tmp_path):
    run(ExperimentSpec("hamming_dimension", 3, {"d_values": [11, 13]}), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"]["seed"] == 3
    assert manifest["rng_algorithm"] == "numpy PCG64"
    assert manifest["package_version"]
    assert manifest["summary"]["mode"] == "analytic"


def test_sampling_convergence_small(tmp_path):
    manifest = run(ExperimentSpec("sampling_convergence", 5,
                                  {"sizes": [60, 256], "n_seeds": 4}), tmp_path)
    med = manifest["summary"]["median_abs_error_by_size"]
    assert len(med) == 2
    assert med[0] > med[1]


def test_noise_instability_success_regime(tmp_path):
    # at fixed sample size the separated fraction approaches 1 once the
    # ambient dimension is large enough; exercises the full pipeline fast
    manifest = run(ExperimentSpec("noise_instability", 2, {
        "d": 400, "sigma2": 1.0 / 400.0, "n": 500, "n_seeds": 2,
        "restarts": 2,
    }), tmp_path)
    s = manifest["summary"]
    assert s["seeds_with_95pct_coverage"] == 2
    assert s["seeds_with_sep_ge_1_at_0.475"] == 2
    assert s["seeds_with_dim_le_1.125"] == 2


def test_sphere_separation_small(tmp_path):
    manifest = run(ExperimentSpec("sphere_separation", 1, {
        "dims": [3, 10], "n": 800, "restarts": 3, "check_kappas": [0.05, 0.1],
    }), tmp_path)
    checks = manifest["summary"]["kappa_checks"]
    assert checks[repr(0.05)]["pointwise_decreasing"] is True
    assert (tmp_path / "sep_sphere_d3.csv").exists()


def test_sphere_alpha_line_small(tmp_path):
    manifest = run(ExperimentSpec("sphere_alpha_line", 1, {
        "dims": [3, 10], "n": 600, "anchors": 8,
    }), tmp_path)
    s = manifest["summary"]
    assert len(s["alpha_eq_half_eps_crossings"]) == 2
    assert (tmp_path / "alpha_sphere_d3.csv").exists()
    spacing = s["mean_nn_spacing_by_dim"]
    assert len(spacing) == 2 and all(sp > 0 for sp in spacing)
    # 600 points on S^10 are far coarser than its alpha = eps/2 crossing
    assert spacing[1] > s["alpha_eq_half_eps_crossings"][1] / 4
    assert s["resolved"] is False


def test_sphere_alpha_line_defaults_resolve_the_crossing(tmp_path):
    s = run(ExperimentSpec("sphere_alpha_line", 0), tmp_path)["summary"]
    assert [p.name for p in sorted(tmp_path.glob("alpha_sphere_d*.csv"))] == [
        "alpha_sphere_d1.csv", "alpha_sphere_d2.csv", "alpha_sphere_d3.csv"]
    assert s["resolved"] is True
    assert all(sp <= c / 4 for sp, c in zip(s["mean_nn_spacing_by_dim"],
                                            s["alpha_eq_half_eps_crossings"]))
    assert s["midpoints_strictly_decreasing"] is True


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    spec = ExperimentSpec("sampling_convergence", 9,
                          {"sizes": [50, 100], "n_seeds": 3})
    run(spec, a)
    run(spec, b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()

def test_sphere_experiments_rerun_byte_identical(tmp_path):
    for name, params in [
        ("sphere_separation", {"dims": [3, 10], "n": 400, "restarts": 2,
                               "check_kappas": [0.1]}),
        ("sphere_alpha_line", {"dims": [3, 10], "n": 400, "anchors": 6}),
    ]:
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        spec = ExperimentSpec(name, 11, params)
        run(spec, a)
        run(spec, b)
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

def test_experiment_point_limit(tmp_path):
    from concdim.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError, match="limited"):
        run(ExperimentSpec("sphere_separation", 0, {"n": 200_000}), tmp_path)
