import json

import numpy as np
import pytest

from concdim import concentration as conc, experiments, mmspace
from concdim.concentration import sep_hamming_analytic, sep_lower
from concdim.errors import InputError, OutputError
from concdim.experiments import ExperimentSpec, derived_seed, run
from concdim.features import dictionary
from concdim.mmspace import GeneratorSpec, from_points, generate

from util import count_rows, forbid_point_reads


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(InputError, match="unknown experiment"):
        run(ExperimentSpec("nope"), tmp_path)


def test_unknown_param_rejected(tmp_path):
    with pytest.raises(InputError, match="unknown params"):
        run(ExperimentSpec("hamming_dimension", 0, {"bogus": 1}), tmp_path)


@pytest.mark.parametrize("name, params, match", [
    ("sampling_convergence", {"sizes": 3}, "must be a list"),
    ("sampling_convergence", {"sizes": [50, "x"]}, "must be an integer"),
    ("sampling_convergence", {"n_seeds": 2.5}, "must be an integer"),
    ("sampling_convergence", {"n_seeds": True}, "must be an integer"),
    ("sampling_convergence", {"restarts": [4]}, "must be an integer"),
    ("noise_instability", {"sigma2": float("nan")}, "must be a finite number"),
    ("noise_instability", {"min_distance": "1"}, "must be a finite number"),
])
def test_params_of_another_type_rejected(tmp_path, name, params, match):
    with pytest.raises(InputError, match=match):
        run(ExperimentSpec(name, 0, params), tmp_path)


@pytest.mark.parametrize("spec, match", [
    (ExperimentSpec("nope"), "unknown experiment"),
    (ExperimentSpec("sampling_convergence", 0, {"sizes": 3}), "must be a list"),
    (ExperimentSpec("hamming_dimension", -1), "seed must be an integer >= 0, got -1"),
    # no library call checks these; each ended in a ValueError
    (ExperimentSpec("sampling_convergence", 0, {"n_seeds": 0}),
     "n_seeds must be an integer >= 1, got 0"),
    (ExperimentSpec("sampling_convergence", 0, {"sizes": [1], "n_seeds": 1}),
     "sizes must be an integer >= 2, got 1"),
    (ExperimentSpec("noise_instability", 0, {"sigma2": -1.0, "n": 5, "n_seeds": 1}),
     "sigma2 must be >= 0, got -1.0"),
])
def test_a_refused_spec_leaves_no_output_directory(tmp_path, spec, match):
    out = tmp_path / "out"
    with pytest.raises(InputError, match=match):
        run(spec, out)
    assert not out.exists()


def test_a_failed_run_leaves_no_output_directory(tmp_path, monkeypatch):
    # the runner computes everything before run makes the directory
    def fail(spec):
        raise RuntimeError("the runner failed")

    monkeypatch.setitem(experiments._RUNNERS, "hamming_dimension", fail)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="the runner failed"):
        run(ExperimentSpec("hamming_dimension"), out)
    assert not out.exists()


def test_an_output_directory_under_a_file_is_refused_before_the_run(tmp_path,
                                                                   monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setitem(experiments._RUNNERS, "hamming_dimension",
                        lambda spec: pytest.fail("experiment run"))
    with pytest.raises(OutputError, match="is not writable"):
        run(ExperimentSpec("hamming_dimension"), blocker / "out")
    assert blocker.is_file()


def test_an_output_file_that_cannot_be_written_is_an_output_error(tmp_path):
    # the directory is writable, but a directory stands where a file goes
    (tmp_path / "hamming_sep_dimension.csv").mkdir()
    with pytest.raises(OutputError, match="is not writable") as info:
        run(ExperimentSpec("hamming_dimension", 0, {"d_values": [3]}), tmp_path)
    assert isinstance(info.value.__cause__, IsADirectoryError)
    assert not (tmp_path / "manifest.json").exists()


def test_integral_float_params_pass_as_integers(tmp_path):
    # the command line reads n=1e4 as a float
    run(ExperimentSpec("sampling_convergence", 0,
                       {"n_seeds": 1.0, "sizes": [50.0], "d": 4.0}), tmp_path)
    rows = (tmp_path / "sampling_convergence.csv").read_text().splitlines()
    assert rows[1].startswith("0,50,")


CLOUD = from_points(np.random.default_rng(5).normal(size=(30, 2)))


def _written(spec, out, names=None) -> dict:
    """Run `spec` into `out`; the bytes of each file it wrote, or of `names`."""
    run(spec, out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if names is None or p.name in names}


#: each call takes one integer input, `v`, and an output directory, and
#: returns the bytes of its result
@pytest.mark.parametrize("call, v", [
    (lambda v, out: sep_lower(CLOUD, restarts=v, seed=v + 1).sep.tobytes(), 2),
    (lambda v, out: b"".join(f.values.tobytes()
                             for f in dictionary(CLOUD, "anchors_random", k=v)), 2),
    (lambda v, out: generate(GeneratorSpec(
        "gaussian_cloud", 0, {"d": 2, "sigma": 1.0, "n": v})).coords.tobytes(), 100),
    (lambda v, out: np.float64(sep_hamming_analytic(v, 0.25)).tobytes(), 9),
    # the manifest records the params as given, so compare the curve alone
    (lambda v, out: _written(ExperimentSpec("sampling_convergence", 0, {
        "d": 4, "sizes": [8], "n_seeds": v}), out, ["sampling_convergence.csv"]), 2),
    (lambda v, out: _written(ExperimentSpec("sampling_convergence", v, {
        "d": 4, "sizes": [8], "n_seeds": 2}), out), 1),
], ids=["sep_lower", "dictionary", "generate", "sep_hamming_analytic",
        "experiment_param", "experiment_seed"])
def test_an_integral_float_passes_wherever_an_integer_is_taken(tmp_path, call, v):
    # the command line reads n=1e2 as a float; the result is the int's, bit
    # for bit, and an experiment's manifest records the seed 1.0 as 1
    assert call(float(v), tmp_path / "float") == call(v, tmp_path / "int")
    for bad in (v + 0.5, True):
        with pytest.raises(InputError, match="must be an integer"):
            call(bad, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


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


def test_noise_instability_computes_no_row_beyond_its_witnesses(monkeypatch, tmp_path):
    # on an unheld cloud: the greedy subset's scan, the ball-complement
    # witnesses (below their size limit, for each far seed the centre's row
    # and one row per point until the ball holds half the mass), three seed
    # rows and two growth curves of at most n rows each; the diameter comes
    # from the first curve, so an added pass fails here.  No single point
    # is read through dist_row or distance, and the outputs are those of
    # the held cloud
    n = 2000
    spec = ExperimentSpec("noise_instability", 0, {"n": n, "n_seeds": 1})
    forbid_point_reads(monkeypatch)
    run(spec, tmp_path / "held")
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    rows = {}
    calls = count_rows(monkeypatch)

    def within(name, fn):
        def wrapped(*args, **kwargs):
            start = len(calls)
            try:
                return fn(*args, **kwargs)
            finally:
                rows[name] = rows.get(name, 0) + sum(map(len, calls[start:]))
        return wrapped

    monkeypatch.setattr(experiments, "greedy_separated_subset",
                        within("subset", experiments.greedy_separated_subset))
    monkeypatch.setattr(conc, "_ball_complement_witness",
                        within("ball", conc._ball_complement_witness))
    run(spec, tmp_path / "unheld")
    rows["all"] = sum(map(len, calls))
    assert 0 < rows["subset"] <= n
    assert rows["ball"] == 2 * (1 + n // 2)
    assert rows["all"] - rows["subset"] - rows["ball"] <= 2 * n + 3
    held = sorted((tmp_path / "held").iterdir())
    assert held
    for path in held:
        assert path.read_bytes() == (tmp_path / "unheld" / path.name).read_bytes()
