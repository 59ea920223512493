import ast
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concdim
from concdim.cli import main
from concdim.concentration import DEFAULT_KAPPA_POINTS, sep_exact
from concdim.mmspace import GeneratorSpec, generate
from util import run_fresh


def run_cli(*args) -> int:
    return main(list(args))


def test_gen_writes_points_and_manifest(tmp_path):
    out = tmp_path / "cube"
    assert run_cli("gen", "--family", "hamming_cube", "--param", "d=3",
                   "--out", str(out)) == 0
    rows = (out / "points.csv").read_text().strip().splitlines()
    assert len(rows) == 9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["generator"]["family"] == "hamming_cube"
    assert manifest["rng_algorithm"] == "numpy PCG64"


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen", "--family", "gaussian_cloud", "--param", "d=3",
                       "--param", "sigma=0.5", "--param", "n=40",
                       "--seed", "7", "--out", str(out)) == 0
    assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()


def test_alpha_exact_on_csv(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("x0\n0.0\n1.0\n")
    out = tmp_path / "alpha"
    assert run_cli("alpha", "--points", str(points), "--eps", "0.5",
                   "--out", str(out)) == 0
    payload = json.loads((out / "alpha.json").read_text())
    assert payload["alpha_at_eps"]["alpha"] == 0.5
    assert "alpha at eps=0.5: 0.5\n" in capsys.readouterr().out
    assert payload["profile"]["mode"] == "exact"


def test_sep_exact_on_two_point_csv(tmp_path):
    dist = tmp_path / "d.csv"
    dist.write_text("0,1\n1,0\n")
    out = tmp_path / "sep"
    assert run_cli("sep", "--dist", str(dist), "--kappa", "0.25",
                   "--out", str(out)) == 0
    payload = json.loads((out / "sep.json").read_text())
    assert payload["sep_at_kappa"]["sep"] == 1.0
    assert payload["profile"]["mode"] == "exact"


def test_a_bare_sep_grid_means_the_default_grid(tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("x0,x1\n0,0\n1,0\n0,2\n3,1\n1,1\n")
    for mode in ("exact", "heuristic"):
        outs = [tmp_path / f"{mode}{k}" for k in range(2)]
        for out, grid in zip(outs, ([], ["--grid"])):
            assert run_cli("sep", "--points", str(points), "--mode", mode, *grid,
                           "--out", str(out)) == 0
        csvs = [(out / "sep.csv").read_bytes() for out in outs]
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) == DEFAULT_KAPPA_POINTS + 1


def test_dims_singleton_reports_infinite(tmp_path):
    points = tmp_path / "pt.csv"
    points.write_text("x0\n0.0\n")
    out = tmp_path / "dims"
    assert run_cli("dims", "--points", str(points), "--out", str(out)) == 0
    payload = json.loads((out / "dimensions.json").read_text())
    rep = payload["report"]
    assert rep["dim_concentration"] == "inf"
    assert rep["dim_separation"] == "inf"
    assert rep["dim_chavez"] == "inf"


def test_dims_on_collinear_cloud_at_large_scale(tmp_path):
    # exact collinear triples at 1e6 sit at the GEMM kernel's accuracy,
    # 1e-12 x (1 + largest norm), far above an absolute 1e-9
    x = np.linspace(0.0, 1e6, 200)[:, None] * np.ones(20)
    points = tmp_path / "line.csv"
    points.write_text("\n".join(",".join(repr(float(v)) for v in r) for r in x) + "\n")
    assert run_cli("dims", "--points", str(points), "--out", str(tmp_path / "dims")) == 0


def test_emd_self_is_zero(tmp_path):
    dist = tmp_path / "d.csv"
    dist.write_text("0,1\n1,0\n")
    mu = tmp_path / "mu.csv"
    mu.write_text("0.5\n0.5\n")
    out = tmp_path / "emd"
    assert run_cli("emd", "--space", str(dist), "--mu", str(mu),
                   "--nu", str(mu), "--out", str(out)) == 0
    payload = json.loads((out / "emd.json").read_text())
    assert payload["cost"] == 0.0


def test_net_and_bound_pipeline(tmp_path):
    points = tmp_path / "pts.csv"
    rng = np.random.default_rng(0)
    lines = ["x0,x1"] + [f"{x},{y}" for x, y in rng.random((40, 2))]
    points.write_text("\n".join(lines) + "\n")
    out = tmp_path / "net"
    grid = [str(v) for v in np.geomspace(4e-4, 2.0, 40)]
    assert run_cli("net", "--points", str(points), "--grid", *grid,
                   "--out", str(out)) == 0
    out2 = tmp_path / "bound"
    assert run_cli("bound", "--eps", "0.2", "--delta", "1e-3",
                   "--cover", str(out / "covering.csv"),
                   "--out", str(out2)) == 0
    payload = json.loads((out2 / "bound.json").read_text())
    assert payload["sample_size"] >= 1


def test_sep_analytic_subcommand(tmp_path):
    out = tmp_path / "h"
    assert run_cli("sep", "--analytic-d", "3", "--kappa", "0.5",
                   "--out", str(out)) == 0
    payload = json.loads((out / "sep.json").read_text())
    assert payload["sep"] == pytest.approx(1 / 3)


def test_exit_code_input_error(tmp_path):
    missing = tmp_path / "nope.csv"
    assert run_cli("alpha", "--points", str(missing),
                   "--out", str(tmp_path)) == 2


def test_points_with_no_coordinate_column_exit_2(tmp_path):
    # the weight column alone left an (n, 0) space whose normalized Hamming
    # distances were NaN, written to sep.json as "diameter": NaN
    points = tmp_path / "w.csv"
    points.write_text("weight\n1\n2\n3\n")
    out = tmp_path / "sep"
    assert run_cli("sep", "--points", str(points), "--metric", "normalized_hamming",
                   "--out", str(out)) == 2
    assert not (out / "sep.json").exists()


def test_exit_code_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0\n0.0\nnot-a-number\n")
    assert run_cli("alpha", "--points", str(bad), "--out", str(tmp_path)) == 2
    assert "line 3" in capsys.readouterr().err


def test_exit_code_resource_limit(tmp_path):
    assert run_cli("gen", "--family", "hamming_cube", "--param", "d=25",
                   "--out", str(tmp_path)) == 3


def test_exit_code_exact_mode_over_limit(tmp_path):
    points = tmp_path / "pts.csv"
    rng = np.random.default_rng(1)
    lines = ["x0"] + [repr(float(v)) for v in rng.random(30)]
    points.write_text("\n".join(lines) + "\n")
    assert run_cli("alpha", "--points", str(points), "--mode", "exact",
                   "--out", str(tmp_path)) == 3


def test_exit_code_unknown_experiment(tmp_path):
    assert run_cli("experiment", "--name", "nope", "--out", str(tmp_path)) == 2


@pytest.mark.skipif(os.geteuid() == 0, reason="root bypasses permissions")
def test_exit_code_unwritable_output(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        assert run_cli("gen", "--family", "hamming_cube", "--param", "d=2",
                       "--out", str(blocked / "sub")) == 5
    finally:
        blocked.chmod(stat.S_IRWXU)


def test_exit_code_unwritable_output_file_collision(tmp_path):
    # a regular file where the output directory should be is unwritable
    target = tmp_path / "occupied"
    target.write_text("")
    assert run_cli("gen", "--family", "hamming_cube", "--param", "d=2",
                   "--out", str(target)) == 5


@pytest.mark.parametrize("args, name", [
    (["alpha", "--family", "hamming_cube", "--param", "d=3"], "alpha.csv"),
    (["gen", "--family", "hamming_cube", "--param", "d=2"], "manifest.json"),
    (["experiment", "--name", "hamming_dimension", "--param", "d_values=3,5"],
     "hamming_sep_dimension.csv"),
])
def test_an_output_file_that_cannot_be_written_exits_5(tmp_path, capsys, args, name):
    # --out is a writable directory, but a directory stands where a file goes
    (tmp_path / "out" / name).mkdir(parents=True)
    assert run_cli(*args, "--out", str(tmp_path / "out")) == 5
    assert "output error" in capsys.readouterr().err


CUBE4 = ["--family", "hamming_cube", "--param", "d=4"]


@pytest.mark.parametrize("args", [["sep", "--mode", "exact", *CUBE4],
                                  ["alpha", "--mode", "exact", *CUBE4], ["dims", *CUBE4],
                                  ["net", "--radius", "0.5", *CUBE4],
                                  ["experiment", "--name", "hamming_dimension"]])
def test_an_unwritable_output_is_refused_before_the_space_is_read(tmp_path, monkeypatch,
                                                                  args):
    # the output directory is made only after the work, so whether it can
    # be made is checked, without making it, before the work
    import concdim.cli as cli
    from concdim import experiments

    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(cli, "_load_space", lambda args: pytest.fail("space read"))
    monkeypatch.setitem(experiments._EXPERIMENTS, "hamming_dimension",
                        (lambda p, seed: pytest.fail("experiment run"), {}))
    assert run_cli(*args, "--out", str(blocker / "out")) == 5
    assert blocker.is_file()


@pytest.mark.parametrize("args, message", [
    (["--radius", "0"], "radius must be positive, got 0.0"),
    (["--radius", "-1"], "radius must be positive, got -1.0"),
    (["--grid", "0", "1"], "u grid must be positive and finite"),
    (["--grid", "-1"], "u grid must be positive and finite"),
    # a radius is checked whenever it is given, also beside a grid
    (["--radius", "0", "--grid", "0.5"], "radius must be positive, got 0.0"),
    # a valid radius beside a grid: the grid would write no net
    (["--radius", "0.5", "--grid", "0.1", "1"], "net takes --radius or --grid, not both"),
])
def test_net_refuses_an_out_of_range_radius_or_grid_before_the_space_is_read(
        tmp_path, monkeypatch, capsys, args, message):
    import concdim.cli as cli

    monkeypatch.setattr(cli, "_load_space", lambda args: pytest.fail("space read"))
    out = tmp_path / "out"
    assert run_cli("net", *CUBE4, *args, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


#: the options every space-reading command shares, at their defaults
SPACE_DEFAULTS = {"points": None, "dist": None, "family": None, "param": [],
                  "metric": "euclidean", "seed": 0, "out": "."}

#: a minimal command line of each subcommand, and the namespace it parses to
PARSED = [
    (["gen", "--family", "f"],
     {"command": "gen", "family": "f", "param": [], "seed": 0, "out": "."}),
    (["alpha"], {"command": "alpha", **SPACE_DEFAULTS, "mode": "auto", "eps": None,
                 "grid": None, "dictionary": "anchors_random:32"}),
    (["sep"], {"command": "sep", **SPACE_DEFAULTS, "mode": "auto", "kappa": None,
               "grid": None, "restarts": 8, "analytic_d": None}),
    (["obsdiam", "--kappa", "0.1"], {"command": "obsdiam", **SPACE_DEFAULTS,
                                     "kappa": 0.1, "dictionary": "anchors_random:32"}),
    (["dims"], {"command": "dims", **SPACE_DEFAULTS, "dictionary": "anchors_random:32",
                "restarts": 8}),
    (["emd", "--space", "s", "--mu", "m", "--nu", "v"],
     {"command": "emd", "space": "s", "mu": "m", "nu": "v", "seed": 0, "out": "."}),
    (["net"], {"command": "net", **SPACE_DEFAULTS, "radius": None, "grid": None}),
    (["bound", "--eps", "0.5", "--delta", "0.1", "--cover", "c"],
     {"command": "bound", "eps": 0.5, "delta": 0.1, "constant_C": 1.0, "cover": "c",
      "seed": 0, "out": "."}),
    (["experiment", "--name", "x"],
     {"command": "experiment", "name": "x", "param": [], "seed": 0, "out": "."}),
]


@pytest.mark.parametrize("argv, expected", PARSED, ids=[a[0] for a, _ in PARSED])
def test_each_command_parses_to_its_options_and_defaults(capsys, argv, expected):
    from concdim.cli import build_parser

    parsed = vars(build_parser().parse_args(argv))
    assert callable(parsed.pop("func"))
    assert parsed == expected
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args([argv[0], "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: concdim {argv[0]}")


def test_an_experiment_output_that_cannot_be_made_after_the_run_exits_5(tmp_path,
                                                                        monkeypatch):
    # --out passes the check before the run; a file put in its way during
    # the run stops the directory being made, and the run's files with it
    from concdim import experiments

    blocker = tmp_path / "late"

    def runner(p, seed):
        blocker.write_text("")
        return {"mode": "analytic"}, [("x.csv", lambda path: path.write_text(""))]

    monkeypatch.setitem(experiments._EXPERIMENTS, "hamming_dimension", (runner, {}))
    assert run_cli("experiment", "--name", "hamming_dimension",
                   "--out", str(blocker / "out")) == 5
    assert blocker.is_file()


def test_every_command_makes_its_output_directory_in_one_place():
    # io.write_outputs, the one writer of every command and experiment, is
    # the only function in the package that makes a directory
    callers = []
    for path in sorted(Path(concdim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for unit in ast.walk(tree):
            if isinstance(unit, ast.FunctionDef):
                callers += [f"{path.stem}.{unit.name}" for node in ast.walk(unit)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "attr", None) == "mkdir"]
    assert callers == ["io.write_outputs"]


def test_experiment_cli_runs_small(tmp_path):
    out = tmp_path / "exp"
    assert run_cli("experiment", "--name", "hamming_dimension",
                   "--param", "d_values=11,13,15", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["monotone_increasing"] is True
    assert (out / "hamming_sep_dimension.csv").exists()

def test_exit_code_experiment_resource_limit(tmp_path):
    assert run_cli("experiment", "--name", "noise_instability",
                   "--param", "n=200000", "--out", str(tmp_path)) == 3


def test_sep_heuristic_at_kappa_never_exceeds_the_exact_value(tmp_path):
    # sep is non-increasing in kappa: the certified value at kappa is the
    # bound at the least grid point >= kappa, and 0 beyond the grid
    grid = ["0.1", "0.2", "0.3"]
    for seed, n in ((0, 20), (1, 17), (2, 12)):
        params = ["--family", "gaussian_cloud", "--param", "d=3",
                  "--param", "sigma=1", "--param", f"n={n}", "--seed", str(seed)]
        space = generate(GeneratorSpec("gaussian_cloud", seed,
                                       {"d": 3, "sigma": 1.0, "n": n}))
        for kappa in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.45, 0.5):
            out = tmp_path / f"sep{seed}_{kappa}"
            assert run_cli("sep", *params, "--mode", "heuristic", "--grid", *grid,
                           "--kappa", str(kappa), "--out", str(out)) == 0
            payload = json.loads((out / "sep.json").read_text())
            got = payload["sep_at_kappa"]["sep"]
            assert got <= sep_exact(space, kappa) + 1e-12
            if kappa > 0.3:
                assert got == 0.0
        rows = (tmp_path / f"sep{seed}_0.2" / "sep.csv").read_text().splitlines()[1:]
        at = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert json.loads((tmp_path / f"sep{seed}_0.2" / "sep.json").read_text())[
            "sep_at_kappa"]["sep"] == at[0.2]
        assert json.loads((tmp_path / f"sep{seed}_0.15" / "sep.json").read_text())[
            "sep_at_kappa"]["sep"] == at[0.2]


@pytest.mark.parametrize("args", [
    ["sep", "--mode", "heuristic", "--kappa", "0.7"],
    ["sep", "--mode", "exact", "--kappa", "0.7"],
    ["sep", "--mode", "heuristic", "--kappa", "0"],
    ["sep", "--mode", "exact", "--kappa", "nan"],
    ["alpha", "--mode", "heuristic", "--eps", "-0.1"],
    ["alpha", "--mode", "heuristic", "--eps", "nan"],
    ["alpha", "--mode", "heuristic", "--grid", "0.5", "nan"],
    ["alpha", "--mode", "exact", "--grid", "0.5", "nan"],
    ["alpha", "--mode", "exact", "--eps", "inf"],
    ["net", "--radius", "inf"],
])
def test_out_of_range_parameters_exit_2(tmp_path, args):
    out = tmp_path / "out"
    assert run_cli(*args, "--family", "gaussian_cloud", "--param", "d=3",
                   "--param", "sigma=1", "--param", "n=12",
                   "--out", str(out)) == 2
    assert not (out / "alpha.csv").exists() and not (out / "sep.csv").exists()


CLOUD = ["--family", "gaussian_cloud", "--param", "d=3", "--param", "n=12"]
CLOUD40 = ["--family", "gaussian_cloud", "--param", "d=3", "--param", "n=40",
           "--param", "sigma=1"]


@pytest.mark.parametrize("args", [
    ["sep", "--analytic-d", "9", *CLOUD, "--param", "sigma=1"],
    ["net", *CLOUD, "--param", "sigma=1"],
    ["obsdiam", "--kappa", "1.5", *CLOUD, "--param", "sigma=1"],
    ["alpha", "--grid", "0.5", "nan", *CLOUD, "--param", "sigma=1"],
    ["sep", "--grid", "0.7", *CLOUD, "--param", "sigma=1"],
    ["sep", *CLOUD],  # no sigma
    ["alpha", "--eps", "0.5", *CLOUD],
    ["dims", *CLOUD],
    ["obsdiam", "--kappa", "0.1", *CLOUD],
    ["net", "--radius", "0.5", *CLOUD],
    ["gen", *CLOUD],
    ["experiment", "--name", "nosuch"],
    ["experiment", "--name", "sampling_convergence", "--param", "sizes=3"],
    ["experiment", "--name", "sampling_convergence", "--param", "sizes=50,",
     "--param", "n_seeds=1", "--seed", "-1"],
    # a --dictionary count that is not a decimal integer, refused in any mode
    ["obsdiam", "--kappa", "0.1", "--dictionary", "anchors_random:x", *CLOUD40],
    ["alpha", "--dictionary", "anchors_random:1.5", *CLOUD40],
    ["dims", "--dictionary", "anchors_random:", *CLOUD, "--param", "sigma=1"],
    # a --restarts below 1, refused in any mode
    ["dims", "--restarts", "0", *CLOUD, "--param", "sigma=1"],
    ["sep", "--mode", "exact", "--restarts", "-2", *CLOUD, "--param", "sigma=1"],
])
def test_refusals_come_before_the_output_directory(tmp_path, args):
    out = tmp_path / "out"
    assert run_cli(*args, "--out", str(out)) == 2
    assert not out.exists()


def test_a_size_refusal_comes_before_the_output_directory(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sep", "--mode", "exact", "--family", "gaussian_cloud", "--param", "d=3",
                   "--param", "n=30", "--param", "sigma=1", "--out", str(out)) == 3
    assert not out.exists()


#: name -> (input file contents, command line with {} for its path, a
#: fragment of the message); {d} is a valid two-point distance matrix
BOUND = ["bound", "--eps", "0.2", "--delta", "0.01", "--cover", "{}"]
COVER = "u,n_upper,n_lower\n0.0001,4,4\n0.5,2,1\n2,1,1\n"
MENDED = {
    "cover, header only": ("u,n_upper,n_lower\n", BOUND, "no data rows"),
    "cover, two columns": ("u,n_upper\n0.1,3\n", BOUND, "3 columns"),
    "cover, fractional count": ("u,n_upper,n_lower\n0.001,3.5,1\n", BOUND, "whole counts"),
    "bound, infinite C": (COVER, [*BOUND, "--constant-C", "inf"], "C=inf"),
    "bound, a bound past the largest float": (COVER, [*BOUND, "--constant-C", "1e308"],
                                              "C=1e+308"),
    "mu, a matrix": ("0.5,0\n0,0.5\n", ["emd", "--space", "{d}", "--mu", "{}", "--nu", "{}"],
                     "one column or one row"),
    "sep, overflowing distances": ("x\n1e308\n-1e308\n", ["sep", "--points", "{}"],
                                   "overflow"),
    "obsdiam, overflowing distances": ("x\n1e308\n-1e308\n",
                                       ["obsdiam", "--points", "{}", "--kappa", "0.1"],
                                       "overflow"),
    "experiment, a number for a list": ("", ["experiment", "--name", "sampling_convergence",
                                             "--param", "sizes=3"], "must be a list"),
    "experiment, a word for a number": ("", ["experiment", "--name", "noise_instability",
                                             "--param", "d=x"], "must be an integer"),
}


@pytest.mark.parametrize("case", sorted(MENDED))
def test_mended_inputs_exit_2_in_a_fresh_process(tmp_path, case):
    # a fresh process with a time limit: `obsdiam` on the overflowing
    # points used to never return, and a traceback would reach stderr
    text, args, message = MENDED[case]
    path, dist = tmp_path / "in.csv", tmp_path / "d.csv"
    path.write_text(text)
    dist.write_text("0,1\n1,0\n")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(concdim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "concdim.cli", *(a.format(path, d=dist) for a in args),
         "--out", str(out)], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    for written in out.glob("*.json"):
        json.loads(written.read_text(), parse_constant=pytest.fail)


def test_emd_reads_weights_as_a_column_or_a_row(tmp_path):
    dist = tmp_path / "d.csv"
    dist.write_text("0,1\n1,0\n")
    column, row = tmp_path / "column.csv", tmp_path / "row.csv"
    column.write_text("1\n0\n")
    row.write_text("0,1\n")
    assert run_cli("emd", "--space", str(dist), "--mu", str(column), "--nu", str(row),
                   "--out", str(tmp_path / "emd")) == 0
    assert json.loads((tmp_path / "emd" / "emd.json").read_text())["cost"] == 1.0


def test_emd_reads_a_distance_csv_under_any_name(tmp_path):
    # the content is checked, not the file name: d.txt used to be refused
    matrix = "0,1,3\n1,0,2\n3,2,0\n"
    mu, nu = tmp_path / "mu.csv", tmp_path / "nu.csv"
    mu.write_text("0.5\n0.5\n0\n")
    nu.write_text("0\n0.25\n0.75\n")
    outs = {}
    for name in ("d.csv", "d.txt"):
        (tmp_path / name).write_text(matrix)
        outs[name] = out = tmp_path / name.replace(".", "_")
        assert run_cli("emd", "--space", str(tmp_path / name), "--mu", str(mu),
                       "--nu", str(nu), "--out", str(out)) == 0
    csv_out, txt_out = outs["d.csv"], outs["d.txt"]
    assert (txt_out / "plan.csv").read_bytes() == (csv_out / "plan.csv").read_bytes()
    cost = json.loads((txt_out / "emd.json").read_text())["cost"]
    assert cost == json.loads((csv_out / "emd.json").read_text())["cost"] == 2.0


@pytest.mark.parametrize("n", [20, 30])
def test_dims_provenance_is_the_profiles_alpha_and_sep_write(tmp_path, n):
    # exact oracles up to ORACLE_LIMIT points, witnesses above: dims picks
    # the profiles that alpha and sep pick in --mode auto
    points = tmp_path / "pts.csv"
    rows = np.random.default_rng(n).normal(size=(n, 3))
    points.write_text("".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
    outs = {}
    for command in ("alpha", "sep", "dims"):
        outs[command] = tmp_path / command
        assert run_cli(command, "--points", str(points), "--out", str(outs[command])) == 0
    report = json.loads((outs["dims"] / "dimensions.json").read_text())["report"]
    for command in ("alpha", "sep"):
        profile = json.loads((outs[command] / f"{command}.json").read_text())["profile"]
        assert report["provenance"][command] == profile
        assert profile["mode"] == ("exact" if n <= 22 else "lower_bound")


# -- a seeded table of malformed inputs over every subcommand -----------------------

#: a valid file of each kind and the command lines that read it: {} is its
#: path, {d} a valid distance matrix and {w} a valid weight vector on it
VALID = {
    "points": ("x,y\n0,0\n1,0\n0,1\n1,1\n", [
        ["alpha", "--points", "{}"], ["sep", "--points", "{}", "--kappa", "0.25"],
        ["obsdiam", "--points", "{}", "--kappa", "0.1"], ["dims", "--points", "{}"],
        ["net", "--points", "{}", "--radius", "0.5"]]),
    "dist": ("0,1,2\n1,0,1\n2,1,0\n", [
        ["alpha", "--dist", "{}", "--eps", "0.5"], ["sep", "--dist", "{}"],
        ["obsdiam", "--dist", "{}", "--kappa", "0.3"], ["dims", "--dist", "{}"],
        ["net", "--dist", "{}", "--grid", "0.5", "1.5"],
        ["emd", "--space", "{}", "--mu", "{w}", "--nu", "{w}"]]),
    "weights": ("0.5\n0.25\n0.25\n", [
        ["emd", "--space", "{d}", "--mu", "{}", "--nu", "{w}"]]),
    "cover": (COVER, [
        ["bound", "--eps", "0.2", "--delta", "0.01", "--constant-C", "1", "--cover", "{}"]]),
}

#: replacements for one cell of a file
CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "-1", "0", "abc", "1e-320",
         "2.5", "", "1;2", "0x10", "1_0"]

#: replacements for one option's value
VALUES = {"--kappa": ["0", "-0.5", "nan", "inf", "1", "0.5", "1e-300", "x"],
          "--eps": ["-1", "nan", "inf", "1e308"],
          "--radius": ["0", "-1", "nan", "inf", "1e-300", "1e308"],
          "--delta": ["0", "1", "nan", "-0.5", "1e-300"],
          "--constant-C": ["0", "-1", "nan", "inf", "1e308"],
          "--grid": ["nan", "-1", "0", "1e308"]}

#: command lines that must exit 2: a seed below 0 is refused before any work
SEED_BELOW_0 = [
    ["gen", "--family", "gaussian_cloud", "--param", "d=3", "--param", "sigma=1",
     "--param", "n=40", "--seed", "-1"],
    ["sep", "--family", "gaussian_cloud", "--param", "d=3", "--param", "sigma=1",
     "--param", "n=40", "--seed", "-1"],
    ["alpha", "--family", "sphere", "--param", "n_dim=2", "--param", "n=40",
     "--mode", "heuristic", "--seed", "-1"],
    ["experiment", "--name", "sampling_convergence", "--param", "sizes=50,",
     "--param", "n_seeds=1", "--seed", "-1"],
]

#: command lines whose inputs are all on the line
FIXED = [
    ["gen", "--family", "gaussian_cloud", "--param", "d=2", "--param", "sigma=1",
     "--param", "n=4"],
    ["gen", "--family", "nosuch"],
    ["gen", "--family", "sphere", "--param", "n=3"],
    ["gen", "--family", "sphere", "--param", "n=3", "--param", "n_dim=0"],
    ["gen", "--family", "sphere", "--param", "n=2.5", "--param", "n_dim=2"],
    ["gen", "--family", "sphere", "--param", "n=1e9", "--param", "n_dim=2"],
    ["gen", "--family", "hamming_cube", "--param", "d=25"],
    ["gen", "--family", "hamming_cube", "--param", "d=x"],
    ["gen", "--family", "gaussian_cloud", "--param", "d=2", "--param", "sigma=nan",
     "--param", "n=4"],
    ["gen", "--family", "noisy_embedding", "--param", "base=x", "--param", "ambient_d=2",
     "--param", "sigma=1", "--param", "n=4"],
    ["gen", "--family", "gaussian_cloud", "--param", "d=2", "--param", "sigma=1",
     "--param", "n=4", "--param", "extra=1"],
    ["alpha", "--family", "sphere", "--param", "n=5", "--param", "n_dim=x"],
    ["sep", "--analytic-d", "0", "--kappa", "0.25"],
    ["sep", "--analytic-d", "10000", "--kappa", "0.25"],
    ["sep", "--analytic-d", "3"],
    ["alpha", "--points", "missing.csv"],
    ["bound", "--eps", "0.2", "--delta", "0.01", "--cover", "missing.csv"],
    ["experiment", "--name", "nosuch"],
    ["experiment", "--name", "sampling_convergence", "--param", "sizes=3"],
    ["experiment", "--name", "sampling_convergence", "--param", "sizes=0,"],
    ["experiment", "--name", "noise_instability", "--param", "d=x"],
    ["experiment", "--name", "noise_instability", "--param", "n=1e9"],
    ["experiment", "--name", "noise_instability", "--param", "sigma2=nan"],
    ["experiment", "--name", "noise_instability", "--param", "n_seeds=-1"],
    ["experiment", "--name", "hamming_dimension", "--param", "d_values=-1,"],
    ["experiment", "--name", "hamming_dimension", "--param", "d_values=1e9,"],
    ["experiment", "--name", "sphere_separation", "--param", "dims=nan,"],
    ["experiment", "--name", "sphere_alpha_line", "--param", "n=0"],
    ["experiment", "--name", "sphere_alpha_line", "--param", "nosuch=1"],
    ["experiment", "--name", "sampling_convergence", "--param", "restarts=1000000000",
     "--param", "n_seeds=1", "--param", "sizes=50,"],
    *SEED_BELOW_0,
]

#: six points on a line
SIX = "x\n0\n1\n2\n3\n4\n5\n"

#: (file, command line, the exit code it must give, else any of 0, 2, 3)
NAMED = [
    ("x,weight\n0,1,5\n1,1,7\n", ["sep", "--points", "{}"], 2),
    *[("x\n1e200\n-1e200\n0\n", line, 0) for line in (
        ["sep", "--points", "{}"], ["alpha", "--points", "{}"], ["dims", "--points", "{}"],
        ["obsdiam", "--points", "{}", "--kappa", "0.1"])],
    ("x\n1e308\n-1e308\n", ["obsdiam", "--points", "{}", "--kappa", "0.1"], 2),
    # seed draws stop once every point is drawn; a dictionary beyond a
    # dense matrix's floats is refused before any draw
    (SIX, ["sep", "--points", "{}", "--mode", "heuristic", "--restarts", "1000000000"], 0),
    (SIX, ["obsdiam", "--points", "{}", "--kappa", "0.1", "--dictionary",
           "halfspace_differences:1000000000"], 3),
    # values JSON cannot hold, and a path that cannot be read, are input errors
    (VALID["dist"][0], ["alpha", "--dist", "{}", "--eps", "inf"], 2),
    (VALID["points"][0], ["net", "--points", "{}", "--radius", "inf"], 2),
    (SIX, ["alpha", "--dist", "{}.missing"], 2),
]


def _malformed(text: str, rng) -> str:
    """`text` with one seeded defect: a cell replaced or dropped, no data
    rows, no text, a header of another width, a line of noise, or its
    rows repeated."""
    lines = text.splitlines()
    head = 0 if lines[0][0].isdigit() else 1
    row = int(rng.integers(head, len(lines)))
    cells = lines[row].split(",")
    kind = int(rng.integers(7))
    if kind == 0:
        cells[int(rng.integers(len(cells)))] = str(rng.choice(CELLS))
        lines[row] = ",".join(cells)
    elif kind == 1:
        lines[row] = ",".join(cells[:-1])
    elif kind == 2:
        lines = lines[:head]
    elif kind == 3:
        lines = []
    elif kind == 4:
        width = len(cells) + int(rng.choice([-1, 1]))
        lines[:head] = [",".join(f"c{i}" for i in range(width - 1)) + ",weight"]
    elif kind == 5:
        lines.insert(row, str(rng.choice(["\x00\x01", ";;;", "1 2 3", "#,#"])))
    else:
        lines = lines[:head] + [lines[row]] * (len(lines) - head)
    return "\n".join(lines) + "\n"


def _malformed_table(seed: int, per_command: int):
    """``(files, command line, expected exit code or None)`` cases."""
    rng = np.random.default_rng(seed)
    valid = {"d.csv": VALID["dist"][0], "w.csv": VALID["weights"][0]}
    cases = [({}, line, 2 if line in SEED_BELOW_0 else None) for line in FIXED]
    cases += [({"in.csv": text}, line, code) for text, line, code in NAMED]
    for text, lines in VALID.values():
        for line in lines:
            options = [i + 1 for i, a in enumerate(line) if a in VALUES]
            for _ in range(per_command):
                if options and rng.random() < 0.3:  # a bad value instead of a bad file
                    i = options[int(rng.integers(len(options)))]
                    bad = [*line[:i], str(rng.choice(VALUES[line[i - 1]])), *line[i + 1:]]
                    cases.append((dict(valid, **{"in.csv": text}), bad, None))
                else:
                    cases.append((dict(valid, **{"in.csv": _malformed(text, rng)}), line,
                                  None))
    return cases


_DRIVER = '''
import contextlib, io, json, signal, traceback
from pathlib import Path
from concdim.cli import main

def _refuse(name):
    raise ValueError(f"{name} is not JSON")

class NoAnswer(Exception):
    """Not an OSError, as TimeoutError is, which the CLI reports as exit 2."""

def _timeout(signum, frame):
    raise NoAnswer("no answer within 20 s")

def drive(table):
    """Run each case through ``main`` with a 20 s alarm: ``[exit code,
    stderr, JSON files that do not parse]``."""
    signal.signal(signal.SIGALRM, _timeout)
    results = []
    for k, (files, line, _) in enumerate(json.loads(Path(table).read_text())):
        case = Path(table).parent / str(k)
        case.mkdir()
        for name, text in files.items():
            (case / name).write_text(text)
        line = [a.format(case / "in.csv", d=case / "d.csv", w=case / "w.csv")
                for a in line] + ["--out", str(case / "out")]
        err = io.StringIO()
        signal.alarm(20)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(line)
        except SystemExit as exc:  # argparse refuses a malformed option
            code = exc.code
        except Exception:  # a traceback, or the alarm's NoAnswer
            code = None
            err.write(traceback.format_exc())
        finally:
            signal.alarm(0)
        bad = []
        for path in sorted((case / "out").glob("*.json")):
            try:
                json.loads(path.read_text(), parse_constant=_refuse)
            except ValueError as exc:
                bad.append(f"{path.name}: {exc}")
        results.append([code, err.getvalue(), bad])
    return results
'''


def test_every_subcommand_answers_a_seeded_table_of_malformed_inputs(tmp_path):
    # one fresh interpreter imports the package once; each case has 20 s
    cases = _malformed_table(seed=8, per_command=24)
    assert {line[0] for _, line, _ in cases} == {
        "gen", "alpha", "sep", "obsdiam", "dims", "emd", "net", "bound", "experiment"}
    table = tmp_path / "table.json"
    table.write_text(json.dumps(cases))
    results, _, _ = run_fresh(_DRIVER, f"drive({str(table)!r})")
    failures = []
    for (files, line, want), (code, err, bad) in zip(cases, results):
        ok = code == want if want is not None else code in (0, 2, 3)
        if not ok or "Traceback" in err or bad:
            failures.append(f"{line} on {files.get('in.csv')!r}: exit {code}, {bad}, "
                            f"{err[-600:]}")
    assert not failures, "\n".join(failures)
    assert len(results) == len(cases)
