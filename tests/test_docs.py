"""README names constants with their values and the files each command
writes; keep them in step."""

import importlib
import json
import os
import pkgutil
import re
from pathlib import Path

import concdim
from concdim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# `NAME` = value, the value an integer with optional thousands separators
_CLAIM = re.compile(r"`([A-Z][A-Z0-9_]*)` = (\d{1,3}(?:[ ,  ]\d{3})+|\d+)(?![\d.^])")


def section_claims(text: str, title: str) -> list[tuple[str, int]]:
    """The ``(NAME, value)`` pairs of the README section `title`."""
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return [(name, int(re.sub(r"\D", "", value)))
            for name, value in _CLAIM.findall(section)]


def package_values(name: str) -> set:
    """Every value `name` has in a module of the package."""
    modules = [importlib.import_module(f"concdim.{m.name}")
               for m in pkgutil.iter_modules(concdim.__path__)]
    return {getattr(mod, name) for mod in modules if hasattr(mod, name)}


def test_limits_section_names_real_constants():
    claims = section_claims(README.read_text(), "Limits")
    assert len(claims) >= 5
    for name, value in claims:
        assert package_values(name) == {value}, (name, value)


def test_distance_layer_summary_names_real_constants():
    claims = section_claims(README.read_text(), "The distance layer")
    assert {name for name, _ in claims} >= {"AUTO_DENSE", "MATERIALIZE_LIMIT",
                                            "GEMM_MIN_DIM", "BLOCK_ENTRIES"}
    for name, value in claims:
        assert package_values(name) == {value}, (name, value)


def cli_outputs(text: str) -> dict[str, set[str]]:
    """Invocation -> file names, from the table of the README's "CLI"
    section."""
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", section, re.M)
    return {inv: set(re.findall(r"`(\w+\.(?:csv|json))`", files)) for inv, files in rows}


def test_cli_section_lists_the_files_each_command_writes(tmp_path):
    listed = cli_outputs(README.read_text())
    points = tmp_path / "points.csv"
    points.write_text("".join(f"{i % 3},{i // 3}\n" for i in range(8)))
    dist = tmp_path / "d.csv"
    dist.write_text("0,1\n1,0\n")
    mu = tmp_path / "mu.csv"
    mu.write_text("0.5\n0.5\n")
    invocations = {
        "gen": ["--family", "sphere", "--param", "n_dim=2", "--param", "n=8"],
        "alpha": ["--points", points],
        "sep": ["--points", points],
        "sep --analytic-d": ["--analytic-d", "5", "--kappa", "0.25"],
        "obsdiam": ["--points", points, "--kappa", "0.1"],
        "dims": ["--points", points],
        "emd": ["--space", dist, "--mu", mu, "--nu", mu],
        "net --grid": ["--points", points, "--grid", "0.001", "0.01", "0.1", "1", "3"],
        "net --radius": ["--points", points, "--radius", "0.5"],
        "bound": ["--eps", "0.2", "--delta", "0.01",
                  "--cover", tmp_path / "net--grid" / "covering.csv"],
        "experiment": ["--name", "hamming_dimension", "--param", "d_values=3,5"],
    }
    assert set(listed) == set(invocations)
    for inv, args in invocations.items():
        out = tmp_path / inv.replace(" ", "")
        assert main([inv.split()[0], *map(str, args), "--out", str(out)]) == 0, inv
        want = set(listed[inv])
        if inv == "experiment":
            want |= set(json.loads((out / "manifest.json").read_text())["summary"]["curves"])
        assert set(os.listdir(out)) == want, inv


def test_the_library_quick_tour_runs(capsys):
    section = README.read_text().split("\n## Library quick tour\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README quick tour", "exec"), namespace)
    report = namespace["report"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{report['dim_separation']} {report['dconc_to_point']}"
    assert len(lines) == 2 and float(lines[1]) == namespace["plan"].cost
