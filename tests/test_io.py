"""Every output file is written, and every input CSV read, by
``concdim.io``, so each format is decided in one place."""

import ast
from pathlib import Path

import numpy as np
import pytest

import concdim
from concdim.io import write_csv, write_json


def test_only_io_writes_csv_or_json():
    assert_only_io_calls({("csv", "writer"), ("json", "dump")})


def test_only_io_reads_csv():
    assert_only_io_calls({("csv", "reader"), ("np", "loadtxt"), ("np", "genfromtxt")})


def assert_only_io_calls(calls):
    """No module but ``io`` calls or imports any ``(module, name)`` of `calls`."""
    for path in sorted(Path(concdim.__file__).parent.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in calls, \
                    f"{path.name} calls {node.value.id}.{node.attr}"
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module, a.name) for a in node.names}
                assert not names & calls, f"{path.name} imports {names & calls}"


def test_write_csv_writes_floats_as_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("i", "x"), [(np.int64(3), np.float64(0.1)), (4, 1e-17), (5, 2.0)])
    assert path.read_bytes() == b"i,x\r\n3,0.1\r\n4,1e-17\r\n5,2.0\r\n"


def test_write_json_refuses_non_finite_numbers_before_writing(tmp_path):
    path = tmp_path / "t.json"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            write_json(path, {"diameter": bad})
        assert not path.exists()


def test_a_header_must_name_every_column(tmp_path):
    # a header narrower than its rows used to shift the weight column onto
    # a coordinate: x,weight over 0,1,5 read coordinates [0, 5], weights 1
    from concdim.errors import InputError
    from concdim.io import read_csv_rows
    from concdim.mmspace import load_points_csv

    path = tmp_path / "p.csv"
    for header in ("x,weight", "x,y,z,weight"):
        path.write_text(f"{header}\n0,1,5\n1,1,7\n")
        with pytest.raises(InputError, match="header names"):
            load_points_csv(path)
    path.write_text("x,y,weight\n0,5,1\n1,7,3\n")
    assert read_csv_rows(path) == (["x", "y", "weight"], [[0.0, 5.0, 1.0], [1.0, 7.0, 3.0]])
    space = load_points_csv(path)
    assert space.coords.tolist() == [[0.0, 5.0], [1.0, 7.0]]
    assert space.weights.tolist() == [0.25, 0.75]


def test_a_path_that_cannot_be_read_is_an_input_error_naming_it(tmp_path):
    from concdim.errors import InputError
    from concdim.io import read_csv_rows

    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"x\n0\n\xe9\n")
    for path in (tmp_path / "missing.csv", tmp_path, latin1):
        with pytest.raises(InputError, match=f"^{path}: cannot read"):
            read_csv_rows(path)
