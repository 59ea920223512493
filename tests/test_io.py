"""Every output file is written by ``concdim.io``, so its format is decided
in one place."""

import ast
from pathlib import Path

import numpy as np

import concdim
from concdim.io import write_csv


def test_only_io_writes_csv_or_json():
    writers = {("csv", "writer"), ("json", "dump")}
    for path in sorted(Path(concdim.__file__).parent.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) not in writers, \
                    f"{path.name} calls {node.value.id}.{node.attr}"
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module, a.name) for a in node.names}
                assert not names & writers, f"{path.name} imports {names & writers}"


def test_write_csv_writes_floats_as_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("i", "x"), [(np.int64(3), np.float64(0.1)), (4, 1e-17), (5, 2.0)])
    assert path.read_bytes() == b"i,x\r\n3,0.1\r\n4,1e-17\r\n5,2.0\r\n"
