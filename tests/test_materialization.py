"""The materialization rule: whether a space holds its distance matrix
depends on the input alone, so no result depends on call order."""

import ast
from pathlib import Path

import numpy as np
import pytest

import concdim
from concdim import mmspace
from concdim.concentration import alpha_lower, default_eps_grid, sep_lower
from concdim.covering import covering_profile, greedy_net
from concdim.dimension import dim_chavez
from concdim.mmspace import (
    GeneratorSpec,
    RowCache,
    char_size,
    diameter,
    from_distance_matrix,
    from_points,
    generate,
)


def sphere(n_dim: int, n: int, seed: int = 3) -> np.ndarray:
    return generate(GeneratorSpec("sphere", seed, {"n_dim": n_dim, "n": n})).coords


U_GRID = np.geomspace(0.1, 2.0, 8)

#: every function whose first distance read could decide the path
FUNCTIONS = {
    "sep_lower": lambda s: sep_lower(s, restarts=4, seed=1),
    "alpha_lower": alpha_lower,
    "default_eps_grid": default_eps_grid,
    "covering_profile": lambda s: covering_profile(s, U_GRID),
    "greedy_net": lambda s: greedy_net(s, 0.2),
    "char_size": char_size,
    "diameter": diameter,
    "dim_chavez": dim_chavez,
}


def bits(value) -> list[bytes]:
    """The bytes of a result, field by field for a profile."""
    parts = vars(value).values() if hasattr(value, "__dataclass_fields__") else [value]
    return [np.asarray(v).tobytes() for v in parts]


# S^2 reads distances from cdist, S^30 from the GEMM kernel
@pytest.mark.parametrize("n_dim", [2, 30])
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_results_do_not_depend_on_call_order(name, n_dim):
    x = sphere(n_dim, 3000)
    fresh = from_points(x)
    primed = from_points(x)
    primed.dist
    assert bits(FUNCTIONS[name](fresh)) == bits(FUNCTIONS[name](primed))
    assert fresh.is_dense


def test_whole_space_reads_materialize_and_chosen_rows_do_not():
    x = sphere(30, 120)
    s = from_points(x)
    s.dist_block([0, 5])
    s.min_dist_to([1, 2])
    sets = np.zeros((2, 120), dtype=bool)
    sets[[0, 0, 1], [1, 2, 3]] = True
    list(s.iter_set_distances(sets))
    s.submatrix([3, 4])
    s.distance(0, 1)
    s.dist_row(0)
    assert not s.is_dense
    for read in (lambda s: next(s.iter_blocks()), lambda s: s.dense(), lambda s: s.dist,
                 RowCache):
        s = from_points(x)
        read(s)
        assert s.is_dense
    s = from_points(x)
    blocks = [blk for _, blk in s.iter_blocks()]
    assert all(np.shares_memory(blk, s.dist) for blk in blocks)
    assert np.array_equal(np.vstack(blocks), s.dist)


def test_spaces_above_the_rule_are_never_materialized(monkeypatch):
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 100)
    x = sphere(2, 300)
    calls = {
        "sep_lower": lambda s: sep_lower(s, restarts=2),
        "alpha_lower": alpha_lower,
        "covering_profile": lambda s: covering_profile(s, U_GRID),
        "char_size": char_size,
        "dim_chavez": dim_chavez,
    }
    for name, call in calls.items():
        s = from_points(x)
        call(s)
        assert s.dense() is None and not s.is_dense, name
    s = from_points(x)
    assert s.dist.shape == (300, 300)  # an explicit request still builds it
    assert from_distance_matrix(s.dist).is_dense


def test_only_mmspace_names_the_materialization_rule():
    rule = {"is_dense", "AUTO_DENSE", "dense"}
    for path in sorted(Path(concdim.__file__).parent.glob("*.py")):
        if path.name == "mmspace.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
        assert not names & rule, f"{path.name} names {sorted(names & rule)}"



def test_only_the_readers_branch_on_a_held_matrix():
    # the rule is dense(); dist_block (copies) and iter_rows (views) serve
    # caller-chosen rows, iter_blocks whole passes, RowCache rows one at a
    # time and _pair_distances pair samples, and every other read goes
    # through them.  Construction sets the matrix and is_dense reports it.
    readers = {"dist", "dense", "dist_block", "iter_rows", "iter_blocks", "RowCache",
               "_pair_distances"}
    tree = ast.parse(Path(mmspace.__file__).read_text())
    units = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "MMSpace":
            units.update((f.name, f) for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            units[node.name] = node
    touch, call = set(), set()
    for name, unit in units.items():
        for node in ast.walk(unit):
            if isinstance(node, ast.Attribute) and node.attr == "_dist_cache":
                touch.add(name)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dense":
                call.add(name)
    assert touch <= readers | {"__init__", "is_dense"}, sorted(touch - readers)
    assert call <= readers, sorted(call - readers)
    assert {"dist_block", "iter_rows"} <= touch
    assert {"dist_row", "distance", "submatrix", "_set_distance_groups"} <= set(units)
    for path in sorted(Path(concdim.__file__).parent.glob("*.py")):
        if path.name != "mmspace.py":
            assert "_dist_cache" not in path.read_text(), path.name
