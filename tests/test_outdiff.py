import importlib.util
import json
from pathlib import Path

from concdim.cli import build_parser

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outdiff.py"
_spec = importlib.util.spec_from_file_location("outdiff", TOOL)
outdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outdiff)


def run(args, exit=0, stdout="", stderr=""):
    return {"args": args, "exit": exit, "stdout": stdout, "stderr": stderr}


def test_the_invocations_parse_and_write_to_their_own_directories():
    assert len(outdiff.INVOCATIONS) == 58
    outs = []
    for k, args in enumerate(outdiff.INVOCATIONS):
        outs.append(build_parser().parse_args(args).out if "--out" in args else f"out/{k}")
    assert len(set(outs)) == len(outs)


def test_the_inputs_are_the_same_bytes_each_time(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        outdiff.write_inputs(tmp_path / side)
    a, b = (outdiff.read_tree(tmp_path / side) for side in ("a", "b"))
    assert a == b
    assert sorted(a) == ["big.csv", "d12.csv", "mu.csv", "nu.csv", "p1.csv", "p12.csv",
                         "p20.csv", "p300.csv", "w12.csv"]


def test_compare_reports_every_kind_of_difference():
    parent = [run("gen", stdout="a\nb\n"), run("sep", exit=2, stderr="bad\n"), run("dims")]
    change = [run("gen", stdout="a\nc\n"), run("sep", exit=0), run("dims")]
    files_p = {"same.csv": b"1\n", "x.json": b"{\n  \"step\": false\n}\n",
               "gone.csv": b"", "blob": b"\xff\x00"}
    files_c = {"same.csv": b"1\n", "x.json": b"{\n  \"step\": true\n}\n",
               "new.csv": b"", "blob": b"\xff\x01\x02"}
    got = outdiff.compare(parent, change, files_p, files_c)
    assert got == [
        {"args": "gen", "stdout": ["--- parent", "+++ change", "@@ -2 +2 @@", "-b", "+c"]},
        {"args": "sep", "exit": [2, 0]},
        {"args": "sep", "stderr": ["--- parent", "+++ change", "@@ -1 +0,0 @@", "-bad"]},
        {"file": "blob", "bytes": [2, 3]},
        {"file": "gone.csv", "only_in": "parent"},
        {"file": "new.csv", "only_in": "change"},
        {"file": "x.json", "diff": ["--- parent", "+++ change", "@@ -2 +2 @@",
                                    '-  "step": false', '+  "step": true']},
    ]
    assert outdiff.compare(parent, parent, files_p, files_p) == []


def test_a_side_runs_each_invocation_in_its_work_dir_with_its_own_src(tmp_path):
    pkg = tmp_path / "checkout" / "src" / "concdim"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import json, os, sys\n"
        "out = sys.argv[sys.argv.index('--out') + 1]\n"
        "os.makedirs(out)\n"
        "open(os.path.join(out, 'argv.json'), 'w').write(json.dumps(sys.argv[1:]))\n"
        "print(os.path.abspath(__file__))\n"
        "sys.exit(len(sys.argv) - 1)\n")
    work = tmp_path / "work"
    work.mkdir()
    runs = outdiff.run_side(tmp_path / "checkout", work,
                            [["alpha", "--points", "p12.csv"], ["bound", "--out", "cover"]])
    assert [r["args"] for r in runs] == ["alpha --points p12.csv --out out/0",
                                         "bound --out cover"]
    assert [r["exit"] for r in runs] == [5, 3]
    assert {r["stdout"] for r in runs} == {f"{(pkg / 'cli.py').resolve()}\n"}
    files = outdiff.read_tree(work)
    assert json.loads(files["out/0/argv.json"]) == ["alpha", "--points", "p12.csv",
                                                    "--out", "out/0"]
    assert json.loads(files["cover/argv.json"]) == ["bound", "--out", "cover"]
    assert "p12.csv" in files
