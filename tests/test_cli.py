import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import superstable
from superstable import parse_instance
from superstable.cli import main
from conftest import CHAIN3_TEXT, I1_TEXT, I2_TEXT, I3_TEXT, NON_MUTUAL_TEXT

PAIR = {"type": "array", "items": {"type": "string"}, "minItems": 2, "maxItems": 2}
MATCHING = {
    "type": "object",
    "properties": {
        "pairs": {"anyOf": [{"type": "null"}, {"type": "array", "items": PAIR}]},
        "matched": {"type": "integer", "minimum": 0},
    },
    "required": ["pairs"],
    "additionalProperties": False,
}
ROTATIONS = {
    "type": "object",
    "properties": {
        "sequence": {"type": "array", "items": MATCHING},
        "rotations": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "index": {"type": "integer"},
                    "removed": {"type": "array", "items": PAIR},
                    "added": {"type": "array", "items": PAIR},
                },
                "required": ["index", "removed", "added"],
            },
        },
        "arcs": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
    },
    "required": ["sequence", "rotations", "arcs"],
}
IRREDUCIBLE = {
    "type": "object",
    "properties": {
        "elements": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "index": {"type": "integer"},
                            "pairs": {"type": "array", "items": PAIR},
                            "witnesses": {"type": "array", "items": PAIR},
                            "p_set": {"type": "array", "items": PAIR},
                        },
                        "required": ["index", "pairs", "witnesses", "p_set"],
                    },
                },
            ]
        },
        "covers": {"type": "array"},
    },
    "required": ["elements"],
}
CHECK = {
    "type": "object",
    "properties": {
        "model": {"enum": ["super", "strong"]},
        "feasible": {"type": "boolean"},
        "violations": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "constraint": {"enum": ["1a", "1b", "1c", "3a", "3b", "3c", "3d"]},
                    "lhs": {"type": "string"},
                    "relation": {"type": "string"},
                },
                "required": ["constraint", "witness", "lhs", "relation"],
            },
        },
    },
    "required": ["model", "feasible", "violations"],
}
VERTICES = {
    "type": "object",
    "properties": {
        "model": {"enum": ["super", "strong"]},
        "count": {"type": "integer"},
        "vertices": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
    "required": ["model", "count", "vertices"],
}
MAXWEIGHT = {
    "type": "object",
    "properties": {
        "pairs": MATCHING["properties"]["pairs"],
        "matched": {"type": "integer"},
        "weight": {"type": "string", "pattern": r"^-?[0-9]+(/[0-9]+)?$"},
    },
    "required": ["pairs"],
    "additionalProperties": False,
}


@pytest.fixture
def i1_file(tmp_path):
    path = tmp_path / "i1.txt"
    path.write_text(I1_TEXT)
    return str(path)


@pytest.fixture
def i2_file(tmp_path):
    path = tmp_path / "i2.txt"
    path.write_text(I2_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve(capsys, i1_file):
    code, out, _ = run(capsys, "solve", i1_file, "--side", "men")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, MATCHING)
    assert doc == {"pairs": [["a", "x"], ["b", "y"]], "matched": 2}
    code, out, _ = run(capsys, "solve", i1_file, "--side", "women")
    assert json.loads(out)["pairs"] == [["a", "y"], ["b", "x"]]


def test_solve_infeasible(capsys, i2_file):
    code, out, _ = run(capsys, "solve", i2_file)
    assert code == 0
    assert json.loads(out) == {"pairs": None}


def test_enumerate(capsys, i1_file):
    code, out, _ = run(capsys, "enumerate", i1_file)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 2
    for doc in lines:
        jsonschema.validate(doc, MATCHING)
    code, out, _ = run(capsys, "enumerate", i1_file, "--limit", "1")
    assert len(out.splitlines()) == 1


def test_rotations(capsys, i1_file, i2_file):
    code, out, _ = run(capsys, "rotations", i1_file)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, ROTATIONS)
    assert len(doc["sequence"]) == 2 and len(doc["rotations"]) == 1
    assert doc["arcs"] == []
    code, out, _ = run(capsys, "rotations", i2_file)
    assert json.loads(out) == {"sequence": [], "rotations": [], "arcs": []}
    code, out, _ = run(capsys, "rotations", i1_file, "--dot")
    assert code == 0 and out.startswith("digraph rotations {")


def test_rotations_sequence_opens_the_enumeration(capsys, tmp_path):
    # the printed chain is the first descent of the enumeration's walk
    strict = superstable.serialize_instance(superstable.random_instance(30, 30, 1.0, 0.0, seed=1))
    for k, text in enumerate((CHAIN3_TEXT, strict)):
        path = tmp_path / f"{k}.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "rotations", str(path))
        sequence = json.loads(out)["sequence"]
        assert code == 0 and len(sequence) > 2, k
        code, out, _ = run(capsys, "enumerate", "--limit", str(len(sequence)), str(path))
        assert code == 0 and [json.loads(line) for line in out.splitlines()] == sequence, k


def test_irreducible(capsys, i1_file, i2_file):
    code, out, _ = run(capsys, "irreducible", i1_file)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, IRREDUCIBLE)
    assert len(doc["elements"]) == 2 and doc["covers"] == [[0, 1]]
    code, out, _ = run(capsys, "irreducible", i2_file)
    assert json.loads(out) == {"elements": None}
    code, out, _ = run(capsys, "irreducible", i1_file, "--dot")
    assert out.startswith("digraph irreducible {")
    code, out, _ = run(capsys, "irreducible", i2_file, "--dot")
    assert code == 0 and out == "digraph irreducible {\n}\n"


def test_maxweight(capsys, i1_file, i2_file, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("a y 5\nb x 5\na x 1\nb y 1\n")
    code, out, _ = run(capsys, "maxweight", i1_file, "--weights", str(wfile))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, MAXWEIGHT)
    assert doc["pairs"] == [["a", "y"], ["b", "x"]] and doc["weight"] == "10"
    wfile.write_text("a x 1\n")
    code, out, _ = run(capsys, "maxweight", i2_file, "--weights", str(wfile))
    assert code == 0 and json.loads(out) == {"pairs": None}


def test_chain_commands_on_a_dropped_tie(capsys, tmp_path):
    # the chain search gives up a tie on this instance; a drop of that rank
    # alone once made each command print a traceback and exit 1
    code, text, _ = run(
        capsys, "gen", "--men", "10", "--women", "10", "--density", "1",
        "--tie-prob", "0.2", "--seed", "505501404",
    )
    assert code == 0
    path = tmp_path / "tied.txt"
    path.write_text(text)
    weights = tmp_path / "w.txt"
    edges = parse_instance(text).edges
    weights.write_text("".join(f"{m} {w} {k % 5 - 2}\n" for k, (m, w) in enumerate(edges)))
    for argv, schema in [
        (["rotations", str(path)], ROTATIONS),
        (["irreducible", str(path)], IRREDUCIBLE),
        (["maxweight", str(path), "--weights", str(weights)], MAXWEIGHT),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 0 and not err, argv
        jsonschema.validate(json.loads(out), schema)
    code, out, err = run(capsys, "enumerate", str(path))
    assert code == 0 and not err
    lines = out.splitlines()
    assert len(lines) == 2
    for line in lines:
        jsonschema.validate(json.loads(line), MATCHING)


def test_check_polytope(capsys, i1_file, tmp_path):
    pfile = tmp_path / "p.txt"
    pfile.write_text("a x 1/2\na y 1/2\nb x 1/2\nb y 1/2\n")
    code, out, _ = run(capsys, "check-polytope", i1_file, "--point", str(pfile))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, CHECK)
    assert doc["feasible"] is True and doc["violations"] == []
    empty = tmp_path / "zero.txt"
    empty.write_text("")
    code, out, _ = run(capsys, "check-polytope", i1_file, "--point", str(empty))
    doc = json.loads(out)
    jsonschema.validate(doc, CHECK)
    assert doc["feasible"] is False and len(doc["violations"]) == 4


def test_vertices(capsys, i1_file):
    code, out, _ = run(capsys, "vertices", i1_file, "--model", "super")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, VERTICES)
    assert doc["count"] == 2
    assert all(entry[2] == "1" for vertex in doc["vertices"] for entry in vertex)


def test_gen_deterministic_and_pipes(capsys):
    args = ["gen", "--men", "4", "--women", "4", "--density", "0.8", "--tie-prob", "0.3", "--seed", "7"]
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    inst = parse_instance(first)
    assert inst.men == ("m1", "m2", "m3", "m4")


def test_oracle_command(capsys, i1_file):
    code, out, _ = run(capsys, "oracle", i1_file)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 2
    for doc in lines:
        jsonschema.validate(doc, MATCHING)


def test_exit_codes(capsys, tmp_path, i1_file):
    code, _, err = run(capsys, "bogus")
    assert code == 1 and err
    code, _, err = run(capsys)
    assert code == 1
    code, out, err = run(capsys, "enumerate", i1_file, "--limit", "-3")
    assert code == 1 and "--limit" in err and not out
    for argv, option in [
        (["vertices", i1_file, "--cap", "-1"], "--cap"),
        (["gen", "--men", "-2", "--women", "3"], "--men"),
        (["gen", "--men", "2", "--women", "0"], "--women"),
        (["gen", "--men", "2", "--women", "2", "--density", "7"], "--density"),
        (["gen", "--men", "2", "--women", "2", "--tie-prob", "-1"], "--tie-prob"),
        (["gen", "--men", "2", "--women", "2", "--density", "nan"], "--density"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.startswith("usage error") and option in err, argv
        assert not out, argv
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.txt"))
    assert code == 2 and "missing.txt" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("men: a\nwomen: x\na: q\nx: a\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2 and "bad.txt" in err
    bad.write_bytes(b"men: a\nwomen: x\na: x\nx: \xffa\n")
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 2 and "bad.txt" in err and "decode" in err and not out
    weights = tmp_path / "w.txt"
    weights.write_text("a x 1\na x 1\n")
    code, _, err = run(capsys, "maxweight", i1_file, "--weights", str(weights))
    assert code == 2 and "duplicate" in err
    weights.write_text("a x\n")
    code, _, err = run(capsys, "maxweight", i1_file, "--weights", str(weights))
    assert code == 2 and "w.txt" in err and "<rational>" in err
    point = tmp_path / "p.txt"
    point.write_text("a x 1/0\n")
    code, _, err = run(capsys, "check-polytope", i1_file, "--point", str(point))
    assert code == 2 and "denominator" in err
    # int() alone would read these as 10 and 3
    weights.write_text("a x 1_0\n")
    code, out, err = run(capsys, "maxweight", i1_file, "--weights", str(weights))
    assert code == 2 and "line 1: bad rational '1_0'" in err and not out
    point.write_text("a x \u0663\n", encoding="utf-8")
    code, out, err = run(capsys, "check-polytope", i1_file, "--point", str(point))
    assert code == 2 and "line 1: bad rational" in err and not out
    # past the interpreter's digit limit: named, with the token shortened
    long = "1" * 5000
    weights.write_text(f"a x {long}\n")
    code, out, err = run(capsys, "maxweight", i1_file, "--weights", str(weights))
    assert code == 2 and "limit of" in err and long not in err and not out
    point.write_text(f"a x 1/{long}\n")
    code, out, err = run(capsys, "check-polytope", i1_file, "--point", str(point))
    assert code == 2 and "limit of" in err and long not in err and not out


def test_no_input_mutation(capsys, i1_file):
    before = open(i1_file).read()
    run(capsys, "rotations", i1_file)
    assert open(i1_file).read() == before


# Runs each argv through ``main`` in one interpreter and prints, per argv,
# the exit code, stdout and stderr as JSON.
RUN_ALL = """
import contextlib, io, json, sys
from superstable.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_output_does_not_depend_on_hash_seed(tmp_path):
    argvs = [["gen", "--men", "4", "--women", "4", "--density", "0.8", "--tie-prob", "0.3"]]
    texts = {
        "i1": I1_TEXT, "i2": I2_TEXT, "i3": I3_TEXT, "chain3": CHAIN3_TEXT,
        "non_mutual": NON_MUTUAL_TEXT,
    }
    for name, text in texts.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        edges = [] if name == "non_mutual" else parse_instance(text).edges
        weights = tmp_path / f"{name}.w"
        weights.write_text("".join(f"{m} {w} {k % 3 - 1}\n" for k, (m, w) in enumerate(edges)))
        point = tmp_path / f"{name}.p"
        point.write_text("".join(f"{m} {w} 1/2\n" for m, w in edges))
        f = str(path)
        argvs += [
            ["solve", f],
            ["solve", f, "--side", "women"],
            ["enumerate", f],
            ["rotations", f],
            ["rotations", f, "--dot"],
            ["irreducible", f],
            ["irreducible", f, "--dot"],
            ["maxweight", f, "--weights", str(weights)],
            ["check-polytope", f, "--point", str(point)],
            ["check-polytope", f, "--point", str(point), "--model", "strong"],
            ["vertices", f],
            ["vertices", f, "--model", "strong"],
            ["oracle", f],
        ]
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(Path(superstable.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", RUN_ALL, json.dumps(argvs)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        runs.append(json.loads(done.stdout))
    for argv, first, second in zip(argvs, *runs):
        assert first == second, argv
    assert runs[0][-1] == [2, "", f"error: {tmp_path / 'non_mutual.txt'}: "
                           "non-mutual listing: 'a' lists 'z' but not vice versa\n"]
    assert sum(code == 0 for code, _, _ in runs[0]) == 1 + 4 * 13


def test_closed_stdout_exits_quietly(tmp_path):
    # a reader that stops early, as ``| head -c 200`` does, closes the pipe
    # long before the 181 matchings are written: they fill four default
    # pipe buffers, so the CLI cannot finish writing before the close
    inst = superstable.random_instance(200, 200, 0.5, 0.0, seed=2)
    lines = [json.dumps(superstable.matching_to_json(inst, m)) for m in superstable.enumerate_all(inst)]
    assert len(lines) == 181 and sum(len(line) + 1 for line in lines) >= 256 * 1024
    path = tmp_path / "s.txt"
    path.write_text(superstable.serialize_instance(inst))
    env = dict(os.environ, PYTHONPATH=str(Path(superstable.__file__).parents[1]))
    argv = [sys.executable, "-m", "superstable.cli", "enumerate", "--limit", "2000", str(path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(200)) == 200
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 141 and err == b""
    # started without stdout at all (``>&-``), the CLI still exits 0
    argv = [sys.executable, "-m", "superstable.cli", "gen", "--men", "3", "--women", "3"]
    done = subprocess.run(argv, stderr=subprocess.PIPE, env=env, preexec_fn=lambda: os.close(1), timeout=120)
    assert done.returncode == 0 and done.stderr == b""
