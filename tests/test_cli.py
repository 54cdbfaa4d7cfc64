"""Command-line interface: verbs, JSON output, exit codes, determinism."""

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from blueweyl.catalog import MODEL_FILE_BYTES
from blueweyl.cli import (
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_USAGE,
    MAX_SAMPLES,
    _build_parser,
    run,
)


def invoke(args):
    out = io.StringIO()
    code = run(args, out=out)
    return code, out.getvalue()


def invoke_json(args):
    code, text = invoke(args)
    return code, json.loads(text)


def test_spec_sl2():
    code, data = invoke_json(["spec", "sl:2"])
    assert code == EXIT_OK
    assert data["count"] == 7
    assert "(T2,T3)" in data["labels"]
    assert len(data["hasse"]) == 8


def test_spec_unknown_model():
    code, data = invoke_json(["spec", "nope:4"])
    assert code == EXIT_COMPUTATION
    assert data["error"] == "CatalogError"


def test_rank_space_verb():
    code, data = invoke_json(["rank-space", "sl:3"])
    assert code == EXIT_OK
    assert data["rank"] == 2
    assert len(data["points"]) == 6
    assert {p["epsilon"] for p in data["points"]} == {1, 2}


def test_weyl_verb_sl3():
    code, data = invoke_json(["weyl", "sl:3"])
    assert code == EXIT_OK
    assert data["order"] == 6
    assert data["group"] is True
    assert data["abelian"] is False


def test_tits_points_verb():
    code, data = invoke_json(["tits-points", "sl:2", "--m", "2"])
    assert code == EXIT_OK
    assert data["count"] == 4
    code, data = invoke_json(["tits-points", "sl:2", "--m", "1"])
    assert data["count"] == 1


def test_points_verb_tropical():
    code, data = invoke_json([
        "points", "--model", "sl:2", "--semiring", "tropical",
        "--check", "[0, 5, 7, 0]"])
    assert code == EXIT_OK
    assert data["is_point"] is True


def test_points_verb_naturals_negative():
    code, data = invoke_json([
        "points", "--model", "sl:2", "--semiring", "naturals",
        "--check", "[1, 1, 1, 1]"])
    assert data["is_point"] is False


def test_points_verb_with_aux():
    code, data = invoke_json([
        "points", "--model", "gl:1", "--semiring", "naturals",
        "--check", "[1]", "--aux", "{\"d\": 1}"])
    assert code == EXIT_OK and data["is_point"] is True


def test_points_verb_missing_aux_is_an_error():
    code, data = invoke_json([
        "points", "--model", "gl:1", "--semiring", "naturals",
        "--check", "[1]"])
    assert code == EXIT_COMPUTATION
    assert data["error"] == "MissingAuxiliaryValue"


@pytest.mark.parametrize("model,semiring,check,aux", [
    ("sl:2", "boolean", "5", None),  # not a list
    ("sl:2", "boolean", '{"a": 1, "b": 0, "c": 0, "d": 1}', None),  # not a list
    ("sl:2", "boolean", "[1, 0, 0, null]", None),  # null is no boolean
    ("sl:2", "boolean", "[1, 0, 0, 2]", None),  # 2 is no boolean
    ("gl:2", "boolean", "[1, 0, 0, 1]", '{"d": "x"}'),  # bad auxiliary value
    ("gl:2", "boolean", "[1, 0, 0, 1]", "[1]"),  # aux not an object
    # nested past the JSON decoder's recursion limit
    pytest.param("sl:2", "boolean", "[" * 5000 + "]" * 5000, None, id="check-nested-5000"),
    pytest.param("gl:2", "boolean", "[1, 0, 0, 1]", "[" * 5000 + "]" * 5000,
                 id="aux-nested-5000"),
    ("sl:2", "boolean", "[1, 0, 0, 1]", '{"d": 1}'),  # sl:2 has no auxiliary generator
    ("gl:2", "boolean", "[1, 0, 0, 1]", '{"d": 1, "e": 1}'),  # e is not one of gl:2
])
def test_points_verb_rejects_malformed_input(model, semiring, check, aux):
    argv = ["points", "--model", model, "--semiring", semiring, "--check", check]
    code, data = invoke_json(argv + (["--aux", aux] if aux else []))
    assert code == EXIT_COMPUTATION
    assert data["error"] == "ValueError"


@pytest.mark.parametrize("model,semiring,check", [
    ("psl2-adj", "tropical", "[0, 0, 0, 0, 0, 0, 0, 0, 0]"),
    ("psl2-adj", "boolean", "[1, 0, 0, 0, 1, 0, 0, 0, 1]"),
    ("psl2-conj", "naturals", "[" + ", ".join(["0"] * 16) + "]"),
])
def test_points_verb_refuses_a_model_given_by_its_points(model, semiring, check):
    # the psl2 models ship their points without relations, so a check
    # would accept every matrix, the zero matrix included
    code, data = invoke_json(["points", "--model", model, "--semiring", semiring,
                              "--check", check])
    assert code == EXIT_COMPUTATION
    assert data["error"] == "ValueError" and model in data["message"]


def test_dot_verb():
    code, text = invoke(["dot", "sl:2"])
    assert code == EXIT_OK
    assert text.startswith("digraph")
    assert text.count("->") == 8


def test_dot_quotes_names_holding_quotes_and_backslashes(tmp_path):
    """Every DOT string of the graph name and the labels reads back, once
    unescaped, as the name and labels that spec reports."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"elements": ["e", 'a"b\\c'], "table": [[0, 1], [1, 0]]}))
    code, text = invoke(["dot", f"const:{path}"])
    assert code == EXIT_OK
    strings = [re.sub(r"\\(.)", r"\1", s) for s in re.findall(r'"((?:[^"\\]|\\.)*)"', text)]
    _, spec = invoke_json(["spec", f"const:{path}"])
    assert spec["model"] == 'const:e+a"b\\c'
    assert strings == [spec["model"]] + spec["labels"]
    assert text.splitlines()[0] == 'digraph "const:e+a\\"b\\\\c" {'


def test_usage_error_exit_code():
    assert run(["unknown-verb"], out=io.StringIO()) == EXIT_USAGE
    assert run([], out=io.StringIO()) == EXIT_USAGE


def test_oracle_verb():
    code, data = invoke_json(["--samples", "250", "oracle", "psl2-conj"])
    assert code == EXIT_OK
    assert data["ok"] is True
    assert data["patterns"] == 7


def test_verify_verb_oracle_suite():
    out = io.StringIO()
    code = run(["--samples", "250", "verify", "oracle"], out=out)
    text = out.getvalue().splitlines()
    assert code == EXIT_OK
    assert all(line.startswith("PASS") for line in text[:-1])
    summary = json.loads(text[-1])
    assert summary["failed"] == 0 and summary["checks"] >= 4


def test_output_deterministic():
    _, first = invoke(["spec", "sl:3"])
    _, second = invoke(["spec", "sl:3"])
    assert first == second
    _, pretty = invoke(["--json-pretty", "spec", "sl:3"])
    assert pretty != first and json.loads(pretty) == json.loads(first)


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "blueweyl.cli", "spec", "sl:2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 7


def test_budget_flag_is_gone():
    assert run(["--budget", "5", "spec", "sl:2"], out=io.StringIO()) == EXIT_USAGE


@pytest.mark.parametrize("verb,content", [
    ("const", None),  # no such file
    ("semidirect", {"elements": ["e"], "table": [[0]], "exps": {"e": [[1]]}}),  # no "rank"
    ("const", ["e"]),  # not a JSON object
    ("const", {"elements": ["e", "a"], "table": [[0, 1], [1, 0]], "identity": 7}),
    ("const", {"elements": ["e", "a"], "table": [[0, 1], [1, 5]]}),  # entry out of range
    ("const", {"elements": 5, "table": [[0]]}),
    ("const", {"elements": ["e"], "table": 3}),
    ("const", {"elements": ["e", 5], "table": [[0, 1], [1, 0]]}),  # non-string name
    ("semidirect", {"elements": ["e", "a"], "table": [[0, 1], [1, 0]], "rank": 1,
                    "exps": {"e": [1], "a": [[-1]]}}),  # matrix row not a list
    ("const", {"elements": ["e", "e"], "table": [[0, 1], [1, 0]]}),  # repeated name
    ("const", {"elements": "ab", "table": [[0, 1], [1, 0]]}),  # a string, not a list
    ("semidirect", {"elements": ["e", "a"], "table": [[0, 1], [1, 0]], "rank": 1,
                    "exps": {"e": [[1]], "a": [[2]]}}),  # A(a)A(a) != A(e): no action
    # values of the wrong shape, not coerced to integers
    ("const", {"elements": ["e", "a"], "table": ["01", "10"]}),  # rows are strings
    ("const", {"elements": ["e", "a"], "table": [[0, 1], [1, 0]], "identity": "0"}),
    ("const", {"elements": ["e", "a"], "table": [[0, 1.5], [1, 0]]}),  # a fraction
    ("semidirect", {"elements": ["e", "a"], "table": [[0, 1], [1, 0]], "rank": "1",
                    "exps": {"e": [[1]], "a": [[-1]]}}),  # rank is a string
    ("semidirect", {"elements": ["e", "a"], "table": [[0, 1], [1, 0]], "rank": 1,
                    "exps": {"e": ["1"], "a": [[-1]]}}),  # matrix row is a string
])
def test_bad_model_file_is_a_catalog_error(tmp_path, verb, content):
    path = tmp_path / "model.json"
    if content is not None:
        path.write_text(json.dumps(content))
    code, data = invoke_json(["spec", f"{verb}:{path}"])
    assert code == EXIT_COMPUTATION
    assert data["error"] == "CatalogError"


@pytest.mark.parametrize("raw", [
    b'{"elements": ["e"], "table": [[0]',  # truncated JSON
    b"\xff{}",  # not UTF-8
    b"[" * 100000,  # nested beyond the decoder's recursion limit
], ids=["truncated", "not-utf8", "too-deep"])
def test_unreadable_model_file_is_a_catalog_error(tmp_path, raw):
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    code, data = invoke_json(["spec", f"const:{path}"])
    assert code == EXIT_COMPUTATION
    assert data["error"] == "CatalogError"
    assert str(path) in data["message"]


def test_model_file_over_the_size_bound_is_a_catalog_error(tmp_path):
    """A file past MODEL_FILE_BYTES, or /dev/zero, which never ends, is
    refused after at most MODEL_FILE_BYTES + 1 bytes; a file at the bound
    is parsed."""
    path = tmp_path / "model.json"
    path.write_bytes(b" " * (MODEL_FILE_BYTES + 1))
    for source in [path] + [p for p in ["/dev/zero"] if os.path.exists(p)]:
        code, data = invoke_json(["spec", f"const:{source}"])
        assert code == EXIT_COMPUTATION
        assert data["error"] == "CatalogError"
        assert f"larger than {MODEL_FILE_BYTES} bytes" in data["message"]
    path.write_bytes(b"{}".ljust(MODEL_FILE_BYTES))
    code, data = invoke_json(["spec", f"const:{path}"])
    assert code == EXIT_COMPUTATION
    assert data["message"] == "model file has no 'elements' entry"


@pytest.mark.parametrize("selector", ["sl:", "torus:1.5", "parabolic:3:1,x", "levi:x:1"])
def test_malformed_selector_is_a_catalog_error(selector):
    code, data = invoke_json(["spec", selector])
    assert code == EXIT_COMPUTATION
    assert data["error"] == "CatalogError"
    assert repr(selector) in data["message"]


def _cyclic_table(n, rank=None):
    data = {"elements": [f"g{i}" for i in range(n)],
            "table": [[(i + j) % n for j in range(n)] for i in range(n)]}
    if rank is not None:
        data["rank"] = rank
        data["exps"] = {name: [[int(i == j) for j in range(rank)] for i in range(rank)]
                        for name in data["elements"]}
    return data


@pytest.mark.parametrize("verb,content", [
    ("torus:2000", None),
    ("const", _cyclic_table(150)),
    ("semidirect", _cyclic_table(150, rank=1)),
    ("semidirect", _cyclic_table(25, rank=2)),  # rank plus elements over the cap
    # the flag subgroups of gl(7), whose determinant relation has 7! terms
    ("levi:7:7", None),
    ("parabolic:7:3,4", None),
    ("unipotent:7:7", None),
])
def test_oversized_model_is_refused_before_it_is_built(tmp_path, verb, content):
    selector = verb
    if content is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(content))
        selector = f"{verb}:{path}"
    code, data = invoke_json(["spec", selector])
    assert code == EXIT_COMPUTATION
    assert data["error"] == "CatalogError"
    assert "supported range" in data["message"]


# per key of a model file, values that make any file holding them malformed
BAD_MODEL_VALUES = {
    "elements": [5, None, 1.5, ["e", 5], [["e"]], [None], ["e", "e"], "ab"],
    "table": [3, None, "x", [0, 1], [[0, 1], [1, -1]], [[0, "x"], [1, 0]], [[None]],
              ["01", "10"], [[0, 1.0], [1, 0]]],
    "identity": [-1, None, [0], "x", {"e": 0}, "0"],
    "rank": [None, [1], "x", -1, {"r": 1}, "1"],
    "exps": [1, None, "x", [[1]], {"e": [1], "a": [1]}, {"e": [["x"]], "a": [["x"]]},
             {"e": [[1]], "a": [[2]]}, {"e": ["1"], "a": ["1"]}],
}


def test_fuzzed_model_files_end_in_a_catalog_error(tmp_path):
    rng = random.Random(20240)
    path = tmp_path / "model.json"
    for _ in range(200):
        verb = rng.choice(["const", "semidirect"])
        data = {"elements": ["e", "a"], "table": [[0, 1], [1, 0]], "identity": 0,
                "rank": 1, "exps": {"e": [[1]], "a": [[-1]]}}
        keys = ["elements", "table", "identity"] + (["rank", "exps"] if verb == "semidirect" else [])
        spoiled = rng.sample(keys, rng.randint(1, len(keys)))
        for key in spoiled:
            data[key] = rng.choice(BAD_MODEL_VALUES[key])
        path.write_text(json.dumps(data))
        code, out = invoke(["spec", f"{verb}:{path}"])
        assert code == EXIT_COMPUTATION, (verb, data)
        assert json.loads(out)["error"] == "CatalogError", (verb, data)


def test_cap_flag_reported():
    """The generator cap is a constant of the search, not a flag."""
    assert run(["--cap", "3", "spec", "sl:2"], out=io.StringIO()) == EXIT_USAGE
    code, data = invoke_json(["spec", "so:6"])
    assert code == EXIT_COMPUTATION
    assert data["error"] == "GeneratorCapExceeded"


@pytest.mark.parametrize("args", [["--samples", "0", "verify", "properties"],
                                  ["--samples", "-3", "verify", "properties"],
                                  ["--samples", "0", "oracle", "psl2-conj"],
                                  [f"--samples={MAX_SAMPLES + 1}", "oracle", "psl2-adj"],
                                  ["--samples", "1000000000", "verify", "oracle"],
                                  ["--samples", "1000000000", "verify", "properties"]])
def test_samples_must_be_positive(args):
    """--samples runs from 1 to MAX_SAMPLES: a cell with no satisfying sample
    runs every sample it is given."""
    out = io.StringIO()
    assert run(args, out=out) == EXIT_USAGE
    assert out.getvalue() == ""
    assert f"from 1 to {MAX_SAMPLES}" in " ".join(_build_parser().format_help().split())


# argv values of --m, --seed, the verify suite and the oracle model that
# argparse must refuse, with one of each run through the entry point
BAD_ARGV = [
    ["tits-points", "sl:2", "--m", "0"],
    ["tits-points", "sl:2", "--m", "3"],
    ["tits-points", "sl:2", "--m", "x"],
    ["--seed", "x", "oracle", "psl2-adj"],
    ["--seed", "1.5", "oracle", "psl2-adj"],
    ["verify", "nope"],
    ["verify", "Paper-Counts"],
    ["oracle", "sl:2"],
    ["oracle", "psl2"],
]


@pytest.mark.parametrize("args", BAD_ARGV, ids=[" ".join(a) for a in BAD_ARGV])
def test_bad_argv_is_a_usage_error(args):
    out = io.StringIO()
    assert run(args, out=out) == EXIT_USAGE
    assert out.getvalue() == ""


@pytest.mark.parametrize("args", [BAD_ARGV[1], BAD_ARGV[4], BAD_ARGV[5], BAD_ARGV[8]],
                         ids=lambda a: " ".join(a))
def test_bad_argv_exits_without_a_traceback(args):
    result = subprocess.run([sys.executable, "-m", "blueweyl.cli", *args],
                            capture_output=True, text=True)
    assert result.returncode == EXIT_USAGE
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("seed", [-1, 10**30])
def test_any_integer_seed_is_accepted_and_echoed(seed):
    code, data = invoke_json(["--seed", str(seed), "--samples", "50", "oracle", "psl2-adj"])
    assert code == EXIT_OK
    assert data["ok"] is True and data["seed"] == seed


SAMPLER_MODULES = ("blueweyl.verify", "blueweyl.patterns", "fractions")

IMPORT_BOUNDARY_PROBE = f"""
import io, json, sys
from blueweyl.cli import run

codes = [run(argv, out=io.StringIO()) for argv in (
    ["spec", "sl:2"], ["rank-space", "sl:2"], ["weyl", "sl:2"],
    ["tits-points", "sl:2", "--m", "2"], ["dot", "sl:2"],
    ["points", "--model", "sl:2", "--semiring", "boolean", "--check", "[1, 0, 0, 1]"],
    ["--samples", "0", "spec", "sl:2"])]
before = [m for m in {SAMPLER_MODULES!r} if m in sys.modules]
out = io.StringIO()
code = run(["--samples", "50", "oracle", "psl2-adj"], out=out)
after = [m for m in {SAMPLER_MODULES!r} if m in sys.modules]
print(json.dumps({{"codes": codes, "before": before, "code": code,
                  "ok": json.loads(out.getvalue())["ok"], "after": after}}))
"""


def test_only_oracle_and_verify_load_the_sampler():
    """The verbs that sample nothing never import the sampler or the suites."""
    result = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY_PROBE],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen["codes"] == [EXIT_OK] * 6 + [EXIT_USAGE]
    assert seen["before"] == []
    assert seen["code"] == EXIT_OK and seen["ok"] is True
    assert seen["after"] == list(SAMPLER_MODULES)


# stdout SHA-256 of queries that take at most about 1.5 s, as pinned in
# perfbench/expected.json
GOLDEN_OUTPUTS = [
    (["points", "--model", "sl:2", "--semiring", "boolean", "--check", "[1, 0, 0, 1]"],
     "4476c2c55cacf57cd29131f65b23cc0216294de80bc45db3f833a193d0df3370"),
    (["points", "--model", "sl:2", "--semiring", "tropical", "--check", "[0, 5, 7, 0]"],
     "ccdf5d2630317137295ad7c7615dde34acf164c52cc2844934c687e80ad282da"),
    (["spec", "sl:3"],
     "2323244d7d5c0e7d89d209f01c5757d67b0d2563d6615313813ee1de1646dae3"),
    (["tits-points", "sl:3", "--m", "2"],
     "22280e7d52714c8d83cfcefe9575857a161bfaf1d28886402afe97f83d223f0e"),
    (["weyl", "psl2-adj"],
     "1427fc250e4a9ed093a4aca7a9be8547ceb597b4725ab81d4f0bb47180c14204"),
    (["rank-space", "sl:3"],
     "14bc90f0c9e5ed11fa4842d75134d0bfe662082009543ad6e82099538a659ab9"),
    (["rank-space", "sl:4"],
     "7b08e60fbb05e286b7ab12a08b9942a1bddc8ba5f5e01d37ffd00d98a0733485"),
    (["rank-space", "gl:3"],
     "3389674f0d9bdbda00eba30731097e5f7d28e44370f868330e55b05e9a19e102"),
    (["rank-space", "sp:4"],
     "473aca6a18f2f3e7a9256439f913b08fc544215389cc6009f356edad20427a7e"),
    (["rank-space", "so:4"],
     "f7280015109f8fb64f28488dd9a10e249ef94de476ae7a069362aa0813173576"),
    (["rank-space", "o:4"],
     "493f0f2e1565be7f5efb4252e3ef4b3eb7113ceceeb28f871594195270d872b3"),
    (["rank-space", "nstorus"],
     "f8e6573d55cdf85ecc76f2f6885d1a84fe06aa0db2a847fc542d703b77b0df1a"),
    (["rank-space", "levi:3:2,1"],
     "89196fe6980afa562af32d0359b82c82919b2e7bde11f73b34c4dc2078af2e08"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_OUTPUTS,
                         ids=[" ".join(a) for a, _ in GOLDEN_OUTPUTS])
def test_golden_output(argv, digest):
    code, text = invoke(argv)
    assert code == EXIT_OK
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
