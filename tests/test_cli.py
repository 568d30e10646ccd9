"""Command line interface: exit codes, determinism, config handling."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import defdatum
from defdatum import cli
from defdatum.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


DIRECTORY = object()  # stands for a directory given where a file is read


def write_input(path, text):
    """Write text to path, or make path a directory for DIRECTORY."""
    if text is DIRECTORY:
        path.mkdir()
    else:
        path.write_text(text)


def test_search_golden(runner):
    res = invoke(runner, "search", "--p", "3", "--m", "2", "--points", "3", "--r", "1")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["schema"] == "defdatum/1"
    assert doc["passed"] is True
    data = [dt for block in doc["results"] for dt in block["data"]]
    assert len(data) == 1
    assert data[0]["verification"]["passed"] is True
    assert doc["config"] == {"p": 3, "m": 2, "points": 3, "r": 1}
    assert "defdatum" in doc["versions"]


def test_search_nonprime_is_a_usage_error(runner):
    res = invoke(runner, "search", "--p", "4", "--m", "2", "--r", "1")
    assert res.exit_code == 2
    assert "prime" in res.output


def test_missing_required_setting_is_a_usage_error(runner):
    res = invoke(runner, "search", "--p", "3")
    assert res.exit_code == 2


def test_malformed_flag_is_a_usage_error(runner):
    res = invoke(runner, "search", "--p", "three")
    assert res.exit_code == 2


def test_enumerate_includes_the_two_wild_point_pattern(runner):
    res = invoke(runner, "enumerate", "--p", "3", "--m", "2", "--points", "4")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    patterns = [
        tuple(pt["b0"] for pt in sg["points"]) for sg in doc["signatures"]
    ]
    assert (1, 0, 0, 1) in patterns


def test_byte_identical_output_for_identical_config(runner):
    args = ["cohomology", "--p", "3", "--seed", "7"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_config_file_and_flags_agree_flags_win(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "m": 2, "points": 3, "r": 2}))
    from_file = invoke(runner, "search", "--config", str(cfg), "--r", "1")
    from_flags = invoke(
        runner, "search", "--p", "3", "--m", "2", "--points", "3", "--r", "1"
    )
    assert from_file.exit_code == 0
    assert from_file.output == from_flags.output  # the --r flag overrode the file


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        "{not json",
        json.dumps({"p": "3", "m": 2, "points": 3, "r": 1}),
        json.dumps({"p": 3, "m": 2, "points": 3, "r": True}),
        json.dumps({"p": 3, "m": 2.0, "points": 3, "r": 1}),
        DIRECTORY,
    ],
)
def test_malformed_config_file_is_a_usage_error(runner, tmp_path, text):
    # each ended in a traceback with exit 1, the code of a failed verification
    cfg = tmp_path / "cfg.json"
    write_input(cfg, text)
    res = invoke(runner, "search", "--config", str(cfg))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "--config" in res.output


@pytest.mark.parametrize(
    "args",
    [
        "enumerate --p 3 --m -2 --points 4",
        "search --p 3 --m -2 --points 4 --r 1",
        "rigidity --p 3 --m -2 --points 4 --r 1",
    ],
)
def test_negative_m_is_a_usage_error(runner, args):
    # --m -2 used to exit 0 with an empty document
    res = invoke(runner, *args.split())
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "m must be a positive integer" in res.output


@pytest.mark.parametrize("m", [-1, -2])
@pytest.mark.parametrize("with_s", [True, False])
def test_verify_of_a_nonpositive_m_is_a_usage_error(runner, tmp_path, m, with_s):
    # without "s", validate_signature names the failure itself
    signature = {**P3_DATUM["signature"], "m": m}
    if not with_s:
        del signature["s"]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({**P3_DATUM, "signature": signature}))
    res = invoke(runner, "verify", str(path))
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "m must be a positive integer" in res.output


def test_out_flag_writes_the_document(runner, tmp_path):
    out = tmp_path / "doc.json"
    res = invoke(
        runner, "search", "--p", "3", "--m", "2", "--points", "3", "--r", "1",
        "--out", str(out),
    )
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "search"


OUT_COMMANDS = {
    "enumerate": ["enumerate", "--p", "3", "--m", "2", "--points", "4"],
    "search": ["search", "--p", "3", "--m", "2", "--points", "3", "--r", "1"],
    "rigidity": ["rigidity", "--p", "5", "--m", "2", "--points", "4", "--r", "1"],
    "cohomology": ["cohomology", "--p", "3"],
    "verify": ["verify", "DATUM"],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_unwritable_out_is_a_usage_error_before_any_work(
    runner, tmp_path, monkeypatch, command, where
):
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(P3_DATUM))
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "doc.json"

    def no_work(*args, **kwargs):
        raise AssertionError("the command computed before checking --out")

    for module, name in [
        (cli.sigdata, "enumerate_signatures"),
        (cli.search.DeformationDatum, "from_json"),
        (cli.homcoh, "cech_line_bundle"),
    ]:
        monkeypatch.setattr(module, name, no_work)
    args = [str(datum) if a == "DATUM" else a for a in OUT_COMMANDS[command]]
    res = invoke(runner, *args, "--out", str(out))
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--out'" in res.output
    reason = "is a directory" if where == "a directory" else "is not an existing directory"
    assert reason in res.output
    assert "Traceback" not in res.output


def test_verify_round_trip(runner, tmp_path):
    res = invoke(runner, "search", "--p", "5", "--m", "2", "--points", "4", "--r", "1")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    datum = doc["results"][-1]["data"][0]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    res2 = invoke(runner, "verify", str(path))
    assert res2.exit_code == 0
    doc2 = json.loads(res2.output)
    assert doc2["passed"] is True
    assert doc2["results"][0]["verification"]["passed"] is True


def test_verify_garbage_fails_loudly(runner, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"schema": "defdatum/1"}))
    res = invoke(runner, "verify", str(path))
    assert res.exit_code != 0


# the datum of `search --p 5 --m 2 --points 4 --r 1`: z^2 = x(x - 2) over F_5
P5_DATUM = {
    "schema": "defdatum/1",
    "signature": {
        "m": 2,
        "p": 5,
        "points": [
            {"b0": 1, "nu": 0, "role": "B0"},
            {"b0": 0, "nu": 0, "role": "B0"},
            {"b0": 0, "nu": 0, "role": "B0"},
            {"b0": 1, "nu": 1, "role": "new"},
        ],
        "s": 1,
    },
    "field": {"modulus": [0, 1], "p": 5, "r": 1},
    "tau": [{"coeffs": [2], "modulus": [0, 1], "p": 5, "r": 1}],
    "epsilon": [{"coeffs": [1], "modulus": [0, 1], "p": 5, "r": 1}],
    "lambda": [{"coeffs": [1], "modulus": [0, 1], "p": 5, "r": 1}],
}
F25_X = {"coeffs": [0, 1], "modulus": [2, 0, 1], "p": 5, "r": 2}


def f5(c):
    return {"coeffs": [c], "modulus": [0, 1], "p": 5, "r": 1}


def p5_datum_with(**changes):
    return json.dumps({**P5_DATUM, **changes})


# the datum of `search --p 3 --m 2 --points 3 --r 1`: z^2 = x(x - 1) over F_3
P3_DATUM = json.loads((DATA / "search-p3-m2-points3-r1.json").read_text())["results"][0]["data"][0]
del P3_DATUM["verification"]  # the search's verdict, not part of the datum


def p3_datum_with_points(points):
    return json.dumps({**P3_DATUM, "signature": {**P3_DATUM["signature"], "points": points}})


def p3_points_with(j, **fields):
    """The P3 datum's points, point j's fields updated."""
    points = [dict(pt) for pt in P3_DATUM["signature"]["points"]]
    points[j].update(fields)
    return points


@pytest.mark.parametrize(
    "text",
    [
        p5_datum_with(tau=[f5(0)]),
        p5_datum_with(tau=[f5(1)]),
        p5_datum_with(tau=[f5(2), f5(3)]),
        p5_datum_with(epsilon=[]),
        p5_datum_with(epsilon=[f5(0)]),
        p5_datum_with(tau=[F25_X]),
        p5_datum_with(epsilon=[F25_X]),
        # a p = 7 signature over F_5 used to verify as passed
        p5_datum_with(signature={**P5_DATUM["signature"], "p": 7}),
        json.dumps({"schema": "defdatum/1"}),
        json.dumps({"schema": "other"}),
        json.dumps([{"schema": "defdatum/1", "signature": 3}]),
        json.dumps(7),
        # an empty list passed as a document that verified nothing
        "[]",
        "{not json",
        # m < 0 made ord_m(p) loop forever
        json.dumps(
            {"schema": "defdatum/1", "signature": {"p": 2, "m": -3, "s": 2, "points": []}}
        ),
        # inadmissible signatures and non-integers ended in tracebacks
        # (exit 1) or verified with the value truncated (exit 0)
        p3_datum_with_points([]),
        p3_datum_with_points(p3_points_with(0, role="base")),
        p3_datum_with_points(P3_DATUM["signature"]["points"][:2]),
        p3_datum_with_points(p3_points_with(0, b0=1.0)),
        p3_datum_with_points(p3_points_with(0, b0=2)),
        p3_datum_with_points(p3_points_with(2, nu=2)),
        p3_datum_with_points(p3_points_with(2, nu=True)),
        json.dumps({**P3_DATUM, "epsilon": [{**P3_DATUM["epsilon"][0], "coeffs": [1.5]}]}),
        json.dumps({**P3_DATUM, "field": {**P3_DATUM["field"], "r": 1.0}}),
        # tau follows the canonical slot order, so a reordered signature
        # failed verification (exit 1) instead of being refused
        p5_datum_with(
            signature={
                **P5_DATUM["signature"],
                "points": P5_DATUM["signature"]["points"][2::-1]
                + P5_DATUM["signature"]["points"][3:],
            }
        ),
        p3_datum_with_points(P3_DATUM["signature"]["points"][::-1]),
        # a directory ended in IsADirectoryError, a traceback with exit 1
        DIRECTORY,
    ],
)
def test_verify_malformed_document_is_a_usage_error(runner, tmp_path, text):
    path = tmp_path / "datum.json"
    write_input(path, text)
    res = invoke(runner, "verify", str(path))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    if text is DIRECTORY:
        assert "is a directory" in res.output
    else:
        assert "is not a datum document" in res.output


@pytest.mark.parametrize(
    "args",
    [
        "enumerate --p 3 --m 2 --points 4",
        "cohomology --p 3",
        "rigidity --p 5 --m 2 --points 4 --r 1",
        "verify DATUM",
    ],
)
def test_config_directory_is_a_usage_error(runner, tmp_path, args):
    # as for search (test_malformed_config_file_is_a_usage_error), every
    # command read --config DIR into a traceback (IsADirectoryError, exit 1)
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(P3_DATUM))
    args = [str(datum) if arg == "DATUM" else arg for arg in args.split()]
    res = invoke(runner, *args, "--config", str(tmp_path))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "--config" in res.output and "is a directory" in res.output


def _paths(node, path=()):
    """The path of every dict value and list entry below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


P3_LEAVES = [p for p in _paths(P3_DATUM) if not isinstance(_at(P3_DATUM, p), (dict, list))]
P3_KEYS = [p for p in _paths(P3_DATUM) if isinstance(_at(P3_DATUM, p[:-1]), dict)]
# small ints, so that a mutated p or r keeps field construction cheap
REPLACEMENTS = st.one_of(
    st.integers(-3, 12),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-3, 12), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 12), max_size=2),
)
DELETE = object()
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(P3_LEAVES), REPLACEMENTS),
    st.tuples(st.sampled_from(P3_KEYS), st.just(DELETE)),
)


@settings(max_examples=200, deadline=None)
@given(MUTATIONS)
def test_verify_of_a_mutated_golden_datum_exits_0_1_or_2(mutation):
    # one leaf of the golden datum replaced, or one key deleted: verify
    # passes, fails or refuses the document, and never raises
    path, value = mutation
    doc = json.loads(json.dumps(P3_DATUM))
    parent = _at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        datum = Path(tmp) / "datum.json"
        datum.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["verify", str(datum)])
    assert res.exit_code in (0, 1, 2)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


def test_well_formed_datum_that_fails_verification_exits_1(runner, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(p5_datum_with(tau=[f5(3)]))  # x(x - 3) is not special
    res = invoke(runner, "verify", str(path))
    assert res.exit_code == 1
    assert json.loads(res.output)["passed"] is False
    path.write_text(json.dumps(P5_DATUM))
    assert invoke(runner, "verify", str(path)).exit_code == 0


def test_verify_document_matches_golden(runner, tmp_path, monkeypatch):
    # Written by `defdatum verify data.json` at commit a9dc6ab, before the
    # Cartier checks read one constant per level.  Its data: (3,4,4,3) and
    # (2,7,3,2) data, whose phi rows live in F_{3^6} and F_{2^6}; the
    # (3,8,4,2), (7,4,4,2) and (2,5,3,2) data (s = 2, 2 and 4); and three
    # altered data, which fail: lambda scaled by 2 (epsilon_relations only),
    # eps_0 alone scaled by 2 (cartier_fixed and phi_fixed too), and a
    # moved tau (cartier_fixed and phi_fixed).  Exit 1.  "versions" holds
    # the Python version, so it is taken from this run.
    expected = json.loads((DATA / "verify-extension-fields.json").read_text())
    data = [entry["datum"] for entry in expected["results"]]
    (tmp_path / "data.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    res = invoke(runner, "verify", "data.json")
    assert res.exit_code == 1
    expected["versions"] = json.loads(res.output)["versions"]
    assert res.output == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_cohomology_document_shape(runner):
    res = invoke(runner, "cohomology", "--p", "2", "--seed", "0")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["passed"] is True
    assert doc["cech"]["-1"] == [0, 0]
    assert doc["cech"]["2"] == [3, 0]
    assert all(doc["checks"].values())


@pytest.mark.parametrize("p", ["5", "7"])
def test_cohomology_beyond_the_dense_block_limit_runs(runner, p):
    # --p 5 was refused (its dense block was 390625 x 15625), then took 10 s
    # in a homotopy check over every basis key; with one key per equality
    # pattern the command takes 0.05-0.11 s at p = 5 and 0.35-0.62 s at
    # p = 7 (Python 3.11, 2 cores)
    res = invoke(runner, "cohomology", "--p", p, "--seed", "0")
    assert res.exit_code == 0
    assert "Traceback" not in res.output
    doc = json.loads(res.output)
    assert doc["passed"] is True
    assert doc["group_vanishing"] == {"coinduced_s1": [1, 0, 0], "coinduced_s2": [1, 0, 0]}
    assert all(doc["checks"].values())


@pytest.mark.parametrize("budget", ["0", "1"])
def test_cohomology_budget_too_small_is_a_usage_error(runner, budget):
    res = invoke(runner, "cohomology", "--p", "3", "--budget", budget)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert f"--budget {budget}" in res.output


@pytest.mark.parametrize(
    "golden,args",
    [
        pytest.param("cohomology-p3-seed0", "cohomology --p 3 --seed 0", id="3-0"),
        pytest.param("cohomology-p2-seed7", "cohomology --p 2 --seed 7", id="2-7"),
        pytest.param(
            "search-p3-m2-points3-r1", "search --p 3 --m 2 --points 3 --r 1", id="search"
        ),
        pytest.param(
            "search-p5-m2-points4-r2",
            "search --p 5 --m 2 --points 4 --r 2",
            id="search-one-new-point",
        ),
        pytest.param(
            "search-p7-m2-points5-r1",
            "search --p 7 --m 2 --points 5 --r 1",
            id="search-two-new-points",
        ),
        pytest.param(
            "search-p7-m3-points4-r2",
            "search --p 7 --m 3 --points 4 --r 2",
            id="search-frobenius-orbit",
        ),
        pytest.param(
            "search-p13-m3-points4-r1",
            "search --p 13 --m 3 --points 4 --r 1",
            id="search-p13",
        ),
        pytest.param(
            "search-p11-m2-points5-r2",
            "search --p 11 --m 2 --points 5 --r 2",
            id="search-f121-two-new-points",
        ),
        pytest.param(
            "rigidity-p5-m2-points4-r1", "rigidity --p 5 --m 2 --points 4 --r 1", id="rigidity"
        ),
        pytest.param(
            "rigidity-p3-m4-points4-r2",
            "rigidity --p 3 --m 4 --points 4 --r 2",
            id="rigidity-two-level",
        ),
        pytest.param(
            "rigidity-p5-m2-points4-r2",
            "rigidity --p 5 --m 2 --points 4 --r 2",
            id="rigidity-f25",
        ),
        pytest.param(
            "rigidity-p7-m2-points5-r1",
            "rigidity --p 7 --m 2 --points 5 --r 1",
            id="rigidity-two-new-points",
        ),
        pytest.param(
            "rigidity-p5-m2-points4-r3",
            "rigidity --p 5 --m 2 --points 4 --r 3",
            id="rigidity-f125",
        ),
        pytest.param(
            "rigidity-p5-m4-points4-r1",
            "rigidity --p 5 --m 4 --points 4 --r 1",
            id="rigidity-branch-constant-in-an-extension",
        ),
        pytest.param(
            "enumerate-p2-m11-points5",
            "enumerate --p 2 --m 11 --points 5",
            id="enumerate-s10",
        ),
        pytest.param(
            "enumerate-p5-m12-points5",
            "enumerate --p 5 --m 12 --points 5",
            id="enumerate-m12",
        ),
    ],
)
def test_cohomology_document_matches_golden(runner, golden, args):
    # the cohomology documents were written by the dense-matrix cohomology,
    # the three-point search and rigidity documents by the expansions with
    # heuristic windows and retries, the two-level rigidity document by
    # expansions over a dual-number series type, the search documents with
    # new points by the candidate check on normalized rational functions
    # with g^(p-1) by repeated squaring, the F_25 rigidity document by
    # the lift over normalized rational functions with residues from
    # Laurent expansions, the two-new-point rigidity document by one lift
    # per direction c e_k, the enumerate documents by canonicalizing and
    # validating every candidate of the level-0 construction, the F_49
    # search document (a Frobenius orbit of two data) by the candidate
    # check on every tuple rather than one per orbit, the p = 13 search
    # document by the candidate check with g^(p-1) as the exact quotient
    # g^p // g rather than by the p-th-power split, the F_121 search
    # document (two new points, levels whose cofactor S has degree 2) by
    # the level test C(u) Q = kappa g with C(u) = H C(R) and g formed in
    # full, and its orders by ord_at_critical, the F_125 rigidity document
    # and the m = 4 one (branch constants in an extension of F_5) by
    # normalized rational functions with one gcd per form, a lift over
    # U_i = N_i D_i^(p-1) and the branch root taken afresh per expansion;
    # "versions" holds the Python version, so it is taken from this run
    golden = DATA / f"{golden}.json"
    res = invoke(runner, *args.split())
    assert res.exit_code == 0
    expected = json.loads(golden.read_text())
    expected["versions"] = json.loads(res.output)["versions"]
    assert res.output == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_rigidity_subcommand(runner):
    res = invoke(
        runner, "rigidity", "--p", "5", "--m", "2", "--points", "4", "--r", "1"
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["passed"] is True
    assert len(doc["results"]) == 1
    assert doc["results"][0]["rigid"] is True


_WITHOUT_NUMPY = """
import importlib, json, pkgutil, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import defdatum
for info in pkgutil.iter_modules(defdatum.__path__):
    importlib.import_module("defdatum." + info.name)
from click.testing import CliRunner
from defdatum.cli import main

out = sys.argv[1]
codes = {}
def run(name, *args):
    res = CliRunner().invoke(main, [*args, "--out", f"{out}/{name}.json"])
    codes[name] = [res.exit_code, repr(res.exception)]
run("enumerate", "enumerate", "--p", "3", "--m", "2", "--points", "4")
run("search", "search", "--p", "3", "--m", "2", "--points", "3", "--r", "1")
datum = json.load(open(f"{out}/search.json"))["results"][0]["data"][0]
json.dump(datum, open(f"{out}/datum.json", "w"))
run("verify", "verify", f"{out}/datum.json")
run("cohomology", "cohomology", "--p", "3")
run("rigidity", "rigidity", "--p", "5", "--m", "2", "--points", "4", "--r", "1")
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "numpy" and mod)
print(json.dumps({"codes": codes, "numpy": loaded}))
"""


def test_the_package_runs_without_numpy(tmp_path):
    # every module imports and every README command exits 0 in a process
    # where importing numpy fails
    src = str(Path(defdatum.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["numpy"] == []
    assert report["codes"] == {
        name: [0, "None"] for name in ("enumerate", "search", "verify", "cohomology", "rigidity")
    }
