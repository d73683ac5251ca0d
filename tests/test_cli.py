import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import weylspin
from weylspin import killing, spinconn
from weylspin.cli import build_parser, main, parse_geometry_file
from weylspin.errors import ParseError
from weylspin.geometry import gauge_rescale, milnor_constants
from weylspin.killing import gt_residual_vector, milnor_theta3_family

from test_killing import BERGER_PATH, rotated_geometry, rotation, semidirect_constants

ROUND_TEXT = '{"milnor_lambda": [2.0, 2.0, 2.0], "beta": 0.5}\n'
PERTURBED_TEXT = '{"milnor_lambda": [2.0, 2.0, 2.0], "theta": [0.0, 0.0, 0.3], "beta": 0.5}\n'


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# parsing ---------------------------------------------------------------------


def test_parse_round_file(tmp_path):
    g, beta = parse_geometry_file(write(tmp_path, "round.json", ROUND_TEXT))
    assert np.max(np.abs(g.theta)) == 0.0
    assert beta.value == 0.5 and beta.weight == -1.0
    assert g.structure_constants[0, 1, 2] == 2.0


def test_parse_defaults(tmp_path):
    g, beta = parse_geometry_file(write(tmp_path, "flat.json", '{"milnor_lambda":[0,0,0]}'))
    assert np.max(np.abs(g.structure_constants)) == 0.0
    assert beta.value == 0.0 and beta.weight == -1.0


def test_parse_structure_constants(tmp_path):
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.5, -1.5
    text = json.dumps({"structure_constants": c.tolist()})
    g, _ = parse_geometry_file(write(tmp_path, "sc.json", text))
    assert g.structure_constants[0, 1, 2] == 1.5


def test_parse_unknown_key_position(tmp_path):
    text = '{\n  "milnor_lambda": [2, 2, 2],\n  "bogus": 1\n}\n'
    with pytest.raises(ParseError) as info:
        parse_geometry_file(write(tmp_path, "bad.json", text))
    assert info.value.line == 3
    assert info.value.col == 3
    assert "bogus" in str(info.value)


def test_parse_shape_error(tmp_path):
    with pytest.raises(ParseError):
        parse_geometry_file(write(tmp_path, "short.json", '{"milnor_lambda":[2,2]}'))


def test_parse_requires_exactly_one_source(tmp_path):
    with pytest.raises(ParseError):
        parse_geometry_file(write(tmp_path, "none.json", '{"theta":[0,0,0]}'))
    both = '{"milnor_lambda":[1,1,1],"structure_constants":[]}'
    with pytest.raises(ParseError):
        parse_geometry_file(write(tmp_path, "both.json", both))


def test_parse_malformed_json_location(tmp_path):
    with pytest.raises(ParseError) as info:
        parse_geometry_file(write(tmp_path, "broken.json", '{"milnor_lambda": [2,\n'))
    assert info.value.line == 2


def test_parse_jacobi_passthrough(tmp_path):
    # validate_geometry's JacobiViolation comes back as a ParseError at the key
    c = np.zeros((3, 3, 3))
    c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    c[2, 0, 2], c[0, 2, 2] = 1.0, -1.0
    text = '{"beta": 0.5,\n "structure_constants": ' + json.dumps(c.tolist()) + "}"
    with pytest.raises(ParseError, match="Jacobi") as info:
        parse_geometry_file(write(tmp_path, "jac.json", text))
    assert (info.value.line, info.value.col) == (2, 2)


def test_parse_antisymmetry_error_position(tmp_path, capsys):
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 2.0  # c[1, 0, 2] left 0
    text = '{\n  "structure_constants": ' + json.dumps(c.tolist()) + "\n}\n"
    path = write(tmp_path, "skew.json", text)
    for argv in (["analyze", path], ["killing", path]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert f"{path}:2:3: structure constants not antisymmetric" in err


def test_parse_rejects_duplicate_keys_at_the_repeat(tmp_path):
    # the later value is valid, so without the check the file reads silently
    text = '{\n  "milnor_lambda": [1, 1],\n  "beta": 0.5,\n  "milnor_lambda": [2, 2, 2]\n}\n'
    with pytest.raises(ParseError, match='duplicate key "milnor_lambda"') as info:
        parse_geometry_file(write(tmp_path, "dup.json", text))
    assert (info.value.line, info.value.col) == (4, 3)


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_geometry_file("/nonexistent/geometry.json")


def test_parse_rejects_boolean_beta(tmp_path):
    with pytest.raises(ParseError):
        parse_geometry_file(
            write(tmp_path, "b.json", '{"milnor_lambda":[1,1,1],"beta":true}')
        )


BIG = "1" + "0" * 400  # a JSON integer of 401 digits, beyond the float range
UNIT_C = json.dumps(milnor_constants((1.0, 1.0, 1.0)).tolist())  # first "1.0" is c[0][1][2]


@pytest.mark.parametrize(
    "key, value",
    [
        ("structure_constants", UNIT_C.replace("1.0", '"1"', 1)),
        ("structure_constants", UNIT_C.replace("1.0", "true", 1)),
        ("milnor_lambda", f"[1, 1, {BIG}]"),
        ("beta", BIG),
        ("theta", "[0, 0, NaN]"),
        ("beta", "1e400"),
        ("beta_weight", "3"),
    ],
    ids=["sc-string", "sc-bool", "lambda-big-int", "beta-big-int", "theta-nan", "beta-1e400", "weight-3"],
)
def test_malformed_values_exit_2_at_their_key(tmp_path, capsys, key, value):
    # json.loads accepts each of these values; the file schema must not
    entries = {"milnor_lambda": "[1, 1, 1]", "beta": "0.25"}
    if key == "structure_constants":
        del entries["milnor_lambda"]
    entries[key] = value
    text = "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in entries.items()) + "\n}\n"
    path = write(tmp_path, "bad.json", text)
    line = 2 + list(entries).index(key)
    for argv in (["analyze", path], ["killing", path, "--loops", "2"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"{path}:{line}:3: " in err


# commands ---------------------------------------------------------------------


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_algebra_command(capsys):
    code, out, err = run_cli(capsys, ["verify-algebra", "--trials", "40", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert list(report.keys()) == ["tool_version", "seed", "sections", "verdict", "wall_time_ms"]
    assert report["verdict"] == "pass"
    assert report["seed"] == 0
    names = [s["name"] for s in report["sections"]]
    assert "kn_contraction" in names and "first_identity_break_control" in names
    for s in report["sections"]:
        assert s["pass"] is True
    assert "verify-algebra" in err


def test_verify_algebra_deterministic_output(capsys):
    argv = ["verify-algebra", "--trials", "40", "--seed", "5"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    strip = lambda s: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', s)
    assert strip(out1) == strip(out2)


def test_killing_deterministic_output(capsys):
    argv = ["killing", BERGER_PATH, "--loops", "40", "--seed", "5"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    strip = lambda s: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', s)
    assert strip(out1) == strip(out2)


def test_float_rendering_roundtrips(capsys):
    _, out, _ = run_cli(capsys, ["verify-algebra", "--trials", "25"])
    report = json.loads(out)
    tol = next(s for s in report["sections"] if s["name"] == "kn_contraction")["tolerance"]
    assert tol == 1e-12  # the shortest round-trip repr preserves the exact double
    assert '"tolerance": 1e-12,' in out


def test_analyze_pass_and_fail(tmp_path, capsys):
    round_path = write(tmp_path, "round.json", ROUND_TEXT)
    code, out, _ = run_cli(capsys, ["analyze", round_path])
    assert code == 0
    report = json.loads(out)
    assert report["seed"] is None
    values = {s["name"]: s["value"] for s in report["sections"]}
    assert set(values) == {"r_ew", "r_scal", "r_star", "flatness"}
    assert max(values.values()) < 1e-12

    pert_path = write(tmp_path, "pert.json", PERTURBED_TEXT)
    code, out, _ = run_cli(capsys, ["analyze", pert_path])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert max(s["value"] for s in report["sections"]) > 1e-3


def test_analyze_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in err
    bad = write(tmp_path, "bad.json", '{"milnor_lambda":[2,2,2],"x":0}')
    code, _, err = run_cli(capsys, ["analyze", bad])
    assert code == 2
    assert "unknown key" in err


def test_killing_command(tmp_path, capsys):
    path = write(tmp_path, "round.json", ROUND_TEXT)
    code, out, _ = run_cli(capsys, ["killing", path, "--loops", "20"])
    assert code == 0
    report = json.loads(out)
    names = [s["name"] for s in report["sections"]]
    assert names == [
        "flatness",
        "max_holonomy_deviation",
        "min_singular_value",
        "path_independence",
        "killing_residual",
    ]
    assert report["verdict"] == "pass"


def test_killing_sends_each_sample_arc_through_transport_operator(tmp_path, capsys, monkeypatch):
    # bench/run.py spot-checks the first 6 arcs that `killing --loops 2` sends
    # through killing.transport_operator against RK4; the sample sections must
    # keep transporting arc by arc through it, or that check sees nothing
    arcs = []
    original = killing.transport_operator
    spy = lambda g, beta, arc: arcs.append(arc) or original(g, beta, arc)
    monkeypatch.setattr(killing, "transport_operator", spy)
    path = write(tmp_path, "round.json", ROUND_TEXT)
    code, _, _ = run_cli(capsys, ["killing", path, "--loops", "2"])
    assert code == 0
    assert len(arcs) >= 6


def test_one_spin_connection_per_geometry_and_command(tmp_path, capsys, monkeypatch):
    built = []
    original = spinconn.spin_connection
    spy = lambda g, weight=0.0: built.append(g) or original(g, weight)
    monkeypatch.setattr(spinconn, "spin_connection", spy)
    path = write(tmp_path, "round.json", ROUND_TEXT)
    for argv in (["analyze", path], ["killing", path, "--loops", "5"]):
        built.clear()
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(built) == 1


def test_killing_command_passes_at_large_scale(tmp_path, capsys):
    # a certified round member at lambda = 200: the pointwise check is
    # scale-free, so its 1e3 h^2 bound holds as it does at lambda = 2
    path = write(tmp_path, "big.json", '{"milnor_lambda": [200, 200, 200], "beta": 50}')
    code, out, _ = run_cli(capsys, ["killing", path, "--loops", "5"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def geometry_text(g, beta):
    return json.dumps(
        {
            "structure_constants": g.structure_constants.tolist(),
            "theta": g.theta.tolist(),
            "beta": beta.value,
        }
    )


def test_killing_command_in_a_rotated_frame(tmp_path, capsys):
    # the Berger sphere rotated about (1, 2, 3): no longer a diagonal frame
    g, beta = parse_geometry_file(BERGER_PATH)
    g = rotated_geometry(g, rotation((1.0, 2.0, 3.0), 0.55))
    path = write(tmp_path, "rotated.json", geometry_text(g, beta))
    code, out, _ = run_cli(capsys, ["killing", path, "--loops", "10"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("s", [-7.0, -9.0, -12.0])
def test_commands_pass_on_a_rescaled_rotated_file(tmp_path, capsys, s):
    # rotating the Berger sphere at scale e^-s leaves rounding in the constants:
    # at s = -7 a Jacobi defect of 2.5e-10, at s = -9 a skew of 1.8e-12, both
    # far below validate_geometry's bounds relative to max|c|; at s = -12
    # (max|c| 3.3e5) loops of a fixed length 0.4-1.2 read a holonomy of
    # 1.0e-9, which loop lengths in units of 1 / scale avoid
    g, beta = gauge_rescale(*parse_geometry_file(BERGER_PATH), s)
    g = rotated_geometry(g, rotation((1.0, 2.0, 3.0), 0.55))
    path = write(tmp_path, "rotated.json", geometry_text(g, beta))
    for argv in (["analyze", path], ["killing", path, "--loops", "50"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"


def test_commands_pass_on_a_gauge_rescaled_file(tmp_path, capsys):
    # s = -5 puts the Berger sphere at scale 297, where the raw Killing
    # curvature residual exceeds 1e-10; the flatness gate is relative to scale^2
    g, beta = gauge_rescale(*parse_geometry_file(BERGER_PATH), -5.0)
    path = write(tmp_path, "rescaled.json", geometry_text(g, beta))
    for argv in (["analyze", path], ["killing", path, "--loops", "10"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"


GEOMETRY_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "geometries")


def agreement_cases():
    """Shipped files (as paths) and the non-compact examples (as file data), each with its verdict."""
    shipped = sorted(f for f in os.listdir(GEOMETRY_DIR) if f.endswith(".json"))
    cases = [pytest.param(os.path.join(GEOMETRY_DIR, f), f != "perturbed.json", id=f) for f in shipped]
    for lam, name in (([2.0, 0.0, 2.0], "e2-202"), ([2.0, 2.0, 0.0], "e2-220")):  # flat E(2) frames
        cases.append(pytest.param({"milnor_lambda": lam}, True, id=name))
    # non-unimodular: Bianchi V ([e1, e2] = e2, [e1, e3] = e3) and VII_h
    for M, name in ((np.eye(2), "bianchi-v"), ([[1.0, 1.0], [-1.0, 1.0]], "bianchi-vii")):
        for theta1, certified in ((1.0, True), (0.0, False)):
            data = {"structure_constants": semidirect_constants(M).tolist(), "theta": [theta1, 0.0, 0.0]}
            cases.append(pytest.param(data, certified, id=f"{name}-theta{theta1:g}"))
    return cases


@pytest.mark.parametrize("source, certified", agreement_cases())
def test_killing_verdict_equals_analyze_verdict(tmp_path, capsys, source, certified):
    # the flatness-GT equivalence: killing certifies exactly what analyze
    # does, on any Lie algebra, and never refuses a valid file
    path = source if isinstance(source, str) else write(tmp_path, "g.json", json.dumps(source))
    verdicts = []
    for argv in (["analyze", path], ["killing", path, "--loops", "50"]):
        code, out, err = run_cli(capsys, argv)
        assert code == (0 if certified else 1), err
        verdicts.append(json.loads(out)["verdict"])
    assert verdicts == ["pass" if certified else "fail"] * 2


def test_killing_command_not_flat(tmp_path, capsys):
    path = write(tmp_path, "pert.json", PERTURBED_TEXT)
    code, out, _ = run_cli(capsys, ["killing", path])
    assert code == 1
    report = json.loads(out)
    assert report["sections"][0]["name"] == "flatness"
    assert report["sections"][0]["pass"] is False


def test_search_gt_command(capsys):
    code, out, err = run_cli(
        capsys, ["search-gt", "--x0", "2.2,1.9,2.1,0.05,0.4", "--pin", "lambda1=2"]
    )
    assert code == 0
    report = json.loads(out)
    values = {s["name"]: s["value"] for s in report["sections"]}
    assert values["final_residual"] < 1e-10
    assert values["iterations"] <= 50
    assert "parameters:" in err


def test_search_gt_iteration_cap(capsys):
    code, out, _ = run_cli(
        capsys,
        ["search-gt", "--x0", "2.2,1.9,2.1,0.05,0.4", "--pin", "lambda1=2", "--max-iter", "1"],
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"


def test_search_gt_final_residual_is_the_formula_at_the_root(capsys):
    code, out, err = run_cli(capsys, ["search-gt", "--pin", "lambda1=2", "--x0", "2,2,1.8,0.3,0.4"])
    assert code == 0
    line = next(l for l in err.splitlines() if l.startswith("[search-gt] parameters:"))
    params = [float(v) for v in line.partition(":")[2].split(",")]
    final = json.loads(out)["sections"][0]
    assert final["name"] == "final_residual"
    assert final["value"] == float(np.max(np.abs(gt_residual_vector(*milnor_theta3_family(params)))))


def test_successive_calls_share_no_parser_state(capsys):
    argv = ["search-gt", "--x0", "2.2,1.9,2.1,0.05,0.4", "--pin", "lambda1=2"]
    _, out, _ = run_cli(capsys, argv + ["--max-iter", "1", "--tol", "1e-3"])
    report = json.loads(out)
    assert report["seed"] is None
    assert report["sections"][1] == {
        "name": "iterations", "value": 1.0, "bound": 1.5, "direction": "below", "pass": True
    }
    _, out, _ = run_cli(capsys, ["verify-algebra", "--trials", "2", "--seed", "7"])
    assert json.loads(out)["seed"] == 7
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["seed"] is None
    assert report["sections"][0]["bound"] == 1e-10
    assert report["sections"][1]["bound"] == 50.5
    assert build_parser() is build_parser()


def test_search_gt_usage_errors(capsys):
    code, _, _ = run_cli(capsys, ["search-gt", "--x0", "1,2,3"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["search-gt", "--x0", "1,2,3,0,0.5", "--pin", "nope=1"])
    assert code == 2


def test_search_gt_overflow_fails_with_a_report(capsys):
    code, out, err = run_cli(capsys, ["search-gt", "--x0", "1e200,2,2,0,0.5"])
    assert code == 1
    final = json.loads(out)["sections"][0]
    assert final["name"] == "final_residual" and final["pass"] is False
    assert "no convergence" in err


X0 = ["--x0", "2.2,1.9,2.1,0.05,0.4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["killing", "GEOMETRY", "--loops", "0"],
        ["killing", "GEOMETRY", "--loops", "-3"],
        ["verify-algebra", "--trials", "0"],
        ["verify-algebra", "--trials", "-5"],
        ["verify-algebra", "--seed", "-1"],
        ["killing", "GEOMETRY", "--seed", "-1"],
        ["analyze", "GEOMETRY", "--tol", "nan"],
        ["analyze", "GEOMETRY", "--tol", "0"],
        ["verify-algebra", "--tol", "inf"],
        ["search-gt", *X0, "--tol", "-0.5"],
        ["search-gt", *X0, "--max-iter", "-1"],
        ["search-gt", "--x0", "1,2,x,0,0.5"],
        ["search-gt", "--x0", "inf,2,2,0,0.5", "--pin", "lambda2"],
        ["search-gt", *X0, "--pin", "lambda1=two"],
        ["analyze", "GEOMETRY", "--seed", "0"],  # analyze and search-gt draw nothing
        ["search-gt", *X0, "--seed", "0"],
    ],
)
def test_arguments_that_cannot_earn_a_pass_exit_2(tmp_path, capsys, argv):
    path = write(tmp_path, "round.json", ROUND_TEXT)
    code, out, err = run_cli(capsys, [path if a == "GEOMETRY" else a for a in argv])
    assert code == 2
    assert "error" in err
    assert out == ""


def test_cli_import_does_not_load_scipy():
    code = "import sys, weylspin.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, ["frobnicate"])[0] == 2


def test_distribution_name_and_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "weylspin"
    assert project["version"] == weylspin.__version__


def readme_commands():
    """Arguments of every `weylspin ...` line in README's sh blocks, comments stripped."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [shlex.split(line, comments=True) for b in blocks for line in b.splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["weylspin"]]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"verify-algebra", "analyze", "killing", "search-gt"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: weylspin {shlex.join(argv)}")


def test_pin_aliases(capsys):
    code, out, _ = run_cli(
        capsys, ["search-gt", "--x0", "2.2,1.9,2.1,0.05,0.4", "--pin", "l1=2"]
    )
    assert code == 0
