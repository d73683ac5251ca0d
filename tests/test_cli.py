import ast
import importlib
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import weylspin
from weylspin import cli, geometry, killing, spinconn
from weylspin.cli import build_parser, main, parse_geometry_file
from weylspin.errors import NoConvergence, ParseError
from weylspin.geometry import (
    WeightedDensity,
    analyze,
    gauge_rescale,
    milnor_geometry,
)
from weylspin.killing import milnor_theta3_family
from weylspin.spinconn import flatness

from test_killing import BERGER_PATH, milnor_constants, rotated_geometry, rotation, semidirect_constants

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


def test_short_sweeps_pass_the_break_control(capsys):
    # the break control is taken over at least CHUNK draws: over one draw it
    # read 0.080, 0.098, 0.090 and 0.035 at seeds 0, 5, 7 and 99, under its 0.1
    for seed in (0, 5, 7, 99, 123):
        for trials in (1, 2, 5):
            code, out, _ = run_cli(capsys, ["verify-algebra", "--trials", str(trials), "--seed", str(seed)])
            control = json.loads(out)["sections"][-1]
            assert control["name"] == "first_identity_break_control"
            assert (code, control["pass"]) == (0, True), (seed, trials, control["value"])


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


def test_analyze_fails_a_residual_on_the_tolerance(tmp_path, capsys):
    # --tol equal to the largest Gauduchon-Tod residual fails that section and
    # exits 1; the next float up passes all four (flatness is below it)
    path = write(tmp_path, "pert.json", PERTURBED_TEXT)
    _, out, _ = run_cli(capsys, ["analyze", path])
    values = {s["name"]: s["value"] for s in json.loads(out)["sections"]}
    worst = max(values["r_ew"], values["r_scal"], values["r_star"])
    assert values["flatness"] < worst
    code, out, _ = run_cli(capsys, ["analyze", path, "--tol", repr(worst)])
    assert code == 1
    failed = [(s["name"], s["value"], s["bound"]) for s in json.loads(out)["sections"] if not s["pass"]]
    assert [(value, bound) for _, value, bound in failed] == [(worst, worst)]
    code, _, _ = run_cli(capsys, ["analyze", path, "--tol", repr(math.nextafter(worst, math.inf))])
    assert code == 0


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
        "r_ew",
        "r_scal",
        "r_star",
        "flatness",
        "max_holonomy_deviation",
        "min_singular_value",
        "path_independence",
        "killing_residual",
    ]
    assert report["verdict"] == "pass"


def test_killing_sends_each_sample_arc_through_transport_operator(tmp_path, capsys, monkeypatch):
    # bench/run.py spot-checks the first 6 arcs that `killing --loops 2` sends
    # through killing.transport_operator against RK4. The 20 sample paths (the
    # first one and two arcs of the first ten loops) each go through it once,
    # arc by arc, and nothing else does, so --loops 2 sends 6 arcs and the
    # default --loops 50 sends 30. Each must match RK4 at the default step
    # count and at the benchmark's, 256 max(1, ceil(length scale))
    calls = []
    original = killing.transport_operator

    def spy(g, beta, arc):
        U = original(g, beta, arc)
        calls.append((g, beta, arc, U))
        return U

    monkeypatch.setattr(killing, "transport_operator", spy)
    path = write(tmp_path, "round.json", ROUND_TEXT)
    counts = []
    for loops in (["--loops", "2"], []):
        before = len(calls)
        code, _, _ = run_cli(capsys, ["killing", path, *loops])
        assert code == 0
        counts.append(len(calls) - before)
    assert counts == [6, 30]
    for g, beta, arc, U in calls:
        bench_steps = 256 * max(1, math.ceil(arc.length * geometry.residual_scale(g, beta)))
        for steps in (256, bench_steps):
            rk4 = [killing.rk4_transport(g, beta, arc, e, steps) for e in np.eye(2, dtype=complex)]
            assert np.max(np.abs(U - np.stack(rk4, axis=1))) < 1e-8


def test_one_spin_connection_per_geometry_and_command(tmp_path, capsys, monkeypatch):
    # analyze and flatness read the closed form F of the Killing curvature,
    # and killing that of b: none builds a spin connection
    built = []
    original = spinconn.spin_connection
    spy = lambda g: built.append(g) or original(g)
    monkeypatch.setattr(spinconn, "spin_connection", spy)
    path = write(tmp_path, "round.json", ROUND_TEXT)
    for argv, builds in ((["analyze", path], 0), (["killing", path, "--loops", "5"], 0)):
        built.clear()
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(built) == builds


def test_one_weyl_connection_and_scale_per_geometry_and_command(tmp_path, capsys, monkeypatch):
    # analyze, flatness and the transports read closed forms, so none needs
    # Gamma; several places need the scale, which is computed once per
    # geometry and read from its memo after that
    built = []
    original = geometry.weyl_connection
    spy = lambda g: built.append(g) or original(g)
    monkeypatch.setattr(geometry, "weyl_connection", spy)
    path = write(tmp_path, "round.json", ROUND_TEXT)
    for argv, builds in ((["analyze", path], 0), (["killing", path, "--loops", "5"], 0)):
        built.clear()
        geometry.residual_scale.cache_clear()
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(built) == builds
        scale_reads = geometry.residual_scale.cache_info()
        assert scale_reads.misses == 1 and scale_reads.hits >= 1


def test_memoized_connection_and_scale_keep_their_bits():
    # the Killing connection that killing reads is killing_data's b: the
    # closed form on the prescaled coordinates, scaled back, bit for bit
    g, beta = parse_geometry_file(BERGER_PATH)
    b = killing.killing_data(g, beta).b
    x, e, _ = geometry.prescaled(g, beta)
    assert x == np.ldexp(geometry.form_coordinates(g, beta), -e).tolist()
    want = np.ldexp(geometry.killing_coefficients(x), e)
    assert b.tobytes() == want.tobytes()
    assert not b.flags.writeable
    with pytest.raises(ValueError):
        b[0, 0] = 1.0
    want = max(np.max(np.abs(g.structure_constants)), np.max(np.abs(g.theta)), abs(beta.value))
    assert geometry.residual_scale(g, beta) == want


def test_one_loop_batch_per_certified_killing_call(tmp_path, capsys, monkeypatch):
    # the loops close through one closing_arc call, and both halves of every
    # loop are transported by one transport_loops call
    calls = []
    for name in ("closing_arc", "transport_loops"):
        original = getattr(killing, name)
        spy = lambda *args, name=name, original=original: calls.append(name) or original(*args)
        monkeypatch.setattr(killing, name, spy)
    path = write(tmp_path, "round.json", ROUND_TEXT)
    for loops in ("1", "20"):
        calls.clear()
        code, out, _ = run_cli(capsys, ["killing", path, "--loops", loops])
        assert code == 0 and json.loads(out)["verdict"] == "pass"
        assert sorted(calls) == ["closing_arc", "transport_loops"]


def test_killing_command_passes_at_large_scale(tmp_path, capsys):
    # a certified round member at lambda = 200: the pointwise check is
    # scale-free, so its 1e3 h^2 bound holds as it does at lambda = 2
    path = write(tmp_path, "big.json", '{"milnor_lambda": [200, 200, 200], "beta": 50}')
    code, out, _ = run_cli(capsys, ["killing", path, "--loops", "5"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("lam", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300, 1e304, 1e306, 1.7e308])
def test_commands_give_scale_free_verdicts_at_extreme_scales(tmp_path, capsys, lam):
    # the round member at lambda, as Milnor parameters or as structure
    # constants, passes both commands, and with beta 2 % off fails them with
    # r_scal = |1.5 - 24 (1.02 / 4)^2| = 0.0606 at every scale; structure
    # constants that break the Jacobi identity exit 2 at every scale. The
    # squares of these coefficients under- or overflow, the prescaled ones
    # do not; near the float maximum neither 2 max|c| nor the step 2h / scale
    # of killing_residual's difference may be formed
    commands = (["analyze"], ["killing", "--loops", "5"])
    sources = ({"milnor_lambda": [lam] * 3}, {"structure_constants": milnor_constants([lam] * 3).tolist()})
    for factor, code in ((1.0, 0), (1.02, 1)):
        for source in sources:
            path = write(tmp_path, "round.json", json.dumps({**source, "beta": factor * lam / 4.0}))
            for command, *options in commands:
                got, out, err = run_cli(capsys, [command, path, *options])
                assert got == code, err
                sections = {s["name"]: s["value"] for s in json.loads(out)["sections"]}
                if factor == 1.0:
                    # rounding only, which depends on lam's mantissa, not its
                    # exponent: 1.7e308 reads 1.87e-16, and over 2000 mantissas in
                    # [1/2, 1) the worst reads 3.6e-16
                    bound = 2.0 * np.finfo(float).eps if lam == 1.7e308 else 1.5e-16
                    assert max(sections[n] for n in ("r_ew", "r_scal", "r_star", "flatness")) <= bound
                else:
                    assert abs(sections["r_scal"] - 0.0606) < 1e-12
    # the certified sample files, in their frames and rotated, at max coefficient lam:
    # no partial sum of the connection may outgrow the coefficients, where
    # bianchi_v_flat's c - c_jki + c_kij reads 2 lam
    for name in ("round_s3", "berger_theta", "bianchi_v_flat"):
        g, beta = parse_geometry_file(os.path.join(os.path.dirname(BERGER_PATH), name + ".json"))
        for frame in (g, rotated_geometry(g, rotation((1.0, 2.0, 3.0), 0.55))):
            s = geometry.residual_scale(frame, beta)
            scaled = geometry.validate_geometry(frame.structure_constants / s * lam, frame.theta / s * lam)
            path = write(tmp_path, "sample.json", geometry_text(scaled, WeightedDensity(beta.value / s * lam)))
            for command, *options in commands:
                got, out, err = run_cli(capsys, [command, path, *options])
                assert got == 0, (name, command, out, err)
    a = np.random.default_rng(0).standard_normal((3, 3, 3))
    a -= np.swapaxes(a, 0, 1)
    bad = lam * (a / np.max(np.abs(a)))  # max|c| = lam, finite up to the float maximum
    path = write(tmp_path, "bad.json", json.dumps({"structure_constants": bad.tolist()}))
    for command, *options in commands:
        got, out, err = run_cli(capsys, [command, path, *options])
        assert (got, out) == (2, "") and "Jacobi" in err


SMALLEST_NORMAL = "2.2250738585072014e-308"


def rotated_bianchi_v_files(tmp_path, scale, count):
    """bianchi_v_flat.json in `count` random rotated frames, at max coefficient `scale`."""
    g, beta = parse_geometry_file(os.path.join(os.path.dirname(BERGER_PATH), "bianchi_v_flat.json"))
    rng = np.random.default_rng(36)
    for k in range(count):
        frame = rotated_geometry(g, rotation(rng.standard_normal(3), rng.uniform(0.0, 2.0 * np.pi)))
        s = geometry.residual_scale(frame, beta)
        c, theta = frame.structure_constants / s * scale, frame.theta / s * scale
        text = json.dumps({"structure_constants": c.tolist(), "theta": theta.tolist(), "beta": beta.value})
        yield write(tmp_path, f"bianchi-v-{k}.json", text)


@pytest.mark.parametrize("lam", [6.5e-309, 1e-310])
def test_killing_refuses_a_sub_normal_scale(tmp_path, capsys, lam):
    # the loop lengths 0.4-1.2 / scale overflow below the smallest normal
    # float: killing refuses the scale before any check, with exit 2 and an
    # error naming the covered range, and no RuntimeWarning (v0.23.0 warned
    # at both scales and died under -W error); analyze still passes
    path = write(tmp_path, "tiny.json", json.dumps({"milnor_lambda": [lam] * 3, "beta": lam / 4.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, ["killing", path, "--loops", "5"])
        assert run_cli(capsys, ["analyze", path])[0] == 0
    assert (code, out) == (2, "")
    assert SMALLEST_NORMAL in err and "float maximum" in err


def test_killing_refuses_rotated_files_below_the_smallest_normal_scale(tmp_path, capsys):
    # bianchi_v_flat in ten rotated frames at 1e-308: v0.23.0 exited 1 on 8
    # of them, with a NaN holonomy; now each is refused with exit 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for path in rotated_bianchi_v_files(tmp_path, 1e-308, 10):
            code, out, err = run_cli(capsys, ["killing", path, "--loops", "50"])
            assert (code, out) == (2, "") and SMALLEST_NORMAL in err


def test_killing_passes_rotated_files_just_above_the_smallest_normal_scale(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for path in rotated_bianchi_v_files(tmp_path, 2.3e-308, 10):
            code, out, err = run_cli(capsys, ["killing", path, "--loops", "50"])
            assert code == 0, err
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


FROZEN_REPORTS = os.path.join(os.path.dirname(__file__), "data", "killing_reports_v0.16.0.json")


def test_killing_reports_match_v0_16_0_to_rounding(capsys):
    # the v0.16.0 reports of `killing FILE --loops 50 --seed 0` on the shipped
    # files: verdicts, section names, bounds and pass flags are exact, and
    # every value may move at rounding level only (analyze's sections are
    # read off the quadratic form since v0.20.0, the transports' since v0.17.0)
    with open(FROZEN_REPORTS, encoding="utf-8") as fh:
        frozen = json.load(fh)
    assert sorted(frozen) == sorted(f for f in os.listdir(GEOMETRY_DIR) if f.endswith(".json"))
    for name, want in frozen.items():
        argv = ["killing", os.path.join(GEOMETRY_DIR, name), "--loops", "50", "--seed", "0"]
        got = json.loads(run_cli(capsys, argv)[1])
        assert (got["seed"], got["verdict"]) == (want["seed"], want["verdict"]), name
        assert [s["name"] for s in got["sections"]] == [s["name"] for s in want["sections"]], name
        for g, w in zip(got["sections"], want["sections"]):
            assert {**g, "value": None} == {**w, "value": None}, (name, g["name"])
            assert abs(g["value"] - w["value"]) <= 1e-14, (name, g["name"])


PINNED_REPORTS = os.path.join(os.path.dirname(__file__), "data", "killing_reports_v0.30.0.json")


def test_killing_reports_match_v0_30_0_bit_for_bit(tmp_path, capsys):
    # the v0.30.0 reports of `killing FILE --seed S --loops L`, S in {0, 3} and L
    # in {1, 7, 50, 250}, on the shipped files and four rotated and rescaled
    # copies (the file's "inputs"), values as float.hex: exit codes, verdicts,
    # section names and pass flags are exact, and so is every value but
    # path_independence, which v0.30.0 read off five extra path pairs and now
    # reads off the loops' own halves, at rounding level
    with open(PINNED_REPORTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    paths = {f: os.path.join(GEOMETRY_DIR, f) for f in os.listdir(GEOMETRY_DIR) if f.endswith(".json")}
    paths |= {name: write(tmp_path, name, json.dumps(data)) for name, data in pinned["inputs"].items()}
    assert sorted({r["file"] for r in pinned["reports"]}) == sorted(paths)
    assert len(pinned["reports"]) == len(paths) * 2 * 4
    for want in pinned["reports"]:
        argv = ["killing", paths[want["file"]], "--seed", str(want["seed"]), "--loops", str(want["loops"])]
        code, out, _ = run_cli(capsys, argv)
        got = json.loads(out)
        case = (want["file"], want["seed"], want["loops"])
        assert (code, got["verdict"]) == (want["exit"], want["verdict"]), case
        assert [(s["name"], s["pass"]) for s in got["sections"]] == [(n, p) for n, _, p in want["sections"]], case
        for s, (name, value, _) in zip(got["sections"], want["sections"]):
            if name == "path_independence":
                assert abs(s["value"] - float.fromhex(value)) <= 1e-14, case
            else:
                assert float.hex(s["value"]) == value, (case, name)


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
    # killing stops after analyze's sections when one of them fails
    sections = {s["name"]: s for s in report["sections"]}
    assert list(sections) == ["r_ew", "r_scal", "r_star", "flatness"]
    assert sections["flatness"]["pass"] is False


def test_one_gauduchon_tod_tolerance(tmp_path, capsys):
    # analyze's default, a search report's bound, analyze --tol's default and
    # the bound of killing's gate are all geometry.TOLERANCE
    assert geometry.TOLERANCE == 1e-9
    assert inspect.signature(analyze).parameters["tolerance"].default is geometry.TOLERANCE
    assert killing.find_gt_parameters((2.0, 2.1, 1.9, 0.0, 0.4)).report.tolerance is geometry.TOLERANCE
    assert build_parser().parse_args(["analyze", "g.json"]).tol is geometry.TOLERANCE
    path = write(tmp_path, "round.json", ROUND_TEXT)
    for argv in (["analyze", path], ["killing", path, "--loops", "2"]):
        sections = json.loads(run_cli(capsys, argv)[1])["sections"]
        assert [s["bound"] for s in sections[:4]] == [geometry.TOLERANCE] * 4


@pytest.mark.parametrize("lambda3, code", [(2.0000000015, 0), (2.000000004, 1)])
def test_killing_exit_code_equals_analyze_near_the_tolerance(tmp_path, capsys, lambda3, code):
    # at lambda3 = 2 + 4e-9 flatness reads 5.0e-10 but r_scal 2.0e-9, so no
    # bound on flatness alone matches analyze's verdict on both geometries
    path = write(tmp_path, "g.json", json.dumps({"milnor_lambda": [2, 2, lambda3], "beta": 0.5}))
    for argv in (["analyze", path], ["killing", path]):
        assert run_cli(capsys, argv)[0] == code, argv


def analyze_worst(g, beta):
    """The largest of analyze's four sections, which its verdict holds below TOLERANCE."""
    rep = analyze(g, beta)
    return max(rep.n_ew, rep.n_scal, rep.n_star, flatness(g, beta))


def test_killing_exit_code_equals_analyze_across_the_tolerance(tmp_path, capsys):
    # random perturbations of the round member (2, 2, 2, 0, 0.5) at random
    # gauge scales, bisected to geometries just inside and just outside
    # analyze's tolerance: killing passes exactly where analyze does
    rng = np.random.default_rng(16)
    for n in range(20):
        d_lam, d_theta = rng.standard_normal((2, 3))
        d_beta, s = rng.standard_normal(), rng.uniform(-3, 3)

        def member(t):
            g = milnor_geometry(2.0 + t * d_lam, t * d_theta)
            return gauge_rescale(g, WeightedDensity(0.5 + t * d_beta), s)

        inside, outside = 0.0, 1.0
        assert analyze_worst(*member(inside)) < geometry.TOLERANCE <= analyze_worst(*member(outside))
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            if analyze_worst(*member(mid)) < geometry.TOLERANCE:
                inside = mid
            else:
                outside = mid
        for t, code in ((inside, 0), (outside, 1)):
            path = write(tmp_path, f"{n}-{code}.json", geometry_text(*member(t)))
            for argv in (["analyze", path], ["killing", path]):
                assert run_cli(capsys, argv)[0] == code, (n, t, argv)


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


def printed_root(err):
    """The parameters search-gt logs to stderr."""
    line = next(l for l in err.splitlines() if l.startswith("[search-gt] parameters:"))
    return [float(v) for v in line.partition(":")[2].split(",")]


def test_search_gt_final_residual_is_the_formula_at_the_root(capsys):
    # the r_* sections are analyze's on the printed root, and final_residual their largest
    code, out, err = run_cli(capsys, ["search-gt", "--pin", "lambda1=2", "--x0", "2,2,1.8,0.3,0.4"])
    assert code == 0
    sections = {s["name"]: s for s in json.loads(out)["sections"]}
    report = analyze(*milnor_theta3_family(printed_root(err)))
    r = [sections[name]["value"] for name in ("r_ew", "r_scal", "r_star")]
    assert r == [report.n_ew, report.n_scal, report.n_star]
    assert sections["final_residual"]["value"] == max(r)


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e100])
def test_search_gt_tol_is_relative_to_the_starts_scale(capsys, scale):
    # one start at eight scales: --tol bounds the residuals over the root's scale^2,
    # so each converges, and each printed root passes analyze
    x0 = ",".join(repr(scale * v) for v in (2.0, 2.1, 1.9, 0.0, 0.4))
    code, out, err = run_cli(capsys, ["search-gt", "--x0", x0, "--pin", "lambda1"])
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    params = printed_root(err)
    assert params[0] == scale * 2.0
    assert analyze(*milnor_theta3_family(params)).verdict


def test_search_gt_that_did_not_converge_fails(capsys, monkeypatch):
    # a NoConvergence whose best residual is below --tol still fails, with no r_* sections
    def no_convergence(*args, **kwargs):
        raise NoConvergence("stalled", best_params=(2.0,) * 5, best_residual=0.0, iterations=3)

    monkeypatch.setattr(killing, "find_gt_parameters", no_convergence)  # search-gt imports it when it runs
    code, out, err = run_cli(capsys, ["search-gt", "--x0", "2,2,2,0,0.5"])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert [(s["name"], s["value"], s["pass"]) for s in report["sections"]] == [
        ("final_residual", 0.0, False), ("iterations", 3.0, True)
    ]
    assert "no convergence" in err


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
    # lambda1 or beta at 1e200 overflowed the quadratic residuals before the search
    # ran at the start's own scale; from these starts it still does not converge
    for x0 in ("1e200,2,2,0,0.5", "1,1,1,1,1e200"):
        code, out, err = run_cli(capsys, ["search-gt", "--x0", x0])
        assert code == 1
        sections = json.loads(out)["sections"]
        assert [s["name"] for s in sections] == ["final_residual", "iterations"]
        assert sections[0]["pass"] is False and math.isfinite(sections[0]["value"])
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


def fresh_process(argv):
    """stdout of `python argv...` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, check=True).stdout


ANALYZE_WITHOUT_NUMPY = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in ("numpy", "scipy", "dataclasses", "inspect") if m in sys.modules)
import weylspin
after = {"weylspin": loaded()}
import weylspin.cli
after["weylspin.cli"] = loaded()
codes = []
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(weylspin.cli.main(["analyze", path]))
after["analyze"] = loaded()
killing = type(weylspin.killing).__name__  # a submodule, imported when it is first read
print(json.dumps({"after": after, "codes": codes, "killing": killing, "numpy": "numpy" in sys.modules}))
"""


def test_analyze_loads_neither_numpy_nor_scipy():
    # importing the package and the command line, and analyze on every shipped
    # file, load no numpy (and no scipy): they run on Python floats. Nor do they
    # load dataclasses or the inspect module it imports: the records are plain
    # classes and named tuples. The submodules stay reachable as attributes, and
    # reading one loads numpy
    shipped = sorted(f for f in os.listdir(GEOMETRY_DIR) if f.endswith(".json"))
    paths = [os.path.join(GEOMETRY_DIR, f) for f in shipped]
    result = json.loads(fresh_process(["-c", ANALYZE_WITHOUT_NUMPY, *paths]))
    assert result["after"] == {"weylspin": [], "weylspin.cli": [], "analyze": []}
    assert result["codes"] == [1 if f == "perturbed.json" else 0 for f in shipped] and len(shipped) == 5
    assert result["killing"] == "module" and result["numpy"]


def test_no_module_imports_dataclasses():
    # dataclasses, with the inspect module it imports, cost about half of
    # `import weylspin.cli`; the package's records are plain classes and named tuples
    package = os.path.dirname(weylspin.__file__)
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            nodes = list(ast.walk(ast.parse(fh.read())))
        modules = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
        modules += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 0]
        assert "dataclasses" not in {m.partition(".")[0] for m in modules}, name


@pytest.mark.parametrize(
    "argv",
    [["killing", os.path.join(GEOMETRY_DIR, "berger_theta.json")], ["verify-algebra", "--trials", "5"],
     ["search-gt", "--x0", "2.2,1.9,2.1,0.05,0.4"]],
    ids=["killing", "verify-algebra", "search-gt"],
)
def test_array_commands_pass_in_a_fresh_process(argv):
    # the commands that compute with arrays import numpy when they run; each
    # still passes (exit 0, check=True) as the first command of a process
    assert json.loads(fresh_process(["-m", "weylspin.cli", *argv]))["verdict"] == "pass"


def test_cli_import_builds_no_quadratic_form():
    # search-gt's family form is built on first use, so importing the command line costs nothing more
    code = "import weylspin.cli, weylspin.killing as k; print(k._family_quadratic_form.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "0"


def test_benchmark_span_names_resolve_in_the_package():
    # bench/tracing.py skips a name the package does not define, so a rename
    # would read 0 in every per-layer metric of that span without an error;
    # triangle_loop and group_endpoint left the package in 0.11.0, expm in
    # 0.23.0, when closing_arc came back as the closed-form closing arc, and
    # killing's binding of gt_residual_vector in 0.30.0, when search-gt began
    # to confirm its roots with analyze
    dropped = {"killing.triangle_loop", "killing.group_endpoint", "killing.expm", "killing.gt_residual_vector"}
    path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    stats = ("calls", "self_ms", "us_per_call")
    spans = {n.rpartition(".")[0] for n in names if n.rpartition(".")[2] in stats}
    assert {"killing.closing_arc", "killing.loop_holonomy", "killing.transport_operator"} <= spans
    missing = set()
    for span in spans:
        module, _, name = span.partition(".")
        if not callable(getattr(importlib.import_module(f"weylspin.{module}"), name, None)):
            missing.add(span)
    assert missing <= dropped


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, ["frobnicate"])[0] == 2


def test_distribution_name_and_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "weylspin"
    assert project["version"] == weylspin.__version__


def readme_blocks(language):
    """The code blocks of README.md fenced as `language`."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return re.findall(rf"```{language}\n(.*?)```", fh.read(), re.S)


def readme_commands():
    """Arguments of every `weylspin ...` line in README's sh blocks, comments stripped."""
    lines = [shlex.split(line, comments=True) for b in readme_blocks("sh") for line in b.splitlines()]
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


def test_readme_library_block_runs(capsys):
    (block,) = readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")


def test_pin_aliases(capsys):
    code, out, _ = run_cli(
        capsys, ["search-gt", "--x0", "2.2,1.9,2.1,0.05,0.4", "--pin", "l1=2"]
    )
    assert code == 0
