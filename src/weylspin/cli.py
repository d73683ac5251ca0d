"""Command-line front end.

Four subcommands (verify-algebra, analyze, killing, search-gt) run the
verification suites and print one JSON report to stdout with top-level keys
{tool_version, seed, sections, verdict, wall_time_ms}. Floating point numbers
are emitted with 17 significant digits so reports round-trip exactly. Human
readable progress goes to stderr. Exit code 0 means verdict pass, 1 means a
check failed, 2 means a usage or input problem.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    JacobiViolation,
    NoConvergence,
    ParseError,
    ShapeError,
    UnsupportedModel,
)
from .geometry import WeightedDensity, analyze, milnor_geometry, validate_geometry
from .identities import verify_algebra
from .killing import (
    KillingBasis,
    find_gt_parameters,
    killing_residual,
    loop_holonomy,
    path_independence_residual,
    triangle_loop,
)
from .spinconn import flatness

_GEOMETRY_KEYS = {"milnor_lambda", "structure_constants", "theta", "beta", "beta_weight"}


# ---------------------------------------------------------------------------
# geometry files


def _key_location(text, key):
    """Line and column (1-based) of the first occurrence of a quoted key."""
    off = text.find(f'"{key}"')
    if off < 0:
        return 1, 1
    line = text.count("\n", 0, off) + 1
    col = off - (text.rfind("\n", 0, off) + 1) + 1
    return line, col


def _require_numbers(values, count, path, text, key):
    line, col = _key_location(text, key)
    if not isinstance(values, list) or len(values) != count:
        raise ParseError(f'"{key}" must be a list of {count} numbers', path, line, col)
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f'"{key}" must contain only numbers', path, line, col)
        out.append(float(v))
    return out


def parse_geometry_file(path):
    """Read a geometry description file into (geometry, density).

    Schema: exactly one of "milnor_lambda" (3 numbers) or "structure_constants"
    (3x3x3 nested array), plus optional "theta" (3 numbers, default zero),
    "beta" (number, default 0) and "beta_weight" (number, default -1). Any
    other key is rejected with its line and column.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path, 1, 1)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path, exc.lineno, exc.colno)
    if not isinstance(data, dict):
        raise ParseError("geometry file must contain a JSON object", path, 1, 1)
    for key in data:
        if key not in _GEOMETRY_KEYS:
            line, col = _key_location(text, key)
            raise ParseError(f'unknown key "{key}"', path, line, col)
    has_lam = "milnor_lambda" in data
    has_c = "structure_constants" in data
    if has_lam == has_c:
        raise ParseError(
            'need exactly one of "milnor_lambda" or "structure_constants"', path, 1, 1
        )

    theta = _require_numbers(data.get("theta", [0.0, 0.0, 0.0]), 3, path, text, "theta")
    beta_raw = data.get("beta", 0.0)
    if isinstance(beta_raw, bool) or not isinstance(beta_raw, (int, float)):
        line, col = _key_location(text, "beta")
        raise ParseError('"beta" must be a number', path, line, col)
    weight_raw = data.get("beta_weight", -1.0)
    if isinstance(weight_raw, bool) or not isinstance(weight_raw, (int, float)):
        line, col = _key_location(text, "beta_weight")
        raise ParseError('"beta_weight" must be a number', path, line, col)

    if has_lam:
        lam = _require_numbers(data["milnor_lambda"], 3, path, text, "milnor_lambda")
        g = milnor_geometry(lam, theta)
    else:
        rows = data["structure_constants"]
        line, col = _key_location(text, "structure_constants")
        try:
            c = np.asarray(rows, dtype=float)
        except (TypeError, ValueError):
            raise ParseError('"structure_constants" must be numeric', path, line, col)
        if c.shape != (3, 3, 3):
            raise ParseError(
                '"structure_constants" must be a 3x3x3 nested array', path, line, col
            )
        g = validate_geometry(c, np.asarray(theta))
    return g, WeightedDensity(float(beta_raw), float(weight_raw))


# ---------------------------------------------------------------------------
# report rendering


def _render(value):
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value)!r}")


def render_report(seed, sections, started):
    verdict = "pass" if all(s["pass"] for s in sections) else "fail"
    report = {
        "tool_version": __version__,
        "seed": int(seed),
        "sections": sections,
        "verdict": verdict,
        "wall_time_ms": int(round((time.perf_counter() - started) * 1000.0)),
    }
    return _render(report), verdict


def _identity_section(rep):
    return {
        "name": rep.name,
        "residual": float(rep.residual),
        "trials": int(rep.trials),
        "tolerance": float(rep.tolerance),
        "pass": bool(rep.passed),
    }


def _bound_section(name, value, bound, direction):
    ok = value < bound if direction == "below" else value > bound
    return {
        "name": name,
        "value": float(value),
        "bound": float(bound),
        "direction": direction,
        "pass": bool(ok),
    }


def _log(msg):
    print(msg, file=sys.stderr)


def _emit(seed, sections, started):
    text, verdict = render_report(seed, sections, started)
    print(text)
    return 0 if verdict == "pass" else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify_algebra(args):
    started = time.perf_counter()
    reports, break_control = verify_algebra(
        trials=args.trials, seed=args.seed, tolerance=args.tol
    )
    sections = [_identity_section(r) for r in reports]
    sections.append(
        _bound_section("first_identity_break_control", break_control, 0.1, "above")
    )
    for s in sections:
        _log(f"[verify-algebra] {s['name']}: {'pass' if s['pass'] else 'FAIL'}")
    return _emit(args.seed, sections, started)


def _cmd_analyze(args):
    started = time.perf_counter()
    g, beta = parse_geometry_file(args.geometry)
    rep = analyze(g, beta, tolerance=args.tol)
    flat = flatness(g, beta)
    sections = [
        _bound_section("r_ew", rep.n_ew, args.tol, "below"),
        _bound_section("r_scal", rep.n_scal, args.tol, "below"),
        _bound_section("r_star", rep.n_star, args.tol, "below"),
        _bound_section("flatness", flat, args.tol, "below"),
    ]
    for s in sections:
        _log(f"[analyze] {s['name']} = {s['value']:.3e} ({'pass' if s['pass'] else 'FAIL'})")
    return _emit(args.seed, sections, started)


def _cmd_killing(args):
    started = time.perf_counter()
    g, beta = parse_geometry_file(args.geometry)
    rng = np.random.default_rng(args.seed)
    flat, bound = flatness(g, beta), 1e-10
    sections = [_bound_section("flatness", flat, bound, "below")]
    if not sections[0]["pass"]:
        _log(f"[killing] Killing connection flatness {flat:.3e} is not below {bound:g}")
        return _emit(args.seed, sections, started)
    basis = KillingBasis(g, beta)

    loops = [triangle_loop(g, rng) for _ in range(args.loops)]
    worst_dev = 0.0
    for loop in loops:
        _, dev = loop_holonomy(g, beta, loop)
        worst_dev = max(worst_dev, dev)
    sections.append(_bound_section("max_holonomy_deviation", worst_dev, 1e-9, "below"))

    samples = []
    for loop in loops[:10]:
        samples.append(loop[:1])
        samples.append(loop[:2])
    min_sv = min(basis.min_singular_value(arcs) for arcs in samples)
    sections.append(_bound_section("min_singular_value", min_sv, 0.1, "above"))

    indep = path_independence_residual(g, beta, rng, pairs=5)
    sections.append(_bound_section("path_independence", indep, 1e-9, "below"))

    h = 1e-5
    fd = killing_residual(g, beta, basis, samples, h=h)
    sections.append(_bound_section("killing_residual", fd, 1e3 * h * h, "below"))

    for s in sections:
        _log(f"[killing] {s['name']} = {s['value']:.3e} ({'pass' if s['pass'] else 'FAIL'})")
    return _emit(args.seed, sections, started)


_PIN_ALIASES = {
    "l1": "lambda1",
    "l2": "lambda2",
    "l3": "lambda3",
    "λ1": "lambda1",
    "λ2": "lambda2",
    "λ3": "lambda3",
    "θ3": "theta3",
    "β": "beta",
}


def _parse_pin(text):
    if "=" in text:
        name, _, raw = text.partition("=")
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(f"pin value {raw!r} is not a number", "--pin", 1, 1)
    else:
        name, value = text, None
    name = _PIN_ALIASES.get(name.strip(), name.strip())
    if name not in {"lambda1", "lambda2", "lambda3", "theta3", "beta"}:
        raise ParseError(f"unknown pin coordinate {name!r}", "--pin", 1, 1)
    return name, value


def _cmd_search_gt(args):
    started = time.perf_counter()
    try:
        x0 = [float(p) for p in args.x0.split(",")]
    except ValueError:
        raise ParseError("--x0 must be a comma-separated list of numbers", "--x0", 1, 1)
    if len(x0) != 5:
        raise ParseError("--x0 needs 5 entries: l1,l2,l3,theta3,beta", "--x0", 1, 1)
    pin = _parse_pin(args.pin)
    try:
        result = find_gt_parameters(
            x0,
            pin=pin,
            tolerance=args.tol,
            max_iterations=args.max_iter,
        )
    except NoConvergence as exc:
        _log(f"[search-gt] no convergence: {exc}")
        _log(
            "[search-gt] best parameters: "
            + ", ".join(format(p, ".17g") for p in exc.best_params)
        )
        sections = [
            _bound_section("final_residual", exc.best_residual, args.tol, "below"),
            _bound_section("iterations", float(exc.iterations), float(args.max_iter) + 0.5, "below"),
        ]
        return _emit(args.seed, sections, started)

    _log(
        "[search-gt] parameters: "
        + ", ".join(format(p, ".17g") for p in result.params)
    )
    _log(f"[search-gt] residual {result.residual_norm:.3e} after {result.iterations} iterations")
    rep = result.report
    sections = [
        _bound_section("final_residual", result.residual_norm, args.tol, "below"),
        _bound_section("iterations", float(result.iterations), float(args.max_iter) + 0.5, "below"),
        _bound_section("r_ew", rep.n_ew, rep.tolerance, "below"),
        _bound_section("r_scal", rep.n_scal, rep.tolerance, "below"),
        _bound_section("r_star", rep.n_star, rep.tolerance, "below"),
    ]
    return _emit(args.seed, sections, started)


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weylspin",
        description="verification suite for real Killing spinors on 3d Weyl geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="random sweeps over the identity suite")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("analyze", help="Gauduchon-Tod residuals of a geometry file")
    p.add_argument("geometry")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("killing", help="build the Killing basis and test holonomy")
    p.add_argument("geometry")
    p.add_argument("--loops", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_killing)

    p = sub.add_parser("search-gt", help="Newton search for Gauduchon-Tod parameters")
    p.add_argument("--x0", required=True, help="l1,l2,l3,theta3,beta")
    p.add_argument("--pin", default="lambda1", help="coordinate pin, e.g. lambda1=2")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_search_gt)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        _log(f"error: {exc}")
        return 2
    except (JacobiViolation, ShapeError, UnsupportedModel) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
