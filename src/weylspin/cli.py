"""Command-line front end.

Four subcommands (verify-algebra, analyze, killing, search-gt) each return a
list of report sections. `main` logs them to stderr and prints one JSON report
to stdout with top-level keys {tool_version, seed, sections, verdict,
wall_time_ms}; seed is null for analyze and search-gt, which draw nothing.
Floats are written in Python's shortest round-trip form (non-finite ones as
NaN or Infinity), so a report reads back to the same doubles and is
byte-reproducible at a fixed seed apart from wall_time_ms. Exit code 0 means
verdict pass, 1 means a check failed, 2 means a usage or input problem: a bad
geometry file (see parse_geometry_file), or an argument that cannot earn a
pass (--trials or --loops below 1, --max-iter or --seed below 0, a --tol that
is not positive and finite, a malformed --x0 or --pin).
"""

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import JacobiViolation, NoConvergence, ParseError, ShapeError
from .geometry import WeightedDensity, analyze, milnor_geometry, validate_geometry
from .identities import verify_algebra
from .killing import (
    PIN_INDEX,
    KillingBasis,
    arc_from_vector,
    find_gt_parameters,
    killing_residual,
    loop_holonomy,
    path_independence_residual,
    quadrilateral_loop,
)
from .spinconn import flatness

# geometry file schema: each key and the shape its finite JSON numbers nest to
_SCHEMA = {
    "milnor_lambda": (3,),
    "structure_constants": (3, 3, 3),
    "theta": (3,),
    "beta": (),
    "beta_weight": (),
}


# ---------------------------------------------------------------------------
# geometry files


def _key_location(text, key, occurrence=1):
    """Line and column (1-based) of the given occurrence of a quoted key (default the first)."""
    off = -1
    for _ in range(occurrence):
        off = text.find(f'"{key}"', off + 1)
        if off < 0:
            return 1, 1
    line = text.count("\n", 0, off) + 1
    col = off - (text.rfind("\n", 0, off) + 1) + 1
    return line, col


def _numbers(value, shape):
    """value as floats nested to shape, or None unless it is finite JSON numbers of that shape."""
    if shape:
        if not isinstance(value, list) or len(value) != shape[0]:
            return None
        items = [_numbers(v, shape[1:]) for v in value]
        return None if any(v is None for v in items) else items
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return number if math.isfinite(number) else None


def parse_geometry_file(path):
    """Read a geometry description file into (geometry, density).

    Schema (_SCHEMA): exactly one of "milnor_lambda" (3 numbers) or
    "structure_constants" (3x3x3 nested array), plus optional "theta"
    (3 numbers, default zero), "beta" (number, default 0) and "beta_weight"
    (-1, the default and the only weight the commands use). Every value must be
    finite JSON numbers nested to its key's shape. An unknown key, a bad value,
    or structure constants that fail validate_geometry (antisymmetry, Jacobi)
    raise ParseError at the key's line and column; a repeated key raises it at
    the repeat.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path, 1, 1)

    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f'duplicate key "{key}"', path, *_key_location(text, key, 2))
            seen.add(key)
        return dict(pairs)

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path, exc.lineno, exc.colno)
    if not isinstance(data, dict):
        raise ParseError("geometry file must contain a JSON object", path, 1, 1)
    values = {}
    for key, raw in data.items():
        where = (path, *_key_location(text, key))
        if key not in _SCHEMA:
            raise ParseError(f'unknown key "{key}"', *where)
        shape = _SCHEMA[key]
        values[key] = _numbers(raw, shape)
        if values[key] is None:
            what = "x".join(map(str, shape)) + " finite numbers" if shape else "a finite number"
            raise ParseError(f'"{key}" must be {what}', *where)
        if key == "beta_weight" and values[key] != -1.0:
            raise ParseError('"beta_weight" must be -1', *where)
    if ("milnor_lambda" in values) == ("structure_constants" in values):
        raise ParseError('need exactly one of "milnor_lambda" or "structure_constants"', path, 1, 1)
    theta = values.get("theta", [0.0, 0.0, 0.0])
    if "milnor_lambda" in values:
        g = milnor_geometry(values["milnor_lambda"], theta)
    else:
        try:
            g = validate_geometry(values["structure_constants"], theta)
        except (ShapeError, JacobiViolation) as exc:
            raise ParseError(str(exc), path, *_key_location(text, "structure_constants"))
    return g, WeightedDensity(values.get("beta", 0.0))


# ---------------------------------------------------------------------------
# report


def render_report(seed, sections, passed, started):
    """The report as one line of JSON; floats in shortest round-trip form."""
    return json.dumps(
        {
            "tool_version": __version__,
            "seed": seed,
            "sections": sections,
            "verdict": "pass" if passed else "fail",
            "wall_time_ms": round((time.perf_counter() - started) * 1000.0),
        }
    )


def _identity_section(rep):
    section = {
        "name": rep.name,
        "residual": float(rep.residual),
        "trials": int(rep.trials),
        "tolerance": float(rep.tolerance),
        "pass": bool(rep.passed),
    }
    if rep.worst_trial is not None:
        section["worst_trial"] = int(rep.worst_trial)
    return section


def _bound_section(name, value, bound, direction):
    ok = value < bound if direction == "below" else value > bound
    return {
        "name": name,
        "value": float(value),
        "bound": float(bound),
        "direction": direction,
        "pass": bool(ok),
    }


def _gt_sections(rep):
    """The three normalized Gauduchon-Tod residuals of a GTReport, each below its tolerance."""
    pairs = (("r_ew", rep.n_ew), ("r_scal", rep.n_scal), ("r_star", rep.n_star))
    return [_bound_section(name, value, rep.tolerance, "below") for name, value in pairs]


def _log(msg):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands: each returns its list of report sections


def _cmd_verify_algebra(args):
    reports, break_control = verify_algebra(trials=args.trials, seed=args.seed, tolerance=args.tol)
    return [_identity_section(r) for r in reports] + [
        _bound_section("first_identity_break_control", break_control, 0.1, "above")
    ]


def _cmd_analyze(args):
    g, beta = parse_geometry_file(args.geometry)
    return _gt_sections(analyze(g, beta, tolerance=args.tol)) + [
        _bound_section("flatness", flatness(g, beta), args.tol, "below")
    ]


def _cmd_killing(args):
    g, beta = parse_geometry_file(args.geometry)
    rng = np.random.default_rng(args.seed)
    sections = [_bound_section("flatness", flatness(g, beta), 1e-10, "below")]
    if not sections[0]["pass"]:
        return sections
    basis = KillingBasis(g, beta)

    loops = quadrilateral_loop(g, beta, rng, args.loops)
    worst_dev = float(np.max(loop_holonomy(g, beta, loops)[1]))
    sections.append(_bound_section("max_holonomy_deviation", worst_dev, 1e-9, "below"))

    samples = [[arc_from_vector(v) for v in loop[:arcs]] for loop in loops[:10] for arcs in (1, 2)]
    transports = basis.sample_transports(samples)  # each sample transported once, per arc
    min_sv = basis.min_singular_value(transports)
    sections.append(_bound_section("min_singular_value", min_sv, 0.1, "above"))

    indep = path_independence_residual(g, beta, rng, pairs=5)
    sections.append(_bound_section("path_independence", indep, 1e-9, "below"))

    h = 1e-5
    fd = killing_residual(g, beta, basis, transports, h=h)
    sections.append(_bound_section("killing_residual", fd, 1e3 * h * h, "below"))
    return sections


def _cmd_search_gt(args):
    try:
        found = find_gt_parameters(
            args.x0, pin=args.pin, tolerance=args.tol, max_iterations=args.max_iter
        )
    except NoConvergence as exc:
        _log(f"[search-gt] no convergence: {exc}; best parameters: {_floats(exc.best_params)}")
        found, residual, iterations = None, exc.best_residual, exc.iterations
    else:
        _log(f"[search-gt] parameters: {_floats(found.params)}")
        residual, iterations = found.residual_norm, found.iterations
    sections = [
        _bound_section("final_residual", residual, args.tol, "below"),
        _bound_section("iterations", iterations, args.max_iter + 0.5, "below"),
    ]
    if found is not None:
        sections += _gt_sections(found.report)
    return sections


def _floats(values):
    return ", ".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# argument types: a value that cannot make a meaningful run exits 2 as a usage error


def _checked(convert, ok, expected):
    """argparse type: convert the text, then require ok(value)."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


# l1 and λ1 for lambda1 (and so on), θ3 for theta3, β for beta
_PIN_ALIASES = {f"{a}{k}": f"lambda{k}" for a in "lλ" for k in "123"} | {"θ3": "theta3", "β": "beta"}


def _pin(text):
    name, eq, raw = text.partition("=")
    name = name.strip()
    return _PIN_ALIASES.get(name, name), float(raw) if eq else None


_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")
_NON_NEGATIVE = _checked(int, lambda n: n >= 0, "an integer >= 0")
_TOLERANCE = _checked(float, lambda t: 0.0 < t < math.inf, "a positive finite number")
_X0 = _checked(
    lambda text: [float(p) for p in text.split(",")],
    lambda x0: len(x0) == 5,
    "5 comma-separated numbers l1,l2,l3,theta3,beta",
)
_PIN = _checked(
    _pin, lambda pin: pin[0] in PIN_INDEX, f"one of {', '.join(PIN_INDEX)}, optionally =VALUE"
)


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="weylspin",
        description="verification suite for real Killing spinors on 3d Weyl geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="random sweeps over the identity suite")
    p.add_argument("--trials", type=_COUNT, default=1000)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.add_argument("--tol", type=_TOLERANCE, default=1e-12)
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("analyze", help="Gauduchon-Tod residuals of a geometry file")
    p.add_argument("geometry")
    p.add_argument("--tol", type=_TOLERANCE, default=1e-9)
    p.set_defaults(func=_cmd_analyze, seed=None)

    p = sub.add_parser("killing", help="build the Killing basis and test holonomy")
    p.add_argument("geometry")
    p.add_argument("--loops", type=_COUNT, default=50)
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.set_defaults(func=_cmd_killing)

    p = sub.add_parser("search-gt", help="Newton search for Gauduchon-Tod parameters")
    p.add_argument("--x0", type=_X0, required=True, help="l1,l2,l3,theta3,beta")
    p.add_argument("--pin", type=_PIN, default="lambda1", help="coordinate pin, e.g. lambda1=2")
    p.add_argument("--tol", type=_TOLERANCE, default=1e-10)
    p.add_argument("--max-iter", type=_NON_NEGATIVE, default=50)
    p.set_defaults(func=_cmd_search_gt, seed=None)
    return parser


def main(argv=None):
    """Run one subcommand: log its sections to stderr, print the report, return the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        sections = args.func(args)
    except (ParseError, ShapeError) as exc:
        _log(f"error: {exc}")
        return 2
    for s in sections:
        value = s["residual"] if "residual" in s else s["value"]
        _log(f"[{args.command}] {s['name']} = {value:.3e} ({'pass' if s['pass'] else 'FAIL'})")
    passed = all(s["pass"] for s in sections)
    print(render_report(args.seed, sections, passed, started))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
