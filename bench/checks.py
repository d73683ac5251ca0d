"""Output checks that do not trust the program's own verdicts.

Every check returns the units of work an operation completed, or raises
Failed (the program refused or errored on an input it should handle) or
Wrong (the program answered, and the answer contradicts an independent
fact). Failed operations are counted; a single Wrong makes the run incorrect.

The independent facts used here:

  * Round family (lambda, lambda, lambda), theta = 0: the scalar curvature is
    3 lambda^2 / 2 (Milnor 1976) and *F = 0, so the geometry is
    Gauduchon-Tod exactly when R = 24 beta^2, i.e. |beta| = lambda / 4.
  * Gauduchon-Tod holds if and only if the Killing connection is flat, so the
    `killing` verdict must equal the `analyze` verdict.
  * A Killing transport is exp of a traceless anti-Hermitian matrix: it is
    unitary with determinant 1 and solves psi' = -M psi, which an RK4
    integration reproduces.
"""

import json
import math

import numpy as np

IDENTITY_TOL = 1e-12  # the identity suite's own default; never loosened here
BREAK_CONTROL_MIN = 0.1
IDENTITY_SECTIONS = (
    "clifford_relations",
    "clifford_product_rule",
    "j_equivariance",
    "mu2_nu_operator",
    "kn_contraction",
    "monopole",
    "first_identity",
    "second_identity",
)
# clifford_relations is one fixed evaluation with no random draws
DRAW_FREE_SECTIONS = {"clifford_relations"}
KILLING_SECTIONS = (
    "flatness",
    "max_holonomy_deviation",
    "min_singular_value",
    "path_independence",
    "killing_residual",
)
HOLONOMY_BOUND = 1e-9
PATH_BOUND = 1e-9
MIN_SINGULAR = 0.1
UNITARY_TOL = 1e-11
RK4_TOL = 1e-8
RECERT_TOL = 1e-9


class Failed(Exception):
    """The program refused or errored on an input it is meant to handle."""


class Wrong(Exception):
    """The program's answer contradicts an independent check."""


def round_family_certified(lam, beta):
    """Closed-form Gauduchon-Tod label of the round member (lam, lam, lam, 0, beta)."""
    return math.isclose(abs(beta), lam / 4.0, rel_tol=1e-12)


def _report(result, what):
    rc, out, err = result
    if rc == 2:
        raise Failed(f"{what}: exit 2: {err.strip().splitlines()[-1:]}")
    try:
        rep = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise Wrong(f"{what}: no JSON report on stdout (exit {rc})")
    if rc not in (0, 1) or (rc == 0) != (rep.get("verdict") == "pass"):
        raise Wrong(f"{what}: exit code {rc} disagrees with verdict {rep.get('verdict')!r}")
    return rep


def _sections(rep, names, what):
    got = {s["name"]: s for s in rep["sections"]}
    missing = [n for n in names if n not in got]
    if missing:
        raise Wrong(f"{what}: sections missing: {missing}")
    return got


def check_verify_algebra(result, trials, seed):
    """Every identity below IDENTITY_TOL with `trials` draws, break control above 0.1."""
    rep = _report(result, "verify-algebra")
    if rep["seed"] != seed:
        raise Wrong(f"verify-algebra: report seed {rep['seed']} != {seed}")
    secs = _sections(rep, IDENTITY_SECTIONS + ("first_identity_break_control",), "verify-algebra")
    for name in IDENTITY_SECTIONS:
        s = secs[name]
        if not (s["residual"] < IDENTITY_TOL and s["tolerance"] <= IDENTITY_TOL and s["pass"]):
            raise Wrong(f"verify-algebra: {name} residual {s['residual']:.3e}")
        if name not in DRAW_FREE_SECTIONS and s["trials"] != trials:
            raise Wrong(f"verify-algebra: {name} ran {s['trials']} trials, asked {trials}")
    brk = secs["first_identity_break_control"]
    if not brk["value"] > BREAK_CONTROL_MIN:
        raise Wrong(f"verify-algebra: break control {brk['value']:.3e} not above 0.1")
    if rep["verdict"] != "pass":
        raise Wrong("verify-algebra: verdict fail with every section in bounds")
    return trials


def check_analyze(result, certified):
    """analyze must return the closed-form (or known) Gauduchon-Tod label."""
    rep = _report(result, "analyze")
    _sections(rep, ("r_ew", "r_scal", "r_star", "flatness"), "analyze")
    if (rep["verdict"] == "pass") != certified:
        raise Wrong(f"analyze: verdict {rep['verdict']} but label certified={certified}")


def check_killing(result, certified, loops):
    """killing must certify exactly the Gauduchon-Tod geometries, with sound sections."""
    rep = _report(result, "killing")
    secs = {s["name"]: s for s in rep["sections"]}
    if not certified:
        if rep["verdict"] == "pass":
            raise Wrong("killing: passes a geometry that is not Gauduchon-Tod")
        return 0
    if rep["verdict"] != "pass":
        bad = [n for n, s in secs.items() if not s["pass"]]
        raise Failed(f"killing: rejects a Gauduchon-Tod geometry on {bad}")
    secs = _sections(rep, KILLING_SECTIONS, "killing")
    if not (
        secs["max_holonomy_deviation"]["value"] < HOLONOMY_BOUND
        and secs["path_independence"]["value"] < PATH_BOUND
        and secs["min_singular_value"]["value"] > MIN_SINGULAR
    ):
        raise Wrong(f"killing: pass with out-of-bound sections {secs}")
    return loops


def check_geometry(results, certified):
    """analyze then killing on one geometry: both match the label, and each other."""
    check_analyze(results[0], certified)
    # analyze already matched the label, so this also holds killing to it
    check_killing(results[1], certified, 0)
    return 1


def parse_search_params(err):
    for line in err.splitlines():
        if line.startswith("[search-gt] parameters:"):
            return [float(v) for v in line.split(":", 1)[1].split(",")]
    raise Wrong("search-gt: no parameters line on stderr")


def check_search(result, x0, recertify):
    """A converged root keeps the pinned lambda1 and re-certifies independently."""
    rep = _report(result, "search-gt")
    if rep["verdict"] != "pass":
        raise Failed(f"search-gt: no convergence from {x0}")
    params = parse_search_params(result[2])
    if len(params) != 5 or params[0] != x0[0]:
        raise Wrong(f"search-gt: root {params} does not keep lambda1 = {x0[0]!r}")
    recertify(params)
    return 1


def check_transport(U, reference, tol_unitary=UNITARY_TOL, tol_rk4=RK4_TOL):
    """U must be in SU(2) and match an independently integrated transport."""
    U = np.asarray(U)
    unitary = float(np.max(np.abs(U.conj().T @ U - np.eye(2))))
    det = abs(complex(np.linalg.det(U)) - 1.0)
    if unitary > tol_unitary or det > tol_unitary:
        raise Wrong(f"transport not in SU(2): unitarity {unitary:.3e}, det {det:.3e}")
    dev = float(np.max(np.abs(U - reference)))
    if dev > tol_rk4:
        raise Wrong(f"transport differs from RK4 by {dev:.3e}")
