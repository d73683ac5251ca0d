"""The benchmark's workloads: seeded inputs, the CLI calls of a round, checks.

A workload hands out rounds. A round is a fixed list of operations; each
operation is one or more `weylspin` CLI invocations plus the check that turns
their outputs into units of work done (or raises checks.Failed/Wrong). Every
round of a workload has the same composition, so the share of failed
operations is the same in every run. Inputs come only from the workload seed,
a stream number and the round index, and geometry files are written when the
round is built, before any of its calls is timed.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# Streams of the input generator, so that warm-up, the traced round and the
# timed rounds never share inputs.
FIXED, WARMUP, TRACE, TIMED = 0, 1, 2, 3

ROUND_S3 = {"milnor_lambda": [2.0, 2.0, 2.0], "beta": 0.5}
# the certified Berger sphere with theta3 != 0 shipped as a sample geometry
BERGER = {
    "milnor_lambda": [2.0, 2.0, 1.9985228041705743],
    "theta": [0.0, 0.0, 0.054334239217389883],
    "beta": 0.49963070104264679,
}
FLAT = {"milnor_lambda": [0.0, 0.0, 0.0]}


@dataclass
class Op:
    argvs: list  # CLI argument lists, run in order
    check: Callable  # list of (exit code, stdout, stderr) -> units of work


def rng_for(seed, stream, index=0):
    return np.random.default_rng([seed, stream, index])


def write_geometry(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)  # json writes floats with repr, so values round-trip
    return path


def round_member(lam, beta):
    return {"milnor_lambda": [lam, lam, lam], "beta": beta}


def rotated(data, R):
    """The same geometry in the orthonormal frame e'_i = sum_a R[i, a] e_a."""
    lam = data["milnor_lambda"]
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k], c[j, i, k] = lam[k], -lam[k]
    c2 = np.einsum("ia,jb,abc,kc->ijk", R, R, c, R)
    theta = R @ np.asarray(data.get("theta", [0.0, 0.0, 0.0]))
    return {
        "structure_constants": c2.tolist(),
        "theta": theta.tolist(),
        "beta": data.get("beta", 0.0),
    }


def gauge_rescaled(data, s):
    """Constant gauge change g -> e^{2s} g: c, theta and beta (weight -1) scale by e^{-s}."""
    f = math.exp(-s)
    return {
        "milnor_lambda": [v * f for v in data["milnor_lambda"]],
        "theta": [v * f for v in data.get("theta", [0.0, 0.0, 0.0])],
        "beta": data["beta"] * f,
    }


def axis_rotation(axis, angle):
    a = np.asarray(axis, dtype=float)
    a /= np.linalg.norm(a)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


# The signed permutation matrices of determinant 1 other than the identity:
# frame changes that keep a Milnor frame diagonal.
SIGNED_PERMUTATIONS = [
    P
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
    for P in [np.eye(3)[list(perm)] * np.array(signs)[:, None]]
    if np.linalg.det(P) > 0 and not np.array_equal(P, np.eye(3))
]


class Workload:
    name = ""
    unit = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def path(self, *parts):
        return os.path.join(self.workdir, "-".join(str(p) for p in parts) + ".json")

    def warmup(self):
        return self.round(WARMUP, 0)

    def round(self, stream, index):
        raise NotImplementedError

    def transport_samples(self):
        """Certified geometry files whose transports the run spot-checks."""
        return []


class AlgebraSweep(Workload):
    """verify-algebra at TRIALS draws per identity, one derived seed per round.

    A round is a single call, so the median round is taken over many short
    calls; each call's fixed cost (argument parsing, report rendering) is
    under 1 % of its time.
    """

    name = "algebra_sweep"
    unit = "trials"
    TRIALS = 250

    def warmup(self):
        return [self._op(0, 20)]

    def _op(self, seed, trials):
        argv = ["verify-algebra", "--trials", str(trials), "--seed", str(seed)]
        return Op([argv], lambda res: checks.check_verify_algebra(res[0], trials, seed))

    def round(self, stream, index):
        seed = rng_for(self.seed, stream, index).integers(0, 2**31)
        return [self._op(int(seed), self.TRIALS)]


class HolonomyLoops(Workload):
    """killing --loops LOOPS on a fixed set of certified geometries."""

    name = "holonomy_loops"
    unit = "loops"
    LOOPS = 250
    MEMBERS = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = rng_for(seed, FIXED)
        self.files = [
            write_geometry(self.path("round_s3"), ROUND_S3),
            write_geometry(self.path("berger_theta"), BERGER),
            write_geometry(self.path("flat"), FLAT),
        ]
        for k in range(self.MEMBERS):
            lam = float(rng.uniform(0.5, 6.0))
            beta = float(rng.choice([-1.0, 1.0])) * lam / 4.0
            self.files.append(write_geometry(self.path("member", k), round_member(lam, beta)))

    def warmup(self):
        return [self._op(f, 0, 5) for f in self.files]

    def _op(self, path, seed, loops):
        argv = ["killing", path, "--loops", str(loops), "--seed", str(seed)]
        return Op([argv], lambda res: checks.check_killing(res[0], True, loops))

    def round(self, stream, index):
        seeds = rng_for(self.seed, stream, index).integers(0, 2**31, len(self.files))
        return [self._op(f, int(s), self.LOOPS) for f, s in zip(self.files, seeds)]

    def transport_samples(self):
        return self.files


class GeometryCensus(Workload):
    """Fresh geometries through analyze then killing --loops LOOPS.

    A round holds ten geometries: three certified round-family members, two
    with beta off by 2-5 % (both commands must say fail), two gauge rescales
    and one signed-permutation frame of the Berger sphere, and two operations
    that hit known faults and are counted as failed: the Berger sphere in a
    generic rotated frame (killing cannot build its group model) and a large
    certified round member (killing's absolute Killing-residual bound). The
    two fault inputs vary with the round index but not with the seed.
    """

    name = "geometry_census"
    unit = "geometries"
    LOOPS = 20
    CERTIFIED = 3
    PERTURBED = 2
    RESCALED = 2

    def _op(self, path, label, seed):
        argvs = [
            ["analyze", path],
            ["killing", path, "--loops", str(self.LOOPS), "--seed", str(seed)],
        ]
        return Op(argvs, lambda res: checks.check_geometry(res, label))

    def _members(self, rng):
        out = []
        for _ in range(self.CERTIFIED):
            lam = float(rng.uniform(0.5, 6.0))
            out.append((lam, float(rng.choice([-1.0, 1.0])) * lam / 4.0))
        for _ in range(self.PERTURBED):
            lam = float(rng.uniform(0.5, 6.0))
            off = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.05))
            out.append((lam, float(rng.choice([-1.0, 1.0])) * lam / 4.0 * (1.0 + off)))
        return out

    def warmup(self):
        return self.round(WARMUP, 0, faults=False)

    def round(self, stream, index, faults=True):
        rng = rng_for(self.seed, stream, index)
        geoms = [(round_member(lam, b), checks.round_family_certified(lam, b)) for lam, b in self._members(rng)]
        for _ in range(self.RESCALED):
            geoms.append((gauge_rescaled(BERGER, float(rng.uniform(-1.0, 1.0))), True))
        P = SIGNED_PERMUTATIONS[int(rng.integers(len(SIGNED_PERMUTATIONS)))]
        geoms.append((rotated(BERGER, P), True))
        if faults:
            # (a) a generic frame rotation of a certified geometry
            angle = 0.3 + 0.25 * (index % 10)
            geoms.append((rotated(BERGER, axis_rotation((1.0, 2.0, 3.0), angle)), True))
            # (b) a certified round member at scale 200-290
            lam = 200.0 + 10.0 * (index % 10)
            geoms.append((round_member(lam, lam / 4.0), True))
        seeds = rng.integers(0, 2**31, len(geoms))
        return [
            self._op(write_geometry(self.path(stream, index, k), data), label, int(s))
            for k, ((data, label), s) in enumerate(zip(geoms, seeds))
        ]

    def transport_samples(self):
        """The certified round members of the first timed round."""
        members = self._members(rng_for(self.seed, TIMED, 0))[: self.CERTIFIED]
        return [
            write_geometry(self.path("sample", k), round_member(lam, beta))
            for k, (lam, beta) in enumerate(members)
        ]


class GtSearch(Workload):
    """search-gt from starts within +-0.3 of (2, 2, 2, 0, 0.5), lambda1 pinned."""

    name = "gt_search"
    unit = "searches"
    SEARCHES = 20
    CENTER = np.array([2.0, 2.0, 2.0, 0.0, 0.5])

    def round(self, stream, index):
        rng = rng_for(self.seed, stream, index)
        ops = []
        for _ in range(self.SEARCHES):
            x0 = [float(v) for v in self.CENTER + rng.uniform(-0.3, 0.3, 5)]
            argv = ["search-gt", "--x0", ",".join(repr(v) for v in x0), "--pin", "lambda1"]
            ops.append(Op([argv], lambda res, x0=x0: checks.check_search(res[0], x0, recertify)))
        return ops


def recertify(params):
    """A search-gt root must pass analyze and have scale-relative flat curvature."""
    from weylspin.geometry import WeightedDensity, analyze, milnor_geometry, residual_scale
    from weylspin.spinconn import killing_curvature

    g = milnor_geometry(params[:3], (0.0, 0.0, params[3]))
    beta = WeightedDensity(params[4], -1.0)
    if not analyze(g, beta, checks.RECERT_TOL).verdict:
        raise checks.Wrong(f"search-gt root {params} fails analyze")
    curv = killing_curvature(g, beta).residual / residual_scale(g, beta) ** 2
    if not curv < checks.RECERT_TOL:
        raise checks.Wrong(f"search-gt root {params} has Killing curvature {curv:.3e}")


WORKLOADS = {w.name: w for w in (AlgebraSweep, HolonomyLoops, GeometryCensus, GtSearch)}
