"""Acceptance gate: the eleven primary criteria, one test and one printed
pass/fail line per criterion, at the stated tolerances.

Each test computes its verdict first, prints exactly one line, then asserts,
so the printed record survives regardless of which criteria fail.
"""

import numpy as np

from weylspin.clifford import E, act, j_structure
from weylspin.geometry import (
    WeightedDensity,
    analyze,
    curvature_package,
    gauge_rescale,
    gt_residual_vector,
    milnor_geometry,
)
from weylspin.identities import (
    dreieck_residual,
    first_identity_expression,
    first_identity_residual,
    integrability_residual,
    monopole_residual,
    random_rank2,
    random_spinor,
    random_two_form,
    second_identity_expression,
    second_identity_residual,
)
from weylspin.killing import (
    BASE_SPINORS,
    GroupArc,
    find_gt_parameters,
    killing_residual,
    loop_batch,
    loop_holonomy,
    milnor_theta3_family,
    min_singular_value,
    sample_transports,
    transport_operator,
)
from weylspin.spinconn import flatness, killing_curvature
from weylspin.tensors import hodge_star, kulkarni_nomizu

from test_geometry import decomposition_residual
from test_spinconn import spin_curvature_mismatch

EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[_i, _j, _k], EPS3[_j, _i, _k] = 1.0, -1.0

ROUND = milnor_geometry((2.0, 2.0, 2.0))


def record(number, description, ok):
    print(f"[criterion {number:02d}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def kn_oracle(w, h):
    # brute-force slot-relabel evaluation, summation order matched to the
    # production einsum implementation so equality can be exact
    out = np.empty((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    t1 = w[i, k] * h[j, l]
                    t2 = w[j, l] * h[i, k]
                    t3 = w[i, l] * h[k, j]
                    t4 = w[j, k] * h[i, l]
                    out[i, j, k, l] = ((t1 + t2) - t3) - t4
    return out


def milnor_sweep(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-1, 1, 3)))
    return out


def test_criterion_01_clifford_kernel():
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(3):
        for j in range(3):
            rel = E[i] @ E[j] + E[j] @ E[i] + 2.0 * (i == j) * np.eye(2)
            worst = max(worst, float(np.max(np.abs(rel))))
    for _ in range(1000):
        psi = random_spinor(rng)
        for i in range(3):
            for j in range(3):
                # e_i e_j psi = -delta_ij psi - sum_k eps_ijk e_k psi; the
                # delta term drops for i != j, which is the dimension-3 rule
                lhs = E[i] @ (E[j] @ psi)
                rhs = -(i == j) * psi - np.einsum("k,kst,t->s", EPS3[i, j], E, psi)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    record(1, f"clifford generator relations, residual {worst:.2e} < 1e-14", worst < 1e-14)


def test_criterion_02_contraction_lemma():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        worst = max(worst, dreieck_residual(random_rank2(rng), random_spinor(rng)))
    exact = all(
        np.array_equal(
            kulkarni_nomizu(w := rng.standard_normal((3, 3)), h := rng.standard_normal((3, 3))),
            kn_oracle(w, h),
        )
        for _ in range(100)
    )
    ok = worst < 1e-12 and exact
    record(2, f"contraction lemma {worst:.2e} < 1e-12, oracle exact: {exact}", ok)


def test_criterion_03_faraday_identity_suite():
    rng = np.random.default_rng(103)
    worst = {"eq4": 0.0, "eq5": 0.0, "eq7": 0.0, "eq8": 0.0}
    control = 0.0
    for _ in range(1000):
        F = random_two_form(rng)
        psi = random_spinor(rng)
        grad = 0.25 * hodge_star(F)
        worst["eq4"] = max(worst["eq4"], first_identity_residual(F, psi))
        worst["eq5"] = max(worst["eq5"], second_identity_residual(F, psi))
        star_double = np.einsum("ijk,ij->k", EPS3, F)
        worst["eq7"] = max(worst["eq7"], float(np.max(np.abs(8.0 * grad - star_double))))
        worst["eq8"] = max(worst["eq8"], monopole_residual(F, psi))
        control = max(
            control, first_identity_residual(F, psi, grad=1.1 * grad)
        )
    top = max(worst.values())
    ok = top < 1e-12 and control > 0.1
    record(3, f"faraday identity suite {top:.2e} < 1e-12, break control {control:.2f} > 0.1", ok)


def test_criterion_04_curvature_decomposition():
    worst = 0.0
    for g in milnor_sweep(104, 200):
        worst = max(worst, decomposition_residual(curvature_package(g)))
    record(4, f"curvature decomposition residual {worst:.2e} < 1e-10", worst < 1e-10)


def test_criterion_05_spin_curvature_cross_check():
    worst = 0.0
    for g in milnor_sweep(104, 200):  # same sweep distribution as criterion 4
        worst = max(worst, spin_curvature_mismatch(g))
    record(5, f"spin curvature formula vs commutator {worst:.2e} < 1e-10", worst < 1e-10)


def test_criterion_06_round_sphere_end_to_end():
    rng = np.random.default_rng(106)
    pkg = curvature_package(ROUND)
    checks = [abs(pkg.scalar - 6.0) < 1e-12]
    for b in (0.5, -0.5):
        beta = WeightedDensity(b)
        checks.append(analyze(beta=beta, g=ROUND).verdict)
        checks.append(np.max(np.abs(gt_residual_vector(ROUND, beta))) < 1e-12)
        checks.append(abs(pkg.scalar - 24.0 * b * b) < 1e-12)
        checks.append(killing_curvature(ROUND, beta).residual < 1e-12)
    beta = WeightedDensity(0.5)
    batch = loop_batch(ROUND, beta, rng, 50)
    worst_dev = float(np.max(loop_holonomy(batch)))
    checks.append(worst_dev < 1e-9)
    transports = sample_transports(ROUND, beta, batch.legs)
    fd = killing_residual(ROUND, beta, transports[:20], h=1e-5)
    checks.append(fd < 1e-7)
    min_sv = min_singular_value(transports)
    checks.append(min_sv > 0.1)
    ok = all(checks)
    record(
        6,
        f"round sphere end-to-end (holonomy {worst_dev:.2e}, fd {fd:.2e}, sv {min_sv:.2f})",
        ok,
    )


def certified_and_random_samples():
    """500 (geometry, beta) samples: certified GT instances, near misses, and
    a broad random cloud."""
    samples = []
    for a in (0.5, 1.0, 2.0, 3.0):
        for sign in (1.0, -1.0):
            samples.append((milnor_geometry((a, a, a)), WeightedDensity(sign * a / 4.0)))
    samples.append((milnor_geometry((0.0, 0.0, 0.0)), WeightedDensity(0.0)))
    for x0 in ((2.2, 1.9, 2.1, 0.05, 0.4), (2.2, 1.9, 2.1, 5.0, 0.4)):
        res = find_gt_parameters(x0, pin=("lambda1", 2.0))
        samples.append(milnor_theta3_family(res.params))
    for eps in (1e-3, 1e-2, 0.1):
        samples.append((milnor_geometry((2.0, 2.0, 2.0), (0.0, 0.0, eps)), WeightedDensity(0.5)))
        samples.append((milnor_geometry((2.0, 2.0 + eps, 2.0)), WeightedDensity(0.5)))
    rng = np.random.default_rng(107)
    while len(samples) < 500:
        g = milnor_geometry(rng.uniform(-2, 2, 3), 0.5 * rng.uniform(-1, 1, 3))
        samples.append((g, WeightedDensity(float(rng.uniform(-1, 1)))))
    return samples


def test_criterion_07_flatness_equivalence_sweep():
    flat_count = 0
    counterexamples = 0
    for g, beta in certified_and_random_samples():
        flat = killing_curvature(g, beta).residual
        rep = analyze(g, beta)
        gt = max(rep.n_ew, rep.n_scal, rep.n_star)
        if flat < 1e-10:
            flat_count += 1
            if gt >= 1e-8:
                counterexamples += 1
        if gt < 1e-10 and flat >= 1e-8:
            counterexamples += 1
    ok = counterexamples == 0 and flat_count >= 10
    record(
        7,
        f"flatness-GT equivalence: {flat_count} certified, {counterexamples} counterexamples",
        ok,
    )


def test_criterion_08_integrability_on_killing_spinors():
    rng = np.random.default_rng(108)
    instances = [
        (ROUND, WeightedDensity(0.5)),
        (ROUND, WeightedDensity(-0.5)),
        (milnor_geometry((3.0, 3.0, 3.0)), WeightedDensity(0.75)),
        (milnor_geometry((0.0, 0.0, 0.0)), WeightedDensity(0.0)),
    ]
    res = find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=("lambda1", 2.0))
    instances.append(milnor_theta3_family(res.params))
    worst = worst_flat = 0.0
    for g, beta in instances:
        worst_flat = max(worst_flat, flatness(g, beta))
        pkg = curvature_package(g)
        for _ in range(10):
            U = sample_transports(g, beta, [rng.uniform(-1, 1, (2, 3))])[0]
            for psi in BASE_SPINORS:
                worst = max(worst, integrability_residual(g, beta, U @ psi, pkg))
    ok = worst_flat < 1e-8 and worst < 1e-8
    record(
        8,
        f"flatness {worst_flat:.2e} < 1e-8, integrability on constructed sections {worst:.2e} < 1e-8",
        ok,
    )


def test_criterion_09_gauge_invariance():
    rng = np.random.default_rng(109)
    worst = 0.0
    verdict_flips = 0
    draws = [(ROUND, WeightedDensity(0.5))]
    for _ in range(40):
        g = milnor_geometry(rng.uniform(-2, 2, 3), rng.uniform(-0.5, 0.5, 3))
        draws.append((g, WeightedDensity(float(rng.uniform(-1, 1)))))
    for g, beta in draws:
        rep = analyze(g, beta)
        for s in (-1.0, 0.7, 2.0):
            rep2 = analyze(*gauge_rescale(g, beta, s))
            worst = max(
                worst,
                abs(rep.n_ew - rep2.n_ew),
                abs(rep.n_scal - rep2.n_scal),
                abs(rep.n_star - rep2.n_star),
            )
            verdict_flips += rep.verdict != rep2.verdict
    ok = worst < 1e-12 and verdict_flips == 0
    record(9, f"gauge invariance of normalized residuals {worst:.2e} < 1e-12", ok)


def test_criterion_10_parameter_search():
    res = find_gt_parameters((2.2, 1.9, 2.1, 0.05, 0.4), pin=("lambda1", 2.0))
    ok = res.residual_norm < 1e-10 and res.iterations <= 50
    record(
        10,
        f"newton search residual {res.residual_norm:.2e} in {res.iterations} iterations",
        ok,
    )


def test_criterion_11_quaternionic_structure():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(300):
        v = rng.uniform(-2, 2, 3)
        psi = random_spinor(rng)
        worst = max(
            worst,
            float(np.max(np.abs(j_structure(act(v, psi)) - act(v, j_structure(psi))))),
        )
    for _ in range(200):
        F = random_two_form(rng)
        psi = random_spinor(rng)
        for expr in (first_identity_expression, second_identity_expression):
            d = expr(F, j_structure(psi)) - j_structure(expr(F, psi))
            worst = max(worst, float(np.max(np.abs(d))))
        worst = max(
            worst, abs(monopole_residual(F, psi) - monopole_residual(F, j_structure(psi)))
        )
    beta = WeightedDensity(0.5)
    for _ in range(30):
        arc = GroupArc(rng.uniform(-1.5, 1.5, 3))
        psi = random_spinor(rng)
        U = transport_operator(ROUND, beta, arc)
        d = U @ j_structure(psi) - j_structure(U @ psi)
        worst = max(worst, float(np.max(np.abs(d))))
    record(11, f"quaternionic equivariance {worst:.2e} < 1e-10", worst < 1e-10)
