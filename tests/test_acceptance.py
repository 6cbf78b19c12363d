"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run).  Derived anchors are recomputed by their
oracles inside the tests rather than trusted as literals.
"""

import math

import numpy as np
import pytest

from multifinsler.connection import (
    connection_state,
    horizontal_compatibility_residual,
    landsberg_berwald,
    nonlinear_connection_fd,
    variational_spray,
)
from multifinsler.dim2 import (
    cartan_structure_residuals,
    frame_derivatives,
    frame_from_state,
    invariant_I_oracle,
    invariants_JK,
)
from multifinsler.finsler import (
    TangentSample,
    fd_fundamental_tensor,
    finsler_norm,
    finsler_state,
    riemannian_detect,
)
from multifinsler.geodesic import action_of_path, integrate_geodesic
from multifinsler.measure import (
    DegeneratePairError,
    busemann_hausdorff,
    busemann_hausdorff_bimetric,
    busemann_hausdorff_quadrature,
    complete_elliptic_e,
    complete_elliptic_k,
    holmes_thompson,
    holmes_thompson_circle_oracle,
    holmes_thompson_disc_oracle,
    indicatrix_reduction_check,
    lambda_pair,
)

from conftest import (
    const_field,
    field,
    random_bimetric_space,
    random_samples,
    random_spd,
    space_of,
)
from pencil_oracles import elliptic_e_quadrature, pencil_integrals, pencil_integrals_quadrature


def report(name: str, passed: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_01_determinant_identity():
    # relative residual <= 1e-10 over 1000 samples of constant-plus-polynomial
    # SPD bimetrics
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        sp = random_bimetric_space(rng)
        for s in random_samples(rng, 50):
            st = finsler_state(sp, s)
            lhs = st.det_g / st.F**3
            rhs = float(np.sum(st.a_det / st.F_mu**3))
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    report("01 determinant identity", worst <= 1e-10, f"max rel residual {worst:.3e}, tol 1e-10")


def test_criterion_02_fundamental_tensor_oracle_and_homogeneity():
    rng = np.random.default_rng(102)
    worst = 0.0
    hom = 0.0
    for _ in range(10):
        sp = random_bimetric_space(rng)
        for s in random_samples(rng, 50):
            st = finsler_state(sp, s)
            gh = fd_fundamental_tensor(sp, s.x, s.y)
            worst = max(worst, float(np.max(np.abs(st.g - gh)) / np.max(np.abs(st.g))))
            for lam in (0.5, 2.0):
                f2, _ = finsler_norm(sp, TangentSample(s.x, lam * s.y))
                hom = max(hom, abs(f2 - lam * st.F) / (lam * st.F))
    ok = worst <= 1e-6 and hom <= 1e-12
    report("02 fundamental tensor vs FD Hessian + homogeneity", ok,
           f"hessian rel {worst:.3e} (tol 1e-6), homogeneity {hom:.3e} (tol 1e-12), 500 samples")


def test_criterion_03_euler_frame_suite():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(8):
        sp = random_bimetric_space(rng)
        for s in random_samples(rng, 25):
            st = finsler_state(sp, s)
            fr = frame_from_state(st)
            i_val = fr.I
            mmm = np.einsum("i,j,k->ijk", fr.m, fr.m, fr.m)
            worst = max(
                worst,
                abs(st.l @ st.l_up - 1.0),
                float(np.max(np.abs(st.h @ s.y))),
                float(np.max(np.abs(np.einsum("ijk,k->ij", st.C, s.y)))),
                abs(st.l_up @ fr.m),
                abs(fr.m @ fr.m_up - 1.0),
                float(np.max(np.abs(st.F * st.C - i_val * mmm))),
            )
    report("03 Euler/frame suite", worst <= 1e-8, f"max residual {worst:.3e}, tol 1e-8 per sample")


def test_criterion_04_connection_suite():
    rng = np.random.default_rng(104)
    delta_f = spray_res = n_res = 0.0
    ident = 0.0
    a_rel = 0.0
    # all four matrix-element identities plus the log-gradient relation on
    # 500 random samples over random bimetrics
    for _ in range(10):
        sp = random_bimetric_space(rng)
        for s in random_samples(rng, 50):
            cs = connection_state(sp, s)
            delta_f = max(delta_f, horizontal_compatibility_residual(sp, cs))
            r = cartan_structure_residuals(sp, cs)
            ident = max(ident, r.sector_l_dN, r.sector_m_dN_l, r.sector_m_dN_m, r.cross_dN_identity)
            a_rel = max(a_rel, r.cross_log_gradient)
    # FD-based spray and connection comparisons on a deterministic subset
    sp = space_of(const_field("alpha", np.eye(2)), field("beta", [["4", "0"], ["0", "1+x1^2"]]))
    rng2 = np.random.default_rng(1040)
    for s in random_samples(rng2, 40):
        cs = connection_state(sp, s)
        gv = variational_spray(sp, s)
        spray_res = max(spray_res, float(np.max(np.abs(cs.G - gv)) / (1.0 + np.max(np.abs(cs.G)))))
        nf = nonlinear_connection_fd(sp, s)
        n_res = max(n_res, float(np.max(np.abs(cs.N - nf))))
    ok = delta_f <= 1e-8 and spray_res <= 1e-6 and n_res <= 1e-5 and ident <= 1e-6 and a_rel <= 1e-6
    report(
        "04 connection suite", ok,
        f"deltaF {delta_f:.2e} (1e-8), spray {spray_res:.2e} (1e-6), N-vs-FD {n_res:.2e} (1e-5), "
        f"identities {ident:.2e} (1e-6), log-gradient {a_rel:.2e} (1e-6), 500 samples",
    )


def test_criterion_05_structure_equation_residuals():
    rng = np.random.default_rng(105)
    worst = 0.0
    count = 0
    for _ in range(5):
        sp = random_bimetric_space(rng)
        for s in random_samples(rng, 40):
            r = cartan_structure_residuals(sp, connection_state(sp, s))
            worst = max(
                worst,
                r.eq1_A_plus_I, r.eq1_B_minus_1, r.eq1_C,
                r.eq2_A_plus_1, r.eq2_C,
                r.eq3_B,
            )
            count += 1
    report("05 structure-equation residuals", worst <= 1e-6,
           f"max coefficient residual {worst:.3e} over {count} samples, tol 1e-6")


def test_criterion_06_invariants():
    rng = np.random.default_rng(106)
    i_res = j_res = 0.0
    for _ in range(5):
        sp = random_bimetric_space(rng)
        for s in random_samples(rng, 10):
            fr = frame_from_state(finsler_state(sp, s))
            i_res = max(i_res, abs(fr.I - invariant_I_oracle(sp, fr)))
    sp = space_of(const_field("alpha", np.eye(2)), field("beta", [["4", "0"], ["0", "1+x1^2"]]))
    for s in random_samples(np.random.default_rng(1060), 10):
        j_val, _ = invariants_JK(sp, connection_state(sp, s))

        def i_field(xx, yy):
            return frame_from_state(finsler_state(sp, TangentSample(xx, yy))).I

        _, e2_i, _ = frame_derivatives(connection_state(sp, s), i_field)
        j_res = max(j_res, abs(j_val - e2_i))
    comp = "4/(1+x1^2+x2^2)^2"
    sphere = space_of(field("round", [[comp, "0"], ["0", comp]]))
    k_res = 0.0
    for s in random_samples(np.random.default_rng(1061), 5, box=0.7):
        _, k_val = invariants_JK(sphere, connection_state(sphere, s))
        k_res = max(k_res, abs(k_val - 1.0))
    ok = i_res <= 1e-6 and j_res <= 1e-5 and k_res <= 1e-6
    report("06 invariants", ok,
           f"I modes {i_res:.2e} (1e-6), J vs directional {j_res:.2e} (1e-5), sphere K-1 {k_res:.2e} (1e-6)")


def test_criterion_07_elliptic_suite():
    rng = np.random.default_rng(107)
    closed_quad = 0.0
    sym = 0.0
    for _ in range(100):
        a, b = random_spd(rng), random_spd(rng)
        fc, sc = pencil_integrals(a, b)
        fq, sq = pencil_integrals_quadrature(a, b)
        closed_quad = max(closed_quad, abs(fc - fq) / fc, abs(sc - sq) / sc)
        f_swap, _ = pencil_integrals(b, a)
        sym = max(sym, abs(fc - f_swap) / fc)
    k0, e0 = complete_elliptic_k(0.0), complete_elliptic_e(0.0)
    anchors = max(abs(k0 - math.pi / 2), abs(e0 - math.pi / 2), abs(complete_elliptic_e(1.0) - 1.0))
    ok = closed_quad <= 1e-9 and sym <= 1e-12 and anchors <= 1e-14
    report("07 elliptic/pencil suite", ok,
           f"closed-vs-quadrature {closed_quad:.2e} (1e-9), symmetry {sym:.2e} (1e-12), "
           f"endpoint anchors {anchors:.2e} (1e-14), 100 pairs")


def test_criterion_08_holmes_thompson():
    rng = np.random.default_rng(108)
    worst = 0.0
    n_cfg = 0
    # 100 configurations: random constant bimetrics plus structured cases
    for _ in range(98):
        a, b = random_spd(rng), random_spd(rng)
        sp = space_of(const_field("a", a), const_field("b", b))
        closed = holmes_thompson(sp, [0.0, 0.0]).value
        disc = holmes_thompson_disc_oracle(sp, [0.0, 0.0])
        worst = max(worst, abs(closed - disc) / closed)
        n_cfg += 1
    x_dep = space_of(const_field("alpha", np.eye(2)), field("beta", [["4", "0"], ["0", "1+x1^2"]]))
    tri = space_of(const_field("alpha", np.eye(2)), const_field("beta", np.diag([4.0, 1.0])),
                   field("gamma", [["2+x2^2", "0.3"], ["0.3", "3"]]))
    for sp, x in ((x_dep, [0.3, 0.1]), (tri, [0.2, -0.4])):
        closed = holmes_thompson(sp, x).value
        disc = holmes_thompson_disc_oracle(sp, x)
        circ = holmes_thompson_circle_oracle(sp, x)
        worst = max(worst, abs(closed - disc) / closed, abs(closed - circ) / closed)
        n_cfg += 1

    # exact anchors, recomputed by the disc oracle rather than hardcoded
    single = space_of(const_field("a", np.eye(2)))
    double = space_of(const_field("a", np.eye(2)), const_field("b", np.eye(2)))
    ref = space_of(const_field("a", np.eye(2)), const_field("b", np.diag([4.0, 1.0])))
    anchors = [
        (holmes_thompson(single, [0, 0]).value, holmes_thompson_disc_oracle(single, [0, 0])),
        (holmes_thompson(double, [0, 0]).value, holmes_thompson_disc_oracle(double, [0, 0])),
        (holmes_thompson(ref, [0, 0]).value, holmes_thompson_disc_oracle(ref, [0, 0])),
    ]
    anchor_res = max(abs(c - d) / d for c, d in anchors)
    assert anchors[0][1] == pytest.approx(1.0, rel=1e-9)
    assert anchors[1][1] == pytest.approx(4.0, rel=1e-9)
    # cross terms contribute 2 * (2/pi) * sqrt(lam_+ det a) E per ordering
    oracle_anchor = 3.0 + (8.0 / math.pi) * elliptic_e_quadrature(math.sqrt(3) / 2)
    assert anchors[2][1] == pytest.approx(oracle_anchor, rel=1e-9)
    ok = worst <= 1e-6 and anchor_res <= 1e-6
    report("08 Holmes-Thompson", ok,
           f"mode agreement {worst:.2e} (1e-6) over {n_cfg} configurations, anchor spread {anchor_res:.2e}")


def test_criterion_09_busemann_hausdorff():
    rng = np.random.default_rng(109)
    worst = 0.0
    checked = 0
    while checked < 50:
        a = random_spd(rng)
        b = a + random_spd(rng)
        sp = space_of(const_field("a", a), const_field("b", b))
        try:
            c = busemann_hausdorff_bimetric(sp, [0, 0]).value
        except DegeneratePairError:
            continue
        q = busemann_hausdorff_quadrature(sp, [0, 0])
        worst = max(worst, abs(c - q) / q)
        checked += 1
    # degenerate pair: busemann_hausdorff falls back and returns the Riemannian value
    prop = space_of(const_field("a", np.eye(2)), field("p", [["1+x1^2", "0"], ["0", "1+x1^2"]]))
    x = [0.5, -0.3]
    rep = busemann_hausdorff(prop, x)
    riem = (1.0 + math.sqrt(1.0 + x[0] ** 2)) ** 2
    degen = abs(rep.value - riem) / riem
    ok = worst <= 1e-6 and rep.fallback and degen <= 1e-10
    report("09 Busemann-Hausdorff", ok,
           f"closed-vs-quadrature {worst:.2e} (1e-6) over {checked} pairs, "
           f"degenerate fallback residual {degen:.2e} (1e-10)")


def test_criterion_10_indicatrix_reduction():
    spaces = [
        space_of(const_field("a", np.array([[2.0, 0.4], [0.4, 1.5]]))),
        space_of(const_field("a", np.eye(2)), const_field("b", np.diag([4.0, 1.0]))),
        space_of(const_field("alpha", np.eye(2)), field("beta", [["4", "0"], ["0", "1+x1^2"]])),
    ]
    worst = 0.0
    for sp in spaces:
        for w in ("one", "det"):
            r = indicatrix_reduction_check(sp, [0.2, 0.1], w)
            worst = max(worst, r["residual"] / (1.0 + abs(r["circle"])))
    report("10 indicatrix reduction", worst <= 1e-8, f"max residual {worst:.3e}, tol 1e-8, f in {{1, det g}}")


def test_criterion_11_geodesics():
    sp = space_of(const_field("alpha", np.eye(2)), field("beta", [["4", "0"], ["0", "1+x1^2"]]))
    x0, y0 = [0.2, -0.3], [0.8, 0.6]
    p = integrate_geodesic(sp, x0, y0, 1.0, 1e-3)
    drift = float(np.max(np.abs(p.F - p.F[0])) / p.F[0])

    prop = space_of(const_field("a", np.eye(2)), field("p", [["1+x1^2", "0"], ["0", "1+x1^2"]]))
    eff = space_of(field("eff", [["(1+sqrt(1+x1^2))^2", "0"], ["0", "(1+sqrt(1+x1^2))^2"]]))
    p1 = integrate_geodesic(prop, [0.1, -0.2], [0.7, 0.4], 1.0, 1e-3)
    p2 = integrate_geodesic(eff, [0.1, -0.2], [0.7, 0.4], 1.0, 1e-3)
    prop_dev = float(np.max(np.abs(p1.x - p2.x)))

    ref = integrate_geodesic(sp, x0, y0, 1.0, 1.0 / 1024)
    e1 = np.max(np.abs(integrate_geodesic(sp, x0, y0, 1.0, 1.0 / 32).x[-1] - ref.x[-1]))
    e2 = np.max(np.abs(integrate_geodesic(sp, x0, y0, 1.0, 1.0 / 64).x[-1] - ref.x[-1]))
    ratio = float(e1 / e2)

    ge = integrate_geodesic(sp, [0.0, 0.0], [1.0, 0.2], 1.0, 0.01)
    base = action_of_path(sp, ge.t, ge.x).total
    rng = np.random.default_rng(111)
    bump = np.sin(np.pi * ge.t / ge.t[-1])
    perturbed = []
    for _ in range(10):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        perturbed.append(action_of_path(sp, ge.t, ge.x + 0.02 * np.outer(bump, d)).total)
    minimal = base < min(perturbed)

    ok = drift <= 1e-8 and prop_dev <= 1e-6 and 12.0 <= ratio <= 20.0 and minimal
    report("11 geodesics", ok,
           f"drift {drift:.2e} (1e-8), proportional-pair dev {prop_dev:.2e} (1e-6), "
           f"RK4 ratio {ratio:.1f} (in [12,20]), action minimal {minimal}")


def test_criterion_12_classification():
    rng = np.random.default_rng(112)
    prop = space_of(const_field("a", np.eye(2)), field("p", [["1+x1^2", "0"], ["0", "1+x1^2"]]))
    samples = random_samples(rng, 25)
    verdict = riemannian_detect(prop, [s.x for s in samples])
    c_max_prop = max(float(np.max(np.abs(finsler_state(prop, s).C))) for s in samples)

    bi = space_of(const_field("a", np.eye(2)), const_field("b", np.diag([4.0, 1.0])))
    verdict_bi = riemannian_detect(bi, [s.x for s in samples])
    s0 = TangentSample([0.0, 0.0], [1.0, 1.0])
    i_val = frame_from_state(finsler_state(bi, s0)).I
    lb = landsberg_berwald(bi, s0)
    berwald_res = float(np.max(np.abs(lb.C_horizontal)))
    # constant non-proportional metrics are locally Minkowski: the main scalar
    # is nonzero while the Berwald residual vanishes (recorded as documented
    # behavior; the Landsberg<->Riemannian equivalence is checked only for
    # x-dependent data elsewhere)
    ok = (
        verdict.riemannian and c_max_prop <= 1e-10
        and not verdict_bi.riemannian and abs(i_val) > 1e-3 and berwald_res <= 1e-6
    )
    report("12 classification", ok,
           f"proportional: riemannian={verdict.riemannian}, max|C| {c_max_prop:.2e} (1e-10); "
           f"constant non-proportional: I {i_val:.3f} != 0, Berwald residual {berwald_res:.2e} (1e-6)")
