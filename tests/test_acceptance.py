"""Acceptance gate: one test per numbered criterion, at stated tolerance.

Each test prints a single ``criterion NN PASS`` line carrying the measured
values (visible under ``pytest -v -s`` or in the -v test listing); a failed
assert marks the criterion FAIL.  Everything here runs against the public
API only, with analytic targets hard-coded — nothing is read back from the
library being tested.
"""

import math
import time

import pytest

from covineq import config as cfg
from covineq import functions as fn
from covineq import inequalities as ineq
from covineq import kernel, measures, runner
from covineq.errors import DomainError
from covineq.isoperimetry import isoperimetric_constant

x = fn.monomial(1)
x2 = fn.monomial(2)
x3 = fn.monomial(3)


def report(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS: {detail}")


def test_criterion_01_isoperimetric_constants():
    targets = [
        (measures.laplace(0, 1), 1.0, 1e-6),
        (measures.uniform(0, 1), 2.0, 1e-6),
        (measures.gaussian(0, 1), 0.7978846, 1e-5),
        (measures.exponential(1), 1.0, 1e-6),
    ]
    got = []
    for m, want, tol in targets:
        t0 = time.perf_counter()
        v = isoperimetric_constant(m).is_value
        dt = time.perf_counter() - t0
        assert abs(v - want) < tol, (m.label, v, want)
        assert dt < 1.0, f"{m.label}: {dt:.2f}s"
        got.append(f"{m.family}={v:.7f}")
    report(1, "; ".join(got))


def test_criterion_02_kernel_covariance_equivalence():
    families = [
        measures.laplace(0, 1),
        measures.gaussian(0, 1),
        measures.uniform(0, 1),
        measures.exponential(1),
        measures.logistic(0, 1),
    ]
    t0 = time.perf_counter()
    n, worst = 0, 0.0
    for m in families:
        med = float(m.median())
        battery = [
            x,
            x2,
            x3,
            fn.ramp(med, 0.3),
            fn.piecewise_linear(
                [float(m.quantile(q)) for q in (0.05, 0.3, 0.7, 0.95)],
                [0.0, 1.5, -0.5, 2.0],
            ),
        ]
        for i in range(len(battery)):
            for j in range(i, len(battery)):
                ck = kernel.covariance_kernel(m, battery[i], battery[j])
                cd = kernel.covariance_direct(m, battery[i], battery[j])
                err = abs(ck - cd) / (1.0 + abs(cd))
                assert err <= 1e-6, (m.label, i, j, ck, cd)
                worst = max(worst, err)
                n += 1
    dt = time.perf_counter() - t0
    assert n >= 60 and dt < 20.0
    report(2, f"{n} combos, worst |Δ|/(1+|Cov|)={worst:.2e}, {dt:.1f}s")


def test_criterion_03_tail_identities():
    families = [
        measures.laplace(0, 1),
        measures.gaussian(0, 1),
        measures.uniform(0, 1),
        measures.exponential(1),
        measures.logistic(0, 1),
    ]
    worst = 0.0
    for m in families:
        zs = [float(m.quantile(t)) for t in
              [0.04 + 0.92 * i / 19.0 for i in range(20)]]
        for h in (x, x2):
            for z in zs:
                for identity in (kernel.tail_identity_left,
                                 kernel.tail_identity_right):
                    lhs, rhs = identity(m, h, z)
                    err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
                    assert err < 1e-6, (m.label, h.descriptor, z, lhs, rhs)
                    worst = max(worst, err)
    lhs, rhs = kernel.tail_identity_left(measures.uniform(0, 1), x, 0.5)
    assert abs(lhs - 0.125) < 1e-9 and abs(rhs - 0.125) < 1e-9
    report(3, f"20 pts x 5 families x 2 identities, worst rel err {worst:.2e}; "
              f"uniform z=0.5 both sides {lhs:.6f}")


def test_criterion_04_hardy_suite():
    families = [
        measures.laplace(0, 1),
        measures.gaussian(0, 1),
        measures.uniform(0, 1),
        measures.exponential(1),
    ]
    violations = 0
    total = 0
    for p in (1.5, 2.0, 3.0, 5.0):
        for m in families:
            med = float(m.median())
            for h in (x, x2, fn.ramp(med, 0.5)):
                c = kernel.hardy_certificate(m, h, med, p)
                total += 1
                violations += 0 if c.passed else 1
    assert violations == 0

    u = measures.uniform(0, 1)
    c1 = kernel.hardy_certificate(u, fn.power(-0.25), 1.0, 2.0)
    assert abs(c1.ratio - 2.0 / 3.0) < 1e-6
    c2 = kernel.hardy_certificate(u, fn.power(-0.45), 1.0, 2.0)
    assert abs(c2.ratio - 0.909) < 1e-4
    report(4, f"{total} certificates, 0 violations; uniform power ratios "
              f"{c1.ratio:.6f}, {c2.ratio:.6f}")


def test_criterion_05_poincare_sharpness():
    lap = measures.laplace(0, 1)
    p1 = ineq.sharpness_sweep(lap, 1, [1, 3, 5])
    assert all(abs(c.ratio - 1.0) < 1e-6 for c in p1)
    p2 = ineq.sharpness_sweep(lap, 2, [1, 3, 5])
    wants = [math.sqrt(1 / 2), math.sqrt(5 / 6), math.sqrt(9 / 10)]
    for c, w in zip(p2, wants):
        assert abs(c.ratio - w) < 1e-5
    ratios = [c.ratio for c in p2]
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    report(5, "p=1 odd k exact; p=2 ratios "
              + ", ".join(f"{r:.5f}" for r in ratios))


def test_criterion_06_best_constant_optimality():
    deltas = [1e-1, 1e-2, 1e-3]
    lap = measures.laplace(0, 1)
    est_l = ineq.estimate_best_constant(
        lap, runner.near_extremal_increasing(lap), deltas)
    assert est_l.ratios[0] < est_l.ratios[1] < est_l.ratios[2]
    assert abs(est_l.limit_estimate - 1.0) < 0.02

    uni = measures.uniform(0, 1)
    est_u = ineq.estimate_best_constant(
        uni, runner.near_extremal_increasing(uni), deltas)
    assert est_u.ratios[0] < est_u.ratios[1] < est_u.ratios[2]
    assert abs(est_u.limit_estimate - 0.5) < 0.01
    report(6, f"laplace limit {est_l.limit_estimate:.5f} (target 1), "
              f"uniform limit {est_u.limit_estimate:.5f} (target 0.5)")


def test_criterion_07_equality_witnesses():
    gau = measures.gaussian(0, 1)
    bl = ineq.check_brascamp_lieb(gau, x, x)
    assert abs(bl.ratio - 1.0) < 1e-6
    sides = []
    for side in ("left", "right"):
        cv = ineq.check_cov_variant(gau, x, x, side)
        assert abs(cv.ratio - 1.0) < 1e-6
        sides.append(cv.ratio)
    report(7, f"gaussian g=h=x ratios: brascamp_lieb {bl.ratio:.8f}, "
              f"cov_variant {sides[0]:.8f}/{sides[1]:.8f}")


def test_criterion_08_moment_suite():
    lap = measures.laplace(0, 1)
    mc = ineq.check_moment_comparison(lap, 2)
    assert abs(mc.lhs - 6 ** (1 / 3)) < 1e-5
    assert abs(mc.rhs - 2.0) < 1e-5

    lc = ineq.check_logconcave_moments(lap, 2)
    assert abs(lc.side_conditions["third_abs_moment"] - 6.0) < 1e-4
    assert abs(lc.side_conditions["third_moment_bound"]
               - 4 * math.sqrt(3) * 2 ** 1.5) < 1e-4
    assert lc.passed

    cs = ineq.cp_sequence([2, 3, 5, 10, 100, 1000])
    assert abs(cs[0] - 1.27091) < 1e-5
    assert all(b < a for a, b in zip(cs, cs[1:]))
    assert cs[-1] < 1.01

    for m in (lap, measures.uniform(0, 1), measures.exponential(1)):
        assert ineq.check_psi1_bound(m).passed, m.label
    report(8, f"lhs 6^(1/3)={mc.lhs:.5f} vs rhs {mc.rhs:.5f}; "
              f"E|X|^3={lc.side_conditions['third_abs_moment']:.4f} <= "
              f"{lc.side_conditions['third_moment_bound']:.4f}; "
              f"C_2={cs[0]:.5f}, C_1000={cs[-1]:.5f}")


def test_criterion_09_negative_controls():
    scaled = runner.run(cfg.parse_config({
        "measures": ["laplace:0,1"],
        "functions": ["x"],
        "checks": ["cheeger", "lp_poincare"],
        "debug_rhs_scale": 0.1,
    }))
    assert scaled.exit_code == runner.EXIT_CERT_FAILURE
    n_fail = scaled.statuses.count("fail")
    assert n_fail > 0

    with pytest.raises(DomainError):
        ineq.check_moment_comparison(measures.laplace(0, 1), 1)
    with pytest.raises(DomainError):
        fn.signed_power(0.5)
    with pytest.raises(DomainError):
        fn.abs_power(0.99)
    report(9, f"rhs x0.1 -> {n_fail} failures, exit 1; "
              "p=1 comparison and p<1 builders raise DomainError")


def test_criterion_10_determinism():
    conf = {
        "measures": ["laplace:0,1", "uniform:0,1"],
        "functions": ["x", "x^2"],
        "checks": ["cheeger", "lp_poincare", "hardy"],
        "seed": 20260819,
    }
    a = runner.run(cfg.parse_config(conf))
    b = runner.run(cfg.parse_config(conf))
    assert a.report == b.report
    assert "pwl[seed=20260819]" in a.report
    report(10, f"two seeded runs byte-identical ({len(a.report)} bytes)")
