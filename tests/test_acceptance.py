"""Acceptance gates: ten end-to-end checks of the shipped guarantees.

Each test prints one summary line with its measured values; run with -v to
see the pass/fail line per criterion.  Tolerances and runtime ceilings are
part of the contract and asserted, not logged.
"""

import time

import numpy as np
import pytest

from nullcurves import series
from nullcurves.cli import main as cli_main
from nullcurves.diagnostics import nullity_residual
from nullcurves.geometry import (
    NullVector,
    SpinorPair,
    _det,
    _tmap_entries,
    bryant_project,
    h3_minkowski,
    spinor_lift,
    spinor_project,
    tmap,
)
from nullcurves.pipelines import PipelineConfig, catalog, run_bounded_third, run_completeness_recursion
from nullcurves.rh import (
    BoundaryData,
    BoundaryDiscFamily,
    rh_approx,
    rh_null_annulus,
    rh_null_disc,
)
from nullcurves.series import SeriesMap
from nullcurves.weierstrass import kill_periods, periods

V2 = NullVector(np.array([1.0, -1.0j, 0.0]))

# frozen from the pilot run of the five-round completeness recursion;
# the budget below it is the a-priori quadratic allowance
EXTRINSIC_GROWTH_GOLDEN = 0.010762099147462401


def quarter_arc_datum(mu, epsilon, r=0.98):
    return BoundaryData(
        arc=(0.0, np.pi / 2),
        mu=np.array([mu]),
        theta=V2,
        taper=np.pi / 8,
        epsilon=epsilon,
        r=r,
    )


def test_criterion_01_nullity_exactness():
    budget = 1e-10
    timings = []
    for name in ("linear_v1", "cubic_enneper_like", "annulus_basic"):
        F = catalog(name)
        t0 = time.perf_counter()
        res = nullity_residual(F)
        timings.append(time.perf_counter() - t0)
        assert res <= budget, name
    G_disc, cert = rh_null_disc(catalog("linear_v1"), quarter_arc_datum(0.1, 0.05))
    assert cert.valid
    G_ann, cert_a = rh_null_annulus(
        catalog("annulus_basic"), quarter_arc_datum(0.05, 0.1)
    )
    assert cert_a.valid
    for G in (G_disc, G_ann):
        t0 = time.perf_counter()
        res = nullity_residual(G)
        timings.append(time.perf_counter() - t0)
        assert res <= budget
    assert max(timings) < 1.0
    print("criterion 1: all nullity residuals <= 1e-10, slowest %.3fs" % max(timings))


def test_criterion_02_spinor_cover_suite():
    t_start = time.perf_counter()

    def poly(rng, deg, dominant):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if dominant:
            # dominant constant keeps the component zero-free on the disc,
            # which is the supported zero configuration for the lift
            c *= 0.8 ** np.arange(deg + 1)
            tail = np.abs(c[1:]).sum()
            c[0] = 1.2 * max(tail, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return SeriesMap(c[None, :], 0, "disc")

    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        du, dv = rng.integers(0, 17, size=2)
        u = poly(rng, int(du), dominant=trial % 2 == 0)
        v = poly(rng, int(dv), dominant=trial % 2 == 1)
        f = spinor_project(SpinorPair(u, v))
        assert f.degree_hi <= 32
        # the covering is exactly two-sheeted: negating the pair reproduces
        # the identical coefficient matrix, no tolerance involved
        g = spinor_project(SpinorPair(u * (-1.0), v * (-1.0)))
        assert np.array_equal(f.coeffs, g.coeffs)
        back = spinor_project(spinor_lift(f))
        err = (back - f).sup_boundary(2048) / max(1.0, f.sup_boundary(2048))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t_start
    assert worst <= 1e-10
    assert elapsed < 5.0
    print("criterion 2: lift round-trip worst %.3g over 100 inputs, %.2fs" % (worst, elapsed))


def test_criterion_03_closed_form_approximation():
    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([[1.0, 0.0, 0.0]]))
    F, cert = rh_approx(f, fam, r=0.6, eps=0.05)
    assert cert.k == 6
    assert cert.cond_a == 0.0
    assert abs(cert.cond_c - 0.6**6) <= 1e-12
    assert cert.valid
    print("criterion 3: closed-form case k=%d, cond_c-0.6^6 = %.3g" % (cert.k, cert.cond_c - 0.6**6))


def test_criterion_04_certified_null_deformation():
    t0 = time.perf_counter()
    G, cert = rh_null_disc(catalog("linear_v1"), quarter_arc_datum(0.1, 0.05))
    elapsed = time.perf_counter() - t0
    assert cert.valid
    assert cert.n_samples == 4096
    assert cert.cond_a < 0.05
    assert cert.cond_b < 0.05
    assert cert.cond_c < 0.05
    assert cert.cond_d is not None and cert.cond_d < 0.05
    assert elapsed < 30.0
    print(
        "criterion 4: certificate (a-d) = (%.3g, %.3g, %.3g, %.3g) at k=%d, %.2fs"
        % (cert.cond_a, cert.cond_b, cert.cond_c, cert.cond_d, cert.k, elapsed)
    )


def test_criterion_05_period_killing_with_grid_oracle():
    t_start = time.perf_counter()
    r0 = 0.25
    u = SeriesMap(np.array([[1.0]], dtype=complex), 0, "annulus", r0)
    v = SeriesMap(np.array([[1.0, 0.0, 0.05]], dtype=complex), -1, "annulus", r0)
    res = kill_periods(SpinorPair(u, v), target=1e-10)
    newton_steps = len(res.iterations) - 1
    assert res.residual < 1e-10
    assert newton_steps <= 20

    # brute-force confirmation: scan a coarse 3-d slice of the parameter
    # space around the Newton point (constant shift of u, z and 1/z shifts
    # of v) and locate a period-map zero inside the search ball
    one = SeriesMap(np.array([[1.0]], dtype=complex), 0, "annulus", r0)
    zs = SeriesMap(np.array([[1.0]], dtype=complex), 1, "annulus", r0)
    zinv = SeriesMap(np.array([[1.0]], dtype=complex), -1, "annulus", r0)
    cx, cw, cy = res.t0[0].real, res.t0[4].real, res.t0[5].real
    best_p, best_t = np.inf, None
    for x in np.linspace(cx - 0.5, cx + 0.5, 11):
        for w in np.linspace(cw - 0.5, cw + 0.5, 11):
            for y in np.linspace(cy - 0.5, cy + 0.5, 11):
                g = spinor_project(SpinorPair(u + one * x, v + zs * w + zinv * y))
                p = periods(g).max_abs
                if p < best_p:
                    best_p, best_t = p, (x, w, y)
    elapsed = time.perf_counter() - t_start
    assert best_p < 1e-9
    assert float(np.linalg.norm(best_t)) <= 4.0  # the Newton search ball
    assert elapsed < 60.0
    print(
        "criterion 5: Newton %d steps to %.3g; grid zero |P| = %.3g at |t| = %.3f, %.1fs"
        % (newton_steps, res.residual, best_p, float(np.linalg.norm(best_t)), elapsed)
    )


def test_criterion_06_metric_factor_two():
    # the pullback metric of the real part is half the curve's: compare
    # |F'|^2 with twice the squared x-derivative of Re F, the latter taken
    # by a five-point finite-difference stencil so the two routes share no
    # code path
    worst = 0.0
    h = 1e-4
    for name in ("linear_v1", "cubic_enneper_like", "annulus_basic"):
        F = catalog(name)
        fp = F.derivative()
        rng = np.random.default_rng(7)
        lo = F.r0 + 0.05 if F.domain == "annulus" else 0.0
        zs = rng.uniform(lo, 0.97, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        for z in zs:
            sten = [np.asarray(F.eval(z + s * h)) for s in (-2, -1, 1, 2)]
            dx = (sten[0] - 8 * sten[1] + 8 * sten[2] - sten[3]).real / (12 * h)
            lhs = (np.abs(fp.eval(z)) ** 2).sum()
            rhs = 2.0 * (dx**2).sum()
            worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    assert worst <= 1e-8
    print("criterion 6: |F'|^2 vs 2|d/dx Re F|^2 worst %.3g on 600 samples" % worst)


def test_criterion_07_sl2_transfer_suite():
    rng = np.random.default_rng(11)
    pts = []
    while len(pts) < 10**4:
        a = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        b = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        p = np.stack([a * a - b * b, 1j * (a * a + b * b), 2 * a * b], axis=1)
        keep = np.abs(p[:, 2]) > 0.3
        pts.extend(p[keep])
    pts = np.array(pts[: 10**4])
    mats = _tmap_entries(pts)
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    det_err = np.abs(dets - 1.0).max()
    assert det_err <= 1e-12

    worst_q = 0.0
    for m in mats[:500]:
        h = bryant_project(m)
        assert np.abs(h - np.conj(h).T).max() <= 1e-12 * max(1.0, np.abs(h).max())
        evals = np.linalg.eigvalsh(h)
        assert evals.min() > 0.0
        x = h3_minkowski(bryant_project(m), tol=1e-10)  # raises off the hyperboloid
        worst_q = max(worst_q, abs(x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2 - 1.0))
    # sanity for the scalar path too
    p = pts[0]
    assert abs(_det(tmap(p)) - 1.0) <= 1e-12
    print("criterion 7: det defect %.3g on 1e4 points, hyperboloid defect %.3g" % (det_err, worst_q))


def test_criterion_08_completeness_recursion_trend():
    t0 = time.perf_counter()
    cfg = PipelineConfig(
        pipeline="completeness", iterations=5, delta=0.2, arcs=8, epsilon=0.05
    )
    ledger = run_completeness_recursion(cfg)
    elapsed = time.perf_counter() - t0
    intr = [row.intrinsic for row in ledger.rows]
    assert len(intr) == 6
    assert all(b > a for a, b in zip(intr, intr[1:])), intr
    growth = ledger.rows[-1].extrinsic - ledger.rows[0].extrinsic
    quad_budget = 4.0 * sum(cfg.delta_at(k) ** 2 for k in range(1, 6))
    assert growth <= quad_budget
    assert growth <= 1.05 * EXTRINSIC_GROWTH_GOLDEN
    assert elapsed < 300.0
    print(
        "criterion 8: intrinsic %s, extrinsic growth %.5f <= %.5f, %.1fs"
        % (["%.5f" % v for v in intr], growth, quad_budget, elapsed)
    )


def test_criterion_09_bounded_third_trend():
    t0 = time.perf_counter()
    cfg = PipelineConfig(
        pipeline="bounded_third", iterations=4, delta=0.2, arcs=8, epsilon=0.05
    )
    ledger = run_bounded_third(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    sup3 = [row.supF3 for row in ledger.rows]
    assert max(sup3) <= 0.2, sup3
    rounds = ledger.meta["rounds"]
    mins = [r["min_F12"] for r in rounds]
    labels = [sorted({a["theta"] for a in r["arcs"]}) for r in rounds[1:]]
    # write the planar part in the orthonormal split
    # (F1, F2) = alpha * V1/sqrt2 + beta * V2/sqrt2; the spinor lift of V1
    # is (a, 0) and of V2 is (0, b), so a V1 round moves only alpha and a
    # V2 round only beta
    sqrt2 = np.sqrt(2.0)
    G = ledger.meta["final_curve"]
    dG0 = G.derivative().eval(0.0)
    alpha_prime0 = (dG0[0] - 1j * dG0[1]) / sqrt2
    ring = G.circle_values(1.0, 4096)
    alpha = np.abs(ring[:, 0] - 1j * ring[:, 1]) / sqrt2
    geo_mean = float(np.exp(np.mean(np.log(alpha))))
    print(
        "criterion 9: sup|F3| %s, boundary min %s, alpha'(0) - sqrt2 = %.3g, "
        "geometric mean |alpha| - sqrt2 = %.3g, max|alpha| %.6f, %.1fs"
        % (
            ["%.4f" % v for v in sup3],
            ["%.6f" % v for v in mins],
            abs(alpha_prime0 - sqrt2),
            geo_mean - sqrt2,
            alpha.max(),
            elapsed,
        )
    )
    # the specified alternation ran: V2 on odd rounds, V1 on even ones
    assert labels == [["V2"], ["V1"], ["V2"], ["V1"]], labels
    # a V2 push is hermitian-orthogonal to alpha's direction, so the V2
    # rounds raise the boundary min of |(F1, F2)|
    assert mins[1] > mins[0] and mins[3] > mins[2], mins
    # every push vanishes at the base point to order k - m >= 1, so
    # alpha'(0) stays sqrt2; alpha/z has no zeros on the disc, and Jensen's
    # formula pins the boundary geometric mean of |alpha| at |alpha'(0)|.
    # A V1 round can therefore only move |alpha| around the circle (it
    # cannot raise the minimum everywhere), but it must move it: an unmoved
    # alpha = sqrt2 * z samples to within rounding of sqrt2.
    assert abs(alpha_prime0 - sqrt2) <= 1e-15
    assert abs(geo_mean - sqrt2) <= 1e-12
    assert alpha.max() > sqrt2 + 1e-12


def test_criterion_10_recurse_determinism(tmp_path, capsys):
    cfg = PipelineConfig(iterations=1, arcs=4)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["recurse", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["recurse", str(cfg_path), "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"k,delta,intrinsic")
    print("criterion 10: identical invocations, %d-byte ledgers byte-equal" % len(b1))
