"""Null-cone geometry: spinor parametrization, lifts, the SL2 transfer."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcurves import geometry
from nullcurves.errors import (
    NotInH3Error,
    NotInNullConeError,
    NotInSL2Error,
    PoleError,
    UnsupportedZeroConfigurationError,
)
from nullcurves.geometry import (
    H3Point,
    NullVector,
    SL2Point,
    SpinorPair,
    bryant_project,
    h3_minkowski,
    null_residual,
    spinor_bilinear,
    spinor_lift,
    spinor_project,
    tmap,
    tmap_on_curve,
)
from nullcurves.pipelines import catalog
from nullcurves.series import SeriesMap


def pair_from_coeffs(u_coeffs, v_coeffs, lo_u=0, lo_v=0, domain="disc", r0=None):
    u = SeriesMap(np.asarray(u_coeffs, dtype=complex)[None, :], lo_u, domain, r0)
    v = SeriesMap(np.asarray(v_coeffs, dtype=complex)[None, :], lo_v, domain, r0)
    return SpinorPair(u, v)


# -- null vectors and the quadratic cover -------------------------------------


def test_null_vector_accepts_cone_points():
    v = NullVector(np.array([1.0, 1j, 0.0]))
    assert null_residual(v.v) < 1e-15


def test_null_vector_rejects_off_cone():
    with pytest.raises(NotInNullConeError):
        NullVector(np.array([1.0, 0.0, 0.0]))


def test_null_vector_rejects_origin():
    with pytest.raises(NotInNullConeError):
        NullVector(np.zeros(3))


def test_spinor_project_pointwise():
    r = np.random.default_rng(0)
    for _ in range(20):
        uc = r.normal(size=4) + 1j * r.normal(size=4)
        vc = r.normal(size=3) + 1j * r.normal(size=3)
        s = pair_from_coeffs(uc, vc)
        f = spinor_project(s)
        ang = r.uniform(0, 2 * np.pi)
        z = r.uniform(0, 0.95) * np.exp(1j * ang)
        u = s.u.eval(z)[0]
        v = s.v.eval(z)[0]
        want = np.array([u * u - v * v, 1j * (u * u + v * v), 2 * u * v])
        assert np.abs(f.eval(z) - want).max() < 1e-12 * max(1, np.abs(want).max())
        # image lies on the null cone
        scale = max((np.abs(f.eval(z)) ** 2).sum(), 1e-8)
        assert abs((f.eval(z) ** 2).sum()) < 1e-12 * scale


def test_spinor_bilinear_polarizes_projection():
    r = np.random.default_rng(1)
    s = pair_from_coeffs(
        r.normal(size=3) + 1j * r.normal(size=3),
        r.normal(size=3) + 1j * r.normal(size=3),
    )
    a, b = 0.7 - 0.2j, 0.1 + 0.9j
    t = 0.3 + 0.4j
    shifted = SpinorPair(s.u + SeriesMap.constant([t * a]), s.v + SeriesMap.constant([t * b]))
    lhs = spinor_project(shifted)
    B = spinor_bilinear(s, a, b)
    pab = np.array([a * a - b * b, 1j * (a * a + b * b), 2 * a * b])
    z = 0.5 + 0.2j
    rhs = spinor_project(s).eval(z) + 2 * t * B.eval(z) + t * t * pab
    assert np.abs(lhs.eval(z) - rhs).max() < 1e-13


# -- spinor lifts --------------------------------------------------------------


def test_lift_constant_direction():
    f = SeriesMap(np.array([[1.0], [1j], [0.0]], dtype=complex), 0, "disc")
    pair = spinor_lift(f)
    back = spinor_project(pair)
    assert np.abs(back.eval(0.3) - f.eval(0.3)).max() < 1e-12
    # sign rule: u(1) in the closed right half-plane
    assert pair.u.eval(1.0)[0].real >= 0


def test_lift_enneper_type():
    # pi(z, 1) = (z^2 - 1, i(z^2 + 1), 2z)
    f = SeriesMap(
        np.array([[-1.0, 0, 1.0], [1j, 0, 1j], [0, 2.0, 0]], dtype=complex),
        0,
        "disc",
    )
    pair = spinor_lift(f)
    err = np.abs((spinor_project(pair) - f).coeffs).max()
    assert err < 1e-12


def test_lift_sign_normalization_flips():
    # project (-u, -v) and check the lift lands back on the +u convention
    s = pair_from_coeffs([1.0, 0.5], [0.25])
    f = spinor_project(s)
    lifted = spinor_lift(f)
    assert lifted.u.eval(1.0)[0].real > 0
    sm = SpinorPair(s.u * (-1.0), s.v * (-1.0))
    f2 = spinor_project(sm)
    lifted2 = spinor_lift(f2)
    assert np.abs(lifted2.u.coeffs - lifted.u.coeffs).max() < 1e-12


def test_lift_imaginary_axis_tiebreak():
    # u(1) purely imaginary: the tie falls to v(1) in the right half-plane
    s = pair_from_coeffs([1j], [1.0])
    f = spinor_project(s)
    lifted = spinor_lift(f)
    assert lifted.v.eval(1.0)[0].real > 0


def test_lift_planar_degenerate_branch():
    # v == 0: f = (u^2, i u^2, 0); u must stay zero-free on the disc
    s = pair_from_coeffs([1.0, 0.3], [0.0])
    f = spinor_project(s)
    lifted = spinor_lift(f)
    assert np.abs((spinor_project(lifted) - f).coeffs).max() < 1e-12
    assert float(np.abs(lifted.v.coeffs).max()) == 0.0


def test_lift_rejects_double_interior_zero():
    # (u, v) = (z, z - 1/2) is immersed but both squares have interior zeros,
    # which the exp-log square root cannot thread
    s = pair_from_coeffs([0.0, 1.0], [-0.5, 1.0])
    f = spinor_project(s)
    with pytest.raises(UnsupportedZeroConfigurationError):
        spinor_lift(f)


def test_lift_rejects_non_null_input():
    f = SeriesMap(np.array([[1.0], [0.0], [0.0]], dtype=complex), 0, "disc")
    with pytest.raises(NotInNullConeError):
        spinor_lift(f)


def test_lift_annulus_roundtrip():
    s = pair_from_coeffs([1.0], [1.0], lo_u=1, lo_v=-1, domain="annulus", r0=0.25)
    f = spinor_project(s)
    lifted = spinor_lift(f)
    back = spinor_project(lifted)
    z = 0.7 * np.exp(0.3j)
    assert np.abs(back.eval(z) - f.eval(z)).max() < 1e-10


def test_lift_random_suite():
    r = np.random.default_rng(42)
    for trial in range(25):
        deg_u = r.integers(1, 9)
        deg_v = r.integers(1, 9)
        uc = r.normal(size=deg_u) + 1j * r.normal(size=deg_u)
        vc = r.normal(size=deg_v) + 1j * r.normal(size=deg_v)
        if abs(uc[0]) < 0.2:
            uc[0] += 0.5  # keep the squares zero-free at the origin usually
        if abs(vc[0]) < 0.2:
            vc[0] += 0.5
        s = pair_from_coeffs(uc, vc)
        f = spinor_project(s)
        try:
            lifted = spinor_lift(f)
        except UnsupportedZeroConfigurationError:
            continue  # an interior zero configuration; rejection is the contract
        err = np.abs((spinor_project(lifted) - f).coeffs).max()
        scale = np.abs(f.coeffs).max()
        assert err < 1e-10 * max(scale, 1.0)


def test_lift_seeded_sweep_roundtrips_to_roundoff():
    # 600 projected spinor pairs of degree 1..19: every third on the annulus
    # r0 = 1/4 with Laurent terms down to z^-2, the rest on the disc; on odd
    # t the constant term of u dominates, so u^2 is zero-free there.  The
    # boundary exp(half log) square root is exact for these polynomial
    # roots, so every accepted lift reproduces f to roundoff.
    r = np.random.default_rng(5)
    accepted = 0
    for t in range(600):
        du, dv = (int(d) for d in r.integers(1, 20, size=2))
        uc = r.normal(size=du + 1) + 1j * r.normal(size=du + 1)
        vc = r.normal(size=dv + 1) + 1j * r.normal(size=dv + 1)
        if t % 2:
            uc[0] = 1.5 * np.abs(uc[1:]).sum() + 1.0
        if t % 3 == 0:
            lo = -int(r.integers(0, 3))
            s = pair_from_coeffs(uc, vc, lo, lo, domain="annulus", r0=0.25)
        else:
            s = pair_from_coeffs(uc, vc)
        f = spinor_project(s)
        try:
            lifted = spinor_lift(f)
        except UnsupportedZeroConfigurationError:
            continue
        accepted += 1
        err = np.abs((spinor_project(lifted) - f).coeffs).max()
        assert err <= 1e-12 * np.abs(f.coeffs).max(), (t, err)
    assert accepted >= 300


def test_lift_non_polynomial_root():
    # f = (1 - z/rho)(0, 2i, 2) has u = v = sqrt(1 - z/rho), not a
    # polynomial: its coefficients decay like rho^-k, past the first width
    rho = 1.02
    g = np.array([1.0, -1.0 / rho])
    f = SeriesMap(np.stack([0 * g, 2j * g, 2 * g]).astype(complex), 0, "disc")
    lifted = spinor_lift(f)
    assert np.abs((spinor_project(lifted) - f).coeffs).max() < 1e-12
    z = 0.9 * np.exp(1j * np.linspace(0, 2 * np.pi, 7))
    want = np.sqrt(1 - z / rho)
    for s in (lifted.u, lifted.v):
        assert np.abs(s.eval_many(z)[:, 0] - want).max() < 1e-10


def test_lift_null_maps_with_simple_zeros_off_the_disc():
    # f built from candidate squares P = c p A^2 and Q = d p B^2 that share
    # simple zeros p at 1.1 <= |z| <= 1.5, so f3 = 2 sqrt(cd) p A B is a
    # polynomial; A is zero-free on the disc, so P has a root u, u^2 = P
    r = np.random.default_rng(8)
    for _ in range(12):
        roots = r.uniform(1.1, 1.5, 2) * np.exp(2j * np.pi * r.random(2))
        p = np.convolve([-roots[0], 1.0], [-roots[1], 1.0])
        A = r.normal(size=4) + 1j * r.normal(size=4)
        A[0] = 1.5 * np.abs(A[1:]).sum() + 1.0
        B = r.normal(size=3) + 1j * r.normal(size=3)
        c, d = r.normal(size=2) + 1j * r.normal(size=2)
        P = c * np.convolve(p, np.convolve(A, A))
        Q = np.pad(d * np.convolve(p, np.convolve(B, B)), (0, 2))
        f3 = np.pad(2 * np.sqrt(c * d) * np.convolve(p, np.convolve(A, B)), (0, 1))
        f = SeriesMap(np.stack([P - Q, 1j * (P + Q), f3]), 0, "disc")
        lifted = spinor_lift(f)
        scale = np.abs(f.coeffs).max()
        assert np.abs((spinor_project(lifted) - f).coeffs).max() <= 1e-10 * scale
        z = 0.95 * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
        u2 = lifted.u.eval_many(z)[:, 0] ** 2
        assert np.abs(u2 - np.polyval(P[::-1], z)).max() <= 1e-9 * scale


def test_lift_annulus_large_winding_square():
    # u^2 = z^22 is zero-free on r0 = 1/4 <= |z| <= 1 but spans 0.25^22 ~ 6e-14
    # across the two circles; v^2 = (z - 1/2)^2 has a zero inside, so only
    # u^2 can be rooted and its vanishing test must be per circle
    s = pair_from_coeffs([0.0] * 11 + [1.0], [-0.5, 1.0], domain="annulus", r0=0.25)
    f = spinor_project(s)
    lifted = spinor_lift(f)
    assert np.abs((spinor_project(lifted) - f).coeffs).max() < 1e-12
    assert np.abs((lifted.u - s.u).coeffs).max() < 1e-12


def test_lift_annulus_width_doubling_stops_before_overflow(monkeypatch):
    # a round trip that never passes doubles the width until the inner
    # circle's scale leaves the float range (0.25^-512 = 2^1024); the lift
    # refuses first, with the last finite failure and no overflow warning
    monkeypatch.setattr(geometry, "LIFT_ROUNDTRIP_TOL", 0.0)
    f = catalog("annulus_basic").derivative()
    t0 = time.perf_counter()
    with pytest.raises(UnsupportedZeroConfigurationError) as err:
        spinor_lift(f)
    assert time.perf_counter() - t0 < 1.0
    assert "round-trip error" in str(err.value)
    assert "nan" not in str(err.value)


# -- the SL2 transfer ----------------------------------------------------------


def test_tmap_spec_point():
    m = tmap(np.array([1.0, 1j, 1.0]))
    assert np.array_equal(m.m, np.array([[1.0, 0.0], [2.0, 1.0]], dtype=complex))
    assert m.det == 1.0 + 0.0j


def test_tmap_pole():
    with pytest.raises(PoleError):
        tmap(np.array([1.0, 1j, 0.0]))


def _null_points(n, seed=5):
    r = np.random.default_rng(seed)
    a = r.normal(size=n) + 1j * r.normal(size=n)
    b = r.normal(size=n) + 1j * r.normal(size=n)
    return np.stack([a * a - b * b, 1j * (a * a + b * b), 2 * a * b], axis=-1)


def test_transfer_on_arrays_matches_pointwise():
    pts = _null_points(24).reshape(4, 6, 3)
    pts = pts[np.abs(pts[..., 2]).min(axis=1) > 1e-3]
    m = tmap(pts)
    assert m.m.shape == pts.shape[:-1] + (2, 2)
    assert np.abs(m.det - 1.0).max() < 1e-12
    x = h3_minkowski(bryant_project(m))
    assert x.shape == pts.shape[:-1] + (4,)
    for idx in np.ndindex(*pts.shape[:-1]):
        assert np.array_equal(tmap(pts[idx]).m, m.m[idx])
        assert np.array_equal(h3_minkowski(bryant_project(tmap(pts[idx]))), x[idx])


def test_transfer_checks_every_entry():
    pts = _null_points(8)
    pts[5, 2] = 0.0
    with pytest.raises(PoleError):
        tmap(pts)
    mats = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
    mats[1] *= 2.0
    with pytest.raises(NotInSL2Error):
        bryant_project(mats)
    herm = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
    herm[2] = -herm[2]
    with pytest.raises(NotInH3Error):
        h3_minkowski(herm)
    herm[2, 0, 0] = np.nan
    with pytest.raises(NotInH3Error):
        h3_minkowski(herm)


@given(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)
)
@settings(max_examples=60, deadline=None)
def test_tmap_det_is_one_property(ar, ai, br, bi):
    a = complex(ar, ai)
    b = complex(br, bi)
    p = np.array([a * a - b * b, 1j * (a * a + b * b), 2 * a * b])
    if abs(p[2]) < 1e-6 or np.abs(p).max() > 50:
        return
    m = tmap(p)
    assert abs(np.linalg.det(m.m) - 1.0) < 1e-12 * max(1.0, np.abs(m.m).max() ** 2)


def test_bryant_project_spec_example():
    m = SL2Point(np.array([[1.0, 0.0], [2.0, 1.0]], dtype=complex))
    h = bryant_project(m)
    assert np.allclose(h.h, np.array([[1.0, 2.0], [2.0, 5.0]]), atol=1e-14)
    x = h3_minkowski(h)
    assert np.allclose(x, [3.0, 2.0, 0.0, -2.0], atol=1e-14)


def test_h3_minkowski_diagonal():
    h = H3Point(np.diag([4.0, 0.25]).astype(complex))
    x = h3_minkowski(h)
    assert np.allclose(x, [17.0 / 8.0, 0.0, 0.0, 15.0 / 8.0], atol=1e-15)
    # the hyperboloid constraint x0^2 - x1^2 - x2^2 - x3^2 = 1
    assert x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2 == pytest.approx(1.0, abs=1e-12)


def test_bryant_rejects_non_sl2():
    with pytest.raises(NotInSL2Error):
        bryant_project(SL2Point(np.array([[2.0, 0.0], [0.0, 2.0]], dtype=complex)))


def test_h3_minkowski_rejects_indefinite():
    with pytest.raises(NotInH3Error):
        h3_minkowski(H3Point(np.diag([1.0, -1.0]).astype(complex)))
    with pytest.raises(NotInH3Error):
        h3_minkowski(H3Point(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)))


def test_h3_minkowski_rejects_lower_sheet():
    with pytest.raises(NotInH3Error):
        h3_minkowski(H3Point(np.diag([-1.0, -1.0]).astype(complex)))


# -- curve-level transfer -------------------------------------------------------


def curve_shifted_cubic():
    # F = (z - z^3/3, i(z + z^3/3), z^2 + 2): null, and F3 stays away from 0
    c = np.zeros((3, 4), dtype=complex)
    c[0, 1], c[0, 3] = 1.0, -1.0 / 3.0
    c[1, 1], c[1, 3] = 1j, 1j / 3.0
    c[2, 0], c[2, 2] = 2.0, 1.0
    return SeriesMap(c, 0, "disc")


def test_tmap_on_curve_frozen_oracle():
    rep = tmap_on_curve(curve_shifted_cubic())
    # det == 1 is an algebraic identity of the transfer
    assert rep.max_det_error < 1e-12
    # frozen finite-difference oracle values (theta step 2*pi/4096)
    assert 2.9e-6 < rep.max_tangent_det < 3.4e-6
    assert rep.max_tangent_det_normalized < 1e-6
    assert rep.boundary_matrices.shape[1:] == (2, 2)


def test_tmap_on_curve_flags_interior_pole():
    # F3 = z^2 vanishes at the origin
    c = np.zeros((3, 3), dtype=complex)
    c[0, 2], c[1, 2], c[2, 1] = 1.0, 1j, 0.0
    c[2, 1] = 0.0
    c[2, 2] = 0.0
    # build pi(z, z): (0, 2i z^2, 2 z^2) -> F3 = 2z^2 vanishes at 0... use
    # an explicitly integrated curve instead
    s = pair_from_coeffs([0.0, 1.0], [0.0, 1.0])
    f = spinor_project(s).antiderivative(0.0, (0.0, 0.0, 0.0))
    with pytest.raises(PoleError):
        tmap_on_curve(f)


def test_tmap_on_curve_rejects_non_null():
    c = np.zeros((3, 2), dtype=complex)
    c[0, 1] = 1.0
    c[2, 0] = 1.0
    with pytest.raises(NotInNullConeError):
        tmap_on_curve(SeriesMap(c, 0, "disc"))
