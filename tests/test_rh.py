"""Approximate Riemann-Hilbert: certificates, k-search, null deformations."""

import json
from dataclasses import replace

import numpy as np
import pytest

from nullcurves.errors import (
    DomainError,
    NotInNullConeError,
    ToleranceUnachievableError,
)
from nullcurves.geometry import NullVector, SpinorPair, spinor_project
from nullcurves.rh import (
    TWO_PI,
    BoundaryData,
    BoundaryDiscFamily,
    RHCertificate,
    _certify_null,
    _rh_null,
    circle_distance,
    disc_distance,
    rh_approx,
    rh_null_annulus,
    rh_null_disc,
)
from nullcurves.series import SeriesMap
from nullcurves.weierstrass import periods

V1 = np.array([1.0, 1j, 0.0])
V2 = np.array([1.0, -1j, 0.0])


def linear_curve():
    c = np.zeros((3, 2), dtype=complex)
    c[:, 1] = V1
    return SeriesMap(c, 0, "disc")


def linear_datum(**overrides):
    kw = dict(
        arc=(0.0, np.pi / 2),
        mu=np.array([0.1]),
        theta=NullVector(V2),
        taper=np.pi / 8,
        epsilon=0.05,
        r=0.98,
    )
    kw.update(overrides)
    return BoundaryData(**kw)


def annulus_curve(r0=0.25):
    u = SeriesMap(np.array([[1.0]], dtype=complex), 1, "annulus", r0)
    v = SeriesMap(np.array([[1.0]], dtype=complex), -1, "annulus", r0)
    f = spinor_project(SpinorPair(u, v))
    return f.antiderivative(np.sqrt(r0), (0.0, 0.0, 0.0))


def pointwise_nullity(G, n=2048):
    gp = G.derivative()
    radii = [1.0] if G.domain == "disc" else [1.0, G.r0]
    worst = 0.0
    for rad in radii:
        vals = gp.circle_values(rad, n)
        res = np.abs((vals**2).sum(axis=1)).max()
        scale = ((np.abs(vals) ** 2).sum(axis=1)).max()
        worst = max(worst, res / max(scale, 1e-300))
    return worst


# -- distance helpers -----------------------------------------------------------


def test_circle_distance_matches_dense_sampling():
    r = np.random.default_rng(0)
    p = r.normal(size=(20, 3)) + 1j * r.normal(size=(20, 3))
    c = r.normal(size=(20, 3)) + 1j * r.normal(size=(20, 3))
    ray = r.normal(size=(20, 3)) + 1j * r.normal(size=(20, 3))
    got = circle_distance(p, c, ray)
    tau = np.exp(2j * np.pi * np.arange(200000) / 200000)
    for i in range(20):
        cloud = c[i][None, :] + tau[:, None] * ray[i][None, :]
        want = np.sqrt(((np.abs(p[i][None, :] - cloud)) ** 2).sum(axis=1).min())
        assert got[i] == pytest.approx(want, abs=1e-7)


def test_disc_distance_matches_dense_sampling():
    r = np.random.default_rng(1)
    p = r.normal(size=(10, 3)) + 1j * r.normal(size=(10, 3))
    c = r.normal(size=(10, 3)) + 1j * r.normal(size=(10, 3))
    ray = r.normal(size=(10, 3)) + 1j * r.normal(size=(10, 3))
    got = disc_distance(p, c, ray)
    rad = np.linspace(0, 1, 400)
    ang = np.exp(2j * np.pi * np.arange(400) / 400)
    w = (rad[:, None] * ang[None, :]).ravel()
    for i in range(10):
        cloud = c[i][None, :] + w[:, None] * ray[i][None, :]
        want = np.sqrt(((np.abs(p[i][None, :] - cloud)) ** 2).sum(axis=1).min())
        assert got[i] == pytest.approx(want, abs=1e-4)


def test_degenerate_ray_is_point_distance():
    p = np.array([[1.0, 0.0, 0.0]], dtype=complex)
    c = np.zeros((1, 3), dtype=complex)
    ray = np.zeros((1, 3), dtype=complex)
    assert circle_distance(p, c, ray)[0] == pytest.approx(1.0)
    assert disc_distance(p, c, ray)[0] == pytest.approx(1.0)


# -- rh_approx -------------------------------------------------------------------


def test_closed_form_case_frozen():
    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([[1.0, 0.0, 0.0]]))
    F, cert = rh_approx(f, fam, r=0.5, eps=0.05, r_prime=0.6)
    assert cert.k == 6
    assert cert.cond_a == 0.0
    assert abs(cert.cond_c - 0.6**6) <= 1e-12
    assert cert.valid
    # F is exactly z^6 e1
    assert F.degree_hi == 6
    assert F.eval(0.3)[0] == pytest.approx(0.3**6, abs=1e-15)


def test_monotone_improvement_in_k():
    from nullcurves.rh import _certify_approx, _rh_sum

    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([[1.0, 0.0, 0.0]]))
    maxima = []
    for k in range(4, 10):
        F = _rh_sum(f, fam, k)
        cert = _certify_approx(f, fam, F, k, 0.6, 0.05, 512, 64, 16, 8)
        maxima.append(cert.cond_c)
    ratios = [b / a for a, b in zip(maxima, maxima[1:])]
    assert all(rt <= 0.6 + 1e-9 for rt in ratios)


def test_zero_family_returns_f():
    f = SeriesMap(np.array([[1.0, 0.5], [0, 0], [0, 0]], dtype=complex), 0, "disc")
    fam = BoundaryDiscFamily.from_constant(np.zeros((1, 3)))
    F, cert = rh_approx(f, fam, r=0.5, eps=0.01)
    assert cert.k == 1  # smallest k > m = 0
    assert cert.cond_a == 0.0 and cert.cond_b == 0.0 and cert.cond_c == 0.0
    assert np.abs((F - f).coeffs).max() == 0.0


def test_degree_cap_error():
    fam = BoundaryDiscFamily(np.zeros((1, 3, 2 * 70000 + 1)), 70000)
    f = SeriesMap.zero(3, "disc")
    with pytest.raises(ValueError):
        rh_approx(f, fam, r=0.5, eps=0.1)


def test_unachievable_tolerance_carries_best_certificate():
    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ToleranceUnachievableError) as info:
        rh_approx(f, fam, r=0.5, eps=1e-9, r_prime=0.6, k_max=32)
    cert = info.value.certificate
    assert cert is not None
    assert cert.cond_c == pytest.approx(0.6**32, rel=1e-10)


def test_rh_approx_two_disc_family():
    # J = 2: sampled-cloud certification path
    f = SeriesMap.zero(2, "disc")
    vectors = np.array([[1.0, 0.0], [0.0, 0.5]])
    fam = BoundaryDiscFamily.from_constant(vectors)
    F, cert = rh_approx(f, fam, r=0.5, eps=0.1, n_boundary=512)
    assert cert.valid
    # boundary samples should track the torus closely but not exactly
    assert cert.cond_a < 0.1
    # F = z^k e1 + 0.5 z^2k e2 exactly
    k = cert.k
    assert F.coeffs[0, k] == pytest.approx(1.0)
    assert F.coeffs[1, 2 * k] == pytest.approx(0.5)


def test_rh_approx_warm_start_agrees():
    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([[1.0, 0.0, 0.0]]))
    F1, c1 = rh_approx(f, fam, r=0.5, eps=0.05, r_prime=0.6)
    F2, c2 = rh_approx(f, fam, r=0.5, eps=0.05, r_prime=0.6, k_init=20)
    assert c1.k == c2.k == 6


def test_rh_approx_rejects_bad_radii():
    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        rh_approx(f, fam, r=0.0, eps=0.1)
    with pytest.raises(DomainError):
        rh_approx(f, fam, r=0.5, eps=0.1, r_prime=0.4)


# -- boundary data ----------------------------------------------------------------


def test_boundary_data_json_roundtrip():
    bd = linear_datum()
    back = BoundaryData.from_json(bd.to_json())
    assert back.arc == bd.arc
    assert np.array_equal(back.mu, bd.mu)
    assert np.array_equal(back.theta.v, bd.theta.v)
    assert back.taper == bd.taper
    assert back.epsilon == bd.epsilon
    assert back.r == bd.r


def test_boundary_data_validation():
    with pytest.raises(DomainError):
        linear_datum(arc=(0.0, 7.0))  # wider than 2*pi
    with pytest.raises(ValueError):
        linear_datum(mu=np.array([-0.1]))
    with pytest.raises(ValueError):
        linear_datum(taper=2.0)  # 2*taper > width
    with pytest.raises(DomainError):
        linear_datum(r=1.5)
    with pytest.raises(NotInNullConeError):
        linear_datum(theta=NullVector(np.array([1.0, 0.0, 0.0])))


def test_boundary_data_rejects_non_finite():
    bad = float("nan"), float("inf"), -float("inf")
    for x in bad:
        with pytest.raises(DomainError):
            linear_datum(mu=np.array([0.1, x, 0.1]))
        with pytest.raises(DomainError):
            linear_datum(epsilon=x)
    with pytest.raises(DomainError):
        linear_datum(theta=NullVector(np.array([1.0, np.nan, 0.0])))
    for key, value in (("mu", [0.1, float("nan")]), ("epsilon", float("inf"))):
        blob = json.loads(linear_datum().to_json())
        blob[key] = value
        with pytest.raises(DomainError):
            BoundaryData.from_json(json.dumps(blob))


def test_amplitude_profile_taper():
    bd = linear_datum()
    lo, hi = bd.arc
    # zero at the ends, full in the middle, zero outside
    assert bd.amplitude_at(lo) == 0.0
    assert bd.amplitude_at(hi) == 0.0
    assert bd.amplitude_at(0.5 * (lo + hi)) == pytest.approx(0.1)
    assert bd.amplitude_at(hi + 0.3) == 0.0
    # C2 ramp: amplitude is continuous through the taper
    ts = np.linspace(lo, hi, 1001)
    amp = bd.amplitude_at(ts)
    assert np.abs(np.diff(amp)).max() < 1e-2


def test_certificate_json_roundtrip():
    cert = RHCertificate(
        k=6,
        r_prime=0.6,
        epsilon=0.05,
        cond_a=0.0,
        cond_b=1e-16,
        cond_c=0.0466,
        cond_d=0.001,
        cond_orth=0.002,
        omega=(0.1, 1.9),
        n_samples=4096,
    )
    back = RHCertificate.from_json(cert.to_json())
    assert back == cert
    assert json.loads(cert.to_json())["valid"] is True


# -- null deformations --------------------------------------------------------------


def test_null_disc_linear_certificate():
    F = linear_curve()
    bd = linear_datum()
    G, cert = rh_null_disc(F, bd)
    assert cert.valid
    assert cert.cond_a < bd.epsilon
    assert cert.cond_b < bd.epsilon
    assert cert.cond_c < bd.epsilon
    assert cert.cond_d < bd.epsilon
    assert cert.k > 0
    # deformations stay exactly null and pinned at the base point
    assert pointwise_nullity(G) < 1e-11
    assert np.abs(G.eval(0.0) - F.eval(0.0)).max() == 0.0


def test_null_disc_deterministic():
    F = linear_curve()
    bd = linear_datum()
    _, c1 = rh_null_disc(F, bd)
    _, c2 = rh_null_disc(F, bd)
    assert c1.to_json() == c2.to_json()


def test_null_disc_zero_amplitude_identity():
    F = linear_curve()
    bd = linear_datum(mu=np.array([0.0]))
    G, cert = rh_null_disc(F, bd)
    assert G is F
    assert cert.k == 0
    assert max(cert.cond_a, cert.cond_b, cert.cond_c, cert.cond_d) == 0.0


def test_null_disc_wrong_domain():
    with pytest.raises(DomainError):
        rh_null_disc(annulus_curve(), linear_datum())
    with pytest.raises(DomainError):
        rh_null_annulus(linear_curve(), linear_datum())


def test_null_annulus_certificate_and_periods():
    F = annulus_curve()
    bd = linear_datum(arc=(1.0, 1.0 + np.pi / 2), mu=np.array([0.05]), r=0.99)
    G, cert = rh_null_annulus(F, bd)
    assert cert.valid
    assert periods(G.derivative()).max_abs <= 1e-10
    assert pointwise_nullity(G) < 1e-11
    base = float(np.sqrt(F.r0))
    assert np.abs(G.eval(base) - F.eval(base)).max() < 1e-14


# -- the certificate against a one-radius-at-a-time reference -----------------


def _certify_null_per_radius(G, F, bd, k, n_boundary, orth_dir, n_radial=64, n_interior_radii=33):
    """The certificate evaluated one circle at a time, kept as the reference."""
    n = n_boundary
    theta = TWO_PI * np.arange(n) / n
    lo, hi = bd.arc
    pad1, pad2 = bd.taper, 2.0 * bd.taper
    tv = bd.theta.v

    Fb = F.circle_values(1.0, n)
    Gb = G.circle_values(1.0, n)
    amp = bd.amplitude_at(theta)
    rays = amp[:, None] * tv[None, :]
    dist_a = circle_distance(Gb, Fb, rays)
    cond_a = float(dist_a.max())
    if F.domain == "annulus":
        Fi = F.circle_values(F.r0, n)
        Gi = G.circle_values(G.r0, n)
        cond_a = max(cond_a, float(np.sqrt((np.abs(Gi - Fi) ** 2).sum(1)).max()))

    mask_b = bd.in_padded_arc(theta, pad2)
    idx = np.flatnonzero(mask_b)
    cond_b = 0.0
    rho = np.linspace(bd.r, 1.0, n_radial)
    orth_max = 0.0
    for rr in rho:
        Gr = G.circle_values(rr, n)[idx]
        db = disc_distance(Gr, Fb[idx], rays[idx])
        cond_b = max(cond_b, float(db.max()))

    r_in = F.r0 if F.domain == "annulus" else 0.0
    radii = np.linspace(r_in, 1.0, n_interior_radii)
    h = TWO_PI / n
    val_c = deriv_c = val_d = deriv_d = 0.0
    for rr in radii:
        Gv = G.circle_values(rr, n)
        Fv = F.circle_values(rr, n)
        diff = Gv - Fv
        dn = np.sqrt((np.abs(diff) ** 2).sum(axis=1))
        fd = (np.roll(diff, -1, axis=0) - np.roll(diff, 1, axis=0)) / (2.0 * h)
        fdn = np.sqrt((np.abs(fd) ** 2).sum(axis=1))
        if orth_dir is not None:
            orth_max = max(orth_max, float(np.abs(diff @ np.conj(orth_dir)).max()))
        in_collar = rr >= bd.r - 1e-12
        for pad, acc in ((pad2, "c"), (pad1, "d")):
            if in_collar:
                keep = ~bd.in_padded_arc(theta, pad)
            else:
                keep = np.ones(n, dtype=bool)
            if not keep.any():
                continue
            vmax = float(dn[keep].max())
            dmax = float(fdn[keep].max())
            if acc == "c":
                val_c, deriv_c = max(val_c, vmax), max(deriv_c, dmax)
            else:
                val_d, deriv_d = max(val_d, vmax), max(deriv_d, dmax)
    return RHCertificate(
        k=k,
        r_prime=bd.r,
        epsilon=bd.epsilon,
        cond_a=cond_a,
        cond_b=cond_b,
        cond_c=val_c + deriv_c,
        cond_d=val_d + deriv_d,
        cond_orth=orth_max if orth_dir is not None else None,
        omega=(lo - pad2, hi + pad2),
        n_samples=n,
    )


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize(
    "case",
    ["disc", "annulus", "general_orth", "empty_keep_mask"],
)
def test_certify_null_matches_per_radius_reference(case):
    orth = _unit([0.0, 0.0, 1.0])
    if case == "annulus":
        F = annulus_curve()
        bd = linear_datum(arc=(1.0, 1.0 + np.pi / 2), mu=np.array([0.05]), r=0.99)
    else:
        # a wide collar, so the keep-masks decide where the maxima sit
        F = linear_curve()
        bd = linear_datum(r=0.5)
    if case == "general_orth":
        orth = _unit([0.3 - 0.2j, -1.1 + 0.5j, 0.7j])
    if case == "empty_keep_mask":
        # arc width + 2 * taper exceeds a full turn, so inside the collar
        # both keep-masks are empty
        bd = linear_datum(arc=(0.5, 4.5), taper=1.2, r=0.9)
        assert bd.in_padded_arc(TWO_PI * np.arange(512) / 512, bd.taper).all()
    # a loose tolerance lets the pinned k through whatever the conditions say
    G = _rh_null(F, replace(bd, epsilon=10.0), n_boundary=1024, k_fixed=160).G
    for orth_dir in (None, orth):
        got = _certify_null(G, F, bd, 160, 1024, orth_dir)
        want = _certify_null_per_radius(G, F, bd, 160, 1024, orth_dir)
        assert got.to_json() == want.to_json()
