"""Approximate Riemann-Hilbert: certificates, k-search, null deformations."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcurves.errors import (
    DomainError,
    NotInNullConeError,
    ToleranceUnachievableError,
)
from nullcurves import rh
from nullcurves.geometry import NullVector, SpinorPair, spinor_project
from nullcurves.rh import (
    TWO_PI,
    BoundaryData,
    BoundaryDiscFamily,
    RHCertificate,
    _certify_null,
    _fit_boundary_profile,
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
    worst = 0.0
    for rad in G.boundary_radii:
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


def _disc_distance_reference(points, centers, rays):
    """disc_distance as reductions over the component axis, kept as the oracle."""
    d = points - centers
    d2 = (np.abs(d) ** 2).sum(axis=-1)
    r2 = (np.abs(rays) ** 2).sum(axis=-1)
    ip = (d * np.conj(rays)).sum(axis=-1)
    safe = np.maximum(r2, 1e-300)
    along2 = np.abs(ip) ** 2 / safe
    excess = np.maximum(np.abs(ip) / safe - 1.0, 0.0)
    dist2 = d2 - along2 + excess * excess * r2
    dist2 = np.where(r2 == 0.0, d2, dist2)
    return np.sqrt(np.maximum(dist2, 0.0))


def test_disc_distance_matches_reference_bit_for_bit():
    r = np.random.default_rng(2)

    def cplx(*shape):
        return r.normal(size=shape) + 1j * r.normal(size=shape)

    n = 2048
    centers = cplx(n, 3)
    # the certificate's rays: a taper amplitude (zero off the arc) times a
    # null direction, plus rays that are exactly zero
    amp = np.clip(r.normal(size=n), 0.0, None)
    rays = amp[:, None] * np.array([1.0, -1j, 0.0])[None, :]
    rays[::7] = cplx(n, 3)[::7]
    rays[5::11] = 0.0
    for points in (cplx(n, 3), cplx(8, n, 3)):
        points[..., ::13, :] = centers[::13]  # points on the centers
        got = disc_distance(points, centers, rays)
        assert got.shape == points.shape[:-1]
        assert np.array_equal(got, _disc_distance_reference(points, centers, rays))


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
    from nullcurves.rh import _certify_approx

    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([1.0, 0.0, 0.0]))
    maxima = []
    for k in range(4, 10):
        F = f + SeriesMap(fam.coeffs, k, "disc")
        cert = _certify_approx(f, fam, F, k, 0.6, 0.05, 512)
        maxima.append(cert.cond_c)
    ratios = [b / a for a, b in zip(maxima, maxima[1:])]
    assert all(rt <= 0.6 + 1e-9 for rt in ratios)


def test_zero_family_returns_f():
    # a constant f lies on its point discs, so k = 1 certifies exactly
    f = SeriesMap(np.array([[1.0], [2.0], [0.0]], dtype=complex), 0, "disc")
    fam = BoundaryDiscFamily.from_constant(np.zeros(3))
    F, cert = rh_approx(f, fam, r=0.5, eps=0.01)
    assert cert.k == 1  # smallest k > m = 0
    assert cert.cond_a == 0.0 and cert.cond_b == 0.0 and cert.cond_c == 0.0
    assert np.abs((F - f).coeffs).max() == 0.0


def test_zero_family_measures_the_collar():
    # the discs are the points f(zeta); F = f misses them by |f(r zeta) - f(zeta)|
    f = SeriesMap(np.array([[1.0, 0.5], [0, 0], [0, 0]], dtype=complex), 0, "disc")
    fam = BoundaryDiscFamily.from_constant(np.zeros(3))
    with pytest.raises(ToleranceUnachievableError) as info:
        rh_approx(f, fam, r=0.5, eps=0.01, k_max=32)
    assert abs(info.value.certificate.cond_b - 0.25) <= 1e-12


def test_z_dependent_family():
    # c(z) = (1/z + z)/2 e1 = cos(theta) e1 on the circle: F = c(z) z^k
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[0] = [0.5, 0.0, 0.5]
    fam = BoundaryDiscFamily(coeffs, 1)
    f = SeriesMap.zero(3, "disc")
    F, cert = rh_approx(f, fam, r=0.5, eps=0.05, r_prime=0.6)
    assert cert.valid and cert.k == 8
    assert abs(cert.cond_c - (0.6**7 + 0.6**9) / 2) <= 1e-12
    assert cert.cond_a < 1e-7  # rounding where cos(theta) = 0
    want = np.zeros((3, 10), dtype=complex)
    want[0, 7] = want[0, 9] = 0.5
    assert F.degree_lo == 0 and np.array_equal(F.coeffs, want)


def test_from_constant_takes_one_vector():
    assert BoundaryDiscFamily.from_constant([[1.0, 0.0]]).coeffs.shape == (2, 1)
    with pytest.raises(ValueError):
        BoundaryDiscFamily.from_constant(np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_degree_cap_error():
    fam = BoundaryDiscFamily(np.zeros((3, 2 * 70000 + 1)), 70000)
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


def test_boundary_data_rejects_amplitude_that_overflows_when_squared():
    for mu in (1e308, 1e200):  # finite, but (mu |theta|)^2 is not
        with pytest.raises(DomainError, match="overflows"):
            linear_datum(mu=np.array([0.1, mu]))
    linear_datum(mu=np.array([1e150]))


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
    assert cert.k == 0 and cert.valid
    # measured, not assumed: the collar drifts by sup|F'| (1 - r) = 0.02 sqrt 2
    assert cert.cond_a == 0.0
    assert cert.cond_b == pytest.approx(0.02 * np.sqrt(2.0))
    assert max(cert.cond_c, cert.cond_d, cert.cond_orth) < 1e-14


def test_null_disc_zero_amplitude_outside_tolerance_raises():
    # the floor (0.035) lets it through; the measured (b) (0.0707) does not
    with pytest.raises(ToleranceUnachievableError) as info:
        rh_null_disc(linear_curve(), linear_datum(mu=np.array([0.0]), r=0.95))
    assert info.value.certificate.cond_b == pytest.approx(0.05 * np.sqrt(2.0))


def _count_certificates(monkeypatch):
    calls = []
    original = rh._certify_null

    def counted(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(rh, "_certify_null", counted)
    return calls


def test_collar_floor_refuses_before_any_push(monkeypatch):
    def no_certificate(*args, **kwargs):
        raise AssertionError("a push was built")

    monkeypatch.setattr(rh, "_certify_null", no_certificate)
    bd = linear_datum(mu=np.array([0.05]), epsilon=1e-9, r=0.5)
    with pytest.raises(ToleranceUnachievableError, match="tolerance") as info:
        rh_null_disc(linear_curve(), bd)
    # half of sup|F'| (1 - r) = sqrt 2 / 2: no k and no fit degree gets under it
    assert "(b)/(c)" in str(info.value) and "0.354" in str(info.value)


def test_fit_floor_picks_the_degree_once(monkeypatch):
    F = linear_curve()
    bd = linear_datum(arc=(0.3, 0.3 + np.pi / 2), taper=0.02, r=0.98232)
    # the level a search at m = 64 or 128 settles at, and m = 256 clears epsilon
    floors = [_fit_boundary_profile(bd, m)[1] for m in (64, 128, 256)]
    assert floors == pytest.approx([0.0784, 0.0528, 0.0200], abs=5e-4)
    ks = _count_certificates(monkeypatch)
    G, cert = rh_null_disc(F, bd)
    assert cert.valid and cert.k == 423
    assert len(ks) == 16  # one search, at m = 256 only
    assert min(ks) == 257


def test_fixed_k_push_builds_once(monkeypatch):
    ks = _count_certificates(monkeypatch)
    with pytest.raises(ToleranceUnachievableError, match="k = 300"):
        _rh_null(linear_curve(), linear_datum(epsilon=0.02), k_fixed=300)
    assert ks == [300]


def test_search_returns_the_least_certifying_k(monkeypatch):
    # a CLI session datum: the collar radius by the drift rule
    F = SeriesMap(np.array([[0, 1, 0, -1 / 3], [0, 1j, 0, 1j / 3], [0, 0, 1, 0]],
                           dtype=complex), 0, "disc")
    sup_fp = F.derivative().sup_boundary(2048)
    bd = linear_datum(arc=(1.0, 1.0 + np.pi / 2), r=max(0.9, 1.0 - 0.025 / sup_fp))
    calls = {}
    original = rh._certify_null

    def recorded(G, F_, bd_, k, n, orth_dir, screen=False):
        out = original(G, F_, bd_, k, n, orth_dir, screen=screen)
        calls[k] = (G, orth_dir, out)
        return out

    monkeypatch.setattr(rh, "_certify_null", recorded)
    G, cert = rh_null_disc(F, bd)
    k = cert.k
    screened = [kk for kk, (_, _, out) in calls.items() if isinstance(out, float)]
    assert screened and k - 1 in calls
    G_k, orth_dir, _ = calls[k]
    assert G_k is G
    assert original(G_k, F, bd, k, rh._NULL_N, orth_dir) == cert
    below = original(calls[k - 1][0], F, bd, k - 1, rh._NULL_N, orth_dir)
    assert cert.valid and not below.valid
    for kk in screened:
        # a screened attempt fails in full too, by at least its bound
        full = original(calls[kk][0], F, bd, kk, rh._NULL_N, orth_dir)
        assert not full.valid and full.worst >= calls[kk][2]


def test_search_screens_on_the_collar(monkeypatch):
    # the collar drift sqrt 2 (1 - r) = 0.042 sits above epsilon for every
    # k, while the collar floor, half of it, lets the datum through
    F = linear_curve()
    bd = linear_datum(mu=np.array([0.05]), r=0.97, epsilon=0.03)
    G = _rh_null(F, replace(bd, epsilon=10.0), k_fixed=650).G
    full = _certify_null(G, F, bd, 650, rh._NULL_N, None)
    assert full.cond_a < bd.epsilon <= full.cond_b
    bound = _certify_null(G, F, bd, 650, rh._NULL_N, None, screen=True)
    assert isinstance(bound, float) and bd.epsilon <= bound <= full.worst

    monkeypatch.setattr(rh, "K_MAX", 2048)
    calls = {}
    original = rh._certify_null

    def recorded(*args, screen=False):
        out = original(*args, screen=screen)
        calls[args[3]] = out
        return out

    monkeypatch.setattr(rh, "_certify_null", recorded)
    with pytest.raises(ToleranceUnachievableError) as screened:
        rh_null_disc(F, bd)
    assert any(isinstance(out, float) and out > bd.epsilon for out in calls.values())
    monkeypatch.setattr(rh, "_certify_null",
                        lambda *args, screen=False: original(*args))
    with pytest.raises(ToleranceUnachievableError) as unscreened:
        rh_null_disc(F, bd)
    assert str(screened.value) == str(unscreened.value)
    assert screened.value.certificate == unscreened.value.certificate


@pytest.mark.parametrize("winner, worsts", [
    # k: (bound when screened or None, worst in full)
    (2, {1: (0.3, 0.5), 2: (None, 0.4), 4: (0.2, 0.4), 8: (0.4, 0.4)}),
    (1, {1: (0.3, 0.4), 2: (None, 0.4), 4: (0.2, 0.45), 8: (0.4, 0.4)}),
])
def test_exhausted_search_recertifies_only_what_can_win(winner, worsts):
    rebuilt = []

    def build(k, screen=False):
        bound, worst = worsts[k]
        if screen and bound is not None:
            return None, bound
        if not screen:
            rebuilt.append(k)
        return k, RHCertificate(k=k, r_prime=0.9, epsilon=0.1, cond_a=worst,
                                cond_b=0.0, cond_c=0.0)

    with pytest.raises(ToleranceUnachievableError, match="best worst-case 0.4") as info:
        rh._search_k(build, 0, 8)
    # unscreened, the search raises with the first attempt of least worst case
    order = [1, 2, 4, 8]
    assert winner == min(order, key=lambda k: (worsts[k][1], order.index(k)))
    assert info.value.certificate.k == winner
    # in order of bound (0.2 at k = 4, then 0.3 at k = 1); k = 8's bound
    # 0.4 ties the best from an earlier attempt, so it cannot win
    assert rebuilt == [4, 1]


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


# -- the certificate against one-radius-at-a-time and dense references -------


def _certify_null_per_radius(G, F, bd, n_boundary, orth_dir, n_radial=64, n_interior_radii=33):
    """(a), (b), (c), (d) and cond_orth evaluated one circle at a time."""
    n = n_boundary
    theta = TWO_PI * np.arange(n) / n
    rays = bd.amplitude_at(theta)[:, None] * bd.theta.v[None, :]

    def h_norm(rr):
        return np.sqrt((np.abs(G.circle_values(rr, n) - F.circle_values(rr, n)) ** 2).sum(1))

    Fb = F.circle_values(1.0, n)
    Gb = G.circle_values(1.0, n)
    cond_a = float(circle_distance(Gb, Fb, rays).max())
    inner = h_norm(bd.r).max()
    if F.domain == "annulus":
        cond_a = max(cond_a, float(h_norm(F.r0).max()))
        inner = max(inner, h_norm(F.r0).max())

    # (c)/(d): the ring r (and r0), the unit circle under the keep-mask, and
    # the radial segments at the keep-mask's ends
    keeps = [~bd.in_padded_arc(theta, pad) for pad in (2.0 * bd.taper, bd.taper)]
    ends = [kp & ~(np.roll(kp, 1) & np.roll(kp, -1)) for kp in keeps]
    closeness = [max(inner, h_norm(1.0).max(where=kp, initial=0.0)) for kp in keeps]

    idx = np.flatnonzero(~keeps[0])
    cond_b = 0.0
    for rr in np.linspace(bd.r, 1.0, n_radial):
        Gr = G.circle_values(rr, n)[idx]
        cond_b = max(cond_b, float(disc_distance(Gr, Fb[idx], rays[idx]).max()))
        hn = h_norm(rr)
        closeness = [max(c, hn.max(where=e, initial=0.0)) for c, e in zip(closeness, ends)]

    orth_max = None
    if orth_dir is not None:
        r_in = F.r0 if F.domain == "annulus" else 0.0
        orth_max = 0.0
        for rr in np.linspace(r_in, 1.0, n_interior_radii):
            diff = G.circle_values(rr, n) - F.circle_values(rr, n)
            orth_max = max(orth_max, float(np.abs(diff @ np.conj(orth_dir)).max()))
    return cond_a, cond_b, float(closeness[0]), float(closeness[1]), orth_max


def _closeness_dense(G, F, bd, n_boundary):
    """sup |G - F| sampled over the whole claimed region of (c) and (d).

    453 radii: 200 from 0 (r0 on an annulus) to r at every angle, and 253
    from r to 1 off the padded arc, a grid that holds the certificate's 64
    collar radii.
    """
    n = n_boundary
    theta = TWO_PI * np.arange(n) / n
    r_in = F.r0 if F.domain == "annulus" else 0.0
    below, collar = (
        np.sqrt((np.abs(G.rings(radii, n) - F.rings(radii, n)) ** 2).sum(axis=2))
        for radii in (np.linspace(r_in, bd.r, 200), np.linspace(bd.r, 1.0, 253))
    )
    keeps = [~bd.in_padded_arc(theta, pad) for pad in (2.0 * bd.taper, bd.taper)]
    top = float(below.max())
    return tuple(max(top, float(collar.max(where=keep, initial=0.0))) for keep in keeps)


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def _thin_collar():
    """A gate-8 push: one of 8 arcs, mu_cap 0.002, k = 650 on a thin collar."""
    F = linear_curve()
    bd = linear_datum(arc=(0.0, np.pi / 2), mu=np.array([0.002]), r=0.9997)
    return F, bd, _rh_null(F, replace(bd, epsilon=10.0), k_fixed=650).G


def _bump(**datum):
    """G - F = 0.1 z^3 (1 - z) V1, against discs along V2 on the datum's arc.

    V1 is hermitian-orthogonal to V2, so (b) and the segments of (c)/(d)
    read |G - F| = sqrt 2 * 0.1 rho^3 |1 - rho zeta|.  At angles near 1 that
    peaks near rho = 3/4 and stays small on the unit circle.
    """
    F = SeriesMap.zero(3, "disc")
    bump = np.zeros((3, 5), dtype=complex)
    bump[:, 3], bump[:, 4] = 0.1 * V1, -0.1 * V1
    return F, linear_datum(**datum), SeriesMap(bump, 0, "disc")


def _certify_case(case):
    """(F, bd, G, k) of one reference case of the null certificate."""
    if case == "thin_collar":
        return (*_thin_collar(), 650)
    if case == "interior_max":
        # (b) reads only angles within 0.07 of 1
        return (*_bump(arc=(-0.05, 0.05), taper=0.01, r=0.5), 0)
    if case == "interior_segment_max":
        # (c) reads the unit circle within 0.06 of 1, and the ring r is low
        return (*_bump(arc=(0.1, TWO_PI - 0.1), taper=0.02, r=0.4), 0)
    if case.startswith("annulus"):
        F = annulus_curve()
        bd = linear_datum(arc=(1.0, 1.0 + np.pi / 2), mu=np.array([0.05]), r=0.99)
        if case == "annulus_wide_collar":
            bd = replace(bd, r=0.6)
    else:
        # a wide collar, so the keep-masks decide where the maxima sit
        F = linear_curve()
        bd = linear_datum(r=0.5)
    if case == "empty_keep_mask":
        # arc width + 2 * taper exceeds a full turn, so inside the collar
        # both keep-masks are empty
        bd = linear_datum(arc=(0.5, 4.5), taper=1.2, r=0.9)
        assert bd.in_padded_arc(TWO_PI * np.arange(512) / 512, bd.taper).all()
    # G wider than the 1024 samples per circle
    k = 600 if case == "wide_series" else 160
    # a loose tolerance lets the pinned k through whatever the conditions say
    return F, bd, _rh_null(F, replace(bd, epsilon=10.0), k_fixed=k).G, k


@pytest.mark.parametrize(
    "case",
    ["disc", "annulus", "general_orth", "empty_keep_mask", "thin_collar",
     "wide_series", "interior_max", "interior_segment_max", "annulus_wide_collar"],
)
def test_certify_null_matches_per_radius_reference(case):
    F, bd, G, k = _certify_case(case)
    orth = _unit([0.3 - 0.2j, -1.1 + 0.5j, 0.7j] if case == "general_orth" else [0, 0, 1])
    theta = TWO_PI * np.arange(1024) / 1024
    # the boundary pieces (c) and (d) read are points of the dense grid, and
    # by the maximum principle no interior point of it goes higher, unless a
    # radial segment holds the sup: its 64 radii sample that peak a bit low
    want_c, want_d = _closeness_dense(G, F, bd, 1024)
    if case == "wide_series":
        assert G.width > 1024
    if case == "interior_max":
        idx = np.flatnonzero(bd.in_padded_arc(theta, 2.0 * bd.taper))
        rays = bd.amplitude_at(theta[idx])[:, None] * bd.theta.v[None, :]
        Fb = F.circle_values(1.0, 1024)[idx]
        per_radius = [disc_distance(G.circle_values(rr, 1024)[idx], Fb, rays).max()
                      for rr in np.linspace(bd.r, 1.0, 64)]
        assert 0 < int(np.argmax(per_radius)) < 63
    if case == "interior_segment_max":
        hb, hr = np.sqrt((np.abs(G.rings([1.0, bd.r], 1024)) ** 2).sum(axis=2))
        off_arc = hb.max(where=~bd.in_padded_arc(theta, 2.0 * bd.taper), initial=0.0)
        assert want_c > 1.1 * max(off_arc, hr.max())
    for orth_dir in (None, orth):
        got = _certify_null(G, F, bd, k, 1024, orth_dir)
        cond_a, cond_b, cond_c, cond_d, cond_orth = _certify_null_per_radius(
            G, F, bd, 1024, orth_dir)
        assert got.cond_a == pytest.approx(cond_a, rel=1e-12, abs=1e-15)
        assert got.cond_b == cond_b
        if orth_dir is None:
            assert got.cond_orth is None
        else:
            assert got.cond_orth == pytest.approx(cond_orth, rel=1e-12, abs=1e-15)
        assert got.cond_c == pytest.approx(cond_c, rel=1e-12, abs=1e-15)
        assert got.cond_d == pytest.approx(cond_d, rel=1e-12, abs=1e-15)
        if case != "interior_segment_max":
            assert got.cond_c == pytest.approx(want_c, rel=1e-9, abs=1e-15)
            assert got.cond_d == pytest.approx(want_d, rel=1e-9, abs=1e-15)
        assert (got.k, got.r_prime, got.epsilon, got.omega, got.n_samples) == (
            k, bd.r, bd.epsilon, (bd.arc[0] - 2 * bd.taper, bd.arc[1] + 2 * bd.taper), 1024
        )


def test_a_ring_alone_equals_the_ring_in_a_batch():
    """The certificate's rings come in batches of any size; the bits must not."""
    _, bd, G, _ = _certify_case("thin_collar")
    rho = np.linspace(bd.r, 1.0, 64)
    for n in (1024, 4096):
        batch = G.rings(rho[:rh._CERT_RING_BLOCK], n)
        for i in range(batch.shape[0]):
            assert np.array_equal(G.rings(rho[i:i + 1], n)[0], batch[i])
        assert np.array_equal(G.circle_values(1.0, n), G.rings(rho[-3:], n)[-1])


def test_thin_collar_measures_few_rings(monkeypatch):
    F, bd, G = _thin_collar()
    radii = []
    original = SeriesMap.rings

    def counted(self, rr, n, phases=0.0):
        if self is G:
            radii.extend(np.atleast_1d(rr).tolist())
        return original(self, rr, n, phases)

    monkeypatch.setattr(SeriesMap, "rings", counted)
    cert = _certify_null(G, F, bd, 650, rh._NULL_N, None)
    assert cert.valid
    grid = np.linspace(bd.r, 1.0, 64)
    assert np.isin(radii, grid).all() and len(set(radii)) == len(radii)
    assert len(radii) <= 24


def _lipschitz_reference(S, oversample=16):
    """max |S'| sampled at about 16 samples per degree on each boundary circle."""
    d = S.derivative()
    n = 1 << (oversample * d.width - 1).bit_length()
    vals = d.rings(d.boundary_radii, n)
    return float(np.sqrt((np.abs(vals) ** 2).sum(axis=2)).max())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    width=st.one_of(st.integers(1, 3000), st.integers(4000, 4200), st.integers(4500, 6000)),
    annulus=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lipschitz_bound_brackets_the_sup_of_the_derivative(width, annulus, seed):
    r = np.random.default_rng(seed)
    coeffs = r.normal(size=(3, width)) + 1j * r.normal(size=(3, width))
    if annulus:
        lo = -int(r.integers(0, min(width, 64)))
        S = SeriesMap(coeffs, lo, "annulus", float(r.uniform(0.7, 0.95)))
    else:
        S = SeriesMap(coeffs, 0, "disc")
    sampled = _lipschitz_reference(S)
    bound = rh._lipschitz(S)
    assert sampled <= bound <= 1.5 * sampled


def test_lipschitz_bound_past_its_sampling_cap_is_trivial():
    # S' of width 8194 has degree m = 4097 and needs 4m = 16388 samples,
    # past the cap of 16384; at width 8193, m = 4096 fits
    coeffs = np.ones((3, 8195), dtype=complex)
    assert rh._lipschitz(SeriesMap(coeffs[:, :8194], 0, "disc")) < np.inf
    assert rh._lipschitz(SeriesMap(coeffs, 0, "disc")) == np.inf


def test_certificate_reads_the_ring_r():
    """(c) covers |z| <= r, so it is at least |G - F| sampled on |z| = r."""
    F = linear_curve()
    bd = BoundaryData(
        arc=(0.3, 1.8),
        mu=np.array([0.1]),
        theta=NullVector(_unit([1.0, 1j, 0.0])),
        taper=0.2,
        epsilon=0.05,
        r=0.995,
    )
    G, cert = rh_null_disc(F, bd, k_fixed=460)
    diff = G.circle_values(bd.r, 4096) - F.circle_values(bd.r, 4096)
    ring_r = float(np.sqrt((np.abs(diff) ** 2).sum(axis=1)).max())
    assert ring_r > 0.005
    assert cert.cond_c >= ring_r * (1.0 - 1e-12)
    assert cert.cond_d >= cert.cond_c
