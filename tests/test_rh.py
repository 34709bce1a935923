"""Approximate Riemann-Hilbert: certificates, k-search, null deformations."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullcurves.errors import (
    DomainError,
    NotInNullConeError,
    ToleranceUnachievableError,
)
from nullcurves import rh
from nullcurves.diagnostics import nullity_residual
from nullcurves.geometry import NullVector, SpinorPair, spinor_lift, spinor_project
from nullcurves.pipelines import catalog
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
from nullcurves.series import DEFAULT_BOUNDARY_SAMPLES, SeriesMap
from nullcurves.weierstrass import kill_periods, periods

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


def test_disc_distance_overflow_never_reads_zero():
    # |<d, ray>|^2 overflows while |d|^2 and |ray|^2 stay finite: d2 - along2
    # would read -inf, a distance of 0, where circle_distance reads 5e79
    p = np.array([[1e80, 0.0, 0.0]], dtype=complex)
    c = np.zeros((1, 3), dtype=complex)
    ray = np.array([[5e79, 0.0, 0.0]], dtype=complex)
    assert circle_distance(p, c, ray)[0] == pytest.approx(5e79)
    with pytest.raises(DomainError, match="overflow"):
        disc_distance(p, c, ray)
    # |d|^2 overflows on its own, against a ray of norm 1e-160: it reads inf
    far = np.array([[1e160, 0.0, 0.0]], dtype=complex)
    tiny = np.array([[1e-160, 0.0, 0.0]], dtype=complex)
    assert disc_distance(far, c, tiny)[0] == np.inf


def _quarter_arc_datum(**changes):
    kw = dict(arc=(0.0, np.pi / 2), mu=np.array([0.1]),
              theta=NullVector(np.array([1.0, -1j, 0.0])), taper=np.pi / 8,
              epsilon=1e300, r=0.9)
    kw.update(changes)
    return BoundaryData(**kw)


def test_collar_within_an_ulp_of_one_certifies():
    # the collar grid linspace(r, 1, 64) repeats radii: its gaps of width 0
    # hold only copies of their measured ends, and bound nothing as 0/0
    G, cert = rh_null_disc(catalog("linear_v1"), _quarter_arc_datum(r=1.0 - 2.0**-53))
    assert cert.valid and cert.cond_b < np.inf


def test_arc_between_boundary_samples_is_domain_error():
    # the arc (1e-3, 1e-3 + 1e-9), padded by 8e-10, falls between the sample
    # angles 0 and 2 pi / 4096: the certificate would read nothing of it
    bd = _quarter_arc_datum(arc=(1e-3, 1e-3 + 1e-9), taper=4e-10)
    with pytest.raises(DomainError, match="holds none of the 4096 boundary samples"):
        rh_null_disc(catalog("linear_v1"), bd)


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
    F, cert = rh_approx(f, fam, r=0.6, eps=0.05)
    assert cert.k == 6
    assert cert.cond_a == 0.0
    assert abs(cert.cond_c - 0.6**6) <= 1e-12
    assert cert.valid
    # F is exactly z^6 e1
    assert F.degree_hi == 6
    assert F.eval(0.3)[0] == pytest.approx(0.3**6, abs=1e-15)


def test_monotone_improvement_in_k():
    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([1.0, 0.0, 0.0]))
    rays, keep = fam.circle_values(512), np.zeros((2, 512), dtype=bool)
    maxima = []
    for k in range(4, 10):
        F = f + SeriesMap(fam.coeffs, k, "disc")
        cert = _certify_null(F, f, k, rays, keep, 0.6, 0.05)
        assert cert.cond_d == cert.cond_c  # empty keep-masks: (d) is (c)
        maxima.append(cert.cond_c)
    ratios = [b / a for a, b in zip(maxima, maxima[1:])]
    assert all(rt <= 0.6 + 1e-9 for rt in ratios)


def _certify_approx_reference(f, fam, F, k, r, eps, n=DEFAULT_BOUNDARY_SAMPLES):
    """The C^n conditions on the full grid, kept as the oracle of rh_approx.

    (a) on the unit circle, (b) on all 64 collar rings r..1 at once, and
    (c) on the ring r.
    """
    fb = f.circle_values(1.0, n)
    Fb = F.circle_values(1.0, n)
    c = fam.circle_values(n)
    cond_a = float(circle_distance(Fb, fb, c).max())
    rho = np.linspace(r, 1.0, 64)
    cond_b = float(disc_distance(F.rings(rho, n), fb, c).max())
    dv = (F - f).circle_values(r, n)
    cond_c = float(np.sqrt((np.abs(dv) ** 2).sum(axis=1)).max())
    return RHCertificate(k=k, r_prime=r, epsilon=eps, cond_a=cond_a, cond_b=cond_b,
                         cond_c=cond_c, n_samples=n)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    width=st.integers(1, 40),
    m=st.integers(0, 5),
    ncomp=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(0.3, 0.99),
    eps=st.floats(-3.0, -0.3).map(lambda e: 10.0 ** e),
    k_max=st.sampled_from([64, 512, 4096]),
)
# (b) at the rounding floor of disc_distance, where a relative skip margin
# alone left out the ring that holds the full grid's maximum
@example(width=1, m=0, ncomp=1, seed=1, r=0.5, eps=10 ** -0.5, k_max=64)
@example(width=1, m=0, ncomp=1, seed=351722844, r=0.691823646179039,
         eps=0.3755382372185464, k_max=512)
def test_rh_approx_equals_the_full_grid_search(width, m, ncomp, seed, r, eps, k_max):
    """rh_approx screens and bounds the collar, yet finds what the full grid finds.

    The same k, (a), (b), (c) and curve, or the same refusal and certificate;
    the one difference is cond_d, which reads (c) through empty keep-masks.
    """
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    f = SeriesMap(0.3 * cplx(ncomp, width) / (1.0 + np.arange(width)) ** 2, 0, "disc")
    fam = BoundaryDiscFamily(0.2 * cplx(ncomp, 2 * m + 1), m)

    def build(k, screen=False):
        F = f + SeriesMap(fam.coeffs, k - m, "disc")
        return F, _certify_approx_reference(f, fam, F, k, r, eps)

    try:
        want_F, want = rh._search_k(build, m, k_max)
    except ToleranceUnachievableError as refused:
        with pytest.raises(ToleranceUnachievableError) as info:
            rh_approx(f, fam, r, eps, k_max=k_max)
        want = refused.certificate
        assert str(info.value) == str(refused)
        assert info.value.certificate == replace(want, cond_d=want.cond_c)
        return
    F, cert = rh_approx(f, fam, r, eps, k_max=k_max)
    assert cert == replace(want, cond_d=want.cond_c)
    assert F.degree_lo == want_F.degree_lo and np.array_equal(F.coeffs, want_F.coeffs)


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
    F, cert = rh_approx(f, fam, r=0.6, eps=0.05)
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
        rh_approx(f, fam, r=0.6, eps=1e-9, k_max=32)
    cert = info.value.certificate
    assert cert is not None
    assert cert.cond_c == pytest.approx(0.6**32, rel=1e-10)


def test_rh_approx_rejects_bad_radii():
    f = SeriesMap.zero(3, "disc")
    fam = BoundaryDiscFamily.from_constant(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        rh_approx(f, fam, r=0.0, eps=0.1)
    with pytest.raises(DomainError):
        rh_approx(f, fam, r=1.0, eps=0.1)


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


def _grid(n):
    return TWO_PI * np.arange(n) / n


@pytest.mark.parametrize("seed", range(8))
def test_boundary_samples_equal_the_profile_on_their_grids(seed):
    rng = np.random.default_rng(seed)
    width = rng.uniform(0.3, 6.0)
    lo = rng.uniform(-TWO_PI, TWO_PI)
    if seed % 2:
        lo = -rng.uniform(0.0, width)  # the arc crosses theta = 0
    mu = rng.uniform(0.0, 0.2, rng.integers(1, 12))
    bd = linear_datum(arc=(lo, lo + width), mu=mu, taper=rng.uniform(0.01, 0.5) * width)
    # _push_round halves a one-sample mu until the growth fits its allowance
    halved = linear_datum(arc=bd.arc, mu=np.array([mu[0] * 0.5 ** seed]), taper=bd.taper)
    for datum in (bd, halved):
        # any sample count, not only the divisors of the fit's 8192 angles
        for n in (DEFAULT_BOUNDARY_SAMPLES, 1024, 3000, 32768):
            theta = _grid(n)
            rays, keep, r, eps, omega = datum.target(n)
            assert np.array_equal(rays, datum.amplitude_at(theta)[:, None] * datum.theta.v)
            pads = (2.0 * datum.taper, datum.taper)
            assert np.array_equal(keep, [~datum.in_padded_arc(theta, p) for p in pads])
            assert (r, eps, omega) == (datum.r, datum.epsilon,
                                       (datum.arc[0] - pads[0], datum.arc[1] + pads[0]))


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
        calls.append(args[2])
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
    assert len(ks) == 13  # one search, at m = 256 only
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

    def recorded(G, F_, k, rays, keep, r, eps, omega, orth_dir, screen=False):
        out = original(G, F_, k, rays, keep, r, eps, omega, orth_dir, screen=screen)
        calls[k] = (G, orth_dir, out)
        return out

    monkeypatch.setattr(rh, "_certify_null", recorded)
    G, cert = rh_null_disc(F, bd)
    k = cert.k
    screened = [kk for kk, (_, _, out) in calls.items() if isinstance(out, float)]
    assert screened and k - 1 in calls
    G_k, orth_dir, _ = calls[k]
    assert G_k is G
    assert original(G_k, F, k, *bd.target(), orth_dir) == cert
    below = original(calls[k - 1][0], F, k - 1, *bd.target(), orth_dir)
    assert cert.valid and not below.valid
    for kk in screened:
        # a screened attempt fails in full too, by at least its bound
        full = original(calls[kk][0], F, kk, *bd.target(), orth_dir)
        assert not full.valid and full.worst >= calls[kk][2]


def test_search_screens_on_the_collar(monkeypatch):
    # the collar drift sqrt 2 (1 - r) = 0.042 sits above epsilon for every
    # k, while the collar floor, half of it, lets the datum through
    F = linear_curve()
    bd = linear_datum(mu=np.array([0.05]), r=0.97, epsilon=0.03)
    G = _rh_null(F, replace(bd, epsilon=10.0), k_fixed=650).G
    full = _certify_null(G, F, 650, *bd.target())
    assert full.cond_a < bd.epsilon <= full.cond_b
    bound = _certify_null(G, F, 650, *bd.target(), screen=True)
    assert isinstance(bound, float) and bd.epsilon <= bound <= full.worst

    monkeypatch.setattr(rh, "K_MAX", 2048)
    calls = {}
    original = rh._certify_null

    def recorded(*args, screen=False):
        out = original(*args, screen=screen)
        calls[args[2]] = out
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


def _synthetic_search(cond_a, cond_b=lambda k: 0.0, m=64, k_max=rh.K_MAX, eps=0.05,
                      screening=True):
    """Run _search_k on conditions given as functions of k.

    Returns (the answer's k, the screened attempts in order).  A screening
    builder stops where _certify_null does: at an (a), then at a (b), that
    reaches eps, returning the bound with (a) attached.
    """
    attempts = []

    def build(k, screen=False):
        a, b = cond_a(k), cond_b(k)
        if screen:
            attempts.append(k)
            if screening and a >= eps:
                return k, rh._Screened(a, a)
            if screening and b >= eps:
                return k, rh._Screened(max(a, b), a)
        return k, RHCertificate(k=k, r_prime=0.9, epsilon=eps, cond_a=a, cond_b=b,
                                cond_c=0.0)

    k, cert = rh._search_k(build, m, k_max)
    assert cert.k == k and cert.valid
    return k, attempts


def _bisection_search(worst, m, eps=0.05):
    """The doubling-then-bisection search, kept as the reference: (k, attempts)."""
    attempts = []

    def certifies(k):
        attempts.append(k)
        return worst(k) < eps

    k_lo, k_hi = m, m + 1
    while not certifies(k_hi):
        k_lo, k_hi = k_hi, 2 * (k_hi - m) + m
    while k_hi - k_lo > 1:
        mid = (k_lo + k_hi) // 2
        if certifies(mid):
            k_hi = mid
        else:
            k_lo = mid
    return k_hi, attempts


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("m, answer", [(64, 347.3), (64, 1137.6), (256, 2670.2), (0, 5.5)])
def test_search_on_a_power_law_finds_what_bisection_finds(p, m, answer):
    """On an exact decay C k^(-p) the secant lands on bisection's answer.

    It certifies no more often than bisection, whose certifying attempts
    are the costly ones, and makes no more attempts in all.
    """
    def worst(k):
        return 0.05 * (answer / k) ** p

    k, attempts = _synthetic_search(worst, m=m)
    want, reference = _bisection_search(worst, m)
    assert k == want == int(np.ceil(answer))
    certifying = [kk for kk in attempts if worst(kk) < 0.05]
    assert len(certifying) <= len([kk for kk in reference if worst(kk) < 0.05])
    assert len(attempts) <= len(reference)


def test_search_on_a_non_monotone_law_returns_a_transition():
    """Next to eps the worst case wiggles, as on seed 101's annulus datum.

    There k = 1313 fails, 1314 certifies, 1315 fails and 1316 certifies;
    here odd k certify from 1311 and even k from 1320.  The answer
    certifies, and its k - 1 was attempted and failed.
    """
    def worst(k):
        return 0.05 * np.sqrt(1314.5 / k) * (1.0 + 2e-3 * (-1) ** k)

    k, attempts = _synthetic_search(worst)
    assert worst(k) < 0.05 and k - 1 in attempts and not worst(k - 1) < 0.05
    assert len(attempts) == len(set(attempts))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    p=st.floats(0.25, 2.0),
    q=st.floats(0.25, 2.0),
    answer=st.floats(70.0, 8000.0),
    b_over_a=st.floats(0.5, 1.2),
    wiggle=st.floats(0.0, 1e-3),
    m=st.sampled_from([0, 64, 256]),
)
def test_screening_leaves_the_search_path_unchanged(p, q, answer, b_over_a, wiggle, m):
    """Screened and unscreened builders make the same attempts.

    A failing attempt feeds the secant its (a) only where (a) reaches eps,
    where the screened bound is (a) itself; one that fails on (b) alone
    sends the search to the midpoint either way.
    """
    def cond_a(k):
        return 0.05 * (answer / k) ** p * (1.0 + wiggle * np.sin(k))

    def cond_b(k):
        return 0.05 * b_over_a * (answer / k) ** q * (1.0 + wiggle * np.cos(3 * k))

    screened = _synthetic_search(cond_a, cond_b, m=m)
    unscreened = _synthetic_search(cond_a, cond_b, m=m, screening=False)
    assert screened == unscreened
    k, attempts = screened
    assert k - 1 in attempts or k == m + 1
    if k > m + 1:
        assert max(cond_a(k - 1), cond_b(k - 1)) >= 0.05


@pytest.mark.parametrize("m, k_max", [(0, 8), (3, 100), (256, 65536)])
def test_exhausted_search_makes_the_doubling_attempts(m, k_max):
    attempts = []

    def build(k, screen=False):
        if screen:
            attempts.append(k)
            return k, rh._Screened(0.1 + 1.0 / k, 0.1 + 1.0 / k)
        return k, RHCertificate(k=k, r_prime=0.9, epsilon=0.05, cond_a=0.1 + 1.0 / k,
                                cond_b=0.0, cond_c=0.0)

    with pytest.raises(ToleranceUnachievableError, match="no k <= %d" % k_max) as info:
        rh._search_k(build, m, k_max)
    doubling = [m + 1]
    while doubling[-1] < k_max:
        doubling.append(min(2 * (doubling[-1] - m) + m, k_max))
    assert attempts == doubling and info.value.certificate.k == k_max


@pytest.mark.parametrize("domain", ["disc", "annulus"])
def test_push_factor_is_stored_on_its_support(domain):
    F = linear_curve() if domain == "disc" else annulus_curve()
    pair = spinor_lift(F.derivative())
    m, k = 64, 650
    s_hat = np.linspace(1.0, 2.0, 2 * m + 1) + 0.5j
    a, b = rh._direction_lift(NullVector(V2))
    pushed, S = rh._push_spinor(pair, s_hat, m, k, a, b)
    assert (S.domain, S.degree_lo, S.width) == (domain, k - m, 2 * m + 1)
    assert np.array_equal(S.coeffs[0], np.sqrt(2.0 * k + 1.0) * s_hat)
    assert pushed.u.degree_hi == k + m


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
    """A gate-8 push: one of 8 arcs, MU_CAP = 0.002, k = 650 on a thin collar."""
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


def _assert_matches_per_radius(G, F, bd, k, n, orth_dir):
    """_certify_null against _certify_null_per_radius, field by field."""
    got = _certify_null(G, F, k, *bd.target(n), orth_dir)
    cond_a, cond_b, cond_c, cond_d, cond_orth = _certify_null_per_radius(G, F, bd, n, orth_dir)
    assert got.cond_a == pytest.approx(cond_a, rel=1e-12, abs=1e-15)
    assert got.cond_b == cond_b
    if orth_dir is None:
        assert got.cond_orth is None
    else:
        assert got.cond_orth == pytest.approx(cond_orth, rel=1e-12, abs=1e-15)
    assert got.cond_c == pytest.approx(cond_c, rel=1e-12, abs=1e-15)
    assert got.cond_d == pytest.approx(cond_d, rel=1e-12, abs=1e-15)
    assert (got.k, got.r_prime, got.epsilon, got.omega, got.n_samples) == (
        k, bd.r, bd.epsilon, (bd.arc[0] - 2 * bd.taper, bd.arc[1] + 2 * bd.taper), n
    )
    return got


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
        got = _assert_matches_per_radius(G, F, bd, k, 1024, orth_dir)
        if case != "interior_segment_max":
            assert got.cond_c == pytest.approx(want_c, rel=1e-9, abs=1e-15)
            assert got.cond_d == pytest.approx(want_d, rel=1e-9, abs=1e-15)


def test_a_ring_alone_equals_the_ring_in_a_batch():
    """The certificate's rings come in batches of any size; the bits must not."""
    _, bd, G, _ = _certify_case("thin_collar")
    rho = np.linspace(bd.r, 1.0, 64)
    for n in (1024, 4096):
        batch = G.rings(rho[:rh._CERT_RING_BLOCK], n)
        for i in range(batch.shape[0]):
            assert np.array_equal(G.rings(rho[i:i + 1], n)[0], batch[i])
        assert np.array_equal(G.circle_values(1.0, n), G.rings(rho[-3:], n)[-1])


def _count_collar_rings(monkeypatch, series):
    """Spy on SeriesMap.rings and rh._second_derivative_bound; returns (radii, bounded).

    A rings call on one of series appends its radii to radii, and each
    bound call appends its series to bounded, until the test ends.
    """
    radii, bounded = [], []
    rings, bound = SeriesMap.rings, rh._second_derivative_bound

    def counted(self, rr, n, phases=0.0):
        if any(self is S for S in series):
            radii.extend(np.atleast_1d(rr).tolist())
        return rings(self, rr, n, phases)

    def counted_bound(S, r_lo, r_hi):
        bounded.append(S)
        return bound(S, r_lo, r_hi)

    monkeypatch.setattr(SeriesMap, "rings", counted)
    monkeypatch.setattr(rh, "_second_derivative_bound", counted_bound)
    return radii, bounded


def test_thin_collar_measures_few_rings(monkeypatch):
    """(b) alone decides which collar rings of G are evaluated.

    The radial segments of (c)/(d) are read by Horner at every grid radius,
    so a segment that holds the sup (interior_segment_max) or a wide
    annulus collar costs no rings.  The bound on |G''| between measured
    rings skips a gap whose values fall off its ends, as they do off the
    ring r that holds the maximum on a collar at its floor.
    """
    bounds = {"thin_collar": 2, "interior_segment_max": 3, "annulus": 4, "disc": 8,
              "general_orth": 8, "annulus_wide_collar": 7}
    cases = {case: _certify_case(case) for case in bounds}
    radii, bounded = _count_collar_rings(monkeypatch, [G for _, _, G, _ in cases.values()])
    for case, most in bounds.items():
        F, bd, G, k = cases[case]
        radii.clear()
        bounded.clear()
        orth = _unit([0.3 - 0.2j, -1.1 + 0.5j, 0.7j]) if case == "general_orth" else None
        cert = _certify_null(G, F, k, *bd.target(), orth)
        assert cert.valid == (case == "thin_collar")
        grid = np.linspace(bd.r, 1.0, 64)
        assert np.isin(radii, grid).all() and len(set(radii)) == len(radii)
        assert len(radii) <= most, case
        assert bounded and all(S is G for S in bounded), case


def test_wide_push_certificate_measures_few_rings(monkeypatch):
    """A k = 8192 certificate measures a handful of its 64 collar rings.

    The bound on |G''| is read off the coefficients, so it takes no samples
    and costs little at any width.
    """
    F = linear_curve()
    bd = linear_datum(mu=np.array([0.05]), r=0.9997)
    G = _rh_null(F, replace(bd, epsilon=10.0), k_fixed=8192).G
    radii, _ = _count_collar_rings(monkeypatch, [G])
    cert = _certify_null(G, F, 8192, *bd.target())
    assert G.width > 16000 and cert.valid
    assert len(radii) <= 12


def _second_derivative_reference(S, r_lo, r_hi, oversample=16):
    """max |S''| sampled on the circles r_lo and r_hi, 16 samples per degree or more."""
    d2 = S.derivative().derivative()
    n = 1 << (oversample * d2.width - 1).bit_length()
    vals = d2.rings([r_lo, r_hi], n)
    return float(np.sqrt((np.abs(vals) ** 2).sum(axis=2)).max())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    width=st.one_of(st.integers(1, 3000), st.integers(4000, 4200), st.integers(4500, 6000)),
    annulus=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_second_derivative_bound_covers_the_sampled_sup(width, annulus, seed):
    r = np.random.default_rng(seed)
    coeffs = r.normal(size=(3, width)) + 1j * r.normal(size=(3, width))
    if annulus:
        lo = -int(r.integers(0, min(width, 64)))
        S = SeriesMap(coeffs, lo, "annulus", float(r.uniform(0.7, 0.95)))
    else:
        S = SeriesMap(coeffs, 0, "disc")
    inner = S.r0 if annulus else 0.0
    r_lo, r_hi = np.sort(r.uniform(inner, 1.0, 2))
    bound = rh._second_derivative_bound(S, r_lo, r_hi)
    assert _second_derivative_reference(S, r_lo, r_hi) <= bound


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 650, 8192, -1, -5])
def test_second_derivative_bound_of_a_monomial(degree):
    """|c| |d (d - 1)| rho^(d - 2) at the circle where that power peaks, padded by 1e-12."""
    c = np.array([0.3 - 1.2j, 0.5j, -2.0])
    domain, r0 = ("annulus", 0.3) if degree < 0 else ("disc", None)
    S = SeriesMap(c[:, None], degree, domain, r0)
    r_lo, r_hi = 0.55, 0.9
    want = np.linalg.norm(c) * abs(degree * (degree - 1)) * (
        r_hi if degree >= 2 else r_lo) ** (degree - 2)
    got = rh._second_derivative_bound(S, np.array([r_lo, r_lo]), np.array([r_hi, r_hi]))
    assert got.shape == (2,) and got[0] == got[1]
    if degree in (0, 1):
        assert got[0] == 0.0
    else:
        assert want <= got[0] == pytest.approx(want * (1 + 1e-12), rel=1e-14)


@pytest.mark.parametrize("c", [0.0, 1e-310])
def test_certificate_of_a_nearly_affine_push(c):
    """M = 0, and an M g so small that (phi_j - phi_i) / (M g) would overflow.

    G = F + c z^2 V1 on the linear curve, so M = 2 sqrt 2 c, and the vertex
    lies past an end of every gap; warnings are errors under tier-1.
    """
    F = linear_curve()
    bump = np.zeros((3, 3), dtype=complex)
    bump[:, 2] = c * V1
    G = F + SeriesMap(bump, 0, "disc")
    assert rh._second_derivative_bound(G, 0.5, 1.0) == pytest.approx(2 * np.sqrt(2) * c)
    bd = linear_datum(r=0.5)
    _assert_matches_per_radius(G, F, bd, 0, 1024, None)


@pytest.mark.parametrize("domain", ["disc", "annulus"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    data=st.data(),
    k=st.integers(96, 6000),
    mu=st.lists(st.floats(0.0, 0.2), min_size=1, max_size=4),
    start=st.floats(0.0, TWO_PI),
    width=st.floats(0.3, 3.0),
    taper=st.floats(0.02, 0.45),
    direction=st.sampled_from([V1, V2, [0.0, 1.0, 1j], [1j, 0.0, 1.0]]),
    r=st.floats(0.6, 0.99),
    epsilon=st.sampled_from([0.02, 0.05, 0.2, 1.0]),
)
def test_certificate_bound_is_sound(domain, data, k, mu, start, width, taper, direction, r,
                                    epsilon):
    """Whatever the push, the bound-first certificate is the per-radius one.

    A skipped gap that held the maximum would lower cond_b; the screen must
    stop exactly the pushes whose (a) or (b) reaches epsilon.
    """
    names = ["annulus_basic"] if domain == "annulus" else ["linear_v1", "cubic_enneper_like"]
    F = catalog(data.draw(st.sampled_from(names)))
    bd = BoundaryData(arc=(start, start + width), mu=np.array(mu),
                      theta=NullVector(np.array(direction, dtype=complex)),
                      taper=taper * width, epsilon=epsilon, r=r)
    G = _rh_null(F, replace(bd, epsilon=10.0), k_fixed=k).G
    got = _assert_matches_per_radius(G, F, bd, k, DEFAULT_BOUNDARY_SAMPLES, _unit([0, 0, 1]))
    screened = _certify_null(G, F, k, *bd.target(), screen=True)
    if max(got.cond_a, got.cond_b) >= epsilon:
        assert isinstance(screened, float) and screened <= max(got.cond_a, got.cond_b)
    else:
        assert replace(screened, cond_orth=got.cond_orth) == got


@pytest.mark.parametrize(
    "arc, taper",
    # the first datum's keep-mask segments reach inside r0; the second's
    # padded arc covers the circle, so it has no segments at all
    [((0.3, 0.3 + np.pi / 2), np.pi / 8), ((0.5, 4.5), 1.2)],
    ids=["segments_inside_r0", "empty_keep_mask"],
)
def test_annulus_collar_at_or_inside_r0_is_refused(arc, taper):
    F = annulus_curve()
    for r in (0.2, F.r0):
        bd = linear_datum(arc=arc, taper=taper, epsilon=2.0, r=r)
        with pytest.raises(DomainError, match="r = %g .* r0 = 0.25" % r):
            rh_null_annulus(F, bd)


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


def test_annulus_push_kills_the_periods_it_creates(monkeypatch):
    """At k = 2 the push overlaps the z^-2 term of the spinor, so G' gains a
    z^-1 term and the push corrects it with one kill_periods call.  k is
    pinned: the search's first k = 65 clears the Laurent window."""
    r0 = 0.25
    u = SeriesMap(np.array([[1.0]], dtype=complex), 0, "annulus", r0)
    v = SeriesMap(np.array([[0.02, 0.0, 0.0, 1.0]], dtype=complex), -2, "annulus", r0)
    F = kill_periods(SpinorPair(u, v), target=1e-12).g.antiderivative(np.sqrt(r0), np.zeros(3))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kill_periods(*args, **kwargs)

    monkeypatch.setattr(rh, "kill_periods", counted)
    out = _rh_null(F, linear_datum(mu=np.array([0.02]), epsilon=0.1, r=0.97), k_fixed=2)
    assert len(calls) == 1
    assert out.cert.k == 2 and out.cert.valid
    assert periods(spinor_project(out.spinor)).max_abs <= 1e-10
    assert np.abs((out.G.derivative() - spinor_project(out.spinor)).coeffs).max() <= 1e-12
    assert nullity_residual(out.G) <= 1e-12
