import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcurves.diagnostics import (
    RadiusReport,
    bounded_coordinate_report,
    embedded_check,
    intrinsic_radius,
    nullity_residual,
    _lifted,
    _polar_weights,
    _radial_nodes,
    _sample_layout,
)
from nullcurves.errors import DegenerateImmersionError, DomainError
from nullcurves.geometry import NullVector, SpinorPair, spinor_project
from nullcurves.rh import BoundaryData, _rh_null
from nullcurves.series import SeriesMap

SQRT2 = math.sqrt(2.0)


def linear_curve():
    return SeriesMap.from_components([[0, 1], [0, 1j], [0, 0]])


def enneper_curve():
    # (z - z^3/3, i(z + z^3/3), z^2); null by hand:
    # (1 - z^2)^2 - (1 + z^2)^2 + (2z)^2 = 0
    return SeriesMap.from_components(
        [[0, 1, 0, -1.0 / 3.0], [0, 1j, 0, 1j / 3.0], [0, 0, 1, 0]]
    )


def annulus_curve():
    # antiderivative of (z^2 - z^-2, i(z^2 + z^-2), 2) on r0 = 0.25
    return SeriesMap.from_components(
        [
            [1, 0, 0, 0, 1.0 / 3.0],
            [-1j, 0, 0, 0, 1j / 3.0],
            [0, 0, 2, 0, 0],
        ],
        degree_lo=-1,
        domain="annulus",
        r0=0.25,
    )


# ---------------------------------------------------------------- nullity


def test_nullity_enneper_exactly_zero():
    assert nullity_residual(enneper_curve()) == 0.0


def test_nullity_flat_line_is_one():
    F = SeriesMap.from_components([[0, 1], [0, 0], [0, 0]])
    assert nullity_residual(F) == 1.0


def test_nullity_linear_null_zero():
    assert nullity_residual(linear_curve()) == 0.0


def test_nullity_annulus_exact():
    assert nullity_residual(annulus_curve()) == 0.0


def test_nullity_constant_curve():
    assert nullity_residual(SeriesMap.constant([1.0, 2.0, 3.0])) == 0.0


def test_nullity_detects_perturbation():
    F = SeriesMap.from_components([[0, 1], [0, 1j], [0, 0.1]])
    assert abs(nullity_residual(F) - 0.01) < 1e-15


# ---------------------------------------------------------- metric factor


def test_conformal_factor_flat():
    # lambda = |F'| = sqrt 2 everywhere, so each edge weighs sqrt 2 times its length
    radii = np.linspace(0.0, 1.0, 5)
    w_tan, w_rad, w_dru, w_drl = _polar_weights(linear_curve(), radii, 16)
    tan_length = 2.0 * radii * math.sin(math.pi / 16)
    assert np.max(np.abs(w_tan - SQRT2 * tan_length[:, None])) < 1e-14
    assert np.max(np.abs(w_rad - SQRT2 * 0.25)) < 1e-14
    assert np.max(np.abs(w_dru - w_drl)) < 1e-14


def test_metric_identity_null_curve():
    # lambda^2 = |F'|^2 == 2 |d/dx Re F|^2 pointwise for null maps
    F = enneper_curve()
    z = 0.7 * np.exp(1j * np.linspace(0.1, 6.1, 23))
    fp = F.derivative().eval_many(z)
    lam2 = (np.abs(fp) ** 2).sum(axis=1)
    rhs = 2.0 * (fp.real**2).sum(axis=1)
    assert np.max(np.abs(lam2 - rhs)) < 1e-8 * np.max(lam2)


# ------------------------------------------------------- intrinsic radius


def test_flat_disc_radii():
    rep = intrinsic_radius(linear_curve(), grid=(64, 256))
    assert abs(rep.intrinsic_radius - SQRT2) < 1e-12
    assert abs(rep.extrinsic_radius - SQRT2) < 1e-12


def test_radius_scaling_exact():
    F = enneper_curve()
    base = intrinsic_radius(F, grid=(32, 128))
    c = 2.5 - 1.3j
    scaled = intrinsic_radius(F * c, grid=(32, 128))
    assert abs(scaled.intrinsic_radius - abs(c) * base.intrinsic_radius) <= (
        1e-10 * base.intrinsic_radius
    )
    assert abs(scaled.extrinsic_radius - abs(c) * base.extrinsic_radius) <= (
        1e-10 * base.extrinsic_radius
    )
    # below about 1e-154 the squares of a curve's values underflow: such a
    # curve is measured lifted by a power of two, and a curve in the normal
    # range is measured as it is
    for G in (F, F * 2.0 ** -256):  # the largest coefficient of F is 1
        assert _lifted(G)[0] is G and _lifted(G)[1] == 0
    non_null = SeriesMap.from_components([[0, 1, 0.5], [0, 0.3, 0], [1, 0, 0.2]])
    assert nullity_residual(non_null) == 1.0
    for s in (1e-160, 1e-300):
        tiny = intrinsic_radius(F * s, grid=(32, 128))
        assert tiny.intrinsic_radius / s == pytest.approx(base.intrinsic_radius, rel=1e-12)
        assert tiny.extrinsic_radius / s == pytest.approx(base.extrinsic_radius, rel=1e-12)
        assert nullity_residual(non_null * s) == 1.0


@settings(max_examples=20, deadline=None)
@given(
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )
)
def test_radius_scaling_property(c):
    F = linear_curve()
    rep = intrinsic_radius(F * c, grid=(8, 16))
    assert abs(rep.intrinsic_radius - abs(c) * SQRT2) < 1e-10 * abs(c)


def test_mesh_convergence_enneper():
    coarse = intrinsic_radius(enneper_curve(), grid=(64, 256))
    fine = intrinsic_radius(enneper_curve(), grid=(128, 512))
    rel = abs(fine.intrinsic_radius - coarse.intrinsic_radius) / coarse.intrinsic_radius
    assert rel < 0.02


def test_annulus_radial_integral():
    # lambda = sqrt(2) (r^2 + r^-2) for the catalog annulus curve; the
    # radial geodesic gives sqrt(2) * [r^3/3 - 1/r] from 0.25 to 1
    exact = SQRT2 * ((1.0 / 3.0 - 1.0) - (0.25**3 / 3.0 - 4.0))
    rep = intrinsic_radius(annulus_curve(), grid=(128, 512))
    assert abs(rep.intrinsic_radius - exact) < 5e-3 * exact


def test_disc_radial_integral():
    # lambda = sqrt(2) (1 + r^2) for the Enneper-like curve; the radial
    # geodesic gives sqrt(2) * 4/3
    exact = SQRT2 * 4.0 / 3.0
    rep = intrinsic_radius(enneper_curve(), grid=(128, 512))
    assert abs(rep.intrinsic_radius - exact) < 1e-4 * exact


def test_degenerate_immersion_raises():
    F = SeriesMap.from_components([[0, 0, 1], [0, 0, 1j], [0, 0, 0]])
    with pytest.raises(DegenerateImmersionError):
        intrinsic_radius(F, grid=(16, 32))


def test_radius_argument_guards():
    with pytest.raises(ValueError):
        intrinsic_radius(linear_curve(), grid=(1, 32))


def test_radius_report_validation():
    with pytest.raises(ValueError):
        RadiusReport(-1.0, 1.0)


# ------------------------------------------- metric factor from the spinor


@pytest.fixture(scope="module")
def two_frequency_push():
    """linear_v1 pushed along V2 at k = 96, then at 4k on an overlapping arc.

    F' then carries blocks near 2k, 5k and 8k that the spinor does not.
    Returns (curve, its spinor, the spinor before the second push).
    """
    v2 = NullVector(np.array([1.0, -1.0j, 0.0]) / SQRT2)
    F, spinor, history = linear_curve(), None, []
    for k, arc in ((96, (-0.8 * math.pi, 0.8 * math.pi)), (384, (0.2 * math.pi, 1.8 * math.pi))):
        bd = BoundaryData(
            arc=arc, mu=np.array([0.002]), theta=v2, taper=math.pi / 4, epsilon=0.05, r=0.985
        )
        out = _rh_null(F, bd, spinor=spinor, k_fixed=k)
        F, spinor = out.G, out.spinor
        history.append(spinor)
    return F, spinor, history[0]


def test_spinor_weights_match_derivative_weights(two_frequency_push):
    F, spinor, _ = two_frequency_push
    radii = _radial_nodes(0.0, 64)
    for w_fp, w_sp in zip(_polar_weights(F, radii, 256), _polar_weights(F, radii, 256, spinor)):
        np.testing.assert_allclose(w_sp, w_fp, rtol=1e-13, atol=0.0)


def test_spinor_radius_matches_derivative_radius(two_frequency_push):
    F, spinor, _ = two_frequency_push
    by_fp = intrinsic_radius(F, grid=(64, 256))
    by_spinor = intrinsic_radius(F, grid=(64, 256), spinor=spinor)
    assert by_fp.intrinsic_radius > SQRT2 + 1e-4  # the pushes cover the circle
    assert abs(by_spinor.intrinsic_radius - by_fp.intrinsic_radius) <= (
        4 * np.spacing(by_fp.intrinsic_radius)
    )
    assert by_spinor.extrinsic_radius == by_fp.extrinsic_radius


def test_spinor_of_another_curve_is_refused(two_frequency_push):
    F, _, stale = two_frequency_push
    with pytest.raises(ValueError, match="does not generate"):
        intrinsic_radius(F, grid=(64, 256), spinor=stale)
    linear_spinor = SpinorPair(SeriesMap.constant([1.0]), SeriesMap.zero())
    with pytest.raises(ValueError, match="does not generate"):
        intrinsic_radius(enneper_curve(), grid=(16, 32), spinor=linear_spinor)


def test_spinor_vanishing_at_the_centre_is_degenerate():
    z = SeriesMap.from_components([[0.0, 1.0]])
    spinor = SpinorPair(z, z)
    F = spinor_project(spinor).antiderivative(0.0, np.zeros(3))
    with pytest.raises(DegenerateImmersionError):
        intrinsic_radius(F, grid=(16, 32), spinor=spinor)


# --------------------------------------------------- bounded coordinates


def test_bounded_report_linear():
    sup3, min12 = bounded_coordinate_report(linear_curve())
    assert sup3 == 0.0
    assert abs(min12 - SQRT2) < 1e-12


def test_bounded_report_vertical():
    F = SeriesMap.from_components([[0, 0], [0, 0], [0, 1]])
    sup3, min12 = bounded_coordinate_report(F)
    assert abs(sup3 - 1.0) < 1e-12
    assert min12 == 0.0


def test_bounded_report_interior_agrees_with_boundary():
    F = enneper_curve()
    sup3, _ = bounded_coordinate_report(F)
    boundary_only = float(np.abs(F.circle_values(1.0, 8192)[:, 2]).max())
    assert sup3 <= boundary_only + 1e-9
    assert sup3 >= boundary_only - 1e-9


def test_bounded_report_needs_three_components():
    with pytest.raises(DomainError, match="3 components, not 1"):
        bounded_coordinate_report(SeriesMap.from_components([[0, 1]]))


# ------------------------------------------------------------ embeddedness


def test_embedded_linear_clean():
    rep = embedded_check(linear_curve(), n_samples=2000)
    assert not rep.flagged
    assert rep.offending_pair is None
    # closest qualifying pair: domain separation ~ d_dom, flat factor sqrt(2)
    assert rep.min_separation >= SQRT2 * rep.d_dom * 0.99


def test_embedded_even_map_flagged():
    F = SeriesMap.from_components([[0, 0, 1], [0, 0, 1j], [0, 0, 0]])
    rep = embedded_check(F, n_samples=2000)
    assert rep.flagged
    zi, zj = rep.offending_pair
    assert abs(zi + zj) < 1e-12  # the (z, -z) collision
    assert rep.min_separation < 1e-12


def test_embedded_enneper_matches_brute_force():
    F = enneper_curve()
    rep = embedded_check(F, n_samples=2000, d_dom=0.5, d_amb=1e-3)
    assert not rep.flagged

    dom, ambient = _sample_layout(F, 2000)
    n = dom.size
    sep2 = np.zeros((n, n))
    for k in range(ambient.shape[1]):
        d = ambient[:, k][:, None] - ambient[:, k][None, :]
        sep2 += d.real**2 + d.imag**2
    dd = dom[:, None] - dom[None, :]
    qualifies = (dd.real**2 + dd.imag**2) >= 0.5 * 0.5
    qualifies &= np.triu(np.ones((n, n), dtype=bool), 1)
    best = np.sqrt(sep2[qualifies].min())
    assert abs(rep.min_separation - best) < 1e-12 * max(best, 1.0)
    assert not np.any(sep2[qualifies] < 1e-6)


def test_embedded_no_qualifying_pairs():
    rep = embedded_check(linear_curve(), n_samples=500, d_dom=10.0)
    assert rep.min_separation == math.inf
    assert rep.min_pair is None
    assert not rep.flagged
    assert json.loads(rep.to_json())["min_separation"] == math.inf
