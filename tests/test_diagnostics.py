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
    _polar_weights,
    _sample_layout,
)
from nullcurves.errors import DegenerateImmersionError, DomainError
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
    rep = intrinsic_radius(linear_curve(), r_core=0.0, grid=(64, 256))
    assert abs(rep.intrinsic_radius - SQRT2) < 1e-12
    assert abs(rep.extrinsic_radius - SQRT2) < 1e-12
    assert rep.grid == (64, 256)
    assert rep.r_core == 0.0


def test_flat_disc_shortcut_bracket():
    # antipodal quarter-arcs: euclidean gap between arc ends is sqrt(2), so
    # the metric path is between sqrt(2)*sqrt(2) = 2 and the through-center
    # 2*sqrt(2)
    rep = intrinsic_radius(linear_curve(), r_core=0.0, grid=(64, 256))
    assert 2.0 - 1e-9 <= rep.shortcut_length <= 2.0 * SQRT2 + 1e-9


def test_radius_scaling_exact():
    F = enneper_curve()
    base = intrinsic_radius(F, r_core=0.0, grid=(32, 128))
    c = 2.5 - 1.3j
    scaled = intrinsic_radius(F * c, r_core=0.0, grid=(32, 128))
    assert abs(scaled.intrinsic_radius - abs(c) * base.intrinsic_radius) <= (
        1e-10 * base.intrinsic_radius
    )
    assert abs(scaled.extrinsic_radius - abs(c) * base.extrinsic_radius) <= (
        1e-10 * base.extrinsic_radius
    )


@settings(max_examples=20, deadline=None)
@given(
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )
)
def test_radius_scaling_property(c):
    F = linear_curve()
    rep = intrinsic_radius(F * c, r_core=0.0, grid=(8, 16))
    assert abs(rep.intrinsic_radius - abs(c) * SQRT2) < 1e-10 * abs(c)


def test_mesh_convergence_enneper():
    coarse = intrinsic_radius(enneper_curve(), r_core=0.0, grid=(64, 256))
    fine = intrinsic_radius(enneper_curve(), r_core=0.0, grid=(128, 512))
    rel = abs(fine.intrinsic_radius - coarse.intrinsic_radius) / coarse.intrinsic_radius
    assert rel < 0.02


def test_annulus_radial_integral():
    # lambda = sqrt(2) (r^2 + r^-2) for the catalog annulus curve; the
    # radial geodesic gives sqrt(2) * [r^3/3 - 1/r] from 0.25 to 1
    exact = SQRT2 * ((1.0 / 3.0 - 1.0) - (0.25**3 / 3.0 - 4.0))
    rep = intrinsic_radius(annulus_curve(), grid=(128, 512))
    assert rep.r_core == 0.25
    assert abs(rep.intrinsic_radius - exact) < 5e-3 * exact


def test_disc_radial_integral():
    # lambda = sqrt(2) (1 + r^2) for the Enneper-like curve; the radial
    # geodesic gives sqrt(2) * 4/3
    exact = SQRT2 * 4.0 / 3.0
    rep = intrinsic_radius(enneper_curve(), grid=(128, 512))
    assert rep.r_core == 0.0
    assert abs(rep.intrinsic_radius - exact) < 1e-4 * exact


def test_degenerate_immersion_raises():
    F = SeriesMap.from_components([[0, 0, 1], [0, 0, 1j], [0, 0, 0]])
    with pytest.raises(DegenerateImmersionError):
        intrinsic_radius(F, r_core=0.0, grid=(16, 32))


def test_radius_argument_guards():
    with pytest.raises(ValueError):
        intrinsic_radius(linear_curve(), grid=(1, 32))
    with pytest.raises(DomainError):
        intrinsic_radius(linear_curve(), r_core=1.0)
    with pytest.raises(DomainError):
        intrinsic_radius(annulus_curve(), r_core=0.1)


def test_radius_report_validation():
    with pytest.raises(ValueError):
        RadiusReport(-1.0, 1.0, (8, 16), 0.0)


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
    with pytest.raises(ValueError):
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
