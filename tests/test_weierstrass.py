"""Periods, null integration, and the period-killing Newton iteration."""

import numpy as np
import pytest

from nullcurves.errors import (
    ConvergenceFailureError,
    DomainError,
    NonDominatingSprayError,
)
from nullcurves.geometry import SpinorPair, spinor_project
from nullcurves.series import SeriesMap
from nullcurves.weierstrass import (
    SpraySpec,
    kill_periods,
    periods,
)

R0 = 0.25


def spinor(u_coeffs, lo_u, v_coeffs, lo_v, domain="annulus", r0=R0):
    u = SeriesMap(np.asarray(u_coeffs, dtype=complex)[None, :], lo_u, domain, r0)
    v = SeriesMap(np.asarray(v_coeffs, dtype=complex)[None, :], lo_v, domain, r0)
    return SpinorPair(u, v)


# -- periods -------------------------------------------------------------------


def test_disc_periods_empty():
    f = SeriesMap(np.ones((3, 2), dtype=complex), 0, "disc")
    P = periods(f)
    assert P.columns.shape == (3, 0)
    assert P.max_abs == 0.0


def test_annulus_period_is_residue():
    # pi(1, 1/z) = (1 - z^-2, i(1 + z^-2), 2/z): period (0, 0, 4*pi*i)
    s = spinor([1.0], 0, [1.0], -1)
    f = spinor_project(s)
    P = periods(f)
    want = np.array([0.0, 0.0, 4j * np.pi])
    assert np.abs(P.columns[:, 0] - want).max() < 1e-15
    assert P.loop_radii == (0.5,)


# -- integration ---------------------------------------------------------------


def test_integrate_polynomial_example():
    # pi(1, z) integrates to (z - z^3/3, i(z + z^3/3), z^2)
    s = spinor([1.0], 0, [0.0, 1.0], 0, domain="disc", r0=None)
    F = spinor_project(s).antiderivative(0.0, (0.0, 0.0, 0.0))
    want = np.zeros((3, 4), dtype=complex)
    want[0, 1], want[0, 3] = 1.0, -1.0 / 3.0
    want[1, 1], want[1, 3] = 1j, 1j / 3.0
    want[2, 2] = 1.0
    assert np.abs(F.coeffs - want).max() < 1e-15


def test_integrate_respects_base_value():
    s = spinor([1.0], 0, [0.0, 1.0], 0, domain="disc", r0=None)
    F = spinor_project(s).antiderivative(0.5, (1.0, 2.0, 3.0))
    assert np.abs(F.eval(0.5) - np.array([1.0, 2.0, 3.0])).max() < 1e-14


def test_annulus_integration_when_period_free():
    # pi(z, 1/z) has no z^-1 coefficient in any component
    s = spinor([1.0], 1, [1.0], -1)
    f = spinor_project(s)
    base = float(np.sqrt(R0))
    F = f.antiderivative(base, (0.0, 0.0, 0.0))
    assert np.abs(F.eval(base)).max() < 1e-14
    assert np.abs(F.derivative().eval(0.7) - f.eval(0.7)).max() < 1e-12


# -- kill_periods ---------------------------------------------------------------


def test_kill_trivial_root_at_origin():
    s = spinor([1.0], 0, [0.0, 1.0], 0)
    res = kill_periods(s)
    assert np.abs(res.t0).max() == 0.0
    assert len(res.iterations) == 1
    assert res.residual == 0.0
    assert res.g.residue().max() == 0.0


def test_kill_perturbed_spinor_converges():
    # (1, 1/z + 0.05 z): periods (0, 0, 4*pi*i) at t=0; frozen run: 19 steps
    v = np.array([1.0, 0.0, 0.05], dtype=complex)
    s = spinor([1.0], 0, v, -1)
    res = kill_periods(s, target=1e-10)
    assert res.residual < 1e-10
    assert len(res.iterations) - 1 <= 20
    assert float(np.linalg.norm(res.t0)) <= 4.0
    # frozen parameter norm from the oracle run: |t0| = sqrt(2) +- 1e-3
    assert float(np.linalg.norm(res.t0)) == pytest.approx(np.sqrt(2.0), abs=1e-3)
    assert periods(res.g).max_abs < 1e-10
    # the shifted pair still projects onto the null cone
    g = res.g
    sos = g.dot(g)
    assert sos.sup_boundary(512) < 1e-10 * max(1.0, g.sup_boundary(512)) ** 2


def test_kill_residual_decreases_monotonically():
    v = np.array([1.0, 0.0, 0.05], dtype=complex)
    s = spinor([1.0], 0, v, -1)
    res = kill_periods(s, target=1e-10)
    norms = [it["residual_norm"] for it in res.iterations]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_kill_rejects_disc():
    s = spinor([1.0], 0, [0.0, 1.0], 0, domain="disc", r0=None)
    with pytest.raises(DomainError):
        kill_periods(s)


def test_degenerate_spray_detected():
    one = SeriesMap.from_components([[1.0]], 0, "annulus", R0)
    zero = SeriesMap.zero(1, "annulus", R0)
    spec = SpraySpec(phis=(one, one, one), psis=(zero, zero, zero))
    v = np.array([1.0, 0.0, 0.05], dtype=complex)
    s = spinor([1.0], 0, v, -1)
    with pytest.raises(NonDominatingSprayError):
        kill_periods(s, spec=spec)


def test_ball_exit_raises_with_trace():
    base = SpraySpec.default("annulus", R0)
    tiny = SpraySpec(phis=base.phis, psis=base.psis, ball_radius=1e-3)
    v = np.array([1.0, 0.0, 0.05], dtype=complex)
    s = spinor([1.0], 0, v, -1)
    with pytest.raises(ConvergenceFailureError) as info:
        kill_periods(s, spec=tiny, target=1e-10)
    assert info.value.trace is not None


def test_spray_default_shapes():
    spec = SpraySpec.default("annulus", R0)
    assert spec.dim == 6
    disc_spec = SpraySpec.default("disc")
    assert disc_spec.dim == 4
    with pytest.raises(ValueError):
        SpraySpec(phis=(spec.phis[0],), psis=(spec.psis[0],))
