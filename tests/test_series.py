"""Laurent/Taylor series maps: algebra, evaluation, fitting, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcurves import series
from nullcurves.errors import (
    AliasingError,
    DomainError,
    NonHolomorphicDataError,
    NonzeroResidueError,
)
from nullcurves.series import (
    SeriesMap,
    fit_from_boundary,
    from_json,
    to_json,
)


def poly(*coeffs):
    return SeriesMap(np.asarray(coeffs, dtype=complex)[None, :], 0, "disc")


# -- construction and normalization ------------------------------------------


def test_disc_pads_positive_lo_to_zero():
    s = SeriesMap(np.array([[1.0]], dtype=complex), 3, "disc")
    assert s.degree_lo == 0
    assert s.width == 4
    assert s.coeffs[0, 3] == 1.0
    assert np.all(s.coeffs[0, :3] == 0.0)


def test_disc_rejects_negative_degrees():
    with pytest.raises(DomainError):
        SeriesMap(np.array([[1.0]], dtype=complex), -1, "disc")


def test_annulus_pads_lo_down_to_zero():
    s = SeriesMap(np.array([[1.0]], dtype=complex), 2, "annulus", 0.5)
    assert s.degree_lo == 0
    assert s.degree_hi == 2


def test_annulus_requires_r0():
    with pytest.raises(DomainError):
        SeriesMap(np.array([[1.0]], dtype=complex), 0, "annulus", 1.5)
    with pytest.raises(DomainError):
        SeriesMap(np.array([[1.0]], dtype=complex), 0, "annulus", None)


def test_coeffs_read_only():
    s = poly(1.0, 2.0)
    with pytest.raises(ValueError):
        s.coeffs[0, 0] = 5.0


# -- evaluation ---------------------------------------------------------------


def test_eval_simple_polynomial():
    # p(z) = 1 + 2z + 3z^2 at z = 0.5: 1 + 1 + 0.75
    s = poly(1.0, 2.0, 3.0)
    assert s.eval(0.5)[0] == pytest.approx(2.75, abs=1e-15)


def test_eval_outside_domain_raises():
    s = poly(1.0)
    with pytest.raises(DomainError):
        s.eval(1.5)
    a = SeriesMap(np.array([[1.0]], dtype=complex), 0, "annulus", 0.5)
    with pytest.raises(DomainError):
        a.eval(0.25)


def test_eval_laurent():
    # z + 1/z at z = 0.5: 2.5
    s = SeriesMap(np.array([[1.0, 0.0, 1.0]], dtype=complex), -1, "annulus", 0.25)
    assert s.eval(0.5)[0] == pytest.approx(2.5, abs=1e-15)


def test_circle_values_match_eval_many():
    r = np.random.default_rng(0)
    c = r.normal(size=(2, 9)) + 1j * r.normal(size=(2, 9))
    s = SeriesMap(c, -3, "annulus", 0.3)
    n = 16
    z = 0.7 * np.exp(2j * np.pi * np.arange(n) / n)
    direct = s.eval_many(z)
    fast = s.circle_values(0.7, n)
    assert np.abs(direct - fast).max() < 1e-12 * np.abs(direct).max()


def test_circle_values_wide_span_exact():
    # wrapped-FFT evaluation has no aliasing restriction: degree 300 on 16 points
    s = SeriesMap(np.eye(1, 301, 300, dtype=complex), 0, "disc")
    vals = s.circle_values(1.0, 16)
    z = np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.abs(vals[:, 0] - z**300).max() < 1e-12


def _rings_reference(s, radii, n, phases):
    """rings with the phase factor on every ring, one ring at a time."""
    d = s.degrees
    off = s.degree_lo % n
    nblocks = -(-(off + s.width) // n)
    out = []
    for radius, phase in zip(radii, phases):
        scale = (radius ** d.astype(np.float64)) * np.exp(1j * phase * d)
        buf = np.zeros((s.ncomp, nblocks * n), dtype=np.complex128)
        buf[:, off : off + s.width] = s.coeffs * scale[None, :]
        folded = buf.reshape(s.ncomp, nblocks, n).sum(axis=1)
        out.append((n * np.fft.ifft(folded, axis=1)).T)
    return np.stack(out)


def _ring_maps():
    r = np.random.default_rng(7)
    c = r.normal(size=(3, 40)) + 1j * r.normal(size=(3, 40))
    return [SeriesMap(c, 0, "disc"), SeriesMap(c, -17, "annulus", 0.4)]


@pytest.mark.parametrize("n", [64, 16])  # 16 < width 40: the fold wraps around
@pytest.mark.parametrize("phases", ["none", "scalar", "per_ring"])
def test_rings_equal_stacked_circle_values(n, phases):
    radii = np.linspace(0.4, 1.0, 11)
    ph = {"none": np.zeros(11), "scalar": np.full(11, 0.3),
          "per_ring": np.linspace(-2.0, 2.5, 11)}[phases]
    for s in _ring_maps():
        if phases == "none":
            got = s.rings(radii, n)
        elif phases == "scalar":
            got = s.rings(radii, n, 0.3)
        else:
            got = s.rings(radii, n, ph)
        want = np.stack([s.circle_values(r, n, p) for r, p in zip(radii, ph)])
        assert got.shape == (11, n, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(got, _rings_reference(s, radii, n, ph))
        z = radii[:, None] * np.exp(1j * (2 * np.pi * np.arange(n) / n + ph[:, None]))
        direct = s.eval_many(z.ravel()).reshape(got.shape)
        assert np.abs(got - direct).max() < 1e-10 * np.abs(direct).max()


# -- algebra ------------------------------------------------------------------


def test_product_polynomials():
    a = poly(1.0, 1.0)  # 1 + z
    b = poly(1.0, -1.0)  # 1 - z
    p = a * b
    assert p.degree_lo == 0
    assert np.allclose(p.coeffs[0], [1.0, 0.0, -1.0])


def test_product_annulus_keeps_structural_zeros_exact():
    # noise in structurally-zero negative slots would blow up at the inner circle
    width = 700  # force what would be the FFT path on the disc
    c = np.zeros((1, width), dtype=complex)
    c[0, -1] = 1.0
    s = SeriesMap(c, -2, "annulus", 0.25)
    p = s * s
    lead = p.degrees < 2 * (width - 3)
    assert np.abs(p.coeffs[0, lead]).max() == 0.0


def test_scalar_broadcast_product():
    a = SeriesMap(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex), 0, "disc")
    s = poly(2.0)
    p = a * s
    assert p.ncomp == 2
    assert np.allclose(p.coeffs, [[2.0, 4.0], [0.0, 2.0]])


def test_dot_is_componentwise_sum_without_conj():
    a = SeriesMap(np.array([[1.0], [1j]], dtype=complex), 0, "disc")
    d = a.dot(a)
    # 1^2 + (i)^2 = 0, not |1|^2 + |i|^2
    assert d.ncomp == 1
    assert abs(d.coeffs[0, 0]) == 0.0


# -- calculus -----------------------------------------------------------------


def test_derivative_antiderivative_roundtrip_disc():
    s = poly(2.0, -1.0, 0.5, 3.0)
    back = s.derivative().antiderivative(0.0, s.eval(0.0))
    assert np.abs(back.coeffs - s.coeffs).max() < 1e-14


def test_antiderivative_pins_base_value():
    s = poly(1.0, 1.0)
    F = s.antiderivative(0.5, [7.0])
    assert F.eval(0.5)[0] == pytest.approx(7.0, abs=1e-14)


def test_disc_center_skips_horner_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(3)
    s = SeriesMap(rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40)), 0, "disc")
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    with monkeypatch.context() as m:  # the Horner route, kept as the reference
        m.setattr(SeriesMap, "eval", lambda self, z: self.eval_many(np.asarray([z]))[0])
        want_eval, want_prim = s.eval(0.0), s.antiderivative(0.0, v).coeffs

    def no_horner(*args):
        raise AssertionError("Horner pass at the disc's center")

    monkeypatch.setattr(series, "horner_eval", no_horner)
    assert s.eval(0.0).tobytes() == want_eval.tobytes()
    assert s.antiderivative(0, v).coeffs.tobytes() == want_prim.tobytes()


def test_annulus_derivative_and_residue():
    # d/dz (z + 1/z) = 1 - z^-2, residue of the derivative is 0
    s = SeriesMap(np.array([[1.0, 0.0, 1.0]], dtype=complex), -1, "annulus", 0.25)
    d = s.derivative()
    assert d.degree_lo == -2
    assert d.eval(0.5)[0] == pytest.approx(1.0 - 4.0, abs=1e-14)
    assert d.residue()[0] == 0.0


def test_nonzero_residue_blocks_antiderivative():
    s = SeriesMap(np.array([[1.0]], dtype=complex), -1, "annulus", 0.25)
    with pytest.raises(NonzeroResidueError):
        s.antiderivative(0.5, [0.0])


# -- boundary sampling and fitting --------------------------------------------


def test_boundary_radii():
    assert poly(1.0).boundary_radii == (1.0,)
    assert SeriesMap.zero(1, "annulus", 0.3).boundary_radii == (1.0, 0.3)


def test_fit_refuses_window_wider_than_samples():
    s = SeriesMap(np.ones((1, 40), dtype=complex), 0, "disc")
    with pytest.raises(AliasingError):
        fit_from_boundary(s.rings(s.boundary_radii, 32), 0, 39)


def test_fit_roundtrip_disc():
    r = np.random.default_rng(1)
    c = r.normal(size=(2, 7)) + 1j * r.normal(size=(2, 7))
    s = SeriesMap(c, 0, "disc")
    fit, leak = fit_from_boundary(s.rings(s.boundary_radii, 64), 0, 6)
    assert np.abs(fit.coeffs - s.coeffs).max() < 1e-13
    assert leak < 1e-25


def test_fit_roundtrip_annulus_negative_degrees():
    r = np.random.default_rng(2)
    c = r.normal(size=(1, 9)) + 1j * r.normal(size=(1, 9))
    s = SeriesMap(c, -4, "annulus", 0.4)
    fit, leak = fit_from_boundary(s.rings(s.boundary_radii, 64), -4, 4, s.r0)
    assert fit.degree_lo == -4
    assert fit.r0 == 0.4
    assert np.abs(fit.coeffs - s.coeffs).max() < 1e-12
    assert leak < 1e-20


def test_fit_flags_nonholomorphic_data():
    n = 64
    z = np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.conj(z)[None, :, None]  # anti-holomorphic
    with pytest.raises(NonHolomorphicDataError) as info:
        fit_from_boundary(vals, 0, 4)
    assert info.value.leakage > 0.9


# -- serialization -------------------------------------------------------------


def test_json_roundtrip_bit_exact():
    r = np.random.default_rng(3)
    c = r.normal(size=(3, 5)) + 1j * r.normal(size=(3, 5))
    s = SeriesMap(c, -2, "annulus", 0.37)
    t = from_json(to_json(s))
    assert t.domain == s.domain
    assert t.r0 == s.r0
    assert t.degree_lo == s.degree_lo
    assert np.array_equal(t.coeffs, s.coeffs)


def test_json_roundtrip_disc():
    s = poly(1.0, 0.5j)
    t = from_json(to_json(s))
    assert np.array_equal(t.coeffs, s.coeffs)
    assert t.domain == "disc"


def test_from_json_rejects_non_finite_coefficients():
    blob = json.loads(to_json(poly(1.0, 0.5j)))
    for x in (float("nan"), float("inf")):
        blob["components"][0][1] = [0.0, x]
        with pytest.raises(DomainError):
            from_json(json.dumps(blob))


@pytest.mark.parametrize("degree_hi", [7, "x", True, None])
def test_from_json_rejects_a_degree_hi_off_the_coefficients(degree_hi):
    blob = json.loads(to_json(poly(1.0, 0.5j)))
    if degree_hi is None:
        del blob["degree_hi"]
    else:
        blob["degree_hi"] = degree_hi
    with pytest.raises(DomainError):
        from_json(json.dumps(blob))


# -- property tests ------------------------------------------------------------


coeff_lists = st.lists(
    st.tuples(
        st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
    ),
    min_size=1,
    max_size=12,
)


@given(coeff_lists, st.integers(-6, 0), st.sampled_from([None, 0.3, 0.6]))
@settings(max_examples=60, deadline=None)
def test_fit_inverts_sampling(pairs, lo, r0):
    c = np.array([complex(re, im) for re, im in pairs])[None, :]
    if r0 is None:
        s = SeriesMap(c, 0, "disc")
    else:
        s = SeriesMap(c, lo, "annulus", r0)
    fit, _ = fit_from_boundary(
        s.rings(s.boundary_radii, 32), s.degree_lo, s.degree_hi, s.r0
    )
    scale = max(np.abs(c).max(), 1.0)
    assert np.abs(fit.coeffs - s.coeffs).max() < 1e-12 * scale


@given(coeff_lists, st.floats(0.05, 0.95), st.floats(0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_product_evaluates_pointwise(pairs, rad, ang):
    c = np.array([complex(re, im) for re, im in pairs])[None, :]
    s = SeriesMap(c, 0, "disc")
    z = rad * np.exp(1j * ang)
    p = s * s
    scale = max(1.0, float(np.abs(s.eval(z)).max()) ** 2)
    assert abs(p.eval(z)[0] - s.eval(z)[0] ** 2) < 1e-12 * scale


@given(coeff_lists)
@settings(max_examples=30, deadline=None)
def test_derivative_is_linear_in_coeffs(pairs):
    c = np.array([complex(re, im) for re, im in pairs])[None, :]
    s = SeriesMap(c, 0, "disc")
    d2 = (s + s).derivative()
    d1 = s.derivative()
    assert np.abs(d2.coeffs - 2 * d1.coeffs).max() < 1e-13
