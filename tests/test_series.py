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
from nullcurves.geometry import NullVector
from nullcurves.pipelines import catalog
from nullcurves.rh import BoundaryData, _rh_null
from nullcurves.series import (
    SeriesMap,
    fit_from_boundary,
    from_json,
    to_json,
)


def poly(*coeffs):
    return SeriesMap(np.asarray(coeffs, dtype=complex)[None, :], 0, "disc")


# -- construction and normalization ------------------------------------------


def test_disc_rejects_negative_degrees():
    with pytest.raises(DomainError):
        SeriesMap(np.array([[1.0]], dtype=complex), -1, "disc")


def _agree(a, b, rel):
    """a and b hold the same coefficients, to rel, on a window holding both."""
    lo, hi = min(a.degree_lo, b.degree_lo), max(a.degree_hi, b.degree_hi)
    x, y = a._window(lo, hi), b._window(lo, hi)
    return np.abs(x - y).max() <= rel * max(np.abs(y).max(), 1e-300)


@pytest.mark.parametrize(
    "domain, lo", [("disc", 0), ("disc", 3), ("disc", 17), ("annulus", -5), ("annulus", 2)]
)
def test_window_is_kept_and_agrees_with_its_zero_padding(domain, lo):
    r0 = 0.4 if domain == "annulus" else None
    rng = np.random.default_rng(lo + 10)
    width = 9
    c = rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width))
    if lo <= -1 < lo + width:
        c[:, -1 - lo] = 0.0  # no residue, so the antiderivative exists
    s = SeriesMap(c, lo, domain, r0)
    assert (s.degree_lo, s.width, s.degree_hi) == (lo, width, lo + width - 1)
    assert np.array_equal(s.coeffs, c)
    # the same series over a wider window: down to 0 (2 below on the
    # annulus) and 3 above
    plo = min(lo, 0) - (2 if domain == "annulus" else 0)
    padded = SeriesMap(s._window(plo, s.degree_hi + 3), plo, domain, r0)

    radii = list(s.boundary_radii) + [0.7]
    for n in (64, 8):  # 8 < width: the fold wraps around
        want = padded.rings(radii, n)
        assert np.abs(s.rings(radii, n) - want).max() <= 1e-13 * np.abs(want).max()
    z = 0.8 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 17))
    want = padded.eval_many(z)
    assert np.abs(s.eval_many(z) - want).max() <= 1e-13 * np.abs(want).max()
    if domain == "disc":
        assert np.array_equal(s.eval(0), padded.eval(0))
    assert _agree(s.derivative(), padded.derivative(), 0.0)
    base = 0.0 if domain == "disc" else 0.6
    value = np.array([1.0, -2.0j, 0.5])
    assert _agree(s.antiderivative(base, value), padded.antiderivative(base, value), 1e-13)
    other = SeriesMap(rng.normal(size=(3, 4)) + 0j, 1, domain, r0)
    assert _agree(s + other, padded + other, 0.0)
    assert _agree(s * other, padded * other, 1e-13)
    back = from_json(to_json(s))
    assert back.degree_lo == lo and np.array_equal(back.coeffs, s.coeffs)


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


@pytest.mark.parametrize("domain", ["disc", "annulus"])
def test_unit_circle_is_sampled_once_and_read_only(domain, monkeypatch):
    c = np.random.default_rng(3).normal(size=(3, 30)) + 0.5j
    s = SeriesMap(c, -9 if domain == "annulus" else 0, domain,
                  0.4 if domain == "annulus" else None)
    rings, calls = SeriesMap.rings, []

    def counted(self, radii, n, phases=0.0):
        calls.append(tuple(np.atleast_1d(radii)))
        return rings(self, radii, n, phases)

    monkeypatch.setattr(SeriesMap, "rings", counted)
    unit = s.circle_values(1.0, 64)
    assert s.circle_values(1.0, 64) is unit and s.circle_values(1.0, 32) is not unit
    want = np.sqrt((np.abs(rings(s, s.boundary_radii, 64)) ** 2).sum(axis=2)).max()
    assert s.sup_boundary(64) == want
    # the unit circle once per n; the inner circle is sampled again, not kept
    assert calls == [(1.0,), (1.0,)] + [(r,) for r in s.boundary_radii[1:]]
    with pytest.raises(ValueError):
        unit[0, 0] = 0.0
    assert _same_bits(unit, rings(s, 1.0, 64)[0])


def _rings_reference(s, radii, n, phases=0.0):
    """rings one ring at a time: each scaled and folded mod n on its own.

    Only the nonzero columns are scaled, and only rings of nonzero phase are
    turned, as in the batched sampler, which must give the same bits.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    phases = np.broadcast_to(np.asarray(phases, dtype=np.float64), radii.shape)
    cols = np.flatnonzero(s.coeffs.any(axis=0))
    d = s.degrees[cols]
    off = s.degree_lo % n
    nblocks = -(-(off + s.width) // n)
    buf = np.zeros((s.ncomp, nblocks * n), dtype=np.complex128)
    folded = np.empty((radii.size, s.ncomp, n), dtype=np.complex128)
    for i, (radius, phase) in enumerate(zip(radii, phases)):
        scale = radius ** d.astype(np.float64)
        if phase != 0.0:
            scale = scale * np.exp(1j * phase * d)
        buf[:, off + cols] = s.coeffs[:, cols] * scale[None, :]
        folded[i] = buf.reshape(s.ncomp, nblocks, n).sum(axis=1)
    return (n * np.fft.ifft(folded, axis=2)).transpose(0, 2, 1)


def _same_bits(a, b):
    """a and b hold the same float64 bits, signed zeros and NaN included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _sparse_series(rng, width, lo, domain, zero_share):
    """Random coefficients over [lo, lo + width) with zero runs and single zeros."""
    c = rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width))
    c[:, rng.uniform(size=width) < zero_share] = 0.0
    for start in rng.integers(0, width, 4):
        c[:, start : start + width // 10] = 0.0
    c[1, rng.uniform(size=width) < 0.1] = 0.0  # zeros inside a nonzero column
    return SeriesMap(c, lo, domain, 0.3 if domain == "annulus" else None)


@pytest.mark.parametrize("domain", ["disc", "annulus"])
@pytest.mark.parametrize(
    "case", ["wraps", "many_blocks", "overflow", "scalar_phase", "per_ring_phase",
             "past_one_block"]
)
def test_rings_equal_the_per_ring_loop(domain, case):
    rng = np.random.default_rng(["wraps", "many_blocks", "overflow", "scalar_phase",
                                 "per_ring_phase", "past_one_block"].index(case))
    lo = -23 if domain == "annulus" else 5
    s = _sparse_series(rng, 40, lo, domain, 0.3)
    n, radii = 16, np.linspace(0.3, 1.0, 7)
    phases = 0.0
    if case == "many_blocks":  # the window folds into 16 or 17 blocks of n
        lo = -3001 if domain == "annulus" else 0
        s, n = _sparse_series(rng, 8000, lo, domain, 0.5), 512
        radii = np.linspace(0.9, 1.0, 7)  # 0.9 ** -3001 stays finite
    elif case == "overflow":
        # three nonzero columns amid zero ones at degrees where 0.3 ** d
        # overflows (annulus) or underflows (disc)
        c = np.zeros((3, 3001), dtype=complex)
        c[:, 1500:1503] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lo = -1500 if domain == "annulus" else 0
        s = SeriesMap(c, lo, domain, 0.3 if domain == "annulus" else None)
        radii = np.array([0.3, 1.0])
        with np.errstate(over="ignore"):
            assert np.isinf(np.float64(0.3) ** -1500.0)
    elif case == "scalar_phase":
        phases = 0.37
    elif case == "per_ring_phase":
        phases = rng.uniform(-np.pi, np.pi, radii.size)
        phases[[1, 4]] = 0.0  # rings of phase 0 among turned ones
    elif case == "past_one_block":
        # more rings than one scratch block holds: the first block turns by
        # one phase, the next two by another, and every 7th ring not at all
        nblocks = -(-(s.degree_lo % n + s.width) // n)
        per_block = series._RINGS_SCRATCH // (s.ncomp * nblocks * n)
        radii = rng.uniform(0.3, 1.0, 2 * per_block + 3)
        phases = np.where(np.arange(radii.size) < per_block, 0.5, -1.25)
        phases[::7] = 0.0
    got, want = s.rings(radii, n, phases), _rings_reference(s, radii, n, phases)
    assert np.isfinite(got).all()
    assert _same_bits(got, want) and got.strides == want.strides


def _ring_maps():
    r = np.random.default_rng(7)
    c = r.normal(size=(3, 40)) + 1j * r.normal(size=(3, 40))
    # a pushed curve's shape: the seed, z^k s and z^2k s^2 between zero runs
    gapped = c.copy()
    gapped[:, 4:15] = 0.0
    gapped[:, 23:32] = 0.0
    return [
        SeriesMap(c, 0, "disc"),
        SeriesMap(c, -17, "annulus", 0.4),
        SeriesMap(gapped, 0, "disc"),
        SeriesMap(gapped, -17, "annulus", 0.4),
    ]


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
        want = np.concatenate([s.rings(r, n, p) for r, p in zip(radii, ph)])
        assert got.shape == (11, n, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(got, _rings_reference(s, radii, n, ph))
        z = radii[:, None] * np.exp(1j * (2 * np.pi * np.arange(n) / n + ph[:, None]))
        direct = s.eval_many(z.ravel()).reshape(got.shape)
        assert np.abs(got - direct).max() < 1e-10 * np.abs(direct).max()


def test_rings_skip_zero_columns_where_the_radial_power_overflows():
    # 0.25 ** -600 overflows; the zero columns at those degrees never reach the sum
    c = np.zeros((2, 602), dtype=complex)
    c[:, 600] = [1.0, 2.0 - 1.0j]  # degree 0
    c[:, 601] = [0.5j, 3.0]  # degree 1
    s = SeriesMap(c, -600, "annulus", 0.25)
    got = s.rings([0.25, 1.0], 64)
    z = np.array([0.25, 1.0])[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)
    want = c[:, 600][None, None, :] + c[:, 601][None, None, :] * z[..., None]
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert np.isfinite(s.sup_boundary())


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


def _to_json_reference(s: SeriesMap) -> str:
    """to_json coefficient by coefficient, kept as the oracle of the bulk writer."""
    return json.dumps({
        "domain": s.domain,
        "r0": s.r0,
        "degree_lo": s.degree_lo,
        "degree_hi": s.degree_hi,
        "components": [[[float(c.real), float(c.imag)] for c in row] for row in s.coeffs],
    })


def _json_cases():
    curves = [catalog(name) for name in ("linear_v1", "cubic_enneper_like", "annulus_basic")]
    bd = BoundaryData(arc=(1.0, 1.0 + np.pi / 2), mu=np.array([0.1]),
                      theta=NullVector(np.array([1.0, -1j, 0.0])), taper=np.pi / 8,
                      epsilon=10.0, r=0.98)
    pushed = [_rh_null(F, bd, k_fixed=650).G for F in curves[1:]]
    sub, normal = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).tiny
    odd = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
                    [complex(sub, -sub), complex(3 * sub, normal), complex(1e308, -1e-300)]])
    return curves + pushed + [SeriesMap(odd, -1, "annulus", 0.5)]


def test_json_bulk_writer_equals_the_per_coefficient_writer():
    for s in _json_cases():
        text = to_json(s)
        assert text == _to_json_reference(s)
        back = from_json(text)
        assert np.array_equal(back.coeffs.view(np.float64), s.coeffs.view(np.float64))
        assert np.array_equal(np.signbit(back.coeffs.view(np.float64)),
                              np.signbit(s.coeffs.view(np.float64)))


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
