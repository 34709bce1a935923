"""Hot kernels: correctness against independent oracles."""

import functools
import heapq
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
import scipy.signal
import scipy.sparse
import scipy.sparse.csgraph

from nullcurves import kernels
from nullcurves.series import _CONV_FFT_CUTOFF, SeriesMap, _fast_length, fftconvolve


def rng(seed=0):
    return np.random.default_rng(seed)


def _polyval_columns(coeffs, z):
    """Oracle values (M, C) and the scale sum_d |c_d| |z|^d of their roundoff."""
    want = np.stack([np.polynomial.polynomial.polyval(z, c) for c in coeffs], axis=1)
    scale = np.stack([np.polynomial.polynomial.polyval(np.abs(z), np.abs(c))
                      for c in coeffs], axis=1)
    return want, scale


def test_horner_matches_polyval():
    r = rng(1)
    coeffs = r.normal(size=(3, 17)) + 1j * r.normal(size=(3, 17))
    z = r.normal(size=40) * 0.6 + 1j * r.normal(size=40) * 0.6
    got = kernels.horner_eval(coeffs, z)
    want, _ = _polyval_columns(coeffs, z)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    # wide series, one to many chunks of points (1000 is no multiple of the
    # chunk), on and inside the unit circle
    cases = [(w, m) for w in (1, 17, 1430, 5330) for m in (1, 256, 1000)]
    for width, npts in cases + [(1430, 8192)]:
        coeffs = (r.normal(size=(3, width)) + 1j * r.normal(size=(3, width))) \
            / np.sqrt(1.0 + np.arange(width))
        z = np.exp(2j * np.pi * r.random(npts)) * r.uniform(0.0, 1.0, npts)
        z[::3] /= np.abs(z[::3])
        got = kernels.horner_eval(coeffs, z)
        want, scale = _polyval_columns(coeffs, z)
        assert got.shape == (npts, 3)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
    # a Laurent window on an annulus: the kernel's values times z^degree_lo
    lo = -40
    coeffs = r.normal(size=(3, 300)) + 1j * r.normal(size=(3, 300))
    s = SeriesMap(coeffs, lo, "annulus", 0.4)
    z = np.exp(2j * np.pi * r.random(300)) * r.uniform(0.4, 1.0, 300)
    z[:2] = [0.4, -1.0]
    want, scale = _polyval_columns(coeffs, z)
    zlo = np.abs(z[:, None]) ** lo
    assert np.all(np.abs(s.eval_many(z) - want * z[:, None] ** lo) <= 1e-12 * scale * zlo)


def test_min_dist2_bruteforce():
    r = rng(3)
    q = r.normal(size=(11, 3)) + 1j * r.normal(size=(11, 3))
    c = r.normal(size=(29, 3)) + 1j * r.normal(size=(29, 3))
    got = kernels.min_dist2(q, c)
    diff = q[:, None, :] - c[None, :, :]
    want = (diff.real**2 + diff.imag**2).sum(axis=2).min(axis=1)
    assert np.abs(got - want).max() == 0.0


def test_min_dist2_grouped():
    r = rng(5)
    q = r.normal(size=(6, 7, 2)) + 1j * r.normal(size=(6, 7, 2))
    c = r.normal(size=(6, 13, 2)) + 1j * r.normal(size=(6, 13, 2))
    got = kernels.min_dist2_grouped(q, c)
    for g in range(6):
        want = kernels.min_dist2(q[g], c[g])
        assert np.abs(got[g] - want).max() == 0.0


# -- polar Dijkstra --------------------------------------------------------------


def _polar_weights(seed, nrad=5, nang=8):
    r = rng(seed)
    w_tan = r.uniform(0.1, 1.0, size=(nrad, nang))
    w_rad = r.uniform(0.1, 1.0, size=(nrad - 1, nang))
    w_dru = r.uniform(0.1, 1.0, size=(nrad - 1, nang))
    w_drl = r.uniform(0.1, 1.0, size=(nrad - 1, nang))
    return w_tan, w_rad, w_dru, w_drl


def _heap_dijkstra(w_tan, w_rad, w_dru, w_drl, src_mask):
    """Reference: binary-heap Dijkstra walking the stencil node by node."""
    nring, nang = w_tan.shape
    dist = np.full(nring * nang, np.inf, dtype=np.float64)
    done = np.zeros(nring * nang, dtype=bool)
    heap = []
    for idx in np.flatnonzero(np.asarray(src_mask, dtype=bool).ravel()):
        dist[idx] = 0.0
        heapq.heappush(heap, (0.0, int(idx)))

    def edges(i, j):
        jp = (j + 1) % nang
        jm = (j - 1) % nang
        yield i, jp, w_tan[i, j]
        yield i, jm, w_tan[i, jm]
        if i + 1 < nring:
            yield i + 1, j, w_rad[i, j]
            yield i + 1, jp, w_dru[i, j]
            yield i + 1, jm, w_drl[i, j]
        if i > 0:
            yield i - 1, j, w_rad[i - 1, j]
            yield i - 1, jm, w_dru[i - 1, jm]
            yield i - 1, jp, w_drl[i - 1, jp]

    while heap:
        d, idx = heapq.heappop(heap)
        if done[idx]:
            continue
        done[idx] = True
        i, j = divmod(idx, nang)
        for ni, nj, w in edges(i, j):
            nidx = ni * nang + nj
            nd = d + w
            if nd < dist[nidx]:
                dist[nidx] = nd
                heapq.heappush(heap, (nd, nidx))
    return dist.reshape(nring, nang)


def _scipy_dijkstra(w_tan, w_rad, w_dru, w_drl, src_mask):
    """Oracle: the stencil assembled entry by entry, one search per source."""
    nrad, nang = w_tan.shape
    n = nrad * nang
    rows, cols, vals = [], [], []

    def add(i1, j1, i2, j2, w):
        rows.append(i1 * nang + j1)
        cols.append(i2 * nang + j2)
        vals.append(w)

    for i in range(nrad):
        for j in range(nang):
            jp, jm = (j + 1) % nang, (j - 1) % nang
            add(i, j, i, jp, w_tan[i, j])
            add(i, j, i, jm, w_tan[i, jm])
            if i + 1 < nrad:
                add(i, j, i + 1, j, w_rad[i, j])
                add(i, j, i + 1, jp, w_dru[i, j])
                add(i, j, i + 1, jm, w_drl[i, j])
            if i > 0:
                add(i, j, i - 1, j, w_rad[i - 1, j])
                add(i, j, i - 1, jm, w_dru[i - 1, jm])
                add(i, j, i - 1, jp, w_drl[i - 1, jp])
    g = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    sources = np.flatnonzero(src_mask.ravel())
    d = scipy.sparse.csgraph.dijkstra(g, indices=sources)
    return d.min(axis=0).reshape(nrad, nang)


def test_dijkstra_polar_vs_scipy():
    for seed in range(5):
        w = _polar_weights(seed + 10)
        mask = np.zeros((5, 8), dtype=bool)
        mask[0, seed % 8] = True
        if seed % 2:
            mask[4, (3 * seed) % 8] = True  # multi-source case
        got = kernels.dijkstra_polar(*w, mask)
        want = _scipy_dijkstra(*w, mask)
        assert np.array_equal(got, want)


def test_dijkstra_polar_matches_heap_full_grid():
    # the default intrinsic-radius grid, sourced on ring 0 as it is there
    w = _polar_weights(20, nrad=128, nang=512)
    mask = np.zeros((128, 512), dtype=bool)
    mask[0] = True
    got = kernels.dijkstra_polar(*w, mask)
    assert np.isfinite(got).all()
    assert np.array_equal(got, _heap_dijkstra(*w, mask))


def test_dijkstra_polar_matches_heap_smallest_grid():
    for seed in range(5):
        w = _polar_weights(seed, nrad=2, nang=8)
        for row in (0, 1):
            mask = np.zeros((2, 8), dtype=bool)
            mask[row] = True
            assert np.array_equal(kernels.dijkstra_polar(*w, mask), _heap_dijkstra(*w, mask))


def test_dijkstra_polar_matches_heap_multi_source():
    r = rng(30)
    for seed in range(10):
        w = _polar_weights(seed, nrad=7, nang=16)
        mask = r.uniform(size=(7, 16)) < 0.1
        mask[0, 0] = True
        assert np.array_equal(kernels.dijkstra_polar(*w, mask), _heap_dijkstra(*w, mask))


def test_dijkstra_polar_zero_weight_edges():
    r = rng(40)
    for seed in range(5):
        w = _polar_weights(seed + 50, nrad=9, nang=12)
        for arr in w:
            arr[r.uniform(size=arr.shape) < 0.3] = 0.0
        mask = np.zeros((9, 12), dtype=bool)
        mask[0, seed] = True
        got = kernels.dijkstra_polar(*w, mask)
        assert np.array_equal(got, _heap_dijkstra(*w, mask))
    # an all-zero ring joins every node of it to its source at distance 0
    w = _polar_weights(60, nrad=3, nang=8)
    w[0][1] = 0.0
    mask = np.zeros((3, 8), dtype=bool)
    mask[1, 0] = True
    got = kernels.dijkstra_polar(*w, mask)
    assert np.all(got[1] == 0.0)
    assert np.array_equal(got, _heap_dijkstra(*w, mask))


def test_dijkstra_polar_matches_heap_out_and_back_in():
    # ring 0's own edges are dear and ring 1's cheap, so the shortest paths
    # to ring-0 nodes leave ring 0 and come back, which the outward pass
    # alone cannot find
    w = _polar_weights(80, nrad=4, nang=16)
    w[0][0] = 100.0
    w[0][1] = 0.01
    mask = np.zeros((4, 16), dtype=bool)
    mask[0, 0] = True
    got = kernels.dijkstra_polar(*w, mask)
    assert got[0, 1:].max() < 100.0
    assert np.array_equal(got, _heap_dijkstra(*w, mask))


@pytest.mark.parametrize("bad", [-1e-300, np.nan])
def test_dijkstra_polar_rejects_negative_and_nan_weights(bad):
    mask = np.zeros((5, 8), dtype=bool)
    mask[0] = True
    for k in range(4):
        w = _polar_weights(90)
        w[k][1, 3] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            kernels.dijkstra_polar(*w, mask)


def test_dijkstra_polar_without_sources_is_unreachable():
    w = _polar_weights(70)
    got = kernels.dijkstra_polar(*w, np.zeros((5, 8), dtype=bool))
    assert got.shape == (5, 8)
    assert np.all(np.isinf(got))


# -- pair scan -------------------------------------------------------------------


def _bruteforce_pair_scan(ambient, dom, d_dom, d_amb):
    n = ambient.shape[0]
    best = np.inf
    best_i = best_j = -1
    flag_i = flag_j = -1
    for i in range(n):
        for j in range(i + 1, n):
            dd = abs(dom[i] - dom[j]) ** 2
            if dd < d_dom * d_dom:
                continue
            diff = ambient[i] - ambient[j]
            sep = float((diff.real**2 + diff.imag**2).sum())
            if sep < best:
                best = sep
                best_i, best_j = i, j
            if flag_i < 0 and sep < d_amb * d_amb:
                flag_i, flag_j = i, j
    if best_i < 0:
        return (np.inf, -1, -1, -1, -1)
    return (float(np.sqrt(best)), best_i, best_j, flag_i, flag_j)


def test_pair_scan_bruteforce():
    r = rng(7)
    pts = r.normal(size=(40, 3)) + 1j * r.normal(size=(40, 3))
    dom = r.normal(size=40) + 1j * r.normal(size=40)
    for d_dom, d_amb in [(1.0, 0.0), (0.5, 2.0), (10.0, 1.0)]:
        got = kernels.pair_scan(pts, dom, d_dom, d_amb)
        want = _bruteforce_pair_scan(pts, dom, d_dom, d_amb)
        if np.isinf(want[0]):
            assert np.isinf(got[0])
        else:
            assert got[0] == want[0]
        assert got[1:] == want[1:]


def _pair_scan_reference(ambient, dom, d_dom, d_amb):
    """The unpruned scan: one NumPy step per row, every pair evaluated."""
    ambient = np.asarray(ambient, dtype=np.complex128)
    dom = np.asarray(dom, dtype=np.complex128)
    n = ambient.shape[0]
    d_dom2 = d_dom * d_dom
    d_amb2 = d_amb * d_amb
    best = np.inf
    best_i = best_j = -1
    flag_i = flag_j = -1
    for i in range(n - 1):
        ddc = dom[i + 1:] - dom[i]
        dd = ddc.real ** 2 + ddc.imag ** 2
        dac = ambient[i + 1:] - ambient[i]
        sep = (dac.real ** 2 + dac.imag ** 2).sum(axis=1)
        ok = dd >= d_dom2
        if not ok.any():
            continue
        sep = np.where(ok, sep, np.inf)
        jrel = int(np.argmin(sep))
        if sep[jrel] < best:
            best = float(sep[jrel])
            best_i, best_j = i, i + 1 + jrel
        if flag_i < 0:
            hits = np.flatnonzero(sep < d_amb2)
            if hits.size:
                flag_i, flag_j = i, i + 1 + int(hits[0])
    return float(np.sqrt(best)) if np.isfinite(best) else np.inf, \
        best_i, best_j, flag_i, flag_j


def _assert_scan_equal(ambient, dom, d_dom=0.5, d_amb=1e-3, rows=1):
    got = kernels.pair_scan(ambient, dom, d_dom, d_amb, rows=rows)
    want = _pair_scan_reference(ambient, dom, d_dom, d_amb)
    assert got == want
    return got


@functools.lru_cache(maxsize=1)
def _verify_layouts():
    from nullcurves.diagnostics import _sample_layout
    from nullcurves.geometry import NullVector
    from nullcurves.pipelines import catalog
    from nullcurves.rh import BoundaryData, _rh_null

    curves = [catalog(name) for name in ("linear_v1", "cubic_enneper_like", "annulus_basic")]
    bd = BoundaryData(arc=(1.0, 1.0 + np.pi / 2), mu=np.array([0.1]),
                      theta=NullVector(np.array([1.0, -1.0j, 0.0])), taper=np.pi / 8,
                      epsilon=0.05, r=0.99)
    curves.append(_rh_null(curves[1], bd, k_fixed=1024).G)
    return [_sample_layout(F, 4096) for F in curves]


def test_pair_scan_bit_equal_on_verify_layouts():
    from nullcurves.diagnostics import _layout_shape

    rings = _layout_shape(4096)[0]
    for dom, ambient in _verify_layouts():
        want = _pair_scan_reference(ambient, dom, 0.5, 1e-3)
        for rows in (1, 2, rings):
            assert kernels.pair_scan(ambient, dom, 0.5, 1e-3, rows=rows) == want
        min_sep, mi, mj, fi, fj = want
        assert 0 <= mi < mj and (fi, fj) == (-1, -1)


def test_embedded_check_reports_the_flat_scan():
    from nullcurves.diagnostics import _sample_layout, embedded_check
    from nullcurves.pipelines import catalog

    for name in ("linear_v1", "cubic_enneper_like", "annulus_basic"):
        F = catalog(name)
        for d_amb in (1e-3, 2.0):
            dom, ambient = _sample_layout(F, 4096)
            min_sep, mi, mj, fi, fj = kernels.pair_scan(ambient, dom, 0.5, d_amb)
            report = embedded_check(F, d_amb=d_amb)
            assert report.min_separation == min_sep
            assert report.min_pair == (complex(dom[mi]), complex(dom[mj]))
            want = (complex(dom[fi]), complex(dom[fj])) if fi >= 0 else None
            assert report.offending_pair == want
        assert report.flagged  # at d_amb = 2


def _grid_samples(F, nrad, nang):
    """Samples of F on nrad rings by nang angles, ring by ring, as verify lays
    them out but at any grid size."""
    radii = np.linspace(0.3, 1.0, nrad)
    dom = (radii[:, None] * np.exp(2j * np.pi * np.arange(nang) / nang)[None, :]).ravel()
    return dom, F.rings(radii, nang).reshape(-1, F.ncomp)


@pytest.mark.parametrize("nrad, nang", [(3, 45), (5, 27), (5, 33), (3, 2), (1, 9), (7, 1)])
def test_pair_scan_bit_equal_on_odd_grids(nrad, nang):
    # odd rows, odd columns, N = 135, 135, 165, 6, 9 and 7: no multiple of 4
    from nullcurves.pipelines import catalog

    dom, ambient = _grid_samples(catalog("cubic_enneper_like"), nrad, nang)
    for rows in {1, nrad}:
        for d_dom, d_amb in [(0.5, 1e-3), (0.5, 2.0), (0.0, 0.5), (1.5, 1e-3)]:
            _assert_scan_equal(ambient, dom, d_dom, d_amb, rows=rows)


@pytest.mark.parametrize("block", [kernels._PAIR_BLOCK, 64])
def test_pair_scan_bit_equal_on_random_clouds(monkeypatch, block):
    # a small block splits every loop of the scan into many steps
    monkeypatch.setattr(kernels, "_PAIR_BLOCK", block)
    r = rng(8)
    # rows divide n: 2001 = 3 * 23 * 29 and 301 = 7 * 43
    for n, rows in [(0, [1, 3]), (1, [1]), (2, [1, 2]), (7, [1, 7]),
                    (2001, [1, 3, 29, 87]) if block > 64 else (301, [1, 7, 43])]:
        pts = r.normal(size=(n, 3)) + 1j * r.normal(size=(n, 3))
        dom = r.normal(size=n) + 1j * r.normal(size=n)
        for k in rows:
            _assert_scan_equal(pts, dom, rows=k)
            _assert_scan_equal(pts, dom, d_dom=0.0, d_amb=0.5, rows=k)


@pytest.mark.parametrize("rows", [0, 3, 4096])
def test_pair_scan_refuses_rows_that_do_not_divide_the_samples(rows):
    pts = np.zeros((10, 3), dtype=complex)
    with pytest.raises(ValueError, match="does not divide"):
        kernels.pair_scan(pts, np.zeros(10), 0.5, 1e-3, rows=rows)


@pytest.mark.parametrize("block", [kernels._PAIR_BLOCK, 64])
def test_pair_scan_first_tied_pair_wins(monkeypatch, block):
    monkeypatch.setattr(kernels, "_PAIR_BLOCK", block)
    r = rng(9)
    # 300 samples drawn from 6 points: many pairs tie at separation 0
    base = r.normal(size=(6, 3)) + 1j * r.normal(size=(6, 3))
    pts = base[r.integers(0, 6, size=300)]
    dom = np.exp(2j * np.pi * r.uniform(size=300))
    for rows in (1, 2):
        got = _assert_scan_equal(pts, dom, d_dom=0.5, d_amb=1e-3, rows=rows)
        assert got[0] == 0.0 and got[1:3] == got[3:]
    # two tied pairs, (0, 40) and (3, 5): the second is met first, tile by
    # tile, and with a small block in an earlier step
    pts = r.normal(size=(60, 3)) + 1j * r.normal(size=(60, 3))
    pts[40], pts[5] = pts[0], pts[3]
    dom = np.exp(2j * np.pi * 0.37 * np.arange(60))
    for rows in (1, 2):
        got = _assert_scan_equal(pts, dom, d_dom=0.5, d_amb=1e-3, rows=rows)
        assert got == (0.0, 0, 40, 0, 40)


def test_pair_scan_keys_a_pair_by_sample_index_across_patches():
    # 2 rows of 30: sample 32 (row 1, column 2) sits in an earlier patch than
    # sample 7 (row 0, column 7), so the scan meets the pair as (32, 7); it
    # must report (7, 32), which beats the tie (9, 22) in index order
    r = rng(11)
    pts = r.normal(size=(60, 3)) + 1j * r.normal(size=(60, 3))
    pts[32], pts[22] = pts[7], pts[9]
    dom = np.exp(2j * np.pi * 0.37 * np.arange(60))
    got = _assert_scan_equal(pts, dom, d_dom=0.5, d_amb=1e-3, rows=2)
    assert got == (0.0, 7, 32, 7, 32)


def test_pair_scan_evaluates_every_pair_it_cannot_rule_out(monkeypatch):
    """Every qualifying pair with squared separation <= max(U, d_amb^2) lies
    in a tile pair the scan keeps: the argument that makes it exact.  It
    holds for runs along the rings and for patches of the ring grid."""
    from nullcurves.diagnostics import _layout_shape, _sample_layout
    from nullcurves.pipelines import catalog

    dom, ambient = _sample_layout(catalog("cubic_enneper_like"), 1024)
    n = dom.size
    d_dom, d_amb = 0.5, 1.2
    evaluated = []
    original = kernels._tile_separations

    def recorded(amb, dom_, ta, tb, d_dom2):
        evaluated.append((ta, tb))
        return original(amb, dom_, ta, tb, d_dom2)

    monkeypatch.setattr(kernels, "_tile_separations", recorded)
    i, j = np.triu_indices(n, 1)
    dd = np.abs(dom[j] - dom[i]) ** 2
    sep = (np.abs(ambient[j] - ambient[i]) ** 2).sum(axis=1)
    sub = (i % kernels._STRIDE == 0) & (j % kernels._STRIDE == 0) & (dd >= d_dom ** 2)
    upper = sep[sub].min()
    need = (dd >= d_dom ** 2) & (sep <= max(upper, d_amb ** 2))
    # d_amb, not U, decides here: most of the pairs needed are above U
    assert need.sum() > 10 * (need & (sep <= upper)).sum()
    for rows in (1, _layout_shape(1024)[0]):
        evaluated.clear()
        _assert_scan_equal(ambient, dom, d_dom, d_amb, rows=rows)
        tiles = kernels._tiles(n, rows)
        ti = tiles[np.concatenate([ta for ta, _ in evaluated])][:, :, None]
        tj = tiles[np.concatenate([tb for _, tb in evaluated])][:, None, :]
        ti, tj = np.broadcast_arrays(ti, tj)
        keys = np.unique((np.minimum(ti, tj) * n + np.maximum(ti, tj))[ti != tj])
        assert np.isin(i[need] * n + j[need], keys).all()
        # and the bounds do prune
        assert keys.size < 0.75 * i.size


def test_pair_scan_bit_equal_on_flagged_even_map():
    from nullcurves.diagnostics import _sample_layout

    F = SeriesMap(np.array([[0, 0, 1], [0, 0, 1j], [0, 0, 0]], dtype=complex), 0, "disc")
    dom, ambient = _sample_layout(F, 2000)
    got = _assert_scan_equal(ambient, dom)
    assert got[3] >= 0 and abs(dom[got[3]] + dom[got[4]]) < 1e-12


def test_pair_scan_bit_equal_without_qualifying_pairs():
    r = rng(10)
    pts = r.normal(size=(500, 3)) + 1j * r.normal(size=(500, 3))
    dom = np.exp(2j * np.pi * r.uniform(size=500))
    assert _assert_scan_equal(pts, dom, d_dom=10.0) == (np.inf, -1, -1, -1, -1)


def test_pair_scan_bit_equal_when_many_pairs_are_flagged():
    dom, ambient = _verify_layouts()[1]
    got = _assert_scan_equal(ambient, dom, d_amb=2.0)
    assert got[3] >= 0


# -- FFT convolution and import cost ----------------------------------------------


def test_fftconvolve_bit_equal_to_scipy_signal():
    r = rng(80)
    # combined widths on both sides of the switch to FFT products, plus the
    # width-1 factor that SciPy turns into a plain product
    for wa, wb in [(1, 700), (300, 300), (700, 1), (511, 513), (600, 600),
                   (1000, 1100), (2049, 2049), (5000, 300)]:
        a = r.normal(size=(3, wa)) + 1j * r.normal(size=(3, wa))
        b = r.normal(size=(3, wb)) + 1j * r.normal(size=(3, wb))
        want = scipy.signal.fftconvolve(a, b, mode="full", axes=1)
        assert np.array_equal(fftconvolve(a, b), want)
        assert np.array_equal(fftconvolve(a[0], b[0]),
                              scipy.signal.fftconvolve(a[0], b[0]))
    assert 300 + 300 <= _CONV_FFT_CUTOFF < 600 + 600


def test_fftconvolve_bit_equal_to_scipy_signal_at_lengths_with_7_and_11():
    r = rng(81)
    # combined widths 1540 = 2^2*5*7*11, 2079 = 3^3*7*11 and 13475 = 5^2*7^2*11
    # are their own FFT lengths, so the transforms run pocketfft's radix-7 and
    # radix-11 passes
    for wa, wb in [(770, 771), (1000, 1080), (5000, 8476)]:
        n = wa + wb - 1
        assert _fast_length(n) == n and n % 77 == 0
        a = r.normal(size=(3, wa)) + 1j * r.normal(size=(3, wa))
        b = r.normal(size=(3, wb)) + 1j * r.normal(size=(3, wb))
        want = scipy.signal.fftconvolve(a, b, mode="full", axes=1)
        assert np.array_equal(fftconvolve(a, b), want)


def test_fast_length_is_scipys_complex_next_fast_len():
    got = [_fast_length(n) for n in range(1, 2 ** 17 + 1)]
    want = [scipy.fft.next_fast_len(n, real=False) for n in range(1, 2 ** 17 + 1)]
    assert got == want


def test_cli_import_leaves_scipy_signal_out():
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    code = "import sys, nullcurves.cli; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"
