"""The hot numeric kernels, one implementation each.

horner_eval        polynomial values at scattered points
min_dist2          per-query squared distance to a point cloud
min_dist2_grouped  the same, group by group
dijkstra_polar     multi-source shortest paths on the polar grid graph
pair_scan          exact pair separation scan with tie-breaking

The two min_dist2 kernels have no caller in the library: the certificates
measure distances to circles and discs in closed form.  They are kept
because the benchmark's kernel micro-timings time them by name.

The polar shortest paths are a ring-by-ring Gauss-Seidel sweep in NumPy,
relaxed to its fixpoint, which is the Dijkstra distances bit for bit; the
package uses no SciPy.  The pair scan bounds tiles of consecutive samples
first and evaluates only the pairs those bounds cannot rule out; its
answers are the all-pairs scan's.
"""

import math

import numpy as np

# the one kernel path, named in run records
BACKEND = "numpy"

_CHUNK = 64
# horner_eval evaluates this many points per matrix product
_HORNER_POINTS = 256
# pair_scan: samples per tile, the subsample stride of its first upper
# bound, the relative slack on its pruning bounds, and the most pairs it
# evaluates in one step
_TILE = 4
_STRIDE = 8
_SLACK = 1e-9
_PAIR_BLOCK = 1 << 16


def horner_eval(coeffs, z):
    """Evaluate polynomials given by coeffs (C, W) at points z (M,).

    Returns an (M, C) complex array; column j is component j in
    ascending-degree storage.  The coefficients are cut into B blocks of
    L = ceil(sqrt(W)); one matrix product against z^0 .. z^(L-1) gives
    every block's value, and Horner's scheme in z^L combines the blocks.
    Points go _HORNER_POINTS at a time, so the scratch memory stays at a
    few MB for any width.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    z = np.ascontiguousarray(z, dtype=np.complex128)
    ncomp, width = coeffs.shape
    out = np.zeros((z.shape[0], ncomp), dtype=np.complex128)
    if width == 0:
        return out
    span = math.isqrt(width - 1) + 1
    nblocks = -(-width // span)
    # row b * C + j holds degrees b*L .. b*L + L - 1 of component j
    blocks = np.zeros((ncomp, nblocks * span), dtype=np.complex128)
    blocks[:, :width] = coeffs
    blocks = blocks.reshape(ncomp, nblocks, span).transpose(1, 0, 2).reshape(-1, span)
    for lo in range(0, z.shape[0], _HORNER_POINTS):
        zc = z[lo:lo + _HORNER_POINTS]
        powers = np.empty((span, zc.shape[0]), dtype=np.complex128)
        powers[0] = 1.0
        np.cumprod(np.broadcast_to(zc, (span - 1, zc.shape[0])), axis=0, out=powers[1:])
        zspan = powers[-1] * zc
        vals = (blocks @ powers).reshape(nblocks, ncomp, zc.shape[0])
        acc = vals[-1].copy()
        for block in vals[-2::-1]:
            acc *= zspan
            acc += block
        out[lo:lo + _HORNER_POINTS] = acc.T
    return out


def min_dist2(queries, cloud):
    """Per-query minimum squared euclidean distance to a point cloud.

    queries: (Q, C) complex, cloud: (P, C) complex.  C complex coordinates
    count as 2C real ones.  Returns (Q,) float64.
    """
    queries = np.asarray(queries, dtype=np.complex128)
    cloud = np.asarray(cloud, dtype=np.complex128)
    out = np.empty(queries.shape[0], dtype=np.float64)
    for lo in range(0, queries.shape[0], _CHUNK):
        q = queries[lo:lo + _CHUNK]
        diff = q[:, None, :] - cloud[None, :, :]
        d2 = diff.real ** 2 + diff.imag ** 2
        out[lo:lo + _CHUNK] = d2.sum(axis=2).min(axis=1)
    return out


def min_dist2_grouped(queries, clouds):
    """Groupwise min_dist2: queries (G, Q, C) against clouds (G, P, C)."""
    queries = np.asarray(queries, dtype=np.complex128)
    clouds = np.asarray(clouds, dtype=np.complex128)
    ngroup = queries.shape[0]
    out = np.empty((ngroup, queries.shape[1]), dtype=np.float64)
    for g in range(ngroup):
        out[g] = min_dist2(queries[g], clouds[g])
    return out


def _roll(x, k):
    """np.roll(x, k, axis=-1) for k = 1 or -1, at a tenth of its cost on a ring."""
    return np.concatenate((x[..., -k:], x[..., :-k]), axis=-1)


def _from_inner(d, w_rad, w_dru, w_drl):
    """Candidates for ring(s) i + 1 over the radial and diagonal edges out of
    ring(s) i, whose distances are d.  Works on one ring or a stack."""
    cand = d + w_rad
    np.minimum(cand, _roll(d + w_dru, 1), out=cand)
    return np.minimum(cand, _roll(d + w_drl, -1), out=cand)


def _from_outer(d, w_rad, w_dru, w_drl):
    """The same edges walked inward: candidates for ring(s) i from ring(s)
    i + 1, whose distances are d."""
    cand = d + w_rad
    np.minimum(cand, _roll(d, -1) + w_dru, out=cand)
    return np.minimum(cand, _roll(d, 1) + w_drl, out=cand)


def _along(d, w_tan):
    """Candidates for ring(s) d from both tangential neighbours."""
    return np.minimum(_roll(d, -1) + w_tan, _roll(d + w_tan, 1))


def _settle(ring, w_tan):
    """Relax one ring, in place, along its own edges until it stops changing."""
    while True:
        new = np.minimum(ring, _along(ring, w_tan))
        if not (new < ring).any():
            return
        ring[...] = new


def dijkstra_polar(w_tan, w_rad, w_dru, w_drl, src_mask):
    """Multi-source shortest paths on a polar grid with 8-neighbour stencil.

    Nodes are (ring i, angle j), i in [0, R), j in [0, A) with angular
    wraparound.  Undirected edges, with nonnegative weights:
      w_tan[i, j] : (i, j) -- (i, j+1)
      w_rad[i, j] : (i, j) -- (i+1, j)
      w_dru[i, j] : (i, j) -- (i+1, j+1)
      w_drl[i, j] : (i, j) -- (i+1, j-1)
    src_mask (R, A) marks zero-distance sources.  Returns (R, A) distances
    (inf where unreachable).  Zero weights are edges, not gaps.  A negative
    or NaN weight raises ValueError.

    A Gauss-Seidel sweep, ring by ring.  The outward pass relaxes ring i
    from ring i - 1, then along its own edges until it stops changing.  One
    relaxation of the whole grid over all 8 stencil slots follows: if it
    changes nothing, the distances are returned; otherwise an inward pass
    (ring i from ring i + 1) runs, and so on, alternating.  Every stored
    value is one sum fl(d + w), monotone in d, so the fixpoint reached from
    inf is the least left-fold sum over simple paths: the distances a heap
    Dijkstra returns, bit for bit.  Each pass relaxes every edge at least
    once, so at most R * A passes run.  On the intrinsic-radius graph,
    sourced on ring 0, the outward pass alone reaches the fixpoint.
    """
    w_tan, w_rad, w_dru, w_drl = weights = [
        np.asarray(w, dtype=np.float64) for w in (w_tan, w_rad, w_dru, w_drl)
    ]
    if not all((w >= 0.0).all() for w in weights):  # NaN fails the comparison too
        raise ValueError("polar edge weights must be nonnegative and not NaN")
    nrad = w_tan.shape[0]
    dist = np.where(np.asarray(src_mask, dtype=bool), 0.0, np.inf)
    outward = True
    while True:
        step = _from_inner if outward else _from_outer
        for i in range(nrad) if outward else range(nrad - 1, -1, -1):
            k = i - 1 if outward else i + 1  # the ring swept just before
            if 0 <= k < nrad:
                gap = min(i, k)
                np.minimum(dist[i], step(dist[k], w_rad[gap], w_dru[gap], w_drl[gap]),
                           out=dist[i])
            _settle(dist[i], w_tan[i])
        relaxed = np.minimum(dist, _along(dist, w_tan))
        np.minimum(relaxed[1:], _from_inner(dist[:-1], w_rad, w_dru, w_drl), out=relaxed[1:])
        np.minimum(relaxed[:-1], _from_outer(dist[1:], w_rad, w_dru, w_drl), out=relaxed[:-1])
        if not (relaxed < dist).any():
            return dist
        dist, outward = relaxed, not outward


def _separations(ambient, dom, i, j, d_dom2):
    """Squared ambient separation of the pairs (i, j), inf where the pair's
    squared domain separation is below d_dom2.  i and j are index arrays of
    one shape; the result has it too."""
    ddc = dom[j] - dom[i]
    dd = ddc.real ** 2 + ddc.imag ** 2
    dac = (ambient[j] - ambient[i]).reshape(-1, ambient.shape[1])
    sep = (dac.real ** 2 + dac.imag ** 2).sum(axis=1).reshape(dd.shape)
    return np.where(dd >= d_dom2, sep, np.inf)


def _tile_bounds(points, idx):
    """Centre (T, C) and radius (T,) of the tiles points[idx], points (N, C)."""
    members = points[idx]
    centre = members.mean(axis=1)
    off = members - centre[:, None]
    return centre, np.sqrt((off.real ** 2 + off.imag ** 2).sum(axis=2).max(axis=1))


def _distance(a, b):
    """Euclidean distances (A, B) between the rows of a (A, C) and b (B, C)."""
    diff = b[None] - a[:, None]
    return np.sqrt((diff.real ** 2 + diff.imag ** 2).sum(axis=2))


def pair_scan(ambient, dom, d_dom, d_amb):
    """Exact scan over all sample pairs with domain separation >= d_dom.

    ambient: (N, C) complex image points, dom: (N,) complex domain points.
    Returns (min_sep, min_i, min_j, flag_i, flag_j) where (min_i, min_j) is
    the first pair attaining the minimal ambient separation and
    (flag_i, flag_j) is the first pair with ambient separation < d_amb
    (-1, -1 if none).  "First" is lexicographic in (i, j).

    The scan evaluates only the pairs a bound cannot rule out.  The pairs
    of every _STRIDE-th sample give an upper bound U on the minimum.  The
    samples are cut into tiles of _TILE consecutive ones, each with a
    centre and a radius in the ambient space and in the domain.  A pair of
    tiles is skipped when every pair in it is closer than d_dom in the
    domain, or farther than sqrt(max(U, d_amb^2)) in the ambient space:
    none of those pairs can be the minimum or flagged.  Both bounds carry
    a relative slack of _SLACK, far above their rounding error.  The kept
    pairs go through the row scan's own expression, so the answers equal
    the unpruned scan's bit for bit.
    """
    ambient = np.asarray(ambient, dtype=np.complex128)
    dom = np.asarray(dom, dtype=np.complex128)
    n = ambient.shape[0]
    d_dom2 = d_dom * d_dom
    d_amb2 = d_amb * d_amb
    if n < 2:
        return np.inf, -1, -1, -1, -1

    # U: the least separation among the subsample's qualifying pairs
    sub = np.arange(0, n, _STRIDE)
    upper = np.inf
    rows = max(1, _PAIR_BLOCK // sub.size)
    for lo in range(0, sub.size, rows):
        i = sub[lo:lo + rows, None]
        sep = _separations(ambient, dom, i, sub[None, :], d_dom2)
        upper = min(upper, float(sep.min(where=sub[None, :] > i, initial=np.inf)))
    reach2 = max(upper, d_amb2)

    ntile = -(-n // _TILE)
    # the last tile repeats sample n - 1 to fill up; pairs need i < j anyway
    idx = np.minimum(np.arange(ntile * _TILE), n - 1).reshape(ntile, _TILE)
    amb_c, amb_r = _tile_bounds(ambient, idx)
    dom_c, dom_r = _tile_bounds(dom[:, None], idx)

    best, best_key = np.inf, -1
    flag_key = n * n
    rows = max(1, _PAIR_BLOCK // ntile)
    step = max(1, _PAIR_BLOCK // (_TILE * _TILE))  # tile pairs per step
    for lo in range(0, ntile, rows):
        # tile rows a against tiles b >= lo; the pairs with b < a are masked
        a = np.arange(lo, min(lo + rows, ntile))
        span = _distance(dom_c[a], dom_c[lo:]) + dom_r[a, None] + dom_r[None, lo:]
        reach = _distance(amb_c[a], amb_c[lo:])
        radii = amb_r[a, None] + amb_r[None, lo:]
        gap = np.maximum(reach - radii - _SLACK * (reach + radii), 0.0)
        keep = (span * (1.0 + _SLACK) >= d_dom) & (gap * gap <= reach2)
        keep &= np.arange(lo, ntile)[None] >= a[:, None]
        ta, tb = np.nonzero(keep)
        ta += lo
        tb += lo
        for s in range(0, ta.size, step):
            i = idx[ta[s:s + step], :, None]
            j = idx[tb[s:s + step], None, :]
            sep = np.where(i < j, _separations(ambient, dom, i, j, d_dom2), np.inf)
            key = i * n + j
            low = float(sep.min())
            if low < np.inf and low <= best:
                best, best_key = min((best, best_key), (low, int(key[sep == low].min())))
            hits = sep < d_amb2
            if hits.any():
                flag_key = min(flag_key, int(key[hits].min()))
    best_i, best_j = divmod(best_key, n) if best_key >= 0 else (-1, -1)
    flag_i, flag_j = divmod(flag_key, n) if flag_key < n * n else (-1, -1)
    return float(np.sqrt(best)) if np.isfinite(best) else np.inf, \
        best_i, best_j, flag_i, flag_j
