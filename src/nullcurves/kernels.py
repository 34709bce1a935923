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
package uses no SciPy.  The pair scan bounds 2 x 2 patches of the sample
grid first, with one matrix product per block of patches, and evaluates
only the pairs those bounds cannot rule out, on real arrays laid out
component by component; its answers are the all-pairs scan's.
"""

import math

import numpy as np

# the one kernel path, named in run records
BACKEND = "numpy"

_CHUNK = 64
# horner_eval evaluates this many points per matrix product
_HORNER_POINTS = 256
# pair_scan: the subsample stride of its first upper bound, the relative
# slack on its pruning bounds, the rounding allowance per coordinate of its
# Gram-form centre distances, and the most pairs it evaluates in one step
_STRIDE = 8
_SLACK = 1e-9
_GRAM = 1e-13
_PAIR_BLOCK = 1 << 14


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


def _sq_separations(amb_i, amb_j, dom_i, dom_j, d_dom2):
    """Squared ambient separations of the pairs (i, j), inf where the pair's
    squared domain separation is below d_dom2.

    The points come as component-major real coordinates that broadcast
    against each other: (2C, ...) ambient, rows 2k and 2k + 1 the real and
    imaginary part of component k, and (2, ...) domain.  A separation is
    ((re0^2 + im0^2) + (re1^2 + im1^2)) + ..., the left fold in which
    NumPy's row sum of |a_j - a_i|^2 adds its C < 8 terms, and it is the
    same bit for bit with i and j swapped.
    """
    diff = amb_j - amb_i
    diff *= diff
    sep = diff[0] + diff[1]
    for k in range(2, diff.shape[0], 2):
        sep += np.add(diff[k], diff[k + 1], out=diff[k])
    gap = dom_j - dom_i
    gap *= gap
    return np.where(gap[0] + gap[1] >= d_dom2, sep, np.inf)


def _tile_separations(amb, dom, ta, tb, d_dom2):
    """_sq_separations (4, 4, S) of the members of tiles ta (S,) against
    those of tiles tb (S,): entry [x, y, s] pairs member x of tile ta[s]
    with member y of tile tb[s].  amb (2C, 4, T) and dom (2, 4, T) are the
    tile arrays; the pair axis comes last, so every operation runs along it.
    """
    amb_a, amb_b = amb.take(ta, axis=2), amb.take(tb, axis=2)
    dom_a, dom_b = dom.take(ta, axis=2), dom.take(tb, axis=2)
    return _sq_separations(amb_a[:, :, None], amb_b[:, None], dom_a[:, :, None],
                           dom_b[:, None], d_dom2)


def _tiles(n, rows):
    """Sample indices (T, 4) of pair_scan's tiles on rows x (n / rows) samples.

    A tile is a patch of 2 rows by 2 columns of the row-major grid, or a run
    of 4 consecutive samples when rows is 1.  Tiles run row-major over the
    grid; an odd last row or column of tiles repeats the grid's last row or
    column.
    """
    cols = n // rows
    height = 2 if rows > 1 else 1
    width = 4 // height
    r = np.minimum(np.arange(-(-rows // height) * height), rows - 1).reshape(-1, height)
    c = np.minimum(np.arange(-(-cols // width) * width), cols - 1).reshape(-1, width)
    return (r[:, None, :, None] * cols + c[None, :, None, :]).reshape(-1, 4)


def _tile_bounds(tiles):
    """Centres (K, T) and radii (T,) of tiles given as (K, 4, T) coordinates."""
    centre = tiles.mean(axis=1)
    off = tiles - centre[:, None]
    off *= off
    return centre, np.sqrt(off.sum(axis=0).max(axis=0))


def pair_scan(ambient, dom, d_dom, d_amb, rows=1):
    """Exact scan over all sample pairs with domain separation >= d_dom.

    ambient: (N, C) complex image points, dom: (N,) complex domain points,
    read as rows rows of N / rows samples, row-major (ValueError if rows
    does not divide N).  Returns (min_sep, min_i, min_j, flag_i, flag_j)
    where (min_i, min_j) is the first pair attaining the minimal ambient
    separation and (flag_i, flag_j) is the first pair with ambient
    separation < d_amb (-1, -1 if none).  "First" is lexicographic in
    (i, j), i < j; separations are _sq_separations'.

    The scan evaluates only the pairs a bound cannot rule out.  The pairs
    of every _STRIDE-th sample give an upper bound U on the minimum.  The
    samples are cut into tiles of 2 x 2 neighbours on the grid, or runs of
    4 when rows is 1 (_tiles), each with a centre and a radius in the
    ambient space and in the domain.  A pair of tiles is skipped when every
    pair in it is closer than d_dom in the domain, or farther than
    sqrt(max(U, d_amb^2)) in the ambient space (a test skipped when that
    reach is infinite): none of those pairs can be the minimum or flagged.  The
    kept tile pairs go through the same arithmetic, on (2C, 4, T) and
    (2, 4, T) real tile arrays gathered once, so the answers equal the
    unpruned scan's bit for bit.  A pair from two tiles is keyed by its
    lesser index first; inside one tile only i < j counts, so the repeated
    members that pad an odd edge drop out.

    Rounding.  Both bounds carry a relative slack of _SLACK, far above the
    rounding of the radii, the domain distances and the separations.  The
    centre distances come in Gram form, one matrix product per block of
    tile rows and per space.  For centres a and b in m real coordinates,
    let s = |a|^2 + |b|^2 and g = |a - b|^2 = |a|^2 + |b|^2 - 2 a.b.  With
    R = sqrt(max(U, d_amb^2)), q the ambient radii times (1 + _SLACK) /
    (1 - _SLACK) and r_a = R / (1 - _SLACK) + q_a, the ambient product is
    u_a . v_b = g - tau s - (r_a + q_b)^2, its norms shrunk by 1 - tau; the
    domain product is p_a . w_b = g + tau s, its norms grown by 1 + tau.
    With eps = 2^-53 and gamma_k = k eps / (1 - k eps), the norms, the vector
    entries and the products (in any summation order) each round by at
    most gamma_(m+4) times the sum of their terms' moduli, and those sums
    stay below 3 s + 2 (r_a + q_b)^2.  tau = _GRAM (m + 4) is 300 times
    3 gamma_(m+4).  So the domain product is never below g, and a positive
    ambient product means g > (1 - 2 gamma_(m+4)) (r_a + q_b)^2, which the
    slack turns into a separation above R for every pair of the two tiles
    (barring over- and underflow).
    """
    ambient = np.ascontiguousarray(ambient, dtype=np.complex128)
    dom = np.ascontiguousarray(dom, dtype=np.complex128)
    n = ambient.shape[0]
    if rows < 1 or n % rows:
        raise ValueError("rows=%r does not divide the %d samples" % (rows, n))
    d_dom2 = d_dom * d_dom
    d_amb2 = d_amb * d_amb
    if n < 2:
        return np.inf, -1, -1, -1, -1
    amb = ambient.view(np.float64).T
    dmn = dom.view(np.float64).reshape(n, 2).T

    # U: the least separation among the subsample's qualifying pairs
    sub = np.arange(0, n, _STRIDE)
    sub_amb, sub_dom = amb[:, sub], dmn[:, sub]
    upper = np.inf
    block = max(1, _PAIR_BLOCK // sub.size)
    for lo in range(0, sub.size, block):
        # rows lo .. hi - 1 against columns lo ..; the pairs j <= i are masked
        hi = lo + block
        sep = _sq_separations(sub_amb[:, lo:hi, None], sub_amb[:, None, lo:],
                              sub_dom[:, lo:hi, None], sub_dom[:, None, lo:], d_dom2)
        head = sep[:, :sep.shape[0]]
        head[np.tri(sep.shape[0], dtype=bool)] = np.inf
        upper = min(upper, float(sep.min()))

    idx = _tiles(n, rows)
    ntile = idx.shape[0]
    amb_t, dom_t = amb[:, idx.T], dmn[:, idx.T]
    amb_c, amb_r = _tile_bounds(amb_t)
    dom_c, dom_r = _tile_bounds(dom_t)
    # one matrix product per block and bound (see Rounding): u_a . v_b > 0
    # rules tiles a and b out in the ambient space, and p_a . w_b is at
    # least the square of their domain centre distance; an infinite reach
    # rules nothing out
    one = np.ones(ntile)
    reach2 = max(upper, d_amb2)
    q = amb_r * ((1.0 + _SLACK) / (1.0 - _SLACK))
    reach = np.sqrt(reach2) / (1.0 - _SLACK) + q
    norm = (amb_c * amb_c).sum(axis=0) * (1.0 - _GRAM * (amb_c.shape[0] + 4))
    u = np.vstack([amb_c, reach, norm - reach * reach, one]).T.copy()
    v = np.vstack([-2.0 * amb_c, -2.0 * q, one, norm - q * q])
    norm = (dom_c * dom_c).sum(axis=0) * (1.0 + _GRAM * (dom_c.shape[0] + 4))
    p = np.vstack([dom_c, norm, one]).T.copy()
    w = np.vstack([-2.0 * dom_c, one, norm])
    far = d_dom / (1.0 + _SLACK) - dom_r

    kept = []
    block = max(1, _PAIR_BLOCK // ntile)
    for lo in range(0, ntile, block):
        # tile rows a against tiles b >= lo; the pairs with b < a are masked
        a = slice(lo, min(lo + block, ntile))
        span = np.sqrt(p[a] @ w[:, lo:])
        keep = span >= far[a, None] - dom_r[None, lo:]
        if reach2 < np.inf:
            keep &= u[a] @ v[:, lo:] <= 0.0
        head = keep[:, :keep.shape[0]]
        head &= np.tri(keep.shape[0], dtype=bool).T
        ta, tb = np.nonzero(keep)
        kept.append((ta + lo, tb + lo))
    ta = np.concatenate([t for t, _ in kept])
    tb = np.concatenate([t for _, t in kept])

    best, best_key = np.inf, -1
    flag_key = n * n
    own = (idx[:, :, None] < idx[:, None, :]).transpose(1, 2, 0)

    def first(mask, a, b):
        x, y, k = np.nonzero(mask)
        i, j = idx[a[k], x], idx[b[k], y]
        return int((np.minimum(i, j) * n + np.maximum(i, j)).min())

    step = max(1, _PAIR_BLOCK // 16)  # tile pairs per step
    for s in range(0, ta.size, step):
        a, b = ta[s:s + step], tb[s:s + step]
        sep = _tile_separations(amb_t, dom_t, a, b, d_dom2)
        same = a == b
        if same.any():
            sep[..., same] = np.where(own[..., a[same]], sep[..., same], np.inf)
        low = float(sep.min())
        if low < np.inf and low <= best:
            best, best_key = min((best, best_key), (low, first(sep == low, a, b)))
        hits = sep < d_amb2
        if hits.any():
            flag_key = min(flag_key, first(hits, a, b))
    best_i, best_j = divmod(best_key, n) if best_key >= 0 else (-1, -1)
    flag_i, flag_j = divmod(flag_key, n) if flag_key < n * n else (-1, -1)
    return float(np.sqrt(best)) if np.isfinite(best) else np.inf, \
        best_i, best_j, flag_i, flag_j
