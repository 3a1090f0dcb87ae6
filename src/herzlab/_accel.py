"""Hot numeric kernels, vectorised in numpy.

Each kernel is deterministic run to run and independent of how its rows or
targets are batched: the maximal scan reads the same prefix-sum entries per
row, and the majorant kernels reduce the same (target, source) products in
the same order.  Both do their arithmetic in a few large numpy calls and
copy no more than they must: the maximal scan takes a block of consecutive
widths per call from prefix sums built in place, and the majorant kernels
read each source's kernel values over a tile of targets as one plain slice
of their kernel box, with one multiply and one in-place add or maximum per
source and tile.  The sums add in numpy's own pairwise order, made
explicit, so they keep the bits of np.sum over a contiguous source axis.

The maximal scan computes only the window averages that can raise its
result.  It takes the half-widths 0..G/2 of its one caller and no other
set.  Rows that are all zero are left out, and at each width w >= 2 it
skips every window whose two new edge samples are zero in all rows: the
window sum then keeps its bits from width w - 1, and as it is >= 0,
dividing it by 2w+1 instead of 2w-1 cannot give more (correctly rounded
division is monotone).  Its output is bit for bit that of the full scan;
it takes nonnegative input only, and rejects the rest.
"""

import itertools
import math

import numpy as np

# Reported as the run's numeric path by the benchmark; numpy is the only one.
USE_NUMBA = False

# Elements of one workspace block of the kernels.  Blocks this size stay in
# the CPU cache; 2^22-element majorant blocks ran about 2x slower on a 2-vCPU
# x86-64 VM.
WORKSPACE = 1 << 16


def _support(col):
    """Least cyclic interval [a, a + m) of 0..G-1 holding every sample j
    with a nonzero in col[j]; col is (G, R), rows transposed, not all 0."""
    G = col.shape[0]
    hot = np.flatnonzero(col.any(axis=1))
    gaps = np.diff(hot, append=hot[0] + G)
    i = int(np.argmax(gaps))
    return int(hot[(i + 1) % hot.size]), G - int(gaps[i]) + 1


def _runs(spans, G):
    """Sorted disjoint runs [p, q) of 0..G-1 covering the cyclic spans
    (start, length); a span as long as the period gives the one run (0, G).
    """
    runs = []
    for s, n in spans:
        if n >= G:
            return [(0, G)]
        s %= G
        if s + n > G:
            runs.append((0, s + n - G))
            n = G - s
        runs.append((s, s + n))
    runs.sort()
    merged = [runs[0]]
    for p, q in runs[1:]:
        if p <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(q, merged[-1][1]))
        else:
            merged.append((p, q))
    return merged


def _width_blocks(G, size):
    """The widths 1..G/2 to scan, as blocks (w0, nw) of w0..w0+nw-1: width
    1 alone, as its windows are not pruned, then blocks of ``size``."""
    half = G // 2
    blocks = [(1, 1)] if half else []
    return blocks + [(w, min(size, half + 1 - w))
                     for w in range(2, half + 1, size)]


def _block_size(G, rows, m):
    """Widths per block of the scan, for ``rows`` live rows with support m.

    The size is the largest nw with nw (m + 2 nw + 2) rows <= WORKSPACE.
    A block's buffer over a run of L starts holds nw (L + nw - 1) rows, and
    a run is at most the union of the right run, the left run and the start
    G - 1 (see ``maximal_rows``), L <= 2m + 2 nw - 1: the buffer stays below
    2 WORKSPACE, not within it.  Sizing for that union instead, nw (2m +
    3 nw - 2) rows <= WORKSPACE, gave about 2/3 the widths a block and ran
    the ``kernels`` maximal inputs about 5% slower on a 2-vCPU x86-64 VM.
    When 3G rows, the prefix sums (2G) and the result (G), exceed
    WORKSPACE, the scan runs out of the cache, and the pass a block adds
    (its maximum over widths) costs more than the numpy calls it saves: one
    width per block.
    """
    if 3 * G * rows > WORKSPACE:
        return 1
    per_row = WORKSPACE // rows
    size = 1
    while (size + 1) * (m + 2 * size + 2) <= per_row:
        size += 1
    return size


def _block_max(cs, p, q, w0, nw, work):
    """Per sample, the largest average of widths w0..w0+nw-1 over the
    windows that start at lo = p..q-1.

    Window (w, lo) sums cs[lo + 2w + 1] - cs[lo] and lands on sample
    lo + w.  Row u of the (q - p + nw - 1, R) result is sample p + w0 + u
    (not reduced mod G); it is built in ``work``.  The block is one strided
    view of cs minus one slice, written skewed, so that width w0 + i of
    start p + t sits at buf[i, i + t]; the rest of buf is +0.0, which no
    average (all >= +0.0 or NaN) is below.
    """
    L, R = q - p, cs.shape[1]
    s0, s1 = cs.strides
    if nw == 1:
        avg = work[:L * R].reshape(L, R)
        np.subtract(cs[p + 2 * w0 + 1:q + 2 * w0 + 1], cs[p:q], out=avg)
        avg /= 2.0 * w0 + 1.0
        return avg
    buf = work[:nw * (L + nw - 1) * R].reshape(nw, L + nw - 1, R)
    buf[:, :nw - 1] = 0.0
    buf[:, L:] = 0.0
    b0, b1, b2 = buf.strides
    skew = np.ndarray((nw, L, R), buffer=work, strides=(b0 + b1, b1, b2))
    top = np.ndarray((nw, L, R), buffer=cs, offset=(p + 2 * w0 + 1) * s0,
                     strides=(2 * s0, s0, s1))
    np.subtract(top, cs[p:q], out=skew)
    skew /= (2.0 * np.arange(w0, w0 + nw) + 1.0)[:, None, None]
    return buf.max(axis=0)


def maximal_rows(g, widths):
    """Centered periodic maximal function of each row of ``g``.

    g : (R, G) nonnegative float64, one row per 1d slice.  An entry with
        its sign bit set (a negative value or -0.0) raises ValueError: the
        pruning below needs window sums >= 0, and zeros of one sign.
    widths : the window half-widths, which must be np.arange(G // 2 + 1);
        any other array raises ValueError.  Width w averages 2w+1
        consecutive samples (w = 0 is the sample alone); windows wrap
        periodically.  Returns the (R, G) array of largest window averages.

    With cs the prefix sums of two periods, the window of half-width w
    that starts at lo in [0, G) sums S = cs[lo + 2w + 1] - cs[lo]
    (lo + 2w + 1 <= 2G) and lands on sample j = (lo + w) mod G, as in the
    full scan.  The scan runs on the transpose, in blocks of consecutive
    widths (``_width_blocks``, ``_block_max``): over a run of starts, the
    block is one strided view of cs minus one slice, and its maximum over
    widths goes into the result with one np.maximum per period piece.

    The scan is pruned, with the same output bits.  Rows that are all zero
    are left out; their output is zero.  With every nonzero sample in the
    cyclic interval [a, a + m), a width w >= 2 needs only the starts lo in
    [a, a + m) (its first sample may be nonzero), in [a - 2w, a - 2w + m)
    (its last may be) and lo = G - 1, the window of sample w - 1, whose
    start at width w - 1 is 0 and so reads the other prefix-sum period.
    For any other start both edge samples are +0.0 in every row and
    cs[lo + 1], cs[lo + 2w] are the entries of window (w - 1, lo + 1),
    which lands on the same sample: both prefix sums keep their bits, S is
    that window's sum, and as S >= 0 and correctly rounded division is
    monotone, fl(S / (2w+1)) <= fl(S / (2w-1)), which the result holds
    once width w - 1 is scanned (the same holds for it in turn, down to
    the width before the block).  A block scans the union of its widths'
    starts, and any superset of them inside the full scan has the same
    maximum.  Width 1 (the result starts from the samples, not from
    prefix-sum differences) and a block whose starts cover the period scan
    every start.
    """
    R, G = g.shape
    if not np.array_equal(widths, np.arange(G // 2 + 1)):
        raise ValueError(f"maximal_rows takes the widths 0..{G // 2} "
                         f"(np.arange(G // 2 + 1)) for G = {G}")
    if np.signbit(g).any():
        raise ValueError("maximal_rows needs nonnegative input "
                         "(no negative entry and no -0.0)")
    live = np.flatnonzero(g.any(axis=1))
    if live.size == 0:
        return np.zeros((G, R)).T
    # a fresh C-ordered copy: the result is built in it (the transpose of
    # one row is contiguous, and asking for that would alias g)
    if live.size == R:
        col = np.array(g.T, dtype=np.float64, order="C")
    else:
        col = np.ascontiguousarray(g[live].T, dtype=np.float64)
    a, m = _support(col)
    # the prefix sums of two periods, the second carried on from the last
    # sum of the first: the bits of a cumsum over their concatenation
    cs = np.empty((2 * G + 1, live.size))
    cs[0] = 0.0
    for p in (0, G):
        cs[p + 1:p + G + 1] = col
        np.cumsum(cs[p:p + G + 1], axis=0, out=cs[p:p + G + 1])
    out = col
    work = np.empty(0)
    for w0, nw in _width_blocks(G, _block_size(G, live.size, m)):
        runs = [(0, G)]
        if w0 > 1:
            runs = _runs(((a, m), (a - 2 * (w0 + nw - 1), m + 2 * nw - 2),
                          (G - 1, 1)), G)
        for p, q in runs:
            need = nw * (q - p + nw - 1) * live.size
            if work.size < need:
                work = np.empty(need)
            best = _block_max(cs, p, q, w0, nw, work)
            # row u of best is sample p + w0 + u, wrapped into 0..G-1
            j, u = (p + w0) % G, 0
            while u < best.shape[0]:
                k = min(G - j, best.shape[0] - u)
                np.maximum(out[j:j + k], best[u:u + k], out=out[j:j + k])
                j, u = 0, u + k
    if live.size == R:
        return out.T
    full = np.zeros((G, R))
    full[:, live] = out
    return full.T


def _tiles(shape, size):
    """Boxes tiling the index box [0, shape), each of at most ``size``
    elements (at least one), as tuples of slices in C order.

    A tile spans as much of the last axis as fits, then of the axis before
    it, and so on: the box is split along every axis that the size needs.
    """
    extent = []
    for s in reversed(shape):
        extent.append(max(1, min(s, size)))
        size //= extent[-1]
    spans = [[slice(a, min(a + e, s)) for a in range(0, s, e)]
             for s, e in zip(shape, reversed(extent))]
    return itertools.product(*spans)


def _kernel_box(pos, corner, shape, d):
    """(1 + |o|)^-d on the box of offsets t - pos[h], t in the target box.

    The offset of target corner + u to source h sits at index
    u + pos.max(axis=0) - pos[h] of the returned array.
    """
    top = pos.max(axis=0)
    lo = corner - top
    kshape = shape + top - pos.min(axis=0)
    axes = [np.arange(a, a + s, dtype=np.float64) for a, s in zip(lo, kshape)]
    off = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                   axis=1)
    dist = np.sqrt(np.sum(off * off, axis=1))
    return ((1.0 + dist) ** (-d)).reshape(tuple(kshape))


def _pair_depth(H):
    """Levels of halving in ``_pairwise`` over H terms."""
    depth = 0
    while H > 128:
        H -= H // 2 - H // 2 % 8
        depth += 1
    return depth


def _pairwise(term, a, b, out, spare):
    """out = the sum of terms a..b-1 in numpy's pairwise order.

    term(h, buf) writes term h into buf and returns buf.  This is the order
    in which numpy sums a contiguous axis (pairwise_sum in its add loop),
    made explicit: fewer than 8 terms are added in turn; up to 128 terms
    (numpy's PW_BLOCKSIZE) go into 8 interleaved partial sums, combined as
    ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), and the terms past
    the last multiple of 8 are added after that; a longer run is split in
    two at the multiple of 8 at or below its half, and the two sums are
    added.  A run of up to 128 terms needs 8 ``spare`` buffers, and each
    halving one more.
    """
    n = b - a
    if n > 128:
        half = n // 2 - n // 2 % 8
        _pairwise(term, a, a + half, out, spare)
        _pairwise(term, a + half, b, spare[0], spare[1:])
        out += spare[0]
        return
    prod = spare[0]
    if n < 8:
        # numpy starts from -0.0, and -0.0 + x is x
        term(a, out)
        for h in range(a + 1, b):
            out += term(h, prod)
        return
    acc = [out, *spare[1:8]]
    for j in range(8):
        term(a + j, acc[j])
    stop = b - n % 8
    for h in range(a + 8, stop):
        acc[(h - a) % 8] += term(h, prod)
    for i, j in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        acc[i] += acc[j]
    for h in range(stop, b):
        out += term(h, prod)


def _window_reduce(weights, pos, corner, shape, d, total):
    """Sum (``total``) or max over h of weights[h] * (1 + |pos[h] - t|)^-d
    for each target t of the box corner + [0, shape), in C order.

    In the kernel box, source h's values over a box of targets corner +
    [u0, u1) are the plain slice top - pos[h] + [u0, u1), top =
    pos.max(axis=0).  The target box is cut into ``_tiles`` that fit the
    scratch buffers in WORKSPACE, and per tile each source takes one
    multiply of its slice into a buffer and one in-place add or maximum.
    The max is exact, so its order does not matter.  The sum adds the
    products in numpy's pairwise order (``_pairwise``), so each target's
    sum has the bits of np.sum over a contiguous (M, H) product array,
    whatever the tiles.
    """
    kernel = _kernel_box(pos, np.asarray(corner, dtype=np.int64),
                         np.asarray(shape, dtype=np.int64), d)
    shape = tuple(map(int, shape))
    at = (pos.max(axis=0) - pos).tolist()
    weights = weights.tolist()
    nbuf = 8 + _pair_depth(len(at)) if total else 1
    size = max(1, WORKSPACE // nbuf)
    work = np.empty(nbuf * min(size, math.prod(shape)))
    out = np.empty(shape)
    for tile in _tiles(shape, size):
        tshape = tuple(t.stop - t.start for t in tile)
        spare = work[:nbuf * math.prod(tshape)].reshape(nbuf, *tshape)

        def term(h, buf):
            box = tuple(slice(o + t.start, o + t.stop)
                        for o, t in zip(at[h], tile))
            return np.multiply(kernel[box], weights[h], out=buf)

        if total:
            _pairwise(term, 0, len(at), out[tile], spare)
            continue
        res = term(0, out[tile])
        for h in range(1, len(at)):
            np.maximum(res, term(h, spare[0]), out=res)
    return out.ravel()


def lambda_star_sum(mag_pow, pos, corner, shape, d):
    """sum_h mag_pow[h] / (1 + |pos[h] - t|)^d for each target t.

    mag_pow : (H,) float64, |lambda_h|^r.
    pos : (H, n) int64 occupied lattice points.
    corner, shape : (n,) int64; the targets are the lattice points of the
        box corner + [0, shape), in C order (last axis fastest).
    """
    return _window_reduce(mag_pow, pos, corner, shape, d, True)


def lambda_star_max(mag, pos, corner, shape, d):
    """max_h mag[h] * (1 + |pos[h] - t|)^(-d) for each target t of the
    box corner + [0, shape) (r = inf)."""
    return _window_reduce(mag, pos, corner, shape, d, False)
