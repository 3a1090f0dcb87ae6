"""Hot numeric kernels, vectorised in numpy.

Each kernel is deterministic run to run and independent of how its rows or
targets are batched: the maximal scan reads the same prefix-sum entries per
row, and the majorant kernels reduce the same (target, source) products in
source order.

The maximal scan computes only the window averages that can raise its
result.  Rows that are all zero are left out, and at a width w that follows
w - 1 in its widths array it skips every sample whose two new edge samples
are zero in all rows: the window sum then keeps its bits from width w - 1,
and as it is >= 0, dividing it by 2w+1 instead of 2w-1 cannot give more
(correctly rounded division is monotone).  Its output is bit for bit that
of the full scan; it takes nonnegative input only, and rejects the rest.
"""

import numpy as np

# Reported as the run's numeric path by the benchmark; numpy is the only one.
USE_NUMBA = False


def _support(col):
    """Least cyclic interval [a, a + m) of 0..G-1 holding every sample j
    with a nonzero in col[j]; col is (G, R), rows transposed, not all 0."""
    G = col.shape[0]
    hot = np.flatnonzero(col.any(axis=1))
    gaps = np.diff(hot, append=hot[0] + G)
    i = int(np.argmax(gaps))
    return int(hot[(i + 1) % hot.size]), G - int(gaps[i]) + 1


def _scan_runs(a, m, w, G):
    """Sorted disjoint runs [p, q) of the samples 0..G-1 to scan at
    half-width w > 1 after w - 1, for live columns in [a, a + m) mod G.

    A sample j needs its window only when a column entering it,
    (j - w) mod G or (j + w) mod G, can be nonzero (the cyclic runs
    [a - w, a - w + m) and [a + w, a + w + m)), or when j = w - 1, the one
    sample whose window sum moves to the other prefix-sum copy.  Runs that
    cover the period come back as the one run (0, G).
    """
    runs = []
    for s, n in ((a - w, m), (a + w, m), (w - 1, 1)):
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


def maximal_rows(g, widths):
    """Centered periodic maximal function of each row of ``g``.

    g : (R, G) nonnegative float64, one row per 1d slice.  An entry with
        its sign bit set (a negative value or -0.0) raises ValueError: the
        pruning below needs window sums >= 0, and zeros of one sign.
    widths : 1d int64 array of window half-widths in samples; width w
        averages 2w+1 consecutive samples (w = 0 is the sample alone).
        Widths up to G are allowed; windows wrap periodically, counting
        wrapped samples with multiplicity.  Returns the (R, G) array of
        largest window averages.

    With cs the prefix sums of three periods, the window of sample j
    starts at lo = (j - w) mod G and sums S = cs[lo + 2w + 1] - cs[lo]; for
    j >= w and for j < w these indices are two contiguous runs.  The scan
    runs on the transpose, where each run is one contiguous block.

    The scan is pruned, with the same output bits.  Rows that are all zero
    are left out; their output is zero.  A width w > 1 that directly
    follows w - 1 in ``widths`` scans only the samples of ``_scan_runs``.
    For any other sample both new edge samples are +0.0 in every row and
    both widths read the same prefix-sum copy, so both prefix sums keep
    their bits and S is the window sum of width w - 1; as S >= 0 and
    correctly rounded division is monotone, fl(S / (2w+1)) <=
    fl(S / (2w-1)), which the result already holds.  Width 1 (the result
    starts from the samples, not from prefix-sum differences), a width that
    does not directly follow w - 1, and a width whose runs cover the period
    scan every sample.
    """
    R, G = g.shape
    if np.signbit(g).any():
        raise ValueError("maximal_rows needs nonnegative input "
                         "(no negative entry and no -0.0)")
    live = np.flatnonzero(g.any(axis=1))
    if live.size == 0:
        return np.zeros((G, R)).T
    col = np.ascontiguousarray(g[live].T, dtype=np.float64)
    a, m = _support(col)
    cs = np.zeros((3 * G + 1, live.size))
    np.cumsum(np.concatenate([col, col, col], axis=0), axis=0, out=cs[1:])
    out = col
    avg = np.empty_like(col)
    last = None
    for w in map(int, widths):
        prev, last = last, w
        if w == 0 or 2 * w + 1 > 2 * G:
            continue
        runs = ((0, G),)
        if w > 1 and prev == w - 1:
            runs = _scan_runs(a, m, w, G)
        for p, q in runs:
            lo, hi = max(p, w), min(q, w)
            if p < hi:
                np.subtract(cs[G + p + w + 1:G + hi + w + 1],
                            cs[G + p - w:G + hi - w], out=avg[p:hi])
            if lo < q:
                np.subtract(cs[lo + w + 1:q + w + 1], cs[lo - w:q - w],
                            out=avg[lo:q])
            seg = avg[p:q]
            seg /= 2.0 * w + 1.0
            np.maximum(out[p:q], seg, out=out[p:q])
    if live.size == R:
        return out.T
    full = np.zeros((G, R))
    full[:, live] = out
    return full.T


# Elements of one (chunk, H) workspace of the majorant kernels.  Blocks this
# size stay in the CPU cache; 2^22-element blocks ran about 2x slower on a
# 2-vCPU x86-64 VM.
WORKSPACE = 1 << 16


def _window_chunks(n_targets, n_sources):
    step = max(1, WORKSPACE // max(n_sources, 1))
    for start in range(0, n_targets, step):
        yield start, min(start + step, n_targets)


def _offset_kernel(pos, targets, d):
    """(1 + |o|)^-d on the box of offsets targets - pos, and its gather map.

    Returns the flattened kernel and, per target and per source, the flat
    indices T[m] and P[h] with kernel[T[m] - P[h]] at offset targets[m] -
    pos[h].
    """
    lo = targets.min(axis=0) - pos.max(axis=0)
    shape = targets.max(axis=0) - pos.min(axis=0) - lo + 1
    strides = np.ones(shape.size, dtype=np.int64)
    strides[:-1] = np.cumprod(shape[::-1])[-2::-1]
    axes = [np.arange(a, a + s, dtype=np.float64) for a, s in zip(lo, shape)]
    off = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                   axis=1)
    dist = np.sqrt(np.sum(off * off, axis=1))
    kernel = (1.0 + dist) ** (-d)
    return kernel, targets @ strides - lo @ strides, pos @ strides


def _window_reduce(weights, pos, targets, d, reduce):
    """reduce_h weights[h] * (1 + |pos[h] - m|)^-d for each target m.

    Targets are processed in chunks to bound the (chunk, H) workspace.
    """
    kernel, t_idx, p_idx = _offset_kernel(pos, targets, d)
    out = np.empty(targets.shape[0], dtype=np.float64)
    for a, b in _window_chunks(targets.shape[0], pos.shape[0]):
        near = kernel.take(t_idx[a:b, None] - p_idx[None, :])
        near *= weights
        reduce(near, axis=1, out=out[a:b])
    return out


def lambda_star_sum(mag_pow, pos, targets, d):
    """sum_h mag_pow[h] / (1 + |pos[h] - m|)^d for each target m.

    mag_pow : (H,) float64, |lambda_h|^r.
    pos : (H, n) int64 occupied lattice points.
    targets : (M, n) int64 evaluation lattice points.
    """
    return _window_reduce(mag_pow, pos, targets, d, np.sum)


def lambda_star_max(mag, pos, targets, d):
    """max_h mag[h] * (1 + |pos[h] - m|)^(-d) for each target m (r = inf)."""
    return _window_reduce(mag, pos, targets, d, np.max)
