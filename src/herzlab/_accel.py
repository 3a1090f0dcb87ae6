"""Hot numeric kernels, vectorised in numpy.

Each kernel is deterministic run to run and independent of how its rows or
targets are batched: the maximal scan reads the same prefix-sum entries per
row, and the majorant kernels reduce the same (target, source) products in
source order.
"""

import numpy as np

# Reported as the run's numeric path by the benchmark; numpy is the only one.
USE_NUMBA = False


def maximal_rows(g, widths):
    """Centered periodic maximal function of each row of ``g``.

    g : (R, G) nonnegative float64, one row per 1d slice.
    widths : 1d int64 array of window half-widths in samples; width w
        averages 2w+1 consecutive samples (w = 0 is the sample alone).
        Widths up to G are allowed; windows wrap periodically, counting
        wrapped samples with multiplicity.  Returns the (R, G) array of
        largest window averages.

    With cs the prefix sums of three periods, the window of sample j
    starts at lo = (j - w) mod G and sums cs[lo + 2w + 1] - cs[lo]; for
    j >= w and for j < w these indices are two contiguous runs.  The scan
    runs on the transpose, where each run is one contiguous block.
    """
    R, G = g.shape
    col = np.ascontiguousarray(g.T, dtype=np.float64)
    ext = np.concatenate([col, col, col], axis=0)
    cs = np.concatenate([np.zeros((1, R)), np.cumsum(ext, axis=0)], axis=0)
    out = col.copy()
    avg = np.empty((G, R))
    for w in widths:
        w = int(w)
        if w == 0 or 2 * w + 1 > 2 * G:
            continue
        np.subtract(cs[2 * w + 1:G + w + 1], cs[:G - w], out=avg[w:])
        np.subtract(cs[G + w + 1:G + 2 * w + 1], cs[G - w:G], out=avg[:w])
        avg /= 2.0 * w + 1.0
        np.maximum(out, avg, out=out)
    return out.T


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
