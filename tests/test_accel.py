import math

import numpy as np
import pytest

from herzlab import HerzParams, fs_vector_check, iterated_maximal
from herzlab import _accel
from herzlab.cli import bump_family
from herzlab.herz import mixed_herz_norm
from herzlab.maximal import envelope

# ---------------------------------------------------------------------------
# Reference formulas: one fancy-index gather per window width, and every
# (target, source) distance and kernel value computed pair by pair.  The
# kernels must reproduce them bit for bit.
# ---------------------------------------------------------------------------


def reference_maximal_rows(g, widths):
    R, G = g.shape
    ext = np.concatenate([g, g, g], axis=1)
    cs = np.concatenate([np.zeros((R, 1)), np.cumsum(ext, axis=1)], axis=1)
    out = g.astype(np.float64).copy()
    base = np.arange(G)
    for w in widths:
        if w == 0 or 2 * w + 1 > 2 * G:
            continue
        lo = (base - w) % G
        avg = (cs[:, lo + 2 * w + 1] - cs[:, lo]) / (2.0 * w + 1.0)
        np.maximum(out, avg, out=out)
    return out


def reference_window(weights, pos, targets, d, reduce):
    out = np.empty(targets.shape[0], dtype=np.float64)
    fpos = pos.astype(np.float64)
    for a, b in _accel._window_chunks(targets.shape[0], pos.shape[0]):
        diff = targets[a:b, None, :].astype(np.float64) - fpos[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        out[a:b] = reduce(weights[None, :] * (1.0 + dist) ** (-d), axis=1)
    return out


def test_kernels_match_reference_bitwise():
    rng = np.random.default_rng(1)
    for G in (1, 2, 7, 64, 127):
        g = np.ascontiguousarray(np.abs(rng.standard_normal((5, G))))
        widths = np.arange(0, G + 1, dtype=np.int64)  # above G/2, up to G
        assert np.array_equal(_accel.maximal_rows(g, widths),
                              reference_maximal_rows(g, widths))
    for n in (1, 2, 3):
        mag = np.abs(rng.standard_normal(40))
        pos = rng.integers(-9, 9, size=(40, n)).astype(np.int64)
        targets = rng.integers(-12, 12, size=(300, n)).astype(np.int64)
        assert np.array_equal(
            _accel.lambda_star_sum(mag ** 1.5, pos, targets, 3.0),
            reference_window(mag ** 1.5, pos, targets, 3.0, np.sum))
        assert np.array_equal(
            _accel.lambda_star_max(mag, pos, targets, 3.0),
            reference_window(mag, pos, targets, 3.0, np.max))


def test_window_chunks_tile_and_bound_workspace():
    # chunks must tile [0, M) exactly and keep chunk * H at or below the
    # workspace budget once H exceeds it
    budget = _accel.WORKSPACE
    for m, h in ((6000, 8), (10, 2 * budget), (0, 5), (7, 3),
                 (budget, 1)):
        spans = list(_accel._window_chunks(m, h))
        covered = []
        for a, b in spans:
            assert 0 <= a < b <= m
            assert (b - a) * h <= max(budget, h)  # step >= 1 always
            covered.extend(range(a, b))
        assert covered == list(range(m))


def test_numpy_fallback_correct_when_chunked():
    # force a step smaller than the target count
    rng = np.random.default_rng(2)
    H = _accel.WORKSPACE // 4 + 1  # step becomes 3
    mag = np.abs(rng.standard_normal(H))
    pos = rng.integers(-4, 4, size=(H, 1)).astype(np.int64)
    targets = np.arange(-5, 5, dtype=np.int64).reshape(-1, 1)
    assert list(_accel._window_chunks(targets.shape[0], H))[0] == (0, 3)
    out = _accel.lambda_star_sum(mag, pos, targets, 3.0)
    assert np.array_equal(out,
                          reference_window(mag, pos, targets, 3.0, np.sum))
    for probe in (0, 7):
        direct = float(np.sum(
            mag / (1.0 + np.abs(pos[:, 0] - targets[probe, 0])) ** 3.0))
        assert np.isclose(out[probe], direct, rtol=1e-12)


@pytest.mark.parametrize("n, G, beta, t", [(1, 256, 2.0, 0.5),
                                           (2, 64, math.inf, 0.75)])
def test_batched_vector_check_matches_per_field_envelope(n, G, beta, t):
    # fs_vector_check runs one maximal scan per axis over the rows of the
    # whole family; the ratio must equal the per-field composition exactly
    fields = bump_family(n, 16.0, G, 5, seed=3)
    herz = HerzParams((2.0,) * n, (0.25,) * n, (2.0,) * n)
    num = mixed_herz_norm(
        envelope([iterated_maximal(f, t) for f in fields], beta), herz)
    den = mixed_herz_norm(envelope(fields, beta), herz)
    assert fs_vector_check(fields, herz, beta, t)["ratio"] == num / den
