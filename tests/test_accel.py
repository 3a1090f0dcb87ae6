import itertools
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


def reference_maximal_rows(g):
    # half-widths 1..G/2 on top of the samples; a window starting in the
    # first period ends within the second
    R, G = g.shape
    ext = np.concatenate([g, g], axis=1)
    cs = np.concatenate([np.zeros((R, 1)), np.cumsum(ext, axis=1)], axis=1)
    out = g.astype(np.float64).copy()
    base = np.arange(G)
    for w in range(1, G // 2 + 1):
        lo = (base - w) % G
        avg = (cs[:, lo + 2 * w + 1] - cs[:, lo]) / (2.0 * w + 1.0)
        np.maximum(out, avg, out=out)
    return out


def reference_window(weights, pos, targets, d, reduce):
    # targets in chunks of at most 2^16 target-source pairs (one target at
    # least); each target's row of products is reduced on its own
    out = np.empty(targets.shape[0], dtype=np.float64)
    fpos = pos.astype(np.float64)
    step = max(1, (1 << 16) // pos.shape[0])
    for a in range(0, targets.shape[0], step):
        diff = targets[a:a + step, None, :].astype(np.float64) - fpos[None]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        out[a:a + step] = reduce(weights[None, :] * (1.0 + dist) ** (-d),
                                 axis=1)
    return out


def _box_targets(corner, shape):
    """The lattice points of the box corner + [0, shape), last axis
    fastest, as an (M, n) int64 array."""
    ranges = [range(c, c + s) for c, s in zip(corner, shape)]
    return np.array(list(itertools.product(*ranges)),
                    dtype=np.int64).reshape(-1, len(corner))


def _assert_majorants_match(weights, pos, corner, shape, d,
                            workspaces=(_accel.WORKSPACE, 1)):
    # once per workspace size: the default, and by default also one target
    # a tile, which splits the box along every axis
    targets = _box_targets(corner, shape)
    corner = np.array(corner, dtype=np.int64)
    shape = np.array(shape, dtype=np.int64)
    for workspace in workspaces:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_accel, "WORKSPACE", workspace)
            assert np.array_equal(
                _accel.lambda_star_sum(weights, pos, corner, shape, d),
                reference_window(weights, pos, targets, d, np.sum))
            assert np.array_equal(
                _accel.lambda_star_max(weights, pos, corner, shape, d),
                reference_window(weights, pos, targets, d, np.max))


def test_kernels_match_reference_bitwise():
    rng = np.random.default_rng(1)
    for G in (1, 2, 7, 64, 127):
        _assert_scan_matches(np.abs(rng.standard_normal((5, G))))
    # random boxes, not always around the sources
    for n in (1, 2, 3):
        mag = np.abs(rng.standard_normal(40))
        pos = rng.integers(-9, 9, size=(40, n)).astype(np.int64)
        for _ in range(3):
            corner = rng.integers(-14, 4, size=n)
            shape = rng.integers(1, 300 ** (1.0 / n) + 2, size=n)
            _assert_majorants_match(mag ** 1.5, pos, corner, shape, 3.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_majorant_boxes_of_one_source_or_one_target(n):
    # a 1-wide kernel box, a 1-long last axis, and a box far from its sources
    rng = np.random.default_rng(10 + n)
    one = np.array([[3] * n], dtype=np.int64)
    many = rng.integers(-6, 6, size=(25, n)).astype(np.int64)
    mag = np.abs(rng.standard_normal(25)) + 0.1
    for pos, weights in ((one, mag[:1]), (many, mag)):
        for corner, shape in (((3,) * n, (1,) * n), ((-2,) * n, (1,) * n),
                              ((-4,) * n, (5,) * (n - 1) + (1,)),
                              ((20,) * n, (2,) * n),
                              ((-5,) * n, (1,) * (n - 1) + (9,))):
            _assert_majorants_match(weights, pos, corner, shape, 2.5)


def _sum_tiles(shape, H):
    """The tiles of a target box that the sum of H sources takes."""
    nbuf = 8 + _accel._pair_depth(H)
    return list(_accel._tiles(shape, max(1, _accel.WORKSPACE // nbuf)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_majorant_sums_keep_their_bits_across_blocks(n, monkeypatch):
    # a workspace that holds less than the box, so tiles split it on every
    # axis; the sum over so many sources is pairwise in numpy (four
    # halvings), and adding the sources in any other order would change
    # its bits
    rng = np.random.default_rng(20 + n)
    H = 1500
    pos = rng.integers(-20, 20, size=(H, n)).astype(np.int64)
    mag = rng.lognormal(0.0, 2.0, size=H)
    shape = (7,) * (n - 1) + (13,)
    monkeypatch.setattr(_accel, "WORKSPACE", 5 * (8 + _accel._pair_depth(H)))
    tiles = _sum_tiles(shape, H)
    assert _accel._pair_depth(H) == 4 and len(tiles) > 1
    assert all(len({t[i].start for t in tiles}) > 1 for i in range(n))
    _assert_majorants_match(mag, pos, (-3,) * n, shape, 4.0,
                            workspaces=(_accel.WORKSPACE,))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_majorant_sums_follow_numpys_pairwise_order(n):
    # every source count up to 300 crosses each branch of the pairwise
    # order: fewer than 8, the 8 partial sums with every remainder mod 8,
    # and one halving above 128 (one more above 256)
    rng = np.random.default_rng(30 + n)
    shape = ((6,), (3, 5), (2, 3, 4))[n - 1]
    for H in range(1, 301):
        pos = rng.integers(-5, 5, size=(H, n)).astype(np.int64)
        mag = rng.lognormal(0.0, 2.0, size=H)
        _assert_majorants_match(mag, pos, (-2,) * n, shape, 2.5,
                                workspaces=(_accel.WORKSPACE,))
    # tiles split on every axis, at a few counts
    for H in (5, 8, 13, 128, 129, 257, 300):
        pos = rng.integers(-5, 5, size=(H, n)).astype(np.int64)
        two = 2 * (8 + _accel._pair_depth(H))  # two targets a sum tile
        _assert_majorants_match(rng.lognormal(0.0, 2.0, size=H), pos,
                                (-2,) * n, shape, 2.5, workspaces=(1, two))


def test_majorant_sums_beyond_numpys_buffer():
    # more sources than numpy's 8192-element buffer: np.sum over a
    # contiguous row still runs one pairwise sum over all of it
    rng = np.random.default_rng(40)
    H = 9000
    for corner, shape in (((-4,), (9,)), ((-2, -3), (3, 4))):
        n = len(shape)
        pos = rng.integers(-50, 50, size=(H, n)).astype(np.int64)
        mag = rng.lognormal(0.0, 2.0, size=H)
        _assert_majorants_match(mag, pos, corner, shape, 3.0,
                                workspaces=(_accel.WORKSPACE, 30))


def _half(G):
    """The one widths array the scan takes: the half-widths 0..G/2."""
    return np.arange(0, G // 2 + 1, dtype=np.int64)


def _assert_scan_matches(g):
    out = _accel.maximal_rows(g, _half(g.shape[1]))
    assert np.array_equal(out, reference_maximal_rows(g))
    return out


def test_pruned_scan_matches_reference_on_sparse_rows():
    # the scan skips zero rows and windows whose two new edge samples are
    # zero; every case here must still give the full scan's bits
    rng = np.random.default_rng(4)
    for G in range(1, 41):
        _assert_scan_matches(np.zeros((3, G)))
        for _ in range(12):
            g = np.zeros((5, G))
            for r in rng.choice(5, size=int(rng.integers(1, 5)),
                                replace=False):
                span = int(rng.integers(1, G + 1))
                cols = (int(rng.integers(0, G)) + np.arange(span)) % G
                cols = cols[rng.random(span) < 0.7] if span > 2 else cols
                g[r, cols] = 10.0 ** rng.uniform(-30.0, 30.0, cols.size)
            _assert_scan_matches(g)
        spike = np.zeros((2, G))
        spike[0, int(rng.integers(0, G))] = 10.0 ** rng.uniform(-30, 30)
        _assert_scan_matches(spike)
        if G > 2:
            # support straddling index 0: the last and the first samples
            edge = np.zeros((1, G))
            edge[0, [G - 2, G - 1, 0, 1]] = [3.0, 1e-30, 1e30, 0.5]
            _assert_scan_matches(edge)


def test_scan_takes_only_the_half_widths():
    # widths out of order, repeated, with gaps, stopping short of G/2 or
    # going past it are refused, whatever the input
    g = np.zeros((3, 32))
    g[0, 10:14] = 1.0
    for widths in (np.arange(16, -1, -1), np.r_[0:9, 8:17], np.r_[0:5, 6:17],
                   np.arange(1, 17), np.arange(0, 16), np.arange(0, 18),
                   np.arange(0, 33), np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="widths 0..16"):
            _accel.maximal_rows(g, widths.astype(np.int64))
    with pytest.raises(ValueError, match="widths 0..3"):
        _accel.maximal_rows(np.ones((1, 7)), _half(8))
    assert np.array_equal(_accel.maximal_rows(g, list(range(17))),
                          reference_maximal_rows(g))


def test_pruned_scan_keeps_overflowing_sums():
    # prefix sums past the float range turn into inf, and a window between
    # two inf prefix sums reads NaN; only here can the width-1 scan or the
    # sample j = w - 1 (which moves to the second prefix-sum period) differ
    # from what the width before gave, so these must match too
    nans = 0
    for G in range(2, 25):
        for start in range(G):
            for run in (1, 2):
                g = np.zeros((2, G))
                g[0, (start + np.arange(run)) % G] = 1.7e308
                g[1, G // 2] = 1.0
                with np.errstate(over="ignore", invalid="ignore"):
                    out = _accel.maximal_rows(g, _half(G))
                    ref = reference_maximal_rows(g)
                assert np.array_equal(out, ref, equal_nan=True)
                nans += int(np.isnan(ref).sum())
    assert nans > 0


def test_blocked_scan_matches_reference():
    # consecutive widths share a block: widths across block boundaries, on
    # a support across index 0, on supports of one sample and of the whole
    # period, for one live row (many widths a block) and for 512 (one width
    # a block)
    rng = np.random.default_rng(7)
    G = 96
    wrap = np.zeros((40, G))
    wrap[:, [G - 3, G - 2, G - 1, 0, 1, 2]] = rng.random((40, 6)) + 1e-3
    spike = np.zeros((3, G))
    spike[1, 40] = 2.5
    dense = rng.random((40, G)) + 1e-3
    many = np.zeros((512, G))
    many[:, 10:30] = rng.random((512, 20)) * (rng.random((512, 20)) < 0.5)
    many[:, 10] += 1e-3
    some = lambda size: 1 < size < G // 3
    for g, m, fits in ((wrap, 6, some), (spike, 1, lambda size: size > G),
                       (dense, G, some), (many, 20, lambda size: size == 1)):
        assert fits(_accel._block_size(G, int(g.any(axis=1).sum()), m))
        _assert_scan_matches(g)
    # width 1 alone, then blocks of the given size up to G/2
    assert _accel._width_blocks(G, 17) == [(1, 1), (2, 17), (19, 17),
                                           (36, 13)]
    assert _accel._width_blocks(G, 1) == [(w, 1) for w in range(1, 49)]
    assert _accel._width_blocks(G, 200) == [(1, 1), (2, 47)]
    assert _accel._width_blocks(1, 5) == [] and \
        _accel._width_blocks(3, 5) == [(1, 1)]


def test_each_row_scans_as_it_would_alone():
    # live columns are taken over the whole batch; a row's result must not
    # depend on which other rows share its call
    rng = np.random.default_rng(6)
    G = 64
    g = np.zeros((6, G))
    g[1, 5:9] = rng.random(4)
    g[3, 40] = 7.0
    g[4] = rng.random(G) * (rng.random(G) < 0.2)
    batch = _assert_scan_matches(g)
    for r in range(g.shape[0]):
        alone = _accel.maximal_rows(g[r:r + 1], _half(G))
        assert np.array_equal(alone[0], batch[r])


def test_scan_never_writes_its_input():
    # the scan builds its result in place in a copy of the live rows; the
    # contiguous transpose of one row is a view of it, and must not be used
    rng = np.random.default_rng(8)
    G = 48
    mixed = np.zeros((5, G))
    mixed[[1, 3], 10:20] = rng.random((2, 10))
    for g in (rng.random((1, G)), rng.random((4, G)), mixed,
              np.zeros((1, G)), mixed[3:4]):
        kept = g.copy()
        g.flags.writeable = False
        _assert_scan_matches(g)
        assert np.array_equal(g, kept)
        g = kept.copy()  # and, writable, it keeps its values too
        _assert_scan_matches(g)
        assert np.array_equal(g, kept)


def test_scan_rejects_negative_input():
    g = np.ones((2, 8))
    for bad in (-1e-300, -0.0, -2.0):
        g[1, 3] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            _accel.maximal_rows(g, _half(8))


def test_box_tiles_tile_the_box_and_bound_workspace():
    # tiles must cover each target of the box once, in C order, hold at
    # most size targets (at least one), and split only the axes they must
    for shape, size in (((30,), 11), ((5, 30), 11), ((5, 30), 60),
                        ((7, 7, 13), 5), ((3, 4), 1), ((3, 4), 100),
                        ((4, 6, 2), 12), ((1,), 1), ((0, 5), 3)):
        seen = np.zeros(shape, dtype=np.int64)
        tiles = list(_accel._tiles(shape, size))
        for tile in tiles:
            assert len(tile) == len(shape)
            assert 0 < seen[tile].size <= max(size, 1)
            seen[tile] += 1
        assert np.all(seen == 1)
        starts = [tuple(t.start for t in tile) for tile in tiles]
        assert starts == sorted(starts)
        if tiles:  # as much of the last axis as fits
            assert tiles[0][-1].stop == min(shape[-1], size)


def test_numpy_fallback_correct_when_chunked(monkeypatch):
    # so many sources that the sum halves six times, and a workspace that
    # holds 11 targets a tile: the last axis splits into 3 tiles, in 1d
    # too, and in 2d each row is split
    rng = np.random.default_rng(2)
    H = (1 << 16) // 12 + 1
    nbuf = 8 + _accel._pair_depth(H)
    assert nbuf == 14
    monkeypatch.setattr(_accel, "WORKSPACE", 11 * nbuf)
    for corner, shape in (((-5,), (30,)), ((-5, -2), (5, 30))):
        n = len(shape)
        mag = np.abs(rng.standard_normal(H))
        pos = rng.integers(-40, 40, size=(H, n)).astype(np.int64)
        spans = ((0, 11), (11, 22), (22, 30))
        assert [tuple((t.start, t.stop) for t in tile)
                for tile in _sum_tiles(shape, H)] == [
            ((a, a + 1),) * (n - 1) + (span,)
            for a in range(shape[0] if n > 1 else 1) for span in spans]
        _assert_majorants_match(mag, pos, corner, shape, 3.0,
                                workspaces=(_accel.WORKSPACE,))
        out = _accel.lambda_star_sum(mag, pos, np.array(corner),
                                     np.array(shape), 3.0)
        targets = _box_targets(corner, shape)
        for probe in (0, 10, 11, 29, len(targets) - 1):
            diff = pos - targets[probe]
            direct = float(np.sum(
                mag / (1.0 + np.sqrt(np.sum(diff * diff, axis=1))) ** 3.0))
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
