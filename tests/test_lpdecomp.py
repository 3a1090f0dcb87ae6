import math
import tracemalloc

import numpy as np
import pytest

from herzlab import (HerzParams, SampledField, SpaceParams, SpectralSystem,
                     bandlimited_witness, besov_norm, build_fj_pair,
                     build_resolution, level_blocks, level_magnitudes,
                     level_spectra, mixed_lebesgue_norm, partition_sum,
                     random_band_field, spectral_transform)
from herzlab import lpdecomp
from herzlab.grid import band_freqs
from herzlab.lpdecomp import (rho_profile, smooth_step, theta_profile,
                              witness_modes)


def test_smooth_step_hard_zeros_and_plateau():
    t = np.array([-1.0, -1e-300, 0.0, 0.5, 1.0, 1.5, 100.0])
    s = smooth_step(t)
    assert s[0] == 0.0 and s[1] == 0.0 and s[2] == 0.0
    assert s[4] == 1.0 and s[5] == 1.0 and s[6] == 1.0
    assert 0.0 < s[3] < 1.0
    assert math.isclose(s[3], 0.5)  # symmetric blend at the midpoint
    fine = smooth_step(np.linspace(-1, 2, 5001))
    assert np.all(np.diff(fine) >= 0.0)


def test_theta_profile_supports():
    x = np.array([0.0, 0.5, 1.0, 1.2, 1.5, 1.6, 10.0])
    th = theta_profile(x)
    assert np.all(th[:3] == 1.0)  # identically one on |x| <= 1
    assert 0.0 < th[3] < 1.0
    assert np.all(th[4:] == 0.0)  # identically zero from 3/2 on


def test_rho_profile_supports():
    xi = np.array([0.0, 0.25, 0.5, 0.7, 1.0, 2.0])
    rh = rho_profile(xi)
    assert np.all(rh[:3] == 1.0)  # one on |xi| <= 1/2
    assert 0.0 < rh[3] < 1.0
    assert np.all(rh[4:] == 0.0)  # zero from 1 on


@pytest.mark.parametrize("builder,kind", [(build_resolution, "resolution"),
                                          (build_fj_pair, "fj")])
@pytest.mark.parametrize("K", [2, 4, 6])
def test_partition_identity_on_band(builder, kind, K):
    system = builder(1, 16.0, 1024, K)
    assert system.kind == kind
    total = partition_sum(system)
    xi = (np.arange(1024) - 512) * (2.0 * np.pi / 16.0)
    inside = np.abs(xi) <= system.band_radius()
    assert np.max(np.abs(total[inside] - 1.0)) <= 1e-12


def test_partition_identity_2d():
    for builder in (build_resolution, build_fj_pair):
        system = builder(2, 16.0, 128, 3)
        total = partition_sum(system)
        xi = (np.arange(128) - 64) * (2.0 * np.pi / 16.0)
        rad = np.hypot(xi[:, None], xi[None, :])
        inside = rad <= system.band_radius()
        assert np.max(np.abs(total[inside] - 1.0)) <= 1e-12


def test_builders_reject_unresolvable_levels():
    # xi_max = pi * G / L = pi * 16 = 50.3
    with pytest.raises(ValueError):
        build_resolution(1, 16.0, 256, 6)  # needs 3 * 2^5 = 96
    with pytest.raises(ValueError):
        build_fj_pair(1, 16.0, 256, 5)  # needs 2^6 = 64
    build_resolution(1, 16.0, 256, 5)
    build_fj_pair(1, 16.0, 256, 4)


def test_positivity_floors():
    res = build_resolution(1, 16.0, 2048, 4)
    fj = build_fj_pair(1, 16.0, 2048, 4)
    assert res.lower_bounds[0] == 1.0  # level 0 is flat on its core band
    assert res.lower_bounds[1] > 0.25
    assert fj.lower_bounds[0] > 0.4
    assert fj.lower_bounds[1] > 0.1


def test_level_block_keeps_domain_and_band():
    f = random_band_field(1, 16.0, 1024, 8.0, seed=1)
    system = build_resolution(1, 16.0, 1024, 4)
    block = list(level_blocks(f, system))[2]
    assert block.domain == "space"
    spec = spectral_transform(block)
    xi = np.abs((np.arange(f.G) - f.G // 2) * (2 * np.pi / f.L))
    # level 2 multiplier vanishes below 2^1 * 6/5 and above 2^2 * 3/2
    assert np.max(np.abs(spec.values[xi < 2.0])) < 1e-13
    assert np.max(np.abs(spec.values[xi > 6.01])) < 1e-13


def test_block_sum_reconstructs_resolution():
    f = random_band_field(1, 16.0, 1024, 8.0, seed=2)
    system = build_resolution(1, 16.0, 1024, 4)
    total = np.zeros_like(f.values)
    for block in level_blocks(f, system):
        total += block.values
    rel = np.linalg.norm(total - f.values) / np.linalg.norm(f.values)
    assert rel < 1e-13


def test_random_band_field_is_band_limited():
    f = random_band_field(2, 16.0, 128, 4.0, seed=3)
    spec = spectral_transform(f)  # space field; one FFT of roundoff noise
    xi = (np.arange(f.G) - f.G // 2) * (2 * np.pi / f.L)
    rad = np.hypot(xi[:, None], xi[None, :])
    peak = np.max(np.abs(spec.values))
    assert peak > 0.0
    assert np.max(np.abs(spec.values[rad > 4.0])) < 1e-13 * peak


def test_witness_modes_scale_with_level():
    idx0, rad0, sc0 = witness_modes(1, 32.0, 2048, 0)
    idx1, rad1, sc1 = witness_modes(1, 32.0, 2048, 1)
    assert np.array_equal(idx0, idx1)  # same base set at every level
    assert np.allclose(sc1, 2.0 * sc0)
    assert np.all((rad0 > 0.75) & (rad0 < 1.0))


def test_witness_modes_failure_modes():
    with pytest.raises(ValueError):
        witness_modes(1, 4.0, 64, 0)  # base shell holds no grid frequencies
    with pytest.raises(ValueError):
        witness_modes(1, 32.0, 2048, 20)  # scaled shell leaves the grid band


@pytest.mark.parametrize("n", [1, 2, 3])
def test_witness_band_is_checked_before_the_candidates(monkeypatch, n):
    # at L = 2^40 the candidates would be (2 floor(L / 2 pi) + 3)^n indices;
    # the shell's largest index alone shows that it leaves the band
    def refuse(*args, **kwargs):
        raise AssertionError("the candidate indices were built")
    monkeypatch.setattr(lpdecomp.np, "indices", refuse)
    with pytest.raises(ValueError, match="level-0 shell exceeds the grid "
                                         "band; enlarge G or lower N"):
        witness_modes(n, 2.0 ** 40, 256, 0)


def test_witness_is_reproduced_by_its_block():
    # the level-N witness occupies 3/4 * 2^N < |xi| < 2^N, where resolution
    # level N is identically one and every other level vanishes
    w = bandlimited_witness(1, 32.0, 2048, 2, seed=9)
    system = build_resolution(1, 32.0, 2048, 5)
    wnorm = mixed_lebesgue_norm(w, 2.0)
    hits = [mixed_lebesgue_norm(bk, 2.0) for bk in level_blocks(w, system)]
    assert math.isclose(hits[2], wnorm, rel_tol=1e-12)
    others = [v for i, v in enumerate(hits) if i != 2]
    assert max(others) < 1e-12 * wnorm


def test_witness_deterministic_per_seed():
    a = bandlimited_witness(1, 32.0, 2048, 0, seed=4)
    b = bandlimited_witness(1, 32.0, 2048, 0, seed=4)
    c = bandlimited_witness(1, 32.0, 2048, 0, seed=5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_level_blocks_are_centered_spectra_and_validate_when_called():
    system = build_fj_pair(2, 16.0, 64, 2)
    f = random_band_field(2, 16.0, 64, 4.0, seed=5)
    blocks = list(level_blocks(f, system))
    assert len(blocks) == system.K + 1
    assert all(b.domain == "space" for b in blocks)
    # the band crops are the centered level spectra on the band, in native
    # order, times (-1)^(m_1 + m_2) G^(n/2); G^(n/2) = 64 is a power of two
    spec = spectral_transform(f)
    for k, crop in enumerate(level_spectra(f, system)):
        assert crop.shape == system.crops[k].shape
        freqs = band_freqs(crop.shape[0])
        centered = (spec.values * system.multiplier(k))[
            np.ix_(*[freqs + 32] * 2)]
        sign = np.where((freqs[:, None] + freqs[None, :]) % 2, -1.0, 1.0)
        assert np.array_equal(crop, centered * sign * 64.0)
    # bad input fails at the call, before any block is drawn
    for levels in (level_blocks, level_spectra):
        with pytest.raises(ValueError, match="space-domain"):
            levels(spectral_transform(f), system)
        with pytest.raises(ValueError, match="grid"):
            levels(f, build_fj_pair(2, 16.0, 128, 2))


def _full_grid_system():
    # a multiplier nonzero everywhere keeps the whole grid; a zero one w = 1
    rng = np.random.default_rng(8)
    crops = (np.fft.ifftshift(rng.uniform(0.1, 1.0, (32, 32))),
             np.zeros((32, 32)))
    return SpectralSystem("fj", 2, 4.0, 32, 1, crops, (math.nan, math.nan))


SYSTEMS = {"fj1d": lambda: build_fj_pair(1, 16.0, 4096, 6),
           "fj2d": lambda: build_fj_pair(2, 16.0, 512, 3),
           "res2d": lambda: build_resolution(2, 16.0, 128, 3),
           "fj3d": lambda: build_fj_pair(3, 4.0, 32, 3),
           "full": _full_grid_system}


@pytest.mark.parametrize("name", SYSTEMS)
def test_bands_are_minimal_boxes(name):
    system = SYSTEMS[name]()
    n, G = system.n, system.G
    dist = np.zeros((G,) * n, dtype=np.int64)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = G
        dist = np.maximum(dist, np.abs(np.arange(G) - G // 2).reshape(shape))
    for k, crop in enumerate(system.crops):
        m = system.multiplier(k)
        width = crop.shape[0]
        r = width // 2  # a whole-grid band (width G) reaches -G/2
        assert width == min(2 * r + 1, G)
        assert np.all(m[dist > r] == 0.0)
        if np.any(m):
            assert np.any(m[dist == r] != 0.0)  # nonzero on the box's edge
        else:
            assert width == 1
        assert crop.shape == (width,) * n
        box = np.ix_(*[band_freqs(width) + G // 2] * n)
        assert np.array_equal(crop, m[box])
    assert system.width == max(c.shape[0] for c in system.crops)


@pytest.mark.parametrize("builder", [build_fj_pair, build_resolution])
def test_band_width_is_the_built_systems_width(builder):
    # each level's crop is as wide in n = 2 and 3 as in 1d, so the width
    # the decompose preflight reads off the 1d build is the system's
    kind = {build_fj_pair: "fj", build_resolution: "resolution"}[builder]
    checked = 0
    for n, grids in ((2, (4, 8, 16, 64, 128)), (3, (4, 8, 16, 32))):
        for L in (0.25, 1.0, 4.0, 16.0, 32.0):
            for G in grids:
                for K in range(1, 9):
                    try:
                        one = builder(1, L, G, K)
                    except ValueError:
                        continue
                    system = builder(n, L, G, K)
                    assert ([c.shape[0] for c in system.crops]
                            == [c.shape[0] for c in one.crops])
                    assert lpdecomp.band_width(kind, L, G, K) == system.width
                    checked += 1
    assert checked > 100


def test_fj_bands_far_inside_the_grid():
    # widths 2 r_k + 1 with r_k < 2^(k+1) L / (2 pi): the outer ramp
    # underflows to 0 before it
    widths = lambda system: tuple(c.shape[0] for c in system.crops)
    assert widths(build_fj_pair(2, 16.0, 512, 3)) == (11, 21, 41, 81)
    assert widths(build_fj_pair(1, 16.0, 4096, 6)) == (
        11, 21, 41, 81, 161, 321, 643)


# -- the former full-grid builders -------------------------------------------


def _former_radial_freq(n, L, G):
    xi = (np.arange(G) - G // 2) * (2.0 * np.pi / L)
    mesh = np.meshgrid(*([xi] * n), indexing="ij")
    return np.sqrt(sum(m * m for m in mesh))


def _former_lows(r, mults, bands):
    lows = []
    for k, band in enumerate(bands):
        sel = (r >= band[0]) & (r <= band[1])
        lows.append(float(mults[k][sel].min()) if np.any(sel) else math.nan)
    return tuple(lows)


def former_resolution(n, L, G, K):
    """Full centered multipliers and floors of build_resolution."""
    r = _former_radial_freq(n, L, G)
    mults = [theta_profile(r)]
    for k in range(1, K + 1):
        mults.append(theta_profile(r / 2.0 ** k)
                     - theta_profile(r / 2.0 ** (k - 1)))
    return mults, _former_lows(r, mults, ((0.0, 1.0), (6.0 / 5.0, 5.0 / 3.0)))


def former_fj_pair(n, L, G, K):
    """Full centered multipliers and floors of build_fj_pair."""
    r = _former_radial_freq(n, L, G)
    mults = [np.sqrt(rho_profile(r / 2.0))]
    for k in range(1, K + 1):
        diff = rho_profile(r / 2.0 ** (k + 1)) - rho_profile(r / 2.0 ** k)
        mults.append(np.sqrt(np.maximum(diff, 0.0)))
    return mults, _former_lows(r, mults,
                               ((0.0, 5.0 / 3.0), (6.0 / 5.0, 10.0 / 3.0)))


def former_crop(m):
    """M_k on the least centered box holding its nonzeros, native order."""
    G, n = m.shape[0], m.ndim
    r = max((int(np.abs(i - G // 2).max()) for i in np.nonzero(m) if i.size),
            default=0)
    return m[np.ix_(*[band_freqs(min(2 * r + 1, G)) + G // 2] * n)]


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


GRIDS = [(1, 16.0, 1024), (1, 16.0, 4096), (1, 2.0, 64), (2, 16.0, 128),
         (2, 4.0, 32), (3, 4.0, 32)]
CASES = [(builder, former, grid, K)
         for builder, former, reach in ((build_resolution, former_resolution,
                                         1.5),
                                        (build_fj_pair, former_fj_pair, 2.0))
         for grid in GRIDS
         for K in range(1, 12)
         if reach * 2.0 ** K <= math.pi * grid[2] / grid[1]]


@pytest.mark.parametrize(
    "builder, former, grid, K", CASES,
    ids=[f"{b.__name__}-{g[0]}-{g[1]:g}-{g[2]}-{K}" for b, _, g, K in CASES])
def test_builders_equal_former_full_grid_builders(builder, former, grid, K,
                                                  monkeypatch):
    system = builder(*grid, K)
    mults, lows = former(*grid, K)
    assert len(system.crops) == len(mults) == K + 1
    for k, m in enumerate(mults):
        assert _bits(system.crops[k]) == _bits(former_crop(m))
        assert _bits(system.multiplier(k)) == _bits(m)
    assert np.array_equal(system.lower_bounds, lows, equal_nan=True)
    # a level evaluated slab by slab (here a few rows each) keeps its bits
    monkeypatch.setattr(lpdecomp, "SLAB", 7)
    slabbed = builder(*grid, K)
    assert [_bits(c) for c in slabbed.crops] == \
        [_bits(c) for c in system.crops]
    assert np.array_equal(slabbed.lower_bounds, lows, equal_nan=True)
    acc = np.zeros(m.shape)
    for m in mults:
        acc = acc + (m * m if system.kind == "fj" else m)
    assert _bits(partition_sum(system)) == _bits(acc)


def test_build_memory_stays_near_the_kept_crops():
    # the levels' temporaries live one slab at a time: the peak is the
    # kept crops, the box being trimmed and a slab's worth, where a
    # whole-box evaluation peaked near eight times the kept crops
    tracemalloc.start()
    try:
        system = build_fj_pair(2, 1.0, 8192, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(c.nbytes for c in system.crops)
    assert peak < 4 * kept


@pytest.mark.parametrize("builder", [build_fj_pair, build_resolution])
@pytest.mark.parametrize("n, G, K", [(1, 256, 4), (1, 4096, 6), (2, 128, 3),
                                     (3, 32, 2)])
def test_decomposition_fields_bound_the_measured_peak(builder, n, G, K):
    # a fresh field decomposed once its shape has run, with the band index
    # caches empty, as for the first decomposition by a system; at n = 3
    # L = 8 keeps the fj top level inside the band
    from herzlab import grid
    L = 8.0 if n == 3 else 16.0
    system = builder(n, L, G, K)
    fresh = [random_band_field(n, L, G, system.band_radius(), seed=s)
             for s in (1, 2)]
    level_magnitudes(fresh[0], system)
    grid._band_index.cache_clear()
    grid.band_box.cache_clear()
    tracemalloc.start()
    try:
        level_magnitudes(fresh[1], system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = lpdecomp.decomposition_fields(n, G, K, system.width)
    assert peak <= fields * 16 * G ** n


def test_crops_are_read_only_and_the_systems_own():
    system = build_fj_pair(1, 16.0, 256, 3)
    f = random_band_field(1, 16.0, 256, 8.0, seed=2)
    params = SpaceParams(HerzParams(2.0, 0.25, 1.0), 0.5, 2.0, "B")
    before = besov_norm(f, params, system)
    for crop in system.crops:
        with pytest.raises(ValueError, match="read-only"):
            crop[...] *= 2.0
    assert besov_norm(f, params, system) == before
    # built crops are sealed and minimal, so a system keeps them uncopied
    again = SpectralSystem("fj", 1, 16.0, 256, 3, system.crops,
                           system.lower_bounds)
    assert all(a is b for a, b in zip(again.crops, system.crops))
    # a writable crop is copied, minimal or trimmed, and stays writable
    for given in (np.array(system.crops[2]),
                  np.fft.ifftshift(system.multiplier(2))):
        own = SpectralSystem("fj", 1, 16.0, 256, 0, (given,), (math.nan,))
        assert given.flags.writeable
        assert not np.shares_memory(own.crops[0], given)
        assert _bits(own.crops[0]) == _bits(system.crops[2])
        given[...] = 0.0
        assert np.any(own.crops[0])


@pytest.mark.parametrize("shape", [(9, 8), (8, 8), (33, 33), (0, 0), (9,),
                                   (9, 9, 9), ()])
def test_malformed_crop_rejected_naming_its_level(shape):
    good = build_fj_pair(2, 4.0, 32, 1).crops[0]
    with pytest.raises(ValueError, match=r"level 1 crop has shape"):
        SpectralSystem("fj", 2, 4.0, 32, 1, (good, np.ones(shape)),
                       (math.nan, math.nan))


def _former_witness(n, L, G, N, seed):
    """bandlimited_witness with its former per-mode loop."""
    base, rad, scaled = witness_modes(n, L, G, N)
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(base.shape[0]))
    amp = smooth_step((rad - 0.75) / 0.125) * smooth_step((1.0 - rad) / 0.125)
    spec = np.zeros((G,) * n, dtype=np.complex128)
    half = G // 2
    for i in range(base.shape[0]):
        pos = tuple(int(c) + half for c in scaled[i])
        spec[pos] = amp[i] * phases[i]
    f = SampledField(n, float(L), G, spec, domain="freq")
    return spectral_transform(f)


@pytest.mark.parametrize("n, L, G, N", [(1, 32.0, 2048, 0), (1, 32.0, 2048, 3),
                                        (2, 16.0, 128, 1), (3, 8.0, 32, 0)])
def test_witness_equals_former_per_mode_loop(n, L, G, N):
    got = bandlimited_witness(n, L, G, N, seed=N + 11)
    want = _former_witness(n, L, G, N, seed=N + 11)
    assert np.array_equal(got.values.view(np.float64),
                          want.values.view(np.float64))


def test_system_equals_only_itself_and_hashes():
    s = build_fj_pair(1, 16.0, 256, 3)
    t = build_fj_pair(1, 16.0, 256, 3)
    assert s == s
    assert s != t and not s == t
    assert hash(s) == hash(s)
    assert {s: 1, t: 2}[s] == 1


@pytest.mark.parametrize("n, L, G, K", [(1, 16.0, 2048, 5), (2, 16.0, 128, 3)])
def test_level_magnitudes_are_the_block_magnitudes(n, L, G, K):
    system = build_fj_pair(n, L, G, K)
    f = random_band_field(n, L, G, 2.0 ** K, seed=4)
    mags = level_magnitudes(f, system)
    assert isinstance(mags, tuple) and len(mags) == K + 1
    for m, b in zip(mags, level_blocks(f.with_values(f.values), system)):
        assert m.dtype == np.float64
        assert np.array_equal(m, np.abs(b.values))
        with pytest.raises(ValueError, match="read-only"):
            m[...] = 0.0
    assert level_magnitudes(f, system) is mags
