import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from herzlab import (DyadicGeometry, SampledField, make_field,
                     spectral_transform)
from herzlab import frames, grid, lpdecomp
from herzlab.grid import (_log2_exact, band_box, band_fft, band_freqs,
                          band_ifft, check_grid_memory, sealed)

TIB16 = 1 << 20  # G = 2^20 in n = 2: 16 TiB per field, more than any machine


def test_make_field_defaults_to_zeros():
    f = make_field(2, 8.0, 64)
    assert f.values.shape == (64, 64)
    assert f.values.dtype == np.complex128
    assert np.all(f.values == 0)
    assert f.domain == "space"


def test_field_values_are_read_only_and_its_own():
    given = np.arange(16, dtype=np.complex128)
    for f in (SampledField(1, 8.0, 16, given), make_field(1, 8.0, 16, given),
              make_field(1, 8.0, 16).with_values(given),
              SampledField(1, 8.0, 16, given[None, :][0])):
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            f.with_values(f.values).values[...] = 0.0
        # the caller's array stays writable, and the field keeps a copy
        assert given.flags.writeable
        assert not np.shares_memory(f.values, given)
    given[0] = 5.0
    assert f.values[0] == 0.0


def test_arrays_nothing_can_write_to_are_not_copied():
    f = make_field(1, 8.0, 16, lambda x: x)
    assert f.with_values(f.values).values is f.values
    sealed = grid.sealed(np.arange(16, dtype=np.complex128))
    assert SampledField(1, 8.0, 16, sealed).values is sealed
    # a read-only view of a writable array is still copied
    given = np.arange(16, dtype=np.complex128)
    view = given.view()
    view.flags.writeable = False
    assert not np.shares_memory(SampledField(1, 8.0, 16, view).values, given)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_field(1, 12.0, 64)  # period must be a power of two
    with pytest.raises(ValueError):
        make_field(1, 8.0, 100)  # sample count must be a power of two
    with pytest.raises(ValueError):
        make_field(1, 8.0, 2)
    with pytest.raises(ValueError):
        make_field(0, 8.0, 64)


def test_axis_coords_left_edges():
    f = make_field(1, 8.0, 16)
    x = f.axis_coords()
    assert x[0] == -4.0
    assert x[-1] == 4.0 - 0.5
    assert np.allclose(np.diff(x), 0.5)


def test_transform_is_unitary():
    rng = np.random.default_rng(0)
    f = make_field(1, 8.0, 256)
    f = f.with_values(rng.standard_normal(256) + 1j * rng.standard_normal(256))
    g = spectral_transform(f)
    assert g.domain == "freq"
    assert math.isclose(np.linalg.norm(g.values), np.linalg.norm(f.values),
                        rel_tol=1e-13)
    back = spectral_transform(g)
    assert np.max(np.abs(back.values - f.values)) < 1e-13


def test_constant_field_transforms_to_single_bin():
    G = 64
    f = make_field(1, 8.0, G).with_values(np.full(G, 2.0 + 0j))
    g = spectral_transform(f)
    idx = np.argmax(np.abs(g.values))
    assert idx == G // 2  # xi_m = (m - G/2) 2 pi / L is 0 at m = G/2
    # unitary normalization: constant c maps to c * sqrt(G) at frequency zero
    assert math.isclose(g.values[idx].real, 2.0 * math.sqrt(G), rel_tol=1e-14)
    rest = np.abs(np.delete(g.values, idx))
    assert np.max(rest) < 1e-13


def test_dyadic_geometry_of_grid():
    f = make_field(1, 16.0, 2048)
    geo = DyadicGeometry.of(f.L, f.G)
    assert geo.v_max == 7  # h = 16/2048 = 2^-7
    assert 2.0 ** -geo.v_max == f.h


def test_band_freqs_native_order():
    assert band_freqs(7).tolist() == [0, 1, 2, 3, -3, -2, -1]
    assert band_freqs(8).tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
    assert np.array_equal(band_freqs(8), np.fft.fftfreq(8, 1 / 8))


@pytest.mark.parametrize("n, G", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("width", [1, 5, 15, None])
def test_band_transforms_are_cropped_and_padded_fftn(n, G, width):
    # the pruned transforms give the bits of the full ones on the band; they
    # run in place only on arrays they made, so a read-only input is read,
    # never written, and the result is a new C-ordered array
    width = G if width is None else width
    rng = np.random.default_rng(n * 100 + width)
    values = sealed(rng.standard_normal((G,) * n)
                    + 1j * rng.standard_normal((G,) * n))
    kept = values.copy()
    box = np.ix_(*[band_freqs(width) % G] * n)
    crop = sealed(band_fft(values, width))
    assert crop.shape == (width,) * n
    assert np.array_equal(crop, np.fft.fftn(values)[box])
    assert np.array_equal(values, kept)
    assert crop.flags.c_contiguous
    assert not np.shares_memory(crop, values)
    padded = np.zeros((G,) * n, dtype=np.complex128)
    padded[box] = crop
    kept = crop.copy()
    back = band_ifft(crop, G)
    assert np.array_equal(back, np.fft.ifftn(padded))
    assert np.array_equal(crop, kept)
    assert back.flags.c_contiguous
    assert not np.shares_memory(back, crop)


def test_band_ifft_holds_one_full_grid_array():
    # each zero-padded array is transformed in place: an (81, 81) crop into
    # 512^2 peaks near one field size, where a second array for each
    # transform's output peaked at two
    rng = np.random.default_rng(81)
    crop = sealed(rng.standard_normal((81, 81))
                  + 1j * rng.standard_normal((81, 81)))
    band_ifft(crop, 512)
    tracemalloc.start()
    try:
        band_ifft(crop, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 512 ** 2 * 16


def test_band_indices_are_built_once_per_system():
    # a second field through the same system finds every index built
    system = lpdecomp.build_fj_pair(2, 16.0, 64, 2)
    caches = (grid.band_box, grid._band_index)
    for seed in (1, 2):
        f = lpdecomp.random_band_field(2, 16.0, 64, system.band_radius(),
                                       seed)
        misses = [c.cache_info().misses for c in caches]
        frames.roundtrip_error(f, system)
        lpdecomp.level_magnitudes(f, system)
    assert [c.cache_info().misses for c in caches] == misses


def test_band_indices_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        grid._band_index(7, 16)[0] = 1
    for n in (1, 2, 3):
        for index in band_box(7, 16, n):
            with pytest.raises(ValueError, match="read-only"):
                index.flat[0] = 1
    assert grid._band_index(7, 16).tolist() == [0, 1, 2, 3, 13, 14, 15]


@pytest.mark.parametrize("e", range(-40, 41))
def test_log2_exact_reads_every_power_of_two(e):
    x = 2.0 ** e
    forms = [x, np.float64(x), np.float32(x)]
    if e >= 0:
        forms += [1 << e, np.int64(1 << e)]
    for form in forms:
        assert _log2_exact(form) == e


@pytest.mark.parametrize("x", [0, 0.0, -2, -2.0, 3, 0.75, 12.0, math.inf,
                               -math.inf, math.nan, np.float64(3.0),
                               np.int64(6), (1 << 60) + 1])
def test_log2_exact_rejects_what_is_no_power_of_two(x):
    with pytest.raises(ValueError, match=r"^.+ is not a power of two$"):
        _log2_exact(x)


def test_grid_memory_preflight_rejects_before_allocating():
    with pytest.raises(ValueError, match="physical memory"):
        check_grid_memory(2, TIB16)
    with pytest.raises(ValueError, match="physical memory"):
        make_field(2, 8.0, TIB16)


def test_grid_memory_preflight_counts_field_sizes(monkeypatch):
    # 10 pages of 4 KiB hold 10 fields of 16^2 complex samples
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 10}
    monkeypatch.setattr(grid, "os", SimpleNamespace(sysconf=pages.get))
    check_grid_memory(2, 16)
    check_grid_memory(2, 16, fields=10)
    with pytest.raises(ValueError, match="10.5 field sizes of G.n = 16.2 "
                                         "samples needs 43008 bytes"):
        check_grid_memory(2, 16, fields=10.5)
