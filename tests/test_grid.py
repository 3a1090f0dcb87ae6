import math
from types import SimpleNamespace

import numpy as np
import pytest

from herzlab import (DyadicGeometry, SampledField, load_field, make_field,
                     save_field, spectral_transform)
from herzlab import grid
from herzlab.grid import band_fft, band_freqs, band_ifft, check_grid_memory

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
    assert f.axis_freqs()[idx] == 0.0
    # unitary normalization: constant c maps to c * sqrt(G) at frequency zero
    assert math.isclose(g.values[idx].real, 2.0 * math.sqrt(G), rel_tol=1e-14)
    rest = np.abs(np.delete(g.values, idx))
    assert np.max(rest) < 1e-13


def test_dyadic_geometry_of_grid():
    f = make_field(1, 16.0, 2048)
    geo = DyadicGeometry.of(f.L, f.G)
    assert geo.v_max == 7  # h = 16/2048 = 2^-7
    assert 2.0 ** -geo.v_max == f.h


def test_field_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    f = make_field(2, 8.0, 32)
    f = f.with_values(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    path = tmp_path / "field.txt"
    save_field(f, path)
    back = load_field(path)
    assert back.n == f.n and back.L == f.L and back.G == f.G
    assert np.array_equal(back.values, f.values)  # %.17g round-trips exactly


def test_load_field_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a field\n")
    with pytest.raises(ValueError):
        load_field(path)


@pytest.mark.parametrize("line, edit, names", [
    (1, lambda t: t.replace("G=4", "G=four"), ["G", "'four'"]),
    (1, lambda t: t.replace(" domain=space", ""), ["domain"]),
    (4, lambda t: "1 q", ["line 5", "1 q"]),
])
def test_load_field_names_the_malformed_part(tmp_path, line, edit, names):
    path = tmp_path / "f.field"
    save_field(make_field(1, 8.0, 4), path)
    lines = path.read_text().split("\n")
    lines[line] = edit(lines[line])
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as info:
        load_field(path)
    for name in names:
        assert name in str(info.value)


def test_band_freqs_native_order():
    assert band_freqs(7).tolist() == [0, 1, 2, 3, -3, -2, -1]
    assert band_freqs(8).tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
    assert np.array_equal(band_freqs(8), np.fft.fftfreq(8, 1 / 8))


@pytest.mark.parametrize("n, G", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("width", [1, 5, 15, None])
def test_band_transforms_are_cropped_and_padded_fftn(n, G, width):
    # the pruned transforms give the bits of the full ones on the band
    width = G if width is None else width
    rng = np.random.default_rng(n * 100 + width)
    values = rng.standard_normal((G,) * n) + 1j * rng.standard_normal((G,) * n)
    box = np.ix_(*[band_freqs(width) % G] * n)
    crop = band_fft(values, width)
    assert crop.shape == (width,) * n
    assert np.array_equal(crop, np.fft.fftn(values)[box])
    padded = np.zeros((G,) * n, dtype=np.complex128)
    padded[box] = crop
    assert np.array_equal(band_ifft(crop, G), np.fft.ifftn(padded))


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
