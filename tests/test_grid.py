import math

import numpy as np
import pytest

from herzlab import (DyadicGeometry, annulus_mask_axis, cube_indicator,
                     load_field, make_field, save_field, spectral_transform)


def test_make_field_defaults_to_zeros():
    f = make_field(2, 8.0, 64)
    assert f.values.shape == (64, 64)
    assert f.values.dtype == np.complex128
    assert np.all(f.values == 0)
    assert f.domain == "space"


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
    geo = DyadicGeometry.of(f)
    assert geo.v_max == 7  # h = 16/2048 = 2^-7
    assert 2.0 ** -geo.v_max == f.h


def test_annulus_masks_partition_axis():
    f = make_field(1, 8.0, 256)
    geo = DyadicGeometry.of(f)
    total = np.zeros(256, dtype=int)
    for k in range(geo.k_min, geo.k_max + 1):
        total += annulus_mask_axis(f, 0, k).astype(int)
    x = f.axis_coords()
    uncovered = (x == 0.0) | (x == -f.L / 2)  # |x| below h or at the rim
    assert np.all(total[uncovered] == 0)
    assert np.all(total[~uncovered] == 1)


def test_cube_indicator_measures():
    f = make_field(1, 8.0, 256)
    ind = cube_indicator(f, 0, (0,))  # unit cell [0, 1)
    assert ind.values.real.sum() * f.h == 1.0
    ind2 = cube_indicator(f, 2, (-1,))  # cell [-1/4, 0)
    assert ind2.values.real.sum() * f.h == 0.25


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
