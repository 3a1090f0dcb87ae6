import math

import numpy as np
import pytest

from herzlab import (bandlimited_witness, build_fj_pair, build_resolution,
                     level_blocks, lp_block, make_field, mixed_lebesgue_norm,
                     partition_sum, random_band_field, spectral_transform)
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


def test_lp_block_keeps_domain_and_band():
    f = random_band_field(1, 16.0, 1024, 8.0, seed=1)
    system = build_resolution(1, 16.0, 1024, 4)
    block = lp_block(f, system, 2)
    assert block.domain == "space"
    spec = spectral_transform(block)
    xi = np.abs(f.axis_freqs())
    outside = (xi < 2.0 ** 1 * 1.19) & (xi > 0)  # inner edge of level 2
    # level 2 multiplier vanishes below 2^1 * 6/5 and above 2^2 * 3/2
    assert np.max(np.abs(spec.values[xi < 2.0])) < 1e-13
    assert np.max(np.abs(spec.values[xi > 6.01])) < 1e-13
    del outside


def test_block_sum_reconstructs_resolution():
    f = random_band_field(1, 16.0, 1024, 8.0, seed=2)
    system = build_resolution(1, 16.0, 1024, 4)
    total = np.zeros_like(f.values)
    for k in range(system.K + 1):
        total += lp_block(f, system, k).values
    rel = np.linalg.norm(total - f.values) / np.linalg.norm(f.values)
    assert rel < 1e-13


def test_random_band_field_is_band_limited():
    f = random_band_field(2, 16.0, 128, 4.0, seed=3)
    spec = spectral_transform(f)  # space field; one FFT of roundoff noise
    xi = f.axis_freqs()
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


def test_witness_is_reproduced_by_its_block():
    # the level-N witness occupies 3/4 * 2^N < |xi| < 2^N, where resolution
    # level N is identically one and every other level vanishes
    w = bandlimited_witness(1, 32.0, 2048, 2, seed=9)
    system = build_resolution(1, 32.0, 2048, 5)
    wnorm = mixed_lebesgue_norm(w, 2.0)
    hits = []
    for k in range(system.K + 1):
        bk = lp_block(w, system, k)
        hits.append(mixed_lebesgue_norm(bk, 2.0))
    assert math.isclose(hits[2], wnorm, rel_tol=1e-12)
    others = [v for i, v in enumerate(hits) if i != 2]
    assert max(others) < 1e-12 * wnorm


def test_witness_deterministic_per_seed():
    a = bandlimited_witness(1, 32.0, 2048, 0, seed=4)
    b = bandlimited_witness(1, 32.0, 2048, 0, seed=4)
    c = bandlimited_witness(1, 32.0, 2048, 0, seed=5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_level_blocks_equal_lp_block_and_validate_when_called():
    system = build_fj_pair(2, 16.0, 64, 2)
    f = random_band_field(2, 16.0, 64, 4.0, seed=5)
    blocks = list(level_blocks(f, system))
    assert len(blocks) == system.K + 1
    for k, b in enumerate(blocks):
        assert b.domain == "space"
        assert np.array_equal(b.values, lp_block(f, system, k).values)
    # bad input fails at the call, before any block is drawn
    with pytest.raises(ValueError, match="space-domain"):
        level_blocks(spectral_transform(f), system)
    with pytest.raises(ValueError, match="grid"):
        level_blocks(f, build_fj_pair(2, 16.0, 128, 2))
