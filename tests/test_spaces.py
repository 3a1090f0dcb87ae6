import math
import weakref

import numpy as np
import pytest

from herzlab import (HerzParams, SampledField, SpaceParams,
                     bandlimited_witness, besov_norm, block_norms,
                     build_fj_pair, build_resolution, level_blocks,
                     level_magnitudes, level_spectra, lp_block,
                     mixed_herz_norm, random_band_field, roundtrip_error,
                     space_norm, spectral_transform, triebel_norm)
from herzlab import lpdecomp

HERZ = HerzParams(2.0, 0.25, 1.0)

# Pinned on random_band_field(1, 16, 2048, 8, seed=11) under the K=5 pair.
PINNED_BESOV = 4.117097522795473
PINNED_TRIEBEL = 4.145156970199567
PINNED_BESOV_2D = 49.61969715906029


def _field():
    return random_band_field(1, 16.0, 2048, 8.0, seed=11)


def _system():
    return build_fj_pair(1, 16.0, 2048, 5)


def test_pinned_norms():
    f, system = _field(), _system()
    bp = SpaceParams(HERZ, s=0.5, beta=2.0, family="B")
    fp = SpaceParams(HERZ, s=0.5, beta=2.0, family="F")
    assert math.isclose(besov_norm(f, bp, _system()), PINNED_BESOV, rel_tol=1e-12)
    assert math.isclose(triebel_norm(f, fp, system), PINNED_TRIEBEL, rel_tol=1e-12)
    g = random_band_field(2, 16.0, 256, 8.0, seed=11)
    sys2 = build_fj_pair(2, 16.0, 256, 4)
    bp2 = SpaceParams(HerzParams((2.0, 1.0), (0.25, 0.0), (1.0, 2.0)),
                      s=0.5, beta=2.0, family="B")
    assert math.isclose(besov_norm(g, bp2, sys2), PINNED_BESOV_2D, rel_tol=1e-12)


def test_space_norm_dispatch():
    f, system = _field(), _system()
    bp = SpaceParams(HERZ, s=0.5, beta=2.0, family="B")
    fp = SpaceParams(HERZ, s=0.5, beta=2.0, family="F")
    assert space_norm(f, bp, system) == besov_norm(f, bp, system)
    assert space_norm(f, fp, system) == triebel_norm(f, fp, system)


def test_family_validation():
    with pytest.raises(ValueError):
        SpaceParams(HERZ, s=0.5, beta=2.0, family="X")
    with pytest.raises(ValueError):
        # pointwise families need finite integrability throughout
        SpaceParams(HerzParams(math.inf, 0.25, 1.0), s=0.5, beta=2.0, family="F")
    SpaceParams(HerzParams(math.inf, 0.25, 1.0), s=0.5, beta=2.0, family="B")


def test_triebel_rejects_besov_params():
    f, system = _field(), _system()
    bp = SpaceParams(HERZ, s=0.5, beta=2.0, family="B")
    with pytest.raises(ValueError):
        triebel_norm(f, bp, system)


def test_level_exponent_monotone_no_tolerance():
    # larger outer exponent can only shrink the norm, with constant exactly 1
    f, system = _field(), _system()
    for family in ("B", "F"):
        norms = [space_norm(f, SpaceParams(HERZ, 0.5, beta, family), system)
                 for beta in (0.5, 1.0, 2.0, math.inf)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_annulus_exponent_monotone_no_tolerance():
    f, system = _field(), _system()
    for family, qs in (("B", (0.5, 1.0, 2.0, math.inf)), ("F", (0.5, 1.0, 2.0))):
        norms = [space_norm(f, SpaceParams(HerzParams(2.0, 0.25, q), 0.5, 2.0,
                                           family), system)
                 for q in qs]
        assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_smoothness_lift_explicit_constant():
    f, system = _field(), _system()
    for eps in (0.25, 1.0):
        for b1, b2 in ((1.0, 2.0), (2.0, 0.5), (2.0, 2.0)):
            lhs = besov_norm(f, SpaceParams(HERZ, 0.5, b2, "B"), system)
            rhs = besov_norm(f, SpaceParams(HERZ, 0.5 + eps, b1, "B"), system)
            const = (1.0 - 2.0 ** (-eps * b2)) ** (-1.0 / b2)
            assert lhs <= const * rhs * (1.0 + 1e-13)


def test_single_level_witness_sees_one_block():
    w = bandlimited_witness(1, 16.0, 2048, 2, seed=7)
    system = build_resolution(1, 16.0, 2048, 5)
    norms = block_norms(w, HERZ, system)
    peak = max(norms)
    assert norms[2] == peak
    assert max(v for i, v in enumerate(norms) if i != 2) < 1e-12 * peak
    # so the space norm collapses to the weighted single block
    bp = SpaceParams(HERZ, s=0.75, beta=2.0, family="B")
    assert math.isclose(besov_norm(w, bp, system), 2.0 ** (2 * 0.75) * norms[2],
                        rel_tol=1e-12)


def former_triebel_norm(field, params, system):
    """The envelope loop from zeros over a list of all blocks."""
    blocks = [lp_block(field, system, k) for k in range(system.K + 1)]
    env = np.zeros_like(np.abs(blocks[0].values))
    for k, b in enumerate(blocks):
        term = 2.0 ** (k * params.s) * np.abs(b.values)
        if math.isinf(params.beta):
            env = np.maximum(env, term)
        else:
            env = env + term ** params.beta
    if not math.isinf(params.beta):
        env = env ** (1.0 / params.beta)
    return mixed_herz_norm(field.with_values(env.astype(np.complex128)),
                           params.herz)


@pytest.mark.parametrize("beta", [2.0, math.inf])
def test_triebel_norm_equals_former_envelope_loop(beta):
    f, system = _field(), _system()
    fp = SpaceParams(HERZ, s=0.5, beta=beta, family="F")
    assert triebel_norm(f, fp, system) == former_triebel_norm(f, fp, system)
    g = random_band_field(2, 16.0, 128, 8.0, seed=3)
    sys2 = build_fj_pair(2, 16.0, 128, 3)
    fp2 = SpaceParams(HerzParams((2.0, 1.5), (0.25, 0.0), (1.0, 2.0)),
                      s=0.5, beta=beta, family="F")
    assert triebel_norm(g, fp2, sys2) == former_triebel_norm(g, fp2, sys2)


def test_norms_validate_field_when_called():
    f, system = _field(), _system()
    bp = SpaceParams(HERZ, s=0.5, beta=2.0, family="B")
    fp = SpaceParams(HERZ, s=0.5, beta=2.0, family="F")
    other = build_fj_pair(1, 16.0, 1024, 5)
    for norm, params in ((besov_norm, bp), (triebel_norm, fp)):
        with pytest.raises(ValueError, match="space-domain"):
            norm(spectral_transform(f), params, system)
        with pytest.raises(ValueError, match="grid"):
            norm(f, params, other)


# -- one decomposition per field and system ------------------------------------

def _count_band_transforms(monkeypatch):
    """Wrap band_fft/band_ifft as lpdecomp calls them; returns the log."""
    calls = []
    fft, ifft = lpdecomp.band_fft, lpdecomp.band_ifft

    def band_fft(values, width):
        calls.append(("fft", width))
        return fft(values, width)

    def band_ifft(crop, size):
        calls.append(("ifft", size))
        return ifft(crop, size)

    monkeypatch.setattr(lpdecomp, "band_fft", band_fft)
    monkeypatch.setattr(lpdecomp, "band_ifft", band_ifft)
    return calls


SPECTRAL_CASES = {"1d": (1, 16.0, 2048, 5), "2d": (2, 16.0, 128, 3)}


def _case(name):
    n, L, G, K = SPECTRAL_CASES[name]
    herz = HerzParams((2.0,) * n, (0.25,) * n, (1.5,) * n)
    return (random_band_field(n, L, G, 2.0 ** K, seed=21),
            build_fj_pair(n, L, G, K),
            SpaceParams(herz, s=0.5, beta=2.0, family="B"),
            SpaceParams(herz, s=0.5, beta=2.0, family="F"))


@pytest.mark.parametrize("name", SPECTRAL_CASES)
def test_norms_of_one_field_share_one_decomposition(monkeypatch, name):
    f, system, bp, fp = _case(name)
    calls = _count_band_transforms(monkeypatch)
    besov_norm(f, bp, system)
    triebel_norm(f, fp, system)
    block_norms(f, bp.herz, system)
    space_norm(f, fp, system)
    assert calls.count(("ifft", f.G)) == system.K + 1
    assert calls.count(("fft", system.width)) == 1
    # the spectral workload's item: the round trip, then both norms
    g = f.with_values(f.values)
    del calls[:]
    roundtrip_error(g, system)
    besov_norm(g, bp, system)
    triebel_norm(g, fp, system)
    assert [c for c in calls if c[0] == "fft"] == [("fft", system.width)]
    assert calls.count(("ifft", g.G)) == system.K + 1


def test_another_system_decomposes_again(monkeypatch):
    f, system, bp, _ = _case("1d")
    other = build_resolution(f.n, f.L, f.G, system.K)
    calls = _count_band_transforms(monkeypatch)
    ffts = []
    for sys_ in (system, system, other, other, system):
        besov_norm(f, bp, sys_)
        ffts.append(sum(c[0] == "fft" for c in calls))
    assert ffts == [1, 1, 2, 2, 3]
    assert besov_norm(f, bp, other) == besov_norm(f.with_values(f.values),
                                                  bp, other)


@pytest.mark.parametrize("name", SPECTRAL_CASES)
def test_memo_hit_still_checks_domain_and_grid(name):
    f, system, bp, fp = _case(name)
    level_magnitudes(f, system)
    memo = vars(f)[lpdecomp._MEMO]
    assert memo.system is system
    freq = f.with_values(f.values, domain="freq")
    coarse = SampledField(f.n, 2.0 * f.L, f.G, f.values)
    for g, match in ((freq, "space-domain"), (coarse, "grid")):
        vars(g)[lpdecomp._MEMO] = memo  # a planted hit
        for call in (lambda: level_magnitudes(g, system),
                     lambda: level_spectra(g, system),
                     lambda: level_blocks(g, system),
                     lambda: besov_norm(g, bp, system),
                     lambda: triebel_norm(g, fp, system),
                     lambda: block_norms(g, bp.herz, system)):
            with pytest.raises(ValueError, match=match):
                call()


@pytest.mark.parametrize("name", SPECTRAL_CASES)
@pytest.mark.parametrize("beta", [2.0, math.inf])
def test_memo_norms_bitwise_equal_memo_free_copies(name, beta):
    f, system, bp, fp = _case(name)
    bp = SpaceParams(bp.herz, bp.s, beta, "B")
    fp = SpaceParams(fp.herz, fp.s, beta, "F")
    first = (besov_norm(f, bp, system), triebel_norm(f, fp, system),
             block_norms(f, bp.herz, system))
    again = (besov_norm(f, bp, system), triebel_norm(f, fp, system),
             block_norms(f, bp.herz, system))
    fresh = (besov_norm(f.with_values(f.values), bp, system),
             triebel_norm(f.with_values(f.values), fp, system),
             block_norms(f.with_values(f.values), bp.herz, system))
    assert first == again == fresh
    assert fresh[2] == [mixed_herz_norm(b, bp.herz)
                        for b in level_blocks(f, system)]


def test_memo_is_freed_with_its_field():
    f, system, bp, fp = _case("2d")
    besov_norm(f, bp, system)
    triebel_norm(f, fp, system)
    field = weakref.ref(f)
    magnitudes = weakref.ref(level_magnitudes(f, system)[0])
    del f
    assert field() is None
    assert magnitudes() is None


def test_writing_the_callers_array_changes_neither_field_nor_memo():
    f, system, bp, fp = _case("1d")
    given = np.array(f.values)
    g = SampledField(f.n, f.L, f.G, given)
    before = (besov_norm(g, bp, system), triebel_norm(g, fp, system))
    given *= 2.0
    assert np.array_equal(g.values, f.values)
    assert (besov_norm(g, bp, system), triebel_norm(g, fp, system)) == before
    assert before == (besov_norm(f, bp, system), triebel_norm(f, fp, system))
    doubled = SampledField(f.n, f.L, f.G, given)
    assert besov_norm(doubled, bp, system) == pytest.approx(2.0 * before[0],
                                                            rel=1e-12)
