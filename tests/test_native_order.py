"""The native-order band transforms against the former centered route.

The former route is kept here as it was: every level transform a full-size
centered unitary DFT (``spectral_transform``, an fftshift sandwich), the
multipliers applied over the whole grid, and the lattice transforms folded
and tiled in the centered layout.

The native route drops the shifts (their (-1)^m phases are exact sign flips
that cancel) and the G^(n/2) factors.  Where G^(n/2) is a power of two,
dropping it moves no bit, so every output is bitwise equal: (1, 4096),
(2, 512) and (2, 64).  Where it is not, (1, 2048) and (3, 32), the
outputs agree to rounding.
"""

import math

import numpy as np
import pytest

from herzlab import (HerzParams, SampledField, SpaceParams, analyze,
                     besov_norm, build_fj_pair, level_blocks, lq_combine,
                     lq_envelope, mixed_herz_norm, random_band_field,
                     spectral_transform, synthesize, triebel_norm)
from herzlab.frames import CoeffSeq, _lattice

# -- the former centered full-size route -------------------------------------


def centered_level_blocks(field, system):
    spec = spectral_transform(field)
    return [spectral_transform(spec.with_values(spec.values
                                                * system.multiplier(k)))
            for k in range(system.K + 1)]


def _centered_fold(spec, size):
    n, G = spec.ndim, spec.shape[0]
    blocks = spec.reshape((G // size, size) * n)
    folded = blocks.sum(axis=tuple(range(0, 2 * n, 2)))
    return np.roll(folded, (size // 2 - G // 2) % size, axis=tuple(range(n)))


def centered_analyze(field, system):
    n, G, L = field.n, field.G, field.L
    spec = spectral_transform(field)
    levels = []
    for k in range(system.K + 1):
        m = system.multiplier(k)
        N, size = _lattice(G, L, k)
        stride = size // N
        small = spectral_transform(SampledField(
            n, L, size, _centered_fold(spec.values * m, size),
            domain="freq")).values
        lattice = small[(slice(None, None, stride),) * n]
        vals = (lattice * (field.h * stride) ** (n / 2.0)).ravel()
        pos = np.indices((N,) * n).reshape(n, -1).T - N // 2
        levels.append((k, pos, vals))
    return CoeffSeq.from_levels(n, system.K, L, levels)


def centered_synthesize(coeffs, system):
    n, G, L = system.n, system.G, system.L
    h, axes = L / G, tuple(range(n))
    acc = np.zeros((G,) * n, dtype=np.complex128)
    for k, pos, vals in coeffs.levels():
        N, size = _lattice(G, L, k)
        half, stride = N // 2, size // N
        comb = np.zeros((size,) * n, dtype=np.complex128)
        comb[(slice(None, None, stride),) * n][tuple((pos + half).T)] += vals
        small = spectral_transform(SampledField(n, L, size, comb)).values
        small = np.roll(small * (h / stride) ** (-n / 2.0),
                        (G // 2 - size // 2) % size, axis=axes)
        shape = (G // size, size) * n
        tiled = acc.reshape(shape)
        tiled += (system.multiplier(k).reshape(shape)
                  * small.reshape((1, size) * n))
    return spectral_transform(SampledField(n, L, G, acc, domain="freq"))


def centered_besov(field, params, system):
    terms = [2.0 ** (k * params.s) * mixed_herz_norm(b, params.herz)
             for k, b in enumerate(centered_level_blocks(field, system))]
    return lq_combine(np.array(terms), params.beta)


def centered_triebel(field, params, system):
    env = lq_envelope((2.0 ** (k * params.s) * np.abs(b.values)
                       for k, b in enumerate(
                           centered_level_blocks(field, system))),
                      params.beta)
    return mixed_herz_norm(field.with_values(env.astype(np.complex128)),
                           params.herz)

# -----------------------------------------------------------------------------


LAYERS = {1: ((3.0,), (0.25,), (2.0,)),
          2: ((2.0, 3.0), (0.25, 0.125), (2.0, 1.5)),
          3: ((2.0, 3.0, 2.5), (0.25, 0.125, 0.0), (2.0, 1.5, 2.0))}
BITWISE = [(1, 16.0, 4096, 6), (2, 16.0, 512, 3), (2, 8.0, 64, 2)]
ROUNDING = [(1, 16.0, 2048, 5), (3, 4.0, 32, 3)]


def _agree(got, want, bitwise):
    if bitwise:
        return np.array_equal(got, want)
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _check(n, L, G, K, bitwise):
    system = build_fj_pair(n, L, G, K)
    assert (float(G) ** (n / 2.0)).is_integer() == bitwise
    field = random_band_field(n, L, G, system.band_radius(), seed=60 + n)
    for got, want in zip(level_blocks(field, system),
                         centered_level_blocks(field, system)):
        assert _agree(got.values, want.values, bitwise)
    lam, ref = analyze(field, system), centered_analyze(field, system)
    for (k, pos, vals), (rk, rpos, rvals) in zip(lam.levels(), ref.levels()):
        assert k == rk and np.array_equal(pos, rpos)
        assert _agree(vals, rvals, bitwise)
    assert _agree(synthesize(lam, system).values,
                  centered_synthesize(lam, system).values, bitwise)
    layer = HerzParams(*LAYERS[n])
    for family, native, centered in (("B", besov_norm, centered_besov),
                                     ("F", triebel_norm, centered_triebel)):
        params = SpaceParams(layer, 0.5, 2.0, family)
        got, want = native(field, params, system), centered(field, params,
                                                              system)
        if bitwise:
            assert got == want
        else:
            assert math.isclose(got, want, rel_tol=1e-13)


@pytest.mark.parametrize("n, L, G, K", BITWISE)
def test_native_route_bitwise_where_scale_is_a_power_of_two(n, L, G, K):
    _check(n, L, G, K, bitwise=True)


@pytest.mark.parametrize("n, L, G, K", ROUNDING)
def test_native_route_within_rounding_elsewhere(n, L, G, K):
    _check(n, L, G, K, bitwise=False)
