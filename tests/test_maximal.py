import math

import numpy as np
import pytest

from herzlab import (HerzParams, HypothesisError, fs_vector_check,
                     iterated_maximal, make_field)
from herzlab.maximal import envelope


def brute_force_centered_maximal(values, h, j):
    """Largest window average over centered windows, O(G^2) per point."""
    G = values.shape[0]
    best = abs(values[j])
    for w in range(1, G // 2 + 1):
        idx = (np.arange(j - w, j + w + 1)) % G
        best = max(best, np.mean(np.abs(values[idx])))
    return best


def test_maximal_matches_brute_force():
    rng = np.random.default_rng(1)
    f = make_field(1, 8.0, 128).with_values(
        rng.standard_normal(128) + 1j * rng.standard_normal(128))
    got = iterated_maximal(f, 1.0).values.real
    for j in (0, 3, 64, 100, 127):
        want = brute_force_centered_maximal(f.values, f.h, j)
        assert math.isclose(got[j], want, rel_tol=1e-13)


def test_maximal_of_unit_interval_quarter_at_distance_two():
    # chi_[0,1) seen from x = 2: the best window [2-w, 2+w] catches mass
    # (w - 1), so the average peaks at w = 2 with value 1/4
    G = 4096
    f = make_field(1, 16.0, G, lambda x: (x >= 0) & (x < 1.0))
    m = iterated_maximal(f, 1.0).values.real
    j = int(round(2.0 / f.h)) + G // 2
    assert abs(m[j] - 0.25) < 2.0 / (G / 16.0)  # off by O(h) discretization


def test_maximal_dominates_field():
    rng = np.random.default_rng(2)
    f = make_field(1, 8.0, 256).with_values(
        rng.standard_normal(256) + 1j * rng.standard_normal(256))
    m = iterated_maximal(f, 1.0).values.real
    assert np.all(m >= np.abs(f.values) - 1e-14)


def test_iterated_maximal_2d_separable():
    # for a separable nonnegative field the iterated maximal factorizes
    f1 = make_field(1, 8.0, 64, lambda x: (x >= 0) & (x < 1.0))
    m1 = iterated_maximal(f1, 1.0).values.real
    f2 = make_field(2, 8.0, 64,
                    lambda x, y: ((x >= 0) & (x < 1.0)) * ((y >= 0) & (y < 1.0)))
    m2 = iterated_maximal(f2, 1.0).values.real
    outer = np.outer(m1, m1)
    assert np.max(np.abs(m2 - outer)) < 1e-12


def test_envelope_infinity_is_max():
    a = make_field(1, 8.0, 32, lambda x: np.full_like(x, 1.0))
    b = make_field(1, 8.0, 32, lambda x: np.full_like(x, 3.0))
    env = envelope([a, b], math.inf)
    assert np.all(env.values.real == 3.0)
    env2 = envelope([a, b], 2.0)
    assert np.allclose(env2.values.real, math.sqrt(10.0))


def _bumps(n, G, count, seed):
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(count):
        center = rng.uniform(-0.5, 0.5, size=n)
        width = rng.uniform(0.125, 0.375)
        amp = complex(rng.standard_normal(), rng.standard_normal())

        def gen(*coords, c=center, w=width, a=amp):
            d2 = sum((x - ci) ** 2 for x, ci in zip(coords, c))
            return a * np.exp(-d2 / w ** 2) * (d2 < 1.0)

        fields.append(make_field(n, 16.0, G, gen))
    return fields


def test_vector_bound_holds_and_is_grid_stable():
    herz = HerzParams(2.0, 0.25, 2.0)
    ratios = []
    for G in (256, 512):
        rep = fs_vector_check(_bumps(1, G, 8, 3), herz, beta=2.0, t=0.5)
        assert rep["ratio"] >= 1.0  # maximal dominates pointwise
        ratios.append(rep["ratio"])
    assert abs(math.log2(ratios[1] / ratios[0])) < 0.05


def test_vector_check_hypothesis_guards():
    # alpha must lie in (-1/p, 1/t - 1/p), here (-0.5, 1/t - 0.5); the
    # bound is exact, so alpha = 0.3 at t = 1.25 is out although the floats
    # give 1/t - 1/p = 0.30000000000000004
    fields = _bumps(1, 256, 4, 4)
    for alpha, t in ((0.75, 1.0), (2.0, 0.5), (0.25, 1.5), (0.3, 1.25)):
        with pytest.raises(HypothesisError,
                           match=rf"alpha\[0\] = {alpha} .* p\[0\] = 2.0, "
                                 rf"t = {t}"):
            fs_vector_check(fields, HerzParams(2.0, alpha, 2.0), beta=2.0,
                            t=t)
    rep = fs_vector_check(fields, HerzParams(2.0, 1.25, 2.0), beta=2.0, t=0.5)
    assert rep["ratio"] >= 1.0
    with pytest.raises(HypothesisError):
        fs_vector_check(fields, HerzParams(2.0, 0.25, 2.0), beta=2.0, t=2.5)
    with pytest.raises(HypothesisError):
        fs_vector_check(fields, HerzParams(2.0, 0.25, 2.0), beta=1.0, t=1.5)


def test_support_guard_rejects_wide_fields():
    wide = make_field(1, 16.0, 256, lambda x: np.ones_like(x))
    with pytest.raises(ValueError):
        fs_vector_check([wide], HerzParams(2.0, 0.25, 2.0), beta=2.0, t=0.5)

