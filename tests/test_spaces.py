import math

import numpy as np
import pytest

from herzlab import (HerzParams, SpaceParams, bandlimited_witness, besov_norm,
                     block_norms, build_fj_pair, build_resolution, lp_block,
                     mixed_herz_norm, norm_equivalence_report,
                     random_band_field, space_norm, spectral_transform,
                     triebel_norm)

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


def test_equivalence_report_between_systems():
    bp = SpaceParams(HERZ, s=0.5, beta=2.0, family="B")
    rep = norm_equivalence_report(bp, 1, 16.0, 2048, 5, levels=(0, 1, 2),
                                  seed=13, draws=4)
    assert len(rep["records"]) == 12
    assert 0 < rep["ratio_min"] <= rep["ratio_max"]
    # the two smooth systems agree within a modest equivalence bracket
    assert rep["ratio_max"] / rep["ratio_min"] < 4.0
    again = norm_equivalence_report(bp, 1, 16.0, 2048, 5, levels=(0, 1, 2),
                                    seed=13, draws=4)
    assert rep == again


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
