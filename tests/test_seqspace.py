import math

import numpy as np
import pytest

from herzlab import (CoeffSeq, HerzParams, SeqSpaceParams, b_norm, f_norm,
                     lambda_star, lq_combine, make_field, mixed_herz_norm,
                     seq_norm, seqspace)
from herzlab.seqspace import _cells_mixed_herz, _f_envelope

# ---------------------------------------------------------------------------
# Reference route: paint each coefficient's dyadic carrier onto a fine grid
# and take the grid-space mixed norm of the painted envelope, so the cell
# arithmetic in seqspace is checked against the sampled-field machinery.
# ---------------------------------------------------------------------------


def _carrier_mask(coords, n, k, m, G):
    mask = np.ones((G,) * n, dtype=bool)
    for ax in range(n):
        lo, hi = m[ax] * 2.0 ** -k, (m[ax] + 1) * 2.0 ** -k
        sel = (coords >= lo) & (coords < hi)
        shape = [1] * n
        shape[ax] = G
        mask &= sel.reshape(shape)
    return mask


def reference_f_norm(lam, params, G):
    n, L = lam.n, lam.L
    f = make_field(n, L, G)
    coords = f.axis_coords()
    env = np.zeros((G,) * n)
    beta = params.beta
    for (k, m), val in lam.entries.items():
        w = (2.0 ** (k * (params.s + n / 2.0)) * abs(val))
        cell = _carrier_mask(coords, n, k, m, G)
        if math.isinf(beta):
            env[cell] = np.maximum(env[cell], w)
        else:
            env[cell] += w ** beta
    if not math.isinf(beta):
        env = env ** (1.0 / beta)
    return mixed_herz_norm(f.with_values(env.astype(complex)), params.herz)


def reference_b_norm(lam, params, G):
    n, L = lam.n, lam.L
    f = make_field(n, L, G)
    coords = f.axis_coords()
    terms = []
    for k in sorted({key[0] for key in lam.entries}):
        env = np.zeros((G,) * n)
        for (kk, m), val in lam.entries.items():
            if kk == k:
                env[_carrier_mask(coords, n, k, m, G)] = abs(val)
        w = 2.0 ** (k * (params.s + n / 2.0))
        terms.append(w * mixed_herz_norm(f.with_values(env.astype(complex)),
                                         params.herz))
    return lq_combine(terms, params.beta)


def _random_seq(n, K, count, seed, spread=2):
    rng = np.random.default_rng(seed)
    entries = {}
    for _ in range(count):
        k = int(rng.integers(0, K + 1))
        m = tuple(int(rng.integers(-spread * 2 ** k, spread * 2 ** k))
                  for _ in range(n))
        entries[(k, m)] = complex(rng.standard_normal(), rng.standard_normal())
    return CoeffSeq(n, K, 16.0, entries)


PARAMS_F = SeqSpaceParams(HerzParams(1.0, 0.25, 2.0), s=1.75, beta=2.0, family="f")
PARAMS_B = SeqSpaceParams(HerzParams(2.0, 0.25, 1.0), s=0.5, beta=2.0, family="b")

# Pinned on the fixed five-entry sequence below.
FIXED_ENTRIES = {(0, (0,)): 2.0 + 0j, (0, (-3,)): 1.0 + 0j,
                 (1, (5,)): 0.5 + 0.5j, (2, (-9,)): 1.5 + 0j,
                 (2, (16,)): -0.25 + 0j}
PINNED_B = 7.202684309235029
PINNED_F = 9.019782753794276


def test_pinned_fixed_sequence():
    lam = CoeffSeq(1, 2, 16.0, FIXED_ENTRIES)
    assert math.isclose(b_norm(lam, PARAMS_B), PINNED_B, rel_tol=1e-12)
    fparams = SeqSpaceParams(PARAMS_B.herz, s=0.5, beta=2.0, family="f")
    assert math.isclose(f_norm(lam, fparams), PINNED_F, rel_tol=1e-12)


@pytest.mark.parametrize("seed, beta", [
    *(pytest.param(seed, 2.0, id=f"{seed}") for seed in (0, 1, 2)),
    *(pytest.param(seed, math.inf, id=f"{seed}-inf") for seed in (0, 1, 2))])
def test_f_norm_matches_painted_reference(seed, beta):
    params = SeqSpaceParams(PARAMS_F.herz, PARAMS_F.s, beta, "f")
    lam = _random_seq(1, 3, 18, seed)
    got = f_norm(lam, params)
    want = reference_f_norm(lam, params, 2048)
    assert math.isclose(got, want, rel_tol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_b_norm_matches_painted_reference(seed):
    lam = _random_seq(1, 3, 18, seed)
    got = b_norm(lam, PARAMS_B)
    want = reference_b_norm(lam, PARAMS_B, 2048)
    assert math.isclose(got, want, rel_tol=1e-10)


def test_mixed_norms_match_reference_2d():
    lam = _random_seq(2, 2, 12, 5)
    herz = HerzParams((2.0, 1.0), (0.25, 0.0), (1.0, 2.0))
    fparams = SeqSpaceParams(herz, s=0.5, beta=2.0, family="f")
    bparams = SeqSpaceParams(herz, s=0.5, beta=2.0, family="b")
    assert math.isclose(f_norm(lam, fparams),
                        reference_f_norm(lam, fparams, 256), rel_tol=1e-10)
    assert math.isclose(b_norm(lam, bparams),
                        reference_b_norm(lam, bparams, 256), rel_tol=1e-10)


def test_norms_independent_of_insertion_order():
    # levels are summed in ascending k whatever order the entries came in
    lam = _random_seq(2, 3, 40, 8)
    shuffled = list(lam.entries.items())
    np.random.default_rng(0).shuffle(shuffled)
    other = CoeffSeq(lam.n, lam.K, lam.L, dict(shuffled[::-1]))
    assert list(other.entries) != list(lam.entries)
    herz = HerzParams((2.0, 1.5), (0.25, 0.0), (1.0, 2.0))
    for beta in (1.5, 2.0, math.inf):
        for family, norm in (("f", f_norm), ("b", b_norm)):
            params = SeqSpaceParams(herz, s=0.5, beta=beta, family=family)
            assert norm(lam, params) == norm(other, params)


def per_entry_f_envelope(lam, params):
    """The f-norm envelope painted one coefficient at a time, in dict order."""
    n, beta = lam.n, params.beta
    vf = max(k for k, _ in lam.entries)
    boxes = [(c << (vf - k), (c + 1) << (vf - k))
             for k, m in lam.entries for c in m]
    los = [min(a for a, _ in boxes[i::n]) for i in range(n)]
    his = [max(b for _, b in boxes[i::n]) for i in range(n)]
    env = np.zeros([h - lo for lo, h in zip(los, his)])
    for (k, m), val in lam.entries.items():
        scale = 1 << (vf - k)
        cell = tuple(slice(c * scale - lo, (c + 1) * scale - lo)
                     for c, lo in zip(m, los))
        contrib = 2.0 ** (k * (params.s + n / 2.0)) * abs(val)
        if math.isinf(beta):
            np.maximum(env[cell], contrib, out=env[cell])
        else:
            env[cell] += contrib ** beta
    if not math.isinf(beta):
        env = env ** (1.0 / beta)
    return env, np.array(los), vf


@pytest.mark.parametrize("beta", [1.5, 2.0, math.inf])
def test_f_norm_bitwise_equals_per_entry_painting(beta):
    # entries inserted in ascending k, as analyze and lambda_star produce
    lam = _random_seq(2, 3, 200, 12, spread=1)
    lam = CoeffSeq(2, 3, lam.L, dict(sorted(lam.entries.items(),
                                            key=lambda kv: kv[0][0])))
    herz = HerzParams((2.0, 1.5), (0.25, 0.0), (1.0, 2.0))
    params = SeqSpaceParams(herz, s=0.5, beta=beta, family="f")
    env, los, vf = per_entry_f_envelope(lam, params)
    got, got_los, got_vf = _f_envelope(lam, params)
    assert np.array_equal(got, env)
    assert np.array_equal(got_los, los) and got_vf == vf
    assert f_norm(lam, params) == _cells_mixed_herz(env, los, vf, herz)


@pytest.mark.parametrize("r", [1.5, math.inf])
def test_majorant_bitwise_equals_pairwise_sum(r):
    # sources in sorted index order, one kernel value per (target, source)
    lam = _random_seq(2, 2, 30, 13)
    star = lambda_star(lam, r=r, d=3.0, window=2)
    for k in {k for k, _ in lam.entries}:
        level = lam.level_entries(k)
        pos = np.array(sorted(level), dtype=np.float64)
        mag = np.array([abs(level[m]) for m in sorted(level)])
        targets = [m for kk, m in star.entries if kk == k]
        diff = np.array(targets, dtype=np.float64)[:, None, :] - pos[None]
        kern = (1.0 + np.sqrt(np.sum(diff * diff, axis=2))) ** -3.0
        if math.isinf(r):
            want = np.max(mag * kern, axis=1)
        else:
            want = np.sum(mag ** r * kern, axis=1) ** (1.0 / r)
        got = np.array([star.entries[(k, m)].real for m in targets])
        assert np.array_equal(got, want)


def _mixed_batch(n, K, spread):
    # sets of several finest levels, an empty set and a one-entry set
    batch = [_random_seq(n, K, 30, seed, spread) for seed in range(10)]
    batch += [CoeffSeq(n, K, 16.0, {}), CoeffSeq(n, K, 16.0, {(0, (1,) * n): 2j})]
    return batch


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family, beta", [("b", 2.0), ("b", math.inf),
                                          ("f", 1.5), ("f", math.inf)])
def test_batched_norms_match_single_norms(monkeypatch, n, family, beta):
    herz = HerzParams((2.0, 1.5)[:n], (0.25, 0.0)[:n], (1.0, 2.0)[:n])
    params = SeqSpaceParams(herz, 0.5, beta, family)
    batch = _mixed_batch(n, 4, 3)
    singles = np.array([seq_norm(lam, params) for lam in batch])
    got = seqspace.seq_norms(batch, params)
    assert got[-2] == 0.0 and singles[-2] == 0.0
    assert np.allclose(got, singles, rtol=1e-12, atol=0.0)
    # with no room to stack, every set is reduced alone, as a single set is
    monkeypatch.setattr(seqspace, "BATCH_CELLS", 0)
    assert np.array_equal(seqspace.seq_norms(batch, params), singles)


@pytest.mark.parametrize("family", ["b", "f"])
def test_batches_stay_within_the_cell_budget(monkeypatch, family):
    # level-6 boxes of up to 256^2 cells, two of which outgrow the budget,
    # and small sets that stack
    herz = HerzParams((2.0, 1.5), (0.25, 0.0), (1.0, 2.0))
    params = SeqSpaceParams(herz, 0.5, 2.0, family)
    batch = [_random_seq(2, 6, 12, seed, spread=2) for seed in range(8)]
    batch += [CoeffSeq(2, 6, 16.0, {(6, (i, j)): complex(i, j + 1)
                                    for i in range(d) for j in range(3)})
              for d in (1, 2, 3, 4)]
    singles = np.array([seq_norm(lam, params) for lam in batch])
    shapes = []

    def recording(arr, los, v, herz):
        shapes.append(arr.shape)
        return _cells_mixed_herz(arr, los, v, herz)

    monkeypatch.setattr(seqspace, "_cells_mixed_herz", recording)
    got = seqspace.seq_norms(batch, params)
    assert np.allclose(got, singles, rtol=1e-12, atol=0.0)
    sizes = [math.prod(shape) for shape in shapes]
    assert all(size <= seqspace.BATCH_CELLS or shape[-1] == 1
               for size, shape in zip(sizes, shapes))
    assert sum(sizes) > seqspace.BATCH_CELLS
    assert max(shape[-1] for shape in shapes) > 1


def test_batched_norms_check_every_set():
    lam = CoeffSeq(1, 2, 16.0, FIXED_ENTRIES)
    other = CoeffSeq(2, 2, 16.0, {(0, (0, 0)): 1j})
    with pytest.raises(ValueError, match="coeffs have n = 2"):
        seqspace.b_norms([lam, other], PARAMS_B)
    with pytest.raises(ValueError, match="family 'f'"):
        seqspace.f_norms([lam], PARAMS_B)
    assert seqspace.seq_norms([], PARAMS_F).shape == (0,)


def test_seq_norm_dispatch_and_family_guard():
    lam = CoeffSeq(1, 2, 16.0, FIXED_ENTRIES)
    assert seq_norm(lam, PARAMS_B) == b_norm(lam, PARAMS_B)
    with pytest.raises(ValueError):
        SeqSpaceParams(HerzParams(math.inf, 0.25, 1.0), 0.5, 2.0, family="f")
    with pytest.raises(ValueError):
        SeqSpaceParams(HerzParams(2.0, 0.25, 1.0), 0.5, 2.0, family="x")


def test_empty_sequence_norms_are_zero():
    lam = CoeffSeq(1, 2, 16.0, {})
    assert b_norm(lam, PARAMS_B) == 0.0
    fparams = SeqSpaceParams(PARAMS_B.herz, s=0.5, beta=2.0, family="f")
    assert f_norm(lam, fparams) == 0.0


def test_majorant_dominates_pointwise_for_simple_exponents():
    for r in (1.0, math.inf):
        lam = _random_seq(1, 3, 30, 9, spread=3)
        star = lambda_star(lam, r=r, d=3.0, window=8)
        for key, val in lam.entries.items():
            assert abs(star.entries[key]) >= abs(val)


def test_majorant_dominates_in_norm():
    lam = _random_seq(1, 3, 30, 10, spread=3)
    par = SeqSpaceParams(HerzParams(2.0, 0.0, 2.0), s=0.5, beta=2.0, family="f")
    star = lambda_star(lam, r=1.5, d=4.0, window=8)
    assert f_norm(lam, par) <= f_norm(star, par)


def test_majorant_single_spike_closed_form():
    # one unit coefficient at the origin: the weighted sum at offset j is
    # (1 + |j|)^(-d) exactly, so the r-th root recovers (1 + |j|)^(-d/r)
    lam = CoeffSeq(1, 1, 16.0, {(0, (4,)): 1.0 + 0j})
    star = lambda_star(lam, r=2.0, d=4.0, window=3)
    for j in (-2, 0, 3):
        got = abs(star.entries[(0, (4 + j,))])
        assert math.isclose(got, (1.0 + abs(j)) ** -2.0, rel_tol=1e-14)


def test_majorant_stabilizes_under_window_doubling():
    lam = _random_seq(1, 3, 30, 11, spread=3)
    par = SeqSpaceParams(HerzParams(2.0, 0.0, 2.0), s=0.5, beta=2.0, family="f")
    base = f_norm(lam, par)
    ratios = [f_norm(lambda_star(lam, 1.0, 3.0, w), par) / base for w in (4, 8, 16)]
    assert abs(ratios[1] - ratios[0]) <= 0.1 * ratios[0]
    assert abs(ratios[2] - ratios[1]) <= 0.1 * ratios[1]
