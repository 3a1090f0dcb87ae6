import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from herzlab import (CoeffSeq, HerzParams, SeqSpaceParams, b_norm, f_norm,
                     lambda_star, lq_combine, make_field, mixed_herz_norm,
                     seq_norm, seqspace)
from herzlab.embedlab import _probes, _random_coeffs
from herzlab.seqspace import _cells_mixed_herz, _f_envelopes

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
    given = dict(shuffled[::-1])
    other = CoeffSeq(lam.n, lam.K, lam.L, given)
    assert list(given) != list(lam.entries)
    assert list(other.entries) == list(lam.entries)
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
    [(_, got, got_los, got_vf)] = next(_f_envelopes([lam], params))
    assert np.array_equal(got[..., 0], env)
    assert np.array_equal(got_los, los) and got_vf == vf
    assert f_norm(lam, params) == _cells_mixed_herz([(env, los, vf)],
                                                    herz)[0]


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


def _as_batch(sets):
    """The sets of a nonempty list, all of one n and L, as one batch."""
    return CoeffSeq.batch_from_levels(sets[0].n, max(s.K for s in sets),
                                      sets[0].L, [s.levels() for s in sets])


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
    sets = _mixed_batch(n, 4, 3)
    batch = _as_batch(sets)
    singles = np.array([seq_norm(lam, params) for lam in sets])
    got = seqspace.seq_norms(batch, params)
    assert got[-2] == 0.0 and singles[-2] == 0.0
    # equal to rounding, not bit for bit: the Herz reduction sums a single
    # set's one column of cells pairwise, and a batch's several columns
    # row by row, so the last bit can differ
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
    sets = [_random_seq(2, 6, 12, seed, spread=2) for seed in range(8)]
    sets += [CoeffSeq(2, 6, 16.0, {(6, (i, j)): complex(i, j + 1)
                                   for i in range(d) for j in range(3)})
             for d in (1, 2, 3, 4)]
    singles = np.array([seq_norm(lam, params) for lam in sets])
    shapes = []

    def recording(stacks, herz):
        shapes.extend(arr.shape for arr, _, _ in stacks)
        return _cells_mixed_herz(stacks, herz)

    monkeypatch.setattr(seqspace, "_cells_mixed_herz", recording)
    got = seqspace.seq_norms(_as_batch(sets), params)
    assert np.allclose(got, singles, rtol=1e-12, atol=0.0)
    sizes = [math.prod(shape) for shape in shapes]
    assert all(size <= seqspace.BATCH_CELLS or shape[-1] == 1
               for size, shape in zip(sizes, shapes))
    assert sum(sizes) > seqspace.BATCH_CELLS
    assert max(shape[-1] for shape in shapes) > 1


# ---------------------------------------------------------------------------
# Reference layout: each (level, chunk) stack of b painted on its own array,
# and each (finest level, chunk) stack of f built level by level with its
# own scatter indices.  seqspace fills every stack of a batch in one pass
# and must give the same bits.
# ---------------------------------------------------------------------------


def _reference_blocks(batch, n):
    """Every occupied level of a list of sets (or of a batch's sets), one
    block per (set, level), concatenated set by set from each set's own
    levels(): block b is level k[b] of set d[b], rows starts[b]:starts[b+1]
    of pos and mag, inside the box [lo[b], hi[b])."""
    d, k, pos, vals = [], [], [], []
    for i, coeffs in enumerate(batch):
        for kk, p, v in coeffs.levels():
            d.append(i)
            k.append(kk)
            pos.append(p)
            vals.append(v)
    starts = np.cumsum([0, *map(len, pos)])
    pos = np.concatenate(pos) if pos else np.zeros((0, n), np.int64)
    vals = np.concatenate(vals) if vals else np.zeros(0, np.complex128)
    lo = hi = np.zeros((0, n), np.int64)
    if d:
        lo = np.minimum.reduceat(pos, starts[:-1], axis=0)
        hi = np.maximum.reduceat(pos, starts[:-1], axis=0) + 1
    return SimpleNamespace(d=np.array(d, np.int64), k=np.array(k, np.int64),
                           starts=starts, pos=pos,
                           mag=np.array([abs(v) for v in vals.tolist()]),
                           lo=lo, hi=hi)


def _reference_chunks(los, his):
    start = 0
    while start < len(los):
        lo = np.minimum.accumulate(los[start:], axis=0)
        hi = np.maximum.accumulate(his[start:], axis=0)
        cells = np.prod(hi - lo, axis=1) * np.arange(1, len(lo) + 1)
        stop = start + max(1, int(np.count_nonzero(cells <= seqspace.BATCH_CELLS)))
        yield start, stop
        start = stop


def _reference_rows(blk, sel):
    lens = blk.starts[sel + 1] - blk.starts[sel]
    first = np.repeat(blk.starts[sel] - np.cumsum(lens) + lens, lens)
    return np.arange(lens.sum()) + first, lens


def reference_b_norms(batch, params):
    """b_norms with each (level, chunk) stack painted on its own array."""
    n = params.herz.n
    blk = _reference_blocks(batch, n)
    terms = np.zeros((len(batch), max((c.K for c in batch), default=0) + 1))
    for k in sorted(set(blk.k.tolist())):
        ids = np.flatnonzero(blk.k == k)
        for a, b in _reference_chunks(blk.lo[ids], blk.hi[ids]):
            sel = ids[a:b]
            lo, hi = blk.lo[sel].min(axis=0), blk.hi[sel].max(axis=0)
            rows, lens = _reference_rows(blk, sel)
            arr = np.zeros((*(hi - lo).tolist(), len(sel)))
            arr[(*(blk.pos[rows] - lo).T,
                 np.repeat(np.arange(len(sel)), lens))] = blk.mag[rows]
            [t] = _cells_mixed_herz([(arr, lo, k)], params.herz)
            terms[blk.d[sel], k] = 2.0 ** (k * (params.s + n / 2.0)) * t
    return lq_combine(terms, params.beta)


def reference_f_envelopes(batch, params):
    """_f_envelopes built per (finest level, chunk, level), as a list."""
    n, beta = params.herz.n, params.beta
    blk = _reference_blocks(batch, n)
    if not len(blk.d):
        return []
    lens = np.diff(blk.starts)
    weight = [2.0 ** (k * (params.s + n / 2.0)) for k in blk.k.tolist()]
    contrib = np.repeat(weight, lens) * blk.mag
    if not math.isinf(beta):
        contrib = np.array([c ** beta for c in contrib.tolist()])
    first = np.flatnonzero(np.diff(blk.d, prepend=-1))
    sets = blk.d[first]
    vf = np.zeros(len(batch), np.int64)
    vf[sets] = blk.k[np.append(first[1:], len(blk.d)) - 1]
    shift = vf[blk.d] - blk.k
    los = np.minimum.reduceat(blk.lo << shift[:, None], first, axis=0)
    his = np.maximum.reduceat(blk.hi << shift[:, None], first, axis=0)
    out = []
    for top in sorted(set(vf[sets].tolist())):
        group = np.flatnonzero(vf[sets] == top)
        for a, b in _reference_chunks(los[group], his[group]):
            members = sets[group[a:b]]
            lo = los[group[a:b]].min(axis=0)
            shape = (*(his[group[a:b]].max(axis=0) - lo).tolist(), b - a)
            chosen = np.zeros(len(batch), dtype=bool)
            chosen[members] = True
            mine = np.flatnonzero(chosen[blk.d])
            column = np.searchsorted(members, blk.d[mine])
            strides = np.array([math.prod(shape[i + 1:]) for i in range(n)])
            env = np.zeros(shape)
            flat_env = env.reshape(-1)
            for k in sorted(set(blk.k[mine].tolist())):
                at = blk.k[mine] == k
                rows, counts = _reference_rows(blk, mine[at])
                scale = 1 << (top - k)
                corner = ((blk.pos[rows] * scale - lo) @ strides
                          + np.repeat(column[at], counts))
                offsets = np.indices((scale,) * n).reshape(n, -1).T @ strides
                flat = (corner[:, None] + offsets).reshape(-1)
                terms = np.repeat(contrib[rows], len(offsets))
                if math.isinf(beta):
                    flat_env[flat] = np.maximum(flat_env[flat], terms)
                else:
                    flat_env[flat] += terms
            if not math.isinf(beta):
                env = env ** (1.0 / beta)
            out.append((members, env, lo, top))
    return out


def _layout_batch(n):
    # _mixed_batch's sets, of several finest levels, with an empty and a
    # one-entry set, plus a one-entry set on the top level and a dense
    # lambda_star set
    K = 5 - n
    return _mixed_batch(n, K, 2) + [
        CoeffSeq(n, K, 16.0, {(K, (-3,) * n): 0.5 - 1j}),
        lambda_star(_random_seq(n, 2, 10, 40 + n, spread=1), 1.5, 3.0, 2)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("budget", [seqspace.BATCH_CELLS, 300, 0],
                         ids=["default", "small", "zero"])
@pytest.mark.parametrize("beta", [1.5, 2.0, math.inf])
def test_one_pass_layout_equals_reference_layout(monkeypatch, n, budget,
                                                 beta):
    monkeypatch.setattr(seqspace, "BATCH_CELLS", budget)
    herz = HerzParams((2.0, 1.5, 3.0)[:n], (0.25, 0.0, 0.125)[:n],
                      (1.0, 2.0, 1.5)[:n])
    layout = _layout_batch(n)
    batch = _as_batch(layout)
    bparams = SeqSpaceParams(herz, 0.5, beta, "b")
    assert np.array_equal(seqspace.b_norms(batch, bparams),
                          reference_b_norms(layout, bparams))
    fparams = SeqSpaceParams(herz, 0.5, beta, "f")
    got = [stack for stacks in _f_envelopes([batch], fparams)
           for stack in stacks]
    want = reference_f_envelopes(layout, fparams)
    assert len(got) == len(want)
    for (sets, env, lo, top), (w_sets, w_env, w_lo, w_top) in zip(got, want):
        assert np.array_equal(sets, w_sets) and top == w_top
        assert np.array_equal(lo, w_lo)
        assert env.shape == w_env.shape and env.flags.c_contiguous
        assert np.array_equal(env, w_env)
    want_f = np.zeros(len(batch))
    for sets, env, lo, top in want:
        [want_f[sets]] = _cells_mixed_herz([(env, lo, top)], herz)
    assert np.array_equal(seqspace.f_norms(batch, fparams), want_f)


def _reference_f_norms(sets, params):
    out = np.zeros(len(sets))
    for members, env, lo, top in reference_f_envelopes(sets, params):
        [out[members]] = _cells_mixed_herz([(env, lo, top)], params.herz)
    return out


def _stored(batch):
    """vars(batch) as bytes, apart from the two views a batch caches."""
    return pickle.dumps({k: v for k, v in vars(batch).items()
                         if k not in ("magnitudes", "boxes")})


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("budget", [seqspace.BATCH_CELLS, 300, 0],
                         ids=["default", "small", "zero"])
@pytest.mark.parametrize("beta", [1.5, 2.0, math.inf])
def test_batch_norms_equal_reference_layout(monkeypatch, n, budget, beta):
    monkeypatch.setattr(seqspace, "BATCH_CELLS", budget)
    herz = HerzParams((2.0, 1.5, 3.0)[:n], (0.25, 0.0, 0.125)[:n],
                      (1.0, 2.0, 1.5)[:n])
    bparams = SeqSpaceParams(herz, 0.5, beta, "b")
    fparams = SeqSpaceParams(herz, 0.5, beta, "f")
    sets = _layout_batch(n)
    K = max(lam.K for lam in sets)
    empty = CoeffSeq(n, K, 16.0, {})
    sets = [empty, *sets[:5], empty, *sets[5:], empty]
    batch = _as_batch(sets)
    # every third set goes, the empty first one and non-empty ones with it
    kept = [lam for d, lam in enumerate(sets) if d % 3 != 0]
    assert not sets[0].entries and sets[3].entries
    for part in (batch, _as_batch(kept), _as_batch([sets[3]])):
        assert part.K == batch.K
        stored = _stored(part)
        members = list(part)
        assert len(members) == len(part)
        got_b = seqspace.b_norms(part, bparams)
        assert np.array_equal(got_b, reference_b_norms(members, bparams))
        got_f = seqspace.f_norms(part, fparams)
        assert np.array_equal(got_f, _reference_f_norms(members, fparams))
        # a second call, as a target norm after a source norm: the same
        # norms, and the batch keeps nothing beyond its cached views
        assert np.array_equal(seqspace.b_norms(part, bparams), got_b)
        assert np.array_equal(seqspace.f_norms(part, fparams), got_f)
        assert _stored(part) == stored
        # the cached magnitudes and boxes cannot be written
        for array in [part.magnitudes, *part.boxes]:
            assert not array.flags.writeable


def test_batched_norms_check_every_set():
    # a batch has one n, so checking the batch checks every set
    lam = CoeffSeq(1, 2, 16.0, FIXED_ENTRIES)
    other = CoeffSeq.batch_from_levels(2, 2, 16.0, [
        [], [(0, [(0, 0)], [1j])]])
    with pytest.raises(ValueError, match="coeffs have n = 2"):
        seqspace.b_norms(other, PARAMS_B)
    with pytest.raises(ValueError, match="family 'f'"):
        seqspace.f_norms(lam, PARAMS_B)
    empty = CoeffSeq.batch_from_levels(1, 2, 16.0, [])
    assert seqspace.seq_norms(empty, PARAMS_F).shape == (0,)


def _joint_batches():
    """Batches of n = 1, K = 8 to plan together: draws with a level held by
    one draw alone, one-entry probes on their own levels (one of them on
    that level), a batch that BATCH_CELLS splits, an empty batch and a batch
    of one empty set."""
    draws = _random_coeffs(1, 8, np.random.default_rng(9011), 8)
    held = [len(set(draws.block_set[draws.block_level == k].tolist()))
            for k in range(9)]
    assert 1 in held
    big = [CoeffSeq(1, 8, 16.0, {(8, (-20000,)): 1 + 2j, (8, (20000,)): 3.0}),
           CoeffSeq(1, 8, 16.0, {(8, (-15000,)): 1j, (2, (3,)): 0.5}),
           _random_seq(1, 8, 12, 1)]
    split = CoeffSeq.batch_from_levels(1, 8, 16.0, [s.levels() for s in big])
    return [draws, _probes(1, 8, [4, 8]), split,
            CoeffSeq.batch_from_levels(1, 8, 16.0, []),
            CoeffSeq.batch_from_levels(1, 8, 16.0, [[]])]


@pytest.mark.parametrize("family", ["b", "f"])
@pytest.mark.parametrize("beta", [1.5, 2.0, math.inf])
def test_joint_pass_keeps_each_batch_bits(monkeypatch, family, beta):
    # no stack holds sets of two batches, so each batch keeps the stacks of
    # its own call and every norm its bits (a probe stacked with the draw
    # that alone holds its level would change that draw's last bit here);
    # the stacks of all batches share buffers, so the joint pass makes fewer
    # reductions
    herz = HerzParams(2.0, 0.25, 1.0)
    params = SeqSpaceParams(herz, 0.5, beta, family)
    batches = _joint_batches()
    calls = []

    def counting(stacks, herz):
        calls.append([math.prod(arr.shape) for arr, _, _ in stacks])
        return _cells_mixed_herz(stacks, herz)

    monkeypatch.setattr(seqspace, "_cells_mixed_herz", counting)
    own = [seqspace.seq_norms(batch, params) for batch in batches]
    own_calls, calls[:] = len(calls), []
    joint = seqspace._joint_norms(batches, params)
    assert len(joint) == len(batches)
    for got, want in zip(joint, own):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(calls) < own_calls
    # the split batch alone outgrows one buffer
    assert sum(map(sum, calls)) > seqspace.BATCH_CELLS
    assert len(calls) > 1


def test_joint_pass_needs_one_K():
    batches = [_probes(1, 4, [4]), _probes(1, 5, [5])]
    with pytest.raises(ValueError, match="K = 4 and 5"):
        seqspace._joint_norms(batches, PARAMS_B)


@pytest.mark.parametrize("norm, families", [(b_norm, "b"), (f_norm, "f"),
                                             (seq_norm, "bf")])
def test_each_norm_takes_only_its_families(norm, families):
    # b_norm computed with f, B or F parameters; seq_norm with B blamed f_norm
    lam = CoeffSeq(1, 2, 16.0, FIXED_ENTRIES)
    named = " or ".join(f"'{c}'" for c in families)
    for family in "BFbf":
        params = SeqSpaceParams(PARAMS_B.herz, s=0.5, beta=2.0, family=family)
        if family in families:
            assert norm(lam, params) > 0.0
            continue
        with pytest.raises(ValueError, match=f"^{norm.__name__} needs "
                                             f"family {named} parameters$"):
            norm(lam, params)


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


@pytest.mark.parametrize("window", [2.5, 2.0, "2", None])
def test_majorant_rejects_a_window_that_is_not_an_integer(window):
    # 2.5 once built a lopsided box of 12 targets around one coefficient
    lam = CoeffSeq(1, 1, 16.0, {(0, (4,)): 1.0 + 0j})
    with pytest.raises(ValueError, match=r"^window = .* must be an integer$"):
        lambda_star(lam, 1.0, 3.0, window)
    assert len(lambda_star(lam, 1.0, 3.0, np.int64(2)).entries) == 5
    with pytest.raises(ValueError, match="window must be >= 0"):
        lambda_star(lam, 1.0, 3.0, -1)
    # a batch of two sets once failed only on a missing ``levels``
    two = CoeffSeq.batch_from_levels(1, 1, 16.0, [lam.levels()] * 2)
    with pytest.raises(ValueError, match=r"^lambda_star takes one "
                                         r"coefficient set, not a batch of "
                                         r"2$"):
        lambda_star(two, 1.0, 3.0, 2)


@pytest.mark.parametrize("r, d, message", [
    (1.0, math.nan, "d must be positive"),
    (1.0, 0.0, "d must be positive"),
    (1.0, -1.0, "d must be positive"),
    (math.nan, 3.0, "r must be positive"),
])
def test_majorant_rejects_exponents_that_are_not_positive(r, d, message):
    # d = nan once passed and gave nan majorant values
    lam = CoeffSeq(1, 1, 16.0, {(0, (4,)): 1.0 + 0j})
    with pytest.raises(ValueError, match=f"^{message}$"):
        lambda_star(lam, r, d, 2)
