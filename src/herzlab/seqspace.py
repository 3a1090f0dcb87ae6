"""Sequence-space norms over dyadic cell lattices.

A coefficient lam[k, m] carries the normalised indicator 2^{k n / 2} of the
cell 2^-k (m + [0, 1)^n).  Level carriers g_k = sum_m |lam[k, m]| 2^{k n / 2}
chi_{k,m} are piecewise constant on dyadic cells, so their mixed Herz norms
are computed by the same exact measure arithmetic as sampled fields, with
no sampling step:

  b-norm: l^beta over k of 2^{k s} * herz(g_k)
  f-norm: herz of (sum_k (2^{k s} g_k)^beta)^(1/beta), assembled exactly on
          the finest occupied level's tiling.

The norms take a list of sets (b_norms, f_norms, seq_norms) and stack the
sets' cell arrays as columns of one array per reduction; the single-set
norms are the batch of one.  A set's norm in a batch can still differ from
its own in the last bit: the exact Herz reduction sums cell rows along
axis 0, and numpy sums the rows of one column pairwise but those of
several columns one row after another.  (On the 25 draws of
embedlab._random_coeffs(1, 8, default_rng(9000), 25) with p = 1.5,
alpha = 0.25, q = 2, s = 0.5, 3-4 b-norms (beta 1, 2) and 7-8 f-norms
(beta 1.5, 2) differ, by at most 3.5e-16 relative.)  Their parameters
are herz.SpaceParams with family 'b' or 'f'; SeqSpaceParams is a second
name for that class.

lambda_star is the discretised peak majorant
(sum_h |lam[k, h]|^r (1 + |h - m|)^-d)^(1/r) per level, evaluated on the
occupied bounding box dilated by a window margin; r = inf takes the sup
form.  The window is a truncation, so callers gauge it by doubling.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _accel
from .frames import CoeffSeq
from .herz import SpaceParams, _cells_mixed_herz, lq_combine

SeqSpaceParams = SpaceParams


# Cells of one stacked array of a batch.  A set whose own box holds more
# is evaluated on its own.
BATCH_CELLS = 1 << 16


class _Blocks(NamedTuple):
    """Every occupied level of a batch of sets, one block per (set, level).

    Blocks run set by set, levels ascending.  Block b is level k[b] of
    set d[b]: rows starts[b]:starts[b+1] of pos and mag, inside the box
    [lo[b], hi[b]).
    """

    d: np.ndarray
    k: np.ndarray
    starts: np.ndarray
    pos: np.ndarray
    mag: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, batch, n):
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
        return cls(np.array(d, np.int64), np.array(k, np.int64), starts, pos,
                   np.hypot(vals.real, vals.imag), lo, hi)

    def rows(self, sel):
        """Rows of blocks sel, block after block, and each block's length."""
        lens = self.starts[sel + 1] - self.starts[sel]
        first = np.repeat(self.starts[sel] - np.cumsum(lens) + lens, lens)
        return np.arange(lens.sum()) + first, lens

    def paint(self, sel, values):
        """values of blocks sel on their union box, one column per block.

        Returns the (*box, len(sel)) array and the box's corner index.
        """
        lo, hi = self.lo[sel].min(axis=0), self.hi[sel].max(axis=0)
        rows, lens = self.rows(sel)
        arr = np.zeros((*(hi - lo).tolist(), len(sel)))
        arr[(*(self.pos[rows] - lo).T, np.repeat(np.arange(len(sel)), lens))] \
            = values[rows]
        return arr, lo


def _chunks(los, his):
    """Split boxes into runs whose union box, times the run's length, holds
    at most BATCH_CELLS cells (or one box, if it alone holds more).

    los, his : (D, n) corner and end indices.  Yields (a, b): boxes a..b-1.
    """
    start = 0
    while start < len(los):
        lo = np.minimum.accumulate(los[start:], axis=0)
        hi = np.maximum.accumulate(his[start:], axis=0)
        cells = np.prod(hi - lo, axis=1) * np.arange(1, len(lo) + 1)
        stop = start + max(1, int(np.count_nonzero(cells <= BATCH_CELLS)))
        yield start, stop
        start = stop


def _check_batch(batch, params, family):
    """The checks of the family's norm: its family, and each set's n."""
    if params.family != family:
        raise ValueError(f"{family}_norm needs family {family!r} parameters")
    for coeffs in batch:
        if params.herz.n != coeffs.n:
            raise ValueError(f"params for n = {params.herz.n}, coeffs have "
                             f"n = {coeffs.n}")


def b_norms(batch, params):
    """b_norm of each coefficient set in a list, as an array.

    Each level's blocks are stacked as columns on a common box (chunked
    by BATCH_CELLS) and reduced in one call.  Every set's levels are
    combined over max(K) + 1 terms of the batch.
    """
    _check_batch(batch, params, "b")
    n = params.herz.n
    blk = _Blocks.of(batch, n)
    terms = np.zeros((len(batch), max((c.K for c in batch), default=0) + 1))
    for k in sorted(set(blk.k.tolist())):
        ids = np.flatnonzero(blk.k == k)
        for a, b in _chunks(blk.lo[ids], blk.hi[ids]):
            sel = ids[a:b]
            arr, lo = blk.paint(sel, blk.mag)
            t = _cells_mixed_herz(arr, lo, k, params.herz)
            terms[blk.d[sel], k] = 2.0 ** (k * (params.s + n / 2.0)) * t
    return lq_combine(terms, params.beta)


def _f_envelopes(batch, params):
    """The l^beta envelopes across levels, on the finest occupied tilings.

    Sets are grouped by finest occupied level vf; a group's envelopes are
    stacked as columns on their union box (chunked by BATCH_CELLS).  A
    level-k coefficient covers 2^((vf - k) n) finest cells; its term is
    added into each of them level by level in ascending k, starting from
    zero.  Each coefficient's power is taken with Python's float power
    (libm pow), as in a per-entry painting; numpy's vectorised power can
    differ from it in the last bit.  Yields (sets, env, corner index, vf)
    per stack; empty sets are in none.
    """
    n, beta = params.herz.n, params.beta
    blk = _Blocks.of(batch, n)
    if not len(blk.d):
        return
    lens = np.diff(blk.starts)
    weight = [2.0 ** (k * (params.s + n / 2.0)) for k in blk.k.tolist()]
    contrib = np.repeat(weight, lens) * blk.mag
    if not math.isinf(beta):
        contrib = np.array([c ** beta for c in contrib.tolist()])
    # each set's finest level and envelope box, in finest-level indices
    first = np.flatnonzero(np.diff(blk.d, prepend=-1))
    sets = blk.d[first]
    vf = np.zeros(len(batch), np.int64)
    vf[sets] = blk.k[np.append(first[1:], len(blk.d)) - 1]
    shift = vf[blk.d] - blk.k
    los = np.minimum.reduceat(blk.lo << shift[:, None], first, axis=0)
    his = np.maximum.reduceat(blk.hi << shift[:, None], first, axis=0)
    for top in sorted(set(vf[sets].tolist())):
        group = np.flatnonzero(vf[sets] == top)
        for a, b in _chunks(los[group], his[group]):
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
                rows, counts = blk.rows(mine[at])
                scale = 1 << (top - k)
                corner = ((blk.pos[rows] * scale - lo) @ strides
                          + np.repeat(column[at], counts))
                # the scale^n finest cells of one coefficient, as offsets
                offsets = np.indices((scale,) * n).reshape(n, -1).T @ strides
                flat = (corner[:, None] + offsets).reshape(-1)
                terms = np.repeat(contrib[rows], len(offsets))
                # a level's cells are distinct, so each is updated once
                if math.isinf(beta):
                    flat_env[flat] = np.maximum(flat_env[flat], terms)
                else:
                    flat_env[flat] += terms
            if not math.isinf(beta):
                env = env ** (1.0 / beta)
            yield members, env, lo, top


def f_norms(batch, params):
    """f_norm of each coefficient set in a list, as an array.

    One reduction per finest-level group (and BATCH_CELLS chunk) of
    stacked envelopes.
    """
    _check_batch(batch, params, "f")
    out = np.zeros(len(batch))
    for members, env, lo, top in _f_envelopes(batch, params):
        out[members] = _cells_mixed_herz(env, lo, top, params.herz)
    return out


def seq_norms(batch, params):
    """The params family's norm of each coefficient set in a list."""
    norms = {"b": b_norms, "f": f_norms}.get(params.family)
    if norms is None:
        raise ValueError("seq_norm needs family 'b' or 'f' parameters")
    return norms(batch, params)


def b_norm(coeffs, params):
    """l^beta over levels of weighted exact cell-carrier Herz norms."""
    return float(b_norms([coeffs], params)[0])


def f_norm(coeffs, params):
    """Herz norm of the pointwise l^beta envelope across levels.

    The envelope is assembled exactly on the finest occupied level: each
    coefficient cell covers a full block of finest cells.
    """
    return float(f_norms([coeffs], params)[0])


def seq_norm(coeffs, params):
    return float(seq_norms([coeffs], params)[0])


def lambda_star(coeffs, r, d, window):
    """Windowed peak majorant of a coefficient set, level by level.

    Evaluates (sum_h |lam[k, h]|^r (1 + |h - m|)^-d)^(1/r) (sup form for
    r = inf) at every lattice index m in the occupied bounding box dilated
    by ``window`` cells per side.  |h - m| is the Euclidean index distance.
    """
    if not (r > 0.0):
        raise ValueError("r must be positive")
    if d <= 0.0:
        raise ValueError("d must be positive")
    if window < 0:
        raise ValueError("window must be >= 0")
    levels = []
    for k, pos, vals in coeffs.levels():
        # np.hypot of the parts equals Python's abs of a complex bit for bit;
        # np.abs of complex128 can differ in the last bit
        mag = np.hypot(vals.real, vals.imag)
        corner = pos.min(axis=0) - window
        shape = pos.max(axis=0) + 1 + window - corner
        axes = [np.arange(lo, lo + s, dtype=np.int64)
                for lo, s in zip(corner, shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        targets = np.stack([m.ravel() for m in mesh], axis=1)
        if math.isinf(r):
            out = _accel.lambda_star_max(mag, pos, corner, shape, float(d))
        else:
            out = _accel.lambda_star_sum(mag ** r, pos, corner, shape,
                                         float(d)) ** (1.0 / r)
        levels.append((k, targets, out))
    # the boxes are nonempty, in C order and ascending in k
    return CoeffSeq._of_sorted(coeffs.n, coeffs.K, coeffs.L, levels)
