"""Sequence-space norms over dyadic cell lattices.

A coefficient lam[k, m] carries the normalised indicator 2^{k n / 2} of the
cell 2^-k (m + [0, 1)^n).  Level carriers g_k = sum_m |lam[k, m]| 2^{k n / 2}
chi_{k,m} are piecewise constant on dyadic cells, so their mixed Herz norms
are computed by the same exact measure arithmetic as sampled fields, with
no sampling step:

  b-norm: l^beta over k of 2^{k s} * herz(g_k)
  f-norm: herz of (sum_k (2^{k s} g_k)^beta)^(1/beta), assembled exactly on
          the finest occupied level's tiling.

The norms (b_norms, f_norms, seq_norms) take a frames.CoeffBatch and read
its flat columns and (set, level) blocks in place.  The single-set norms
pass their CoeffSeq, a batch of one.  Their parameters are
herz.SpaceParams with family 'b' or 'f'; SeqSpaceParams is a second name
for that class.

A batch is reduced in stacks.  The b-norm stacks the blocks of one level,
the f-norm the envelopes of the sets that share a finest occupied level,
each as the columns of one C-ordered array on their union box, and
_chunks splits a stack that would hold more than BATCH_CELLS cells.  Each
norm call plans its stacks first; the plan lives only for that call,
while the magnitudes and block boxes it reads are kept on the batch.  The
stacks then lie one after another in one flat float64 buffer (or several
of at most BATCH_CELLS cells each, for a large batch), which is filled in
one pass: the b-norm writes the magnitudes of every block with one
assignment, and the f-norm adds the terms of every coefficient with one
scatter per level gap and takes the 1/beta root once.  The stacks' views
of a buffer go to one Herz reduction per axis, which finishes them all
together (see ``herz._axis_reduce_stacks``).

Several batches of one n and K are planned together by one call
(``_joint_norms``, which the public norms call with a list of one; the
embedding sweep passes its draws and its probes).  Stacks are keyed by
(batch, level) for b and by (batch, finest level) for f, so no stack holds
sets of two batches, and each batch gets exactly the stacks of its own
call: the same members, union boxes and column order.  The first batch
also keeps its packing into buffers; the stacks of a later one follow in
the last buffer before them while it has room, and each buffer still goes
to one reduction.  So the joint norms of a batch equal its own norms bit
for bit: a buffer's values are written cell by cell, and the reduction
sums each stack's rows as it would alone (a one-column stack pairwise, a
C-ordered stack row by row), whatever else shares the call.

The bits of each norm are fixed by what the layout keeps: which stack
holds a set and in which column, each stack's union box, the order in
which an envelope cell's terms are added (ascending k, from zero) and
each term's power (Python's float power).  A set's norm in a batch can
still differ from its own in the last bit: the exact Herz reduction sums
cell rows along axis 0 in the memory order of its input (see ``herz``),
and numpy sums the rows of one column pairwise but those of a C-ordered
stack of columns, as these stacks are, one row after another.  (On the 25
draws of embedlab._random_coeffs(1, 8, default_rng(9000), 25) with
p = 1.5, alpha = 0.25, q = 2, s = 0.5, 3-4 b-norms (beta 1, 2) and 7-8
f-norms (beta 1.5, 2) differ, by at most 3.5e-16 relative.)

lambda_star is the discretised peak majorant
(sum_h |lam[k, h]|^r (1 + |h - m|)^-d)^(1/r) per level, evaluated on the
occupied bounding box dilated by a window margin; r = inf takes the sup
form.  The window is a truncation, so callers gauge it by doubling.
"""

import math
import operator
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from . import _accel
from .frames import CoeffSeq
from .herz import SpaceParams, _cells_mixed_herz, lq_combine

SeqSpaceParams = SpaceParams


# Cells of one stacked array of a batch, and of one buffer of such arrays.
# A set whose own box holds more is evaluated on its own.
BATCH_CELLS = 1 << 16


def _chunks(los, his):
    """Split boxes into runs whose union box, times the run's length, holds
    at most BATCH_CELLS cells (or one box, if it alone holds more).

    los, his : (D, n) corner and end indices.  Yields (a, b, lo, hi): boxes
    a..b-1 and their union box [lo, hi).
    """
    start = 0
    while start < len(los):
        lo = np.minimum.accumulate(los[start:], axis=0)
        hi = np.maximum.accumulate(his[start:], axis=0)
        cells = (hi - lo).prod(axis=1) * np.arange(1, len(lo) + 1)
        count = max(1, int(np.count_nonzero(cells <= BATCH_CELLS)))
        yield start, start + count, lo[count - 1], hi[count - 1]
        start += count


class _Stacks(NamedTuple):
    """Boxes stacked as columns, one array per key and BATCH_CELLS chunk.

    Keys run ascending, and the boxes of a key are split by _chunks in
    their given order.  Stack j holds box members[j][c] in column c of a
    C-ordered (*box, len(members[j])) array of cells of side 2^-sides[j]
    whose box has corner index los[j].  The stacks are numbered by global
    cells, stack j holding cells starts[j]..starts[j+1] - 1.
    """

    sides: list
    members: list
    los: np.ndarray
    shapes: list
    starts: list

    @classmethod
    def of(cls, keys, sides, los, his, owner, lens, pos):
        """The stacks of boxes [los[b], his[b]) of keys[b] and cell sides
        sides[b] (one side per key), for B >= 1 boxes, and the global cell
        of each row of pos and each row's strides.

        A key whose boxes fit together is one stack; _chunks splits the
        others.  Rows run in blocks, lens[j] rows in box owner[j]; box b's
        cell at lattice index m is global cell base[b] + sum_i m_i
        strides[i, b], every per-box value gathered one axis at a time.
        Returns the stacks, the (R,) cells and a list of the (R,) strides of
        each axis.
        """
        B, n = los.shape
        order = np.argsort(keys, kind="stable")
        opens = np.flatnonzero(np.diff(keys[order])) + 1
        firsts, lasts = [0, *opens.tolist()], [*opens.tolist(), B]
        lo = np.minimum.reduceat(los[order], firsts, axis=0)
        hi = np.maximum.reduceat(his[order], firsts, axis=0)
        fits = ((hi - lo).prod(axis=1) * np.subtract(lasts, firsts)
                <= BATCH_CELLS).tolist()
        # (first, last, lo, hi): sorted boxes first..last - 1, their union box
        plan = []
        for g, (a, b) in enumerate(zip(firsts, lasts)):
            if fits[g]:
                plan.append((a, b, lo[g], hi[g]))
                continue
            ids = order[a:b]
            plan += [(a + c, a + d, lo_c, hi_c)
                     for c, d, lo_c, hi_c in _chunks(los[ids], his[ids])]
        first, last, corners, ends = zip(*plan)
        corners = np.array(corners)
        columns = np.subtract(last, first)
        shapes = [(*box, c) for box, c in zip((np.array(ends) - corners)
                                              .tolist(), columns.tolist())]
        strides = np.array([[math.prod(shape[i + 1:]) for i in range(n)]
                            for shape in shapes], np.int64)
        starts = [0, *accumulate(map(math.prod, shapes))]
        origin = np.array(starts[:-1]) - (corners * strides).sum(1) - first
        base = np.empty(B, np.int64)
        base[order] = np.repeat(origin, columns) + np.arange(B)
        box_strides = np.empty((n, B), np.int64)
        box_strides[:, order] = np.repeat(strides.T, columns, axis=1)
        row_strides = [np.repeat(s[owner], lens) for s in box_strides]
        cells = np.repeat(base[owner], lens)
        for p, s in zip(pos.T, row_strides):
            cells += p * s
        stacks = cls(sides[order[list(first)]].tolist(),
                     [order[a:b] for a, b in zip(first, last)], corners,
                     shapes, starts)
        return stacks, cells, row_strides

    def buffers(self, cells):
        """Fresh zero buffers for the stacks: consecutive stacks share one
        while they hold at most BATCH_CELLS cells in all (a larger stack
        has its own), so a typical batch has one buffer.

        cells : (R,) global cell of each row of the caller's data.  Yields
        (rows, local, buf, stacks) per buffer: the rows whose cell lies in
        it (a slice when it holds every stack), those cells as indices into
        buf, buf, and (j, array) of each of its stacks, every array a view
        of buf.
        """
        starts, j = self.starts, 0
        while j < len(self.sides):
            end = j + 1
            while (end < len(self.sides)
                   and starts[end + 1] - starts[j] <= BATCH_CELLS):
                end += 1
            a, b = starts[j], starts[end]
            rows = (slice(None) if b - a == starts[-1]
                    else np.flatnonzero((cells >= a) & (cells < b)))
            buf = np.zeros(b - a)
            yield rows, cells[rows] - a, buf, [
                (i, buf[starts[i] - a:starts[i + 1] - a].reshape(shape))
                for i, shape in enumerate(self.shapes[j:end], j)]
            j = end


def _check(batches, params, family):
    """The checks of the family's norm: its family, and each batch's n and
    K, which must be those of the first."""
    if params.family != family:
        raise ValueError(f"{family}_norm needs family {family!r} parameters")
    for batch in batches:
        if params.herz.n != batch.n:
            raise ValueError(f"params for n = {params.herz.n}, coeffs have "
                             f"n = {batch.n}")
        if batch.K != batches[0].K:
            raise ValueError(f"batches of K = {batches[0].K} and {batch.K} "
                             f"cannot be planned together")


def _joined(batches):
    """The columns of a list of batches, batch after batch.

    The sets of all batches are numbered in one run, batch i's set d being
    set offsets[i] + d.  Returns the offsets, then per block its batch, its
    set in that numbering, its level, the corner and end indices of its
    box and its row count, then per row its index and magnitude.  Each
    batch's cached magnitudes and boxes are read, never computed again on
    the joined columns.  A lone batch's columns are its own arrays, not
    copies: copying the rows of a ~9k-row majorant output cost a quarter
    of its f-norm.
    """
    offsets = [0, *accumulate(map(len, batches))]
    tag = np.repeat(np.arange(len(batches)),
                    [len(b.block_level) for b in batches])
    columns = zip(*((b.block_set + o, b.block_level, *b.boxes,
                     np.diff(b.starts), b.index, b.magnitudes)
                    for b, o in zip(batches, offsets)))
    return offsets, tag, *(c[0] if len(c) == 1 else np.concatenate(c)
                           for c in columns)


def _per_batch(values, batches):
    """The values of the sets of all batches, numbered in one run (see
    _joined), as one array per batch."""
    ends = [0, *accumulate(map(len, batches))]
    return [values[a:b] for a, b in zip(ends, ends[1:])]


def _joint_b_norms(batches, params):
    """b_norms of each batch of a list, planned and reduced together.

    Each (batch, level)'s blocks are stacked as columns on their union box
    (split by _chunks), the magnitudes of every block are written in one
    assignment, and the stacks of each buffer are reduced in one call.
    Every set's levels are combined over the batches' K + 1 terms.
    """
    _check(batches, params, "b")
    n, K = params.herz.n, batches[0].K
    offsets, tag, sets, level, lo, hi, lens, index, mags = _joined(batches)
    terms = np.zeros((offsets[-1], K + 1))
    if len(level):
        stk, cells, _ = _Stacks.of(tag * (K + 1) + level, level, lo, hi,
                                   slice(None), lens, index)
        for rows, local, buf, stacks in stk.buffers(cells):
            buf[local] = mags[rows]
            norms = _cells_mixed_herz([(arr, stk.los[j], stk.sides[j])
                                       for j, arr in stacks], params.herz)
            for (j, _), t in zip(stacks, norms):
                k = stk.sides[j]
                terms[sets[stk.members[j]], k] = (
                    2.0 ** (k * (params.s + n / 2.0)) * t)
    return _per_batch(lq_combine(terms, params.beta), batches)


def _f_envelopes(batches, params):
    """The l^beta envelopes across levels, on the finest occupied tilings,
    of the sets of a list of batches.

    Sets are grouped by batch and finest occupied level vf, and a group's
    envelopes are stacked as columns on their union box (split by
    _chunks).  A level-k coefficient covers the 2^(g n) finest cells from
    its corner cell on, g = vf - k being its gap.  Each corner cell is
    computed once per call.  The terms are then added with one scatter per
    distinct gap over the whole buffer, in descending g.  Within one
    stack, descending g is ascending k, so every cell is summed from zero
    in ascending k.  The cells of the coefficients of one gap are
    distinct, so a scatter adds to each cell at most once.  Each
    coefficient's power is taken with Python's float power (libm pow,
    ``operator.pow`` mapped over the terms in one pass), as in a per-entry
    painting; numpy's vectorised power can differ from it in the last bit.
    The 1/beta root is then taken once over the buffer.  Yields, per
    buffer, the list of (sets, env, corner index, vf) of its stacks, each
    env a view of the buffer and sets numbered across the batches (see
    _joined); empty sets are in none.
    """
    _check(batches, params, "f")
    n, beta, K = params.herz.n, params.beta, batches[0].K
    offsets, tag, d, k, lo, hi, lens, index, mags = _joined(batches)
    if not len(k):
        return
    # each set's finest level and envelope box, in finest-level indices
    new_set = np.diff(d, prepend=-1) != 0
    first = np.flatnonzero(new_set)
    sets = d[first]
    vf = np.zeros(offsets[-1], np.int64)
    vf[sets] = k[np.append(first[1:], len(d)) - 1]
    gap = vf[d] - k
    los = np.minimum.reduceat(lo << gap[:, None], first, axis=0)
    his = np.maximum.reduceat(hi << gap[:, None], first, axis=0)
    # each coefficient's corner cell, at its index shifted to the finest level
    row_gap = np.repeat(gap, lens)
    stk, corner, strides = _Stacks.of(tag[first] * (K + 1) + vf[sets],
                                      vf[sets], los, his,
                                      np.cumsum(new_set) - 1, lens,
                                      index << row_gap[:, None])
    gaps = sorted(set(gap.tolist()), reverse=True)
    weight = np.array([2.0 ** (k * (params.s + n / 2.0))
                       for k in range(K + 1)])
    contrib = np.repeat(weight[k], lens) * mags
    if not math.isinf(beta):
        contrib = np.fromiter(map(operator.pow, contrib.tolist(),
                                  repeat(beta)), np.float64, len(contrib))
    for rows, local, buf, stacks in stk.buffers(corner):
        buf_gap, buf_contrib = row_gap[rows], contrib[rows]
        buf_strides = [s[rows] for s in strides]
        for g in gaps:
            at = np.flatnonzero(buf_gap == g)
            flat, terms = local[at], buf_contrib[at]
            if g:
                # the (2^g)^n finest cells of each coefficient: row c of
                # flat holds cell c of every coefficient
                cell = np.indices((1 << g,) * n).reshape(n, -1, 1)
                flat = flat + cell[0] * buf_strides[0][at]
                for i in range(1, n):
                    flat += cell[i] * buf_strides[i][at]
                flat = flat.reshape(-1)
                terms = np.tile(terms, cell.shape[1])
            if math.isinf(beta):
                buf[flat] = np.maximum(buf[flat], terms)
            else:
                buf[flat] += terms
        if not math.isinf(beta):
            buf **= 1.0 / beta
        yield [(sets[stk.members[j]], env, stk.los[j], stk.sides[j])
               for j, env in stacks]


def _joint_f_norms(batches, params):
    """f_norms of each batch of a list, planned and reduced together.

    One reduction per buffer of stacked envelopes, each stack holding a
    (batch, finest level) group (or a _chunks split of one).
    """
    out = np.zeros(sum(map(len, batches)))
    for stacks in _f_envelopes(batches, params):
        norms = _cells_mixed_herz([(env, lo, top)
                                   for _, env, lo, top in stacks], params.herz)
        for (members, *_), norm in zip(stacks, norms):
            out[members] = norm
    return _per_batch(out, batches)


def _joint_norms(batches, params):
    """The params family's norm of each set of a list of batches of one n
    and K, as one array per batch: every batch keeps the stacks, and so
    the bits, of its own call, and no stack holds sets of two batches."""
    norms = {"b": _joint_b_norms, "f": _joint_f_norms}.get(params.family)
    if norms is None:
        raise ValueError("seq_norm needs family 'b' or 'f' parameters")
    return norms(batches, params)


def b_norms(batch, params):
    """b_norm of each coefficient set of a batch, as an array."""
    return _joint_b_norms([batch], params)[0]


def f_norms(batch, params):
    """f_norm of each coefficient set of a batch, as an array."""
    return _joint_f_norms([batch], params)[0]


def seq_norms(batch, params):
    """The params family's norm of each coefficient set of a batch."""
    return _joint_norms([batch], params)[0]


def b_norm(coeffs, params):
    """l^beta over levels of weighted exact cell-carrier Herz norms."""
    return float(b_norms(coeffs, params)[0])


def f_norm(coeffs, params):
    """Herz norm of the pointwise l^beta envelope across levels.

    The envelope is assembled exactly on the finest occupied level: each
    coefficient cell covers a full block of finest cells.
    """
    return float(f_norms(coeffs, params)[0])


def seq_norm(coeffs, params):
    return float(seq_norms(coeffs, params)[0])


def lambda_star(coeffs, r, d, window):
    """Windowed peak majorant of a coefficient set, level by level.

    Evaluates (sum_h |lam[k, h]|^r (1 + |h - m|)^-d)^(1/r) (sup form for
    r = inf) at every lattice index m in the occupied bounding box dilated
    by ``window`` cells per side, an integer >= 0.  |h - m| is the
    Euclidean index distance.  coeffs is one set (a batch of one).
    """
    if len(coeffs) != 1:
        raise ValueError(f"lambda_star takes one coefficient set, not a "
                         f"batch of {len(coeffs)}")
    if not (r > 0.0):
        raise ValueError("r must be positive")
    if not (d > 0.0):
        raise ValueError("d must be positive")
    try:
        window = operator.index(window)
    except TypeError:
        raise ValueError(f"window = {window!r} must be an integer") from None
    if window < 0:
        raise ValueError("window must be >= 0")
    # the values and indices of each level's box are written into the
    # result's columns in place; the boxes are nonempty, in C order and
    # ascending in k
    n, (lo, hi) = coeffs.n, coeffs.boxes
    corners = lo - window
    shapes = hi - lo + 2 * window
    starts = np.cumsum([0, *shapes.prod(axis=1).tolist()])
    index = np.empty((starts[-1], n), np.int64)
    value = np.empty(starts[-1], np.complex128)
    rows = coeffs.starts.tolist()
    for r0, r1, corner, shape, a, b in zip(rows, rows[1:], corners, shapes,
                                           starts, starts[1:]):
        mag, pos = coeffs.magnitudes[r0:r1], coeffs.index[r0:r1]
        if math.isinf(r):
            out = _accel.lambda_star_max(mag, pos, corner, shape, float(d))
        else:
            out = _accel.lambda_star_sum(mag ** r, pos, corner, shape,
                                         float(d)) ** (1.0 / r)
        value[a:b] = out
        index[a:b] = np.indices(shape).reshape(n, -1).T + corner
    return CoeffSeq._of_blocks(n, coeffs.K, coeffs.L, 1,
                               np.zeros(len(shapes), np.int64),
                               coeffs.block_level, starts, index, value)
