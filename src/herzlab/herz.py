"""Mixed-norm Herz quantities of sampled fields.

The norm treats a field as piecewise constant on the half-open grid cells
[x_j, x_j + h).  Along one axis the weighted annulus sum is computed by exact
measure arithmetic: a cell with index m >= 1 lies in the single annulus
2^(k-1) <= |x| < 2^k with k = 1 - v + floor(log2(m)) (cell side 2^-v), a cell
with m <= -2 in the one with k = 1 - v + floor(log2(-m-1)), and the two cells
touching the origin (m = 0, -1) meet every annulus k <= -v with measure
2^(k-1) per side, which is summed in closed geometric form.  The series
converges exactly when alpha + 1/p > 0, the admissibility condition enforced
by :class:`HerzParams`.  Nothing is dropped, so for alpha = 0, q = p the
mixed Herz norm reproduces the mixed Lebesgue norm to rounding error.

Axis 1 is innermost: ``mixed_herz_norm`` reduces the x1 axis first, then x2,
then x3.

The memory layout of a reduction's cell array decides its summation order.
numpy sums a run of rows pairwise within a column whose rows lie next to
each other in memory (a lone (C, 1) column, or the columns of a transposed,
Fortran-ordered stack), and one row after another across the columns of a
C-ordered array.  The reduction keeps its input's order in its own work
arrays, so a value reduced in a transposed stack has the bits of its
reduction alone; ``magnitude_herz_norms`` reduces the last axes of several
arrays that way, in one call.

``_axis_reduce_stacks`` reduces one axis of several stacks (the stacks of
a sequence-norm buffer, or the arrays of ``magnitude_herz_norms``) in one
call.  Each stack's annuli are summed on its own cells, and the rows of
annulus sums are shared, so the per-column finish runs once per call.
Stacks summed row by row (C-ordered, two or more columns) share one
C-ordered array padded with zero rows to the widest span: a trailing zero
added to a sum x >= +0 leaves x.  Stacks summed pairwise share one
Fortran-ordered array per span, unpadded: numpy adds a run of 8 or more
adjacent terms in eight interleaved partial sums, so a zero row can change
the sum of a column it pads to 8 or more rows.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import _log2_exact


class HypothesisError(ValueError):
    """A checker was asked to run outside its theorem's hypotheses."""


def _inv(p):
    """1/p with the convention 1/inf = 0."""
    return 0.0 if math.isinf(p) else 1.0 / p


# An exponent x is compared as Fraction(x).limit_denominator(D), D below.
# Every decimal with at most six digits after the point is then exact, and a
# float within 5e-10 of a fraction with denominator <= 1000 (any such
# fraction computed in a few float steps) is that fraction, since distinct
# fractions with denominators b, d <= D lie at least 1/(b d) apart.  The
# price: a float closer than 1/(1000 D) = 1e-9 to such a fraction is read as
# it, so exponents meant to differ must differ by more than that.
EXACT_DENOMINATOR = 10 ** 6


def _rational(x):
    """x as the nearest fraction with denominator <= EXACT_DENOMINATOR."""
    if math.isinf(x):
        return x
    return Fraction(x).limit_denominator(EXACT_DENOMINATOR)


def _as_exponent_tuple(t, n, name):
    if np.isscalar(t):
        t = (t,) * n
    t = tuple(float(x) for x in t)
    if len(t) != n:
        raise ValueError(f"{name} has length {len(t)}, expected {n}")
    return t


@dataclass(frozen=True)
class HerzParams:
    """Per-axis exponents (p_i, alpha_i, q_i) of a mixed Herz norm.

    0 < p_i, q_i <= inf and finite alpha_i > -1/p_i (admissibility; the
    inner annulus tail diverges otherwise).
    """

    p: tuple
    alpha: tuple
    q: tuple

    def __post_init__(self):
        n = len(self.p) if not np.isscalar(self.p) else 1
        object.__setattr__(self, "p", _as_exponent_tuple(self.p, n, "p"))
        object.__setattr__(self, "alpha", _as_exponent_tuple(self.alpha, n, "alpha"))
        object.__setattr__(self, "q", _as_exponent_tuple(self.q, n, "q"))
        for i, (p, a, q) in enumerate(zip(self.p, self.alpha, self.q)):
            if not p > 0:
                raise ValueError(f"p[{i}] = {p} must be positive")
            if not q > 0:
                raise ValueError(f"q[{i}] = {q} must be positive")
            if math.isinf(a):
                raise ValueError(f"alpha[{i}] = {a} must be finite")
            if not a > -_inv(p):
                # alpha_i > -1/p_i, with 1/inf = 0
                raise ValueError(
                    f"inadmissible alpha[{i}] = {a} <= -1/p[{i}] = {-_inv(p)}")

    @property
    def n(self):
        return len(self.p)

    def bold_inv_p(self):
        """sum_i 1/p_i."""
        return sum(_inv(p) for p in self.p)

    def bold_alpha(self):
        """sum_i alpha_i."""
        return sum(self.alpha)


@dataclass(frozen=True)
class SpaceParams:
    """Herz layer plus finite smoothness s and level exponent beta.

    family 'B'/'F' names a space of functions, 'b'/'f' its sequence
    space: B and b sum level norms, F and f sum pointwise.  F and f
    additionally require every p_i and q_i finite.
    """

    herz: HerzParams
    s: float
    beta: float
    family: str

    def __post_init__(self):
        if self.family not in ("B", "F", "b", "f"):
            raise ValueError("family must be 'B', 'F', 'b' or 'f'")
        if not math.isfinite(self.s):
            raise ValueError(f"s = {self.s} must be finite")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.family in ("F", "f"):
            for name, vec in (("p", self.herz.p), ("q", self.herz.q)):
                if any(math.isinf(e) for e in vec):
                    raise ValueError(f"family {self.family!r} requires "
                                     f"finite {name}, got {vec}")


def _axis_reduce_herz(mag, lo, v, p, alpha, q):
    """Exact one-axis Herz reduction of cell magnitudes.

    mag : (C, M) nonnegative float64; row r holds cell index m = lo + r along
        the reduced axis, columns enumerate the remaining positions.
    v : cells have side 2^-v.
    Returns the (M,) array of K(p, alpha, q) norms in that axis variable,
    summed in mag's memory order (see the module docstring): the batch of
    one of ``_axis_reduce_stacks``.
    """
    return _axis_reduce_stacks([(mag, lo, v)], p, alpha, q)[0]


def _axis_reduce_stacks(stacks, p, alpha, q):
    """``_axis_reduce_herz`` of each of a list of stacks, bit for bit.

    stacks : (mag, lo, v) of each stack.  Returns the list of their (M,)
    results, views of one array.

    Row j of a stack's annulus rows belongs to annulus k = 1 - v + j.  After
    the annulus sums, the finish (the 1/p root, the weights
    2^((1-v+j) alpha), the origin tail, the peak, the l^q sum and its root)
    runs once per shared array of rows.  It is elementwise but for the sum
    over rows, and v enters it only through factors computed with Python's
    float power once per distinct v.
    """
    p_inf, q_inf = math.isinf(p), math.isinf(q)
    spans = [int(max(lo + mag.shape[0] - 1, -lo)).bit_length()
             for mag, lo, _ in stacks]
    # the row-by-row group under None, each pairwise group under its span
    groups = {}
    for i, (mag, _, _) in enumerate(stacks):
        row_by_row = mag.shape[1] > 1 and mag.strides[0] >= mag.strides[1]
        groups.setdefault(None if row_by_row else spans[i], []).append(i)
    order = [i for members in groups.values() for i in members]
    widths = [stacks[i][0].shape[1] for i in order]
    first = dict(zip(order, itertools.accumulate(widths, initial=0)))
    M = sum(widths)

    # per distinct v: 2^-v, the tail factor and the annulus weights, by
    # Python's float power; then repeated across each stack's columns
    glog = alpha if p_inf else alpha + 1.0 / p
    widest = max(spans)
    factors = {}
    for i in order:
        v = stacks[i][2]
        if v not in factors:
            factors[v] = [2.0 ** (-v), 2.0 ** (-v * alpha) if p_inf
                          else 2.0 ** (-1.0 / p - v * glog),
                          *(2.0 ** ((1 - v + j) * alpha)
                            for j in range(widest))]
    table = np.repeat(np.array([factors[stacks[i][2]] for i in order]).T,
                      widths, axis=1)
    mu, tail, weights = table[0], table[1], table[2:]

    # cells m = 0 and m = -1 cross every annulus k <= -v; closed-form tail
    a, b = np.zeros((2, M))
    peak = np.empty(M)
    shared = []
    for key, members in groups.items():
        g0 = first[members[0]]
        g1 = g0 + sum(stacks[i][0].shape[1] for i in members)
        span = max(spans[i] for i in members)
        rows = np.zeros((span, g1 - g0), order="C" if key is None else "F")
        for i in members:
            mag, lo = stacks[i][0], int(stacks[i][1])
            c0, c1 = first[i], first[i] + mag.shape[1]
            if 0 <= -lo < mag.shape[0]:
                a[c0:c1] = mag[-lo]
            if 0 <= -1 - lo < mag.shape[0]:
                b[c0:c1] = mag[-1 - lo]
            _annulus_sums(mag, lo, p, rows[:spans[i], c0 - g0:c1 - g0])
        if not p_inf:
            rows *= mu[g0:g1]
            rows **= 1.0 / p
        rows *= weights[:span, g0:g1]
        np.maximum.reduce(rows, initial=0.0, out=peak[g0:g1])
        shared.append((g0, g1, rows))

    if p_inf:
        top = np.maximum(a, b, out=a)
    else:
        a **= p
        b **= p
        a += b
        a **= 1.0 / p
        top = a
    top *= tail
    # glog > 0 by admissibility, so the tail is geometric with top term at
    # k = -v and ratio 2^-glog.
    np.maximum(peak, top, out=peak)
    out = peak
    if not q_inf:
        safe = np.where(peak > 0.0, peak, 1.0)
        out = np.empty(M)
        for g0, g1, rows in shared:
            rows /= safe[g0:g1]
            rows **= q
            np.add.reduce(rows, out=out[g0:g1])
        top /= safe
        top **= q
        top /= 1.0 - 2.0 ** (-glog * q)
        out += top
        out **= 1.0 / q
        out *= safe     # a zero peak gives +0.0
    return [out[first[i]:first[i] + mag.shape[1]]
            for i, (mag, _, _) in enumerate(stacks)]


def _annulus_sums(mag, lo, p, out):
    """Write row j of out: the p-mass (the maximum for p = inf) of the cells
    of mag (row r at cell index lo + r) in annulus j, each side of the
    origin reduced as one slice of mag, in mag's memory order.  The p-th
    powers live only for the call."""
    C = mag.shape[0]
    if math.isinf(p):
        join, reduce, src = np.maximum, np.maximum.reduce, mag
    else:
        join, reduce = np.add, np.add.reduce
        src = mag if p == 1.0 else mag ** p
    for j, row in enumerate(out):
        # the rows of annulus j's cells right and left of the origin
        p0, p1 = max((1 << j) - lo, 0), min((2 << j) - lo, C)
        n0, n1 = max((-2 << j) - lo, 0), min((-1 << j) - lo, C)
        if p1 > p0 and n1 > n0:
            join(reduce(src[p0:p1]), reduce(src[n0:n1]), out=row)
        elif p1 > p0:
            reduce(src[p0:p1], out=row)
        elif n1 > n0:
            reduce(src[n0:n1], out=row)


def lq_combine(values, q):
    """Finite l^q sum of nonnegative terms, max-normalised for stability.

    Sums along the last axis: a 1d input gives a float, a stack of rows
    one value per row, each equal to that row's own sum.  With a single
    nonzero term the result equals that term exactly, for any q; q = inf
    is the maximum.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.shape[-1] == 0:
        return np.zeros(v.shape[:-1]) if v.ndim > 1 else 0.0
    if np.any(v < 0.0):
        raise ValueError("lq_combine expects nonnegative terms")
    peak = v.max(axis=-1)
    if not math.isinf(q):
        safe = np.where(peak > 0.0, peak, 1.0)
        sums = np.sum((v / safe[..., None]) ** q, axis=-1)
        # Python's float power per row, as for a single sum
        root = np.fromiter(map(operator.pow, np.ravel(sums).tolist(),
                               itertools.repeat(1.0 / q)),
                           np.float64, sums.size).reshape(sums.shape)
        peak = np.where(peak > 0.0, peak * root, 0.0)
    return float(peak) if v.ndim == 1 else peak


def lq_envelope(arrays, beta):
    """Pointwise l^beta of an iterable of nonnegative arrays.

    The maximum for beta = inf, otherwise (sum a^beta)^(1/beta); terms are
    consumed one at a time, and none is kept or written to.
    """
    return _weighted_envelope(arrays, itertools.repeat(1.0), beta)


def _weighted_envelope(arrays, weights, beta):
    """lq_envelope of the products w * a of paired weights and arrays, bit
    for bit.

    It is built in one accumulator and one scratch array: each later term
    is multiplied into the scratch (a weight of 1.0 copies the array),
    raised there with ``**=``, the operator of (w * a) ** beta, so that
    numpy picks the same routine (sqrt for beta = 0.5), and added in.
    """
    pairs = zip(weights, arrays)
    w, a = next(pairs)
    acc = np.multiply(a, w)
    scratch = np.empty_like(acc)
    if math.isinf(beta):
        for w, a in pairs:
            np.maximum(acc, np.multiply(a, w, out=scratch), out=acc)
        return acc
    acc **= beta
    for w, a in pairs:
        np.multiply(a, w, out=scratch)
        scratch **= beta
        acc += scratch
    acc **= 1.0 / beta
    return acc


def _reduce_axes(arrs, reduce, n):
    """Collapse axis 1, then 2, ..., then n of each of a list of arrays.

    reduce(i, cells) maps the list of the (C, M) cells of axis i of every
    array (rows along it, columns the remaining positions) to the list of
    their (M,) reduced values.  Axes after the n-th survive: returns the
    list of the arrays of their shapes (0d when there are none).
    """
    for i in range(n):
        rests = [arr.shape[1:] for arr in arrs]
        arrs = [out.reshape(rest) for out, rest in zip(
            reduce(i, [arr.reshape(arr.shape[0], -1) for arr in arrs]),
            rests)]
    return arrs


def _cells_mixed_herz(stacks, herz):
    """Exact mixed Herz norms of a list of cell arrays, one reduction per
    axis over all of them.

    stacks : (arr, los, v) per array: cells of side 2^-v, corner index los.
    The first len(los) axes are the cell axes, as many in every array; a
    trailing axis stacks several arrays on the same box and gets one norm
    per entry.  Returns the list of the norms of each array.
    """
    arrs, los, vs = zip(*stacks)
    return _reduce_axes(list(arrs), lambda i, cells: _axis_reduce_stacks(
        [(c, lo[i], v) for c, lo, v in zip(cells, los, vs)],
        herz.p[i], herz.alpha[i], herz.q[i]), len(los[0]))


def magnitude_herz_norms(mags, L, params):
    """mixed_herz_norm of fields of period L whose magnitudes are the
    same-shape (G,)^n arrays ``mags``, as an (S,) float64 array; each norm
    has the bits of a batch of one.

    The axes before the last of every array are reduced in one call per
    axis, each array's columns with their own bits; the S last-axis
    vectors left are stacked as the columns of one F-ordered (G, S) array
    and reduced in one call, each column summed as it is alone (see
    ``_axis_reduce_stacks``).  Only those vectors are copied.
    """
    n, G = mags[0].ndim, mags[0].shape[0]
    if params.n != n:
        raise ValueError(f"params for n = {params.n}, field has n = {n}")
    v, lo = _log2_exact(G) - _log2_exact(L), -G // 2
    lines = np.stack(_cells_mixed_herz([(m, (lo,) * (n - 1), v)
                                        for m in mags], params))
    return _axis_reduce_herz(lines.T, lo, v, params.p[-1], params.alpha[-1],
                             params.q[-1])


def mixed_herz_norm(field, params):
    """Iterated per-axis Herz norm, axis 1 innermost.

    params : HerzParams with params.n == field.n.  Grid cells have side h
    and indices m in [-G/2, G/2) on every axis.
    """
    return float(magnitude_herz_norms([np.abs(field.values)], field.L,
                                      params)[0])


def mixed_lebesgue_norm(field, p):
    """Iterated per-axis L^p norm, axis 1 innermost; p is scalar or n-tuple."""
    p = _as_exponent_tuple(p, field.n, "p")

    def reduce(i, mags):
        if math.isinf(p[i]):
            return [mag.max(axis=0) for mag in mags]
        return [(np.sum(mag ** p[i], axis=0) * field.h) ** (1.0 / p[i])
                for mag in mags]

    return float(_reduce_axes([np.abs(field.values)], reduce, field.n)[0])
