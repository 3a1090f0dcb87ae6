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
C-ordered array.  ``_axis_reduce_herz`` keeps its input's order in its own
work arrays, so a value reduced in a transposed stack has the bits of its
reduction alone; ``magnitude_herz_norms`` reduces the last axes of several
arrays that way, in one call.
"""

import itertools
import math
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

    def p_minus(self):
        return min(self.p)

    def q_minus(self):
        return min(self.q)


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
    Returns the (M,) array of K(p, alpha, q) norms in that axis variable.

    The annulus rows (and so the terms of the l^q sum) are laid out in
    mag's memory order: C order unless mag's columns are contiguous (a
    transposed stack), then F order.  Every sum over rows then runs as it
    does on mag, one row after another in C order and pairwise per column
    in F order, which is also how a lone (C, 1) column is summed: each
    column of an F-ordered input gets the bits of its own (C, 1) call.
    """
    C, M = mag.shape
    hi = lo + C
    mu = 2.0 ** (-v)
    p_inf = math.isinf(p)
    q_inf = math.isinf(q)
    if not p_inf:
        pw = mag ** p

    # row j: the p-norm (p-mass for finite p) of annulus k = 1 - v + j
    max_abs = max(hi - 1, -lo)
    span = int(max_abs).bit_length()
    rows = np.zeros((span, M), order="F" if mag.strides[0] < mag.strides[1]
                    else "C")
    for j in range(span):
        p0, p1 = max(1 << j, lo), min(1 << (j + 1), hi)
        n0, n1 = max(-(1 << (j + 1)), lo), min(-(1 << j), hi)
        if p_inf:
            if p1 > p0:
                np.maximum(rows[j], np.maximum.reduce(mag[p0 - lo:p1 - lo]),
                           out=rows[j])
            if n1 > n0:
                np.maximum(rows[j], np.maximum.reduce(mag[n0 - lo:n1 - lo]),
                           out=rows[j])
        else:
            if p1 > p0:
                rows[j] += np.add.reduce(pw[p0 - lo:p1 - lo])
            if n1 > n0:
                rows[j] += np.add.reduce(pw[n0 - lo:n1 - lo])
    if not p_inf:
        rows = (rows * mu) ** (1.0 / p)
    weights = [2.0 ** ((1 - v + j) * alpha) for j in range(span)]
    terms = np.reshape(weights, (span, 1)) * rows

    # cells m = 0 and m = -1 cross every annulus k <= -v; closed-form tail
    a = mag[0 - lo] if lo <= 0 < hi else np.zeros(M)
    b = mag[-1 - lo] if lo <= -1 < hi else np.zeros(M)
    if p_inf:
        base = np.maximum(a, b)
        glog = alpha            # tail term at k: base * 2^(k*alpha)
        top = base * 2.0 ** (-v * alpha)
    else:
        base = (a ** p + b ** p) ** (1.0 / p)
        glog = alpha + 1.0 / p  # tail term at k: base*2^(-1/p)*2^(k*glog)
        top = base * 2.0 ** (-1.0 / p - v * glog)
    # glog > 0 by admissibility, so the tail is geometric with top term at
    # k = -v and ratio 2^-glog.

    peak = np.maximum(terms.max(axis=0, initial=0.0), top)
    if q_inf:
        return peak
    safe = np.where(peak > 0.0, peak, 1.0)
    s = ((terms / safe) ** q).sum(axis=0)
    s += (top / safe) ** q / (1.0 - 2.0 ** (-glog * q))
    return np.where(peak > 0.0, safe * s ** (1.0 / q), 0.0)


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
        root = np.reshape([s ** (1.0 / q) for s in np.ravel(sums).tolist()],
                          sums.shape)
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


def _reduce_axes(arr, reduce, n):
    """Collapse axis 1, then 2, ..., then n of ``arr``.

    reduce(i, cells) maps the (C, M) cells of axis i (rows along it,
    columns the remaining positions) to the (M,) reduced values.  Axes
    after the n-th survive: returns the array of their shape (0d when
    there are none).
    """
    for i in range(n):
        rest = arr.shape[1:]
        arr = reduce(i, arr.reshape(arr.shape[0], -1)).reshape(rest)
    return arr


def _cells_mixed_herz(arr, los, v, herz):
    """Exact mixed Herz norm of a cell array (side 2^-v, corner index los).

    The first len(los) axes are the cell axes; a trailing axis stacks
    several arrays on the same box and gets one norm per entry.
    """
    return _reduce_axes(arr, lambda i, cells: _axis_reduce_herz(
        cells, los[i], v, herz.p[i], herz.alpha[i], herz.q[i]), len(los))


def magnitude_herz_norms(mags, L, params):
    """magnitude_herz_norm of each of a sequence of same-shape arrays, as an
    (S,) float64 array, bit for bit.

    Each array's axes before its last are reduced on their own, as in
    magnitude_herz_norm; the S last-axis vectors left are stacked as the
    columns of one F-ordered (G, S) array and reduced in one call, each
    column summed as it is alone (see ``_axis_reduce_herz``).  Only those
    vectors are copied.
    """
    n, G = mags[0].ndim, mags[0].shape[0]
    if params.n != n:
        raise ValueError(f"params for n = {params.n}, field has n = {n}")
    v, lo = _log2_exact(G) - _log2_exact(L), -G // 2
    lines = np.stack([_cells_mixed_herz(m, (lo,) * (n - 1), v, params)
                      for m in mags])
    return _axis_reduce_herz(lines.T, lo, v, params.p[-1], params.alpha[-1],
                             params.q[-1])


def magnitude_herz_norm(mag, L, params):
    """mixed_herz_norm of a field of period L whose magnitudes are ``mag``.

    mag : the (G,)^n nonnegative float64 array |f| of a sampled field.
    """
    return float(magnitude_herz_norms([mag], L, params)[0])


def mixed_herz_norm(field, params):
    """Iterated per-axis Herz norm, axis 1 innermost.

    params : HerzParams with params.n == field.n.  Grid cells have side h
    and indices m in [-G/2, G/2) on every axis.
    """
    return magnitude_herz_norm(np.abs(field.values), field.L, params)


def mixed_lebesgue_norm(field, p):
    """Iterated per-axis L^p norm, axis 1 innermost; p is scalar or n-tuple."""
    p = _as_exponent_tuple(p, field.n, "p")

    def reduce(i, mag):
        if math.isinf(p[i]):
            return mag.max(axis=0)
        return (np.sum(mag ** p[i], axis=0) * field.h) ** (1.0 / p[i])

    return float(_reduce_axes(np.abs(field.values), reduce, field.n))
