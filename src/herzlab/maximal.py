"""Axiswise maximal averages and the bounds built on them.

The centered maximal function along one axis takes, per 1d line, the
largest average of 2w+1 consecutive samples over half-widths w = 0..G/2;
w = 0 is the sample itself, so M f >= |f| pointwise.  Windows wrap
periodically with multiplicity, which only enlarges M, so upper-bound
checks run conservative.  For continuum comparisons the window of half-width w
covers the cell interval of radius (w + 1/2) h around the sample's cell.
Every axis is one ``_accel.maximal_rows`` call on the nonnegative
magnitudes (or their t-th powers), over the rows of every field of a
family, with the half-widths 0..G/2, the one set it takes.  It scans
blocks of consecutive widths, a few numpy calls per block; it skips rows
that are all zero and, at each width, the windows that gain only zeros,
with the output bits of the full scan, so a family supported on a small
part of the grid costs less than a dense one.

fs_vector_check measures the vector-valued bound: the Herz norm of the
l^beta envelope of iterated maximal functions against that of the inputs,
the two norms taken in one herz.magnitude_herz_norms call.
Its hypotheses, 0 < t < min(beta, p_i, q_i) and
-1/p_i < alpha_i < 1/t - 1/p_i per axis, are enforced, not assumed.  The
alpha range is the Herz bound for M (-1/p < alpha < 1 - 1/p) carried over
by f -> |f|^t, which maps K^alpha_{p,q} onto K^{t alpha}_{p/t,q/t}; it is
compared exactly, with each exponent read by ``herz._rational``.  Inputs
must be supported in a quarter period per axis so annulus geometry is not
distorted by wrap-around.
"""

import numpy as np

from . import _accel
from .grid import sealed
from .herz import (HypothesisError, _inv, _rational, lq_envelope,
                   magnitude_herz_norms)


def _maximal_along(mag, axis):
    """Centered maximal average of a float array along one of its axes,
    over the half-widths 0..G/2."""
    G = mag.shape[axis]
    moved = np.moveaxis(mag, axis, -1)
    rows = np.ascontiguousarray(moved).reshape(-1, G)
    out = _accel.maximal_rows(rows, np.arange(0, G // 2 + 1, dtype=np.int64))
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def _iterated_rows(mags, n, t):
    """(M_n ... M_1 mags^t)^(1/t) over the last n axes of a stack of fields.

    Each axis takes one maximal_rows call over the rows of every field.
    """
    g = mags ** t
    for axis in range(mags.ndim - n, mags.ndim):
        g = _maximal_along(g, axis)
    return g ** (1.0 / t)


def iterated_maximal(field, t):
    """(M_n ... M_1 |f|^t)^(1/t), the per-axis composition."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    out = _iterated_rows(np.abs(field.values), field.n, t)
    return field.with_values(sealed(out.astype(np.complex128)))


def _support_guard(field, mags):
    """Reject a field (magnitudes mags) reaching beyond a quarter period."""
    peak = mags.max()
    if peak == 0.0:
        return
    live = mags > 1e-13 * peak
    x = field.axis_coords()
    for axis in range(field.n):
        hit = np.moveaxis(live, axis, 0).reshape(field.G, -1).any(axis=1)
        span = np.abs(x[hit])
        if span.size and span.max() > field.L / 8.0:
            raise ValueError(
                f"support exceeds a quarter period along axis {axis}; "
                "wrap-around would distort the annulus geometry")


def envelope(fields, beta):
    """Pointwise l^beta magnitude envelope of a family of fields."""
    if not fields:
        raise ValueError("need at least one field")
    acc = lq_envelope((np.abs(f.values) for f in fields), beta)
    return fields[0].with_values(sealed(acc.astype(np.complex128)))


def fs_vector_check(fields, herz, beta, t):
    """Ratio of Herz norms: maximal envelope over input envelope.

    Raises HypothesisError outside the vector maximal bound's range.
    """
    if not beta > 0.0:
        raise HypothesisError(f"beta = {beta} must be positive")
    cap = min(*herz.p, *herz.q, beta)
    if not 0.0 < t < cap:
        raise HypothesisError(
            f"t = {t} outside (0, min(p, q, beta)) = (0, {cap})")
    for i, (p, a) in enumerate(zip(herz.p, herz.alpha)):
        inv_p = _rational(_inv(p))
        if not -inv_p < _rational(a) < _rational(_inv(t)) - inv_p:
            raise HypothesisError(
                f"alpha[{i}] = {a} outside (-1/p, 1/t - 1/p) = "
                f"({-_inv(p)}, {_inv(t) - _inv(p)}) at p[{i}] = {p}, "
                f"t = {t}")
    if not fields:
        raise ValueError("need at least one field")
    mags = np.stack([np.abs(f.values) for f in fields])
    for f, m in zip(fields, mags):
        _support_guard(f, m)
    L = fields[0].L
    num, den = magnitude_herz_norms(
        [lq_envelope(_iterated_rows(mags, fields[0].n, t), beta),
         lq_envelope(mags, beta)], L, herz).tolist()
    if den == 0.0:
        raise ValueError("zero input family")
    return {"numerator": num, "denominator": den, "ratio": num / den,
            "t": t, "beta": beta, "count": len(fields)}
