"""Axiswise maximal averages and the bounds built on them.

The centered maximal function along one axis takes, per 1d line, the
largest average of 2w+1 consecutive samples over half-widths w; w = 0 is
the sample itself, so M f >= |f| pointwise.  Windows wrap periodically
with multiplicity, which only enlarges M, so upper-bound checks run
conservative.  For continuum comparisons the window of half-width w
covers the cell interval of radius (w + 1/2) h around the sample's cell.

fs_vector_check measures the vector-valued bound: the Herz norm of the
l^beta envelope of iterated maximal functions against that of the inputs.
Its hypotheses (-1/p_i < alpha_i < 1 - 1/p_i per axis and
0 < t < min(beta, p_i, q_i)) are enforced, not assumed.  Inputs must be
supported in a quarter period per axis so annulus geometry is not
distorted by wrap-around.

rtrick_check measures the pointwise domination of a band-limited field by
the smoothed average (eta_R,N * |g|^r)^(1/r) with the product kernel
eta_R,N(x) = R^n prod_i (1 + R |x_i|)^(-N/n).
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
from .grid import spectral_transform
from .herz import HypothesisError, _inv, lq_envelope, mixed_herz_norm


def _maximal_along(mag, axis, widths):
    """Centered maximal average of a float array along one of its axes."""
    G = mag.shape[axis]
    if widths is None:
        widths = np.arange(0, G // 2 + 1, dtype=np.int64)
    else:
        widths = np.asarray(widths, dtype=np.int64)
    moved = np.moveaxis(mag, axis, -1)
    rows = np.ascontiguousarray(moved).reshape(-1, G)
    out = _accel.maximal_rows(rows, widths)
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def _iterated_rows(mags, n, t, widths):
    """(M_n ... M_1 mags^t)^(1/t) over the last n axes of a stack of fields.

    Each axis takes one maximal_rows call over the rows of every field.
    """
    g = mags ** t
    for axis in range(mags.ndim - n, mags.ndim):
        g = _maximal_along(g, axis, widths)
    return g ** (1.0 / t)


def axis_maximal(field, axis, widths=None):
    """Centered maximal average along one axis; all half-widths by default."""
    out = _maximal_along(np.abs(field.values), axis, widths)
    return field.with_values(out.astype(np.complex128))


def iterated_maximal(field, t, widths=None):
    """(M_n ... M_1 |f|^t)^(1/t), the per-axis composition."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    out = _iterated_rows(np.abs(field.values), field.n, t, widths)
    return field.with_values(out.astype(np.complex128))


def _support_guard(field):
    mags = np.abs(field.values)
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
    return fields[0].with_values(acc.astype(np.complex128))


def fs_vector_check(fields, herz, beta, t, widths=None):
    """Ratio of Herz norms: maximal envelope over input envelope.

    Raises HypothesisError outside the vector maximal bound's range.
    """
    for i, (p, a) in enumerate(zip(herz.p, herz.alpha)):
        if not (-_inv(p) < a < 1.0 - _inv(p)):
            raise HypothesisError(
                f"alpha[{i}] = {a} outside (-1/p, 1 - 1/p) = "
                f"({-_inv(p)}, {1.0 - _inv(p)})")
    cap = min(herz.p_minus(), herz.q_minus(), beta)
    if not 0.0 < t < cap:
        raise HypothesisError(
            f"t = {t} outside (0, min(p, q, beta)) = (0, {cap})")
    if not fields:
        raise ValueError("need at least one field")
    for f in fields:
        _support_guard(f)
    stack = _iterated_rows(np.stack([np.abs(f.values) for f in fields]),
                           fields[0].n, t, widths)
    maxed = [f.with_values(m.astype(np.complex128))
             for f, m in zip(fields, stack)]
    num = mixed_herz_norm(envelope(maxed, beta), herz)
    den = mixed_herz_norm(envelope(fields, beta), herz)
    if den == 0.0:
        raise ValueError("zero input family")
    return {"numerator": num, "denominator": den, "ratio": num / den,
            "t": t, "beta": beta, "count": len(fields)}


@dataclass(frozen=True)
class EtaKernel:
    """Product kernel R^n prod_i (1 + R |x_i|)^(-N/n) sampled on a grid."""

    R: float
    N: float

    def sample(self, field):
        if not self.R > 0.0 or not self.N > 0.0:
            raise ValueError("R and N must be positive")
        per = self.N / field.n
        vals = np.ones((field.G,) * field.n)
        x = np.abs(field.axis_coords())
        for axis in range(field.n):
            shape = [1] * field.n
            shape[axis] = field.G
            vals = vals * (self.R * (1.0 + self.R * x) ** (-per)).reshape(shape)
        return field.with_values(vals.astype(np.complex128))


def convolve(field, kernel_field):
    """Cyclic grid convolution sum_y k(x - y) f(y) h^n via the transform."""
    fs = spectral_transform(field)
    ks = spectral_transform(kernel_field)
    prod = fs.with_values(fs.values * ks.values *
                          field.G ** (field.n / 2.0) * field.h ** field.n)
    return spectral_transform(prod)


def rtrick_check(field, level, m_exp, r):
    """Smallest ratio (eta * |g|^r)^(1/r) / |g| over significant samples.

    eta has scale R = 2^level and total decay m_exp (per-axis m_exp / n);
    m_exp > n is required for integrability.  The reported margin should
    stay of order one as the level moves with the field's spectral level.
    """
    if m_exp <= field.n:
        raise HypothesisError(
            f"decay m = {m_exp} must exceed the dimension n = {field.n}")
    if not r > 0.0:
        raise ValueError("r must be positive")
    eta = EtaKernel(2.0 ** level, float(m_exp)).sample(field)
    mag = np.abs(field.values)
    conv = convolve(field.with_values((mag ** r).astype(np.complex128)), eta)
    smooth = np.maximum(conv.values.real, 0.0) ** (1.0 / r)
    peak = mag.max()
    if peak == 0.0:
        raise ValueError("zero field")
    sel = mag >= 1e-6 * peak
    margin = float((smooth[sel] / mag[sel]).min())
    return {"margin": margin, "level": level, "m": m_exp, "r": r,
            "significant": int(sel.sum())}
