"""Sequence-space norms over dyadic cell lattices.

A coefficient lam[k, m] carries the normalised indicator 2^{k n / 2} of the
cell 2^-k (m + [0, 1)^n).  Level carriers g_k = sum_m |lam[k, m]| 2^{k n / 2}
chi_{k,m} are piecewise constant on dyadic cells, so their mixed Herz norms
are computed by the same exact measure arithmetic as sampled fields, with
no sampling step:

  b-norm: l^beta over k of 2^{k s} * herz(g_k)
  f-norm: herz of (sum_k (2^{k s} g_k)^beta)^(1/beta), assembled exactly on
          the finest occupied level's tiling.

lambda_star is the discretised peak majorant
(sum_h |lam[k, h]|^r (1 + |h - m|)^-d)^(1/r) per level, evaluated on the
occupied bounding box dilated by a window margin; r = inf takes the sup
form.  The window is a truncation, so callers gauge it by doubling.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .frames import CoeffSeq
from .herz import HerzParams, _cells_mixed_herz, lq_combine


@dataclass(frozen=True)
class SeqSpaceParams:
    """Herz layer plus smoothness s and level exponent beta for sequences."""

    herz: HerzParams
    s: float
    beta: float
    family: str

    def __post_init__(self):
        if self.family not in ("b", "f"):
            raise ValueError("family must be 'b' or 'f'")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.family == "f":
            for name, vec in (("p", self.herz.p), ("q", self.herz.q)):
                if any(math.isinf(e) for e in vec):
                    raise ValueError(
                        f"family 'f' requires finite {name}, got {vec}")


def _level_mags(coeffs):
    """Per-level (k, pos, |lam|) of a coefficient set, in ascending k.

    Magnitudes are np.hypot of the parts, which equals Python's abs of a
    complex bit for bit; np.abs of complex128 can differ in the last bit.
    """
    return [(k, pos, np.hypot(vals.real, vals.imag))
            for k, pos, vals in coeffs.levels()]


def _level_block(pos, values):
    """One level's values on its bounding box, and the box's corner index."""
    los = pos.min(axis=0)
    arr = np.zeros(tuple(pos.max(axis=0) + 1 - los))
    arr[tuple((pos - los).T)] = values
    return arr, los


def b_norm(coeffs, params):
    """l^beta over levels of weighted exact cell-carrier Herz norms."""
    if params.herz.n != coeffs.n:
        raise ValueError(f"params for n = {params.herz.n}, coeffs have n = {coeffs.n}")
    n = coeffs.n
    terms = np.zeros(coeffs.K + 1)
    for k, pos, mag in _level_mags(coeffs):
        arr, los = _level_block(pos, mag)
        t = _cells_mixed_herz(arr, los, k, params.herz)
        terms[k] = 2.0 ** (k * (params.s + n / 2.0)) * t
    return lq_combine(terms, params.beta)


def _f_envelope(coeffs, params):
    """The l^beta envelope across levels, on the finest occupied tiling.

    Each level is painted on its bounding box, upsampled to finest cells
    and added in ascending k.  Each coefficient's power is taken with
    Python's float power (libm pow), as in a per-entry painting; numpy's
    vectorised power can differ from it in the last bit.  Returns the
    envelope, its corner index and the finest level.
    """
    n = coeffs.n
    levels = _level_mags(coeffs)
    vf = levels[-1][0]
    beta = params.beta
    blocks = []
    for k, pos, mag in levels:
        contrib = 2.0 ** (k * (params.s + n / 2.0)) * mag
        if not math.isinf(beta):
            contrib = np.array([c ** beta for c in contrib.tolist()])
        arr, lo = _level_block(pos, contrib)
        blocks.append((1 << (vf - k), arr, lo))
    # union bounding box, in finest-level indices
    los = np.min([lo * scale for scale, _, lo in blocks], axis=0)
    his = np.max([(lo + arr.shape) * scale for scale, arr, lo in blocks],
                 axis=0)
    env = np.zeros(tuple(his - los))
    for scale, arr, lo in blocks:
        for axis in range(n):
            arr = np.repeat(arr, scale, axis=axis)
        region = env[tuple(slice(a, a + s) for a, s in
                           zip(lo * scale - los, arr.shape))]
        if math.isinf(beta):
            np.maximum(region, arr, out=region)
        else:
            region += arr
    if not math.isinf(beta):
        env = env ** (1.0 / beta)
    return env, los, vf


def f_norm(coeffs, params):
    """Herz norm of the pointwise l^beta envelope across levels.

    The envelope is assembled exactly on the finest occupied level: each
    coefficient cell covers a full block of finest cells.
    """
    if params.family != "f":
        raise ValueError("f_norm needs family 'f' parameters")
    if params.herz.n != coeffs.n:
        raise ValueError(f"params for n = {params.herz.n}, coeffs have n = {coeffs.n}")
    if not coeffs.entries:
        return 0.0
    return _cells_mixed_herz(*_f_envelope(coeffs, params), params.herz)


def seq_norm(coeffs, params):
    if params.family == "b":
        return b_norm(coeffs, params)
    return f_norm(coeffs, params)


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
    n = coeffs.n
    entries = {}
    for k, pos, mag in _level_mags(coeffs):
        los = pos.min(axis=0)
        his = pos.max(axis=0) + 1
        axes = [np.arange(lo - window, hi + window, dtype=np.int64)
                for lo, hi in zip(los, his)]
        mesh = np.meshgrid(*axes, indexing="ij")
        targets = np.stack([m.ravel() for m in mesh], axis=1)
        if math.isinf(r):
            out = _accel.lambda_star_max(mag, pos, targets, float(d))
        else:
            out = _accel.lambda_star_sum(mag ** r, pos, targets, float(d)) \
                ** (1.0 / r)
        keys = ((k, tuple(m)) for m in targets.tolist())
        entries.update(zip(keys, map(complex, out.tolist())))
    return CoeffSeq(n, coeffs.K, coeffs.L, entries)


@dataclass(frozen=True)
class RearrangedProfile:
    """Decreasing rearrangement as a step profile: values with widths."""

    values: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        w = np.asarray(self.widths, dtype=np.float64)
        if v.shape != w.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("values and widths must be matching 1d arrays")
        if np.any(v < 0.0) or np.any(w <= 0.0):
            raise ValueError("values must be >= 0 and widths > 0")
        order = np.argsort(-v, kind="stable")
        object.__setattr__(self, "values", v[order])
        object.__setattr__(self, "widths", w[order])

    @classmethod
    def from_field(cls, field):
        mags = np.abs(field.values).ravel()
        return cls(mags, np.full(mags.shape, field.h ** field.n))

    def total_width(self):
        return float(self.widths.sum())

    def value_at(self, t):
        """f*(t): the value on the step containing measure t."""
        if t < 0.0:
            raise ValueError("t must be >= 0")
        cum = np.cumsum(self.widths)
        i = int(np.searchsorted(cum, t, side="right"))
        return float(self.values[i]) if i < self.values.size else 0.0

    def lp_norm(self, p):
        if math.isinf(p):
            return float(self.values[0])
        return float(np.sum(self.values ** p * self.widths)) ** (1.0 / p)

    def dyadic_sum(self, p):
        """(sum_j 2^j f*(2^j)^p)^(1/p) over all integers j, exactly.

        For 2^j below the first step width f* is constant, so that tail is
        the closed form 2^(j0+1) f*(0)^p; the rest is a finite sum.
        """
        if math.isinf(p):
            return float(self.values[0])
        v0 = float(self.values[0])
        if v0 == 0.0:
            return 0.0
        w0 = float(self.widths[0])
        j0 = math.floor(math.log2(w0))
        if 2.0 ** j0 >= w0:
            j0 -= 1
        total = self.total_width()
        acc = 2.0 ** (j0 + 1) * v0 ** p
        j = j0 + 1
        while 2.0 ** j < total:
            acc += 2.0 ** j * self.value_at(2.0 ** j) ** p
            j += 1
        return acc ** (1.0 / p)
