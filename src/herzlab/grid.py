"""Sampled periodic fields on dyadic grids.

A field lives on the torus [-L/2, L/2)^n sampled at G points per axis,
x_j = -L/2 + j*h with h = L/G.  Values are complex128.  Each sample stands
for the half-open cell [x_j, x_j + h) (left-edge convention), which is what
makes annulus and cube bookkeeping exact: L and G are powers of two, so every
dyadic breakpoint is a cell boundary.

The same container carries spectra: frequencies are xi_m = (m - G/2)*(2*pi/L)
in the same centered layout, and ``spectral_transform`` is the unitary
centered DFT (norm preserved, exact round trip).

The level transforms use numpy's unnormalised DFT of the value array as it
is stored, in native FFT order (frequency index m at position m mod G), on
a band: the centered box |m_i| <= r of width w = 2r + 1, or w = G when the
box covers the grid.  A band crop holds those w^n frequencies, each axis in
the native order of w points (0..r, then -r..-1; see ``band_freqs``).
Since G is even, the DFT of the stored array is the spectrum of the field
times (-1)^(m_1 + ... + m_n); a convolution (multiply, transform back)
cancels that sign, so no shift is needed.  ``band_fft`` and ``band_ifft``
skip the lines a band leaves at zero and give the same bits as
``np.fft.fftn`` cropped and ``np.fft.ifftn`` of the zero-padded crop.
They transform in place (numpy's ``out=``, numpy >= 2.0) every array they
made themselves, and only read the one they are given, which may be
read-only: a pass over the full grid holds one full-grid array, not two.

Every transform indexes its band through ``_band_index`` (one axis) or
``band_box`` (the box), which build each index once per (width, size) or
(width, size, n), keep up to BAND_CACHE of them, and return arrays nothing
can write to, so one shared index serves every caller.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * np.pi

# Band indices kept by ``_band_index`` and by ``band_box``, each; a system
# of K + 1 levels uses a few per level.
BAND_CACHE = 256


def _log2_exact(x):
    """log2 of x, required to be an exact power of two."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{x} is not a power of two")
    e = math.frexp(x)[1] - 1
    if math.ldexp(1.0, e) != x:
        raise ValueError(f"{x} is not a power of two")
    return e


def sealed(values):
    """Mark ``values``, a new array nothing else refers to, read-only.

    ``owned`` keeps such an array as it is; code that builds a stored array
    seals it first and so saves the copy.
    """
    values.flags.writeable = False
    return values


def owned(given, dtype):
    """``given`` as an array nothing can write to, for an object to store.

    The one rule for a field's values and a system's crops.  An array that
    is not writable and views no writable array (``sealed``, or another
    object's stored array) is kept as it is.  Any other is copied, unless
    converting it to ``dtype`` already made a new array, and sealed: the
    caller's array stays writable, and changing it later changes nothing.
    """
    a = view = np.asarray(given, dtype=dtype)
    while isinstance(view, np.ndarray):
        if view.flags.writeable:
            return sealed(a.copy() if a is given or a.base is not None else a)
        view = view.base
    return a


@dataclass(frozen=True)
class SampledField:
    """Complex samples on the torus, in space or frequency domain.

    A field owns its ``values``, stored read-only as complex128 by the rule
    of ``owned``, so that what is derived from a field and kept on it
    (``lpdecomp.level_magnitudes``) cannot go stale.
    """

    n: int
    L: float
    G: int
    values: np.ndarray
    domain: str = "space"

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise ValueError(f"n = {self.n} outside supported range 1..3")
        if self.G < 4 or (self.G & (self.G - 1)) != 0:
            raise ValueError(f"G = {self.G} must be a power of two >= 4")
        _log2_exact(self.L)
        if self.domain not in ("space", "freq"):
            raise ValueError(f"unknown domain {self.domain!r}")
        v = owned(self.values, np.complex128)
        if v.shape != (self.G,) * self.n:
            raise ValueError(f"values shape {v.shape} != {(self.G,) * self.n}")
        object.__setattr__(self, "values", v)

    @property
    def h(self):
        return self.L / self.G

    def axis_coords(self):
        """Sample coordinates along one axis (shared by all axes)."""
        return (np.arange(self.G) - self.G // 2) * self.h

    def with_values(self, values, domain=None):
        return SampledField(self.n, self.L, self.G, values,
                            self.domain if domain is None else domain)


@dataclass(frozen=True)
class DyadicGeometry:
    """Resolvable dyadic index ranges for a grid.

    Annulus indices k with 2^(k-1) <= |x_i| < 2^k run over [k_min, k_max]
    where 2^k_min = h and 2^k_max = L/2; cube levels v (side 2^-v) resolve
    exactly for v <= v_max = log2(G/L).
    """

    k_min: int
    k_max: int
    v_max: int

    @classmethod
    def of(cls, L, G):
        k_min = _log2_exact(L) - _log2_exact(G)
        k_max = _log2_exact(L) - 1
        return cls(k_min=k_min, k_max=k_max, v_max=-k_min)


def check_grid_memory(n, G, fields=1):
    """Reject a grid where ``fields`` complex fields outgrow physical memory.

    fields * G^n samples of 16 bytes are compared with the machine's
    physical memory (os.sysconf), before anything is allocated; where
    sysconf cannot tell, nothing is rejected.  A decomposition kept on a
    field holds more than the field (``lpdecomp.decomposition_fields``).
    """
    need = int(fields * G ** n * 16)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if need > have:
        what = "a field" if fields == 1 else f"{fields:g} field sizes"
        raise ValueError(
            f"{what} of G^n = {G}^{n} samples needs {need} bytes, more than "
            f"the {have} bytes of physical memory")


def make_field(n, L, G, generator=None):
    """Build a SampledField, evaluating ``generator`` at the sample points.

    generator may be None (zero field), an ndarray of matching shape (copied
    as SampledField copies it), or a callable taking n coordinate arrays
    (broadcast meshgrid) and returning values.  The grid's size is checked
    (check_grid_memory) first.
    """
    check_grid_memory(n, G)
    shape = (G,) * n
    if generator is None:
        vals = sealed(np.zeros(shape, dtype=np.complex128))
    elif callable(generator):
        axis = (np.arange(G) - G // 2) * (L / G)
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        vals = np.asarray(generator(*mesh), dtype=np.complex128)
        vals = sealed(np.broadcast_to(vals, shape).copy())
    else:
        vals = np.asarray(generator, dtype=np.complex128).reshape(shape)
    return SampledField(n=n, L=L, G=G, values=vals)


def spectral_transform(field):
    """Unitary centered DFT; applying it twice returns the original field.

    Space -> freq uses the forward transform, freq -> space the inverse.
    For G a multiple of 4 the shift sandwich below is exactly the centered
    DFT sum_j f_j exp(-i xi_m x_j) / G^(n/2).
    """
    scale = float(field.G) ** (field.n / 2.0)
    if field.domain == "space":
        out = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(field.values))) / scale
        return field.with_values(sealed(out), domain="freq")
    out = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(field.values))) * scale
    return field.with_values(sealed(out), domain="space")


def band_freqs(width):
    """Signed frequency of each position of a native-order band crop axis.

    An odd width 2r + 1 gives 0..r, -r..-1; an even width (a whole grid
    axis) gives numpy's fftfreq order 0..w/2 - 1, -w/2..-1.
    """
    freqs = np.arange(width)
    freqs[(width + 1) // 2:] -= width
    return freqs


@functools.lru_cache(maxsize=BAND_CACHE)
def _band_index(width, size):
    """Read-only positions of a band crop axis of ``width`` in ``size``."""
    return sealed(band_freqs(width) % size)


@functools.lru_cache(maxsize=BAND_CACHE)
def band_box(width, size, n):
    """Read-only np.ix_ index of the band of ``width`` in a native (size,)^n
    array."""
    return np.ix_(*[_band_index(width, size)] * n)


def band_fft(values, width):
    """fftn(values) on the centered band box of ``width`` points per axis.

    Each axis, last first as in np.fft.fftn, is transformed on the lines
    still held and then cut to its band, so the next axis transforms only
    band lines.  The first pass reads ``values`` into a new array; every
    later one runs in place on the array made before it.  Returns the
    native-order crop of (min(width, G),)^n.
    """
    out = values
    for axis in reversed(range(values.ndim)):
        out = np.fft.fft(out, axis=axis, out=None if out is values else out)
        size = out.shape[axis]
        if width < size:
            out = out.take(_band_index(width, size), axis=axis)
    return out


def band_ifft(crop, size):
    """ifftn of the (size,)^n spectrum equal to ``crop`` on its band, else 0.

    Axis by axis, last first as in np.fft.ifftn, the crop is scattered into
    zeros along that axis and transformed there; a line the band leaves at
    zero is never transformed, as its transform is zero.  Every array made
    here is transformed in place, and ``crop`` is only read.
    """
    out = crop
    for axis in reversed(range(crop.ndim)):
        width = out.shape[axis]
        if width < size:
            full = np.zeros(out.shape[:axis] + (size,) + out.shape[axis + 1:],
                            dtype=np.complex128)
            full[(slice(None),) * axis + (_band_index(width, size),)] = out
            out = full
        out = np.fft.ifft(out, axis=axis, out=None if out is crop else out)
    return out

