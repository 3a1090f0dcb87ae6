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
"""

import os
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * np.pi


def _log2_exact(x):
    """log2 of x, required to be an exact power of two."""
    if not 0.0 < x < np.inf:
        raise ValueError(f"{x} is not a power of two")
    e = int(round(np.log2(x)))
    if 2.0 ** e != x:
        raise ValueError(f"{x} is not a power of two")
    return e


def _frozen(a):
    """Whether nothing can write to array a: no array it views is writable."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


def sealed(values):
    """Mark ``values``, a new array nothing else refers to, read-only.

    A SampledField stores such an array as it is; code that builds a field
    from an array it has just made seals it first and so saves the copy.
    """
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class SampledField:
    """Complex samples on the torus, in space or frequency domain.

    A field owns its ``values``, stored read-only as complex128, so that
    what is derived from a field and kept on it
    (``lpdecomp.level_magnitudes``) cannot go stale.  An array that can
    still be written to (the caller's, or a view of it) is copied; it stays
    writable, and changing it later does not change the field.  An array
    nothing can write to (``sealed``, or another field's values) is stored
    without a copy.
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
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.G,) * self.n:
            raise ValueError(f"values shape {v.shape} != {(self.G,) * self.n}")
        if not _frozen(v):
            if v is self.values or v.base is not None:
                v = v.copy()
            v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def h(self):
        return self.L / self.G

    def axis_coords(self):
        """Sample coordinates along one axis (shared by all axes)."""
        return (np.arange(self.G) - self.G // 2) * self.h

    def axis_freqs(self):
        """Frequency values along one axis, centered layout."""
        return (np.arange(self.G) - self.G // 2) * (TAU / self.L)

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


def make_field(n, L, G, generator=None, domain="space"):
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
    return SampledField(n=n, L=L, G=G, values=vals, domain=domain)


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


def band_box(width, size, n):
    """np.ix_ index of the band of ``width`` in a native (size,)^n array."""
    return np.ix_(*[band_freqs(width) % size] * n)


def band_fft(values, width):
    """fftn(values) on the centered band box of ``width`` points per axis.

    Each axis, last first as in np.fft.fftn, is transformed on the lines
    still held and then cut to its band, so the next axis transforms only
    band lines.  Returns the native-order crop of (min(width, G),)^n.
    """
    out = values
    for axis in reversed(range(values.ndim)):
        out = np.fft.fft(out, axis=axis)
        size = out.shape[axis]
        if width < size:
            out = out.take(band_freqs(width) % size, axis=axis)
    return out


def band_ifft(crop, size):
    """ifftn of the (size,)^n spectrum equal to ``crop`` on its band, else 0.

    Axis by axis, last first as in np.fft.ifftn, the crop is scattered into
    zeros along that axis and transformed there; a line the band leaves at
    zero is never transformed, as its transform is zero.
    """
    out = crop
    for axis in reversed(range(crop.ndim)):
        width = out.shape[axis]
        if width < size:
            full = np.zeros(out.shape[:axis] + (size,) + out.shape[axis + 1:],
                            dtype=np.complex128)
            full[(slice(None),) * axis + (band_freqs(width) % size,)] = out
            out = full
        out = np.fft.ifft(out, axis=axis)
    return out


SNAPSHOT_MAGIC = "herzfield 1"


def save_field(field, path):
    """Write a textual snapshot: magic, header, one 're im' line per sample.

    Floats use 17 significant digits, so load(save(f)) is bit exact and the
    file is locale independent.
    """
    flat = field.values.ravel(order="C")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(SNAPSHOT_MAGIC + "\n")
        fh.write("n=%d L=%.17g G=%d domain=%s\n"
                 % (field.n, field.L, field.G, field.domain))
        for z in flat:
            fh.write("%.17g %.17g\n" % (z.real, z.imag))


def parse_header(line, casts):
    """The key=value fields of a snapshot header line, converted.

    casts maps each required key to its converter; a ValueError names the
    malformed, missing or unconvertible field.
    """
    fields = {}
    for part in line.split():
        key, eq, text = part.partition("=")
        if not eq:
            raise ValueError(
                f"malformed header field {part!r}, expected key=value")
        fields[key] = text
    out = {}
    for key, cast in casts.items():
        if key not in fields:
            raise ValueError(f"header has no {key!r} field")
        try:
            out[key] = cast(fields[key])
        except ValueError:
            raise ValueError(
                f"header field {key}={fields[key]!r} is not a valid "
                f"{cast.__name__}") from None
    return out


def load_field(path):
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().strip()
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a field snapshot: bad magic {magic!r}")
        header = parse_header(fh.readline(),
                              {"n": int, "L": float, "G": int, "domain": str})
        n, L, G = header["n"], header["L"], header["G"]
        count = G ** n
        vals = np.empty(count, dtype=np.complex128)
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise ValueError(f"snapshot truncated at sample {i}")
            try:
                vals[i] = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ValueError(f"line {i + 3}: malformed sample "
                                 f"{' '.join(parts)!r}") from None
    return SampledField(n=n, L=L, G=G, values=sealed(vals).reshape((G,) * n),
                        domain=header["domain"])
