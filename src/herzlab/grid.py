"""Sampled periodic fields on dyadic grids.

A field lives on the torus [-L/2, L/2)^n sampled at G points per axis,
x_j = -L/2 + j*h with h = L/G.  Values are complex128.  Each sample stands
for the half-open cell [x_j, x_j + h) (left-edge convention), which is what
makes annulus and cube bookkeeping exact: L and G are powers of two, so every
dyadic breakpoint is a cell boundary.

The same container carries spectra: frequencies are xi_m = (m - G/2)*(2*pi/L)
in the same centered layout, and ``spectral_transform`` is the unitary
centered DFT (norm preserved, exact round trip).
"""

from dataclasses import dataclass

import numpy as np

TAU = 2.0 * np.pi


def _log2_exact(x):
    """log2 of x, required to be an exact power of two."""
    e = int(round(np.log2(x)))
    if 2.0 ** e != x:
        raise ValueError(f"{x} is not a power of two")
    return e


@dataclass(frozen=True)
class SampledField:
    """Complex samples on the torus, in space or frequency domain."""

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
    def of(cls, field):
        k_min = _log2_exact(field.L) - _log2_exact(field.G)
        k_max = _log2_exact(field.L) - 1
        return cls(k_min=k_min, k_max=k_max, v_max=-k_min)


def make_field(n, L, G, generator=None, domain="space"):
    """Build a SampledField, evaluating ``generator`` at the sample points.

    generator may be None (zero field), an ndarray of matching shape, or a
    callable taking n coordinate arrays (broadcast meshgrid) and returning
    values.
    """
    shape = (G,) * n
    if generator is None:
        vals = np.zeros(shape, dtype=np.complex128)
    elif callable(generator):
        axis = (np.arange(G) - G // 2) * (L / G)
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        vals = np.asarray(generator(*mesh), dtype=np.complex128)
        vals = np.broadcast_to(vals, shape).copy()
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
        return field.with_values(out, domain="freq")
    out = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(field.values))) * scale
    return field.with_values(out, domain="space")


def annulus_mask_axis(field, axis, k):
    """Boolean mask over one axis: samples with 2^(k-1) <= |x_i| < 2^k.

    Membership is by the sample coordinate (cell left edge), half-open as in
    the annulus definition, so masks for different k are disjoint and cover
    every sample with h <= |x_i| < L/2.  Returns a 1d (G,) array; reshape
    with :func:`broadcast_axis` to apply along ``axis``.
    """
    del axis  # every axis shares the same coordinate layout
    x = np.abs(field.axis_coords())
    return (2.0 ** (k - 1) <= x) & (x < 2.0 ** k)


def broadcast_axis(mask, n, axis):
    """View a per-axis 1d mask as an n-d broadcastable array."""
    shape = [1] * n
    shape[axis] = mask.shape[0]
    return mask.reshape(shape)


def cube_indicator(field, v, m):
    """Indicator field of the dyadic cube 2^-v * ([0,1)^n + m).

    m is an n-tuple of integers.  Exact (cells nest in the cube) whenever
    v <= v_max; coarser queries still use left-edge membership.
    """
    m = tuple(int(t) for t in m)
    if len(m) != field.n:
        raise ValueError(f"cube index {m} has wrong dimension for n = {field.n}")
    side = 2.0 ** (-v)
    x = field.axis_coords()
    vals = np.ones((field.G,) * field.n, dtype=np.complex128)
    for axis, mi in enumerate(m):
        hit = (x >= side * mi) & (x < side * (mi + 1))
        vals = vals * broadcast_axis(hit.astype(np.complex128), field.n, axis)
    return field.with_values(vals)


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
    return SampledField(n=n, L=L, G=G, values=vals.reshape((G,) * n),
                        domain=header["domain"])
