"""Analysis and synthesis sums over dyadic lattices.

Coefficients live on level lattices 2^-k m, m integer, k = 0..K.  With the
unitary centered transform F_G on the grid (G points per axis, spacing
h = L/G) and real level multipliers M_k:

  analysis:   lam[k, m] = 2^{-k n / 2} * (F_G^-1 [M_k F_G f]) (2^-k m)
  synthesis:  f = sum_k 2^{-k n / 2} h^{-n} F_G^-1 [M_k F_G comb_k],

where comb_k holds lam[k, m] at the grid index of 2^-k m and 0 elsewhere.
The level-k lattice has N = 2^k L points per axis and embeds in the grid
when N divides G, i.e. k <= log2(G / L).  Nonzero spectral copies made by
the lattice subsampling sit 2 pi 2^k apart while the multiplier support
has radius 2^{k+1} < 2 pi 2^k / 2, so no copy overlaps: for fields
band-limited to the system's band the round trip is exact up to rounding.

Both sums are evaluated on each level's own lattice with numpy's
unnormalised DFTs in native order (see ``grid``): D_G on the grid and D_N'
on N' = max(N, 4) points per axis, where the lattice sits at stride
t = N'/N (a sampled field has at least 4 points per axis).  The aliasing
identities of the DFT hold for any multiplier, so nothing is cropped away:

  (D_G^-1 U)[(G / N') j] = (D_N'^-1 fold_N' U)[j]
  D_G (zero-fill c)      = tile_G (D_N' c)

fold_N' sums a spectrum over frequency shifts by multiples of N' on each
axis, tile_G repeats an N'-periodic spectrum over the grid, and zero-fill
puts the N'^n values of c at every (G / N')-th grid point.  The arrays are
stored centered (x = 0 at index G/2), so D_G of a stored field is its
spectrum times (-1)^(m_1 + ... + m_n).  N' is even, so that sign is the
same on every class mod N' that fold and tile combine, and a sign
(-1)^(j_1 + ... + j_n) before a DFT of N' points shifts its output by N'/2:
exactly the shift between the centered and the native layout.  The signs of
the two transforms cancel, and with c_k the (N',)^n array holding lam[k, m]
at (t (m + N/2))_i, both sums need no shift at all:

  lam[k, m] = N'^{n/2} (h t)^{n/2} G^{-n/2}
              (D_N'^-1 fold_N'(M_k D_G f))[t (m + N/2)]
  f         = G^{n/2} D_G^-1 [sum_k (h / t)^{-n/2} N'^{-n/2}
                                 M_k tile_G(D_N' c_k)]

M_k D_G f is computed on level k's band only (lpdecomp.level_spectra); it
is placed in one period when the band fits there and scatter-added when it
does not.  The tiled sum is accumulated on the widest band and transformed
back once (grid.band_ifft).  So each way takes one pruned full-size
transform plus one of N'^n points per level.

Coefficient sets serialise to a line-oriented text format with %.17g
fields, which round-trips complex128 bit-exactly.
"""

import math
import operator
from types import MappingProxyType

import numpy as np

from .grid import (SampledField, _band_index, band_box, band_fft, band_ifft,
                   sealed)
from .lpdecomp import level_spectra


class CoeffSeq:
    """Sparse dyadic coefficients: (level k, lattice index tuple) -> value.

    A set is stored as per-level arrays (see ``levels``).  They are built
    by ``batch_from_levels``, which validates, sorts and de-duplicates many
    sets at once; ``from_levels`` and ``CoeffSeq(n, K, L, entries)``, which
    builds them from a dict keyed by (k, m), are its batch of one.
    ``_of_sorted`` stores groups already in that form without checks.  The
    arrays are the one stored form; ``entries`` is derived from them.
    """

    _entries = None

    def __init__(self, n, K, L, entries=None):
        entries = {} if entries is None else entries
        # one group per (level, index length) in insertion order: a key's
        # level and length checks depend on those two only, so the first
        # group that fails them starts with the first key that does
        groups = {}
        for (k, m), v in entries.items():
            pos, vals = groups.setdefault((k, len(m)), ([], []))
            pos.append(m)
            vals.append(v)
        (built,) = self.batch_from_levels(
            n, K, L, [[(k, pos, vals)
                       for (k, _), (pos, vals) in groups.items()]])
        self.n, self.K, self.L, self._levels = n, K, L, built._levels

    @classmethod
    def from_levels(cls, n, K, L, groups):
        """A set from (k, pos, values) groups; the array constructor.

        k is a level, pos (H, n) integer lattice indices and values (H,) the
        matching lam[k, m].  Groups may come in any order and repeat a level
        or an index: the last value given for an index wins.
        """
        return cls.batch_from_levels(n, K, L, [groups])[0]

    @classmethod
    def batch_from_levels(cls, n, K, L, sets):
        """One set per list of (k, pos, values) groups, as from_levels.

        Every group is validated, in order, and the first bad one raises.
        All entries are then lexsorted once (stable) by set, level and
        index, a repeated index keeps the last value given for it within
        its set, and the result is split into per-set, per-level read-only
        views.  Entries of different sets are never merged.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if K < 0:
            raise ValueError("K must be >= 0")
        keys, pos, vals = [], [], []
        for d, groups in enumerate(sets):
            for group in groups:
                k, p, v = _checked_group(*group, n, K)
                if len(v):
                    # (set, level) as one sort key
                    keys.append(d * (K + 1) + k)
                    pos.append(p)
                    vals.append(v)
        lens = list(map(len, vals))
        keys = np.repeat(np.array(keys, dtype=np.int64), lens)
        pos = np.concatenate([np.zeros((0, n), np.int64), *pos])
        vals = np.concatenate([np.zeros(0, np.complex128), *vals])
        order = np.lexsort((*pos.T[::-1], keys))
        keys, pos, vals = keys[order], pos[order], vals[order]
        # a stable sort keeps repeats in the order given: keep the last
        last = np.append((keys[1:] != keys[:-1])
                         | (pos[1:] != pos[:-1]).any(axis=1), True)
        if not last.all():
            keys, pos, vals = keys[last], pos[last], vals[last]
        pos.flags.writeable = vals.flags.writeable = False
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        bounds = [*starts.tolist(), len(keys)]
        levels = [[] for _ in sets]
        for key, a, b in zip(keys[starts].tolist(), bounds, bounds[1:]):
            d, k = divmod(key, K + 1)
            levels[d].append((k, pos[a:b], vals[a:b]))
        out = []
        for own in levels:
            self = cls.__new__(cls)
            self.n, self.K, self.L, self._levels = n, K, L, own
            out.append(self)
        return out

    @classmethod
    def _of_sorted(cls, n, K, L, groups):
        """A set from (k, pos, values) groups that are already in the stored
        form's order: levels ascending and nonempty, each level's indices
        in C order (lexicographic) without repeats.

        The unchecked twin of ``from_levels`` for builders that make such
        groups by construction (``analyze`` and ``seqspace.lambda_star``):
        nothing is validated, sorted or de-duplicated, and the result is
        the set that ``from_levels`` builds from the same groups.
        """
        levels = []
        for k, pos, vals in groups:
            pos = np.ascontiguousarray(pos, dtype=np.int64)
            vals = np.ascontiguousarray(vals, dtype=np.complex128)
            pos.flags.writeable = vals.flags.writeable = False
            levels.append((int(k), pos, vals))
        self = cls.__new__(cls)
        self.n, self.K, self.L, self._levels = n, K, L, levels
        return self

    @property
    def entries(self):
        """The read-only (k, m) -> complex mapping, built from ``levels``
        on first access, so in lexicographic order."""
        if self._entries is None:
            self._entries = MappingProxyType({
                (k, m): v for k, pos, vals in self._levels
                for m, v in zip(map(tuple, pos.tolist()), vals.tolist())})
        return self._entries

    def level_entries(self, k):
        return {m: v for (kk, m), v in self.entries.items() if kk == k}

    def levels(self):
        """Occupied levels as read-only arrays, in ascending k.

        Returns a list of (k, pos, values): pos (H, n) int64 lattice indices
        in lexicographic order, values (H,) complex128 the matching lam[k, m].
        """
        return self._levels


def _checked_group(k, pos, vals, n, K):
    """A (k, pos, values) group as an int level, (H, n) int64 indices and
    (H,) complex128 values, or a ValueError naming the level.

    A group with no positions and no values is returned as it is, and is
    checked only for an integer level.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"entry level {k!r} is not an integer") from None
    try:
        pos = np.asarray(pos)
    except ValueError:  # numpy's message for ragged rows names no level
        raise ValueError(f"level {k} positions are ragged") from None
    try:
        vals = np.asarray(vals)
    except ValueError:  # numpy's message for ragged values names no level
        raise ValueError(f"level {k} values are ragged") from None
    if vals.dtype == object and any(v is None for v in vals.flat):
        # complex128 would store None as nan
        raise ValueError(f"level {k} values hold None, need numbers")
    vals = vals.astype(np.complex128, copy=False)
    if not pos.size and not vals.size:
        return k, pos, vals
    if not 0 <= k <= K:
        raise ValueError(f"entry level {k} outside 0..{K}")
    if pos.ndim != 2:
        raise ValueError(f"level {k} positions have shape {pos.shape}, "
                         f"need (H, {n})")
    if pos.shape[1] != n:
        raise ValueError(f"entry index {tuple(pos[0].tolist())} is not "
                         f"{n}-dimensional")
    if pos.dtype.kind not in "iu":
        raise ValueError(f"level {k} positions are {pos.dtype}, need "
                         f"integers")
    if vals.shape != (len(pos),):
        raise ValueError(f"level {k} values have shape {vals.shape}, need "
                         f"({len(pos)},)")
    return k, pos.astype(np.int64, copy=False), vals


def lattice_span(L, k):
    """Half-open integer index range [-2^k L / 2, 2^k L / 2) per axis."""
    half = (1 << k) * L / 2.0
    if half != int(half) or int(half) < 1:
        raise ValueError(f"level {k} lattice does not tile the period L = {L}")
    return int(half)


def _lattice(G, L, k):
    """The level-k lattice size N and the transform size N' = max(N, 4).

    N = 2^k L must divide G so that the lattice embeds in the grid.
    """
    N = 2 * lattice_span(L, k)
    if G % N:
        raise ValueError(
            f"level {k} lattice (spacing 2^-{k}) does not embed in the grid "
            f"(h = {L / G:g})")
    return N, max(N, 4)


def _fold(crop, size):
    """Sum a native-order band crop over frequency shifts by multiples of size.

    Returns the aliased spectrum in native (size,)^n order.  An axis whose
    band fits in one period is placed as it is; a wider one is scatter-added.
    """
    for axis in range(crop.ndim):
        width = crop.shape[axis]
        out = np.zeros(crop.shape[:axis] + (size,) + crop.shape[axis + 1:],
                       dtype=np.complex128)
        index = (slice(None),) * axis + (_band_index(width, size),)
        if width <= size:
            out[index] = crop
        else:
            np.add.at(out, index, crop)
        crop = out
    return crop


def analyze(field, system):
    """Inner products of the field against every lattice translate."""
    n, G, L = field.n, field.G, field.L
    scale = float(G) ** (n / 2.0)
    levels = []
    for k, spec in enumerate(level_spectra(field, system)):
        N, size = _lattice(G, L, k)
        stride = size // N
        small = band_ifft(_fold(spec, size), size) * float(size) ** (n / 2.0)
        lattice = small[(slice(None, None, stride),) * n]
        vals = (lattice * ((field.h * stride) ** (n / 2.0) / scale)).ravel()
        pos = np.indices((N,) * n).reshape(n, -1).T - N // 2
        levels.append((k, pos, vals))
    return CoeffSeq._of_sorted(n, system.K, L, levels)


def synthesize(coeffs, system):
    """Weighted sum of lattice translates of the synthesis kernels."""
    if (coeffs.n, coeffs.L, coeffs.K) != (system.n, system.L, system.K):
        raise ValueError("coefficient set does not match the system")
    n, G, L = system.n, system.G, system.L
    h, width = L / G, system.width
    scale = float(G) ** (n / 2.0)
    acc = np.zeros((width,) * n, dtype=np.complex128)
    for k, pos, vals in coeffs.levels():
        N, size = _lattice(G, L, k)
        half, stride = N // 2, size // N
        outside = np.any((pos < -half) | (pos >= half), axis=1)
        if outside.any():
            m = tuple(pos[outside.argmax()].tolist())
            raise ValueError(f"lattice index {m} outside level {k} span")
        comb = np.zeros((size,) * n, dtype=np.complex128)
        comb[(slice(None, None, stride),) * n][tuple((pos + half).T)] += vals
        small = (band_fft(comb, size) / float(size) ** (n / 2.0)
                 * ((h / stride) ** (-n / 2.0) * scale))
        crop = system.crops[k]
        acc[band_box(crop.shape[0], width, n)] += (
            crop * small[band_box(crop.shape[0], size, n)])
    return SampledField(n, L, G, sealed(band_ifft(acc, G)))


def roundtrip_error(field, system):
    """Relative l2 error of synthesize(analyze(f)) against f."""
    ref = math.sqrt(float(np.sum(np.abs(field.values) ** 2)))
    if ref == 0.0:
        raise ValueError("zero field has no relative error")
    back = synthesize(analyze(field, system), system)
    diff = math.sqrt(float(np.sum(np.abs(back.values - field.values) ** 2)))
    return diff / ref


COEFF_MAGIC = "herzcoeffs 1"


def parse_header(line, casts):
    """The key=value fields of a coefficient snapshot's header line,
    converted.

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


def save_coeffs(coeffs, path):
    """Text snapshot; %.17g per float round-trips bit-exactly."""
    rows = [f"{k} {' '.join(map(str, m))} {v.real:.17g} {v.imag:.17g}"
            for k, pos, vals in coeffs.levels()
            for m, v in zip(pos.tolist(), vals.tolist())]
    head = f"n={coeffs.n} K={coeffs.K} L={coeffs.L:.17g} count={len(rows)}"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join([COEFF_MAGIC, head, *rows]) + "\n")


def load_coeffs(path):
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != COEFF_MAGIC:
            raise ValueError(f"not a coefficient snapshot: {magic!r}")
        head = parse_header(fh.readline(),
                            {"n": int, "K": int, "L": float, "count": int})
        n = head["n"]
        entries = {}
        for lineno in range(3, head["count"] + 3):
            toks = fh.readline().split()
            if len(toks) != n + 3:
                raise ValueError(f"line {lineno}: {len(toks)} fields, a "
                                 f"coefficient line has {n + 3}")
            try:
                key = (int(toks[0]), tuple(int(t) for t in toks[1:n + 1]))
                entries[key] = complex(float(toks[n + 1]), float(toks[n + 2]))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed coefficient line "
                                 f"{' '.join(toks)!r}") from None
    return CoeffSeq(n, head["K"], head["L"], entries)
