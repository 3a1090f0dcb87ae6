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

import functools
import math
import operator
from types import MappingProxyType

import numpy as np

from .grid import (SampledField, _band_index, band_box, band_fft, band_ifft,
                   sealed)
from .lpdecomp import level_spectra


class CoeffBatch:
    """D sparse dyadic coefficient sets as sorted flat columns.

    The rows are stored as ``index`` (R, n) int64 lattice indices and
    ``value`` (R,) complex128 in blocks: each occupied (set, level) is one
    block, block b being level block_level[b] of set block_set[b], rows
    starts[b]:starts[b+1].  Blocks run by set, then level, rows within a
    block by index in C order (lexicographic), and no index repeats
    within a block.  A set with no coefficients has no block.  Every array
    is read-only.

    The columns are a batch's one stored form.  ``batch_from_levels``
    validates, sorts and de-duplicates many sets at once; iterating a
    batch yields one ``CoeffSeq`` per set, whose columns are views of the
    batch's.  ``magnitudes`` and ``boxes`` are computed on first use and
    kept; the norms of ``seqspace`` plan their stacks per call and keep
    nothing on the batch.
    """

    def _store(self, n, K, L, size, block_set, block_level, starts, index,
               value):
        self.n, self.K, self.L, self._size = n, K, L, size
        self.block_set, self.block_level = block_set, block_level
        self.starts, self.index, self.value = starts, index, value
        for array in (block_set, block_level, starts, index, value):
            sealed(array)
        return self

    @classmethod
    def _of_blocks(cls, n, K, L, size, block_set, block_level, starts,
                   index, value):
        """A batch of columns already in the stored order; nothing is
        checked or copied."""
        return cls.__new__(cls)._store(n, K, L, size, block_set,
                                       block_level, starts, index, value)

    @staticmethod
    def batch_from_levels(n, K, L, sets):
        """A batch of one set per list of (k, pos, values) groups.

        k is a level, pos (H, n) integer lattice indices and values (H,)
        the matching lam[k, m].  Every group is validated, in order, and
        the first bad one raises.  Groups may come in any order and repeat
        a level or an index: the last value given for an index wins within
        its set, and entries of different sets are never merged.
        """
        rows = _checked_rows(n, K, sets)
        return CoeffBatch._of_blocks(n, K, L, len(sets),
                                     *_sorted_blocks(K, *rows))

    def __len__(self):
        return self._size

    def __getitem__(self, d):
        """Set d as a CoeffSeq whose columns are views of the batch's."""
        d = operator.index(d)
        if not 0 <= d < self._size:
            raise IndexError(f"set {d} of a batch of {self._size}")
        a, b = np.searchsorted(self.block_set, [d, d + 1]).tolist()
        r0, r1 = self.starts[[a, b]].tolist()
        return CoeffSeq._of_blocks(
            self.n, self.K, self.L, 1, np.zeros(b - a, np.int64),
            self.block_level[a:b], self.starts[a:b + 1] - r0,
            self.index[r0:r1], self.value[r0:r1])

    def __iter__(self):
        return map(self.__getitem__, range(self._size))

    @functools.cached_property
    def magnitudes(self):
        """|value| of each row, read-only.  np.hypot of the parts equals
        Python's abs of a complex bit for bit; np.abs of complex128 can
        differ in the last bit."""
        return sealed(np.hypot(self.value.real, self.value.imag))

    @functools.cached_property
    def boxes(self):
        """(lo, hi): the (B, n) corner and end indices of each block's
        bounding box, read-only."""
        if not len(self.block_level):
            return (sealed(np.zeros((0, self.n), np.int64)),) * 2
        firsts = self.starts[:-1]
        return (sealed(np.minimum.reduceat(self.index, firsts, axis=0)),
                sealed(np.maximum.reduceat(self.index, firsts, axis=0) + 1))


class CoeffSeq(CoeffBatch):
    """Sparse dyadic coefficients: (level k, lattice index tuple) -> value.

    A set is a batch of one (its blocks are its occupied levels), built by
    ``from_levels``, checked as ``batch_from_levels`` checks.  ``levels()``
    gives views of the columns.  The dict form (``CoeffSeq(n, K, L,
    entries)`` keyed by (k, m), ``entries`` and ``level_entries``) is built
    and read by no program code; it stays for the benchmark's inputs and
    tracer and for the tests.
    """

    def __init__(self, n, K, L, entries):
        # one group per (level, index length) in insertion order: a key's
        # level and length checks depend on those two only, so the first
        # group that fails them starts with the first key that does
        groups = {}
        for (k, m), v in entries.items():
            pos, vals = groups.setdefault((k, len(m)), ([], []))
            pos.append(m)
            vals.append(v)
        groups = [(k, pos, vals) for (k, _), (pos, vals) in groups.items()]
        rows = _checked_rows(n, K, [groups])
        self._store(n, K, L, 1, *_sorted_blocks(K, *rows))

    @classmethod
    def from_levels(cls, n, K, L, groups):
        """A set from (k, pos, values) groups; the array constructor.

        Groups may come in any order and repeat a level or an index: the
        last value given for an index wins.
        """
        rows = _checked_rows(n, K, [groups])
        return cls._of_blocks(n, K, L, 1, *_sorted_blocks(K, *rows))

    @functools.cached_property
    def entries(self):
        """The read-only (k, m) -> complex mapping, built from ``levels``
        on first access, so in lexicographic order."""
        return MappingProxyType({
            (k, m): v for k, pos, vals in self.levels()
            for m, v in zip(map(tuple, pos.tolist()), vals.tolist())})

    def level_entries(self, k):
        return {m: v for (kk, m), v in self.entries.items() if kk == k}

    def levels(self):
        """Occupied levels as read-only views of the columns, in ascending k.

        Returns a new list of (k, pos, values) on each call: pos (H, n)
        int64 lattice indices in lexicographic order, values (H,) complex128
        the matching lam[k, m].
        """
        bounds = self.starts.tolist()
        return [(k, self.index[a:b], self.value[a:b])
                for k, a, b in zip(self.block_level.tolist(), bounds,
                                   bounds[1:])]


def _checked_rows(n, K, sets):
    """The rows of one list of (k, pos, values) groups per set, each group
    checked (see ``_checked_group``), as (runs, index, value) for
    ``_sorted_blocks``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if K < 0:
        raise ValueError("K must be >= 0")
    runs, pos, vals = [], [], []
    for d, groups in enumerate(sets):
        for group in groups:
            k, p, v = _checked_group(*group, n, K)
            if len(v):
                runs.append((d, k, len(v)))
                pos.append(p)
                vals.append(v)
    return (runs, np.concatenate([np.zeros((0, n), np.int64), *pos]),
            np.concatenate([np.zeros(0, np.complex128), *vals]))


def _sorted_blocks(K, runs, index, value):
    """The stored columns (block_set, block_level, starts, index, value) of
    rows given in any order, in runs of one (set, level): runs holds the
    (set, level, count) triple of each run, in row order.

    One stable lexsort orders the rows by set, level and index, and a
    repeated index keeps the last value given for it within its
    (set, level).  Nothing is checked.
    """
    sets, levels, counts = np.array(runs, np.int64).reshape(-1, 3).T
    keys = np.repeat(sets * (K + 1) + levels, counts)
    order = np.lexsort((*index.T[::-1], keys))
    keys, index, value = keys[order], index[order], value[order]
    # a stable sort keeps repeats in the order given: keep the last
    last = np.append((keys[1:] != keys[:-1])
                     | (index[1:] != index[:-1]).any(axis=1), True)
    if not last.all():
        keys, index, value = keys[last], index[last], value[last]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    block_set, block_level = np.divmod(keys[starts], K + 1)
    return (block_set, block_level, np.append(starts, len(keys)), index,
            value)


def _checked_group(k, pos, vals, n, K):
    """A (k, pos, values) group as an int level, (H, n) int64 indices and
    (H,) finite complex128 values, or a ValueError naming the level.

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
    try:
        vals = vals.astype(np.complex128, copy=False)
    except (TypeError, ValueError):  # numpy's message names no level
        raise ValueError(f"level {k} values are not numbers") from None
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
    if not np.isfinite(vals).all():
        raise ValueError(f"level {k} values are not finite")
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
    """Inner products of the field against every lattice translate.

    Each level's values and indices are written into the set's columns as
    they are computed, so the set is built without a second copy.
    """
    n, G, L = field.n, field.G, field.L
    scale = float(G) ** (n / 2.0)
    spectra = level_spectra(field, system)
    sizes = [_lattice(G, L, k) for k in range(system.K + 1)]
    starts = np.cumsum([0, *(N ** n for N, _ in sizes)])
    index = np.empty((starts[-1], n), np.int64)
    value = np.empty(starts[-1], np.complex128)
    for k, spec in enumerate(spectra):
        (N, size), rows = sizes[k], slice(starts[k], starts[k + 1])
        stride = size // N
        small = band_ifft(_fold(spec, size), size) * float(size) ** (n / 2.0)
        lattice = small[(slice(None, None, stride),) * n]
        value[rows] = (lattice * ((field.h * stride) ** (n / 2.0)
                                  / scale)).ravel()
        index[rows] = np.indices((N,) * n).reshape(n, -1).T - N // 2
    return CoeffSeq._of_blocks(n, system.K, L, 1,
                               np.zeros(len(sizes), np.int64),
                               np.arange(len(sizes)), starts, index, value)


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


def _energy(values):
    """sum |values|^2, squared in place: the bits of
    np.sum(np.abs(values) ** 2), as numpy's ``** 2`` is np.square."""
    mag = np.abs(values)
    return float(np.sum(np.square(mag, out=mag)))


def roundtrip_error(field, system):
    """Relative l2 error of synthesize(analyze(f)) against f."""
    ref = math.sqrt(_energy(field.values))
    if ref == 0.0:
        raise ValueError("zero field has no relative error")
    back = synthesize(analyze(field, system), system)
    return math.sqrt(_energy(np.subtract(back.values, field.values))) / ref


COEFF_MAGIC = "herzcoeffs 1"


def save_coeffs(coeffs, path):
    """Text snapshot; %.17g per float round-trips bit-exactly."""
    rows = [f"{k} {' '.join(map(str, m))} {v.real:.17g} {v.imag:.17g}"
            for k, pos, vals in coeffs.levels()
            for m, v in zip(pos.tolist(), vals.tolist())]
    head = f"n={coeffs.n} K={coeffs.K} L={coeffs.L:.17g} count={len(rows)}"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join([COEFF_MAGIC, head, *rows]) + "\n")


def load_coeffs(path):
    """The set of a ``save_coeffs`` snapshot; a ValueError names the
    malformed header field or line.

    Each level's lines form one (k, pos, values) group, the groups in order
    of first appearance, so of two bad levels the first in the file is
    named; a repeated (k, m) keeps the value of its last line.
    """
    with open(path, "r", encoding="ascii") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != COEFF_MAGIC:
            raise ValueError(f"not a coefficient snapshot: {magic!r}")
        fields = {}
        for part in fh.readline().split():
            key, eq, text = part.partition("=")
            if not eq:
                raise ValueError(
                    f"malformed header field {part!r}, expected key=value")
            fields[key] = text
        head = {}
        for key, cast in (("n", int), ("K", int), ("L", float),
                          ("count", int)):
            if key not in fields:
                raise ValueError(f"header has no {key!r} field")
            try:
                head[key] = cast(fields[key])
            except ValueError:
                raise ValueError(
                    f"header field {key}={fields[key]!r} is not a valid "
                    f"{cast.__name__}") from None
        n, L, count = head["n"], head["L"], head["count"]
        if not (math.isfinite(L) and L > 0.0):
            raise ValueError(f"header field L={L!r} must be finite and "
                             f"positive")
        if count < 0:
            raise ValueError(f"header field count={count} must be >= 0")
        groups = {}
        for lineno in range(3, count + 3):
            toks = fh.readline().split()
            if len(toks) != n + 3:
                raise ValueError(f"line {lineno}: {len(toks)} fields, a "
                                 f"coefficient line has {n + 3}")
            try:
                k, m = int(toks[0]), tuple(int(t) for t in toks[1:n + 1])
                v = complex(float(toks[n + 1]), float(toks[n + 2]))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed coefficient line "
                                 f"{' '.join(toks)!r}") from None
            pos, vals = groups.setdefault(k, ([], []))
            pos.append(m)
            vals.append(v)
        for lineno, line in enumerate(fh, count + 3):
            if line.strip():
                raise ValueError(f"line {lineno}: {line.strip()!r} after the "
                                 f"count={count} coefficient lines")
    return CoeffSeq.from_levels(n, head["K"], L, [
        (k, pos, vals) for k, (pos, vals) in groups.items()])
