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

Both sums are evaluated on each level's own N^n lattice.  The aliasing
identities of the DFT hold for any multiplier, so nothing is cropped:

  (F_G^-1 U)(2^-k m) = (N / G)^{n/2} (F_N^-1 fold_N U)[m + N/2]
  F_G comb_k         = (N / G)^{n/2} tile_G (F_N c_k)

fold_N sums the centered spectrum over index shifts by multiples of N on
each axis, tile_G repeats an N-periodic spectrum over the grid, and c_k is
the (N,)^n array holding lam[k, m] at m + N/2.  With 2^{-k} (N / G) = h:

  lam[k, m] = h^{n/2} (F_N^-1 fold_N(M_k F_G f))[m + N/2]
  f         = F_G^-1 [h^{-n/2} sum_k M_k tile_G(F_N c_k)]

which is one full-size transform each way plus one of size N^n per level.
A sampled field has at least 4 points per axis, so a level with N < 4 is
folded or tiled to N' = 4 with its lattice at stride t = N'/N, and the
constants become (h t)^{n/2} and (h / t)^{-n/2}.

Coefficient sets serialise to a line-oriented text format with %.17g
fields, which round-trips complex128 bit-exactly.
"""

import itertools
import math
from operator import itemgetter

import numpy as np

from .grid import SampledField, parse_header, spectral_transform
from .lpdecomp import level_spectra


class CoeffSeq:
    """Sparse dyadic coefficients: (level k, lattice index tuple) -> value.

    A set is stored as per-level arrays (see ``levels``), built once by
    ``from_levels``; ``CoeffSeq(n, K, L, entries)`` builds them from a dict
    keyed by (k, m).  ``entries`` is the (k, m) -> complex mapping: the
    given dict, or for an array-built set a dict in lexicographic order,
    made on first access.  Neither may be changed afterwards.
    """

    def __init__(self, n, K, L, entries=None):
        entries = {} if entries is None else entries
        count = len(entries)
        ks = np.fromiter(map(itemgetter(0), entries), np.int64, count)
        dims = np.fromiter(map(len, map(itemgetter(1), entries)),
                           np.int64, count)
        # one group per run of equally long index tuples, in insertion
        # order, so that from_levels meets the first bad key first
        cuts = [0, *(np.flatnonzero(np.diff(dims)) + 1).tolist(), count]
        keys, values = list(entries), list(entries.values())
        groups = []
        for a, b in zip(cuts, cuts[1:]) if count else ():
            pos = np.fromiter(itertools.chain.from_iterable(
                map(itemgetter(1), keys[a:b])), np.int64, (b - a) * dims[a])
            groups.append((ks[a:b], pos.reshape(b - a, dims[a]),
                           values[a:b]))
        self._build(n, K, L, groups)
        self._entries = entries

    @classmethod
    def from_levels(cls, n, K, L, groups):
        """A set from (k, pos, values) groups; the array constructor.

        k is a level, or an (H,) array of one level per row; pos is (H, n)
        integer lattice indices and values (H,) the matching lam[k, m].
        Groups may come in any order and repeat an index: the last value
        given for an index wins.
        """
        self = cls.__new__(cls)
        self._build(n, K, L, groups)
        self._entries = None
        return self

    def _build(self, n, K, L, groups):
        """Validate, lexsort and de-duplicate groups into per-level arrays."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if K < 0:
            raise ValueError("K must be >= 0")
        self.n, self.K, self.L = n, K, L
        ks, pos, vals = [], [], []
        for k, p, v in groups:
            if not len(p):
                continue
            p = np.asarray(p, dtype=np.int64)
            if np.isscalar(k):
                if not (0 <= k <= K and p.shape[1] == n):
                    raise _bad_entry(k, p[0], n, K)
                k = np.full(len(p), k, dtype=np.int64)
            else:
                k = np.asarray(k, dtype=np.int64)
                bad = (k < 0) | (k > K)
                bad[:1] |= p.shape[1] != n
                if bad.any():
                    i = int(bad.argmax())
                    raise _bad_entry(int(k[i]), p[i], n, K)
            ks.append(k)
            pos.append(p)
            vals.append(np.asarray(v, dtype=np.complex128))
        if len(ks) == 1:
            ks, pos, vals = ks[0], pos[0], vals[0]
        elif ks:
            ks, pos, vals = (np.concatenate(ks), np.concatenate(pos),
                             np.concatenate(vals))
        else:
            ks, pos, vals = (np.zeros(0, np.int64), np.zeros((0, n), np.int64),
                             np.zeros(0, np.complex128))
        order = np.lexsort((*pos.T[::-1], ks))
        ks, pos, vals = ks[order], pos[order], vals[order]
        # a stable sort keeps repeats in the order given: keep the last
        last = np.append((ks[1:] != ks[:-1])
                         | (pos[1:] != pos[:-1]).any(axis=1), True)
        if not last.all():
            ks, pos, vals = ks[last], pos[last], vals[last]
        pos.flags.writeable = vals.flags.writeable = False
        starts = [0, *(np.flatnonzero(np.diff(ks)) + 1).tolist(), len(ks)]
        self._levels = [(int(ks[a]), pos[a:b], vals[a:b])
                        for a, b in zip(starts, starts[1:]) if b > a]

    @property
    def entries(self):
        if self._entries is None:
            self._entries = {
                (k, m): v for k, pos, vals in self._levels
                for m, v in zip(map(tuple, pos.tolist()), vals.tolist())}
        return self._entries

    def level_entries(self, k):
        return {m: v for (kk, m), v in self.entries.items() if kk == k}

    def levels(self):
        """Occupied levels as read-only arrays, in ascending k.

        Returns a list of (k, pos, values): pos (H, n) int64 lattice indices
        in lexicographic order, values (H,) complex128 the matching lam[k, m].
        """
        return self._levels


def _bad_entry(k, m, n, K):
    """The error for an entry (k, m) that fails validation."""
    if not 0 <= k <= K:
        return ValueError(f"entry level {k} outside 0..{K}")
    return ValueError(f"entry index {tuple(m.tolist())} is not "
                      f"{n}-dimensional")


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


def _fold(spec, size):
    """Sum a centered (G,)^n spectrum over index shifts by multiples of size.

    Returns the aliased spectrum in the centered (size,)^n layout.
    """
    n, G = spec.ndim, spec.shape[0]
    blocks = spec.reshape((G // size, size) * n)
    folded = blocks.sum(axis=tuple(range(0, 2 * n, 2)))
    return np.roll(folded, (size // 2 - G // 2) % size, axis=tuple(range(n)))


def analyze(field, system):
    """Inner products of the field against every lattice translate."""
    n, G, L = field.n, field.G, field.L
    levels = []
    for k, spec in enumerate(level_spectra(field, system)):
        N, size = _lattice(G, L, k)
        stride = size // N
        small = spectral_transform(SampledField(
            n, L, size, _fold(spec.values, size), domain="freq")).values
        lattice = small[(slice(None, None, stride),) * n]
        vals = (lattice * (field.h * stride) ** (n / 2.0)).ravel()
        pos = np.indices((N,) * n).reshape(n, -1).T - N // 2
        levels.append((k, pos, vals))
    return CoeffSeq.from_levels(n, system.K, L, levels)


def synthesize(coeffs, system):
    """Weighted sum of lattice translates of the synthesis kernels."""
    if (coeffs.n, coeffs.L, coeffs.K) != (system.n, system.L, system.K):
        raise ValueError("coefficient set does not match the system")
    n, G, L = system.n, system.G, system.L
    h, axes = L / G, tuple(range(n))
    acc = np.zeros((G,) * n, dtype=np.complex128)
    for k, pos, vals in coeffs.levels():
        N, size = _lattice(G, L, k)
        half, stride = N // 2, size // N
        outside = np.any((pos < -half) | (pos >= half), axis=1)
        if outside.any():
            m = tuple(pos[outside.argmax()].tolist())
            raise ValueError(f"lattice index {m} outside level {k} span")
        comb = np.zeros((size,) * n, dtype=np.complex128)
        comb[(slice(None, None, stride),) * n][tuple((pos + half).T)] += vals
        small = spectral_transform(SampledField(n, L, size, comb)).values
        small = np.roll(small * (h / stride) ** (-n / 2.0),
                        (G // 2 - size // 2) % size, axis=axes)
        shape = (G // size, size) * n
        tiled = acc.reshape(shape)
        tiled += (system.multipliers[k].reshape(shape)
                  * small.reshape((1, size) * n))
    return spectral_transform(SampledField(n, L, G, acc, domain="freq"))


def roundtrip_error(field, system):
    """Relative l2 error of synthesize(analyze(f)) against f."""
    ref = math.sqrt(float(np.sum(np.abs(field.values) ** 2)))
    if ref == 0.0:
        raise ValueError("zero field has no relative error")
    back = synthesize(analyze(field, system), system)
    diff = math.sqrt(float(np.sum(np.abs(back.values - field.values) ** 2)))
    return diff / ref


COEFF_MAGIC = "herzcoeffs 1"


def save_coeffs(coeffs, path):
    """Text snapshot; %.17g per float round-trips bit-exactly."""
    lines = [COEFF_MAGIC,
             f"n={coeffs.n} K={coeffs.K} L={coeffs.L:.17g} count={len(coeffs.entries)}"]
    for (k, m) in sorted(coeffs.entries):
        v = coeffs.entries[(k, m)]
        idx = " ".join(str(c) for c in m)
        lines.append(f"{k} {idx} {v.real:.17g} {v.imag:.17g}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
