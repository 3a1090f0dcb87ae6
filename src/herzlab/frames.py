"""Analysis and synthesis sums over dyadic lattices.

Coefficients live on level lattices 2^-k m, m integer, k = 0..K.  With the
unitary centered transform F and level multipliers M_k:

  analysis:   lam[k, m] = 2^{-k n / 2} * (F^-1 [conj(M_k) F f]) (2^-k m)
  synthesis:  f = sum_k 2^{-k n / 2} h^{-n} F^-1 [M_k F comb_k],

where comb_k holds lam[k, m] at the grid index of 2^-k m and 0 elsewhere.
The level-k lattice embeds in the grid when the stride 2^-k / h is a
positive integer, i.e. k <= log2(G / L).  Nonzero spectral copies made by
the lattice subsampling sit 2 pi 2^k apart while the multiplier support
has radius 2^{k+1} < 2 pi 2^k / 2, so no copy overlaps: for fields
band-limited to the system's band the round trip is exact up to rounding.

Coefficient sets serialise to a line-oriented text format with %.17g
fields, which round-trips complex128 bit-exactly.
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import SampledField, parse_header
from .lpdecomp import level_blocks, lp_block


@dataclass(frozen=True)
class CoeffSeq:
    """Sparse dyadic coefficients: (level k, lattice index tuple) -> value."""

    n: int
    K: int
    L: float
    entries: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        for (k, m) in self.entries:
            if not 0 <= k <= self.K:
                raise ValueError(f"entry level {k} outside 0..{self.K}")
            if len(m) != self.n:
                raise ValueError(f"entry index {m} is not {self.n}-dimensional")

    def level_entries(self, k):
        return {m: v for (kk, m), v in self.entries.items() if kk == k}

    def levels(self):
        """Occupied levels as arrays, in ascending k.

        Returns a list of (k, pos, values): pos (H, n) int64 lattice indices
        in lexicographic order, values (H,) complex128 the matching lam[k, m].
        """
        count, n = len(self.entries), self.n
        if not count:
            return []
        ks = np.fromiter((k for k, _ in self.entries), np.int64, count)
        pos = np.fromiter(itertools.chain.from_iterable(
            m for _, m in self.entries), np.int64, count * n).reshape(count, n)
        vals = np.fromiter(self.entries.values(), np.complex128, count)
        order = np.lexsort((*pos.T[::-1], ks))
        ks, pos, vals = ks[order], pos[order], vals[order]
        levels, starts = np.unique(ks, return_index=True)
        ends = [*starts[1:], ks.size]
        return [(int(k), pos[a:b], vals[a:b])
                for k, a, b in zip(levels, starts, ends)]

    def map_values(self, fn):
        return CoeffSeq(self.n, self.K, self.L,
                        {key: fn(val) for key, val in self.entries.items()})

    def scaled(self, factor):
        return self.map_values(lambda v: v * factor)


def lattice_span(L, k):
    """Half-open integer index range [-2^k L / 2, 2^k L / 2) per axis."""
    half = (1 << k) * L / 2.0
    if half != int(half) or int(half) < 1:
        raise ValueError(f"level {k} lattice does not tile the period L = {L}")
    return int(half)


def _lattice(G, L, k):
    """The level-k lattice as a per-axis basic slice of the grid.

    Lattice index m sits at grid index m * stride + G/2, so the indices
    -half..half-1 are every stride-th sample from 0.  Returns (slice, half).
    """
    half = lattice_span(L, k)
    stride = G // (2 * half)
    if stride * 2 * half != G:
        raise ValueError(
            f"level {k} lattice (spacing 2^-{k}) does not embed in the grid "
            f"(h = {L / G:g})")
    return slice(None, None, stride), half


def analyze(field, system):
    """Inner products of the field against every lattice translate."""
    n = field.n
    entries = {}
    for k, block in enumerate(level_blocks(field, system)):
        sub, half = _lattice(field.G, field.L, k)
        vals = (block.values[(sub,) * n] * 2.0 ** (-k * n / 2.0)).ravel()
        keys = itertools.product(range(-half, half), repeat=n)
        entries.update(zip(((k, m) for m in keys), vals.tolist()))
    return CoeffSeq(n, system.K, field.L, entries)


def synthesize(coeffs, system):
    """Weighted sum of lattice translates of the synthesis kernels."""
    if (coeffs.n, coeffs.L, coeffs.K) != (system.n, system.L, system.K):
        raise ValueError("coefficient set does not match the system")
    n, G, L = system.n, system.G, system.L
    h = L / G
    acc = np.zeros((G,) * n, dtype=np.complex128)
    for k, pos, vals in coeffs.levels():
        sub, half = _lattice(G, L, k)
        outside = np.any((pos < -half) | (pos >= half), axis=1)
        if outside.any():
            m = tuple(pos[outside.argmax()].tolist())
            raise ValueError(f"lattice index {m} outside level {k} span")
        comb = np.zeros((G,) * n, dtype=np.complex128)
        comb[(sub,) * n][tuple((pos + half).T)] += vals
        block = lp_block(SampledField(n, L, G, comb, domain="space"), system, k)
        acc = acc + block.values * (2.0 ** (-k * n / 2.0) / h ** n)
    return SampledField(n, L, G, acc, domain="space")


def roundtrip_error(field, system):
    """Relative l2 error of synthesize(analyze(f)) against f."""
    back = synthesize(analyze(field, system), system)
    ref = math.sqrt(float(np.sum(np.abs(field.values) ** 2)))
    if ref == 0.0:
        raise ValueError("zero field has no relative error")
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
