"""Dyadic frequency decompositions on the grid.

Two families of radial Fourier multipliers, built from one C-infinity
transition with hard zeros (exactly 0/1 outside the transition strip):

* resolution: psi_0 = theta(|xi|), psi_k = theta(2^-k |xi|) -
  theta(2^-k+1 |xi|); the partial sums telescope to theta(2^-K |xi|), so
  sum_k psi_k = 1 exactly for |xi| <= 2^K.
* fj pair: Phi = sqrt(rho(|xi|/2)), phi_k = dilates of
  sqrt(rho(|xi|/2) - rho(|xi|)); analysis and synthesis share the
  multiplier, and Phi^2 + sum phi_k^2 telescopes to rho(2^-K-1 |xi|),
  again 1 on |xi| <= 2^K.

supp theta  = {|x| <= 3/2},  theta = 1 on |x| <= 1;
supp rho    = {|xi| <= 1},   rho = 1 on |xi| <= 1/2.

Level-k supports: resolution annulus 2^k-1 <= |xi| <= 3*2^k-1, fj annulus
2^k-1 <= |xi| <= 2^k+1.  A band-limited witness with spectrum in the open
shell 3/4 * 2^N < |xi| < 2^N is reproduced by resolution block N alone.

A system stores each multiplier M_k once, read-only, as its band crop:
M_k on the least centered box |m_i| <= r_k outside which it is exactly 0,
in native FFT order (see ``grid``), an array of (min(2 r_k + 1, G),)^n.
A level block is F^-1[M_k F f] = band_ifft(band_fft(f) * crop_k): one
forward transform pruned to the widest band, one inverse per level pruned
to its own.  On an fj pair r_k ~ 2^(k+1) L / (2 pi), far inside the grid.
The full-grid M_k is built only on demand (``multiplier``).

A field is decomposed once per system: the forward band spectrum, and the
level magnitudes |F^-1[M_k F f]| once asked for, are kept on the field
(``level_magnitudes``) for the system it was last decomposed with, so
``frames.analyze`` and the B and F norms of one field share one forward
transform and K+1 inverses.
"""

from dataclasses import dataclass

import numpy as np

from .grid import (SampledField, TAU, band_box, band_fft, band_freqs,
                   band_ifft, owned, sealed, spectral_transform)


def smooth_step(t):
    """C-infinity ramp: exactly 0 for t <= 0, exactly 1 for t >= 1."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        hi = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    total = lo + hi
    out = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, lo / np.where(total > 0, total, 1.0)))
    return out


def theta_profile(x):
    """1 on |x| <= 1, 0 on |x| >= 3/2, smooth monotone in between."""
    return 1.0 - smooth_step(2.0 * (np.abs(x) - 1.0))


def rho_profile(xi):
    """1 on |xi| <= 1/2, 0 on |xi| >= 1, smooth monotone in between."""
    return 1.0 - smooth_step(2.0 * np.abs(xi) - 1.0)


@dataclass(frozen=True, eq=False)
class SpectralSystem:
    """K+1 radial level multipliers bound to a grid signature.

    kind 'resolution': multipliers sum to 1 on the resolvable band.
    kind 'fj': squared multipliers sum to 1 there (analysis = synthesis).
    ``crops[k]`` is M_k in native order on a box of (w,)^n, w odd <= G or
    w = G, trimmed (``_trimmed``) to the least such box holding its
    nonzeros and stored read-only by ``grid.owned``, so a sealed minimal
    crop is kept without a copy.  ``lower_bounds`` records the positivity
    floor of levels 0 and 1 over their nominal annuli.  A system equals only
    itself and hashes by identity, as the level memo on a field
    (``level_magnitudes``) keys it.
    """

    kind: str
    n: int
    L: float
    G: int
    K: int
    crops: tuple
    lower_bounds: tuple

    def __post_init__(self):
        crops = []
        for k, crop in enumerate(owned(c, None) for c in self.crops):
            w = crop.shape[0] if crop.ndim else 0
            if crop.shape != (w,) * self.n or not (
                    w == self.G or w % 2 == 1 and w <= self.G):
                raise ValueError(
                    f"level {k} crop has shape {crop.shape}, expected "
                    f"(w,)^{self.n} with w odd <= G = {self.G} or w = G")
            cut = _trimmed(crop, self.G)
            crops.append(crop if cut is crop else sealed(cut))
        object.__setattr__(self, "crops", tuple(crops))

    @property
    def width(self):
        """Band width per axis that holds every level's band."""
        return max(c.shape[0] for c in self.crops)

    def multiplier(self, k):
        """M_k on the whole grid in the centered layout, 0 off its band."""
        full = np.zeros((self.G,) * self.n, dtype=self.crops[k].dtype)
        full[band_box(self.crops[k].shape[0], self.G, self.n)] = self.crops[k]
        return np.fft.fftshift(full)

    def band_radius(self):
        """The identity (partition or squared sum) holds for |xi| <= this."""
        return 2.0 ** self.K

    def check_grid(self, field):
        if (field.n, field.L, field.G) != (self.n, self.L, self.G):
            raise ValueError("field grid does not match the system's grid")


def _trimmed(crop, G):
    """A native-order crop cut to the least band box (width 2r + 1 capped at
    G) holding its nonzeros; a crop that is that box is returned as it is."""
    n, w = crop.ndim, crop.shape[0]
    freqs = np.abs(band_freqs(w))
    # per axis, the positions whose hyperplane holds a nonzero
    hits = (crop.any(axis=tuple(b for b in range(n) if b != a))
            for a in range(n))
    r = max((freqs[h].max() for h in hits if h.any()), default=0)
    width = min(2 * r + 1, G)
    return crop if width == w else crop[band_box(width, w, n)]


def _radial_freq(freqs, n, L, rows=slice(None)):
    """|xi| on the (len(freqs),)^n grid of integer frequencies ``freqs``,
    or on the slab ``rows`` of its first axis."""
    xi = freqs * (TAU / L)
    sq = xi * xi
    return np.sqrt(sum((sq[rows] if axis == 0 else sq)
                       .reshape((-1,) + (1,) * (n - 1 - axis))
                       for axis in range(n)))


# Elements of one slab of a level box evaluated at a time.  A multiplier's
# evaluation takes about a dozen temporaries of the samples it covers; by
# slabs, the 2607^2 top level of a 2d fj system with L = 1, K = 12 is built
# in about its own size instead of a dozen times it.
SLAB = 1 << 18


def _build_levels(kind, n, L, G, K, window, reach, support, floors):
    """Levels w(|xi|), w(2^-k |xi|) - w(2^(1-k) |xi|); square roots for fj.

    w is 0 from ``reach`` on, so level k is 0 for |xi| >= reach 2^k (named
    ``support`` at k = K) and is evaluated only on the native box of
    half-width floor(reach 2^k L / 2 pi), capped at the grid.  lower_bounds
    takes M_k's minimum on the annulus floors[k], inside that support.
    Each box is evaluated in slabs of its first axis of about SLAB samples
    and trimmed as it is built, so the system keeps it without a copy.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    xi_max = np.pi * G / L
    if reach * 2.0 ** K > xi_max:
        raise ValueError(
            f"level K = {K} support {support} = {int(reach * 2 ** K)} "
            f"exceeds the grid band xi_max = {xi_max:g}")
    crops, lows = [], []
    for k in range(K + 1):
        half = int(reach * 2.0 ** k * L / TAU)
        freqs = band_freqs(min(2 * half + 1, G))
        w = freqs.size
        m = np.empty((w,) * n)
        low = []
        step = max(1, SLAB // w ** (n - 1))
        for i in range(0, w, step):
            r = _radial_freq(freqs, n, L, slice(i, i + step))
            slab = window(r / 2.0 ** k)
            if k > 0:
                slab = slab - window(r / 2.0 ** (k - 1))
            if kind == "fj":
                slab = np.sqrt(np.maximum(slab, 0.0))
            if k < len(floors):
                sel = (r >= floors[k][0]) & (r <= floors[k][1])
                if np.any(sel):
                    low.append(slab[sel].min())
            m[i:i + step] = slab
        if k < len(floors):
            lows.append(float(min(low)) if low else float("nan"))
        crops.append(sealed(_trimmed(m, G)))
    return SpectralSystem(kind, n, float(L), G, K, tuple(crops), tuple(lows))


def build_resolution(n, L, G, K):
    """Smooth dyadic resolution of unity, levels 0..K."""
    return _build_levels("resolution", n, L, G, K, theta_profile, 1.5,
                         "3*2^(K-1)", ((0.0, 1.0), (6.0 / 5.0, 5.0 / 3.0)))


def build_fj_pair(n, L, G, K):
    """Smooth analysis/synthesis pair with squared-sum identity."""
    # positivity floors on the annuli where the pair must not vanish:
    # level 0 on |xi| <= 5/3, level 1 on 2*(3/5) <= |xi| <= 2*(5/3)
    return _build_levels("fj", n, L, G, K, lambda x: rho_profile(x / 2.0),
                         2.0, "2^(K+1)",
                         ((0.0, 5.0 / 3.0), (6.0 / 5.0, 10.0 / 3.0)))


def build_system(kind, n, L, G, K):
    """The system of this kind ("fj" or "resolution"), levels 0..K."""
    return {"fj": build_fj_pair, "resolution": build_resolution}[kind](
        n, L, G, K)


class _Decomposition:
    """What a field keeps of its decomposition by ``system``."""

    __slots__ = ("system", "spectrum", "magnitudes")

    def __init__(self, system, spectrum):
        self.system = system
        self.spectrum = spectrum      # band_fft at system.width, read-only
        self.magnitudes = None        # level_magnitudes, once asked for


# the key of a field's _Decomposition in its __dict__
_MEMO = "_lp_decomposition"


def _decomposition(field, system):
    """The field's decomposition record for ``system``, made on a miss.

    Domain and grid are checked on every call, hit or miss.  A field holds
    one record, in its instance __dict__ (not a dataclass field), keyed by
    the system's identity: decomposing by another system replaces it, and
    it is freed with the field.  A field owns its values and a system its
    crops, which nothing can write to (see ``grid.owned``), so the record
    cannot go stale.
    """
    if field.domain != "space":
        raise ValueError("expected a space-domain field")
    system.check_grid(field)
    memo = field.__dict__.get(_MEMO)
    if memo is None or memo.system is not system:
        spectrum = band_fft(field.values, system.width)
        spectrum.flags.writeable = False
        memo = field.__dict__[_MEMO] = _Decomposition(system, spectrum)
    return memo


def _spectra(spectrum, system):
    """The level crops M_k F f cut from the band spectrum, one at a time."""
    return (spectrum[band_box(c.shape[0], spectrum.shape[0], system.n)] * c
            for c in system.crops)


def level_spectra(field, system):
    """The level spectra M_k F f on their bands, k = 0..K, one at a time.

    Each is a native-order crop shaped like system.crops[k], with F the
    unnormalised DFT of the stored values (see ``grid``): the entry at
    frequency m is (-1)^(m_1 + ... + m_n) G^(n/2) times the matching entry
    of spectral_transform(field).values * system.multiplier(k).
    The domain and grid are checked, and the forward transform taken (or
    found on the field), when this is called, not when the first spectrum
    is drawn.
    """
    return _spectra(_decomposition(field, system).spectrum, system)


def level_magnitudes(field, system):
    """The read-only level magnitudes |F^-1[M_k F f]|, k = 0..K, as a tuple.

    Each is the (G,)^n float64 array np.abs(b.values) of the k-th of
    level_blocks(field, system), bit for bit.  They are computed once per
    field and system and kept on the field with its forward band spectrum
    (see ``_decomposition``): (K+1)/2 field sizes of memory for as long as
    the field lives and is not decomposed by another system.
    """
    memo = _decomposition(field, system)
    if memo.magnitudes is None:
        mags = tuple(np.abs(band_ifft(s, field.G))
                     for s in _spectra(memo.spectrum, system))
        for m in mags:
            m.flags.writeable = False
        memo.magnitudes = mags
    return memo.magnitudes


def band_width(kind, L, G, K):
    """The band width (``SpectralSystem.width``) of the systems of this
    kind, L, G and K in every dimension n, without building one.

    It is the width of the 1d system, whose crops hold G samples at most.
    A crop is cut to the widest hyperplane |m_i| = r holding a nonzero.
    Each multiplier is radial, nonzero on a disc or an annulus and zero
    beyond it, so that hyperplane also holds a nonzero on the axis, at
    (r, 0, ..., 0), where |xi| adds only zeros to r^2 and has the bits of
    the 1d |xi| at r.  The tests check this level by level.
    """
    return build_system(kind, 1, L, G, K).width


def decomposition_fields(n, G, K, width):
    """Peak memory of level_magnitudes beyond the field, in field sizes,
    for a system of K + 1 levels and band width ``width`` on (G,)^n.

    A field size is G^n complex128 samples.  Kept on the field: the band
    spectrum, (width/G)^n, and K+1 float64 magnitudes, (K+1)/2; while the
    last level is taken, 2 more are counted.  Its inverse transform runs
    in place on the zero-padded array it starts from, so one full-grid
    array is in flight and the count keeps one field size of headroom.
    """
    return (width / G) ** n + (K + 1) / 2 + 2


def level_blocks(field, system):
    """The space-domain blocks F^-1[M_k F f], k = 0..K, one at a time.

    Checked and forward-transformed when called, as in level_spectra.
    """
    return (field.with_values(sealed(band_ifft(s, field.G)))
            for s in level_spectra(field, system))


def partition_sum(system):
    """sum_k of the multipliers (kind 'resolution') or their squares ('fj')."""
    square = system.kind == "fj"
    return sum(m * m if square else m
               for m in map(system.multiplier, range(system.K + 1)))


def witness_modes(n, L, G, N):
    """On-grid frequency indices of the base shell dilated to level N.

    Base modes are grid frequencies with 3/4 < |xi| < 1; level N places the
    same coefficients at 2^N * xi, which stays on-grid.  Returns an (M, n)
    integer array of centered indices in lexicographic order, the base
    radii (M,) and the indices dilated to level N.
    """
    # base indices t with 3/4 < |t| 2 pi / L < 1 and 2^N t resolvable: the
    # shell is symmetric, so it fits the band iff its largest index is
    # below reach
    reach = -(-(G // 2) >> N)
    band = f"level-{N} shell exceeds the grid band; enlarge G or lower N"
    span = int(np.floor(L / TAU)) + 1
    # every base index has |t_i| 2 pi / L <= |xi| < 1, so none exceeds top,
    # and (top, 0, .., 0) is a base mode once top 2 pi / L > 3/4 (L > 8 pi):
    # then the band is checked before the (2 span + 1)^n candidates are built
    top = next(t for t in range(span, -1, -1) if t * (TAU / L) < 1.0)
    if top * (TAU / L) > 0.75 and top >= reach:
        raise ValueError(band)
    idx = np.indices((2 * span + 1,) * n).reshape(n, -1).T - span
    rad = _radial_freq(np.arange(-span, span + 1), n, L).ravel()
    keep = (rad > 0.75) & (rad < 1.0)
    idx, rad = idx[keep], rad[keep]
    if idx.shape[0] == 0:
        raise ValueError("no on-grid modes in the base shell; enlarge L")
    if idx.max() >= reach:
        raise ValueError(band)
    return idx, rad, idx * (1 << N)


def random_band_field(n, L, G, radius, seed):
    """Random field with spectrum confined to {|xi| <= radius}.

    Coefficients are independent complex gaussians on every on-grid mode
    in the closed ball; no smoothness is imposed.
    """
    rad = _radial_freq(np.arange(G) - G // 2, n, L)
    inside = rad <= radius
    if not np.any(inside):
        raise ValueError(f"no on-grid modes inside radius {radius:g}")
    rng = np.random.default_rng(seed)
    spec = np.zeros((G,) * n, dtype=np.complex128)
    count = int(inside.sum())
    spec[inside] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return spectral_transform(
        SampledField(n, float(L), G, sealed(spec), domain="freq"))


def bandlimited_witness(n, L, G, N, seed):
    """Random field with spectrum exactly in {3/4 * 2^N < |xi| < 2^N}.

    The level-N witness is the exact dilate of the level-0 witness with the
    same seed: sampled values satisfy f_N(x_j) = f_0(2^N x_j) as trig
    polynomials.  Coefficients are a fixed smooth radial bump times random
    unit phases drawn per base mode.
    """
    base, rad, scaled = witness_modes(n, L, G, N)
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(base.shape[0]))
    amp = smooth_step((rad - 0.75) / 0.125) * smooth_step((1.0 - rad) / 0.125)
    spec = np.zeros((G,) * n, dtype=np.complex128)
    spec[tuple((scaled + G // 2).T)] = amp * phases
    return spectral_transform(
        SampledField(n, float(L), G, sealed(spec), domain="freq"))
