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
"""

from dataclasses import dataclass

import numpy as np

from .grid import SampledField, TAU, make_field, spectral_transform


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


@dataclass(frozen=True)
class SpectralSystem:
    """K+1 radial level multipliers bound to a grid signature.

    kind 'resolution': multipliers sum to 1 on the resolvable band.
    kind 'fj': squared multipliers sum to 1 there (analysis = synthesis).
    ``lower_bounds`` records the positivity floor of levels 0 and 1 over
    their nominal annuli.
    """

    kind: str
    n: int
    L: float
    G: int
    K: int
    multipliers: tuple
    lower_bounds: tuple

    def band_radius(self):
        """The identity (partition or squared sum) holds for |xi| <= this."""
        return 2.0 ** self.K

    def check_grid(self, field):
        if (field.n, field.L, field.G) != (self.n, self.L, self.G):
            raise ValueError("field grid does not match the system's grid")


def _radial_freq(n, L, G):
    xi = (np.arange(G) - G // 2) * (TAU / L)
    mesh = np.meshgrid(*([xi] * n), indexing="ij")
    return np.sqrt(sum(m * m for m in mesh))


def build_resolution(n, L, G, K):
    """Smooth dyadic resolution of unity, levels 0..K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    xi_max = np.pi * G / L
    if 3.0 * 2.0 ** (K - 1) > xi_max:
        raise ValueError(
            f"level K = {K} support 3*2^(K-1) = {3 * 2 ** (K - 1)} exceeds "
            f"the grid band xi_max = {xi_max:g}")
    r = _radial_freq(n, L, G)
    mults = [theta_profile(r)]
    for k in range(1, K + 1):
        mults.append(theta_profile(r / 2.0 ** k) - theta_profile(r / 2.0 ** (k - 1)))
    lows = []
    for k, band in ((0, (0.0, 1.0)), (1, (6.0 / 5.0, 5.0 / 3.0))):
        sel = (r >= band[0]) & (r <= band[1])
        lows.append(float(mults[k][sel].min()) if np.any(sel) else float("nan"))
    return SpectralSystem("resolution", n, float(L), G, K,
                          tuple(m for m in mults), tuple(lows))


def build_fj_pair(n, L, G, K):
    """Smooth analysis/synthesis pair with squared-sum identity."""
    if K < 1:
        raise ValueError("K must be >= 1")
    xi_max = np.pi * G / L
    if 2.0 ** (K + 1) > xi_max:
        raise ValueError(
            f"level K = {K} support 2^(K+1) = {2 ** (K + 1)} exceeds the "
            f"grid band xi_max = {xi_max:g}")
    r = _radial_freq(n, L, G)
    mults = [np.sqrt(rho_profile(r / 2.0))]
    for k in range(1, K + 1):
        diff = rho_profile(r / 2.0 ** (k + 1)) - rho_profile(r / 2.0 ** k)
        mults.append(np.sqrt(np.maximum(diff, 0.0)))
    # positivity floors on the annuli where the pair must not vanish:
    # level 0 on |xi| <= 5/3, level 1 on 2*(3/5) <= |xi| <= 2*(5/3)
    lows = []
    for k, band in ((0, (0.0, 5.0 / 3.0)), (1, (6.0 / 5.0, 10.0 / 3.0))):
        sel = (r >= band[0]) & (r <= band[1])
        lows.append(float(mults[k][sel].min()) if np.any(sel) else float("nan"))
    return SpectralSystem("fj", n, float(L), G, K,
                          tuple(m for m in mults), tuple(lows))


def lp_block(field, system, k):
    """Apply the level-k multiplier; returns a field in the input's domain."""
    system.check_grid(field)
    if not 0 <= k <= system.K:
        raise ValueError(f"level k = {k} outside 0..{system.K}")
    if field.domain == "space":
        return spectral_transform(lp_block(spectral_transform(field), system, k))
    return field.with_values(field.values * system.multipliers[k])


def level_blocks(field, system):
    """The space-domain blocks F^-1[M_k F f], k = 0..K, one at a time.

    The domain and grid are checked, and the forward transform taken, when
    this is called, not when the first block is drawn.
    """
    if field.domain != "space":
        raise ValueError("expected a space-domain field")
    system.check_grid(field)
    spec = spectral_transform(field)
    return (spectral_transform(spec.with_values(spec.values * m))
            for m in system.multipliers)


def partition_sum(system):
    """sum_k of the multipliers (kind 'resolution') or their squares ('fj')."""
    acc = np.zeros((system.G,) * system.n)
    for m in system.multipliers:
        acc = acc + (m * m if system.kind == "fj" else m)
    return acc


def witness_modes(n, L, G, N):
    """On-grid frequency indices of the base shell dilated to level N.

    Base modes are grid frequencies with 3/4 < |xi| < 1; level N places the
    same coefficients at 2^N * xi, which stays on-grid.  Returns an (M, n)
    integer array of centered indices and the base radii (M,).
    """
    step = TAU / L
    half = G // 2
    # base indices t with 3/4 < |t|*step (radially) < 1 and 2^N t resolvable
    span = int(np.floor(1.0 / step)) + 1
    axes = [np.arange(-span, span + 1)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=1)
    rad = np.sqrt(np.sum((idx * step) ** 2, axis=1))
    keep = (rad > 0.75) & (rad < 1.0)
    idx, rad = idx[keep], rad[keep]
    if idx.shape[0] == 0:
        raise ValueError("no on-grid modes in the base shell; enlarge L")
    scaled = idx * (1 << N)
    if not np.all((scaled >= -half) & (scaled < half)):
        raise ValueError(
            f"level-{N} shell exceeds the grid band; enlarge G or lower N")
    order = np.lexsort(idx.T[::-1])
    return idx[order], rad[order], scaled[order]


def random_band_field(n, L, G, radius, seed):
    """Random field with spectrum confined to {|xi| <= radius}.

    Coefficients are independent complex gaussians on every on-grid mode
    in the closed ball; no smoothness is imposed.
    """
    xi = (np.arange(G) - G // 2) * (TAU / L)
    mesh = np.meshgrid(*([xi] * n), indexing="ij")
    rad = np.sqrt(sum(m * m for m in mesh))
    inside = rad <= radius
    if not np.any(inside):
        raise ValueError(f"no on-grid modes inside radius {radius:g}")
    rng = np.random.default_rng(seed)
    spec = np.zeros((G,) * n, dtype=np.complex128)
    count = int(inside.sum())
    spec[inside] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return spectral_transform(SampledField(n, float(L), G, spec, domain="freq"))


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
    half = G // 2
    for i in range(base.shape[0]):
        pos = tuple(int(c) + half for c in scaled[i])
        spec[pos] = amp[i] * phases[i]
    f = SampledField(n, float(L), G, spec, domain="freq")
    return spectral_transform(f)
