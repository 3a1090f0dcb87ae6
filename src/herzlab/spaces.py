"""Smoothness-space norms built from dyadic frequency blocks.

Two assembly orders over the block decomposition f = sum_k f_k:

* besov_norm: Herz norm of each block first, then a weighted l^beta sum
  over levels (weights 2^{k s}).
* triebel_norm: the weighted l^beta sum is taken pointwise across levels
  first, then the Herz norm of the resulting function.  This order
  requires all integrability exponents finite.

Both depend on the chosen multiplier system only up to uniformly bounded
ratios; norm_equivalence_report measures those ratios on random
band-limited witnesses.
"""

import math
from dataclasses import dataclass

import numpy as np

from .herz import HerzParams, lq_combine, lq_envelope, mixed_herz_norm
from .lpdecomp import (bandlimited_witness, build_fj_pair, build_resolution,
                       level_blocks)


@dataclass(frozen=True)
class SpaceParams:
    """Herz layer plus smoothness s and level exponent beta.

    family 'B' sums level norms, family 'F' sums pointwise.  The F family
    additionally requires every p_i and q_i finite.
    """

    herz: HerzParams
    s: float
    beta: float
    family: str

    def __post_init__(self):
        if self.family not in ("B", "F"):
            raise ValueError("family must be 'B' or 'F'")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.family == "F":
            for name, vec in (("p", self.herz.p), ("q", self.herz.q)):
                if any(math.isinf(e) for e in vec):
                    raise ValueError(
                        f"family 'F' requires finite {name}, got {vec}")


def block_norms(field, herz_params, system):
    """Mixed Herz norm of every level block, unweighted."""
    return [mixed_herz_norm(b, herz_params)
            for b in level_blocks(field, system)]


def besov_norm(field, params, system):
    """Levelwise Herz norms combined in weighted l^beta."""
    terms = [2.0 ** (k * params.s) * mixed_herz_norm(b, params.herz)
             for k, b in enumerate(level_blocks(field, system))]
    return lq_combine(np.array(terms), params.beta)


def triebel_norm(field, params, system):
    """Pointwise weighted l^beta over levels, then the Herz norm."""
    if params.family != "F":
        raise ValueError("triebel_norm needs family 'F' parameters")
    env = lq_envelope((2.0 ** (k * params.s) * np.abs(b.values)
                       for k, b in enumerate(level_blocks(field, system))),
                      params.beta)
    carrier = field.with_values(env.astype(np.complex128))
    return mixed_herz_norm(carrier, params.herz)


def space_norm(field, params, system):
    if params.family == "B":
        return besov_norm(field, params, system)
    return triebel_norm(field, params, system)


def norm_equivalence_report(params, n, L, G, K, levels, seed, draws=8):
    """Ratio of norms computed with the two multiplier systems.

    Draws random band-limited witnesses at each level in ``levels`` and
    returns per-trial records plus the overall ratio spread.  Bounded,
    level-stable ratios are the empirical face of system independence.
    """
    res = build_resolution(n, L, G, K)
    fj = build_fj_pair(n, L, G, K)
    records = []
    for N in levels:
        for t in range(draws):
            f = bandlimited_witness(n, L, G, N, seed + 1009 * t + 9176 * N)
            a = space_norm(f, params, res)
            b = space_norm(f, params, fj)
            if b == 0.0:
                raise ValueError("witness produced a zero norm")
            records.append({"level": N, "trial": t, "norm_resolution": a,
                            "norm_fj": b, "ratio": a / b})
    ratios = np.array([r["ratio"] for r in records])
    return {
        "records": records,
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "spread": float(ratios.max() / ratios.min()),
    }
