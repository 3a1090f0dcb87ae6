"""Smoothness-space norms built from dyadic frequency blocks.

Two assembly orders over the block decomposition f = sum_k f_k:

* besov_norm: Herz norm of each block first, then a weighted l^beta sum
  over levels (weights 2^{k s}).
* triebel_norm: the weighted l^beta sum is taken pointwise across levels
  first, then the Herz norm of the resulting function.  This order
  requires all integrability exponents finite.

Both read the level magnitudes |f_k| that lpdecomp.level_magnitudes keeps
on the field, so the two norms (and block_norms) of one field under one
system share one decomposition.

Both depend on the chosen multiplier system only up to uniformly bounded
ratios; norm_equivalence_report measures those ratios on random
band-limited witnesses.

The parameters are herz.SpaceParams (re-exported here) with family 'B' or
'F'; the sequence spaces of seqspace take the same class with 'b' or 'f'.
"""

import numpy as np

from .herz import SpaceParams, lq_combine, lq_envelope, magnitude_herz_norm
from .lpdecomp import (bandlimited_witness, build_fj_pair, build_resolution,
                       level_magnitudes)


def block_norms(field, herz_params, system):
    """Mixed Herz norm of every level block, unweighted."""
    return [magnitude_herz_norm(m, field.L, herz_params)
            for m in level_magnitudes(field, system)]


def besov_norm(field, params, system):
    """Levelwise Herz norms combined in weighted l^beta."""
    terms = [2.0 ** (k * params.s) * b
             for k, b in enumerate(block_norms(field, params.herz, system))]
    return lq_combine(np.array(terms), params.beta)


def triebel_norm(field, params, system):
    """Pointwise weighted l^beta over levels, then the Herz norm."""
    if params.family != "F":
        raise ValueError("triebel_norm needs family 'F' parameters")
    env = lq_envelope((2.0 ** (k * params.s) * m
                       for k, m in enumerate(level_magnitudes(field, system))),
                      params.beta)
    return magnitude_herz_norm(env, field.L, params.herz)


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
