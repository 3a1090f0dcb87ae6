"""Smoothness-space norms built from dyadic frequency blocks.

Two assembly orders over the block decomposition f = sum_k f_k:

* besov_norm: Herz norm of each block first, then a weighted l^beta sum
  over levels (weights 2^{k s}).
* triebel_norm: the weighted l^beta sum is taken pointwise across levels
  first, then the Herz norm of the resulting function.  This order
  requires all integrability exponents finite.

Both read the level magnitudes |f_k| that lpdecomp.level_magnitudes keeps
on the field, so the two norms (and block_norms) of one field under one
system share one decomposition.  block_norms (and so besov_norm) takes the
Herz norms of every level in one herz.magnitude_herz_norms call: each level
reduces its leading axes alone, and the last axis of every level goes into
one reduction, each level's norm with the bits of a batch of one.
triebel_norm builds its envelope as herz.lq_envelope does, in one
accumulator and one scratch array, each level multiplied by its weight
2^{k s} into the scratch.

The parameters are herz.SpaceParams (re-exported here) with family 'B' or
'F'; the sequence spaces of seqspace take the same class with 'b' or 'f'.
"""

import numpy as np

from .herz import (SpaceParams, _weighted_envelope, lq_combine,
                   magnitude_herz_norms)
from .lpdecomp import level_magnitudes


def block_norms(field, herz_params, system):
    """Mixed Herz norm of every level block, unweighted."""
    return magnitude_herz_norms(level_magnitudes(field, system), field.L,
                                herz_params).tolist()


def besov_norm(field, params, system):
    """Levelwise Herz norms combined in weighted l^beta."""
    if params.family != "B":
        raise ValueError("besov_norm needs family 'B' parameters")
    terms = [2.0 ** (k * params.s) * b
             for k, b in enumerate(block_norms(field, params.herz, system))]
    return lq_combine(np.array(terms), params.beta)


def triebel_norm(field, params, system):
    """Pointwise weighted l^beta over levels, then the Herz norm."""
    if params.family != "F":
        raise ValueError("triebel_norm needs family 'F' parameters")
    mags = level_magnitudes(field, system)
    env = _weighted_envelope(
        mags, [2.0 ** (k * params.s) for k in range(len(mags))], params.beta)
    return float(magnitude_herz_norms([env], field.L, params.herz)[0])


def space_norm(field, params, system):
    norm = {"B": besov_norm, "F": triebel_norm}.get(params.family)
    if norm is None:
        raise ValueError("space_norm needs family 'B' or 'F' parameters")
    return norm(field, params, system)
