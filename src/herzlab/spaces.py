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

The parameters are herz.SpaceParams (re-exported here) with family 'B' or
'F'; the sequence spaces of seqspace take the same class with 'b' or 'f'.
"""

import numpy as np

from .herz import SpaceParams, lq_combine, lq_envelope, magnitude_herz_norm
from .lpdecomp import level_magnitudes


def block_norms(field, herz_params, system):
    """Mixed Herz norm of every level block, unweighted."""
    return [magnitude_herz_norm(m, field.L, herz_params)
            for m in level_magnitudes(field, system)]


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
    env = lq_envelope((2.0 ** (k * params.s) * m
                       for k, m in enumerate(level_magnitudes(field, system))),
                      params.beta)
    return magnitude_herz_norm(env, field.L, params.herz)


def space_norm(field, params, system):
    norm = {"B": besov_norm, "F": triebel_norm}.get(params.family)
    if norm is None:
        raise ValueError("space_norm needs family 'B' or 'F' parameters")
    return norm(field, params, system)
