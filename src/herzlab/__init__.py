"""Numerical toolkit for mixed-norm dyadic analysis on periodic grids.

Exact-measure Herz norms of sampled fields, smooth dyadic frequency
decompositions, an analysis/synthesis transform over scale-and-shift
lattices, sequence-space norms on dyadic tilings, axiswise maximal
operators, and harnesses that measure the package's embedding
inequalities empirically.
"""

__version__ = "0.1.0"

from .embedlab import (EmbeddingSpec, dilation_family, dilation_scan,
                       hardy_check, necessity_fit, ppn_check,
                       seq_embedding_check, single_spike_ratio)
from .frames import (CoeffSeq, analyze, load_coeffs, roundtrip_error,
                     save_coeffs, synthesize)
from .grid import (DyadicGeometry, SampledField, make_field,
                   spectral_transform)
from .herz import (HerzParams, HypothesisError, lq_combine, lq_envelope,
                   mixed_herz_norm, mixed_lebesgue_norm)
from .lpdecomp import (SpectralSystem, bandlimited_witness, build_fj_pair,
                       build_resolution, level_blocks, level_magnitudes,
                       level_spectra, partition_sum, random_band_field)
from .maximal import fs_vector_check, iterated_maximal
from .seqspace import SeqSpaceParams, b_norm, f_norm, lambda_star, seq_norm
from .spaces import (SpaceParams, besov_norm, block_norms, space_norm,
                     triebel_norm)

__all__ = [name for name in dir() if not name.startswith("_")]
