"""Property test: coefficient snapshots read back bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from herzlab import CoeffSeq, load_coeffs, save_coeffs

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None,
                    database=None)

# signed zeros, the subnormal range and its edges, and the extremes of the
# float range, besides any float hypothesis draws (NaN has no bits to keep)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
         -2.2250738585072014e-308, 1.7976931348623157e308, float("inf"),
         -float("inf"), 1.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False))


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.int64).tolist()


@st.composite
def _coeffs(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(0, 4))
    L = draw(st.one_of(st.sampled_from((1.0, 16.0)),
                       st.floats(1e-3, 1e3)))
    keys = draw(st.lists(
        st.tuples(st.integers(0, K),
                  st.tuples(*[st.integers(-40, 40)] * n)),
        max_size=12, unique=True))
    entries = {key: complex(draw(FLOATS), draw(FLOATS)) for key in keys}
    return CoeffSeq(n, K, L, entries)


@PROPERTY
@given(lam=_coeffs())
def test_coeff_snapshot_reads_back_bit_exact(lam, tmp_path_factory):
    path = tmp_path_factory.mktemp("coeffs") / "c.coeffs"
    save_coeffs(lam, path)
    back = load_coeffs(path)
    assert (back.n, back.K, back.L) == (lam.n, lam.K, lam.L)
    assert sorted(back.entries) == sorted(lam.entries)
    assert _bits([back.entries[k] for k in sorted(lam.entries)]) == \
        _bits([lam.entries[k] for k in sorted(lam.entries)])
