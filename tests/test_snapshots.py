"""Property test: coefficient snapshots read back bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herzlab import CoeffSeq, load_coeffs, save_coeffs

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None,
                    database=None)

# signed zeros, the subnormal range and its edges, and the extremes of the
# finite float range, besides any float hypothesis draws (a set holds no
# NaN or infinite part)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
         -2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 1.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))


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


@pytest.mark.parametrize("body, names", [
    # a coefficient line the header's count does not cover
    ("n=1 K=2 L=16 count=1\n0 0 1 0\n1 3 2 0\n", ["line 4", "count=1"]),
    ("n=1 K=2 L=16 count=0\n\n0 0 1 0\n", ["line 4", "count=0"]),
    ("n=1 K=2 L=16 count=-2\n", ["count=-2"]),
    ("n=1 K=2 L=nan count=1\n0 0 1 0\n", ["L=nan"]),
    ("n=1 K=2 L=inf count=0\n", ["L=inf"]),
    ("n=1 K=2 L=0 count=0\n", ["L=0.0"]),
    ("n=1 K=2 L=-16 count=0\n", ["L=-16.0"]),
], ids=["extra-line", "line-after-blank", "negative-count", "nan-L", "inf-L",
        "zero-L", "negative-L"])
def test_load_coeffs_refuses_a_header_that_does_not_match(tmp_path, body,
                                                          names):
    path = tmp_path / "bad.coeffs"
    path.write_text("herzcoeffs 1\n" + body)
    with pytest.raises(ValueError) as info:
        load_coeffs(path)
    for name in names:
        assert name in str(info.value)


def test_load_coeffs_reads_blank_lines_after_the_count(tmp_path):
    path = tmp_path / "c.coeffs"
    path.write_text("herzcoeffs 1\nn=1 K=2 L=16 count=1\n0 3 1 0\n\n  \n")
    assert load_coeffs(path).entries == {(0, (3,)): 1 + 0j}
