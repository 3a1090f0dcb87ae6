"""Property tests: field and coefficient snapshots read back bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from herzlab import (CoeffSeq, SampledField, load_coeffs, load_field,
                     save_coeffs, save_field)

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
def _fields(draw):
    n = draw(st.integers(1, 2))
    G = draw(st.sampled_from((4, 8)))
    L = draw(st.sampled_from((0.5, 1.0, 16.0)))
    parts = draw(st.lists(FLOATS, min_size=2 * G ** n, max_size=2 * G ** n))
    vals = np.empty((G,) * n, dtype=np.complex128)
    vals.real = np.reshape(parts[::2], vals.shape)
    vals.imag = np.reshape(parts[1::2], vals.shape)
    domain = draw(st.sampled_from(("space", "freq")))
    return SampledField(n, L, G, vals, domain=domain)


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
@given(field=_fields())
def test_field_snapshot_reads_back_bit_exact(field, tmp_path_factory):
    path = tmp_path_factory.mktemp("field") / "f.field"
    save_field(field, path)
    back = load_field(path)
    assert (back.n, back.L, back.G, back.domain) == \
        (field.n, field.L, field.G, field.domain)
    assert _bits(back.values) == _bits(field.values)


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
