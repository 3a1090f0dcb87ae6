import math

import numpy as np
import pytest

from herzlab import (HerzParams, HypothesisError, lq_combine, lq_envelope,
                     make_field, mixed_herz_norm, mixed_lebesgue_norm)
from herzlab.grid import _log2_exact
from herzlab.herz import (_axis_reduce_herz, _cells_mixed_herz,
                          _weighted_envelope, magnitude_herz_norm,
                          magnitude_herz_norms)

# ---------------------------------------------------------------------------
# Reference implementation, kept deliberately naive: every cell's |x| interval
# is intersected with every annulus by explicit interval arithmetic, and the
# tail of annuli meeting the two origin cells is summed term by term instead
# of in closed form.  Slow but shares no code path with the package.
# ---------------------------------------------------------------------------


def _overlap(a, b, lo, hi):
    return max(0.0, min(b, hi) - max(a, lo))


def reference_axis(mag, L, G, p, alpha, q, tail_terms=900):
    h = L / G
    v = int(round(math.log2(1.0 / h)))
    rest = mag.shape[1:]
    cells = []
    for j in range(G):
        m = j - G // 2
        x0, x1 = m * h, (m + 1) * h
        cells.append((-x1, -x0) if x1 <= 0 else (x0, x1))
    k_hi = int(math.ceil(math.log2(L)))
    terms = []
    for k in range(k_hi, -v - tail_terms, -1):
        lo_r, hi_r = 2.0 ** (k - 1), 2.0 ** k
        w = np.array([_overlap(a, b, lo_r, hi_r) for a, b in cells])
        wb = w.reshape((G,) + (1,) * len(rest))
        if math.isinf(p):
            piece = np.max(np.where(wb > 0, mag, 0.0), axis=0)
        else:
            piece = np.sum(wb * mag ** p, axis=0) ** (1.0 / p)
        terms.append(2.0 ** (k * alpha) * piece)
    stack = np.stack(terms, axis=0)
    if math.isinf(q):
        return np.max(stack, axis=0)
    peak = np.max(stack, axis=0)
    safe = np.where(peak == 0.0, 1.0, peak)
    out = peak * np.sum((stack / safe) ** q, axis=0) ** (1.0 / q)
    return np.where(peak == 0.0, 0.0, out)


def reference_mixed(field, params):
    mag = np.abs(field.values).astype(float)
    for ax in range(field.n):
        mag = reference_axis(mag, field.L, field.G,
                             params.p[ax], params.alpha[ax], params.q[ax])
    return float(mag)


def _seeded_field(n, L, G, seed):
    rng = np.random.default_rng(seed)
    shape = (G,) * n
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return make_field(n, L, G).with_values(vals)


# Values produced by reference_mixed on the seed-42 fields below, pinned so a
# silent change in either implementation trips the suite.
PINNED_1D = {
    (2.0, 0.25, 1.0): 9.6438312615536752,
    (1.0, 0.0, 2.0): 5.5672405400647396,
    (4.0, -0.125, 0.5): 1125.5127418229597,
    (math.inf, 0.5, 2.0): 9.885564872548132,
    (2.0, 0.25, math.inf): 3.930563956087227,
    (math.inf, 0.25, math.inf): 5.8698971861853328,
}
PINNED_2D = {
    ((2.0, 1.0), (0.25, 0.0), (1.0, 2.0)): 45.441616289233487,
    ((math.inf, 2.0), (0.5, -0.25), (2.0, math.inf)): 10.724534406371232,
}


@pytest.mark.parametrize("p,alpha,q", sorted(PINNED_1D, key=str))
def test_axis_norm_matches_reference_1d(p, alpha, q):
    f = _seeded_field(1, 8.0, 256, 42)
    got = mixed_herz_norm(f, HerzParams(p, alpha, q))
    want = reference_mixed(f, HerzParams(p, alpha, q))
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(got, PINNED_1D[(p, alpha, q)], rel_tol=1e-12)


def test_mixed_norm_matches_reference_2d():
    rng = np.random.default_rng(42)
    rng.standard_normal(256), rng.standard_normal(256)  # advance as in 1d setup
    f = make_field(2, 8.0, 64).with_values(
        rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    for (p, alpha, q), want in PINNED_2D.items():
        params = HerzParams(p, alpha, q)
        got = mixed_herz_norm(f, params)
        assert math.isclose(got, reference_mixed(f, params), rel_tol=1e-12)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_unit_cube_norm_closed_form():
    # indicator of [-1, 1), measured on half-open grid cells: every annulus
    # k <= 0 is fully inside, so for p = q = 2, alpha = 1/4 the squared norm
    # telescopes to sum over k <= 0 of (2^(k/4) * (2^k)^(1/2))^2 = 2^(3k/2).
    f = make_field(1, 8.0, 1024, lambda x: (x >= -1.0) & (x < 1.0))
    got = mixed_herz_norm(f, HerzParams(2.0, 0.25, 2.0))
    want = math.sqrt(1.0 / (1.0 - 2.0 ** -1.5))
    assert math.isclose(got, want, rel_tol=1e-14)


def test_lebesgue_coincidence():
    for n, G in ((1, 512), (2, 64)):
        f = _seeded_field(n, 8.0, G, 7)
        for p in (1.0, 2.0, 4.0):
            herz = mixed_herz_norm(f, HerzParams((p,) * n, (0.0,) * n, (p,) * n))
            leb = mixed_lebesgue_norm(f, p)
            assert math.isclose(herz, leb, rel_tol=1e-12)


def test_scalar_parameters_mean_one_dimension():
    assert HerzParams(2.0, 0.25, 1.0).n == 1
    f = _seeded_field(2, 8.0, 32, 3)
    with pytest.raises(ValueError):
        mixed_herz_norm(f, HerzParams(2.0, 0.25, 1.0))


def test_admissibility_guard():
    with pytest.raises(ValueError):
        HerzParams(2.0, -0.5, 1.0)  # alpha must exceed -1/p
    with pytest.raises(ValueError):
        HerzParams(math.inf, -0.25, 1.0)  # alpha must exceed 0 when p = inf
    with pytest.raises(ValueError):
        HerzParams(2.0, (0.0, 0.0), 1.0)  # length mismatch vs scalar p
    with pytest.raises(ValueError):
        HerzParams(-1.0, 0.0, 1.0)
    HerzParams(2.0, -0.49, 1.0)  # just inside is fine


def test_zero_field_norm_is_zero():
    f = make_field(1, 8.0, 256)
    assert mixed_herz_norm(f, HerzParams(2.0, 0.25, 1.0)) == 0.0


def test_norm_is_absolutely_homogeneous():
    f = _seeded_field(1, 8.0, 256, 11)
    params = HerzParams(2.0, 0.25, 0.5)
    base = mixed_herz_norm(f, params)
    scaled = mixed_herz_norm(f.with_values(3.0j * f.values), params)
    assert math.isclose(scaled, 3.0 * base, rel_tol=1e-14)


def test_lq_combine_edges():
    assert lq_combine([], 2.0) == 0.0
    assert lq_combine([0.0, 0.0], 1.0) == 0.0
    assert lq_combine([5.0], 0.37) == 5.0  # single term is exact for any q
    assert lq_combine([3.0, 4.0], 2.0) == 5.0
    assert lq_combine([1.0, 7.0, 2.0], math.inf) == 7.0
    with pytest.raises(ValueError):
        lq_combine([1.0, -1.0], 2.0)


def former_lq_combine(values, q):
    v = np.asarray(values, dtype=np.float64)
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    if math.isinf(q):
        return peak
    return peak * float(np.sum((v / peak) ** q)) ** (1.0 / q)


@pytest.mark.parametrize("q", [0.5, 1.7, 2.0, math.inf])
def test_lq_combine_rows_bitwise_equal_single_sums(q):
    rng = np.random.default_rng(6)
    rows = rng.lognormal(size=(40, 9)) * (rng.random((40, 9)) < 0.7)
    rows[3] = 0.0
    got = lq_combine(rows, q)
    assert got.shape == (40,)
    for row, value in zip(rows, got):
        assert value == lq_combine(row, q) == former_lq_combine(row, q)


def test_hypothesis_error_is_value_error():
    assert issubclass(HypothesisError, ValueError)


# Former per-function axis loops, kept to pin the shared iterated reduction.


def former_mixed_herz(field, params):
    v = int(round(math.log2(field.G / field.L)))
    arr = np.abs(field.values)
    for i in range(field.n):
        rest = arr.shape[1:]
        arr = _axis_reduce_herz(arr.reshape(field.G, -1), -field.G // 2, v,
                                params.p[i], params.alpha[i], params.q[i])
        arr = arr.reshape(rest)
    return float(arr)


def former_mixed_lebesgue(field, p):
    arr = np.abs(field.values)
    for i in range(field.n):
        rest = arr.shape[1:]
        mag = arr.reshape(field.G, -1)
        if math.isinf(p[i]):
            arr = mag.max(axis=0)
        else:
            arr = (np.sum(mag ** p[i], axis=0) * field.h) ** (1.0 / p[i])
        arr = arr.reshape(rest)
    return float(arr)


@pytest.mark.parametrize("n, G", [(1, 256), (2, 32), (3, 16)])
def test_iterated_norms_bitwise_equal_former_loops(n, G):
    f = _seeded_field(n, 8.0, G, 20 + n)
    p = (1.5, math.inf, 3.0)[:n]
    params = HerzParams(p, (0.25, 0.125, -0.25)[:n], (2.0, 0.75, math.inf)[:n])
    assert mixed_herz_norm(f, params) == former_mixed_herz(f, params)
    assert mixed_lebesgue_norm(f, p) == former_mixed_lebesgue(f, p)


def former_axis_reduce_herz(mag, lo, v, p, alpha, q):
    """The one-axis reduction with one weighted term built per annulus."""
    C, M = mag.shape
    hi = lo + C
    mu = 2.0 ** (-v)
    pw = None if math.isinf(p) else mag ** p
    terms = []
    j = 0
    while (1 << j) <= max(hi - 1, -lo):
        w = 2.0 ** ((1 - v + j) * alpha)
        p0, p1 = max(1 << j, lo), min(1 << (j + 1), hi)
        n0, n1 = max(-(1 << (j + 1)), lo), min(-(1 << j), hi)
        acc = np.zeros(M)
        for a, b in ((p0, p1), (n0, n1)):
            if b > a and pw is None:
                np.maximum(acc, mag[a - lo:b - lo].max(axis=0), out=acc)
            elif b > a:
                acc += pw[a - lo:b - lo].sum(axis=0)
        terms.append(w * (acc if pw is None else (acc * mu) ** (1.0 / p)))
        j += 1
    a = mag[0 - lo] if lo <= 0 < hi else np.zeros(M)
    b = mag[-1 - lo] if lo <= -1 < hi else np.zeros(M)
    if pw is None:
        glog, top = alpha, np.maximum(a, b) * 2.0 ** (-v * alpha)
    else:
        glog = alpha + 1.0 / p
        top = (a ** p + b ** p) ** (1.0 / p) * 2.0 ** (-1.0 / p - v * glog)
    if math.isinf(q):
        out = top.copy()
        for t in terms:
            np.maximum(out, t, out=out)
        return out
    stack = np.vstack(terms) if terms else np.zeros((0, M))
    peak = np.maximum(stack.max(axis=0) if terms else np.zeros(M), top)
    safe = np.where(peak > 0.0, peak, 1.0)
    s = ((stack / safe) ** q).sum(axis=0)
    s += (top / safe) ** q / (1.0 - 2.0 ** (-glog * q))
    return np.where(peak > 0.0, safe * s ** (1.0 / q), 0.0)


@pytest.mark.parametrize("p, alpha, q", [(1.0, 0.25, 2.0), (2.0, -0.25, 0.5),
                                         (3.0, 0.0, math.inf),
                                         (math.inf, 0.25, 1.5),
                                         (math.inf, 0.5, math.inf)])
def test_axis_reduce_bitwise_equals_former_loop(p, alpha, q):
    rng = np.random.default_rng(11)
    for C, M, lo, v in [(1, 1, 0, 0), (37, 1, -20, 3), (200, 5, -64, 6),
                        (64, 33, 3, -2), (90, 4, -95, 1), (16, 2, 0, 4),
                        (2048, 6, -1024, 7), (1500, 3, -700, 2)]:
        mag = rng.lognormal(size=(C, M)) * (rng.random((C, M)) < 0.6)
        got = _axis_reduce_herz(mag, lo, v, p, alpha, q)
        want = former_axis_reduce_herz(mag, lo, v, p, alpha, q)
        assert np.array_equal(got, want)
        # a transposed (M, C) stack: each column has the bits of its own
        # (C, 1) call, annuli past 128 terms and 8 annuli included
        stack = np.ascontiguousarray(mag.T).T
        assert stack.flags.f_contiguous
        got = _axis_reduce_herz(stack, lo, v, p, alpha, q)
        for i in range(M):
            column = np.ascontiguousarray(mag[:, i:i + 1])
            assert np.array_equal(
                got[i:i + 1], _axis_reduce_herz(column, lo, v, p, alpha, q))
            assert np.array_equal(
                got[i:i + 1],
                former_axis_reduce_herz(column, lo, v, p, alpha, q))


# (n, G, L) and a layer with p = inf on one axis and q = inf on another
BATCH_CASES = [
    (1, 2048, 16.0, HerzParams((3.0,), (0.25,), (2.0,))),
    (1, 2048, 16.0, HerzParams((math.inf,), (0.25,), (1.5,))),
    (1, 1024, 8.0, HerzParams((2.0,), (-0.25,), (math.inf,))),
    (2, 512, 16.0, HerzParams((2.0, math.inf), (0.25, 0.125),
                              (math.inf, 1.5))),
    (2, 512, 16.0, HerzParams((1.5, 3.0), (0.0, 0.25), (2.0, 0.75))),
    (3, 16, 4.0, HerzParams((math.inf, 2.0, 3.0), (0.125, 0.25, 0.0),
                            (2.0, math.inf, 1.5))),
]


@pytest.mark.parametrize("n, G, L, params", BATCH_CASES)
def test_magnitude_herz_norms_equal_one_call_per_array(n, G, L, params):
    # three arrays of a wide dynamic range and one all-zero level: the
    # batch has the bits of one magnitude_herz_norm call per array, and
    # that of the one reduction it was before the batch
    rng = np.random.default_rng(n * 1000 + G)
    mags = [rng.lognormal(0.0, 2.0, size=(G,) * n)
            * (rng.random((G,) * n) < 0.7) for _ in range(3)]
    mags.insert(2, np.zeros((G,) * n))
    got = magnitude_herz_norms(mags, L, params)
    assert got.shape == (4,) and got[2] == 0.0
    v = _log2_exact(G) - _log2_exact(L)
    for norm, mag in zip(got.tolist(), mags):
        assert norm == magnitude_herz_norm(mag, L, params)
        assert norm == float(_cells_mixed_herz(mag, (-G // 2,) * n, v,
                                               params))


def test_magnitude_herz_norms_check_the_dimension():
    with pytest.raises(ValueError, match="n = 2"):
        magnitude_herz_norms([np.ones(8)], 8.0,
                             HerzParams((2.0, 2.0), (0.0, 0.0), (2.0, 2.0)))


@pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
def test_lq_envelope_equals_loop_from_zeros(beta):
    rng = np.random.default_rng(4)
    terms = [np.abs(rng.standard_normal((8, 8))) for _ in range(4)]
    terms[1][0, 0] = 0.0
    want = np.zeros((8, 8))
    for t in terms:
        want = np.maximum(want, t) if math.isinf(beta) else want + t ** beta
    if not math.isinf(beta):
        want = want ** (1.0 / beta)
    assert np.array_equal(lq_envelope(iter(terms), beta), want)


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, math.inf])
def test_lq_envelope_neither_keeps_nor_writes_its_terms(beta):
    # read-only terms, and one buffer refilled for every term, give the
    # envelope of the separate arrays in the operator form (w a) ** beta;
    # so do the weighted terms multiplied into the envelope's scratch
    rng = np.random.default_rng(5)
    terms = [np.abs(rng.standard_normal((16, 16))) for _ in range(5)]
    for t in terms:
        t.flags.writeable = False
    weights = [2.0 ** (0.375 * k) for k in range(5)]
    buf = np.empty((16, 16))
    refilled = lq_envelope((np.multiply(t, w, out=buf)
                            for w, t in zip(weights, terms)), beta)
    if math.isinf(beta):
        want = weights[0] * terms[0]
        for w, t in zip(weights[1:], terms[1:]):
            want = np.maximum(want, w * t)
    else:
        want = (weights[0] * terms[0]) ** beta
        for w, t in zip(weights[1:], terms[1:]):
            want = want + (w * t) ** beta
        want = want ** (1.0 / beta)
    assert np.array_equal(refilled, want)
    assert np.array_equal(_weighted_envelope(terms, weights, beta), want)
    assert np.array_equal(lq_envelope([terms[2]], beta),
                          terms[2] if math.isinf(beta)
                          else (terms[2] ** beta) ** (1.0 / beta))
