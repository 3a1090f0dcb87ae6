import math

import numpy as np
import pytest

from herzlab import (CoeffSeq, SampledField, analyze, build_fj_pair,
                     load_coeffs, make_field, random_band_field,
                     roundtrip_error, save_coeffs, spectral_transform,
                     synthesize)
from herzlab.frames import lattice_span

# ---------------------------------------------------------------------------
# Reference route: the same analysis/synthesis formulas evaluated with an
# explicit O(G^2) centered DFT matrix instead of shifted FFTs, so the two
# implementations share no transform code.
# ---------------------------------------------------------------------------


def _dft_matrix(L, G):
    x = (np.arange(G) - G // 2) * (L / G)
    xi = (np.arange(G) - G // 2) * (2.0 * np.pi / L)
    return np.exp(-1j * np.outer(xi, x)) / math.sqrt(G)


def reference_analyze(field, system):
    W = _dft_matrix(field.L, field.G)
    spec = W @ field.values
    entries = {}
    for k, mult in enumerate(system.multipliers):
        u = W.conj().T @ (np.conj(mult) * spec)
        stride = field.G // int(2.0 ** k * field.L)
        span = int(2.0 ** k * field.L / 2.0)
        for m in range(-span, span):
            j = m * stride + field.G // 2
            entries[(k, (m,))] = 2.0 ** (-k / 2.0) * u[j]
    return CoeffSeq(field.n, system.K, field.L, entries)


def reference_synthesize(coeffs, system):
    G, L = system.G, system.L
    W = _dft_matrix(L, G)
    h = L / G
    total = np.zeros(G, dtype=complex)
    for k in range(system.K + 1):
        comb = np.zeros(G, dtype=complex)
        stride = G // int(2.0 ** k * L)
        for (kk, m), val in coeffs.entries.items():
            if kk == k:
                comb[m[0] * stride + G // 2] = val
        total += 2.0 ** (-k / 2.0) / h * (W.conj().T @ (system.multipliers[k] * (W @ comb)))
    return make_field(1, L, G).with_values(total)


def _setup():
    field = random_band_field(1, 16.0, 512, 8.0, seed=23)
    system = build_fj_pair(1, 16.0, 512, 3)
    return field, system


def test_analyze_matches_reference():
    field, system = _setup()
    lam = analyze(field, system)
    ref = reference_analyze(field, system)
    assert set(lam.entries) == set(ref.entries)
    worst = max(abs(lam.entries[key] - ref.entries[key]) for key in ref.entries)
    scale = max(abs(v) for v in ref.entries.values())
    assert worst < 1e-12 * scale


def test_synthesize_matches_reference():
    field, system = _setup()
    lam = analyze(field, system)
    out = synthesize(lam, system)
    ref = reference_synthesize(lam, system)
    assert np.max(np.abs(out.values - ref.values)) < 1e-12 * np.max(np.abs(ref.values))


def test_roundtrip_on_band_limited_fields():
    system = build_fj_pair(1, 16.0, 4096, 6)
    for seed in range(5):
        field = random_band_field(1, 16.0, 4096, system.band_radius(), seed=seed)
        assert roundtrip_error(field, system) < 1e-12


def test_roundtrip_2d():
    system = build_fj_pair(2, 16.0, 512, 3)
    field = random_band_field(2, 16.0, 512, system.band_radius(), seed=2)
    assert roundtrip_error(field, system) < 1e-12


def test_roundtrip_needs_nonzero_field():
    system = build_fj_pair(1, 16.0, 512, 3)
    with pytest.raises(ValueError):
        roundtrip_error(make_field(1, 16.0, 512), system)


def test_analyze_rejects_mismatched_grid():
    field, _ = _setup()
    other = build_fj_pair(1, 16.0, 1024, 3)
    with pytest.raises(ValueError):
        analyze(field, other)


def test_levels_deeper_than_grid_step_are_rejected():
    # stride 2^-k must be a multiple of h = L/G; here log2(G/L) = 5
    field = random_band_field(1, 16.0, 512, 8.0, seed=1)
    system = build_fj_pair(1, 16.0, 512, 3)
    good = analyze(field, system)
    assert good.K == 3
    deep = CoeffSeq(1, 6, 16.0, {(6, (0,)): 1.0 + 0j})
    with pytest.raises(ValueError):
        synthesize(deep, build_fj_pair(1, 16.0, 512, 4))


def test_coeff_file_roundtrip(tmp_path):
    field, system = _setup()
    lam = analyze(field, system)
    path = tmp_path / "lam.coeffs"
    save_coeffs(lam, path)
    back = load_coeffs(path)
    assert back.n == lam.n and back.K == lam.K and back.L == lam.L
    assert back.entries == lam.entries  # %.17g round-trips bit-exactly


def test_load_coeffs_rejects_garbage(tmp_path):
    path = tmp_path / "bad.coeffs"
    path.write_text("something else\n")
    with pytest.raises(ValueError):
        load_coeffs(path)


# ---------------------------------------------------------------------------
# Former per-entry route: meshgrid gather plus np.nditer for analysis, one
# dict scan and one scalar add per coefficient for synthesis.  The array
# route must reproduce it bit for bit, entry order included.
# ---------------------------------------------------------------------------


def _former_stride(G, L, k):
    stride = G // (1 << k) / L
    if stride != int(stride) or int(stride) < 1:
        raise ValueError(f"level {k} lattice does not embed in the grid")
    return int(stride)


def former_analyze(field, system):
    n, G = field.n, field.G
    spec = spectral_transform(field)
    entries = {}
    for k in range(system.K + 1):
        stride = _former_stride(G, field.L, k)
        half = lattice_span(field.L, k)
        u = spectral_transform(
            spec.with_values(spec.values * system.multipliers[k]))
        scale = 2.0 ** (-k * n / 2.0)
        offsets = [(np.arange(-half, half) * stride + G // 2) for _ in range(n)]
        mesh = np.meshgrid(*offsets, indexing="ij")
        sub = u.values[tuple(mesh)]
        it = np.nditer(sub, flags=["multi_index"])
        for val in it:
            m = tuple(int(i) - half for i in it.multi_index)
            entries[(k, m)] = complex(val) * scale
    return CoeffSeq(n, system.K, field.L, entries)


def former_synthesize(coeffs, system):
    n, G, L = system.n, system.G, system.L
    h = L / G
    acc = np.zeros((G,) * n, dtype=np.complex128)
    for k in range(system.K + 1):
        level = coeffs.level_entries(k)
        if not level:
            continue
        stride = _former_stride(G, L, k)
        comb = np.zeros((G,) * n, dtype=np.complex128)
        for m, val in level.items():
            comb[tuple(c * stride + G // 2 for c in m)] += val
        spec = spectral_transform(SampledField(n, L, G, comb, domain="space"))
        cut = spec.with_values(spec.values * system.multipliers[k])
        acc = acc + spectral_transform(cut).values * (2.0 ** (-k * n / 2.0) / h ** n)
    return SampledField(n, L, G, acc, domain="space")


@pytest.mark.parametrize("n, L, G, K", [(1, 16.0, 512, 3), (2, 8.0, 64, 2),
                                        (3, 4.0, 32, 3)])
def test_transforms_bitwise_equal_former_per_entry_route(n, L, G, K):
    system = build_fj_pair(n, L, G, K)
    field = random_band_field(n, L, G, system.band_radius(), seed=40 + n)
    lam = analyze(field, system)
    ref = former_analyze(field, system)
    assert list(lam.entries) == list(ref.entries)
    assert all(type(v) is complex for v in lam.entries.values())
    got = np.array(list(lam.entries.values()))
    assert np.array_equal(got.view(np.float64),
                          np.array(list(ref.entries.values())).view(np.float64))
    assert np.array_equal(synthesize(lam, system).values,
                          former_synthesize(ref, system).values)
    # a sparse subset inserted in shuffled order, signed zeros included
    rng = np.random.default_rng(n)
    keys = list(ref.entries)
    pick = rng.choice(len(keys), size=len(keys) // 3, replace=False)
    sparse = {keys[i]: ref.entries[keys[i]] for i in pick}
    sparse[keys[pick[0]]] = complex(-0.0, -0.0)
    shuffled = CoeffSeq(n, K, L, sparse)
    out = synthesize(shuffled, system).values
    want = former_synthesize(shuffled, system).values
    assert np.array_equal(out.view(np.float64), want.view(np.float64))


def test_levels_are_sorted_arrays_per_level():
    lam = CoeffSeq(2, 3, 16.0, {(2, (1, -1)): 2j, (0, (3, 0)): 1.5,
                                (2, (-4, 5)): -1.0 + 0j, (2, (1, -3)): 0.5j})
    levels = lam.levels()
    assert [k for k, _, _ in levels] == [0, 2]
    k, pos, vals = levels[1]
    assert pos.dtype == np.int64 and vals.dtype == np.complex128
    assert pos.tolist() == [[-4, 5], [1, -3], [1, -1]]
    assert vals.tolist() == [-1.0 + 0j, 0.5j, 2j]
    assert CoeffSeq(1, 2, 16.0, {}).levels() == []


def test_synthesize_rejects_index_outside_level_span():
    system = build_fj_pair(1, 16.0, 512, 3)
    # the level-1 span is [-16, 16)
    bad = CoeffSeq(1, 3, 16.0, {(1, (0,)): 1.0 + 0j, (1, (16,)): 1.0 + 0j})
    with pytest.raises(ValueError, match=r"lattice index \(16,\) outside "
                                         r"level 1 span"):
        synthesize(bad, system)


def test_analyze_validates_field_when_called():
    field, system = _setup()
    with pytest.raises(ValueError, match="space-domain"):
        analyze(spectral_transform(field), system)
    with pytest.raises(ValueError, match="grid"):
        analyze(field, build_fj_pair(1, 16.0, 1024, 3))


@pytest.mark.parametrize("body, names", [
    ("n=1 K=2 L16 count=1\n0 0 1 0\n", ["L16"]),
    ("n=1 K=x L=16 count=1\n0 0 1 0\n", ["K", "'x'"]),
    ("n=1 K=2 L=16\n", ["count"]),
    ("n=1 K=2 L=16 count=2\n0 0 1 0\n0 z 1 0\n", ["line 4", "0 z 1 0"]),
    ("n=1 K=2 L=16 count=1\n0 0 1\n", ["line 3", "3 fields"]),
])
def test_load_coeffs_names_the_malformed_part(tmp_path, body, names):
    path = tmp_path / "bad.coeffs"
    path.write_text("herzcoeffs 1\n" + body)
    with pytest.raises(ValueError) as info:
        load_coeffs(path)
    for name in names:
        assert name in str(info.value)
