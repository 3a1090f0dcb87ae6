import math

import numpy as np
import pytest

from herzlab import (CoeffSeq, SampledField, SpectralSystem, analyze,
                     build_fj_pair, lambda_star, load_coeffs, make_field,
                     random_band_field, roundtrip_error, save_coeffs,
                     spectral_transform, synthesize)
from herzlab import frames, grid, lpdecomp
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
    for k in range(system.K + 1):
        u = W.conj().T @ (np.conj(system.multiplier(k)) * spec)
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
        total += 2.0 ** (-k / 2.0) / h * (W.conj().T @ (system.multiplier(k) * (W @ comb)))
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
# Former full-size route: every level inverse-transformed at grid size and
# subsampled (meshgrid gather plus np.nditer) for analysis; for synthesis one
# dict scan and one scalar add per coefficient, then a full forward and a
# full inverse transform per level.  The lattice route folds and tiles
# instead, which changes rounding only: values agree to 1e-13, while entry
# keys, their order and their Python types stay exact.
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
            spec.with_values(spec.values * system.multiplier(k)))
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
        cut = spec.with_values(spec.values * system.multiplier(k))
        acc = acc + spectral_transform(cut).values * (2.0 ** (-k * n / 2.0) / h ** n)
    return SampledField(n, L, G, acc, domain="space")


def _close(got, want, rel):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("n, L, G, K", [(1, 16.0, 512, 3), (2, 8.0, 64, 2),
                                        (3, 4.0, 32, 3)])
def test_transforms_match_former_per_entry_route(n, L, G, K):
    system = build_fj_pair(n, L, G, K)
    field = random_band_field(n, L, G, system.band_radius(), seed=40 + n)
    lam = analyze(field, system)
    ref = former_analyze(field, system)
    assert list(lam.entries) == list(ref.entries)
    assert all(type(v) is complex for v in lam.entries.values())
    assert _close(np.array(list(lam.entries.values())),
                  np.array(list(ref.entries.values())), 1e-13)
    assert _close(synthesize(lam, system).values,
                  former_synthesize(ref, system).values, 1e-13)
    # a sparse subset inserted in shuffled order, signed zeros included,
    # synthesizes bit for bit as the same subset inserted in sorted order
    rng = np.random.default_rng(n)
    keys = list(ref.entries)
    pick = rng.choice(len(keys), size=len(keys) // 3, replace=False)
    sparse = {keys[i]: ref.entries[keys[i]] for i in pick}
    sparse[keys[pick[0]]] = complex(-0.0, -0.0)
    shuffled = CoeffSeq(n, K, L, sparse)
    ordered = CoeffSeq(n, K, L, dict(sorted(sparse.items())))
    out = synthesize(shuffled, system).values
    assert np.array_equal(out.view(np.float64),
                          synthesize(ordered, system).values.view(np.float64))
    assert _close(out, former_synthesize(shuffled, system).values, 1e-13)


@pytest.mark.parametrize("n, L, G, K", [(1, 16.0, 256, 3), (2, 4.0, 32, 2)])
def test_transforms_exact_for_arbitrary_multipliers(n, L, G, K):
    # folding and tiling are exact DFT identities, not band-limited ones:
    # random multipliers over the whole grid and a white-noise field; the
    # crops are the centered arrays in native order
    rng = np.random.default_rng(70 + n)
    crops = tuple(np.fft.ifftshift(rng.uniform(0.1, 1.0, (G,) * n))
                  for _ in range(K + 1))
    system = SpectralSystem("fj", n, L, G, K, crops, (math.nan, math.nan))
    noise = rng.standard_normal((G,) * n) + 1j * rng.standard_normal((G,) * n)
    field = SampledField(n, L, G, noise)
    lam = analyze(field, system)
    ref = former_analyze(field, system)
    assert list(lam.entries) == list(ref.entries)
    assert _close(np.array(list(lam.entries.values())),
                  np.array(list(ref.entries.values())), 1e-12)
    assert _close(synthesize(ref, system).values,
                  former_synthesize(ref, system).values, 1e-12)


def test_one_pruned_full_size_transform_each_way(monkeypatch):
    # L = 2: level 0 has N = 2 points per axis and is transformed at size 4
    n, L, G, K = 2, 2.0, 64, 2
    system = build_fj_pair(n, L, G, K)
    field = random_band_field(n, L, G, system.band_radius(), seed=5)
    calls = []

    def forward(values, width):
        calls.append(("fft", values.shape[0], width))
        return grid.band_fft(values, width)

    def inverse(crop, size):
        calls.append(("ifft", size, crop.shape[0]))
        return grid.band_ifft(crop, size)

    monkeypatch.setattr(lpdecomp, "band_fft", forward)
    monkeypatch.setattr(frames, "band_fft", forward)
    monkeypatch.setattr(frames, "band_ifft", inverse)
    width = system.width
    assert width < G  # the full-size transforms are pruned to the band
    lam = analyze(field, system)
    assert calls == [("fft", G, width), ("ifft", 4, 4), ("ifft", 4, 4),
                     ("ifft", 8, 8)]
    calls.clear()
    synthesize(lam, system)
    assert calls == [("fft", 4, 4), ("fft", 4, 4), ("fft", 8, 8),
                     ("ifft", G, width)]


@pytest.mark.parametrize("n", [1, 2])
def test_roundtrip_with_two_point_coarsest_lattice(n):
    system = build_fj_pair(n, 2.0, 64, 2)
    field = random_band_field(n, 2.0, 64, system.band_radius(), seed=n)
    assert roundtrip_error(field, system) <= 1e-12


def test_roundtrip_rejects_zero_field_before_transforming(monkeypatch):
    def refuse(*args):
        raise AssertionError("transform ran on a zero field")

    system = build_fj_pair(1, 16.0, 512, 3)
    monkeypatch.setattr(frames, "analyze", refuse)
    monkeypatch.setattr(frames, "synthesize", refuse)
    with pytest.raises(ValueError, match="zero field"):
        roundtrip_error(make_field(1, 16.0, 512), system)


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
    assert lam.levels() is levels
    assert not pos.flags.writeable and not vals.flags.writeable


@pytest.mark.parametrize("entries, message", [
    ({(0, (1,)): 1j, (3, (0,)): 1j, (1, (0, 0)): 1j},
     r"entry level 3 outside 0\.\.2"),
    ({(0, (1,)): 1j, (1, (0, 0)): 1j, (-1, (0,)): 1j},
     r"entry index \(0, 0\) is not 1-dimensional"),
    ({(2, (1,)): 1j, (5, (0, 0)): 1j}, r"entry level 5 outside 0\.\.2"),
])
def test_coeffseq_names_the_first_bad_key(entries, message):
    with pytest.raises(ValueError, match=message):
        CoeffSeq(1, 2, 16.0, entries)


def _groups(entries):
    """The entries as from_levels groups, one group per entry."""
    return [(k, [m], [v]) for (k, m), v in entries.items()]


@pytest.mark.parametrize("entries, message", [
    ({(0, (1,)): 1j, (3, (0,)): 1j, (1, (0, 0)): 1j},
     r"entry level 3 outside 0\.\.2"),
    ({(0, (1,)): 1j, (1, (0, 0)): 1j, (-1, (0,)): 1j},
     r"entry index \(0, 0\) is not 1-dimensional"),
    ({(2, (1,)): 1j, (5, (0, 0)): 1j}, r"entry level 5 outside 0\.\.2"),
])
def test_from_levels_names_the_first_bad_key(entries, message):
    with pytest.raises(ValueError, match=message):
        CoeffSeq.from_levels(1, 2, 16.0, _groups(entries))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_from_levels_equals_dict_constructor(n):
    rng = np.random.default_rng(n)
    entries = {}
    for _ in range(300):
        k = int(rng.integers(0, 4))
        m = tuple(rng.integers(-4 << k, 4 << k, size=n).tolist())
        entries[(k, m)] = complex(*rng.standard_normal(2))
    # grouped by level in shuffled order, rows shuffled within each level
    levels = sorted({k for k, _ in entries}, key=lambda k: (k * 7) % 4)
    groups = []
    for k in levels:
        keys = [m for kk, m in entries if kk == k]
        order = rng.permutation(len(keys))
        groups.append((k, np.array([keys[i] for i in order]),
                       np.array([entries[(k, keys[i])] for i in order])))
    got = CoeffSeq.from_levels(n, 3, 16.0, groups)
    want = CoeffSeq(n, 3, 16.0, dict(sorted(entries.items())))
    assert len(got.levels()) == len(want.levels())
    for (k, pos, vals), (ref_k, ref_pos, ref_vals) in zip(got.levels(),
                                                          want.levels()):
        assert k == ref_k and type(k) is int
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(vals.view(np.float64),
                              ref_vals.view(np.float64))
        assert not pos.flags.writeable and not vals.flags.writeable
    assert list(got.entries.items()) == list(want.entries.items())
    assert all(type(v) is complex for v in got.entries.values())
    assert got.entries is got.entries


def test_entries_are_derived_from_the_levels_and_read_only(tmp_path):
    given = {(1, (3,)): 2, (0, (5,)): 0.5, (1, (-2,)): 1j, (0, (-7,)): -1}
    lam = CoeffSeq(1, 2, 16.0, given)
    want = {(0, (-7,)): -1 + 0j, (0, (5,)): 0.5 + 0j, (1, (-2,)): 1j,
            (1, (3,)): 2 + 0j}
    assert list(lam.entries.items()) == list(want.items())
    assert all(type(v) is complex for v in lam.entries.values())
    levels = [(k, pos.tolist(), vals.tolist()) for k, pos, vals in
              lam.levels()]
    lam_path = tmp_path / "lam.txt"
    save_coeffs(lam, lam_path)
    snapshot = lam_path.read_text()
    # changing the caller's dict afterwards changes nothing of the set
    given[(1, (4,))] = 5.0
    given[(0, (5,))] = 9.0
    assert dict(lam.entries) == want
    assert [(k, pos.tolist(), vals.tolist()) for k, pos, vals in
            lam.levels()] == levels
    save_coeffs(lam, lam_path)
    assert lam_path.read_text() == snapshot
    assert "count=4" in snapshot
    # and the mapping cannot be written, however the set was built
    built = CoeffSeq.from_levels(1, 2, 16.0, [(1, [[3]], [1.0])])
    for coeffs in (lam, built):
        with pytest.raises(TypeError):
            coeffs.entries[(2, (7,))] = 3.0
        with pytest.raises(TypeError):
            del coeffs.entries[next(iter(coeffs.entries))]
    assert built.level_entries(1) == {(3,): 1.0}
    assert built.level_entries(0) == {}


def test_from_levels_keeps_the_last_repeated_value():
    lam = CoeffSeq.from_levels(2, 2, 16.0, [
        (1, [[0, 1], [2, 3], [0, 1]], [1.0, 2.0, 3.0]),
        (0, [[5, 5]], [4.0]),
        (1, [[2, 3]], [5.0]),
        (0, [[5, 5]], [6.0]),
        (1, [[0, 1]], [7.0]),
    ])
    assert lam.entries == {(0, (5, 5)): 6.0, (1, (0, 1)): 7.0,
                           (1, (2, 3)): 5.0}
    assert list(lam.entries) == [(0, (5, 5)), (1, (0, 1)), (1, (2, 3))]
    assert CoeffSeq.from_levels(1, 0, 16.0, []).levels() == []


def _random_sets(n, count, rng):
    """count lists of groups with shuffled levels, repeated indices within
    a set, the same indices in several sets, and empty sets and groups."""
    shared = rng.integers(-6, 6, size=(5, n))
    sets = []
    for d in range(count):
        if d % 5 == 3:
            sets.append([] if d % 2 else [(1, np.zeros((0, n), np.int64),
                                            np.zeros(0))])
            continue
        groups = []
        for k in rng.permutation(4)[:int(rng.integers(1, 5))].tolist():
            rows = int(rng.integers(1, 12))
            pos = np.concatenate([shared, rng.integers(-6, 6,
                                                       size=(rows, n))])
            vals = rng.standard_normal(len(pos)) + 1j * d
            groups.append((k, pos, vals))
            # a second group repeating some of the level's indices
            groups.append((k, pos[::3], rng.standard_normal(len(pos[::3]))))
        sets.append(groups)
    return sets


@pytest.mark.parametrize("n", [1, 2])
def test_batch_from_levels_equals_one_from_levels_per_set(n):
    sets = _random_sets(n, 30, np.random.default_rng(60 + n))
    got = CoeffSeq.batch_from_levels(n, 3, 16.0, sets)
    assert len(got) == len(sets)
    for lam, groups in zip(got, sets):
        want = CoeffSeq.from_levels(n, 3, 16.0, groups)
        assert (lam.n, lam.K, lam.L) == (n, 3, 16.0)
        assert [k for k, _, _ in lam.levels()] == \
            [k for k, _, _ in want.levels()]
        for (k, pos, vals), (_, ref_pos, ref_vals) in zip(lam.levels(),
                                                          want.levels()):
            assert type(k) is int
            assert np.array_equal(pos, ref_pos) and pos.dtype == np.int64
            assert np.array_equal(vals.view(np.float64),
                                  ref_vals.view(np.float64))
            assert not pos.flags.writeable and not vals.flags.writeable
        assert list(lam.entries.items()) == list(want.entries.items())
    assert [lam.levels() for lam in got if not lam.entries] == [[]] * 6
    assert len(CoeffSeq.batch_from_levels(n, 3, 16.0, [])) == 0


def test_batch_from_levels_keeps_repeats_within_a_set_only():
    first, second, empty = CoeffSeq.batch_from_levels(1, 2, 16.0, [
        [(1, [[4], [2]], [1.0, 2.0]), (1, [[4]], [3.0])],
        [(1, [[4]], [5.0]), (0, [[4]], [6.0])],
        [],
    ])
    assert first.entries == {(1, (2,)): 2.0, (1, (4,)): 3.0}
    assert list(second.entries) == [(0, (4,)), (1, (4,))]
    assert second.entries == {(0, (4,)): 6.0, (1, (4,)): 5.0}
    assert empty.levels() == [] and empty.entries == {}


def test_batch_from_levels_names_the_first_bad_key_of_the_first_bad_set():
    good = [(0, [[1]], [1j])]
    with pytest.raises(ValueError, match=r"entry index \(0, 0\) is not "
                                         r"1-dimensional"):
        CoeffSeq.batch_from_levels(1, 2, 16.0, [
            good, [(1, [[0, 0]], [1j]), (5, [[0]], [1j])],
            [(7, [[0]], [1j])]])
    with pytest.raises(ValueError, match=r"entry level 5 outside 0\.\.2"):
        CoeffSeq.batch_from_levels(1, 2, 16.0, [
            good, good, [(5, [[0]], [1j])], [(1, [[0, 0]], [1j])]])


@pytest.mark.parametrize("groups, message", [
    # level 0 has two indices and one value, level 1 one index and two
    ([(0, [[1], [2]], [1]), (1, [[3]], [5, 6])],
     r"level 0 values have shape \(1,\), need \(2,\)"),
    ([(2, [[3]], [5, 6])], r"level 2 values have shape \(2,\), need \(1,\)"),
    ([(0, [], [1])], r"level 0 positions have shape \(0,\), need \(H, 1\)"),
    ([(0, [1, 2], [1, 2])],
     r"level 0 positions have shape \(2,\), need \(H, 1\)"),
    ([(1, [[1.5]], [1])], r"level 1 positions are float64, need integers"),
    ([(0.5, [[1]], [1])], r"entry level 0\.5 is not an integer"),
    ([(0, [[1], [2, 3]], [1, 2])], r"level 0 positions are ragged"),
    ([(0, [[1], [2]], [[1], [2, 3]])], r"level 0 values are ragged"),
    ([(1, [[1], [2]], [1j, None])], r"level 1 values hold None, need numbers"),
    # numpy's own messages for these named no level
    ([(0, [[1]], ["a"])], r"^level 0 values are not numbers$"),
    ([(1, [[1], [2]], [1j, object()])], r"^level 1 values are not numbers$"),
    # a nan or infinite part once passed and changed the norms silently
    ([(0, [[1], [2]], [1, complex(1, math.nan)])],
     r"^level 0 values are not finite$"),
    ([(2, [[1]], [math.inf])], r"^level 2 values are not finite$"),
])
def test_from_levels_rejects_misaligned_groups(groups, message):
    with pytest.raises(ValueError, match=message):
        CoeffSeq.from_levels(1, 2, 16.0, groups)


@pytest.mark.parametrize("entries, message", [
    ({(0, (1,)): 1j, (0, (1.5,)): 1j},
     r"level 0 positions are float64, need integers"),
    ({(0, (1,)): 1j, (0.5, (1,)): 1j}, r"entry level 0\.5 is not an integer"),
])
def test_coeffseq_rejects_non_integer_keys(entries, message):
    with pytest.raises(ValueError, match=message):
        CoeffSeq(1, 2, 16.0, entries)


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


def _assert_same_set(got, want):
    # levels, index and value dtypes, read-only flags and entries order
    assert (got.n, got.K, got.L) == (want.n, want.K, want.L)
    assert len(got.levels()) == len(want.levels())
    for (k, pos, vals), (k2, pos2, vals2) in zip(got.levels(), want.levels()):
        assert type(k) is type(k2) and k == k2
        for a, b in ((pos, pos2), (vals, vals2)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
            assert not a.flags.writeable and not b.flags.writeable
            assert a.flags.c_contiguous and b.flags.c_contiguous
    assert list(got.entries.items()) == list(want.entries.items())


@pytest.mark.parametrize("n, G", [(1, 256), (2, 64)])
def test_unchecked_builders_equal_from_levels(n, G):
    # analyze and lambda_star skip the checks, sort and de-duplication of
    # from_levels; what they build must be the set from_levels builds
    system = build_fj_pair(n, 16.0, G, 2)
    coeffs = analyze(random_band_field(n, 16.0, G, system.band_radius(),
                                       seed=5), system)
    sparse = CoeffSeq.from_levels(n, 2, 16.0, [
        (k, pos[::7], vals[::7]) for k, pos, vals in coeffs.levels()])
    for built in (coeffs, lambda_star(sparse, 1.0, 3.0, 2),
                  lambda_star(sparse, math.inf, 3.0, 2)):
        _assert_same_set(built, CoeffSeq.from_levels(
            built.n, built.K, built.L,
            [(k, np.array(pos), np.array(vals))
             for k, pos, vals in built.levels()]))
