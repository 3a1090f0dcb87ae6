import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herzlab import (CoeffSeq, EmbeddingSpec, HerzParams, HypothesisError,
                     SeqSpaceParams, SpaceParams, dilation_family,
                     dilation_scan, hardy_check, mixed_herz_norm,
                     necessity_fit, ppn_check, seq_embedding_check, seq_norm,
                     single_spike_ratio)
from herzlab import seqspace
from herzlab.embedlab import _probes, _random_coeffs, _rational


def _seq(family, p, alpha, r, s, beta):
    return SeqSpaceParams(HerzParams(p, alpha, r), s=s, beta=beta, family=family)


def _fun(p, alpha, r, s, beta):
    return SpaceParams(HerzParams(p, alpha, r), s=s, beta=beta, family="B")


def conforming(theorem):
    if theorem == "sobolev":
        return EmbeddingSpec(theorem,
                             _seq("f", 1.0, 0.25, 2.0, 1.75, 2.0),
                             _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))
    if theorem == "jawerth-strict":
        return EmbeddingSpec(theorem,
                             _seq("f", 1.0, 0.25, 2.0, 1.75, 3.0),
                             _seq("b", 2.0, 0.0, 1.5, 1.0, 2.0))
    if theorem == "jawerth-equal":
        return EmbeddingSpec(theorem,
                             _seq("f", 1.0, 0.25, 2.0, 1.75, 2.7),
                             _seq("b", 2.0, 0.25, 2.0, 1.25, 2.0))
    if theorem == "franke-strict":
        return EmbeddingSpec(theorem,
                             _seq("b", 1.0, 0.25, 2.0, 1.75, 2.0),
                             _seq("f", 2.0, 0.0, 2.0, 1.0, 1.7))
    if theorem == "franke-equal":
        return EmbeddingSpec(theorem,
                             _seq("b", 1.0, 0.25, 2.0, 1.75, 2.0),
                             _seq("f", 2.0, 0.25, 2.0, 1.25, 3.3))
    assert theorem == "besov-function"
    return EmbeddingSpec(theorem,
                         _fun(1.0, 0.25, 2.0, 1.75, 2.0),
                         _fun(2.0, 0.25, 2.0, 1.0, 2.0))


ALL_THEOREMS = ("sobolev", "jawerth-strict", "jawerth-equal",
                "franke-strict", "franke-equal", "besov-function")


@pytest.mark.parametrize("theorem", ALL_THEOREMS)
def test_conforming_specs_validate(theorem):
    spec = conforming(theorem)
    assert spec.hypothesis_errors() == []
    spec.validate()


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        EmbeddingSpec("other", _seq("f", 1.0, 0.25, 2.0, 1.75, 2.0),
                      _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))


def test_sequence_theorems_demand_sequence_params():
    with pytest.raises(TypeError):
        EmbeddingSpec("sobolev", _fun(1.0, 0.25, 2.0, 1.75, 2.0),
                      _fun(2.0, 0.0, 2.0, 1.0, 2.0))
    with pytest.raises(TypeError):
        EmbeddingSpec("besov-function", _seq("f", 1.0, 0.25, 2.0, 1.75, 2.0),
                      _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))


def test_source_and_target_dimensions_must_match():
    with pytest.raises(ValueError, match="source and target dimensions"):
        EmbeddingSpec("sobolev", _seq("f", 1.0, 0.25, 2.0, 1.75, 2.0),
                      _seq("f", (2.0, 2.0), (0.0, 0.0), (2.0, 2.0), 1.0,
                           2.0))


def test_wrong_family_of_the_right_case_is_a_broken_hypothesis():
    # the conforming sobolev spec with a b source: b is a sequence family,
    # so the spec is built, but sobolev needs f to f
    spec = EmbeddingSpec("sobolev", _seq("b", 1.0, 0.25, 2.0, 1.75, 2.0),
                         _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))
    assert spec.hypothesis_errors() == ["families must be f to f, got b to f"]
    with pytest.raises(HypothesisError, match="families must be f to f"):
        spec.validate()


def test_one_parameter_class_whose_family_case_picks_the_theorems():
    assert SeqSpaceParams is SpaceParams  # both as exported by herzlab
    herz = HerzParams(2.0, 0.25, 2.0)
    with pytest.raises(TypeError, match="family b or f for sobolev"):
        EmbeddingSpec("sobolev", SpaceParams(herz, 1.0, 2.0, "F"),
                      _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))
    with pytest.raises(TypeError, match="family B or F for besov-function"):
        EmbeddingSpec("besov-function", _fun(2.0, 0.25, 2.0, 1.0, 2.0),
                      SpaceParams(herz, 1.0, 2.0, "b"))
    with pytest.raises(TypeError):
        EmbeddingSpec("sobolev", herz, _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))


def test_integrability_must_increase_strictly():
    spec = EmbeddingSpec("sobolev", _seq("f", 2.0, 0.25, 2.0, 1.75, 2.0),
                         _seq("f", 2.0, 0.0, 2.0, 1.375, 2.0))
    assert any("q[0] < p[0]" in e for e in spec.hypothesis_errors())
    # the function-space variant allows equality
    eq = EmbeddingSpec("besov-function", _fun(2.0, 0.25, 2.0, 1.0, 2.0),
                       _fun(2.0, 0.25, 2.0, 1.0, 2.0))
    assert eq.hypothesis_errors() == []


def test_weight_comparisons_per_theorem():
    # equal weights break the strict variants but not the loose ones
    strict = EmbeddingSpec("jawerth-strict",
                           _seq("f", 1.0, 0.0, 2.0, 1.5, 3.0),
                           _seq("b", 2.0, 0.0, 1.5, 1.0, 2.0))
    assert any("alpha2[0] > alpha1[0]" in e for e in strict.hypothesis_errors())
    # unequal weights break the matched variants
    mixed = EmbeddingSpec("franke-equal",
                          _seq("b", 1.0, 0.5, 2.0, 2.0, 2.0),
                          _seq("f", 2.0, 0.25, 2.0, 1.25, 3.3))
    assert any("alpha2[0] = alpha1[0]" in e for e in mixed.hypothesis_errors())


def test_annulus_exponents_shared_or_free():
    shifted = EmbeddingSpec("sobolev", _seq("f", 1.0, 0.25, 2.0, 1.75, 2.0),
                            _seq("f", 2.0, 0.0, 1.5, 1.0, 2.0))
    assert any("annulus exponents must match" in e
               for e in shifted.hypothesis_errors())
    free = conforming("jawerth-strict")  # 2.0 vs 1.5 there, and that is fine
    assert free.source.herz.q != free.target.herz.q
    assert free.hypothesis_errors() == []


def test_forced_outer_exponents():
    spec = EmbeddingSpec("jawerth-strict",
                         _seq("f", 1.0, 0.25, 2.0, 1.75, 3.0),
                         _seq("b", 2.0, 0.0, 1.5, 1.0, 2.5))
    assert any("target level exponent must be 2.0" in e
               for e in spec.hypothesis_errors())
    spec2 = EmbeddingSpec("franke-strict",
                          _seq("b", 1.0, 0.25, 2.0, 1.75, 2.5),
                          _seq("f", 2.0, 0.0, 2.0, 1.0, 1.7))
    assert any("source level exponent must be 2.0" in e
               for e in spec2.hypothesis_errors())
    # franke-equal forces min(r_n, p_n) through the delta rule
    spec3 = EmbeddingSpec("franke-equal",
                          _seq("b", 1.0, 0.25, 3.0, 1.75, 3.0),
                          _seq("f", 2.0, 0.25, 3.0, 1.25, 3.3))
    assert spec3.franke_delta() == 2.0
    assert any("source level exponent must be 2.0" in e
               for e in spec3.hypothesis_errors())


def test_balance_checked_unless_ignored():
    spec = EmbeddingSpec("sobolev", _seq("f", 1.0, 0.25, 2.0, 2.0, 2.0),
                         _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))
    assert spec.balance_class() == "<"
    assert any("balance" in e for e in spec.hypothesis_errors())
    assert spec.hypothesis_errors(ignore_balance=True) == []
    # the function-space variant tolerates a one-sided balance
    loose = EmbeddingSpec("besov-function", _fun(1.0, 0.25, 2.0, 2.0, 2.0),
                          _fun(2.0, 0.25, 2.0, 1.0, 2.0))
    assert loose.balance_class() == "<"
    assert loose.hypothesis_errors() == []
    broken = EmbeddingSpec("besov-function", _fun(1.0, 0.25, 2.0, 1.0, 2.0),
                           _fun(2.0, 0.25, 2.0, 1.5, 2.0))
    assert broken.balance_class() == ">"
    assert any("balance" in e for e in broken.hypothesis_errors())


def test_defect_arithmetic():
    spec = conforming("sobolev")
    assert spec.balance_sides() == (0.5, 0.5)
    assert spec.defect() == 0.0
    assert spec.balance_class() == "="


def test_dilation_family_exact_scaling():
    herz = HerzParams(2.0, 0.25, 1.0)
    fields = dilation_family(1, 8.0, 256, 4, seed=3)
    norms = [mixed_herz_norm(f, herz) for f in fields]
    factor = 2.0 ** -(0.25 + 0.5)  # alpha + 1/p per halving step
    for a, b in zip(norms, norms[1:]):
        assert math.isclose(b / a, factor, rel_tol=1e-12)


def test_dilation_family_needs_room():
    with pytest.raises(ValueError):
        dilation_family(1, 8.0, 64, 4, seed=3)  # 64 >> 5 = 2 units only


@pytest.mark.parametrize("p,alpha,q,s", [
    (2.0, 0.25, 1.0, 0.0),
    (1.0, 0.0, 2.0, 0.5),
    (4.0, -0.125, 0.5, 1.0),
])
def test_dilation_scan_recovers_exponent(p, alpha, q, s):
    rep = dilation_scan(HerzParams(p, alpha, q), s, 1, 8.0, 256, 4, seed=5)
    assert math.isclose(rep["slope"], rep["expected"], abs_tol=1e-10)
    assert rep["residual"] < 1e-10
    assert rep["expected"] == s - alpha - 1.0 / p


def test_dilation_scan_2d():
    herz = HerzParams((2.0, 1.0), (0.25, 0.0), (1.0, 2.0))
    rep = dilation_scan(herz, 0.5, 2, 8.0, 256, 3, seed=6)
    assert math.isclose(rep["slope"], rep["expected"], abs_tol=1e-10)
    assert rep["expected"] == 0.5 - 0.25 - 1.5


def test_necessity_fit_matches_defect():
    for s2, c in ((1.25, -0.5), (0.75, 0.0), (0.25, 0.5)):
        spec = EmbeddingSpec("besov-function",
                             _fun(1.0, 0.25, 2.0, s2, 2.0),
                             _fun(2.0, 0.0, 2.0, 0.0, 2.0))
        rep = necessity_fit(spec, 1, 8.0, 256, 4, seed=7)
        assert math.isclose(rep["c_expected"], c, abs_tol=1e-12)
        assert abs(rep["c_fit"] - c) < 1e-10
        assert rep["residual"] < 1e-10


def test_necessity_fit_rejects_sequence_specs():
    with pytest.raises(HypothesisError):
        necessity_fit(conforming("sobolev"), 1, 8.0, 256, 4, seed=7)


def test_ppn_flat_for_matched_exponents():
    rep = ppn_check(HerzParams(1.0, 0.0, 2.0), HerzParams(2.0, 0.0, 2.0),
                    1, 8.0, 256, 4, seed=9)
    assert math.isclose(rep["gamma"], 0.5)
    assert abs(rep["slope"]) < 1e-10


def test_ppn_hypothesis_guards():
    with pytest.raises(HypothesisError):
        # integrability may only increase source -> target
        ppn_check(HerzParams(2.0, 0.0, 2.0), HerzParams(1.0, 0.0, 2.0),
                  1, 8.0, 256, 4, seed=9)
    with pytest.raises(HypothesisError):
        # the source weight must dominate the target weight
        ppn_check(HerzParams(1.0, -0.25, 2.0), HerzParams(2.0, 0.0, 2.0),
                  1, 8.0, 256, 4, seed=9)
    with pytest.raises(HypothesisError):
        # matched weights force matched annulus exponents
        ppn_check(HerzParams(1.0, 0.0, 1.0), HerzParams(2.0, 0.0, 2.0),
                  1, 8.0, 256, 4, seed=9)


def test_ppn_check_refuses_other_params_and_dimensions():
    with pytest.raises(TypeError, match="must be HerzParams"):
        ppn_check(_fun(1.0, 0.0, 2.0, 0.0, 2.0), HerzParams(2.0, 0.0, 2.0),
                  1, 8.0, 256, 4, seed=9)
    with pytest.raises(ValueError, match="dimension mismatch"):
        ppn_check(HerzParams(1.0, 0.0, 2.0), HerzParams(2.0, 0.0, 2.0),
                  2, 8.0, 256, 4, seed=9)


def _probe(n, K, level):
    """The probe of seq_embedding_check, built from its dict."""
    return CoeffSeq(n, K, 16.0, {(level, (1,) * n): 1})


def test_single_spike_ratio_closed_form():
    spec = conforming("sobolev")
    probes = _probes(1, 4, [2, 4])
    for level, probe in zip((2, 4), probes):
        assert probe.entries == _probe(1, 4, level).entries
        got = seq_norm(probe, spec.target) / seq_norm(probe, spec.source)
        assert math.isclose(got, single_spike_ratio(spec, level), rel_tol=1e-10)


def test_embedding_check_bounded_and_stable():
    spec = conforming("sobolev")
    reps = [seq_embedding_check(spec, K, draws=60, seed=13) for K in (4, 6)]
    # concentrated draws beat the single spike by a bounded factor, so the
    # cap is a constant above 1 that must not move with K
    for rep in reps:
        assert rep["skipped"] == 0
        assert rep["max_ratio"] <= 2.0
    drift = math.log2(reps[1]["max_ratio"] / reps[0]["max_ratio"]) / 2.0
    assert abs(drift) <= 0.05


def test_embedding_check_control_grows():
    control = EmbeddingSpec("sobolev",
                            _seq("f", 1.0, 0.0, 2.0, 1.25, 2.0),
                            _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))
    assert control.defect() == 0.25
    reps = [seq_embedding_check(control, K, draws=30, seed=13, control=True)
            for K in (4, 6)]
    # the probe pins growth 2^(K/4) once the balance is broken by 1/4
    for K, rep in zip((4, 6), reps):
        assert rep["max_ratio"] >= 2.0 ** (0.2 * K)
        assert math.isclose(rep["max_ratio"], 2.0 ** (K / 4.0), rel_tol=1e-9)


def test_embedding_check_refuses_mislabeled_controls():
    with pytest.raises(ValueError):
        seq_embedding_check(conforming("sobolev"), 4, draws=5, seed=1,
                            control=True)
    broken = EmbeddingSpec("sobolev",
                           _seq("f", 1.0, 0.0, 2.0, 1.25, 2.0),
                           _seq("f", 2.0, 0.0, 2.0, 1.0, 2.0))
    with pytest.raises(HypothesisError):
        seq_embedding_check(broken, 4, draws=5, seed=1)


# ---------------------------------------------------------------------------
# Former per-draw route: each draw a dict filled entry by entry, and one
# seq_norm call per norm.  The batched sweep must make the same draws, skip
# the same ones and agree on the ratios to rounding.
# ---------------------------------------------------------------------------


def former_random_coeffs(n, K, rng):
    width = min(int(rng.integers(1, 5)), K + 1)
    k0 = int(rng.integers(0, K - width + 2))
    entries = {}
    for k in range(k0, k0 + width):
        half = 2 << k
        volume = (2 * half) ** n
        density = 2.0 ** (-n * k / 2.0)
        count = rng.poisson(volume * density)
        if count == 0:
            continue
        pos = rng.integers(-half, half, size=(count, n))
        mags = rng.lognormal(0.0, 1.0, size=count)
        phases = np.exp(2j * np.pi * rng.random(count))
        for row, m, ph in zip(pos, mags, phases):
            entries[(k, tuple(int(c) for c in row))] = m * ph
    return CoeffSeq(n, K, 16.0, entries)


def former_seq_embedding_check(spec, K, draws, seed):
    rng = np.random.default_rng(seed)
    ratios = []
    skipped = 0
    for _ in range(draws):
        lam = former_random_coeffs(spec.n, K, rng)
        den = seq_norm(lam, spec.source)
        if den == 0.0:
            skipped += 1
            continue
        ratios.append(seq_norm(lam, spec.target) / den)
    probe_ratios = []
    for level in sorted({K, max(1, K // 2)}):
        lam = _probe(spec.n, K, level)
        probe_ratios.append(seq_norm(lam, spec.target)
                            / seq_norm(lam, spec.source))
    return {"draws": len(ratios), "skipped": skipped,
            "max_ratio": max(ratios + probe_ratios),
            "max_random_ratio": max(ratios) if ratios else 0.0,
            "probe_ratios": probe_ratios}


def _seq2(family, p, alpha, r, s, beta):
    return SeqSpaceParams(HerzParams((p, p), (alpha, alpha), (r, r)), s=s,
                          beta=beta, family=family)


def conforming_2d(theorem):
    # s - bold 1/p - bold alpha is 1 on both sides
    if theorem == "franke-strict":
        return EmbeddingSpec(theorem, _seq2("b", 1.0, 0.25, 2.0, 3.5, 2.0),
                             _seq2("f", 2.0, 0.0, 2.0, 2.0, 1.7))
    assert theorem == "jawerth-strict"
    return EmbeddingSpec(theorem, _seq2("f", 1.0, 0.25, 2.0, 3.5, 3.0),
                         _seq2("b", 2.0, 0.0, 1.5, 2.0, 2.0))


def _lowered(spec):
    src = spec.source
    return EmbeddingSpec(spec.theorem,
                         SeqSpaceParams(src.herz, src.s - 0.25, src.beta,
                                        src.family), spec.target)


@pytest.mark.parametrize("n", [1, 2])
def test_random_coeffs_draw_the_former_sets(n):
    # one batch of 40 sets against 40 per-set draws from the same stream
    new, old = np.random.default_rng(40 + n), np.random.default_rng(40 + n)
    batch = _random_coeffs(n, 5, new, 40)
    assert len(batch) == 40
    rows = []
    for d, lam in enumerate(batch):
        got = lam.levels()
        want = former_random_coeffs(n, 5, old).levels()
        assert [k for k, _, _ in got] == [k for k, _, _ in want]
        for (_, pos, vals), (_, ref_pos, ref_vals) in zip(got, want):
            assert np.array_equal(pos, ref_pos)
            assert np.array_equal(vals.view(np.float64),
                                  ref_vals.view(np.float64))
        rows += [(d, k, pos, vals) for k, pos, vals in want]
    # the batch's flat columns are the former sets, concatenated in order
    assert np.array_equal(
        np.repeat(batch.block_set, np.diff(batch.starts)),
        np.concatenate([np.full(len(vals), d) for d, _, _, vals in rows]))
    assert np.array_equal(
        np.repeat(batch.block_level, np.diff(batch.starts)),
        np.concatenate([np.full(len(vals), k) for _, k, _, vals in rows]))
    assert np.array_equal(batch.index,
                          np.concatenate([pos for _, _, pos, _ in rows]))
    assert np.array_equal(
        batch.value.view(np.float64),
        np.concatenate([vals for *_, vals in rows]).view(np.float64))
    # the rng is left where the per-set draws leave it
    assert new.random() == old.random()
    assert len(_random_coeffs(n, 5, new, 0)) == 0


@pytest.mark.parametrize("n, theorem, control, K, draws, seed", [
    (1, "franke-strict", False, 6, 40, 21),
    (1, "jawerth-strict", True, 4, 40, 22),
    (1, "sobolev", True, 8, 30, 23),
    (2, "franke-strict", True, 3, 20, 24),
    (2, "jawerth-strict", False, 3, 20, 25),
    # at K = 2 one draw of seed 5 is empty
    (1, "franke-strict", False, 2, 40, 5),
    # each top-level box holds 128^2 cells: a batch outgrows BATCH_CELLS
    (2, "jawerth-strict", True, 5, 12, 26),
])
def test_batched_sweep_matches_per_draw_route(n, theorem, control, K, draws,
                                              seed):
    spec = conforming(theorem) if n == 1 else conforming_2d(theorem)
    if control:
        spec = _lowered(spec)
    got = seq_embedding_check(spec, K, draws, seed, control=control)
    want = former_seq_embedding_check(spec, K, draws, seed)
    for key in ("draws", "skipped", "probe_ratios"):
        assert got[key] == want[key]
    for key in ("max_ratio", "max_random_ratio"):
        assert math.isclose(got[key], want[key], rel_tol=1e-12)
    if K == 2:
        assert got["skipped"] > 0
    if K == 5:
        assert draws * (4 << K) ** n > seqspace.BATCH_CELLS


def test_skipped_draws_are_the_empty_draws():
    # at K = 4, seed 9026 of the benchmark's pool draws one empty set; the
    # kept draws' ratios are those of a batch of the kept draws alone
    spec = conforming("sobolev")
    draws = _random_coeffs(1, 4, np.random.default_rng(9026), 25)
    kept = [lam.levels() for lam in draws if len(lam.index)]
    assert len(kept) == 24
    got = seq_embedding_check(spec, 4, 25, 9026)
    assert (got["draws"], got["skipped"]) == (24, 1)
    batch = CoeffSeq.batch_from_levels(1, 4, 16.0, kept)
    ratios = (seqspace.seq_norms(batch, spec.target)
              / seqspace.seq_norms(batch, spec.source))
    assert got["max_random_ratio"] == ratios.max()


# ---------------------------------------------------------------------------
# Former batched route: four norm calls, the draws' source and target norms
# on their batch and the probes' on theirs.  The sweep now takes each side's
# norms of the draws and the probes in one joint call, which keeps every
# stack of each batch, so every bit of the report.
# ---------------------------------------------------------------------------


def former_batched_seq_embedding_check(spec, K, draws, seed):
    rng = np.random.default_rng(seed)
    lams = _random_coeffs(spec.n, K, rng, draws)
    den = seqspace.seq_norms(lams, spec.source)
    kept = den != 0.0
    ratios = seqspace.seq_norms(lams, spec.target)[kept] / den[kept]
    probes = _probes(spec.n, K, sorted({K, max(1, K // 2)}))
    probe_ratios = (seqspace.seq_norms(probes, spec.target)
                    / seqspace.seq_norms(probes, spec.source)).tolist()
    ratios = ratios.tolist()
    return {
        "K": K,
        "draws": len(ratios),
        "skipped": draws - len(ratios),
        "max_ratio": max(ratios + probe_ratios),
        "max_random_ratio": max(ratios) if ratios else 0.0,
        "probe_ratios": probe_ratios,
    }


def _seq3(family, p, alpha, r, s, beta):
    return SeqSpaceParams(HerzParams((p,) * 3, (alpha,) * 3, (r,) * 3), s=s,
                          beta=beta, family=family)


# s - bold 1/p - bold alpha is -1/2 on both sides
CONFORMING_3D = (
    EmbeddingSpec("franke-strict", _seq3("b", 1.0, 0.25, 2.0, 3.25, 2.0),
                  _seq3("f", 2.0, 0.0, 2.0, 1.0, 2.0)),
    EmbeddingSpec("jawerth-strict", _seq3("f", 1.0, 0.25, 2.0, 3.25, 3.0),
                  _seq3("b", 2.0, 0.0, 1.5, 1.0, 2.0)))


def _joint_cases():
    # the specs of each n taken in turn over K; n = 3 stops at K = 4, as a
    # 25-draw batch at K = 6 already holds ~0.5 GB
    specs = {1: [conforming(t) for t in ALL_THEOREMS[:-1]],
             2: [conforming_2d("franke-strict"),
                 conforming_2d("jawerth-strict")],
             3: list(CONFORMING_3D)}
    for n, top in ((1, 8), (2, 8), (3, 4)):
        for K in range(1, top + 1):
            for control in (False, True):
                spec = specs[n][K % len(specs[n])]
                yield pytest.param(_lowered(spec) if control else spec, K,
                                   control, id=f"{n}d-K{K}-"
                                   f"{spec.theorem}{'-control' * control}")


@pytest.mark.parametrize("spec, K, control", _joint_cases())
def test_joint_norms_equal_the_four_call_check(spec, K, control):
    for draws in (0, 1, 25):
        seed = 600 + 10 * K + draws
        got = seq_embedding_check(spec, K, draws, seed, control=control)
        assert got == former_batched_seq_embedding_check(spec, K, draws, seed)


def test_sweep_needs_a_positive_top_level():
    # the mid-level probe sits at level max(1, K // 2)
    with pytest.raises(ValueError, match=r"K = 0 must be >= 1"):
        seq_embedding_check(conforming("sobolev"), 0, draws=5, seed=1)
    assert seq_embedding_check(conforming("sobolev"), 1, 5, 1)["K"] == 1


def test_sweep_refuses_function_specs():
    with pytest.raises(HypothesisError, match="needs a sequence spec"):
        seq_embedding_check(conforming("besov-function"), 2, 3, 1)


def test_negative_draws_rejected_by_name():
    with pytest.raises(ValueError, match="draws"):
        seq_embedding_check(conforming("sobolev"), 4, draws=-1, seed=1)
    with pytest.raises(ValueError, match="draws"):
        hardy_check(0.5, 2.0, -1, 10, 0)
    assert seq_embedding_check(conforming("sobolev"), 4, 0, 1)["draws"] == 0


def test_hardy_bound_and_guards():
    for a in (0.25, 0.5, 0.75):
        for q in (0.5, 1.0, 2.0, math.inf):
            rep = hardy_check(a, q, draws=60, length=40, seed=5)
            assert rep["worst_ratio"] <= rep["bound"]
            assert rep["worst_ratio"] > 1.0  # smoothing really spreads mass
    e = min(1.0, 2.0)
    assert hardy_check(0.5, 2.0, 3, 10, 0)["bound"] == (1 - 0.5 ** e) ** (-1 / e)
    with pytest.raises(ValueError):
        hardy_check(1.5, 1.0, 3, 10, 0)
    with pytest.raises(ValueError):
        hardy_check(0.5, -1.0, 3, 10, 0)


def test_hardy_spike_nearly_attains_bound():
    # a unit spike makes both smoothing sums geometric, so the ratio reaches
    # the truncated version of the closed-form constant
    rep = hardy_check(0.5, 1.0, draws=3, length=40, seed=5)
    assert rep["bound"] == 2.0
    assert rep["worst_ratio"] > 2.0 - 1e-2
    assert rep["worst_ratio"] < 2.0


# -- exact hypothesis arithmetic ---------------------------------------------

def _roadmap_sobolev(s_shift=0.0):
    """f-family Sobolev spec whose float balance sides differ by 2.8e-17."""
    return EmbeddingSpec("sobolev",
                         _seq("f", 1.5, 0.0, 2.0, 0.1 + 1.0 / 3.0 + s_shift,
                              2.0),
                         _seq("f", 3.0, 0.0, 2.0, 0.1, 2.0))


def test_float_built_sobolev_spec_accepted_exactly():
    spec = _roadmap_sobolev()
    ts, ss = spec.balance_sides()
    assert ts != ss  # the float sums disagree, the rationals do not
    assert spec.defect() == ts - ss == -2.7755575615628914e-17
    assert spec.balance_class() == "="
    assert spec.hypothesis_errors() == []
    spec.validate()
    rep = seq_embedding_check(spec, K=3, draws=5, seed=1)
    assert rep["draws"] + rep["skipped"] == 5


def test_exact_balance_at_the_denominator_edge():
    # a larger source s raises the source side; a shift of 1e-6 is seen
    assert _roadmap_sobolev(1e-6).balance_class() == "<"
    assert _roadmap_sobolev(-1e-6).balance_class() == ">"
    assert any("balance" in e
               for e in _roadmap_sobolev(1e-6).hypothesis_errors())
    # a shift below 1e-9 of 0.1 + 1/3 = 13/30 is read as 13/30 itself
    assert _roadmap_sobolev(1e-12).balance_class() == "="
    assert _roadmap_sobolev(1e-12).hypothesis_errors() == []


def test_exact_weight_and_annulus_comparisons():
    third = 0.1 + 0.2           # 0.30000000000000004, rationally 3/10
    eq = EmbeddingSpec("jawerth-equal",
                       _seq("f", 1.0, third, 2.0, 1.75, 2.7),
                       _seq("b", 2.0, 0.3, 2.0, 1.25, 2.0))
    assert eq.hypothesis_errors() == []
    strict = EmbeddingSpec("jawerth-strict",
                           _seq("f", 1.0, third, 2.0, 1.75, 3.0),
                           _seq("b", 2.0, 0.3, 1.5, 1.0, 2.0))
    assert any("alpha2[0] > alpha1[0]" in e for e in strict.hypothesis_errors())
    annulus = EmbeddingSpec("sobolev",
                            _seq("f", 1.0, 0.25, third * 10.0, 1.75, 2.0),
                            _seq("f", 2.0, 0.0, 3.0, 1.0, 2.0))
    assert annulus.hypothesis_errors() == []
    # besov-function: the alphas coincide exactly, so the q must match
    fun = EmbeddingSpec("besov-function", _fun(1.0, third, 2.0, 1.75, 2.0),
                        _fun(2.0, 0.3, 1.5, 1.0, 2.0))
    assert any("theta[0] must equal r[0]" in e
               for e in fun.hypothesis_errors())
    with pytest.raises(HypothesisError, match="theta"):
        necessity_fit(fun, 1, 8.0, 256, 3, seed=1)
    with pytest.raises(HypothesisError, match="theta"):
        ppn_check(HerzParams(1.0, third, 2.0), HerzParams(2.0, 0.3, 1.5),
                  1, 8.0, 256, 3, seed=1)


# -- property tests of the exact hypothesis checks ---------------------------

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None,
                    database=None)
SEQUENCE_THEOREMS = ALL_THEOREMS[:-1]


def _small(lo, hi, denominator):
    """Rationals in [lo, hi] whose denominators are at most denominator."""
    return st.fractions(min_value=lo, max_value=hi,
                        max_denominator=denominator)


@st.composite
def _balanced_sides(draw, theorem):
    """Exact (source, target) exponents of a conforming spec of a sequence
    theorem; the target s closes the balance exactly."""
    n = draw(st.integers(1, 2))

    def vec(strategy):
        return tuple(draw(strategy) for _ in range(n))

    half = Fraction(1, 2)
    p_src = vec(_small(half, 3, 2))
    p_tgt = tuple(p + d for p, d in zip(p_src, vec(_small(half, 3, 2))))
    a_tgt = vec(_small(0, 1, 4))
    # alpha2 - alpha1: >= 0 (sobolev), > 0 (strict), = 0 (equal)
    least, most = {"sobolev": (0, 1), "jawerth-strict": (Fraction(1, 4), 1),
                   "franke-strict": (Fraction(1, 4), 1)}.get(theorem, (0, 0))
    a_src = tuple(a + d for a, d in zip(a_tgt, vec(_small(least, most, 4))))
    q_src = vec(_small(half, 4, 2))
    q_tgt = vec(_small(half, 4, 2)) if theorem == "jawerth-strict" else q_src
    beta_src, beta_tgt = draw(_small(half, 4, 2)), draw(_small(half, 4, 2))
    if theorem == "jawerth-strict":
        beta_tgt = q_src[-1]
    elif theorem == "jawerth-equal":
        beta_tgt = max(q_src[-1], p_src[-1])
    elif theorem == "franke-strict":
        beta_src = q_src[-1]
    elif theorem == "franke-equal":
        beta_src = min(q_src[-1], p_tgt[-1])
    s_src = draw(_small(-2, 2, 4))
    s_tgt = (s_src - sum(1 / p for p in p_src) - sum(a_src)
             + sum(1 / p for p in p_tgt) + sum(a_tgt))
    fam_src, fam_tgt = {"sobolev": "ff", "jawerth-strict": "fb",
                        "jawerth-equal": "fb", "franke-strict": "bf",
                        "franke-equal": "bf"}[theorem]
    return ((p_src, a_src, q_src, s_src, beta_src, fam_src),
            (p_tgt, a_tgt, q_tgt, s_tgt, beta_tgt, fam_tgt))


def _side_params(side, s_shift=0):
    p, alpha, q, s, beta, family = side
    # every exponent reads back as the rational it was drawn as
    for x in (*p, *alpha, *q, s, beta):
        assert _rational(float(x)) == x
    return SpaceParams(HerzParams(*(tuple(map(float, v)) for v in (p, alpha, q))),
                       float(s + s_shift), float(beta), family)


@pytest.mark.parametrize("theorem", SEQUENCE_THEOREMS)
@PROPERTY
@given(data=st.data())
def test_balanced_rational_specs_are_accepted(theorem, data):
    src, tgt = data.draw(_balanced_sides(theorem))
    spec = EmbeddingSpec(theorem, _side_params(src), _side_params(tgt))
    assert spec.hypothesis_errors() == []
    assert spec.balance_class() == "="
    spec.validate()


@pytest.mark.parametrize("theorem", SEQUENCE_THEOREMS)
@PROPERTY
@given(data=st.data())
def test_moving_one_s_by_a_rational_breaks_the_balance(theorem, data):
    src, tgt = data.draw(_balanced_sides(theorem))
    shift = data.draw(_small(Fraction(1, 10 ** 6), 2, 10 ** 6))
    shift *= data.draw(st.sampled_from((1, -1)))
    on_source = data.draw(st.booleans())
    spec = EmbeddingSpec(theorem, _side_params(src, shift if on_source else 0),
                         _side_params(tgt, 0 if on_source else shift))
    assert spec.hypothesis_errors(ignore_balance=True) == []
    assert spec.balance_class() == ("<" if (shift > 0) == on_source else ">")
    with pytest.raises(HypothesisError, match="balance"):
        spec.validate()


@PROPERTY
@given(data=st.data())
def test_ppn_check_and_besov_function_reject_the_same_orderings(data):
    # alpha > 0 keeps p = inf admissible; small pools make ties frequent
    n = data.draw(st.integers(1, 2))
    pools = ((1.0, 1.5, 2.0, 3.0, math.inf), (0.25, 1.0 / 3.0, 0.5),
             (1.0, 2.0, math.inf))

    def herz():
        return HerzParams(*(tuple(data.draw(st.sampled_from(pool))
                                  for _ in range(n)) for pool in pools))

    source, target = herz(), herz()
    spec = EmbeddingSpec("besov-function", SpaceParams(source, 0.5, 2.0, "B"),
                         SpaceParams(target, 0.5, 2.0, "B"))
    errs = spec.hypothesis_errors(ignore_balance=True)
    try:
        ppn_check(source, target, n, 8.0, 64, 2, seed=1)
    except HypothesisError as exc:
        assert str(exc) == "; ".join(errs)
    else:
        assert errs == []
