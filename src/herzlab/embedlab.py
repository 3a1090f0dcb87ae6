"""Empirical checks of the embedding inequalities.

Five sequence-space embedding patterns are validated and measured, named
by shape: 'sobolev' (f to f), 'jawerth-strict' / 'jawerth-equal' (f to b)
and 'franke-strict' / 'franke-equal' (b to f), plus 'besov-function' for
level-sum spaces of sampled fields.  Each pattern carries componentwise
exponent orderings, an index-matching rule on the annulus exponents where
the weights coincide, a forced outer level exponent for the b side where
the pattern dictates one, and a smoothness balance; EmbeddingSpec checks
all of them and refuses to run otherwise.

Scaling harnesses use a family of fields built from dyadic boxes with
endpoints on the 2^-N_max h lattice, kept away from the coordinate
hyperplanes.  Dilating such a box by 2^-N maps grid cells onto grid cells
and annulus groups onto shifted annulus groups, so every mixed Herz norm
of f_N equals an exact power 2^(-(bold alpha + bold 1/p) N) times that of
f_0, with no quadrature error.  A level weight 2^{s N} is applied
analytically, treating f_N as mass at dyadic level N; spectral block
selectivity, which that shortcut replaces, is exercised separately on
band-limited witnesses (see lpdecomp).  On a periodic window a genuinely
band-limited family cannot satisfy the dilation law (its periodisation
has full support), which is why the spatial family is the scaling probe.
"""

import math
from dataclasses import dataclass

import numpy as np

from .frames import CoeffSeq
from .grid import SampledField
from .herz import (HerzParams, HypothesisError, _inv, lq_combine,
                   mixed_herz_norm)
from .seqspace import SeqSpaceParams, seq_norm
from .spaces import SpaceParams

THEOREMS = ("sobolev", "jawerth-strict", "jawerth-equal",
            "franke-strict", "franke-equal", "besov-function")


def _bold_inv(vec):
    return sum(_inv(p) for p in vec)


@dataclass(frozen=True)
class EmbeddingSpec:
    """A source/target space pair tagged with the pattern it must satisfy."""

    theorem: str
    source: object
    target: object

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        want = SpaceParams if self.theorem == "besov-function" else SeqSpaceParams
        for side, params in (("source", self.source), ("target", self.target)):
            if not isinstance(params, want):
                raise TypeError(f"{side} must be {want.__name__} for "
                                f"{self.theorem}")
        if self.source.herz.n != self.target.herz.n:
            raise ValueError("source and target dimensions differ")

    @property
    def n(self):
        return self.target.herz.n

    # -- derived exponents ------------------------------------------------

    def balance_sides(self):
        """(target side, source side) of s - bold 1/p - bold alpha."""
        t, s = self.target, self.source
        return (t.s - _bold_inv(t.herz.p) - sum(t.herz.alpha),
                s.s - _bold_inv(s.herz.p) - sum(s.herz.alpha))

    def balance_class(self):
        ts, ss = self.balance_sides()
        if ts == ss:
            return "="
        return "<" if ts < ss else ">"

    def defect(self):
        """Target side minus source side; > 0 breaks the embedding."""
        ts, ss = self.balance_sides()
        return ts - ss

    def shifted_smoothness(self):
        """Partial-sum shifted exponents s2^v, v = 1..n."""
        t, s = self.target, self.source
        out = []
        for v in range(1, self.n + 1):
            out.append(s.s
                       - _bold_inv(s.herz.p[:v]) + _bold_inv(t.herz.p[:v])
                       - sum(t.herz.alpha[:v]) + sum(s.herz.alpha[:v]))
        return tuple(out)

    def franke_delta(self):
        r_n = self.source.herz.q[-1]
        p_n = self.target.herz.p[-1]
        return r_n if r_n <= p_n else p_n

    def jawerth_outer(self):
        if self.theorem == "jawerth-strict":
            return self.source.herz.q[-1]
        return max(self.source.herz.q[-1], self.source.herz.p[-1])

    # -- hypothesis checking ----------------------------------------------

    def hypothesis_errors(self, ignore_balance=False):
        t, s = self.target, self.source
        errs = []
        strict_integrability = self.theorem != "besov-function"
        for i, (qi, pi) in enumerate(zip(s.herz.p, t.herz.p)):
            if strict_integrability:
                if not (qi < pi and math.isfinite(pi)):
                    errs.append(f"need q[{i}] < p[{i}] < inf, got "
                                f"{qi} vs {pi}")
            elif not qi <= pi:
                errs.append(f"need q[{i}] <= p[{i}], got {qi} vs {pi}")
        alpha_mode = {
            "sobolev": "ge", "besov-function": "ge",
            "jawerth-strict": "gt", "franke-strict": "gt",
            "jawerth-equal": "eq", "franke-equal": "eq",
        }[self.theorem]
        for i, (a2, a1) in enumerate(zip(s.herz.alpha, t.herz.alpha)):
            if alpha_mode == "gt" and not a2 > a1:
                errs.append(f"need alpha2[{i}] > alpha1[{i}], got {a2} vs {a1}")
            elif alpha_mode == "ge" and not a2 >= a1:
                errs.append(f"need alpha2[{i}] >= alpha1[{i}], got {a2} vs {a1}")
            elif alpha_mode == "eq" and a2 != a1:
                errs.append(f"need alpha2[{i}] = alpha1[{i}], got {a2} vs {a1}")
        # annulus exponents: matched wherever the weights coincide
        if self.theorem == "jawerth-strict":
            pass  # both annulus vectors free
        elif self.theorem in ("sobolev", "jawerth-equal",
                              "franke-strict", "franke-equal"):
            if s.herz.q != t.herz.q:
                errs.append(f"annulus exponents must match, got {s.herz.q} "
                            f"vs {t.herz.q}")
        else:  # besov-function: componentwise dichotomy
            for i, (a2, a1) in enumerate(zip(s.herz.alpha, t.herz.alpha)):
                if a2 == a1 and s.herz.q[i] != t.herz.q[i]:
                    errs.append(
                        f"annulus exponent theta[{i}] must equal r[{i}] "
                        f"where the alphas coincide")
        # family shapes and forced outer exponents
        fam = {"sobolev": ("f", "f"), "jawerth-strict": ("f", "b"),
               "jawerth-equal": ("f", "b"), "franke-strict": ("b", "f"),
               "franke-equal": ("b", "f"), "besov-function": ("B", "B")}
        sf, tf = fam[self.theorem]
        if s.family != sf or t.family != tf:
            errs.append(f"families must be {sf} to {tf}, got {s.family} "
                        f"to {t.family}")
        if self.theorem in ("jawerth-strict", "jawerth-equal"):
            if t.beta != self.jawerth_outer():
                errs.append(f"target level exponent must be "
                            f"{self.jawerth_outer()}, got {t.beta}")
        if self.theorem == "franke-strict":
            if s.beta != s.herz.q[-1]:
                errs.append(f"source level exponent must be {s.herz.q[-1]}, "
                            f"got {s.beta}")
        if self.theorem == "franke-equal":
            if s.beta != self.franke_delta():
                errs.append(f"source level exponent must be "
                            f"{self.franke_delta()}, got {s.beta}")
        if self.theorem == "besov-function" and s.beta != t.beta:
            errs.append(f"level exponents must match, got {s.beta} vs {t.beta}")
        if not ignore_balance:
            cls = self.balance_class()
            if self.theorem == "besov-function":
                if cls == ">":
                    errs.append("smoothness balance violated: target side "
                                "exceeds source side")
            elif cls != "=":
                errs.append(f"smoothness balance must hold with equality, "
                            f"got defect {self.defect():g}")
        return errs

    def validate(self, ignore_balance=False):
        errs = self.hypothesis_errors(ignore_balance)
        if errs:
            raise HypothesisError("; ".join(errs))


# -- exactly dilatable box fields -----------------------------------------


def dilation_family(n, L, G, N_max, seed, boxes=4, max_len=4):
    """Fields f_N, N = 0..N_max, each the exact 2^-N dilate of f_0.

    f_0 is a sum of complex multiples of product-interval indicators whose
    endpoints are multiples of sigma = 2^N_max h, all separated from the
    coordinate hyperplanes.  Every f_N then lands exactly on grid cells.
    """
    h = L / G
    units = G >> (N_max + 1)
    if units < max_len + 1:
        raise ValueError(
            f"N_max = {N_max} not resolvable: only {units} box units per "
            f"half period (need {max_len + 1})")
    sigma = h * (1 << N_max)
    rng = np.random.default_rng(seed)
    spec = []
    for _ in range(boxes):
        signs = rng.integers(0, 2, size=n) * 2 - 1
        a = rng.integers(1, units - max_len, size=n)
        ln = rng.integers(1, max_len + 1, size=n)
        coef = complex(rng.standard_normal(), rng.standard_normal())
        spec.append((signs, a, ln, coef))
    x = (np.arange(G) - G // 2) * h
    fields = []
    for N in range(N_max + 1):
        scale = sigma / (1 << N)
        vals = np.zeros((G,) * n, dtype=np.complex128)
        for signs, a, ln, coef in spec:
            mask = np.ones((G,) * n, dtype=bool)
            for axis in range(n):
                if signs[axis] > 0:
                    lo, hi = a[axis] * scale, (a[axis] + ln[axis]) * scale
                else:
                    lo, hi = -(a[axis] + ln[axis]) * scale, -a[axis] * scale
                sel = (x >= lo) & (x < hi)
                shape = [1] * n
                shape[axis] = G
                mask = mask & sel.reshape(shape)
            vals[mask] += coef
        fields.append(SampledField(n, float(L), G, vals, domain="space"))
    return fields


def _fit_line(xs, ys):
    slope, intercept = np.polyfit(np.asarray(xs, dtype=np.float64),
                                  np.asarray(ys, dtype=np.float64), 1)
    resid = np.max(np.abs(slope * np.asarray(xs) + intercept - np.asarray(ys)))
    return float(slope), float(intercept), float(resid)


def dilation_scan(herz, s, n, L, G, N_max, seed, boxes=4):
    """Fitted decay exponent of 2^{s N} herz(f_N) on the box family."""
    fields = dilation_family(n, L, G, N_max, seed, boxes)
    records = []
    for N, f in enumerate(fields):
        norm = 2.0 ** (s * N) * mixed_herz_norm(f, herz)
        if norm == 0.0:
            raise ValueError("degenerate dilation draw produced a zero norm")
        records.append({"N": N, "norm": norm, "log2_norm": math.log2(norm)})
    slope, _, resid = _fit_line([r["N"] for r in records],
                                [r["log2_norm"] for r in records])
    expected = s - herz.bold_alpha() - herz.bold_inv_p()
    return {"records": records, "slope": slope, "expected": expected,
            "residual": resid}


def _ratio_fit(fields, target, source, gamma):
    """Target/source norm records on a dilation family, and their fit.

    target, source : (HerzParams, s); the norm of f_N carries 2^{s N}.
    Returns the records, and the slope and residual of the line fitted to
    log2(target / (2^{gamma N} source)) against N.
    """
    records = []
    for N, f in enumerate(fields):
        t, s = (2.0 ** (sm * N) * mixed_herz_norm(f, herz)
                for herz, sm in (target, source))
        if s == 0.0 or t == 0.0:
            raise ValueError("degenerate dilation draw produced a zero norm")
        records.append({"N": N, "target_norm": t, "source_norm": s,
                        "log2_ratio": math.log2(t / (2.0 ** (gamma * N) * s))})
    slope, _, resid = _fit_line([r["N"] for r in records],
                                [r["log2_ratio"] for r in records])
    return records, slope, resid


def necessity_fit(spec, n, L, G, N_max, seed, boxes=4):
    """Fitted exponent c of the target/source norm ratio on dilates.

    c < 0 means the embedding's scaling test passes with room, c = 0 is
    the sharp balance, c > 0 certifies failure of the balance condition.
    """
    if spec.theorem != "besov-function":
        raise HypothesisError("necessity_fit needs a besov-function spec")
    spec.validate(ignore_balance=True)
    src, tgt = spec.source, spec.target
    fields = dilation_family(n, L, G, N_max, seed, boxes)
    records, c_fit, resid = _ratio_fit(fields, (tgt.herz, tgt.s),
                                       (src.herz, src.s), 0.0)
    c_expected = (tgt.s - src.s
                  - sum(tgt.herz.alpha) + sum(src.herz.alpha)
                  - _bold_inv(tgt.herz.p) + _bold_inv(src.herz.p))
    return {"records": records, "c_fit": c_fit, "c_expected": c_expected,
            "residual": resid, "balance_class": spec.balance_class()}


def ppn_check(source, target, n, L, G, N_max, seed, boxes=4):
    """Sharpness of the band-to-band norm transfer exponent.

    source, target : HerzParams.  Hypotheses: p_i <= s_i componentwise and
    alpha2_i >= alpha1_i, with the annulus exponents matched where the
    alphas coincide.  The transfer weight is gamma = bold 1/p - bold 1/s +
    bold alpha2 - bold alpha1; on the exact dilation family the fitted
    slope of log2(target / (2^{gamma N} source)) is zero when the exponent
    is sharp.
    """
    if not isinstance(source, HerzParams) or not isinstance(target, HerzParams):
        raise TypeError("source and target must be HerzParams")
    if source.n != n or target.n != n:
        raise ValueError("dimension mismatch")
    for i, (pi, si) in enumerate(zip(source.p, target.p)):
        if not pi <= si:
            raise HypothesisError(f"need p[{i}] <= s[{i}], got {pi} vs {si}")
    for i, (a2, a1) in enumerate(zip(source.alpha, target.alpha)):
        if not a2 >= a1:
            raise HypothesisError(
                f"need alpha2[{i}] >= alpha1[{i}], got {a2} vs {a1}")
        if a2 == a1 and source.q[i] != target.q[i]:
            raise HypothesisError(
                f"annulus exponent theta[{i}] must equal r[{i}] where the "
                f"alphas coincide")
    gamma = (source.bold_inv_p() - target.bold_inv_p()
             + source.bold_alpha() - target.bold_alpha())
    fields = dilation_family(n, L, G, N_max, seed, boxes)
    records, slope, resid = _ratio_fit(fields, (target, 0.0), (source, 0.0),
                                       gamma)
    return {"records": records, "gamma": gamma, "slope": slope,
            "residual": resid}


# -- random coefficient ensembles ------------------------------------------


def _random_coeffs(n, K, rng, box_half=2, lattice_period=16.0):
    """Sparse lognormal coefficients on a short random window of levels.

    Each draw occupies at most four adjacent levels so that its norm
    ratio reflects one region of the lattice instead of an average over
    all of them.  Shallow windows recur with the same law at every K,
    which keeps the ensemble maximum comparable across K, while windows
    touching the top level expose any defect that grows with K.
    """
    width = min(int(rng.integers(1, 5)), K + 1)
    k0 = int(rng.integers(0, K - width + 2))
    entries = {}
    for k in range(k0, k0 + width):
        half = box_half << k
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
    return CoeffSeq(n, K, lattice_period, entries)


def probe_coeffs(n, K, level):
    """A single unit coefficient on the cell touching the origin corner."""
    return CoeffSeq(n, K, 16.0, {(level, (1,) * n): 1.0 + 0.0j})


def single_spike_ratio(spec, level):
    """Closed-form target/source ratio of the probe at the given level.

    The probe cell 2^-k (1, .., 1) + 2^-k [0, 1)^n sits in the annulus
    2^(-k) <= |x_i| < 2^(-k+1) of every axis, so each one-axis norm is one
    weighted term and the ratio collapses to exponent arithmetic.
    """
    t, s = spec.target, spec.source
    log2r = level * (t.s - s.s)
    for i in range(spec.n):
        log2r += (1 - level) * (t.herz.alpha[i] - s.herz.alpha[i])
        log2r -= level * (_inv(t.herz.p[i]) - _inv(s.herz.p[i]))
    return 2.0 ** log2r


def seq_embedding_check(spec, K, draws, seed, control=False, box_half=2):
    """Max target/source norm ratio over a random coefficient ensemble.

    Refuses hypothesis-violating specs unless ``control=True``, which
    permits exactly one defect: a broken smoothness balance.  Probe
    spikes at the top level and mid level are always included; they pin
    the growth rate when the balance is broken.
    """
    if spec.theorem == "besov-function":
        raise HypothesisError("seq_embedding_check needs a sequence spec")
    if control:
        errs = spec.hypothesis_errors(ignore_balance=True)
        if errs:
            raise HypothesisError("; ".join(errs))
        if spec.balance_class() == "=":
            raise ValueError("control spec must break the balance")
    else:
        spec.validate()
    rng = np.random.default_rng(seed)
    ratios = []
    skipped = 0
    for _ in range(draws):
        lam = _random_coeffs(spec.n, K, rng, box_half)
        den = seq_norm(lam, spec.source)
        if den == 0.0:
            skipped += 1
            continue
        ratios.append(seq_norm(lam, spec.target) / den)
    probe_ratios = []
    for level in sorted({K, max(1, K // 2)}):
        lam = probe_coeffs(spec.n, K, level)
        probe_ratios.append(seq_norm(lam, spec.target) / seq_norm(lam, spec.source))
    all_ratios = ratios + probe_ratios
    return {
        "K": K,
        "draws": len(ratios),
        "skipped": skipped,
        "max_ratio": max(all_ratios),
        "max_random_ratio": max(ratios) if ratios else 0.0,
        "probe_ratios": probe_ratios,
    }


def hardy_check(a, q, draws, length, seed):
    """Worst observed constant of the one-sided smoothing sums.

    For nonnegative sequences eps, delta_k = sum_{j <= k} a^{k-j} eps_j and
    eta_k = sum_{j >= k} a^{j-k} eps_j; both l^q norms are bounded by
    C(a, q) ||eps||_q with C = (1 - a^min(1,q))^(-1 / min(1,q)).
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"a = {a} must lie in (0, 1)")
    if not q > 0.0:
        raise ValueError("q must be positive")
    if length < 1:
        raise ValueError(f"length = {length} must be >= 1")
    e = min(1.0, q)
    bound = (1.0 - a ** e) ** (-1.0 / e)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(draws):
        kind = t % 3
        if kind == 0:
            eps = np.abs(rng.standard_normal(length))
        elif kind == 1:
            eps = (1.0 - rng.random(length)) ** -0.5
        else:
            eps = np.zeros(length)
            eps[rng.integers(0, length)] = 1.0
        delta = np.empty(length)
        acc = 0.0
        for k in range(length):
            acc = a * acc + eps[k]
            delta[k] = acc
        eta = np.empty(length)
        acc = 0.0
        for k in range(length - 1, -1, -1):
            acc = a * acc + eps[k]
            eta[k] = acc
        base = lq_combine(eps, q)
        if base == 0.0:
            continue
        worst = max(worst, lq_combine(delta, q) / base,
                    lq_combine(eta, q) / base)
    return {"a": a, "q": q, "worst_ratio": worst, "bound": bound}

