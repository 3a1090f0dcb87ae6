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

Hypotheses are checked in exact arithmetic: each exponent is read as the
nearest fraction with denominator at most herz.EXACT_DENOMINATOR (inf
stays inf; ``herz._rational``), and sums such as the smoothness balance
are taken on those fractions.  So a float built from small-denominator
rationals, such as 0.1 + 1/3, counts as the rational it stands for, and a
balance that holds for the rationals holds here.
"""

import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .frames import CoeffBatch, _sorted_blocks
from .grid import SampledField, sealed
from .herz import (HerzParams, HypothesisError, SpaceParams, _inv,
                   _rational, lq_combine, mixed_herz_norm)
from .seqspace import seq_norms

THEOREMS = ("sobolev", "jawerth-strict", "jawerth-equal",
            "franke-strict", "franke-equal", "besov-function")


class _ExactHerz:
    """A HerzParams' exponents as exact rationals; ``herz`` keeps the floats."""

    def __init__(self, herz):
        self.herz = herz
        self.p = tuple(map(_rational, herz.p))
        self.alpha = tuple(map(_rational, herz.alpha))
        self.q = tuple(map(_rational, herz.q))


class _ExactSide(_ExactHerz):
    """One side's exponents as exact rationals, and its balance side."""

    def __init__(self, params):
        super().__init__(params.herz)
        self.s = _rational(params.s)
        self.beta = _rational(params.beta)
        # s - bold 1/p - bold alpha, with 1/inf = 0
        self.balance = (self.s - sum(0 if math.isinf(p) else 1 / p
                                     for p in self.p) - sum(self.alpha))


def _herz_order_errors(xs, xt):
    """Broken orderings of a source/target pair of exact Herz exponents.

    p_i must not decrease from source to target, alpha_i must not increase,
    and where the alphas coincide the annulus exponents must match: the
    Herz part of the besov-function pattern, and ppn_check's hypotheses.
    Messages name the source (q, alpha2, theta) and the target (p, alpha1,
    r) as the theorems do.
    """
    src, tgt = xs.herz, xt.herz
    errs = [f"need q[{i}] <= p[{i}], got {src.p[i]} vs {tgt.p[i]}"
            for i in range(src.n) if not xs.p[i] <= xt.p[i]]
    errs += [f"need alpha2[{i}] >= alpha1[{i}], got {src.alpha[i]} vs "
             f"{tgt.alpha[i]}" for i in range(src.n)
             if not xs.alpha[i] >= xt.alpha[i]]
    errs += [f"annulus exponent theta[{i}] must equal r[{i}] where the "
             f"alphas coincide" for i in range(src.n)
             if xs.alpha[i] == xt.alpha[i] and xs.q[i] != xt.q[i]]
    return errs


@dataclass(frozen=True)
class EmbeddingSpec:
    """A source/target space pair tagged with the pattern it must satisfy."""

    theorem: str
    source: object
    target: object

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        # function spaces have families B/F, sequence spaces b/f
        want = ("B", "F") if self.theorem == "besov-function" else ("b", "f")
        for side, params in (("source", self.source), ("target", self.target)):
            if not (isinstance(params, SpaceParams) and params.family in want):
                raise TypeError(f"{side} must be SpaceParams of family "
                                f"{want[0]} or {want[1]} for {self.theorem}")
        if self.source.herz.n != self.target.herz.n:
            raise ValueError("source and target dimensions differ")

    @property
    def n(self):
        return self.target.herz.n

    # -- derived exponents ------------------------------------------------

    @functools.cached_property
    def _exact(self):
        """(target, source) exponents as exact rationals, made once."""
        return _ExactSide(self.target), _ExactSide(self.source)

    def balance_sides(self):
        """(target side, source side) of s - bold 1/p - bold alpha."""
        t, s = self.target, self.source
        return (t.s - t.herz.bold_inv_p() - t.herz.bold_alpha(),
                s.s - s.herz.bold_inv_p() - s.herz.bold_alpha())

    def balance_class(self):
        """'=', '<' or '>': the exact target side against the source side."""
        t, s = self._exact
        if t.balance == s.balance:
            return "="
        return "<" if t.balance < s.balance else ">"

    def defect(self):
        """Target side minus source side; > 0 breaks the embedding."""
        ts, ss = self.balance_sides()
        return ts - ss

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
        """Every broken hypothesis, compared exactly (see _rational)."""
        t, s = self.target, self.source
        xt, xs = self._exact
        if self.theorem == "besov-function":
            errs = _herz_order_errors(xs, xt)
        else:
            errs = [f"need q[{i}] < p[{i}] < inf, got {qi} vs {pi}"
                    for i, (qi, pi) in enumerate(zip(s.herz.p, t.herz.p))
                    if not (xs.p[i] < xt.p[i] and math.isfinite(pi))]
            holds, sign = {
                "sobolev": (operator.ge, ">="),
                "jawerth-strict": (operator.gt, ">"),
                "franke-strict": (operator.gt, ">"),
                "jawerth-equal": (operator.eq, "="),
                "franke-equal": (operator.eq, "="),
            }[self.theorem]
            errs += [f"need alpha2[{i}] {sign} alpha1[{i}], got {a2} vs {a1}"
                     for i, (a2, a1) in enumerate(zip(s.herz.alpha,
                                                      t.herz.alpha))
                     if not holds(xs.alpha[i], xt.alpha[i])]
            # annulus exponents match, except for jawerth-strict (both free)
            if self.theorem != "jawerth-strict" and xs.q != xt.q:
                errs.append(f"annulus exponents must match, got "
                            f"{s.herz.q} vs {t.herz.q}")
        # family shapes and forced outer exponents
        fam = {"sobolev": ("f", "f"), "jawerth-strict": ("f", "b"),
               "jawerth-equal": ("f", "b"), "franke-strict": ("b", "f"),
               "franke-equal": ("b", "f"), "besov-function": ("B", "B")}
        sf, tf = fam[self.theorem]
        if s.family != sf or t.family != tf:
            errs.append(f"families must be {sf} to {tf}, got {s.family} "
                        f"to {t.family}")
        # _rational is monotone, so it commutes with the max and min that
        # jawerth_outer and franke_delta take
        if self.theorem in ("jawerth-strict", "jawerth-equal"):
            if xt.beta != _rational(self.jawerth_outer()):
                errs.append(f"target level exponent must be "
                            f"{self.jawerth_outer()}, got {t.beta}")
        if self.theorem == "franke-strict":
            if xs.beta != xs.q[-1]:
                errs.append(f"source level exponent must be {s.herz.q[-1]}, "
                            f"got {s.beta}")
        if self.theorem == "franke-equal":
            if xs.beta != _rational(self.franke_delta()):
                errs.append(f"source level exponent must be "
                            f"{self.franke_delta()}, got {s.beta}")
        if self.theorem == "besov-function" and xs.beta != xt.beta:
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


def dilation_family(n, L, G, N_max, seed):
    """Fields f_N, N = 0..N_max >= 1, each the exact 2^-N dilate of f_0.

    f_0 is a sum of four complex multiples of product-interval indicators,
    each 1 to 4 units long per axis, whose endpoints are multiples of sigma
    = 2^N_max h, all separated from the coordinate hyperplanes.  Every f_N
    then lands exactly on grid cells.
    """
    if N_max < 1:
        raise ValueError(f"N_max = {N_max} must be >= 1")
    h = L / G
    units = G >> (N_max + 1)
    if units < 5:
        raise ValueError(
            f"N_max = {N_max} not resolvable: only {units} box units per "
            f"half period (need 5)")
    sigma = h * (1 << N_max)
    rng = np.random.default_rng(seed)
    spec = []
    for _ in range(4):
        signs = rng.integers(0, 2, size=n) * 2 - 1
        a = rng.integers(1, units - 4, size=n)
        ln = rng.integers(1, 5, size=n)
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
        fields.append(SampledField(n, float(L), G, sealed(vals),
                                   domain="space"))
    return fields


def _fit_line(xs, ys):
    slope, intercept = np.polyfit(np.asarray(xs, dtype=np.float64),
                                  np.asarray(ys, dtype=np.float64), 1)
    resid = np.max(np.abs(slope * np.asarray(xs) + intercept - np.asarray(ys)))
    return float(slope), float(intercept), float(resid)


def dilation_scan(herz, s, n, L, G, N_max, seed):
    """Fitted decay exponent of 2^{s N} herz(f_N) on the box family."""
    fields = dilation_family(n, L, G, N_max, seed)
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


def necessity_fit(spec, n, L, G, N_max, seed):
    """Fitted exponent c of the target/source norm ratio on dilates.

    c < 0 means the embedding's scaling test passes with room, c = 0 is
    the sharp balance, c > 0 certifies failure of the balance condition.
    """
    if spec.theorem != "besov-function":
        raise HypothesisError("necessity_fit needs a besov-function spec")
    spec.validate(ignore_balance=True)
    src, tgt = spec.source, spec.target
    fields = dilation_family(n, L, G, N_max, seed)
    records, c_fit, resid = _ratio_fit(fields, (tgt.herz, tgt.s),
                                       (src.herz, src.s), 0.0)
    c_expected = (tgt.s - src.s
                  - tgt.herz.bold_alpha() + src.herz.bold_alpha()
                  - tgt.herz.bold_inv_p() + src.herz.bold_inv_p())
    return {"records": records, "c_fit": c_fit, "c_expected": c_expected,
            "residual": resid, "balance_class": spec.balance_class()}


def ppn_check(source, target, n, L, G, N_max, seed):
    """Sharpness of the band-to-band norm transfer exponent.

    source, target : HerzParams, with exponents (q, alpha2, theta) and
    (p, alpha1, r).  Hypotheses, those of the besov-function pattern's Herz
    part: q_i <= p_i componentwise and alpha2_i >= alpha1_i, with theta_i =
    r_i where the alphas coincide.  The transfer weight is gamma = bold 1/q
    - bold 1/p + bold alpha2 - bold alpha1; on the exact dilation family the
    fitted slope of log2(target / (2^{gamma N} source)) is zero when the
    exponent is sharp.
    """
    if not isinstance(source, HerzParams) or not isinstance(target, HerzParams):
        raise TypeError("source and target must be HerzParams")
    if source.n != n or target.n != n:
        raise ValueError("dimension mismatch")
    errs = _herz_order_errors(_ExactHerz(source), _ExactHerz(target))
    if errs:
        raise HypothesisError("; ".join(errs))
    gamma = (source.bold_inv_p() - target.bold_inv_p()
             + source.bold_alpha() - target.bold_alpha())
    fields = dilation_family(n, L, G, N_max, seed)
    records, slope, resid = _ratio_fit(fields, (target, 0.0), (source, 0.0),
                                       gamma)
    return {"records": records, "gamma": gamma, "slope": slope,
            "residual": resid}


# -- random coefficient ensembles ------------------------------------------


def _random_coeffs(n, K, rng, draws):
    """``draws`` sets of sparse lognormal coefficients, as one CoeffBatch.

    Each draw occupies at most four adjacent levels so that its norm
    ratio reflects one region of the lattice instead of an average over
    all of them.  Shallow windows recur with the same law at every K,
    which keeps the ensemble maximum comparable across K, while windows
    touching the top level expose any defect that grows with K.  Level k
    draws on the box [-2^(k+1), 2^(k+1))^n of the period-16 lattice.  The
    rng is called draw by draw, level by level; the phases and values of
    all draws are then formed in one pass, element by element, and the
    rows sorted into the batch at once.  Every group is valid by
    construction, so none is checked.
    """
    # the leading empty arrays keep the concatenations valid with no draws
    runs, pos = [], [np.zeros((0, n), np.int64)]
    mags, turns = [np.zeros(0)], [np.zeros(0)]
    for d in range(draws):
        width = min(int(rng.integers(1, 5)), K + 1)
        k0 = int(rng.integers(0, K - width + 2))
        for k in range(k0, k0 + width):
            half = 2 << k
            volume = (2 * half) ** n
            density = 2.0 ** (-n * k / 2.0)
            count = rng.poisson(volume * density)
            if count == 0:
                continue
            pos.append(rng.integers(-half, half, size=(count, n)))
            mags.append(rng.lognormal(0.0, 1.0, size=count))
            turns.append(rng.random(count))
            runs.append((d, k, count))
    values = np.concatenate(mags) * np.exp(2j * np.pi * np.concatenate(turns))
    return CoeffBatch._of_blocks(n, K, 16.0, draws, *_sorted_blocks(
        K, runs, np.concatenate(pos), values))


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


def seq_embedding_check(spec, K, draws, seed, control=False):
    """Max target/source norm ratio over a random coefficient ensemble.

    Refuses hypothesis-violating specs unless ``control=True``, which
    permits exactly one defect: a broken smoothness balance.  Probe
    spikes at the top level K and mid level max(1, K // 2) are always
    included, so K must be >= 1; they pin the growth rate when the balance
    is broken.  A probe is one unit coefficient at index (1, .., 1), and
    its target/source ratio is taken in closed form (single_spike_ratio),
    not from its norms.  All draws are built as one CoeffBatch, and each
    side's norms of them are taken in one seq_norms call.  A draw whose
    source norm is zero (an empty draw) is skipped; its target norm is
    taken with the others and dropped.
    """
    if K < 1:
        raise ValueError(f"K = {K} must be >= 1")
    if draws < 0:
        raise ValueError(f"draws = {draws} must be >= 0")
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
    lams = _random_coeffs(spec.n, K, rng, draws)
    den = seq_norms(lams, spec.source)
    kept = den != 0.0
    ratios = (seq_norms(lams, spec.target)[kept] / den[kept]).tolist()
    probe_ratios = [single_spike_ratio(spec, level)
                    for level in sorted({K, max(1, K // 2)})]
    return {
        "K": K,
        "draws": len(ratios),
        "skipped": draws - len(ratios),
        "max_ratio": max(ratios + probe_ratios),
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
    if draws < 0:
        raise ValueError(f"draws = {draws} must be >= 0")
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
        values = eps.tolist()
        delta = list(accumulate(values, lambda acc, e: a * acc + e))
        eta = list(accumulate(values[::-1],
                              lambda acc, e: a * acc + e))[::-1]
        base = lq_combine(eps, q)
        if base == 0.0:
            continue
        worst = max(worst, lq_combine(delta, q) / base,
                    lq_combine(eta, q) / base)
    return {"a": a, "q": q, "worst_ratio": worst, "bound": bound}

