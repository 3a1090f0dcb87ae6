"""Workloads of the herzlab benchmark: inputs, items and output checks.

An item is one unit of work timed on its own.  Each workload runs its items
in a fixed cycle of kinds; the benchmark's seed picks, per item, a pool index
j in [0, POOL) from which the benchmark's own seeded code draws the inputs.
``references.json`` holds the outputs of every (kind, j) recorded by
``record_refs.py``, and ``check`` compares against them with the relative
tolerance REL_TOL.  That admits rounding-level change (and the ~6e-9
deviation an FFT-evaluated majorant has at far targets) but no change of
the mathematics.

Program functions are always called through their module (``spaces.
besov_norm``, never a name imported into this file), so the tracer's
replacements on those modules take effect.
"""

import math

import numpy as np

from herzlab import cli, embedlab, frames, grid, herz, lpdecomp, maximal
from herzlab import seqspace, spaces

POOL = 32
REL_TOL = 1e-7
ROUNDTRIP_BOUND = 1e-8     # acceptance criterion 04


def _close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref)


def compare(values, ref):
    """Problems found comparing named output values with their references."""
    if ref is None:
        return ["no reference recorded"]
    return [f"{key} = {values[key]!r}, reference {ref[key]!r}"
            for key in sorted(ref) if not _close(values[key], ref[key])]


def render(workload, kind, j, record):
    """The item's outputs as herzlab renders a JSON report."""
    return cli.render_report(
        {"meta": {"workload": workload, "kind": kind, "pool": j},
         "records": [record]}, "json")


# -- ensemble ----------------------------------------------------------------

def _seq(family, p, alpha, r, s, beta):
    return seqspace.SeqSpaceParams(herz.HerzParams(p, alpha, r), s=s,
                                   beta=beta, family=family)


# The five conforming sequence specs of acceptance criterion 09:
# name, source (family, p, alpha, r, s, beta), target.
EMBEDDING_SPECS = (
    ("sobolev", ("f", 1.0, 0.125, 2.0, 1.75, 2.0),
     ("f", 2.0, 0.0, 2.0, 1.125, 2.0)),
    ("jawerth-strict", ("f", 1.0, 0.125, 2.0, 1.75, 3.0),
     ("b", 2.0, 0.0, 1.5, 1.125, 2.0)),
    ("jawerth-equal", ("f", 1.0, 0.25, 2.0, 1.75, 2.7),
     ("b", 2.0, 0.25, 2.0, 1.25, 2.0)),
    ("franke-strict", ("b", 1.0, 0.125, 2.0, 1.75, 2.0),
     ("f", 2.0, 0.0, 2.0, 1.125, 1.7)),
    ("franke-equal", ("b", 1.0, 0.25, 2.0, 1.75, 2.0),
     ("f", 2.0, 0.25, 2.0, 1.25, 3.3)),
)
CONTROL_SHIFT = 0.25


class Ensemble:
    """The embedding-ratio sweep: one seq_embedding_check call per item."""

    name = "ensemble"
    LEVELS = (4, 6, 8)
    DRAWS = 25
    SEED_BASE = 9000
    timed_cycles = 2
    trace_cycles = 2

    def __init__(self):
        self.cycle = tuple(
            f"{name}{tag}/K{K}" for name, _, _ in EMBEDDING_SPECS
            for tag in ("", "-control") for K in self.LEVELS)
        self.warmup = ("jawerth-strict/K4",)
        self.specs = {}

    def sizes(self):
        return {"specs": len(EMBEDDING_SPECS), "controls": len(EMBEDDING_SPECS),
                "K": list(self.LEVELS), "draws_per_item": self.DRAWS,
                "n": 1, "pool": POOL}

    def setup(self):
        for name, source, target in EMBEDDING_SPECS:
            src, tgt = _seq(*source), _seq(*target)
            lowered = seqspace.SeqSpaceParams(
                src.herz, s=src.s - CONTROL_SHIFT, beta=src.beta,
                family=src.family)
            self.specs[name] = embedlab.EmbeddingSpec(name, src, tgt)
            self.specs[name + "-control"] = embedlab.EmbeddingSpec(
                name, lowered, tgt)

    def make_input(self, kind, j):
        label, level = kind.split("/K")
        return (self.specs[label], int(level), label.endswith("-control"),
                self.SEED_BASE + j)

    def run(self, kind, inp):
        spec, K, control, seed = inp
        return embedlab.seq_embedding_check(spec, K, draws=self.DRAWS,
                                            seed=seed, control=control)

    def values(self, kind, out):
        return {"max_ratio": out["max_ratio"],
                "max_random_ratio": out["max_random_ratio"]}

    def record(self, kind, out):
        return {key: out[key] for key in ("K", "draws", "skipped", "max_ratio",
                                          "max_random_ratio", "probe_ratios")}

    def invariants(self, kind, inp, out):
        spec, K, _, _ = inp
        problems = []
        for level, ratio in zip(sorted({K, max(1, K // 2)}),
                                out["probe_ratios"]):
            want = embedlab.single_spike_ratio(spec, level)
            if not _close(ratio, want):
                problems.append(f"probe ratio at level {level} = {ratio!r}, "
                                f"closed form {want!r}")
        if out["draws"] + out["skipped"] != self.DRAWS:
            problems.append("draws and skipped do not add up")
        return problems


# -- spectral ----------------------------------------------------------------

def band_field(n, L, G, radius, seed):
    """Field whose spectrum is a complex gaussian on {|xi| <= radius}.

    Drawn here, not by the program, and synthesised with numpy's own FFT in
    herzlab's centered unitary convention.
    """
    xi = (np.arange(G) - G // 2) * (2.0 * np.pi / L)
    mesh = np.meshgrid(*([xi] * n), indexing="ij")
    inside = np.sqrt(sum(m * m for m in mesh)) <= radius
    rng = np.random.default_rng(seed)
    count = int(inside.sum())
    spec = np.zeros((G,) * n, dtype=np.complex128)
    spec[inside] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    values = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spec))) * G ** (n / 2)
    return grid.SampledField(n, float(L), G, values, domain="space")


class Spectral:
    """Band-limited fields through the transform and the function norms."""

    name = "spectral"
    # kind: (n, L, G, K) of the fj pair, and the mixed Herz layer (p, alpha, q)
    SYSTEMS = {"1d": (1, 16.0, 4096, 6), "2d": (2, 16.0, 512, 3)}
    HERZ = {"1d": ((3.0,), (0.25,), (2.0,)),
            "2d": ((2.0, 3.0), (0.25, 0.125), (2.0, 1.5))}
    S, BETA = 0.5, 2.0
    SEED_TAG = 4104
    timed_cycles = 3
    trace_cycles = 3

    def __init__(self):
        self.cycle = ("1d", "1d", "2d")
        self.warmup = ("1d", "2d")
        self.systems = {}
        self.params = {}

    def sizes(self):
        return {kind: {"n": n, "L": L, "G": G, "K": K}
                for kind, (n, L, G, K) in self.SYSTEMS.items()} | {"pool": POOL}

    def setup(self):
        for kind, dims in self.SYSTEMS.items():
            self.systems[kind] = lpdecomp.build_fj_pair(*dims)
            layer = herz.HerzParams(*self.HERZ[kind])
            self.params[kind] = (
                spaces.SpaceParams(layer, self.S, self.BETA, "B"),
                spaces.SpaceParams(layer, self.S, self.BETA, "F"))

    def make_input(self, kind, j):
        n, L, G, K = self.SYSTEMS[kind]
        return band_field(n, L, G, self.systems[kind].band_radius(),
                          (self.SEED_TAG, n, j))

    def run(self, kind, field):
        system = self.systems[kind]
        besov, triebel = self.params[kind]
        return {"roundtrip_error": frames.roundtrip_error(field, system),
                "besov": spaces.besov_norm(field, besov, system),
                "triebel": spaces.triebel_norm(field, triebel, system)}

    def values(self, kind, out):
        return {"besov": out["besov"], "triebel": out["triebel"]}

    def record(self, kind, out):
        return dict(out)

    def invariants(self, kind, inp, out):
        err = out["roundtrip_error"]
        if not err <= ROUNDTRIP_BOUND:
            return [f"round-trip error {err!r} above {ROUNDTRIP_BOUND}"]
        return []


# -- kernels -----------------------------------------------------------------

def bump(t):
    """C-infinity bump, exactly 0 for |t| >= 1."""
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def bump_fields(n, L, G, count, rng):
    """Smooth compactly supported fields inside a quarter period per axis."""
    x = (np.arange(G) - G // 2) * (L / G)
    fields = []
    for _ in range(count):
        vals = np.ones((G,) * n)
        for axis in range(n):
            centre = rng.uniform(-L / 16.0, L / 16.0)
            width = rng.uniform(L / 64.0, L / 16.0)
            shape = [1] * n
            shape[axis] = G
            vals = vals * bump((x - centre) / width).reshape(shape)
        amp = complex(rng.standard_normal(), rng.standard_normal())
        fields.append(grid.SampledField(n, float(L), G, amp * vals))
    return fields


class Kernels:
    """The two _accel kernel families through their public callers."""

    name = "kernels"
    # majorant: 2d coefficients, sources per level, lattice period, K
    SOURCES = {3: 64, 4: 256}
    LATTICE_L = 4.0
    MAJ_K = 4
    D, WINDOW = 5.0, 8
    # maximal: (n, L, G, bump count) families, vector bound exponents
    FAMILIES = {"1d": (1, 16.0, 1024, 16), "2d": (2, 16.0, 128, 4)}
    BETA, T = 2.0, 0.5
    SEED_TAG = 8808
    timed_cycles = 2
    trace_cycles = 2

    def __init__(self):
        self.cycle = ("majorant", "maximal", "maximal")
        self.warmup = ("majorant", "maximal")
        self.f_params = None
        self.herz = {}

    def sizes(self):
        return {"majorant": {"n": 2, "K": self.MAJ_K, "L": self.LATTICE_L,
                             "sources": {str(k): v for k, v in
                                         self.SOURCES.items()},
                             "d": self.D, "window": self.WINDOW,
                             "r": ["1", "inf"]},
                "maximal": {kind: {"n": n, "L": L, "G": G, "bumps": c}
                            for kind, (n, L, G, c) in self.FAMILIES.items()},
                "pool": POOL}

    def setup(self):
        self.f_params = seqspace.SeqSpaceParams(
            herz.HerzParams((2.0, 2.0), (0.0, 0.0), (2.0, 2.0)), 0.5, 2.0, "f")
        for kind, (n, _, _, _) in self.FAMILIES.items():
            self.herz[kind] = herz.HerzParams((2.0,) * n, (0.25,) * n,
                                              (2.0,) * n)

    def make_input(self, kind, j):
        rng = np.random.default_rng((self.SEED_TAG, j, int(kind == "majorant")))
        if kind == "maximal":
            return {fam: bump_fields(n, L, G, count, rng)
                    for fam, (n, L, G, count) in self.FAMILIES.items()}
        entries = {}
        for k, count in self.SOURCES.items():
            side = 2 * frames.lattice_span(self.LATTICE_L, k)
            cells = rng.choice(side * side, size=count, replace=False)
            mags = rng.lognormal(0.0, 1.0, size=count)
            phases = np.exp(2j * np.pi * rng.random(count))
            for cell, mag, phase in zip(cells, mags, phases):
                m = (int(cell // side) - side // 2, int(cell % side) - side // 2)
                entries[(k, m)] = complex(mag * phase)
        return frames.CoeffSeq(2, self.MAJ_K, self.LATTICE_L, entries)

    def run(self, kind, inp):
        if kind == "maximal":
            return {fam: maximal.fs_vector_check(fields, self.herz[fam],
                                                 beta=self.BETA, t=self.T)
                    for fam, fields in inp.items()}
        stars = {"1": seqspace.lambda_star(inp, 1.0, self.D, self.WINDOW),
                 "inf": seqspace.lambda_star(inp, math.inf, self.D,
                                             self.WINDOW)}
        norms = {"f_lam": seqspace.f_norm(inp, self.f_params)}
        for r, star in stars.items():
            norms[f"f_star_{r}"] = seqspace.f_norm(star, self.f_params)
        return {"stars": stars, "norms": norms}

    def values(self, kind, out):
        if kind == "maximal":
            return {f"ratio_{fam}": rep["ratio"] for fam, rep in out.items()}
        return dict(out["norms"])

    def record(self, kind, out):
        if kind == "maximal":
            return {f"{key}_{fam}": rep[key] for fam, rep in out.items()
                    for key in ("numerator", "denominator", "ratio")}
        return {**out["norms"], **{f"targets_{r}": len(star.entries)
                                   for r, star in out["stars"].items()}}

    def invariants(self, kind, inp, out):
        problems = []
        if kind == "maximal":
            for fam, rep in out.items():
                if not rep["ratio"] >= 1.0:
                    problems.append(f"{fam} maximal ratio {rep['ratio']!r} < 1")
            return problems
        slack = 1.0 - REL_TOL
        for r, star in out["stars"].items():
            below = sum(1 for key, val in inp.entries.items()
                        if not abs(star.entries.get(key, 0.0)) >= slack * abs(val))
            if below:
                problems.append(f"r = {r}: |lambda*| < |lambda| on {below} entries")
            if not out["norms"]["f_lam"] * slack <= out["norms"][f"f_star_{r}"]:
                problems.append(f"r = {r}: f_norm(lambda) > f_norm(lambda*)")
        return problems


WORKLOADS = {w.name: w for w in (Ensemble, Spectral, Kernels)}
