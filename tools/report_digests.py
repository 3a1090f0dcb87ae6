"""sha256 of every deterministic CLI report of one or more git revisions.

Run from the root of a source checkout, for example:

    python3 tools/report_digests.py 6f5b14f HEAD

Each revision's tree is unpacked with ``git archive`` into a temporary
directory, as tools/bench_pairs.py does.  A child process imports that
tree's herzlab and tests and runs, under its command, every config of
DETERMINISM_CONFIGS (tests/test_acceptance.py, acceptance criterion 14),
every base config of tests/test_cli.py (``_fuzz_configs``) and the
embed-sweep configs of ``sweep_configs`` (the five sequence specs of
acceptance criterion 09, each with its control, one n = 2 sweep and one
n = 3 sweep) and the maximal-check configs of ``kernel_configs``, each
rendered in csv and json.  It also takes the ``save_coeffs`` bytes of the
coefficient sets of ``coeff_sets`` and the crop bytes and lower bounds of
the systems of SYSTEM_SIZES (``system_bytes``), and the function-side
norms of ``function_norms``: block, Besov and Triebel-Lizorkin norms of a
band-limited field on each fj system of SYSTEM_SIZES, in a second report
per system the relative error of that field's analyze/synthesize round
trip (so the round trip is pinned at the spectral workload sizes, 1d
G = 4096 and 2d G = 512), and vector maximal
numerators and denominators at the kernels workload sizes, and the
sequence norms of ``sequence_norms``: b and f norms of embed-sweep draws
(at n = 1, 2 and 3), of a batch that BATCH_CELLS splits, of a batch of
some of the sets of a draws batch, of one-coefficient sets at (1, .., 1)
on levels K and K // 2 and of the majorant outputs of the kernels
workload, batched and set by set, each written as the repr of each
value.  It prints one line per report: its sha256, the revision's commit
and the report's label.  With several revisions it ends with a line
saying whether every report has the same digest in all of them, and
exits 1 if not.

This script renders every revision, so a revision can be compared only
if its herzlab has each function the script calls; the sequence norms
need ``batch_from_levels``, which herzlab has had since the flat batch
form came in (7e54af6).
"""

import argparse
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import unpack


# An n = 2 jawerth-strict sweep; s - bold 1/p - bold alpha is 1 on both sides.
N2_SWEEP = """
[run]
theorem = jawerth-strict
[source]
family = f
s = 3.5
beta = 3
p = 1,1
alpha = 0.25
q = 2
[target]
family = b
s = 2
beta = 2
p = 2,2
alpha = 0
q = 1.5
[ensemble]
seed = 905
draws = 40
k_list = 2,3
"""


# An n = 3 franke-strict sweep: a b source and an f target, each taking
# the draws' norms on three axes; s - bold 1/p - bold alpha is -1/2 on both
# sides.
N3_SWEEP = """
[run]
theorem = franke-strict
[source]
family = b
s = 3.25
beta = 2
p = 1,1,1
alpha = 0.25
q = 2
[target]
family = f
s = 1
beta = 2
p = 2,2,2
alpha = 0
q = 2
[ensemble]
seed = 906
draws = 12
k_list = 2,3
"""


def _sweep_text(theorem, source, target, seed, control):
    """embed-sweep config of one sequence spec at K = 4, 6, 8, 200 draws."""
    sections = [f"[run]\ntheorem = {theorem}\n"]
    for name, params in (("source", source), ("target", target)):
        herz = params.herz
        sections.append(
            f"[{name}]\nfamily = {params.family}\ns = {params.s!r}\n"
            f"beta = {params.beta!r}\n"
            + "".join(f"{key} = {','.join(map(repr, values))}\n"
                      for key, values in (("p", herz.p), ("alpha", herz.alpha),
                                          ("q", herz.q))))
    sections.append(f"[ensemble]\nseed = {seed}\ndraws = 200\n"
                    f"k_list = 4,6,8\ncontrol = {'yes' if control else 'no'}\n")
    return "".join(sections)


def sweep_configs(specs, lowered):
    """(source, text) of the criterion-09 sweeps, N2_SWEEP and N3_SWEEP.

    specs maps a theorem to its (source, target) SpaceParams, and lowered
    gives a control's source; the seeds are those of criterion 09.
    """
    for name, (source, target) in specs.items():
        yield (f"criterion-09-{name}",
               _sweep_text(name, source, target, 900, False))
        yield (f"criterion-09-{name}-control",
               _sweep_text(name, lowered(source), target, 901, True))
    yield "n2-sweep", N2_SWEEP
    yield "n3-sweep", N3_SWEEP


def kernel_configs():
    """(source, text) of maximal-check configs at the sizes of the kernels
    benchmark workload: 1d G = 1024 with 16 bumps and 2d G = 128 with 4
    (each with half that G for the fit), p = q = beta = 2, alpha = 1/4,
    t = 1/2."""
    for n, g_list, count in ((1, "512,1024", 16), (2, "64,128", 4)):
        yield (f"kernels-{n}d",
               f"[grid]\nn = {n}\nl = 16\n[space]\np = 2\nalpha = 0.25\n"
               f"q = 2\n[maximal]\nbeta = 2\nt = 0.5\ng_list = {g_list}\n"
               f"[ensemble]\nseed = 8808\ncount = {count}\n")


# (n, L, G, K) of the systems of acceptance criteria 03-06 and of the
# spectral benchmark workload, each built as a resolution and as an fj pair.
SYSTEM_SIZES = [*((1, 16.0, 1024, K) for K in range(1, 7)),
                (2, 16.0, 256, 3), (1, 16.0, 4096, 6), (2, 16.0, 512, 3)]


def kernels_sources(herzlab):
    """A set shaped like a kernels benchmark input: n = 2, L = 4, K = 4, 64
    sources at level 3 and 256 at level 4."""
    rng = np.random.default_rng(15)
    groups = []
    for k, count in ((3, 64), (4, 256)):
        side = 2 * herzlab.frames.lattice_span(4.0, k)
        cells = rng.choice(side * side, size=count, replace=False)
        pos = np.stack([cells // side, cells % side], axis=1) - side // 2
        vals = (rng.lognormal(0.0, 1.0, count)
                * np.exp(2j * np.pi * rng.random(count)))
        groups.append((k, pos, vals))
    return herzlab.CoeffSeq.from_levels(2, 4, 4.0, groups)


def coeff_sets(herzlab):
    """(name, CoeffSeq) of analyze outputs at the criterion-04 sizes, a
    lambda_star output, lambda_star outputs at r = 1 and r = inf of
    ``kernels_sources`` with d = 5 and window 8 as in the kernels
    benchmark, and a dict-built set with shuffled keys and int, float and
    complex values."""
    from herzlab.seqspace import lambda_star
    for name, dims in (("analyze-1d", (1, 16.0, 4096, 6)),
                       ("analyze-2d", (2, 16.0, 512, 3))):
        system = herzlab.build_fj_pair(*dims)
        field = herzlab.random_band_field(*dims[:3], system.band_radius(),
                                          seed=0)
        lam = herzlab.analyze(field, system)
        yield name, lam
    yield "lambda-star", lambda_star(lam, 1.5, 3.0, 4)
    sources = kernels_sources(herzlab)
    for tag, r in (("1", 1.0), ("inf", math.inf)):
        yield f"lambda-star-kernels-r{tag}", lambda_star(sources, r, 5.0, 8)
    rng = np.random.default_rng(14)
    keys = {(int(k), tuple(rng.integers(-8, 8, size=2).tolist()))
            for k in rng.integers(0, 4, size=60)}
    kinds = (lambda x: int(x * 10), float, lambda x: complex(x, -x / 3))
    entries = {key: kinds[i % 3](rng.standard_normal())
               for i, key in enumerate(sorted(keys))}
    order = rng.permutation(len(entries))
    items = list(entries.items())
    yield "dict", herzlab.CoeffSeq(2, 3, 16.0, dict(items[i] for i in order))


# Herz layers (p, alpha, q) of the function norms by n: finite, p = inf on
# an axis, q = inf on an axis; the n = 2 layers have unequal p.
FUNCTION_LAYERS = {
    1: (((3.0,), (0.25,), (2.0,)), ((math.inf,), (0.25,), (1.5,)),
        ((2.0,), (-0.25,), (math.inf,))),
    2: (((2.0, 3.0), (0.25, 0.125), (2.0, 1.5)),
        ((math.inf, 2.0), (0.25, 0.125), (2.0, 1.5)),
        ((2.0, 3.0), (0.25, 0.0), (math.inf, 2.0))),
}


def function_norms(herzlab):
    """(name, text) of the function-side norms, one value per line.

    On each fj system of SYSTEM_SIZES, a random_band_field (seed 0, radius
    the system's band radius) gets, per layer of FUNCTION_LAYERS, its
    block_norms and, at s = 1/2 and beta = 2, 3/2 and inf, its besov_norm
    and (finite layers only) triebel_norm, and then, as a report of its
    own, its roundtrip_error.  At the kernels workload sizes
    (1d G = 1024 with 16 bumps, 2d G = 128 with 4, L = 16), fs_vector_check
    gives its numerator and denominator at t = 1/2 for p = q = 2, alpha =
    1/4, beta = 2, and for the first layer of FUNCTION_LAYERS at beta = inf.
    """
    from herzlab.cli import bump_family
    for n, L, G, K in SYSTEM_SIZES:
        system = herzlab.build_fj_pair(n, L, G, K)
        field = herzlab.random_band_field(n, L, G, system.band_radius(),
                                          seed=0)
        lines = []
        for p, alpha, q in FUNCTION_LAYERS[n]:
            herz = herzlab.HerzParams(p, alpha, q)
            lines.append(f"block {herz} "
                         f"{herzlab.block_norms(field, herz, system)!r}")
            for beta in (2.0, 1.5, math.inf):
                for family, norm in (("B", herzlab.besov_norm),
                                     ("F", herzlab.triebel_norm)):
                    if family == "F" and math.inf in p + q:
                        continue
                    params = herzlab.SpaceParams(herz, 0.5, beta, family)
                    lines.append(f"{family} {herz} {beta!r} "
                                 f"{norm(field, params, system)!r}")
        yield f"fj {n}-{L:g}-{G}-{K}", "\n".join(lines)
        yield (f"fj {n}-{L:g}-{G}-{K} roundtrip",
               repr(herzlab.roundtrip_error(field, system)))
    for n, G, count in ((1, 1024, 16), (2, 128, 4)):
        fields = bump_family(n, 16.0, G, count, seed=8808)
        lines = []
        cases = ((((2.0,) * n, (0.25,) * n, (2.0,) * n), 2.0),
                 (FUNCTION_LAYERS[n][0], math.inf))
        for layer, beta in cases:
            herz = herzlab.HerzParams(*layer)
            rep = herzlab.fs_vector_check(fields, herz, beta, 0.5)
            lines.append(f"{herz} {beta!r} {rep['numerator']!r} "
                         f"{rep['denominator']!r}")
        yield f"maximal-{n}d", "\n".join(lines)


# Herz layers (p, alpha, q) of the sequence norms by n, and the layer of
# the kernels benchmark workload's f-norms.
SEQUENCE_LAYERS = {1: ((1.5,), (0.25,), (2.0,)),
                   2: ((2.0, 1.5), (0.25, 0.0), (1.0, 2.0)),
                   3: ((2.0, 1.5, 3.0), (0.25, 0.0, 0.125), (1.0, 2.0, 1.5))}
KERNELS_LAYER = ((2.0, 2.0), (0.0, 0.0), (2.0, 2.0))


def sequence_batches(herzlab):
    """(name, layer, batch) of the batches of ``sequence_norms``.

    embed-sweep draws at n = 1 (K = 4 and 8, 25 and 200 draws), n = 2
    (K = 3) and n = 3 (K = 2, 12 draws, so the iterated reduction runs over
    three axes), an n = 2, K = 6 batch whose top-level stack BATCH_CELLS
    splits, a batch of the n = 1, K = 2 draws without the empty draw and
    every third one, and batches built by batch_from_levels of
    one-coefficient sets at (1, .., 1) on levels K and K // 2, at K = 8 and
    3, and of the lambda_star outputs of ``kernels_sources`` at r = 1 and
    r = inf.
    """
    from herzlab.embedlab import _random_coeffs
    from herzlab.seqspace import lambda_star
    from_levels = herzlab.CoeffSeq.batch_from_levels
    for n, K, draws in ((1, 4, 25), (1, 4, 200), (1, 8, 25), (1, 8, 200),
                        (2, 3, 40), (3, 2, 12)):
        rng = np.random.default_rng(9000 + 100 * n + K)
        yield (f"random-{n}d-K{K}-{draws}", SEQUENCE_LAYERS[n],
               _random_coeffs(n, K, rng, draws))
    yield ("split-2d-K6", SEQUENCE_LAYERS[2],
           _random_coeffs(2, 6, np.random.default_rng(9306), 12))
    # draw 2 is empty; every third draw goes too, so the batch holds
    # non-adjacent sets of the draws
    draws = _random_coeffs(1, 2, np.random.default_rng(5), 40)
    kept = [groups for d, groups in enumerate(lam.levels() for lam in draws)
            if groups and d % 3 != 0]
    yield "kept-1d-K2-40", SEQUENCE_LAYERS[1], from_levels(1, 2, 16.0, kept)
    for n, K in ((1, 8), (2, 3)):
        yield (f"probes-{n}d-K{K}", SEQUENCE_LAYERS[n],
               from_levels(n, K, 16.0, [[(level, [(1,) * n], [1.0])]
                                        for level in sorted({K, K // 2})]))
    sources = kernels_sources(herzlab)
    yield ("lambda-star-kernels", KERNELS_LAYER,
           from_levels(2, 4, 4.0, [lambda_star(sources, r, 5.0, 8).levels()
                                   for r in (1.0, math.inf)]))


def sequence_norms(herzlab):
    """(name, text) of the sequence norms of each ``sequence_batches``
    batch, one line per family and beta (3/2, 2 and inf, s = 1/2): the
    repr of every value of b_norms or f_norms of the batch, then that of
    seq_norm of each of its sets alone."""
    from herzlab.seqspace import b_norms, f_norms, seq_norm
    for name, layer, batch in sequence_batches(herzlab):
        herz = herzlab.HerzParams(*layer)
        lines = []
        for beta in (1.5, 2.0, math.inf):
            for family, norms in (("b", b_norms), ("f", f_norms)):
                params = herzlab.SpaceParams(herz, 0.5, beta, family)
                for way, values in (
                        ("batch", norms(batch, params).tolist()),
                        ("single", [seq_norm(lam, params) for lam in batch])):
                    lines.append(f"{family} {beta!r} {way} "
                                 + " ".join(map(repr, values)))
        yield name, "\n".join(lines)


def system_bytes(system):
    """The system's kind and grid, the shape, dtype and bytes of every
    crop, then the lower bounds."""
    head = (f"{system.kind} {system.n} {system.L!r} {system.G} {system.K}\n"
            .encode("ascii"))
    parts = [f"{c.shape} {c.dtype}\n".encode("ascii") + c.tobytes()
             for c in system.crops]
    return head + b"".join(parts) + np.array(system.lower_bounds).tobytes()


def render_all(tree):
    """(label, bytes) of every report, rendered by the tree's own herzlab.

    Config files, and the coefficient file of the seqnorm config, are
    written to the current directory under fixed relative names, so the
    config echo in each report does not depend on where it runs; so are the
    coefficient snapshots.  ``--render`` runs it in a fresh temporary
    directory.
    """
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    import herzlab
    from herzlab.cli import ExperimentConfig, render_report, run_config
    from test_acceptance import (DETERMINISM_CONFIGS, EMBEDDING_SPECS,
                                 _lowered)
    from test_cli import _fuzz_configs
    configs = [("criterion-14", command, text)
               for command, text in DETERMINISM_CONFIGS.items()]
    configs += [("test_cli", command, text)
                for command, text in _fuzz_configs(Path(".")).items()]
    configs += [(source, "embed-sweep", text)
                for source, text in sweep_configs(EMBEDDING_SPECS, _lowered)]
    configs += [(source, "maximal-check", text)
                for source, text in kernel_configs()]
    for source, command, text in configs:
        path = Path(f"{source}-{command}.ini")
        path.write_text(text)
        report = run_config(ExperimentConfig.load(str(path), command))
        for fmt in ("csv", "json"):
            yield (f"{source} {command} {fmt}",
                   render_report(report, fmt).encode("ascii"))
    for name, lam in coeff_sets(herzlab):
        path = Path(f"coeffs-{name}.txt")
        herzlab.save_coeffs(lam, path)
        yield f"coeffs {name}", path.read_bytes()
    # the dict-built set after a load/save round trip, written last above
    herzlab.save_coeffs(herzlab.load_coeffs(path), path)
    yield f"coeffs {name}-roundtrip", path.read_bytes()
    for builder in ("build_resolution", "build_fj_pair"):
        for n, L, G, K in SYSTEM_SIZES:
            system = getattr(herzlab, builder)(n, L, G, K)
            yield f"{builder} {n}-{L:g}-{G}-{K}", system_bytes(system)
    for name, text in function_norms(herzlab):
        yield f"function-norms {name}", text.encode("ascii")
    for name, text in sequence_norms(herzlab):
        yield f"sequence-norms {name}", text.encode("ascii")


def digests(tree):
    """{label: sha256} of the reports of the tree, rendered in a child."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--render", str(tree)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"rendering {tree.name[:12]} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return dict(line.split(" ", 1)[::-1] for line in proc.stdout.splitlines())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("revs", nargs="*", help="git revisions")
    ap.add_argument("--render", metavar="TREE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.render:
        # render_all writes its files under fixed relative names; they go
        # to a fresh directory, not to the caller's
        tree, here = Path(args.render).resolve(), os.getcwd()
        with tempfile.TemporaryDirectory(prefix="report_digests-") as tmp:
            os.chdir(tmp)
            try:
                for label, data in render_all(tree):
                    print(hashlib.sha256(data).hexdigest(), label)
            finally:
                os.chdir(here)
        return 0
    if not args.revs:
        ap.error("give at least one revision")
    with tempfile.TemporaryDirectory(prefix="report_digests-") as tmp:
        runs = []
        for rev in args.revs:
            commit, tree = unpack(rev, Path(tmp))
            runs.append(digests(tree))
            for label, digest in runs[-1].items():
                print(digest, commit[:12], label)
    if len(runs) > 1:
        same = all(run == runs[0] for run in runs)
        print(f"{len(runs[0])} reports: "
              f"{'the same' if same else 'NOT the same'} in every revision")
        return 0 if same else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
