import importlib
import importlib.util
from pathlib import Path

from herzlab import (EmbeddingSpec, HerzParams, SpaceParams, build_fj_pair,
                     fs_vector_check, random_band_field)
from herzlab.cli import bump_family

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _owner(module, path):
    """The object holding a LAYERS entry's attribute, and that attribute."""
    owner = importlib.import_module(f"herzlab.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _namespaces():
    """Every namespace the tracer may patch: the modules and the classes
    that own traced methods."""
    spaces = [importlib.import_module(m) for m in tracing.MODULES]
    for _, module, path, _ in tracing.LAYERS:
        owner, _ = _owner(module, path)
        if owner not in spaces:
            spaces.append(owner)
    return spaces


def test_tracer_resolves_every_layer_and_uninstall_restores_it():
    # a library name the tracer patches that was deleted or renamed would
    # otherwise show only when a traced benchmark run crashes
    spaces = _namespaces()
    before = [dict(vars(ns)) for ns in spaces]
    originals = {layer: getattr(*_owner(module, path))
                 for layer, module, path, _ in tracing.LAYERS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for layer, module, path, _ in tracing.LAYERS:
            patched = getattr(*_owner(module, path))
            assert patched is not originals[layer], layer
            assert patched.__wrapped__ is originals[layer], layer
    finally:
        tracer.uninstall()
    for ns, names in zip(spaces, before):
        now = vars(ns)
        assert all(now[name] is value for name, value in names.items()), ns


def test_tracer_counts_the_windows_of_each_maximal_scan():
    # run.py --trace 1 counts rows x G x len(widths) per maximal_rows call;
    # fs_vector_check makes one call per axis over the rows of every field,
    # each with the half-widths 0..G/2
    n, G, count = 2, 32, 3
    fields = bump_family(n, 16.0, G, count, seed=3)
    tracer = tracing.Tracer()
    totals = tracer.start_pass(keep_spans=False)
    try:
        tracer.install()
        fs_vector_check(fields, HerzParams((2.0,) * n, (0.25,) * n,
                                           (2.0,) * n), 2.0, 0.5)
    finally:
        tracer.uninstall()
    rows = count * G ** (n - 1)
    assert totals.calls["accel.maximal_rows"] == n
    assert totals.counts["accel.maximal_rows.window_evals"] == (
        n * rows * G * (G // 2 + 1))


def test_traced_calls_complete_with_the_untraced_outputs():
    # run.py --trace 1 runs every workload under the tracer, whose counters
    # read the arguments of the wrapped names (a herz.axis_reduce call's
    # first argument must have a shape): one embedding sweep, the two
    # function-space norms of a 2d field and one vector maximal check,
    # each called through its module as the workloads reach it
    def calls():
        embedlab = importlib.import_module("herzlab.embedlab")
        spaces = importlib.import_module("herzlab.spaces")
        maximal = importlib.import_module("herzlab.maximal")
        return [
            embedlab.seq_embedding_check(sobolev, 4, 25, 9),
            spaces.besov_norm(field, SpaceParams(herz, 0.5, 2.0, "B"),
                              system),
            spaces.triebel_norm(field, SpaceParams(herz, 0.5, 2.0, "F"),
                                system),
            maximal.fs_vector_check(fields, herz, 2.0, 0.5)]

    sobolev = EmbeddingSpec(
        "sobolev", SpaceParams(HerzParams(1.0, 0.125, 2.0), 1.75, 2.0, "f"),
        SpaceParams(HerzParams(2.0, 0.0, 2.0), 1.125, 2.0, "f"))
    herz = HerzParams((2.0, 1.5), (0.25, 0.0), (2.0, 1.5))
    system = build_fj_pair(2, 16.0, 64, 2)
    field = random_band_field(2, 16.0, 64, system.band_radius(), seed=5)
    fields = bump_family(2, 16.0, 32, 3, seed=3)
    want = calls()
    tracer = tracing.Tracer()
    totals = tracer.start_pass(keep_spans=False)
    try:
        tracer.install()
        got = calls()
    finally:
        tracer.uninstall()
    assert got == want
    for layer in ("embedlab.seq_embedding_check", "spaces.besov_norm",
                  "spaces.triebel_norm", "maximal.fs_vector_check",
                  "herz.axis_reduce"):
        assert totals.calls[layer] >= 1, layer
    assert totals.counts["herz.axis_reduce.cells"] > 0
