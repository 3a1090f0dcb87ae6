"""Span tracing of herzlab's layers, applied from outside the package.

``Tracer.install`` replaces each layer function listed in ``LAYERS`` with a
wrapper, on its own module and on every herzlab module that re-binds it by
import (``seqspace._axis_reduce_herz``, ``embedlab.mixed_herz_norm``, ...).
``CoeffSeq.level_entries`` is replaced on its class.  ``uninstall`` puts the
originals back, so an untraced pass runs the unmodified program.

Each wrapped call records a span (id, layer, start, end, parent span, item
id).  A layer's self time is its span's duration minus the time its child
spans cover.  A child covers its whole wrapper, including the tracer's own
bookkeeping, so that bookkeeping is charged to no layer; it shows only in
the traced pass's wall time.  Counts are computed from arguments and return
values at the wrapped boundary, so they repeat exactly for equal inputs.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_fft(counts, args, kwargs, result):
    field = _arg(args, kwargs, 0, "field")
    counts["grid.fft_points"] += field.G ** field.n


def _count_cells(counts, args, kwargs, result):
    rows, cols = _arg(args, kwargs, 0, "mag").shape
    counts["herz.axis_reduce.cells"] += rows * cols


def _count_coeffs(counts, args, kwargs, result):
    counts["frames.coeffs"] += len(result.entries)


def _count_level_entries(counts, args, kwargs, result):
    counts["frames.level_entries.scanned"] += len(args[0].entries)
    counts["frames.level_entries.returned"] += len(result)


def _count_env_cells(counts, args, kwargs, result):
    """Cells of the finest-level union bounding box that f_norm paints."""
    coeffs = _arg(args, kwargs, 0, "coeffs")
    if not coeffs.entries:
        return
    finest = max(k for k, _ in coeffs.entries)
    lo = [None] * coeffs.n
    hi = [None] * coeffs.n
    for k, m in coeffs.entries:
        scale = 1 << (finest - k)
        for axis, c in enumerate(m):
            a, b = c * scale, (c + 1) * scale
            lo[axis] = a if lo[axis] is None else min(lo[axis], a)
            hi[axis] = b if hi[axis] is None else max(hi[axis], b)
    cells = 1
    for a, b in zip(lo, hi):
        cells *= b - a
    counts["seqspace.f_norm.env_cells"] += cells


def _per_level(coeffs):
    out = defaultdict(int)
    for k, _ in coeffs.entries:
        out[k] += 1
    return out


def _count_majorant(counts, args, kwargs, result):
    sources = _per_level(_arg(args, kwargs, 0, "coeffs"))
    targets = _per_level(result)
    counts["seqspace.lambda_star.targets"] += len(result.entries)
    counts["seqspace.lambda_star.pairs"] += sum(
        h * targets[k] for k, h in sources.items())


def _count_windows(counts, args, kwargs, result):
    rows, width = _arg(args, kwargs, 0, "g").shape
    counts["accel.maximal_rows.window_evals"] += (
        rows * width * len(_arg(args, kwargs, 1, "widths")))


def _count_draws(counts, args, kwargs, result):
    counts["embedlab.draws"] += result["draws"]
    counts["embedlab.skipped"] += result["skipped"]


# (layer name, module, attribute path, counter); the attribute path may
# name a method as "Class.method".
LAYERS = (
    ("grid.spectral_transform", "grid", "spectral_transform", _count_fft),
    ("lpdecomp.build_fj_pair", "lpdecomp", "build_fj_pair", None),
    ("herz.mixed_herz_norm", "herz", "mixed_herz_norm", None),
    ("herz.axis_reduce", "herz", "_axis_reduce_herz", _count_cells),
    ("spaces.besov_norm", "spaces", "besov_norm", None),
    ("spaces.triebel_norm", "spaces", "triebel_norm", None),
    ("frames.analyze", "frames", "analyze", _count_coeffs),
    ("frames.synthesize", "frames", "synthesize", None),
    ("frames.level_entries", "frames", "CoeffSeq.level_entries",
     _count_level_entries),
    ("seqspace.b_norm", "seqspace", "b_norm", None),
    ("seqspace.f_norm", "seqspace", "f_norm", _count_env_cells),
    ("seqspace.lambda_star", "seqspace", "lambda_star", _count_majorant),
    ("accel.lambda_star_sum", "_accel", "lambda_star_sum", None),
    ("accel.lambda_star_max", "_accel", "lambda_star_max", None),
    ("accel.maximal_rows", "_accel", "maximal_rows", _count_windows),
    ("maximal.iterated_maximal", "maximal", "iterated_maximal", None),
    ("maximal.envelope", "maximal", "envelope", None),
    ("maximal.fs_vector_check", "maximal", "fs_vector_check", None),
    ("embedlab.seq_embedding_check", "embedlab", "seq_embedding_check",
     _count_draws),
    ("cli.render_report", "cli", "render_report", None),
)

MODULES = ("herzlab", "herzlab._accel", "herzlab.cli", "herzlab.embedlab",
           "herzlab.frames", "herzlab.grid", "herzlab.herz",
           "herzlab.lpdecomp", "herzlab.maximal", "herzlab.seqspace",
           "herzlab.spaces")


class Totals:
    """Per-layer call counts, self seconds and boundary counts of one pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def work(self):
        """Everything that must repeat exactly: calls and boundary counts."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()},
                **self.counts}


class Tracer:
    """Span recorder whose wrappers charge time to the innermost layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # (id, name, start, end, parent id, item id)
        self.keep_spans = True
        self.item = None
        self.totals = Totals()
        self._stack = []     # open frames: [span id, seconds covered by children]
        self._next_id = 0
        self._patches = []   # (owner, attribute, original)

    def start_pass(self, keep_spans):
        """Begin a fresh set of totals; returns it."""
        self.totals = Totals()
        self.keep_spans = keep_spans
        return self.totals

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, module, path, counter in LAYERS:
            owner = importlib.import_module(f"herzlab.{module}")
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, counter)
            self._patch(owner, attr, wrapper)
            if outer:
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def span(self, name, item):
        """A span the benchmark opens itself; wrapped calls inside carry item."""
        self.item = item
        frame, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, frame, parent, start, self.clock())
            self.item = None

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, start, end):
        self._stack.pop()
        if self.keep_spans:
            self.spans.append((frame[0], name, start, end,
                               parent[0] if parent else None, self.item))
        self.totals.calls[name] += 1
        self.totals.self_s[name] += (end - start) - frame[1]

    def _wrap(self, layer, fn, counter):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            frame, parent = tracer._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(layer, frame, parent, start, clock())
            if counter is not None:
                counter(tracer.totals.counts, args, kwargs, result)
            if parent is not None:
                parent[1] += clock() - enter
            return result

        return traced


# Per-layer metrics of the traced run: (name, unit, better, what it should
# move).  BENCHMARK.json lists the same names, units and directions.
PER_LAYER = (
    ("grid.spectral_transform.calls", "count", "lower",
     "items_per_s and item_p90_ms on spectral; zero on ensemble"),
    ("grid.spectral_transform.self_s", "s", "lower",
     "items_per_s and item_p90_ms on spectral; zero on ensemble"),
    ("grid.fft_points", "count", "lower",
     "items_per_s and item_p90_ms on spectral; zero on ensemble"),
    ("lpdecomp.build_fj_pair.self_s", "s", "lower", "setup_s on spectral"),
    ("herz.mixed_herz_norm.calls", "count", "lower",
     "items_per_s on ensemble and spectral"),
    ("herz.mixed_herz_norm.self_s", "s", "lower",
     "items_per_s on ensemble and spectral"),
    ("herz.axis_reduce.calls", "count", "lower",
     "items_per_s on ensemble and spectral"),
    ("herz.axis_reduce.self_s", "s", "lower",
     "items_per_s on ensemble and spectral"),
    ("herz.axis_reduce.cells", "count", "lower",
     "items_per_s on ensemble and spectral"),
    ("spaces.besov_norm.self_s", "s", "lower", "items_per_s on spectral"),
    ("spaces.triebel_norm.self_s", "s", "lower", "items_per_s on spectral"),
    ("frames.analyze.self_s", "s", "lower", "item_p90_ms on spectral"),
    ("frames.synthesize.self_s", "s", "lower", "item_p90_ms on spectral"),
    ("frames.coeffs", "count", "lower", "item_p90_ms on spectral"),
    ("frames.level_entries.calls", "count", "lower",
     "items_per_s on ensemble and item_p90_ms on kernels"),
    ("frames.level_entries.hit_ratio", "fraction", "higher",
     "items_per_s on ensemble and item_p90_ms on kernels"),
    ("seqspace.b_norm.calls", "count", "lower", "items_per_s on ensemble"),
    ("seqspace.b_norm.self_s", "s", "lower", "items_per_s on ensemble"),
    ("seqspace.f_norm.calls", "count", "lower",
     "items_per_s on ensemble and item_p90_ms on kernels"),
    ("seqspace.f_norm.self_s", "s", "lower",
     "items_per_s on ensemble and item_p90_ms on kernels"),
    ("seqspace.f_norm.env_cells", "count", "lower",
     "items_per_s on ensemble and item_p90_ms on kernels"),
    ("seqspace.lambda_star.self_s", "s", "lower",
     "item_p90_ms and items_per_s on kernels"),
    ("seqspace.lambda_star.targets", "count", "lower",
     "item_p90_ms and items_per_s on kernels"),
    ("seqspace.lambda_star.pairs", "count", "lower",
     "item_p90_ms and items_per_s on kernels"),
    ("accel.lambda_star_sum.self_s", "s", "lower", "item_p90_ms on kernels"),
    ("accel.lambda_star_max.self_s", "s", "lower", "item_p90_ms on kernels"),
    ("accel.maximal_rows.self_s", "s", "lower", "item_p50_ms on kernels"),
    ("accel.maximal_rows.window_evals", "count", "lower",
     "item_p50_ms on kernels"),
    ("maximal.iterated_maximal.self_s", "s", "lower", "item_p50_ms on kernels"),
    ("maximal.envelope.self_s", "s", "lower", "item_p50_ms on kernels"),
    ("maximal.fs_vector_check.self_s", "s", "lower", "item_p50_ms on kernels"),
    ("embedlab.seq_embedding_check.self_s", "s", "lower",
     "items_per_s on ensemble"),
    ("embedlab.draws", "count", "higher", "items_per_s on ensemble"),
    ("embedlab.skipped_ratio", "fraction", "lower", "items_per_s on ensemble"),
    ("cli.render_report.self_s", "s", "lower", "nothing; a guard"),
    ("trace.overhead_s", "s", "lower",
     "nothing; traced minus untraced wall time of one schedule"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, overhead_s):
    """Value of every PER_LAYER metric from one pass's totals."""
    c = totals.counts
    special = {
        "frames.level_entries.hit_ratio": _ratio(
            c["frames.level_entries.returned"],
            c["frames.level_entries.scanned"]),
        "embedlab.skipped_ratio": _ratio(
            c["embedlab.skipped"], c["embedlab.draws"] + c["embedlab.skipped"]),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit, _, _ in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = totals.calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            value = totals.self_s[name[:-len(".self_s")]]
        else:
            value = c[name]
        out[name] = {"value": value, "unit": unit}
    return out
