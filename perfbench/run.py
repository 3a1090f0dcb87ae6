"""herzlab benchmark: end-to-end metrics, or per-layer metrics with tracing.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py.  One process, one caller, no worker
threads (BLAS and numba are pinned to one thread): a closed loop runs whole
cycles of items.

--trace 0 measures set-up time (the median over SETUP_SAMPLES fresh
processes: import herzlab, build the workload's fixed objects, run one
warm-up item of each kind), then the timed loop, and prints the end-to-end
metrics.  The seed fixes a list of timed_cycles cycles of items; the loop
runs that whole list again and again, for --seconds in all and at least
MIN_PASSES times.  An item whose rendered outputs hash differently in
another pass counts as failed.

Times are scaled to a reference host speed.  The host this was tuned on
slows by up to 2x for tens of seconds at a time, as other tenants load it,
so no statistic of raw times steadied the metrics.  A speed probe, a fixed
piece of dict and complex arithmetic that does not call herzlab, is timed
three times right before and three times right after each item (the best
of three, as the first run after an item finds cold caches); the item's
latency is divided by the mean of the two readings over PROBE_REF_S.  An
item's latency is the first quartile of its scaled latencies over the
passes.  Set-up time is scaled likewise, by probes timed around it in its
own process.  The unscaled figures and the probe's slowdown are in the
run's metadata.

--trace 1 runs a fixed schedule of trace_cycles cycles twice untraced, then
twice with every layer wrapped (see tracing.py), and prints the per-layer
metrics of the first traced pass.  Its calls and counts must repeat exactly
in the second, and its outputs must hash as in the untraced passes.  The
spans of set-up and the first traced pass are written to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's metadata.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (thread pins must precede any numpy import)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
WORKLOAD_NAMES = ("ensemble", "spectral", "kernels")
SETUP_SAMPLES = 5
MIN_PASSES = 3
# Time of speed_probe on the tuning host when nothing else loads it
# (2-vCPU Xeon VM, Python 3.11.7); loaded, the probe took up to 450 us.
PROBE_REF_S = 250e-6
PROBE_KEYS = tuple((k, (a, b)) for k in range(4) for a in range(12)
                   for b in range(12))
PROBE_TIMEOUT_S = 60


class Item:
    """One executed item: its pool index, latencies, digest and problems.

    ``raw`` and ``scaled`` hold one latency per pass; ``scaled`` stays
    empty when the run does not probe the host's speed.
    """

    def __init__(self, kind, j, latency, digest, problems):
        self.kind, self.j = kind, j
        self.raw, self.scaled = [latency], []
        self.digest, self.problems = digest, problems


def speed_probe():
    """Seconds taken by a fixed dict and complex workload of the benchmark."""
    t0 = time.perf_counter()
    table = {}
    for key in PROBE_KEYS:
        table[key] = complex(key[1][0], key[0])
    sorted(table, key=lambda t: (t[0], t[1]))
    sum(abs(x) for x in table.values())
    return time.perf_counter() - t0


def speed_reading():
    """Best of three probes: the first after an item runs on cold caches."""
    return min(speed_probe(), speed_probe(), speed_probe())


def slowdown(samples=5, warmup=20):
    """Median probe time over PROBE_REF_S, after warming the probe up."""
    for _ in range(warmup):
        speed_probe()
    probes = [speed_probe() for _ in range(samples)]
    return statistics.median(probes) / PROBE_REF_S


def scaled_set_up(name):
    """set_up() with its time scaled by the slowdown probed around it.

    Returns (workload, scaled seconds, raw seconds).
    """
    before = slowdown()
    workload, seconds = set_up(name)
    return workload, seconds / ((before + slowdown()) / 2), seconds


def set_up(name, tracer=None):
    """Import herzlab, build the workload's fixed objects, warm up.

    Returns (workload, seconds).  With a tracer, the build runs wrapped.
    """
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import herzlab  # noqa: F401
    import workloads
    workload = workloads.WORKLOADS[name]()
    if tracer is None:
        workload.setup()
    else:
        tracer.install()
        with tracer.span("setup", "setup"):
            workload.setup()
        tracer.uninstall()
    for kind in workload.warmup:
        workload.run(kind, workload.make_input(kind, 0))
    return workload, time.perf_counter() - t0


def probe_setup(name, seed):
    """(scaled, raw) set-up seconds measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["raw_setup_s"]


def run_item(workload, kind, j, refs, tracer=None, item_id=None):
    """Run one item, timing only the program call; check and hash outputs."""
    import workloads
    inp = workload.make_input(kind, j)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(kind, inp)
        else:
            with tracer.span("item", item_id):
                out = workload.run(kind, inp)
    except Exception as exc:  # a raising item is a failed item; keep going
        latency = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Item(kind, j, latency, None, [f"raised {exc!r}"])
    latency = time.perf_counter() - t0
    problems = workload.invariants(kind, inp, out)
    problems += workloads.compare(workload.values(kind, out),
                                  refs.get(f"{kind}/{j}"))
    text = workloads.render(workload.name, kind, j, workload.record(kind, out))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    return Item(kind, j, latency, digest, problems)


def schedule(workload, seed):
    """Endless (kind, pool index) sequence, fixed by the seed."""
    import workloads
    picker = random.Random(seed)
    while True:
        for kind in workload.cycle:
            yield kind, picker.randrange(workloads.POOL)


def run_schedule(workload, sched, count, refs, tracer=None, label="",
                 scale=False):
    """Run ``count`` items; with ``scale``, probe the host around each."""
    items = []
    before = speed_reading() if scale else None
    for i in range(count):
        kind, j = next(sched)
        item = run_item(workload, kind, j, refs, tracer, f"{label}{i}")
        if scale:
            after = speed_reading()
            item.scaled.append(item.raw[0] * 2 * PROBE_REF_S / (before + after))
            before = after
        items.append(item)
    return items


def fold(items, again, what):
    """Merge a repetition of the same schedule into ``items``.

    An item collects the repetition's latencies and problems; it fails when
    its output digest differs from the repetition's.
    """
    for first, second in zip(items, again):
        first.raw += second.raw
        first.scaled += second.scaled
        first.problems += second.problems
        if first.digest != second.digest:
            first.problems.append(f"output digest differs {what}")


def percentile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_digest(items):
    h = hashlib.sha256()
    for it in items:
        h.update((it.digest or "raised").encode("ascii"))
    return h.hexdigest()


def metadata(args, workload, items):
    from herzlab import _accel
    import numpy
    kinds = {}
    for it in items:
        kinds[it.kind] = kinds.get(it.kind, 0) + 1
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "numeric_path": "numba" if _accel.USE_NUMBA else "numpy",
            "numpy": numpy.__version__, "python": platform.python_version(),
            "nproc": os.cpu_count(), "sizes": workload.sizes(),
            "items_by_kind": kinds, "digest": run_digest(items)}


def failures(items):
    bad = [it for it in items if it.problems]
    for it in bad[:20]:
        print(f"FAILED {it.kind} pool {it.j}: {'; '.join(it.problems)}",
              file=sys.stderr)
    return len(bad)


def emit(meta, attempted, failed, metrics, correct, table):
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    path.write_text(json.dumps({"meta": meta, **result}, indent=1) + "\n")
    for line in table:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))


def first_quartile(values):
    return statistics.quantiles(values, n=4)[0]


def latency_metrics(lat):
    return {"items_per_s": (len(lat) / sum(lat), "items/s"),
            "item_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
            "item_p90_ms": (percentile(lat, 90) * 1e3, "ms")}


def timed_run(args, refs):
    workload, first, first_raw = scaled_set_up(args.workload)
    samples = [(first, first_raw)] + [probe_setup(args.workload, args.seed)
                                      for _ in range(SETUP_SAMPLES - 1)]
    count = workload.timed_cycles * len(workload.cycle)

    def one_pass():
        return run_schedule(workload, schedule(workload, args.seed), count,
                            refs, scale=True)

    began = time.perf_counter()
    items = one_pass()
    passes, last = 1, time.perf_counter() - began
    # Stop before a pass that would end past --seconds, once MIN_PASSES ran.
    while (passes < MIN_PASSES
           or time.perf_counter() - began + last <= args.seconds):
        t0 = time.perf_counter()
        fold(items, one_pass(), "when the schedule runs again")
        passes, last = passes + 1, time.perf_counter() - t0

    failed = failures(items)
    lat = [first_quartile(it.scaled) for it in items]
    n = len(items)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "setup_s": (statistics.median(s for s, _ in samples), "s"),
        **latency_metrics(lat),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_ratio": (1.0 - failed / n, "fraction"),
    }
    meta = metadata(args, workload, items)
    meta["passes"] = passes
    meta["probe_ref_s"] = PROBE_REF_S
    meta["median_slowdown"] = statistics.median(
        r / s for it in items for r, s in zip(it.raw, it.scaled))
    meta["unscaled"] = {
        "setup_s": statistics.median(r for _, r in samples),
        **{name: value for name, (value, _) in latency_metrics(
            [first_quartile(it.raw) for it in items]).items()}}
    table = [f"herzlab benchmark {args.workload} seed {args.seed}: "
             f"{meta['numeric_path']} path, numpy {meta['numpy']}, "
             f"python {meta['python']}, nproc {meta['nproc']}, "
             f"{passes} passes, host slowdown {meta['median_slowdown']:.3g}x "
             f"(times scaled to it)"]
    beyond = sum(1 for x in lat if x * 1e3 > metrics["item_p90_ms"][0])
    over = {"setup_s": f"{len(samples)} set-ups", "peak_rss_mb": "1 process",
            "item_p90_ms": f"{n} items, {beyond} beyond p90"}
    for name, (value, unit) in metrics.items():
        table.append(f"  {name:<12} {value:>14.6g} {unit:<9} "
                     f"over {over.get(name, f'{n} items')}")
    table.append(f"  {'fail_ratio':<12} {failed / n:>14.6g} {'fraction':<9} "
                 f"over {n} items")
    emit(meta, n, failed, {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
         failed == 0, table)


def traced_run(args, refs):
    import tracing
    tracer = tracing.Tracer()
    setup_totals = tracer.start_pass(keep_spans=True)
    workload, _ = set_up(args.workload, tracer)
    count = workload.trace_cycles * len(workload.cycle)

    # The first untraced pass warms the interpreter on every code path of the
    # schedule; the second is the baseline for the tracing overhead.
    plain = run_schedule(workload, schedule(workload, args.seed), count, refs)
    t0 = time.perf_counter()
    fold(plain, run_schedule(workload, schedule(workload, args.seed), count,
                             refs), "between the two untraced passes")
    plain_wall = time.perf_counter() - t0

    tracer.install()
    try:
        first = tracer.start_pass(keep_spans=True)
        t0 = time.perf_counter()
        traced = run_schedule(workload, schedule(workload, args.seed), count,
                              refs, tracer, "t1-")
        traced_wall = time.perf_counter() - t0
        second = tracer.start_pass(keep_spans=False)
        again = run_schedule(workload, schedule(workload, args.seed), count,
                             refs, tracer, "t2-")
    finally:
        tracer.uninstall()
    fold(traced, plain, "between the untraced and traced pass")
    fold(traced, again, "between the two traced passes")

    repeat_ok = first.work() == second.work()
    for name, value in setup_totals.self_s.items():
        first.self_s[name] += value
    metrics = tracing.layer_metrics(first, traced_wall - plain_wall)
    if not repeat_ok:
        print("counts differ between two traced passes of one seed",
              file=sys.stderr)

    failed = failures(traced)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans, "w", encoding="ascii") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(
                ("id", "name", "start", "end", "parent", "item"), span))) + "\n")

    meta = metadata(args, workload, traced)
    meta.update({"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                 "counts_repeat": repeat_ok, "spans": len(tracer.spans),
                 "spans_file": str(spans.relative_to(ROOT))})
    table = [f"herzlab benchmark {args.workload} seed {args.seed}, traced: "
             f"{count} items per pass, {meta['numeric_path']} path"]
    for name, m in metrics.items():
        table.append(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    table.append(f"  tracing overhead {traced_wall - plain_wall:.4f} s on "
                 f"{plain_wall:.4f} s untraced; counts repeat: {repeat_ok}")
    emit(meta, count, failed, metrics, failed == 0 and repeat_ok, table)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="measure set-up in this process and print it")
    args = ap.parse_args(argv)
    if not (SRC / "herzlab" / "__init__.py").is_file():
        print(f"error: no herzlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, seconds, raw = scaled_set_up(args.workload)
        print(json.dumps({"setup_s": seconds, "raw_setup_s": raw}))
        return 0
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES.name}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text())[args.workload]
    if args.trace:
        traced_run(args, refs)
    else:
        timed_run(args, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
