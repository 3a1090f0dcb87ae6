"""Alternated parent/change pairs of perfbench/run.py, written as BENCH_<n>.json.

Run from the root of a source checkout, for example:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads spectral ensemble kernels --first-seed 1001 \\
        --out BENCH_8.json --description "..." --note "..."

Each side is the tree of its git revision, unpacked with ``git archive``
into a temporary directory (nothing is registered in the repository's
.git), and runs the benchmark with its own ``perfbench/`` for the
run_seconds of BENCHMARK.json.  Every workload runs PAIRS = 10 pairs, the
fewest that can back a claimed gain (nine wins of ten).  Workload i of the
list gets the seeds first_seed + 10 i onwards, one per pair; within a pair
both sides run the same seed, the parent first on even pair indices and the
change first on odd ones.

The output has the layout of the earlier BENCH_*.json files: per workload
the seeds, the digests that matched, the failed items and, per end-to-end
metric of BENCHMARK.json, each side's median and interquartile range
(statistics.quantiles, exclusive method), the pairs the change won and
lost (ties count for neither) and every run, rounded to six significant
digits.  The medians and ranges are taken on the unrounded runs.  Each
metric also says whether a gain is shown (``gain_shown``: the change won
at least nine pairs in ten and its median beats the parent's by more than
the parent's interquartile range) and whether the change stays within the
metric's bound (``within_bound``: its median is worse than the parent's by
at most the bound times the parent's median).
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
ORDER = "pairs alternate which side runs first (parent first on even pair index)"
SIDES = ("parent", "change")


def summarize(parent_runs, change_runs, better):
    """Medians, interquartile ranges, wins and losses of paired runs.

    parent_runs[i] and change_runs[i] are pair i; better is "higher" or
    "lower".  Needs at least two pairs.
    """
    def iqr(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4)
        return q3 - q1

    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    return {
        "parent_median": statistics.median(parent_runs),
        "change_median": statistics.median(change_runs),
        "parent_iqr": iqr(parent_runs),
        "change_iqr": iqr(change_runs),
        "change_wins": sum(d > 0 for d in diffs),
        "change_losses": sum(d < 0 for d in diffs),
        "parent_runs": [float(f"{x:.6g}") for x in parent_runs],
        "change_runs": [float(f"{x:.6g}") for x in change_runs],
    }


def claim_checks(stats, better, bound):
    """``gain_shown`` and ``within_bound`` of one metric's ``summarize``.

    bound is the metric's end_to_end bound of BENCHMARK.json, a share of
    the parent's median.
    """
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (stats["change_median"] - stats["parent_median"])
    pairs = len(stats["parent_runs"])
    return {"gain_shown": (10 * stats["change_wins"] >= 9 * pairs
                           and gain > stats["parent_iqr"]),
            "within_bound": -gain <= bound * abs(stats["parent_median"])}


def summarize_workload(pairs, metrics, seconds):
    """One workload's entry from its pairs.

    pairs : [(seed, parent result, change result)] in pair order, a result
    being {"metrics": {name: {"value", "unit"}}, "failed": int,
    "meta": {"digest", ...}} as perfbench/run.py prints it.
    metrics : the end_to_end entries of BENCHMARK.json.
    """
    out = {
        "seeds": [seed for seed, _, _ in pairs],
        "pairs": len(pairs),
        "seconds": float(seconds),
        "digests_equal": sum(p["meta"]["digest"] == c["meta"]["digest"]
                             for _, p, c in pairs),
        "failed_items": {side: sum(pair[1 + i]["failed"] for pair in pairs)
                         for i, side in enumerate(SIDES)},
        "metrics": {},
    }
    for m in metrics:
        name = m["name"]
        runs = [[pair[1 + i]["metrics"][name]["value"] for pair in pairs]
                for i in range(len(SIDES))]
        stats = summarize(*runs, m["better"])
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], **stats,
            **claim_checks(stats, m["better"], m["bound"])}
    return out


def format_report(report):
    """JSON text with one-space indents and every list on one line."""
    def dump(value, depth):
        if not isinstance(value, dict) or not value:
            return json.dumps(value)
        pad = " " * (depth + 1)
        items = (f"{pad}{json.dumps(k)}: {dump(v, depth + 1)}"
                 for k, v in value.items())
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    return dump(report, 0) + "\n"


def parse_run(stdout):
    """The result of one run.py --trace 0 run: its last line plus its meta."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not lines[-2].startswith("meta "):
        raise ValueError("run.py output has no meta line before its result")
    result["meta"] = json.loads(lines[-2][len("meta "):])
    return result


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def unpack(rev, workdir):
    """The commit of ``rev`` and its tree, unpacked under workdir/<commit>."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = workdir / commit
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(tree, filter="data")
    return commit, tree


def run_side(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=str(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name[:12]} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--description", required=True)
    ap.add_argument("--note", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = set(args.workloads) - {w["name"] for w in bench["workloads"]}
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    seconds = bench["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: unpack(rev, Path(tmp))
                 for side, rev in zip(SIDES, (args.parent, args.change))}
        report = {"description": args.description,
                  "parent": trees["parent"][0],
                  "command": (f"python3 perfbench/run.py --workload W "
                              f"--seed S --seconds {seconds:g} --trace 0"),
                  "order": ORDER, "host": None, "workloads": {}}
        for w, workload in enumerate(args.workloads):
            pairs = []
            for i in range(PAIRS):
                seed = args.first_seed + w * PAIRS + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                result = {}
                for side in order:
                    result[side] = run_side(trees[side][1], workload, seed,
                                            seconds)
                    ips = result[side]["metrics"]["items_per_s"]["value"]
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{ips:.4g} items/s", file=sys.stderr)
                pairs.append((seed, result["parent"], result["change"]))
            report["workloads"][workload] = summarize_workload(
                pairs, bench["end_to_end"], seconds)
    meta = pairs[0][2]["meta"]
    report["host"] = {key: meta[key]
                      for key in ("python", "numpy", "nproc", "numeric_path")}
    report["note"] = args.note
    Path(args.out).write_text(format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
