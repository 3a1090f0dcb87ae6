import subprocess
import sys
from pathlib import Path

from test_acceptance import DETERMINISM_CONFIGS, EMBEDDING_SPECS

from herzlab.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent


def test_render_prints_one_digest_per_report(tmp_path):
    # the child half of tools/report_digests.py, on this checkout's tree
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"),
         "--render", str(ROOT)],
        cwd=str(tmp_path), capture_output=True, text=True, check=True)
    lines = [line.split(" ", 1) for line in proc.stdout.splitlines()]
    want = [f"{source} {command} {fmt}"
            for source, commands in (("criterion-14", DETERMINISM_CONFIGS),
                                     ("test_cli", COMMANDS))
            for command in commands for fmt in ("csv", "json")]
    want += [f"{source} embed-sweep {fmt}"
             for source in [f"criterion-09-{name}{tag}"
                            for name in EMBEDDING_SPECS
                            for tag in ("", "-control")] + ["n2-sweep",
                                                             "n3-sweep"]
             for fmt in ("csv", "json")]
    want += [f"kernels-{n}d maximal-check {fmt}" for n in (1, 2)
             for fmt in ("csv", "json")]
    want += [f"coeffs {name}" for name in ("analyze-1d", "analyze-2d",
                                           "lambda-star",
                                           "lambda-star-kernels-r1",
                                           "lambda-star-kernels-rinf",
                                           "dict", "dict-roundtrip")]
    sizes = [*((1, 16.0, 1024, K) for K in range(1, 7)), (2, 16.0, 256, 3),
             (1, 16.0, 4096, 6), (2, 16.0, 512, 3)]
    want += [f"{builder} {n}-{L:g}-{G}-{K}"
             for builder in ("build_resolution", "build_fj_pair")
             for n, L, G, K in sizes]
    want += [f"function-norms fj {n}-{L:g}-{G}-{K}{tag}"
             for n, L, G, K in sizes for tag in ("", " roundtrip")]
    want += [f"function-norms maximal-{n}d" for n in (1, 2)]
    want += [f"sequence-norms {name}"
             for name in ("random-1d-K4-25", "random-1d-K4-200",
                          "random-1d-K8-25", "random-1d-K8-200",
                          "random-2d-K3-40", "random-3d-K2-12",
                          "split-2d-K6", "kept-1d-K2-40",
                          "probes-1d-K8", "probes-2d-K3",
                          "lambda-star-kernels")]
    assert [label for _, label in lines] == want
    assert all(len(digest) == 64 and int(digest, 16) >= 0
               for digest, _ in lines)
    # a snapshot reloaded and saved again has the same bytes
    by_label = {label: digest for digest, label in lines}
    assert by_label.pop("coeffs dict-roundtrip") == by_label["coeffs dict"]
    assert len(set(by_label.values())) == len(by_label)
    # every config and coefficient file went to the child's own directory
    assert list(tmp_path.iterdir()) == []
