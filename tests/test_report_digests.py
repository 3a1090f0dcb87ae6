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
                            for tag in ("", "-control")] + ["n2-sweep"]
             for fmt in ("csv", "json")]
    assert [label for _, label in lines] == want
    assert all(len(digest) == 64 and int(digest, 16) >= 0
               for digest, _ in lines)
    assert len({digest for digest, _ in lines}) == len(lines)
