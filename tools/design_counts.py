"""The lines and the settable values of herzlab's modules.

Run from the root of a source checkout:

    python3 tools/design_counts.py [DIR]

DIR defaults to src/herzlab.  It prints two lines: ``lines N``, the
newline count of the directory's *.py files (as ``wc -l`` totals them),
and ``settable N``, the values a caller can leave at a default: every
defaulted parameter of a ``def`` (positional or keyword-only; lambdas
are not counted) plus every field with a default of a class decorated
with ``dataclass`` (``@dataclass``, ``@dataclass(...)`` or
``@dataclasses.dataclass``).
"""

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_dataclass(node):
    return any(ast.unparse(getattr(dec, "func", dec)).split(".")[-1]
               == "dataclass" for dec in node.decorator_list)


def settable_values(source):
    """Defaulted def parameters plus defaulted dataclass fields of one
    module's source text."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def design_counts(directory):
    """(lines, settable values) of the *.py files of directory."""
    texts = [p.read_text() for p in sorted(Path(directory).glob("*.py"))]
    return (sum(t.count("\n") for t in texts),
            sum(settable_values(t) for t in texts))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", default=ROOT / "src" / "herzlab")
    lines, settable = design_counts(ap.parse_args(argv).directory)
    print(f"lines {lines}")
    print(f"settable {settable}")


if __name__ == "__main__":
    main()
