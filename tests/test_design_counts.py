import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "design_counts", ROOT / "tools" / "design_counts.py")
design_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(design_counts)

FIXTURE = '''"""A module of every kind of settable value, and of some that are not."""
import dataclasses
from dataclasses import dataclass, field


def plain(a, b):
    return lambda x=1: x  # a lambda's default is not counted


def defaults(a, b=1, *args, c, d=None, e=2, **kw):
    def inner(x=0):
        return x
    return inner


async def waits(a=None):
    return a


@dataclass(frozen=True)
class Params:
    p: float
    q: float = 2.0
    r: list = field(default_factory=list)
    NOTE = "an unannotated class attribute"

    def scaled(self, by=1.0):
        return self.p * by


@dataclasses.dataclass
class Other:
    s: int = 0


class NotADataclass:
    t: int = 0
'''


def test_settable_values_of_a_fixture_module():
    # defaults: b, d, e; inner: x; waits: a; Params: q, r; scaled: by;
    # Other: s.  Not counted: the lambda's x, *args, **kw, the required
    # keyword c, NOTE and NotADataclass.t
    assert design_counts.settable_values(FIXTURE) == 9


def test_design_counts_total_a_directory(tmp_path, capsys):
    (tmp_path / "one.py").write_text(FIXTURE)
    (tmp_path / "two.py").write_text("def f(a=1):\n    return a\n")
    (tmp_path / "notes.txt").write_text("def g(b=2): pass\n")
    lines = FIXTURE.count("\n") + 2
    assert design_counts.design_counts(tmp_path) == (lines, 10)
    design_counts.main([str(tmp_path)])
    assert capsys.readouterr().out == f"lines {lines}\nsettable 10\n"
