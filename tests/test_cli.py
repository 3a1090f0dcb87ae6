import configparser
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import herzlab
from herzlab import CoeffSeq, save_coeffs
from herzlab.cli import (COMMANDS, ConfigError, ExperimentConfig, _grid_meta,
                         main, render_report, run_config)

NORM_CFG = """
[grid]
n = 1
l = 8
g = 256

[field]
kind = witness
level = 0
seed = 3

[space]
family = B
s = 0.5
beta = 2
p = 2
alpha = 0.25
q = 1

[system]
kind = fj
k = 4
"""

SWEEP_CFG = """
[run]
theorem = sobolev

[source]
family = f
s = 1.75
beta = 2
p = 1
alpha = 0.25
q = 2

[target]
family = f
s = 1.0
beta = 2
p = 2
alpha = 0
q = 2

[ensemble]
seed = 31
draws = 20
k_list = 4,6

[output]
format = csv
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_norm_command_writes_report(tmp_path, capsys):
    cfg = _write(tmp_path, "norm.ini", NORM_CFG)
    out = tmp_path / "report.csv"
    assert main(["norm", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# command=norm")
    assert "0.066126878826180971" in text  # pinned witness norm


def test_report_goes_to_stdout_without_out(tmp_path, capsys):
    cfg = _write(tmp_path, "norm.ini", NORM_CFG)
    assert main(["norm", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "norm" in text.splitlines()[-2]


def test_missing_config_fails_with_diagnostic(tmp_path, capsys):
    assert main(["norm", "--config", str(tmp_path / "nope.ini")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_config_fails_cleanly(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[grid\nn = 1\n")
    assert main(["norm", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_parameters_fail_cleanly(tmp_path, capsys):
    bad = NORM_CFG.replace("alpha = 0.25", "alpha = -0.75")
    cfg = _write(tmp_path, "bad.ini", bad)
    assert main(["norm", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "alpha" in err


def _one_error_line(capsys, argv, *names):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    for name in names:
        assert name in err[0]
    return err[0]


def test_non_integer_grid_size_names_its_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", NORM_CFG.replace("g = 256", "g = abc"))
    line = _one_error_line(capsys, ["norm", "--config", cfg], "[grid] g", "abc")
    assert "invalid literal" not in line


MAXIMAL_CFG = """
[grid]
n = 2
l = 16

[space]
p = 2
alpha = 0.25
q = 2

[maximal]
beta = 2
t = 0.5
g_list = 64,1048576

[ensemble]
seed = 1
count = 2
"""


@pytest.mark.parametrize("command, key", [("norm", "[grid] g"),
                                          ("maximal-check", "[maximal] g_list")])
def test_grid_beyond_physical_memory_names_its_key(tmp_path, capsys, command,
                                                   key):
    # G^n * 16 bytes = 16 TiB at G = 2^20, n = 2: refused by the preflight
    # before any array is allocated (before, numpy raised a traceback)
    norm = NORM_CFG.replace("n = 1", "n = 2").replace("g = 256", "g = 1048576")
    text = {"norm": norm.replace("kind = witness", "kind = zero"),
            "maximal-check": MAXIMAL_CFG}[command]
    cfg = _write(tmp_path, "big.ini", text)
    line = _one_error_line(capsys, [command, "--config", cfg], key,
                           "physical memory")
    assert "Unable to allocate" not in line


def test_decompose_preflight_counts_the_kept_magnitudes(tmp_path, capsys,
                                                        monkeypatch):
    # three pages of 4 KiB hold the n = 1, G = 256 field (4 KiB) but not its
    # K = 4 decomposition: band spectrum, 5/2 of magnitudes, 2 in flight and
    # 11 cached band indices of at most 81 entries
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 3}
    monkeypatch.setattr(herzlab.grid, "os", SimpleNamespace(sysconf=pages.get))
    cfg = _write(tmp_path, "norm.ini", NORM_CFG)
    assert main(["norm", "--config", cfg, "--out",
                 str(tmp_path / "norm.csv")]) == 0
    line = _one_error_line(capsys, ["decompose", "--config", cfg],
                           "[grid] g = 256", "field sizes", "physical memory")
    assert "7.55664 field sizes" in line
    pages["SC_PHYS_PAGES"] = 8
    assert main(["decompose", "--config", cfg, "--out",
                 str(tmp_path / "decompose.csv")]) == 0


@pytest.mark.parametrize("kind, k, fields, need", [
    ("fj", 12, "9.52479", 40908670344),
    ("resolution", 12, "9.5141", 40862763672),
    ("fj", 13, "10.099", 43374732808)])
def test_decompose_preflight_runs_before_the_system_is_built(
        tmp_path, capsys, monkeypatch, kind, k, fields, need):
    # n = 2, G = 16384 keeps 67 MiB of crops at K = 12; the rejection must
    # not build them, and reads as it did when it did
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2052892}
    monkeypatch.setattr(herzlab.grid, "os", SimpleNamespace(sysconf=pages.get))

    def refuse(*args):
        raise AssertionError("the system was built")

    monkeypatch.setattr(herzlab.cli, "build_system", refuse)
    text = (NORM_CFG.replace("n = 1", "n = 2").replace("l = 8", "l = 1")
            .replace("g = 256", "g = 16384").replace("kind = witness",
                                                     "kind = zero")
            .replace("p = 2\n", "p = 2,2\n")
            .replace("alpha = 0.25\n", "alpha = 0.25,0.25\n")
            .replace("q = 1\n", "q = 1,1\n")
            .replace("kind = fj", f"kind = {kind}").replace("k = 4", f"k = {k}"))
    cfg = _write(tmp_path, "big.ini", text)
    line = _one_error_line(capsys, ["decompose", "--config", cfg])
    assert line == (f"error: [grid] g = 16384: {fields} field sizes of G^n = "
                    f"16384^2 samples needs {need} bytes, more than the "
                    f"8408645632 bytes of physical memory")


def _vector_exponents(text):
    return (text.replace("p = 2\n", "p = 2,2\n")
            .replace("alpha = 0.25\n", "alpha = 0.25,0.25\n")
            .replace("q = 2\n", "q = 2,2\n"))


def test_scalar_exponents_broadcast_to_the_grid(tmp_path):
    # [grid] n = 2 with one-entry p, alpha, q runs as the per-axis lists do
    scalar = MAXIMAL_CFG.replace("g_list = 64,1048576", "g_list = 32,64")
    vector = _vector_exponents(scalar)
    assert vector != scalar
    reports = [run_config(ExperimentConfig.load(
        _write(tmp_path, name, text), "maximal-check"))
        for name, text in (("scalar.ini", scalar), ("vector.ini", vector))]
    assert reports[0]["records"] == reports[1]["records"]
    assert reports[0]["meta"]["fit.log_slope"] == \
        reports[1]["meta"]["fit.log_slope"]


def test_exponent_list_of_another_length_names_its_section(tmp_path, capsys):
    bad = MAXIMAL_CFG.replace("g_list = 64,1048576", "g_list = 32,64") \
        .replace("p = 2\n", "p = 2,2,2\n")
    cfg = _write(tmp_path, "bad.ini", bad)
    _one_error_line(capsys, ["maximal-check", "--config", cfg], "[space] p",
                    "3 entries", "n = 2")


def test_grid_meta_allocates_no_field():
    # it reads only L and G; a 2048^2 zero field would trace at 67 MB
    tracemalloc.start()
    try:
        meta = _grid_meta(16.0, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert meta == {"grid.k_min": -7, "grid.k_max": 3, "grid.v_max": 7}


def test_non_integer_draws_names_its_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", SWEEP_CFG.replace("draws = 20",
                                                        "draws = x"))
    line = _one_error_line(capsys, ["embed-sweep", "--config", cfg],
                           "[ensemble] draws")
    assert "invalid literal" not in line


@pytest.mark.parametrize("key, old", [("p", "p = 2"), ("alpha", "alpha = 0"),
                                      ("q", "q = 2")])
def test_non_numeric_exponent_names_its_key(tmp_path, capsys, key, old):
    # the [target] section of the sweep; its family line comes first
    head, tail = SWEEP_CFG.split("[target]")
    bad = head + "[target]" + tail.replace(old, f"{key} = 1,two", 1)
    cfg = _write(tmp_path, "bad.ini", bad)
    line = _one_error_line(capsys, ["embed-sweep", "--config", cfg],
                           f"[target] {key}", "1,two")
    assert "could not convert" not in line


def test_malformed_coefficient_header_names_the_field(tmp_path, capsys):
    coeffs = tmp_path / "lam.coeffs"
    coeffs.write_text("herzcoeffs 1\nn=1 K=2 L16 count=1\n0 0 1 0\n")
    cfg = _write(tmp_path, "seq.ini", f"""
[space]
family = b
s = 0.5
beta = 2
p = 2
alpha = 0.25
q = 1

[coeffs]
path = {coeffs}
""")
    line = _one_error_line(capsys, ["seqnorm", "--config", cfg],
                           "[coeffs] path", "L16")
    assert "dictionary update" not in line


@pytest.mark.parametrize("head, lines, names", [
    ("n=1 K=2 L=16 count=1", "0 0 1 0\n1 3 2 0\n", ["line 4", "count=1"]),
    ("n=1 K=2 L=16 count=-2", "", ["count=-2"]),
    ("n=1 K=2 L=nan count=1", "0 0 1 0\n", ["L=nan"]),
    # a nan once gave the norm of the set without it, an inf gave 0.0
    ("n=1 K=2 L=16 count=2", "0 1 nan 0\n1 3 1 0\n",
     ["level 0 values are not finite"]),
    ("n=1 K=2 L=16 count=2", "0 1 0 inf\n1 3 1 0\n",
     ["level 0 values are not finite"]),
], ids=["extra-line", "negative-count", "nan-L", "nan-value", "inf-value"])
def test_coefficient_file_beyond_its_header_names_the_part(tmp_path, capsys,
                                                           head, lines,
                                                           names):
    coeffs = tmp_path / "lam.coeffs"
    coeffs.write_text(f"herzcoeffs 1\n{head}\n{lines}")
    cfg = _write(tmp_path, "seq.ini", f"""
[space]
family = b
s = 0.5
beta = 2
p = 2
alpha = 0.25
q = 1

[coeffs]
path = {coeffs}
""")
    _one_error_line(capsys, ["seqnorm", "--config", cfg], "[coeffs] path",
                    *names)


@pytest.mark.parametrize("length", ["0", "-3"])
def test_hardy_check_rejects_short_length(tmp_path, capsys, length):
    cfg = _write(tmp_path, "hardy.ini",
                 f"[hardy]\na = 0.5\nq = 2\n\n[ensemble]\nseed = 1\n"
                 f"draws = 3\nlength = {length}\n")
    assert main(["hardy-check", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert "length" in err[0]


@pytest.mark.parametrize("command, text", [
    ("embed-sweep", SWEEP_CFG.replace("draws = 20", "draws = -5")),
    ("hardy-check", "[hardy]\na = 0.5\nq = 2\n\n[ensemble]\nseed = 1\n"
                    "draws = -5\nlength = 8\n"),
])
def test_negative_draws_rejected_by_name(tmp_path, capsys, command, text):
    cfg = _write(tmp_path, "draws.ini", text)
    _one_error_line(capsys, [command, "--config", cfg], "draws", "-5")


def test_unknown_command_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.ini"])


def test_zero_field_norm_is_zero(tmp_path):
    cfg_text = NORM_CFG.replace("kind = witness", "kind = zero")
    cfg = _write(tmp_path, "zero.ini", cfg_text)
    out = tmp_path / "zero.csv"
    assert main(["norm", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().rstrip().endswith("\n0") or \
        out.read_text().rstrip().split("\n")[-1] == "0"


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "sweep.ini", SWEEP_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["embed-sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["embed-sweep", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "sweep.ini", SWEEP_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["embed-sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["embed-sweep", "--config", cfg, "--out", str(b),
                 "--seed", "99"]) == 0
    ta, tb = a.read_text(), b.read_text()
    assert "config.ensemble.seed=31" in ta
    assert "config.ensemble.seed=99" in tb
    assert ta != tb


def test_json_format_parses_and_sorts(tmp_path):
    cfg_text = SWEEP_CFG.replace("format = csv", "format = json")
    cfg = _write(tmp_path, "sweep.ini", cfg_text)
    out = tmp_path / "report.json"
    assert main(["embed-sweep", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["command"] == "embed-sweep"
    assert len(doc["records"]) == 2
    keys = list(doc["meta"].keys())
    assert keys == sorted(keys)


def test_seqnorm_reads_coeff_file(tmp_path):
    lam = CoeffSeq(1, 1, 16.0, {(0, (0,)): 1.0 + 0j, (1, (3,)): 0.5 + 0j})
    coeff_path = tmp_path / "lam.coeffs"
    save_coeffs(lam, coeff_path)
    cfg = _write(tmp_path, "seq.ini", f"""
[space]
family = b
s = 0.5
beta = 2
p = 2
alpha = 0.25
q = 1

[coeffs]
path = {coeff_path}
""")
    out = tmp_path / "seq.csv"
    assert main(["seqnorm", "--config", cfg, "--out", str(out)]) == 0
    assert "# coeffs.count=2" in out.read_text()


def test_render_report_refuses_empty_records():
    with pytest.raises(ValueError):
        render_report({"meta": {}, "records": []}, "csv")
    with pytest.raises(ValueError):
        render_report({"meta": {}, "records": [{"x": 1}]}, "xml")


def test_config_exponent_parsing(tmp_path):
    cfg = ExperimentConfig.load(_write(tmp_path, "c.ini", """
[run]
command = norm

[space]
p = inf
"""))
    assert cfg.get_float("space", "p") == float("inf")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(_write(tmp_path, "d.ini", "[a]\nb = 1\n"))


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, "norm.ini", NORM_CFG)
    # the child imports the same herzlab as this process
    src = str(Path(herzlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "herzlab.cli", "norm", "--config", cfg],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "0.066126878826180971" in proc.stdout


NECESSITY_CFG = """
[grid]
n = 1
l = 8
g = 256

[source]
family = B
s = 1.75
beta = 2
p = 1
alpha = 0.25
q = 2

[target]
family = B
s = 1.0
beta = 2
p = 2
alpha = 0.25
q = 2

[ensemble]
seed = 7
n_max = 3
"""


@pytest.mark.parametrize("command", ["embed-sweep", "necessity"])
def test_family_of_the_other_kind_names_its_section(tmp_path, capsys,
                                                    command):
    # sequence theorems take b/f, the function-space necessity fit B/F
    text, good, bad = {
        "embed-sweep": (SWEEP_CFG, "family = f", "family = B"),
        "necessity": (NECESSITY_CFG, "family = B", "family = b"),
    }[command]
    cfg = _write(tmp_path, "good.ini", text)
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "good.csv")]) == 0
    # [source] comes first in both configs
    cfg = _write(tmp_path, "bad.ini", text.replace(good, bad, 1))
    line = _one_error_line(capsys, [command, "--config", cfg], "[source]",
                           "family")
    assert "[target]" not in line


# -- malformed values --------------------------------------------------------

HARDY_CFG = """
[hardy]
a = 0.5
q = 2

[ensemble]
seed = 5
draws = 3
length = 8
"""


def _fuzz_configs(tmp_path):
    """Each command's smallest working config: small grids, few draws, one K."""
    lam = CoeffSeq(1, 1, 16.0, {(0, (0,)): 1.0 + 0j, (1, (3,)): 0.5 + 0j})
    save_coeffs(lam, tmp_path / "lam.coeffs")
    sweep = (SWEEP_CFG.replace("draws = 20", "draws = 3")
             .replace("k_list = 4,6", "k_list = 2"))
    return {
        "norm": NORM_CFG,
        "decompose": NORM_CFG,
        "phitransform": NORM_CFG + "\n[ensemble]\nseed = 1\ncount = 1\n",
        "seqnorm": "[space]\nfamily = b\ns = 0.5\nbeta = 2\np = 2\n"
                   "alpha = 0.25\nq = 1\n\n[coeffs]\npath = "
                   f"{tmp_path / 'lam.coeffs'}\n",
        "embed-sweep": sweep,
        "necessity": NECESSITY_CFG,
        "maximal-check": MAXIMAL_CFG.replace("g_list = 64,1048576",
                                             "g_list = 32,64"),
        "ppn-check": NECESSITY_CFG,
        "hardy-check": HARDY_CFG,
    }


def _run_quietly(capsys, tmp_path, command, text):
    """main's exit code and stderr lines on config text; fails the test,
    naming the config, on anything that escapes main (pytest's
    filterwarnings = error makes a leaked numpy warning one of those)."""
    path = tmp_path / "fuzz.ini"
    path.write_text(text)
    try:
        code = main([command, "--config", str(path),
                     "--out", str(tmp_path / "report.txt")])
    except BaseException as exc:  # SystemExit included
        pytest.fail(f"{command} raised {type(exc).__name__}: {exc}\n{text}")
    return code, capsys.readouterr().err.splitlines()


FUZZ_VALUES = ("", "abc", "0", "-1", "nan", "inf", "0.5", "50%")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_malformed_value_exits_cleanly(tmp_path, capsys, command):
    # set each key of a working config in turn to each value: main returns
    # 0, or 2 with exactly one error line, and nothing escapes it
    base = _fuzz_configs(tmp_path)[command]
    assert _run_quietly(capsys, tmp_path, command, base) == (0, [])
    parser = configparser.ConfigParser()
    parser.read_string(base)
    for section in parser.sections():
        for key in parser[section]:
            for value in FUZZ_VALUES:
                cp = configparser.ConfigParser(interpolation=None)
                cp.read_string(base)
                cp[section][key] = value
                text = io.StringIO()
                cp.write(text)
                code, err = _run_quietly(capsys, tmp_path, command,
                                         text.getvalue())
                case = f"{command} [{section}] {key} = {value!r}: {err}"
                assert code in (0, 2), case
                if code == 2:
                    assert len(err) == 1 and err[0].startswith("error:"), case


@pytest.mark.parametrize("command, old, new, name", [
    ("norm", "l = 8", "l = 0", "[grid] l"),
    ("norm", "l = 8", "l = inf", "[grid] l"),
    ("norm", "l = 8", "l = 3", "[grid] l"),
    ("norm", "l = 8", "l = -1", "[grid] l"),
    ("norm", "g = 256", "g = 100", "[grid] g"),
    ("norm", "n = 1", "n = 4", "[grid] n"),
    ("norm", "seed = 3", "seed = -1", "[field] seed"),
    ("norm", "level = 0", "level = -1", "[field] level"),
    ("maximal-check", "g_list = 32,64", "g_list = 0,64", "[maximal] g_list"),
    ("maximal-check", "g_list = 32,64", "g_list = 64", "[maximal] g_list"),
    ("maximal-check", "g_list = 32,64", "g_list = 64,64", "[maximal] g_list"),
    ("maximal-check", "l = 16", "l = nan", "[grid] l"),
    ("maximal-check", "count = 2", "count = 0", "[ensemble] count"),
    ("maximal-check", "beta = 2", "beta = nan", "beta"),
    ("phitransform", "count = 1", "count = 0", "[ensemble] count"),
    ("decompose", "k = 4", "k = 0", "[system] k"),
    ("necessity", "n_max = 3", "n_max = 0", "[ensemble] n_max"),
    ("necessity", "n_max = 3", "n_max = -1", "[ensemble] n_max"),
    ("necessity", "s = 1.75", "s = inf", "[source]"),
    ("necessity", "alpha = 0.25", "alpha = inf", "[source]"),
    ("ppn-check", "n_max = 3", "n_max = 0", "[ensemble] n_max"),
    ("ppn-check", "n_max = 3", "n_max = -1", "[ensemble] n_max"),
    ("ppn-check", "alpha = 0.25", "alpha = inf", "[source]"),
    ("embed-sweep", "k_list = 2", "k_list = 0", "[ensemble] k_list"),
    ("embed-sweep", "k_list = 2", "k_list = 2,-1", "[ensemble] k_list"),
    ("embed-sweep", "s = 1.75", "s = nan", "[source]"),
    ("embed-sweep", "seed = 31", "seed = -1", "[ensemble] seed"),
    ("hardy-check", "seed = 5", "seed = -1", "[ensemble] seed"),
    ("hardy-check", "draws = 3", "draws = -1", "[ensemble] draws"),
    ("hardy-check", "length = 8", "length = 0", "[ensemble] length"),
    ("hardy-check", "a = 0.5", "a = 0.5%", "[hardy] a"),
    ("embed-sweep", "draws = 3", "draws = -1", "[ensemble] draws"),
    ("embed-sweep", "seed = 31", "seed = 31\ncontrol = maybe",
     "[ensemble] control"),
    ("embed-sweep", "theorem = sobolev", "theorem = hardy", "[run] theorem"),
    ("embed-sweep", "theorem = sobolev", "theorem = besov-function",
     "[run] theorem"),
    ("embed-sweep", "format = csv", "format = xml", "[output] format"),
    ("norm", "kind = witness", "kind = sphere", "[field] kind"),
    ("decompose", "kind = fj", "kind = haar", "[system] kind"),
    ("seqnorm", "lam.coeffs", "nope.coeffs", "[coeffs] path"),
    ("norm", "kind = witness", "kind = constant\nvalue = nan",
     "[field] value"),
    ("norm", "kind = witness", "kind = constant\nvalue = inf",
     "[field] value"),
    ("norm", "kind = witness", "kind = constant\nvalue = nan+1j",
     "[field] value"),
    ("norm", "kind = witness", "kind = band\nradius = nan", "[field] radius"),
    ("norm", "kind = witness", "kind = band\nradius = -1", "[field] radius"),
    # each refused before anything is allocated: 2^40 is far beyond the band
    # and beyond physical memory
    ("norm", "l = 8", "l = 1099511627776", "level-0 shell exceeds the grid"),
    ("hardy-check", "length = 8", "length = 1099511627776",
     "[ensemble] length = 1099511627776: "),
    ("embed-sweep", "k_list = 2", "k_list = 40", "[ensemble] k_list = 40: "),
    ("maximal-check", "count = 2", "count = 1000000000000",
     "[ensemble] count = 1000000000000: "),
])
def test_malformed_value_names_its_key(tmp_path, capsys, command, old, new,
                                       name):
    # the first occurrence of old is replaced: [source] before [target]
    base = _fuzz_configs(tmp_path)[command]
    assert old in base
    code, err = _run_quietly(capsys, tmp_path, command,
                             base.replace(old, new, 1))
    assert code == 2 and len(err) == 1 and err[0].startswith("error:"), err
    assert name in err[0], err


@pytest.mark.parametrize("kind", ["constant\nvalue = 2-1j",
                                  "band\nradius = inf"])
def test_constant_and_band_fields_run(tmp_path, capsys, kind):
    text = NORM_CFG.replace("kind = witness", f"kind = {kind}")
    assert _run_quietly(capsys, tmp_path, "norm", text) == (0, [])


def test_report_format_is_checked_before_the_command_runs(tmp_path, capsys,
                                                          monkeypatch):
    def refuse(cfg):
        raise AssertionError("the command ran")
    monkeypatch.setattr(herzlab.cli, "run_config", refuse)
    cfg = _write(tmp_path, "sweep.ini",
                 SWEEP_CFG.replace("format = csv", "format = xml"))
    _one_error_line(capsys, ["embed-sweep", "--config", cfg],
                    "[output] format", "'xml'")


@pytest.mark.parametrize("value, code", [
    ("True", 0), ("on", 0), ("YES", 0), ("1", 0),
    ("False", 2), ("off", 2), ("no", 2), ("0", 2),
])
def test_control_reads_every_boolean_spelling(tmp_path, capsys, value, code):
    # source s lowered by 1/4 breaks the balance: only a control sweep runs
    text = (SWEEP_CFG.replace("s = 1.75", "s = 1.5")
            .replace("draws = 20", f"draws = 3\ncontrol = {value}")
            .replace("k_list = 4,6", "k_list = 2"))
    out = tmp_path / "sweep.csv"
    assert main(["embed-sweep", "--config", _write(tmp_path, "c.ini", text),
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert "# ensemble.control=true" in out.read_text()
    else:
        assert "smoothness balance" in err
