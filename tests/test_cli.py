import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import herzlab
from herzlab import CoeffSeq, save_coeffs
from herzlab.cli import ConfigError, ExperimentConfig, main, render_report

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
    line = _one_error_line(capsys, ["seqnorm", "--config", cfg], "L16")
    assert "dictionary update" not in line


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
