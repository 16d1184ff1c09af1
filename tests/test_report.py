"""Run configuration, report assembly, byte stability, and the CLI."""

import json
import shutil
import subprocess

import pytest

from etaforge.cli import main
from etaforge.core import DEFAULT_TOL
from etaforge.report import (RunConfig, Report, emit_report, parse_config,
                             run)


@pytest.fixture(scope="module")
def full_report():
    return run(RunConfig(command="verify-all"))


# ------------------------------------------------------------ RunConfig


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.command == "verify-all"
    assert cfg.moduli == (2, 3, 4, 8)
    assert cfg.seed == 1914


@pytest.mark.parametrize("kw", [
    {"command": "frobnicate"},
    {"model": "s2"},
    {"N": 8},                      # circle runs need N >= 16
    {"format": "yaml"},
    {"moduli": (1, 2)},
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ValueError):
        RunConfig(**kw)


def test_tolerance_overrides_flow_through():
    cfg = RunConfig(eta_tol=1e-3)
    tol = cfg.tolerances()
    assert tol.eta_tol == 1e-3
    assert tol.rank_tol == DEFAULT_TOL.rank_tol


def test_parse_config_ini(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\ncommand = modn\nN = 20\nmoduli = 2,3\nseed = 7\n"
        "[tolerances]\neta_tol = 1e-4\n")
    cfg = parse_config(ini)
    assert (cfg.command, cfg.N, cfg.moduli, cfg.seed) == ("modn", 20, (2, 3), 7)
    assert cfg.eta_tol == 1e-4
    # explicit overrides beat the file; None overrides are ignored
    cfg2 = parse_config(ini, seed=99, command=None)
    assert (cfg2.command, cfg2.seed) == ("modn", 99)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "nope.ini")


# --------------------------------------------------------------- reports


def test_empty_report_is_valid():
    r = Report(meta={"version": "x", "seed": 0, "config": {}})
    assert r.all_pass
    doc = json.loads(r.to_json())
    assert doc["rows"] == []
    assert r.to_csv().splitlines() == \
        ["module,check,paper_ref,lhs,rhs,pass"]


def test_eta_run_is_byte_stable():
    a = run(RunConfig(command="eta"))
    b = run(RunConfig(command="eta"))
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_verify_all_passes_and_sorts(full_report):
    assert full_report.all_pass
    keys = [(r["module"], r["check"]) for r in full_report.rows]
    assert keys == sorted(keys)
    assert {r["module"] for r in full_report.rows} == \
        {"eta", "index", "modn", "fractional"}


def test_meta_block(full_report):
    meta = full_report.meta
    assert set(meta) == {"version", "seed", "config"}
    assert meta["config"]["command"] == "verify-all"


def test_emit_writes_both_mirrors(full_report, tmp_path):
    path = emit_report(full_report, tmp_path / "out")
    assert path.endswith("report.json")
    cpath = emit_report(full_report, tmp_path / "out", fmt="csv")
    assert cpath.endswith("report.csv")
    doc = json.loads(open(path).read())
    lines = open(cpath).read().splitlines()
    assert len(lines) == len(doc["rows"]) + 1
    for row, line in zip(doc["rows"], lines[1:]):
        assert line.startswith(f"{row['module']},{row['check']},")


# ------------------------------------------------------------------- CLI


def test_cli_pass_run(tmp_path, capsys):
    code = main(["eta", "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "6/6 checks passed" in out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "report.csv").exists()


def test_cli_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["eta", "--config", str(tmp_path / "absent.ini")])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_cli_bad_value_is_usage_error(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nN = 8\n")
    code = main(["eta", "--config", str(ini)])
    assert code == 2


def test_cli_reports_failing_rows(tmp_path, capsys):
    # an absurdly strict tolerance turns real checks into failures
    ini = tmp_path / "strict.ini"
    ini.write_text("[run]\nout = %s\n[tolerances]\neta_tol = 1e-30\n"
                   % (tmp_path / "out"))
    code = main(["eta", "--config", str(ini)])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAIL eta.ap_theta_0.1" in err


def test_console_script_wired():
    exe = shutil.which("etaforge")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-all" in proc.stdout
