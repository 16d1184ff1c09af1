"""Run configuration, report assembly, byte stability, and the CLI."""

import ast
import dataclasses
import json
import pathlib
import shutil
import subprocess

import pytest
from hypothesis import given, settings, strategies as st

import etaforge
from etaforge import indexing
from etaforge.cli import main
from etaforge.dyadic import DyadicRational
from etaforge.eta import EtaResult, eta_numeric
from etaforge.indexing import _fitting_truncation, dimension_functional
from etaforge.report import (RunConfig, Report, emit_report, parse_config,
                             run)
from etaforge.suites import index_formula_suite


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
    {"twist": (0.1, 0.2)},
    {"twist": (0.1, 0.2, 0.3, 0.4)},
    {"twist": (0.1, float("nan"), 0.0)},
    {"N": 15},                     # one below the circle bound
    {"moduli": (2, 3, 0)},
    {"twist": (0.0, 0.0, float("inf"))},
    {"ops_per_n": 0},
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ValueError):
        RunConfig(**kw)


def test_every_run_setting_is_read():
    # a RunConfig field that no run reads changes nothing while looking
    # like a setting; as_dict's self.<field> reads do not count
    src = pathlib.Path(etaforge.__file__).parent
    read = {node.attr for name in ("report.py", "cli.py")
            for node in ast.walk(ast.parse((src / name).read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert fields - read == set()


def test_parse_config_ini(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\ncommand = modn\nN = 20\nmoduli = 2,3\nseed = 7\n")
    cfg = parse_config(ini)
    assert (cfg.command, cfg.N, cfg.moduli, cfg.seed) == ("modn", 20, (2, 3), 7)
    # explicit overrides beat the file; None overrides are ignored
    cfg2 = parse_config(ini, seed=99, command=None)
    assert (cfg2.command, cfg2.seed) == ("modn", 99)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "nope.ini")


_GOOD_INI = """[run]
command = eta
model = s1
N = 20
moduli = 2,3
twist = 0.5,0.25,0.0
seed = 7
out = out
format = json
ops_per_n = 4
modn_N = 12
"""


def test_parse_config_reads_every_key(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(_GOOD_INI)
    cfg = parse_config(ini)
    assert cfg.as_dict() == {
        "command": "eta", "model": "s1", "N": 20, "moduli": [2, 3],
        "twist": [0.5, 0.25, 0.0], "seed": 7, "ops_per_n": 4, "modn_N": 12}
    assert cfg.out == "out" and cfg.format == "json"


@pytest.mark.parametrize("text", [
    "seed = 3\n",                                 # no section header
    "[run]\nseeed = 3\n",                          # a typo of a key
    "[runn]\nseed = 3\n",                          # a typo of a section
    "[DEFAULT]\nseed = 3\n[run]\n",
    "[run]\nseed = 3\nseed = 4\n",
    "[run]\n[run]\n",
    "[run]\nout = 100%\n",                         # bad interpolation
    "[run]\nseed\n",
    "[run]\ntwist = 0.1,0.2\n",
    "[run]\ntwist = 0.1,0.2,inf\n",
    "[run]\nmoduli = 2,,3\n",
    "[run]\nops_per_n = 0\n",
    "[tolerances]\nrank_tol = -1\n",
    "[tolerances]\neta_tol = nan\n",
])
def test_cli_bad_config_is_usage_error(tmp_path, capsys, text):
    # a configuration the run cannot use is refused before the run (2):
    # never a failed check (1) or a crash (3)
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    code = main(["eta", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, named", [
    ("[tolerances]\neta_tol = 1e-3\n", "unknown section [tolerances]"),
    ("[run]\nperturbations = 5\n", "unknown key 'perturbations' in [run]"),
])
def test_cli_names_a_retired_setting(tmp_path, capsys, text, named):
    # the tolerances are constants and perturbations is gone: a file that
    # still sets them is refused by name, never silently ignored
    ini = tmp_path / "old.ini"
    ini.write_text(text)
    code = main(["eta", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2
    assert named in capsys.readouterr().err


_INI_LINES = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                     min_size=1, max_size=20)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_parse_config_single_line_edits(tmp_path_factory, data):
    # one edited line either leaves a configuration RunConfig accepts or
    # raises ValueError: never KeyError, TypeError or a configparser error
    lines = _GOOD_INI.splitlines()
    j = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["delete", "repeat", "insert", "junk"]))
    if edit == "delete":
        lines[j:j + 1] = []
    elif edit == "repeat":
        lines.insert(j, lines[j])
    elif edit == "insert":
        lines.insert(j, data.draw(_INI_LINES))
    else:
        toks = lines[j].split() or [""]
        t = data.draw(st.integers(0, len(toks) - 1))
        toks[t] = data.draw(_INI_LINES)
        lines[j] = " ".join(toks)
    ini = tmp_path_factory.mktemp("fuzz") / "run.ini"
    ini.write_text("\n".join(lines) + "\n")
    try:
        assert isinstance(parse_config(ini), RunConfig)
    except ValueError:
        pass


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


def test_cli_reports_failing_rows(tmp_path, capsys, monkeypatch):
    # a numeric eta off its closed form turns real checks into failures
    def shifted(model):
        res = eta_numeric(model)
        return EtaResult(res.value + 1.0, res.method, res.error_estimate,
                         res.kernel_dim)

    monkeypatch.setattr("etaforge.report.eta_numeric", shifted)
    code = main(["eta", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAIL eta.ap_theta_0.1" in err


def test_cli_crash_is_not_a_failed_check(tmp_path, capsys, monkeypatch):
    # an exception inside the run is a crash (3), not a failed check (1)
    def crash(cfg):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("etaforge.cli.run", crash)
    code = main(["eta", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "ZeroDivisionError: boom" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_t3_eta_mismatch_is_a_failed_row(monkeypatch):
    # gilkey_eta computes; the report row owns the numeric-vs-closed band
    def shifted(model):
        res = eta_numeric(model)
        return EtaResult(res.value + 1.0, res.method, res.error_estimate,
                         res.kernel_dim)

    monkeypatch.setattr("etaforge.torus.eta_numeric", shifted)
    rows = run(RunConfig(command="eta", model="t3")).rows
    row, = [r for r in rows if r["check"] == "gilkey_twist"]
    assert row["pass"] is False


def test_fractional_rows_catch_a_half_shift_of_d(monkeypatch):
    # d(L) + 1/2 is no integer, so a match_* row must fail.  The
    # index.residual_* rows cannot see such a shift: a shift of every d
    # cancels in -d(L1) + d(L2)
    def shifted(L, **kw):
        return dimension_functional(L, **kw) + DyadicRational(1, 1)

    monkeypatch.setattr("etaforge.report.dimension_functional", shifted)
    rows = run(RunConfig(command="fractional")).rows
    failed = {r["check"] for r in rows if not r["pass"]}
    assert any(c.startswith("match_") for c in failed)


def test_index_raises_n_to_fit_a_high_degree_operator(tmp_path, capsys):
    # suite seed 4 draws a degree-10 conjugated_line, too big for N=16
    ops = dict(index_formula_suite(4))
    assert _fitting_truncation(ops["conjugated_line"], 16) == 21
    assert _fitting_truncation(ops["half_spin_row"], 16) == 16
    code = main(["index", "--seed", "4", "--out", str(tmp_path / "out")])
    assert code == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    row, = [r for r in rows if r["check"] == "residual_conjugated_line"]
    assert row["lhs"] == "0" and row["pass"]


def test_index_run_fits_each_parity_double_once(monkeypatch):
    # _fitting_truncation and index_formula_report share the double that
    # the operator keeps: one fit per face
    fitted = []
    face = indexing._double_face

    def counted(op, sign, sample):
        fitted.append(op.name)
        return face(op, sign, sample)

    monkeypatch.setattr(indexing, "_double_face", counted)
    assert all(r["pass"] for r in run(RunConfig(command="index")).rows)
    for name, _ in index_formula_suite():
        assert fitted.count(name) == 2


def test_modn_raises_n_to_fit_the_suite(tmp_path):
    # modn_N = 2 is below every suite element's degree bound; the run
    # raises N per element (as the index report does) and reads the same
    rows = {}
    for N in (2, 12):
        ini = tmp_path / f"modn{N}.ini"
        ini.write_text(f"[run]\nmodn_N = {N}\nmoduli = 2\nops_per_n = 1\n")
        out = tmp_path / f"out{N}"
        assert main(["modn", "--config", str(ini), "--out", str(out)]) == 0
        rows[N] = json.loads((out / "report.json").read_text())["rows"]
    assert rows[2] == rows[12]


def test_console_script_wired():
    exe = shutil.which("etaforge")
    if exe is None:
        pytest.skip("entry point not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-all" in proc.stdout
