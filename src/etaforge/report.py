"""Verification runs and their reports.

A run executes one family of checks (or all of them) against seeded
example suites and produces a Report: a meta block and a flat list of
rows {module, check, paper_ref, lhs, rhs, pass}.  Emission is byte-stable
for a fixed config and seed.
"""
from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

from . import __version__
from .core import winding_number
from .eta import (SpectrumModel, eta_closed_form, eta_numeric,
                  mode_zero_crossing_family)
from .indexing import (_fitting_truncation, analytic_index,
                       dimension_functional, index_formula_report)
from .kzn import (difference_construction_zn, direct_image_s1,
                  fractional_eta_topological, gamma_trivialization,
                  mod_n_analytic_index, normal_form)
from .subspaces import hardy_subspace, relative_index
from .torus import TwistCharacter, gilkey_eta
from . import suites

__all__ = [
    "RunConfig",
    "Report",
    "parse_config",
    "run",
    "emit_report",
]

COMMANDS = ("eta", "index", "modn", "fractional", "verify-all")
_ETA_BAND = 1e-3  # an s1 eta row passes when |numeric - closed| <= _ETA_BAND


@dataclass(frozen=True)
class RunConfig:
    command: str = "verify-all"
    model: str = "s1"
    N: int = 16
    moduli: tuple = (2, 3, 4, 8)
    twist: tuple = (0.0, 0.0, 0.0)
    seed: int = 1914
    out: str = "etaforge_out"
    format: str = "json"
    ops_per_n: int = 4
    modn_N: int = 12

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.model not in ("s1", "t3"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "s1" and self.N < 16:
            raise ValueError("circle runs need N >= 16")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if any(n < 2 for n in self.moduli):
            raise ValueError("moduli must be >= 2")
        if len(self.twist) != 3 or not all(map(math.isfinite, self.twist)):
            raise ValueError("twist needs three finite components")
        if self.ops_per_n < 1:
            raise ValueError("ops_per_n must be >= 1")

    def as_dict(self):
        return {
            "command": self.command, "model": self.model, "N": self.N,
            "moduli": list(self.moduli), "twist": list(self.twist),
            "seed": self.seed, "ops_per_n": self.ops_per_n,
            "modn_N": self.modn_N,
        }


def _numbers(kind):
    return lambda text: tuple(kind(v) for v in text.split(","))


# the INI sections and the RunConfig field each key sets, with its parser
_SECTIONS = {
    "run": {"command": str, "model": str, "out": str, "format": str,
            "N": int, "seed": int, "ops_per_n": int, "modn_N": int,
            "moduli": _numbers(int), "twist": _numbers(float)},
}


def parse_config(path, **overrides):
    """Read an INI run configuration (one [run] section).

    Everything wrong with the document raises ValueError: text that is not
    INI, a section or key outside _SECTIONS, a value that does not parse,
    and a configuration RunConfig refuses.  A missing file raises OSError.
    """
    cp = configparser.ConfigParser()
    with open(path) as fh:
        try:
            cp.read_file(fh)
            # dict() reads (and interpolates) every value: errors show here
            sections = {name: dict(cp[name]) for name in cp.sections()}
        except configparser.Error as exc:
            raise ValueError(str(exc)) from exc
    if cp.defaults():
        raise ValueError("unknown section [DEFAULT]")
    kw = {}
    for name, values in sections.items():
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]")
        fields = {cp.optionxform(f): f for f in _SECTIONS[name]}
        for key, value in values.items():
            if key not in fields:
                raise ValueError(f"unknown key {key!r} in [{name}]")
            kw[fields[key]] = _SECTIONS[name][fields[key]](value)
    kw.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**kw)


@dataclass
class Report:
    meta: dict
    rows: list = field(default_factory=list)

    @property
    def all_pass(self):
        return all(r["pass"] for r in self.rows)

    def to_json(self):
        return json.dumps({"meta": self.meta, "rows": self.rows}, indent=2) \
            + "\n"

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["module", "check", "paper_ref", "lhs", "rhs", "pass"])
        for r in self.rows:
            w.writerow([r["module"], r["check"], r["paper_ref"],
                        r["lhs"], r["rhs"], r["pass"]])
        return buf.getvalue()


def _row(module, check, paper_ref, lhs, rhs, ok):
    return {"module": module, "check": check, "paper_ref": paper_ref,
            "lhs": lhs, "rhs": rhs, "pass": bool(ok)}


# ---------------------------------------------------------------------------
# check families
# ---------------------------------------------------------------------------

def _eta_rows(cfg):
    rows = []
    if cfg.model == "t3":
        g = gilkey_eta(TwistCharacter(cfg.twist))
        ok = abs(g.numeric.value - g.closed.value) <= max(
            1e-2, 3 * g.numeric.error_estimate)
        rows.append(_row("eta", "gilkey_twist", "eta.lattice",
                         g.numeric.value, g.closed.value, ok))
        return rows
    for theta in (0.1, 0.25, 0.5, 0.9):
        model = SpectrumModel.arithmetic_progression(theta)
        num = eta_numeric(model)
        closed = eta_closed_form(model)
        ok = abs(num.value - closed.value) <= _ETA_BAND
        rows.append(_row("eta", f"ap_theta_{theta}", "eta.progression",
                         num.value, closed.value, ok))
    family = mode_zero_crossing_family()
    etas = []
    for c, model in family:
        num = eta_numeric(model)
        etas.append((c, float(round(num.value))
                     if abs(num.value - round(num.value)) < 1e-6
                     else num.value))
    below = [v for c, v in etas if c < 0.5]
    above = [v for c, v in etas if c > 0.5]
    jump = below[-1] - above[0]
    rows.append(_row("eta", "crossing_jump", "eta.consistency",
                     jump, 2.0, jump == 2.0))
    rows.append(_row("eta", "crossing_plateaus", "eta.consistency",
                     f"{len(set(below))},{len(set(above))}", "1,1",
                     len(set(below)) == 1 and len(set(above)) == 1))
    return rows


def _index_rows(cfg):
    rows = []
    for k in range(-3, 4):
        ind = analytic_index(suites.toeplitz_operator(k), N=max(cfg.N, 32))
        rows.append(_row("index", f"toeplitz_k{k}", "index.compression",
                         ind, -k, ind == -k))
    hardy = hardy_subspace()
    for k in range(0, 6):
        got = relative_index(hardy, hardy_subspace(k), N=cfg.N)
        rows.append(_row("index", f"relative_shift{k}", "index.relative",
                         got, k, got == k))
    for example_id, op in suites.index_formula_suite(cfg.seed):
        rep = index_formula_report(op, example_id,
                                   N=_fitting_truncation(op, cfg.N))
        rows.append(_row("index", f"residual_{example_id}", "index.defect",
                         rep["residual"], "0", rep["residual"] == "0"))
    return rows


def _modn_rows(cfg):
    rows = []
    for n in cfg.moduli:
        winds = sorted({winding_number(g)
                        for g in gamma_trivialization(n)})
        rows.append(_row("modn", f"gamma_windings_n{n}", "kzn.moore",
                         str(winds), str([n]), winds == [n]))
        suite = suites.modn_element_suite(cfg.seed, n, count=cfg.ops_per_n)
        indices = [mod_n_analytic_index(el, N=cfg.modn_N)
                   for _, el in suite]
        for (example_id, el), ind in zip(suite, indices):
            rhs = direct_image_s1(difference_construction_zn(el))
            rows.append(_row("modn", f"theorem_{example_id}", "kzn.theorem",
                             ind, rhs, ind == rhs))
        # before is the theorem row's lhs of suite[0]; only after is new
        before = indices[0]
        after = mod_n_analytic_index(normal_form(suite[0][1]),
                                     N=cfg.modn_N)
        rows.append(_row("modn", f"normal_form_n{n}", "kzn.normal-form",
                         after, before, after == before))
    return rows


def _fractional_rows(cfg):
    # match_*: over the circle the topological side is 0 (the faces of
    # sigma (+) alpha* sigma agree), so the row tests that d(L) is an
    # integer, as the paper asserts for even subspaces over the circle
    rows = []
    for name, L in suites.even_subspace_suite(cfg.seed):
        d = dimension_functional(L, N=cfg.N)
        top = fractional_eta_topological(L)
        rows.append(_row("fractional", f"match_{name}", "kzn.fractional",
                         str(top), str(d.fractional_part()),
                         top == d.fractional_part()))
    return rows


_FAMILIES = {
    "eta": (_eta_rows,),
    "index": (_index_rows,),
    "modn": (_modn_rows,),
    "fractional": (_fractional_rows,),
    "verify-all": (_eta_rows, _index_rows, _modn_rows, _fractional_rows),
}


def run(cfg):
    """Execute the configured checks and assemble the sorted report."""
    rows = [r for b in _FAMILIES[cfg.command] for r in b(cfg)]
    rows.sort(key=lambda r: (r["module"], r["check"]))
    meta = {"version": __version__, "seed": cfg.seed,
            "config": cfg.as_dict()}
    return Report(meta=meta, rows=rows)


def emit_report(report, out_dir, fmt="json"):
    """Write report.json and its CSV mirror; returns the primary path."""
    os.makedirs(out_dir, exist_ok=True)
    jpath = os.path.join(out_dir, "report.json")
    cpath = os.path.join(out_dir, "report.csv")
    with open(jpath, "w") as fh:
        fh.write(report.to_json())
    with open(cpath, "w") as fh:
        fh.write(report.to_csv())
    return jpath if fmt == "json" else cpath
