"""The benchmark's own tests: python3 -m pytest perfbench/tests -q"""
import sys

import numpy
import pytest

import etaforge
import run as bench
import tracing
import worker
import workloads
from etaforge import subspaces


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def at(time, action, *args):
        clock.now = time
        return action(*args)

    # a[0,10] > { b[1,4] > a[2,3] ; hot c[5,6] }
    a = at(0, t.enter, "a")
    b = at(1, t.enter, "b")
    inner = at(2, t.enter, "a")
    at(3, t.exit, inner)
    at(4, t.exit, b)
    c = at(5, t.enter, "c", True)
    at(6, t.exit, c)
    at(10, t.exit, a)

    assert t.self_s["a"] == pytest.approx((10 - 3 - 1) + (3 - 2))
    assert t.self_s["b"] == pytest.approx(3 - 1)
    assert t.self_s["c"] == pytest.approx(1)
    assert t.total_s["a"] == pytest.approx(10)  # recursion counted once
    assert t.calls["a"] == 2
    names = {s[3]: s for s in t.spans if s[3] != "a"}
    assert set(names) == {"b"}  # the hot leaf is aggregated, not a span
    outer = [s for s in t.spans if s[3] == "a" and s[1] is None][0]
    assert names["b"][1] == outer[0]


def test_tail_percentile_has_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    pct, value = bench.tail_percentile(values)
    assert (pct, value) == (90.0, 90.0)
    assert sum(v > value for v in values) == 10
    # the next order statistic up has only nine beyond: 90 is the highest
    assert sum(v > 91.0 for v in values) == 9
    pct, value = bench.tail_percentile([3.0, 1.0, 2.0])
    assert (pct, value) == (100.0, 3.0)


def _bindings():
    found = {}
    for name, mod in sys.modules.items():
        if name == "etaforge" or name.startswith("etaforge."):
            for key, val in vars(mod).items():
                found[(name, key)] = val
    for key in dir(numpy.linalg):
        found[("numpy.linalg", key)] = getattr(numpy.linalg, key)
    for cls in (etaforge.PdoSubspace, etaforge.SpectrumModel):
        for key, val in vars(cls).items():
            found[(cls.__name__, key)] = val
    return found


def _cheap_round(workload, seed, r):
    return [workloads._hardy_check(2), workloads._toeplitz_check(1),
            workloads._ap_check(0.25)]


def test_traced_run_restores_wrappers_and_untraced_run_calls_none(
        monkeypatch, capsys):
    monkeypatch.setattr(workloads, "build_round", _cheap_round)
    before = _bindings()
    tracer = tracing.Tracer()
    traced = worker.run("eta-spectra", 1, 2.0, tracer)
    assert tracer.calls["indexing.analytic_index"] > 0
    assert tracer.calls["eta.eta_numeric"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    snapshot = dict(tracer.calls)
    seen = []

    def probe():
        seen.append(hasattr(subspaces.relative_index, "__perfbench_tracer__")
                    or hasattr(numpy.linalg.svd, "__perfbench_tracer__"))
        return True, ""

    monkeypatch.setattr(workloads, "build_round", lambda *a: [
        workloads.Check("probe", probe)] + _cheap_round(*a))
    plain = worker.run("eta-spectra", 1, 2.0)
    assert seen and not any(seen)
    assert dict(tracer.calls) == snapshot
    assert set(traced["status"]) == set(plain["status"]) == {"ok"}


def test_typed_error_fails_the_check_other_errors_crash():
    def unstable():
        raise subspaces.UnstableIndexError("did not stabilize")

    def broken():
        raise KeyError("bug")

    assert worker.run_check(workloads.Check("x", unstable))[0] == "error"
    assert worker.run_check(workloads.Check("x", broken))[0] == "crash"
    assert worker.run_check(
        workloads.Check("x", lambda: (False, "")))[0] == "mismatch"


def test_rounds_are_a_function_of_seed_and_round():
    def details(seed):
        return [c.run()[1] for c in workloads.build_round("eta-spectra",
                                                          seed, 3)[:4]]

    assert details(5) == details(5)
    assert details(5) != details(6)


def test_reference_latencies_follow_the_local_probe():
    # the machine halves its speed after check 9: probes double, and the
    # rescaled times of later checks halve
    probes = [worker.PROBE_REF_S] * 10 + [2 * worker.PROBE_REF_S] * 10
    out = worker.reference_latencies([1.0] * 19, probes)
    assert out[0] == pytest.approx(1.0)
    assert out[-1] == pytest.approx(0.5)


def test_defect_check_reproduces_n16_refusal_and_checks_at_fitting_n():
    from etaforge import suites
    ops = dict(suites.index_formula_suite(workloads.round_seed(594585364, 1)))
    high = workloads._defect_check("conjugated_line", ops["conjugated_line"])
    assert "raised ValueError" in high.note and "at N=23" in high.note
    assert high.run()[0]
    assert workloads._defect_check("half_spin_row",
                                   ops["half_spin_row"]).note == ""
