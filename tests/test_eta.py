"""Eta of model spectra, checked against an independent zeta oracle,
plus the heat extrapolation and the dimension functional."""

import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etaforge.dyadic import DyadicRational
from etaforge.eta import (EtaConvergenceError, EtaResult, SpectrumModel,
                          UnsupportedSpectrumError, dimension_functional,
                          dump_spectrum_csv, eta_closed_form, eta_numeric,
                          eta_result_json, mode_zero_crossing_family)
from etaforge.subspaces import (ParityError, hardy_subspace, orthocomplement,
                                puncture, trivial_subspace)
from etaforge.torus import TwistCharacter, gilkey_eta, t3_spectrum


def hurwitz_eta_at_zero(theta):
    # eta(s) of {n + theta} is zeta(s, theta) - zeta(s, 1 - theta), and
    # the Hurwitz zeta continues to zeta(0, a) = 1/2 - a
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return float(mp.zeta(0, theta) - mp.zeta(0, 1.0 - theta))


# ---------------------------------------------------------------- models


def test_explicit_list_sorted_by_magnitude():
    m = SpectrumModel.explicit_list([(3.0, 1), (-1.0, 2), (2.0, 1), (1.0, 1)])
    assert m.eigenvalues() == ((-1.0, 2), (1.0, 1), (2.0, 1), (3.0, 1))


def test_zero_eigenvalue_rejected():
    with pytest.raises(ValueError):
        SpectrumModel.explicit_list([(0.0, 1)])


def test_from_eigenvalues_splits_kernel():
    m = SpectrumModel.from_eigenvalues([2.0, -2.0, 1e-14, 3e-13])
    assert m.kernel_dim == 2
    assert m.eigenvalues() == ((-2.0, 1), (2.0, 1))


def test_lattice_cutoff_floor():
    with pytest.raises(ValueError):
        SpectrumModel.lattice3_quadratic(cutoff=5)


def test_lattice_multiplicity_split():
    m = SpectrumModel.lattice3_quadratic()
    assert m.kernel_dim == 3
    # |k|^2 = 1 occurs for 6 lattice vectors: weight 6 upstairs, 12 down
    ones = [(l, mu) for l, mu in m.eigenvalues() if abs(l) == 1.0]
    up = sum(mu for l, mu in ones if l > 0)
    down = sum(mu for l, mu in ones if l < 0)
    assert (up, down) == (6, 12)


@pytest.mark.parametrize("build", [
    lambda: SpectrumModel.explicit_list([(np.inf, 1), (1.0, 1)]),
    lambda: SpectrumModel.explicit_list([(-np.inf, 1)]),
    lambda: SpectrumModel.explicit_list([(np.nan, 1), (1.0, 1)]),
    lambda: SpectrumModel.explicit_list([(1.0, 1.7)]),
    lambda: SpectrumModel.explicit_list([(1.0, 2.0)]),
    lambda: SpectrumModel.explicit_list([(1.0, -3)]),
    lambda: SpectrumModel.explicit_list([(1.0, 0)]),
    lambda: SpectrumModel.explicit_list([(1.0, True)]),
    lambda: SpectrumModel.explicit_list([(1.0, 1, 1)]),
    lambda: SpectrumModel.explicit_list([(1.0, 1)], kernel_dim=-1),
    lambda: SpectrumModel.explicit_list([(1.0, 1)], kernel_dim=1.5),
    lambda: SpectrumModel.explicit_list([], kernel_dim=2.0),
    lambda: SpectrumModel.from_eigenvalues([np.inf, 1.0]),
    lambda: SpectrumModel.from_eigenvalues([np.nan, 1.0]),
    lambda: SpectrumModel.arithmetic_progression(0.3, mult=1.7),
    lambda: SpectrumModel.arithmetic_progression(0.3, mult=-3),
    lambda: SpectrumModel.arithmetic_progression(np.nan),
    lambda: SpectrumModel.lattice3_quadratic((np.inf, 0.0, 0.0)),
    lambda: SpectrumModel.lattice3_quadratic((np.nan, 0.0, 0.0)),
    lambda: SpectrumModel("Bogus", [1.0], [1], 0, {}),
    lambda: SpectrumModel("ExplicitList", [1.0, 2.0], [1], 0, {}),
    lambda: SpectrumModel("ExplicitList", [[1.0]], [[1]], 0, {}),
    lambda: SpectrumModel("ExplicitList", [1.0, -2.0],
                          np.array([2 ** 63, 1], dtype=np.uint64), 0, {}),
    lambda: SpectrumModel.explicit_list([(1.0, 2 ** 63)]),
    lambda: SpectrumModel.arithmetic_progression(0.3, cutoff=2.5),
    lambda: SpectrumModel.arithmetic_progression(0.3, cutoff=3.0),
    lambda: SpectrumModel.arithmetic_progression(0.3, cutoff=True),
    lambda: SpectrumModel.arithmetic_progression(0.3, cutoff=-3),
], ids=["inf", "-inf", "nan", "mult-1.7", "mult-float", "mult-neg",
        "mult-0", "mult-bool", "triple", "kernel-neg", "kernel-1.5",
        "kernel-float", "eig-inf", "eig-nan", "ap-mult-1.7", "ap-mult-neg",
        "ap-theta-nan", "lattice-inf", "lattice-nan", "kind",
        "short-mult", "2d", "mult-2**63", "mult-2**63-pairs",
        "ap-cutoff-2.5", "ap-cutoff-float", "ap-cutoff-bool",
        "ap-cutoff-neg"])
def test_spectrum_input_rejected_at_construction(build):
    # each of these used to build a model: inf hung eta_numeric (t0 = 0
    # never doubles), nan failed late with a misleading message, 1.7 was
    # truncated to 1 and -3 gave eta = -3; a uint64 2**63 was stored as
    # -2**63 (eta -9.2e18); cutoff 2.5 built the levels of theta = 0.8
    # under params theta = 0.3 (eta -0.554 against the closed form 0.4),
    # True counted as 1 and -3 gave an empty model with eta 0.0
    with pytest.raises(ValueError):
        build()


def test_integer_cutoffs_and_multiplicities_at_their_limits_are_kept():
    for cutoff in (np.int64(3), np.int8(3)):
        m = SpectrumModel.arithmetic_progression(0.3, cutoff=cutoff)
        _assert_same_model(m, *_tuple_ap(0.3, 1, 3))
    assert SpectrumModel.arithmetic_progression(0.3, cutoff=0).lam.size == 1
    big = np.iinfo(np.int64).max
    m = SpectrumModel("ExplicitList", [1.0, -2.0],
                      np.array([big, 1], dtype=np.uint64), 0, {})
    assert m.mult.dtype == np.int64 and m.mult.tolist() == [big, 1]


def test_ap_integer_theta_has_kernel():
    m = SpectrumModel.arithmetic_progression(0.0, mult=2)
    assert m.kernel_dim == 2
    assert all(l != 0.0 for l, _ in m.eigenvalues())


# ----------------------------------------------------------- closed form


@pytest.mark.parametrize("theta,expected", [
    (0.1, 0.8),
    (0.25, 0.5),
    (0.5, 0.0),
    (0.9, -0.8),
])
def test_ap_closed_form_frozen(theta, expected):
    r = eta_closed_form(SpectrumModel.arithmetic_progression(theta))
    assert r.method == "ClosedForm"
    assert r.error_estimate == 0.0
    assert r.value == pytest.approx(expected, abs=1e-12)
    assert r.value == pytest.approx(hurwitz_eta_at_zero(theta), abs=1e-12)


@pytest.mark.parametrize("mult", [1, 3, 7])
@pytest.mark.parametrize("theta", [1e-9, 1e-3, 1 - 1e-3, 1 - 1e-9, 2.3,
                                   -0.25])
def test_ap_closed_form_matches_hurwitz_at_the_edges(theta, mult):
    # theta near 0 and near 1, past 1 and below 0, with multiplicity: each
    # of mult copies of {n + theta} adds the Hurwitz value at theta mod 1
    r = eta_closed_form(SpectrumModel.arithmetic_progression(theta,
                                                             mult=mult))
    assert r.value == pytest.approx(mult * hurwitz_eta_at_zero(theta % 1.0),
                                    abs=1e-12)


def test_ap_closed_form_integer_theta_counts_kernel():
    r = eta_closed_form(SpectrumModel.arithmetic_progression(3.0, mult=2))
    assert r.value == 2.0
    assert r.kernel_dim == 2


def test_ap_closed_form_reduces_theta_mod_one():
    a = eta_closed_form(SpectrumModel.arithmetic_progression(0.3))
    b = eta_closed_form(SpectrumModel.arithmetic_progression(7.3))
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_lattice_closed_form_untwisted():
    r = eta_closed_form(SpectrumModel.lattice3_quadratic())
    assert r.value == 4.0
    assert r.kernel_dim == 3


def test_lattice_closed_form_twisted():
    r = eta_closed_form(SpectrumModel.lattice3_quadratic((0.5, 0.5, 0.5)))
    assert r.value == 0.0
    assert r.kernel_dim == 0


def test_no_closed_form_for_explicit_lists():
    with pytest.raises(UnsupportedSpectrumError):
        eta_closed_form(SpectrumModel.explicit_list([(1.0, 1)]))


@given(st.floats(min_value=0.01, max_value=0.99))
def test_ap_closed_form_is_one_minus_two_theta(theta):
    r = eta_closed_form(SpectrumModel.arithmetic_progression(theta))
    assert r.value == pytest.approx(1.0 - 2.0 * theta, abs=1e-12)


# -------------------------------------------------------------- numerics


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.9])
def test_ap_numeric_matches_closed_form(theta):
    m = SpectrumModel.arithmetic_progression(theta)
    num = eta_numeric(m)
    assert num.method == "HeatExtrapolated"
    assert num.error_estimate > 0.0
    assert abs(num.value - eta_closed_form(m).value) < 1e-6


def test_lattice_numeric_matches_closed_form():
    for theta in [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)]:
        m = SpectrumModel.lattice3_quadratic(theta)
        num, exact = eta_numeric(m), eta_closed_form(m)
        assert abs(num.value - exact.value) < 1e-2
        assert num.kernel_dim == exact.kernel_dim


def test_single_magnitude_spectrum():
    # one-magnitude spectra used to degenerate the t-grid; eta is just
    # the signed multiplicity count
    r = eta_numeric(SpectrumModel.explicit_list([(1.0, 3)]))
    assert abs(r.value - 3.0) < 1e-3


def test_narrow_two_level_spectrum():
    r = eta_numeric(SpectrumModel.explicit_list([(1.0, 1), (-2.0, 1)]))
    assert abs(r.value) < 1e-2


def test_kernel_only_spectrum():
    r = eta_numeric(SpectrumModel.explicit_list([], kernel_dim=2))
    assert r.value == 2.0
    assert r.kernel_dim == 2


@given(st.lists(st.tuples(st.floats(min_value=0.5, max_value=50.0),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_symmetric_spectrum_eta_is_kernel(pos, kernel):
    # sign-symmetric spectra cancel exactly, leaving the kernel term
    pairs = [(l, m) for l, m in pos] + [(-l, m) for l, m in pos]
    r = eta_numeric(SpectrumModel.explicit_list(pairs, kernel))
    assert abs(r.value - kernel) < 1e-3


def test_convergence_guard_fires_on_wrong_expansion():
    # data that does not follow the claimed small-t power law leaves the
    # extrapolants scattered, and the plateau test must refuse
    m = SpectrumModel("Lattice3Quadratic", [0.9, -1.1, 1.3, -1.7],
                      [80, 80, 80, 80], 0,
                      {"theta": (0.0, 0.0, 0.0), "cutoff": 10})
    with pytest.raises(EtaConvergenceError):
        eta_numeric(m)


# -------------------------------------------------------- crossing family


def test_crossing_family_values_and_jump():
    fam = mode_zero_crossing_family()
    etas = []
    for c, model in fam:
        r = eta_numeric(model)
        v = r.value
        if abs(v - round(v)) < 1e-6:
            v = float(round(v))
        etas.append((c, v))
    for c, v in etas:
        assert v == (1.0 if c < 0.5 else -1.0)
    jumps = [abs(b - a) for (_, a), (_, b) in zip(etas, etas[1:])]
    assert max(jumps) == 2.0
    assert sum(j > 0 for j in jumps) == 1


def test_crossing_family_on_the_wall():
    (c, model), = mode_zero_crossing_family(c_values=[0.5])
    assert model.kernel_dim == 1
    r = eta_numeric(model)
    # symmetric bulk cancels; the zero mode contributes through the kernel
    assert abs(r.value - 1.0) < 1e-6


# ------------------------------------------------------------- EtaResult


def test_result_method_gates():
    with pytest.raises(ValueError):
        EtaResult(1.0, "Guess", 0.0, 0)
    with pytest.raises(ValueError):
        EtaResult(1.0, "ClosedForm", 1e-3, 0)
    with pytest.raises(ValueError):
        EtaResult(1.0, "HeatExtrapolated", 0.0, 0)


def test_result_json_key_order():
    r = EtaResult(0.5, "HeatExtrapolated", 1e-9, 1)
    s = eta_result_json(r)
    assert list(json.loads(s)) == ["value", "method", "error_estimate",
                                   "kernel_dim"]
    assert json.loads(s)["kernel_dim"] == 1


def test_spectrum_csv_roundtrip(tmp_path):
    m = SpectrumModel.explicit_list([(1.5, 2), (-0.5, 1)], kernel_dim=1)
    path = dump_spectrum_csv(m, tmp_path / "spec.csv")
    lines = open(path).read().splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    assert lines[1] == "0.0,1"
    got = [(float(a), int(b)) for a, b in
           (ln.split(",") for ln in lines[2:])]
    assert tuple(got) == m.eigenvalues()


# -------------------------------------------------- dimension functional


def test_dimension_functional_punctured_plane():
    L = puncture(trivial_subspace(2, 1))
    d = dimension_functional(L)
    assert d == DyadicRational(-1, 0)


def test_dimension_functional_complement_axiom():
    L = puncture(trivial_subspace(2, 1))
    d, dperp = dimension_functional(L), dimension_functional(orthocomplement(L))
    assert d + dperp == DyadicRational.from_integer(0)
    assert dperp == DyadicRational(1, 0)


def test_dimension_functional_needs_even_parity():
    with pytest.raises(ParityError):
        dimension_functional(hardy_subspace())


def test_fractional_part_of_dyadic():
    assert str(DyadicRational(-3, 1).fractional_part()) == "1/2"
    assert str(DyadicRational(4, 1).fractional_part()) == "0"


# ------------------------------------------ array path vs the tuple path
#
# Spectra used to be tuples of Python (float, int) pairs sorted with a key
# function, and eta_numeric rebuilt arrays from them.  That code is kept
# here as the reference: the array path must reproduce it bit for bit.


def _tuple_sorted(pairs):
    return tuple(sorted(((float(l), int(m)) for l, m in pairs),
                        key=lambda p: (abs(p[0]), p[0])))


def _tuple_lattice3(theta, R):
    b = int(np.ceil(R + max(abs(t) for t in theta) + 1))
    g = np.arange(-b, b + 1)
    K = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    v = K + np.asarray(theta)
    q = (v * v).sum(axis=1)
    inside = q <= R * R
    return K[inside], q[inside]


def _tuple_ap(theta, mult=1, cutoff=2000):
    pairs, kernel = [], 0
    for n in range(-cutoff, cutoff + 1):
        lam = n + float(theta)
        if lam == 0.0:
            kernel += mult
        else:
            pairs.append((lam, mult))
    return _tuple_sorted(pairs), kernel


def _tuple_lattice(theta, cutoff):
    _, q = _tuple_lattice3(theta, cutoff)
    pairs = ([(qq, 1) for qq in q if qq > 0.0]
             + [(-qq, 2) for qq in q if qq > 0.0])
    return _tuple_sorted(pairs), 3 * int((q == 0.0).sum())


def _tuple_from_eigenvalues(values):
    values = np.asarray(values, dtype=float)
    scale = max(float(np.abs(values).max()), 1.0) if values.size else 1.0
    zero = np.abs(values) <= 1e-10 * scale
    return _tuple_sorted((float(v), 1) for v in values[~zero]), int(zero.sum())


def _tuple_crossing(cs, n_max=40):
    out = []
    for c in cs:
        pairs = [(float(np.sign(n) * (n * n + 1)), 1)
                 for n in range(-n_max, n_max + 1) if n != 0]
        lam0 = 1.0 - 2.0 * float(c)
        kernel = 0
        if lam0 == 0.0:
            kernel = 1
        else:
            pairs.append((lam0, 1))
        out.append((_tuple_sorted(pairs), kernel))
    return out


def _tuple_t3_points(theta, R):
    K, q = _tuple_lattice3(theta, R)
    zero = q == 0.0
    K, q = K[~zero], q[~zero]
    order = np.lexsort((K[:, 2], K[:, 1], K[:, 0], q))
    return tuple(zip(map(tuple, K[order].tolist()), q[order].tolist()))


_TUPLE_LADDER = {"ArithmeticProgression": (1.0, 2.0),
                 "Lattice3Quadratic": (-0.75, 1.0),
                 "ExplicitList": (1.0, 2.0)}


def _tuple_eta_numeric(pairs, kernel_dim, kind):
    """(value, error) as float.hex, or the refusal message."""
    lam = np.array([p[0] for p in pairs])
    mult = np.array([p[1] for p in pairs], dtype=float)
    amax, amin = np.abs(lam).max(), np.abs(lam).min()
    tmax = 1.0 / amin ** 2
    t0 = min(1.0 / amax ** 2, tmax / 2.0 ** 7)
    ts = [t0]
    while ts[-1] * 2.0 <= tmax:
        ts.append(ts[-1] * 2.0)
    if len(ts) < 8:
        ts = list(np.geomspace(t0, tmax, 8))
    hs = [float(np.sum(np.sign(lam) * mult * np.exp(-t * lam ** 2)))
          for t in ts]
    ladder = _TUPLE_LADDER[kind]
    ext = []
    for j in range(len(ts) - 2):
        V = np.array([[t ** p for p in (0.0,) + ladder]
                      for t in ts[j:j + 3]])
        ext.append(float(np.linalg.solve(V, np.asarray(hs[j:j + 3]))[0]))
    spreads = [abs(ext[j + 1] - ext[j]) for j in range(len(ext) - 1)]
    j = int(np.argmin(spreads))
    value = ext[j + 1]
    if spreads[j] > 0.1 * (1.0 + abs(value)):
        return f"eta not converged: plateau spread {spreads[j]:.2e}"
    return (value + kernel_dim).hex(), max(spreads[j], 1e-15).hex()


def _assert_same_model(model, pairs, kernel_dim):
    got = model.eigenvalues()
    assert got == pairs
    # the pairs come from tolist(): Python numbers throughout, or none
    assert all(type(l) is float and type(m) is int for l, m in got[:1])
    # == on floats is not bit equality; compare the bits of every level
    ref = np.array([l for l, _ in pairs], dtype=np.float64)
    assert np.array_equal(model.lam.view(np.int64), ref.view(np.int64))
    assert np.array_equal(model.mult, [m for _, m in pairs])
    assert (model.lam.dtype, model.mult.dtype) == (np.float64, np.int64)
    assert model.kernel_dim == kernel_dim
    try:
        r = eta_numeric(model)
        got = r.value.hex(), r.error_estimate.hex()
    except EtaConvergenceError as exc:
        got = str(exc)
    assert got == _tuple_eta_numeric(pairs, kernel_dim, model.kind)


_TWISTS = [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0 / 3.0, 0.0, 0.7),
           (0.1, 0.9, 0.25)]


@pytest.mark.parametrize("theta, mult, cutoff", [
    (1e-3, 1, 2000), (1e-9, 1, 2000), (0.999, 1, 2000),
    (1.0 - 1e-12, 1, 2000), (0.0, 2, 2000), (3.0, 2, 2000),
    (-2.0, 1, 2000), (7.3, 3, 2000), (0.25, 1, 3)])
def test_ap_model_is_the_tuple_model(theta, mult, cutoff):
    _assert_same_model(
        SpectrumModel.arithmetic_progression(theta, mult=mult, cutoff=cutoff),
        *_tuple_ap(theta, mult, cutoff))


@pytest.mark.parametrize("R", [8, 12, 40])
@pytest.mark.parametrize("theta", _TWISTS)
def test_lattice_model_is_the_tuple_model(theta, R):
    _assert_same_model(SpectrumModel.lattice3_quadratic(theta, cutoff=R),
                       *_tuple_lattice(theta, R))


def test_the_lattice_eta_path_holds_each_level_array_once():
    # R=40 has 536k levels, 4.1 MiB per array; the model keeps lam and
    # mult (8.2 MiB).  Keeping the point array, an int64 repeat and a
    # second mult copy through the build reads 34.8 MiB, and a fresh
    # product per t in eta_numeric 24.5; held once, 17.4 and 20.5
    theta = (1.0 / 3.0, 0.0, 0.0)
    want = _tuple_eta_numeric(*_tuple_lattice(theta, 40),
                              "Lattice3Quadratic")
    tracemalloc.start()
    try:
        m = SpectrumModel.lattice3_quadratic(theta, cutoff=40)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        r = eta_numeric(m)
        heat = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.lam.size == 536_168
    assert max(build, heat) < 22 * 2**20
    assert (r.value.hex(), r.error_estimate.hex()) == want


def test_explicit_ties_keep_input_order_and_match_the_tuple_model():
    pairs = [(1.0, 2), (-1.0, 1), (1.0, 1), (-1.0, 3), (2.0, 1), (-2.0, 5),
             (2.0, 4), (0.5, 1), (-0.5, 2), (0.5, 7)]
    m = SpectrumModel.explicit_list(pairs, kernel_dim=2)
    assert m.eigenvalues()[:3] == ((-0.5, 2), (0.5, 1), (0.5, 7))
    _assert_same_model(m, _tuple_sorted(pairs), 2)
    # input already in order, ties included, comes back unchanged; the
    # model keeps read-only copies, never the caller's arrays
    lam = np.array([l for l, _ in m.eigenvalues()])
    again = SpectrumModel("ExplicitList", lam, m.mult, 2, {})
    _assert_same_model(again, _tuple_sorted(pairs), 2)
    assert lam.flags.writeable and not again.lam.flags.writeable
    rng = np.random.default_rng(11)
    for k in range(12):
        n = int(rng.integers(1, 30))
        lam = rng.choice([-3.0, -1.5, -1.0, 1.0, 1.5, 3.0, 0.25], n).tolist()
        mu = rng.integers(1, 5, n).tolist()
        pairs = list(zip(lam, mu))
        _assert_same_model(SpectrumModel.explicit_list(pairs, k % 3),
                           _tuple_sorted(pairs), k % 3)


def test_from_eigenvalues_is_the_tuple_model():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 40):
        values = 5.0 * rng.standard_normal(n)
        # near-zeros below the 1e-10 relative floor go to the kernel
        near = [1e-13, -3e-12, 0.0][:n // 3]
        values[:len(near)] = near
        _assert_same_model(SpectrumModel.from_eigenvalues(values),
                           *_tuple_from_eigenvalues(values))


def test_crossing_family_is_the_tuple_family():
    for cs in (None, [0.5, 0.0, 1.0, -0.5, 0.31]):
        got = mode_zero_crossing_family(cs)
        ref = _tuple_crossing(np.linspace(0.05, 0.95, 10)
                              if cs is None else cs)
        assert len(got) == len(ref)
        for (_, m), (pairs, kernel) in zip(got, ref):
            _assert_same_model(m, pairs, kernel)


@pytest.mark.parametrize("R", [1.1, 1.5, 6, 12, 15])
@pytest.mark.parametrize("theta", _TWISTS)
def test_t3_points_are_the_lexsorted_tuple_points(theta, R):
    sp = t3_spectrum(TwistCharacter(theta), R=R)
    ref = _tuple_t3_points(TwistCharacter(theta).components, R)
    got = tuple(zip(map(tuple, sp.points.tolist()), sp.values.tolist()))
    assert [(k, q.hex()) for k, q in got] == [(k, q.hex()) for k, q in ref]
    # the perfbench t3 check reads the point count as len(points)
    assert len(sp.points) == len(ref)
    if R >= 8:  # the lattice model's cutoff floor
        m = SpectrumModel.lattice3_quadratic(theta, cutoff=R)
        _assert_same_model(m, _tuple_sorted(
            [(q, 1) for _, q in ref] + [(-q, 2) for _, q in ref]),
            sp.kernel_dim)


def test_spectrum_csv_bytes_are_the_tuple_bytes(tmp_path):
    def tuple_csv(pairs, kernel_dim, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eigenvalue", "multiplicity"])
            if kernel_dim:
                w.writerow([repr(0.0), kernel_dim])
            for lam, m in pairs:
                w.writerow([repr(lam), m])
        return open(path, "rb").read()

    cases = [(SpectrumModel.arithmetic_progression(0.25, cutoff=3),
              _tuple_ap(0.25, 1, 3)),
             (SpectrumModel.arithmetic_progression(0.0, mult=2, cutoff=3),
              _tuple_ap(0.0, 2, 3)),
             (SpectrumModel.lattice3_quadratic((0.1, 0.9, 0.25), cutoff=8),
              _tuple_lattice((0.1, 0.9, 0.25), 8))]
    for j, (model, (pairs, kernel)) in enumerate(cases):
        got = open(dump_spectrum_csv(model, tmp_path / f"a{j}.csv"),
                   "rb").read()
        assert got == tuple_csv(pairs, kernel, tmp_path / f"b{j}.csv")
        assert b"float64" not in got and b"int64" not in got


def test_tracer_contract_level_count_and_patchable_lattice_builder(
        monkeypatch):
    # perfbench's tracer counts eta.eta_numeric.levels as
    # len(model.eigenvalues()) and wraps SpectrumModel.lattice3_quadratic
    # as a classmethod on the class
    m = SpectrumModel.lattice3_quadratic(cutoff=8)
    pairs, _ = _tuple_lattice((0.0, 0.0, 0.0), 8)
    assert len(m.eigenvalues()) == len(pairs) == m.lam.size
    raw = SpectrumModel.__dict__["lattice3_quadratic"]
    assert isinstance(raw, classmethod)
    seen = []

    def counted(cls, *args, **kwargs):
        seen.append(cls)
        return raw.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(SpectrumModel, "lattice3_quadratic",
                        classmethod(counted))
    assert gilkey_eta(R=8).value == 4
    assert seen == [SpectrumModel]
