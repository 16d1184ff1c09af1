"""Filtered analytic index: Toeplitz calibration, stability gates, the
parity double, the defect-formula residual, and the structured kernel
against its dense-SVD oracle."""

import ast
import functools
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import etaforge
from etaforge import indexing, subspaces
from etaforge.core import (_RANK_TOL, EllipticityViolation, TrigPolyMatrix,
                           constant_trig, winding_number)
from etaforge.dyadic import DyadicRational
from etaforge.indexing import (SubspaceOperator, analytic_index,
                               antipodal_subspace, build_parity_double,
                               dimension_functional, index_formula_report)
from etaforge.kzn import mod_n_analytic_index, n_fold
from etaforge.subspaces import (ParityError, PdoSubspace, SubspaceSymbol,
                                UnstableIndexError, conjugate_subspace,
                                full_subspace, hardy_subspace, lift_symbol,
                                mobius_subspace, mobius_symbol,
                                orthocomplement, puncture, relative_index,
                                trivial_subspace, two_face_subspace,
                                zero_subspace)
from etaforge.suites import (even_invertible_symbol, even_subspace_suite,
                             haar_unitary, index_formula_suite,
                             modn_element_suite, perturbation_terms,
                             phase_diag_loop, rng_for, toeplitz_operator)
from etaforge.symbols import (CircleSymbol, identity_symbol, mode_labels,
                              quantize)


@pytest.mark.parametrize("k", range(-3, 4))
def test_toeplitz_index_is_minus_winding(k):
    # compression of z^k to nonnegative modes: the classic count gives
    # kernel max(0, -k), cokernel max(0, k)
    assert analytic_index(toeplitz_operator(k), N=16) == -k


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=25, deadline=None)
def test_toeplitz_composition_is_logarithmic(j, k):
    comp = toeplitz_operator(j).compose(toeplitz_operator(k))
    assert analytic_index(comp, N=16) == -(j + k)


def test_full_space_multiplication_has_index_zero():
    # invertible multiplication operators are invertible up to smoothing;
    # the boundary nulls of the truncation must not be counted
    rng = rng_for(5, "fullmult")
    sym = even_invertible_symbol(rng, 3)
    op = SubspaceOperator(sym, full_subspace(3), full_subspace(3))
    assert analytic_index(op, N=12) == 0


def test_homotopy_invariance_rotated_frames():
    # conjugating diag(z, 1) by a rotating frame sweeps a family of
    # elliptic symbols; the index must stay put across the whole path
    h2 = hardy_subspace().direct_sum(hardy_subspace())
    vals = []
    for phi in np.linspace(0.0, np.pi / 2, 10):
        c, s = np.cos(phi), np.sin(phi)
        R = np.array([[c, -s], [s, c]])
        loop = TrigPolyMatrix({1: R @ np.diag([1.0, 0.0]) @ R.T,
                               0: R @ np.diag([0.0, 1.0]) @ R.T})
        sym = CircleSymbol(0, loop, loop)
        vals.append(analytic_index(SubspaceOperator(sym, h2, h2), N=16))
    assert vals == [-1] * 10


def test_lower_order_terms_do_not_move_the_index():
    rng = rng_for(3, "perturb")
    op = toeplitz_operator(2)
    for term in perturbation_terms(rng, op, 3):
        pert = op.with_lower_order(term)
        assert pert.order == op.order
        assert len(pert.symbol.terms) == 2
        assert analytic_index(pert, N=24, scales=(1, 2)) == -2


def test_underresolved_perturbation_is_refused():
    # an O(1) order -1 term displaces the near-kernel beyond what small
    # truncations resolve; the three scales disagree and the gate trips
    rng = rng_for(11, "unstable")
    op = toeplitz_operator(1)
    pert = op.with_lower_order(*perturbation_terms(rng, op, 1, scale=1.0))
    with pytest.raises(UnstableIndexError):
        analytic_index(pert, N=8)


def test_noninvertible_symbol_is_rejected(monkeypatch):
    loop = TrigPolyMatrix({0: -np.eye(1), 1: np.eye(1)})  # z - 1, zero at x=0
    op = SubspaceOperator(CircleSymbol(0, loop, loop),
                          full_subspace(1), full_subspace(1))
    calls = _counted(monkeypatch, "ellipticity_check")
    assert not op.is_elliptic()
    # the kept verdict refuses every call, and a perturbed copy's too
    for _ in range(2):
        with pytest.raises(EllipticityViolation):
            analytic_index(op, N=8)
    with pytest.raises(EllipticityViolation):
        analytic_index(op.with_lower_order(*perturbation_terms(
            rng_for(3, "perturb"), op, 1)), N=8)
    assert len(calls) == 1 and op._indices == {}


def test_symbol_shape_must_match_subspaces():
    loop = TrigPolyMatrix({0: np.eye(1)})
    with pytest.raises(ValueError):
        SubspaceOperator(CircleSymbol(0, loop, loop),
                         full_subspace(2), full_subspace(2))


def test_compose_requires_matching_middles():
    ident = CircleSymbol(0, TrigPolyMatrix({0: np.eye(1)}),
                         TrigPolyMatrix({0: np.eye(1)}))
    full_op = SubspaceOperator(ident, full_subspace(1), full_subspace(1))
    with pytest.raises(ValueError):
        toeplitz_operator(1).compose(full_op)


def test_direct_sum_rejects_expansions():
    rng = rng_for(9, "ds")
    op = toeplitz_operator(1)
    pert = op.with_lower_order(*perturbation_terms(rng, op, 1))
    with pytest.raises(ValueError):
        pert.direct_sum(op)


# ----------------------------------------------------------- parity double


@pytest.mark.parametrize("k", [-2, 1, 3])
def test_odd_double_of_toeplitz(k):
    # doubled symbol maps the full line onto (modes >= 0) + (modes <= 0):
    # kernel |k| - 1 overflow modes against |k| missed ones, so the index
    # is -1 no matter the winding
    dbl = build_parity_double(toeplitz_operator(k))
    assert dbl.source.fiber == 1 and dbl.target.fiber == 2
    assert analytic_index(dbl, N=32) == -1


def test_odd_double_with_turning_faces():
    # faces p and 1 - p, p the Mobius projection: an odd subspace whose
    # face subbundles depend on x
    p = mobius_symbol().plus
    L = PdoSubspace(SubspaceSymbol(p, constant_trig(np.eye(2)) - p))
    assert L.symbol.parity == "Odd"
    op = SubspaceOperator(identity_symbol(2), L, L)
    dbl = build_parity_double(op)
    # 2 at N = 16, 24, 32 and 48; the double's target L + alpha* L realizes
    # its symbol (face residual 0).  The framed build of L (frames
    # {+1: (s, t), -1: (t, s)}, cut 0) gives a double of index 0, and
    # its relative index to this gap build is -1, once for L and once for
    # alpha* L: the target rank moves by 2, which is the gap between the
    # two indices
    assert analytic_index(dbl, N=16) == 2
    # the fitted faces against the odd formula taken one sample at a time
    xs = np.random.default_rng(2).uniform(0.0, 2 * np.pi, 9)
    for sign in (+1, -1):
        got = dbl.principal.face(sign)(xs)
        for j, x in enumerate(xs):
            sv, sw, pp, pm = (f([x])[0] for f in (
                op.principal.face(sign), op.principal.face(-sign),
                L.symbol.face(sign), L.symbol.face(-sign)))
            wp, Up = np.linalg.eigh(pp)
            wm, Um = np.linalg.eigh(pm)
            bp, bm = Up[:, wp > 0.5], Um[:, wm > 0.5]
            inv = np.linalg.inv(np.concatenate([bp, bm], axis=1))
            q = bp.shape[1]
            want = np.concatenate([sv @ bp @ inv[:q], sw @ bm @ inv[q:]])
            assert np.abs(got[j] - want).max() < 1e-8


def test_even_double_is_full_space():
    rng = rng_for(5, "evdbl")
    sym = even_invertible_symbol(rng, 2)
    op = SubspaceOperator(sym, full_subspace(2), full_subspace(2))
    dbl = build_parity_double(op)
    assert dbl.source.fiber == dbl.target.fiber == 2
    assert analytic_index(dbl, N=16) == 0


def test_double_requires_a_parity():
    # a subspace whose faces neither coincide nor split the fiber carries
    # no parity, hence no double
    from etaforge.subspaces import two_face_subspace
    pp = np.diag([1.0, 0.0])
    L = two_face_subspace(pp, np.eye(2), name="lopsided")
    ident = CircleSymbol(0, TrigPolyMatrix({0: np.eye(2)}),
                         TrigPolyMatrix({0: np.eye(2)}))
    op = SubspaceOperator(ident, L, L)
    with pytest.raises(ValueError):
        build_parity_double(op)


# --------------------------------------------------------- defect formula


@pytest.mark.parametrize("name", ["half_spin_row", "punctured_source"])
def test_defect_formula_residual_vanishes(name):
    op = dict(index_formula_suite())[name]
    assert index_formula_report(op, name, N=16)["residual"] == "0"


def test_report_row_schema():
    op = dict(index_formula_suite())["full_even"]
    row = index_formula_report(op, "full_even", N=16)
    assert list(row) == ["example_id", "ind_D", "ind_Dtilde",
                         "d_L1", "d_L2", "residual"]
    assert isinstance(row["ind_D"], int)
    assert isinstance(row["ind_Dtilde"], int)
    assert row["residual"] == "0"


# ----------------------------------------------------- d(L) and its memo


class _Recomputed(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Recomputed("d(L) was computed again")


def _punctured_plane():
    # d = -1, and the cheapest subspace of the even suite to evaluate
    return puncture(trivial_subspace(2, 1))


def test_d_is_computed_once_per_subspace(monkeypatch):
    L = _punctured_plane()
    d = dimension_functional(L)
    monkeypatch.setattr(indexing, "analytic_index", _refuse)
    assert dimension_functional(L) == d == -1
    assert dimension_functional(L, N=16, lift_order=0) == d


def test_d_memo_key_holds_n_and_lift_order(monkeypatch):
    L = _punctured_plane()
    d = dimension_functional(L)
    assert list(L._dims) == [(16, 0)]
    monkeypatch.setattr(indexing, "analytic_index", _refuse)
    assert dimension_functional(L) == d
    for kw in ({"N": 20}, {"lift_order": 1}):
        with pytest.raises(_Recomputed):
            dimension_functional(L, **kw)
    # a fresh subspace with the same symbol shares nothing
    with pytest.raises(_Recomputed):
        dimension_functional(_punctured_plane())


@pytest.mark.parametrize("exc", [ArithmeticError, UnstableIndexError,
                                 EllipticityViolation])
def test_d_that_raises_stores_nothing(monkeypatch, exc):
    L = _punctured_plane()
    calls = []

    def once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise exc("first call refused")
        return d_once(*args)

    d_once = indexing._d_once
    monkeypatch.setattr(indexing, "_d_once", once)
    with pytest.raises(exc):
        dimension_functional(L)
    assert L._dims == {}
    assert dimension_functional(L) == -1
    assert list(L._dims.values()) == [-1]


def test_d_decides_parity_once_and_checks_the_twisted_lift(monkeypatch):
    # lift_symbol classifies the parity and checks the lift's ellipticity;
    # the untwisted lift operator takes that verdict, the twisted one is
    # checked on its own
    parity, elliptic = [], []

    def counted(calls, fn):
        return lambda *args: calls.append(args) or fn(*args)

    monkeypatch.setattr(subspaces, "classify_parity",
                        counted(parity, subspaces.classify_parity))
    for module in (subspaces, indexing):
        monkeypatch.setattr(module, "ellipticity_check",
                            counted(elliptic, module.ellipticity_check))
    assert dimension_functional(mobius_subspace()) == 0
    assert (len(parity), len(elliptic)) == (1, 2)


def test_d_of_an_odd_subspace_stores_nothing():
    L = hardy_subspace()
    with pytest.raises(ParityError):
        dimension_functional(L)
    assert L._dims == {}


def test_realized_truncations_are_ints_after_d():
    # the memo lives apart from the realizations: realized_truncations()
    # is still a sorted tuple of the realized Ns only
    L = _punctured_plane()
    dimension_functional(L)
    dimension_functional(L, N=20)
    got = L.realized_truncations()
    assert len(L._dims) == 2
    assert got and got == tuple(sorted(got))
    assert all(type(N) is int for N in got)


@pytest.fixture(scope="module")
def even_suite():
    return dict(even_subspace_suite(1914))


@pytest.mark.parametrize("a, b", [
    ("mobius", "punctured_plane"),
    ("trivial_plane", "conjugated_1"),
    ("conjugated_0", "punctured_plane"),
    ("conjugated_0", "conjugated_1"),
    ("punctured_plane", "punctured_plane"),
    ("mobius", "mobius_sum"),
])
def test_d_is_additive_under_direct_sums(even_suite, a, b):
    L, M = even_suite[a], even_suite[b]
    assert dimension_functional(L.direct_sum(M)) == \
        dimension_functional(L) + dimension_functional(M)


@functools.lru_cache(maxsize=None)
def _suites(seed):
    # one build per seed: members keep their d and indices across examples
    return dict(even_subspace_suite(seed)), dict(index_formula_suite(seed))


_EVEN_NAMES = ("mobius", "trivial_plane", "conjugated_0", "conjugated_1",
               "punctured_plane", "mobius_sum")
_INDEX_NAMES = ("half_spin_row", "mobius_twist", "plane_windings",
                "full_even", "punctured_source", "conjugated_line")


@given(st.sampled_from((1914, 2718, 5)), st.sampled_from(_EVEN_NAMES),
       st.sampled_from(_EVEN_NAMES))
@settings(max_examples=12, deadline=None)
def test_d_of_a_direct_sum_is_the_sum_of_the_ds(seed, a, b):
    # the sum puts columns of both parts, of different bands, on one mode
    suite = _suites(seed)[0]
    L, M = suite[a], suite[b]
    assert dimension_functional(L.direct_sum(M)) == \
        dimension_functional(L) + dimension_functional(M)


@given(st.sampled_from((1914, 2718, 5)), st.sampled_from(_INDEX_NAMES),
       st.sampled_from(_INDEX_NAMES))
@settings(max_examples=12, deadline=None)
def test_the_index_of_a_direct_sum_is_the_sum_of_the_indices(seed, a, b):
    suite = _suites(seed)[1]
    D1, D2 = suite[a], suite[b]
    N = indexing._fitting_n(16, max(D1.symbol.principal.degree,
                                    D2.symbol.principal.degree))
    assert analytic_index(D1.direct_sum(D2), N=N) == \
        analytic_index(D1, N=N) + analytic_index(D2, N=N)


@pytest.mark.parametrize("name", ["mobius", "trivial_plane", "conjugated_0",
                                  "conjugated_1", "punctured_plane",
                                  "mobius_sum"])
def test_d_of_a_complement_is_minus_d(even_suite, name):
    L = even_suite[name]
    assert dimension_functional(L) + \
        dimension_functional(orthocomplement(L)) == 0


# --------------------------------------------------------------- antipodal


def test_antipodal_subspace_reflects_modes():
    # the same vectors as the reflected basis, in another column order
    L = hardy_subspace()
    A = antipodal_subspace(L)
    N = 8
    b, fb = L.realize(N).basis, A.realize(N).basis
    assert np.allclose(fb @ fb.conj().T, b[::-1] @ b[::-1].conj().T)
    assert (A.symbol.plus - L.symbol.minus).max_abs() < 1e-14
    assert (A.symbol.minus - L.symbol.plus).max_abs() < 1e-14


def test_antipodal_sums_keep_their_columns_in_the_window():
    # a Mobius line plus the Hardy space: the sum takes the line's band,
    # which reaches past the top Hardy columns' last mode unless their
    # lowest modes are lowered; the antipodal image is the sum of the
    # parts' images, whose columns must stay in the window too
    N = 8
    rng = rng_for(7, "antipodal_sum")
    sym = CircleSymbol(0, *(TrigPolyMatrix(
        {k: rng.standard_normal((3, 3)) for k in range(-2, 3)})
        for _ in range(2)))
    gap, frame = (antipodal_subspace(L.direct_sum(hardy_subspace()))
                  for L in (PdoSubspace(mobius_symbol()), mobius_subspace()))
    for L in (gap, frame):
        real = L.realize(N)
        assert real.modes.min() >= 0 and real.modes.max() <= 2 * N - real.band
    for source, target in ((gap, frame), (frame, gap), (gap, full_subspace(3))):
        op = SubspaceOperator(sym, source, target)
        assert indexing._filtered_index_once(op, N) == \
            _unfiltered_dense_index(op, N)


def test_antipodal_is_an_involution():
    L = hardy_subspace(shift=2)
    back = antipodal_subspace(antipodal_subspace(L))
    N = 6
    assert np.allclose(back.realize(N).basis, L.realize(N).basis)


def test_no_function_level_imports():
    # every module imports at top level, so no import cycle hides in a body
    paths = sorted(pathlib.Path(etaforge.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    hits = set()
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits |= {f"{path.name}:{node.lineno}"
                         for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(hits) == []


def _unused_imports(path):
    """The names a file imports and never reads; "# noqa: F401" marks a
    deliberate re-export."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                hits.append(f"{path.parent.name}/{path.name}:{name}")
    return hits


def test_no_unused_module_imports():
    # a module-level import that the module never reads is dead weight
    paths = sorted(pathlib.Path(etaforge.__file__).parent.glob("*.py"))
    assert [hit for path in paths if path.name != "__init__.py"
            for hit in _unused_imports(path)] == []


def test_no_unused_imports_in_tests_and_demos():
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("tests/*.py")) + sorted(root.glob("demos/*.py"))
    assert len(paths) > 15
    assert [hit for path in paths for hit in _unused_imports(path)] == []


# ---------------------------------------------------- structured kernel


# ------------------------------------------------ the operator's memo


def _counted(monkeypatch, name):
    # records every call of an indexing module function
    calls = []
    fn = getattr(indexing, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(indexing, name, counted)
    return calls


def _theorem_element():
    # a full-space element of the mod-2 suite: small, stable sections
    return modn_element_suite(1914, 2, count=2)[1][1]


def test_ellipticity_is_checked_once_per_principal_symbol(monkeypatch):
    el = _theorem_element()
    terms = perturbation_terms(rng_for(1914, "memo"), el.operator, 2)
    calls = _counted(monkeypatch, "ellipticity_check")
    mod_n_analytic_index(el)
    analytic_index(el.operator, N=24, scales=(1, 2))
    for term in terms:  # lower-order terms keep the principal symbol
        analytic_index(el.operator.with_lower_order(term), N=24,
                       scales=(1, 2))
    assert len(calls) == 1


def test_compose_and_direct_sum_check_their_own_symbol(monkeypatch):
    a, b = toeplitz_operator(1), toeplitz_operator(-2)
    assert a.is_elliptic() and b.is_elliptic()
    calls = _counted(monkeypatch, "ellipticity_check")
    assert a.compose(b).is_elliptic()
    assert a.direct_sum(b).is_elliptic()
    assert len(calls) == 2


def test_theorem_and_ladder_share_the_n24_section(monkeypatch):
    # the theorem runs N = 12, 24, 36 and the ladder's first rung 24, 48
    el = _theorem_element()
    calls = _counted(monkeypatch, "_filtered_index_once")
    mod_n_analytic_index(el, N=12)
    analytic_index(el.operator, N=24, scales=(1, 2))
    assert [N for _, N in calls] == [12, 24, 36, 48]


def test_a_perturbed_operator_inherits_no_indices(monkeypatch):
    op = toeplitz_operator(2)
    assert analytic_index(op, N=24, scales=(1, 2)) == -2
    pert = op.with_lower_order(*perturbation_terms(rng_for(3, "perturb"),
                                                   op, 1))
    assert pert._indices == {}
    calls = _counted(monkeypatch, "_filtered_index_once")
    assert analytic_index(pert, N=24, scales=(1, 2)) == -2
    assert [N for _, N in calls] == [24, 48]


def test_disagreeing_scales_are_refused_on_every_call(monkeypatch):
    rng = rng_for(11, "unstable")
    op = toeplitz_operator(1)
    pert = op.with_lower_order(*perturbation_terms(rng, op, 1, scale=1.0))
    with pytest.raises(UnstableIndexError):
        analytic_index(pert, N=8)
    calls = _counted(monkeypatch, "_filtered_index_once")
    with pytest.raises(UnstableIndexError):
        analytic_index(pert, N=8)
    assert calls == []  # the kept indices still disagree


def test_an_index_that_raises_stores_nothing(monkeypatch):
    op = toeplitz_operator(1)
    once = indexing._filtered_index_once

    def refused_at_32(op, N):
        if N == 32:
            raise ArithmeticError("section refused")
        return once(op, N)

    monkeypatch.setattr(indexing, "_filtered_index_once", refused_at_32)
    with pytest.raises(ArithmeticError):
        analytic_index(op, N=16)
    assert list(op._indices) == [16]
    monkeypatch.setattr(indexing, "_filtered_index_once", once)
    assert analytic_index(op, N=16) == -1
    assert sorted(op._indices) == [16, 32, 48]


def test_an_operator_keeps_its_parity_double_and_passes_none_on():
    op = toeplitz_operator(1)
    dbl = build_parity_double(op)
    assert build_parity_double(op) is dbl
    pert = op.with_lower_order(*perturbation_terms(rng_for(3, "perturb"),
                                                   op, 1))
    for other in (pert, op.compose(toeplitz_operator(2)), op.direct_sum(op)):
        assert other._double is None


def _count_dense(monkeypatch):
    # records every call the structured kernel hands to the dense SVD
    calls = []
    dense = indexing._dense_near_null

    def counted(T):
        calls.append(T.shape)
        return dense(T)

    monkeypatch.setattr(indexing, "_dense_near_null", counted)
    return calls


def _oracle_index(op, N, monkeypatch):
    # the same compression and bulk counts, through the dense SVD only
    with monkeypatch.context() as m:
        m.setattr(indexing, "_banded_near_null", lambda *args: None)
        return indexing._filtered_index_once(op, N)


def _loop(k):
    return TrigPolyMatrix({k: np.eye(1)})


def _rand0(n):
    # the first (full-space) element of the mod-n suite
    return modn_element_suite(1914, n, count=1)[0][1].operator


def _banded_cases():
    hardy = hardy_subspace()
    sym8 = _rand0(8).symbol
    nfold = n_fold(full_subspace(1), 8)
    U = haar_unitary(np.random.default_rng(0), 3)
    return {
        "square_fiber4": (_rand0(4), 24),
        # 16 near-null vectors on each side: both Ritz blocks grow
        "square_fiber8": (_rand0(8), 24),
        "square_fiber4_perturbed": (_rand0(4).with_lower_order(
            perturbation_terms(rng_for(1914, "kernel"), _rand0(4), 1)[0]), 48),
        "hardy_shift_into_hardy": (SubspaceOperator(
            CircleSymbol(0, _loop(2), _loop(2)), hardy, hardy), 200),
        "hardy_into_shifted_hardy": (SubspaceOperator(
            CircleSymbol(0, _loop(-1), _loop(-1)), hardy,
            hardy_subspace(shift=3)), 200),
        # one side has 20 near-null directions and one none: only that
        # side's Ritz block grows past _START_BLOCK
        "hardy_into_hardy_below": (SubspaceOperator(
            CircleSymbol(0, _loop(-20), _loop(-20)), hardy,
            hardy_subspace(shift=-20)), 200),
        "hardy_into_hardy_above": (SubspaceOperator(
            CircleSymbol(0, _loop(20), _loop(20)), hardy,
            hardy_subspace(shift=20)), 200),
        # order 1: the weight |n| vanishes on the mode-0 columns
        "exactly_null_columns": (SubspaceOperator(
            CircleSymbol(1, phase_diag_loop([1, -2]), -np.eye(2)),
            full_subspace(2), full_subspace(2)), 48),
        # degree 1: a constant symbol would take the per-mode count
        "no_near_null": (SubspaceOperator(
            CircleSymbol(0, TrigPolyMatrix({0: U, 1: 0.3 * U}), np.eye(3)),
            full_subspace(3), full_subspace(3)), 64),
        "unsorted_n_fold": (SubspaceOperator(sym8, nfold, nfold), 24),
        # framed over the 4-fold sum of a rank-1 two-face subspace of C^3:
        # a mode-local dense basis, compressed mode by mode
        "two_face_n_fold": (
            modn_element_suite(1901, 4, count=3)[2][1].operator, 48),
        # framed over the 4-fold Mobius sum: frame realizations of band 1
        "mobius_n_fold": (
            modn_element_suite(1890, 4, count=3)[2][1].operator, 48),
    }


def _banded_sections(monkeypatch):
    # records each section the banded solve is given, with its answer
    seen = []
    banded = indexing._banded_near_null

    def recorded(T, *args):
        seen.append((T, banded(T, *args)))
        return seen[-1][1]

    monkeypatch.setattr(indexing, "_banded_near_null", recorded)
    return seen


def _projector(V):
    return V @ V.conj().T


@pytest.mark.parametrize("case", sorted(_banded_cases()))
def test_banded_kernel_matches_the_dense_svd(case, monkeypatch):
    op, N = _banded_cases()[case]
    want = _oracle_index(op, N, monkeypatch)
    dense = indexing._dense_near_null
    seen = _banded_sections(monkeypatch)
    calls = _count_dense(monkeypatch)
    assert indexing._filtered_index_once(op, N) == want
    assert calls == []  # the margins are wide: no hand-off
    # the bases too, not only their counts: a wrong cokernel of the right
    # size would leave the index right
    (T, near), = seen
    for got, ref in zip(near, dense(T)):
        assert got.shape == ref.shape
        np.testing.assert_allclose(_projector(got), _projector(ref),
                                   rtol=0, atol=1e-8)


@pytest.mark.parametrize("case, shape, ker, coker", [
    ("hardy_into_hardy_below", (221, 201), 0, 20),
    ("hardy_into_hardy_above", (181, 201), 20, 0),
], ids=["below", "above"])
def test_one_sided_cases_grow_one_ritz_block(case, shape, ker, coker,
                                             monkeypatch):
    op, N = _banded_cases()[case]
    seen = _banded_sections(monkeypatch)
    indexing._filtered_index_once(op, N)
    (T, near), = seen
    assert T.shape == shape
    assert [V.shape[1] for V in near] == [ker, coker]
    assert max(ker, coker) > indexing._START_BLOCK


def test_a_full_ritz_block_grows_at_its_first_step(monkeypatch):
    # the 16-column kernel block is full after one step, and the kernel's
    # count starts the cokernel at 32 columns.  Kernel and cokernel take
    # one solve per step, the kernel's steps first.
    op, N = _banded_cases()["square_fiber8"]
    seen = _banded_sections(monkeypatch)
    widths = []
    solve = indexing._BandedGram.solve

    def recorded(self, B):
        widths.append(B.shape[1])
        return solve(self, B)

    monkeypatch.setattr(indexing._BandedGram, "solve", recorded)
    indexing._filtered_index_once(op, N)
    (T, near), = seen
    assert [V.shape[1] for V in near] == [16, 16]
    assert widths[0] == indexing._START_BLOCK
    assert widths.count(indexing._START_BLOCK) == 1
    assert set(widths[1:]) == {2 * indexing._START_BLOCK}


@pytest.mark.parametrize("k", [15, 16, 17, 31, 32, 33, -16, -32])
def test_hinted_cokernel_matches_the_unhinted_one(k, monkeypatch):
    # z^k : H -> H(k) has k kernel or |k| cokernel vectors: the blocks of
    # 16 and 32 columns are just full, or just not, on one side
    near_null = indexing._BandedGram.near_null
    calls = []

    def recorded(self, *args):
        calls.append((self, args, near_null(self, *args)))
        return calls[-1][2]

    monkeypatch.setattr(indexing._BandedGram, "near_null", recorded)
    seen = _banded_sections(monkeypatch)
    op = SubspaceOperator(CircleSymbol(0, _loop(k), _loop(k)),
                          hardy_subspace(), hardy_subspace(shift=k))
    indexing._filtered_index_once(op, 200)
    (T, near), = seen
    assert [V.shape[1] for V in near] == ([k, 0] if k > 0 else [0, -k])
    (G, args, (got, _)), = calls[1:]  # the cokernel's call and its hint
    want, _ = near_null(G, *args[:-1])
    assert np.array_equal(got, want)


def test_one_factorization_serves_both_sides(monkeypatch):
    op, N = _banded_cases()["square_fiber4"]
    factored = []
    factor = indexing._BandedGram.factor

    def counted(self, mu):
        factored.append(mu)
        return factor(self, mu)

    monkeypatch.setattr(indexing._BandedGram, "factor", counted)
    calls = _count_dense(monkeypatch)
    indexing._filtered_index_once(op, N)
    assert calls == [] and len(factored) == 1


def test_kernel_cases_cover_selection_shapes():
    cases = _banded_cases()
    op, N = cases["hardy_into_shifted_hardy"]
    assert op.target.rank(N) < op.source.rank(N)
    sel = cases["unsorted_n_fold"][0].source.realize(24).select
    assert np.any(np.diff(sel) < 0)
    op, N = cases["exactly_null_columns"]
    A = quantize(op.symbol, N).matrix
    assert not np.any(A[:, 2 * N:2 * N + 2])


def test_local_section_is_the_dense_compression():
    op, N = _banded_cases()["two_face_n_fold"]
    real = op.source.realize(N)
    assert real.select is None and real.band == 0
    o = np.argsort(real.modes, kind="stable")
    B, m = real.basis[:, o], real.modes[o]
    A = quantize(op.symbol, N).matrix
    T = indexing._local_section(A, real, real, op.symbol.principal.degree)
    np.testing.assert_allclose(T, B.conj().T @ A @ B, rtol=0, atol=1e-13)


def _sorted_side(L, N):
    real = L.realize(N)
    o = np.argsort(real.modes, kind="stable")
    return real.basis[:, o], real.modes[o], L.fiber, real.band


@pytest.mark.parametrize("case", ["n_fold", "into_full", "from_full"])
def test_local_section_of_a_band_one_basis_is_the_dense_compression(case):
    # the windows widen by each side's band: frame columns reach two modes
    N = 24
    if case == "n_fold":
        op = _banded_cases()["mobius_n_fold"][0]
    else:
        mob = mobius_subspace()
        rng = rng_for(7, "band_one")
        sym = CircleSymbol(0, *(TrigPolyMatrix(
            {k: rng.standard_normal((2, 2)) for k in range(-2, 3)})
            for _ in range(2)))
        op = SubspaceOperator(sym, mob, full_subspace(2)) \
            if case == "into_full" else \
            SubspaceOperator(sym, full_subspace(2), mob)
    B1, m1, r1, b1 = _sorted_side(op.source, N)
    B2, m2, r2, b2 = _sorted_side(op.target, N)
    assert max(b1, b2) == 1
    A = quantize(op.symbol, N).matrix
    T = indexing._local_section(A, op.source.realize(N), op.target.realize(N),
                                op.symbol.principal.degree)
    np.testing.assert_allclose(T, B2.conj().T @ A @ B1, rtol=0, atol=1e-13)


def _no_banded_gram(*args):
    raise AssertionError("a band-2N section formed a banded Gram matrix")


@pytest.mark.parametrize("N", [12, 24, 48])
def test_frame_and_gap_mobius_have_relative_index_zero(N, monkeypatch):
    # the identity from the frame realization to the spectral cut of the
    # quantized face: a realizer that shifted d would show here
    gap = PdoSubspace(mobius_symbol())
    op = SubspaceOperator(identity_symbol(2), mobius_subspace(), gap)
    assert op.source.realize(N).band == 1 and gap.realize(N).band == 2 * N
    assert analytic_index(op, N=N) == 0
    # the gap realization is a bare basis (band 2N): its sections, gap ->
    # gap and gap -> frame, take the one kernel path to the dense SVD with
    # no banded Gram matrix (at 3 * 48 both sides exceed _DENSE_BELOW),
    # and agree with the unfiltered dense index
    monkeypatch.setattr(indexing, "_BandedGram", _no_banded_gram)
    calls = _count_dense(monkeypatch)
    for target in (gap, op.source):
        sec = SubspaceOperator(identity_symbol(2), gap, target)
        for n in (N, 2 * N, 3 * N):
            del calls[:]
            got = indexing._filtered_index_once(sec, n)
            assert calls == [(target.rank(n), gap.rank(n))]
            assert got == _unfiltered_dense_index(sec, n)


_COCYCLE_FAMILIES = {
    "hardy": lambda: [hardy_subspace(-2), hardy_subspace(0), hardy_subspace(3),
                      puncture(hardy_subspace(1), mode=2)],
    "mobius": lambda: [mobius_subspace(), PdoSubspace(mobius_symbol()),
                       puncture(mobius_subspace())],
}


@pytest.mark.parametrize("family", sorted(_COCYCLE_FAMILIES))
def test_the_identity_index_is_the_relative_index_and_a_cocycle(family):
    # ind(id: L1 -> L2) from the index kernel is the rank difference of
    # relative_index, and it adds along L1 -> L2 -> L3
    spaces = _COCYCLE_FAMILIES[family]()
    ident = identity_symbol(spaces[0].fiber)
    ind = {}
    for a, L1 in enumerate(spaces):
        for b, L2 in enumerate(spaces):
            ind[a, b] = analytic_index(SubspaceOperator(ident, L1, L2), N=16)
            assert ind[a, b] == relative_index(L1, L2), (a, b)
    for a, b, c in itertools.product(range(len(spaces)), repeat=3):
        assert ind[a, b] + ind[b, c] == ind[a, c], (a, b, c)


def test_the_banded_solve_is_given_the_frame_band(monkeypatch):
    # frame columns reach two modes, so between band-1 sides a degree-1
    # symbol makes a section of band 2: M restricted to the Mobius line is
    # tr(M p(x)), of degree 1 where M is constant.  With that band the
    # block tridiagonal Gram matrix is T*T.
    mob4 = n_fold(mobius_subspace(), 4)
    loop = TrigPolyMatrix({1: np.diag([2.0, 1.0] * 4)})
    op = SubspaceOperator(CircleSymbol(0, loop, loop), mob4, mob4)
    seen = []
    banded = indexing._banded_near_null

    def recorded(T, row_modes, col_modes, d):
        seen.append((T, row_modes, col_modes, d))
        return banded(T, row_modes, col_modes, d)

    monkeypatch.setattr(indexing, "_banded_near_null", recorded)
    calls = _count_dense(monkeypatch)
    assert indexing._filtered_index_once(op, 48) == 0 and calls == []
    (T, row_modes, col_modes, d), = seen
    assert d == 2
    G = indexing._BandedGram(T, row_modes, col_modes, d,
                             indexing._column_blocks(col_modes, d))
    TT = T.conj().T @ T
    for J, c in enumerate(G.cols):
        np.testing.assert_allclose(G.diag[J], TT[c, c], rtol=0, atol=1e-13)
        if J:
            np.testing.assert_allclose(G.low[J - 1], TT[c, G.cols[J - 1]],
                                       rtol=0, atol=1e-13)


def test_thin_margin_hands_off_to_the_dense_svd(monkeypatch):
    # seed-2718 ladder operator: a singular value of 1.11e-8 against a
    # rank cut of 1.96e-8 at N=24 (the suite seed is the one the
    # benchmark derives for that round)
    op = modn_element_suite(2972224970, 4, count=3)[0][1].operator
    term = perturbation_terms(rng_for(839723689, "pert_n4_op0"), op, 2)[0]
    op = op.with_lower_order(term)
    s = np.linalg.svd(quantize(op.symbol, 24).matrix, compute_uv=False)
    cut = _RANK_TOL * s[0]
    assert np.any((s > cut / 2) & (s < cut))
    want = _oracle_index(op, 24, monkeypatch)
    calls = _count_dense(monkeypatch)
    assert indexing._filtered_index_once(op, 24) == want
    assert calls == [(196, 196)]


def _refused_cholesky(a):
    raise np.linalg.LinAlgError("pivot block not positive definite")


@pytest.mark.parametrize("owner, name, value", [
    (indexing, "_STEPS", 1),             # the Ritz block never settles
    (indexing, "_CLEAR", 1e30),          # the block outgrows half the side
    (indexing, "_MIN_BLOCKS", 10**6),    # fewer blocks than the minimum
    (indexing, "_SHIFT", 1e-12),         # the cut bracket is too wide for mu
    (np.linalg, "cholesky", _refused_cholesky),
], ids=["unsettled", "outgrown", "few_blocks", "wide_bracket", "cholesky"])
def test_each_refusal_hands_off_to_the_dense_svd(owner, name, value,
                                                 monkeypatch):
    # a section the banded solve takes on its own at the shipped rules
    op, N = _banded_cases()["square_fiber4"]
    want = _oracle_index(op, N, monkeypatch)
    monkeypatch.setattr(owner, name, value)
    calls = _count_dense(monkeypatch)
    assert indexing._filtered_index_once(op, N) == want
    assert len(calls) == 1


def _unfiltered_dense_index(op, N):
    # the dense path on the full bases, without the empty-side return
    B1, B2 = op.source.basis(N), op.target.basis(N)
    A = quantize(op.symbol, N).matrix
    ker, coker = indexing._dense_near_null(B2.conj().T @ A @ B1)
    inner1 = mode_labels(N, op.source.fiber) <= N // 2
    inner2 = mode_labels(N, op.target.fiber) <= N // 2
    return indexing._bulk_count(B1 @ ker, inner1) \
        - indexing._bulk_count(B2 @ coker, inner2)


@pytest.mark.parametrize("source, target, fiber", [
    (zero_subspace(1), hardy_subspace(), 1),     # mode-local, empty source
    (hardy_subspace(), zero_subspace(1), 1),     # mode-local, empty target
    (zero_subspace(2), mobius_subspace(), 2),    # band 1, empty source
    (mobius_subspace(), zero_subspace(2), 2),    # band 1, empty target
    (zero_subspace(2), PdoSubspace(mobius_symbol()), 2),  # dense, empty source
    (PdoSubspace(mobius_symbol()), zero_subspace(2), 2),  # dense, empty target
], ids=["local_source", "local_target", "dense_source", "dense_target",
        "gap_source", "gap_target"])
def test_an_empty_side_counts_the_other_sides_bulk(source, target, fiber):
    op = SubspaceOperator(identity_symbol(fiber), source, target)
    got = indexing._filtered_index_once(op, 16)
    assert got == _unfiltered_dense_index(op, 16)
    if "hardy" in source.name + target.name:  # modes 0 .. N//2
        assert abs(got) == 16 // 2 + 1
    else:  # 16 frame columns inside modes -8 .. 8, two half inside
        assert abs(got) == 18


def _no_solver(*args):
    raise AssertionError("a block-diagonal section reached a solver")


def _random_projection(rng, r, q):
    Q = haar_unitary(rng, r)[:, :q]
    return Q @ Q.conj().T


def _per_mode_cases():
    # degree-0 sections between band-0 sides: block diagonal by mode
    rng = np.random.default_rng(3)
    U, V = haar_unitary(rng, 3), haar_unitary(rng, 3)
    full, plane = full_subspace(3), trivial_subspace(3, 2)
    Pp, Pm = _random_projection(rng, 3, 2), _random_projection(rng, 3, 1)
    # per-mode bases that are not coordinate columns, and their image
    twoface = two_face_subspace(Pp, Pm)
    image = two_face_subspace(U @ Pp @ U.conj().T, V @ Pm @ V.conj().T)
    lower = CircleSymbol(-1, rng.standard_normal((3, 3)), np.eye(3))
    return {
        "constant_unitary": SubspaceOperator(CircleSymbol(
            0, haar_unitary(np.random.default_rng(0), 3), np.eye(3)),
            full, full),
        "rectangular_lift": SubspaceOperator(
            lift_symbol(plane), plane, full_subspace(2)),
        "two_face_bases": SubspaceOperator(CircleSymbol(0, U, V), twoface,
                                           image),
        # the weight |n| vanishes on the mode-0 columns
        "order_one": SubspaceOperator(CircleSymbol(1, U, -V), full, full),
        "lower_order_term": SubspaceOperator(
            CircleSymbol(0, U, V), full, full).with_lower_order(lower),
        "hardy_shifts": SubspaceOperator(identity_symbol(1), hardy_subspace(2),
                                         hardy_subspace(-3)),
        "zero_source": SubspaceOperator(CircleSymbol(0, U, V),
                                        zero_subspace(3), image),
        "zero_target": SubspaceOperator(CircleSymbol(0, U, V), twoface,
                                        zero_subspace(3)),
    }


@pytest.mark.parametrize("case", sorted(_per_mode_cases()))
def test_block_diagonal_sections_are_counted_per_mode(case, monkeypatch):
    # each mode's rank enters its kernel and its cokernel count alike, so
    # the index is the bulk column count of the source less the target's
    op = _per_mode_cases()[case]
    assert max(t.degree for t in op.symbol.terms) == 0
    want = _unfiltered_dense_index(op, 16)
    monkeypatch.setattr(indexing, "_banded_near_null", _no_solver)
    monkeypatch.setattr(indexing, "_dense_near_null", _no_solver)
    monkeypatch.setattr(indexing, "quantize", _no_solver)
    assert indexing._filtered_index_once(op, 16) == want
    if case == "hardy_shifts":  # modes -3 .. 1 are the cokernel
        assert want == -5


@pytest.mark.parametrize("case", ["degree_one", "band_one"])
def test_a_degree_or_band_above_zero_still_reaches_a_solver(case,
                                                            monkeypatch):
    if case == "degree_one":
        op, N = _banded_cases()["no_near_null"]
    else:  # a constant symbol between frame realizations
        mob = mobius_subspace()
        op, N = SubspaceOperator(identity_symbol(2), mob, mob), 16
    calls = _count_dense(monkeypatch)
    seen = _banded_sections(monkeypatch)
    assert indexing._filtered_index_once(op, N) == 0
    assert len(calls) + len(seen) >= 1


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=1),
       st.integers(min_value=4, max_value=12),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_degree_zero_sections_match_the_dense_index(r1, r2, order, N,
                                                           seed):
    # arbitrary face ranks on either side and a generic (not elliptic)
    # symbol: the count must still be the dense index, mode by mode
    rng = np.random.default_rng(seed)

    def side(r):
        return two_face_subspace(*(
            _random_projection(rng, r, int(rng.integers(0, r + 1)))
            for _ in range(2)))

    def face():
        return rng.standard_normal((r2, r1)) \
            + 1j * rng.standard_normal((r2, r1))

    op = SubspaceOperator(CircleSymbol(order, face(), face()), side(r1),
                          side(r2))
    want = _unfiltered_dense_index(op, N)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(indexing, "_banded_near_null", _no_solver)
        m.setattr(indexing, "_dense_near_null", _no_solver)
        assert indexing._filtered_index_once(op, N) == want


def _lift_operators(L):
    # the lift sigma : L -> C^q and the twisted second lift, as d(L) takes
    # them, with the truncation it takes them at
    sigma = lift_symbol(L)
    N = indexing._fitting_n(16, sigma.degree + L.symbol.degree + 1)
    target = full_subspace(sigma.rows)
    return N, [SubspaceOperator(s, L, target) for s in
               (sigma, indexing._twist_symbol(sigma.rows) @ sigma)]


def _sorted_dense(real):
    # the basis with its columns in the kernel's order: by lowest mode, a
    # selection by coordinate
    key = real.modes if real.select is None else real.select
    return real.basis[:, np.argsort(key, kind="stable")]


def _random_symbol(rows, cols, degree):
    rng = rng_for(7, "section")
    return CircleSymbol(0, *(TrigPolyMatrix(
        {k: rng.standard_normal((rows, cols)) for k in range(-degree,
                                                             degree + 1)})
        for _ in range(2)))


def _section_cases():
    # sections the kernel assembles from mode groups, as (op, N)
    mob, gap = mobius_subspace(), PdoSubspace(mobius_symbol())
    conj = conjugate_subspace(trivial_subspace(2, 1),
                              phase_diag_loop((1, -1)), name="conj")
    mixed = mob.direct_sum(puncture(trivial_subspace(2, 1)))  # fiber 4
    cases = {f"lift_{name}{i}": (op, N)
             for name, L in (("mobius", mob), ("conjugate", conj),
                             ("puncture", puncture(mob)),
                             ("sum", mixed))
             for N, ops in [_lift_operators(L)] for i, op in enumerate(ops)}
    for name, source, target, degree in (
            ("coordinate_into_conjugate", full_subspace(2), conj, 2),
            ("conjugate_into_mobius", conj, mob, 1),
            ("bare_source", gap, mob, 1),
            ("bare_target", mob, gap, 1),
            ("bare_both", gap, gap, 0),
            ("fiber_2_into_4", mob, mixed, 2),
            ("fiber_4_into_2", mixed, conj, 1),
            ("fiber_1_into_3", full_subspace(1),
             mob.direct_sum(full_subspace(1)), 1)):
        sym = _random_symbol(target.fiber, source.fiber, degree)
        cases[name] = SubspaceOperator(sym, source, target), 16
    return cases


@pytest.mark.parametrize("case", sorted(_section_cases()))
def test_the_grouped_section_is_the_dense_compression(case):
    op, N = _section_cases()[case]
    src, tgt = op.source.realize(N), op.target.realize(N)
    A = quantize(op.symbol, N).matrix
    T = indexing._local_section(A, src, tgt,
                                max(t.degree for t in op.symbol.terms))
    want = _sorted_dense(tgt).conj().T @ A @ _sorted_dense(src)
    np.testing.assert_allclose(T, want, rtol=0, atol=1e-13)


def test_the_section_groups_cover_the_cases():
    # bare sides on either end, unequal fibers, and columns of two bands
    # and group sizes on one mode
    cases = _section_cases()
    op, N = cases["bare_source"]
    assert op.source.realize(N).band == 2 * N
    assert op.target.realize(N).band == 1
    op, N = cases["fiber_2_into_4"]
    groups = op.target.realize(N)._by_mode
    assert (op.source.fiber, groups.fiber) == (2, 4)
    sizes = (groups.pos < op.target.rank(N)).sum(axis=1)
    assert len(set(sizes.tolist())) > 1
    op, N = cases["lift_conjugate0"]
    assert op.target.realize(N).select is not None
    assert op.source.realize(N).band >= 2


def test_a_lift_section_never_builds_the_coordinate_basis():
    # the coordinate target C^q is read from its selection
    N, (op, _) = _lift_operators(mobius_subspace())
    tgt = op.target.realize(N)
    assert tgt.select is not None and op.source.realize(N).band == 1
    indexing._filtered_index_once(op, N)
    assert "basis" not in vars(tgt)


def test_lift_doubles_are_degree_zero_and_counted_per_mode(monkeypatch):
    # a lift over the circle has equal faces, so its parity double
    # (alpha* sigma)^-1 sigma (+) (1 - p) is the identity, which the fit
    # trims to degree 0 and the kernel counts per mode: index 0
    suite = dict(even_subspace_suite(1914))
    spaces = [suite["trivial_plane"], suite["conjugated_0"]]
    spaces += [orthocomplement(L) for L in spaces]
    doubles = [build_parity_double(op) for L in spaces
               for op in _lift_operators(L)[1]]
    want = [_unfiltered_dense_index(dbl, 16) for dbl in doubles]
    monkeypatch.setattr(indexing, "_banded_near_null", _no_solver)
    monkeypatch.setattr(indexing, "_dense_near_null", _no_solver)
    for dbl, ind in zip(doubles, want):
        assert dbl.symbol.principal.degree == 0
        assert indexing._filtered_index_once(dbl, 16) == ind == 0


@pytest.mark.parametrize("seed", [1914, 2718])
def test_d_is_the_general_formula_on_the_suite_lifts(seed):
    # the general formula ind sigma - (1/2) ind double(sigma), on the lift
    # and on its twist, is the d(L) that takes the lift's index alone
    half = DyadicRational(1, 1)
    suite = [L for _, L in even_subspace_suite(seed)]
    for L in suite + [orthocomplement(L) for L in suite]:
        d = dimension_functional(L)
        N, ops = _lift_operators(L)
        for op in ops:
            general = DyadicRational.from_integer(analytic_index(op, N=N)) \
                - half * DyadicRational.from_integer(
                    analytic_index(build_parity_double(op), N=N))
            assert general == d, L.name


def test_a_lift_with_unequal_faces_is_refused(monkeypatch):
    # its parity double is no longer the identity, and d(L) would need it
    L = full_subspace(1)
    one = constant_trig(np.eye(1))
    skewed = CircleSymbol(0, one, _loop(1))
    monkeypatch.setattr(indexing, "lift_symbol", lambda L: skewed)
    with pytest.raises(ParityError, match="equal faces"):
        dimension_functional(L)
    assert L._dims == {}


@pytest.mark.parametrize("name", ["half_spin_row", "mobius_twist"])
@pytest.mark.parametrize("N", [16, 32])
def test_small_frame_sections_match_the_ambient_dense_index(name, N,
                                                            monkeypatch):
    # below the banded solve's size a frame section goes to the dense SVD,
    # and its kernel is counted in ambient coordinates; the plain B2* A B1
    # route must give the same index
    op = dict(index_formula_suite())[name]
    assert op.source.realize(N).band == 1
    calls = _count_dense(monkeypatch)
    got = indexing._filtered_index_once(op, N)
    assert len(calls) == 1 and min(calls[0]) < indexing._DENSE_BELOW
    assert got == _unfiltered_dense_index(op, N)


def test_wide_margins_make_no_large_svd(monkeypatch):
    # a fiber-8 full-space element whose sections have fewer than 16
    # near-null directions a side, so every Ritz block stays 16 wide
    op = modn_element_suite(1914, 8, count=2)[1][1].operator
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    calls = _count_dense(monkeypatch)
    analytic_index(op, N=48)
    assert calls == [] and shapes
    assert max(max(sh) for sh in shapes) <= 16


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_gohberg_krein_on_rank_r_hardy(r, factors, seed):
    # ind T(a) = -wind det a for an invertible matrix loop a compressed to
    # the rank-r Hardy space; the sign is fixed by the scalar shift
    assert analytic_index(toeplitz_operator(1), N=16) == -winding_number(
        _loop(1))
    rng = np.random.default_rng(seed)
    a = constant_trig(haar_unitary(rng, r))
    for _ in range(factors):
        a = a @ phase_diag_loop(rng.integers(-2, 3, r), haar_unitary(rng, r),
                                haar_unitary(rng, r))
    hardy = two_face_subspace(np.eye(r), np.zeros((r, r)))
    op = SubspaceOperator(CircleSymbol(0, a, a), hardy, hardy)
    N = max(2 * a.degree + 1, -(-160 // r))  # a side of 160: banded
    assert hardy.realize(N).select is not None
    assert analytic_index(op, N=N) == -winding_number(a)


_NO_MASKED_ARRAYS = """
import sys
import numpy as np
from etaforge import indexing
from etaforge.core import TrigPolyMatrix
from etaforge.indexing import SubspaceOperator
from etaforge.subspaces import hardy_subspace, orthocomplement
from etaforge.symbols import CircleSymbol
banded = []
solve = indexing._banded_near_null

def counted(*args):
    banded.append(solve(*args))
    return banded[-1]

indexing._banded_near_null = counted
loop = TrigPolyMatrix({2: np.eye(1)})
hardy = hardy_subspace()
op = SubspaceOperator(CircleSymbol(0, loop, loop), hardy, hardy)
assert indexing._filtered_index_once(op, 200) == -2
assert len(banded) == 1 and banded[0] is not None
assert orthocomplement(hardy).realize(8).select is not None
print("numpy.ma" in sys.modules)
"""


def test_a_banded_section_and_a_coordinate_complement_import_no_numpy_ma():
    # np.unique and np.setdiff1d import numpy.ma on their first call, a
    # cost that would land inside the first timed check; the column blocks
    # and the complement of coordinates use masks
    src = str(pathlib.Path(etaforge.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_package_imports_only_numpy_and_the_stdlib():
    # numpy is the one declared runtime dependency; scipy and the test
    # tools are installed here, so a stray import would still run
    allowed = set(sys.stdlib_module_names) | {"numpy", "etaforge"}
    paths = sorted(pathlib.Path(etaforge.__file__).parent.glob("*.py"))
    hits = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{n}" for n in names
                     if n.split(".")[0] not in allowed]
    assert hits == []
