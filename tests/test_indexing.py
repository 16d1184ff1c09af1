"""Filtered analytic index: Toeplitz calibration, stability gates, the
parity double, and the defect-formula residual."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etaforge.core import EllipticityViolation, TrigPolyMatrix
from etaforge.indexing import (SubspaceOperator, analytic_index,
                               antipodal_subspace, build_parity_double,
                               index_formula_report)
from etaforge.subspaces import (UnstableIndexError, full_subspace,
                                hardy_subspace)
from etaforge.suites import (even_invertible_symbol, index_formula_suite,
                             perturbation_terms, rng_for, toeplitz_operator)
from etaforge.symbols import CircleSymbol


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


def test_noninvertible_symbol_is_rejected():
    loop = TrigPolyMatrix({0: -np.eye(1), 1: np.eye(1)})  # z - 1, zero at x=0
    op = SubspaceOperator(CircleSymbol(0, loop, loop),
                          full_subspace(1), full_subspace(1))
    assert not op.is_elliptic()
    with pytest.raises(EllipticityViolation):
        analytic_index(op, N=8)


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


# --------------------------------------------------------------- antipodal


def test_antipodal_subspace_reflects_modes():
    L = hardy_subspace()
    A = antipodal_subspace(L)
    N = 8
    b, fb = L.realize(N).basis, A.realize(N).basis
    assert np.allclose(fb, b[::-1])
    assert (A.symbol.plus - L.symbol.minus).max_abs() < 1e-14
    assert (A.symbol.minus - L.symbol.plus).max_abs() < 1e-14


def test_antipodal_is_an_involution():
    L = hardy_subspace(shift=2)
    back = antipodal_subspace(antipodal_subspace(L))
    N = 6
    assert np.allclose(back.realize(N).basis, L.realize(N).basis)
