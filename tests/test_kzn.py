"""Mod-n index theory on the circle: K-classes, the gamma path, winding
data, the direct image, and symbol-side decompositions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from etaforge import kzn
from etaforge.core import TrigPolyMatrix, winding_number
from etaforge.eta import dimension_functional
from etaforge.kzn import (EllZnElement, KClassZn, _pair_rotation,
                          antipodal_action_check, antipodal_element,
                          beta_symbol, bockstein,
                          difference_construction_zn, direct_image_s1,
                          fractional_eta_topological, gamma_trivialization,
                          inverse_row_decomposition, mod_n_analytic_index,
                          n_fold, normal_form, reduction_mod_n, shift_element,
                          winding_datum)
from etaforge.subspaces import (full_subspace, mobius_subspace, puncture,
                                trivial_subspace)
from etaforge.suites import modn_element_suite

MODULI = (2, 3, 4, 8)


# -------------------------------------------------------------- K-classes


def test_torsion_is_normalized():
    assert KClassZn(4, 2, -3).torsion_part == 1
    assert KClassZn(4, 2, 9).torsion_part == 1


def test_mismatched_moduli_rejected():
    with pytest.raises(ValueError):
        KClassZn(3, 0, 1) + KClassZn(4, 0, 1)


@given(st.integers(min_value=2, max_value=12),
       st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_class_group_laws(n, a, b, c, d):
    x, y = KClassZn(n, a, b), KClassZn(n, c, d)
    s = x + y
    assert (s.free_part, s.torsion_part) == (a + c, (b + d) % n)
    z = x - x
    assert (z.free_part, z.torsion_part) == (0, 0)


@given(st.integers(-100, 100), st.integers(min_value=2, max_value=9))
def test_bockstein_kills_reductions(x, n):
    assert bockstein(reduction_mod_n(x, n)) == 0


def test_bockstein_detects_unreduced():
    assert bockstein(KClassZn(5, 2, 4)) == 3


# ------------------------------------------------------------- gamma path


@pytest.mark.parametrize("n", MODULI)
def test_gamma_endpoints_and_winding(n):
    path = gamma_trivialization(n)
    assert len(path) == 11
    assert all(winding_number(s) == n for s in path)
    bott = TrigPolyMatrix({1: np.eye(n, dtype=complex)})
    assert (path[0] - bott).max_abs() < 1e-12
    e00 = np.zeros((n, n), dtype=complex)
    e00[0, 0] = 1.0
    twisted = TrigPolyMatrix({n: e00, 0: np.eye(n) - e00})
    assert (path[-1] - twisted).max_abs() == 0.0


def test_gamma_path_is_continuous():
    path = gamma_trivialization(3, steps=60)
    gaps = [(b - a).max_abs() for a, b in zip(path, path[1:])]
    assert max(gaps) < 0.2


def test_gamma_degenerate_modulus():
    path = gamma_trivialization(1, steps=4)
    assert all(winding_number(s) == 1 for s in path)


# ------------------------------------------------------ elements and data


def test_element_validation():
    el = shift_element(3)
    assert el.operator.source.fiber == 3
    with pytest.raises(ValueError):
        EllZnElement(3, el.operator, (full_subspace(2),), (full_subspace(1),))


def test_shift_datum():
    assert winding_datum(shift_element(4)) == 1
    assert winding_datum(shift_element(3, 5)) == 2


def test_beta_datum_dies():
    # n full twists trivialize over the mod-n space
    for n in MODULI:
        assert winding_datum(beta_symbol(n)) == 0


def test_n_fold_fiber():
    assert n_fold(trivial_subspace(2, 1), 3).fiber == 6


def test_datum_is_additive_under_composition():
    suite = modn_element_suite(1914, 3, count=4)
    e0, e1 = suite[0][1], suite[1][1]
    comp = EllZnElement(3, e0.operator.compose(e1.operator),
                        e1.source_bases, e0.target_bases)
    assert winding_datum(comp) == \
        (winding_datum(e0) + winding_datum(e1)) % 3


def test_antipodal_negates_datum():
    el = shift_element(4)
    assert winding_datum(antipodal_element(el)) == 3
    for n in (2, 3):
        for _, el in modn_element_suite(7, n, count=3):
            assert antipodal_action_check(el)


# --------------------------------------------------- index mod n, theorem


@pytest.mark.parametrize("n", [2, 3])
def test_index_equals_direct_image_of_symbol_class(n):
    for name, el in modn_element_suite(1914, n, count=4):
        lhs = mod_n_analytic_index(el)
        rhs = direct_image_s1(difference_construction_zn(el))
        assert lhs == rhs, name


def test_mod_n_index_raises_n_to_fit_the_element():
    # N=2 quantizes no degree-1 symbol; the index is taken at the smallest
    # N that fits the operator and its subspaces, and reads as at N=12
    for n in (2, 3):
        for name, el in modn_element_suite(1914, n, count=2):
            assert mod_n_analytic_index(el, N=2) == \
                mod_n_analytic_index(el, N=12), name


def test_direct_image_calibration():
    # the closed-form sign (ind T_a = -wind a) agrees with the analytic
    # index of the shift generator, computed independently
    for n in MODULI:
        el = shift_element(n)
        c = difference_construction_zn(el)
        assert direct_image_s1(c) == mod_n_analytic_index(el)


def test_a_negated_analytic_index_fails_the_mod_n_theorem(monkeypatch):
    # the topological side takes no sign from the analytic side, so a sign
    # error confined to the mod-n path fails a theorem comparison for some
    # n > 2 (for n = 2 a sign is invisible)
    index = kzn.analytic_index

    def theorem_misses():
        return [name for n in (3, 4)
                for name, el in modn_element_suite(1914, n, count=4)
                if mod_n_analytic_index(el)
                != direct_image_s1(difference_construction_zn(el))]

    with monkeypatch.context() as m:
        m.setattr(kzn, "analytic_index", lambda op, N: -index(op, N=N))
        assert theorem_misses()
    assert theorem_misses() == []


def test_the_mod_n_theorem_holds_on_antipodal_elements():
    # alpha* of each base and n-fold sum is built from its parts' images,
    # so framed elements over the Mobius line satisfy the theorem too
    for seed in (1914, 2718, 5):
        for n in (2, 3, 4):
            for name, el in modn_element_suite(seed, n, count=6):
                a = antipodal_element(el)
                assert mod_n_analytic_index(a) == \
                    direct_image_s1(difference_construction_zn(a)), \
                    (seed, name)


@pytest.mark.parametrize("n", MODULI)
def test_every_residue_is_the_index_of_a_shift(n):
    # the mod-n group is hit: diag(z^r, 1, ..., 1) has index -r mod n, so
    # over r = 0 .. n-1 the theorem's two sides take every residue
    got = set()
    for r in range(n):
        el = shift_element(n, r)
        index = mod_n_analytic_index(el)
        assert index == direct_image_s1(difference_construction_zn(el)), r
        got.add(index)
    assert got == set(range(n))


@pytest.mark.parametrize("n", MODULI)
def test_the_mod_n_index_of_a_direct_sum_adds(n):
    # two framed elements on n-fold sums, summed: the sum's n-fold sums of
    # bases are grouped from their summands' groups, and its index is the
    # sum of the residues, as the theorem's symbol side says
    suite = modn_element_suite(1914, n, count=6)
    (_, a), (_, b) = suite[2], suite[5]
    el = EllZnElement(n, a.operator.direct_sum(b.operator),
                      a.source_bases + b.source_bases,
                      a.target_bases + b.target_bases)
    want = (mod_n_analytic_index(a) + mod_n_analytic_index(b)) % n
    assert mod_n_analytic_index(el) == want
    assert direct_image_s1(difference_construction_zn(el)) == want


def test_direct_image_is_linear():
    a, b = KClassZn(5, 0, 2), KClassZn(5, 0, 4)
    assert direct_image_s1(a + b) == \
        (direct_image_s1(a) + direct_image_s1(b)) % 5


# ------------------------------------------------------------ normal form


def test_normal_form_preserves_index_and_datum():
    el = modn_element_suite(1914, 2, count=1)[0][1]
    nf = normal_form(el)
    assert winding_datum(nf) == winding_datum(el)
    assert mod_n_analytic_index(nf) == mod_n_analytic_index(el)
    # target is rebuilt from constant standard pieces
    assert all(b.symbol.degree == 0 for b in nf.target_bases)


def test_pair_rotation_is_the_quarter_turn_block():
    # [[P, Q], [-Q, P]] with Q = 1 - P, for a nonconstant face P
    P = mobius_subspace().symbol.plus
    xs = np.linspace(0.0, 2 * np.pi, 11, endpoint=False)
    p = P(xs)
    q = np.eye(2) - p
    want = np.block([[p, q], [-q, p]])
    rot = _pair_rotation(P)
    assert rot.degree == P.degree
    np.testing.assert_allclose(rot(xs), want, atol=1e-14)


def test_normal_form_computes_no_index(monkeypatch):
    # normal_form only builds; comparing the indices is its callers' job
    el = modn_element_suite(1914, 2, count=1)[0][1]

    def no_index(*args, **kwargs):
        raise AssertionError("normal_form computed an index")

    with monkeypatch.context() as m:
        m.setattr("etaforge.kzn.analytic_index", no_index)
        nf = normal_form(el)
    assert mod_n_analytic_index(nf) == mod_n_analytic_index(el)


# ------------------------------------------- symbol-side fractional parts


@pytest.mark.parametrize("make", [mobius_subspace,
                                  lambda: puncture(trivial_subspace(2, 1))])
def test_fractional_eta_matches_dimension_functional(make):
    L = make()
    top = fractional_eta_topological(L)
    assert top == dimension_functional(L).fractional_part()


def test_fractional_eta_halfinteger_doubles_to_zero():
    L = mobius_subspace()
    d = fractional_eta_topological(L)
    assert str((d + d).fractional_part()) == "0"


# ------------------------------------------------------- decompositions


@pytest.mark.parametrize("make", [lambda: trivial_subspace(2, 1),
                                  mobius_subspace])
def test_inverse_row_decomposition_recovers_projection(make):
    L = make()
    rd = inverse_row_decomposition(L)
    xs = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)
    for sign in (+1, -1):
        q = rd.projector.face(sign)(xs)
        p = L.symbol.face(sign)(xs)
        assert np.abs(q @ q - q).max() < 1e-10
        assert np.abs(q - p).max() < 1e-10
