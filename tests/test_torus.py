"""Twisted signature family on the 3-torus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etaforge.dyadic import DyadicRational
from etaforge.eta import SpectrumModel, eta_closed_form, eta_numeric
from etaforge.torus import (FormSpectrum, TwistCharacter, gilkey_eta,
                            gilkey_symbol, orientability_halfinteger_check,
                            symbol_projection, t3_spectrum)


def test_twist_reduces_mod_one():
    t = TwistCharacter((1.25, -0.5, 3.0))
    assert t.components == (0.25, 0.5, 0.0)
    assert not t.is_trivial
    assert TwistCharacter.trivial().is_trivial


def test_twist_needs_three_components():
    with pytest.raises(ValueError):
        TwistCharacter((0.5, 0.5))


def test_symbol_matrix_frozen():
    s = gilkey_symbol([1.0, 0.0, 0.0])
    assert np.allclose(s, np.diag([1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        gilkey_symbol([0.0, 0.0, 0.0])


@given(st.tuples(*[st.floats(min_value=-5, max_value=5) for _ in range(3)])
       .filter(lambda v: sum(x * x for x in v) > 0.01))
def test_symbol_eigenvalues(xi):
    # one-form symbol has +|xi|^2 along xi and -|xi|^2 on the plane
    q = sum(x * x for x in xi)
    w = np.linalg.eigvalsh(gilkey_symbol(xi))
    assert np.allclose(np.sort(w), [-q, -q, q], rtol=1e-10, atol=1e-12)


def test_symbol_projection_rank_one_along_xi():
    xi = np.array([1.0, 2.0, -1.0])
    P = symbol_projection(xi)
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.linalg.matrix_rank(P) == 1
    assert np.allclose(P @ xi, xi)


def test_spectrum_counts_untwisted():
    # |k|^2 <= 2.25 is hit by 1 + 6 + 12 lattice points
    sp = t3_spectrum(R=1.5)
    assert sp.kernel_dim == 3
    assert len(sp.points) == 18
    assert sp.points.shape == (18, 3)
    assert sp.values.tolist() == [1.0] * 6 + [2.0] * 12


def test_spectrum_counts_half_twist():
    sp = t3_spectrum(TwistCharacter((0.5, 0.0, 0.0)), R=1.5)
    assert sp.kernel_dim == 0
    assert len(sp.points) == 20


def test_spectrum_points_sorted():
    sp = t3_spectrum(R=1.5)
    keys = list(zip(sp.values.tolist(), map(tuple, sp.points.tolist())))
    assert keys == sorted(keys)


def test_entries_carry_signature_multiplicities():
    # each point q carries +q with multiplicity 1 and -q with 2
    sp = t3_spectrum(R=1.1)
    pairs = sp.spectrum_model().pairs
    qs = sp.values.tolist()
    assert [p for p in pairs if p[0] > 0] == [(q, 1) for q in qs]
    assert [p for p in pairs if p[0] < 0] == [(-q, 2) for q in qs]


def test_kernel_gate():
    with pytest.raises(ValueError):
        FormSpectrum(R=1.0, points=np.zeros((0, 3), dtype=np.int64),
                     values=np.zeros(0), kernel_dim=1)


def test_spectrum_model_matches_lattice_enumeration():
    # loop enumeration and the vectorized lattice model agree entry by entry
    from etaforge.eta import SpectrumModel
    a = t3_spectrum(R=8).spectrum_model()
    b = SpectrumModel.lattice3_quadratic((0.0, 0.0, 0.0), cutoff=8)
    assert a.kernel_dim == b.kernel_dim
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.mult, b.mult)


@pytest.mark.parametrize("theta, eta", [(None, 4.0), ((0.5, 0.0, 0.0), 0.0)])
def test_spectrum_model_closed_form_follows_the_twist(theta, eta):
    twist = None if theta is None else TwistCharacter(theta)
    got = eta_closed_form(t3_spectrum(twist, R=8).spectrum_model())
    ref = eta_closed_form(
        SpectrumModel.lattice3_quadratic(theta or (0.0, 0.0, 0.0), cutoff=8))
    assert got.value == eta
    assert repr(got) == repr(ref)


def test_gilkey_eta_untwisted():
    g = gilkey_eta()
    assert g.value == 4
    assert str(g.fractional) == "0"
    assert abs(g.numeric.value - g.closed.value) < 1e-2


def test_gilkey_eta_half_twist():
    g = gilkey_eta(TwistCharacter((0.5, 0.5, 0.5)))
    assert g.value == 0
    assert g.numeric.kernel_dim == 0
    band = max(1e-2, 3.0 * g.numeric.error_estimate)
    assert abs(g.numeric.value - g.closed.value) <= band


def test_halfinteger_check():
    assert orientability_halfinteger_check(DyadicRational(1, 1))
    assert orientability_halfinteger_check(DyadicRational(3, 0))
    assert not orientability_halfinteger_check(DyadicRational(3, 2))
    assert orientability_halfinteger_check(0.5)
    assert not orientability_halfinteger_check(0.3)
