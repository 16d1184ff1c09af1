"""Twisted signature family on the 3-torus."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from etaforge.eta import SpectrumModel, eta_closed_form
from etaforge.torus import (FormSpectrum, TwistCharacter, gilkey_eta,
                            gilkey_symbol, symbol_projection, t3_spectrum)


def test_twist_reduces_mod_one():
    t = TwistCharacter((1.25, -0.5, 3.0))
    assert t.components == (0.25, 0.5, 0.0)
    assert TwistCharacter.trivial().components == (0.0, 0.0, 0.0)


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
    # each point q of the enumeration carries +q with multiplicity 1 and
    # -q with 2 in the lattice model
    sp = t3_spectrum(R=8)
    pairs = SpectrumModel.lattice3_quadratic(cutoff=8).eigenvalues()
    qs = sp.values.tolist()
    assert [p for p in pairs if p[0] > 0] == [(q, 1) for q in qs]
    assert [p for p in pairs if p[0] < 0] == [(-q, 2) for q in qs]


def test_kernel_gate():
    with pytest.raises(ValueError):
        FormSpectrum(R=1.0, points=np.zeros((0, 3), dtype=np.int64),
                     values=np.zeros(0), kernel_dim=1)


def test_spectrum_model_matches_lattice_enumeration():
    # the lattice model holds the enumerated levels bit for bit: each q
    # once as +q and once as -q, and the same kernel
    for theta in ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.1, 0.9, 0.25)):
        sp = t3_spectrum(TwistCharacter(theta), R=8)
        m = SpectrumModel.lattice3_quadratic(theta, cutoff=8)
        assert m.kernel_dim == sp.kernel_dim
        assert np.sort(m.lam[m.lam > 0]).tobytes() == sp.values.tobytes()
        assert m.lam.size == 2 * sp.values.size


@pytest.mark.parametrize("theta, eta", [(None, 4.0), ((0.5, 0.0, 0.0), 0.0)])
def test_spectrum_model_closed_form_follows_the_twist(theta, eta):
    twist = TwistCharacter.trivial() if theta is None else TwistCharacter(theta)
    got = eta_closed_form(
        SpectrumModel.lattice3_quadratic(twist.components, cutoff=8))
    assert got.value == eta
    assert got.kernel_dim == t3_spectrum(twist, R=8).kernel_dim


@pytest.mark.parametrize("R", [-1.0, float("nan"), float("inf"), True,
                               np.True_, "1.5", 1.5 + 0j],
                         ids=["neg", "nan", "inf", "bool", "np-bool", "str",
                              "complex"])
def test_a_lattice_radius_is_checked_where_it_enters(R):
    # -1.0 used to return no points and kernel_dim 3 (the zero mode passed
    # q <= R*R), nan and inf failed deep in int(ceil(...))
    with pytest.raises(ValueError, match="radius"):
        t3_spectrum(R=R)


@pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), True])
def test_a_lattice_model_cutoff_is_checked_as_a_radius(cutoff):
    # nan used to slip past the cutoff < 8 floor
    with pytest.raises(ValueError, match="radius"):
        SpectrumModel.lattice3_quadratic(cutoff=cutoff)


def test_integer_and_numpy_radii_enumerate_as_floats():
    ref = t3_spectrum(R=9.0)
    for R in (9, np.int64(9), np.float64(9.0)):
        sp = t3_spectrum(R=R)
        assert np.array_equal(sp.points, ref.points)
        assert np.array_equal(sp.values.view(np.int64),
                              ref.values.view(np.int64))
    assert t3_spectrum(R=0).kernel_dim == 3
    assert len(t3_spectrum(R=0.0).points) == 0


def test_gilkey_eta_untwisted():
    g = gilkey_eta()
    assert g.value == 4
    assert abs(g.numeric.value - g.closed.value) < 1e-2


def test_gilkey_eta_half_twist():
    g = gilkey_eta(TwistCharacter((0.5, 0.5, 0.5)))
    assert g.value == 0
    assert g.numeric.kernel_dim == 0
    band = max(1e-2, 3.0 * g.numeric.error_estimate)
    assert abs(g.numeric.value - g.closed.value) <= band
