import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaforge.core import (TrigFitError, TrigPolyMatrix, constant_trig,
                           fit_trig_poly, polar_unitary, stable_rank,
                           trig_blockdiag, winding_number)

RNG = np.random.default_rng(42)


def random_trig(rng, rows, cols, degree):
    c = rng.standard_normal((2 * degree + 1, rows, cols)) \
        + 1j * rng.standard_normal((2 * degree + 1, rows, cols))
    return TrigPolyMatrix(c)


def test_constant_eval():
    m = constant_trig(np.diag([1.0, 2.0]))
    xs = np.linspace(0, 2 * np.pi, 5)
    vals = m(xs)
    assert vals.shape == (5, 2, 2)
    np.testing.assert_allclose(
        vals, np.broadcast_to(np.diag([1.0, 2.0]), (5, 2, 2)))


def test_coeff_roundtrip():
    a = random_trig(RNG, 2, 3, 2)
    tab = a.coeff_table()
    b = TrigPolyMatrix(tab)
    xs = np.linspace(0, 2 * np.pi, 9)
    np.testing.assert_allclose(a(xs), b(xs), atol=1e-14)


def test_product_matches_pointwise():
    a = random_trig(RNG, 2, 2, 2)
    b = random_trig(RNG, 2, 2, 3)
    xs = np.linspace(0, 2 * np.pi, 33, endpoint=False)
    lhs = (a @ b)(xs)
    rhs = np.einsum("gab,gbc->gac", a(xs), b(xs))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_conj_transpose_is_pointwise_adjoint():
    a = random_trig(RNG, 3, 2, 2)
    xs = np.linspace(0, 2 * np.pi, 17)
    np.testing.assert_allclose(
        a.conj_transpose()(xs),
        np.conj(np.swapaxes(a(xs), 1, 2)), atol=1e-13)


def test_derivative():
    # d/dx e^{ikx} = ik e^{ikx}
    a = TrigPolyMatrix({2: np.eye(1), -1: 3.0 * np.eye(1)})
    xs = np.linspace(0, 2 * np.pi, 11)
    expect = 2j * np.exp(2j * xs) - 3j * np.exp(-1j * xs)
    np.testing.assert_allclose(a.derivative()(xs)[:, 0, 0], expect, atol=1e-13)


def test_trimmed_drops_tiny_coefficients():
    a = TrigPolyMatrix({0: np.eye(1), 5: 1e-16 * np.eye(1)})
    assert a.degree == 5
    assert a.trimmed().degree == 0


def test_value_equality_and_hash():
    a = TrigPolyMatrix({-1: np.array([[1.0, 2j]]), 1: np.array([[0.5, 0.0]])})
    b = TrigPolyMatrix(np.array([[[1.0, 2j]], [[0.0, 0.0]], [[0.5, 0.0]]]))
    assert a == b and hash(a) == hash(b)
    t = b.coeff_table().copy()
    t[1, 0, 0] = complex(-0.0, 0.0)
    assert np.array_equal(t, b.coeff_table())
    assert TrigPolyMatrix(t) != b


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3))
def test_fit_recovers_trig_polynomials(degree, dim):
    rng = np.random.default_rng(degree * 7 + dim)
    a = random_trig(rng, dim, dim, degree)
    fitted = fit_trig_poly(lambda xs: a(xs))
    xs = np.linspace(0, 2 * np.pi, 41)
    np.testing.assert_allclose(fitted(xs), a(xs), atol=1e-9)


def test_fit_rejects_non_trig():
    # |sin x| has a kink: no finite Fourier polynomial fits it
    with pytest.raises(TrigFitError):
        fit_trig_poly(lambda xs: np.abs(np.sin(xs))[:, None, None], cap=256)


def test_polar_unitary():
    m = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    u = polar_unitary(m)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    # polar factor of a unitary is itself
    np.testing.assert_allclose(polar_unitary(u), u, atol=1e-12)


def test_stable_rank():
    m = np.diag([1.0, 1e-3, 1e-14])
    assert stable_rank(m) == 2
    assert stable_rank(np.zeros((3, 2))) == 0


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 5])
def test_winding_of_powers(k):
    loop = TrigPolyMatrix({k: np.eye(1)})
    assert winding_number(loop) == k


def test_winding_of_product_adds():
    a = TrigPolyMatrix({1: np.eye(2) * 0.9 + 0.1 * np.ones((2, 2)),
                        0: 0.3 * np.eye(2)})
    b = TrigPolyMatrix({-2: np.eye(2)})
    wa, wb = winding_number(a), winding_number(b)
    assert winding_number(a @ b) == wa + wb


def test_trig_blockdiag():
    a = random_trig(RNG, 2, 2, 1)
    blk = trig_blockdiag([a, constant_trig(np.eye(1))])
    xs = np.linspace(0, 2 * np.pi, 7)
    v = blk(xs)
    assert v.shape == (7, 3, 3)
    np.testing.assert_allclose(v[:, :2, :2], a(xs), atol=1e-13)
    np.testing.assert_allclose(v[:, 2, 2], 1.0, atol=1e-13)
    np.testing.assert_allclose(v[:, :2, 2], 0.0, atol=1e-13)
