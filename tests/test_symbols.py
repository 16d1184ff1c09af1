import numpy as np
import pytest

from etaforge.core import TrigPolyMatrix, constant_trig
from etaforge.subspaces import mobius_symbol
from etaforge.symbols import (CircleSymbol, FullSymbol, _range_basis,
                              antipodal_pullback, classify_parity, dump_symbol,
                              ellipticity_check, identity_symbol, load_symbol,
                              mode_labels, quantize)


def test_constant_face_promotion():
    s = CircleSymbol(1, np.eye(2), -np.eye(2))
    assert s.rows == s.rank == 2
    assert s.degree == 0
    xs = np.array([0.0, 1.0])
    np.testing.assert_allclose(s.face(-1)(xs)[0], -np.eye(2))


def test_identity_symbol():
    s = identity_symbol(3)
    assert s.order == 0
    xs = np.linspace(0, 2 * np.pi, 4)
    np.testing.assert_allclose(s.plus(xs)[2], np.eye(3), atol=1e-14)
    assert s.is_even()


def test_composition_orders_add():
    a = CircleSymbol(1, np.eye(1), -np.eye(1))
    b = CircleSymbol(2, 2 * np.eye(1), 2 * np.eye(1))
    c = a @ b
    assert c.order == 3
    assert c.face(-1).coeff(0)[0, 0] == -2


def test_direct_sum_blocks():
    a = identity_symbol(1)
    b = CircleSymbol(0, TrigPolyMatrix({1: np.eye(1)}),
                     TrigPolyMatrix({1: np.eye(1)}))
    c = a.direct_sum(b)
    assert c.rank == 2
    xs = np.array([0.3])
    v = c.plus(xs)[0]
    assert abs(v[0, 0] - 1) < 1e-14 and abs(v[1, 1] - np.exp(0.3j)) < 1e-14
    assert abs(v[0, 1]) == 0 and abs(v[1, 0]) == 0


def test_parity_classification():
    assert classify_parity(mobius_symbol()) == "Even"
    # odd: the two face subbundles sum directly to the fiber
    p = constant_trig(np.diag([1.0, 0.0]))
    m = constant_trig(np.diag([0.0, 1.0]))
    assert classify_parity(CircleSymbol(0, p, m)) == "Odd"
    # face ranks that cannot sum to the fiber dimension
    assert classify_parity(CircleSymbol(0, p, constant_trig(np.eye(2)))) \
        == "Neither"


def test_antipodal_pullback_is_involution():
    s = mobius_symbol()
    ss = antipodal_pullback(antipodal_pullback(s))
    xs = np.linspace(0, 2 * np.pi, 17)
    np.testing.assert_allclose(ss.plus(xs), s.plus(xs), atol=1e-14)
    np.testing.assert_allclose(ss.minus(xs), s.minus(xs), atol=1e-14)


def test_antipodal_swaps_faces():
    s = CircleSymbol(0, TrigPolyMatrix({1: np.eye(1)}), constant_trig(np.eye(1)))
    a = antipodal_pullback(s)
    xs = np.linspace(0, 2 * np.pi, 9)
    np.testing.assert_allclose(a.plus(xs), s.minus(xs), atol=1e-14)
    np.testing.assert_allclose(a.minus(xs), s.plus(xs), atol=1e-14)


def test_mode_labels():
    lab = mode_labels(2, 2)
    np.testing.assert_array_equal(lab, [2, 2, 1, 1, 0, 0, 1, 1, 2, 2])


def test_quantize_multiplication_shifts_modes():
    # order-0 symbol z acts as the mode shift n -> n+1 on the + side
    z = TrigPolyMatrix({1: np.eye(1)})
    s = CircleSymbol(0, z, constant_trig(np.eye(1)))
    N = 4
    M = quantize(s, N).matrix
    e = np.zeros(2 * N + 1)
    e[N + 1] = 1.0  # mode +1: plus face applies
    out = M @ e
    assert abs(out[N + 2] - 1.0) < 1e-14
    e0 = np.zeros(2 * N + 1)
    e0[N - 3] = 1.0  # mode -3: minus face (identity)
    np.testing.assert_allclose(M @ e0, e0, atol=1e-14)


def test_quantize_order_weights():
    s = CircleSymbol(1, np.eye(1), -np.eye(1))  # sign(xi) |xi|
    N = 5
    M = quantize(s, N).matrix
    d = np.real(np.diag(M))
    np.testing.assert_allclose(d, [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5],
                               atol=1e-14)


def _quantize_blockwise(full, N):
    # reference: the block-by-block triple loop quantize replaced
    lead = full.principal
    rows, cols = lead.rows, lead.rank
    modes = 2 * N + 1
    A = np.zeros((rows * modes, cols * modes), dtype=complex)
    for term in full.terms:
        for sign, rng in ((+1, range(0, N + 1)), (-1, range(-N, 0))):
            face = term.face(sign)
            table = face.coeff_table()
            d = face.degree
            for i in range(table.shape[0]):
                k = i - d
                block = table[i]
                if not np.any(block):
                    continue
                for n_src in rng:
                    if n_src == 0:
                        w = 1.0 if term.order <= 0 else 0.0
                    else:
                        w = float(abs(n_src)) ** term.order
                    if w == 0.0:
                        continue
                    n_dst = n_src + k
                    if -N <= n_dst <= N:
                        r0 = (n_dst + N) * rows
                        c0 = (n_src + N) * cols
                        A[r0:r0 + rows, c0:c0 + cols] += w * block
    return A


def _random_face(rng, rows, cols, degree, sparse=False):
    c = {k: rng.standard_normal((rows, cols))
         + 1j * rng.standard_normal((rows, cols))
         for k in range(-degree, degree + 1)}
    if sparse:  # a zero coefficient inside the band
        c[0] = np.zeros((rows, cols), dtype=complex)
    return TrigPolyMatrix(c)


@pytest.mark.parametrize("rows,cols,orders,N", [
    (1, 1, (0,), 5), (2, 2, (0, -1), 9), (3, 2, (1, 0, -1), 8),
    (2, 4, (-1, -2), 7), (3, 3, (2, 1), 11)])
def test_quantize_matches_the_blockwise_loop(rows, cols, orders, N):
    rng = np.random.default_rng(rows * 100 + cols * 10 + N)
    terms = [CircleSymbol(m, _random_face(rng, rows, cols, 2, sparse=i == 1),
                          _random_face(rng, rows, cols, 1 + i % 2))
             for i, m in enumerate(orders)]
    full = FullSymbol.of(*terms)
    got = quantize(full, N).matrix
    assert got.tobytes() == _quantize_blockwise(full, N).tobytes()


def test_quantize_rejects_small_truncation():
    s = CircleSymbol(0, TrigPolyMatrix({3: np.eye(1)}),
                     TrigPolyMatrix({3: np.eye(1)}))
    with pytest.raises(ValueError):
        quantize(s, 5)


def test_hermitian_quantization():
    s = CircleSymbol(1, np.eye(2), -np.eye(2))
    A = quantize(s, 6)
    assert A.is_hermitian()


def test_full_symbol_orders_strictly_decrease():
    a = CircleSymbol(1, np.eye(1), -np.eye(1))
    b = CircleSymbol(0, np.eye(1), np.eye(1))
    f = FullSymbol.of(a, b)
    assert f.order == 1
    with pytest.raises(ValueError):
        FullSymbol.of(a, a)


def test_ellipticity_check_full_space():
    from etaforge.subspaces import full_subspace
    g = full_subspace(1).symbol
    z = TrigPolyMatrix({1: np.eye(1)})
    assert ellipticity_check(CircleSymbol(0, z, z), g, g, 1e-8)
    zero = CircleSymbol(0, np.zeros((1, 1)), np.zeros((1, 1)))
    assert not ellipticity_check(zero, g, g, 1e-8)


def test_ellipticity_check_rank_mismatch_is_false():
    # Im L1 has rank 2 and Im L2 rank 1: no pointwise isomorphism exists
    from etaforge.subspaces import full_subspace, trivial_subspace
    assert ellipticity_check(identity_symbol(2), full_subspace(2).symbol,
                             trivial_subspace(2, 1).symbol) is False


def test_range_basis_is_the_per_sample_eigenvector_selection():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((10, 4, 4)) + 1j * rng.standard_normal((10, 4, 4))
    V = np.linalg.qr(Z)[0][:, :, :2]
    P = V @ np.conj(np.swapaxes(V, 1, 2))
    B = _range_basis(P)
    assert B.shape == (10, 4, 2)
    for j in range(10):
        w, U = np.linalg.eigh(P[j])
        assert np.array_equal(B[j], U[:, w > 0.5])
        assert np.array_equal(_range_basis(P[j]), U[:, w > 0.5])


def test_range_basis_of_zero_and_of_rank_varying_stacks():
    assert _range_basis(np.zeros((5, 3, 3))).shape == (5, 3, 0)
    assert _range_basis(np.zeros((3, 3))).shape == (3, 0)
    assert _range_basis(np.stack([np.diag([1.0, 0.0]), np.eye(2)])) is None


def test_dump_load_roundtrip_exact():
    for sym in (identity_symbol(2), mobius_symbol(),
                CircleSymbol(1, np.eye(1), -np.eye(1))):
        text = dump_symbol(sym)
        assert text.startswith("symbol.v1")
        back = load_symbol(text)
        assert back.order == sym.order
        assert (back.plus - sym.plus).max_abs() == 0.0
        assert (back.minus - sym.minus).max_abs() == 0.0
        assert dump_symbol(back) == text


def test_load_rejects_junk():
    with pytest.raises(ValueError):
        load_symbol("not a symbol\n")
