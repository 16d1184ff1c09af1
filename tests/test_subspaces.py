import gc
import weakref

import numpy as np
import pytest

from etaforge import indexing, subspaces, suites
from etaforge.core import (TrigPolyMatrix, constant_trig, trig_blockdiag,
                           winding_number)
from etaforge.indexing import (SubspaceOperator, analytic_index,
                               dimension_functional)
from etaforge.kzn import (EllZnElement, antipodal_element,
                          fractional_eta_topological, n_fold, normal_form,
                          winding_datum)
from etaforge.subspaces import (ParityError, PdoSubspace, RealizationGapError,
                                SubspaceSymbol, antipodal_subspace,
                                conjugate_subspace, dump_subspace_csv,
                                face_frames, face_residual, full_subspace,
                                hardy_subspace, lift_symbol, mobius_subspace,
                                mobius_symbol, orthocomplement, puncture,
                                relative_index, rotation_homotopy,
                                rotation_unitary, spectral_subspace,
                                trivial_subspace, two_face_subspace,
                                zero_subspace)
from etaforge.suites import (even_invertible_symbol, even_subspace_suite,
                             haar_unitary, modn_element_suite,
                             phase_diag_loop, rng_for)
from etaforge.symbols import (CircleSymbol, _range_basis, identity_symbol,
                              quantize)


def test_subspace_symbol_validates_projection():
    not_proj = TrigPolyMatrix({0: np.array([[0.5, 0.5], [0.0, 0.5]])})
    with pytest.raises(ValueError):
        SubspaceSymbol(not_proj, not_proj)


def test_mobius_symbol_is_rotating_line():
    p = mobius_symbol()
    xs = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    v = np.stack([np.cos(xs / 2), np.sin(xs / 2)], axis=1)
    expect = np.einsum("ga,gb->gab", v, v)
    np.testing.assert_allclose(p.face(+1)(xs), expect, atol=1e-13)
    assert p.parity == "Even"
    assert _range_basis(p.face(+1)(xs)).shape[-1] == 1


def test_hardy_realization_is_nonnegative_modes():
    L = hardy_subspace()
    B = L.basis(6)
    assert B.shape == (13, 7)
    # columns are exactly the modes 0..6
    np.testing.assert_allclose(B, np.eye(13)[:, 6:], atol=1e-15)
    assert relative_index(L, L) == 0


def test_shifted_hardy():
    L2 = hardy_subspace(2)
    assert L2.rank(6) == 5
    assert relative_index(hardy_subspace(), L2, N=12) == 2


def test_a_bare_basis_is_the_band_2n_realization():
    # a basis given with no band may reach every mode: each column at
    # lowest mode 0 with band 2N, the gap realizer's and an SVD's alike
    N = 5
    rng = rng_for(3, "bare")
    B = np.linalg.qr(rng.standard_normal((2 * (2 * N + 1), 3)))[0]
    for real in (subspaces._bare(N, B, ()), subspaces._bare(N, B[:, :0], ()),
                 PdoSubspace(mobius_symbol()).realize(N)):
        assert real.band == 2 * N and real.select is None
        assert real.modes.tolist() == [0] * real.rank


def test_local_moves_column_sets_into_the_window():
    # a column set may start below mode 0 (a conjugate's image) or past
    # 2N - band (a narrow column widened by a join), zero outside the
    # window: _local moves each into the window, and the result equals,
    # byte for byte, the same columns given from inside it
    N, f, band = 4, 2, 3
    rng = rng_for(7, "clip")
    v = rng.standard_normal((3, 2 * f)) + 1j * rng.standard_normal((3, 2 * f))
    a, b, c = v / np.linalg.norm(v, axis=1, keepdims=True)
    z = np.zeros(2 * f)
    # a on the modes 0, 1; b on 2N - 1, 2N; c on 3, 4 (band 1)
    outside = [(np.array([-2, 2 * N - 1]), band,
                np.stack([np.concatenate([z, a]), np.concatenate([b, z])])),
               (np.array([3]), 1, c[None])]
    inside = [(np.array([0, 2 * N - band]), band,
               np.stack([np.concatenate([a, z]), np.concatenate([z, b])])),
              (np.array([3]), 1, c[None])]
    got, want = (subspaces._local(N, parts, f) for parts in (outside, inside))
    assert got.modes.tolist() == [0, 2 * N - band, 3] and got.band == band
    assert got.modes.tobytes() == want.modes.tobytes()
    assert got._digest == want._digest
    assert got.basis.tobytes() == want.basis.tobytes()
    assert np.array_equal(got.basis[:2 * f, 0], a)
    assert np.array_equal(got.basis[-2 * f:, 1], b)


def test_full_and_zero():
    assert full_subspace(2).rank(4) == 18
    assert zero_subspace(2).rank(4) == 0
    c = orthocomplement(full_subspace(1))
    assert c.rank(4) == 0
    # the exact bases the byte-stable reports rest on
    assert np.array_equal(full_subspace(2).basis(4), np.eye(2 * 9))
    assert np.array_equal(zero_subspace(2).basis(4), np.zeros((2 * 9, 0)))


def test_trivial_subspace_projection():
    L = trivial_subspace(3, 2)
    B = L.basis(4)
    P = B @ B.conj().T
    np.testing.assert_allclose(P @ P, P, atol=1e-13)
    assert L.rank(4) == 2 * 9
    assert np.array_equal(L.basis(4), np.kron(np.eye(9), np.eye(3)[:, :2]))


def test_coordinate_subspaces_record_their_selection():
    # the stock coordinate subspaces and direct sums of them keep the
    # selected coordinates; the basis built from them is the dense one
    # that summing embedded bases gives
    N = 4
    for L in (full_subspace(2), trivial_subspace(3, 2), hardy_subspace(2),
              zero_subspace(2), two_face_subspace(np.eye(2), np.zeros((2, 2))),
              hardy_subspace().direct_sum(trivial_subspace(3, 1))):
        real = L.realize(N)
        assert real.select is not None
        assert np.array_equal(real.basis,
                              np.eye(L.fiber * (2 * N + 1))[:, real.select])

    def embed(B, fiber, total, offset):
        # the summand's columns re-indexed into the sum's fiber, mode-major
        out = np.zeros((2 * N + 1, total, B.shape[1]), dtype=complex)
        out[:, offset:offset + fiber] = B.reshape(2 * N + 1, fiber, -1)
        return out.reshape(-1, B.shape[1])

    # a direct sum's basis is its summands' bases embedded, whether it is
    # a selection or mode groups
    a, b = hardy_subspace(1), trivial_subspace(2, 1)
    for x, y, want in ((a, b, True), (a, mobius_subspace(), False)):
        s = x.direct_sum(y)
        dense = np.concatenate([embed(x.basis(N), x.fiber, s.fiber, 0),
                                embed(y.basis(N), y.fiber, s.fiber, x.fiber)],
                               axis=1)
        assert np.array_equal(s.basis(N), dense)
        assert (s.realize(N).select is not None) == want
    assert a.direct_sum(b).rank(N) == 4 + 9
    assert mobius_subspace().direct_sum(full_subspace(1)).realize(N).select \
        is None
    # the complement of coordinates is the complementary coordinates
    c = orthocomplement(trivial_subspace(3, 2)).realize(N)
    assert np.array_equal(c.select, np.arange(2, 3 * (2 * N + 1), 3))
    # a two-face subspace with rotated faces is mode-local, not coordinate
    U = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
    real = two_face_subspace(U[:, :1] @ U[:, :1].T, np.eye(3)).realize(N)
    assert real.select is None
    np.testing.assert_array_equal(
        real.modes, np.repeat(np.arange(2 * N + 1), [3] * N + [1] * (N + 1)))
    mask = np.abs(real.basis) > 0
    assert np.all(mask.any(axis=0))
    assert all(set(np.flatnonzero(mask[:, j]) // 3) == {m}
               for j, m in enumerate(real.modes))


def test_realize_projection_gap_guard():
    # an eigenvalue stuck in the middle band means no spectral gap
    mid = constant_trig(0.6 * np.eye(1))
    sym = SubspaceSymbol(mid, mid, validate=False)
    with pytest.raises(RealizationGapError):
        PdoSubspace(sym).realize(8)


def test_mobius_realization_rank_deficit():
    # the twist costs one dimension against half the ambient space
    mob = mobius_subspace()
    for N in (8, 16):
        assert mob.rank(N) == (2 * N + 1) - 1
        assert orthocomplement(mob).rank(N) == (2 * N + 1) + 1


@pytest.mark.parametrize("N", [8, 24, 144])
def test_mobius_frame_realization_is_the_spectral_cut(N):
    # the shifts s e^{ikx} of the frame s = e^{ix/2} (cos x/2, sin x/2) span
    # the range of the gap realization, in an exactly orthonormal basis
    real = mobius_subspace().realize(N)
    B = real.basis
    assert np.array_equal(B.conj().T @ B, np.eye(2 * N))
    G = subspaces._gap_realization(mobius_symbol(), N).basis
    np.testing.assert_allclose(B @ B.conj().T, G @ G.conj().T,
                               rtol=0, atol=1e-14)
    # column k sits on the lowest mode k and the next one
    assert real.band == 1
    np.testing.assert_array_equal(real.modes, np.arange(2 * N))
    mask = np.abs(B) > 0
    assert all(set(np.flatnonzero(mask[:, j]) // 2) == {m, m + 1}
               for j, m in enumerate(real.modes))


def test_direct_sums_carry_the_widest_band():
    N = 6
    mob = mobius_subspace()
    for L, band in ((mob.direct_sum(full_subspace(1)), 1),
                    (trivial_subspace(3, 1).direct_sum(mob), 1),
                    (mob.direct_sum(mob).direct_sum(mob), 1),
                    (full_subspace(1).direct_sum(hardy_subspace()), 0)):
        real = L.realize(N)
        assert real.band == band
    # the Mobius complement is mode-local too: the shifts of the frame t
    # and one vector at each window edge
    comp = orthocomplement(mob).realize(N)
    assert comp.band == 1
    # a bare basis makes the sum band 2N, and every column's lowest mode
    # 0: a constant unitary conjugate of the sum then keeps every column
    L = PdoSubspace(mobius_symbol()).direct_sum(hardy_subspace())
    real = L.realize(N)
    assert real.band == 2 * N and not real.modes.any()
    H = np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2)
    conj = conjugate_subspace(L, constant_trig(H)).realize(N)
    assert conj.rank == real.rank and conj.warnings == real.warnings


def _modewise(N, Bp, Bm, cut=0):
    # the per-mode builder the shift realizer replaced, kept as its
    # reference: the columns of Bp on every mode n >= cut, those of Bm below
    blocks = [Bp if n >= cut else Bm for n in range(-N, N + 1)]
    r = Bp.shape[0]
    cp, cm = subspaces._coordinates(Bp), subspaces._coordinates(Bm)
    if cp is not None and cm is not None:
        sel = [m * r + (cp if n >= cut else cm)
               for m, n in enumerate(range(-N, N + 1))]
        return subspaces.SubspaceRealization(N, select=np.concatenate(sel),
                                             dim=r * len(blocks))
    modes = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
    return subspaces._local(N, [(modes, 0, np.concatenate(blocks, axis=1).T)],
                            r)


def _frame_shifts(frame, N):
    # the band-1 line-frame builder the shift realizer replaced, kept as
    # its reference: column k holds f_0 on mode k and f_1 on mode k + 1
    cols = np.tile(np.concatenate(frame), (2 * N, 1))
    return subspaces._local(N, [(np.arange(2 * N), 1, cols)], 2)


@pytest.mark.parametrize("N", [6, 8, 16, 24, 48])
def test_the_shift_realizer_matches_the_builders_it_replaced(N):
    # each base constructor's realization and recorded complement, byte
    # for byte: the selection, or the basis, its modes and its band
    rng = rng_for(1, "two_face")
    U, V = haar_unitary(rng, 3), haar_unitary(rng, 3)
    pp, pm = U[:, :1] @ U[:, :1].conj().T, V[:, :2] @ V[:, :2].conj().T
    eye3, eye1, none = np.eye(3), np.eye(1), np.zeros((1, 0))
    rb = _range_basis
    s = (np.array([0.5, 0.5j]), np.array([0.5, -0.5j]))
    t = (np.array([-0.5j, 0.5]), np.array([0.5j, 0.5]))
    cases = [(trivial_subspace(3, 2), _modewise(N, eye3[:, :2], eye3[:, :2]),
              _modewise(N, eye3[:, 2:], eye3[:, 2:])),
             (full_subspace(2), _modewise(N, np.eye(2), np.eye(2)),
              _modewise(N, np.zeros((2, 0)), np.zeros((2, 0)))),
             (zero_subspace(2), _modewise(N, np.zeros((2, 0)),
                                          np.zeros((2, 0))),
              _modewise(N, np.eye(2), np.eye(2))),
             (two_face_subspace(pp, pm), _modewise(N, rb(pp), rb(pm)),
              _modewise(N, rb(eye3 - pp), rb(eye3 - pm))),
             (mobius_subspace(), _frame_shifts(s, N), _frame_shifts(t, N))]
    cases += [(hardy_subspace(k), _modewise(N, eye1, none, cut=k),
               _modewise(N, none, eye1, cut=k)) for k in (-3, 0, 3)]
    for L, real, perp in cases:
        for got, want in ((L.realize(N), real), (L._perp(N), perp)):
            if want.select is not None:
                assert got.select.tobytes() == want.select.tobytes(), L.name
                continue
            assert got.select is None, L.name
            assert got.basis.tobytes() == want.basis.tobytes(), L.name
            assert got.modes.tobytes() == want.modes.tobytes(), L.name
            assert got.band == want.band, L.name


def test_realization_is_cached():
    mob = mobius_subspace()
    assert mob.realize(8) is mob.realize(8)
    assert mob.realized_truncations() == (8,)


def test_relative_index_requires_matching_symbols():
    with pytest.raises(ValueError):
        relative_index(hardy_subspace(), mobius_subspace())


def test_two_face_subspace_faces():
    pp = np.diag([1.0, 0.0])
    pm = np.diag([0.0, 1.0])
    L = two_face_subspace(pp, pm)
    assert L.symbol.parity == "Odd"
    B = L.basis(3)
    P = B @ B.conj().T
    np.testing.assert_allclose(P @ P, P, atol=1e-13)
    # positive modes carry coordinate 0, negative modes coordinate 1
    labels = np.repeat(np.arange(-3, 4), 2)
    coords = np.tile([0, 1], 7)
    diag = np.real(np.diag(P))
    for i, (n, c) in enumerate(zip(labels, coords)):
        want = 1.0 if (n > 0 and c == 0) or (n < 0 and c == 1) \
            or (n == 0 and c == 0) else 0.0
        assert abs(diag[i] - want) < 1e-12, (n, c)


def test_spectral_subspace_of_sign_operator():
    A = quantize(CircleSymbol(1, np.eye(1), -np.eye(1)), 12)
    L = spectral_subspace(A)
    assert relative_index(L, hardy_subspace(), N=12) == 0


def test_spectral_subspace_requires_hermitian():
    A = quantize(CircleSymbol(0, TrigPolyMatrix({1: np.eye(1)}),
                              TrigPolyMatrix({1: np.eye(1)})), 8)
    with pytest.raises(ValueError):
        spectral_subspace(A)


def test_orthocomplement_sum_of_ranks():
    L = mobius_subspace()
    C = orthocomplement(L)
    N = 10
    assert L.rank(N) + C.rank(N) == 2 * (2 * N + 1)
    # bases are mutually orthogonal
    g = L.basis(N).conj().T @ C.basis(N)
    assert np.abs(g).max() < 1e-10


def test_rotation_homotopy_endpoints():
    P = np.diag([1.0, 0.0])
    Q = np.eye(2) - P
    P0 = rotation_homotopy(P, 0.0)
    np.testing.assert_allclose(P0, np.block([[P, 0 * P], [0 * P, Q]]),
                               atol=1e-14)
    Phalf = rotation_homotopy(P, np.pi / 2)
    np.testing.assert_allclose(
        Phalf, np.block([[np.eye(2), 0 * P], [0 * P, 0 * P]]), atol=1e-14)


def test_rotation_unitary_conjugates():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _, _ = np.linalg.svd(M)
    P = u[:, :2] @ u[:, :2].conj().T
    P0 = rotation_homotopy(P, 0.0)
    for phi in np.linspace(0, 2 * np.pi, 50, endpoint=False):
        V = rotation_unitary(P, phi)
        np.testing.assert_allclose(V @ V.conj().T, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(V @ P0 @ V.conj().T,
                                   rotation_homotopy(P, phi), atol=1e-12)


def test_rotation_rejects_non_projection():
    with pytest.raises(ValueError):
        rotation_homotopy(np.array([[0.5, 0.5], [0.0, 0.5]]), 0.3)


def test_face_frames_mobius_holonomy():
    F = face_frames(mobius_symbol())[+1]
    xs = np.linspace(0, 2 * np.pi, 29, endpoint=False)
    f = F(xs)
    p = mobius_symbol().face(+1)(xs)
    assert np.abs(p @ f - f).max() < 1e-8
    gram = np.einsum("gba,gbc->gac", f.conj(), f)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(1), gram.shape),
                               atol=1e-8)
    # the line bundle twist carries holonomy pi: the parallel frame v
    # returns as -v, so the closed-up frame is F = v e^{-ix/2} and, against
    # the recorded s = v e^{ix/2}, s* F = e^{-ix} winds once backwards
    s = mobius_symbol()._frames[+1][0]
    overlap = s.conj_transpose() @ F
    assert np.abs(np.abs(overlap(xs)) - 1.0).max() < 1e-8
    assert winding_number(overlap) == -1


def test_face_frames_shared_for_even():
    frames = face_frames(mobius_symbol())
    assert frames[+1] is frames[-1]


def test_the_mobius_lift_is_its_recorded_frame():
    # the Mobius symbol records s, and its lift is s* exactly
    sigma = lift_symbol(mobius_subspace())
    s = mobius_symbol()._frames[+1][0]
    assert sigma.plus == sigma.minus == s.conj_transpose()


def test_equal_faces_of_separately_built_symbols_share_a_frame():
    a, b = full_subspace(1).symbol, full_subspace(1).symbol
    assert a is not b
    assert face_frames(a)[+1] is face_frames(b)[+1]
    L = mobius_subspace()
    c1, c2 = L.symbol.complement(), L.symbol.complement()
    assert c1 is not c2
    assert face_frames(c1)[+1] is face_frames(c2)[+1]


def test_constant_face_frame_is_its_range_basis(monkeypatch):
    def no_transport(p, G):
        raise AssertionError("a constant face needs no transport")

    monkeypatch.setattr(subspaces, "_transport_states", no_transport)
    sym = trivial_subspace(3, 2).symbol
    F = face_frames(sym)[+1]
    assert F.degree == 0
    B = _range_basis(sym.plus.coeff(0))
    assert F.coeff_table()[0].tobytes() == B.tobytes()


def test_lift_symbol_trivial_line():
    sigma = lift_symbol(full_subspace(1))
    assert sigma.rows == 1
    xs = np.linspace(0, 2 * np.pi, 9)
    np.testing.assert_allclose(sigma.plus(xs), np.ones((9, 1, 1)), atol=1e-8)


def test_lift_rejects_odd_parity():
    pp = np.diag([1.0, 0.0])
    pm = np.diag([0.0, 1.0])
    with pytest.raises(ParityError):
        lift_symbol(two_face_subspace(pp, pm))


def _suite_conjugates():
    # every conjugated subspace of the even suite at three seeds, and its
    # complement
    out = []
    for seed in (1914, 2718, 5):
        for name, L in even_subspace_suite(seed):
            if name.startswith("conjugated"):
                out += [L, orthocomplement(L)]
    return out


def _no_transport(monkeypatch):
    # a face frame cached by value would hide a transport: clear them
    def refused(p, G):
        raise AssertionError("a recorded frame needs no transport")

    subspaces._face_frame.cache_clear()
    monkeypatch.setattr(subspaces, "_transport_states", refused)


def test_unitary_conjugates_record_an_exact_frame():
    # F = W E for the conjugate, W E-perp for its complement: the parent's
    # recorded frames times the loop, whatever their degree, and the lift
    # is F*
    rng = np.random.default_rng(7)
    W = phase_diag_loop([1, -1], haar_unitary(rng, 2), haar_unitary(rng, 2))
    for L in (trivial_subspace(2, 1), mobius_subspace()):
        X = conjugate_subspace(L, W)
        for sign in (+1, -1):
            E, Ep = L.symbol._frames[sign]
            assert X.symbol._frames[sign] == (W @ E, W @ Ep)
            assert X.symbol.complement()._frames[sign] == (W @ Ep, W @ E)
    for L in _suite_conjugates():
        assert lift_symbol(L).plus == L.symbol._frames[+1][0].conj_transpose()


def _unrecorded():
    # subspaces whose symbols record no frame: a non-unitary conjugate, the
    # gap cut of a bare symbol, and the sign operator's spectral subspace
    rng = np.random.default_rng(7)
    W = phase_diag_loop([1, -1], haar_unitary(rng, 2), haar_unitary(rng, 2))
    sign = CircleSymbol(1, np.eye(1), -np.eye(1), name="sign")
    return [conjugate_subspace(trivial_subspace(2, 1), 2.0 * W),
            PdoSubspace(SubspaceSymbol(mobius_symbol().plus)),
            spectral_subspace(quantize(sign, 12))]


def test_subspaces_with_no_recorded_frame_are_refused(monkeypatch):
    # a frame is read from the record or not at all: the lift, d(L) and
    # the mod-n datum refuse such a subspace, and d(L) keeps nothing
    _no_transport(monkeypatch)
    spaces = _unrecorded()
    assert spaces[0].symbol.plus.trimmed().degree > 0  # a face that moves
    for L in spaces:
        assert L.symbol._frames is None
        assert L.symbol.complement()._frames is None
        with pytest.raises(ValueError, match="no recorded frame"):
            lift_symbol(L)
        with pytest.raises(ValueError, match="no recorded frame"):
            dimension_functional(L)
        assert L._dims == {}
        space = n_fold(L, 2)
        el = EllZnElement(
            2, SubspaceOperator(identity_symbol(space.fiber), space, space),
            (L,), (L,))
        with pytest.raises(ValueError, match="no recorded frame"):
            winding_datum(el)


def _kato_datum(el):
    # winding_datum in the Kato frames of face_frames: another gauge, so
    # the same datum mod n
    v = {}
    for sign in (+1, -1):
        f, g = (trig_blockdiag([face_frames(b.symbol)[sign]
                                for b in bases for _ in range(el.n)])
                for bases in (el.source_bases, el.target_bases))
        v[sign] = winding_number(
            g.conj_transpose() @ el.operator.principal.face(sign) @ f)
    return (v[+1] - v[-1]) % el.n


@pytest.mark.parametrize("seed", [1914, 2718, 5])
def test_winding_data_read_recorded_frames(seed, monkeypatch):
    # the mod-n suite's elements, their antipodal images and their normal
    # forms: each datum reads the recorded frames, with no transport, and
    # equals the datum in the Kato frames
    elements = []
    for n in (2, 3, 4, 8):
        for _, el in suites.modn_element_suite(seed, n, count=6):
            elements += [el, antipodal_element(el), normal_form(el)]
    want = [_kato_datum(el) for el in elements]
    _no_transport(monkeypatch)
    assert [winding_datum(el) for el in elements] == want


def test_d_from_the_exact_lift_equals_d_from_the_kato_lift():
    # every suite subspace and its complement, the Mobius line and
    # mobius_sum among them
    for seed in (1914, 2718, 5):
        for name, L in even_subspace_suite(seed):
            for X in (L, orthocomplement(L)):
                assert X.symbol._frames is not None, X.name
                F = face_frames(X.symbol)[+1].conj_transpose()
                kato = CircleSymbol(0, F, F)
                N = indexing._fitting_n(16, kato.degree + X.symbol.degree + 1)
                assert indexing._d_once(kato, X, N, 0) == \
                    dimension_functional(X), X.name


def _stock_even(seed):
    # every member of the realization family and its antipodal image (built
    # as the member was, from its parts' images), and the sources and
    # targets of the index-formula suite
    out = []
    for X in _family(seed):
        out += [X, antipodal_subspace(X)]
    for _, op in suites.index_formula_suite(seed):
        out += [op.source, op.target]
    return out


@pytest.mark.parametrize("seed", [1914, 2718, 5])
def test_stock_even_subspaces_lift_from_their_recorded_frames(
        seed, monkeypatch):
    # each recorded pair is exact, F*F = I, FF* = p and F-perp F-perp* =
    # 1 - p to 1e-12, and the lift, d and the fractional eta read it with
    # no transport and no parity double
    def refused(op):
        raise AssertionError("d(L) over the circle builds no parity double")

    family = _stock_even(seed)  # the generators transport: before refusing
    _no_transport(monkeypatch)
    monkeypatch.setattr(indexing, "build_parity_double", refused)
    xs = np.linspace(0, 2 * np.pi, 37, endpoint=False)
    for L in family:
        for sign in (+1, -1):
            p = L.symbol.face(sign)(xs)
            for F, want in zip(L.symbol._frames[sign],
                               (p, np.eye(L.fiber) - p)):
                F = F(xs)
                Fh = np.conj(np.swapaxes(F, 1, 2))
                assert np.abs(Fh @ F - np.eye(F.shape[-1])).max(initial=0) \
                    <= 1e-12
                assert np.abs(F @ Fh - want).max() <= 1e-12, L.name
        lift_symbol(L)
        fractional_eta_topological(L)
        dimension_functional(L)


@pytest.mark.parametrize("seed", [1914, 2718, 5])
def test_antipodal_images_realize_their_symbols(seed):
    # alpha* X is built from the images of X's parts, so it realizes
    # p(x, -xi) even where a face depends on x, and d(alpha* X) = d(X)
    for X in _family(seed):
        A = antipodal_subspace(X)
        assert face_residual(A, 16) <= 1e-12, A.name
        if X.symbol.parity == "Even":
            assert dimension_functional(A) == dimension_functional(X), A.name


def _mode_reflection(real, N, fiber):
    # the realization under n -> -n: mode index i -> 2N - i, and a column
    # of lowest mode m and band b gets lowest mode 2N - m - b
    if real.select is not None:
        sel = real.select
        return subspaces.SubspaceRealization(
            N, select=(2 * N - sel // fiber) * fiber + sel % fiber,
            dim=(2 * N + 1) * fiber)
    q, b = real.rank, real.band
    cols = subspaces._columns(real).reshape(q, b + 1, fiber)[:, ::-1]
    return subspaces._local(N, [(2 * N - real.modes - b, b,
                                 cols.reshape(q, -1))], fiber)


def _sorted_columns(real):
    # the selection or basis, the modes and the band, in the mode order
    o = real._by_mode.order
    cols = real.select[o] if real.select is not None else real.basis[:, o]
    return cols.tobytes(), real.modes[o].tobytes(), real.band


def test_antipodal_images_of_constant_faces_are_mode_reflections():
    # for constant frames the shifts of the swapped frames from cut 1 - c
    # are the reflected shifts, bit for bit; a unitary conjugate is left
    # out, as its image is W alpha* L, not the reflected W(-x) L
    family = [hardy_subspace(k) for k in range(-2, 3)]
    for seed in (1914, 2718, 5):
        for name, L in even_subspace_suite(seed):
            family += [L, orthocomplement(L),
                       puncture(L, *_puncture_at_every_window(L))]
    family = [X for X in family if X.symbol.degree == 0]
    assert len(family) > 20
    for X in family:
        A = antipodal_subspace(X)
        for N in (8, 16, 24):
            assert _sorted_columns(A.realize(N)) == _sorted_columns(
                _mode_reflection(X.realize(N), N, X.fiber)), (X.name, N)


def test_a_subspace_with_no_antipodal_recipe_is_refused():
    A = quantize(CircleSymbol(1, np.eye(1), -np.eye(1)), 12)
    spectral = spectral_subspace(A)
    custom = PdoSubspace(hardy_subspace().symbol, hardy_subspace().realize)
    for L in (spectral, custom):
        with pytest.raises(ValueError, match="no antipodal recipe"):
            antipodal_subspace(L)


def test_conjugate_by_constant_unitary():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _, _ = np.linalg.svd(M)
    L = mobius_subspace()
    Lw = conjugate_subspace(L, constant_trig(u))
    N = 8
    # conjugated projection equals W P W^*
    xs = np.linspace(0, 2 * np.pi, 33, endpoint=False)
    pw = Lw.symbol.face(+1)(xs)
    p = L.symbol.face(+1)(xs)
    np.testing.assert_allclose(pw, u[None] @ p @ u.conj().T[None], atol=1e-7)
    assert Lw.rank(N) == L.rank(N)


def test_puncture_reduces_rank_by_one():
    L = full_subspace(1)
    Lp = puncture(L)
    assert Lp.rank(8) == L.rank(8) - 1
    assert Lp.realize(8).warnings


def test_puncture_rejects_orthogonal_direction():
    # hardy contains no negative modes, so puncturing one cannot work
    with pytest.raises(ValueError):
        puncture(hardy_subspace(), mode=-3).realize(8)


@pytest.mark.parametrize("mode", [-9, 9])
def test_puncture_rejects_a_mode_outside_the_window(mode):
    # -9 used to wrap around to mode 8, and 9 ran off the basis
    with pytest.raises(ValueError, match="outside the truncation window"):
        puncture(trivial_subspace(2, 1), mode=mode).realize(8)


@pytest.mark.parametrize("coord", [-1, 2])
def test_puncture_rejects_a_coord_outside_the_fiber(coord):
    # coord 2 of a rank-2 fiber used to puncture the next mode's coord 0
    with pytest.raises(ValueError, match="outside the fiber"):
        puncture(trivial_subspace(2, 1), coord=coord)


@pytest.mark.parametrize("shift", [-17, 17])
def test_relative_index_rejects_a_shift_outside_the_window(shift):
    # -17 used to raise UnstableIndexError [-16, -17, -17] at N=16
    with pytest.raises(ValueError, match="outside the truncation window"):
        relative_index(hardy_subspace(), hardy_subspace(shift), N=16)


def test_face_residual_small_for_consistent_realization():
    assert face_residual(mobius_subspace(), 16) < 1e-10
    assert face_residual(hardy_subspace(), 16) < 1e-10


def test_dump_subspace_csv(tmp_path):
    path = tmp_path / "sub.csv"
    dump_subspace_csv(mobius_subspace(), (6, 8), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "N,index,eigenvalue_Q,rank_PN"
    # one row per ambient eigenvalue: 2(2N+1) for each truncation
    assert len(lines) == 1 + 26 + 34
    assert lines[1].startswith("6,0,")


# ---------------------------------------------------------------------------
# Mode-local realizations of conjugates, complements and punctures
# ---------------------------------------------------------------------------

_WINDOWS = (8, 16, 24, 48)


def _puncture_at_every_window(L, Ns=_WINDOWS):
    # the first (mode, coord) whose direction overlaps L at every N
    for mode in (0, 1, -1, 2):
        for coord in range(L.fiber):
            try:
                P = puncture(L, mode=mode, coord=coord)
                for N in Ns:
                    P.realize(N)
                return mode, coord
            except ValueError:
                continue
    raise AssertionError(f"no usable puncture of {L.name}")


def _family(seed):
    # every suite subspace, its complement, a puncture and a unitary
    # conjugate
    rng = rng_for(seed, "realization_family")
    out = []
    for name, L in even_subspace_suite(seed):
        W = even_invertible_symbol(rng, L.fiber).plus
        out += [L, orthocomplement(L),
                puncture(L, *_puncture_at_every_window(L)),
                conjugate_subspace(L, W)]
    return out


def _check_local(real, fiber, N):
    # orthonormal, mode-local, and every nonzero entry of a column on its
    # modes m .. m + band
    B = real.basis
    assert np.abs(B.conj().T @ B - np.eye(B.shape[1])).max() <= 1e-12
    assert real.band < 2 * N
    rows, cols = np.nonzero(B)
    mode = rows // fiber
    assert np.all(mode >= real.modes[cols])
    assert np.all(mode <= real.modes[cols] + real.band)
    assert np.all(real.modes >= 0) and np.all(real.modes <= 2 * N - real.band)


@pytest.mark.parametrize("seed", [1914, 2718, 5])
def test_realizations_stay_mode_local_and_complete(seed, monkeypatch):
    family = _family(seed)  # symbols are fit with SVDs: before recording
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kw):
        shapes.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    for X in family:
        C = orthocomplement(X)
        f = X.fiber
        for N in _WINDOWS:
            for Y in (X, C):
                del shapes[:]
                real = Y.realize(N)
                _check_local(real, f, N)
                # one edge block of band + 1 modes at most
                assert all(sh[0] <= (real.band + 1) * f for sh in shapes), \
                    (Y.name, N, shapes)
            B, Bc = X.basis(N), C.basis(N)
            assert np.abs(B.conj().T @ Bc).max() <= 1e-10, (X.name, N)
            assert X.rank(N) + C.rank(N) == (2 * N + 1) * f, (X.name, N)


def _densified(L):
    # the same subspace with its realization as a bare basis (band 2N):
    # what a constructor of it takes is the SVD path, but for puncture
    return PdoSubspace(
        L.symbol, lambda N: subspaces._bare(N, L.basis(N),
                                            L.realize(N).warnings),
        name=L.name)


@pytest.mark.parametrize("seed", [1914, 2718, 5])
def test_mode_local_realizations_agree_with_the_svd_realizations(
        seed, monkeypatch):
    # the suite built once from its stock parents, once from densified
    # copies of them: the identity between the two realizations of every
    # subspace, complement and puncture has index 0, and d agrees
    new = even_subspace_suite(seed)
    for stock in ("trivial_subspace", "mobius_subspace"):
        made = getattr(suites, stock)
        monkeypatch.setattr(suites, stock,
                            lambda *a, made=made: _densified(made(*a)))
    old = even_subspace_suite(seed)
    for (name, Ln), (_, Lo) in zip(new, old):
        mode, coord = _puncture_at_every_window(Ln, (16, 32, 48))
        pairs = [(Lo, Ln), (orthocomplement(Lo), orthocomplement(Ln)),
                 (puncture(Lo, mode, coord), puncture(Ln, mode, coord))]
        for a, b in pairs:
            assert b.realize(16).band < 2 * 16
            assert a.realize(16).band == 2 * 16
            ident = SubspaceOperator(identity_symbol(a.fiber), a, b)
            assert analytic_index(ident, N=16) == 0, b.name
            assert dimension_functional(a) == dimension_functional(b), b.name
        # a puncture removes exactly the projection of its coordinate
        # vector: P - v v*, v = P e / |P e|
        N = 16
        for L, X in zip(pairs[0], pairs[2]):
            B, Bx = L.basis(N), X.basis(N)
            v = B @ B[(mode + N) * L.fiber + coord].conj()
            v /= np.linalg.norm(v)
            want = B @ B.conj().T - np.outer(v, v.conj())
            assert np.abs(Bx @ Bx.conj().T - want).max() <= 1e-12, X.name


def test_a_complement_the_edges_cannot_complete_falls_back_to_the_svd():
    # two conjugations widen the Mobius complement's band past what the
    # edges of the N = 10 window hold; the complement then comes from the
    # SVD of the basis, and is still exact
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    L = conjugate_subspace(mobius_subspace(), phase_diag_loop((-3, 2)))
    L = conjugate_subspace(L, phase_diag_loop((3, -2), H, H))
    for N, local in ((10, False), (24, True)):
        real = orthocomplement(L).realize(N)
        assert (real.band < 2 * N) == local
        B, Bc = L.basis(N), real.basis
        assert np.abs(Bc.conj().T @ Bc - np.eye(Bc.shape[1])).max() <= 1e-12
        assert np.abs(B.conj().T @ Bc).max() <= 1e-10
        assert B.shape[1] + Bc.shape[1] == 2 * (2 * N + 1)


def test_local_conjugation_keeps_the_quantization_rules():
    # an order-1 loop is weighted by |n| (mode 0 dies), so it takes the SVD
    # path even with equal unitary faces; N <= 2 deg W is refused as
    # quantize refuses it
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    weighted = conjugate_subspace(trivial_subspace(2, 1), CircleSymbol(1, H, H))
    real = weighted.realize(8)
    assert real.band == 2 * 8 and real.rank == 16
    assert conjugate_subspace(trivial_subspace(2, 1),
                              constant_trig(H)).realize(8).rank == 17
    L = conjugate_subspace(mobius_subspace(), phase_diag_loop((3, -2)))
    with pytest.raises(ValueError, match="truncation too small"):
        L.realize(6)
    assert L.realize(7).band < 2 * 7
    # an empty realization conjugates to an empty mode-local one: an empty
    # parent, and the empty complement a conjugate of the full space
    # records, which the window edges then complete
    W = phase_diag_loop((1, -1))
    assert conjugate_subspace(zero_subspace(2), W).realize(8).rank == 0
    L = conjugate_subspace(full_subspace(2), W)
    B, perp = L.basis(8), orthocomplement(L).realize(8)
    Bc = perp.basis
    assert perp.band < 2 * 8 and perp.rank == 2
    assert np.abs(B.conj().T @ Bc).max() <= 1e-12
    # each column whose own image fits is kept: W moves coordinate 0 up a
    # mode and coordinate 1 down, so only one column leaves at each edge,
    # and the conjugate has the SVD conjugate's rank 32, its complement 2
    svd = conjugate_subspace(_densified(full_subspace(2)), W)
    assert svd.realize(8).band == 2 * 8
    assert B.shape[1] == svd.rank(8) == 32 and Bc.shape[1] == 2


def _realizations_made(monkeypatch, build, N=48):
    # every realization made while build() makes its subspaces and they
    # are realized at N, and the number of dense bases read meanwhile
    made, reads = [], []
    init = subspaces.SubspaceRealization.__init__
    basis = subspaces.SubspaceRealization.basis.fget

    def recorded(self, *args, **kw):
        init(self, *args, **kw)
        made.append(self)

    def read(self):
        reads.append(self)
        return basis(self)

    with monkeypatch.context() as m:
        m.setattr(subspaces.SubspaceRealization, "__init__", recorded)
        m.setattr(subspaces.SubspaceRealization, "basis", property(read))
        for L in build():
            L.realize(N)
    return made, len(reads)


def _modn_and_suite_subspaces():
    out = []
    for n in (2, 3, 4, 8):
        for _, el in modn_element_suite(1914, n, 3):
            out += [el.operator.source, el.operator.target]
    for _, L in even_subspace_suite(1914):
        out += [L, orthocomplement(L)]
    return out


def _punctures_and_conjugates():
    # a puncture of each suite subspace, found by realizing it at every
    # window, and unitary conjugates of selections and of the Mobius line
    # with their complements
    out = [puncture(L, *_puncture_at_every_window(L))
           for _, L in even_subspace_suite(1914)]
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for L in (trivial_subspace(2, 1), full_subspace(2), zero_subspace(2),
              two_face_subspace(np.eye(2), np.diag([1, 0])),
              mobius_subspace()):
        for W in (constant_trig(H), phase_diag_loop((1, -1)),
                  phase_diag_loop((3, -2), H, H)):
            C = conjugate_subspace(L, W)
            out += [C, orthocomplement(C)]
    return out


def test_mode_local_realizations_keep_no_dense_basis(monkeypatch):
    # a mode-local realization keeps its mode groups, not its dim x rank
    # basis, and no realizer reads one; the basis built from them is
    # orthonormal, and equal realizations built apart share a digest
    def build():
        return _modn_and_suite_subspaces() + _punctures_and_conjugates()

    first, reads = _realizations_made(monkeypatch, build)
    assert reads == 0
    again, _ = _realizations_made(monkeypatch, build)
    assert len(first) == len(again)
    local = [(a, b) for a, b in zip(first, again)
             if a.select is None and a.band < 2 * a.N and a.rank]
    assert len(local) > 15
    # n-fold sums among them: the suites' bases have fibers up to 4
    assert max(a._by_mode.fiber for a, _ in local) >= 6
    for a, b in local:
        dim = a._dim
        assert not [k for k, v in vars(a).items()
                    if isinstance(v, np.ndarray) and v.size == dim * a.rank]
        B = a.basis
        assert B.shape == (dim, a.rank)
        assert np.abs(B.conj().T @ B - np.eye(a.rank)).max() <= 1e-12
        assert a is not b and a._digest == b._digest


def test_a_subspace_and_its_complement_free_their_realizations():
    # no reference cycle between a subspace, its recorded complement and
    # their realizations: plain reference counting frees them
    gc.collect()
    gc.disable()
    try:
        for i in range(6):
            L = even_subspace_suite(1914)[i][1]
            C = orthocomplement(L)
            refs = [weakref.ref(r) for X in (L, C) for N in (8, 16)
                    for r in (X.realize(N), X.realize(N)._by_mode.stack)]
            del L, C
            assert all(r() is None for r in refs), i
    finally:
        gc.enable()
