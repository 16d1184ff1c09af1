import numpy as np
import pytest

from etaforge.core import TrigPolyMatrix, constant_trig
from etaforge.subspaces import (ParityError, RealizationGapError,
                                SubspaceSymbol, conjugate_subspace,
                                dump_subspace_csv, face_frames, face_residual,
                                full_subspace, hardy_subspace, lift_symbol,
                                mobius_subspace, mobius_symbol,
                                orthocomplement, puncture, realize_projection,
                                relative_index, rotation_homotopy,
                                rotation_unitary, spectral_subspace,
                                trivial_subspace, two_face_subspace,
                                zero_subspace)
from etaforge.symbols import CircleSymbol, quantize


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
    assert p.face_rank(+1) == 1


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


def test_full_and_zero():
    assert full_subspace(2).rank(4) == 18
    assert zero_subspace(2).rank(4) == 0
    c = orthocomplement(full_subspace(1))
    assert c.rank(4) == 0


def test_trivial_subspace_projection():
    L = trivial_subspace(3, 2)
    P = L.projection(4)
    np.testing.assert_allclose(P @ P, P, atol=1e-13)
    assert L.rank(4) == 2 * 9


def test_realize_projection_gap_guard():
    # an eigenvalue stuck in the middle band means no spectral gap
    mid = constant_trig(0.6 * np.eye(1))
    sym = SubspaceSymbol(mid, mid, validate=False)
    with pytest.raises(RealizationGapError):
        realize_projection(sym, 8)


def test_mobius_realization_rank_deficit():
    # the twist costs one dimension against half the ambient space
    mob = mobius_subspace()
    for N in (8, 16):
        assert mob.rank(N) == (2 * N + 1) - 1
        assert orthocomplement(mob).rank(N) == (2 * N + 1) + 1


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
    frames = face_frames(mobius_symbol())
    ff = frames[+1]
    assert ff.closure_residual < 1e-8
    assert ff.fit_residual < 1e-8
    # the line bundle twist carries holonomy pi
    assert abs(abs(ff.phases[0]) - np.pi) < 1e-8
    xs = np.linspace(0, 2 * np.pi, 29, endpoint=False)
    f = ff.frame(xs)
    p = mobius_symbol().face(+1)(xs)
    assert np.abs(p @ f - f).max() < 1e-8
    gram = np.einsum("gba,gbc->gac", f.conj(), f)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(1), gram.shape),
                               atol=1e-8)


def test_face_frames_shared_for_even():
    frames = face_frames(mobius_symbol())
    assert frames[+1] is frames[-1]


def test_lift_reuses_the_memoized_face_frame():
    L = mobius_subspace()
    assert lift_symbol(L).frames[+1] is face_frames(L.symbol)[+1]


def test_lift_symbol_trivial_line():
    lift = lift_symbol(full_subspace(1))
    assert lift.order == 0
    assert lift.f_rank == 1
    xs = np.linspace(0, 2 * np.pi, 9)
    np.testing.assert_allclose(lift.sigma.plus(xs),
                               np.ones((9, 1, 1)), atol=1e-8)


def test_lift_rejects_odd_parity():
    pp = np.diag([1.0, 0.0])
    pm = np.diag([0.0, 1.0])
    with pytest.raises(ParityError):
        lift_symbol(two_face_subspace(pp, pm))


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
