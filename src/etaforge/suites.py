"""Deterministic example families.

Everything here is seeded: the same (seed, tag) always produces the same
subspaces and operators, so report runs are reproducible byte for byte
and test failures replay exactly.
"""
from __future__ import annotations

import zlib

import numpy as np

from .core import TrigPolyMatrix, constant_trig, trig_blockdiag
from .indexing import SubspaceOperator
from .kzn import EllZnElement, n_fold
from .subspaces import (conjugate_subspace, face_frames, full_subspace,
                        hardy_subspace, mobius_subspace, puncture,
                        trivial_subspace, two_face_subspace)
from .symbols import CircleSymbol

__all__ = [
    "rng_for",
    "haar_unitary",
    "phase_diag_loop",
    "even_invertible_symbol",
    "mobius_row_symbol",
    "toeplitz_operator",
    "even_subspace_suite",
    "index_formula_suite",
    "modn_element_suite",
    "perturbation_terms",
    "random_elliptic_elements",
]


def rng_for(seed, tag):
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def haar_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def phase_diag_loop(windings, A0=None, A1=None):
    """A0 diag(z^{w_j}) A1 as an exact loop; det winds by sum(w)."""
    d = len(windings)
    A0 = np.eye(d) if A0 is None else A0
    A1 = np.eye(d) if A1 is None else A1
    coeffs = {}
    for j, w in enumerate(windings):
        blk = np.outer(A0[:, j], A1[j, :])
        coeffs[int(w)] = coeffs.get(int(w), 0) + blk
    return TrigPolyMatrix(coeffs)


def even_invertible_symbol(rng, d, max_wind=2):
    """Random invertible order-0 symbol with equal faces (hence index 0)."""
    loop = phase_diag_loop(rng.integers(-max_wind, max_wind + 1, d),
                           haar_unitary(rng, d), haar_unitary(rng, d))
    return CircleSymbol(0, loop, loop, name="even_invertible")


def mobius_row_symbol():
    """The 1x2 row u(x)^* against the half-spin line u = (cos x/2, sin x/2)
    times e^{ix/2}; the minus face carries the opposite sign, which is the
    classic odd-symbol example on this subspace."""
    row = TrigPolyMatrix({0: np.array([[0.5, -0.5j]]),
                          -1: np.array([[0.5, 0.5j]])})
    return CircleSymbol(0, row, -1.0 * row, name="half_spin_row")


def toeplitz_operator(k):
    """Compression of multiplication by e^{ikx} to the nonnegative modes."""
    loop = TrigPolyMatrix({int(k): np.eye(1)})
    hardy = hardy_subspace()
    return SubspaceOperator(CircleSymbol(0, loop, loop, name=f"z^{k}"),
                            hardy, hardy, name=f"toeplitz{k}")


def even_subspace_suite(seed=1914, count=6):
    """Named even subspaces with varied texture: twisted line bundles,
    constant splittings, conjugated planes, a punctured realization."""
    out = [("mobius", mobius_subspace()),
           ("trivial_plane", trivial_subspace(3, 2))]
    rng = rng_for(seed, "even_suite")
    i = 0
    while len(out) < count - 2:
        d = int(rng.integers(2, 4))
        q = int(rng.integers(1, d))
        W = even_invertible_symbol(rng, d)
        out.append((f"conjugated_{i}",
                    conjugate_subspace(trivial_subspace(d, q), W.plus,
                                       name=f"conjugated_{i}")))
        i += 1
    out.append(("punctured_plane", puncture(trivial_subspace(2, 1))))
    out.append(("mobius_sum", mobius_subspace().direct_sum(
        trivial_subspace(2, 1))))
    return out


def _frame_conjugated_operator(rng, L1, L2, windings_plus, windings_minus,
                               name=""):
    """sigma_s = g C_s f^*: elliptic L1 -> L2 with prescribed face windings
    relative to the transport frames."""
    f = face_frames(L1.symbol)
    g = face_frames(L2.symbol)
    q = f[+1].frame.shape[1]
    if g[+1].frame.shape[1] != q:
        raise ValueError("frame ranks differ")
    A0, A1 = haar_unitary(rng, q), haar_unitary(rng, q)
    faces = {}
    for sign, winds in ((+1, windings_plus), (-1, windings_minus)):
        C = phase_diag_loop(winds, A0, A1)
        faces[sign] = g[sign].frame @ C @ f[sign].sigma
    return SubspaceOperator(
        CircleSymbol(0, faces[+1], faces[-1], name=name), L1, L2, name=name)


def index_formula_suite(seed=1914):
    """Structurally distinct elliptic operators in even subspaces for the
    defect formula: sign-split row on the twisted line, frame-conjugated
    twists, a full-space even operator, a punctured source."""
    rng = rng_for(seed, "index_formula")
    mob = mobius_subspace()
    line = full_subspace(1)
    out = [("half_spin_row",
            SubspaceOperator(mobius_row_symbol(), mob, line,
                             name="half_spin_row"))]
    out.append(("mobius_twist",
                _frame_conjugated_operator(rng, mob, mob, [1], [-1],
                                           name="mobius_twist")))
    plane = trivial_subspace(3, 2)
    out.append(("plane_windings",
                _frame_conjugated_operator(rng, plane, plane, [2, 0], [0, 1],
                                           name="plane_windings")))
    W = even_invertible_symbol(rng, 2)
    out.append(("full_even",
                SubspaceOperator(W, full_subspace(2), full_subspace(2),
                                 name="full_even")))
    out.append(("punctured_source",
                SubspaceOperator(
                    CircleSymbol(0, constant_trig(np.eye(1)),
                                 constant_trig(np.eye(1))),
                    puncture(line, mode=0), line, name="punctured_source")))
    conj = conjugate_subspace(trivial_subspace(2, 1),
                              even_invertible_symbol(rng, 2).plus,
                              name="conj_line")
    out.append(("conjugated_line",
                _frame_conjugated_operator(rng, conj, conj, [-2], [1],
                                           name="conjugated_line")))
    return out


def _random_base(rng, n):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return full_subspace(1)
    if kind == 1:
        d = int(rng.integers(2, 4))
        a = int(rng.integers(1, d))
        U, V = haar_unitary(rng, d), haar_unitary(rng, d)
        pp = U[:, :a] @ U[:, :a].conj().T
        pm = V[:, :a] @ V[:, :a].conj().T
        return two_face_subspace(pp, pm, name="twoface")
    return mobius_subspace()


def modn_element_suite(seed, n, count=10):
    """Randomized mod-n elements: mostly full-space fiber-n symbols with
    independent face windings, plus frame-conjugated operators on n-fold
    subspaces."""
    rng = rng_for(seed, f"modn{n}")
    out = []
    for i in range(count):
        if i % 3 != 2:
            wp = rng.integers(-3, 4, n)
            wm = rng.integers(-3, 4, n)
            plus = phase_diag_loop(wp, haar_unitary(rng, n),
                                   haar_unitary(rng, n))
            minus = phase_diag_loop(wm, haar_unitary(rng, n),
                                    haar_unitary(rng, n))
            sym = CircleSymbol(0, plus, minus, name=f"rand{i}")
            full = full_subspace(n)
            el = EllZnElement(
                n, SubspaceOperator(sym, full, full, name=f"rand{i}"),
                (full_subspace(1),), (full_subspace(1),))
        else:
            base = _random_base(rng, n)
            space = n_fold(base, n)
            f = face_frames(base.symbol)
            q = n * f[+1].frame.shape[1]
            A0, A1 = haar_unitary(rng, q), haar_unitary(rng, q)
            faces = {}
            for sign in (+1, -1):
                F = trig_blockdiag([f[sign].frame] * n)
                C = phase_diag_loop(rng.integers(-2, 3, q), A0, A1)
                faces[sign] = F @ C @ F.conj_transpose()
            sym = CircleSymbol(0, faces[+1], faces[-1], name=f"framed{i}")
            el = EllZnElement(
                n, SubspaceOperator(sym, space, space, name=f"framed{i}"),
                (base,), (base,))
        out.append((f"n{n}_op{i}", el))
    return out


def perturbation_terms(rng, op, count, scale=0.25):
    """Random order -1 terms sized to the operator's fibers.

    scale keeps the displaced near-kernel of the truncation resolvable:
    an O(1) lower-order term needs noticeably larger N before the
    compressed singular values separate again.
    """
    rows, cols = op.target.fiber, op.source.fiber
    terms = []
    for _ in range(count):
        c = {k: scale * 0.5 * (rng.standard_normal((rows, cols))
                               + 1j * rng.standard_normal((rows, cols)))
             for k in (-1, 0, 1)}
        terms.append(CircleSymbol(op.order - 1, TrigPolyMatrix(c),
                                  TrigPolyMatrix({k: v.conj() for k, v
                                                  in c.items()})))
    return terms


def random_elliptic_elements(seed, count=20, moduli=(2, 3, 4, 8)):
    """Flat list of (example_id, element) cycling through the moduli."""
    out = []
    for i in range(count):
        n = moduli[i % len(moduli)]
        suite = modn_element_suite(seed + i, n, count=1)
        out.append((f"alpha{i}_n{n}", suite[0][1]))
    return out
