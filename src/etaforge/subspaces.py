"""Pseudodifferential subspaces of sections over the circle.

A subspace is the range of an order-zero projection.  It carries a
projection-valued symbol (two faces) and a family of exact finite
projections indexed by the Fourier truncation N.  Realizations are cached
per N; the cache is append-only and idempotent, so concurrent realize()
calls are safe.
"""
from __future__ import annotations

import csv
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_TOL, TrigPolyMatrix, _fft_fit, constant_trig,
                   fit_trig_poly, polar_unitary, stable_rank)
from .symbols import (CircleSymbol, TruncatedOperator,
                      _check_projection_faces, classify_parity,
                      ellipticity_check, quantize)

__all__ = [
    "ParityError",
    "RealizationGapError",
    "UnstableIndexError",
    "SubspaceSymbol",
    "SubspaceRealization",
    "PdoSubspace",
    "realize_projection",
    "spectral_subspace",
    "relative_index",
    "orthocomplement",
    "rotation_homotopy",
    "rotation_unitary",
    "LiftResult",
    "FaceFrame",
    "lift_symbol",
    "face_frames",
    "hardy_subspace",
    "mobius_subspace",
    "mobius_symbol",
    "full_subspace",
    "zero_subspace",
    "trivial_subspace",
    "two_face_subspace",
    "conjugate_subspace",
    "puncture",
    "face_residual",
    "dump_subspace_csv",
]


class ParityError(ValueError):
    """Operation requires a parity the subspace does not have."""


class RealizationGapError(RuntimeError):
    """Quantized projection symbol has no spectral gap at this truncation."""


class UnstableIndexError(RuntimeError):
    """An index failed to agree across the three truncation scales."""


class SubspaceSymbol:
    """Projection-valued order-zero symbol; the symbol L = Im p of a subspace."""

    def __init__(self, plus, minus=None, name="", validate=True):
        plus = plus if isinstance(plus, TrigPolyMatrix) else constant_trig(plus)
        minus = plus if minus is None else (
            minus if isinstance(minus, TrigPolyMatrix) else constant_trig(minus))
        self.projection = CircleSymbol(0, plus, minus, name=name)
        self.name = name
        self._parity = None
        self._frames = {}  # tol -> face_frames result
        if validate:
            _check_projection_faces(
                self, np.linspace(0.0, 2 * np.pi, 64, endpoint=False), 1e-7)

    def face(self, sign):
        return self.projection.face(sign)

    @property
    def plus(self):
        return self.projection.plus

    @property
    def minus(self):
        return self.projection.minus

    @property
    def rank(self):
        return self.projection.rank

    @property
    def degree(self):
        return self.projection.degree

    @property
    def parity(self):
        if self._parity is None:
            self._parity = classify_parity(self.projection)
        return self._parity

    def face_rank(self, sign):
        """Pointwise rank of the chosen face (must be x-independent)."""
        xs = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
        w = np.linalg.eigvalsh(self.face(sign)(xs))
        counts = (w > 0.5).sum(axis=1)
        if counts.max() != counts.min():
            raise ValueError("face rank is not constant in x")
        return int(counts[0])

    def complement(self):
        eye = np.eye(self.rank)
        out = SubspaceSymbol(constant_trig(eye) - self.plus,
                             constant_trig(eye) - self.minus,
                             name=f"({self.name})^perp" if self.name else "",
                             validate=False)
        return out

    def antipodal(self):
        return SubspaceSymbol(self.minus, self.plus, name=self.name,
                              validate=False)

    def direct_sum(self, other):
        s = self.projection.direct_sum(other.projection)
        return SubspaceSymbol(s.plus, s.minus, validate=False,
                              name=f"{self.name}+{other.name}")


@dataclass(frozen=True)
class SubspaceRealization:
    """Exact finite projection at one truncation, stored via an orthonormal
    basis of its range."""

    N: int
    basis: np.ndarray
    warnings: tuple = ()

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def rank(self):
        return self.basis.shape[1]

    @property
    def projection(self):
        return self.basis @ self.basis.conj().T


class PdoSubspace:
    """A subspace together with its per-N exact projections.

    `realizer` maps N to a SubspaceRealization; the default cuts the
    spectrum of the symmetrized quantization of the symbol.
    """

    def __init__(self, symbol, realizer=None, name=""):
        self.symbol = symbol
        self.name = name or symbol.name
        self._realizer = realizer if realizer is not None else \
            (lambda N: _gap_realization(symbol, N))
        self._cache = {}
        self._lock = threading.Lock()

    @property
    def fiber(self):
        return self.symbol.rank

    def realize(self, N):
        N = int(N)
        hit = self._cache.get(N)
        if hit is not None:
            return hit
        value = self._realizer(N)
        with self._lock:
            return self._cache.setdefault(N, value)

    def realized_truncations(self):
        return tuple(sorted(self._cache))

    def basis(self, N):
        return self.realize(N).basis

    def projection(self, N):
        return self.realize(N).projection

    def rank(self, N):
        return self.realize(N).rank

    def complement(self):
        return orthocomplement(self)

    def direct_sum(self, other):
        sym = self.symbol.direct_sum(other.symbol)
        f1, f2 = self.fiber, other.fiber

        def realizer(N):
            a, b = self.realize(N), other.realize(N)
            B = np.concatenate([
                _embed_basis(a.basis, N, f1, f1 + f2, 0),
                _embed_basis(b.basis, N, f2, f1 + f2, f1)], axis=1)
            return SubspaceRealization(N, B, a.warnings + b.warnings)

        return PdoSubspace(sym, realizer, name=f"{self.name}+{other.name}")

    def __repr__(self):
        return f"PdoSubspace({self.name or self.symbol.parity}, fiber={self.fiber})"


def _embed_basis(B, N, fiber, total, offset):
    # re-index columns of a sub-fiber basis into a larger fiber, mode-major
    modes = 2 * N + 1
    q = B.shape[1]
    out = np.zeros((modes * total, q), dtype=complex)
    out.reshape(modes, total, q)[:, offset:offset + fiber, :] = \
        B.reshape(modes, fiber, q)
    return out


def _gap_realization(symbol, N, tol=None, tie_tol=1e-6):
    tol = DEFAULT_TOL if tol is None else tol
    A = quantize(symbol.projection, N).matrix
    Q = (A + A.conj().T) / 2
    w = np.linalg.eigvalsh(Q)
    ties = np.abs(w - 0.5) <= tie_tol
    inside = (w >= 0.25) & (w <= 0.75) & ~ties
    if inside.any():
        raise RealizationGapError(
            f"symbol not projectively realizable at N={N}: "
            f"{int(inside.sum())} eigenvalues inside the gap band")
    warnings = ()
    if ties.any():
        warnings = (f"{int(ties.sum())} eigenvalues at the gap center 1/2 "
                    f"assigned to the complement side",)
    _, U = np.linalg.eigh(Q)
    basis = U[:, w > 0.75]
    return SubspaceRealization(N, basis, warnings)


def realize_projection(symbol, N, tie_tol=1e-6):
    """Subspace from a projection-valued symbol; the spectrum of the
    symmetrized quantization must have a gap around 1/2 (eigenvalues pinned
    at exactly 1/2 are sent to the complement and recorded as warnings)."""
    if N <= 2 * symbol.degree:
        raise ValueError("truncation too small for the symbol degree")
    L = PdoSubspace(symbol, realizer=lambda n: _gap_realization(
        symbol, n, tie_tol=tie_tol), name=symbol.name)
    L.realize(N)  # fail fast at the requested truncation
    return L


def spectral_subspace(A, tol=None):
    """Nonnegative spectral subspace of a self-adjoint elliptic operator.

    The finite projections come from the eigenvectors of the (re)quantized
    operator with eigenvalue >= 0; eigenvalues within eig_tol of zero but
    nonzero are kept on the side their sign dictates and recorded as
    boundary warnings.  The symbol is the pointwise nonnegative spectral
    projection of the principal symbol.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if not isinstance(A, TruncatedOperator) or A.symbol is None:
        raise ValueError("spectral_subspace needs a symbol-backed operator")
    if not A.is_hermitian():
        raise ValueError("operator is not self-adjoint")
    principal = A.symbol.principal

    def pos_face(sign):
        f = principal.face(sign)

        def fn(xs):
            v = f(xs)
            w, U = np.linalg.eigh(v)
            scale = max(float(np.abs(w).max()), 1.0)
            if np.abs(w).min() <= tol.eig_tol * scale:
                raise ValueError("principal symbol is not invertible")
            sel = (w >= 0).astype(float)
            return np.einsum("gik,gk,gjk->gij", U, sel, np.conj(U))

        return fit_trig_poly(fn, grid=max(64, 8 * (principal.degree + 1)))

    sym = SubspaceSymbol(pos_face(+1), pos_face(-1), name="spectral",
                         validate=False)

    def realizer(N):
        M = quantize(A.symbol, N).matrix
        Q = (M + M.conj().T) / 2
        w, U = np.linalg.eigh(Q)
        scale = max(float(np.abs(w).max()), 1.0)
        near = (np.abs(w) <= tol.eig_tol * scale) & (w != 0)
        warnings = ()
        if near.any():
            warnings = (f"{int(near.sum())} eigenvalues within eig_tol of 0 "
                        f"kept on their sign side",)
        return SubspaceRealization(N, U[:, w >= 0], warnings)

    return PdoSubspace(sym, realizer, name="spectral")


def relative_index(L1, L2, N=16, scales=(1, 2, 3), tol=None):
    """ind(P2 : Im P1 -> Im P2) for subspaces with the same symbol,
    accepted only when three truncation scales agree."""
    tol = DEFAULT_TOL if tol is None else tol
    diff = max((L1.symbol.plus - L2.symbol.plus).max_abs(),
               (L1.symbol.minus - L2.symbol.minus).max_abs())
    if diff > max(tol.rank_tol, 1e-8):
        raise ValueError("relative index needs subspaces with equal symbols")
    vals = []
    for s in scales:
        b1 = L1.basis(N * s)
        b2 = L2.basis(N * s)
        r12 = stable_rank(b2.conj().T @ b1, tol.rank_tol)
        vals.append((b1.shape[1] - r12) - (b2.shape[1] - r12))
    if len(set(vals)) != 1:
        raise UnstableIndexError(f"relative index did not stabilize: {vals}")
    return vals[0]


def orthocomplement(L):
    sym = L.symbol.complement()

    def realizer(N):
        base = L.realize(N)
        u, _, _ = np.linalg.svd(base.basis, full_matrices=True) \
            if base.basis.shape[1] else (np.eye(base.basis.shape[0]), None, None)
        comp = u[:, base.basis.shape[1]:]
        return SubspaceRealization(N, comp, base.warnings)

    return PdoSubspace(sym, realizer, name=f"{L.name}^perp" if L.name else "")


def _check_projection_matrix(P, tol=1e-10):
    P = np.asarray(P, dtype=complex)
    scale = max(np.linalg.norm(P), 1.0)
    if np.linalg.norm(P - P.conj().T) > tol * scale or \
       np.linalg.norm(P @ P - P) > tol * scale:
        raise ValueError("input is not a projection matrix")
    return P


def rotation_homotopy(P, phi):
    """P_phi on the doubled space: rotates Im(1-P) from the second copy
    into the first; a projection for every phi, with P_0 = diag(P, 1-P)
    and P_{pi/2} = diag(I, 0)."""
    P = _check_projection_matrix(P)
    Q = np.eye(P.shape[0]) - P
    c, s = np.cos(phi), np.sin(phi)
    Pphi = np.block([[P + s * s * Q, c * s * Q], [c * s * Q, c * c * Q]])
    if np.linalg.norm(Pphi @ Pphi - Pphi) > 1e-12 * max(np.linalg.norm(Pphi), 1.0):
        raise ArithmeticError("rotation homotopy lost idempotency")
    return Pphi


def rotation_unitary(P, phi):
    """Unitary with V_phi diag(P, 1-P) V_phi* = rotation_homotopy(P, phi)."""
    P = _check_projection_matrix(P)
    Q = np.eye(P.shape[0]) - P
    c, s = np.cos(phi), np.sin(phi)
    return np.block([[P + c * Q, s * Q], [-s * Q, P + c * Q]])


# ---------------------------------------------------------------------------
# Lifting a subspace symbol from the base circle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceFrame:
    """Orthonormal frame of one face subbundle, periodic after the holonomy
    phase correction, together with the trivializing row symbol."""

    frame: TrigPolyMatrix
    sigma: TrigPolyMatrix
    phases: tuple
    closure_residual: float
    fit_residual: float


@dataclass(frozen=True)
class LiftResult:
    order: int
    sigma: CircleSymbol
    f_rank: int
    closure_residual: float
    fit_residual: float
    frames: dict = field(compare=False, default=None)


def _transport_states(p, G, oversample):
    """Kato transport F' = [p', p] F over [0, 2pi], RK4 with per-step
    re-orthonormalization onto Im p; returns frames at 2*G uniform points
    plus the endpoint."""
    r = p.shape[0]
    halfsteps = 2 * G * oversample
    xs = 2 * np.pi * np.arange(halfsteps + 1) / halfsteps
    pv = p(xs)
    dv = p.derivative()(xs)
    comm = np.matmul(dv, pv) - np.matmul(pv, dv)
    w0, U0 = np.linalg.eigh(pv[0])
    F = U0[:, w0 > 0.5]
    q = F.shape[1]
    out = np.empty((2 * G + 1, r, q), dtype=complex)
    stride = oversample // 2  # integration steps per recorded sample
    h = 2 * np.pi / (G * oversample)
    out[0] = F
    for j in range(G * oversample):
        a0, am, a1 = comm[2 * j], comm[2 * j + 1], comm[2 * j + 2]
        k1 = a0 @ F
        k2 = am @ (F + 0.5 * h * k1)
        k3 = am @ (F + 0.5 * h * k2)
        k4 = a1 @ (F + h * k3)
        F = F + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        F = polar_unitary(pv[2 * j + 2] @ F)
        if (j + 1) % stride == 0:
            out[(j + 1) // stride] = F
    return out


def _face_frame(p, tol=1e-8, grid=128, oversample=8, cap=2048):
    """Periodic orthonormal frame of Im p and its trivializer sigma = frame*.

    Transport produces a frame that may return holonomy-rotated; the
    holonomy eigenphases are spread linearly over the circle to close it
    up.  Both the frame and sigma are certified trig polynomials (fit on
    half the samples, validated on the other half).
    """
    q0 = int(np.isclose(np.linalg.eigvalsh(p([0.0])[0]), 1, atol=0.4).sum())
    r = p.shape[0]
    if q0 == 0:
        z = TrigPolyMatrix(np.zeros((1, r, 0)))
        return FaceFrame(z, z.conj_transpose(), (), 0.0, 0.0)
    G = grid
    while True:
        states = _transport_states(p, G, oversample)
        F0, Fend = states[0], states[2 * G]
        H = F0.conj().T @ Fend
        evals, EV = np.linalg.eig(H)
        EV = polar_unitary(EV)
        phases = np.mod(np.angle(evals), 2 * np.pi)
        phases[phases > 2 * np.pi - 1e-6] -= 2 * np.pi
        xs = 2 * np.pi * np.arange(2 * G) / (2 * G)
        twist = np.exp(-1j * np.outer(xs, phases) / (2 * np.pi))
        corr = np.einsum("ab,gb,cb->gac", EV, twist, np.conj(EV))
        frames = np.matmul(states[:2 * G], corr)
        end = Fend @ (EV * np.exp(-1j * phases)) @ EV.conj().T
        closure = float(np.abs(end - F0).max())
        # fit on even samples, validate on odd ones
        fit, _ = _fft_fit(frames[0::2], 1e-12)
        resid = float(np.abs(fit(xs[1::2]) - frames[1::2]).max())
        if max(resid, closure) <= tol or 2 * G > cap:
            break
        G *= 2
    if max(resid, closure) > tol:
        raise ArithmeticError(
            f"frame transport failed to close/fit ({closure:.1e}/{resid:.1e})")
    return FaceFrame(fit, fit.conj_transpose(), tuple(float(t) for t in phases),
                     closure, resid)


def face_frames(symbol, tol=1e-8):
    """Per-face periodic frames for a SubspaceSymbol (memoized per tol on
    the symbol; transports are not cheap)."""
    out = symbol._frames.get(tol)
    if out is None:
        even = (symbol.plus - symbol.minus).max_abs() <= 1e-12
        ff = [_face_frame(symbol.face(s), tol)
              for s in ((+1,) if even else (+1, -1))]
        out = symbol._frames[tol] = {+1: ff[0], -1: ff[-1]}
    return out


def lift_symbol(L, tol=1e-8):
    """Trivialization of an even subspace symbol over the circle.

    Returns a LiftResult with order N = 0 (no doubling is ever needed over
    the circle) and sigma an order-zero symbol restricting to an
    isomorphism Im p -> trivial rank-q fiber.
    """
    sym = L.symbol if isinstance(L, PdoSubspace) else L
    if sym.parity != "Even":
        raise ParityError("lift over the circle needs an even subspace")
    ff = face_frames(sym, tol)[+1]
    sigma = CircleSymbol(0, ff.sigma, ff.sigma, name="lift")
    q = sigma.rows
    if q:
        full = SubspaceSymbol(np.eye(q), name="target", validate=False)
        if not ellipticity_check(sigma, sym, full):
            raise ArithmeticError("lift symbol failed its ellipticity check")
    return LiftResult(order=0, sigma=sigma, f_rank=q,
                      closure_residual=ff.closure_residual,
                      fit_residual=ff.fit_residual, frames={+1: ff, -1: ff})


# ---------------------------------------------------------------------------
# Stock subspaces
# ---------------------------------------------------------------------------

def hardy_subspace(shift=0, symbol=None):
    """Modes n >= shift of the trivial line bundle (shift 0: Hardy space).

    All shifts share one symbol object, so relative_index applies across
    the family.
    """
    sym = symbol if symbol is not None else SubspaceSymbol(
        np.eye(1), np.zeros((1, 1)), name="hardy", validate=False)

    def realizer(N):
        if shift > N:
            raise ValueError("shift outside the truncation window")
        eye = np.eye(2 * N + 1, dtype=complex)
        return SubspaceRealization(N, eye[:, shift + N:])

    return PdoSubspace(sym, realizer, name=f"hardy+{shift}" if shift else "hardy")


def mobius_symbol():
    """Rank-one even projection p(x) = v(x) v(x)^T, v = (cos x/2, sin x/2)."""
    c = {
        0: np.array([[0.5, 0.0], [0.0, 0.5]]),
        1: np.array([[0.25, -0.25j], [-0.25j, -0.25]]),
        -1: np.array([[0.25, 0.25j], [0.25j, -0.25]]),
    }
    face = TrigPolyMatrix(c)
    return SubspaceSymbol(face, face, name="mobius")


def mobius_subspace():
    return PdoSubspace(mobius_symbol(), name="mobius")


def trivial_subspace(rank, q, name=""):
    """Constant subspace spanned by the first q fiber coordinates."""
    P0 = np.zeros((rank, rank))
    P0[:q, :q] = np.eye(q)
    sym = SubspaceSymbol(P0, P0, name=name or f"trivial{q}of{rank}",
                         validate=False)

    def realizer(N):
        modes = 2 * N + 1
        eye = np.eye(rank, dtype=complex)[:, :q]
        B = np.kron(np.eye(modes, dtype=complex), eye)
        return SubspaceRealization(N, B)

    return PdoSubspace(sym, realizer, name=sym.name)


def full_subspace(rank, name=""):
    sym = SubspaceSymbol(np.eye(rank), name=name or f"full{rank}",
                         validate=False)
    return PdoSubspace(
        sym, lambda N: SubspaceRealization(N, np.eye(rank * (2 * N + 1),
                                                     dtype=complex)),
        name=sym.name)


def zero_subspace(rank):
    sym = SubspaceSymbol(np.zeros((rank, rank)), name=f"zero{rank}",
                         validate=False)
    return PdoSubspace(
        sym, lambda N: SubspaceRealization(
            N, np.zeros((rank * (2 * N + 1), 0), dtype=complex)),
        name=sym.name)


def two_face_subspace(p_plus, p_minus, name="twoface"):
    """Subspace whose symbol has constant (x-independent) but different
    faces; realized exactly mode by mode (no gap condition needed)."""
    p_plus = np.asarray(p_plus, dtype=complex)
    p_minus = np.asarray(p_minus, dtype=complex)
    sym = SubspaceSymbol(p_plus, p_minus, name=name)
    wp, Up = np.linalg.eigh(p_plus)
    wm, Um = np.linalg.eigh(p_minus)
    Bp = Up[:, wp > 0.5]
    Bm = Um[:, wm > 0.5]
    r = p_plus.shape[0]

    def realizer(N):
        cols = []
        for n in range(-N, N + 1):
            blk = Bp if n >= 0 else Bm  # zero mode sits on the + face
            q = blk.shape[1]
            col = np.zeros((r * (2 * N + 1), q), dtype=complex)
            col[(n + N) * r:(n + N + 1) * r] = blk
            cols.append(col)
        return SubspaceRealization(N, np.concatenate(cols, axis=1))

    return PdoSubspace(sym, realizer, name=name)


def conjugate_subspace(L, W, name="", fit_tol=1e-8):
    """Image of L under an invertible operator W: the subspace with
    pointwise symbol = orthogonal projection onto W(x) Im p(x), realized as
    the exact orthogonal projection onto W_N (Im P_N)."""
    if isinstance(W, TrigPolyMatrix):
        W = CircleSymbol(0, W, W, name="conj")
    sym0 = L.symbol

    def proj_face(sign):
        wface = W.face(sign)
        pface = sym0.face(sign)

        def fn(xs):
            pv = pface(xs)
            wv = wface(xs)
            w_, U = np.linalg.eigh(pv)
            out = np.zeros_like(pv)
            for j in range(len(xs)):
                cols = U[j][:, w_[j] > 0.5]
                if cols.shape[1] == 0:
                    continue
                M = wv[j] @ cols
                u, s, _ = np.linalg.svd(M, full_matrices=False)
                Q = u[:, :cols.shape[1]]
                out[j] = Q @ Q.conj().T
            return out

        return fit_trig_poly(fn, grid=max(64, 8 * (W.degree + sym0.degree + 1)),
                             tol=fit_tol)

    even_shortcut = sym0.parity == "Even" and \
        (W.plus - W.minus).max_abs() <= 1e-12
    plus = proj_face(+1)
    minus = plus if even_shortcut else proj_face(-1)
    sym = SubspaceSymbol(plus, minus, name=name or f"W({L.name})",
                         validate=False)

    def realizer(N):
        base = L.realize(N)
        M = quantize(W, N).matrix @ base.basis
        q = base.rank
        if q == 0:
            return SubspaceRealization(N, M, base.warnings)
        u, s, _ = np.linalg.svd(M, full_matrices=False)
        # truncated multiplication shifts boundary modes out the window;
        # those directions die and are dropped, the bulk is untouched
        keep = int((s > DEFAULT_TOL.rank_tol * s[0]).sum())
        if keep == 0:
            raise ArithmeticError("conjugation collapsed the subspace")
        warnings = base.warnings
        if keep < q:
            warnings = warnings + (
                f"conjugation dropped {q - keep} boundary directions",)
        return SubspaceRealization(N, u[:, :keep], warnings)

    return PdoSubspace(sym, realizer, name=sym.name)


def puncture(L, mode=0, coord=0):
    """Same symbol, realization one dimension smaller: the direction of the
    (mode, coord) ambient basis vector is removed from the range."""
    fiber = L.fiber

    def realizer(N):
        base = L.realize(N)
        B = base.basis
        idx = (mode + N) * fiber + coord
        v = B @ np.conj(B[idx])
        nv = np.linalg.norm(v)
        if nv < 0.1:
            raise ValueError("puncture direction nearly orthogonal to the "
                             "subspace; pick another (mode, coord)")
        v = v / nv
        C = B - np.outer(v, v.conj() @ B)
        u, s, _ = np.linalg.svd(C, full_matrices=False)
        keep = u[:, :base.rank - 1]
        return SubspaceRealization(N, keep, base.warnings +
                                   (f"punctured at mode {mode}",))

    return PdoSubspace(L.symbol, realizer, name=f"{L.name}-e({mode},{coord})")


def face_residual(L, N, mode_fraction=0.5):
    """How well the realized projection reproduces its symbol: compare the
    matrix blocks in deep bulk columns against the face Fourier
    coefficients."""
    r = L.fiber
    P = L.projection(N)
    d = L.symbol.degree
    resid = 0.0
    for sign in (+1, -1):
        n_src = sign * max(1, int(N * mode_fraction))
        face = L.symbol.face(sign)
        for k in range(-d, d + 1):
            n_dst = n_src + k
            if not (-N <= n_dst <= N):
                continue
            blk = P[(n_dst + N) * r:(n_dst + N + 1) * r,
                    (n_src + N) * r:(n_src + N + 1) * r]
            resid = max(resid, float(np.abs(blk - face.coeff(k)).max()))
    return resid


def dump_subspace_csv(L, truncations, path):
    """Per-N eigenvalues of the symmetrized quantization and rank of P_N."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "index", "eigenvalue_Q", "rank_PN"])
        for N in truncations:
            A = quantize(L.symbol.projection, N).matrix
            w = np.linalg.eigvalsh((A + A.conj().T) / 2)
            rank = L.rank(N)
            for i, val in enumerate(w):
                writer.writerow([N, i, repr(float(val)), rank])
    return path
