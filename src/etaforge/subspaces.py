"""Pseudodifferential subspaces of sections over the circle.

A subspace is the range of an order-zero projection.  It carries a
projection-valued symbol (two faces) and a family of exact finite
projections indexed by the Fourier truncation N.  One cache policy: what
a subspace (or an indexing.SubspaceOperator) computes is kept on it,
append-only and idempotent; a call that raises keeps nothing.
Realizations are cached per N, d(L) per (N, lift_order) in a memo that
indexing.dimension_functional fills, and an operator keeps its ellipticity
verdict and its parity double.  A realization keeps a selection or the
mode groups _local builds from column sets, never a dense basis that is
mostly zeros (see SubspaceRealization).  One memo is shared by value,
and it is the only one that keeps indices: indexing._SECTIONS keeps the
integer of every index section solved in the process (at most 4096, the
oldest dropped first) by the sha256 of N and of the digests, each cached
on its read-only object, of the symbol (each term's order and face
coefficient tables) and both realizations (the selection, or the band
and the mode groups: all the kernel reads), so equal sections of objects
built apart are solved once.  dict.setdefault is atomic, so concurrent
callers all get the one stored value.

A face's frame is the one its constructor recorded.  Each stock
constructor records an exact frame pair (F, F-perp) of each face,
F F* = p and F-perp F-perp* = 1 - p, on the symbol it builds
(SubspaceSymbol._frames): a base constructor from constant columns or
the Mobius line's s and t, which also realize the subspace and its
complement (see _shifts); a complement, direct sum, antipodal image or
unitary conjugate from its parent's pairs; a puncture shares its
parent's symbol.  lift_symbol and kzn.winding_datum read F through
_frame, which refuses a symbol with no record (spectral_subspace, a
non-unitary conjugate, a bare SubspaceSymbol) with ValueError.  Only
face_frames transports (Kato), caching each frame by face value
(lru_cache on _face_frame); it never reads a record, so the suite
generators, which build their symbols on it, keep their frames.  Each
stock constructor also records how to build alpha* of its subspace, the
pullback under xi -> -xi, from its parts' alpha* images (see
antipodal_subspace), so no other module builds a realization.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .core import (_RANK_TOL, TrigPolyMatrix, _fft_fit, _integer, _sha256,
                   constant_trig, fit_trig_poly, polar_unitary,
                   trig_blockdiag)
from .symbols import (CircleSymbol, TruncatedOperator,
                      _check_projection_faces, _range_basis, _symbols_agree,
                      antipodal_pullback, classify_parity, ellipticity_check,
                      quantize)

_SCALES = (1, 2, 3)  # an index is accepted when it agrees at every N * s
_FRAME_TOL = 1e-8  # closure and fit bound of a transported face frame
_ZERO_BAND = 1e-10  # spectral_subspace: |eigenvalue| <= _ZERO_BAND * scale

__all__ = [
    "ParityError",
    "RealizationGapError",
    "UnstableIndexError",
    "SubspaceSymbol",
    "SubspaceRealization",
    "PdoSubspace",
    "spectral_subspace",
    "relative_index",
    "orthocomplement",
    "rotation_homotopy",
    "rotation_unitary",
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
    "antipodal_subspace",
    "face_residual",
    "dump_subspace_csv",
]


class ParityError(ValueError):
    """Operation requires a parity the subspace does not have."""


class RealizationGapError(RuntimeError):
    """Quantized projection symbol has no spectral gap at this truncation."""


class UnstableIndexError(RuntimeError):
    """An index failed to agree across the three truncation scales."""


def _truncation(N):
    """N as a truncation: an int or numpy integer >= 1, not a bool.
    Anything else raises ValueError, checked where a truncation enters."""
    return _integer(N, "truncation N", 1)


class SubspaceSymbol(CircleSymbol):
    """Projection-valued order-zero symbol p; the symbol L = Im p of a
    subspace."""

    def __init__(self, plus, minus=None, name="", validate=True):
        super().__init__(0, plus, plus if minus is None else minus, name=name)
        if validate:
            _check_projection_faces(
                self, np.linspace(0.0, 2 * np.pi, 64, endpoint=False))
        # sign -> (F, F-perp): exact trigonometric frames of the face and of
        # its complement, F F* = p and F-perp F-perp* = 1 - p; set by the
        # stock constructors that know them (None: unknown)
        self._frames = None

    @property
    def parity(self):
        return classify_parity(self)

    def _with_frames(self, frames):
        self._frames = frames
        return self

    def complement(self):
        eye = np.eye(self.rank)
        out = SubspaceSymbol(constant_trig(eye) - self.plus,
                             constant_trig(eye) - self.minus,
                             name=f"({self.name})^perp" if self.name else "",
                             validate=False)
        rec = self._frames
        return out._with_frames(
            rec and {s: (C, F) for s, (F, C) in rec.items()})

    def antipodal(self):
        rec = self._frames
        return SubspaceSymbol(self.minus, self.plus, name=self.name,
                              validate=False)._with_frames(
            rec and {+1: rec[-1], -1: rec[+1]})

    def direct_sum(self, other):
        sym = super().direct_sum(other)
        a, b = self._frames, other._frames
        return SubspaceSymbol(sym.plus, sym.minus, validate=False,
                              name=f"{self.name}+{other.name}")._with_frames(
            a and b and {s: tuple(map(trig_blockdiag, zip(a[s], b[s])))
                         for s in (+1, -1)})


def _readonly(a):
    a.setflags(write=False)
    return a


class SubspaceRealization:
    """Exact finite projection at one truncation: an orthonormal basis of
    its range, kept as a selection or as its mode groups.

    Every realization is mode-local: it records the lowest mode (0 .. 2N -
    band) of each basis column in `modes` and one `band` for all of them,
    and a column of lowest mode m lies on the modes m .. m + band.
    Coordinate and two-face realizations have band 0; the shifts F e^{ikx}
    of a frame F have band deg F; a conjugate by a loop W widens its
    parent's band by W's spread; a bare basis has band 2N (see _bare).
    Kept: `modes`, `band`, the ambient dimension and either `select`, the
    coordinates a coordinate subspace's columns pick, in column order, or
    the mode groups `_by_mode` (see _ModeGroups) that _local, the one
    builder of every other realization, makes from column sets.  `basis`
    (dim x rank) is rebuilt on each read.  The index kernel reads only the
    selection and the groups, a realizer only its parent's columns, save
    the SVD fallbacks of orthocomplement and conjugate_subspace."""

    def __init__(self, N, groups=None, warnings=(), select=None, dim=None,
                 modes=None, band=None):
        self.N = N
        self.warnings = warnings
        self.select = None
        if select is not None:
            self.select = _readonly(np.asarray(select, dtype=np.intp))
            self._dim = dim
            modes, band = self.select // (dim // (2 * N + 1)), 0
        else:  # grouped by _local
            self._by_mode, self._dim = groups, (2 * N + 1) * groups.fiber
        self.band = band
        self.modes = _readonly(np.asarray(modes, dtype=np.intp))

    @property
    def basis(self):
        n = 2 * self.N + 1
        return _readonly(_placed(self.modes, _columns(self), 0, n,
                                 self._dim // n).T)

    @property
    def rank(self):
        return self.modes.size

    @cached_property
    def _digest(self):
        """sha256 of all that the index kernel reads here: the ambient
        dimension and selection, else the band and the mode groups' order,
        modes, positions and stack (see indexing._SECTIONS)."""
        if self.select is not None:
            return _sha256(0, self._dim, self.select)
        g = self._by_mode
        return _sha256(1, self.band, g.order, g.modes, g.pos, g.stack)

    @cached_property
    def _by_mode(self):  # a selection's, sorted by coordinate (see __init__)
        fiber = self._dim // (2 * self.N + 1)
        return _groups(self.modes, fiber, np.eye(fiber)[self.select % fiber],
                       np.argsort(self.select, kind="stable"))


@dataclass(frozen=True)
class _ModeGroups:
    """A realization's columns grouped by lowest mode, read-only.  `order`
    sorts the columns (by mode; a selection by coordinate); group g holds
    the columns of lowest mode modes[g] at the sorted positions pos[g]
    (padded with the rank), and stack[g], their entries on the rows
    `windows[g]` of the modes modes[g] .. modes[g] + band, zero in the
    padding: (groups, (band + 1) * fiber, most columns).  That is all."""

    order: np.ndarray
    modes: np.ndarray
    pos: np.ndarray
    stack: np.ndarray
    fiber: int

    windows = property(lambda g: g.modes[:, None] * g.fiber
                       + np.arange(g.stack.shape[1]))


def _groups(modes, fiber, cols, order=None):
    """The _ModeGroups of columns of lowest modes `modes` and entries
    cols[j] from mode modes[j] on; `order` sorts them (default: by mode)."""
    n = modes.size
    if order is None:
        order = np.argsort(modes, kind="stable")
    sorted_modes = modes[order]
    # a group starts where the sorted mode steps (not np.unique, whose
    # first call imports numpy.ma)
    new = np.ones(n, dtype=bool)
    new[1:] = sorted_modes[1:] != sorted_modes[:-1]
    starts = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    slot = np.arange(n) - starts[group]
    pos = np.full((starts.size, slot.max(initial=-1) + 1), n)
    pos[group, slot] = np.arange(n)
    stack = np.zeros((starts.size, cols.shape[1], pos.shape[1]),
                     dtype=complex)
    stack[group, :, slot] = cols[order]
    return _ModeGroups(*map(_readonly, (order, sorted_modes[starts], pos,
                                        stack)), fiber)


def _columns(real):
    """real's columns, each one's entries from its lowest mode on."""
    g = real._by_mode
    gi, slot = np.nonzero(g.pos < real.rank)
    out = np.empty((real.rank, g.stack.shape[1]), dtype=complex)
    out[g.order[g.pos[gi, slot]]] = g.stack[gi, :, slot]
    return out


def _placed(modes, cols, low, width, fiber):
    """cols (as in _columns, from the lowest modes `modes` on) on the width
    modes from mode low on, one row each; an entry off them is dropped."""
    at = (modes - low)[:, None] * fiber + np.arange(cols.shape[1])
    out = np.zeros((modes.size, width * fiber + 1), dtype=complex)
    out[np.arange(modes.size)[:, None],
        np.where((at >= 0) & (at < width * fiber), at, width * fiber)] = cols
    return out[:, :-1]


def _local(N, parts, fiber, warnings=()):
    """One realization from mutually orthonormal parts of one fiber (each a
    realization or (modes, band, cols), cols as in _columns, zero off the
    window), widened to the widest band: a lowest mode clipped into
    0 .. 2N - band either way moves its entries as much."""
    parts = [p if isinstance(p, tuple) else (p.modes, p.band, _columns(p))
             for p in parts]
    band = max(b for _, b, _ in parts)

    def widened(modes, cols):
        low = np.clip(modes, 0, 2 * N - band)
        return low, _placed(modes, cols, low, band + 1, fiber)

    low, cols = map(np.concatenate, zip(*(widened(m, c) for m, _, c in parts)))
    return SubspaceRealization(N, _groups(low, fiber, cols), warnings,
                               modes=low, band=band)


def _bare(N, U, warnings):
    """The realization of a bare basis U, whose columns may reach every
    mode: band 2N, every lowest mode 0."""
    return _local(N, [(np.zeros(U.shape[1], np.intp), 2 * N, U.T)],
                  U.shape[0] // (2 * N + 1), warnings)


class PdoSubspace:
    """A subspace together with its per-N exact projections.

    `realizer` maps N to a SubspaceRealization; the default cuts the
    spectrum of the symmetrized quantization of the symbol.  `_dims` holds
    d(L) by (N, lift_order), apart from the realizations.

    A stock constructor records in `_perp` how to realize the complement:
    N -> mode-local columns orthogonal to the realization that span its
    complement but for a few vectors at the window edges (None: cannot),
    and in `_alpha` how to build alpha* of it: () -> the same constructor
    on its parts' alpha* images (see antipodal_subspace; None: no recipe).
    A recipe reads the parents, never its own subspace: no cycle.
    """

    def __init__(self, symbol, realizer=None, name=""):
        self.symbol = symbol
        self.name = name or symbol.name
        self._realizer = realizer or partial(_gap_realization, symbol)
        self._alpha = None if realizer else (  # the antipodal symbol's cut
            lambda: PdoSubspace(symbol.antipodal()))
        self._perp = None
        self._cache = {}
        self._dims = {}

    @property
    def fiber(self):
        return self.symbol.rank

    def realize(self, N):
        N = _truncation(N)
        hit = self._cache.get(N)
        if hit is not None:
            return hit
        return self._cache.setdefault(N, self._realizer(N))

    def realized_truncations(self):
        return tuple(sorted(self._cache))

    def basis(self, N):
        return self.realize(N).basis

    def rank(self, N):
        return self.realize(N).rank

    def direct_sum(self, other):
        sym = self.symbol.direct_sum(other.symbol)
        f1, f2 = self.fiber, other.fiber
        out = PdoSubspace(
            sym, lambda N: _sum_realization(self.realize(N), other.realize(N),
                                            N, f1, f2),
            name=f"{self.name}+{other.name}")
        p1, p2 = self._perp, other._perp
        if p1 is not None and p2 is not None:
            out._perp = lambda N: _sum_realization(p1(N), p2(N), N, f1, f2)
        out._alpha = lambda: antipodal_subspace(self).direct_sum(
            antipodal_subspace(other))
        return out

    def __repr__(self):
        return f"PdoSubspace({self.name or self.symbol.parity}, fiber={self.fiber})"


def _sum_realization(a, b, N, f1, f2):
    """A direct sum's realization from its summands' (None if one is
    None): coordinates when both are, else their columns in the sum's."""
    if a is None or b is None:
        return None
    warnings = a.warnings + b.warnings
    if a.select is not None and b.select is not None:
        # coordinate (mode m, c) of a summand is m * (f1 + f2) + c
        sel = np.concatenate([
            a.select // f1 * (f1 + f2) + a.select % f1,
            b.select // f2 * (f1 + f2) + f1 + b.select % f2])
        return SubspaceRealization(N, warnings=warnings, select=sel,
                                   dim=(2 * N + 1) * (f1 + f2))
    parts = [(r.modes, r.band, np.pad(
        _columns(r).reshape(r.rank, r.band + 1, f),
        ((0, 0), (0, 0), (at, f1 + f2 - at - f))).reshape(r.rank, -1))
        for r, f, at in ((a, f1, 0), (b, f2, f1))]
    return _local(N, parts, f1 + f2, warnings)


def _symmetrized(symbol, N):
    """The symmetrized quantization (A + A*) / 2, A = quantize(symbol, N)."""
    A = quantize(symbol, N).matrix
    return (A + A.conj().T) / 2


def _gap_realization(symbol, N):
    w, U = np.linalg.eigh(_symmetrized(symbol, N))
    ties = np.abs(w - 0.5) <= 1e-6
    inside = (w >= 0.25) & (w <= 0.75) & ~ties
    if inside.any():
        raise RealizationGapError(
            f"symbol not projectively realizable at N={N}: "
            f"{int(inside.sum())} eigenvalues inside the gap band")
    warnings = ()
    if ties.any():
        warnings = (f"{int(ties.sum())} eigenvalues at the gap center 1/2 "
                    f"assigned to the complement side",)
    return _bare(N, U[:, w > 0.75], warnings)


def spectral_subspace(A):
    """Nonnegative spectral subspace of a self-adjoint elliptic operator.

    The finite projections come from the eigenvectors of the (re)quantized
    operator with eigenvalue >= 0; eigenvalues within _ZERO_BAND (relative
    to the spectrum) of zero but nonzero are kept on the side their sign
    dictates and recorded as boundary warnings.  The symbol is the
    pointwise nonnegative spectral projection of the principal symbol.
    """
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
            if np.abs(w).min() <= _ZERO_BAND * scale:
                raise ValueError("principal symbol is not invertible")
            sel = (w >= 0).astype(float)
            return np.einsum("gik,gk,gjk->gij", U, sel, np.conj(U))

        return fit_trig_poly(fn, principal.degree)

    sym = SubspaceSymbol(pos_face(+1), pos_face(-1), name="spectral",
                         validate=False)

    def realizer(N):
        w, U = np.linalg.eigh(_symmetrized(A.symbol, N))
        scale = max(float(np.abs(w).max()), 1.0)
        near = (np.abs(w) <= _ZERO_BAND * scale) & (w != 0)
        warnings = ()
        if near.any():
            warnings = (f"{int(near.sum())} eigenvalues within "
                        f"{_ZERO_BAND:g} of 0 kept on their sign side",)
        return _bare(N, U[:, w >= 0], warnings)

    return PdoSubspace(sym, realizer, name="spectral")


def relative_index(L1, L2, N=16):
    """ind(P2 : Im P1 -> Im P2) for subspaces with the same symbol: the rank
    difference of the realized projections, accepted when it agrees at
    every truncation scale."""
    N = _truncation(N)
    if not _symbols_agree(L1.symbol, L2.symbol):
        raise ValueError("relative index needs subspaces with equal symbols")
    vals = [L1.rank(N * s) - L2.rank(N * s) for s in _SCALES]
    if len(set(vals)) != 1:
        raise UnstableIndexError(f"relative index did not stabilize: {vals}")
    return vals[0]


def orthocomplement(L):
    """The complement of L: of a coordinate realization, the other
    coordinates; of one whose constructor recorded its complement
    (`_perp`), that recipe completed at the window's edges (see
    _completed); else, or when the edges do not complete it, the trailing
    left singular vectors of the basis, a bare basis (band 2N)."""
    sym = L.symbol.complement()
    perp = L._perp

    def realizer(N):
        base = L.realize(N)
        if base.select is not None:  # the complement of coordinates
            dim = (2 * N + 1) * L.fiber
            # a mask (np.delete), not np.setdiff1d: its first call
            # imports numpy.ma
            return SubspaceRealization(
                N, warnings=base.warnings, dim=dim,
                select=np.delete(np.arange(dim), base.select))
        part = None if perp is None else perp(N)
        done = None if part is None else _completed(N, base, part, L.fiber)
        if done is not None:
            return done
        u = np.linalg.svd(base.basis)[0]  # an empty basis gives eye(dim)
        return _bare(N, u[:, base.rank:], base.warnings)

    out = PdoSubspace(sym, realizer, name=f"{L.name}^perp" if L.name else "")
    out._perp = L.realize  # the complement's complement is L
    out._alpha = lambda: orthocomplement(antipodal_subspace(L))
    return out


def _completed(N, real, part, fiber):
    """real's complement: the recorded columns `part` and the vectors both
    miss, at the window edges.  An edge block reaches band + 1 modes past
    the outermost column; the vectors on it orthogonal to all columns are
    the left singular vectors past the rank of the columns meeting it, on
    its rows, one small SVD per edge.  None when the edges do not hold
    every missing dimension (a window too small for the recipe's band)."""
    dim = (2 * N + 1) * fiber
    missing = dim - real.rank - part.rank
    if missing == 0:
        return _local(N, [part], fiber, real.warnings)
    band = max(real.band, part.band)
    modes = np.concatenate([real.modes, part.modes])
    w_lo = min(N, modes.min() + band + 1)
    w_hi = min(N, max(2 * N - modes.max() - band, 0) + band + 1)
    parts = [part]
    for low, w, meets in ((0, w_lo, modes < w_lo),
                          (2 * N + 1 - w_hi, w_hi,
                           modes + band >= 2 * N + 1 - w_hi)):
        block = np.concatenate([_placed(r.modes, _columns(r), low, w, fiber)
                                for r in (real, part)])
        u, s, _ = np.linalg.svd(block[meets].T)
        u = u[:, int((s > _RANK_TOL).sum()):]
        parts.append((np.full(u.shape[1], low), w - 1, u.T))  # see _local
    if sum(len(c) for *_, c in parts[1:]) != missing:
        return None
    return _local(N, parts, fiber, real.warnings)


def _check_projection_matrix(P):
    P = np.asarray(P, dtype=complex)
    scale = max(np.linalg.norm(P), 1.0)
    if np.linalg.norm(P - P.conj().T) > 1e-10 * scale or \
       np.linalg.norm(P @ P - P) > 1e-10 * scale:
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

def _transport_states(p, G):
    """Kato transport F' = [p', p] F over [0, 2pi], RK4 with per-step
    re-orthonormalization onto Im p; returns frames at 2*G uniform points
    plus the endpoint."""
    r, oversample = p.shape[0], 8  # RK4 steps per grid cell 2pi/G
    halfsteps = 2 * G * oversample
    xs = 2 * np.pi * np.arange(halfsteps + 1) / halfsteps
    pv = p(xs)
    dv = p.derivative()(xs)
    comm = np.matmul(dv, pv) - np.matmul(pv, dv)
    F = _range_basis(pv[0])
    out = np.empty((2 * G + 1, r, F.shape[1]), dtype=complex)
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


@lru_cache(maxsize=256)
def _face_frame(p):
    """Periodic orthonormal frame F of Im p, F F* = p, by Kato transport.

    A pure function of the value of p, cached by it.  A constant face
    (trimmed degree 0) needs no transport: its frame is _range_basis(c_0).
    Otherwise the transported frame may return holonomy-rotated; the
    holonomy eigenphases are spread linearly over the circle to close it
    up.  The frame is a certified trig polynomial, fit on half the samples
    and validated on the other half; the grid G starts at 128 and doubles
    up to 2048, and a closure or fit residual still above _FRAME_TOL
    raises ArithmeticError.
    """
    if p.trimmed().degree == 0:
        return TrigPolyMatrix(_range_basis(p.coeff(0))[None])
    G = 128
    while True:
        states = _transport_states(p, G)
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
        if max(resid, closure) <= _FRAME_TOL or 2 * G > 2048:
            break
        G *= 2
    if max(resid, closure) > _FRAME_TOL:
        raise ArithmeticError(
            f"frame transport failed to close/fit ({closure:.1e}/{resid:.1e})")
    return fit


def face_frames(symbol):
    """Per-face periodic frames F of a SubspaceSymbol, by Kato transport
    (or the range basis of a constant face); each is cached by the face's
    value, so equal faces (of this or any symbol) share a frame.  It never
    reads the frames a symbol records: the suite generators build their
    symbols on these frames, so a frame in another gauge would change
    those symbols, and the tests use it as an oracle for the records."""
    return {s: _face_frame(symbol.face(s)) for s in (+1, -1)}


def _frame(symbol, sign):
    """The frame F of a face, F F* = p, that the symbol's constructor
    recorded; ValueError when it recorded none."""
    if symbol._frames is None:
        raise ValueError(f"no recorded frame for the symbol {symbol.name!r}")
    return symbol._frames[sign][0]


def lift_symbol(L):
    """Trivialization of an even subspace symbol over the circle.

    Returns sigma = F*, an order-zero symbol with equal faces restricting
    to an isomorphism Im p -> trivial rank-q fiber, for F the frame
    recorded for the + face (see _frame; a symbol with no record raises
    ValueError).  Over the circle no doubling is ever needed, so the lift
    has order 0.
    """
    sym = L.symbol
    face = _frame(sym, +1).conj_transpose()
    if sym.parity != "Even":
        raise ParityError("lift over the circle needs an even subspace")
    sigma = CircleSymbol(0, face, face, name="lift")
    q = sigma.rows
    if q:
        full = SubspaceSymbol(np.eye(q), name="target", validate=False)
        if not ellipticity_check(sigma, sym, full):
            raise ArithmeticError("lift symbol failed its ellipticity check")
    return sigma


# ---------------------------------------------------------------------------
# Stock subspaces
# ---------------------------------------------------------------------------

def _coordinates(B):
    """Fiber coordinates picked by B's columns when each column is a
    coordinate vector, else None."""
    idx = np.argmax(np.abs(B), axis=0)
    return idx if np.array_equal(B, np.eye(B.shape[0])[:, idx]) else None


def _shifts(plus, minus, cut, N):
    """The shifts F e^{ikx} that fit the window -N .. N, in order of k, F
    the frame `plus` for k >= cut and `minus` below.  A frame with nonzero
    coefficients on the modes lo .. hi puts shift k on the modes
    k + lo .. k + hi: a mode-local basis of band hi - lo (orthonormal for
    constant frames and the Mobius s and t, whose entries are +-1/2 and
    +-i/2), or a selection when both frames are coordinate columns."""
    if abs(cut) > N:
        raise ValueError("shift outside the truncation window")
    r = plus.shape[0]
    parts, sel = [], []
    for F, first, stop in ((minus, -N, cut), (plus, cut, N + 1)):
        if F.shape[1] == 0:
            continue
        T = F.coeff_table()
        nz = np.flatnonzero(T.reshape(len(T), -1).any(axis=1))
        T = T[nz[0]:nz[-1] + 1]
        lo, hi = nz[0] - F.degree, nz[-1] - F.degree
        m = np.arange(max(first, -N - lo), min(stop, N + 1 - hi)) + lo + N
        idx = _coordinates(T[0]) if len(T) == 1 else None
        sel.append(None if idx is None else (m[:, None] * r + idx).ravel())
        # frame column c of every shift: coefficient lo + j on mode m + j
        cols = T.transpose(2, 0, 1).reshape(F.shape[1], -1)
        parts.append((np.repeat(m, F.shape[1]), hi - lo,
                      np.tile(cols, (m.size, 1))))
    if all(x is not None for x in sel):
        return SubspaceRealization(
            N, select=np.concatenate([np.zeros(0, np.intp), *sel]),
            dim=(2 * N + 1) * r)
    return _local(N, parts, r)


def _const(B):
    # a constant frame, its entries kept bit for bit
    return TrigPolyMatrix(np.asarray(B, dtype=complex)[None])


def _framed(sym, name, cut=0):
    """A subspace realized by the shifts of its symbol's recorded frames
    (see _shifts), its complement recorded as the shifts of theirs; alpha*
    of it is framed by the swapped frames, the + face's k >= cut becoming
    the - face's k < 1 - cut."""
    (Fp, Cp), (Fm, Cm) = sym._frames[+1], sym._frames[-1]
    L = PdoSubspace(sym, partial(_shifts, Fp, Fm, cut), name=name)
    L._perp = partial(_shifts, Cp, Cm, cut)
    L._alpha = lambda: _framed(sym.antipodal(), name, 1 - cut)
    return L


def hardy_subspace(shift=0):
    """Modes n >= shift of the trivial line bundle (shift 0: Hardy space).

    Every shift has the same symbol, so relative_index applies across the
    family.  A shift that is not an integer raises ValueError.
    """
    shift = _integer(shift, "hardy shift")
    one, none = _const(np.eye(1)), _const(np.zeros((1, 0)))
    sym = SubspaceSymbol(np.eye(1), np.zeros((1, 1)), name="hardy",
                         validate=False)._with_frames(
        {+1: (one, none), -1: (none, one)})
    return _framed(sym, f"hardy+{shift}" if shift else "hardy", cut=shift)


def mobius_symbol():
    """Rank-one even projection p(x) = v(x) v(x)^T, v = (cos x/2, sin x/2).
    Its frames are recorded: s(x) = e^{ix/2} v(x) = ((1 + e^{ix})/2,
    -i(e^{ix} - 1)/2), with s s* = p, and t(x) = e^{ix/2} (-sin x/2,
    cos x/2), pointwise orthogonal to s, with t t* = 1 - p."""
    c = {
        0: np.array([[0.5, 0.0], [0.0, 0.5]]),
        1: np.array([[0.25, -0.25j], [-0.25j, -0.25]]),
        -1: np.array([[0.25, 0.25j], [0.25j, -0.25]]),
    }
    face = TrigPolyMatrix(c)
    # coefficient tables from mode -1: s_0 + s_1 e^{ix}, t_0 + t_1 e^{ix}
    s = TrigPolyMatrix(np.array([[0, 0], [.5, .5j], [.5, -.5j]])[..., None])
    t = TrigPolyMatrix(np.array([[0, 0], [-.5j, .5], [.5j, .5]])[..., None])
    return SubspaceSymbol(face, face, name="mobius")._with_frames(
        {+1: (s, t), -1: (s, t)})


def mobius_subspace():
    """The Mobius line, realized by its frame's shifts s e^{ikx},
    k = -N .. N-1: the subspace the spectral cut of the quantized face
    gives (rank 2N), in an exactly orthonormal basis of band 1.  Its
    complement is recorded as the shifts of t, which miss one vector at
    each window edge."""
    return _framed(mobius_symbol(), "mobius")


def trivial_subspace(rank, q, name=""):
    """Constant subspace spanned by the first q fiber coordinates; rank
    and q are integers, 0 <= q <= rank (else ValueError)."""
    rank = _integer(rank, "fiber rank", 0)
    q = _integer(q, "subspace rank q", 0, rank)
    eye = np.eye(rank)
    E, perp = eye[:, :q], eye[:, q:]
    pair = (_const(E), _const(perp))
    sym = SubspaceSymbol(E @ E.T, E @ E.T, name=name or f"trivial{q}of{rank}",
                         validate=False)._with_frames({+1: pair, -1: pair})
    return _framed(sym, sym.name)


def full_subspace(rank, name=""):
    return trivial_subspace(rank, rank, name or f"full{rank}")


def zero_subspace(rank):
    return trivial_subspace(rank, 0, f"zero{rank}")


def two_face_subspace(p_plus, p_minus, name="twoface"):
    """Subspace whose symbol has constant (x-independent) but different
    faces; realized exactly mode by mode (no gap condition needed), the
    zero mode on the + face, and so is its complement, from the
    complement faces."""
    p_plus = np.asarray(p_plus, dtype=complex)
    p_minus = np.asarray(p_minus, dtype=complex)
    eye = np.eye(len(p_plus))
    sym = SubspaceSymbol(p_plus, p_minus, name=name)._with_frames({
        s: (_const(_range_basis(p)), _const(_range_basis(eye - p)))
        for s, p in ((+1, p_plus), (-1, p_minus))})
    return _framed(sym, name)


def _conjugated(W, real, N):
    """quantize(W) applied to the columns of a realization whose own image
    under W fits the window, for a unitary loop W with first and last
    nonzero Fourier coefficients k0 and k1: a column of lowest mode m and
    band b goes to lowest mode m + k0 and band b + k1 - k0, orthonormal as
    W*W = I.  Its entries (see _columns) are convolved with W's table, and
    a column some W_k shifts past an edge is dropped.  None when the band
    would pass 2N or no column of a nonempty realization is kept."""
    table = W.coeff_table()
    nz = np.flatnonzero(table.reshape(len(table), -1).any(axis=1)) - W.degree
    band = real.band + nz[-1] - nz[0]
    if band > 2 * N:
        return None
    q, b = real.rank, real.band
    cols = _columns(real).reshape(q, b + 1, W.shape[1])
    out = np.zeros((q, band + 1, W.shape[0]), dtype=complex)
    mode = real.modes[:, None] + np.arange(b + 1)  # of each entry
    spill = np.zeros(q, dtype=bool)
    for k in nz:  # entry i feeds entry i + k - k0 through W_k
        image = np.einsum("rf,qif->qir", table[k + W.degree], cols)
        out[:, k - nz[0]:k - nz[0] + b + 1] += image
        past = (mode + k < 0) | (mode + k > 2 * N)
        spill |= (image.any(axis=2) & past).any(axis=1)
    if q and spill.all():
        return None
    return _local(N, [(real.modes[~spill] + nz[0], band,
                       out[~spill].reshape(-1, (band + 1) * W.shape[0]))],
                  W.shape[0], _dropped(real.warnings, int(spill.sum())))


def _dropped(warnings, lost):
    # a conjugation's warning for the directions it shifted out the window
    return warnings + (f"conjugation dropped {lost} boundary directions",) \
        if lost else warnings


def conjugate_subspace(L, W, name=""):
    """Image of L under an invertible operator W: the subspace with
    pointwise symbol = orthogonal projection onto W(x) Im p(x).  A unitary
    loop W (order 0, equal faces, W*W = I to 1e-12 in max_abs on the
    coefficient table, tested once, here) keeps the columns of L's
    realization whose own image fits the window (see _conjugated), and
    the complement is recorded as W applied to L's; else, or when no
    column of a nonempty realization fits or the band would pass 2N (a
    bare basis under a loop of nonzero spread), the realization is the
    exact orthogonal projection onto W_N (Im P_N), from an SVD.
    Either way N <= 2 deg W raises ValueError, as quantize(W, N) does.  A
    unitary W also records the frames (W F, W F-perp) of L's recorded
    ones on the symbol, whatever their degree."""
    if isinstance(W, TrigPolyMatrix):
        W = CircleSymbol(0, W, W, name="conj")
    sym0 = L.symbol

    def proj_face(sign):
        wface = W.face(sign)
        pface = sym0.face(sign)

        def fn(xs):
            B = _range_basis(pface(xs))
            if B is None:
                raise ValueError("face rank is not constant in x")
            Q = np.linalg.svd(wface(xs) @ B, full_matrices=False)[0]
            return Q @ np.conj(np.swapaxes(Q, 1, 2))

        return fit_trig_poly(fn, W.degree + sym0.degree)

    even_shortcut = sym0.parity == "Even" and \
        (W.plus - W.minus).max_abs() <= 1e-12
    plus = proj_face(+1)
    minus = plus if even_shortcut else proj_face(-1)
    # quantize(W) multiplies by W.plus: unweighted, one face
    loop, r = W.plus, W.rows
    if W.order or W.plus != W.minus or W.rank != r or \
            (loop.conj_transpose() @ loop - np.eye(r)).max_abs() > 1e-12:
        loop = None
    rec = loop and sym0._frames and {
        s: (loop @ F, loop @ C) for s, (F, C) in sym0._frames.items()}
    sym = SubspaceSymbol(plus, minus, name=name or f"W({L.name})",
                         validate=False)._with_frames(rec)

    def local(N, real):
        if real is None or loop is None:
            return None
        if N <= 2 * W.degree:
            raise ValueError("truncation too small for the symbol degree")
        return _conjugated(loop, real, N)

    def realizer(N):
        base = L.realize(N)
        out = local(N, base)
        if out is not None:
            return out
        q = base.rank
        u, s, _ = np.linalg.svd(quantize(W, N).matrix @ base.basis,
                                full_matrices=False)
        # truncated multiplication shifts boundary modes out the window;
        # those directions die and are dropped, the bulk is untouched
        keep = int((s > _RANK_TOL * s.max(initial=0)).sum())
        if keep == 0 < q:
            raise ArithmeticError("conjugation collapsed the subspace")
        return _bare(N, u[:, :keep], _dropped(base.warnings, q - keep))

    out = PdoSubspace(sym, realizer, name=sym.name)
    perp = L._perp
    if perp is not None:
        out._perp = lambda N: local(N, perp(N))
    out._alpha = lambda: conjugate_subspace(antipodal_subspace(L),
                                            antipodal_pullback(W))
    return out


def _punctured(base, N, idx, fiber):
    """base less v, the direction of its projection of e_idx, and v as a
    one-column realization.  A selection drops idx.  Else only the columns
    C that meet idx change: v = C a, a = conj(C[idx]) / |C[idx]|, so C Q,
    for Q an orthonormal basis of the complement of a, is orthonormal, and
    its columns reach the modes C's reach, the only ones Q mixes."""
    warnings = base.warnings + (f"punctured at mode {idx // fiber - N}",)
    far = ValueError("puncture direction nearly orthogonal to the "
                     "subspace; pick another (mode, coord)")
    if base.select is not None:
        if idx not in base.select:
            raise far
        dim = (2 * N + 1) * fiber
        return (SubspaceRealization(N, warnings=warnings, dim=dim,
                                    select=base.select[base.select != idx]),
                SubspaceRealization(N, dim=dim, select=[idx]))
    cols = _columns(base)
    row = _placed(base.modes, cols, idx // fiber, 1, fiber)[:, idx % fiber]
    nv = np.linalg.norm(row)
    if nv < 0.1:
        raise far
    J = np.flatnonzero(row)
    Q = np.linalg.qr(np.conj(row[J])[:, None] / nv, mode="complete")[0]
    lo = base.modes[J].min()
    width = base.modes[J].max() + base.band - lo
    # C on its modes lo .. lo + width; column 0 is v, up to a phase
    C = (_placed(base.modes[J], cols[J], lo, width + 1, fiber).T @ Q).T
    rest = row == 0
    return (_local(N, [(base.modes[rest], base.band, cols[rest]),
                       (np.full(J.size - 1, lo), width, C[1:])],
                   fiber, warnings),
            _local(N, [(np.array([lo]), width, C[:1])], fiber))


def puncture(L, mode=0, coord=0):
    """Same symbol, realization one dimension smaller: the direction of the
    (mode, coord) ambient basis vector is removed from the range (see
    _punctured), and the complement is recorded as L's plus that
    direction.  A mode or coord that is not an integer, or a coord
    outside [0, fiber), raises ValueError here, a mode outside [-N, N] at
    realization.  The complement recipe builds the direction again."""
    fiber = L.fiber
    mode = _integer(mode, "puncture mode")
    coord = _integer(coord, "puncture coord")
    if not 0 <= coord < fiber:
        raise ValueError(f"coord {coord} outside the fiber [0, {fiber})")

    def punctured(N):
        if abs(mode) > N:
            raise ValueError(f"mode {mode} outside the truncation window")
        return _punctured(L.realize(N), N, (mode + N) * fiber + coord, fiber)

    def perp(N):
        part = parent(N)
        return None if part is None else \
            _local(N, [part, punctured(N)[1]], fiber)

    out = PdoSubspace(L.symbol, lambda N: punctured(N)[0],
                      name=f"{L.name}-e({mode},{coord})")
    parent = L._perp
    if parent is not None:
        out._perp = perp
    out._alpha = lambda: puncture(antipodal_subspace(L), -mode, coord)
    return out


def antipodal_subspace(L):
    """alpha* L, the pullback under xi -> -xi: symbol p(x, -xi), faces
    swapped.  alpha* commutes with every stock constructor, so alpha* L is
    built as L was, from its parts' images (PdoSubspace._alpha): a framed
    subspace from its swapped frames and cut 1 - c, a sum from its
    summands' images, a complement, a puncture at mode -m or a conjugate
    by alpha* W from its parent's image, a gap cut from the antipodal
    symbol.  With no recipe (spectral_subspace, a caller-supplied
    realizer) it raises ValueError."""
    if L._alpha is None:
        raise ValueError(f"no antipodal recipe for the subspace {L!r}")
    out = L._alpha()
    out.name = f"alpha*{L.name}" if L.name else ""
    return out


def face_residual(L, N):
    """How well the realized projection reproduces its symbol: compare the
    matrix blocks in the bulk columns of modes +-N//2 against the face
    Fourier coefficients."""
    r = L.fiber
    B = L.basis(N)
    P = B @ B.conj().T
    d = L.symbol.degree
    resid = 0.0
    for sign in (+1, -1):
        n_src = sign * max(1, N // 2)
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
            w = np.linalg.eigvalsh(_symmetrized(L.symbol, N))
            rank = L.rank(N)
            for i, val in enumerate(w):
                writer.writerow([N, i, repr(float(val)), rank])
    return path
