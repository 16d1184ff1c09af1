"""Elliptic operators acting in pseudodifferential subspaces.

The analytic index of D = P2 A P1 : Im P1 -> Im P2 is extracted from
finite sections: compress the quantized symbol to the realized subspaces,
take the near-null singular vectors on both sides, and count only those
localized in the bulk half of the mode window (the boundary of the
truncation sheds spurious null directions that an unfiltered rank count
would absorb).  The count must agree across three truncation scales.
"""
from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, EllipticityViolation, fit_trig_poly
from .dyadic import DyadicRational
from .subspaces import PdoSubspace, UnstableIndexError, full_subspace
from .symbols import (CircleSymbol, FullSymbol, ellipticity_check, mode_labels,
                      quantize)

__all__ = [
    "SubspaceOperator",
    "antipodal_subspace",
    "analytic_index",
    "build_parity_double",
    "index_formula_report",
]


class SubspaceOperator:
    """An operator D : L1 -> L2 given by a symbol and two subspaces."""

    def __init__(self, symbol, source, target, name=""):
        self.symbol = symbol if isinstance(symbol, FullSymbol) \
            else FullSymbol.of(symbol)
        lead = self.symbol.principal
        if (lead.rows, lead.rank) != (target.fiber, source.fiber):
            raise ValueError("symbol shape incompatible with the subspaces")
        self.source = source
        self.target = target
        self.name = name

    @property
    def order(self):
        return self.symbol.order

    @property
    def principal(self):
        return self.symbol.principal

    def full_matrix(self, N):
        return quantize(self.symbol, N).matrix

    def is_elliptic(self, tol=None):
        tol = DEFAULT_TOL if tol is None else tol
        return ellipticity_check(self.principal, self.source.symbol,
                                 self.target.symbol, tol.rank_tol)

    def with_lower_order(self, *terms):
        """Same operator with extra asymptotic terms appended."""
        return SubspaceOperator(FullSymbol.of(*self.symbol.terms, *terms),
                                self.source, self.target, name=self.name)

    def compose(self, other):
        """self after other (principal symbols compose; expansions drop)."""
        gap = max((self.source.symbol.plus - other.target.symbol.plus).max_abs(),
                  (self.source.symbol.minus - other.target.symbol.minus).max_abs())
        if gap > 1e-8:
            raise ValueError("composition needs matching middle subspaces")
        return SubspaceOperator(self.principal @ other.principal,
                                other.source, self.target,
                                name=f"{self.name}*{other.name}")

    def direct_sum(self, other):
        if len(self.symbol.terms) > 1 or len(other.symbol.terms) > 1:
            raise ValueError("direct sums are defined on principal parts")
        return SubspaceOperator(self.principal.direct_sum(other.principal),
                                self.source.direct_sum(other.source),
                                self.target.direct_sum(other.target),
                                name=f"{self.name}+{other.name}")

    def __repr__(self):
        return (f"SubspaceOperator({self.name or 'D'}: "
                f"{self.source.name} -> {self.target.name}, order {self.order})")


def antipodal_subspace(L):
    """Pullback of a subspace under xi -> -xi: faces swap, and the finite
    realization is the mode reflection n -> -n of the original one."""
    sym = L.symbol.antipodal()
    fiber = L.fiber

    def realizer(N):
        base = L.realize(N)
        q = base.basis.shape[1]
        flipped = base.basis.reshape(2 * N + 1, fiber, q)[::-1]
        from .subspaces import SubspaceRealization
        return SubspaceRealization(N, flipped.reshape(-1, q), base.warnings)

    return PdoSubspace(sym, realizer, name=f"alpha*{L.name}" if L.name else "")


def _bulk_count(V, N, fiber, window=2, thresh=0.5):
    # V: orthonormal columns; count directions carried by modes |n| <= N//window
    if V.shape[1] == 0:
        return 0
    inner = mode_labels(N, fiber) <= N // window
    s = np.linalg.svd(V[inner], compute_uv=False)
    return int((s > thresh).sum())


def _filtered_index_once(op, N, tol):
    B1 = op.source.basis(N)
    B2 = op.target.basis(N)
    q1, q2 = B1.shape[1], B2.shape[1]
    if q1 == 0 and q2 == 0:
        return 0
    if q1 == 0:
        return -_bulk_count(B2, N, op.target.fiber)
    if q2 == 0:
        return _bulk_count(B1, N, op.source.fiber)
    T = B2.conj().T @ op.full_matrix(N) @ B1
    u, s, vh = np.linalg.svd(T)
    smax = float(s[0]) if s.size else 0.0
    r = int((s > tol.rank_tol * smax).sum()) if smax > 0 else 0
    ker = B1 @ vh.conj().T[:, r:]
    coker = B2 @ u[:, r:]
    return _bulk_count(ker, N, op.source.fiber) \
        - _bulk_count(coker, N, op.target.fiber)


def analytic_index(op, N=16, scales=(1, 2, 3), tol=None):
    """Stabilized index of an elliptic operator in subspaces.

    Raises EllipticityViolation if the symbol is not invertible between
    the subspace bundles, UnstableIndexError if the three truncation
    scales disagree.
    """
    tol = DEFAULT_TOL if tol is None else tol
    if not op.is_elliptic(tol):
        raise EllipticityViolation(
            "symbol does not restrict to an isomorphism of the subspaces")
    vals = [_filtered_index_once(op, N * s, tol) for s in scales]
    if len(set(vals)) != 1:
        raise UnstableIndexError(f"analytic index did not stabilize: {vals}")
    return vals[0]


def _pointwise_basis(P):
    w, U = np.linalg.eigh(P)
    return U[:, w > 0.5]


def _even_double_sample(sv, sw, pp, pm):
    # (alpha* sigma)^{-1} sigma on Im p1, identity on the complement
    return np.linalg.pinv(sw @ pp, rcond=1e-12) @ (sv @ pp) \
        + (np.eye(len(pp)) - pp)


def _odd_double_sample(sv, sw, pp, pm):
    # sigma (+) alpha* sigma through the splitting Im p1_s (+) Im p1_-s
    bp = _pointwise_basis(pp)
    bm = _pointwise_basis(pm)
    inv = np.linalg.inv(np.concatenate([bp, bm], axis=1))
    pi1 = bp @ inv[:bp.shape[1]]
    pi2 = bm @ inv[bp.shape[1]:]
    return np.concatenate([sv @ pi1, sw @ pi2], axis=0)


def _double_face(op, sign, sample, fit_tol):
    """Fit the face of the parity double whose value at x is
    sample(sigma_s, sigma_-s, p1_s, p1_-s), all evaluated at x."""
    faces = (op.principal.face(sign), op.principal.face(-sign),
             op.source.symbol.face(sign), op.source.symbol.face(-sign))

    def fn(xs):
        vals = [f(xs) for f in faces]
        return np.stack([sample(*v) for v in zip(*vals)])

    grid = max(64, 8 * (2 * op.principal.degree +
                        2 * op.source.symbol.degree + 1))
    return fit_trig_poly(fn, grid=grid, tol=fit_tol)


def build_parity_double(op, fit_tol=1e-8):
    """The full-space (or full-source) operator carrying twice the defect
    of D relative to its parity-doubled symbol.

    Even subspaces: symbol (alpha* sigma)^{-1} sigma on Im p1, identity on
    the complement -- an endomorphism of the full bundle.  Odd subspaces:
    sigma oplus alpha* sigma, with the source trivialized through the
    pointwise splitting C^r = Im p1_+ (+) Im p1_-.
    """
    parity = op.source.symbol.parity
    if parity == "Even":
        if op.target.symbol.parity != "Even":
            raise ValueError("parity double needs matching parities")
        plus = _double_face(op, +1, _even_double_sample, fit_tol)
        minus = _double_face(op, -1, _even_double_sample, fit_tol)
        r1 = op.source.fiber
        sym = CircleSymbol(0, plus, minus, name=f"double({op.name})")
        return SubspaceOperator(sym, full_subspace(r1), full_subspace(r1),
                                name=f"double({op.name})")
    if parity == "Odd":
        if op.target.symbol.parity != "Odd":
            raise ValueError("parity double needs matching parities")
        plus = _double_face(op, +1, _odd_double_sample, fit_tol)
        minus = _double_face(op, -1, _odd_double_sample, fit_tol)
        sym = CircleSymbol(op.order, plus, minus, name=f"double({op.name})")
        target = op.target.direct_sum(antipodal_subspace(op.target))
        return SubspaceOperator(sym, full_subspace(op.source.fiber), target,
                                name=f"double({op.name})")
    raise ValueError("source subspace has no parity; no double exists")


def index_formula_report(op, example_id, N=16, tol=None):
    """One defect-formula evaluation as a flat JSON-ready row; its
    "residual" ind D - (1/2) ind double(D) - d(L1) + d(L2) is an exact
    dyadic rational that the defect formula asserts is zero."""
    from .eta import dimension_functional
    ind_d = analytic_index(op, N=N, tol=tol)
    dbl = build_parity_double(op)
    ind_dbl = analytic_index(dbl, N=N, tol=tol)
    d1 = dimension_functional(op.source, N=N, tol=tol)
    d2 = dimension_functional(op.target, N=N, tol=tol)
    half = DyadicRational(1, 1)
    resid = (DyadicRational.from_integer(ind_d)
             - half * DyadicRational.from_integer(ind_dbl) - d1 + d2)
    return {
        "example_id": example_id,
        "ind_D": ind_d,
        "ind_Dtilde": ind_dbl,
        "d_L1": str(d1),
        "d_L2": str(d2),
        "residual": str(resid),
    }
