"""Elliptic operators acting in pseudodifferential subspaces.

The analytic index of D = P2 A P1 : Im P1 -> Im P2 is extracted from
finite sections: compress the quantized symbol to the realized subspaces,
take the near-null singular vectors on both sides, and count only those
localized in the bulk half of the mode window (the boundary of the
truncation sheds spurious null directions that an unfiltered rank count
would absorb).  The count must agree across three truncation scales.
The dimension functional d(L) combines two such indices: a lift's and its
parity double's.
"""
from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, EllipticityViolation, fit_trig_poly
from .dyadic import DyadicRational
from .subspaces import (_SCALES, ParityError, PdoSubspace, SubspaceRealization,
                        UnstableIndexError, full_subspace, lift_symbol)
from .symbols import (CircleSymbol, FullSymbol, _range_basis, ellipticity_check,
                      mode_labels, quantize)

__all__ = [
    "SubspaceOperator",
    "antipodal_subspace",
    "analytic_index",
    "build_parity_double",
    "dimension_functional",
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
        return SubspaceRealization(N, flipped.reshape(-1, q), base.warnings)

    return PdoSubspace(sym, realizer, name=f"alpha*{L.name}" if L.name else "")


def _bulk_count(V, N, fiber):
    # V: orthonormal columns; count directions carried by modes |n| <= N//2
    if V.shape[1] == 0:
        return 0
    inner = mode_labels(N, fiber) <= N // 2
    s = np.linalg.svd(V[inner], compute_uv=False)
    return int((s > 0.5).sum())


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


def analytic_index(op, N=16, scales=_SCALES, tol=None):
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


def _even_double_sample(sv, sw, pp, pm):
    # (alpha* sigma)^{-1} sigma on Im p1, identity on the complement
    return np.linalg.pinv(sw @ pp, rcond=1e-12) @ (sv @ pp) \
        + (np.eye(pp.shape[-1]) - pp)


def _odd_double_sample(sv, sw, pp, pm):
    # sigma (+) alpha* sigma through the splitting Im p1_s (+) Im p1_-s
    bp, bm = _range_basis(pp), _range_basis(pm)
    q = bp.shape[-1]
    inv = np.linalg.inv(np.concatenate([bp, bm], axis=-1))
    return np.concatenate([sv @ (bp @ inv[:, :q]), sw @ (bm @ inv[:, q:])],
                          axis=1)


def _double_face(op, sign, sample):
    """Fit the face of the parity double whose value at x is
    sample(sigma_s, sigma_-s, p1_s, p1_-s); the maps act on the whole
    stack of samples."""
    faces = (op.principal.face(sign), op.principal.face(-sign),
             op.source.symbol.face(sign), op.source.symbol.face(-sign))
    return fit_trig_poly(lambda xs: sample(*(f(xs) for f in faces)),
                         2 * (op.principal.degree + op.source.symbol.degree))


def build_parity_double(op):
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
        plus = _double_face(op, +1, _even_double_sample)
        minus = _double_face(op, -1, _even_double_sample)
        r1 = op.source.fiber
        sym = CircleSymbol(0, plus, minus, name=f"double({op.name})")
        return SubspaceOperator(sym, full_subspace(r1), full_subspace(r1),
                                name=f"double({op.name})")
    if parity == "Odd":
        if op.target.symbol.parity != "Odd":
            raise ValueError("parity double needs matching parities")
        plus = _double_face(op, +1, _odd_double_sample)
        minus = _double_face(op, -1, _odd_double_sample)
        sym = CircleSymbol(op.order, plus, minus, name=f"double({op.name})")
        target = op.target.direct_sum(antipodal_subspace(op.target))
        return SubspaceOperator(sym, full_subspace(op.source.fiber), target,
                                name=f"double({op.name})")
    raise ValueError("source subspace has no parity; no double exists")


def _twist_symbol(q):
    # fixed even invertible order-0 symbol with nonconstant determinant phase
    jk = np.outer(np.arange(q), np.arange(q))
    V = np.exp(2j * np.pi * jk / q) / np.sqrt(q)
    e0 = np.zeros((q, q), dtype=complex)
    e0[0, 0] = 1.0
    rest = np.eye(q, dtype=complex) - e0
    face = {0: V @ rest @ V.conj().T, 1: V @ e0 @ V.conj().T}
    return CircleSymbol(0, face, face, name="twist")


def _d_once(sigma, L, N, tol, lift_order):
    op = SubspaceOperator(sigma, L, full_subspace(sigma.rows))
    for _ in range(lift_order):
        op = op.direct_sum(op)
    ind = analytic_index(op, N=N, tol=tol)
    ind_dbl = analytic_index(build_parity_double(op), N=N, tol=tol)
    return DyadicRational(ind, lift_order) \
        - DyadicRational(ind_dbl, lift_order + 1)


def dimension_functional(L, N=16, tol=None, lift_order=0):
    """d(L) = 2^{-k}(ind of the lifted trivializer - half the index of its
    parity double), an exact dyadic rational.

    Defined for even subspaces whose symbol lifts; the result must not
    depend on the lift, which is verified against a twisted second lift.
    lift_order forces k artificial doublings.
    """
    if L.symbol.parity != "Even":
        raise ParityError("dimension functional needs an even subspace")
    lift = lift_symbol(L)
    if lift.f_rank == 0:
        return DyadicRational.from_integer(0)
    # quantization needs N > 2 * degree; the twisted lift adds one degree
    N = max(N, 2 * (lift.sigma.degree + L.symbol.degree + 1) + 1)
    d = _d_once(lift.sigma, L, N, tol, lift_order)
    if d.exponent > lift_order + 1:
        raise ArithmeticError("dyadic exponent exceeds the lift-order bound")
    twisted = _twist_symbol(lift.f_rank) @ lift.sigma
    d2 = _d_once(twisted, L, N, tol, lift_order)
    if d2 != d:
        raise ArithmeticError(
            f"dimension functional is lift-dependent: {d} vs {d2}")
    return d


def _fitting_truncation(op, N):
    """Smallest truncation >= N that quantizes op and its parity double."""
    terms = op.symbol.terms + build_parity_double(op).symbol.terms
    return max(N, 2 * max(t.degree for t in terms) + 1)


def index_formula_report(op, example_id, N=16, tol=None):
    """One defect-formula evaluation as a flat JSON-ready row; its
    "residual" ind D - (1/2) ind double(D) - d(L1) + d(L2) is an exact
    dyadic rational that the defect formula asserts is zero.  N must fit
    op and its parity double (see _fitting_truncation)."""
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
