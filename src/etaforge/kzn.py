"""Index theory with Z/n coefficients on the circle.

An element of the mod-n elliptic group is an operator between n-fold
subspaces.  Trivializing each base subspace face by the frame its
constructor recorded turns the symbol into an invertible matrix loop per
face (a base with no recorded frame is refused); the difference of the
two determinant windings is well defined mod n because a change of base
frame shifts both windings by a multiple of n.  The direct image to
a point is minus that datum mod n: the sign of ind T_a = -wind a for a
Toeplitz operator (Gohberg-Krein), a closed-form constant, so the
topological side reads nothing off the analytic index it is compared to.
The normal form pads and rotates an element onto a standard constant
target; it computes no index, and its callers compare the mod-n indices
of the element and of its normal form.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (TrigPolyMatrix, constant_trig, fit_trig_poly,
                   trig_blockdiag, winding_number)
from .dyadic import DyadicRational
from .indexing import SubspaceOperator, _fitting_n, analytic_index
from .subspaces import (ParityError, _frame, _truncation, antipodal_subspace,
                        full_subspace, lift_symbol, orthocomplement,
                        zero_subspace)
from .symbols import (CircleSymbol, _symbols_agree, antipodal_pullback,
                      identity_symbol)

__all__ = [
    "KClassZn",
    "EllZnElement",
    "gamma_trivialization",
    "beta_symbol",
    "shift_element",
    "n_fold",
    "winding_datum",
    "difference_construction_zn",
    "direct_image_s1",
    "mod_n_analytic_index",
    "antipodal_element",
    "antipodal_action_check",
    "normal_form",
    "fractional_eta_topological",
    "inverse_row_decomposition",
    "reduction_mod_n",
    "bockstein",
]


@dataclass(frozen=True)
class KClassZn:
    """Element of Z (+) Z/n; the torsion representative is kept in [0, n)."""

    n: int
    free_part: int
    torsion_part: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "torsion_part", self.torsion_part % self.n)

    def _match(self, other):
        if not isinstance(other, KClassZn) or other.n != self.n:
            raise ValueError("mismatched moduli")

    def __add__(self, other):
        self._match(other)
        return KClassZn(self.n, self.free_part + other.free_part,
                        self.torsion_part + other.torsion_part)

    def __neg__(self):
        return KClassZn(self.n, -self.free_part, -self.torsion_part)

    def __sub__(self, other):
        return self + (-other)


def reduction_mod_n(x, n):
    """Coefficient reduction Z -> Z (+) Z/n of an integer class."""
    return KClassZn(n, int(x), int(x))


def bockstein(c):
    """Connecting map to Z/n; zero exactly on reduced integer classes."""
    return (c.free_part - c.torsion_part) % c.n


# ---------------------------------------------------------------------------
# the explicit trivialization of n times the Bott loop
# ---------------------------------------------------------------------------

def _gamma_leg(n, j, t):
    # leg j deforms coords (1, j+1); the rest sit at 1 (coords 2..j) or z
    c, s = np.cos(t * np.pi / 2), np.sin(t * np.pi / 2)
    coeffs = {}

    def put(k, i, jj, v):
        if v == 0.0:
            return
        blk = coeffs.setdefault(k, np.zeros((n, n), dtype=complex))
        blk[i, jj] += v

    # 2x2 block on coords (0, j): diag(z^j, 1) R_t diag(z, 1) R_t^{-1}
    put(j + 1, 0, 0, c * c)
    put(j + 1, 0, j, c * s)
    put(j, 0, 0, s * s)
    put(j, 0, j, -c * s)
    put(1, j, 0, c * s)
    put(1, j, j, s * s)
    put(0, j, 0, -c * s)
    put(0, j, j, c * c)
    for i in range(1, n):
        if i == j:
            continue
        put(1 if i > j else 0, i, i, 1.0)
    return TrigPolyMatrix(coeffs)


def gamma_trivialization(n, steps=10):
    """Path of invertible loops from z*I_n to diag(z^n, 1, ..., 1).

    Every sample has determinant winding exactly n; the path certifies
    that n copies of the Bott line bundle assemble into the single
    n-times-twisted one.  Returned as steps+1 uniformly spaced samples.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        loop = TrigPolyMatrix({1: np.eye(1, dtype=complex)})
        return [loop] * (steps + 1)
    samples = []
    for i in range(steps + 1):
        pos = (i / steps) * (n - 1)
        j = min(int(pos) + 1, n - 1)
        t_local = 1.0 - (pos - (j - 1))
        samples.append(_gamma_leg(n, j, t_local))
    return samples


# ---------------------------------------------------------------------------
# elements of the mod-n elliptic group
# ---------------------------------------------------------------------------

def n_fold(L, n):
    return _chain_direct_sum([L] * n)


def _chain_direct_sum(spaces):  # ((L1 + L2) + L3) + ...
    return reduce(lambda a, b: a.direct_sum(b), spaces)


class EllZnElement:
    """Elliptic operator between n-fold sums of base subspaces.

    operator.source must be the summand-wise n-fold sum of source_bases
    (checked at the symbol level), and likewise for the target.
    """

    def __init__(self, n, operator, source_bases, target_bases):
        if n < 1:
            raise ValueError("modulus must be positive")
        self.n = int(n)
        self.operator = operator
        self.source_bases = tuple(source_bases)
        self.target_bases = tuple(target_bases)
        self._validate(operator.source, self.source_bases)
        self._validate(operator.target, self.target_bases)

    def _validate(self, space, bases):
        if space.fiber != self.n * sum(b.fiber for b in bases):
            raise ValueError("bases do not tile the operator's subspace")
        model = _chain_direct_sum([n_fold(b, self.n) for b in bases])
        if not _symbols_agree(space.symbol, model.symbol):
            raise ValueError("subspace symbol is not the n-fold of its bases")

    def __repr__(self):
        return f"EllZnElement(n={self.n}, {self.operator!r})"


def shift_element(n, power=1):
    """The generator: diag(z^power, 1, ..., 1) against the identity face."""
    e00 = np.zeros((n, n), dtype=complex)
    e00[0, 0] = 1.0
    rest = np.eye(n, dtype=complex) - e00
    plus = TrigPolyMatrix({0: rest, power: e00}) if power else \
        constant_trig(np.eye(n, dtype=complex))
    sym = CircleSymbol(0, plus, constant_trig(np.eye(n, dtype=complex)),
                       name=f"shift{power}")
    full = full_subspace(n)
    return EllZnElement(n, SubspaceOperator(sym, full, full, name=sym.name),
                        (full_subspace(1),), (full_subspace(1),))


def beta_symbol(n):
    """n-fold Bott twist z*I_n against the identity; its datum dies mod n."""
    sym = CircleSymbol(0, TrigPolyMatrix({1: np.eye(n, dtype=complex)}),
                       constant_trig(np.eye(n, dtype=complex)), name="beta")
    full = full_subspace(n)
    return EllZnElement(n, SubspaceOperator(sym, full, full, name="beta"),
                        (full_subspace(1),), (full_subspace(1),))


def _side_frame(bases, n, sign):
    blocks = []
    for b in bases:
        blocks.extend([_frame(b.symbol, sign)] * n)
    return trig_blockdiag(blocks)


def winding_datum(el):
    """(w+ - w-) mod n of the frame-trivialized symbol determinant."""
    sigma = el.operator.principal
    v = {}
    for sign in (+1, -1):
        f = _side_frame(el.source_bases, el.n, sign)
        g = _side_frame(el.target_bases, el.n, sign)
        M = g.conj_transpose() @ sigma.face(sign) @ f
        if M.shape[0] != M.shape[1]:
            raise ValueError("frame ranks of source and target differ")
        v[sign] = winding_number(M)
    return (v[+1] - v[-1]) % el.n


def difference_construction_zn(el):
    """K-class of the symbol: pure torsion given by the winding datum."""
    return KClassZn(el.n, 0, winding_datum(el))


def mod_n_analytic_index(el, N=12):
    """The analytic index mod n, at the smallest truncation >= N that
    quantizes the operator's terms and its source and target symbols."""
    op = el.operator
    symbols = (*op.symbol.terms, op.source.symbol, op.target.symbol)
    N = _fitting_n(_truncation(N), max(s.degree for s in symbols))
    return analytic_index(op, N=N) % el.n


def direct_image_s1(c):
    """Push-forward along S^1 -> pt of a mod-n symbol class, in Z/n: minus
    the winding datum, as ind T_a = -wind a."""
    return (-c.torsion_part) % c.n


def antipodal_element(el):
    op = el.operator
    a = SubspaceOperator(antipodal_pullback(op.symbol),
                         antipodal_subspace(op.source),
                         antipodal_subspace(op.target),
                         name=f"alpha*{op.name}")
    return EllZnElement(el.n, a,
                        tuple(antipodal_subspace(b) for b in el.source_bases),
                        tuple(antipodal_subspace(b) for b in el.target_bases))


def antipodal_action_check(el):
    """True iff the datum of the antipodal pullback negates mod n."""
    t = winding_datum(el)
    ta = winding_datum(antipodal_element(el))
    return (t + ta) % el.n == 0


# ---------------------------------------------------------------------------
# normal form: trivialize the target through two paddings and one rotation
# ---------------------------------------------------------------------------

def _identity_on(space):
    return SubspaceOperator(identity_symbol(space.fiber), space, space,
                            name="id")


def _pair_rotation(p_face):
    # V at quarter turn: [[P, Q], [-Q, P]] rotates diag(P, Q) to diag(I, 0)
    r = p_face.shape[0]
    q_face = constant_trig(np.eye(r)) - p_face
    swap = constant_trig(np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(r)))
    return trig_blockdiag([p_face, p_face]) \
        + swap @ trig_blockdiag([q_face, q_face])


def normal_form(el, N=None):
    """Equivalent element whose target is the standard constant subspace.

    Pads by the identity on an n-fold trivial line and on the n-fold
    complements of each target base, then rotates every (base, complement)
    pair onto (full, zero) by the exact quarter-turn unitary.  Computes no
    index; callers compare.  N is ignored, kept only for callers that
    still pass it.
    """
    n = el.n
    op = SubspaceOperator(el.operator.principal, el.operator.source,
                          el.operator.target, name=el.operator.name)
    line = full_subspace(1)
    op = op.direct_sum(_identity_on(n_fold(line, n)))
    comps = tuple(orthocomplement(b) for b in el.target_bases)
    for c in comps:
        op = op.direct_sum(_identity_on(n_fold(c, n)))
    src_bases = (*el.source_bases, line, *comps)

    # permute [nK_1 .. nK_m][n line][nC_1 .. nC_m] to pair each K_i with C_i
    m = len(el.target_bases)
    sizes = [n * b.fiber for b in el.target_bases] + [n] \
        + [n * c.fiber for c in comps]
    starts = np.cumsum([0] + sizes)
    order = [b for i in range(m) for b in (i, m + 1 + i)] + [m]
    perm = np.eye(starts[-1])[np.concatenate(
        [np.arange(starts[b], starts[b + 1]) for b in order])]

    faces = {}
    for sign in (+1, -1):
        rot = [_pair_rotation(trig_blockdiag(
            [b.symbol.face(sign)] * n)) for b in el.target_bases]
        rot.append(constant_trig(np.eye(n)))
        faces[sign] = trig_blockdiag(rot) @ constant_trig(perm)
    tilde = CircleSymbol(0, faces[+1], faces[-1], name="quarter_turn")

    std_parts, tgt_bases = [], []
    for b in el.target_bases:
        std_parts += [full_subspace(n * b.fiber), zero_subspace(n * b.fiber)]
        tgt_bases += [full_subspace(b.fiber), zero_subspace(b.fiber)]
    std_parts.append(n_fold(line, n))
    tgt_bases.append(line)
    out_op = SubspaceOperator(tilde @ op.principal, op.source,
                              _chain_direct_sum(std_parts),
                              name=f"nf({el.operator.name})")
    return EllZnElement(n, out_op, src_bases, tuple(tgt_bases))


# ---------------------------------------------------------------------------
# fractional eta from the symbol, and symbol-side decompositions
# ---------------------------------------------------------------------------

def fractional_eta_topological(L):
    """Fractional part of the eta-type defect of an even subspace, read off
    the symbol: half the winding datum of tau = sigma (+) alpha* sigma in
    the face frames of the lift sigma, mod Z.  Over the circle it is 0:
    the lift has equal faces, so tau's two windings agree.  A subspace
    that is not even is refused, as lift_symbol refuses it.  A check of
    this against d(L).fractional_part() tests that d(L) is an integer,
    which is what the paper asserts over the circle."""
    if L.symbol.parity != "Even":
        raise ParityError("the fractional eta needs an even subspace")
    return DyadicRational.from_integer(0)


@dataclass(frozen=True)
class RowDecomposition:
    """Mutually inverse row and column symbols attached to a subspace:
    stack(sigma_1, sigma_2) and its pointwise inverse (sigma^1 | sigma^2)."""

    rows: tuple
    cols: tuple
    projector: CircleSymbol


def inverse_row_decomposition(L):
    """Split the identity through L and its orthocomplement.

    sigma1 and sigma2 are the lift trivializers of L and of its
    complement.  The stacked symbol is inverted pointwise and refitted,
    and the four two-sided identities are verified to 1e-10 before
    returning.
    """
    s1 = lift_symbol(L)
    s2 = lift_symbol(orthocomplement(L))
    q1, r = s1.rows, s1.rank

    def inv_face(sign):
        top, bot = s1.face(sign), s2.face(sign)

        def fn(xs):
            return np.linalg.inv(np.concatenate([top(xs), bot(xs)], axis=1))

        return fit_trig_poly(fn, s1.degree + s2.degree)

    inv_plus, inv_minus = inv_face(+1), inv_face(-1)

    def slice_cols(m, a, b):
        table = m.coeff_table()[:, :, a:b]
        return TrigPolyMatrix(table)

    sigma_c1 = CircleSymbol(0, slice_cols(inv_plus, 0, q1),
                            slice_cols(inv_minus, 0, q1))
    sigma_c2 = CircleSymbol(0, slice_cols(inv_plus, q1, r),
                            slice_cols(inv_minus, q1, r))
    rows, cols = (s1, s2), (sigma_c1, sigma_c2)

    xs = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)
    for sign in (+1, -1):
        resolution = np.zeros((len(xs), r, r), dtype=complex)
        for i in range(2):
            ci = cols[i].face(sign)(xs)
            ri = rows[i].face(sign)(xs)
            resolution += np.matmul(ci, ri)
            for jj in range(2):
                prod = np.matmul(rows[i].face(sign)(xs),
                                 cols[jj].face(sign)(xs))
                want = np.eye(rows[i].rows) if i == jj else \
                    np.zeros((rows[i].rows, cols[jj].rank))
                if np.abs(prod - want).max() > 1e-10:
                    raise ArithmeticError("row/column identities failed")
        if np.abs(resolution - np.eye(r)).max() > 1e-10:
            raise ArithmeticError("resolution of the identity failed")

    proj = CircleSymbol(0, sigma_c1.plus @ rows[0].plus,
                        sigma_c1.minus @ rows[0].minus, name="q")
    return RowDecomposition(rows=rows, cols=cols, projector=proj)
