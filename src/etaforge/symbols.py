"""Classical pseudodifferential calculus on the circle.

A symbol has two faces a(x, +1) and a(x, -1), each a matrix trigonometric
polynomial, and represents a(x, xi) = a_{sign xi}(x) |xi|^m.  Quantization
produces block matrices over the Fourier modes n in [-N, N].
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_TOL, TrigPolyMatrix, constant_trig, trig_blockdiag,
                   winding_grid)

__all__ = [
    "CircleSymbol",
    "FullSymbol",
    "TruncatedOperator",
    "quantize",
    "antipodal_pullback",
    "classify_parity",
    "ellipticity_check",
    "identity_symbol",
    "dump_symbol",
    "load_symbol",
    "mode_labels",
]

log = logging.getLogger(__name__)


def _face(val):
    if isinstance(val, TrigPolyMatrix):
        return val
    if isinstance(val, dict):
        return TrigPolyMatrix(val)
    arr = np.asarray(val, dtype=complex)
    return constant_trig(arr) if arr.ndim == 2 else TrigPolyMatrix(arr)


class CircleSymbol:
    """Principal symbol a(x, xi) = a_{sign xi}(x) |xi|^m on S*S^1.

    Faces may be rectangular (rows x cols); square symbols are operators on
    sections of the trivial rank-`cols` bundle, rectangular ones appear as
    trivializing maps between different bundles.
    """

    def __init__(self, order, plus, minus, name=""):
        self.order = int(order)
        self.plus = _face(plus)
        self.minus = _face(minus)
        if self.plus.shape != self.minus.shape:
            raise ValueError("face shapes differ")
        self.name = name

    @property
    def rows(self):
        return self.plus.shape[0]

    @property
    def rank(self):
        return self.plus.shape[1]

    @property
    def degree(self):
        return max(self.plus.degree, self.minus.degree)

    def face(self, sign):
        return self.plus if sign >= 0 else self.minus

    def __matmul__(self, other):
        """Leading-order composition: faces multiply, orders add."""
        return CircleSymbol(self.order + other.order,
                            self.plus @ other.plus,
                            self.minus @ other.minus)

    def direct_sum(self, other):
        if self.order != other.order:
            raise ValueError("direct sum needs matching orders")
        return CircleSymbol(self.order, trig_blockdiag([self.plus, other.plus]),
                            trig_blockdiag([self.minus, other.minus]))

    def is_even(self, tol=None):
        tol = DEFAULT_TOL.rank_tol if tol is None else tol
        return (self.plus - self.minus).max_abs() <= tol


def identity_symbol(rank):
    eye = constant_trig(np.eye(rank))
    return CircleSymbol(0, eye, eye, name="identity")


@dataclass(frozen=True)
class FullSymbol:
    """Asymptotic expansion a_m + a_{m-1} + ...: finitely many terms with
    orders strictly decreasing by one."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("empty expansion")
        for i, t in enumerate(terms[1:], start=1):
            if t.order != terms[0].order - i:
                raise ValueError("orders must decrease by one")
            if (t.rows, t.rank) != (terms[0].rows, terms[0].rank):
                raise ValueError("inconsistent ranks across terms")
        object.__setattr__(self, "terms", terms)

    @property
    def order(self):
        return self.terms[0].order

    @property
    def principal(self):
        return self.terms[0]

    @classmethod
    def of(cls, *terms):
        return cls(tuple(terms))


@dataclass(frozen=True)
class TruncatedOperator:
    """Finite block matrix over modes n in [-N, N] with fixed fiber sizes."""

    N: int
    matrix: np.ndarray
    order: int = 0
    fiber_in: int = 1
    fiber_out: int = 1
    symbol: object = field(default=None, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        modes = 2 * self.N + 1
        if m.shape != (self.fiber_out * modes, self.fiber_in * modes):
            raise ValueError("matrix size does not match N and fibers")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def is_hermitian(self, tol=None):
        tol = DEFAULT_TOL.eig_tol if tol is None else tol
        scale = max(np.linalg.norm(self.matrix), 1.0)
        return np.linalg.norm(self.matrix - self.matrix.conj().T) <= tol * scale


def mode_labels(N, fiber):
    """|mode index| for each ambient coordinate, mode-major layout."""
    return np.repeat(np.abs(np.arange(-N, N + 1)), fiber)


def _column_weight(order, n):
    # |n|^m with the zero-mode convention: weight 1 at nonpositive order, 0 else.
    if n == 0:
        return 1.0 if order <= 0 else 0.0
    return float(abs(n)) ** order


def quantize(symbol, N):
    """Quantize a (full) symbol to the block matrix on modes [-N, N].

    Mode n' feeds mode n = n' + k through the k-th Fourier coefficient of
    the face picked by sign(n'), weighted by |n'|^{order}; the n' = 0
    column uses the + face.
    """
    full = symbol if isinstance(symbol, FullSymbol) else FullSymbol.of(symbol)
    lead = full.principal
    if N <= 2 * max(t.degree for t in full.terms):
        raise ValueError("truncation too small for the symbol degree")
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
                    w = _column_weight(term.order, n_src)
                    if w == 0.0:
                        continue
                    n_dst = n_src + k
                    if -N <= n_dst <= N:
                        r0 = (n_dst + N) * rows
                        c0 = (n_src + N) * cols
                        A[r0:r0 + rows, c0:c0 + cols] += w * block
    return TruncatedOperator(N=N, matrix=A, order=full.order, fiber_in=cols,
                             fiber_out=rows, symbol=full)


def antipodal_pullback(s):
    """alpha^* a (x, xi) = a(x, -xi): the two faces swap."""
    if isinstance(s, FullSymbol):
        return FullSymbol(tuple(antipodal_pullback(t) for t in s.terms))
    return CircleSymbol(s.order, s.minus, s.plus, name=s.name)


def _check_projection_faces(p, xs, tol):
    for sign in (+1, -1):
        vals = p.face(sign)(xs)
        herm = np.abs(vals - np.conj(np.transpose(vals, (0, 2, 1)))).max()
        idem = np.abs(np.matmul(vals, vals) - vals).max()
        if herm > tol or idem > tol:
            raise ValueError("faces are not projection-valued within rank_tol")


def _grid_for(*objs):
    r = max(o.rank for o in objs)
    d = max(o.degree for o in objs)
    return np.linspace(0.0, 2 * np.pi, winding_grid(r, d), endpoint=False)


def classify_parity(p, tol=None):
    """Even / Odd / Neither for a projection-valued symbol.

    Even means the two face subbundles coincide pointwise, odd that they
    sum directly to the whole fiber.
    """
    tol = DEFAULT_TOL.rank_tol if tol is None else tol
    xs = _grid_for(p)
    _check_projection_faces(p, xs, max(tol, 1e-7))
    vp = p.face(+1)(xs)
    vm = p.face(-1)(xs)
    if np.abs(vp - vm).max() <= 1e-7:
        return "Even"
    # direct-sum test: ranks add to the fiber and joint basis is full rank
    r = p.rank
    wp, Up = np.linalg.eigh(vp)
    wm, Um = np.linalg.eigh(vm)
    odd = True
    for j in range(len(xs)):
        bp = Up[j][:, wp[j] > 0.5]
        bm = Um[j][:, wm[j] > 0.5]
        if bp.shape[1] + bm.shape[1] != r:
            odd = False
            break
        joint = np.concatenate([bp, bm], axis=1)
        if np.linalg.svd(joint, compute_uv=False)[-1] <= max(tol, 1e-7):
            odd = False
            break
    return "Odd" if odd else "Neither"


def ellipticity_check(sigma, L1, L2, tol=None):
    """True iff sigma restricts to a pointwise isomorphism Im L1 -> Im L2.

    L1, L2 expose projection-valued faces through .face(sign); sigma must
    map Im L1 into Im L2 (checked as a precondition).
    """
    tol = DEFAULT_TOL.rank_tol if tol is None else tol
    xs = _grid_for(sigma, L1, L2)
    for sign in (+1, -1):
        p1 = L1.face(sign)(xs)
        p2 = L2.face(sign)(xs)
        sv = sigma.face(sign)(xs)
        w1, U1 = np.linalg.eigh(p1)
        w2 = np.linalg.eigvalsh(p2)
        r1 = (w1 > 0.5).sum(axis=1)
        r2 = (w2 > 0.5).sum(axis=1)
        if not np.array_equal(r1, r2):
            log.debug("ellipticity: rank mismatch between faces of L1 and L2")
            return False
        if r1.max() != r1.min():
            log.debug("ellipticity: non-constant subspace rank on a face")
            return False
        q = int(r1[0])
        if q == 0:
            continue
        # image basis of Im L1 under sigma, and leakage out of Im L2
        B1 = np.stack([U1[j][:, w1[j] > 0.5] for j in range(len(xs))])
        img = np.matmul(sv, B1)
        leak = img - np.matmul(p2, img)
        scale = max(float(np.abs(img).max()), 1.0)
        if np.abs(leak).max() > 1e-6 * scale:
            raise ValueError("sigma does not map Im L1 into Im L2")
        smin = np.linalg.svd(img, compute_uv=False)[:, -1]
        if np.any(smin <= tol):
            return False
    return True


# ---------------------------------------------------------------------------
# symbol.v1 serialization: structured text, exact round trip
# ---------------------------------------------------------------------------

def dump_symbol(sym):
    """Serialize a CircleSymbol in the symbol.v1 text schema."""
    lines = ["symbol.v1",
             f"rank = {sym.rank}",
             f"rows = {sym.rows}",
             f"order = {sym.order}",
             f"degree = {sym.degree}"]
    for tag, face in (("+", sym.plus), ("-", sym.minus)):
        lines.append(f"face = {tag}")
        for k in range(-face.degree, face.degree + 1):
            c = face.coeff(k)
            if not np.any(c) and k != 0:
                continue
            lines.append(f"k = {k}")
            for row in c:
                lines.append("  ".join(
                    f"{float(v.real)!r} {float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"


def load_symbol(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "symbol.v1":
        raise ValueError("not a symbol.v1 document")
    header = {}
    i = 1
    while i < len(lines) and "=" in lines[i] and not lines[i].startswith("face"):
        key, val = (part.strip() for part in lines[i].split("=", 1))
        header[key] = int(val)
        i += 1
    rank, rows = header["rank"], header.get("rows", header["rank"])
    faces = {}
    current_face, current_k = None, None
    coeffs = None
    while i < len(lines):
        ln = lines[i].strip()
        if ln.startswith("face"):
            current_face = ln.split("=", 1)[1].strip()
            faces[current_face] = {}
            coeffs = faces[current_face]
        elif ln.startswith("k"):
            current_k = int(ln.split("=", 1)[1])
            coeffs[current_k] = []
        else:
            vals = ln.split()
            row = [complex(float(vals[2 * j]), float(vals[2 * j + 1]))
                   for j in range(rank)]
            coeffs[current_k].append(row)
        i += 1
    def build(tab):
        if not tab:
            return constant_trig(np.zeros((rows, rank)))
        return TrigPolyMatrix({k: np.array(v, dtype=complex)
                               for k, v in tab.items()})
    return CircleSymbol(header["order"], build(faces.get("+", {})),
                        build(faces.get("-", {})))
