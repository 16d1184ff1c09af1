"""Classical pseudodifferential calculus on the circle.

A symbol has two faces a(x, +1) and a(x, -1), each a matrix trigonometric
polynomial, and represents a(x, xi) = a_{sign xi}(x) |xi|^m.  Quantization
produces block matrices over the Fourier modes n in [-N, N].
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (_RANK_TOL, TrigPolyMatrix, _sample_count, _sha256,
                   constant_trig, trig_blockdiag)

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


def _symbols_agree(a, b):
    """Whether two symbols have the same faces, to 1e-8 in coefficient sum
    norm: the test that two subspace symbols are one symbol."""
    return max((a.plus - b.plus).max_abs(),
               (a.minus - b.minus).max_abs()) <= 1e-8


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

    @cached_property
    def _digest(self):
        """sha256 of each term's order and both faces' coefficient tables:
        all that quantize reads (see indexing._SECTIONS)."""
        return _sha256(len(self.terms), *(
            x for t in self.terms
            for x in (t.order, t.plus.coeff_table(), t.minus.coeff_table())))


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

    def is_hermitian(self):
        scale = max(np.linalg.norm(self.matrix), 1.0)
        return np.linalg.norm(self.matrix - self.matrix.conj().T) <= 1e-10 * scale


def mode_labels(N, fiber):
    """|mode index| for each ambient coordinate, mode-major layout."""
    return np.repeat(np.abs(np.arange(-N, N + 1)), fiber)


def _column_weight(order, n):
    # |n|^m with the zero-mode convention: weight 1 at nonpositive order, 0 else.
    if n == 0:
        return 1.0 if order <= 0 else 0.0
    return float(abs(n)) ** order


def _band(symbol, N):
    """The quantization of a (full) symbol on modes [-N, N] as its block
    band Q, of shape (2N + 1, 2D + 1, rows, cols) with D the largest term
    degree: Q[n_src, k + D] is the block that source mode n_src (counted
    from -N) sends to mode n_src + k, zero where that mode falls outside
    the window.

    Mode n' feeds mode n' + k through the k-th Fourier coefficient of the
    face picked by sign(n'), weighted by |n'|^{order}; the n' = 0 column
    uses the + face.  Each (term, face, coefficient) is one scatter onto a
    band column.  A block receives at most one coefficient per term and
    the terms are added in order, so every entry is summed in the order of
    a block-by-block loop; zero coefficients and zero weights are skipped,
    so no signed zero flips.  Raises ValueError when N <= 2D.
    """
    full = symbol if isinstance(symbol, FullSymbol) else FullSymbol.of(symbol)
    lead = full.principal
    D = max(t.degree for t in full.terms)
    if N <= 2 * D:
        raise ValueError("truncation too small for the symbol degree")
    Q = np.zeros((2 * N + 1, 2 * D + 1, lead.rows, lead.rank), dtype=complex)
    for term in full.terms:
        for sign, n_src in ((+1, np.arange(0, N + 1)), (-1, np.arange(-N, 0))):
            w = np.array([_column_weight(term.order, n) for n in n_src])
            n_src, w = n_src[w != 0.0], w[w != 0.0]
            face = term.face(sign)
            table = face.coeff_table()
            for i in np.flatnonzero(table.reshape(len(table), -1).any(axis=1)):
                k = i - face.degree
                fits = np.abs(n_src + k) <= N
                Q[n_src[fits] + N, k + D] += w[fits, None, None] * table[i]
    return Q


def _layout(Q, dst, src):
    """The dense block of the quantized matrix on the destination modes
    `dst` and the source modes `src` (ranges, counted from -N), laid out
    from its band Q (see _band): every block is copied, none is summed.
    The buffer reaches D modes past `src` either way, so source mode s's
    band lands on one strided diagonal, rows s - D .. s + D."""
    D = (Q.shape[1] - 1) // 2
    rows, cols = Q.shape[2:]
    lo = min(dst.start, src.start - D)
    out = np.zeros((max(dst.stop, src.stop + D) - lo, rows, len(src), cols),
                   dtype=complex)
    st = out.strides
    diagonals = as_strided(out[src.start - D - lo:],
                           (len(src), 2 * D + 1, rows, cols),
                           (st[0] + st[2], st[0], st[1], st[3]))
    diagonals[...] = Q[src.start:src.stop]
    return out[dst.start - lo:dst.stop - lo].reshape(len(dst) * rows,
                                                     len(src) * cols)


def quantize(symbol, N):
    """Quantize a (full) symbol to the block matrix on modes [-N, N]: the
    dense layout of its block band (see _band), byte for byte.  Raises
    ValueError when N is at most twice the symbol degree."""
    full = symbol if isinstance(symbol, FullSymbol) else FullSymbol.of(symbol)
    lead = full.principal
    modes = range(2 * N + 1)
    return TruncatedOperator(N=N, matrix=_layout(_band(full, N), modes, modes),
                             order=full.order, fiber_in=lead.rank,
                             fiber_out=lead.rows, symbol=full)


def antipodal_pullback(s):
    """alpha^* a (x, xi) = a(x, -xi): the two faces swap."""
    if isinstance(s, FullSymbol):
        return FullSymbol(tuple(antipodal_pullback(t) for t in s.terms))
    return CircleSymbol(s.order, s.minus, s.plus, name=s.name)


def _check_projection_faces(p, xs):
    for sign in (+1, -1):
        vals = p.face(sign)(xs)
        herm = np.abs(vals - np.conj(np.transpose(vals, (0, 2, 1)))).max()
        idem = np.abs(np.matmul(vals, vals) - vals).max()
        if herm > 1e-7 or idem > 1e-7:
            raise ValueError("faces are not projection-valued within 1e-7")


def _range_basis(P):
    """Orthonormal basis of Im P for a Hermitian projection P, or for each
    matrix of a stack of them: the eigenvectors with eigenvalue above 1/2
    (eigh sorts ascending, so they are the last q columns).  None when q
    varies along the stack."""
    w, U = np.linalg.eigh(P)
    q = (w > 0.5).sum(axis=-1)
    if q.min() != q.max():
        return None
    return U[..., U.shape[-1] - int(q.max()):]


def _grid_for(*objs):
    r = max(o.rank for o in objs)
    d = max(o.degree for o in objs)
    return np.linspace(0.0, 2 * np.pi, _sample_count(r * d), endpoint=False)


def classify_parity(p):
    """Even / Odd / Neither for a projection-valued symbol.

    Even means the two face subbundles coincide pointwise, odd that they
    sum directly to the whole fiber (every decision at 1e-7).
    """
    xs = _grid_for(p)
    _check_projection_faces(p, xs)
    vp = p.face(+1)(xs)
    vm = p.face(-1)(xs)
    if np.abs(vp - vm).max() <= 1e-7:
        return "Even"
    # direct-sum test: ranks add to the fiber and joint basis is full rank
    bp, bm = _range_basis(vp), _range_basis(vm)
    if bp is None or bm is None or bp.shape[-1] + bm.shape[-1] != p.rank:
        return "Neither"
    joint = np.concatenate([bp, bm], axis=-1)
    smin = np.linalg.svd(joint, compute_uv=False)[:, -1]
    return "Odd" if np.all(smin > 1e-7) else "Neither"


def ellipticity_check(sigma, L1, L2):
    """True iff sigma restricts to a pointwise isomorphism Im L1 -> Im L2:
    on the sample grid the smallest singular value of sigma on Im L1
    stays above the absolute floor _RANK_TOL.

    L1, L2 expose projection-valued faces through .face(sign); sigma must
    map Im L1 into Im L2 (checked as a precondition).
    """
    xs = _grid_for(sigma, L1, L2)
    for sign in (+1, -1):
        p2 = L2.face(sign)(xs)
        B1 = _range_basis(L1.face(sign)(xs))
        B2 = _range_basis(p2)
        if B1 is None or B2 is None:
            log.debug("ellipticity: non-constant subspace rank on a face")
            return False
        if B1.shape[-1] != B2.shape[-1]:
            log.debug("ellipticity: rank mismatch between faces of L1 and L2")
            return False
        if B1.shape[-1] == 0:
            continue
        # image basis of Im L1 under sigma, and leakage out of Im L2
        img = np.matmul(sigma.face(sign)(xs), B1)
        leak = img - np.matmul(p2, img)
        scale = max(float(np.abs(img).max()), 1.0)
        if np.abs(leak).max() > 1e-6 * scale:
            raise ValueError("sigma does not map Im L1 into Im L2")
        smin = np.linalg.svd(img, compute_uv=False)[:, -1]
        if np.any(smin <= _RANK_TOL):
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


_HEADER = ("rank", "rows", "order", "degree")


def _header_int(key, val):
    try:
        return int(val)
    except ValueError:
        raise ValueError(f"{key} = {val!r} is not an integer") from None


def load_symbol(text):
    """Parse a symbol.v1 document written by dump_symbol.

    Every line is read and every count is checked: a missing, repeated
    or misplaced header, face or k line, a coefficient row of the wrong
    length, a block with the wrong number of rows, a mode beyond the
    header degree or a missing final newline raises ValueError.  The
    newline keeps a document cut inside its last number from loading as
    another symbol; a cut between two k blocks still loads, as the
    symbol without the dropped blocks.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "symbol.v1":
        raise ValueError("not a symbol.v1 document")
    if not text.endswith("\n"):
        raise ValueError("a symbol.v1 document ends with a newline")
    header, faces = {}, {}
    face = block = None
    for ln in lines[1:]:
        key, eq, val = (part.strip() for part in ln.partition("="))
        if eq and key in _HEADER:
            if faces or key in header:
                raise ValueError(f"misplaced or repeated header {key!r}")
            header[key] = _header_int(key, val)
        elif eq and key == "face":
            missing = [k for k in _HEADER if k not in header]
            if missing:
                raise ValueError(f"header lacks {', '.join(missing)}")
            if val not in ("+", "-") or val in faces:
                raise ValueError(f"bad or repeated face {val!r}")
            face = faces[val] = {}
            block = None
        elif eq and key == "k":
            k = _header_int(key, val)
            if face is None or k in face:
                raise ValueError(f"k = {k} outside a face or repeated")
            block = face[k] = []
        else:
            vals = ln.split()
            if block is None or len(vals) != 2 * header["rank"]:
                raise ValueError(f"misplaced or mis-sized row {ln!r}")
            re_im = [float(v) for v in vals]
            block.append([complex(a, b)
                          for a, b in zip(re_im[::2], re_im[1::2])])
    if sorted(faces) != ["+", "-"]:
        raise ValueError("a symbol.v1 document has faces + and -")
    rank, rows, degree = header["rank"], header["rows"], header["degree"]
    if min(rank, rows) < 1 or degree < 0:
        raise ValueError("rank and rows must be positive, degree >= 0")
    for tab in faces.values():
        if not tab or max(abs(k) for k in tab) > degree:
            raise ValueError("face without modes or beyond the degree")
        if any(len(v) != rows for v in tab.values()):
            raise ValueError(f"a coefficient block is not {rows} rows")
    plus, minus = (TrigPolyMatrix({k: np.array(v, dtype=complex)
                                   for k, v in faces[f].items()})
                   for f in "+-")
    return CircleSymbol(header["order"], plus, minus)
