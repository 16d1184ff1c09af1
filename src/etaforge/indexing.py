"""Elliptic operators acting in pseudodifferential subspaces.

The analytic index of D = P2 A P1 : Im P1 -> Im P2 is extracted from
finite sections: compress the quantized symbol to the realized subspaces,
take the near-null singular vectors on both sides, and count only those
localized in the bulk half of the mode window (the boundary of the
truncation sheds spurious null directions that an unfiltered rank count
would absorb).  The count must agree across three truncation scales.
In general the dimension functional d(L) combines two such indices, a
lift's and its parity double's (Savin-Sternin, Elliptic operators in even
subspaces, 1999); over the circle it is one, the lift's (see
dimension_functional).

Structure.  Every realization is mode-local (see
subspaces.SubspaceRealization): a basis column of lowest mode m lives on
the modes m .. m + band, and a bare basis has band 2N.  With rows and
columns sorted by lowest mode, the section T keeps the block band of the
quantized matrix A: T[i, j] vanishes when those modes differ by more
than the symbol degree plus the wider band.  A itself is kept as its
block band Q, the blocks within the symbol degree of the diagonal (see
symbols._band), and every section is read from Q.  Two coordinate
subspaces give a slice of A, whose panels the banded solve cuts from Q
one mode window at a time (see _Coordinates); other pairs are assembled
from the sides' mode groups and Q's windows, one batched product per
mode offset (see _local_section), a bare side (band 2N) as one group.
Only the dense route lays out a dense matrix: a coordinate section that
goes to the dense SVD.  A side of band 0 counts its bulk by column mode,
a wider one in ambient coordinates from its groups (see _local_bulk); no
dense mode-local basis is formed.  A symbol of degree 0 between two
sides of band 0 (a parity double that is the identity, say) makes T
block diagonal by mode, and no section is built: see below.
This module builds no realization; all of them come from subspaces.

Near-null vectors.  A block-diagonal T needs none.  Mode k has
cols_k - rank_k kernel and rows_k - rank_k cokernel directions, and both
sides count the same bulk modes, so rank_k cancels and the index is the
source's bulk column count less the target's, the count an empty side
already gets.  Any other section is first given to the banded solve: the
shifted Gram matrix G = T*T + mu^2 I (mu = 1e-6 smax) is block tridiagonal
and is factored once by block Cholesky, and block inverse iteration finds
the singular vectors below 100 mu: X -> G^-1 X for the kernel, and for the
cokernel Y -> Y - T G^-1 T* Y, which is mu^2 (TT* + mu^2 I)^-1 Y (push-
through identity).  The cut is made on the singular values of T X and
T* Y (the Ritz values), never on the squared Gram matrix.  A Ritz block of
p columns doubles at the first step where all its values lie below
100 mu: by Cauchy interlacing the largest singular value of T X, for any
orthonormal X of p columns, is at least the p-th smallest of T, so no
further step can leave room in that block.  The cokernel starts at the
block its count needs: T* has the kernel's values below 100 mu and m - n
more (T is m x n), and the smaller blocks are skipped, each still drawing
its start vectors, so its basis is the one the growth would reach.  A
section the banded solve refuses goes through a full SVD, whose rank cut
is _RANK_TOL * smax.

Memo.  A section's integer is a function of what the kernel reads: each
symbol term's order and face coefficient tables, N, and each side's
selection, or else its band and mode groups (order, modes, positions and
stack).  _SECTIONS keeps it by the sha256 of those bytes (the symbol's
and each realization's digest is cached on the read-only object), so an
equal section of objects built apart is read, not solved: no band,
assembly, solve or bulk count.  It is the one index memo: analytic_index
asks for every scale on each call.  It keeps at most _SECTIONS_KEPT
(4096) entries, one digest and one int each, and drops the oldest
first; a call that raises stores nothing.  The empty-side and
block-diagonal counts come first and are not kept.

Hand-off.  The banded solve only brackets smax (a power-iteration lower
bound, the Gershgorin upper bound of T*T), so its cut is a bracket.  It
hands the call to the dense SVD when a Ritz value lies within 2x of that
bracket, when the section is small or has few column blocks (a side of
band 2N gives one, and is refused before any block is formed), when G is
not numerically positive definite, when a block does not settle or
outgrows half its side, or when kernel and cokernel disagree on the rank
(a refused kernel skips the cokernel).  The dense SVD is also the
oracle the tests compare the banded solve against, basis for basis.
"""
from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .core import (_RANK_TOL, EllipticityViolation, _integer, _sha256,
                   fit_trig_poly)
from .dyadic import DyadicRational
from .subspaces import (_SCALES, ParityError, UnstableIndexError,
                        _truncation, antipodal_subspace, full_subspace,
                        lift_symbol)
from .symbols import (CircleSymbol, FullSymbol, _band, _layout, _range_basis,
                      _symbols_agree, antipodal_pullback, ellipticity_check,
                      mode_labels)

__all__ = [
    "SubspaceOperator",
    "analytic_index",
    "build_parity_double",
    "dimension_functional",
    "index_formula_report",
]


class SubspaceOperator:
    """An operator D : L1 -> L2 given by a symbol and two subspaces.  It
    keeps its is_elliptic() verdict, which with_lower_order passes on, and
    its parity double (`_double`, built by build_parity_double), which it
    does not.  It keeps no index: each section's integer is kept by value
    in _SECTIONS (see "Memo" above), which a repeated call or an equal
    operator built apart reads without solving again."""

    def __init__(self, symbol, source, target, name=""):
        self.symbol = symbol if isinstance(symbol, FullSymbol) \
            else FullSymbol.of(symbol)
        lead = self.symbol.principal
        if (lead.rows, lead.rank) != (target.fiber, source.fiber):
            raise ValueError("symbol shape incompatible with the subspaces")
        self.source = source
        self.target = target
        self.name = name
        self._elliptic = None
        self._double = None

    @property
    def order(self):
        return self.symbol.order

    @property
    def principal(self):
        return self.symbol.principal

    def is_elliptic(self):
        if self._elliptic is None:
            self._elliptic = ellipticity_check(
                self.principal, self.source.symbol, self.target.symbol)
        return self._elliptic

    def with_lower_order(self, *terms):
        """Same operator with extra asymptotic terms appended."""
        op = SubspaceOperator(FullSymbol.of(*self.symbol.terms, *terms),
                              self.source, self.target, name=self.name)
        op._elliptic = self._elliptic
        return op

    def compose(self, other):
        """self after other (principal symbols compose; expansions drop)."""
        if not _symbols_agree(self.source.symbol, other.target.symbol):
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


def _bulk_count(V, inner):
    """Directions of the orthonormal columns V carried by the bulk rows
    `inner` (modes |n| <= N//2): the singular values of V[inner] above
    1/2, read as the eigenvalues above 1/4 of its k x k Gram matrix."""
    if V.shape[1] == 0:
        return 0
    W = V[inner]
    return int((np.linalg.eigvalsh(W.conj().T @ W) > 0.25).sum())


def _dense_near_null(T):
    """Kernel and cokernel of T from a full SVD: the singular vectors past
    the rank r = #{s > _RANK_TOL * smax}."""
    u, s, vh = np.linalg.svd(T)
    smax = float(s[0]) if s.size else 0.0
    r = int((s > _RANK_TOL * smax).sum()) if smax > 0 else 0
    return vh.conj().T[:, r:], u[:, r:]


# The banded solve's rules.  Each literal was read off the sections the
# package builds (fibers 1-8, N 12-144); none is a setting.
_DENSE_BELOW = 160  # a smaller side goes dense: there the full SVD is as fast
_BLOCK_COLS = 48    # columns per block at least, so BLAS work outweighs the loop
_MIN_BLOCKS = 4     # fewer blocks means a band wide against n: dense
_SHIFT = 1e-6       # mu = _SHIFT * smax shifts G = T*T + mu^2 I off singular
_CLEAR = 100.0      # a Ritz block is complete once its top value clears _CLEAR*mu
_MARGIN = 2.0       # a Ritz value within this factor of the cut bracket: dense
_START_BLOCK = 16   # first Ritz block; it doubles until it is complete
_STEPS = 6          # inverse-iteration steps before an unsettled block goes dense
_POWER_STEPS = 10   # power steps for the lower bound on smax


def _column_blocks(col_modes, d):
    """Blocks of columns sorted by mode, each spanning at least 2d modes."""
    per_mode = col_modes.size / (col_modes[-1] - col_modes[0] + 1)
    span = max(2 * d, int(np.ceil(_BLOCK_COLS / per_mode)))
    starts = np.searchsorted(
        col_modes, np.arange(col_modes[0], col_modes[-1] + 1, span))
    # repeats dropped by a mask: np.unique's first call imports numpy.ma
    bounds = np.append(starts, col_modes.size)
    bounds = bounds[np.append(True, bounds[1:] != bounds[:-1])]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


class _BandedGram:
    """G = M*M for a section M whose entry (i, j) vanishes unless the modes
    of row i and column j differ by at most d.  Columns more than 2d modes
    apart are then orthogonal, so in column blocks spanning at least 2d
    modes G is block tridiagonal.  It is built block by block inside the
    band, never as a dense product, and factored by a block Cholesky that
    serves both sides of M: MM* is never formed.  Each block is kept once;
    an adjoint is formed where a product needs it.  `cols` are the column
    blocks (see _column_blocks)."""

    def __init__(self, M, row_modes, col_modes, d, cols):
        self.shape = M.shape
        self.cols = cols
        # the rows where block J's columns can be nonzero
        self.rows = [slice(np.searchsorted(row_modes, col_modes[c.start] - d),
                           np.searchsorted(row_modes, col_modes[c.stop - 1] + d,
                                           "right")) for c in self.cols]
        self.panels = [M[r, c] for r, c in zip(self.rows, self.cols)]
        self.diag = [P.conj().T @ P for P in self.panels]
        # G[J, J-1]: block J's columns meet block J-1's rows from row
        # rows[J].start on, where they are panel J's leading rows
        self.low = [H.conj().T[:, :max(r.stop - s.start, 0)]
                    @ P[s.start - r.start:]
                    for H, s, r, P in zip(self.panels[1:], self.rows[1:],
                                          self.rows, self.panels)]

    def matvec(self, X):
        out = np.zeros((self.shape[0], X.shape[1]), dtype=complex)
        for r, c, P in zip(self.rows, self.cols, self.panels):
            out[r] += P @ X[c]
        return out

    def rmatvec(self, Y):
        """M* Y, block by block."""
        return np.concatenate([P.conj().T @ Y[r]
                               for r, P in zip(self.rows, self.panels)])

    def upper_bound(self):
        """Gershgorin bound on the largest eigenvalue of G."""
        sums = [np.abs(D).sum(axis=1) for D in self.diag]
        for J, L in enumerate(self.low, start=1):
            sums[J] += np.abs(L).sum(axis=1)
            sums[J - 1] += np.abs(L).sum(axis=0)
        return float(max(s.max() for s in sums))

    def lower_bound(self):
        """||M v|| for a unit v after power steps: at most smax."""
        v = np.random.default_rng(0).standard_normal((self.shape[1], 1))
        for _ in range(_POWER_STEPS):
            v = v / np.linalg.norm(v)
            v = self.rmatvec(self.matvec(v))
        return float(np.linalg.norm(self.matvec(v / np.linalg.norm(v))))

    def factor(self, mu):
        """Block Cholesky G + mu^2 I = L L*: the inverted diagonal blocks
        C^-1 of L and its subdiagonal blocks S, each kept once.  Raises
        LinAlgError when a pivot block is not positive definite."""
        self.inv, self.sub = [], []
        for J, D in enumerate(self.diag):
            D = D + mu * mu * np.eye(len(D))
            if J:
                S = self.low[J - 1] @ self.inv[J - 1].conj().T
                D = D - S @ S.conj().T
                self.sub.append(S)
            self.inv.append(np.linalg.inv(np.linalg.cholesky(D)))

    def solve(self, B):
        """(G + mu^2 I)^-1 B: forward, then backward block substitution."""
        y = []
        for J, c in enumerate(self.cols):
            r = B[c] - self.sub[J - 1] @ y[-1] if J else B[c]
            y.append(self.inv[J] @ r)
        x = [None] * len(y)
        for J in reversed(range(len(y))):
            r = y[J] - self.sub[J].conj().T @ x[J + 1] if J + 1 < len(y) \
                else y[J]
            x[J] = self.inv[J].conj().T @ r
        return np.concatenate(x)

    def near_null(self, n, step, ritz, mu, cut_lo, cut_hi, need=0):
        """(V, low): the orthonormal n-vectors V with ritz(V) below the cut,
        from block inverse iteration X <- qr(step(X)), and the number of
        Ritz values below _CLEAR * mu; None when a block does not settle or
        outgrows half the side, or a Ritz value lies within _MARGIN of
        [cut_lo, cut_hi].  The Ritz values are the singular values of
        ritz(X), never G's.  A block grows at the first step where it is
        full (interlacing: see the module docstring).  The hint `need`
        counts singular values known to lie below _CLEAR * mu: the blocks
        of at most that many columns would grow, so they are skipped, each
        still drawing its start vectors, and V is the one without the
        hint."""
        rng = np.random.default_rng(0)
        p = _START_BLOCK
        while 2 * p <= n:
            X = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
            if p <= need:
                p *= 2
                continue
            prev = None
            for _ in range(_STEPS):
                X = np.linalg.qr(step(X))[0]
                R = np.linalg.qr(ritz(X), mode="r")
                _, s, vh = np.linalg.svd(R)
                low = s < _CLEAR * mu
                if low[0] or prev is not None \
                        and np.array_equal(low, prev < _CLEAR * mu) \
                        and np.all(np.abs(s - prev)[low]
                                   <= 1e-2 * np.maximum(s[low], cut_lo)):
                    break
                prev = s
            else:
                return None
            if low[0]:  # full, so no step can make room: grow
                p *= 2
                continue
            if np.any((s >= cut_lo / _MARGIN) & (s <= _MARGIN * cut_hi)):
                return None
            k = int((s < cut_lo / _MARGIN).sum())
            return X @ vh[p - k:].conj().T, int(low.sum())
        return None


def _banded_near_null(T, row_modes, col_modes, d):
    """Kernel and cokernel of a sliced section T, or None to hand the call
    to the dense SVD.

    smax lies between a power-iteration lower bound and the Gershgorin
    upper bound of T*T, so the rank cut _RANK_TOL * smax lies in
    [cut_lo, cut_hi].  The count below it is certain when no Ritz value of
    T or T* lies within _MARGIN of that bracket and both sides agree on the
    rank.  One factorization of T*T + mu^2 I serves both sides.
    """
    if min(T.shape) < _DENSE_BELOW:
        return None
    cols = _column_blocks(col_modes, d)
    if len(cols) < _MIN_BLOCKS:  # refused before any panel is formed
        return None
    G = _BandedGram(T, row_modes, col_modes, d, cols)
    lo = G.lower_bound()
    mu = _SHIFT * lo
    cut_lo, cut_hi = _RANK_TOL * lo, _RANK_TOL * np.sqrt(G.upper_bound())
    if _MARGIN * cut_hi > mu:  # bracket too wide for the shift
        return None
    try:
        G.factor(mu)
    except np.linalg.LinAlgError:
        return None
    m, n = T.shape
    ker = G.near_null(n, G.solve, G.matvec, mu, cut_lo, cut_hi)
    if ker is None:
        return None
    ker, low = ker
    # push-through: mu^2 (TT* + mu^2 I)^-1 Y = Y - T (T*T + mu^2 I)^-1 T* Y;
    # T* has the kernel's values below _CLEAR * mu and m - n more
    coker = G.near_null(m, lambda Y: Y - G.matvec(G.solve(G.rmatvec(Y))),
                        G.rmatvec, mu, cut_lo, cut_hi, low + m - n)
    if coker is None or n - ker.shape[1] != m - coker[0].shape[1]:
        return None
    return ker, coker[0]


class _Coordinates:
    """The section A[ix_(c2, c1)] between two coordinate sides, in sorted
    coordinates (so modes ascend), read from the band Q of A (see
    symbols._band).  A slice [rows, cols] lays out A on only the modes
    those rows and columns reach and keeps their coordinates; np.asarray
    lays out the whole section.  A itself is never laid out."""

    def __init__(self, Q, c2, c1):
        self.Q, self.c2, self.c1 = Q, c2, c1
        self.shape = (c2.size, c1.size)

    def __getitem__(self, rows_cols):
        c2, c1 = self.c2[rows_cols[0]], self.c1[rows_cols[1]]
        if c2.size == 0 or c1.size == 0:
            return np.zeros((c2.size, c1.size), dtype=complex)
        r2, r1 = self.Q.shape[2:]
        dst = range(c2[0] // r2, c2[-1] // r2 + 1)
        src = range(c1[0] // r1, c1[-1] // r1 + 1)
        block = _layout(self.Q, dst, src)
        # sorted distinct coordinates, as many as their modes hold: all
        if c2.size < block.shape[0]:
            block = block[c2 - dst.start * r2]
        if c1.size < block.shape[1]:
            block = block[:, c1 - src.start * r1]
        return block

    def __array__(self, dtype=None, copy=None):
        return self[:, :]


def _windows(Q, g, band):
    """A on the window of each group of g, a side of this band: the rows
    of modes m - d .. m + band + d and the columns of modes m .. m + band,
    for lowest mode m.  Column j (mode m + j) holds Q's band of mode m + j
    from row j on; a row past the mode window is zero."""
    d = (Q.shape[1] - 1) // 2
    rows, cols = Q.shape[2:]
    win = np.zeros((g.modes.size, band + 2 * d + 1, rows, band + 1, cols),
                   dtype=complex)
    for j in range(band + 1):
        win[:, j:j + 2 * d + 1, :, j] = Q[g.modes + j]
    return win.reshape(g.modes.size, (band + 2 * d + 1) * rows, -1)


def _local_section(Q, src, tgt):
    """B2* A B1 for mode-local realizations, rows and columns in their
    sorted order, from each side's mode groups (see _ModeGroups) and the
    band Q of A (see symbols._band), of half-width d.  The columns of
    lowest mode m reach the modes m .. m + b1 and A takes those to the
    rows of modes m - d .. m + b1 + d, so one gather of Q (see _windows)
    and one batched product give A B1 on that window for every source
    mode; no target column reaches a row past the mode window.  A target
    column of lowest mode m + k meets it for offsets k in -d - b2 ..
    b1 + d, and the pairs at one offset share their rows, so the section
    takes one batched product per offset the two sides' modes can meet.
    A bare side (band 2N, every lowest mode 0) is one group, and is built
    the same way."""
    s, t = src._by_mode, tgt._by_mode
    r2, b1, b2 = t.fiber, src.band, tgt.band
    d = (Q.shape[1] - 1) // 2
    AB = _windows(Q, s, b1) @ s.stack
    adj = t.stack.conj().transpose(0, 2, 1)
    # the target group of lowest mode m + k for each source mode m and
    # offset k, -1 for none (the table's two end entries: past the window)
    ks = np.arange(max(-d - b2, t.modes[0] - s.modes[-1]),
                   min(b1 + d, t.modes[-1] - s.modes[0]) + 1)
    group = np.full(2 * tgt.N + 3, -1)
    group[t.modes + 1] = np.arange(t.modes.size)
    meets = group[np.clip(s.modes[:, None] + ks + 1, 0, 2 * tgt.N + 2)]
    n1, n2 = s.order.size, t.order.size
    T = np.zeros(n2 * n1 + 1, dtype=complex)  # the last entry takes padding
    for k, g2 in zip(ks.tolist(), meets.T):
        g1 = np.flatnonzero(g2 >= 0)
        g2 = g2[g1]
        lo, hi = max(k, -d), min(k + b2, b1 + d)  # the shared modes, from m
        blk = adj[g2, :, (lo - k) * r2:(hi - k + 1) * r2] \
            @ AB[g1, (lo + d) * r2:(hi + d + 1) * r2]
        p1, p2 = s.pos[g1][:, None, :], t.pos[g2][:, :, None]
        T[np.where((p1 < n1) & (p2 < n2), p2 * n1 + p1, n2 * n1)] = blk
    return T[:-1].reshape(n2, n1)


def _local_bulk(real, N):
    """The bulk count of a mode-local side, as a function of near-null
    vectors V in its sorted column coordinates (None: all its columns).  A
    column on one mode is in the bulk or not, so at band 0 the columns are
    counted; wider ones in ambient coordinates, B V summed from each
    group's stack times its rows of V on the group's window."""
    g = real._by_mode
    if real.band == 0:
        inner = np.abs(real.modes[g.order] - N) <= N // 2
        return lambda V: int(inner.sum()) if V is None \
            else _bulk_count(V, inner)
    inner = mode_labels(N, g.fiber) <= N // 2
    step = real.band + 1  # groups this many apart have disjoint windows

    def count(V):
        V = np.eye(real.rank) if V is None else V  # the other side is empty
        P = g.stack @ np.append(V, np.zeros((1, V.shape[1])), axis=0)[g.pos]
        BV = np.zeros((inner.size, V.shape[1]), dtype=complex)
        for j in range(min(step, len(P))):
            BV[g.windows[j::step]] += P[j::step]
        return _bulk_count(BV, inner)

    return count


# section digest -> bulk-filtered index, oldest first (see "Memo" above)
_SECTIONS = OrderedDict()
_SECTIONS_KEPT = 4096  # past this many entries the oldest goes


def _filtered_index_once(op, N):
    """The bulk-filtered index at one truncation: compress, take the
    near-null vectors on both sides (banded solve or dense SVD), count
    those in the bulk.  A section that is block diagonal by mode (symbol
    degree 0, both sides of band 0) is counted by mode, with no solve.  A
    section already solved in this process is read from _SECTIONS; a call
    that raises stores nothing."""
    src, tgt = op.source.realize(N), op.target.realize(N)
    d = max(t.degree for t in op.symbol.terms)
    if src.rank == 0 or tgt.rank == 0 or d == src.band == tgt.band == 0:
        # an empty side, or a section that is block diagonal by mode: a
        # mode's rank enters its kernel and its cokernel count alike
        return _local_bulk(src, N)(None) - _local_bulk(tgt, N)(None)
    key = _sha256(N, op.symbol._digest, src._digest, tgt._digest)
    hit = _SECTIONS.get(key)
    if hit is not None:
        return hit
    # with rows and columns sorted by mode the section keeps the band of A
    # (a permutation changes neither the index nor the bulk counts); a
    # coordinate pair is a slice of A, read from Q as the solve asks
    count1, count2 = _local_bulk(src, N), _local_bulk(tgt, N)
    Q = _band(op.symbol, N)
    o1, o2 = src._by_mode.order, tgt._by_mode.order
    if src.select is not None and tgt.select is not None:
        T = _Coordinates(Q, tgt.select[o2], src.select[o1])
    else:
        T = _local_section(Q, src, tgt)
    near = _banded_near_null(T, tgt.modes[o2], src.modes[o1],
                             d + max(src.band, tgt.band))
    # only the dense SVD lays out a coordinate section
    ker, coker = near if near is not None else _dense_near_null(np.asarray(T))
    index = _SECTIONS.setdefault(key, count1(ker) - count2(coker))
    while len(_SECTIONS) > _SECTIONS_KEPT:
        _SECTIONS.popitem(last=False)
    return index


def analytic_index(op, N=16, scales=_SCALES):
    """Stabilized index of an elliptic operator in subspaces.

    Raises EllipticityViolation if the symbol is not invertible between
    the subspace bundles, UnstableIndexError if the three truncation
    scales disagree, ValueError if N is not an integer >= 1.
    """
    N = _truncation(N)
    if not op.is_elliptic():
        raise EllipticityViolation(
            "symbol does not restrict to an isomorphism of the subspaces")
    vals = [_filtered_index_once(op, N * s) for s in scales]
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

    Built once per operator: the double is kept on op.
    """
    if op._double is not None:
        return op._double
    parity = op.source.symbol.parity
    if parity not in ("Even", "Odd"):
        raise ValueError("source subspace has no parity; no double exists")
    if op.target.symbol.parity != parity:
        raise ValueError("parity double needs matching parities")
    even = parity == "Even"
    sample = _even_double_sample if even else _odd_double_sample
    name = f"double({op.name})"
    sym = CircleSymbol(0 if even else op.order, _double_face(op, +1, sample),
                       _double_face(op, -1, sample), name=name)
    source = full_subspace(op.source.fiber)
    target = source if even else \
        op.target.direct_sum(antipodal_subspace(op.target))
    op._double = SubspaceOperator(sym, source, target, name=name)
    return op._double


def _twist_symbol(q):
    # fixed even invertible order-0 symbol with nonconstant determinant phase
    jk = np.outer(np.arange(q), np.arange(q))
    V = np.exp(2j * np.pi * jk / q) / np.sqrt(q)
    e0 = np.zeros((q, q), dtype=complex)
    e0[0, 0] = 1.0
    rest = np.eye(q, dtype=complex) - e0
    face = {0: V @ rest @ V.conj().T, 1: V @ e0 @ V.conj().T}
    return CircleSymbol(0, face, face, name="twist")


def _d_once(sigma, L, N, lift_order, elliptic=None):
    """2^-k ind of the lift sigma : L -> C^q, doubled k = lift_order times.
    A lift with unequal faces, whose double is not the identity, is
    refused.  `elliptic` is the lift's verdict when its caller has it
    (None: checked here)."""
    if not _symbols_agree(sigma, antipodal_pullback(sigma)):
        raise ParityError("a lift over the circle has equal faces; this one "
                          "needs its parity double")
    op = SubspaceOperator(sigma, L, full_subspace(sigma.rows))
    op._elliptic = elliptic
    for _ in range(lift_order):
        op = op.direct_sum(op)
    return DyadicRational(analytic_index(op, N=N), lift_order)


def dimension_functional(L, N=16, lift_order=0):
    """d(L), an exact dyadic rational.

    In general d(L) = 2^{-k}(ind of the lifted trivializer - half the
    index of its parity double) (Savin-Sternin).  Over the circle the
    lift sigma has equal faces, so alpha* sigma = sigma and the double
    (alpha* sigma)^{-1} sigma (+) (1 - p) is the identity, of index 0:
    d(L) = 2^{-k} ind sigma, and no double is built.

    Defined for even subspaces whose symbol records a frame (see
    subspaces.lift_symbol); the result must not depend on the lift, which
    is verified against a twisted second lift.  lift_order forces k
    artificial doublings; it is an integer >= 0 (else ValueError).

    Computed once per (N, lift_order) on each subspace: the value is kept
    in L's memo, next to its realizations; a call that raises keeps
    nothing.
    """
    N = _truncation(N)
    lift_order = _integer(lift_order, "lift_order", 0)
    key = (N, lift_order)
    hit = L._dims.get(key)
    if hit is not None:
        return hit
    return L._dims.setdefault(key, _dimension(L, N, lift_order))


def _dimension(L, N, lift_order):
    # lift_symbol refuses a subspace that is not even or has no recorded
    # frame, and checks that its lift is elliptic; the twisted lift is
    # checked in _d_once
    sigma = lift_symbol(L)
    if sigma.rows == 0:
        return DyadicRational.from_integer(0)
    # the twisted lift adds one degree
    N = _fitting_n(N, sigma.degree + L.symbol.degree + 1)
    d = _d_once(sigma, L, N, lift_order, True)
    twisted = _twist_symbol(sigma.rows) @ sigma
    d2 = _d_once(twisted, L, N, lift_order)
    if d2 != d:
        raise ArithmeticError(
            f"dimension functional is lift-dependent: {d} vs {d2}")
    return d


def _fitting_n(N, degree):
    """Smallest truncation >= N that quantizes a symbol of this degree
    (quantization needs N > 2 * degree)."""
    return max(N, 2 * degree + 1)


def _fitting_truncation(op, N):
    """Smallest truncation >= N that quantizes op and its parity double."""
    terms = op.symbol.terms + build_parity_double(op).symbol.terms
    return _fitting_n(N, max(t.degree for t in terms))


def index_formula_report(op, example_id, N=16):
    """One defect-formula evaluation as a flat JSON-ready row; its
    "residual" ind D - (1/2) ind double(D) - d(L1) + d(L2) is an exact
    dyadic rational that the defect formula asserts is zero.  N must fit
    op and its parity double (see _fitting_truncation)."""
    N = _truncation(N)
    ind_d = analytic_index(op, N=N)
    dbl = build_parity_double(op)
    ind_dbl = analytic_index(dbl, N=N)
    d1 = dimension_functional(op.source, N=N)
    d2 = dimension_functional(op.target, N=N)
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
