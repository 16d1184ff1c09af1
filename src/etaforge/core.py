"""Shared numeric kernels: tolerant rank, matrix trigonometric polynomials
and winding numbers.

Everything here is pure and deterministic; all downstream modules funnel
their linear algebra through these entry points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "TrigPolyMatrix",
    "stable_rank",
    "winding_number",
    "EllipticityViolation",
    "TrigFitError",
    "fit_trig_poly",
    "polar_unitary",
    "trig_block",
    "trig_blockdiag",
]


class EllipticityViolation(ValueError):
    """A determinant or restricted singular value got too close to zero."""


class TrigFitError(ValueError):
    """A sampled family refused to be a trigonometric polynomial."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared across the package.

    rank_tol governs rank decisions and ellipticity thresholds, eig_tol
    governs eigendecomposition residuals and projection checks, eta_tol
    is the acceptance tolerance for heat-extrapolated eta values.
    """

    rank_tol: float = 1e-8
    eig_tol: float = 1e-10
    eta_tol: float = 1e-3

    def __post_init__(self):
        if not (self.rank_tol > 0 and self.eig_tol > 0 and self.eta_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if not self.rank_tol < 1e-3:
            raise ValueError("rank_tol must be below 1e-3")


DEFAULT_TOL = ToleranceConfig()


def stable_rank(M, tol=None):
    """Number of singular values above tol times the largest one."""
    tol = DEFAULT_TOL.rank_tol if tol is None else tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    smax = s[0] if s.size and s[0] > 0 else 1.0
    return int(np.sum(s > tol * smax))


class TrigPolyMatrix:
    """Matrix-valued trigonometric polynomial sum_k c_k e^{ikx}.

    Coefficients are stored densely over k in [-degree, degree] as an
    ndarray of shape (2*degree+1, rows, cols).  Instances are immutable.
    """

    def __init__(self, coeffs):
        """coeffs: mapping k -> (rows x cols) array, or an ndarray laid out
        as described above."""
        if isinstance(coeffs, TrigPolyMatrix):
            self._c = coeffs._c
        elif isinstance(coeffs, dict):
            if not coeffs:
                raise ValueError("empty coefficient table")
            shape = np.atleast_2d(next(iter(coeffs.values()))).shape
            deg = max(abs(int(k)) for k in coeffs)
            c = np.zeros((2 * deg + 1,) + shape, dtype=complex)
            for k, mat in coeffs.items():
                c[int(k) + deg] += np.atleast_2d(mat)
            self._c = c
        else:
            c = np.asarray(coeffs, dtype=complex)
            if c.ndim != 3 or c.shape[0] % 2 != 1:
                raise ValueError("expect (2D+1, rows, cols) coefficient array")
            self._c = c.copy()
        self._c.setflags(write=False)

    @property
    def degree(self):
        return (self._c.shape[0] - 1) // 2

    @property
    def shape(self):
        return self._c.shape[1:]

    def coeff(self, k):
        """k-th Fourier coefficient (zero outside [-degree, degree])."""
        d = self.degree
        if abs(k) > d:
            return np.zeros(self.shape, dtype=complex)
        return self._c[k + d]

    def coeff_table(self):
        return self._c

    def __call__(self, xs):
        """Evaluate at points xs; returns (len(xs), rows, cols)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ks = np.arange(-self.degree, self.degree + 1)
        phases = np.exp(1j * np.outer(xs, ks))
        return np.tensordot(phases, self._c, axes=(1, 0))

    def trimmed(self, tol=1e-13):
        """Drop leading/trailing coefficient blocks below tol in max norm."""
        mags = np.abs(self._c).reshape(self._c.shape[0], -1).max(axis=1)
        big = np.nonzero(mags > tol)[0]
        if big.size == 0:
            return TrigPolyMatrix({0: np.zeros(self.shape)})
        d = self.degree
        cut = max(abs(big[0] - d), abs(big[-1] - d))
        return TrigPolyMatrix(self._c[d - cut:d + cut + 1])

    def __add__(self, other):
        other = _as_trig(other, self.shape)
        d = max(self.degree, other.degree)
        out = np.zeros((2 * d + 1,) + self.shape, dtype=complex)
        out[d - self.degree:d + self.degree + 1] += self._c
        out[d - other.degree:d + other.degree + 1] += other._c
        return TrigPolyMatrix(out)

    def __sub__(self, other):
        return self + (-1.0) * _as_trig(other, self.shape)

    def __rmul__(self, scalar):
        return TrigPolyMatrix(self._c * scalar)

    def __matmul__(self, other):
        other = _as_trig(other, (self.shape[1], other.shape[1] if isinstance(
            other, TrigPolyMatrix) else np.atleast_2d(other).shape[1]))
        rows, inner = self.shape
        inner2, cols = other.shape
        if inner != inner2:
            raise ValueError("shape mismatch in trig-poly product")
        d = self.degree + other.degree
        out = np.zeros((2 * d + 1, rows, cols), dtype=complex)
        m = other._c.shape[0]
        for i in range(self._c.shape[0]):
            # modes i - deg1 and j - deg2 land on i + j
            out[i:i + m] += self._c[i] @ other._c
        return TrigPolyMatrix(out)

    def conj_transpose(self):
        """Pointwise conjugate transpose: coefficients c_k -> c_{-k}^*."""
        c = np.conj(np.transpose(self._c[::-1], (0, 2, 1)))
        return TrigPolyMatrix(c)

    def derivative(self):
        ks = np.arange(-self.degree, self.degree + 1)
        return TrigPolyMatrix(1j * ks[:, None, None] * self._c)

    def max_abs(self):
        return float(np.abs(self._c).reshape(self._c.shape[0], -1).sum(axis=0).max())

    def is_hermitian(self, tol=1e-10):
        diff = self - self.conj_transpose()
        return diff.max_abs() <= tol * max(self.max_abs(), 1.0)


def _as_trig(val, shape):
    if isinstance(val, TrigPolyMatrix):
        return val
    arr = np.atleast_2d(np.asarray(val, dtype=complex))
    if arr.shape != tuple(shape):
        arr = arr * np.eye(shape[0], shape[1] if len(shape) > 1 else shape[0])
    return TrigPolyMatrix({0: arr})


def constant_trig(mat):
    """Trig polynomial with the single coefficient c_0 = mat."""
    return TrigPolyMatrix({0: np.atleast_2d(np.asarray(mat, dtype=complex))})


def polar_unitary(M):
    """Unitary polar factor (columns re-orthonormalized, nearest in Frobenius)."""
    u, _, vh = np.linalg.svd(np.asarray(M, dtype=complex), full_matrices=False)
    return u @ vh


def trig_block(grid):
    """Assemble a trig-poly matrix from a 2-D grid of blocks.

    Row/column sizes must be consistent across the grid; scalar/ndarray
    entries are promoted to constant polynomials.
    """
    grid = [[b if isinstance(b, TrigPolyMatrix) else constant_trig(b)
             for b in row] for row in grid]
    d = max(b.degree for row in grid for b in row)
    row_sizes = [row[0].shape[0] for row in grid]
    col_sizes = [b.shape[1] for b in grid[0]]
    out = np.zeros((2 * d + 1, sum(row_sizes), sum(col_sizes)), dtype=complex)
    r0 = 0
    for i, row in enumerate(grid):
        c0 = 0
        for j, b in enumerate(row):
            if b.shape != (row_sizes[i], col_sizes[j]):
                raise ValueError("inconsistent block sizes")
            out[d - b.degree:d + b.degree + 1,
                r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b.coeff_table()
            c0 += col_sizes[j]
        r0 += row_sizes[i]
    return TrigPolyMatrix(out)


def trig_blockdiag(blocks):
    """Pointwise block-diagonal of trig-poly matrices."""
    blocks = [b if isinstance(b, TrigPolyMatrix) else constant_trig(b)
              for b in blocks]
    d = max(b.degree for b in blocks)
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((2 * d + 1, rows, cols), dtype=complex)
    r0 = c0 = 0
    for b in blocks:
        br, bc = b.shape
        out[d - b.degree:d + b.degree + 1, r0:r0 + br, c0:c0 + bc] = \
            b.coeff_table()
        r0, c0 = r0 + br, c0 + bc
    return TrigPolyMatrix(out)


def _fft_fit(vals, trim):
    """Trig polynomial through G equispaced samples vals[0..G-1] (G even),
    trimmed at trim, and the largest coefficient of the dropped Nyquist
    bin."""
    G = vals.shape[0]
    spec = np.fft.fft(vals, axis=0) / G
    half = G // 2
    # index 0 of table is mode -(half-1)
    table = np.concatenate([spec[half + 1:], spec[:half]], axis=0)
    nyq = float(np.abs(spec[half]).max()) if vals.size else 0.0
    return TrigPolyMatrix(table).trimmed(trim), nyq


def fit_trig_poly(fn, grid=64, tol=1e-8, cap=4096, trim=1e-12):
    """Fit x -> fn(x) (vectorized, shape (len(xs), rows, cols)) by FFT.

    Validates on the midpoint grid and doubles the sample count until the
    off-grid error drops below tol * scale; analytic families converge
    geometrically, genuinely non-polynomial ones raise TrigFitError.
    """
    G = int(grid)
    while True:
        xs = 2 * np.pi * np.arange(G) / G
        vals = np.asarray(fn(xs), dtype=complex)
        scale = max(float(np.abs(vals).max()) if vals.size else 0.0, 1.0)
        # the Nyquist bin is dropped, so it must carry nothing
        fit, nyq = _fft_fit(vals, trim * scale)
        mid = xs + np.pi / G
        err = float(np.abs(fit(mid) - np.asarray(fn(mid))).max()) if vals.size else 0.0
        if max(err, nyq) <= tol * scale:
            return fit
        if 2 * G > cap:
            raise TrigFitError(
                f"residual {err:.2e} at {G} samples exceeds {tol:.1e}")
        G *= 2


def winding_grid(rank, degree, minimum=64):
    """Grid size for phase-safe winding of an (rank x rank, degree) loop."""
    return max(int(8 * (rank * degree + 1)), minimum)


def winding_number(loop, tol=None):
    """Winding of x -> det G(x) around 0 for an invertible trig-poly loop.

    The determinant of an r x r matrix with entry degree D is a trig
    polynomial of degree <= r*D, so a grid of 8(rD+1) points keeps every
    phase increment well under pi and argument accumulation is exact.
    """
    tol = DEFAULT_TOL.rank_tol if tol is None else tol
    loop = loop if isinstance(loop, TrigPolyMatrix) else TrigPolyMatrix(loop)
    r, c = loop.shape
    if r != c:
        raise ValueError("winding_number needs a square loop")
    G = winding_grid(r, loop.degree)
    xs = np.linspace(0.0, 2 * np.pi, G, endpoint=False)
    dets = np.linalg.det(loop(xs))
    if np.any(np.abs(dets) < tol):
        raise EllipticityViolation(
            "loop determinant within rank_tol of zero; not invertible")
    closed = np.concatenate([dets, dets[:1]])
    increments = np.angle(closed[1:] / closed[:-1])
    total = float(np.sum(increments)) / (2 * np.pi)
    w = int(round(total))
    if abs(total - w) > 1e-6:
        raise EllipticityViolation(
            f"winding failed to close on an integer (got {total})")
    return w
