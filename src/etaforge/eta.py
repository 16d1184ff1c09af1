"""Spectral asymmetry: eta invariants of discrete spectral models.

Conventions: for an invertible self-adjoint A the eta function is
sum sign(lambda) |lambda|^{-s}; we report eta(A) = eta_A(0) + dim ker A.
Numerics use the small-t limit of h(t) = sum sign(lambda) e^{-t lambda^2}
with a three-point power-law extrapolation whose exponent ladder depends
on the spectral model.

A spectrum is two arrays from end to end: lam (float64) and mult (int64),
ordered by np.lexsort((lam, |lam|)), i.e. ascending (|lambda|, lambda)
with equal eigenvalues in input order (lexsort is stable).  That order is
the heat trace's summation order, so it fixes the bits of every numeric
eta.  Python (eigenvalue, multiplicity) pairs are built only on request,
by SpectrumModel.eigenvalues() and the CSV writer.

Each per-level array is held once: a lattice model is built from q alone
(never from the point array t3_spectrum gathers), and the heat ladder
runs in place in one scratch array.  In-place ufuncs compute the same
elementwise products and exponentials, and np.sum sees the same values
in the same contiguous layout and length, so every bit is unchanged.
"""
from __future__ import annotations

import csv
import json
import numbers

import numpy as np

# d(L) lives in indexing; eta.dimension_functional stays importable
from .indexing import dimension_functional  # noqa: F401

__all__ = [
    "UnsupportedSpectrumError",
    "EtaConvergenceError",
    "EtaResult",
    "SpectrumModel",
    "eta_closed_form",
    "eta_numeric",
    "mode_zero_crossing_family",
    "eta_result_json",
    "dump_spectrum_csv",
]


class UnsupportedSpectrumError(ValueError):
    """No closed form is known for this spectral model."""


class EtaConvergenceError(ArithmeticError):
    """The heat extrapolation produced no trustworthy plateau."""


class EtaResult:
    """Outcome of an eta evaluation.

    method is "ClosedForm" (error_estimate exactly 0) or
    "HeatExtrapolated" (error_estimate strictly positive).
    """

    __slots__ = ("value", "method", "error_estimate", "kernel_dim")

    def __init__(self, value, method, error_estimate, kernel_dim):
        if method not in ("ClosedForm", "HeatExtrapolated"):
            raise ValueError(f"unknown method {method!r}")
        if method == "ClosedForm" and error_estimate != 0.0:
            raise ValueError("closed forms carry zero error")
        if method == "HeatExtrapolated" and not error_estimate > 0.0:
            raise ValueError("extrapolated results need a positive error bar")
        self.value = float(value)
        self.method = method
        self.error_estimate = float(error_estimate)
        self.kernel_dim = int(kernel_dim)

    def __repr__(self):
        return (f"EtaResult(value={self.value!r}, method={self.method!r}, "
                f"error_estimate={self.error_estimate!r}, "
                f"kernel_dim={self.kernel_dim})")


class SpectrumModel:
    """A finitely generated model of a discrete real spectrum.

    kinds:
      ArithmeticProgression  -- {n + theta : |n| <= cutoff}, uniform mult
      Lattice3Quadratic      -- {+|k+theta|^2 (x1), -|k+theta|^2 (x2)}
                                over k in Z^3 with |k+theta| <= cutoff
      ExplicitList           -- fixed (eigenvalue, multiplicity) pairs

    The spectrum is held as two read-only arrays, lam (float64) and mult
    (int64).  Their order is part of the contract, because it is the heat
    trace's summation order: ascending (|lambda|, lambda), ties kept in
    input order.  Eigenvalues must be finite and nonzero (zero modes
    belong in kernel_dim), multiplicities positive integers that fit
    int64 and kernel_dim a nonnegative integer; a progression's cutoff
    is an integer >= 0 and a lattice cutoff a finite real >= 8.  Anything
    else raises ValueError.
    """

    def __init__(self, kind, lam, mult, kernel_dim, params):
        if kind not in _EXPONENT_LADDER:
            raise ValueError(f"unknown spectrum kind {kind!r}")
        lam = np.asarray(lam, dtype=np.float64)
        mult = np.asarray(mult)
        if lam.ndim != 1 or mult.shape != lam.shape:
            raise ValueError("need one multiplicity per eigenvalue")
        if not np.isfinite(lam).all():
            raise ValueError("eigenvalues must be finite")
        if (lam == 0.0).any():
            raise ValueError("zero modes belong in kernel_dim, not the list")
        # an empty list arrives as float64, so only nonempty input is
        # typed; a uint64 beyond int64 would wrap negative in the cast
        if mult.size and (mult.dtype.kind not in "iu" or (mult <= 0).any()
                          or mult.max() > np.iinfo(np.int64).max):
            raise ValueError("multiplicities must be positive integers "
                             "that fit int64")
        if not isinstance(kernel_dim, (int, np.integer)) or kernel_dim < 0:
            raise ValueError("kernel_dim must be a nonnegative integer")
        order = np.lexsort((lam, np.abs(lam)))
        lam, mult = lam[order], mult[order].astype(np.int64, copy=False)
        lam.setflags(write=False)
        mult.setflags(write=False)
        self.kind, self.lam, self.mult = kind, lam, mult
        self.kernel_dim = int(kernel_dim)
        self.params = dict(params)

    @classmethod
    def arithmetic_progression(cls, theta, mult=1, cutoff=2000):
        # a fractional cutoff would shift every level off n + theta
        if isinstance(cutoff, (bool, np.bool_)) \
                or not isinstance(cutoff, (int, np.integer)) or cutoff < 0:
            raise ValueError(f"progression cutoff must be an integer >= 0, "
                             f"not {cutoff!r}")
        theta = float(theta)
        lam = np.arange(-cutoff, cutoff + 1) + theta
        zero = lam == 0.0
        return cls("ArithmeticProgression", lam[~zero],
                   np.full(lam.size - int(zero.sum()), mult),
                   mult * int(zero.sum()),
                   {"theta": theta, "mult": mult, "cutoff": cutoff})

    @classmethod
    def lattice3_quadratic(cls, theta=(0.0, 0.0, 0.0), cutoff=10):
        if _radius(cutoff) < 8:
            raise ValueError("lattice cutoff below 8 starves the tail")
        theta = tuple(float(t) for t in theta)
        q = _lattice3(theta, cutoff)[2]
        kernel_dim, q = 3 * int((q == 0.0).sum()), q[q > 0.0]
        q = np.concatenate([q, -q])  # rebinding frees the positive half
        return cls("Lattice3Quadratic", q,
                   np.repeat(np.int8([1, 2]), q.size // 2), kernel_dim,
                   {"theta": theta, "cutoff": cutoff})

    @classmethod
    def explicit_list(cls, pairs, kernel_dim=0):
        pairs = list(pairs)
        return cls("ExplicitList", [l for l, _ in pairs],
                   [m for _, m in pairs], kernel_dim, {})

    @classmethod
    def from_eigenvalues(cls, values):
        """ExplicitList from raw eigenvalues; near-zeros become kernel."""
        values = np.asarray(values, dtype=float)
        # an infinite scale would sweep every finite value into the kernel
        if not np.isfinite(values).all():
            raise ValueError("eigenvalues must be finite")
        scale = max(float(np.abs(values).max()), 1.0) if values.size else 1.0
        zero = np.abs(values) <= 1e-10 * scale
        lam = values[~zero]
        return cls("ExplicitList", lam, np.ones(lam.size, dtype=np.int64),
                   int(zero.sum()), {})

    def eigenvalues(self):
        """The (eigenvalue, multiplicity) pairs as Python numbers, in order."""
        # a list first: tuple(zip(...)) regrows its unsized result, twice
        # as slow at lattice sizes
        return tuple(list(zip(self.lam.tolist(), self.mult.tolist())))

    def __repr__(self):
        return (f"SpectrumModel({self.kind}, {self.lam.size} levels, "
                f"kernel_dim={self.kernel_dim})")


def _radius(R):
    """R as a lattice radius: a finite real >= 0, not a bool.  Anything
    else raises ValueError, checked where a radius enters."""
    if isinstance(R, bool) or not isinstance(R, numbers.Real) \
            or not 0 <= R < np.inf:
        raise ValueError(f"lattice radius must be a finite real >= 0, "
                         f"not {R!r}")
    return R


def _lattice3(theta, R):
    """The grid g = -b..b, the mask over g^3 of the k in Z^3 with
    q = |k + theta|^2 <= R^2, and their q in the lexicographic order of
    g[np.argwhere(mask)]."""
    if not np.isfinite(theta).all():
        raise ValueError("twist components must be finite")
    b = int(np.ceil(_radius(R) + max(abs(t) for t in theta) + 1))
    g = np.arange(-b, b + 1)
    x, y, z = ((g + t) * (g + t) for t in theta)
    # summed in the order (x + y) + z of a three-term row sum
    q = (x[:, None, None] + y[None, :, None]) + z[None, None, :]
    inside = q <= R * R
    return g, inside, q[inside]


def eta_closed_form(model):
    """Exact eta for the models that admit one."""
    if model.kind == "ArithmeticProgression":
        frac = model.params["theta"] % 1.0
        mult = model.params["mult"]
        if frac == 0.0:
            return EtaResult(float(mult), "ClosedForm", 0.0, mult)
        return EtaResult(mult * (1.0 - 2.0 * frac), "ClosedForm", 0.0, 0)
    if model.kind == "Lattice3Quadratic":
        frac = [t % 1.0 for t in model.params["theta"]]
        if all(f == 0.0 for f in frac):
            # the quadratic lattice zeta equals -1 at s = 0
            return EtaResult(1.0 + 3.0, "ClosedForm", 0.0, 3)
        return EtaResult(0.0, "ClosedForm", 0.0, 0)
    raise UnsupportedSpectrumError(f"no closed form for {model.kind}")


# small-t expansions h(t) ~ E + a t^{p1} + b t^{p2}, per model kind
_EXPONENT_LADDER = {
    "ArithmeticProgression": (1.0, 2.0),
    "Lattice3Quadratic": (-0.75, 1.0),
    "ExplicitList": (1.0, 2.0),
}


# exp(-x) is exactly 0.0 in float64 for every x beyond this (the least
# subnormal is exp(-744.4))
_EXP_ZERO = 800.0


def _extrapolate3(ts, hs, exponents):
    """E of h(t) = E + a t^p1 + b t^p2 through each consecutive triple of
    the ladder: one solve over the stack of 3x3 Vandermonde matrices (the
    same LAPACK routine, matrix by matrix).  The powers are scalar pow, so
    every row has the bits a per-triple solve would see."""
    rows = np.array([[t ** p for p in (0.0,) + tuple(exponents)] for t in ts])
    triples = np.arange(len(ts) - 2)[:, None] + np.arange(3)
    E = np.linalg.solve(rows[triples], np.asarray(hs)[triples][..., None])
    return E[:, 0, 0].tolist()


def eta_numeric(model):
    """Heat-kernel estimate of eta(A) = eta_A(0) + dim ker A.

    The t-grid is the geometric ladder t0 * 2^j ending at 1/lambda_min^2,
    with t0 pushed below 1/lambda_max^2 whenever the spectrum is too
    narrow to leave seven octaves of headroom; consecutive triples are
    extrapolated and the flattest adjacent pair of extrapolants is the
    plateau.

    Each h(t) is formed in place in one scratch array e: the product
    -t * lambda^2, its exp and the weighting by sign(lambda) * mult are
    written into e with out=, and np.sum reads e.  These are the values
    the temporaries of w * exp(-t * lambda^2) held, in the same order and
    length, so the pairwise sum and its bits are unchanged.
    """
    lam = model.lam
    if not lam.size:
        return EtaResult(float(model.kernel_dim), "HeatExtrapolated", 1e-15,
                         model.kernel_dim)
    # lam is sorted by magnitude, so its ends are the extreme |lambda|
    amin, amax = np.abs(lam[0]), np.abs(lam[-1])
    tmax = 1.0 / amin ** 2
    # narrow spectra leave no room below 1/amax^2; push t0 down so the
    # extrapolation always sees genuinely small t
    t0 = min(1.0 / amax ** 2, tmax / 2.0 ** 7)
    ts = [t0]
    while ts[-1] * 2.0 <= tmax:
        ts.append(ts[-1] * 2.0)
    if len(ts) < 8:
        ts = list(np.geomspace(t0, tmax, 8))
    w = np.copysign(model.mult, lam)  # = sign(lambda) * mult, exactly
    lam2 = lam ** 2
    e = np.zeros_like(lam2)
    hs = []
    for t in ts:
        # lam2 ascends, so the levels whose exp underflows to exactly 0.0
        # are a suffix; they skip the exp but stay in the sum, because
        # np.sum's pairwise blocking depends on the length
        k = np.searchsorted(lam2, _EXP_ZERO / t, side="right")
        np.exp(np.multiply(lam2[:k], -t, out=e[:k]), out=e[:k])
        e[k:] = 0.0
        hs.append(float(np.sum(np.multiply(e, w, out=e))))
    ladder = _EXPONENT_LADDER[model.kind]
    ext = _extrapolate3(ts, hs, ladder)
    if len(ext) < 2:
        raise EtaConvergenceError("eta not converged: grid too short")
    spreads = [abs(ext[j + 1] - ext[j]) for j in range(len(ext) - 1)]
    j = int(np.argmin(spreads))
    value = ext[j + 1]
    err = max(spreads[j], 1e-15)
    if spreads[j] > 0.1 * (1.0 + abs(value)):
        raise EtaConvergenceError(
            f"eta not converged: plateau spread {spreads[j]:.2e}")
    return EtaResult(value + model.kernel_dim, "HeatExtrapolated", err,
                     model.kernel_dim)


def mode_zero_crossing_family(c_values=None, n_max=40):
    """Spectra {sign(n)(n^2+1), n != 0} plus a zero mode at 1 - 2c.

    As c sweeps through 1/2 a single eigenvalue crosses zero, so eta jumps
    by exactly 2 while every other level cancels in sign pairs.  Returns
    (c, SpectrumModel) pairs.
    """
    cs = np.linspace(0.05, 0.95, 10) if c_values is None else c_values
    n = np.arange(-n_max, n_max + 1)
    n = n[n != 0]
    bulk = (np.sign(n) * (n * n + 1)).astype(np.float64)
    out = []
    for c in cs:
        lam0 = 1.0 - 2.0 * float(c)
        lam = bulk if lam0 == 0.0 else np.append(bulk, lam0)
        out.append((float(c), SpectrumModel(
            "ExplicitList", lam, np.ones(lam.size, dtype=np.int64),
            int(lam0 == 0.0), {})))
    return out


def eta_result_json(res):
    return json.dumps({"value": res.value, "method": res.method,
                       "error_estimate": res.error_estimate,
                       "kernel_dim": res.kernel_dim})


def dump_spectrum_csv(model, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eigenvalue", "multiplicity"])
        if model.kernel_dim:
            w.writerow([repr(0.0), model.kernel_dim])
        for lam, m in model.eigenvalues():
            w.writerow([repr(lam), m])
    return path
