"""Spectral asymmetry: eta invariants of discrete spectral models.

Conventions: for an invertible self-adjoint A the eta function is
sum sign(lambda) |lambda|^{-s}; we report eta(A) = eta_A(0) + dim ker A.
Numerics use the small-t limit of h(t) = sum sign(lambda) e^{-t lambda^2}
with a three-point power-law extrapolation whose exponent ladder depends
on the spectral model.
"""
from __future__ import annotations

import csv
import itertools
import json

import numpy as np

from .dyadic import DyadicRational
# d(L) lives in indexing; eta.dimension_functional stays importable
from .indexing import dimension_functional  # noqa: F401

__all__ = [
    "UnsupportedSpectrumError",
    "EtaConvergenceError",
    "EtaResult",
    "SpectrumModel",
    "eta_closed_form",
    "eta_numeric",
    "fractional_part",
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
    """

    def __init__(self, kind, pairs, kernel_dim, params):
        self.kind = kind
        # summation order is part of the contract: ascending (|l|, l)
        self.pairs = tuple(sorted(((float(l), int(m)) for l, m in pairs),
                                  key=lambda p: (abs(p[0]), p[0])))
        self.kernel_dim = int(kernel_dim)
        self.params = dict(params)
        if any(l == 0.0 for l, _ in self.pairs):
            raise ValueError("zero modes belong in kernel_dim, not the list")

    @classmethod
    def arithmetic_progression(cls, theta, mult=1, cutoff=2000):
        theta = float(theta)
        pairs = []
        kernel = 0
        for n in range(-cutoff, cutoff + 1):
            lam = n + theta
            if lam == 0.0:
                kernel += mult
            else:
                pairs.append((lam, mult))
        return cls("ArithmeticProgression", pairs, kernel,
                   {"theta": theta, "mult": mult, "cutoff": cutoff})

    @classmethod
    def lattice3_quadratic(cls, theta=(0.0, 0.0, 0.0), cutoff=10):
        if cutoff < 8:
            raise ValueError("lattice cutoff below 8 starves the tail")
        theta = tuple(float(t) for t in theta)
        _, q = _lattice3(theta, cutoff)
        kernel = 3 * int((q == 0.0).sum())
        pairs = itertools.chain(((qq, 1) for qq in q if qq > 0.0),
                                ((-qq, 2) for qq in q if qq > 0.0))
        return cls("Lattice3Quadratic", pairs, kernel,
                   {"theta": theta, "cutoff": cutoff})

    @classmethod
    def explicit_list(cls, pairs, kernel_dim=0):
        return cls("ExplicitList", pairs, kernel_dim, {})

    @classmethod
    def from_eigenvalues(cls, values):
        """ExplicitList from raw eigenvalues; near-zeros become kernel."""
        values = np.asarray(values, dtype=float)
        scale = max(float(np.abs(values).max()), 1.0) if values.size else 1.0
        zero = np.abs(values) <= 1e-10 * scale
        pairs = [(float(v), 1) for v in values[~zero]]
        return cls("ExplicitList", pairs, int(zero.sum()), {})

    def eigenvalues(self):
        return self.pairs

    def __repr__(self):
        return (f"SpectrumModel({self.kind}, {len(self.pairs)} levels, "
                f"kernel_dim={self.kernel_dim})")


def _lattice3(theta, R):
    """The k in Z^3 with q = |k + theta|^2 <= R^2, in lexicographic order
    of k, and their q."""
    b = int(np.ceil(R + max(abs(t) for t in theta) + 1))
    g = np.arange(-b, b + 1)
    K = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    v = K + np.asarray(theta)
    q = (v * v).sum(axis=1)
    inside = q <= R * R
    return K[inside], q[inside]


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


def _extrapolate3(ts, hs, exponents):
    V = np.array([[t ** p for p in (0.0,) + tuple(exponents)] for t in ts])
    return float(np.linalg.solve(V, np.asarray(hs))[0])


def eta_numeric(model):
    """Heat-kernel estimate of eta(A) = eta_A(0) + dim ker A.

    The t-grid is the geometric ladder t0 * 2^j ending at 1/lambda_min^2,
    with t0 pushed below 1/lambda_max^2 whenever the spectrum is too
    narrow to leave seven octaves of headroom; consecutive triples are
    extrapolated and the flattest adjacent pair of extrapolants is the
    plateau.
    """
    pairs = model.eigenvalues()
    if not pairs:
        return EtaResult(float(model.kernel_dim), "HeatExtrapolated", 1e-15,
                         model.kernel_dim)
    lam = np.array([p[0] for p in pairs])
    mult = np.array([p[1] for p in pairs], dtype=float)
    amax, amin = np.abs(lam).max(), np.abs(lam).min()
    tmax = 1.0 / amin ** 2
    # narrow spectra leave no room below 1/amax^2; push t0 down so the
    # extrapolation always sees genuinely small t
    t0 = min(1.0 / amax ** 2, tmax / 2.0 ** 7)
    ts = [t0]
    while ts[-1] * 2.0 <= tmax:
        ts.append(ts[-1] * 2.0)
    if len(ts) < 8:
        ts = list(np.geomspace(t0, tmax, 8))
    hs = [float(np.sum(np.sign(lam) * mult * np.exp(-t * lam ** 2)))
          for t in ts]
    ladder = _EXPONENT_LADDER[model.kind]
    ext = [_extrapolate3(ts[j:j + 3], hs[j:j + 3], ladder)
           for j in range(len(ts) - 2)]
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


def fractional_part(d):
    """Representative in [0, 1) of a dyadic class mod Z."""
    if not isinstance(d, DyadicRational):
        d = DyadicRational.from_fraction(d)
    return d.fractional_part()


def mode_zero_crossing_family(c_values=None, n_max=40):
    """Spectra {sign(n)(n^2+1), n != 0} plus a zero mode at 1 - 2c.

    As c sweeps through 1/2 a single eigenvalue crosses zero, so eta jumps
    by exactly 2 while every other level cancels in sign pairs.  Returns
    (c, SpectrumModel) pairs.
    """
    cs = np.linspace(0.05, 0.95, 10) if c_values is None else c_values
    out = []
    for c in cs:
        pairs = [(float(np.sign(n) * (n * n + 1)), 1)
                 for n in range(-n_max, n_max + 1) if n != 0]
        lam0 = 1.0 - 2.0 * float(c)
        kernel = 0
        if lam0 == 0.0:
            kernel = 1
        else:
            pairs.append((lam0, 1))
        out.append((float(c), SpectrumModel.explicit_list(pairs, kernel)))
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
