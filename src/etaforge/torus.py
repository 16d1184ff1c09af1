"""Signature-type operator on the flat 3-torus, twisted by a character.

The principal symbol acts on 1-forms as 2 xi xi^T - |xi|^2; its spectrum
on the theta-twisted Fourier modes is +|k+theta|^2 with multiplicity 1
and -|k+theta|^2 with multiplicity 2 per lattice point, plus a
3-dimensional kernel exactly when the twist is trivial.

t3_spectrum enumerates the lattice as arrays, never as per-point tuples:
the modes k come out of eta._lattice3's mask in lexicographic order, and
a stable sort on q = |k+theta|^2 leaves FormSpectrum.points and .values
ordered by (q, k).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eta import SpectrumModel, _lattice3, eta_closed_form, eta_numeric

__all__ = [
    "TwistCharacter",
    "FormSpectrum",
    "gilkey_symbol",
    "symbol_projection",
    "t3_spectrum",
    "gilkey_eta",
]


@dataclass(frozen=True)
class TwistCharacter:
    """Character of Z^3, i.e. a point of the dual torus; kept mod 1."""

    components: tuple

    def __post_init__(self):
        c = tuple(float(t) % 1.0 for t in self.components)
        if len(c) != 3:
            raise ValueError("need exactly three components")
        object.__setattr__(self, "components", c)

    @classmethod
    def trivial(cls):
        return cls((0.0, 0.0, 0.0))


@dataclass(frozen=True, eq=False)
class FormSpectrum:
    """Symbol spectrum over the twisted modes inside radius R.

    points is the (n, 3) int array of modes k and values the float array
    of their q = |k+theta|^2, both sorted by (q, k); each point carries
    the eigenvalue pair (+q x1, -q x2).  kernel_dim is 0 or 3.
    """

    R: float
    points: np.ndarray
    values: np.ndarray
    kernel_dim: int
    twist: TwistCharacter = TwistCharacter.trivial()

    def __post_init__(self):
        if self.kernel_dim not in (0, 3):
            raise ValueError("kernel dimension on the 3-torus is 0 or 3")


def gilkey_symbol(xi):
    """Principal symbol on 1-forms: 2 xi xi^T - |xi|^2."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,) or not np.any(xi):
        raise ValueError("xi must be a nonzero 3-vector")
    return 2.0 * np.outer(xi, xi) - float(xi @ xi) * np.eye(3)


def symbol_projection(xi):
    """(sigma/|xi|^2 + 1)/2: the rank-one projection along xi."""
    xi = np.asarray(xi, dtype=float)
    q = (gilkey_symbol(xi) / float(xi @ xi) + np.eye(3)) / 2.0
    if np.abs(q @ q - q).max() > 1e-12:
        raise ArithmeticError("symbol decomposition lost idempotency")
    return q


def t3_spectrum(twist=None, R=1.5):
    """Enumerate the symbol spectrum over modes with |k + theta| <= R."""
    twist = TwistCharacter.trivial() if twist is None else twist
    g, inside, q = _lattice3(twist.components, R)
    zero = q == 0.0
    K, q = g[np.argwhere(inside)][~zero], q[~zero]
    # K comes in lexicographic order, so a stable sort on q orders by (q, k)
    order = np.argsort(q, kind="stable")
    return FormSpectrum(R=float(R), points=K[order], values=q[order],
                        kernel_dim=3 * int(zero.sum()), twist=twist)


@dataclass(frozen=True)
class GilkeyEta:
    """Integer eta of the twisted family with its numeric witness."""

    value: int
    numeric: object
    closed: object


def gilkey_eta(twist=None, R=10):
    """eta of the twisted signature family, computed two ways.

    The closed form comes from the lattice zeta value, and the result is
    that integer; the heat numeric rides along as its witness.  Callers
    judge the band: the numeric should land within max(1e-2, 3 * its own
    error bar) of the closed form.  A closed form that is not an integer
    raises ArithmeticError, so eta mod Z is 0 by construction.
    """
    twist = TwistCharacter.trivial() if twist is None else twist
    model = SpectrumModel.lattice3_quadratic(twist.components, cutoff=R)
    closed = eta_closed_form(model)
    numeric = eta_numeric(model)
    value = int(round(closed.value))
    if value != closed.value:
        raise ArithmeticError("closed-form eta is not an integer")
    return GilkeyEta(value=value, numeric=numeric, closed=closed)
