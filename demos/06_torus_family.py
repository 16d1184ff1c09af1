"""
The twisted signature family on the 3-torus
===========================================

The operator d*delta - delta*d on 1-forms, twisted by a character theta
of the lattice, has symbol spectrum +|k+theta|^2 (once) and -|k+theta|^2
(twice) per Fourier mode.  Its eta is 4 at the trivial twist (a 1 from
the lattice zeta plus a 3-dimensional kernel) and 0 otherwise -- always
an integer (gilkey_eta refuses a closed form that is not one), so the
fractional part vanishes identically.
"""

import numpy as np

from etaforge.torus import (TwistCharacter, gilkey_eta, gilkey_symbol,
                            symbol_projection, t3_spectrum)

# the symbol at a single covector: eigenvalues (+q, -q, -q)
xi = np.array([1.0, 2.0, 2.0])
print("symbol eigenvalues at |xi|^2 = 9:",
      np.round(np.linalg.eigvalsh(gilkey_symbol(xi)), 6))
print("projection onto the +q line:\n", np.round(symbol_projection(xi), 4))

# enumerate the low modes of the twisted spectrum
sp = t3_spectrum(TwistCharacter((0.5, 0.0, 0.0)), R=1.5)
print("\nmodes inside R=1.5 at twist (1/2,0,0):", len(sp.points),
      " kernel:", sp.kernel_dim)
print("first modes k:", sp.points[:4].tolist(),
      " q:", sp.values[:4].tolist())

# eta across twists: numeric heat route vs the lattice closed form
print("\ntwist                   eta   numeric")
for tw in [(0.0, 0.0, 0.0), (1.0 / 3.0, 0.0, 0.0), (0.5, 0.5, 0.5)]:
    g = gilkey_eta(TwistCharacter(tw), R=20)
    print(f"{str(tw):22s}  {g.value:+d}   {g.numeric.value:+.8f}")
