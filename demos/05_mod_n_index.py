"""
Index theory with mod-n coefficients
====================================

An operator between n-fold copies of a subspace has an index that is
only well defined as a residue mod n.  The symbol side computes the same
residue from determinant windings in transport frames, pushed forward
with the sign of ind T_a = -wind a, a closed form that reads nothing off
the analytic side.  The two routes must agree operator by operator.
"""

from etaforge.core import winding_number
from etaforge.kzn import (beta_symbol, difference_construction_zn,
                          direct_image_s1, gamma_trivialization,
                          mod_n_analytic_index, normal_form, shift_element,
                          winding_datum)
from etaforge.suites import modn_element_suite

# the gamma path deforms z * I_n into diag(z^n, 1, ..., 1) through
# invertible loops; the determinant winding n never wavers
for n in (2, 3, 4):
    winds = sorted({winding_number(g) for g in gamma_trivialization(n)})
    print(f"gamma path windings, n={n}:", winds)

# the shift generator: datum 1, analytic residue -1 mod 3 ...
el = shift_element(3)
print("\nshift generator datum:", winding_datum(el),
      " analytic residue:", mod_n_analytic_index(el))

# ... after which n full twists are invisible, as they must be
print("beta (n Bott twists) datum:", winding_datum(beta_symbol(3)))

# randomized elements: analytic index mod n vs the symbol class
print("\nexample        lhs  rhs")
for name, el in modn_element_suite(2024, 3, count=6):
    lhs = mod_n_analytic_index(el)
    rhs = direct_image_s1(difference_construction_zn(el))
    print(f"{name:12s}   {lhs}    {rhs}")

# the normal form rebuilds the target from standard constant pieces
# without touching the residue
el = modn_element_suite(2024, 2, count=1)[0][1]
nf = normal_form(el)
print("\nnormal form: residue", mod_n_analytic_index(nf),
      "== original", mod_n_analytic_index(el))
