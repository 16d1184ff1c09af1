"""
Spectral asymmetry from heat traces
===================================

eta measures how lopsided a spectrum is around zero.  For the model
spectrum {n + theta} the answer is known in closed form (1 - 2 theta for
0 < theta < 1), which makes it the perfect calibration target for the
numeric route: evaluate h(t) = sum sign(lambda) exp(-t lambda^2) on a
dyadic t-ladder and extrapolate t -> 0.
"""

from etaforge import (SpectrumModel, eta_closed_form, eta_numeric,
                      mode_zero_crossing_family)
from etaforge.eta import dump_spectrum_csv, eta_result_json

print("theta    closed      numeric         |difference|")
for theta in (0.1, 0.25, 0.5, 0.75, 0.9):
    m = SpectrumModel.arithmetic_progression(theta)
    exact = eta_closed_form(m)
    num = eta_numeric(m)
    print(f"{theta:4.2f}   {exact.value:+.4f}   {num.value:+.10f}   "
          f"{abs(num.value - exact.value):.2e}")

# integer theta: the progression is symmetric and a kernel appears; the
# convention counts it with weight +1 per dimension
m0 = SpectrumModel.arithmetic_progression(0.0, mult=2)
print("\ninteger theta:", eta_result_json(eta_closed_form(m0)))

# the three-dimensional quadratic lattice carries the signature-type
# multiplicities (+1, -2); its eta snaps to an integer
for twist in [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)]:
    m = SpectrumModel.lattice3_quadratic(twist)
    print(f"lattice twist {twist}: closed {eta_closed_form(m).value}, "
          f"numeric {eta_numeric(m).value:+.6f}")

# sweep a single eigenvalue through zero: eta jumps by exactly 2 and is
# otherwise locked to +-1
print("\n  c      eta")
for c, model in mode_zero_crossing_family():
    print(f"{c:5.2f}   {eta_numeric(model).value:+.12f}")

path = dump_spectrum_csv(SpectrumModel.arithmetic_progression(0.25, cutoff=3),
                         "ap_spectrum.csv")
print("\nwrote", path)
