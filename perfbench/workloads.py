"""The three seeded workloads, as rounds of oracle-checked invariants.

A *check* computes one invariant with etaforge and compares it with an
independent oracle.  A workload is an endless sequence of rounds; round r
draws its inputs from (seed, r) only, so a seed fixes every input however
many rounds a run completes.  Each round builds fresh suites, so the
per-subspace caches start empty in every round, while process-wide
caches (the mod-n sign calibration) warm once per run, as in one CLI run.

Oracles computed by the benchmark itself (closed forms, lattice counts)
are evaluated while the round is built, outside the timed checks.
Calls into etaforge go through module attributes so that a traced run
sees them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from etaforge import eta, indexing, kzn, subspaces, suites, torus
from etaforge.dyadic import DyadicRational

WORKLOADS = ("modn-sweep", "subspace-invariants", "eta-spectra")

# modn-sweep sizes (criterion 6 and the modn report family)
MODULI = (2, 3, 4, 8)
THEOREM_N = 12
LADDER = (24, 36, 48)
LADDER_SCALES = (1, 2)
# One n=8 ladder retry costs ~5 s, one n=8 normal form ~11 s and one n=8
# theorem check over a fiber-2 or fiber-3 base 1-6 s: any of them would make
# a 30 s run hinge on a single check.  So n=8 gets theorem checks over
# fiber-1 bases and one unperturbed ladder per round.
PERTURBED_MODULI = (2, 3, 4)
NORMAL_FORM_MODULI = (2, 3, 4)   # once per run each
FRAMED_FIBER = {2: 2, 3: 2, 4: 2, 8: 1}   # base fiber of the framed element
ELEMENTS_PER_MODULUS = 3
PERTURBATIONS_PER_ELEMENT = 2

# subspace-invariants sizes
D_N = 16
CONJUGATIONS = 2
CONJUGATED_FIBERS = (2, 3)   # of the suite's two conjugated subspaces
FIBER3_DEGREE = 3            # symbol degree of the fiber-3 one

# eta-spectra sizes
AP_THETAS = 16
GILKEY_R = 40
# Each gilkey_eta call takes ~2 s, so they run once per run and their count
# cannot depend on where the time runs out.  The twists are fixed because
# the heat-trace ladder grows as a twist nears a lattice point, which would
# move a run's cost by a second or more from seed to seed.
GILKEY_TWISTS = ((0.0, 0.0, 0.0), (1.0 / 3.0, 0.0, 0.0), (0.5, 0.25, 0.0),
                 (0.3, 0.6, 0.9))
T3_RADII = (6.0, 9.0, 12.0, 15.0)
ETA_TOL = 1e-3


@dataclass
class Check:
    """kind labels the check family; run() returns (ok, detail).  note
    records a known program defect met while the check was built."""

    kind: str
    run: Callable[[], tuple]
    note: str = ""


def round_seed(seed, r):
    """Integer seed of round r, derived from the run seed only."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def build_round(workload, seed, r):
    """The checks of round r, interleaved across kinds so that a run cut
    mid-round keeps the workload's mix.  The order depends on the kinds
    only, never on the seed, so every seed allocates in the same order."""
    make_checks = {"modn-sweep": _modn_round,
                   "subspace-invariants": _subspace_round,
                   "eta-spectra": _eta_round}[workload]
    groups = {}
    for check in make_checks(round_seed(seed, r), r):
        groups.setdefault(check.kind, []).append(check)
    # spread each kind evenly over the round: its i-th of m checks sits at
    # fraction (i + 1/2) / m
    slots = [((i + 0.5) / len(group), k, check)
             for k, group in enumerate(groups.values())
             for i, check in enumerate(group)]
    return [check for _, _, check in sorted(slots, key=lambda t: t[:2])]


def _first_derived(s, make_suite, has_template):
    """make_suite at the first seed derived from s whose suite has the
    template shape."""
    for k in range(1000):
        suite = make_suite(round_seed(s, k))
        if has_template(suite):
            return suite
    raise RuntimeError(f"no suite with the template shape for seed {s}")


def _verdict(got, want):
    return got == want, f"got {got}, oracle {want}"


# ---------------------------------------------------------------------------
# modn-sweep
# ---------------------------------------------------------------------------

def _topological(el):
    return kzn.direct_image_s1(kzn.difference_construction_zn(el))


def _ladder_residue(op, n):
    # criterion 6: widen the window until two scales agree
    last = None
    for N in LADDER:
        try:
            return indexing.analytic_index(op, N=N, scales=LADDER_SCALES) % n
        except subspaces.UnstableIndexError as exc:
            last = exc
    raise last


def _theorem_check(el):
    def run():
        return _verdict(kzn.mod_n_analytic_index(el, N=THEOREM_N),
                        _topological(el))
    return Check(f"theorem_n{el.n}", run)


def _ladder_check(el, term):
    # oracle: the topological side, which the unperturbed theorem check
    # ties to the unperturbed residue; a lower-order term changes neither
    def run():
        op = el.operator if term is None else \
            el.operator.with_lower_order(term)
        return _verdict(_ladder_residue(op, el.n), _topological(el))
    return Check(f"ladder_n{el.n}", run)


def _normal_form_check(el):
    def run():
        nf = kzn.normal_form(el, N=THEOREM_N)
        return _verdict(kzn.mod_n_analytic_index(nf, N=THEOREM_N),
                        _topological(el))
    return Check(f"normal_form_n{el.n}", run)


def _modn_suite(s, n):
    """modn_element_suite (two full-space elements, one framed) at the
    first derived seed whose framed element has the template fiber.

    The suite draws the framed element's base at random, and the base's
    fiber sets the cost of every check on it several-fold; fixing the
    fiber keeps each round's cost the same while the symbols stay random.
    """
    want = FRAMED_FIBER[n] * n
    return _first_derived(
        s, lambda k: suites.modn_element_suite(k, n,
                                               count=ELEMENTS_PER_MODULUS),
        lambda suite: suite[-1][1].operator.source.fiber == want)


def _modn_round(s, r):
    checks = []
    for n in MODULI:
        suite = _modn_suite(s, n)
        checks += [_theorem_check(el) for _, el in suite]
        if n in PERTURBED_MODULI:
            for name, el in suite:
                rng = suites.rng_for(s, f"pert_{name}")
                terms = suites.perturbation_terms(
                    rng, el.operator, PERTURBATIONS_PER_ELEMENT)
                checks += [_ladder_check(el, t) for t in [None] + terms]
        else:
            checks.append(_ladder_check(suite[0][1], None))
        if r == 0 and n in NORMAL_FORM_MODULI:
            checks.append(_normal_form_check(suite[0][1]))
    return checks


# ---------------------------------------------------------------------------
# subspace-invariants
# ---------------------------------------------------------------------------

ZERO = DyadicRational.from_integer(0)


def _d(L):
    # dimension_functional verifies a twisted second lift internally
    return eta.dimension_functional(L, N=D_N)


def _usable_puncture(L):
    # the puncture direction must overlap the realized subspace
    for mode in (0, 1, -1, 2):
        for coord in range(L.fiber):
            try:
                P = subspaces.puncture(L, mode=mode, coord=coord)
                for N in (8, 16, 24):
                    P.realize(N)
                return P
            except ValueError:
                continue
    raise RuntimeError(f"no usable puncture direction on {L.name}")


def _complement_check(L):
    def run():
        return _verdict(_d(L) + _d(subspaces.orthocomplement(L)), ZERO)
    return Check("complement", run)


def _fractional_check(L):
    def run():
        return _verdict(kzn.fractional_eta_topological(L),
                        _d(L).fractional_part())
    return Check("fractional", run)


def _puncture_check(L):
    def run():
        P = _usable_puncture(L)
        return _verdict(_d(P) - _d(L), DyadicRational.from_integer(
            subspaces.relative_index(P, L, N=D_N)))
    return Check("puncture", run)


def _conjugation_check(L, W):
    def run():
        return _verdict(_d(subspaces.conjugate_subspace(L, W.plus)), _d(L))
    return Check("conjugation", run)


def _defect_check(name, op):
    """The defect-formula residual, at the CLI's N where the operator fits.

    index_formula_report does not raise N to fit the operator as
    dimension_functional does, so at N=16 it raises ValueError on the
    degree >= 8 operators that index_formula_suite draws for some rounds.
    That program defect is reproduced here, outside the timed check, and
    reported beside the result in the check's note; the timed check then
    runs at the smallest N that fits, with one degree of margin for the
    parity double.
    """
    N, note = D_N, ""
    degree = max(t.degree for t in op.symbol.terms)
    if D_N <= 2 * degree:
        try:
            indexing.index_formula_report(op, name, N=D_N)
        except ValueError as exc:
            N = 2 * (degree + 1) + 1
            note = (f"index_formula_report at N={D_N} on {name} "
                    f"(degree {degree}) raised ValueError: {exc}; "
                    f"checked at N={N}")

    def run():
        return _verdict(
            indexing.index_formula_report(op, name, N=N)["residual"], "0")
    return Check("defect", run, note)


def _hardy_check(k):
    def run():
        return _verdict(subspaces.relative_index(
            subspaces.hardy_subspace(), subspaces.hardy_subspace(k),
            N=D_N), k)
    return Check("hardy_shift", run)


def _toeplitz_check(k):
    def run():
        return _verdict(indexing.analytic_index(suites.toeplitz_operator(k),
                                                N=32), -k)
    return Check("toeplitz", run)


def _even_suite(s):
    """even_subspace_suite at the first derived seed whose two conjugated
    subspaces have fibers 2 and 3, the fiber-3 one of symbol degree 3.

    Their fibers and degrees set the size of the largest realizations:
    left random, they moved the run's peak memory by about 15% and its
    check times by up to 10% from seed to seed.  Fixing them keeps both
    steady while the symbols stay random.
    """
    def has_template(suite):
        texture = sorted((L.fiber, L.symbol.degree) for name, L in suite
                         if name.startswith("conjugated"))
        return (tuple(f for f, _ in texture) == CONJUGATED_FIBERS
                and texture[-1][1] == FIBER3_DEGREE)
    return _first_derived(s, suites.even_subspace_suite, has_template)


def _subspace_round(s, r):
    checks = []
    named = dict(_even_suite(s))
    for L in named.values():
        checks += [_complement_check(L), _fractional_check(L),
                   _puncture_check(L)]
    rng = suites.rng_for(s, "conj_inv")
    Lp = named["punctured_plane"]
    checks += [_conjugation_check(
        Lp, suites.even_invertible_symbol(rng, Lp.fiber))
        for _ in range(CONJUGATIONS)]
    checks += [_defect_check(name, op)
               for name, op in suites.index_formula_suite(s)]
    checks += [_hardy_check(k) for k in range(6)]
    checks += [_toeplitz_check(k) for k in range(-3, 4)]
    return checks


# ---------------------------------------------------------------------------
# eta-spectra
# ---------------------------------------------------------------------------

def _ap_check(theta):
    oracle = 1.0 - 2.0 * theta  # zeta(0, a) = 1/2 - a (Hurwitz)

    def run():
        got = eta.eta_numeric(
            eta.SpectrumModel.arithmetic_progression(theta)).value
        return abs(got - oracle) <= ETA_TOL, f"got {got}, oracle {oracle}"
    return Check("ap_eta", run)


def _crossing_check(cs):
    # one eigenvalue 1 - 2c crosses zero at c = 1/2; every other level
    # cancels in sign pairs, so eta is +1 below and -1 above
    want = [1.0 if c < 0.5 else -1.0 for c in cs]

    def run():
        got = [eta.eta_numeric(m).value
               for _, m in eta.mode_zero_crossing_family(cs)]
        ok = all(abs(g - w) <= ETA_TOL for g, w in zip(got, want))
        return ok, f"got {got}, oracle {want}"
    return Check("crossing", run)


def _lattice_points(theta, R):
    # vectorized count of k in Z^3 with |k + theta| <= R, and of zeros
    b = int(np.ceil(R + np.abs(theta).max() + 1))
    g = np.arange(-b, b + 1, dtype=float)
    q = ((g[:, None, None] + theta[0]) ** 2 + (g[None, :, None] + theta[1])
         ** 2 + (g[None, None, :] + theta[2]) ** 2)
    return int((q <= R * R).sum()), int((q == 0.0).sum())


def _t3_check(twist, R):
    inside, zeros = _lattice_points(np.asarray(twist), R)
    want = (inside - zeros, 3 * zeros)

    def run():
        spec = torus.t3_spectrum(torus.TwistCharacter(twist), R=R)
        return _verdict((len(spec.points), spec.kernel_dim), want)
    return Check("t3_spectrum", run)


def _gilkey_check(twist):
    # lattice zeta: eta = 1 + 3 (kernel) untwisted, 0 for a nontrivial twist
    want = 4 if all(t % 1.0 == 0.0 for t in twist) else 0

    def run():
        g = torus.gilkey_eta(torus.TwistCharacter(twist), R=GILKEY_R)
        band = max(1e-2, 3.0 * g.numeric.error_estimate)
        ok = g.value == want and abs(g.numeric.value - want) <= band
        return ok, f"got {g.value} (numeric {g.numeric.value}), oracle {want}"
    return Check("gilkey_eta", run)


def _eta_round(s, r):
    rng = np.random.default_rng(s)
    # an arithmetic progression of theta from just above 0 to just below 1
    edge = rng.uniform(1e-3, 1e-2)
    checks = [_ap_check(float(t))
              for t in np.linspace(edge, 1.0 - edge, AP_THETAS)]
    cs = np.concatenate([rng.uniform(0.02, 0.45, 5),
                         rng.uniform(0.55, 0.98, 5)])
    checks.append(_crossing_check(np.sort(cs)))
    checks += [_t3_check(tuple(rng.uniform(0.0, 1.0, 3)), R)
               for R in T3_RADII]
    if r == 0:
        checks += [_gilkey_check(tw) for tw in GILKEY_TWISTS]
    return checks
