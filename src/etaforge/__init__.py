"""Elliptic operators in subspaces of circle bundles: realizations,
stabilized indices, eta-type dimension functionals, and mod-n index
theory, with a small T^3 signature-family cross-check.
"""

__version__ = "0.1.0"

from .core import (DEFAULT_TOL, EllipticityViolation, ToleranceConfig,
                   TrigFitError, TrigPolyMatrix, constant_trig,
                   fit_trig_poly, polar_unitary, stable_rank, trig_block,
                   trig_blockdiag, winding_number)
from .dyadic import DyadicRational
from .symbols import (CircleSymbol, FullSymbol, TruncatedOperator,
                      antipodal_pullback, classify_parity, dump_symbol,
                      ellipticity_check, identity_symbol, load_symbol,
                      quantize)
from .subspaces import (ParityError, PdoSubspace, RealizationGapError,
                        SubspaceSymbol, UnstableIndexError, conjugate_subspace,
                        dump_subspace_csv, face_frames, full_subspace,
                        hardy_subspace, lift_symbol, mobius_subspace,
                        mobius_symbol, orthocomplement, puncture,
                        realize_projection, relative_index, rotation_homotopy,
                        rotation_unitary, spectral_subspace, trivial_subspace,
                        two_face_subspace, zero_subspace)
from .indexing import (SubspaceOperator, analytic_index, antipodal_subspace,
                       build_parity_double, index_formula_report)
from .eta import (EtaConvergenceError, EtaResult, SpectrumModel,
                  UnsupportedSpectrumError, dimension_functional,
                  dump_spectrum_csv, eta_closed_form, eta_numeric,
                  eta_result_json, fractional_part, mode_zero_crossing_family)
from .kzn import (EllZnElement, KClassZn, antipodal_element, beta_symbol,
                  bockstein, difference_construction_zn, direct_image_s1,
                  fractional_eta_topological, gamma_trivialization,
                  inverse_row_decomposition, mod_n_analytic_index, n_fold,
                  normal_form, reduction_mod_n, shift_element,
                  subspace_class, winding_datum)
from .torus import (FormSpectrum, GilkeyEta, TwistCharacter, gilkey_eta,
                    gilkey_symbol, orientability_halfinteger_check,
                    symbol_projection, t3_spectrum)
