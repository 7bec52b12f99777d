"""Exact dimensions of spaces of generalized theta functions on moduli of
parabolic bundles, with executable cross-checks of the recurrences the
closed formula satisfies."""

__version__ = "0.1.0"

from .cyclotomic import (CycNum, IntPoly, NotRationalError, Rational,
                         cyclotomic_polynomial, root_power)
from .weights import (MarkedPoint, ParabolicData, SplitContext, chi, ell,
                      build_omega_mu, build_split_omegas, congruence_offset,
                      enumerate_Pk, enumerate_Qk, enumerate_Wk,
                      enumerate_Wk_prime, h_closed, h_iter, h_step,
                      hecke_basic, hecke_m, hecke_shift, jump_sum, jumps,
                      lambda_of_point, mu_star, n_split, normalize_point,
                      omega_total, phi, phi_inverse, split_context,
                      split_degrees)
from .schur import (identity_52_check, identity_53_check, identity_54_check,
                    j_alternant, rho, s_omega, schur_at, schur_brute, sin_sq,
                    vandermonde, weyl_denominator)
from .verlinde import (EvaluationError, VerifyReport, VerlindeQuery,
                       VerlindeResult, clear_memo, closed_formula_cyclotomic,
                       closed_formula_exact, closed_formula_float,
                       closed_term, dimension, genus_recurrence_rhs,
                       hecke_image, query, split_recurrence_rhs, v_vectors,
                       verify, wprime_recurrence_rhs)
