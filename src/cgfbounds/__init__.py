"""Generalization bounds from convex comparators under CGF constraints."""

from .bounds import (BOUND_KINDS, CorrectionDivergent, average_bound,
                     bound_values, comparison_surface, evaluate_kind,
                     optimistic_reference, pac_bound, samplewise_bound)
from .conjugate import (ConjugateDivergent, ConjugateResult, family_conjugate,
                        numeric_conjugate)
from .families import (FAMILY_KINDS, BoundingFamily, bernoulli, family_spec,
                       gamma, gaussian, invgauss, laplace, negbin,
                       parse_family, poisson)
from .inversion import (BoundQuery, BoundResult, Comparator, NoFiniteBound,
                        NonMonotoneComparator, binary_kl, catoni, cramer_of,
                        gaussian_diff, infimum_over_parameter, invert,
                        invert_at_budget, invert_closed_form_poisson,
                        invert_grid, laplace_diff, poisson_diff, scaled_diff)
from .upsilon import (UpsilonEstimate, compute_upsilon, correction_two_e_ceil,
                      correction_xi, upsilon_bernoulli_exact,
                      upsilon_monte_carlo, upsilon_poisson_series,
                      upsilon_quadrature)
from .verify import (SamplewiseComparison, SyntheticProblem, TrialRecord,
                     check_average_bound, default_suite,
                     run_samplewise_comparison, run_trials, suite_problems)

__version__ = "0.1.0"
