"""Generalization bounds from convex comparators under CGF constraints."""

from .bounds import (BOUND_KINDS, CorrectionDivergent, bound_values,
                     evaluate_kind)
from .conjugate import (ConjugateDivergent, ConjugateResult, family_conjugate,
                        numeric_conjugate)
from .families import (FAMILY_KINDS, BoundingFamily, bernoulli, family_spec,
                       gamma, gaussian, invgauss, laplace, negbin,
                       parse_family, poisson)
from .inversion import (BoundResult, Comparator, NoFiniteBound,
                        NonMonotoneComparator, binary_kl, budget, catoni,
                        cramer_of, gaussian_diff, infimum_over_parameter,
                        invert, laplace_diff, poisson_diff, scaled_diff)
from .upsilon import (UpsilonEstimate, compute_upsilon, correction_two_e_ceil,
                      correction_xi)
from .verify import (SamplewiseComparison, SyntheticProblem, TrialRecord,
                     check_average_bound, default_suite,
                     run_samplewise_comparison, run_trials, suite_problems)

__version__ = "0.1.0"
