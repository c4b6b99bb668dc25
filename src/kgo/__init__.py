"""Partially unitary operator learning over sampled attribute/label data.

The package turns weighted observations into localized Hilbert-space states,
assembles the coverage tensors that make transferred probability a quadratic
form in the channel, solves the constrained maximization, and evaluates the
fitted channel against least-squares, Radon-Nikodym, and joint-distribution
baselines.
"""

from .errors import DataError, DimensionError, KgoError, NumericalError
from .sample import (BasisSpec, Sample, design_matrix, evaluate_basis,
                     load_sample, multi_indices, parse_column_spec,
                     producted_dimension, with_scale)
from .linalg import (GenEigResult, SymEigResult, gen_sym_eig, spd_inverse_sqrt,
                     spd_sqrt, sym_eig)
from .hilbert import (LocalizedState, PreparedData, SpaceBasis, christoffel,
                      label_matched_projection, localized_state, prepare,
                      prepare_points, regularize, space_from_sample,
                      state_values)
from .baselines import (RadonNikodymModel, eval_least_squares,
                        eval_radon_nikodym, fit_least_squares,
                        fit_radon_nikodym, joint_distribution_coverage,
                        lsq_channel, partial_unitarity_residual)
from .tensors import (CoverageTensor, TensorKind, build_coverage_tensor,
                      contributing_subspace, coverage_spectrum,
                      ftot_upper_bound, label_to_attribute_coverage)
from .solver import (ALGORITHMS, IterationRecord, IterationTrace,
                     PartiallyUnitaryOp, SolverConfig, constraint_residual,
                     enforce_partial_unitarity, lagrange_multipliers,
                     operator_adjust, raw_lagrange_multipliers,
                     select_candidate, solve, solve_partial_constraint,
                     stationarity_residual)
from .model import (KgoModel, Prediction, deserialize_model, fit,
                    fit_prepared, most_probable, predict, probability,
                    scalar_value_roots, serialize_model, value)

__version__ = "0.1.0"
