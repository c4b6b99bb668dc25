"""Solvers for the partially unitary channel maximizing a coverage tensor.

The problem: maximize F(u) = u^T S u over real d x n matrices with
orthonormal rows (u u^T = I). It behaves like an eigenvalue problem whose
"eigenvalue" is a d x d symmetric matrix of Lagrange multipliers; the
extremal F equals that matrix's trace.

Every solve is one start and one loop. `solve` picks the start: the snapped
least-squares channel, the best snapped eigenstate of the relaxed
problem, or none. Single-shot paths return it; iterative paths hand it to
`_ascend`, which records every step and returns the best iterate seen. A
step is a closure over its own state. The default, polar ascent, is a
monotone ascent on the constraint set that needs no eigenproblem per step.
The paper's lagrange-iter and linear-constraints steps solve a relaxed
eigenproblem set up from the last iterate, snap its most promising
eigenstate onto the constraints, and are kept for reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import DimensionError, NumericalError
from .linalg import gen_sym_eig, spd_inverse_sqrt, spd_sqrt, sym_eig
from .tensors import CoverageTensor

MAXEV = "maxev"
MAXEV_SVD_ADJ = "maxev-svd-adj"
MAXEV_EVADJ = "maxev-evadj"
LAGRANGE_ITER = "lagrange-iter"
LINEAR_CONSTRAINTS = "linear-constraints"
LSQ_ADJ = "lsq-adj"
POLAR_ASCENT = "polar-ascent"

ALGORITHMS = (MAXEV, MAXEV_SVD_ADJ, MAXEV_EVADJ, LAGRANGE_ITER,
              LINEAR_CONSTRAINTS, LSQ_ADJ, POLAR_ASCENT)

# Why a solve stopped: the rel_tol test fired, max_iterations ran out, or no
# step could be taken (every polar-ascent step was rank deficient).
CONVERGED = "converged"
BUDGET = "budget"
STALLED = "stalled"

_RANK_REL = 1e-12
_RESIDUAL_TOL = 1e-8
# Momentum of polar ascent's extrapolated step. A step that would lower F is
# replaced by the plain step, so this value trades speed only.
_EXTRAPOLATION = 0.9


def normalize_algorithm(name: str) -> str:
    key = str(name).strip().lower().replace("_", "-")
    if key not in ALGORITHMS:
        raise DimensionError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    return key


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = POLAR_ASCENT
    max_iterations: int = 1000
    rel_tol: float = 1e-10
    candidate_pool: int = 16
    init_with_least_squares: bool = False

    def __post_init__(self):
        object.__setattr__(self, "algorithm", normalize_algorithm(self.algorithm))
        if self.max_iterations < 1:
            raise DimensionError("max_iterations must be positive")
        if not 0.0 < self.rel_tol < np.inf:  # also refuses NaN
            raise DimensionError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if self.candidate_pool < 1:
            raise DimensionError("candidate_pool must be positive")


@dataclass(frozen=True)
class PartiallyUnitaryOp:
    """A channel with orthonormal rows plus its provenance."""

    u: np.ndarray
    residual: float          # ||u u^T - I||_F
    algorithm: str
    iterations: int
    f_value: Optional[float] = None

    @property
    def d(self) -> int:
        return self.u.shape[0]

    @property
    def n(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    f_before: float       # objective of the selected unconstrained candidate
                          # (polar-ascent: of the iterate the step started from)
    f_after: float        # objective after snapping onto the constraints
    residual: float       # constraint residual of the snapped iterate
    lambda_asym: float    # anti-symmetric norm of the raw multipliers
    lambda_spur: float    # trace of the raw multipliers (should equal f_after)
    stationarity: float   # ||S u - sym(Lambda) u|| / ||S u|| of the snapped iterate


@dataclass
class IterationTrace:
    records: List[IterationRecord] = field(default_factory=list)
    stop_reason: str = CONVERGED

    def append(self, record: IterationRecord):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def constraint_residual(u) -> float:
    u = np.asarray(u, dtype=float)
    return float(np.linalg.norm(u @ u.T - np.eye(u.shape[0])))


def _shifted_matrix(tensor: CoverageTensor, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (tensor.d, tensor.d):
        raise DimensionError(f"multiplier shape {lam.shape} != ({tensor.d}, {tensor.d})")
    if np.abs(lam - lam.T).max(initial=0.0) > 1e-10 * max(1.0, np.abs(lam).max(initial=0.0)):
        raise NumericalError("multiplier matrix must be symmetric")
    return tensor.matrix - np.kron(0.5 * (lam + lam.T), np.eye(tensor.n))


def solve_partial_constraint(tensor: CoverageTensor, lam=None):
    """Spectrum of the multiplier-shifted problem under the norm constraint.

    Returns (eigenvalues, channels): the full descending spectrum of the
    (d*n)-dimensional matrix S - lam (x) I and each eigenvector reshaped
    row-major to d x n, scaled so its squared Frobenius norm equals d.
    """
    if lam is None:
        lam = np.zeros((tensor.d, tensor.d))
    eig = sym_eig(_shifted_matrix(tensor, lam))
    scale = np.sqrt(tensor.d)
    channels = [scale * eig.eigenvectors[:, i].reshape(tensor.d, tensor.n)
                for i in range(eig.eigenvalues.shape[0])]
    return eig.eigenvalues, channels


def _full_rank(s) -> bool:
    """Whether descending singular values s leave every row independent."""
    return s[0] > 0.0 and s[-1] > _RANK_REL * s[0]


def _full_row_rank(u) -> bool:
    return _full_rank(np.linalg.svd(u, compute_uv=False))


def enforce_partial_unitarity(u, method: str = "svd") -> np.ndarray:
    """Snap a full-row-rank matrix onto the constraint set u u^T = I.

    "svd" sets every singular value to +1 (the minimal change); "gram-eig"
    multiplies by the inverse square root of u u^T. The two coincide.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] > u.shape[1]:
        raise DimensionError(f"expected a wide matrix, got shape {u.shape}")
    if method == "svd":
        left, s, right = np.linalg.svd(u, full_matrices=False)
        if _full_rank(s):
            return left @ right
    elif method == "gram-eig":
        if _full_row_rank(u):
            # The row Gram's eigenvalue ratio is the squared singular-value
            # ratio, so the SPD floor must sit below the rank gate squared.
            return spd_inverse_sqrt(u @ u.T, rel_floor=0.5 * _RANK_REL ** 2) @ u
    else:
        raise DimensionError(f"unknown adjustment method {method!r}")
    raise NumericalError("matrix is rank deficient; cannot enforce constraints")


def make_operator(u, algorithm: str, iterations: int,
                  tensor: Optional[CoverageTensor] = None,
                  f_value: Optional[float] = None) -> PartiallyUnitaryOp:
    u = np.asarray(u, dtype=float)
    if f_value is None and tensor is not None:
        f_value = tensor.quadratic_form(u)
    return PartiallyUnitaryOp(u=u, residual=constraint_residual(u),
                              algorithm=algorithm, iterations=iterations,
                              f_value=f_value)


def _apply(tensor: CoverageTensor, u) -> np.ndarray:
    """S u, reshaped to d x n."""
    return (tensor.matrix @ u.reshape(-1)).reshape(tensor.d, tensor.n)


def raw_lagrange_multipliers(u, tensor: CoverageTensor) -> np.ndarray:
    """Unsymmetrized multipliers at a constrained point: u contracted with S u."""
    u = np.asarray(u, dtype=float)
    return u @ _apply(tensor, u).T


def lagrange_multipliers(u, tensor: CoverageTensor) -> np.ndarray:
    """Symmetric multiplier matrix at a partially unitary point.

    The trace of the unsymmetrized matrix equals F(u) identically; the
    extremal coverage is the multiplier trace.
    """
    u = np.asarray(u, dtype=float)
    if constraint_residual(u) > _RESIDUAL_TOL:
        raise NumericalError("operator does not satisfy the partial unitarity constraints")
    raw = raw_lagrange_multipliers(u, tensor)
    return 0.5 * (raw + raw.T)


def _stationarity(u, su, lam) -> float:
    norm = np.linalg.norm(su)
    return float(np.linalg.norm(su - lam @ u) / norm) if norm > 0.0 else 0.0


def stationarity_residual(u, tensor: CoverageTensor) -> float:
    """First-order residual ||S u - sym(Lambda) u|| / ||S u|| of a constrained channel.

    Zero exactly when u solves S u = Lambda u with a symmetric multiplier
    matrix Lambda, i.e. at a critical point of F on u u^T = I; this tells a
    stationary channel from the best iterate a solver happened to see.
    """
    u = np.asarray(u, dtype=float)
    su = _apply(tensor, u)
    raw = u @ su.T
    return _stationarity(u, su, 0.5 * (raw + raw.T))


def select_candidate(channels, tensor: CoverageTensor,
                     pool_size: int, method: str = "svd"):
    """Score the leading eigenstates and keep the most promising one.

    `channels` must come ordered by descending eigenvalue. Each candidate is
    snapped onto the constraints and scored by its adjusted objective; the
    returned triple is (unadjusted candidate, adjusted candidate, adjusted
    objective). Rank-deficient candidates are skipped; if the whole pool is
    deficient the search widens to the full spectrum. Ties keep the earlier
    (larger-eigenvalue) candidate.
    """
    if pool_size < 1:
        raise DimensionError("pool size must be positive")
    best = None
    scored = 0
    for cand in channels:
        if best is not None and scored >= pool_size:
            break
        try:
            adjusted = enforce_partial_unitarity(cand, method)
        except NumericalError:
            # Numerically rank deficient for the chosen snap (the gram-eig
            # route squares the conditioning); reject rather than pseudo-adjust.
            continue
        scored += 1
        f_adj = tensor.quadratic_form(adjusted)
        if best is None or f_adj > best[2]:
            best = (cand, adjusted, f_adj)
    if best is None:
        raise NumericalError("every candidate eigenstate is rank deficient")
    return best


def _record(trace: IterationTrace, iteration: int, f_before: float,
            u_adj, f_adj: float, tensor: CoverageTensor):
    """Append the trace row of a snapped iterate; returns (sym(Lambda), S u)."""
    su = _apply(tensor, u_adj)
    raw = u_adj @ su.T
    lam = 0.5 * (raw + raw.T)
    trace.append(IterationRecord(
        iteration=iteration,
        f_before=f_before,
        f_after=f_adj,
        residual=constraint_residual(u_adj),
        lambda_asym=float(np.linalg.norm(raw - raw.T)),
        lambda_spur=float(np.trace(raw)),
        stationarity=_stationarity(u_adj, su, lam),
    ))
    return lam, su


def _start(tensor: CoverageTensor, trace: IterationTrace, u_init, iteration: int):
    """Record the svd snap of u_init as `iteration`; returns (u, F, sym(Lambda), S u)."""
    u = enforce_partial_unitarity(u_init, "svd")
    f = tensor.quadratic_form(u)
    return (u, f) + _record(trace, iteration, f, u, f, tensor)


def _maxev(tensor: CoverageTensor, trace: IterationTrace, pool: int, method: str = "svd"):
    """Record the best snapped eigenstate of S as iteration 1, returned as `_start` does."""
    _, channels = solve_partial_constraint(tensor)
    cand, u, f = select_candidate(channels, tensor, pool, method)
    return (u, f) + _record(trace, 1, tensor.quadratic_form(cand), u, f, tensor)


def _flat(f_new: float, f_old: float, rel_tol: float) -> bool:
    """The stop test: F changed by at most rel_tol relative."""
    return abs(f_new - f_old) <= rel_tol * max(abs(f_new), 1e-300)


def _ascend(tensor: CoverageTensor, config: SolverConfig, trace: IterationTrace,
            start, step) -> PartiallyUnitaryOp:
    """The iteration loop of every iterative path.

    `start` is (u, F, sym(Lambda), S u) of the recorded start; without one
    it is all None but F = -inf. `step(u, f, lam, su)` returns a stop reason,
    or (f_before, next iterate, its F, whether a flat F may stop the loop);
    each step is recorded as the next iteration. The trace holds at most
    max_iterations rows, the start included. Returns the best iterate seen,
    the earliest one on a tie.
    """
    u, f, lam, su = start
    best_u, best_f = u, f
    iteration = trace.records[-1].iteration if trace.records else 0
    while len(trace) < config.max_iterations:
        taken = step(u, f, lam, su)
        if isinstance(taken, str):
            trace.stop_reason = taken
            break
        f_before, u_next, f_next, may_stop = taken
        iteration += 1
        lam, su = _record(trace, iteration, f_before, u_next, f_next, tensor)
        if f_next > best_f:
            best_u, best_f = u_next, f_next
        if may_stop and _flat(f_next, f, config.rel_tol):
            break
        u, f = u_next, f_next
    else:
        trace.stop_reason = BUDGET
    return make_operator(best_u, config.algorithm, iteration, f_value=best_f)


def _shifted_candidates(tensor: CoverageTensor, u, lam, su):
    """lagrange-iter's relaxed problem: S - sym(Lambda) (x) I, zero multipliers cold."""
    return solve_partial_constraint(tensor, lam)[1]


def _bordered_candidates(tensor: CoverageTensor, u, lam, su):
    """linear-constraints' relaxed problem: closeness to the iterate u.

    One extra coordinate keeps the bordered problem a Rayleigh quotient; its
    border -S u and corner F(u) act as multipliers. Without an iterate the
    border is zero: the plain relaxed eigenproblem, one coordinate inert.
    """
    dn = tensor.d * tensor.n
    bordered = np.zeros((dn + 1, dn + 1))
    bordered[:dn, :dn] = tensor.matrix
    if su is not None:
        y = su.reshape(-1)
        bordered[:dn, dn] = bordered[dn, :dn] = -y
        bordered[dn, dn] = u.reshape(-1) @ y
    for w in sym_eig(bordered).eigenvectors[:dn].T:
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            yield (np.sqrt(tensor.d) / norm) * w.reshape(tensor.d, tensor.n)


def _relaxed_step(tensor: CoverageTensor, config: SolverConfig, candidates):
    """The paper's step: the best snapped channel of `candidates(tensor, u, lam, su)`,
    a relaxed eigenproblem's in descending eigenvalue order. The first step
    after a start never stops the loop."""
    stepped = False

    def step(u, f, lam, su):
        nonlocal stepped
        cand, u_next, f_next = select_candidate(candidates(tensor, u, lam, su), tensor,
                                                config.candidate_pool)
        may_stop, stepped = stepped, True
        return tensor.quadratic_form(cand), u_next, f_next, may_stop

    return step


def _polar_step(tensor: CoverageTensor, config: SolverConfig):
    """Generalized power method on the constraint set: u <- polar(S u).

    For PSD S (every tensor kind) the step never lowers F, and its fixed
    points are exactly the solutions of S u = Lambda u (Journee, Nesterov,
    Richtarik & Sepulchre, JMLR 11, 2010). Each step costs a few
    matrix-vector products and d x n SVDs, never an eigenproblem. It first
    tries the extrapolated point y = u + beta (u - u_prev) and keeps
    polar(S y) only if F does not fall; otherwise polar(S u), or
    polar(u + S u / ||S||_F), which ascends for any symmetric S. A plain step
    that changes F by at most rel_tol relative, or cannot raise it, stops the
    solve "converged"; when every step is rank deficient it stops "stalled".
    """
    s_norm = float(np.linalg.norm(tensor.matrix))
    u_prev = None

    def candidates(u, su):
        """(point to snap, whether the step is monotone), lazily."""
        if u_prev is not None:
            yield _apply(tensor, u + _EXTRAPOLATION * (u - u_prev)), False
        yield su, True
        if s_norm > 0.0:
            yield u + su / s_norm, True

    def step(u, f, lam, su):
        nonlocal u_prev
        reason = STALLED
        for point, monotone in candidates(u, su):
            try:
                cand = enforce_partial_unitarity(point, "svd")
            except NumericalError:   # numerically rank deficient: try the next step
                continue
            f_cand = tensor.quadratic_form(cand)
            if f_cand >= f:
                # An extrapolated step can jump across the maximum with F
                # unchanged; only a plain step that no longer raises F shows
                # convergence, so a flat step restarts the momentum.
                u_prev = None if _flat(f_cand, f, config.rel_tol) else u
                return f, cand, f_cand, monotone
            if monotone:
                reason = CONVERGED   # an ascent step that cannot ascend: F is at rounding level
        return reason

    return step


def operator_adjust(u, j_matrix, tensor: CoverageTensor):
    """Operator-dependent constraint snap, with the snap moved into the tensor.

    Diagonalizing a symmetric operator J against the row Gram matrix u u^T
    gives a non-unitary row transform whose output coordinates satisfy the
    constraints exactly; the matching conjugation of the tensor carries the
    adjustment, so the new quadratic form evaluates the adjusted objective.
    With J = I this reproduces the gram-eig snap up to a row rotation.
    """
    u = np.asarray(u, dtype=float)
    j_matrix = np.asarray(j_matrix, dtype=float)
    if j_matrix.shape != (u.shape[0], u.shape[0]):
        raise DimensionError("operator dimensions do not match the channel")
    if not _full_row_rank(u):
        raise NumericalError("matrix is rank deficient")
    gram = u @ u.T
    pencil = gen_sym_eig(j_matrix, gram)
    basis = pencil.eigenvectors                      # columns, gram-orthonormal
    coords = basis.T @ u                             # rows satisfy the constraints
    half = spd_sqrt(gram) @ basis                    # (d, d)
    four = tensor.as_four_index()
    adjusted = np.einsum("is,ikjl,jt->sktl", half, four, half)
    matrix = adjusted.reshape(tensor.d * tensor.n, tensor.d * tensor.n)
    matrix = 0.5 * (matrix + matrix.T)
    transferred = CoverageTensor(tensor.kind, tensor.d, tensor.n, matrix)
    op = make_operator(coords, "operator-adjust", 0, transferred)
    return op, transferred


def sigma_basis_multipliers(u, tensor: CoverageTensor) -> np.ndarray:
    """One multiplier per singular value, from the tensor in the SVD basis.

    Row sums of the tensor conjugated onto the singular-vector dyads, taken
    at unit singular values.
    """
    u = np.asarray(u, dtype=float)
    if not _full_row_rank(u):
        raise NumericalError("matrix is rank deficient")
    left, _, right_t = np.linalg.svd(u, full_matrices=False)
    dyads = np.einsum("js,ks->sjk", left, right_t.T).reshape(u.shape[0], -1)
    sigma_tensor = dyads @ tensor.matrix @ dyads.T
    return sigma_tensor.sum(axis=1)


def convert_sigma_multipliers(u, multipliers) -> np.ndarray:
    """Map per-singular-value multipliers back to a symmetric d x d matrix."""
    u = np.asarray(u, dtype=float)
    left, _, _ = np.linalg.svd(u, full_matrices=False)
    return (left * np.asarray(multipliers, dtype=float)) @ left.T


def solve(tensor: CoverageTensor, config: SolverConfig,
          u_init=None) -> Tuple[PartiallyUnitaryOp, IterationTrace]:
    """One start, then the configured step in one loop.

    The start is the svd snap of u_init (the least-squares channel): as
    iteration 1 for lsq-adj, as 0 for an iterative path with
    init_with_least_squares. Otherwise the maxev family and polar ascent
    start from the best snapped eigenstate, and polar ascent falls back to
    u_init when none snaps; a paper iteration starts cold. Single-shot paths
    return their start and stop "converged".
    """
    algorithm = config.algorithm
    iterative = algorithm in (LAGRANGE_ITER, LINEAR_CONSTRAINTS, POLAR_ASCENT)
    trace = IterationTrace()
    start = (None, -np.inf, None, None)
    if algorithm == LSQ_ADJ:
        if u_init is None:
            raise DimensionError("lsq-adj requires the least-squares channel as u_init")
        start = _start(tensor, trace, u_init, 1)
    elif iterative and config.init_with_least_squares and u_init is not None:
        start = _start(tensor, trace, u_init, 0)
    elif algorithm not in (LAGRANGE_ITER, LINEAR_CONSTRAINTS):
        try:
            start = _maxev(tensor, trace, 1 if algorithm == MAXEV else config.candidate_pool,
                           "gram-eig" if algorithm == MAXEV_EVADJ else "svd")
        except NumericalError:
            if algorithm != POLAR_ASCENT or u_init is None:
                raise
            start = _start(tensor, trace, u_init, 0)
    if not iterative:
        return make_operator(start[0], algorithm, 1, f_value=start[1]), trace
    if algorithm == POLAR_ASCENT:
        step = _polar_step(tensor, config)
    else:
        step = _relaxed_step(tensor, config, _shifted_candidates
                             if algorithm == LAGRANGE_ITER else _bordered_candidates)
    return _ascend(tensor, config, trace, start, step), trace
