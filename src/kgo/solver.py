"""Solvers for the partially unitary channel maximizing a coverage tensor.

The problem: maximize F(u) = u^T S u over real d x n matrices with
orthonormal rows (u u^T = I). It behaves like an eigenvalue problem whose
"eigenvalue" is a d x d symmetric matrix of Lagrange multipliers; the
extremal F equals that matrix's trace.

Every solve is one start and one loop. `solve` picks the start: the snapped
least-squares channel, the best snapped eigenstate of the relaxed
problem, or none. Single-shot paths return it; iterative paths hand it to
`_ascend`, which records every step and returns the best iterate seen. A
step is a closure over its own state. It forms one product S u per snapped
candidate, which gives the candidate's F, its trace row and the next step's
multipliers; the loop forms none of its own. The default, polar ascent, is
a monotone ascent on the constraint set that needs no eigenproblem per step:
a trust-region Newton step whose truncated conjugate gradients take one more
product per CG step, safeguarded by the polar step u <- polar(S u). It stops
at a stationarity residual ||S u - sym(Lambda) u|| / ||S u|| of at most
rel_tol. The paper's lagrange-iter and linear-constraints steps solve a
relaxed eigenproblem set up from the last iterate, snap its most promising
eigenstate onto the constraints, stop when F changes by at most rel_tol
relative, and are kept for reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from operator import index
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

# Why a solve stopped: the rel_tol test fired (or polar ascent's F is flat at
# rounding level), max_iterations ran out, or no step could be taken (every
# polar-ascent step was rank deficient).
CONVERGED = "converged"
BUDGET = "budget"
STALLED = "stalled"

_RANK_REL = 1e-12
_RESIDUAL_TOL = 1e-8


def normalize_algorithm(name: str) -> str:
    key = str(name).strip().lower().replace("_", "-")
    if key not in ALGORITHMS:
        raise DimensionError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    return key


@dataclass(frozen=True)
class SolverConfig:
    """How `solve` runs.

    rel_tol is the stop test of the iterative paths. Polar ascent stops
    "converged" at an iterate whose stationarity residual ||S u - sym(Lambda)
    u|| / ||S u|| is at most rel_tol, or earlier when F is flat at rounding
    level. lagrange-iter and linear-constraints stop when F changes by at
    most rel_tol relative from one step to the next, which leaves a
    stationarity residual of about sqrt(rel_tol). max_iterations caps the
    trace rows, the start included.
    """

    algorithm: str = POLAR_ASCENT
    max_iterations: int = 1000
    rel_tol: float = 1e-10
    candidate_pool: int = 16
    init_with_least_squares: bool = False

    def __post_init__(self):
        object.__setattr__(self, "algorithm", normalize_algorithm(self.algorithm))
        for name in ("max_iterations", "candidate_pool"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):  # NaN, fractions too
                raise DimensionError(f"{name} must be an integer, got {value!r}")
            count = index(value)
            if count < 1:
                raise DimensionError(f"{name} must be positive")
            object.__setattr__(self, name, count)
        if isinstance(self.rel_tol, bool) or not isinstance(self.rel_tol, Real):
            raise DimensionError(f"rel_tol must be a real number, got {self.rel_tol!r}")
        if not 0.0 < self.rel_tol < np.inf:  # also refuses NaN
            raise DimensionError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        if not isinstance(self.init_with_least_squares, (bool, np.bool_)):
            raise DimensionError("init_with_least_squares must be a bool, "
                                 f"got {self.init_with_least_squares!r}")
        object.__setattr__(self, "init_with_least_squares", bool(self.init_with_least_squares))


@dataclass(frozen=True)
class PartiallyUnitaryOp:
    """A channel with orthonormal rows plus its provenance."""

    u: np.ndarray
    residual: float          # ||u u^T - I||_F
    algorithm: str
    iterations: int
    f_value: Optional[float] = None


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
    records: List[IterationRecord] = field(default_factory=list, init=False)
    stop_reason: str = field(default=CONVERGED, init=False)
    best: int = field(default=0, init=False)   # index of the returned iterate's row

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm with the bits of np.linalg.norm(a), without its dispatch."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def constraint_residual(u) -> float:
    u = np.asarray(u, dtype=float)
    return _norm(u @ u.T - np.eye(u.shape[0]))


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


def make_operator(u: np.ndarray, algorithm: str, iterations: int,
                  f_value: float) -> PartiallyUnitaryOp:
    return PartiallyUnitaryOp(u=u, residual=constraint_residual(u), algorithm=algorithm,
                              iterations=iterations, f_value=f_value)


def _apply(tensor: CoverageTensor, u) -> np.ndarray:
    """S u, reshaped to d x n: the one product with S of every solve."""
    return (tensor.matrix @ u.reshape(-1)).reshape(tensor.d, tensor.n)


def _evaluated(tensor: CoverageTensor, u):
    """(F, S u) of a channel from one product; F has the bits of `quadratic_form`."""
    su = _apply(tensor, u)
    return float(u.reshape(-1) @ su.reshape(-1)), su


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
    norm = _norm(su)
    return _norm(su - lam @ u) / norm if norm > 0.0 else 0.0


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
    returned tuple is (unadjusted candidate, adjusted candidate u, adjusted
    objective, S u). Rank-deficient candidates are skipped; if the whole
    pool is deficient the search widens to the full spectrum. Ties keep the
    earlier (larger-eigenvalue) candidate.
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
        f_adj, su = _evaluated(tensor, adjusted)
        if best is None or f_adj > best[2]:
            best = (cand, adjusted, f_adj, su)
    if best is None:
        raise NumericalError("every candidate eigenstate is rank deficient")
    return best


def _record(trace: IterationTrace, iteration: int, f_before: float,
            u_adj, f_adj: float, su) -> np.ndarray:
    """Append the trace row of a snapped iterate u_adj with S u_adj = su; returns sym(Lambda)."""
    raw = u_adj @ su.T
    lam = 0.5 * (raw + raw.T)
    trace.records.append(IterationRecord(
        iteration=iteration,
        f_before=f_before,
        f_after=f_adj,
        residual=constraint_residual(u_adj),
        lambda_asym=_norm(raw - raw.T),
        lambda_spur=float(np.trace(raw)),
        stationarity=_stationarity(u_adj, su, lam),
    ))
    return lam


def _started(trace: IterationTrace, u, su, iteration: int):
    """Record the snapped channel u with S u = su as `iteration`; returns
    (u, F, sym(Lambda), S u), F = <u, S u> with the bits of `_evaluated`."""
    f = float(u.reshape(-1) @ su.reshape(-1))
    return u, f, _record(trace, iteration, f, u, f, su), su


def _start(tensor: CoverageTensor, trace: IterationTrace, u_init):
    """Record the svd snap of u_init as iteration 0; returns what `_started` does."""
    u = enforce_partial_unitarity(u_init, "svd")
    return _started(trace, u, _apply(tensor, u), 0)


def lsq_adjusted(u, su) -> Tuple[PartiallyUnitaryOp, IterationTrace]:
    """The lsq-adj solve from one product: u is the svd snap of the least-squares
    channel and su = S u, which a fit sums for u in its weighted pass without
    building S. Returns what `solve` returns for lsq-adj."""
    trace = IterationTrace()
    u, f = _started(trace, u, su, 1)[:2]
    return make_operator(u, LSQ_ADJ, 1, f_value=f), trace


def _maxev(tensor: CoverageTensor, trace: IterationTrace, pool: int, method: str = "svd"):
    """Record the best snapped eigenstate of S as iteration 1, returned as `_start` does."""
    _, channels = solve_partial_constraint(tensor)
    cand, u, f, su = select_candidate(channels, tensor, pool, method)
    return u, f, _record(trace, 1, tensor.quadratic_form(cand), u, f, su), su


def _flat(f_new: float, f_old: float, rel_tol: float) -> bool:
    """The paper iterations' stop test: F changed by at most rel_tol relative."""
    return abs(f_new - f_old) <= rel_tol * max(abs(f_new), 1e-300)


def _ascend(tensor: CoverageTensor, config: SolverConfig, trace: IterationTrace,
            start, step) -> PartiallyUnitaryOp:
    """The iteration loop of every iterative path.

    `start` is (u, F, sym(Lambda), S u) of the recorded start; without one
    it is all None but F = -inf. `step(u, f, lam, su)` returns a stop reason,
    or (f_before, next iterate, its F, its S u, whether the solve stops
    "converged" after it); each step is recorded as the next iteration, from
    the S u the step formed for its F. The trace holds at most
    max_iterations rows, the start included. Returns the best iterate seen
    and sets `trace.best` to its row: the earliest one on a tie, but polar
    ascent, which never lowers F, returns its latest.
    """
    latest = config.algorithm == POLAR_ASCENT
    u, f, lam, su = start
    best_u, best_f = u, f
    iteration = trace.records[-1].iteration if trace.records else 0
    while len(trace) < config.max_iterations:
        taken = step(u, f, lam, su)
        if isinstance(taken, str):
            trace.stop_reason = taken
            break
        f_before, u, f, su, last = taken
        iteration += 1
        lam = _record(trace, iteration, f_before, u, f, su)
        if f > best_f or latest and f == best_f:
            best_u, best_f, trace.best = u, f, len(trace) - 1
        if last:
            break
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
        cand, u_next, f_next, su_next = select_candidate(candidates(tensor, u, lam, su),
                                                         tensor, config.candidate_pool)
        last = stepped and _flat(f_next, f, config.rel_tol)
        stepped = True
        return tensor.quadratic_form(cand), u_next, f_next, su_next, last

    return step


def _hessian(s_single, s_norm: float, u, lam, p, out) -> np.ndarray:
    """Writes -Hess F[p] / 2 = P_u(sym(Lambda) p - S p) at u into out, for a
    tangent p (both d x n), from one product with s_single = S / s_norm in
    single precision. P_u(Z) = Z - sym(Z u^T) u projects onto the tangent
    space."""
    sp = s_single @ p.reshape(-1).astype(np.float32)
    np.subtract(lam @ p, s_norm * sp.reshape(p.shape), out=out)
    w = out @ u.T
    w += w.T
    out -= w @ (0.5 * u)
    return out


def _newton_step(s_single, s_norm: float, u, lam, g, rel_res: float, radius: float):
    """Truncated conjugate gradients for the Newton equation of F at u.

    Steihaug-Toint CG on the tangent space for A eta = g, where A = -Hess F / 2
    (`_hessian`) and g = S u - sym(Lambda) u = grad F / 2, so that F(polar(u
    + eta)) = F + 2 <g, eta> - <eta, A eta> to second order. It stops at a
    residual of rel_res relative to g; at the boundary ||eta|| = radius when
    a step would leave it or the first direction curves up; and at the
    iterate reached when a later direction curves up. Returns (eta, the
    model's increase of F, whether eta is on the boundary), from one product
    with S (`_hessian`'s single-precision copy) per CG step; the CG vectors
    live in four d x n buffers.
    """
    eta, ap = np.zeros_like(g), np.empty_like(g)
    r, p = g.copy(), g.copy()
    b, eta_f, ap_f, r_f, p_f = (a.reshape(-1) for a in (g, eta, ap, r, p))
    rr = pp = float(b.dot(b))   # ||r||^2 and ||p||^2
    ee = ep = 0.0               # ||eta||^2 and <eta, p>, by the CG recurrences
    stop = rel_res * rel_res * rr
    for j in range(b.size - lam.shape[0] * (lam.shape[0] + 1) // 2):  # tangent dimension
        _hessian(s_single, s_norm, u, lam, p, ap)
        curvature = float(p_f.dot(ap_f))
        if j and not curvature > 0.0:
            break
        alpha = rr / curvature if curvature > 0.0 else math.inf
        if alpha * (2.0 * ep + alpha * pp) >= radius * radius - ee:
            alpha = (math.sqrt(ep * ep + pp * (radius * radius - ee)) - ep) / pp
            # <eta, A eta> = <g, eta> at a CG iterate; the step to the boundary adds the rest.
            quad = float(b.dot(eta_f)) + alpha * (2.0 * float(ap_f.dot(eta_f)) + alpha * curvature)
            eta += alpha * p
            return eta, 2.0 * float(b.dot(eta_f)) - quad, True
        eta += alpha * p
        ee += alpha * (2.0 * ep + alpha * pp)
        r -= alpha * ap
        rr, beta = float(r_f.dot(r_f)), 1.0 / rr
        if rr <= stop:
            break
        beta *= rr
        p *= beta
        p += r
        ep, pp = beta * (ep + alpha * pp), rr + beta * beta * pp
    return eta, float(b.dot(eta_f)), False


def _polar_step(tensor: CoverageTensor, config: SolverConfig):
    """Polar ascent: a trust-region Newton step, safeguarded by u <- polar(S u).

    Each step first tries the Riemannian Newton step eta of `_newton_step`,
    whose CG stops at a residual of min(1/2, sqrt(stationarity)) relative to
    the gradient (or earlier, where rel_tol needs no more), retracted by the
    svd snap polar(u + eta). It is kept if F does not fall. Its trust radius
    shrinks fourfold after a step that achieves under a quarter of the
    model's increase and doubles after one on the boundary that achieves
    over three quarters (Absil, Baker & Gallivan, Found. Comput. Math. 7,
    2007). When it falls, the step takes the generalized power step
    polar(S u): for PSD S (every tensor kind) that never lowers F, and its
    fixed points are exactly the solutions of S u = Lambda u (Journee,
    Nesterov, Richtarik & Sepulchre, JMLR 11, 2010). Then comes
    polar(u + S u / ||S||_F), which ascends for any symmetric S. A step
    forms one product with S per CG step and per snapped candidate, S cand,
    which gives the candidate's F, its trace row and the next step's S u; it
    never solves an eigenproblem.

    A candidate's F is the iterate's plus <cand - u, (S - Lambda)(cand + u)>,
    which is F(cand) - F(u) on the constraint set; unlike a difference of
    two rounded F it does not feel the rounding-level constraint residual of
    a snap, so it orders channels whose F agree to rounding. The solve stops
    "converged" at an iterate whose stationarity residual is at most
    rel_tol, or when F is flat at rounding level: a step leaves F unchanged,
    or no polar step can raise it. When every step is rank deficient it
    stops "stalled".
    """
    s_norm = float(np.linalg.norm(tensor.matrix))
    # CG never asks for a residual below about 4e-4 relative at rel_tol 1e-10,
    # so its products take S in single precision, scaled into range: half the
    # memory traffic of the product in double. Every F and every stationarity
    # residual is formed with S itself.
    s_single = (tensor.matrix / s_norm if s_norm > 0.0 else tensor.matrix).astype(np.float32)
    radius_max = math.sqrt(tensor.d)   # ||u||_F
    radius = radius_max / 8

    def snapped(u, f, lam, su, point):
        """(cand, F, S cand) of the svd snap of point, or None when it is rank deficient."""
        try:
            cand = enforce_partial_unitarity(point, "svd")
        except NumericalError:
            return None
        s_cand = _apply(tensor, cand)
        return cand, f + float(np.vdot(cand - u, s_cand + su - lam @ (cand + u))), s_cand

    def step(u, f, lam, su):
        nonlocal radius
        su_norm = _norm(su)
        if su_norm > 0.0:
            g = su - lam @ u
            stationarity = _norm(g) / su_norm
            if stationarity <= config.rel_tol:
                return CONVERGED
            # A residual of rel_tol / 2 relative to S u leaves the next
            # iterate's stationarity about there: CG need not go further.
            rel_res = min(0.5, max(math.sqrt(stationarity), 0.5 * config.rel_tol / stationarity))
            eta, model, edge = _newton_step(s_single, s_norm, u, lam, g, rel_res, radius)
            taken = snapped(u, f, lam, su, u + eta)
            gain = -math.inf if taken is None else taken[1] - f
            if gain < 0.25 * model:
                radius *= 0.25
            elif gain > 0.75 * model and edge:
                radius = min(2.0 * radius, radius_max)
            if gain >= 0.0:
                return (f, *taken, gain == 0.0)
        reason = STALLED
        for point in (su, u + su / s_norm) if s_norm > 0.0 else (su,):
            taken = snapped(u, f, lam, su, point)
            if taken is None:   # numerically rank deficient: try the next step
                continue
            if taken[1] >= f:
                return (f, *taken, taken[1] == f)
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
    transferred = tensor.label_congruence(spd_sqrt(gram) @ basis)
    op = make_operator(coords, "operator-adjust", 0, transferred.quadratic_form(coords))
    return op, transferred


def solve(tensor: CoverageTensor, config: SolverConfig,
          u_init=None) -> Tuple[PartiallyUnitaryOp, IterationTrace]:
    """One start, then the configured step in one loop.

    The start is the svd snap of u_init (the least-squares channel): as
    iteration 1 for lsq-adj, as 0 for an iterative path with
    init_with_least_squares. Otherwise the maxev family and polar ascent
    start from the best snapped eigenstate, and polar ascent falls back to
    u_init when none snaps; a paper iteration starts cold. Single-shot paths
    return their start and stop "converged". lsq-adj reads S only through
    S u at its start (`lsq_adjusted`), so a fit that has no subspace to
    compose sums that product instead of S and skips this function.
    """
    algorithm = config.algorithm
    if algorithm == LSQ_ADJ:
        if u_init is None:
            raise DimensionError("lsq-adj requires the least-squares channel as u_init")
        u = enforce_partial_unitarity(u_init, "svd")
        return lsq_adjusted(u, _apply(tensor, u))
    iterative = algorithm in (LAGRANGE_ITER, LINEAR_CONSTRAINTS, POLAR_ASCENT)
    trace = IterationTrace()
    start = (None, -np.inf, None, None)
    if iterative and config.init_with_least_squares and u_init is not None:
        start = _start(tensor, trace, u_init)
    elif algorithm not in (LAGRANGE_ITER, LINEAR_CONSTRAINTS):
        try:
            start = _maxev(tensor, trace, 1 if algorithm == MAXEV else config.candidate_pool,
                           "gram-eig" if algorithm == MAXEV_EVADJ else "svd")
        except NumericalError:
            if algorithm != POLAR_ASCENT or u_init is None:
                raise
            start = _start(tensor, trace, u_init)
    if not iterative:
        return make_operator(start[0], algorithm, 1, f_value=start[1]), trace
    if algorithm == POLAR_ASCENT:
        step = _polar_step(tensor, config)
    else:
        step = _relaxed_step(tensor, config, _shifted_candidates
                             if algorithm == LAGRANGE_ITER else _bordered_candidates)
    return _ascend(tensor, config, trace, start, step), trace
