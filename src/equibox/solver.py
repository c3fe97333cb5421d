"""Numerical realization of certified equipartitions.

The search space is directions only: offsets are always eliminated
analytically (quantiles along the parallel direction, medians for the
extra hyperplanes), so a candidate is a point of (S^(d-1))^m. It is held
in a sphere chart, d-1 hyperspherical angles per direction (_directions;
_angles is the inverse), because the deviations ignore a direction's
length: m d-vectors would give the Jacobian m null directions and cost m
probes more per Jacobian. At d=2 a direction's chart is its angle.

Each restart is an unconstrained trust-region least-squares solve
(minimize: the Levenberg-Marquardt step of More 1977 from one SVD of the
Jacobian, as in the unbounded branch of Branch, Coleman & Li's "trf")
on the deviation vector, the flattened (l+1) x 2^(m-1) tensor of box
masses minus the uniform target. Its first Jacobian is a 2-point finite
difference at the relative step of the measure's kind (diff_step).
After a step that earns at least a quarter of its predicted reduction,
Broyden's rank-one secant update takes the place of the m(d-1) probes,
and only a poorer accepted step rebuilds the differences. A point
cloud's map is piecewise constant: it jumps by one point weight wherever
a point crosses a hyperplane, so a probe must move the hyperplanes
across many points to see the slope rather than the jumps, and
PointCloud takes 1e-1. A grid's map is continuous, so a small step
already sees its slope, and GridDensity keeps 1e-2.

One solve has one residual function, shared by every restart, and one
best evaluation over all of them (_better: non-collinear before
collinear, then the lower residual_l2, the earlier on ties). The first
evaluation, Jacobian probes included, whose max-norm residual is within
tol with non-collinear directions ends the solve; that evaluation is the
result, not re-evaluated. Otherwise a restart ends after maxfev test_map
evaluations or when minimize stops on its own tolerances, and the next
restart begins; the report holds the best evaluation of the solve.

An evaluation depends on each of its m directions only through that
direction's cut (measures.direction_cut: quantile offsets plus the
measure's membership against them), and the measure's own combine step
builds the tensor from the m cuts, whatever its kind. One solve keeps
the cuts it made in an LRU memo of m + d + coarse_grid entries, keyed by
the direction's bytes and its offset count, and an evaluation computes
only the cuts it misses. A Jacobian probe moves one angle, so it
changes one direction; the d-1 probes of one block must leave the base
point's other m-1 cuts cached, which takes m + d - 1 of the entries. The
coarse grid cycles its last angle through coarse_grid values, which
takes coarse_grid + 1. A Jacobian sweep of the parallel direction can
fill the memo with parallel cuts, so a grid solve is refused when
m + d + coarse_grid of them, l+1 slab fractions per cell each
(GridDensity.membership), would pass GENERATED_VALUES_MAX values. The
memo goes with the solve, and verify_configuration recomputes everything
from scratch, one cut at a time.

Whether the problem is in the certified regime is the verdict of
certifier.certify(m, l, d) at the measure's d: one truncated build at
most, never a search over d.

Restarts begin at the chart points of deterministic seeded random
vectors, or for d=2 first at the three best combinations of an optional
exhaustive coarse angle grid. The coarse grid evaluates all n^m angle
combinations, so it is refused for d != 2 and for n^m above
COARSE_GRID_MAX_COMBOS (4096: n <= 64 at m=2, 16 at m=3, 8 at m=4, 5 at
m=5 and 4 at m=6).

Existence in the certified regime is guaranteed; finding the zero is
not. NOT_CONVERGED in a certified regime indicates solver failure, not
a counterexample, and reports say so.
"""

import contextlib
import functools
import json
from dataclasses import dataclass, fields

import numpy as np
from numpy.linalg import norm

from equibox import SCHEMA, certifier
from equibox.measures import (
    GENERATED_VALUES_MAX,
    Configuration,
    box_mass_tensor,
    direction_cut,
    rho,
)

CONVERGED = "CONVERGED"
NOT_CONVERGED = "NOT_CONVERGED"

COLLINEAR_TOL = 1e-9
COARSE_GRID_MAX_COMBOS = 4096
UNCERTIFIED_NOTE = "uncertified regime"
FAILURE_NOTE = (
    "NOT_CONVERGED in a certified regime indicates solver failure, "
    "not a counterexample"
)
EPS = np.finfo(float).eps
LSQ_TOL = 1e-8  # ftol = xtol = gtol of minimize


@dataclass
class DeviationTensor:
    """Box masses minus the uniform target, with its residual norms."""

    values: np.ndarray
    config: Configuration
    residual_max: float
    residual_l2: float


def test_map(measure, u, extra_dirs, l, _cuts=None):
    """Deviation tensor of the quantile/median configuration for the
    given directions.

    Each direction enters only through its cut (measures.direction_cut):
    (u, l) for the parallel family and (v, 1) for every extra hyperplane;
    the tensor is their combination (measure.combine). _cuts(w, k), if
    given, stands in for direction_cut(measure, w, k);
    solve_equipartition passes its memo (_cut_memo), so an evaluation
    recomputes only the cuts of directions it has not seen recently. The
    result is the same bit for bit."""
    if _cuts is None:
        _cuts = functools.partial(direction_cut, measure)
    parallel, slab = _cuts(u, l)
    extra = [_cuts(v, 1) for v in extra_dirs]
    config = Configuration(u, np.atleast_2d(extra_dirs), parallel,
                           [float(offsets[0]) for offsets, _ in extra])
    tensor = measure.combine(slab, [side for _, side in extra], l)
    dev = tensor - rho(config.l, config.m)
    return DeviationTensor(
        values=dev,
        config=config,
        residual_max=float(np.abs(dev).max()),
        residual_l2=float(np.sqrt((dev ** 2).sum())),
    )


class _Report:
    """JSON form of a report dataclass: every field under its own name,
    after _json_values replaces those that are not JSON values, plus the
    schema tag."""

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(self._json_values())
        return {"schema": SCHEMA, **out}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class SolveReport(_Report):
    status: str
    config: Configuration | None
    residual_max: float
    residual_l2: float
    restarts_used: int
    seed: int
    certified_regime: bool
    degenerate: bool
    note: str
    evaluations: int
    restart_evaluations: list

    def _json_values(self):
        return {"config": None if self.config is None else self.config.to_dict()}


def _directions(x, m, d):
    """The m unit directions at the chart point x, whose block i holds the
    d-1 hyperspherical angles a of direction i:
    v_j = sin a_1 ... sin a_(j-1) cos a_j for j < d and
    v_d = sin a_1 ... sin a_(d-1)."""
    a = x.reshape(m, d - 1)
    sines = np.cumprod(np.sin(a), axis=1)
    dirs = np.empty((m, d))
    dirs[:, 0] = np.cos(a[:, 0])
    dirs[:, 1:-1] = sines[:, :-1] * np.cos(a[:, 1:])
    dirs[:, -1] = sines[:, -1]
    return dirs


def _angles(w):
    """Chart angles of the nonzero rows of w, flattened: the inverse of
    _directions on unit rows, and the angles of w's row directions
    otherwise. a_j = arctan2(|(w_(j+1), ..., w_d)|, w_j) for j < d-1 and
    a_(d-1) = arctan2(w_d, w_(d-1))."""
    tails = np.sqrt(np.cumsum(w[:, :0:-1] ** 2, axis=1))[:, ::-1]
    a = np.arctan2(tails, w[:, :-1])
    a[:, -1] = np.arctan2(w[:, -1], w[:, -2])
    return a.ravel()


def _is_collinear(dirs):
    m = len(dirs)
    for i in range(m):
        for j in range(i + 1, m):
            if abs(float(dirs[i] @ dirs[j])) > 1.0 - COLLINEAR_TOL:
                return True
    return False


def _angle_grid_starts(m, n, evaluate):
    """Exhaustive coarse seeding over angle combinations (d=2 only).

    Directions are identified with their negatives by the tensor's
    equivariance, so angles sweep [0, pi). At d=2 a chart point is its m
    angles, so each combination is a start as it stands."""
    angles = np.pi * np.arange(n) / n
    combos = np.stack(np.meshgrid(*([angles] * m), indexing="ij"), -1).reshape(-1, m)
    scored = [(evaluate(x), idx, x) for idx, x in enumerate(combos)]
    scored.sort(key=lambda s: (s[0], s[1]))
    return [x for _, _, x in scored[:3]]


def _check_coarse_grid(n, m, d):
    if n < 0:
        raise ValueError("coarse_grid must be >= 0, got %d" % n)
    if n and d != 2:
        raise ValueError("coarse_grid needs a planar measure (d=2), got d=%d" % d)
    if n ** m > COARSE_GRID_MAX_COMBOS:
        largest = 1
        while (largest + 1) ** m <= COARSE_GRID_MAX_COMBOS:
            largest += 1
        raise ValueError(
            "coarse_grid=%d asks for %d angle combinations at m=%d, above %d; "
            "the largest coarse_grid is %d"
            % (n, n ** m, m, COARSE_GRID_MAX_COMBOS, largest))


def _check_cut_size(measure, l, cuts=1):
    """Refuse a grid on which `cuts` parallel cuts, each l+1 float64 slab
    fractions per cell, would hold more than GENERATED_VALUES_MAX values
    together. A solve's memo can hold m + d + coarse_grid of them; a
    verification makes one."""
    values = cuts * (l + 1) * measure.cells.size if measure.kind == "grid" else 0
    if values > GENERATED_VALUES_MAX:
        raise ValueError(
            "l=%d on a grid of %d cells needs %d cut values "
            "(%d x (l+1) x cells), above %d; the largest l is %d"
            % (l, measure.cells.size, values, cuts, GENERATED_VALUES_MAX,
               GENERATED_VALUES_MAX // (cuts * measure.cells.size) - 1))


def _check_tol(tol):
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number, got %r" % tol)


def _check_tol_below_target(tol, l, m):
    """Refuse a tol at or above the box target rho(l, m): under it an
    empty box would pass, so CONVERGED or PASS would say nothing."""
    target = rho(l, m)
    if tol >= target:
        raise ValueError("tol %g is not below the box target %g = "
                         "1/((l+1) * 2^(m-1)) at l=%d, m=%d"
                         % (tol, target, l, m))


class _StopRestart(Exception):
    """Raised from the residual function to end one restart's search."""


def _better(cand, best):
    """Candidate ordering over (DeviationTensor, degenerate) pairs: a
    non-collinear candidate beats a collinear one, the lower residual_l2
    wins among non-collinear ones (the earlier on ties), and a collinear
    candidate wins only over none."""
    if best is None:
        return True
    if cand[1]:
        return False
    return best[1] or cand[0].residual_l2 < best[0].residual_l2


def _accepted(cand, tol):
    """Whether a (DeviationTensor, degenerate) pair ends the search."""
    return not cand[1] and cand[0].residual_max <= tol


def _cut_memo(measure, capacity):
    """direction_cut(measure, w, k) behind an LRU cache of capacity cuts,
    keyed by the bytes of w and k; cache_info reports its hits."""
    @functools.lru_cache(maxsize=capacity)
    def cut(key, k):
        return direction_cut(measure, np.frombuffer(key), k)

    def cuts(w, k):
        return cut(w.tobytes(), k)

    cuts.cache_info = cut.cache_info
    return cuts


def _jacobian(fun, x, f, diff_step):
    """2-point forward differences at the relative step diff_step:
    coordinate i moves by diff_step * sign(x_i) * |x_i|.

    A coordinate that the step would not move falls back to
    sqrt(EPS) * max(1, |x_i|); the divisor is the step as rounded into x.
    The result is Fortran-ordered, so that J^T f and J p sum in the same
    order as in scipy's least_squares, the tests' reference."""
    sign = np.where(x >= 0, 1.0, -1.0)
    h = diff_step * sign * np.abs(x)
    fallback = EPS ** 0.5 * sign * np.maximum(1.0, np.abs(x))
    h = np.where((x + h) - x == 0, fallback, h)
    jac_t = np.empty((x.size, f.size))
    for i in range(x.size):
        probe = x.copy()
        probe[i] = x[i] + h[i]
        jac_t[i] = (fun(probe) - f) / ((x[i] + h[i]) - x[i])
    return jac_t.T


def _lm_step(J_svd, n_res, Delta, alpha):
    """More's solution of min |J p + f| subject to |p| <= Delta.

    J_svd is (uf, s, V) with U, s, V^T = svd(J) and uf = U^T f. Returns
    the Gauss-Newton step if J has full column rank and the step fits,
    else the Levenberg-Marquardt step of norm Delta, whose parameter
    alpha is found by at most ten safeguarded Newton iterations from the
    previous one. Returns (step, alpha)."""
    uf, s, V = J_svd
    suf = s * uf

    def phi(alpha):  # |p(alpha)| - Delta and its derivative in alpha
        denom = s ** 2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom ** 3) / p_norm

    full_rank = n_res >= V.shape[0] and s[-1] > EPS * n_res * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        value, slope = phi(0.0)
        alpha_lower = -value / slope
    else:
        alpha_lower = 0.0
        if alpha == 0:
            alpha = 0.001 * alpha_upper
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            alpha_upper = alpha
        ratio = value / slope
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (value + Delta) * ratio / Delta
        if np.abs(value) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s ** 2 + alpha))
    p *= Delta / norm(p)  # onto the boundary, which the root-finding nears
    return p, alpha


def minimize(fun, x0, max_nfev, diff_step):
    """Unconstrained trust-region least squares on the residual vector fun(x).

    The unbounded branch of the "trf" method (Branch, Coleman & Li 1999)
    with x_scale 1, linear loss and the exact SVD trust-region solver, as
    scipy's least_squares(method="trf") runs it. The initial radius is
    |x0| (1 at the origin), a step is _lm_step on the current Jacobian J,
    and the radius shrinks to a quarter of the step below a reduction
    ratio of 0.25 (or at non-finite residuals) and doubles above 0.75 when
    the step reached the boundary. J starts as the 2-point Jacobian at the
    relative step diff_step (_jacobian). After an accepted step s (as
    rounded into x) with ratio >= 0.25, it takes Broyden's rank-one
    update J + (f_new - f - J s) s^T / (s^T s) (Broyden 1965, as in
    MINPACK's hybrd), in place, so it stays Fortran-ordered; after one
    with a lower ratio, _jacobian rebuilds it. The search stops
    when the gradient's max-norm, the cost reduction or the step falls
    below LSQ_TOL (relative to the cost and to |x|), or after max_nfev
    evaluations outside the Jacobian probes. Nothing is returned: the
    caller keeps what it needs from its own fun, as solve_equipartition's
    residuals does."""
    x = np.array(x0, dtype=float)
    f = fun(x)
    nfev = 1
    J = _jacobian(fun, x, f, diff_step)
    g = J.T.dot(f)
    cost = 0.5 * np.dot(f, f)
    Delta = norm(x) or 1.0
    alpha = 0.0
    while not norm(g, ord=np.inf) < LSQ_TOL and nfev < max_nfev:
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        # U^T f and V p sum in layout order. Fortran-ordered factors, as
        # scipy.linalg.svd returns them, keep the iterates equal to the
        # reference's; C-ordered ones drift off by 1e-12 in ~70 evaluations
        J_svd = (np.asfortranarray(U).T.dot(f), s, np.asfortranarray(Vt).T)
        reduction = -1
        done = False
        while reduction <= 0 and nfev < max_nfev:
            step, alpha = _lm_step(J_svd, f.size, Delta, alpha)
            Js = J.dot(step)
            predicted = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            f_new = fun(x_new)
            nfev += 1
            step_norm = norm(step)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1 if predicted == reduction == 0 else 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * Delta:
                Delta_new = 2.0 * Delta
            done = ((reduction < LSQ_TOL * cost and ratio > 0.25)
                    or step_norm < LSQ_TOL * (LSQ_TOL + norm(x)))
            if done:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if reduction > 0:
            if ratio >= 0.25:  # Broyden's rank-one secant update, in place
                s = x_new - x
                J += np.outer(f_new - f - J.dot(s), s) / s.dot(s)
            else:
                J = _jacobian(fun, x_new, f_new, diff_step)
            x, f, cost = x_new, f_new, cost_new
            g = J.T.dot(f)
        if done:
            break


def solve_equipartition(measure, l, m, *, tol=1e-3, max_restarts=200, seed=0,
                        coarse_grid=0, maxfev=None):
    """Multi-start search for a configuration with residual_max <= tol.

    Deterministic for fixed (measure, options, seed). maxfev caps the
    test_map evaluations of each restart (default 400 * m * d). Collinear
    direction pairs are tolerated during the search but never end it, and
    a best configuration flagged collinear is reported degenerate, not
    accepted. A measure of dimension d < 2 (where every two directions are
    collinear), an (m, l) that certifier.PartitionProblem refuses (m
    outside [2, MAX_VARS] or l < 1), a coarse_grid that is negative, set
    for d != 2 or above COARSE_GRID_MAX_COMBOS combinations, a grid whose
    memo of parallel cuts would hold more than GENERATED_VALUES_MAX values
    (_check_cut_size), a tol that is not a finite positive number or not
    below the box target rho(l, m), maxfev < 1, a negative seed, and
    point-cloud tolerances below the quantization floor (3 * max weight)
    are rejected up front.
    """
    d = measure.dim
    if d < 2:
        raise ValueError(
            "measure dimension must be >= 2, got d=%d: every two directions "
            "in R^%d are collinear" % (d, d))
    certifier.PartitionProblem(m, l)
    _check_coarse_grid(coarse_grid, m, d)
    capacity = m + d + coarse_grid  # of the cut memo: module docstring
    _check_cut_size(measure, l, capacity)
    if max_restarts < 1:
        raise ValueError("max_restarts must be >= 1")
    _check_tol(tol)
    _check_tol_below_target(tol, l, m)
    if maxfev is not None and maxfev < 1:
        raise ValueError("maxfev must be >= 1, got %d" % maxfev)
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    if measure.kind == "point_cloud":
        floor = 3.0 * measure.max_weight
        if tol < floor:
            raise ValueError(
                "tolerance %g below the point-cloud quantization floor %g "
                "(3 * max weight)" % (tol, floor)
            )
    certified = certifier.certify(m, l, d).verdict == certifier.CERTIFIED
    if maxfev is None:
        maxfev = 400 * m * d
    cuts = _cut_memo(measure, capacity)

    def seed_score(x):
        dirs = _directions(x, m, d)
        return test_map(measure, dirs[0], dirs[1:], l, _cuts=cuts).residual_l2

    best = None  # (DeviationTensor, degenerate), over every restart
    evals = 0  # of the current restart

    def residuals(x):
        nonlocal best, evals
        if evals == maxfev:
            raise _StopRestart
        evals += 1
        dirs = _directions(x, m, d)
        dt = test_map(measure, dirs[0], dirs[1:], l, _cuts=cuts)
        cand = (dt, _is_collinear(dirs))
        if _accepted(cand, tol):
            best = cand
            raise _StopRestart
        if _better(cand, best):
            best = cand
        return dt.values.ravel()

    rng = np.random.default_rng(seed)
    starts = []
    if coarse_grid:
        starts.extend(_angle_grid_starts(m, coarse_grid, seed_score))

    restart_evaluations = []
    for restart in range(max_restarts):
        if restart < len(starts):
            x0 = starts[restart]
        else:
            x0 = _angles(rng.standard_normal(m * d).reshape(m, d))
        evals = 0
        with contextlib.suppress(_StopRestart):
            minimize(residuals, x0, maxfev, measure.diff_step)
        restart_evaluations.append(evals)
        if _accepted(best, tol):
            break

    dt, degenerate = best
    converged = _accepted(best, tol)
    note = "" if certified else UNCERTIFIED_NOTE
    if not converged and certified:
        note = FAILURE_NOTE
    return SolveReport(
        status=CONVERGED if converged else NOT_CONVERGED,
        config=dt.config,
        residual_max=dt.residual_max,
        residual_l2=dt.residual_l2,
        restarts_used=len(restart_evaluations),
        seed=seed,
        certified_regime=certified,
        degenerate=degenerate,
        note=note,
        evaluations=coarse_grid ** m + sum(restart_evaluations),
        restart_evaluations=restart_evaluations,
    )


@dataclass
class VerificationReport(_Report):
    box_masses: np.ndarray
    target: float
    max_deviation: float
    passed: bool
    collinear_warning: bool

    def _json_values(self):
        return {"box_masses": self.box_masses.tolist()}


def verify_configuration(measure, config, tol):
    """Recompute all box masses from scratch and gate on max |mass - rho|.

    An m outside [2, MAX_VARS] is refused up front, as solve refuses it
    (certifier.PartitionProblem): the tensor has 2^(m-1) box columns."""
    certifier.PartitionProblem(config.m, config.l)
    _check_tol(tol)
    _check_cut_size(measure, config.l)
    _check_tol_below_target(tol, config.l, config.m)
    tensor = box_mass_tensor(measure, config)
    target = rho(config.l, config.m)
    max_dev = float(np.abs(tensor - target).max())
    dirs = np.vstack([config.u[None, :], config.extra_dirs])
    return VerificationReport(
        box_masses=tensor,
        target=target,
        max_deviation=max_dev,
        passed=max_dev <= tol,
        collinear_warning=_is_collinear(dirs),
    )
