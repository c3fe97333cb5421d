"""Numerical realization of certified equipartitions.

The search space is directions only: offsets are always eliminated
analytically (quantiles along the parallel direction, medians for the
extra hyperplanes), so a candidate is a point of (S^(d-1))^m, held as m
raw d-vectors that are re-projected to unit length at every evaluation.

Each restart is a trust-region reflective least-squares solve
(scipy.optimize.least_squares, method "trf"; Branch, Coleman & Li 1999)
on the deviation vector, the flattened (l+1) x 2^(m-1) tensor of box
masses minus the uniform target. Its Jacobian is a 2-point finite
difference with the relative step DIFF_STEP = 1e-2: a point cloud's map
is a step function with steps about 1/N high, so the step must span many
points, and the same step works on the continuous grid map. A restart
ends at the first evaluation, Jacobian probes included, whose max-norm
residual is within tol with non-collinear directions; that evaluation is
the result, not re-evaluated. Otherwise it ends after maxfev test_map
evaluations or when least_squares stops on its own tolerances, and its
best evaluation becomes the restart's candidate.

Restarts begin at deterministic seeded random points, or for d=2 first
at the three best combinations of an optional exhaustive coarse angle
grid. The coarse grid evaluates all n^m angle combinations, so it is
refused for d != 2 and for n^m above COARSE_GRID_MAX_COMBOS (4096:
n <= 64 at m=2, 16 at m=3, 8 at m=4, 5 at m=5 and 4 at m=6).

Existence in the certified regime is guaranteed; finding the zero is
not. NOT_CONVERGED in a certified regime indicates solver failure, not
a counterexample, and reports say so.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from equibox import certifier
from equibox.measures import (
    Configuration,
    box_mass_tensor,
    complete_configuration,
    rho,
)

CONVERGED = "CONVERGED"
NOT_CONVERGED = "NOT_CONVERGED"

COLLINEAR_TOL = 1e-9
DIFF_STEP = 1e-2
COARSE_GRID_MAX_COMBOS = 4096
UNCERTIFIED_NOTE = "uncertified regime"
FAILURE_NOTE = (
    "NOT_CONVERGED in a certified regime indicates solver failure, "
    "not a counterexample"
)

# bound under this name because perfbench's traced run patches solver.minimize
minimize = least_squares


@dataclass
class DeviationTensor:
    """Box masses minus the uniform target, with its residual norms and
    the constraint residuals (slab and halving sums), which are zero up to
    the quantile tolerance by construction."""

    values: np.ndarray
    target: float
    config: Configuration
    residual_max: float
    residual_l2: float
    slab_sums: np.ndarray
    halving_sums: np.ndarray


def test_map(measure, u, extra_dirs, l):
    """Deviation tensor of the quantile/median configuration for the
    given directions."""
    config = complete_configuration(measure, u, extra_dirs, l)
    tensor = box_mass_tensor(measure, config)
    dev = tensor - rho(config.l, config.m)
    half = tensor.shape[1]
    bits = np.arange(half)
    halving = np.array([
        tensor[:, (bits >> j) & 1 == 0].sum() - 0.5
        for j in range(config.m - 1)
    ])
    return DeviationTensor(
        values=dev,
        target=rho(config.l, config.m),
        config=config,
        residual_max=float(np.abs(dev).max()),
        residual_l2=float(np.sqrt((dev ** 2).sum())),
        slab_sums=dev.sum(axis=1),
        halving_sums=halving,
    )


@dataclass
class SolveReport:
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

    def to_dict(self):
        return {
            "schema": "equibox/1",
            "status": self.status,
            "config": self.config.to_dict() if self.config is not None else None,
            "residual_max": self.residual_max,
            "residual_l2": self.residual_l2,
            "restarts_used": self.restarts_used,
            "seed": self.seed,
            "certified_regime": self.certified_regime,
            "degenerate": self.degenerate,
            "note": self.note,
            "evaluations": self.evaluations,
            "restart_evaluations": self.restart_evaluations,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def _normalize_blocks(x, m, d):
    blocks = x.reshape(m, d)
    norms = np.linalg.norm(blocks, axis=1)
    if np.any(norms < 1e-12):
        return None
    return blocks / norms[:, None]


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
    equivariance, so angles sweep [0, pi)."""
    angles = np.pi * np.arange(n) / n
    combos = np.stack(np.meshgrid(*([angles] * m), indexing="ij"), -1).reshape(-1, m)
    scored = []
    for idx, thetas in enumerate(combos):
        x = np.concatenate([[np.cos(t), np.sin(t)] for t in thetas])
        scored.append((evaluate(x), idx, x))
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


def _check_tol(tol):
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number, got %r" % tol)


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


def _local_search(measure, l, m, x0, tol, maxfev):
    """One least-squares restart from x0.

    Returns (candidate, evaluations). The candidate is the first accepted
    evaluation, which stops the search at once, or else the restart's best
    (DeviationTensor, degenerate) pair; None if every evaluation collapsed
    a direction."""
    d = measure.dim
    collapsed = np.ones((l + 1) << (m - 1))
    best = None
    evals = 0

    def residuals(x):
        nonlocal best, evals
        dirs = _normalize_blocks(x, m, d)
        if dirs is None:
            return collapsed
        if evals == maxfev:
            raise _StopRestart
        evals += 1
        dt = test_map(measure, dirs[0], dirs[1:], l)
        cand = (dt, _is_collinear(dirs))
        if _accepted(cand, tol):
            best = cand
            raise _StopRestart
        if _better(cand, best):
            best = cand
        return dt.values.ravel()

    try:
        minimize(residuals, x0, method="trf", jac="2-point",
                 diff_step=DIFF_STEP, max_nfev=maxfev)
    except _StopRestart:
        pass
    return best, evals


def solve_equipartition(measure, l, m, *, tol=1e-3, max_restarts=200, seed=0,
                        coarse_grid=0, maxfev=None):
    """Multi-start search for a configuration with residual_max <= tol.

    Deterministic for fixed (measure, options, seed). maxfev caps the
    test_map evaluations of each restart (default 400 * m * d). Collinear
    direction pairs are tolerated during the search but never end it, and
    a best configuration flagged collinear is reported degenerate, not
    accepted. A tol that is not a finite positive number, maxfev < 1,
    a coarse_grid that is negative, set for d != 2 or above
    COARSE_GRID_MAX_COMBOS combinations, and point-cloud tolerances below
    the quantization floor (3 * max weight) are rejected up front.
    """
    d = measure.dim
    if not 2 <= m <= 6:
        raise ValueError("m must be in [2, 6]")
    if l < 1:
        raise ValueError("l must be >= 1")
    if max_restarts < 1:
        raise ValueError("max_restarts must be >= 1")
    _check_tol(tol)
    if maxfev is not None and maxfev < 1:
        raise ValueError("maxfev must be >= 1, got %d" % maxfev)
    _check_coarse_grid(coarse_grid, m, d)
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

    def seed_score(x):
        dirs = _normalize_blocks(x, m, d)
        return test_map(measure, dirs[0], dirs[1:], l).residual_l2

    rng = np.random.default_rng(seed)
    starts = []
    if coarse_grid:
        starts.extend(_angle_grid_starts(m, coarse_grid, seed_score))
    evaluations = coarse_grid ** m

    best = None  # (DeviationTensor, degenerate)
    restart_evaluations = []
    for restart in range(max_restarts):
        if restart < len(starts):
            x0 = starts[restart]
        else:
            x0 = rng.standard_normal(m * d)
        cand, evals = _local_search(measure, l, m, x0, tol, maxfev)
        restart_evaluations.append(evals)
        evaluations += evals
        if cand is None:
            continue
        if _accepted(cand, tol):
            best = cand
            break
        if _better(cand, best):
            best = cand

    if best is None:
        raise RuntimeError("every restart collapsed to a degenerate direction")
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
        evaluations=evaluations,
        restart_evaluations=restart_evaluations,
    )


@dataclass
class VerificationReport:
    box_masses: np.ndarray
    target: float
    max_deviation: float
    passed: bool
    collinear_warning: bool

    def to_dict(self):
        return {
            "schema": "equibox/1",
            "box_masses": [[float(x) for x in row] for row in self.box_masses],
            "target": self.target,
            "max_deviation": self.max_deviation,
            "passed": self.passed,
            "collinear_warning": self.collinear_warning,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def verify_configuration(measure, config, tol):
    """Recompute all box masses from scratch and gate on max |mass - rho|."""
    _check_tol(tol)
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
