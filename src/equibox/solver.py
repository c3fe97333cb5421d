"""Numerical realization of certified equipartitions.

The search space is directions only: offsets are always eliminated
analytically (quantiles along the parallel direction, medians for the
extra hyperplanes), so a candidate is a point of (S^(d-1))^m. The
objective is the l2 norm of the deviation tensor; convergence is gated
on the max-norm. Multi-start derivative-free descent (Nelder-Mead on
raw vectors, re-projected to unit length at every evaluation) with an
optional exhaustive coarse angle grid for d=2 seeds. The coarse grid
evaluates all n^m angle combinations, so it is refused for d != 2 and
for n^m above COARSE_GRID_MAX_COMBOS (4096: n <= 64 at m=2, 16 at m=3,
8 at m=4, 5 at m=5 and 4 at m=6).

Existence in the certified regime is guaranteed; finding the zero is
not. NOT_CONVERGED in a certified regime indicates solver failure, not
a counterexample, and reports say so.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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
COARSE_GRID_MAX_COMBOS = 4096
UNCERTIFIED_NOTE = "uncertified regime"
FAILURE_NOTE = (
    "NOT_CONVERGED in a certified regime indicates solver failure, "
    "not a counterexample"
)


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


def solve_equipartition(measure, l, m, *, tol=1e-3, max_restarts=200, seed=0,
                        coarse_grid=0, maxfev=None):
    """Multi-start search for a configuration with residual_max <= tol.

    Deterministic for fixed (measure, options, seed). Collinear
    direction pairs are tolerated during the search but a converged
    configuration flagged collinear is reported degenerate, not
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

    def evaluate(x):
        dirs = _normalize_blocks(np.asarray(x, dtype=float), m, d)
        if dirs is None:
            return 1e6
        return test_map(measure, dirs[0], dirs[1:], l).residual_l2

    rng = np.random.default_rng(seed)
    starts = []
    if coarse_grid:
        starts.extend(_angle_grid_starts(m, coarse_grid, evaluate))

    nm_options = {
        "maxfev": maxfev if maxfev is not None else 400 * m * d,
        "xatol": 1e-9,
        "fatol": 1e-14,
        "adaptive": m * d > 6,
    }

    best = None  # (residual_l2, restart index, DeviationTensor, degenerate)
    restarts_used = 0
    for restart in range(max_restarts):
        if restart < len(starts):
            x0 = starts[restart]
        else:
            x0 = rng.standard_normal(m * d)
        restarts_used = restart + 1
        result = minimize(evaluate, x0, method="Nelder-Mead", options=nm_options)
        dirs = _normalize_blocks(result.x, m, d)
        if dirs is None:
            continue
        dt = test_map(measure, dirs[0], dirs[1:], l)
        degenerate = _is_collinear(dirs)
        cand = (dt.residual_l2, restart, dt, degenerate)
        if not degenerate and (best is None or best[3] or cand[:2] < best[:2]):
            best = cand
        elif best is None:
            best = cand
        if dt.residual_max <= tol and not degenerate:
            break

    if best is None:
        raise RuntimeError("every restart collapsed to a degenerate direction")
    _, _, dt, degenerate = best
    converged = dt.residual_max <= tol and not degenerate
    note = "" if certified else UNCERTIFIED_NOTE
    if not converged and certified:
        note = FAILURE_NOTE
    return SolveReport(
        status=CONVERGED if converged else NOT_CONVERGED,
        config=dt.config,
        residual_max=dt.residual_max,
        residual_l2=dt.residual_l2,
        restarts_used=restarts_used,
        seed=seed,
        certified_regime=certified,
        degenerate=degenerate,
        note=note,
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
