"""Test map, search, verification and determinism."""

import contextlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import equibox
from equibox import certifier, solver
from equibox.measures import (
    Configuration,
    GridDensity,
    PointCloud,
    gaussian_mixture_cloud,
    gaussian_mixture_grid,
    rho,
)
from equibox.solver import (
    CONVERGED,
    FAILURE_NOTE,
    NOT_CONVERGED,
    UNCERTIFIED_NOTE,
    _check_cut_size,
    _cut_memo,
    _angles,
    _better,
    _directions,
    _is_collinear,
    minimize,
    solve_equipartition,
    test_map as eval_test_map,
    verify_configuration,
)


def _centered_gaussian_grid(cells=128, span=4.0):
    ax = np.linspace(-span + span / cells, span - span / cells, cells)
    x, y = np.meshgrid(ax, ax, indexing="ij")
    return GridDensity([-span, -span], [2 * span / cells] * 2,
                       np.exp(-(x ** 2 + y ** 2) / 2))


def _two_blob_grid(cells=96):
    ax = np.linspace(-4, 4, cells)
    x, y = np.meshgrid(ax, ax, indexing="ij")
    dens = (np.exp(-((x - 1.5) ** 2 + y ** 2) / 0.5)
            + 0.3 * np.exp(-((x + 2) ** 2 + (y - 1) ** 2) / 0.3))
    return GridDensity([-4, -4], [8 / cells] * 2, dens)


def _constraint_sums(dt):
    """Slab sums and halving sums of the deviations: every slab holds
    1/(l+1) and every side of an extra hyperplane 1/2 of the mass, so both
    are zero up to the quantile tolerance."""
    dev = dt.values
    bits = np.arange(dev.shape[1])
    halving = [dev[:, (bits >> j) & 1 == 0].sum() for j in range(dt.config.m - 1)]
    return np.abs(dev.sum(axis=1)).max(), np.abs(halving).max()


def test_map_symmetric_gaussian_near_zero():
    g = _centered_gaussian_grid(256)
    dt = eval_test_map(g, np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), 2)
    assert dt.residual_max < 1e-4
    slab, halving = _constraint_sums(dt)
    assert slab < 1e-6 and halving < 1e-6


def test_map_slab_sums_definitional():
    pc = gaussian_mixture_cloud(3, 3, 2000, seed=1)
    rng = np.random.default_rng(2)
    dirs = rng.standard_normal((2, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dt = eval_test_map(pc, dirs[0], dirs[1:], 3)
    slab, halving = _constraint_sums(dt)
    assert slab <= pc.max_weight + 1e-12
    assert halving <= pc.max_weight + 1e-12


def test_map_grid_constraints_hold_for_oblique_directions():
    g = gaussian_mixture_grid(2, 3, 64, seed=7)
    rng = np.random.default_rng(5)
    for _ in range(10):
        dirs = rng.standard_normal((3, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dt = eval_test_map(g, dirs[0], dirs[1:], 2)
        slab, halving = _constraint_sums(dt)
        assert slab <= 1e-9 and halving <= 1e-9


def test_map_asymmetric_blobs_far_from_zero():
    g = _two_blob_grid()
    dt = eval_test_map(g, np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), 2)
    assert dt.residual_max > 0.01


def _unit_rows(x, m, d):
    blocks = x.reshape(m, d)
    return blocks / np.linalg.norm(blocks, axis=1)[:, None]


@pytest.mark.parametrize("d", range(2, 7))
def test_chart_round_trip(d):
    # rows with coordinates of either sign, zeros and a negative first
    # coordinate included; _angles of a row of any length is its direction
    rng = np.random.default_rng(d)
    w = rng.standard_normal((6, d))
    w[1, 0] = 0.0
    w[3] = -np.abs(w[3])
    w[4, 1:] = 0.0
    w[4, 0] = -2.0
    w[5, :-1] = 0.0
    unit = w / np.linalg.norm(w, axis=1)[:, None]
    dirs = _directions(_angles(w), len(w), d)
    np.testing.assert_allclose(dirs, unit, rtol=0, atol=1e-15)
    a = _angles(unit).reshape(len(w), d - 1)
    np.testing.assert_allclose(_angles(dirs).reshape(a.shape), a, atol=1e-14)
    # the first d-2 angles lie in [0, pi], the last in (-pi, pi]
    assert np.all(a[:, :-1] >= 0) and np.all(a[:, :-1] <= np.pi)
    assert np.all(np.abs(a[:, -1]) <= np.pi)


def _trust_region_sequence(rng, m, d, n_bases):
    """Direction sets shaped like a least-squares solve: each base point is
    followed by one-coordinate probes of every block, then the base again;
    the last base repeats the first."""
    xs = []
    bases = [rng.standard_normal(m * d) for _ in range(n_bases)]
    for base in bases + bases[:1]:
        xs.append(base)
        for i in range(m * d):
            probe = base.copy()
            probe[i] += 1e-2 * max(1.0, abs(probe[i]))
            xs.append(probe)
        xs.append(base)
    return [_unit_rows(x, m, d) for x in xs]


MEMO_CASES = {
    "uniform-cloud": (lambda: gaussian_mixture_cloud(3, 3, 2000, seed=1), 2, 3),
    "plateau-cloud": (lambda: PointCloud(
        np.round(gaussian_mixture_cloud(3, 2, 1500, seed=2).points, 1),
        np.random.default_rng(2).uniform(0.5, 1.5, 1500)), 3, 3),
    "grid-2d": (lambda: gaussian_mixture_grid(2, 3, 32, seed=3), 2, 3),
    "grid-3d": (lambda: gaussian_mixture_grid(3, 2, 8, seed=4), 2, 2),
    "cloud-l1": (lambda: gaussian_mixture_cloud(2, 2, 1000, seed=5), 1, 2),
    "grid-l1": (lambda: gaussian_mixture_grid(2, 2, 24, seed=6), 1, 3),
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_cut_memo_matches_fresh_evaluations(case):
    make, l, m = MEMO_CASES[case]
    measure = make()
    d = measure.dim
    memo = _cut_memo(measure, m + d)
    # three bases: more distinct directions than the memo holds
    seq = _trust_region_sequence(np.random.default_rng(len(case)), m, d, 3)
    # the same directions swapped between the parallel family and the
    # hyperplanes: keys (w, l) and (w, 1), one key when l = 1
    seq += [seq[0][::-1].copy(), seq[0]]
    for dirs in seq:
        fresh = eval_test_map(measure, dirs[0], dirs[1:], l)
        memo_dt = eval_test_map(measure, dirs[0], dirs[1:], l, _cuts=memo)
        assert np.array_equal(memo_dt.values, fresh.values)
        assert np.array_equal(memo_dt.config.parallel_offsets,
                              fresh.config.parallel_offsets)
        assert np.array_equal(memo_dt.config.extra_offsets,
                              fresh.config.extra_offsets)
    info = memo.cache_info()
    assert info.misses > info.maxsize  # entries were evicted
    # within one block's probes the other m-1 cuts of the base stay cached
    assert info.hits >= 3 * m * d * (m - 1)


@pytest.mark.parametrize("m, d", [(2, 2), (3, 4)])
def test_cut_memo_capacity_keeps_the_base_point(m, d):
    # a Jacobian sweep over all m blocks from one base point, then the base
    # again: with m + d cuts every probe misses only on its moved direction
    measure = gaussian_mixture_cloud(d, 2, 500, seed=m)
    seq = _trust_region_sequence(np.random.default_rng(0), m, d, 1)
    seq = seq[:m * d + 2]
    misses = []
    for capacity in (m + d, m + d - 1):
        memo = _cut_memo(measure, capacity)
        for dirs in seq:
            eval_test_map(measure, dirs[0], dirs[1:], 2, _cuts=memo)
        info = memo.cache_info()
        assert info.hits + info.misses == m * len(seq)
        misses.append(info.misses)
    # one capacity less loses a base cut during some block's probes
    assert misses[0] == m * (d + 1) < misses[1]


@pytest.mark.parametrize("m, l_max", [(2, 8), (3, 6), (4, 4), (5, 3)])
def test_certified_regime_matches_certify(m, l_max):
    # solve takes its regime from certify at the measure's d; min_dimension
    # is the least certified d, and a certificate for d holds for every
    # larger d, so the two agree
    for l in range(1, l_max + 1):
        least = certifier.min_dimension(m, l)
        for d in range(max(1, least - 2), least + 3):
            verdict = certifier.certify(m, l, d).verdict
            assert (d >= least) == (verdict == certifier.CERTIFIED)


def test_m6_solve_decides_regime_without_the_full_criterion():
    # the full (6, 6) criterion has 7.2M terms (most of a minute to
    # expand); certify(6, 6, 2) builds only the terms with every exponent
    # <= 1, in the truncated ring, and answers at once
    g = GridDensity([0.0, 0.0], [1.0, 1.0],
                    np.random.default_rng(0).uniform(0.5, 1.0, (8, 8)))
    t0 = time.perf_counter()
    rep = solve_equipartition(g, 6, 6, tol=1e-3, max_restarts=1, maxfev=1)
    assert time.perf_counter() - t0 < 10.0
    assert not rep.certified_regime
    assert rep.note == UNCERTIFIED_NOTE


def test_solve_regime_needs_no_min_dimension_search(monkeypatch):
    # min_dimension(6, 30) = 256 searches every d up from the degree bound
    # (about a minute); the solve asks certify at its own d = 2 only
    def search(m, l):
        raise AssertionError("solve searched min_dimension(%d, %d)" % (m, l))

    monkeypatch.setattr(certifier, "min_dimension", search)
    g = GridDensity([0.0, 0.0], [1.0, 1.0],
                    np.random.default_rng(0).uniform(0.5, 1.0, (8, 8)))
    t0 = time.perf_counter()
    rep = solve_equipartition(g, 30, 6, tol=1e-3, max_restarts=1, maxfev=1)
    assert time.perf_counter() - t0 < 5.0
    assert rep.certified_regime is False
    assert rep.note == UNCERTIFIED_NOTE


def test_solve_symmetric_gaussian_converges():
    g = _centered_gaussian_grid(128)
    rep = solve_equipartition(g, 2, 2, tol=1e-4, max_restarts=20, seed=0,
                              coarse_grid=6)
    assert rep.status == CONVERGED
    assert rep.residual_max <= 1e-4
    assert rep.certified_regime  # l=2, m=2 is certified in d=2
    assert not rep.degenerate
    v = verify_configuration(g, rep.config, 1e-4)
    assert v.passed and not v.collinear_warning


def _exp_fit(offset):
    """12 residuals in 3 parameters: smooth, over-determined and
    inconsistent (the data carry a ripple), so the Gauss-Newton step is
    taken whenever it fits the trust region. Near the origin the search
    ends on the relative cost reduction; with the third parameter near a
    large offset, on the step relative to |x|."""
    t = np.linspace(0.0, 2.0, 12)
    data = 2.0 * np.exp(-0.7 * t) + 0.3 + 0.01 * np.sin(7 * t)

    def residuals(x):
        return 1e3 * (x[0] * np.exp(x[1] * t) + (x[2] - offset) - data)
    return residuals


def _underdetermined(x):
    """2 residuals in 4 parameters: the Jacobian never has full column
    rank, so every step comes from the Levenberg-Marquardt iteration."""
    return np.array([x[0] ** 2 + x[1] ** 2 + x[2] - 1.0, x[0] * x[3] - 0.5])


def _fenced_rosenbrock(x):
    """Rosenbrock residuals that are not finite farther than 2.5 from the
    zero (1, 1, 1), so long steps shrink the trust region."""
    if np.linalg.norm(x - 1.0) > 2.5:
        return np.full(3, np.inf)
    return np.array([10 * (x[1] - x[0] ** 2), 1 - x[0], 0.5 * (x[2] - x[0] * x[1])])


def _deviation(measure, m, l):
    def residuals(x):
        dirs = _directions(x, m, measure.dim)
        return eval_test_map(measure, dirs[0], dirs[1:], l).values.ravel()
    return residuals


def _grid_deviation():
    return _deviation(gaussian_mixture_grid(2, 3, 48, seed=3), 2, 2)


def _cloud_deviation():
    return _deviation(gaussian_mixture_cloud(3, 3, 2000, seed=1), 3, 2)


# (residual function factory, x0, max_nfev, relative difference step)
LSQ_REFERENCE_CASES = {
    "over-determined": (lambda: _exp_fit(0.0), [1.0, 0.0, 0.0], 100, 1e-2),
    "far-from-origin": (lambda: _exp_fit(1e7), [1.0, 0.0, 1e7], 100, 1e-2),
    "under-determined": (lambda: _underdetermined, [0.3, 0.2, 0.1, 0.4], 100,
                         1e-2),
    "non-finite-steps": (lambda: _fenced_rosenbrock, [2.5, 2.0, 0.5], 100,
                         1e-2),
    "test-map-48": (_grid_deviation,
                    _angles(np.array([[1.0, 0.2], [0.3, 1.0]])), 30,
                    GridDensity.diff_step),
    "test-map-48-budget": (_grid_deviation,
                           _angles(np.array([[1.0, 0.2], [0.3, 1.0]])), 3,
                           GridDensity.diff_step),
    "test-map-cloud": (_cloud_deviation, _angles(np.array(
        [[1.0, 0.2, 0.3], [0.1, 1.0, 0.4], [0.3, 0.2, 1.0]])), 30,
        PointCloud.diff_step),
}


def _secant_jacobian(fun, probed, diff_step):
    """minimize's Jacobian rule as a jac callable for scipy's least_squares,
    called at x0 and after every accepted step: Broyden's update of the
    previous Jacobian when the step's reduction ratio is at least 0.25,
    recomputed here from the previous (x, f, J), else scipy's own 2-point
    differences through probed. fun gives f(x) without a record."""
    approx_derivative = pytest.importorskip(
        "scipy.optimize._numdiff").approx_derivative
    previous = []

    def jac(x):
        f = fun(x)
        if previous:
            x_old, f_old, J = previous.pop()
            s = x - x_old
            Js = J.dot(s)
            predicted = -(0.5 * np.dot(Js, Js) + np.dot(s, J.T.dot(f_old)))
            reduction = 0.5 * np.dot(f_old, f_old) - 0.5 * np.dot(f, f)
            if predicted > 0 and reduction / predicted >= 0.25:
                J = J.copy(order="F")
                J += np.outer(f - f_old - Js, s) / s.dot(s)
                previous.append((x, f, J))
                return J
        J = approx_derivative(probed, x, method="2-point", rel_step=diff_step,
                              f0=f)
        previous.append((x, f, J))
        return J
    return jac


class _BudgetSpent(Exception):
    pass


@pytest.mark.parametrize("case", sorted(LSQ_REFERENCE_CASES))
def test_minimize_retraces_scipy_least_squares(case):
    optimize = pytest.importorskip("scipy.optimize")
    make, x0, max_nfev, diff_step = LSQ_REFERENCE_CASES[case]
    fun = make()

    def evaluated_points(run, budget=None):
        points = []

        def recorded(x):
            if len(points) == budget:
                raise _BudgetSpent
            points.append(np.array(x))
            return fun(x)
        return run(recorded), np.array(points)

    result, reference = evaluated_points(lambda f: optimize.least_squares(
        f, np.array(x0), method="trf",
        jac=_secant_jacobian(fun, f, diff_step), max_nfev=max_nfev))
    # minimize keeps no budget: where scipy ran out of max_nfev (status 0),
    # the function stops ours at the same evaluation, as solve's does
    budget = len(reference) if result.status == 0 else None

    def ours(f):
        with contextlib.suppress(_BudgetSpent):
            minimize(f, np.array(x0), diff_step)
    _, points = evaluated_points(ours, budget)
    assert len(points) == len(reference)
    np.testing.assert_allclose(points, reference, rtol=1e-9, atol=1e-15)
    if case == "non-finite-steps":
        assert any(not np.all(np.isfinite(fun(x))) for x in points)


def test_solve_leaves_scipy_unloaded():
    # the child imports equibox from where this process found it
    root = os.path.dirname(os.path.dirname(equibox.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    probe = ("import sys, equibox.solver as s, equibox.measures as m; "
             "g = m.gaussian_mixture_grid(2, 2, 24, 3); "
             "r = s.solve_equipartition(g, 1, 2, tol=1e-3, max_restarts=5); "
             "print(r.evaluations > 0, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["True", "False"]


def test_solve_deterministic_bytes():
    g = _centered_gaussian_grid(48)
    kwargs = dict(tol=1e-3, max_restarts=5, seed=42, coarse_grid=4, maxfev=200)
    rep1 = solve_equipartition(g, 2, 2, **kwargs)
    rep2 = solve_equipartition(g, 2, 2, **kwargs)
    assert rep1.to_json() == rep2.to_json()
    # the coarse grid seeds with all 4^2 angle combinations
    out = json.loads(rep1.to_json())
    assert len(out["restart_evaluations"]) == out["restarts_used"]
    assert 4 ** 2 + sum(out["restart_evaluations"]) == out["evaluations"]


@pytest.mark.parametrize("make_measure,l,m,tol,maxfev", [
    (lambda: gaussian_mixture_grid(2, 3, 48, seed=7), 2, 2, 1e-6, 6),
    (lambda: gaussian_mixture_cloud(3, 3, 4000, seed=5), 2, 3, 1e-3, 40),
], ids=["grid", "cloud"])
def test_report_holds_the_best_of_every_evaluation(monkeypatch, make_measure,
                                                   l, m, tol, maxfev):
    # two NOT_CONVERGED solves of three restarts each: the reported config is
    # the best evaluation of the whole solve under the documented order
    # (non-collinear first, then the lowest residual_l2, the earliest on
    # ties), whichever restart made it. No coarse grid, whose seed scoring
    # would call test_map too. The cloud's best comes from its third restart.
    measure = make_measure()
    seen = []

    def recording_test_map(*args, **kwargs):
        dt = eval_test_map(*args, **kwargs)
        dirs = np.vstack([dt.config.u[None, :], dt.config.extra_dirs])
        seen.append((dt, _is_collinear(dirs)))
        return dt

    monkeypatch.setattr(solver, "test_map", recording_test_map)
    rep = solve_equipartition(measure, l, m, tol=tol, max_restarts=3,
                              seed=0, maxfev=maxfev)
    assert rep.status == NOT_CONVERGED and rep.restarts_used == 3
    assert rep.evaluations == sum(rep.restart_evaluations) == len(seen)
    plain = [i for i, (_, collinear) in enumerate(seen) if not collinear]
    first_best = min(plain, key=lambda i: seen[i][0].residual_l2, default=0)
    best, degenerate = seen[first_best]
    assert rep.degenerate == degenerate
    assert rep.config.to_dict() == best.config.to_dict()
    assert rep.residual_l2 == best.residual_l2
    assert rep.residual_max == best.residual_max


@pytest.mark.parametrize("make_measure,l,m,tol,coarse_grid", [
    (lambda: gaussian_mixture_grid(2, 3, 48, seed=7), 2, 2, 1e-3, 8),
    (lambda: gaussian_mixture_cloud(3, 3, 4000, seed=5), 2, 3, 1e-2, 0),
], ids=["grid", "cloud"])
def test_solve_builds_a_configuration_only_for_its_report(
        monkeypatch, make_measure, l, m, tol, coarse_grid):
    # evaluations, coarse-grid seeding included, keep directions and
    # offsets; only the report reads a Configuration
    measure = make_measure()
    built = []

    class CountingConfiguration(Configuration):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(solver, "Configuration", CountingConfiguration)
    rep = solve_equipartition(measure, l, m, tol=tol, max_restarts=20,
                              seed=0, coarse_grid=coarse_grid)
    assert rep.status == CONVERGED and rep.evaluations > 10
    assert 1 <= len(built) <= 2
    assert isinstance(rep.config, CountingConfiguration)


def test_cloud_solve_report_is_independent_of_point_order():
    # the benchmark's cloud problem, whose seed permutes the points and
    # whose harness expects one report for every seed
    cloud = gaussian_mixture_cloud(4, 3, 50000, 11)
    reports = set()
    for s in (1, 2, 3):
        perm = np.random.default_rng(s).permutation(50000)
        shuffled = PointCloud(cloud.points[perm], cloud.weights[perm])
        rep = solve_equipartition(shuffled, 2, 3, tol=5e-3, max_restarts=50,
                                  seed=0)
        assert rep.status == CONVERGED
        reports.add(rep.to_json())
    assert len(reports) == 1


def _candidate(residual_l2, degenerate):
    return (solver.DeviationTensor(values=None, residual_max=0.0,
                                   residual_l2=residual_l2, u=None,
                                   extra_dirs=None, parallel_offsets=None,
                                   extra_offsets=None), degenerate)


def test_better_orders_candidates():
    # a degenerate (collinear) candidate wins only over none
    assert _better(_candidate(0.0, True), None)
    assert not _better(_candidate(0.0, True), _candidate(5.0, False))
    assert not _better(_candidate(0.0, True), _candidate(5.0, True))
    # a non-degenerate one beats a degenerate best at any residual_l2
    assert _better(_candidate(9.0, False), _candidate(1.0, True))
    # among non-degenerate ones the lower residual_l2, the earlier on ties
    assert _better(_candidate(0.5, False), _candidate(1.0, False))
    assert not _better(_candidate(1.0, False), _candidate(1.0, False))
    assert not _better(_candidate(2.0, False), _candidate(1.0, False))


def test_solve_uncertified_regime_marked():
    # l=6 parallel cuts in the plane: min certified dimension is 4
    g = _centered_gaussian_grid(48)
    rep = solve_equipartition(g, 6, 2, tol=0.05, max_restarts=1, seed=0,
                              maxfev=60)
    assert not rep.certified_regime
    assert rep.note == UNCERTIFIED_NOTE


def test_solve_failure_note_verbatim():
    g = _centered_gaussian_grid(48)
    rep = solve_equipartition(g, 2, 2, tol=1e-13, max_restarts=2, seed=0,
                              maxfev=40)
    assert rep.status == NOT_CONVERGED
    assert rep.certified_regime
    assert rep.note == FAILURE_NOTE


def test_cloud_tolerance_floor():
    pc = gaussian_mixture_cloud(2, 2, 100, seed=3)
    with pytest.raises(ValueError, match="quantization floor"):
        solve_equipartition(pc, 2, 2, tol=1e-4, max_restarts=1)


def test_residual_invariant_under_direction_flips():
    pc = gaussian_mixture_cloud(3, 3, 1500, seed=9)
    rng = np.random.default_rng(4)
    dirs = rng.standard_normal((3, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = eval_test_map(pc, dirs[0], dirs[1:], 2)
    flip_u = eval_test_map(pc, -dirs[0], dirs[1:], 2)
    flip_v = eval_test_map(pc, dirs[0], np.array([-dirs[1], dirs[2]]), 2)
    assert flip_u.residual_l2 == pytest.approx(base.residual_l2, abs=1e-12)
    assert flip_v.residual_l2 == pytest.approx(base.residual_l2, abs=1e-12)


def test_verify_detects_perturbation():
    g = _centered_gaussian_grid(128)
    rep = solve_equipartition(g, 2, 2, tol=1e-4, max_restarts=20, seed=1,
                              coarse_grid=6)
    assert rep.status == CONVERGED
    good = verify_configuration(g, rep.config, 1e-4)
    assert good.passed
    cfg = rep.config
    bad_offsets = np.array(cfg.parallel_offsets)
    bad_offsets[0] += 0.1
    from equibox.measures import Configuration
    bad = Configuration(cfg.u, cfg.extra_dirs, np.sort(bad_offsets),
                        cfg.extra_offsets)
    assert not verify_configuration(g, bad, 1e-4).passed


def test_verify_collinear_warning():
    g = _centered_gaussian_grid(48)
    u = np.array([1.0, 0.0])
    cfg = eval_test_map(g, u, u[None, :], 2).config
    report = verify_configuration(g, cfg, 0.1)
    assert report.collinear_warning
    assert abs(report.box_masses.sum() - 1) < 1e-9


def test_nonnegative_masses_sum_to_one():
    g = _two_blob_grid(64)
    rep = solve_equipartition(g, 1, 2, tol=5e-3, max_restarts=10, seed=2,
                              coarse_grid=6)
    v = verify_configuration(g, rep.config, 5e-3)
    assert np.all(v.box_masses >= 0)
    assert abs(v.box_masses.sum() - 1) < 1e-9


def test_convergence_rate_over_20_seeded_mixtures():
    # empirical property in the certified regime (test-scale grids);
    # existence is guaranteed here, finding the zero is not, so any failure
    # here is a solver regression rather than a counterexample
    converged = 0
    for seed in range(20):
        g = gaussian_mixture_grid(2, 3, 64, seed=seed)
        rep = solve_equipartition(g, 2, 2, tol=1e-4, max_restarts=30,
                                  seed=seed, coarse_grid=6)
        converged += rep.status == CONVERGED
    assert converged == 20


@pytest.mark.parametrize("measure_seed", range(11, 16))
def test_cloud_solves_stay_cheap(measure_seed):
    # criterion 8's problem on 20k points: a step-function map on which the
    # search must still stop within a few hundred test_map evaluations
    pc = gaussian_mixture_cloud(4, 3, 20000, seed=measure_seed)
    rep = solve_equipartition(pc, 2, 3, tol=5e-3, max_restarts=50, seed=0)
    assert rep.status == CONVERGED
    assert verify_configuration(pc, rep.config, 5e-3).passed
    assert rep.evaluations <= 1000


@pytest.mark.parametrize("m,l,d,measure_seed,tol", [
    (4, 2, 8, 1, 2e-3),
    (5, 2, 16, 5, 3e-3),
    (6, 1, 32, 5, 3e-3),
])
def test_cloud_solves_at_the_minimal_dimension(m, l, d, measure_seed, tol):
    # certified problems at d = min_dimension(m, l), where an equipartition
    # exists; at a 1e-2 difference step the first two stalled NOT_CONVERGED
    # after 4,169 and 11,680 evaluations, as the probes saw single point
    # jumps. (6, 1, 32) took 1,353 evaluations with m * d probes to every
    # Jacobian, and 385 with sphere charts and secant updates
    assert d == certifier.min_dimension(m, l)
    pc = gaussian_mixture_cloud(d, 3, 20000, seed=measure_seed)
    rep = solve_equipartition(pc, l, m, tol=tol, max_restarts=10, seed=0)
    assert rep.certified_regime
    assert rep.status == CONVERGED
    assert verify_configuration(pc, rep.config, tol).passed


def test_solver_option_validation():
    g = _centered_gaussian_grid(48)
    with pytest.raises(ValueError):
        solve_equipartition(g, 0, 2)
    with pytest.raises(ValueError):
        solve_equipartition(g, 2, 1)
    with pytest.raises(ValueError):
        solve_equipartition(g, 2, 2, max_restarts=0)


def test_grid_cut_size_guard_names_the_largest_l():
    grid = GridDensity([0, 0], [1, 1], np.ones((64, 64)))
    _check_cut_size(grid, 4095)  # 2^24 values: the limit itself passes
    with pytest.raises(ValueError, match="largest l is 4095"):
        _check_cut_size(grid, 4096)
    cloud = PointCloud(np.zeros((4096, 2)), np.ones(4096))
    _check_cut_size(cloud, 10 ** 6)  # a cloud's slab is one index per point


def test_solve_cut_size_guard_counts_the_memo():
    # the memo holds m + d + coarse_grid cuts of l + 1 fractions per cell:
    # 4 at m=2 on a planar grid, so 2^24 values allow l = 1023 there, and
    # 12 with coarse_grid=8 allow l = 340; max_restarts=0 is refused only
    # after the guard
    grid = GridDensity([0, 0], [1, 1], np.ones((64, 64)))
    with pytest.raises(ValueError, match="max_restarts"):
        solve_equipartition(grid, 1023, 2, max_restarts=0)
    with pytest.raises(ValueError, match="largest l is 1023"):
        solve_equipartition(grid, 1024, 2)
    with pytest.raises(ValueError, match="max_restarts"):
        solve_equipartition(grid, 340, 2, coarse_grid=8, max_restarts=0)
    with pytest.raises(ValueError, match="largest l is 340"):
        solve_equipartition(grid, 341, 2, coarse_grid=8)
    # coarse_grid is checked first, so a bad one never sizes the memo
    with pytest.raises(ValueError, match="coarse_grid must be >= 0"):
        solve_equipartition(grid, 1025, 2, coarse_grid=-8)


def test_verify_keeps_the_one_cut_limit(monkeypatch):
    # verify makes one cut at a time, so l = 4095 on 64 x 64 cells passes
    # the guard; the tensor is stubbed to spare the 134 MB cut itself. The
    # tol sits below the box target 1/8192, and the guard comes first
    grid = GridDensity([0, 0], [1, 1], np.ones((64, 64)))
    monkeypatch.setattr("equibox.solver.box_mass_tensor", lambda measure, config:
                        np.full((config.l + 1, 2), 1.0 / (2 * config.l + 2)))

    def config(l):
        return Configuration([1.0, 0.0], [[0.0, 1.0]], np.full(l, 0.5), [0.5])

    assert verify_configuration(grid, config(4095), 1e-5).passed
    with pytest.raises(ValueError, match="largest l is 4095"):
        verify_configuration(grid, config(4096), 0.1)


def test_grid_evaluation_holds_one_parallel_cut():
    # the parallel cut's l + 1 slab fractions per cell are made once, in
    # the cut, and combine reads them in place: an evaluation's peak is
    # that one array, not the cut plus copies of it
    grid = GridDensity([0, 0], [1, 1], np.ones((64, 64)))
    l = 1000
    tracemalloc.start()
    try:
        eval_test_map(grid, np.array([0.6, 0.8]), np.array([[0.8, -0.6]]), l)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (l + 1) * grid.cells.size * 8


def test_tol_at_or_above_the_box_target_is_refused():
    # at tol >= rho an empty box passes: 48^2, l=2, m=2, tol=0.5 used to
    # report CONVERGED after one evaluation and PASS with masses 0.07-0.26
    grid = gaussian_mixture_grid(2, 3, 48, seed=7)
    target = rho(2, 2)
    for tol in (0.5, target):
        with pytest.raises(ValueError, match="not below the box target"):
            solve_equipartition(grid, 2, 2, tol=tol, max_restarts=1)
    rep = solve_equipartition(grid, 2, 2, tol=np.nextafter(target, 0),
                              max_restarts=1, maxfev=1)
    config = rep.config
    for tol in (0.5, target):
        with pytest.raises(ValueError, match="not below the box target"):
            verify_configuration(grid, config, tol)
    assert verify_configuration(grid, config, np.nextafter(target, 0)).passed
