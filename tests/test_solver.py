"""Test map, search, verification and determinism."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import equibox
from equibox import certifier
from equibox.measures import (
    Configuration,
    GridDensity,
    PointCloud,
    gaussian_mixture_cloud,
    gaussian_mixture_grid,
)
from equibox.solver import (
    CONVERGED,
    DIFF_STEP,
    FAILURE_NOTE,
    NOT_CONVERGED,
    UNCERTIFIED_NOTE,
    _certified_regime,
    _check_cut_size,
    _cut_memo,
    _normalize_blocks,
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
    return [_normalize_blocks(x, m, d) for x in xs]


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
    for l in range(1, l_max + 1):
        least = certifier.min_dimension(m, l)
        for d in range(max(1, least - 2), least + 3):
            verdict = certifier.certify(m, l, d).verdict
            assert _certified_regime(m, l, d) == (verdict == certifier.CERTIFIED)


def test_m6_solve_decides_regime_without_the_full_criterion():
    # certify(6, 6, 2) expands a 7.2M-term criterion (most of a minute);
    # the truncated min_dimension answers in under a second
    g = GridDensity([0.0, 0.0], [1.0, 1.0],
                    np.random.default_rng(0).uniform(0.5, 1.0, (8, 8)))
    t0 = time.perf_counter()
    rep = solve_equipartition(g, 6, 6, tol=1e-3, max_restarts=1, maxfev=1)
    assert time.perf_counter() - t0 < 10.0
    assert not rep.certified_regime
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


def _grid_deviation():
    grid = gaussian_mixture_grid(2, 3, 48, seed=3)

    def residuals(x):
        dirs = _normalize_blocks(x, 2, 2)
        return eval_test_map(grid, dirs[0], dirs[1:], 2).values.ravel()
    return residuals


LSQ_REFERENCE_CASES = {
    "over-determined": (lambda: _exp_fit(0.0), [1.0, 0.0, 0.0], 100),
    "far-from-origin": (lambda: _exp_fit(1e7), [1.0, 0.0, 1e7], 100),
    "under-determined": (lambda: _underdetermined, [0.3, 0.2, 0.1, 0.4], 100),
    "non-finite-steps": (lambda: _fenced_rosenbrock, [2.5, 2.0, 0.5], 100),
    "test-map-48": (_grid_deviation, [1.0, 0.2, 0.3, 1.0], 30),
}


@pytest.mark.parametrize("case", sorted(LSQ_REFERENCE_CASES))
def test_minimize_retraces_scipy_least_squares(case):
    optimize = pytest.importorskip("scipy.optimize")
    make, x0, max_nfev = LSQ_REFERENCE_CASES[case]
    fun = make()

    def evaluated_points(run):
        points = []

        def recorded(x):
            points.append(np.array(x))
            return fun(x)
        run(recorded)
        return np.array(points)

    ours = evaluated_points(lambda f: minimize(f, np.array(x0), max_nfev))
    reference = evaluated_points(lambda f: optimize.least_squares(
        f, np.array(x0), method="trf", jac="2-point", diff_step=DIFF_STEP,
        max_nfev=max_nfev))
    assert len(ours) == len(reference)
    np.testing.assert_allclose(ours, reference, rtol=1e-9, atol=1e-15)
    if case == "non-finite-steps":
        assert any(not np.all(np.isfinite(fun(x))) for x in ours)


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


def test_solve_uncertified_regime_marked():
    # l=6 parallel cuts in the plane: min certified dimension is 4
    g = _centered_gaussian_grid(48)
    rep = solve_equipartition(g, 6, 2, tol=0.2, max_restarts=1, seed=0,
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
    from equibox.measures import complete_configuration
    u = np.array([1.0, 0.0])
    cfg = complete_configuration(g, u, u[None, :], 2)
    report = verify_configuration(g, cfg, 1.0)
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
    _check_cut_size(grid, 4096)  # 2^24 values: the limit itself passes
    with pytest.raises(ValueError, match="largest l is 4096"):
        _check_cut_size(grid, 4097)
    cloud = PointCloud(np.zeros((4096, 2)), np.ones(4096))
    _check_cut_size(cloud, 10 ** 6)  # a cloud's slab is one index per point


def test_solve_cut_size_guard_counts_the_memo():
    # the memo holds m + d + coarse_grid cuts: 4 at m=2 on a planar grid,
    # so 2^24 values allow l = 1024 there, and 12 with coarse_grid=8
    # allow l = 341; max_restarts=0 is refused only after the guard
    grid = GridDensity([0, 0], [1, 1], np.ones((64, 64)))
    with pytest.raises(ValueError, match="max_restarts"):
        solve_equipartition(grid, 1024, 2, max_restarts=0)
    with pytest.raises(ValueError, match="largest l is 1024"):
        solve_equipartition(grid, 1025, 2)
    with pytest.raises(ValueError, match="max_restarts"):
        solve_equipartition(grid, 341, 2, coarse_grid=8, max_restarts=0)
    with pytest.raises(ValueError, match="largest l is 341"):
        solve_equipartition(grid, 342, 2, coarse_grid=8)
    # coarse_grid is checked first, so a bad one never sizes the memo
    with pytest.raises(ValueError, match="coarse_grid must be >= 0"):
        solve_equipartition(grid, 1025, 2, coarse_grid=-8)


def test_verify_keeps_the_one_cut_limit(monkeypatch):
    # verify makes one cut at a time, so l = 4096 on 64 x 64 cells passes
    # the guard; the tensor is stubbed to spare the 134 MB cut itself
    grid = GridDensity([0, 0], [1, 1], np.ones((64, 64)))
    monkeypatch.setattr("equibox.solver.box_mass_tensor", lambda measure, config:
                        np.full((config.l + 1, 2), 1.0 / (2 * config.l + 2)))

    def config(l):
        return Configuration([1.0, 0.0], [[0.0, 1.0]], np.full(l, 0.5), [0.5])

    assert verify_configuration(grid, config(4096), 0.1).passed
    with pytest.raises(ValueError, match="largest l is 4096"):
        verify_configuration(grid, config(4097), 0.1)
