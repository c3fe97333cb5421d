"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The heavy realization cases
(criteria 7 and 8) run the full desk-scale problems and account for
most of the suite's runtime.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from equibox import certifier, dickson, repdecomp, solver
from equibox.gf2poly import PolyGF2, product
from equibox.measures import (
    PointCloud,
    box_mass_tensor,
    gaussian_mixture_cloud,
    gaussian_mixture_grid,
)


def _report(n, label, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", n, label))
    assert ok, "criterion %d failed: %s" % (n, label)


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "equibox.cli", "table", "--m", "3",
         "--l-max", "22", "--format", "csv"],
        capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    rows = [tuple(map(int, ln.split(",")))
            for ln in proc.stdout.splitlines()[1:]]
    expect_d = [4, 7, 7, 8, 8] + [13] * 4 + [15, 15, 16, 16] + [25] * 8
    ok = (proc.returncode == 0
          and rows == list(zip(range(2, 23), expect_d))
          and elapsed < 5.0)
    _report(1, "table m=3 l<=22 exact in %.2fs" % elapsed, ok)


def test_criterion_2_m2_laws():
    t0 = time.perf_counter()
    x, y = PolyGF2.linear_form(2, [0]), PolyGF2.linear_form(2, [1])
    ok = True
    for k in range(1, 20):
        ok &= certifier.min_dimension(2, 2 * k) == k + 1
        ok &= certifier.min_dimension(2, 2 * k - 1) == k + 1
    for d in range(1, 21):
        p = product([y] * (d - 1) + [x + y] * d)
        # p is in (x^d, y^d) iff every term has an exponent >= d
        ok &= all(max(t) >= d for t in p.term_tuples())
        ok &= not all(max(t) >= d + 1 for t in p.term_tuples())
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(2, "m=2 dimension laws and ideal facts in %.3fs" % elapsed, ok)


def test_criterion_3_r8_witnesses():
    crit = certifier.criterion_polynomial(3, 6)
    cert = certifier.certify(3, 6, 8)
    ok = ((7, 7, 5) in crit.term_tuples()
          and (7, 5, 7) in crit.term_tuples()
          and cert.verdict == certifier.CERTIFIED)
    _report(3, "7x2x2 boxes in R^8 certified with both witnesses", ok)


def test_criterion_4_dickson_identities():
    ok = all(dickson.dickson_product(m) == dickson.dickson_moore(m)
             for m in (1, 2, 3, 4))
    ok &= len(dickson.dickson_moore(4)) == 24
    _report(4, "product and Moore forms agree through m=4", ok)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    cases = [(m, l) for m in (2, 3) for l in range(1, 10)]
    cases += [(4, l) for l in range(1, 6)]
    for m, l in cases:
        spec = repdecomp.build_test_representation(m, l)
        table = repdecomp.character_multiplicities(spec)
        ok &= repdecomp.index_polynomial(spec, table) \
            == certifier.criterion_polynomial(m, l)
        if m == 3 and l % 2 == 0:
            k = l // 2
            named = {repdecomp.character_name(chi): v
                     for chi, v in table.multiplicities.items() if v}
            ok &= named == {"x2": k, "x1+x2": k, "x3": k, "x1+x3": k,
                            "x2+x3": k + 1, "x1+x2+x3": k}
            ok &= table.total_dim == 6 * k + 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(5, "index == criterion on the full grid in %.1fs" % elapsed, ok)


def test_criterion_6_trivial_character_audit():
    ok = True
    cases = [(m, l) for m in (2, 3) for l in range(1, 10)]
    cases += [(4, l) for l in range(1, 6)]
    for m, l in cases:
        table = repdecomp.character_multiplicities(
            repdecomp.build_test_representation(m, l))
        ok &= table.multiplicities[(0,) * m] == 0
    _report(6, "trivial character absent for every single-family spec", ok)


def test_criterion_7_planar_realization():
    grid = gaussian_mixture_grid(2, 3, 256, seed=7)
    t0 = time.perf_counter()
    rep = solver.solve_equipartition(grid, 2, 2, tol=1e-4, max_restarts=200,
                                     seed=0, coarse_grid=8)
    elapsed = time.perf_counter() - t0
    check = solver.verify_configuration(grid, rep.config, 1e-4)
    ok = (rep.status == solver.CONVERGED
          and rep.residual_max <= 1e-4
          and rep.restarts_used <= 200
          and check.passed
          and elapsed < 120.0)
    _report(7, "6 boxes for a planar 3-Gaussian grid (res %.1e, %.0fs, "
               "%d restarts)" % (rep.residual_max, elapsed, rep.restarts_used),
            ok)


def test_criterion_8_r4_realization():
    cloud = gaussian_mixture_cloud(4, 3, 200000, seed=11)
    t0 = time.perf_counter()
    rep = solver.solve_equipartition(cloud, 2, 3, tol=5e-3, max_restarts=50,
                                     seed=0)
    elapsed = time.perf_counter() - t0
    ok = (rep.status == solver.CONVERGED
          and rep.residual_max <= 5e-3
          and elapsed < 600.0)
    _report(8, "12 boxes for a 200k-point cloud in R^4 (res %.1e, %.0fs)"
            % (rep.residual_max, elapsed), ok)


def test_criterion_9_property_suites():
    # gf2poly ring laws (spot check; the full suite is standalone)
    rng = np.random.default_rng(0)
    polys = []
    for _ in range(3):
        terms = {tuple(rng.integers(0, 5, size=3)) for _ in range(6)}
        polys.append(PolyGF2(3, terms))
    a, b, c = polys
    ok = (a * b == b * a) and ((a + b) + c == a + (b + c)) \
        and (a + a == PolyGF2(3))

    # measures equivariance and brute-force classification
    pc = gaussian_mixture_cloud(3, 2, 300, seed=2)
    dirs = rng.standard_normal((3, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cfg = solver.test_map(pc, dirs[0], dirs[1:], 2).config
    tensor = box_mass_tensor(pc, cfg)
    brute = np.zeros_like(tensor)
    for p, w in zip(pc.points, pc.weights):
        slab = int(np.sum(p @ cfg.u > cfg.parallel_offsets))
        bits = sum(1 << j for j in range(2)
                   if p @ cfg.extra_dirs[j] > cfg.extra_offsets[j])
        brute[slab, bits] += w
    ok &= np.array_equal(tensor, brute)
    rev = box_mass_tensor(pc, solver.test_map(pc, -dirs[0], dirs[1:], 2).config)
    ok &= np.allclose(rev, tensor[::-1, :], atol=1e-12)

    # solver determinism: identical bytes for identical inputs
    grid = gaussian_mixture_grid(2, 2, 48, seed=3)
    kwargs = dict(tol=1e-3, max_restarts=4, seed=9, coarse_grid=4, maxfev=150)
    rep1 = solver.solve_equipartition(grid, 2, 2, **kwargs)
    rep2 = solver.solve_equipartition(grid, 2, 2, **kwargs)
    ok &= rep1.to_json() == rep2.to_json()
    _report(9, "ring laws, classification oracle, deterministic reports", ok)
