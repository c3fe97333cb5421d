"""Measure loading, quantiles, box tensors and their equivariance."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equibox import measures
from equibox.measures import (
    GRID_QUANTILE_TOL,
    Configuration,
    GridDensity,
    MeasureFormatError,
    PointCloud,
    ProjectedGridCDF,
    _plateau_quantile_offsets,
    _uniform_quantile_offsets,
    box_mass_tensor,
    direction_cut,
    direction_quantiles,
    gaussian_mixture_cloud,
    gaussian_mixture_grid,
    load_measure,
    rho,
    write_cloud_csv,
    write_grid_json,
)
from equibox.solver import test_map as solver_test_map


def _centered_gaussian_grid(cells=128, span=4.0):
    ax = np.linspace(-span + span / cells, span - span / cells, cells)
    x, y = np.meshgrid(ax, ax, indexing="ij")
    return GridDensity([-span, -span], [2 * span / cells] * 2,
                       np.exp(-(x ** 2 + y ** 2) / 2))


def _random_config(rng, d, l, m):
    dirs = rng.standard_normal((m, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs[0], dirs[1:]


# -- loading and formats -----------------------------------------------------

def test_load_cloud_csv_normalizes(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("x1,x2,w\n0,0,1\n1,0,1\n0,1,1\n")
    cloud = load_measure(p)
    assert cloud.kind == "point_cloud"
    assert np.allclose(cloud.weights, 1 / 3)


def test_load_grid_json(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({
        "dim": 2, "origin": [0, 0], "spacing": [0.5, 0.5],
        "shape": [2, 2], "data": [1, 1, 1, 1],
    }))
    grid = load_measure(p)
    assert grid.kind == "grid"
    assert np.allclose(grid.cells, 0.25)


def test_load_rejects_negative_weight(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("x1,w\n0,1\n1,-2\n")
    with pytest.raises(MeasureFormatError):
        load_measure(p)


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b,w\n0,0,1\n")
    with pytest.raises(MeasureFormatError):
        load_measure(p)


def test_cloud_csv_roundtrip(tmp_path):
    cloud = gaussian_mixture_cloud(3, 2, 50, seed=4)
    path = tmp_path / "c.csv"
    write_cloud_csv(path, cloud)
    back = load_measure(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.weights, cloud.weights)


# reference: the cloud writer before numpy's savetxt, one csv.writer row
# per point


def _csv_writer_bytes(path, cloud):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x%d" % (i + 1) for i in range(cloud.dim)] + ["w"])
        for p, w in zip(cloud.points, cloud.weights):
            writer.writerow(["%.17g" % x for x in p] + ["%.17g" % w])
    return path.read_bytes()


@pytest.mark.parametrize("d, n", [(1, 10), (2, 2000), (3, 1), (8, 300)])
def test_cloud_csv_bytes_match_csv_writer(tmp_path, d, n):
    cloud = gaussian_mixture_cloud(d, 3, n, seed=d)
    rng = np.random.default_rng(n)  # unequal weights, tiny and huge values
    cloud = PointCloud(cloud.points * 10.0 ** rng.integers(-300, 300, (n, 1)),
                       rng.uniform(0.1, 1.0, n))
    path = tmp_path / "c.csv"
    write_cloud_csv(path, cloud)
    assert path.read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", cloud)
    back = load_measure(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.weights, cloud.weights)


_DECIMAL = st.from_regex(
    r"\A[ ]?[-+]?([0-9]{1,20}(\.[0-9]{0,20})?|\.[0-9]{1,20})"
    r"([eE][-+]?[0-9]{1,3})?[ ]?\Z")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_DECIMAL, _DECIMAL), min_size=1, max_size=5))
def test_cloud_csv_parses_decimals_as_float_does(tmp_path_factory, rows):
    # one field bare, one quoted; a row that the cloud refuses, with a
    # coordinate whose 8 * sqrt(d) * |x| is not finite, is left out
    rows = [r for r in rows
            if math.isfinite(8 * math.sqrt(2) * max(abs(float(x)) for x in r))]
    if not rows:
        return
    path = tmp_path_factory.mktemp("dec") / "c.csv"
    path.write_text("x1,x2,w\n" + "".join('%s,"%s",1\n' % r for r in rows))
    assert load_measure(path).points.tolist() == [
        [float(x) for x in r] for r in rows]


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV file"),
    ("x1,w\n", "CSV contains no points"),
    ("x1,w\r\n\r\n\n", "CSV contains no points"),
    ("x1,x2,w\n1,2,3\n1,2\n", "number of columns changed"),
    ("x1,x2,w\n1,2\n3,4\n", "CSV rows must have 3 fields, got 2"),
    ("x1,w\n1,2,\n", "could not convert"),
    ("x1,w\n1,2\n  \n", "number of columns changed"),
    ("x1,w\n# note\n1,2\n", "could not convert"),
    ("x1,w\n1_000,2\n", "could not convert"),
    ("x1,w\nnan,1\n", "coordinates must be finite"),
])
def test_cloud_csv_refusals_are_one_line(tmp_path, recwarn, text, message):
    path = tmp_path / "c.csv"
    path.write_text(text)
    with pytest.raises(MeasureFormatError, match=message) as info:
        load_measure(path)
    assert "\n" not in str(info.value)
    assert not recwarn.list  # numpy's "input contained no data" included


@pytest.mark.parametrize("text, message", [
    ("x1,w\n1,2\n3,a\n",
     "bad CSV line 3: could not convert string 'a' to float64$"),
    ("x1,x2,w\n1,2,3\n1,2\n",
     "bad CSV line 3: the number of columns changed from 3 to 2$"),
    ("x1,w\n\n1,2\n\n3,a\n",
     "bad CSV line 5: could not convert string 'a' to float64$"),
    ("x1,w\r\n1,2\r\n  \r\n",
     "bad CSV line 3: the number of columns changed from 2 to 1$"),
    # a quoted field that spans lines is named by the row's last line
    ('x1,w\n1,2\n"3\n",a\n',
     "bad CSV line 4: could not convert string 'a' to float64$"),
])
def test_cloud_csv_refusals_name_the_file_line(tmp_path, text, message):
    # the header is line 1, and blank lines count
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode())
    with pytest.raises(MeasureFormatError, match=message):
        load_measure(path)


def test_refused_cloud_csv_is_parsed_once(tmp_path, monkeypatch):
    # the parse that refuses a row also names its line
    path = tmp_path / "c.csv"
    path.write_text("x1,w\n1,2\n3,a\n")
    calls = []
    csv_rows = measures._csv_rows
    monkeypatch.setattr(measures, "_csv_rows",
                        lambda lines: calls.append(lines) or csv_rows(lines))
    with pytest.raises(MeasureFormatError, match="bad CSV line 3"):
        load_measure(path)
    assert len(calls) == 1


def test_cloud_csv_reads_crlf_blank_padded_and_quoted_rows(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b' x1 , x2 ,w\r\n\r\n 1.5 ,"-2",1\r\n"3", 4e0 ,"3"\r\n')
    cloud = load_measure(path)
    assert cloud.points.tolist() == [[1.5, -2.0], [3.0, 4.0]]
    assert cloud.weights.tolist() == [0.25, 0.75]


def test_grid_json_roundtrip(tmp_path):
    grid = gaussian_mixture_grid(2, 2, 16, seed=4)
    path = tmp_path / "g.json"
    write_grid_json(path, grid)
    back = load_measure(path)
    assert np.array_equal(back.cells, grid.cells)
    assert np.array_equal(back.origin, grid.origin)


@pytest.mark.parametrize("origin, spacing", [
    ([float("nan"), 0.0], [0.5, 0.5]),
    ([0.0, float("inf")], [0.5, 0.5]),
    ([float("-inf"), 0.0], [0.5, 0.5]),
    ([0.0, 0.0], [float("nan"), 0.5]),
    ([0.0, 0.0], [0.5, float("inf")]),
    ([1e308, 0.0], [1e308, 0.5]),  # the far corner overflows
], ids=["nan-origin", "inf-origin", "-inf-origin", "nan-spacing",
        "inf-spacing", "overflow"])
def test_grid_with_non_finite_geometry_is_refused(tmp_path, origin, spacing):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"dim": 2, "origin": origin, "spacing": spacing,
                                "shape": [2, 2], "data": [1, 1, 1, 1]}))
    with pytest.raises(MeasureFormatError, match="must be finite"):
        load_measure(path)


@pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
def test_cloud_without_points_or_coordinates_is_refused(shape):
    with pytest.raises(MeasureFormatError, match="nonempty N x d"):
        PointCloud(np.zeros(shape), np.ones(shape[0]))


@pytest.mark.parametrize("count", [2, 4])
def test_cloud_needs_one_weight_per_point(count):
    with pytest.raises(MeasureFormatError, match="one weight per point"):
        PointCloud(np.zeros((3, 2)), np.ones(count))


@pytest.mark.parametrize("kind", ["cloud", "grid"])
def test_measure_whose_projections_overflow_is_refused(overflowing_measure,
                                                       kind):
    # every value is finite, but a projection onto a unit vector is not
    with pytest.raises(MeasureFormatError, match="must be finite"):
        load_measure(overflowing_measure(kind))


def _meshgrid_mixture_density(d, components, cells_per_axis, seed):
    # reference: the generator's density before broadcasting, from d full
    # coordinate grids
    rng = np.random.default_rng(seed)
    means = rng.uniform(-1.5, 1.5, size=(components, d))
    sigmas = rng.uniform(0.6, 1.1, size=components)
    weights = rng.uniform(0.5, 1.5, size=components)
    weights = weights / weights.sum()
    lo = (means - 3.5 * sigmas[:, None]).min(axis=0)
    hi = (means + 3.5 * sigmas[:, None]).max(axis=0)
    spacing = (hi - lo) / cells_per_axis
    axes = [lo[i] + (np.arange(cells_per_axis) + 0.5) * spacing[i]
            for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    density = np.zeros(mesh[0].shape)
    for mu, sig, w in zip(means, sigmas, weights):
        sq = sum((mesh[i] - mu[i]) ** 2 for i in range(d))
        density += (w * np.exp(-sq / (2 * sig * sig))
                    / (2 * np.pi * sig * sig) ** (d / 2))
    return density / density.sum()


@pytest.mark.parametrize("d, cells", [(1, 50), (2, 48), (2, 160), (3, 20),
                                      (4, 9)])
def test_mixture_grid_matches_meshgrid_reference(d, cells):
    grid = gaussian_mixture_grid(d, 3, cells, seed=d + cells)
    want = _meshgrid_mixture_density(d, 3, cells, seed=d + cells)
    assert np.array_equal(grid.cells, want)


def test_mixture_grid_holds_no_coordinate_grids():
    # 6^8 cells: d meshgrid arrays alone held 8 x cells x 8 bytes
    tracemalloc.start()
    try:
        gaussian_mixture_grid(8, 1, 6, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 6 ** 8 * 8


def test_coordinates_are_stored_by_column():
    # points @ w runs BLAS's column kernel; a row-major input is copied once
    cloud = gaussian_mixture_cloud(4, 3, 2001, seed=3)
    rows = PointCloud(np.ascontiguousarray(cloud.points), cloud.weights)
    grid = gaussian_mixture_grid(2, 3, 24, seed=3)
    for coords in (cloud.points, rows.points, grid.cell_centers()[0]):
        assert coords.flags.f_contiguous and not coords.flags.writeable
    w = np.array([0.5, -0.5, 0.5, 0.5])
    ref = np.array([np.dot(x, w) for x in cloud.points])
    bound = 4 * np.spacing(np.linalg.norm(cloud.points, axis=1))  # |w| = 1
    for measure in (cloud, rows):
        assert np.all(np.abs(measure.project(w) - ref) <= bound)


def test_measures_freeze_views_not_the_callers_arrays():
    # a measure's arrays are read-only, and the float arrays it was built
    # from stay writeable, also those it keeps uncopied (origin, spacing,
    # the points and every configuration field)
    origin, spacing = np.array([0.0, 1.0]), np.array([0.5, 0.25])
    cells, weights = np.ones((3, 4)), np.ones(6)
    pts = np.asfortranarray(np.arange(12.0).reshape(6, 2))
    fields = (np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([0.5]),
              np.array([0.25]))
    grid = GridDensity(origin, spacing, cells)
    cloud = PointCloud(pts, weights)
    cfg = Configuration(*fields)
    for a in (origin, spacing, cells, pts, weights) + fields:
        assert a.flags.writeable
    for a in (grid.origin, grid.spacing, grid.cells, cloud.points,
              cloud.weights, cfg.u, cfg.extra_dirs, cfg.parallel_offsets,
              cfg.extra_offsets):
        assert not a.flags.writeable
    assert np.shares_memory(cloud.points, pts) and cloud.points.flags.f_contiguous


def test_measure_invariants():
    with pytest.raises(MeasureFormatError):
        PointCloud(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(MeasureFormatError):
        PointCloud(np.zeros((2, 2)), np.zeros(2))  # zero total mass
    with pytest.raises(MeasureFormatError):
        GridDensity([0], [1], np.ones(1))  # fewer than 2 cells per axis


# -- quantiles ----------------------------------------------------------------

def test_uniform_grid_quantiles():
    g = GridDensity([0, 0], [1 / 8, 1 / 8], np.ones((8, 8)))
    offs = direction_quantiles(g, np.array([1.0, 0.0]), 2)
    assert np.allclose(offs, [1 / 3, 2 / 3], atol=1e-9)


def test_gaussian_grid_median_is_zero():
    xs = np.linspace(-6, 6, 513)
    centers = 0.5 * (xs[:-1] + xs[1:])
    g = GridDensity([-6.0], [12 / 512], np.exp(-centers ** 2 / 2))
    off = direction_quantiles(g, np.array([1.0]), 1)
    assert abs(off[0]) <= 1e-6


def test_collinear_points_quantiles():
    # counting oracle: any t1 in (2,3), t2 in (4,5) gives slab counts 2/2/2
    pc = PointCloud(np.arange(1, 7, dtype=float).reshape(-1, 1), np.ones(6))
    offs = direction_quantiles(pc, np.array([1.0]), 2)
    assert 2 < offs[0] <= 3 and 4 < offs[1] <= 5
    cfg = Configuration([1.0], np.zeros((0, 1)), offs, [])
    assert np.allclose(box_mass_tensor(pc, cfg).ravel(), [1 / 3] * 3)


def test_cloud_slab_error_bounded_by_max_weight():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 2))
    w = rng.uniform(0.2, 1.0, 40)
    pc = PointCloud(pts, w)
    u = np.array([0.6, 0.8])
    for l in (1, 2, 3, 4):
        offs = direction_quantiles(pc, u, l)
        cfg = Configuration(u, np.zeros((0, 2)), offs, [])
        slabs = box_mass_tensor(pc, cfg).ravel()
        assert np.abs(slabs - 1 / (l + 1)).max() <= pc.max_weight + 1e-12


def test_grid_quantiles_reproduce_slab_masses():
    g = gaussian_mixture_grid(2, 3, 128, seed=9)
    u = np.array([0.8, 0.6])
    offs = direction_quantiles(g, u, 3)
    cfg = Configuration(u, np.zeros((0, 2)), offs, [])
    slabs = box_mass_tensor(g, cfg).ravel()
    assert np.abs(slabs - 0.25).max() <= 1e-4


@pytest.mark.parametrize("d, cells", [(2, 24), (3, 7)])
@pytest.mark.parametrize("axis_aligned", [False, True],
                         ids=["random-dir", "axis-dir"])
def test_grid_cdf_matches_per_cell_spread(d, cells, axis_aligned):
    rng = np.random.default_rng(10 * d + axis_aligned)
    g = GridDensity(rng.uniform(-1, 1, d), rng.uniform(0.1, 0.4, d),
                    rng.uniform(0.0, 1.0, (cells,) * d))
    centers, masses = g.cell_centers()
    for _ in range(3):
        if axis_aligned:  # whole rows of cells share one lower end
            u = np.zeros(d)
            u[rng.integers(d)] = rng.choice([-1.0, 1.0])
        else:
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
        s, start, width = g.project(u)
        cdf = ProjectedGridCDF(g, s)  # in cell widths
        # oracle: each cell's mass spread uniformly over c.u +- |u|.h/2
        assert width == np.abs(u) @ g.spacing
        lower = centers @ u - width / 2
        lo, hi = lower.min(), lower.max() + width
        ts = np.concatenate([[lo - 1.0, lo, hi, hi + 1.0],
                             rng.uniform(lo, hi, 40)])
        for t in ts:
            expect = masses @ np.clip((t - lower) / width, 0.0, 1.0)
            assert abs(cdf.value((t - start) / width) - expect) <= 1e-12
        qs = np.concatenate([[1e-6, 0.5, 1 - 1e-6], rng.uniform(0, 1, 10)])
        for q, x in zip(qs, cdf.quantiles(qs)):
            assert abs(cdf.value(x) - q) <= GRID_QUANTILE_TOL


def _lower_ends(grid, u):
    # the cells' projected intervals in space, [lower, lower + width]
    centers, _ = grid.cell_centers()
    width = float(np.abs(u) @ grid.spacing)
    return centers @ u - 0.5 * width, width


# reference: the grid CDF before binning, one stable sort of the N lower
# ends, prefix sums of mass and mass * lower end over that order, and
# bisection of every target to |F(t) - target| <= 1e-10

class _SortBisectCDF:
    def __init__(self, grid, u):
        _, masses = grid.cell_centers()
        a, self.width = _lower_ends(grid, u)
        order = np.argsort(a, kind="stable")
        self.a, masses = a[order], masses[order]
        self.mass_cum = np.concatenate(([0.0], np.cumsum(masses)))
        self.moment_cum = np.concatenate(([0.0], np.cumsum(masses * self.a)))

    def value(self, t):
        i, j = np.searchsorted(self.a, (t - self.width, t), side="right")
        inside = self.mass_cum[j] - self.mass_cum[i]
        moment = self.moment_cum[j] - self.moment_cum[i]
        return float(self.mass_cum[i] + (t * inside - moment) / self.width)

    def quantile(self, target):
        lo, hi = float(self.a[0]), float(self.a[-1] + self.width)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f = self.value(mid)
            if abs(f - target) <= 1e-10:
                return mid
            if f < target:
                lo = mid
            else:
                hi = mid
        raise RuntimeError("quantile bisection failed to reach tolerance")


def _assert_least_roots(grid, u, l):
    """The offsets of l targets are, by the reference CDF, roots to within
    GRID_QUANTILE_TOL, least roots (F falls below the target just left of
    them), no later than the reference's bisection, and nondecreasing."""
    ref = _SortBisectCDF(grid, u)
    targets = [(i + 1) / (l + 1) for i in range(l)]
    offsets = direction_quantiles(grid, u, l)
    assert np.all(np.diff(offsets) >= 0)
    step = 1e-6 * ref.width
    for q, t in zip(targets, offsets):
        assert abs(ref.value(t) - q) <= GRID_QUANTILE_TOL
        assert ref.value(t - step) < q
        assert t <= ref.quantile(q) + step
    return offsets


@pytest.mark.parametrize("d, cells", [(2, 24), (2, 160), (3, 9)])
def test_grid_quantiles_match_sort_bisect_reference(d, cells):
    rng = np.random.default_rng(40 + d + cells)
    g = gaussian_mixture_grid(d, 3, cells, seed=d + cells)
    for _ in range(12):
        u = rng.standard_normal(d)
        _assert_least_roots(g, u / np.linalg.norm(u), int(rng.integers(1, 6)))


@pytest.mark.parametrize("d", [2, 3])
def test_grid_quantiles_axis_directions_tie_whole_rows(d):
    # every cell of a row shares one lower end, so whole rows share a bin
    rng = np.random.default_rng(50 + d)
    g = GridDensity(rng.uniform(-1, 1, d), rng.uniform(0.1, 0.4, d),
                    rng.uniform(0.0, 1.0, (6,) * d))
    for axis in range(d):
        for sign in (1.0, -1.0):
            u = np.zeros(d)
            u[axis] = sign
            for l in (1, 2, 5):
                _assert_least_roots(g, u, l)


def _zero_row_grid():
    # rows 2..5 are empty and every other cell has mass 1/16, exactly, so
    # F is flat at exactly 1/2 between the lower ends of rows 2 and 6
    cells = np.ones((8, 4))
    cells[2:6] = 0.0
    return GridDensity([-1.0, 0.0], [0.25, 0.5], cells)


def test_grid_quantile_on_a_flat_stretch_is_its_left_end():
    g = _zero_row_grid()
    u = np.array([1.0, 0.0])
    offsets = _assert_least_roots(g, u, 3)
    assert np.allclose(offsets, [-0.75, -0.5, 0.75], rtol=0.0, atol=1e-15)
    s, start, width = g.project(u)
    assert (start, width) == (-1.0, 0.25)  # row i spreads over [i, i + 1]
    cdf = ProjectedGridCDF(g, s)
    for x in (2.0, 3.6, 5.2, 6.0):  # the flat stretch [-0.5, 0.5]
        assert cdf.value(x) == 0.5
    assert cdf.quantiles([0.5])[0] == 2.0


@pytest.mark.parametrize("heavy, flat, root", [
    # (0, 0) over [0, 1] and (1, 0) over [0.5, 1.5]: F reaches 1/2 at 1.5,
    # inside bin 1, and stays there until (3, 3) starts at 3
    ([(0, 0), (1, 0), (3, 3), (3, 3)], (1.5, 3.0), 1.5),
    # (0, 0) over [0, 1], then nothing until (2, 1) starts at 1.5: a piece
    # flat from the left end of bin 1
    ([(0, 0), (2, 1)], (1.0, 1.5), 1.0),
], ids=["inside-a-bin", "from-a-bin-edge"])
def test_grid_quantile_on_a_flat_piece_is_its_left_end(heavy, flat, root):
    # along w = (1, 1) on unit cells, width 2, cell (i, j) spreads over
    # [(i + j) / 2, (i + j) / 2 + 1] in cell widths; every value is exact
    cells = np.zeros((4, 4))
    for ij in heavy:
        cells[ij] += 1.0
    g = GridDensity([0.0, 0.0], [1.0, 1.0], cells)
    w = np.array([1.0, 1.0])
    s, start, width = g.project(w)
    assert (start, width) == (0.0, 2.0)
    cdf = ProjectedGridCDF(g, s)
    lo, hi = flat
    for x in (lo, 0.5 * (lo + hi), hi):
        assert cdf.value(x) == 0.5
    assert cdf.value(lo - 1e-9) < 0.5
    assert cdf.quantiles([0.25, 0.5])[1] == root
    assert g.quantile_offsets(g.project(w), [0.5])[0] == start + width * root


def test_grid_quantiles_with_zero_mass_rows_match_reference():
    rng = np.random.default_rng(60)
    cells = rng.uniform(0.0, 1.0, (16, 12))
    cells[[3, 4, 9], :] = 0.0
    cells[:, [0, 5, 6]] = 0.0
    g = GridDensity([0.5, -2.0], [0.3, 0.2], cells)
    for _ in range(20):
        u = rng.standard_normal(2)
        _assert_least_roots(g, u / np.linalg.norm(u), int(rng.integers(1, 8)))
    _assert_least_roots(g, np.array([1.0, 0.0]), 7)
    _assert_least_roots(g, np.array([0.0, -1.0]), 7)


def test_two_by_two_grid_quantiles_and_value_outside_the_support():
    g = GridDensity([0.0, 0.0], [1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])
    rng = np.random.default_rng(70)
    for u in [np.array([1.0, 0.0]), np.array([0.0, 1.0])] + [
            v / np.linalg.norm(v) for v in rng.standard_normal((8, 2))]:
        _assert_least_roots(g, u, 3)
        s, _, _ = g.project(u)
        cdf = ProjectedGridCDF(g, s)  # the cells spread over [s, s + 1]
        assert s.min() == 0.0
        for x in (-5.0, -1e-9, 0.0):
            assert cdf.value(x) == 0.0
        hi = s.max() + 1.0
        for x in (hi, hi + 1e-9, hi + 5.0):
            assert abs(cdf.value(x) - 1.0) <= 1e-15


def test_grid_quantiles_many_targets_on_a_small_grid():
    # l + 1 far above the cell count: many targets share one bin interval
    g = GridDensity([0.0, 0.0], [0.5, 0.25], np.arange(1.0, 31.0).reshape(6, 5))
    rng = np.random.default_rng(80)
    for u in [np.array([0.0, 1.0])] + [
            v / np.linalg.norm(v) for v in rng.standard_normal((3, 2))]:
        for l in (40, 300):
            _assert_least_roots(g, u, l)
        offsets, member = direction_cut(g, u, 300)
        assert np.array_equal(member, _grid_membership_reference(g, u, offsets))


# reference: every least root from one sort of all 2N ramp ends, F at
# each end from prefix sums over the sorted lower ends in extended
# precision, and the root interpolated on the first piece reaching the
# target; offsets in space, from the least lower end


def _sorted_ramps_quantiles(grid, u, targets):
    _, masses = grid.cell_centers()
    lower, width = _lower_ends(grid, u)
    order = np.argsort(lower, kind="stable")
    a = ((lower[order] - lower.min()) / width).astype(np.longdouble)
    mass_cum = np.concatenate(
        ([0.0], np.cumsum(masses[order], dtype=np.longdouble)))
    moment_cum = np.concatenate(([0.0], np.cumsum(masses[order] * a)))
    ends = np.unique(np.concatenate((a, a + 1)))
    i = np.searchsorted(a, ends - 1, side="right")
    j = np.searchsorted(a, ends, side="right")
    f = (mass_cum[i] + ends * (mass_cum[j] - mass_cum[i])
         - (moment_cum[j] - moment_cum[i]))
    k = np.searchsorted(f, np.asarray(targets, dtype=np.longdouble))
    x = ends[k - 1] + ((targets - f[k - 1]) * (ends[k] - ends[k - 1])
                       / (f[k] - f[k - 1]))
    return (lower.min() + width * x).astype(float)


def _grid_fuzz_grid(rng, d, n):
    cells = rng.uniform(0.0, 1.0, (n,) * d)
    cells[rng.random(cells.shape) < 0.2] = 0.0  # scattered empty cells
    cells[rng.integers(n)] = 0.0  # and an empty slice of axis 0
    return GridDensity(rng.uniform(-1, 1, d), rng.uniform(0.1, 0.4, d), cells)


def _assert_matches_sorted_ramps(grid, u, l):
    """The offsets lie within 1e-10 of a cell width of the sort-based
    reference, and the spread model puts |F(offset) - target| within
    GRID_QUANTILE_TOL."""
    targets = [(i + 1) / (l + 1) for i in range(l)]
    offsets = direction_quantiles(grid, u, l)
    lower, width = _lower_ends(grid, u)
    ref = _sorted_ramps_quantiles(grid, u, targets)
    assert np.abs(offsets - ref).max() <= 1e-10 * width
    _, masses = grid.cell_centers()
    f = np.clip((offsets[:, None] - lower) / width, 0.0, 1.0) @ masses
    assert np.abs(f - targets).max() <= GRID_QUANTILE_TOL


@pytest.mark.parametrize("d, n", [(2, 20), (3, 8), (4, 5), (5, 4), (6, 3)])
def test_grid_quantiles_fuzz_against_sorted_ramps(d, n):
    rng = np.random.default_rng(90 + d)
    for _ in range(8):
        g = _grid_fuzz_grid(rng, d, n)
        axis = np.zeros(d)
        axis[rng.integers(d)] = rng.choice([-1.0, 1.0])
        dirs = rng.standard_normal((2, d))
        for u in [axis] + list(dirs / np.linalg.norm(dirs, axis=1, keepdims=True)):
            for l in (1, 2, 30, 300):
                _assert_matches_sorted_ramps(g, u, l)


def test_grid_quantiles_one_thousand_targets():
    # l = 1000 on a 64^2 grid: every bin holds targets, and one sorted
    # pass solves them all
    g = gaussian_mixture_grid(2, 3, 64, seed=12)
    rng = np.random.default_rng(12)
    for u in (np.array([0.0, -1.0]), rng.standard_normal(2)):
        _assert_matches_sorted_ramps(g, u / np.linalg.norm(u), 1000)


def _grid_membership_reference(grid, u, offsets):
    # each cell's k+1 slab fractions between the k offsets (below and
    # above for one offset), bit for bit what np.diff makes of its
    # fractions below them, in cell widths
    s, start, width = grid.project(u)
    below = np.clip(((offsets - start) / width)[:, None] - s, 0.0, 1.0)
    return np.diff(below, axis=0, prepend=0.0, append=1.0)


@pytest.mark.parametrize("u, k, message", [
    (np.zeros(2), 1, "degenerate"),
    (5.0, 1, r"shape \(2,\), got shape \(\)"),
    ([[1, 0]], 1, r"shape \(2,\), got shape \(1, 2\)"),
    ([1, 0, 0], 1, r"shape \(2,\), got shape \(3,\)"),
    ([1, 0], 0, "l must be >= 1"),
], ids=["zero", "scalar", "row", "too-long", "no-offsets"])
def test_degenerate_direction_rejected(u, k, message):
    pc = PointCloud(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match=message):
        direction_quantiles(pc, u, k)


# -- box tensors -----------------------------------------------------------------

def test_symmetric_gaussian_grid_six_boxes():
    g = _centered_gaussian_grid(256)
    cfg = solver_test_map(g, np.array([1.0, 0.0]),
                          np.array([[0.0, 1.0]]), 2).config
    tensor = box_mass_tensor(g, cfg)
    assert np.abs(tensor - 1 / 6).max() <= 1e-4
    assert abs(tensor.sum() - 1) <= 1e-12


def test_tensor_partition_of_unity():
    rng = np.random.default_rng(1)
    pc = gaussian_mixture_cloud(3, 2, 500, seed=2)
    u, extra = _random_config(rng, 3, 2, 3)
    cfg = solver_test_map(pc, u, extra, 2).config
    assert abs(box_mass_tensor(pc, cfg).sum() - 1) <= 1e-12
    g = gaussian_mixture_grid(2, 2, 64, seed=3)
    u, extra = _random_config(rng, 2, 1, 2)
    cfg = solver_test_map(g, u, extra, 1).config
    assert abs(box_mass_tensor(g, cfg).sum() - 1) <= 1e-12


def test_cloud_tensor_matches_per_point_scan():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((100, 3))
    w = rng.uniform(0.1, 1.0, 100)
    pc = PointCloud(pts, w)
    u, extra = _random_config(rng, 3, 2, 3)
    cfg = solver_test_map(pc, u, extra, 2).config
    got = box_mass_tensor(pc, cfg)
    # oracle: classify every point independently
    expect = np.zeros_like(got)
    for p, wi in zip(pc.points, pc.weights):
        slab = int(np.sum(p @ cfg.u > cfg.parallel_offsets))
        bits = sum(1 << j for j in range(2)
                   if p @ cfg.extra_dirs[j] > cfg.extra_offsets[j])
        expect[slab, bits] += wi
    assert np.array_equal(got, expect)


def test_grid_tensor_matches_per_cell_spread():
    rng = np.random.default_rng(17)
    g = GridDensity([-1.0, 0.5], [0.3, 0.2], rng.uniform(0.1, 1.0, (12, 12)))
    u, extra = _random_config(rng, 2, 2, 3)
    cfg = solver_test_map(g, u, extra, 2).config
    got = box_mass_tensor(g, cfg)
    # oracle: spread every cell uniformly over c.w +- |w|.h/2 on its own
    centers, masses = g.cell_centers()

    def below(c, w, t):
        width = np.abs(w) @ g.spacing
        return min(max((t - (c @ w - width / 2)) / width, 0.0), 1.0)

    expect = np.zeros_like(got)
    for c, mass in zip(centers, masses):
        cuts = [0.0] + [below(c, cfg.u, t) for t in cfg.parallel_offsets] + [1.0]
        for bits in range(4):
            side = mass
            for j in range(2):
                f = below(c, cfg.extra_dirs[j], cfg.extra_offsets[j])
                side *= 1.0 - f if bits >> j & 1 else f
            for slab in range(3):
                expect[slab, bits] += side * (cuts[slab + 1] - cuts[slab])
    assert np.allclose(got, expect, rtol=0.0, atol=1e-14)


# references: the box tensor before it was split into per-direction cuts
# (measures.direction_cut) and their combination; the split keeps every
# operation and its order, so the tensors agree bit for bit

def _classify(points, masses, config):
    l, m = config.l, config.m
    slab = np.searchsorted(config.parallel_offsets, points @ config.u, side="left")
    bits = np.zeros(len(points), dtype=np.int64)
    for j in range(m - 1):
        side = points @ config.extra_dirs[j] > config.extra_offsets[j]
        bits |= side.astype(np.int64) << j
    flat = slab * 2 ** (m - 1) + bits
    tensor = np.bincount(flat, weights=masses, minlength=(l + 1) * 2 ** (m - 1))
    return tensor.reshape(l + 1, 2 ** (m - 1))


def _below_in_cell_widths(grid, w, offsets):
    # each cell's fraction below each offset in cell widths: the offsets'
    # distance from the least lower end minus the cells', both in widths
    centers, _ = grid.cell_centers()
    width = float(np.abs(w) @ grid.spacing)
    proj = centers @ (w / width)
    least = proj.min()
    start = (least - 0.5) * width
    return np.clip(((offsets - start) / width)[:, None] - (proj - least),
                   0.0, 1.0)


def _below_in_space(grid, w, offsets):
    # the same fractions from the lower ends in space, (t - lower) / width
    lower, width = _lower_ends(grid, w)
    return np.clip((offsets[:, None] - lower) / width, 0.0, 1.0)


def _spread_cells(grid, config, fractions_below=_below_in_cell_widths):
    l, m = config.l, config.m
    _, masses = grid.cell_centers()
    below_cut = fractions_below(grid, config.u, config.parallel_offsets)
    slab_frac = np.diff(below_cut, axis=0, prepend=0.0, append=1.0)
    below = [fractions_below(grid, v, np.array([c]))[0]
             for v, c in zip(config.extra_dirs, config.extra_offsets)]
    tensor = np.zeros((l + 1, 2 ** (m - 1)))
    for bits in range(2 ** (m - 1)):
        side = masses.copy()
        for j in range(m - 1):
            side *= (1.0 - below[j]) if bits >> j & 1 else below[j]
        tensor[:, bits] = slab_frac @ side
    return tensor


def _reference_tensor(measure, config):
    if measure.kind == "point_cloud":
        return _classify(measure.points, measure.weights, config)
    return _spread_cells(measure, config)


def _weighted_cloud(d, n, seed):
    rng = np.random.default_rng(seed)
    pts = np.round(rng.standard_normal((n, d)), 1)  # ties exercise the plateaus
    return PointCloud(pts, rng.uniform(0.1, 1.0, n))


SPLIT_MEASURES = {
    "uniform-cloud": lambda: gaussian_mixture_cloud(3, 2, 900, seed=31),
    "weighted-cloud": lambda: _weighted_cloud(3, 700, seed=32),
    "grid-2d": lambda: gaussian_mixture_grid(2, 3, 20, seed=33),
    "grid-3d": lambda: gaussian_mixture_grid(3, 2, 7, seed=34),
}


@pytest.mark.parametrize("kind", sorted(SPLIT_MEASURES))
@pytest.mark.parametrize("m", [2, 3, 4])
def test_split_tensor_matches_reference(kind, m):
    measure = SPLIT_MEASURES[kind]()
    rng = np.random.default_rng(m)
    for l in range(1, 6):
        u, extra = _random_config(rng, measure.dim, l, m)
        cfg = solver_test_map(measure, u, extra, l).config
        tensor = box_mass_tensor(measure, cfg)
        assert np.array_equal(tensor, _reference_tensor(measure, cfg))
        if measure.kind == "grid":  # the fractions from space units
            space = _spread_cells(measure, cfg, _below_in_space)
            assert np.abs(tensor - space).max() <= 1e-12


@pytest.mark.parametrize("kind", sorted(SPLIT_MEASURES))
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("l", [1, 2, 5])
def test_cut_path_matches_verify_path(kind, m, l):
    # the solver's test_map combines memoizable cuts, verify_configuration
    # recomputes the tensor from the configuration: the same bits
    measure = SPLIT_MEASURES[kind]()
    dirs = np.random.default_rng(10 * l + m).standard_normal((m, measure.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dt = solver_test_map(measure, dirs[0], dirs[1:], l)
    assert np.array_equal(box_mass_tensor(measure, dt.config) - rho(l, m), dt.values)


def test_split_tensor_matches_reference_wide_slab_index():
    # l = 300 offsets need a uint16 slab index
    pc = gaussian_mixture_cloud(2, 2, 3000, seed=35)
    u, extra = _random_config(np.random.default_rng(3), 2, 300, 3)
    cfg = solver_test_map(pc, u, extra, 300).config
    _, slab = direction_cut(pc, cfg.u, 300)
    assert slab.dtype == np.uint16 and slab.max() == 300
    assert np.array_equal(box_mass_tensor(pc, cfg), _reference_tensor(pc, cfg))


@pytest.mark.parametrize("l, m", [(255, 1), (256, 1), (63, 3), (64, 3),
                                  (100, 2), (15, 5), (3, 10)])
def test_cloud_box_index_type_boundaries(l, m):
    # the box index is uint8 up to box 255 and uint16 past it, whatever the
    # slab's own type: (255, 1) ends at box 255, (256, 1) at 256; m = 10
    # shifts a side by 8 bits
    pc = gaussian_mixture_cloud(2, 2, 2000, seed=38)
    u, extra = _random_config(np.random.default_rng(l + m), 2, l, m)
    cfg = solver_test_map(pc, u, extra, l).config
    assert np.array_equal(box_mass_tensor(pc, cfg), _reference_tensor(pc, cfg))


@pytest.mark.parametrize("kind", sorted(SPLIT_MEASURES))
def test_direction_cut_offsets_are_the_quantiles(kind):
    measure = SPLIT_MEASURES[kind]()
    u, _ = _random_config(np.random.default_rng(4), measure.dim, 3, 2)
    for k in (1, 3):
        offsets, member = direction_cut(measure, u, k)
        targets = [(i + 1) / (k + 1) for i in range(k)]
        assert np.array_equal(
            offsets, measure.quantile_offsets(measure.project(u), targets))
        assert not offsets.flags.writeable and not member.flags.writeable
        if measure.kind == "point_cloud":
            proj = measure.points @ u
            assert np.array_equal(member, np.searchsorted(offsets, proj))
        else:
            assert member.shape == (k + 1, measure.cells.size)
            assert np.array_equal(
                member, _grid_membership_reference(measure, u, offsets))


# reference: the equal-weight order statistics before the single-kth
# selection, one np.partition with every needed rank as a kth


def _uniform_quantile_offsets_multi_kth(proj, targets):
    n = len(proj)
    # mass below the cut of rank k; argmin keeps the lower rank on ties
    below = np.concatenate(([0.0], np.cumsum(np.full(n, 1 / n))))
    ks = [int(np.argmin(np.abs(below - t))) for t in targets]
    if not all(1 <= k <= n - 1 for k in ks):
        return None
    part = np.partition(proj, sorted({i for k in ks for i in (k - 1, k)}))
    offsets = []
    for k in ks:
        lo, hi = float(part[k - 1]), float(part[k])
        if lo == hi:
            return None
        offsets.append(0.5 * (lo + hi))
    return np.asarray(offsets)


def _assert_same_offsets(proj, l):
    n = len(proj)
    targets = [(i + 1) / (l + 1) for i in range(l)]
    weights = np.full(n, 1.0 / n)
    before = proj.copy()
    got = _uniform_quantile_offsets(proj, np.cumsum(weights), targets)
    assert np.array_equal(proj, before)  # direction_cut reuses proj
    if got is not None:  # a shortcut of the plateau path, never another rule
        assert np.array_equal(
            got, _plateau_quantile_offsets(proj, weights, targets))
    want = _uniform_quantile_offsets_multi_kth(proj, targets)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)
    return got


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 120).flatmap(
    lambda span: st.lists(st.integers(0, span), min_size=1, max_size=100)),
    st.integers(1, 30))
def test_uniform_quantiles_match_multi_kth_reference(values, l):
    # small integer spans tie often, next to the cut and across it;
    # l + 1 > n puts several targets on one rank or on adjacent ranks
    _assert_same_offsets(np.asarray(values, dtype=float), l)


def test_uniform_quantiles_match_multi_kth_reference_wide():
    rng = np.random.default_rng(36)
    assert _assert_same_offsets(rng.standard_normal(2000), 300) is not None
    _assert_same_offsets(np.round(rng.standard_normal(2000), 2), 300)


@pytest.mark.parametrize("n", [3, 5001, 50001])
@pytest.mark.parametrize("l", [1, 3])
def test_odd_count_median_stays_on_order_statistics(n, l):
    # the median of an odd n sits halfway between two ranks; distinct
    # values must not fall back to the plateau path's argsort
    proj = np.random.default_rng(n).standard_normal(n)
    assert _assert_same_offsets(proj, l) is not None


@pytest.mark.parametrize("n,l", [(21, 13), (42, 27), (49, 13)])
def test_shortcut_keeps_the_plateau_rank_where_rounding_misses_halfway(n, l):
    # t = 9/14 (n = 21, 49), 9/28 and 17/28 (n = 42) put t n at k + 1/2,
    # but the rounded t times n misses it: both paths and the reference
    # still rank t by the prefix sums
    proj = np.random.default_rng(n).standard_normal(n)
    assert _assert_same_offsets(proj, l) is not None


@pytest.mark.parametrize("values, offset", [
    ([0, 1, 1, 2, 3, 4], 1.5),  # a tie just below the cut
    ([0, 1, 2, 3, 3, 4], 2.5),  # a tie just above it
], ids=["tie-below", "tie-above"])
def test_tie_next_to_a_cut_stays_on_order_statistics(monkeypatch, values,
                                                      offset):
    # only a tie across the cut changes the plateau CDF's choice
    pc = PointCloud(np.asarray(values, dtype=float)[:, None],
                    np.ones(len(values)))
    proj = pc.points[:, 0]
    assert _plateau_quantile_offsets(proj, pc.weights, [0.5]).tolist() == [
        offset]

    def sorts(*args):
        raise AssertionError("fell back to the plateau path")

    monkeypatch.setattr(measures, "_plateau_quantile_offsets", sorts)
    assert direction_cut(pc, np.array([1.0]), 1)[0].tolist() == [offset]


@pytest.mark.parametrize("k", [1, 2, 5, 300])
def test_cloud_membership_is_left_searchsorted(k):
    # points exactly on an offset, twice on repeated offsets, go below it
    rng = np.random.default_rng(k)
    offsets = np.sort(rng.choice(np.round(rng.uniform(-3, 3, k), 1), k))
    xs = np.concatenate([offsets, rng.uniform(-4, 4, 400),
                         [offsets[0] - 1, offsets[-1] + 1]])
    pc = PointCloud(np.column_stack([xs, rng.standard_normal(len(xs))]),
                    np.ones(len(xs)))
    member = pc.membership(pc.project(np.array([1.0, 0.0])), offsets)
    assert member.dtype == np.min_scalar_type(k)
    assert np.array_equal(member, np.searchsorted(offsets, xs, side="left"))
    assert np.array_equal(pc.membership(xs, offsets), member)


@pytest.mark.parametrize("points", ["distinct", "tied"])
def test_direction_cut_is_independent_of_point_order(points):
    # the benchmark's seed shuffles the cloud and expects the same report
    rng = np.random.default_rng(37)
    cloud = gaussian_mixture_cloud(3, 2, 900, seed=37)
    pts = cloud.points if points == "distinct" else np.round(cloud.points, 1)
    perm = rng.permutation(len(pts))
    base = PointCloud(pts, np.ones(len(pts)))
    shuffled = PointCloud(pts[perm], np.ones(len(pts)))
    u = np.array([1.0, 0.0, 0.0])  # on the tied cloud, the plateau path
    _, extra = _random_config(rng, 3, 3, 3)
    fast = _uniform_quantile_offsets(base.points @ u, np.cumsum(base.weights),
                                     [0.25, 0.5, 0.75])
    assert (fast is None) == (points == "tied")

    def cuts(measure):
        return [direction_cut(measure, w, k) for w in (u, *extra) for k in (1, 3)]

    ref, got = cuts(base), cuts(shuffled)
    for (offsets, member), (got_offsets, got_member) in zip(ref, got):
        assert np.array_equal(got_offsets, offsets)
        assert np.array_equal(got_member, member[perm])

    def tensor(measure, cut):  # cut order: (u, 1), (u, 3), (v1, 1), ...
        return measure.combine(cut[1][1], [cut[2][1], cut[4][1]], 3)

    assert np.array_equal(tensor(shuffled, got), tensor(base, ref))


def test_boundary_point_goes_to_lower_side():
    pc = PointCloud(np.array([[0.0], [1.0], [2.0]]), np.ones(3))
    cfg = Configuration([1.0], np.zeros((0, 1)), np.array([1.0]), [])
    slabs = box_mass_tensor(pc, cfg).ravel()
    assert np.allclose(slabs, [2 / 3, 1 / 3])


def test_equivariance_flip_parallel_direction():
    rng = np.random.default_rng(12)
    pc = gaussian_mixture_cloud(3, 2, 400, seed=5)
    u, extra = _random_config(rng, 3, 2, 3)
    fwd = box_mass_tensor(pc, solver_test_map(pc, u, extra, 2).config)
    rev = box_mass_tensor(pc, solver_test_map(pc, -u, extra, 2).config)
    assert np.allclose(rev, fwd[::-1, :], atol=1e-12)


def _slab_masses(measure, u, l):
    return np.bincount(direction_cut(measure, u, l)[1],
                       weights=measure.weights, minlength=l + 1)


@pytest.mark.parametrize("n", [3, 5, 7, 101, 5001])
def test_halfway_tie_costs_at_most_one_point_per_slab(n):
    # an odd count of equal weights puts the l = 1 target halfway between
    # two cuts, and "the lower on ties" takes the lower one along u and
    # along -u alike: the mirrored slabs may differ by one point, one max
    # weight, which is under the solver's 3 * max weight tolerance floor
    pc = PointCloud(np.random.default_rng(n).standard_normal((n, 2)),
                    np.ones(n))
    u, extra = np.array([0.6, 0.8]), np.array([[0.8, -0.6]])
    fwd = np.bincount(direction_cut(pc, u, 1)[1], minlength=2)
    rev = np.bincount(direction_cut(pc, -u, 1)[1], minlength=2)[::-1]
    assert np.abs(rev - fwd).max() <= 1
    # generator 0 reverses the slabs of the box tensor
    fwd = box_mass_tensor(pc, solver_test_map(pc, u, extra, 1).config)
    rev = box_mass_tensor(pc, solver_test_map(pc, -u, extra, 1).config)
    assert np.all(np.abs(rev[::-1] - fwd).sum(axis=1)
                  <= pc.max_weight * (1 + 1e-12))


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_cut_of_a_tied_lowest_plateau_is_equivariant(l):
    # 60 of 100 equal weights tie at the lowest value: a target nearer 0
    # than 0.6 cuts below them along u, as it cuts above them along -u
    xs = np.concatenate([np.zeros(60), np.arange(1.0, 41.0)])
    pc = PointCloud(np.column_stack([xs, np.linspace(-1, 1, 100)]),
                    np.ones(100))
    u = np.array([1.0, 0.0])
    fwd = _slab_masses(pc, u, l)
    assert np.allclose(_slab_masses(pc, -u, l)[::-1], fwd, atol=1e-12)
    if l == 3:
        assert np.allclose(fwd, [0, 0.6, 0.15, 0.25], atol=1e-12)


def test_plateau_cuts_reach_past_both_end_plateaus():
    # the closest cut to a target may hold every point on one side: it
    # lies 1 below the lowest or 1 above the highest plateau
    xs = [[0.0], [1.0], [2.0]]
    low = direction_quantiles(PointCloud(xs, [0.9, 0.05, 0.05]), [1.0], 9)
    assert np.array_equal(low, [-1.0] * 4 + [0.5] * 5)
    high = direction_quantiles(PointCloud(xs, [0.05, 0.05, 0.9]), [1.0], 9)
    assert np.array_equal(high, [1.5] * 5 + [3.0] * 4)


def test_equivariance_flip_extra_direction():
    rng = np.random.default_rng(13)
    pc = gaussian_mixture_cloud(2, 2, 400, seed=6)
    u, extra = _random_config(rng, 2, 2, 2)
    fwd = box_mass_tensor(pc, solver_test_map(pc, u, extra, 2).config)
    flipped = box_mass_tensor(pc, solver_test_map(pc, u, -extra, 2).config)
    assert np.allclose(flipped, fwd[:, [1, 0]], atol=1e-12)


def test_rigid_rotation_invariance():
    rng = np.random.default_rng(21)
    pc = gaussian_mixture_cloud(3, 2, 300, seed=8)
    u, extra = _random_config(rng, 3, 2, 3)
    base = box_mass_tensor(pc, solver_test_map(pc, u, extra, 2).config)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = PointCloud(pc.points @ q.T, pc.weights)
    rot = box_mass_tensor(
        rotated, solver_test_map(rotated, q @ u, extra @ q.T, 2).config)
    assert np.allclose(rot, base, atol=1e-12)


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration([1.0, 1.0], np.zeros((0, 2)), [], [])  # not unit
    with pytest.raises(ValueError):
        Configuration([1.0, 0.0], np.array([[0.0, 1.0]]), [2.0, 1.0], [0.0])
    cfg = Configuration([1.0, 0.0], np.array([[0.0, 1.0]]), [0.0, 1.0], [0.5])
    back = Configuration.from_dict(cfg.to_dict())
    assert np.array_equal(back.u, cfg.u)
    assert back.l == 2 and back.m == 2


def test_rho():
    assert rho(2, 2) == pytest.approx(1 / 6)
    assert rho(2, 3) == pytest.approx(1 / 12)
    assert rho(6, 3) == pytest.approx(1 / 28)
