"""Mass distributions in R^d and their box-mass tensors.

Two measure variants: a weighted point cloud and a grid density. Both
are normalized to total mass 1. A candidate partition is a Configuration
(one parallel-family direction with l offsets plus m-1 single
hyperplanes); box_mass_tensor returns the (l+1) x 2^(m-1) mass tensor.

Boundary convention for point clouds: a point exactly on a hyperplane
counts toward the lower slab / the 0 side. Ties are measure-zero for
generic data; the convention just makes reruns reproducible.

Quantile backends differ by variant. Point clouds have a step CDF, so
an exact quantile generally does not exist: the offset is the midpoint
of the feasible interval and the per-slab mass error is bounded by the
largest single weight.

Grids have one model: along a direction w, each cell's mass is spread
uniformly over its projected interval c.w +- |w|.h / 2 (_cell_intervals).
Every cell's interval has the same width |w|.h, so the quantile CDF needs
one sort of the N lower ends and two prefix sums over them (mass and
mass times lower end); it is continuous, so offsets are found by
bisection to |mass error| <= 1e-10. A box takes from each cell its mass
times its fractions between the box's hyperplanes, so the tensor's slab
and halving sums hold to that tolerance for every direction.
"""

import csv
import json

import numpy as np

GRID_QUANTILE_TOL = 1e-10
UNIT_NORM_TOL = 1e-12


class MeasureFormatError(ValueError):
    """A measure file failed to parse or violates an invariant."""


def _frozen(a, dtype=float):
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.flags.writeable = False
    return out


class PointCloud:
    """Finitely supported measure: N weighted points in R^d."""

    kind = "point_cloud"

    def __init__(self, points, weights):
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise MeasureFormatError("points must be a nonempty N x d array")
        if weights.shape != (points.shape[0],):
            raise MeasureFormatError("need one weight per point")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise MeasureFormatError("weights must be finite and nonnegative")
        if not np.all(np.isfinite(points)):
            raise MeasureFormatError("point coordinates must be finite")
        total = weights.sum()
        if total <= 0:
            raise MeasureFormatError("total mass must be positive")
        self.points = _frozen(points)
        self.weights = _frozen(weights / total)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def max_weight(self):
        return float(self.weights.max())


class GridDensity:
    """Axis-aligned grid of cell masses (density * cell volume)."""

    kind = "grid"

    def __init__(self, origin, spacing, cells):
        origin = np.asarray(origin, dtype=float)
        spacing = np.asarray(spacing, dtype=float)
        cells = np.asarray(cells, dtype=float)
        d = cells.ndim
        if d == 0:
            raise MeasureFormatError("grid needs at least one axis")
        if origin.shape != (d,) or spacing.shape != (d,):
            raise MeasureFormatError("origin/spacing must match grid dimension")
        if np.any(spacing <= 0):
            raise MeasureFormatError("spacing must be positive")
        if any(n < 2 for n in cells.shape):
            raise MeasureFormatError("grid needs at least 2 cells per axis")
        if np.any(cells < 0) or not np.all(np.isfinite(cells)):
            raise MeasureFormatError("densities must be finite and nonnegative")
        total = cells.sum()
        if total <= 0:
            raise MeasureFormatError("total mass must be positive")
        self.origin = _frozen(origin)
        self.spacing = _frozen(spacing)
        self.cells = _frozen(cells / total)
        self._flat = None

    @property
    def dim(self):
        return self.cells.ndim

    def cell_centers(self):
        """(N, d) cell centers and (N,) masses, cached after first use."""
        if self._flat is None:
            axes = [
                self.origin[i] + (np.arange(n) + 0.5) * self.spacing[i]
                for i, n in enumerate(self.cells.shape)
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            centers = np.stack([m.reshape(-1) for m in mesh], axis=1)
            self._flat = (_frozen(centers), _frozen(self.cells.reshape(-1)))
        return self._flat


def rho(l, m):
    """Uniform target mass of a single box."""
    return 1.0 / ((l + 1) * 2 ** (m - 1))


# -- file formats --------------------------------------------------------


def load_measure(path, fmt=None):
    """Read a measure file; fmt "csv"/"json" or inferred from the suffix."""
    path = str(path)
    if fmt is None:
        fmt = "csv" if path.endswith(".csv") else "json"
    if fmt == "csv":
        return _load_cloud_csv(path)
    if fmt == "json":
        return _load_grid_json(path)
    raise MeasureFormatError("unknown measure format %r" % (fmt,))


def _load_cloud_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MeasureFormatError("empty CSV file") from None
        header = [h.strip() for h in header]
        d = len(header) - 1
        if d < 1 or header != ["x%d" % (i + 1) for i in range(d)] + ["w"]:
            raise MeasureFormatError(
                "CSV header must be x1,...,xd,w; got %r" % (header,)
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise MeasureFormatError("line %d: expected %d fields" % (lineno, d + 1))
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                raise MeasureFormatError("line %d: non-numeric field" % lineno) from None
    if not rows:
        raise MeasureFormatError("CSV contains no points")
    data = np.asarray(rows)
    return PointCloud(data[:, :d], data[:, d])


def write_cloud_csv(path, cloud):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x%d" % (i + 1) for i in range(cloud.dim)] + ["w"])
        for p, w in zip(cloud.points, cloud.weights):
            writer.writerow(["%.17g" % x for x in p] + ["%.17g" % w])


def _load_grid_json(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeasureFormatError("invalid JSON: %s" % exc) from None
    try:
        dim = int(obj["dim"])
        shape = [int(n) for n in obj["shape"]]
        if len(shape) != dim:
            raise MeasureFormatError("shape rank disagrees with dim")
        data = np.asarray(obj["data"], dtype=float).reshape(shape)
        return GridDensity(obj["origin"], obj["spacing"], data)
    except MeasureFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasureFormatError("bad grid JSON: %s" % exc) from None


def write_grid_json(path, grid):
    obj = {
        "schema": "equibox/1",
        "dim": grid.dim,
        "origin": list(grid.origin),
        "spacing": list(grid.spacing),
        "shape": list(grid.cells.shape),
        "data": [float(x) for x in grid.cells.reshape(-1)],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


# -- seeded generators ----------------------------------------------------


def _mixture_params(d, components, rng):
    if d < 1:
        raise MeasureFormatError("dimension d must be at least 1, got %d" % d)
    if components < 1:
        raise MeasureFormatError(
            "components must be at least 1, got %d" % components)
    means = rng.uniform(-1.5, 1.5, size=(components, d))
    sigmas = rng.uniform(0.6, 1.1, size=components)
    weights = rng.uniform(0.5, 1.5, size=components)
    return means, sigmas, weights / weights.sum()


def gaussian_mixture_cloud(d, components, n, seed):
    """Point cloud sampled from a seeded isotropic Gaussian mixture."""
    if n < 1:
        raise MeasureFormatError("point count n must be at least 1, got %d" % n)
    rng = np.random.default_rng(seed)
    means, sigmas, weights = _mixture_params(d, components, rng)
    which = rng.choice(components, size=n, p=weights)
    pts = means[which] + sigmas[which, None] * rng.standard_normal((n, d))
    return PointCloud(pts, np.full(n, 1.0 / n))


def gaussian_mixture_grid(d, components, cells_per_axis, seed):
    """Grid discretization of the same seeded mixture (window: 3.5 sigma)."""
    if cells_per_axis < 1:
        raise MeasureFormatError(
            "grid cells per axis must be at least 1, got %d" % cells_per_axis)
    if cells_per_axis ** d > 1 << 24:
        raise MeasureFormatError("grid would exceed the cell-count guard")
    rng = np.random.default_rng(seed)
    means, sigmas, weights = _mixture_params(d, components, rng)
    lo = (means - 3.5 * sigmas[:, None]).min(axis=0)
    hi = (means + 3.5 * sigmas[:, None]).max(axis=0)
    spacing = (hi - lo) / cells_per_axis
    axes = [lo[i] + (np.arange(cells_per_axis) + 0.5) * spacing[i] for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    density = np.zeros(mesh[0].shape)
    for mu, sig, w in zip(means, sigmas, weights):
        sq = sum((mesh[i] - mu[i]) ** 2 for i in range(d))
        density += w * np.exp(-sq / (2 * sig * sig)) / (2 * np.pi * sig * sig) ** (d / 2)
    return GridDensity(lo, spacing, density)


# -- configurations -------------------------------------------------------


class Configuration:
    """One parallel family (direction u, l sorted offsets) plus m-1 single
    hyperplanes (directions and offsets)."""

    def __init__(self, u, extra_dirs, parallel_offsets, extra_offsets):
        u = np.asarray(u, dtype=float)
        extra_dirs = np.asarray(extra_dirs, dtype=float)
        parallel_offsets = np.asarray(parallel_offsets, dtype=float)
        extra_offsets = np.asarray(extra_offsets, dtype=float)
        if not all(np.all(np.isfinite(a)) for a in
                   (u, extra_dirs, parallel_offsets, extra_offsets)):
            raise ValueError("configuration values must be finite")
        if extra_dirs.ndim != 2 or extra_dirs.shape[1] != u.shape[0]:
            raise ValueError("extra_dirs must be (m-1) x d")
        if extra_offsets.shape != (extra_dirs.shape[0],):
            raise ValueError("need one offset per extra hyperplane")
        for v in (u, *extra_dirs):
            if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
                raise ValueError("direction vectors must have unit length")
        if np.any(np.diff(parallel_offsets) < 0):
            raise ValueError("parallel offsets must be nondecreasing")
        self.u = _frozen(u)
        self.extra_dirs = _frozen(extra_dirs)
        self.parallel_offsets = _frozen(parallel_offsets)
        self.extra_offsets = _frozen(extra_offsets)

    @property
    def dim(self):
        return self.u.shape[0]

    @property
    def l(self):
        return self.parallel_offsets.shape[0]

    @property
    def m(self):
        return 1 + self.extra_dirs.shape[0]

    def to_dict(self):
        return {
            "u": list(self.u),
            "extra_dirs": [list(v) for v in self.extra_dirs],
            "parallel_offsets": list(self.parallel_offsets),
            "extra_offsets": list(self.extra_offsets),
        }

    @classmethod
    def from_dict(cls, obj):
        keys = ("u", "extra_dirs", "parallel_offsets", "extra_offsets")
        if not isinstance(obj, dict):
            raise ValueError("configuration must be a JSON object")
        missing = [k for k in keys if k not in obj]
        if missing:
            raise ValueError("configuration lacks %s" % ", ".join(missing))
        return cls(*(obj[k] for k in keys))


# -- directional quantiles -------------------------------------------------


def _check_direction(u, d):
    u = np.asarray(u, dtype=float)
    if u.shape != (d,):
        raise ValueError("direction has dimension %d, measure has %d" % (u.shape[0], d))
    if np.linalg.norm(u) < 1e-15:
        raise ValueError("degenerate (zero) direction")
    return u


def _uniform_quantile_offsets(proj, targets):
    """Order-statistics shortcut for equal weights; None if the cut lands
    in a run of tied values (caller falls back to the plateau path)."""
    n = len(proj)
    ks = []
    kths = set()
    for t in targets:
        frac = t * n - 0.5
        if frac == np.floor(frac):
            return None  # exact tie between neighbor plateaus
        k = int(np.ceil(frac))
        if not 1 <= k <= n - 1:
            return None
        ks.append(k)
        kths.update(i for i in (k - 2, k - 1, k, k + 1) if 0 <= i < n)
    part = np.partition(proj, sorted(kths))
    offsets = []
    for t, k in zip(targets, ks):
        lo, hi = float(part[k - 1]), float(part[k])
        if lo == hi:
            return None
        if (k >= 2 and part[k - 2] == part[k - 1]) or (
            k + 1 < n and part[k] == part[k + 1]
        ):
            return None  # tie adjacent to the cut: plateau CDF differs
        offsets.append(0.5 * (lo + hi))
    return np.asarray(offsets)


def _cloud_quantile_offsets(proj, weights, targets):
    """Midpoint-of-feasible-interval quantiles of a weighted step CDF."""
    if weights[0] == weights.min() == weights.max():
        fast = _uniform_quantile_offsets(proj, targets)
        if fast is not None:
            return fast
    return _plateau_quantile_offsets(proj, weights, targets)


def _plateau_quantile_offsets(proj, weights, targets):
    order = np.argsort(proj)
    sp = proj[order]
    cw = np.cumsum(weights[order])
    run_end = np.nonzero(sp[1:] != sp[:-1])[0]
    first = np.concatenate(([0], run_end + 1))
    last = np.concatenate((run_end, [len(sp) - 1]))
    vals = sp[first]
    # CDF plateau values: cumulative weight through the last tie of each value
    cdf = cw[last]
    offsets = []
    for t in targets:
        j = int(np.searchsorted(cdf, t, side="left"))
        # plateau j-1 has cdf < t, plateau j has cdf >= t; pick the closer
        err_hi = cdf[j] - t if j < len(vals) else 1.0 - t
        err_lo = t - (cdf[j - 1] if j > 0 else 0.0)
        if j > 0 and err_lo <= err_hi:
            j -= 1
        if j >= len(vals) - 1:
            offsets.append(float(vals[-1]) + 1.0)
        elif j < 0:
            offsets.append(float(vals[0]) - 1.0)
        else:
            offsets.append(0.5 * (float(vals[j]) + float(vals[j + 1])))
    return np.asarray(offsets)


def _cell_intervals(grid, w):
    """Lower ends (N,) and common width of the cells' projections onto w,
    in cell_centers order."""
    centers, _ = grid.cell_centers()
    width = float(np.abs(w) @ grid.spacing)
    return centers @ w - 0.5 * width, width


class ProjectedGridCDF:
    """Continuous CDF of a grid measure projected onto a direction.

    Each cell's mass is spread uniformly over its projected interval
    [a, a + w] (_cell_intervals). All cells share the width w, so a cell
    lies wholly below t iff a <= t - w and partly below t iff
    t - w < a <= t. One sort of the lower ends a and two prefix sums over
    that order, M of mass and S of mass * a, then give

        F(t) = M(t - w) + [t (M(t) - M(t - w)) - (S(t) - S(t - w))] / w,

    which is piecewise linear and strictly increasing across the support,
    so bisection can hit any target mass."""

    def __init__(self, grid, u):
        _, masses = grid.cell_centers()
        a, self.width = _cell_intervals(grid, u)
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
            if abs(f - target) <= GRID_QUANTILE_TOL:
                return mid
            if f < target:
                lo = mid
            else:
                hi = mid
        raise RuntimeError("quantile bisection failed to reach tolerance")


def direction_quantiles(measure, u, l):
    """Offsets t_1 <= ... <= t_l splitting the measure into l+1 equal slabs
    along u (up to the backend's quantile tolerance)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    u = _check_direction(u, measure.dim)
    targets = [(i + 1) / (l + 1) for i in range(l)]
    if measure.kind == "point_cloud":
        return _cloud_quantile_offsets(measure.points @ u, measure.weights, targets)
    cdf = ProjectedGridCDF(measure, u)
    return np.asarray([cdf.quantile(t) for t in targets])


# -- box masses --------------------------------------------------------------


def _classify(points, masses, config):
    """Accumulate masses into the (l+1) x 2^(m-1) box tensor."""
    l, m = config.l, config.m
    slab = np.searchsorted(config.parallel_offsets, points @ config.u, side="left")
    bits = np.zeros(len(points), dtype=np.int64)
    for j in range(m - 1):
        side = points @ config.extra_dirs[j] > config.extra_offsets[j]
        bits |= side.astype(np.int64) << j
    flat = slab * 2 ** (m - 1) + bits
    tensor = np.bincount(flat, weights=masses, minlength=(l + 1) * 2 ** (m - 1))
    return tensor.reshape(l + 1, 2 ** (m - 1))


def _spread_cells(grid, config):
    """Box tensor of a grid: every cell adds its mass times its fraction
    in the slab times its fraction on each side of every extra hyperplane,
    all read off the cells' projected intervals."""
    l, m = config.l, config.m
    _, masses = grid.cell_centers()
    a, width = _cell_intervals(grid, config.u)
    below_cut = np.clip((config.parallel_offsets[:, None] - a) / width, 0.0, 1.0)
    slab_frac = np.diff(below_cut, axis=0, prepend=0.0, append=1.0)
    below = []
    for v, c in zip(config.extra_dirs, config.extra_offsets):
        lo, v_width = _cell_intervals(grid, v)
        below.append(np.clip((c - lo) / v_width, 0.0, 1.0))
    tensor = np.zeros((l + 1, 2 ** (m - 1)))
    for bits in range(2 ** (m - 1)):
        side = masses.copy()
        for j in range(m - 1):
            side *= (1.0 - below[j]) if bits >> j & 1 else below[j]
        tensor[:, bits] = slab_frac @ side
    return tensor


def box_mass_tensor(measure, config):
    """Mass of every box of the configuration.

    Point clouds are classified exactly (boundary to the lower/0 side).
    Grid cells are spread over their projected intervals, the model the
    quantile CDF uses: a box gets each cell's mass times the cell's
    fraction between the box's hyperplanes.
    """
    if config.dim != measure.dim:
        raise ValueError("configuration dimension does not match measure")
    if measure.kind == "point_cloud":
        return _classify(measure.points, measure.weights, config)
    return _spread_cells(measure, config)


def complete_configuration(measure, u, extra_dirs, l):
    """Configuration with offsets from quantiles (parallel) and medians."""
    u = _check_direction(u, measure.dim)
    parallel = direction_quantiles(measure, u, l)
    extra_offsets = [
        float(direction_quantiles(measure, v, 1)[0]) for v in extra_dirs
    ]
    return Configuration(u, np.atleast_2d(extra_dirs), parallel, extra_offsets)
