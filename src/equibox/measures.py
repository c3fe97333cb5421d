"""Mass distributions in R^d and their box-mass tensors.

Two measure variants: a weighted point cloud and a grid density. Both
are normalized to total mass 1. A candidate partition is a Configuration
(one parallel-family direction with l offsets plus m-1 single
hyperplanes); box_mass_tensor returns the (l+1) x 2^(m-1) mass tensor.

Each variant owns the four steps of a cut, as methods with one protocol:
project(w) projects the measure onto a direction, quantile_offsets(proj,
targets) and membership(proj, offsets) read that projection, and
combine(slab, sides, l) builds the box tensor from the memberships of
the parallel family and of the m-1 single hyperplanes. The functions
below (direction_cut, box_mass_tensor) only chain these steps and never
ask which variant they hold.

Boundary convention for point clouds: a point exactly on a hyperplane
counts toward the lower slab / the 0 side. Ties are measure-zero for
generic data; the convention just makes reruns reproducible.

PointCloud: the projection is p.w. The step CDF generally has no exact
quantile, so an offset is the midpoint of the feasible interval and the
per-slab mass error is bounded by the largest single weight. With equal
weights and no tie next to a cut, the offsets come from order
statistics. A target t has rank ceil(tN - 1/2); halfway between two
ranks (tN = k + 1/2, as at the median of an odd N) the plateau path's
own comparison of two prefix sums picks one. The middle target's rank
is found by one single-kth selection (np.partition with one kth), its
neighbours by a max and a min of the two parts, and the other targets
recurse into the part on their side (_order_stats), O(N log l) in all.
Otherwise the plateau path sorts the projections. A point's membership
is its slab index, the number of offsets strictly below it, one
comparison per offset (for a single hyperplane, its side 0 or 1);
combine sums the weights per box with one bincount.

GridDensity: along a direction w, each cell's mass is spread uniformly
over its projected interval c.w +- |w|.h / 2, and the projection is the
cells' lower ends and that common width. Binning the N lower ends at the
width (at most max n_i bins) gives the CDF exactly at every bin edge,
and between two edges it depends only on the cells of two bins
(ProjectedGridCDF). An offset is the exact root of the linear piece that
holds its target: no global sort and no bisection, and |F(offset) -
target| is rounding, within GRID_QUANTILE_TOL. A cell's membership
against k offsets is its fraction in each of the k+1 slabs they bound,
made once per cut (for a single hyperplane, its fractions below and
above). combine gives a box each cell's mass times its slab fraction
times its fraction on the box's side of every single hyperplane, one
matrix-vector product per box column, so the tensor's slab and halving
sums hold to rounding for every direction.

The box tensor depends on each direction only through the cut it makes
(direction_cut): its k quantile offsets (k = l for the parallel family,
k = 1 for a single hyperplane's median) and the measure's membership
against them, both from one projection. So a caller that keeps cuts (the
solver's memo) recomputes only the directions that changed and combines
the rest. box_mass_tensor takes the membership and combine steps with a
configuration's given offsets.
"""

import json
import warnings

import numpy as np

from equibox import SCHEMA

GRID_QUANTILE_TOL = 1e-12  # bound on |F(offset) - target| of a grid quantile
UNIT_NORM_TOL = 1e-12
GENERATED_VALUES_MAX = 1 << 24  # cloud coordinates or grid cells a generator draws


class MeasureFormatError(ValueError):
    """A measure file failed to parse or violates an invariant."""


def _projections_fit(d, *extremes):
    """True iff 8 * sqrt(d) * max(extremes) is finite (NaN fails). For a
    unit w, |x.w| <= sqrt(d) * max|x|, so that bounds every projection,
    width, difference and midpoint that a cut forms."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(8 * np.sqrt(d) * np.max(extremes)))


def _frozen(a, dtype=float):
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.flags.writeable = False
    return out


class PointCloud:
    """Finitely supported measure: N weighted points in R^d."""

    kind = "point_cloud"
    diff_step = 1e-1  # of the solver's Jacobian: solver module docstring

    def __init__(self, points, weights):
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 2 or points.size == 0:
            raise MeasureFormatError("points must be a nonempty N x d array")
        if weights.shape != (points.shape[0],):
            raise MeasureFormatError("need one weight per point")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise MeasureFormatError("weights must be finite and nonnegative")
        if not _projections_fit(points.shape[1], points.max(), -points.min()):
            raise MeasureFormatError("point coordinates must be finite, with "
                                     "8 * sqrt(d) * max|x| finite")
        total = weights.sum()
        if total <= 0:
            raise MeasureFormatError("total mass must be positive")
        self.points = _frozen(points)
        self.weights = _frozen(weights / total)
        # the weights are frozen: one test here, not one per cut
        self._equal_weights = bool(self.weights.min() == self.weights.max())

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def max_weight(self):
        return float(self.weights.max())

    def project(self, w):
        return self.points @ w

    def quantile_offsets(self, proj, targets):
        """Midpoint-of-feasible-interval quantiles of the weighted step CDF
        along the projections proj."""
        if self._equal_weights:
            fast = _uniform_quantile_offsets(proj, self.weights, targets)
            if fast is not None:
                return fast
        return _plateau_quantile_offsets(proj, self.weights, targets)

    def membership(self, proj, offsets):
        """Slab index, the number of offsets strictly below p.w, counted
        with one comparison per offset and stored as
        np.min_scalar_type(k); it equals searchsorted(offsets, p.w, "left"),
        and for one offset it is the side, 1 strictly above it."""
        slab = np.zeros(len(proj), dtype=np.min_scalar_type(len(offsets)))
        for c in offsets:
            slab += proj > c
        return slab

    def combine(self, slab, sides, l):
        """A point goes to box (slab, sum side_j << j), an index built in the
        least unsigned type that holds the last box: the memoized
        memberships are uint8/uint16 slab indices (0/1 for a side), and
        widening them to intp on every evaluation cost more than the
        bincount."""
        m = len(sides) + 1
        flat = slab.astype(np.min_scalar_type(((l + 1) << (m - 1)) - 1))
        flat <<= m - 1
        for j, side in enumerate(sides):
            flat |= np.left_shift(side, j, dtype=flat.dtype)
        tensor = np.bincount(flat, weights=self.weights,
                             minlength=(l + 1) << (m - 1))
        return tensor.reshape(l + 1, 1 << (m - 1))


class GridDensity:
    """Axis-aligned grid of cell masses (density * cell volume)."""

    kind = "grid"
    diff_step = 1e-2  # of the solver's Jacobian: solver module docstring

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
        with np.errstate(over="ignore", invalid="ignore"):
            # NaN passes the test above; a huge spacing overflows here
            corner = origin + spacing * cells.shape
        # every cell lies between the origin and the far corner
        if not _projections_fit(d, np.abs((origin, corner)).max()):
            raise MeasureFormatError("origin and origin + spacing * shape "
                                     "must be finite, with 8 * sqrt(d) * "
                                     "max|x| finite")
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

    def project(self, w):
        """Lower ends (N,) and common width of the cells' projections onto
        w, in cell_centers order."""
        centers, _ = self.cell_centers()
        width = float(np.abs(w) @ self.spacing)
        lower = centers @ w
        lower -= 0.5 * width
        return lower, width

    def quantile_offsets(self, proj, targets):
        return ProjectedGridCDF(self, *proj).quantiles(targets)

    def membership(self, proj, offsets):
        """(k+1, N): each cell's fraction in each of the k+1 slabs of the
        k offsets; for one offset, its fractions below and above it.

        The slab fractions are filled in place in the one array returned:
        row i first holds the clipped fraction below offset i+1; then slab
        k becomes 1 minus the fraction below offset k, and each slab i >= 1
        the fraction below offset i+1 minus that below offset i, from the
        top down so that every row is read before it is overwritten. That is
        np.diff(below, prepend=0, append=1) bit for bit, without a second
        (k, N) array."""
        lower, width = proj
        k = len(offsets)
        frac = np.empty((k + 1, len(lower)))
        below = frac[:k]
        np.subtract.outer(offsets, lower, out=below)
        below /= width
        np.clip(below, 0.0, 1.0, out=below)
        frac[k] = 1.0 - frac[k - 1]
        for i in range(k - 1, 0, -1):
            frac[i] -= frac[i - 1]
        return frac

    def combine(self, slab, sides, l):
        """A cell gives each box its mass times its fraction in the slab
        times its fraction on the box's side of every hyperplane. slab is
        the parallel cut's membership, l+1 slab fractions per cell; sides[j]
        is single hyperplane j's, its fractions below and above."""
        m = len(sides) + 1
        _, masses = self.cell_centers()
        tensor = np.empty((l + 1, 1 << (m - 1)))
        for bits in range(1 << (m - 1)):
            side = masses.copy()
            for j, fracs in enumerate(sides):
                side *= fracs[bits >> j & 1]
            tensor[:, bits] = slab @ side
        return tensor


def rho(l, m):
    """Uniform target mass of a single box."""
    return 1.0 / ((l + 1) * 2 ** (m - 1))


# -- file formats --------------------------------------------------------


def load_measure(path):
    """Read a measure file: a point cloud CSV if the name ends in .csv,
    else a grid JSON."""
    path = str(path)
    if path.endswith(".csv"):
        return _load_cloud_csv(path)
    return _load_grid_json(path)


def _load_cloud_csv(path):
    # numpy warns of a file with no rows, which is refused below instead
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        line = fh.readline()
        if not line:
            raise MeasureFormatError("empty CSV file")
        header = [h.strip() for h in line.split(",")]
        d = len(header) - 1
        if d < 1 or header != ["x%d" % (i + 1) for i in range(d)] + ["w"]:
            raise MeasureFormatError(
                "CSV header must be x1,...,xd,w; got %r" % (header,)
            )
        try:
            data = np.loadtxt(fh, delimiter=",", quotechar='"',
                              comments=None, ndmin=2)
        except ValueError as exc:
            raise MeasureFormatError("bad CSV row: %s" % exc) from None
    if len(data) == 0:
        raise MeasureFormatError("CSV contains no points")
    if data.shape[1] != d + 1:
        raise MeasureFormatError("CSV rows must have %d fields, got %d"
                                 % (d + 1, data.shape[1]))
    return PointCloud(data[:, :d], data[:, d])


def write_cloud_csv(path, cloud):
    """One row per point, each value as %.17g; lines end in CRLF."""
    header = ",".join(["x%d" % (i + 1) for i in range(cloud.dim)] + ["w"])
    np.savetxt(path, np.column_stack((cloud.points, cloud.weights)),
               fmt="%.17g", delimiter=",", newline="\r\n", header=header,
               comments="")


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
        "schema": SCHEMA,
        "dim": grid.dim,
        "origin": list(grid.origin),
        "spacing": list(grid.spacing),
        "shape": list(grid.cells.shape),
        "data": grid.cells.ravel().tolist(),
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


# -- seeded generators ----------------------------------------------------


def _seeded_rng(seed):
    if seed < 0:
        raise MeasureFormatError("seed must be >= 0, got %d" % seed)
    return np.random.default_rng(seed)


def _mixture_params(d, components, rng):
    if d < 1:
        raise MeasureFormatError("dimension d must be at least 1, got %d" % d)
    if components < 1:
        raise MeasureFormatError(
            "components must be at least 1, got %d" % components)
    if components * d > GENERATED_VALUES_MAX:
        raise MeasureFormatError(
            "mixture would exceed the size guard: components * d = %d means, "
            "at most %d" % (components * d, GENERATED_VALUES_MAX))
    means = rng.uniform(-1.5, 1.5, size=(components, d))
    sigmas = rng.uniform(0.6, 1.1, size=components)
    weights = rng.uniform(0.5, 1.5, size=components)
    return means, sigmas, weights / weights.sum()


def gaussian_mixture_cloud(d, components, n, seed):
    """Point cloud sampled from a seeded isotropic Gaussian mixture."""
    if n < 1:
        raise MeasureFormatError("point count n must be at least 1, got %d" % n)
    if n * d > GENERATED_VALUES_MAX:
        raise MeasureFormatError(
            "cloud would exceed the size guard: n * d = %d coordinates, "
            "at most %d" % (n * d, GENERATED_VALUES_MAX))
    rng = _seeded_rng(seed)
    means, sigmas, weights = _mixture_params(d, components, rng)
    which = rng.choice(components, size=n, p=weights)
    pts = means[which] + sigmas[which, None] * rng.standard_normal((n, d))
    return PointCloud(pts, np.full(n, 1.0 / n))


def gaussian_mixture_grid(d, components, cells_per_axis, seed):
    """Grid discretization of the same seeded mixture (window: 3.5 sigma)."""
    if cells_per_axis < 2:
        raise MeasureFormatError(
            "grid cells per axis must be at least 2, got %d" % cells_per_axis)
    cells = cells_per_axis ** d
    if cells > GENERATED_VALUES_MAX:
        raise MeasureFormatError("grid would exceed the cell-count guard")
    if components * cells > GENERATED_VALUES_MAX:
        # the density sums one pass over the cells per component
        raise MeasureFormatError(
            "grid would exceed the size guard: components * cells = %d "
            "density terms, at most %d"
            % (components * cells, GENERATED_VALUES_MAX))
    rng = _seeded_rng(seed)
    means, sigmas, weights = _mixture_params(d, components, rng)
    lo = (means - 3.5 * sigmas[:, None]).min(axis=0)
    hi = (means + 3.5 * sigmas[:, None]).max(axis=0)
    spacing = (hi - lo) / cells_per_axis
    # axis i spans dimension i of the grid; broadcasting forms the sums
    axes = [(lo[i] + (np.arange(cells_per_axis) + 0.5) * spacing[i])
            .reshape((-1,) + (1,) * (d - 1 - i)) for i in range(d)]
    density = np.zeros((cells_per_axis,) * d)
    for mu, sig, w in zip(means, sigmas, weights):
        sq = sum((axes[i] - mu[i]) ** 2 for i in range(d))
        density += w * np.exp(-sq / (2 * sig * sig)) / (2 * np.pi * sig * sig) ** (d / 2)
    return GridDensity(lo, spacing, density)


# -- configurations -------------------------------------------------------


def _float_field(name, value):
    """A configuration field as a float array; a value that is not a number
    or a (nested) list of numbers, such as a JSON object, is a ValueError
    that names the field."""
    try:
        return np.asarray(value, dtype=float)
    except TypeError:
        raise ValueError("%s must hold only numbers" % name) from None


class Configuration:
    """One parallel family (direction u, l sorted offsets) plus m-1 single
    hyperplanes (directions and offsets)."""

    def __init__(self, u, extra_dirs, parallel_offsets, extra_offsets):
        u = _float_field("u", u)
        extra_dirs = _float_field("extra_dirs", extra_dirs)
        parallel_offsets = _float_field("parallel_offsets", parallel_offsets)
        extra_offsets = _float_field("extra_offsets", extra_offsets)
        if not all(np.all(np.isfinite(a)) for a in
                   (u, extra_dirs, parallel_offsets, extra_offsets)):
            raise ValueError("configuration values must be finite")
        if u.ndim != 1:
            raise ValueError("u must be a 1-D direction vector")
        if parallel_offsets.ndim != 1 or parallel_offsets.shape[0] < 1:
            raise ValueError("parallel_offsets must be a nonempty 1-D list")
        if extra_dirs.ndim != 2 or extra_dirs.shape[1] != u.shape[0]:
            raise ValueError("extra_dirs must be (m-1) x d")
        if extra_offsets.shape != (extra_dirs.shape[0],):
            raise ValueError(
                "extra_offsets must be a 1-D list, one per extra hyperplane")
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


def _uniform_quantile_offsets(proj, weights, targets):
    """Order-statistics shortcut for equal weights; None if the cut lands
    in a run of tied values (caller falls back to the plateau path).

    With s = sorted(proj), target rank k takes the midpoint of s[k-1] and
    s[k], unless s[k-2] == s[k-1] or s[k] == s[k+1]: a tie adjacent to
    the cut makes the plateau CDF differ. Target t has rank ceil(t n - 1/2);
    halfway, at t n = k + 1/2, the plateau path's own comparison of the
    prefix sums cw decides between k and k + 1."""
    n = len(proj)
    ks = []
    for t in targets:
        frac = t * n - 0.5
        k = int(np.ceil(frac))
        if frac == k:
            cw = np.cumsum(weights[:k + 1])
            if not (k >= 1 and t - cw[k - 1] <= cw[k] - t):
                k += 1
        if not 1 <= k <= n - 1:
            return None
        ks.append(k)
    mids = {}
    if not _order_stats(proj.copy(), sorted(set(ks)), 0, None, mids):
        return None
    return np.asarray([mids[k] for k in ks])


def _order_stats(a, ks, base, below, out):
    """Store the midpoint of s[k-1] and s[k] in out[k] for every rank k in
    ks, one single-kth selection (quickselect) per rank; False, leaving out
    incomplete, as soon as some k has s[k-1] == s[k], s[k-2] == s[k-1] or
    s[k] == s[k+1].

    a holds s[base:base+len(a)] in any order and is partitioned in place;
    ks is sorted, with base <= k < base + len(a), and below is s[base-1].
    The middle rank splits a, and the ranks on each side recurse into
    their part, O(len(a) log len(ks)) in all. A tie across an end of a
    part needs no look past it: the pivot s[p] at that end was already
    checked against s[p-1] and s[p+1]."""
    mid = len(ks) // 2
    k = ks[mid] - base
    a.partition(k)
    hi = a[k]
    lo = a[:k].max() if k else below
    if (lo == hi
            or k >= 2 and np.count_nonzero(a[:k] == lo) >= 2
            or k + 1 < len(a) and a[k + 1:].min() == hi):
        return False
    out[base + k] = 0.5 * (float(lo) + float(hi))
    return ((mid == 0 or _order_stats(a[:k], ks[:mid], base, below, out))
            and (mid + 1 == len(ks)
                 or _order_stats(a[k + 1:], ks[mid + 1:], base + k + 1, hi,
                                 out)))


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
        else:
            offsets.append(0.5 * (float(vals[j]) + float(vals[j + 1])))
    return np.asarray(offsets)


class ProjectedGridCDF:
    """Continuous CDF of a grid measure whose cells are spread uniformly
    over the projected intervals [lower, lower + width] (GridDensity.project).

    In the unit s = (t - start) / width, start the least lower end, cell i
    starts at s_i = b_i + f_i, in the bin b_i = floor(s_i), 0 <= f_i < 1. All
    cells share the width, so at s = e + x (0 <= x < 1) the cells of the
    bins below e - 1 lie wholly below t, those above e wholly above, and

        F = C_e - sum_(b_i = e-1) m_i (f_i - x)+ + sum_(b_i = e) m_i (x - f_i)+

    with C_e the mass of the bins below e. There are at most max n_i bins,
    so two bincounts (mass and mass * f) and a prefix sum give F exactly at
    every bin edge, with no sort of the N lower ends. A target is bracketed
    between two edges by one searchsorted; between them F is piecewise
    linear with a breakpoint at the f of each cell of bins e - 1 and e, and
    those few cells alone are sorted to solve the target's linear piece
    exactly (_bin_root). Bins, fractions and masses come from one set of
    arrays, so a cell that rounding puts in a neighbouring bin still counts
    once."""

    def __init__(self, grid, lower, width):
        _, self.masses = grid.cell_centers()
        self.start, self.width = float(lower.min()), width
        s = lower - self.start  # in place below: a temporary per step of
        s /= width              # N values costs page faults, not flops
        self.bins = s.astype(np.intp)  # s >= 0, so this is the floor
        s -= self.bins
        self.frac = s
        mass = np.bincount(self.bins, weights=self.masses)
        frac_moment = np.bincount(self.bins, weights=self.masses * s)
        self.mass_below = np.concatenate(([0.0], np.cumsum(mass)))  # C_e
        self.edge_values = self.mass_below - np.concatenate(([0.0], frac_moment))

    # stays because perfbench/layers.py:44 counts its calls (count_calls)
    def value(self, t):
        """F(t) from the spread model itself: each cell's mass times its
        fraction below t, the ramp GridDensity.membership also applies."""
        x = (t - self.start) / self.width - (self.bins + self.frac)
        return float(self.masses @ np.clip(x, 0.0, 1.0))

    def quantiles(self, targets):
        """The least t with F(t) = target, for each target in (0, 1)."""
        last = len(self.mass_below) - 1
        # F(edge e) < target <= F(edge e + 1)
        edges = np.clip(np.searchsorted(self.edge_values, targets) - 1, 0, last)
        near = np.zeros(last, dtype=bool)
        near[edges[edges > 0] - 1] = True
        near[edges[edges < last]] = True
        cells = np.flatnonzero(near[self.bins])
        bins, frac, masses = self.bins[cells], self.frac[cells], self.masses[cells]
        offsets = np.empty(len(edges))
        for i, (target, e) in enumerate(zip(targets, edges)):
            upper = bins == e
            local = upper | (bins == e - 1)
            x = _bin_root(frac[local], masses[local], upper[local],
                          target - self.mass_below[e])
            offsets[i] = self.start + (e + x) * self.width
        return offsets


def _bin_root(frac, masses, upper, r):
    """Least x in [0, 1] with G(x) = r, where G(x) is the sum over the
    upper cells of m (x - f)+ minus the sum over the others of m (f - x)+.

    Between its sorted breakpoints f, G(x) = M x - S: M is the mass of the
    upper cells already started and of the others not yet ended, and S
    their sum of m f. The first piece whose right end reaches r holds the
    root; a flat piece (M = 0) holds it only at its left end."""
    order = np.argsort(frac)
    xs = np.concatenate(([0.0], frac[order], [1.0]))
    step = np.where(upper, masses, -masses)[order]  # jump of M at each f
    ends = ~upper
    slope = np.cumsum(np.concatenate(([masses[ends].sum()], step)))
    moment = np.cumsum(np.concatenate(([masses[ends] @ frac[ends]],
                                       step * xs[1:-1])))
    k = min(int(np.searchsorted(slope * xs[1:] - moment, r)), len(slope) - 1)
    x = (r + moment[k]) / slope[k] if slope[k] > 0 else xs[k]
    return min(max(x, xs[k]), xs[k + 1])


def _quantile_targets(l):
    if l < 1:
        raise ValueError("l must be >= 1")
    return [(i + 1) / (l + 1) for i in range(l)]


# stays because perfbench/layers.py:42 wraps it (measures.quantiles)
def direction_quantiles(measure, u, l):
    """Offsets t_1 <= ... <= t_l splitting the measure into l+1 equal slabs
    along u (up to the backend's quantile tolerance): direction_cut's."""
    return direction_cut(measure, u, l)[0]


# -- box masses --------------------------------------------------------------


def direction_cut(measure, w, k):
    """The cut direction w makes: the offsets of its k-quantile family
    and every unit's membership against them (measure.membership). The
    measure is projected onto w once, for both steps. A box tensor depends
    on a direction only through its cut, and k = 1 is also a single
    hyperplane's median cut. Both arrays are read-only, so that a cut can
    be shared."""
    w = _check_direction(w, measure.dim)
    proj = measure.project(w)
    offsets = measure.quantile_offsets(proj, _quantile_targets(k))
    member = measure.membership(proj, offsets)
    offsets.flags.writeable = member.flags.writeable = False
    return offsets, member


def box_mass_tensor(measure, config):
    """Mass of every box of the configuration.

    Point clouds are classified exactly (boundary to the lower/0 side).
    Grid cells are spread over their projected intervals, the model the
    quantile CDF uses: a box gets each cell's mass times the cell's
    fraction between the box's hyperplanes.
    """
    if config.dim != measure.dim:
        raise ValueError("configuration dimension does not match measure")
    slab = measure.membership(measure.project(config.u), config.parallel_offsets)
    sides = [measure.membership(measure.project(v), c)
             for v, c in zip(config.extra_dirs, config.extra_offsets[:, None])]
    return measure.combine(slab, sides, config.l)

