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

Files: a name that ends in .csv holds a point cloud and any other name a
grid JSON (names_cloud), for reading and for the CLI's gen-measure. A CSV
is parsed in one pass; a refused row is named by its file line, counted
as numpy takes the lines (_load_cloud_csv).

Coordinates are stored by column: PointCloud.points and
GridDensity.cell_centers()'s centers are (N, d) column-major (Fortran
order) and read-only, so a projection, the (N, d) array times w, runs
BLAS's column kernel, about half the time of its row kernel at 50,000 x
4 (single-threaded as well). The cost is one copy of a row-major input
when a cloud is built; a CSV's coordinates are a column slice of the
parsed rows and are copied either way, and gaussian_mixture_cloud draws
its points column-major. The column kernel may round a point's
projection one ulp apart depending on its row, so a cut, and a solve
report, is reproducible for a given file and point order; another order
of the same points can move an offset's last bits.

PointCloud: the projection is p.w. The step CDF generally has no exact
quantile. Its plateaus are the distinct projected values, and a cut lies
midway between two of them, or 1 below the lowest or 1 above the
highest. One rule picks the cut for a target (_closest_cuts): the cut
whose mass below is closest to it, the lower on ties. With distinct
projections the per-slab mass error is bounded by the largest single
weight. The slabs along -u are those along u reversed, but where a
target lies halfway between two cuts: the lower cut is taken both ways,
so the cut along -u sits one plateau past the mirror of the cut along u.
With distinct projections that plateau is one point, so a slab and its
mirror differ by at most the largest weight per cut so tied (one point
per slab at l = 1), below the solver's tolerance floor of 3 * max
weight. With equal weights each point is its own plateau, so the rule
ranks the targets against the prefix sums of the weights, which the
cloud keeps, and the offsets come from order
statistics: the middle target's rank is found by one single-kth
selection (np.partition with one kth), the value below it by a max of
the lower part, and the other targets recurse into the part on their
side (_order_stats), O(N log l) in all. Only a cut between two tied
values falls back to the plateau path, which sorts the projections: the
plateau cuts are a subset of the per-point cuts, with the same masses
below, so a per-point choice that is a plateau cut is the plateau
path's choice too. A point's membership is its slab index, the number
of offsets strictly below it, one comparison per offset (for a single
hyperplane, its side 0 or 1); combine builds the box index in place and
sums the weights per box with one bincount.

GridDensity: along a direction w, each cell's mass is spread uniformly
over its projected interval c.w +- |w|.h / 2, and every cell's interval
has the one width |w|.h. A grid cut works in that cell width as its
unit: the projection is s = c.(w / width), shifted so that its least
value is 0, with the origin and the width that map it back to space, so
a cell's interval is [s, s + 1]. Binning s at unit width (at most max
n_i bins) gives the CDF exactly at every bin edge, and between two edges
it depends only on the cells of two bins (ProjectedGridCDF). All
targets are then solved in one sorted pass over the ramps of those
cells: an offset is the exact root of the linear piece that holds its
target, with no global sort and no bisection, and |F(offset) - target|
is rounding, within GRID_QUANTILE_TOL. A cell's membership against k
offsets is its fraction in each of the k+1 slabs they bound, the
offsets in cell widths minus s, clipped, made once per cut (for a
single hyperplane, its fractions below and above). combine gives a box
each cell's mass times its slab fraction times its fraction on the
box's side of every single hyperplane, one matrix-vector product per
box column, so the tensor's slab and halving sums hold to rounding for
every direction.

The box tensor depends on each direction only through the cut it makes
(direction_cut): its k quantile offsets (k = l for the parallel family,
k = 1 for a single hyperplane's median) and the measure's membership
against them, both from one projection. So a caller that keeps cuts (the
solver's memo) recomputes only the directions that changed and combines
the rest. box_mass_tensor takes the membership and combine steps with a
configuration's given offsets.
"""

import itertools
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


def _frozen(a, order="C"):
    """A read-only float view of a, copied only if a is not already float
    in that order; the caller's own array stays writeable."""
    out = np.asarray(a, dtype=float, order=order).view()
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
        # by column: points @ w runs BLAS's column kernel (module docstring)
        self.points = _frozen(points, order="F")
        self.weights = _frozen(weights / total)
        # the weights are frozen: one test here, not one per cut; equal
        # weights rank a cut's targets against their prefix sums
        self._prefix = (_frozen(np.cumsum(self.weights))
                        if self.weights.min() == self.weights.max() else None)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def max_weight(self):
        return float(self.weights.max())

    def project(self, w):
        return self.points @ w

    def quantile_offsets(self, proj, targets):
        """The closest cuts (_closest_cuts) of the weighted step CDF along
        the projections proj."""
        if self._prefix is not None:
            fast = _uniform_quantile_offsets(proj, self._prefix, targets)
            if fast is not None:
                return fast
        return _plateau_quantile_offsets(proj, self.weights, targets)

    def membership(self, proj, offsets):
        """Slab index, the number of offsets strictly below p.w, counted
        with one comparison per offset and stored as
        np.min_scalar_type(k); it equals searchsorted(offsets, p.w, "left"),
        and for one offset it is the side, 1 strictly above it."""
        slab = (proj > offsets[0]).astype(np.min_scalar_type(len(offsets)))
        for c in offsets[1:]:
            slab += proj > c
        return slab

    def combine(self, slab, sides, l):
        """A point goes to box (slab, sum side_j << j), an index built in the
        least unsigned type that holds the last box: the memoized
        memberships are uint8/uint16 slab indices (0/1 for a side), and
        widening them to intp on every evaluation cost more than the
        bincount. The index is built in place: slab * 2^(m-1) in the index
        type, then each side * 2^j ORed in (side 0 as it is). A product
        is the shift's bits, and numpy's uint8 multiply runs several times
        faster than its uint8 left_shift."""
        m = len(sides) + 1
        flat = np.multiply(slab, 1 << (m - 1),
                           dtype=np.min_scalar_type(((l + 1) << (m - 1)) - 1))
        for j, side in enumerate(sides):
            # in the index type, which holds 2^j; a uint8 side does not
            # from j = 8 on
            flat |= np.multiply(side, 1 << j, dtype=flat.dtype) if j else side
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
        """(N, d) cell centers, stored by column as a cloud's points are,
        and (N,) masses, cached after first use."""
        if self._flat is None:
            axes = [
                self.origin[i] + (np.arange(n) + 0.5) * self.spacing[i]
                for i, n in enumerate(self.cells.shape)
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            centers = np.stack([m.reshape(-1) for m in mesh]).T
            centers.flags.writeable = False
            self._flat = (centers, _frozen(self.cells.reshape(-1)))
        return self._flat

    def project(self, w):
        """(s, start, width): every cell's projection onto w in cell
        widths, s = c.(w / width) shifted so that its least value is 0,
        in cell_centers order; cell i spreads over [s_i, s_i + 1], which is
        start + width * [s_i, s_i + 1] in space."""
        centers, _ = self.cell_centers()
        width = float(np.abs(w) @ self.spacing)
        s = centers @ (w / width)
        least = s.min()
        s -= least
        return s, (least - 0.5) * width, width

    def quantile_offsets(self, proj, targets):
        s, start, width = proj
        return start + width * ProjectedGridCDF(self, s).quantiles(targets)

    def membership(self, proj, offsets):
        """(k+1, N): each cell's fraction in each of the k+1 slabs of the
        k offsets; for one offset, its fractions below and above it.

        The offsets are put in cell widths, so a cell's fraction below one
        is that minus s, clipped, with no division per cell. The slab
        fractions are filled in place in the one array returned: row i
        first holds the fraction below offset i+1; then slab k becomes 1
        minus the fraction below offset k, and each slab i >= 1 the
        fraction below offset i+1 minus that below offset i, from the top
        down so that every row is read before it is overwritten. That is
        np.diff(below, prepend=0, append=1) bit for bit, without a second
        (k, N) array."""
        s, start, width = proj
        k = len(offsets)
        frac = np.empty((k + 1, len(s)))
        below = frac[:k]
        np.subtract.outer((offsets - start) / width, s, out=below)
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


def names_cloud(path):
    """True iff path names a point-cloud CSV, a name that ends in .csv; any
    other name holds a grid JSON. load_measure reads by this rule, and the
    CLI's gen-measure writes by it."""
    return str(path).endswith(".csv")


def load_measure(path):
    """Read a measure file: a point cloud CSV if names_cloud(path), else a
    grid JSON."""
    if names_cloud(path):
        return _load_cloud_csv(path)
    return _load_grid_json(path)


def _load_cloud_csv(path):
    """One pass over the file: numpy reads the rows from an iterator that
    counts the lines it hands out, the header being line 1. numpy takes
    one line at a time and stops at the row it refuses, so the count names
    that row's file line (for a row whose quoted field spans lines, its
    last line); numpy's own row count skips the header and blank lines."""
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
        taken = itertools.count(2)
        try:
            data = _csv_rows(line for line, _ in zip(fh, taken))
        except ValueError as exc:
            # numpy's message ends in its own row count, not the file line
            reason = str(exc).partition(" at row ")[0]
            raise MeasureFormatError("bad CSV line %d: %s"
                                     % (next(taken) - 1, reason)) from None
    if len(data) == 0:
        raise MeasureFormatError("CSV contains no points")
    if data.shape[1] != d + 1:
        raise MeasureFormatError("CSV rows must have %d fields, got %d"
                                 % (d + 1, data.shape[1]))
    return PointCloud(data[:, :d], data[:, d])


def _csv_rows(lines):
    # blank lines are skipped, fields may be padded or quoted, '#' is data
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                      ndmin=2)


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


def _check_mixture(d, components, seed):
    if seed < 0:
        raise MeasureFormatError("seed must be >= 0, got %d" % seed)
    if d < 1:
        raise MeasureFormatError("dimension d must be at least 1, got %d" % d)
    if components < 1:
        raise MeasureFormatError(
            "components must be at least 1, got %d" % components)
    if components * d > GENERATED_VALUES_MAX:
        raise MeasureFormatError(
            "mixture would exceed the size guard: components * d = %d means, "
            "at most %d" % (components * d, GENERATED_VALUES_MAX))


def _mixture_params(d, components, rng):
    means = rng.uniform(-1.5, 1.5, size=(components, d))
    sigmas = rng.uniform(0.6, 1.1, size=components)
    weights = rng.uniform(0.5, 1.5, size=components)
    return means, sigmas, weights / weights.sum()


def check_cloud_args(d, components, n, seed):
    """Refuse, before anything is drawn, what gaussian_mixture_cloud
    refuses, in the same order."""
    if n < 1:
        raise MeasureFormatError("point count n must be at least 1, got %d" % n)
    if n * d > GENERATED_VALUES_MAX:
        raise MeasureFormatError(
            "cloud would exceed the size guard: n * d = %d coordinates, "
            "at most %d" % (n * d, GENERATED_VALUES_MAX))
    _check_mixture(d, components, seed)


def gaussian_mixture_cloud(d, components, n, seed):
    """Point cloud sampled from a seeded isotropic Gaussian mixture."""
    check_cloud_args(d, components, n, seed)
    rng = np.random.default_rng(seed)
    means, sigmas, weights = _mixture_params(d, components, rng)
    which = rng.choice(components, size=n, p=weights)
    # summed by column, the layout PointCloud keeps: no copy there
    pts = np.add(means[which], sigmas[which, None] * rng.standard_normal((n, d)),
                 order="F")
    return PointCloud(pts, np.full(n, 1.0 / n))


def check_grid_args(d, components, cells_per_axis, seed):
    """Refuse, before anything is drawn, what gaussian_mixture_grid
    refuses, in the same order."""
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
    _check_mixture(d, components, seed)


def gaussian_mixture_grid(d, components, cells_per_axis, seed):
    """Grid discretization of the same seeded mixture (window: 3.5 sigma)."""
    check_grid_args(d, components, cells_per_axis, seed)
    rng = np.random.default_rng(seed)
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
        raise ValueError("direction must have shape (%d,), got shape %s"
                         % (d, u.shape))
    if np.linalg.norm(u) < 1e-15:
        raise ValueError("degenerate (zero) direction")
    return u


def _closest_cuts(cdf, targets):
    """For each target, the number c of plateaus below its cut, cdf being
    the plateaus' cumulative masses: of the last cut whose mass below (0
    at c = 0, else cdf[c-1]) is under the target and the first at or
    above it, the closer, the lower on ties.

    The lower on ties is not mirror-symmetric: at a target halfway between
    two cuts, the cut along -u sits one plateau past the mirror of the cut
    along u. With distinct projections that moves one point, at most the
    largest weight, below the solver's 3 * max weight tolerance floor."""
    cuts = []
    # cdf[c-1] < t <= cdf[c]; for a cut's few targets, scalar steps cost
    # less than array ones
    for t, c in zip(targets, np.searchsorted(cdf, targets).tolist()):
        if c < len(cdf) and t - (cdf[c - 1] if c else 0.0) > cdf[c] - t:
            c += 1
        cuts.append(c)
    return cuts


def _uniform_quantile_offsets(proj, prefix, targets):
    """Order-statistics shortcut for equal weights, whose prefix sums are
    prefix; None if a cut lies outside the points or between two tied
    values (caller falls back to the plateau path).

    With s = sorted(proj), a target's rank k is its _closest_cuts against
    prefix, and k takes the midpoint of s[k-1] and s[k]. The plateau
    CDF's cuts are the k with s[k-1] < s[k], each with the same mass below
    (a cumsum of equal weights does not depend on their order), so a
    closest k with s[k-1] < s[k] is the plateau path's closest cut too."""
    ks = _closest_cuts(prefix, targets)
    if min(ks) < 1 or max(ks) >= len(proj):
        return None
    mids = {}
    if not _order_stats(proj.copy(), sorted(set(ks)), 0, None, mids):
        return None
    return np.asarray([mids[k] for k in ks])


def _order_stats(a, ks, base, below, out):
    """Store the midpoint of s[k-1] and s[k] in out[k] for every rank k in
    ks, one single-kth selection (quickselect) and one max per rank; False,
    leaving out incomplete, as soon as some k has s[k-1] == s[k].

    a holds s[base:base+len(a)] in any order and is partitioned in place;
    ks is sorted, with base <= k < base + len(a), and below is s[base-1].
    The middle rank splits a, and the ranks on each side recurse into
    their part, O(len(a) log len(ks)) in all."""
    mid = len(ks) // 2
    k = ks[mid] - base
    a.partition(k)
    hi = a[k]
    lo = a[:k].max() if k else below
    if lo == hi:
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
    last = np.concatenate((run_end, [len(sp) - 1]))
    vals = sp[last]  # the plateaus; cw[last] is the mass through each
    # the cut above c plateaus lies 1 below the lowest at c = 0, 1 above
    # the highest at the last c, else midway between two plateaus
    cuts = np.concatenate(([vals[0] - 1.0], 0.5 * (vals[:-1] + vals[1:]),
                           [vals[-1] + 1.0]))
    return cuts[_closest_cuts(cw[last], targets)]


class ProjectedGridCDF:
    """Continuous CDF, in cell widths, of a grid measure whose cells are
    spread uniformly over the unit intervals [s_i, s_i + 1]
    (GridDensity.project): F(x) = sum_i m_i clip(x - s_i, 0, 1).

    Cell i lies in the bin b_i = floor(s_i), at f_i = s_i - b_i. On
    [e, e + 1] the cells of the bins below e - 1 lie wholly below x, those
    above e wholly above, so F there depends only on the cells of bins
    e - 1 and e. At the edge e, F = C_e - sum_(b_i = e-1) m_i f_i, C_e the
    mass of the bins below e: there are at most max n_i bins, so two
    bincounts (mass and mass * f) and a prefix sum give F exactly at every
    edge, with no sort of the N values of s. Bins and fractions come from
    one array, so a cell that rounding puts in a neighbouring bin still
    counts once."""

    def __init__(self, grid, s):
        _, self.masses = grid.cell_centers()
        self.s = s
        self.bins = s.astype(np.intp)  # s >= 0, so this is the floor
        cell_moment = s - self.bins  # f, then mass * f, in place
        cell_moment *= self.masses
        self.bin_mass = np.bincount(self.bins, weights=self.masses)
        bin_moment = np.bincount(self.bins, weights=cell_moment)
        self.edge_values = np.concatenate(
            ([0.0], np.cumsum(self.bin_mass) - bin_moment))

    # stays because perfbench/layers.py:44 counts its calls (count_calls)
    def value(self, x):
        """F(x) from the spread model itself: each cell's mass times its
        fraction below x, the ramp GridDensity.membership also applies."""
        return float(self.masses @ np.clip(x - self.s, 0.0, 1.0))

    def quantiles(self, targets):
        """The least x with F(x) = target, for each target in (0, 1), all
        in one sorted pass.

        Each target is bracketed between two bin edges, F(e) < target <=
        F(e + 1), and the cells of its bins e - 1 and e are taken. Their
        ramps, each +m from s and -m from s + 1, are sorted once; a
        cumulative slope and a cumulative integral then give F of the
        taken cells alone, piecewise linear between the sorted breaks. On
        [e, e + 1] every cell not taken lies wholly below or wholly above,
        so F is that plus the mass of the cells not taken below e, and the
        first break where it reaches a target closes the target's exact
        linear piece. A flat piece never closes it, so on a flat stretch
        the least root is the stretch's left end."""
        last = len(self.bin_mass)
        edges = np.clip(np.searchsorted(self.edge_values, targets) - 1, 0, last)
        near = np.zeros(last, dtype=bool)
        near[edges[edges > 0] - 1] = True
        near[edges[edges < last]] = True
        cells = np.flatnonzero(near[self.bins])
        s, masses = self.s[cells], self.masses[cells]
        breaks = np.concatenate((s, s + 1.0))
        order = np.argsort(breaks, kind="stable")
        breaks = breaks[order]
        slope = np.cumsum(np.concatenate((masses, -masses))[order])
        # F of the taken cells at each break
        rise = np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(breaks))))
        far_below = np.concatenate(
            ([0.0], np.cumsum(np.where(near, 0.0, self.bin_mass))))
        r = targets - far_below[edges]
        # rise[k] < r <= rise[k + 1], a piece of positive slope
        k = np.clip(np.searchsorted(rise, r) - 1, 0, len(breaks) - 2)
        step = np.divide(r - rise[k], slope[k], out=np.zeros(len(k)),
                         where=slope[k] > 0)
        return np.clip(breaks[k] + step, edges, edges + 1)


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

