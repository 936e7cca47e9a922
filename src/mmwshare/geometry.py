"""Point-process sampling and deployment transforms.

Deployments hold realized site positions plus each site's occupant set.
Sampling functions are pure in (inputs, seed): the same seed always
reproduces the same realization, and distinct blocks/replications use
explicitly spawned RNG streams so parallel use is order-independent.
Fixed-radius neighbour searches (the co-location merge and
``clustered_thinning``) share one uniform-grid helper, ``near_pairs``, so
the module needs NumPy alone.  Site files are read once, front to back,
in blocks of lines; the first block refused hands itself and the rest of
the file to a row loop, the one source of errors.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import BlockModel, ConfigError, DataError, OperatorSet, TwoOpSpec, Window


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass(frozen=True, eq=False)
class Deployment:
    """Realized sites in a window.

    xy is an (n, 2) float array of positions in meters; occupants an (n,)
    uint16 array of occupant bitmasks (non-empty).  link_los, when
    present, labels each site LOS/NLOS as seen from one particular user
    position (see thin_blockage).
    """

    window: Window
    xy: np.ndarray
    occupants: np.ndarray
    link_los: np.ndarray | None = None

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=np.float64).reshape(-1, 2)
        occ = np.asarray(self.occupants, dtype=np.uint16).reshape(-1)
        if xy.shape[0] != occ.shape[0]:
            raise DataError(f"{xy.shape[0]} positions but {occ.shape[0]} occupant sets")
        if occ.size and int(occ.min()) == 0:
            raise DataError("every site needs a non-empty occupant set")
        inside = self.window.contains(xy[:, 0], xy[:, 1])
        if occ.size and not bool(np.all(inside)):
            k = int(np.flatnonzero(~inside)[0])
            raise DataError(f"site {k} at ({xy[k, 0]}, {xy[k, 1]}) lies outside the window")
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "occupants", occ)
        if self.link_los is not None:
            los = np.asarray(self.link_los).reshape(-1)
            if los.shape[0] != occ.shape[0]:
                raise DataError(f"link_los length {los.shape[0]} != site count {occ.shape[0]}")
            object.__setattr__(self, "link_los", los)

    @property
    def n_sites(self) -> int:
        return int(self.occupants.shape[0])

    def operator_mask(self, m: int) -> np.ndarray:
        """Boolean mask of sites whose occupants contain operator m."""
        bit = OperatorSet.of(m).bits
        return (self.occupants & np.uint16(bit)) != 0

    def operators(self) -> tuple[int, ...]:
        """Ascending operator indices present anywhere in the deployment."""
        if self.n_sites == 0:
            return ()
        union = int(np.bitwise_or.reduce(self.occupants))
        return OperatorSet(union).operators

    def keep(self, mask: np.ndarray) -> "Deployment":
        """Deployment restricted to sites where mask is True."""
        return Deployment(
            self.window,
            self.xy[mask],
            self.occupants[mask],
            None if self.link_los is None else self.link_los[mask],
        )


def _uniform_in_window(rng: np.random.Generator, window: Window, n: int) -> np.ndarray:
    xy = np.empty((n, 2))
    xy[:, 0] = rng.uniform(window.x_min, window.x_max, n)
    xy[:, 1] = rng.uniform(window.y_min, window.y_max, n)
    return xy


# A density given per km^2 instead of per m^2 inflates the sample a
# million-fold; fail with a message instead of letting the OOM killer
# end the process.
_MAX_EXPECTED_POINTS = 2.0e7


def _guard_point_budget(mean: float, where: str) -> None:
    """ConfigError when ``mean`` expected points, counted ``where``, exceed the budget."""
    if mean > _MAX_EXPECTED_POINTS:
        raise ConfigError(
            f"expected point count {mean:.3g} {where} exceeds the sampling budget "
            f"{_MAX_EXPECTED_POINTS:.0e}; densities are per square meter "
            "(divide per-km^2 values by 1e6)"
        )


def sample_block_model(model: BlockModel, seed) -> Deployment:
    """One realization: independent Poisson count + uniform positions per block.

    Each block gets its own spawned RNG stream (in bitmask order), so a
    block's realization does not depend on the other blocks' densities.
    """
    root = _as_seed_sequence(seed)
    blocks = model.blocks(include_zero=True)
    streams = root.spawn(len(blocks))
    area = model.window.area()
    _guard_point_budget(sum(lam for _, lam in blocks) * area, "in the window")
    parts_xy = []
    parts_occ = []
    for (subset, lam), stream in zip(blocks, streams):
        rng = np.random.default_rng(stream)
        n = int(rng.poisson(lam * area))
        if n == 0:
            continue
        parts_xy.append(_uniform_in_window(rng, model.window, n))
        parts_occ.append(np.full(n, subset.bits, dtype=np.uint16))
    if parts_xy:
        xy = np.concatenate(parts_xy)
        occ = np.concatenate(parts_occ)
    else:
        xy = np.empty((0, 2))
        occ = np.empty(0, dtype=np.uint16)
    return Deployment(model.window, xy, occ)


def couple_two_operators(spec: TwoOpSpec, window: Window, seed) -> Deployment:
    """Sample the coupled two-operator construction.

    A mother PPP of density lambda_total is marked with IID uniforms U;
    operator 1 takes sites with U <= a, operator 2 takes sites with U > b.
    For b <= a no site is left unclaimed, and the shared process has
    density (a-b)*lambda_total.
    """
    rng = np.random.default_rng(seed)
    _guard_point_budget(spec.lambda_total * window.area(), "in the window")
    n = int(rng.poisson(spec.lambda_total * window.area()))
    xy = _uniform_in_window(rng, window, n)
    u = rng.random(n)
    occ = np.where(u <= spec.retain_a, 1, 0) | np.where(u > spec.retain_b, 2, 0)
    keep = occ > 0  # vacuous when b <= a, kept as a guard
    return Deployment(window, xy[keep], occ[keep].astype(np.uint16))


def thin_blockage(dep: Deployment, origin: tuple[float, float], beta: float, seed) -> Deployment:
    """Label every site LOS/NLOS as seen from ``origin``.

    A site at distance d is LOS with probability exp(-beta*d), independently
    of the others.  The labels are valid for this origin only.
    """
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    rng = np.random.default_rng(seed)
    d = np.hypot(dep.xy[:, 0] - origin[0], dep.xy[:, 1] - origin[1])
    return replace(dep, link_los=rng.random(dep.n_sites) < np.exp(-beta * d))


def press(dep: Deployment, target_density: float, operator: int | None = None) -> Deployment:
    """Affine density-matching rescale about the window center.

    Scales coordinates and window by s = sqrt(current/target), where
    current is the density of the selected operator (or of all distinct
    sites when operator is None).  Occupant sets are untouched, so every
    count ratio -- in particular the overlap -- is preserved exactly.
    """
    if not (math.isfinite(target_density) and target_density > 0):
        raise ConfigError(f"target density must be positive, got {target_density}")
    if operator is None:
        count = dep.n_sites
    else:
        count = int(dep.operator_mask(operator).sum())
    if count == 0:
        raise DataError("no sites for the selected operator; cannot press")
    current = count / dep.window.area()
    s = math.sqrt(current / target_density)
    cx, cy = dep.window.center()
    xy = (dep.xy - (cx, cy)) * s + (cx, cy)
    return Deployment(dep.window.scaled(s), xy, dep.occupants.copy())


def clustered_thinning(dep: Deployment, parent_density: float, keep_radius: float,
                       seed) -> Deployment:
    """Cox-style perturbation: keep only sites near random cluster centers.

    Centers form a PPP of ``parent_density`` over the window; a site
    survives iff it lies within ``keep_radius`` of some center.  Occupant
    sets ride along untouched, so subset count *ratios* are preserved in
    expectation while the surviving pattern is clustered (non-Poisson).
    Useful for studying estimator behavior off the Poisson assumption.
    """
    if parent_density <= 0 or keep_radius <= 0:
        raise ConfigError("parent_density and keep_radius must be positive")
    rng = np.random.default_rng(seed)
    n_centers = int(rng.poisson(parent_density * dep.window.area()))
    if n_centers == 0 or dep.n_sites == 0:
        return dep.keep(np.zeros(dep.n_sites, dtype=bool))
    centers = _uniform_in_window(rng, dep.window, n_centers)
    site, _, d2 = near_pairs(dep.xy, keep_radius, centers)
    keep = np.zeros(dep.n_sites, dtype=bool)
    # the comparison a KD-tree query's returned distance would get
    keep[site[np.sqrt(d2) <= keep_radius]] = True
    return dep.keep(keep)


# ---------------------------------------------------------------------------
# Fixed-radius neighbour search on a uniform grid (Bentley, Stanat and
# Williams, 1977): hash points to square cells no narrower than the radius,
# then compare each point with the points of its own and adjacent cells.

# Cells are wider than r by this factor, so floor rounding never puts two
# points within r of each other two cells apart.  The rounding of a cell
# index is below 4 ulp times the cell count per axis, which
# _MAX_CELLS_PER_AXIS holds to 2**-22, a quarter of the slack.
_CELL_SLACK = 2.0**-20
_MAX_CELLS_PER_AXIS = 2**28
# A radius that is wrong by orders of magnitude would build pairs until
# memory runs out; refuse once the candidates are counted instead.
MAX_NEAR_PAIRS = 4_000_000


def near_pairs(xy: np.ndarray, r: float,
               other: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs for a search within radius r: (i, j, squared distance).

    ``xy`` and ``other`` are (n, 2) float arrays.  With ``other`` None the
    pairs are of rows of ``xy`` with each other, each unordered pair once;
    otherwise row i of ``xy`` is paired with row j of ``other``.  Candidates are the points of adjacent grid cells, so
    every pair within r is among them however its distance rounds; the
    squared distance ``dx*dx + dy*dy`` lets each caller apply its own test.
    Raises ConfigError when the candidates would exceed MAX_NEAR_PAIRS.
    """
    if not (math.isfinite(r) and r > 0):
        raise ConfigError(f"search radius must be positive and finite, got {r!r}")
    ref = xy if other is None else other
    n = xy.shape[0]
    if n == 0 or ref.shape[0] == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0)
    both = xy if other is None else np.concatenate((xy, ref))
    x, y = both[:, 0], both[:, 1]
    x0, y0 = x.min(), y.min()
    side = max(r * (1.0 + _CELL_SLACK), max(x.max() - x0, y.max() - y0) / _MAX_CELLS_PER_AXIS)
    cy = ((y - y0) / side).astype(np.int64)  # floor, since y - y0 >= 0
    # Column-major cell keys.  The spare row per column keeps cy +- 1 from
    # wrapping into the next column, and makes the three cells of a column
    # that neighbour a point one run of keys: key - 1 .. key + 1.
    width = int(cy.max()) + 2
    keys = ((x - x0) / side).astype(np.int64) * width + cy
    qkey, rkey = (keys, keys) if other is None else (keys[:n], keys[n:])
    rorder = np.argsort(rkey)
    rsorted = rkey[rorder]
    if other is None:
        # own column forward of this point, then the next column
        qorder, qsorted = rorder, rsorted
        lo = [np.arange(1, n + 1), np.searchsorted(rsorted, qsorted + (width - 1))]
        hi = [np.searchsorted(rsorted, qsorted + 1, side="right"),
              np.searchsorted(rsorted, qsorted + (width + 1), side="right")]
    else:
        qorder = np.argsort(qkey)
        qsorted = qkey[qorder]
        lo = [np.searchsorted(rsorted, qsorted + (c * width - 1)) for c in (-1, 0, 1)]
        hi = [np.searchsorted(rsorted, qsorted + (c * width + 1), side="right")
              for c in (-1, 0, 1)]
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    count = hi - lo
    total = int(count.sum())
    if total > MAX_NEAR_PAIRS:
        raise ConfigError(
            f"a search radius of {r!r} m gives {total} candidate pairs, more than "
            f"{MAX_NEAR_PAIRS}; check the radius and its units (meters)"
        )
    starts = np.cumsum(count) - count
    q = np.repeat(np.arange(count.size) % n, count)
    j = np.arange(total) + np.repeat(lo - starts, count)
    i, j = qorder[q], rorder[j]
    dx = xy[i, 0] - ref[j, 0]
    dy = xy[i, 1] - ref[j, 1]
    return i, j, dx * dx + dy * dy


# ---------------------------------------------------------------------------
# CSV interchange

CSV_HEADER = ("site_id", "x_m", "y_m", "operators")
_WINDOW_COMMENT = "# window_m"
# Rows turned into Python values at a time, which bounds the writer's memory,
# and lines the reader parses at a time, which bounds its own.
_WRITE_BLOCK_ROWS = 4096
_READ_BLOCK_ROWS = 4096
# site_id is never read, so one character of it spares a string per row
_ROW_DTYPE = np.dtype([("site_id", "U1"), ("x", "f8"), ("y", "f8"), ("operators", "O")])


def write_deployment_csv(dep: Deployment, path: str | Path) -> None:
    """Write `site_id,x_m,y_m,operators` rows.

    A leading comment line records the window so round-trips preserve the
    observation area (readers without it fall back to a bounding box).
    """
    path = Path(path)
    w = dep.window
    ops = {b: OperatorSet(b).to_text() for b in np.unique(dep.occupants).tolist()}
    with path.open("w", newline="") as fh:
        fh.write(
            f"{_WINDOW_COMMENT},{float(w.x_min)!r},{float(w.x_max)!r},"
            f"{float(w.y_min)!r},{float(w.y_max)!r}\n"
        )
        fh.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, dep.n_sites, _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            fh.writelines(
                f"{i},{x!r},{y!r},{ops[b]}\n"
                for i, (x, y), b in zip(range(start, stop), dep.xy[start:stop].tolist(),
                                        dep.occupants[start:stop].tolist())
            )


def _read_window_comment(path: Path, line: str) -> Window:
    parts = line.rstrip("\r\n").split(",")
    if len(parts) != 5:
        raise DataError(f"{path}: malformed window comment line")
    try:
        bounds = [float(p) for p in parts[1:]]
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"bounds must be finite, got {bounds}")
        return Window(*bounds)
    except ValueError as exc:  # also the ConfigError of an empty window
        raise DataError(f"{path}: bad window comment: {exc}") from exc


def read_deployment_csv(path: str | Path) -> Deployment:
    """Read a deployment CSV (schema of write_deployment_csv).

    The window is the optional window comment line's, else the sites'
    bounding box (padded to positive area).
    Blank rows are skipped and do not count in the row numbers of errors.
    The file is read once, front to back, in blocks of lines; the first
    block refused hands itself and the rest of the file to a row loop,
    which alone decides what a bad or unusual row reads as, and its errors.
    """
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read deployment file {path}: {exc}") from exc
    with fh:
        xy, occ, window = _read_rows(path, fh)
    xy = np.frombuffer(xy, dtype=np.float64).reshape(-1, 2)
    if window is None:
        if not occ:
            raise DataError(f"{path}: empty deployment with no window metadata")
        window = _bounding_window(xy)
    try:
        return Deployment(window, xy, np.frombuffer(occ, dtype=np.uint16))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _utf8_lines(path: Path, lines, start: int):
    """``lines``, numbered on from ``start``; the first not UTF-8 raises its DataError."""
    for n, line in enumerate(lines, start + 1):
        try:  # the bytes the decoder escaped, decoded again
            line.encode(errors="surrogateescape").decode()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: line {n}: not UTF-8 text ({exc.reason})") from None
        yield line


def _read_rows(path: Path, fh) -> tuple[array, array, Window | None]:
    """Coordinates, occupant bitmasks and the window comment of an open site file."""
    head = _utf8_lines(path, fh, 0)
    first = next(head, "")
    file_window = None
    if first.startswith(_WINDOW_COMMENT):
        file_window = _read_window_comment(path, first)
        first = ""  # read as one blank line, so line_num still counts the file's lines
    rows = csv.reader(chain((first,), head))
    try:
        header = next((r for r in rows if "".join(r).strip()), None)
    except csv.Error as exc:
        raise DataError(f"{path}:1: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: empty file (missing header)")
    if tuple(f.strip() for f in header) != CSV_HEADER:
        raise DataError(
            f"{path}: expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    xy, occ = array("d"), array("H")
    done, lines = _read_blocks(fh, xy, occ)
    if not lines:
        return xy, occ, file_window
    # the row loop reads the refused block and the rest of the file
    bits_of: dict[str, int] = {}
    lineno = 1 + len(occ)
    try:
        for row in csv.reader(_utf8_lines(path, chain(lines, fh), rows.line_num + done)):
            if not "".join(row).strip():
                continue
            lineno += 1
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                x, y = float(row[1]), float(row[2])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad coordinate: {exc}") from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DataError(f"{path}:{lineno}: bad coordinate: ({x}, {y}) is not finite")
            text = row[3]
            bits = bits_of.get(text)
            if bits is None:
                try:
                    bits = bits_of[text] = OperatorSet.parse(text).bits
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
            xy.extend((x, y))
            occ.append(bits)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise DataError(f"{path}:{lineno + 1}: {exc}") from exc
    return xy, occ, file_window


def _read_blocks(fh, xy: array, occ: array) -> tuple[int, list[str]]:
    """Append the body's rows to ``xy`` and ``occ`` a block of lines at a time, up to the
    first block the row loop must read: the lines read before it, and that block."""
    bits_of: dict[str, int] = {}
    done = 0
    while lines := list(islice(fh, _READ_BLOCK_ROWS)):
        try:
            if any(map(str.strip, lines)):  # skip blank rows only: loadtxt warns of no data
                "".join(lines).encode()  # a line that is not UTF-8 is the row loop's to name
                rows = np.loadtxt(lines, dtype=_ROW_DTYPE, delimiter=",", quotechar='"',
                                  comments=None, ndmin=1)
                block = np.column_stack((rows["x"], rows["y"]))
                # as are a value that is not finite and a line over csv's field size limit
                if not np.isfinite(block).all() or max(map(len, lines)) > csv.field_size_limit():
                    raise ValueError("a row for the row loop")
                texts = rows["operators"]
                for text in set(texts).difference(bits_of):
                    # a quoted field cut at the block's end keeps its line break
                    if "\n" in text or "\r" in text:
                        raise ValueError("a row for the row loop")
                    bits_of[text] = OperatorSet.parse(text).bits
                xy.frombytes(block.tobytes())
                occ.frombytes(np.fromiter(map(bits_of.__getitem__, texts), np.uint16).tobytes())
                del rows, block, texts
        except ValueError:  # loadtxt's refusal, a bad operator text or a line not UTF-8
            return done, lines
        done += len(lines)
        del lines  # hold one block at a time
    return done, []


def _bounding_window(xy: np.ndarray, pad: float = 1.0) -> Window:
    x0, y0 = xy.min(axis=0)
    x1, y1 = xy.max(axis=0)
    if x1 - x0 <= 0:
        x0, x1 = x0 - pad, x1 + pad
    if y1 - y0 <= 0:
        y0, y1 = y0 - pad, y1 + pad
    return Window(float(x0), float(x1), float(y0), float(y1))
