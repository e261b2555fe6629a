"""Finite population synthesis, selection mechanisms, and CSV ingestion.

The synthetic population follows a scaled lognormal outcome model on two
uniform covariates, with the regression estimators working from the
covariate vector (1, x1, x2) that deliberately omits the interaction
used in the data-generating mean.
"""

import csv
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePartition,
    InvalidParams,
    MissingColumn,
    OutOfBracket,
    ParseError,
)
from .numerics import SQUARE_MAX, RngStream, _logistic


@dataclass(frozen=True)
class Population:
    """Fixed finite population: working design matrix X (first column 1) and outcome y.
    X is held column-major, so Gram products and :meth:`rows` run on contiguous columns."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asfortranarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or len(y) != x.shape[0]:
            raise InvalidParams("X must be N x d with one y per row")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidParams("population values must be finite")
        if not np.all(x[:, 0] == 1.0):
            raise InvalidParams("first column of X must be the intercept")

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def true_total(self) -> float:
        return float(np.sum(self.y))

    @functools.cached_property
    def x_total(self) -> np.ndarray:
        """Frame covariate totals, the column sums of X."""
        return self.x.sum(axis=0)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows ``idx`` (integers) of X as ``x[idx]``, but column-major and faster."""
        return self.x.T.take(idx, axis=1).T


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The selection mechanisms and their default slopes, one per feature.
DEFAULT_SLOPES = {"MAR": (2.0, -2.0), "NMAR": (2.0, -2.0, 0.5)}


@dataclass
class SelectionMechanism:
    """Certainty-stratum selection model: logit(p) = intercept + slopes . features.

    kind "MAR" uses features (x1, x2); kind "NMAR" adds log(1 + y).
    The intercept is None until calibrated against a target rate.
    """

    kind: str
    slopes: tuple
    target_rate: float
    intercept: float | None = None

    def __post_init__(self):
        if self.kind not in DEFAULT_SLOPES:
            raise InvalidParams(f"unknown mechanism kind {self.kind!r}")
        want = len(DEFAULT_SLOPES[self.kind])
        if len(self.slopes) != want:
            raise InvalidParams(f"{self.kind} mechanism needs {want} slopes")
        if not 0.0 < self.target_rate < 1.0:
            raise InvalidParams("target_rate must lie in (0, 1)")

    def linear_predictor(self, pop: Population) -> np.ndarray:
        """Slope part of the logit, without the intercept."""
        if pop.x.shape[1] < 3:
            raise InvalidParams("selection mechanisms need covariates x1 and x2")
        x1, x2 = pop.x[:, 1], pop.x[:, 2]
        eta = self.slopes[0] * x1 + self.slopes[1] * x2
        if self.kind == "NMAR":
            if np.any(pop.y < 0):
                raise InvalidParams("NMAR selection requires nonnegative y")
            eta = eta + self.slopes[2] * np.log1p(pop.y)
        return eta

    def probabilities(self, pop: Population) -> np.ndarray:
        """Read-only selection probabilities; the last population's are kept,
        so a Monte Carlo run computes them once."""
        if self.intercept is None:
            raise InvalidParams("mechanism is not calibrated")
        key = (self.kind, tuple(self.slopes), self.intercept)
        memo = self.__dict__.get("_memo")
        if memo is None or memo[0] is not pop or memo[1] != key:
            p = _read_only(_logistic(self.intercept + self.linear_predictor(pop)))
            memo = self._memo = (pop, key, p)
        return memo[2]


@dataclass(frozen=True)
class Partition:
    """Split of the population into the certainty stratum and its complement.
    The row indices of each stratum are found on first use and kept, read-only."""

    delta: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delta)
        if d.dtype != bool:
            if not np.all((d == 0) | (d == 1)):
                raise InvalidParams("delta must be 0/1")
            d = d.astype(bool)
        object.__setattr__(self, "delta", d)

    @functools.cached_property
    def certainty_idx(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.delta))

    @functools.cached_property
    def complement_idx(self) -> np.ndarray:
        return _read_only(np.flatnonzero(~self.delta))

    @property
    def n_certainty(self) -> int:
        return int(self.delta.sum())

    @property
    def n_complement(self) -> int:
        return int(len(self.delta) - self.n_certainty)


def generate_population(params: dict, rng: RngStream) -> Population:
    """Generate the lognormal population.

    params holds N, beta (four mean coefficients including the x1*x2
    interaction) and sigma.  Outcomes are mu_i * exp(eps_i) with
    eps_i ~ N(-sigma^2/2, sigma^2), so E(y|x) = mu.  The stored working
    covariates are (1, x1, x2); the interaction stays out of X.
    """
    n = int(params["N"])
    b0, b1, b2, b3 = (float(v) for v in params["beta"])
    sigma = float(params["sigma"])
    if n < 10:
        raise InvalidParams("N must be at least 10")
    if sigma <= 0:
        raise InvalidParams("sigma must be positive")
    if not sigma <= SQUARE_MAX:  # NaN too
        raise InvalidParams(f"sigma = {sigma:g} must have a finite square")

    x1 = rng.uniform(size=n)
    x2 = rng.uniform(size=n)
    # an overflow shows as the check it fails, here or in Population's, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        mu = b0 + b1 * x1 + b2 * x2 + b3 * x1 * x2
        if not np.isfinite(mu).all():
            raise InvalidParams("mean function must stay finite")
        if np.any(mu <= 0):
            raise InvalidParams("mean function must stay positive")
        eps = rng.normal(-sigma**2 / 2.0, sigma, size=n)
        y = mu * np.exp(eps)
    return Population(x=np.array([np.ones(n), x1, x2]).T, y=y)


def calibrate_intercept(mech: SelectionMechanism, pop: Population) -> float:
    """Intercept making the mean selection probability hit the target rate.

    Bisection on [-50, 50]; the map from intercept to mean probability is
    strictly increasing, so the root is unique when bracketed.
    """
    eta = mech.linear_predictor(pop)
    target = mech.target_rate

    def mean_prob(a0):
        return float(np.mean(_logistic(a0 + eta)))

    lo, hi = -50.0, 50.0
    if mean_prob(lo) > target or mean_prob(hi) < target:
        raise OutOfBracket("target rate unattainable with intercept in [-50, 50]")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        value = mean_prob(mid)
        if abs(value - target) <= 1e-10:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def draw_nonprob(pop: Population, mech: SelectionMechanism, rng: RngStream) -> Partition:
    """Draw certainty-stratum membership as independent Bernoulli indicators."""
    p = mech.probabilities(pop)
    delta = rng.bernoulli(p)
    if delta.all() or not delta.any():
        raise DegeneratePartition("selection left an empty stratum")
    return Partition(delta=delta)


@dataclass
class PopulationData:
    """A population loaded from CSV, with its delta column's partition if it had one."""

    population: Population
    partition: Partition | None
    ids: dict  # id -> row index, in file order

    def require_partition(self) -> Partition:
        """The partition the delta column gave; MissingColumn without one."""
        if self.partition is None:
            raise MissingColumn("population file needs a delta column")
        return self.partition


# Each cell check takes a cell's text, its column and row (from 1) and returns the
# message of its fault, or None.  Each but _delta passes a closed interval of
# floats, so a column passes when its minimum and maximum do (a NaN fails).
def _finite(raw, column, row):
    try:
        value = float(raw)
    except ValueError:
        return f"non-numeric value {raw!r} in row {row}, column {column!r}"
    if not math.isfinite(value):
        return f"non-finite value {raw!r} in row {row}, column {column!r}"
    return None


def _covariate(raw, column, row):
    """A finite covariate whose square, a term of every Gram product, is finite."""
    fault = _finite(raw, column, row)
    if fault or abs(float(raw)) <= SQUARE_MAX:
        return fault
    return f"{column} = {raw} in row {row}, column {column!r}, is too large: its square overflows"


def _pi(raw, column, row):
    """A pi in (0, 1] whose 1/pi^2, the scale of the Poisson plug-in variance, is a
    finite float (pi above about 7.5e-155)."""
    fault = _finite(raw, column, row)
    if fault:
        return fault
    value = float(raw)
    if not 0.0 < value <= 1.0:
        return f"pi = {raw} outside (0, 1] in row {row}"
    square = value * value
    if square == 0.0 or math.isinf(1.0 / square):
        return f"pi = {raw} in row {row}, column 'pi', is too small: 1/pi^2 overflows"
    return None


def _delta(raw, column, row):
    """A 0 or 1, blanks around it allowed."""
    return None if raw.strip() in ("0", "1") else f"delta must be 0 or 1 in row {row}"


def _parsed(cells, check):
    """The array of a column whose every cell passes ``check``, else None: a delta
    column's booleans, or any other's floats, checked at their minimum and maximum."""
    if check is _delta:
        digits = list(map(str.strip, cells))
        if set(digits) <= {"0", "1"}:
            return np.fromiter(map("1".__eq__, digits), bool, len(digits))
        return None
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    if check(repr(float(values.min())), "", 0) or check(repr(float(values.max())), "", 0):
        return None
    return values


def _first_fault(header, rows, wanted):
    """The ParseError of the first faulty row in file order (rows from 1), or None:
    within it, the first of a missing, empty or extra cell, a repeated id, then
    each wanted (column, cell check) in turn."""
    width, at_id, ids = len(header), header.index("id"), {}
    wanted = [(header.index(column), column, check) for column, check in wanted]
    for row, cells in enumerate(rows, start=1):
        if len(cells) > width:
            return ParseError(f"extra value in row {row}: {len(cells)} cells, {width} columns",
                              row=row)
        if len(cells) < width or "" in cells:
            name = header[cells.index("") if "" in cells else len(cells)]
            return ParseError(f"missing value in row {row}, column {name!r}", row=row, column=name)
        uid = cells[at_id]
        if uid in ids:
            return ParseError(f"id {uid!r} repeated in rows {ids[uid]} and {row}", row=row,
                              column="id")
        ids[uid] = row
        for j, column, check in wanted:
            message = check(cells[j], column, row)
            if message:
                return ParseError(message, row=row, column=column)
    return None


def _uncommented(handle):
    """The lines of an open CSV file from its header on: lines starting with
    '#' are comments only above the header; below it they are data."""
    return itertools.dropwhile(lambda line: line.startswith("#"), handle)


def _read_columns(path, what, required, wanted):
    """The header, the ids (id -> row index, in file order) and the parsed columns
    of a ``what`` input file, its comments and a UTF-8 BOM dropped.

    ``wanted(header)`` lists the (column, cell check) pairs to parse, in the
    order a row's cells are checked.  A clean file is parsed column by column.
    Fails on a column named twice or a missing ``required`` column; otherwise on
    :func:`_first_fault` (blank lines skipped), then on a read that failed (an
    undecodable byte, a cell over ``csv.field_size_limit()``), which is a fault
    of the header or of the next row, then on no data row."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(_uncommented(handle))
        try:
            header = next(reader, [])
        except (ValueError, csv.Error) as err:
            raise ParseError(f"cannot read the {what} file from the header on: {err}",
                             row=0) from err
        for i, column in enumerate(header):
            if column in header[:i]:
                raise ParseError(f"{what} file names column {column!r} twice", row=0, column=column)
        for column in required:
            if column not in header:
                raise MissingColumn(f"{what} file needs column {column!r}")
        rows, fault = [], None
        try:
            rows.extend(filter(None, reader))  # keeps the rows read before a failure
        except (ValueError, csv.Error) as err:
            fault = ParseError(f"cannot read the {what} file from row {len(rows) + 1} on: {err}",
                               row=len(rows) + 1)
    checks = wanted(header)
    if fault is None and rows and list(map(len, rows)).count(len(header)) == len(rows):
        columns = list(zip(*rows))
        ids = dict(zip(columns[header.index("id")], range(len(rows))))
        if len(ids) == len(rows) and not any("" in column for column in columns):
            parsed = {column: _parsed(columns[header.index(column)], check)
                      for column, check in checks}
            if all(values is not None for values in parsed.values()):
                return header, ids, parsed
    raise (_first_fault(header, rows, checks) or fault
           or ParseError(f"{what} file has no data rows", row=0))


def _plain(column) -> list:
    """A list or array's values as Python objects: an array through ``tolist()``,
    and any numpy scalar left (in a list, or an object array) through ``item()``."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if any(issubclass(kind, np.generic) for kind in set(map(type, values))):
        values = [v.item() if isinstance(v, np.generic) else v for v in values]
    return values


def write_csv(path, header, columns, seed=None) -> None:
    """Write an optional ``# seed=`` comment line, the header row and the data
    rows of ``columns``, one sequence per header column, all of one length.

    The columns are converted by :func:`_plain`, so csv.writer writes a
    number as the text of a Python int or the round-tripping repr of a
    Python float (never a numpy scalar's text), None as an empty cell and
    anything else as its str."""
    write_csv_blocks(path, header, [columns], seed)


_ROWS_AT_ONCE = 1024


def write_csv_blocks(path, header, blocks, seed=None) -> None:
    """:func:`write_csv` of a table whose rows come in blocks, each a list of
    columns as write_csv takes them, written in order.  A block is converted
    to Python objects ``_ROWS_AT_ONCE`` rows at a time, so a long table
    takes little memory; columns of different lengths raise ValueError."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if seed is not None:
            handle.write(f"# seed={seed}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        for columns in blocks:
            columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
            lengths = set(map(len, columns))
            if len(lengths) > 1:
                raise ValueError(f"columns of different lengths {sorted(lengths)}")
            for start in range(0, max(lengths, default=0), _ROWS_AT_ONCE):
                writer.writerows(zip(*(_plain(c[start:start + _ROWS_AT_ONCE]) for c in columns)))


def _covariates(header):
    """The covariate columns x1, x2, ... of a header, in index order."""
    return sorted((c for c in header if c.startswith("x") and c[1:].isdigit()),
                  key=lambda c: int(c[1:]))


def _population_columns(header):
    return ([("y", _finite)] + [(c, _covariate) for c in _covariates(header)]
            + [("delta", _delta)] * ("delta" in header))


def _sample_columns(header):
    return [("pi", _pi)] + [("y", _finite)] * ("y" in header)


def load_population_csv(path) -> PopulationData:
    """Read a population file under the file rules of :func:`_read_columns`:
    columns id and y, covariates x1, x2, ... (an intercept column is
    prepended), each with a finite square, and optional delta (0/1
    certainty-stratum membership); other columns are ignored."""
    header, ids, columns = _read_columns(path, "population", ("id", "y"), _population_columns)
    xcols = _covariates(header)
    x = np.empty((len(ids), 1 + len(xcols)), order="F")
    x[:, 0] = 1.0
    for j, column in enumerate(xcols, start=1):
        x[:, j] = columns[column]
    pop = Population(x=x, y=columns["y"])
    part = Partition(delta=columns["delta"]) if "delta" in columns else None
    return PopulationData(population=pop, partition=part, ids=ids)


def load_sample_csv(path):
    """Ids, pi and y (None without a y column) of a sample file with columns
    id (unique), pi in (0, 1] with a finite 1/pi^2, and optional y; file rules as
    :func:`_read_columns`."""
    _, ids, columns = _read_columns(path, "sample", ("id", "pi"), _sample_columns)
    return list(ids), columns["pi"], columns.get("y")


def save_population_csv(path, pop: Population, partition: Partition | None = None) -> None:
    """Write a population file, ids 1..N, that reloads to exactly the same values."""
    columns = {"id": np.arange(1, pop.size + 1)}
    for j in range(1, pop.x.shape[1]):
        columns[f"x{j}"] = pop.x[:, j]
    columns["y"] = pop.y
    if partition is not None:
        columns["delta"] = partition.delta.astype(int)
    write_csv(path, list(columns), columns.values())
