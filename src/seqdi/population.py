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
from .numerics import RngStream, _logistic


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

    x1 = rng.uniform(size=n)
    x2 = rng.uniform(size=n)
    mu = b0 + b1 * x1 + b2 * x2 + b3 * x1 * x2
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


def _parse_float(raw: str, row: int, column: str) -> float:
    """A finite float; ParseError naming the row and column for anything else."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ParseError(f"non-numeric value {raw!r} in row {row}, column {column!r}",
                         row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {raw!r} in row {row}, column {column!r}",
                         row=row, column=column)
    return value


def _parse_pi(raw: str, row: int) -> float:
    """A pi in (0, 1] whose 1/pi^2, the scale of the Poisson plug-in variance, is a
    finite float (pi above about 7.5e-155)."""
    value = _parse_float(raw, row, "pi")
    if not 0.0 < value <= 1.0:
        raise ParseError(f"pi = {raw} outside (0, 1] in row {row}", row=row, column="pi")
    square = value * value
    if square == 0.0 or math.isinf(1.0 / square):
        raise ParseError(f"pi = {raw} in row {row}, column 'pi', is too small: 1/pi^2 overflows",
                         row=row, column="pi")
    return value


def _uncommented(handle):
    """The lines of an open CSV file from its header on: lines starting with
    '#' are comments only above the header; below it they are data."""
    return itertools.dropwhile(lambda line: line.startswith("#"), handle)


def _records(path, what: str, required: tuple, ids: dict):
    """Yield the header of a ``what`` input file (its comments and a UTF-8 BOM
    dropped), then, as the file is read, each data row as (row from 1, dict),
    with each id's row index put in ``ids``.  Fails on a column named twice, a
    missing ``required`` column, a missing, empty or extra cell, a repeated id
    or no data row."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(_uncommented(handle))
        header = next(reader, [])
        for i, column in enumerate(header):
            if column in header[:i]:
                raise ParseError(f"{what} file names column {column!r} twice", row=0, column=column)
        for column in required:
            if column not in header:
                raise MissingColumn(f"{what} file needs column {column!r}")
        yield header
        for i, cells in enumerate(filter(None, reader), start=1):
            if len(cells) > len(header):
                raise ParseError(f"extra value in row {i}: {len(cells)} cells, "
                                 f"{len(header)} columns", row=i)
            if len(cells) < len(header) or "" in cells:
                name = header[cells.index("") if "" in cells else len(cells)]
                raise ParseError(f"missing value in row {i}, column {name!r}", row=i, column=name)
            record = dict(zip(header, cells))
            uid = record["id"]
            if uid in ids:
                raise ParseError(f"id {uid!r} repeated in rows {ids[uid] + 1} and {i}", row=i,
                                 column="id")
            ids[uid] = i - 1
            yield i, record
    if not ids:
        raise ParseError(f"{what} file has no data rows", row=0)


def _cell(value):
    """None as an empty cell, a float as its round-tripping repr, anything else as is."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def write_csv(path, header, rows, seed=None) -> None:
    """Write an optional ``# seed=`` comment line, the header row and the data
    rows, each cell as :func:`_cell` formats it."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if seed is not None:
            handle.write(f"# seed={seed}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)


def load_population_csv(path) -> PopulationData:
    """Read a population file under the file rules of :func:`_records`: columns
    id and y, covariates x1, x2, ... (an intercept column is prepended), and
    optional delta (0/1 certainty-stratum membership); other columns are
    ignored."""
    ids = {}
    records = _records(path, "population", ("id", "y"), ids)
    header = next(records)
    xcols = sorted((c for c in header if c.startswith("x") and c[1:].isdigit()),
                   key=lambda c: int(c[1:]))
    columns = {c: [] for c in ["y", *xcols]}
    deltas = []
    for i, record in records:
        for column, values in columns.items():
            values.append(_parse_float(record[column], i, column))
        if "delta" in header:
            value = record["delta"].strip()
            if value not in ("0", "1"):
                raise ParseError(f"delta must be 0 or 1 in row {i}", row=i, column="delta")
            deltas.append(int(value))

    x = np.column_stack([np.ones(len(ids))] + [np.asarray(columns[c], dtype=float) for c in xcols])
    pop = Population(x=x, y=np.asarray(columns["y"], dtype=float))
    part = Partition(delta=np.asarray(deltas)) if "delta" in header else None
    return PopulationData(population=pop, partition=part, ids=ids)


def load_sample_csv(path):
    """Ids, pi and y (None without a y column) of a sample file with columns
    id (unique), pi in (0, 1] with a finite 1/pi^2, and optional y; file rules as
    :func:`_records`."""
    ids = {}
    records = _records(path, "sample", ("id", "pi"), ids)
    has_y = "y" in next(records)
    pis, ys = [], []
    for i, record in records:
        pis.append(_parse_pi(record["pi"], i))
        if has_y:
            ys.append(_parse_float(record["y"], i, "y"))
    return list(ids), np.asarray(pis, dtype=float), np.asarray(ys, dtype=float) if has_y else None


def save_population_csv(path, pop: Population, partition: Partition | None = None) -> None:
    """Write a population file, ids 1..N, that reloads to exactly the same values."""
    columns = {"id": range(1, pop.size + 1)}
    for j in range(1, pop.x.shape[1]):
        columns[f"x{j}"] = pop.x[:, j]
    columns["y"] = pop.y
    if partition is not None:
        columns["delta"] = partition.delta.astype(int)
    write_csv(path, list(columns), zip(*columns.values(), strict=True))
