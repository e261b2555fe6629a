"""Monte Carlo engine for the sequential data-integration experiments.

A run fixes one finite population, then repeatedly draws the
non-probability stratum (or conditions on a supplied one), fits the
pilot variance model, constructs second-stage designs, draws Poisson
samples, and computes the requested estimators plus the coefficient
homogeneity test.  Replications are independent with stream id equal to
the replication index, so results are identical regardless of worker
count, and aggregation runs in replication order to keep summaries
bit-reproducible.
"""

import concurrent.futures
import contextlib
import copy
import dataclasses
import functools
import json
import math
import numbers
import os
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from . import design as design_mod
from . import estimators as est
from . import homogeneity as homog
from .errors import ConfigError, DegenerateMetrics, EmptySample, InvalidParams, stage
from .numerics import RngStream, normal_quantile
from .pilot import fit_pilot
from .population import (
    SelectionMechanism,
    calibrate_intercept,
    draw_nonprob,
    generate_population,
    load_population_csv,
    write_csv,
)

DEFAULT_SLOPES = {"MAR": (2.0, -2.0), "NMAR": (2.0, -2.0, 0.5)}
MAX_REDRAWS = 20


# Name and accepted types of each McConfig field annotation: JSON's int,
# float, str, bool, list and dict, and from the library also tuples, numpy
# scalars and arrays, and paths where a string is wanted.
_FIELD_TYPES = {
    int: ("an integer", numbers.Integral),
    float: ("a number", numbers.Real),
    str: ("a string", (str, os.PathLike)),
    bool: ("a boolean", (bool, np.bool_)),
    tuple: ("an array", (list, tuple, np.ndarray)),
    dict: ("an object", dict),
}
_JSON_KEYS = {"population_params": "population"}  # where a JSON key is not the field name


def _check_type(key: str, annotation, value) -> None:
    """ConfigError unless ``value`` passes as a key of _FIELD_TYPES, or as the
    first member of a union of them; a bool passes only as a bool."""
    kind = (typing.get_args(annotation) or (annotation,))[0]
    name, accepted = _FIELD_TYPES[kind]
    if isinstance(value, (bool, np.bool_)) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key!r} must be {name}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_choices(values, allowed, what: str, name: str) -> None:
    """ConfigError unless ``values`` is a nonempty list of distinct members of ``allowed``."""
    for value in values:
        if value not in allowed:
            raise ConfigError(f"unknown {what} {value!r}; choose from {', '.join(allowed)}")
    if len(set(values)) != len(values) or not values:
        raise ConfigError(f"{name} must be a nonempty list without duplicates")


def _check_population_params(block: dict) -> None:
    """ConfigError unless the block holds exactly N (an integer), beta (4 numbers)
    and sigma (a number); messages name the JSON key ``population``."""
    for key, name in (("N", "integer"), ("beta", "array of 4 numbers"), ("sigma", "number")):
        if key not in block:
            raise ConfigError(f"config key 'population.{key}' is required ({name})")
    _check_type("population.N", int, block["N"])
    beta = block["beta"]
    if not isinstance(beta, (list, tuple)) or len(beta) != 4 or not all(map(_is_number, beta)):
        raise ConfigError("config key 'population.beta' must be an array of 4 numbers")
    _check_type("population.sigma", float, block["sigma"])
    extra = set(block) - {"N", "beta", "sigma"}
    if extra:
        raise ConfigError(f"unknown config key 'population.{sorted(extra)[0]}'")


@dataclass(frozen=True)
class Estimator:
    """One estimator tag: ``stage`` "sequential" runs once per design arm,
    "frame" once per replication.  ``compute(inputs, done)`` may read the
    estimates ``done`` of the ``combines`` tags, listed before it in
    ESTIMATORS; ``needs`` names the stratum fits it uses.  A point-only
    estimator (``variance`` False) returns an Estimate whose variance is None."""

    stage: str
    compute: object
    combines: tuple = ()
    needs: tuple = ()
    variance: bool = True


# The callables look the estimator up on its module at call time, so that
# a rebinding of the module attribute (a tracer, a test double) is seen.
ESTIMATORS = {
    "DI": Estimator("sequential", lambda c, done: est.y_di(c.y_np, c.y_s, c.pi_s, c.n1)),
    "HT_seq": Estimator("sequential", lambda c, done: est.y_ht_seq(c.y_np, c.y_s, c.pi_s)),
    "sepDI_b": Estimator("sequential", lambda c, done: est.y_sep_di(
        c.y_np, c.y_s, c.x_s, c.pi_s, c.x_total_u1, est.WeightSpec("inverse_pi"))),
    "sepDI_sigma": Estimator("sequential", lambda c, done: est.y_sep_di(
        c.y_np, c.y_s, c.x_s, c.pi_s, c.x_total_u1, est.WeightSpec("inverse_pi_sigma"),
        c.pilot), needs=("pilot",)),
    "comDI_b": Estimator("sequential", lambda c, done: est.y_com_di(
        c.y_np, c.x_np, c.y_s, c.x_s, c.pi_s, c.x_total_u1, est.WeightSpec("inverse_pi"))),
    "comDI_sigma": Estimator("sequential", lambda c, done: est.y_com_di(
        c.y_np, c.x_np, c.y_s, c.x_s, c.pi_s, c.x_total_u1,
        est.WeightSpec("inverse_pi_sigma"), c.pilot), needs=("pilot",)),
    "adDI": Estimator("sequential", lambda c, done: homog.adaptive_estimate(
        done["sepDI_sigma"], done["comDI_sigma"], c.test),
        combines=("sepDI_sigma", "comDI_sigma"), needs=("test",)),
    "GREG": Estimator("frame", lambda c, done: est.y_greg_independent(
        c.pop.x_total, c.pop.y[c.ind_sample.members], c.pop.rows(c.ind_sample.members),
        c.ind_sample.pi_realized)),
    "IPW": Estimator("frame", lambda c, done: est.y_ipw(c.pop, c.partition, c.alpha_hat),
                     variance=False),
    "DR": Estimator("frame", lambda c, done: est.y_dr(c.pop, c.partition, c.alpha_hat),
                    variance=False),
    "GREG_DR": Estimator("frame", lambda c, done: est.y_fusion(
        done["GREG"], done["DR"], c.ind_sample.size / (c.ind_sample.size + len(c.y_np))),
        combines=("GREG", "DR"), variance=False),
}
SEQUENTIAL_TAGS = tuple(t for t, e in ESTIMATORS.items() if e.stage == "sequential")
FRAME_TAGS = tuple(t for t, e in ESTIMATORS.items() if e.stage == "frame")
ALL_TAGS = tuple(ESTIMATORS)


@dataclass
class McConfig:
    replications: int
    seed: int = 20240901
    mechanism: str = "MAR"
    f_np: float | None = None
    f_p: float = 0.40
    designs: tuple = ("optimal",)
    estimators: tuple = SEQUENTIAL_TAGS
    alpha: float = 0.05
    level: float = 0.95
    population_params: dict | None = None
    population_csv: str | None = None
    slopes: tuple | None = None
    n_p: int | None = None
    include_model_variance: bool = False
    run_test: bool = True

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None or type(None) not in typing.get_args(f.type):
                _check_type(_JSON_KEYS.get(f.name, f.name), f.type, value)
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.mechanism not in ("MAR", "NMAR", "FixedPartition"):
            raise ConfigError(f"unknown mechanism {self.mechanism!r}")
        self.designs = tuple(self.designs)
        self.estimators = tuple(self.estimators)
        check_choices(self.designs, design_mod.DESIGN_KINDS, "design kind", "designs")
        check_choices(self.estimators, ALL_TAGS, "estimator", "estimators")
        if self.mechanism == "FixedPartition" and self.population_csv is None:
            raise ConfigError("FixedPartition mode needs population_csv with a delta column")
        if (self.population_params is None) == (self.population_csv is None):
            raise ConfigError("exactly one of population_params (the config key "
                              "'population') and population_csv is required")
        if self.population_params is not None:
            _check_population_params(self.population_params)
        if self.mechanism not in DEFAULT_SLOPES:
            for key in ("slopes", "f_np"):  # they shape the stratum draw
                if getattr(self, key) is not None:
                    raise ConfigError(f"{self.mechanism} draws no stratum, so it takes no {key!r}")
        else:
            self.f_np = 0.70 if self.f_np is None else self.f_np
            self.slopes = DEFAULT_SLOPES[self.mechanism] if self.slopes is None else self.slopes
            want = len(DEFAULT_SLOPES[self.mechanism])
            if len(self.slopes) != want or not all(map(_is_number, self.slopes)):
                raise ConfigError(f"{self.mechanism} needs 'slopes' of {want} numbers")
        if not all(0.0 < frac < 1.0 for frac in (self.f_np, self.f_p) if frac is not None):
            raise ConfigError("sampling fractions must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("level must lie in (0, 1)")
        if self.n_p is not None and self.n_p < 1:
            raise ConfigError("n_p must be at least 1")

    @classmethod
    def from_json(cls, raw, **overrides) -> "McConfig":
        """The config of a parsed JSON object, keyed as _JSON_KEYS says; its types
        (null passes nowhere) are checked before ``overrides`` replace fields."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
        for key, value in raw.items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
            _check_type(key, fields[key].type, value)
        if "replications" not in raw:
            raise ConfigError("config key 'replications' is required")
        return cls(**{**{fields[key].name: value for key, value in raw.items()}, **overrides})


@dataclass
class ArmMetrics:
    estimator: str
    design: str
    rb: float
    rrmse: float
    var_ratio: float | None
    coverage: float | None
    points: np.ndarray = field(repr=False)
    variances: np.ndarray | None = field(repr=False, default=None)


@dataclass
class TestSummary:
    design: str
    replications: int
    alpha: float
    reject_rate: float
    mean_p: float
    median_p: float
    p_values: np.ndarray = field(repr=False, default=None)


@dataclass
class McSummary:
    y_true: float
    replications: int
    seed: int
    mechanism: str
    arms: list
    tests: list
    level: float = 0.95


def metrics(points, variances, y_true, level=0.95):
    """Relative bias and RRMSE in percent, variance ratio, and coverage.

    var_ratio is the mean plug-in variance over the (R-1)-denominator
    Monte Carlo variance; coverage counts Wald intervals containing the
    target.  Both need variances and at least two replications.
    """
    points = np.asarray(points, dtype=float)
    if y_true == 0:
        raise ValueError("relative measures need a nonzero target")
    re = 100.0 * (points - y_true) / y_true
    out = {
        "rb": float(np.mean(re)),
        "rrmse": float(math.sqrt(np.mean(re**2))),
        "var_ratio": None,
        "coverage": None,
    }
    if variances is not None:
        if len(points) < 2:
            raise DegenerateMetrics("variance-based metrics need at least 2 replications")
        variances = np.asarray(variances, dtype=float)
        v_mc = float(np.var(points, ddof=1))
        out["var_ratio"] = float(np.mean(variances) / v_mc) if v_mc > 0 else None
        z = normal_quantile((1.0 + level) / 2.0)
        covered = np.abs(points - y_true) <= z * np.sqrt(variances)
        out["coverage"] = float(np.mean(covered))
    return out


def _build_population(config: McConfig):
    """The population and, when it was read from population_csv, its PopulationData."""
    if config.population_csv is not None:
        data = load_population_csv(config.population_csv)
        return data.population, data
    try:
        return generate_population(config.population_params, RngStream(config.seed, 0)), None
    except InvalidParams as err:
        raise ConfigError(f"config key 'population': {err}") from err


def _plan(config: McConfig):
    """Resolve which estimators and stratum fits a replication computes, and the
    layout of its row: per reported arm a point column, then a variance column
    unless point-only (``columns``); per reported test a p-value and a reject column."""
    requested = set(config.estimators)
    if config.mechanism == "FixedPartition":
        requested -= set(FRAME_TAGS)
        if not requested:
            raise ConfigError("FixedPartition mode reports sequential estimators only")
    computed = set(requested)
    for tag in reversed(ALL_TAGS):  # an estimator combines only tags listed before it
        if tag in computed:
            computed.update(ESTIMATORS[tag].combines)
    needs = {need for tag in computed for need in ESTIMATORS[tag].needs}
    need_test = config.run_test or "test" in needs
    columns, width = {}, 0
    for tag in (t for t in config.estimators if t in requested):
        for kind in config.designs if tag in SEQUENTIAL_TAGS else ("",):
            columns[tag, kind] = width
            width += 1 + ESTIMATORS[tag].variance
    tests = {kind: width + 2 * i for i, kind in enumerate(config.designs) if config.run_test}
    return {
        "sequential": [tag for tag in SEQUENTIAL_TAGS if tag in computed],
        "frame": [tag for tag in FRAME_TAGS if tag in computed],
        "need_test": need_test,
        "need_pilot": need_test or "pilot" in needs or "optimal" in config.designs,
        "columns": columns,
        "tests": tests,
        "width": width + 2 * len(tests),
    }


def _draw_with_retry(dsgn, rng):
    for _ in range(MAX_REDRAWS):
        try:
            return design_mod.poisson_draw(dsgn, rng)
        except EmptySample:
            continue
    raise EmptySample(f"empty sample after {MAX_REDRAWS} redraws")


def stratum_inputs(pop, partition, need_pilot, need_test):
    """The :class:`_Inputs` of one certainty stratum: its rows, the pilot fit
    (when ``need_pilot``) and the certainty-stratum FGLS fit of the
    homogeneity test (when ``need_test``)."""
    s_np = partition.certainty_idx
    x_np, y_np = pop.rows(s_np), pop.y[s_np]
    pilot = fit_pilot(x_np, y_np) if need_pilot else None
    np_fit = homog.fgls_np(x_np, y_np, model=pilot) if need_test else None
    return _Inputs(pop, partition, x_np, y_np, pilot, np_fit)


def _stratum_setup(config, plan, pop, partition):
    """:func:`stratum_inputs` plus the designs of ``config``, before any draw.

    Designs use no randomness, so building them all before any draw
    leaves every draw unchanged."""
    inputs = stratum_inputs(pop, partition, plan["need_pilot"], plan["need_test"])
    u1 = partition.complement_idx
    n_p = config.n_p if config.n_p is not None else int(config.f_p * len(u1))
    x_u1 = pop.rows(u1)
    inputs.config = config
    inputs.designs = {
        kind: design_mod.build_design(kind, x_u1, n_p, inputs.pilot, u1)
        for kind in config.designs
    }
    return inputs


class _Inputs:
    """What the estimators of ESTIMATORS read.  The stratum part comes from
    :func:`stratum_inputs`; a replication works on a copy of it with its own
    rng, sets the arm fields (y_s, x_s, pi_s, test) per design and makes the
    frame inputs on first use."""

    def __init__(self, pop, partition, x_np, y_np, pilot, np_fit):
        self.pop, self.partition = pop, partition
        self.x_np, self.y_np, self.pilot, self.np_fit = x_np, y_np, pilot, np_fit
        self.n1, self.x_total_u1 = pop.size - len(y_np), pop.x_total - x_np.sum(axis=0)
        self.config = self.designs = None
        self.rng = self.y_s = self.x_s = self.pi_s = self.test = None

    @functools.cached_property
    def alpha_hat(self):
        return est.estimate_propensity(self.pop, self.partition)

    @functools.cached_property
    def ind_sample(self):
        n_ind = int(self.config.f_p * (1.0 - self.config.f_np) * self.pop.size)
        return _draw_with_retry(design_mod.equal_probabilities(self.pop.size, n_ind), self.rng)


def _replicate(r, config, pop, mech, plan, stratum):
    """One Monte Carlo replication as a float64 row in ``plan``'s layout, drawn from stream r + 1.

    ``stratum`` is a fixed stratum's set-up, or None to draw one.  A
    SeqdiError is raised again as the same class, its message led by the
    replication, its stream id and the design or stage that failed."""
    rng = RngStream(config.seed, r + 1)
    at = f"replication {r} (stream {r + 1})"
    row = np.full(plan["width"], np.nan)

    def keep(tags, kind):
        done = {}
        for tag in tags:
            done[tag] = ESTIMATORS[tag].compute(inputs, done)
            if (tag, kind) in plan["columns"]:
                col = plan["columns"][tag, kind]
                row[col] = done[tag].point
                if ESTIMATORS[tag].variance:
                    row[col + 1] = done[tag].variance

    with stage(f"{at}, stratum set-up"):
        if stratum is None:
            stratum = _stratum_setup(config, plan, pop, draw_nonprob(pop, mech, rng))
    inputs = copy.copy(stratum)
    inputs.rng = rng
    for kind in config.designs:
        with stage(f"{at}, design {kind}"):
            sample = _draw_with_retry(inputs.designs[kind], rng)
            inputs.y_s, inputs.x_s = pop.y[sample.members], pop.rows(sample.members)
            inputs.pi_s = sample.pi_realized
            if plan["need_test"]:
                p_fit = homog.fgls_p(inputs.x_s, inputs.y_s, inputs.pi_s,
                                     include_model_variance=config.include_model_variance)
                inputs.test = homog.homogeneity_test(inputs.np_fit, p_fit, config.alpha)
            if kind in plan["tests"]:
                col = plan["tests"][kind]
                row[col], row[col + 1] = inputs.test.p_value, inputs.test.reject
            keep(plan["sequential"], kind)
    with stage(f"{at}, frame estimators"):
        keep(plan["frame"], "")
    return row


_WORKER_GLOBALS = {}


def _init_worker(*args):
    _WORKER_GLOBALS["args"] = args


def _run_one(r):
    return _replicate(r, *_WORKER_GLOBALS["args"])


def run_mc(config: McConfig, threads: int = 1, progress: bool = False) -> McSummary:
    """Execute the Monte Carlo experiment described by ``config``.

    ``threads`` (at least 1) only controls process-level parallelism; the
    pool starts no more workers than there are replications or CPUs.
    Summaries are identical for any worker count because replication r
    consumes stream id r + 1 and aggregation is ordered by replication
    index.  The first failed replication, in replication order, ends the
    run.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    pop, data = _build_population(config)
    plan = _plan(config)
    if pop.true_total == 0:
        raise DegenerateMetrics("the population total is 0; relative bias and RRMSE need "
                                "a nonzero target")

    mech = None
    if config.mechanism in ("MAR", "NMAR"):
        mech = SelectionMechanism(config.mechanism, tuple(config.slopes), config.f_np)
        mech.intercept = calibrate_intercept(mech, pop)

    stratum = None
    if config.mechanism == "FixedPartition":
        with stage(f"FixedPartition set-up on {config.population_csv}"):
            stratum = _stratum_setup(config, plan, pop, data.require_partition())

    n_rep = config.replications
    workers = min(threads, n_rep, os.cpu_count() or 1)
    args = (config, pop, mech, plan, stratum)
    table = np.empty((plan["width"], n_rep))  # one row per column, one column per replication
    with contextlib.ExitStack() as stack:
        if workers == 1:
            _init_worker(*args)
            outcomes = map(_run_one, range(n_rep))
        else:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=args))
            outcomes = pool.map(_run_one, range(n_rep), chunksize=max(1, n_rep // (workers * 8)))
        for r, row in enumerate(outcomes):
            table[:, r] = row
            if progress and (r + 1) % max(1, n_rep // 20) == 0:
                print(f"replication {r + 1}/{n_rep}", file=sys.stderr, flush=True)

    return _aggregate(config, pop, plan, table)


def _aggregate(config, pop, plan, table):
    """The McSummary of the result table, its rows laid out as ``plan`` says."""
    n_rep = config.replications
    arms = []
    for (tag, kind), col in plan["columns"].items():
        points = table[col]
        variances = table[col + 1] if ESTIMATORS[tag].variance else None
        m = metrics(points, variances if n_rep >= 2 else None, pop.true_total, config.level)
        arms.append(ArmMetrics(tag, kind, **m, points=points, variances=variances))
    tests = [TestSummary(kind, n_rep, config.alpha, reject_rate=float(np.mean(table[col + 1])),
                         mean_p=float(np.mean(table[col])),
                         median_p=float(np.median(table[col])), p_values=table[col])
             for kind, col in plan["tests"].items()]
    return McSummary(pop.true_total, n_rep, config.seed, config.mechanism, arms, tests,
                     config.level)


def emit_results(summary: McSummary, out_dir) -> list:
    """Write summary, test summary, per-replication errors, and metadata files."""
    os.makedirs(out_dir, exist_ok=True)
    tables = (
        ("summary.csv", ["Estimator", "Design", "RB", "RRMSE", "VarRatio", "Coverage"],
         ([arm.estimator, arm.design, arm.rb, arm.rrmse, arm.var_ratio, arm.coverage]
          for arm in summary.arms)),
        ("test_summary.csv", ["Design", "R", "alpha", "reject_rate", "mean_p", "median_p"],
         ([ts.design, ts.replications, ts.alpha, ts.reject_rate, ts.mean_p, ts.median_p]
          for ts in summary.tests)),
        ("replication_errors.csv", ["rep", "estimator", "design", "point", "variance", "re"],
         ([r, arm.estimator, arm.design, arm.points[r],
           None if arm.variances is None else arm.variances[r], re]
          for arm in summary.arms
          for r, re in enumerate(100.0 * (arm.points - summary.y_true) / summary.y_true))),
    )
    paths = []
    for name, header, rows in tables:
        path = os.path.join(out_dir, name)
        write_csv(path, header, rows, seed=summary.seed)
        paths.append(path)

    meta_path = os.path.join(out_dir, "run_metadata.json")
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "seed": summary.seed,
                "replications": summary.replications,
                "mechanism": summary.mechanism,
                "y_true": summary.y_true,
                "level": summary.level,
                "boxplot_truncation_quantiles": {"estimators_panel": 0.999,
                                                 "designs_panel": 0.99},
            },
            handle,
            indent=2,
        )
    paths.append(meta_path)
    return paths
