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

import contextlib
import dataclasses
import functools
import json
import math
import numbers
import os
import platform
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import design as design_mod
from . import estimators as est
from . import homogeneity as homog
from .errors import (ConfigError, DegenerateMetrics, EmptySample, InvalidParams, NoConvergence,
                     NotPositiveDefinite, Separation, stage)
from .numerics import NewtonStart, RngStream, Workspace, Z_975, logistic_fit, median, weighted_ls
from .pilot import fit_pilot, predict_sigma2
from .population import (
    DEFAULT_SLOPES,
    Population,
    SelectionMechanism,
    calibrate_intercept,
    draw_nonprob,
    generate_population,
    load_population_csv,
    write_csv,
    write_csv_blocks,
)

MAX_REDRAWS = 20
# The most replications a pool worker takes at once, so that at the end of a
# long run no worker waits long on another's last chunk.
MAX_CHUNK = 64


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


# a finite real number, not a bool: Python's json reads NaN and Infinity
def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


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
    "frame" once per replication.  ``compute(stratum, arm, done)`` reads the
    StratumInputs, the arm (an estimators.Arm) and the estimates ``done`` of
    the ``combines`` tags, listed before it in ESTIMATORS.  ``needs`` names
    what it reads beyond the rows: "pilot" (the arm's pilot variances),
    "test" (the arm's homogeneity test), "propensity" (the stratum's
    membership propensities) or "sample" (for a frame estimator, an arm
    drawn from the whole frame; without it the arm is None).  A
    point-only estimator (``variance`` False) returns an Estimate whose
    variance is None."""

    stage: str
    compute: object
    combines: tuple = ()
    needs: tuple = ()
    variance: bool = True


_BY_PI = est.WeightSpec("inverse_pi")
_BY_SIGMA = est.WeightSpec("inverse_pi_sigma")

# The callables look the estimator up on its module at call time, so that
# a rebinding of the module attribute (a tracer, a test double) is seen.
ESTIMATORS = {
    "DI": Estimator("sequential", lambda c, a, done: est.y_di(a, c.y_total, c.n1)),
    "HT_seq": Estimator("sequential", lambda c, a, done: est.y_ht_seq(a, c.y_total)),
    "sepDI_b": Estimator("sequential", lambda c, a, done: est.y_sep_di(
        a, c.y_total, c.x_total_u1, _BY_PI, c.ws)),
    "sepDI_sigma": Estimator("sequential", lambda c, a, done: est.y_sep_di(
        a, c.y_total, c.x_total_u1, _BY_SIGMA, c.ws), needs=("pilot",)),
    "comDI_b": Estimator("sequential", lambda c, a, done: est.y_com_di(
        a, c.y_total, c.certainty_block(_BY_PI), c.x_total_u1, c.ws)),
    "comDI_sigma": Estimator("sequential", lambda c, a, done: est.y_com_di(
        a, c.y_total, c.certainty_block(_BY_SIGMA), c.x_total_u1, c.ws), needs=("pilot",)),
    "adDI": Estimator("sequential", lambda c, a, done: homog.adaptive_estimate(
        done["sepDI_sigma"], done["comDI_sigma"], a.test),
        combines=("sepDI_sigma", "comDI_sigma"), needs=("test",)),
    "GREG": Estimator("frame", lambda c, a, done: est.y_greg_independent(
        a, c.pop.x_total, c.ws), needs=("sample",)),
    "IPW": Estimator("frame", lambda c, a, done: est.y_ipw(c.y_np, c.propensity),
                     needs=("propensity",), variance=False),
    "DR": Estimator("frame", lambda c, a, done: est.y_dr(c.x_np, c.y_np, c.propensity,
                                                         c.pop.x_total, c.ols),
                    needs=("propensity",), variance=False),
    "GREG_DR": Estimator("frame", lambda c, a, done: est.y_fusion(
        done["GREG"], done["DR"], a.size / (a.size + len(c.y_np))),
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
            if isinstance(value, np.generic):  # a Python value, as JSON writes it
                setattr(self, f.name, value.item())
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
            for tag in self.estimators:
                if tag in FRAME_TAGS:
                    raise ConfigError(f"{self.mechanism} reports sequential estimators only, "
                                      f"not {tag!r}")
        else:
            self.f_np = 0.70 if self.f_np is None else self.f_np
            slopes = DEFAULT_SLOPES[self.mechanism] if self.slopes is None else self.slopes
            self.slopes = tuple(v.item() if isinstance(v, np.generic) else v for v in slopes)
            want = len(DEFAULT_SLOPES[self.mechanism])
            if len(self.slopes) != want or not all(map(_is_number, self.slopes)):
                raise ConfigError(f"{self.mechanism} needs 'slopes' of {want} finite numbers")
        if not all(0.0 < frac < 1.0 for frac in (self.f_np, self.f_p) if frac is not None):
            raise ConfigError("sampling fractions must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
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


def metrics(points, variances, y_true):
    """Relative bias and RRMSE in percent, variance ratio, and coverage.

    var_ratio is the mean plug-in variance over the (R-1)-denominator
    Monte Carlo variance; coverage counts the 95% Wald intervals of
    :class:`~seqdi.estimators.Estimate` (half-width Z_975 sd) containing the
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
        covered = np.abs(points - y_true) <= Z_975 * np.sqrt(variances)
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
    computed = set(config.estimators)
    for tag in reversed(ALL_TAGS):  # an estimator combines only tags listed before it
        if tag in computed:
            computed.update(ESTIMATORS[tag].combines)
    needs = {need for tag in computed for need in ESTIMATORS[tag].needs}
    need_test = config.run_test or "test" in needs
    columns, width = {}, 0
    for tag in config.estimators:
        for kind in config.designs if tag in SEQUENTIAL_TAGS else ("",):
            columns[tag, kind] = width
            width += 1 + ESTIMATORS[tag].variance
    tests = {kind: width + 2 * i for i, kind in enumerate(config.designs) if config.run_test}
    return {
        "sequential": [tag for tag in SEQUENTIAL_TAGS if tag in computed],
        "frame": [tag for tag in FRAME_TAGS if tag in computed],
        "need_test": need_test,
        "need_pilot": "pilot" in needs or "optimal" in config.designs,
        "need_sigma2": "pilot" in needs,
        "need_sample": "sample" in needs,
        "need_propensity": "propensity" in needs,
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


class StratumInputs:
    """What the estimators of ESTIMATORS read of one certainty stratum, the
    same for every design arm: its rows and totals, the pilot (fitted when
    ``need_pilot`` or ``need_test``, since the test's stratum fit uses it)
    with its fitted means and variances of the rows, that FGLS fit (when
    ``need_test``) and, given ``config``, its designs, which use no
    randomness and so are built before any draw.  The complement rows, their
    covariate totals, the pilot's variances of them (one prediction per
    stratum, shared by the optimal design and the arms), the certainty rows'
    unit-weight OLS fit (the pilot's first stage when there is a pilot), the
    combined estimator's certainty blocks and the propensities are computed
    on first use and kept.  ``start`` is the propensity fit's Newton start (see
    estimators.estimate_propensity) and ``out``, kept as ``ws``, the
    numerics.Workspace of every fit on the stratum's and its samples' rows,
    both of which a run shares across its strata (None: from zero, and a
    workspace per fit)."""

    def __init__(self, pop, partition, need_pilot, need_test, config=None, start=None,
                 out=None):
        s_np = partition.certainty_idx
        self.pop, self.partition = pop, partition
        self.x_np, self.y_np = x_np, y_np = pop.rows(s_np), pop.y[s_np]
        self.y_total = float(y_np.sum())
        self.n1 = pop.size - len(y_np)
        self.pilot = self.m_np = self.sigma2_np = None
        if need_pilot or need_test:
            # the pilot's fitted means and variances of the certainty rows
            self.m_np, self.sigma2_np = np.empty(len(y_np)), np.empty(len(y_np))
            self.ols = np.empty(x_np.shape[1])  # and its first stage, kept as ``ols``
            self.pilot = fit_pilot(x_np, y_np, fitted=self.m_np, out=out, first=self.ols,
                                   variances=self.sigma2_np)
        self.np_fit = (homog.fgls_np(x_np, y_np, self.pilot, self.sigma2_np, self.m_np, out)
                       if need_test else None)
        self.designs = {}
        if config is not None:
            u1 = partition.complement_idx
            n_p = config.n_p if config.n_p is not None else int(config.f_p * len(u1))
            for kind in config.designs:
                sigma2 = self.sigma2_u1 if kind == "optimal" else None
                self.designs[kind] = design_mod.build_design(kind, self.x_u1, n_p, u1, sigma2)
        self._blocks = {}
        self._start, self.ws = start, out

    @functools.cached_property
    def ols(self):
        """The certainty rows' OLS coefficient, set by the pilot fit when there is one."""
        return weighted_ls(self.x_np, self.y_np, np.ones(len(self.y_np)), self.ws)

    @functools.cached_property
    def x_total_u1(self):
        """The complement rows' covariate totals, which only the regression estimators read."""
        return self.pop.x_total - self.x_np.sum(axis=0)

    @functools.cached_property
    def x_u1(self):
        """The complement rows."""
        return self.pop.rows(self.partition.complement_idx)

    @functools.cached_property
    def sigma2_u1(self):
        """The pilot's variances of the complement rows, shared by the optimal
        design and the arms, which gather theirs by design position."""
        return predict_sigma2(self.pilot, self.x_u1)

    def certainty_block(self, wspec):
        """The combined estimator's estimators.CertaintyBlock under ``wspec``, for
        pooled fits of up to the frame size."""
        if wspec not in self._blocks:
            sigma2 = self.sigma2_np if wspec.kind == "inverse_pi_sigma" else None
            self._blocks[wspec] = est.certainty_block(self.x_np, self.y_np, wspec, sigma2,
                                                      self.pop.size, self.ws)
        return self._blocks[wspec]

    @functools.cached_property
    def propensity(self):
        return est.estimate_propensity(self.pop, self.partition, self.x_np, self._start,
                                       self.ws)


def _replicate(r, state):
    """One Monte Carlo replication of the run ``state`` (a RunState) as a float64
    row in its plan's layout, drawn from stream r + 1.

    Without a fixed stratum it draws one, with the run's propensity start;
    every stratum and sample fit writes into the run's workspace (see
    StratumInputs).  A SeqdiError is raised again as the same class, its
    message led by the replication, its stream id and the design or stage
    that failed."""
    config, pop, plan, stratum, ws = state.config, state.pop, state.plan, state.stratum, state.ws
    rng = RngStream(config.seed, r + 1)
    at = f"replication {r} (stream {r + 1})"
    row = np.full(plan["width"], np.nan)

    def keep(tags, kind, arm):
        done = {}
        for tag in tags:
            done[tag] = ESTIMATORS[tag].compute(stratum, arm, done)
            if (tag, kind) in plan["columns"]:
                col = plan["columns"][tag, kind]
                row[col] = done[tag].point
                if ESTIMATORS[tag].variance:
                    row[col + 1] = done[tag].variance

    with stage(f"{at}, stratum set-up"):
        if stratum is None:
            stratum = StratumInputs(pop, draw_nonprob(pop, state.mech, rng),
                                    plan["need_pilot"], plan["need_test"], config, state.start, ws)
    for kind in config.designs:
        with stage(f"{at}, design {kind}"):
            sample = _draw_with_retry(stratum.designs[kind], rng)
            members, pi_s = sample.members, sample.pi_realized
            y_s, x_s = pop.y[members], pop.rows(members)
            test = None
            if plan["need_test"]:
                p_fit = homog.fgls_p(x_s, y_s, pi_s, config.include_model_variance, ws)
                test = homog.homogeneity_test(stratum.np_fit, p_fit, config.alpha)
            if kind in plan["tests"]:
                col = plan["tests"][kind]
                row[col], row[col + 1] = test.p_value, test.reject
            sigma2 = stratum.sigma2_u1[sample.positions] if plan["need_sigma2"] else None
            keep(plan["sequential"], kind, est.Arm.of(y_s, x_s, pi_s, sigma2, test))
    with stage(f"{at}, frame estimators"):
        arm = None
        if plan["need_sample"]:  # an independent sample from the whole frame
            sample = _draw_with_retry(plan["frame_design"], rng)
            arm = est.Arm.of(pop.y[sample.members], pop.rows(sample.members),
                             sample.pi_realized)
        keep(plan["frame"], "", arm)
    return row


_WORKER_GLOBALS = {}  # a pool worker's RunState


def _init_worker(state):
    _WORKER_GLOBALS["state"] = state


def _run_one(r):
    return _replicate(r, _WORKER_GLOBALS["state"])


@dataclass(frozen=True)
class RunState:
    """What every replication of a run reads: its config, population, selection
    mechanism (None under FixedPartition), plan, fixed stratum (None unless
    FixedPartition), propensity start and workspace; see :func:`_run_state`."""

    config: McConfig
    pop: Population
    mech: SelectionMechanism | None
    plan: dict
    stratum: StratumInputs | None
    start: NewtonStart | None
    ws: Workspace


def _run_state(config: McConfig) -> RunState:
    """The RunState of ``config``'s run.

    ``plan`` is :func:`_plan`'s, and when it needs an independent sample it
    also holds that sample's equal-probability design on the whole frame
    (``frame_design``), a run constant built here once.

    ``ws`` is the run's one numerics.Workspace, sized to the frame (a copy in
    each worker process): every replication's stratum, sample and propensity
    fits write into it.  Under MAR and NMAR, when the plan needs
    propensities, ``start`` is the one start of every replication's
    propensity fit (see StratumInputs): a numerics.NewtonStart at the fit to
    the mechanism's selection probabilities on the frame, the
    population-level limit of each replication's fit, under MAR its intercept
    and slopes.  The first Newton point's frame-sized arrays and Hessian do
    not depend on the replication's selection, so they are built here once.
    The start is the same for every replication, so no result depends on the
    order in which replications run.  When that fit fails, it is the start
    at zero; it is None only when the plan needs no propensities.
    """
    pop, data = _build_population(config)
    plan = _plan(config)
    if pop.true_total == 0:
        raise DegenerateMetrics("the population total is 0; relative bias and RRMSE need "
                                "a nonzero target")
    if plan["need_sample"]:
        with stage("frame sample set-up"):
            n_ind = int(config.f_p * (1.0 - config.f_np) * pop.size)
            plan["frame_design"] = design_mod.equal_probabilities(pop.size, n_ind)

    mech = stratum = start = None
    ws = Workspace(*pop.x.shape)
    if config.mechanism in DEFAULT_SLOPES:
        mech = SelectionMechanism(config.mechanism, tuple(config.slopes), config.f_np)
        mech.intercept = calibrate_intercept(mech, pop)
        if plan["need_propensity"]:
            alpha = np.zeros(pop.x.shape[1])
            with contextlib.suppress(Separation, NoConvergence, NotPositiveDefinite, ValueError):
                alpha = logistic_fit(pop.x, mech.probabilities(pop), out=ws)
            start = NewtonStart(pop.x, alpha, ws)
    else:
        with stage(f"FixedPartition set-up on {config.population_csv}"):
            stratum = StratumInputs(pop, data.require_partition(), plan["need_pilot"],
                                    plan["need_test"], config, out=ws)
    return RunState(config, pop, mech, plan, stratum, start, ws)


def run_mc(config: McConfig, threads: int = 1, progress: bool = False) -> McSummary:
    """Execute the Monte Carlo experiment described by ``config``.

    ``threads`` (at least 1) is the number of worker processes, at most
    one per replication and per CPU.
    Summaries are identical for any worker count because replication r
    consumes stream id r + 1 and aggregation is ordered by replication
    index.  The first failed replication, in replication order, ends the
    run.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    state = _run_state(config)
    plan = state.plan

    n_rep = config.replications
    workers = min(threads, n_rep, os.cpu_count() or 1)
    table = np.empty((plan["width"], n_rep))  # one row per column, one column per replication
    began = time.monotonic()
    with contextlib.ExitStack() as stack:
        if workers == 1:
            outcomes = (_replicate(r, state) for r in range(n_rep))
        else:
            import concurrent.futures  # with logging, ~5 ms that a run in process never pays
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(state,)))
            chunk = min(MAX_CHUNK, max(1, n_rep // (workers * 8)))
            outcomes = pool.map(_run_one, range(n_rep), chunksize=chunk)
        for r, row in enumerate(outcomes):
            table[:, r] = row
            if progress and (r + 1) % max(1, n_rep // 20) == 0:
                print(_progress_line(r + 1, n_rep, time.monotonic() - began), file=sys.stderr,
                      flush=True)

    return _aggregate(config, state.pop, plan, table)


def _progress_line(done: int, total: int, elapsed: float) -> str:
    """The progress line of ``done`` of ``total`` replications after ``elapsed`` seconds,
    with the rate so far and the time left at that rate."""
    rate = done / max(elapsed, 1e-9)
    return f"replication {done}/{total} ({rate:.1f} reps/s, ETA {(total - done) / rate:.0f} s)"


def _aggregate(config, pop, plan, table):
    """The McSummary of the result table, its rows laid out as ``plan`` says."""
    n_rep = config.replications
    arms = []
    for (tag, kind), col in plan["columns"].items():
        points = table[col]
        variances = table[col + 1] if ESTIMATORS[tag].variance else None
        m = metrics(points, variances if n_rep >= 2 else None, pop.true_total)
        arms.append(ArmMetrics(tag, kind, **m, points=points, variances=variances))
    tests = [TestSummary(kind, n_rep, config.alpha, reject_rate=float(np.mean(table[col + 1])),
                         mean_p=float(np.mean(table[col])),
                         median_p=median(table[col]), p_values=table[col])
             for kind, col in plan["tests"].items()]
    return McSummary(pop.true_total, n_rep, config.seed, config.mechanism, arms, tests)


def emit_results(summary: McSummary, out_dir) -> list:
    """Write summary, test summary, per-replication errors, and metadata files.

    The metadata records the seqdi, numpy and Python versions and the BLAS
    thread variables (null when unset), but not the worker count, so that
    every worker count writes the same bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    arms, tests, n_rep = summary.arms, summary.tests, summary.replications
    paths = [os.path.join(out_dir, name) for name in
             ("summary.csv", "test_summary.csv", "replication_errors.csv")]
    write_csv(paths[0], ["Estimator", "Design", "RB", "RRMSE", "VarRatio", "Coverage"],
              [[getattr(arm, name) for arm in arms]
               for name in ("estimator", "design", "rb", "rrmse", "var_ratio", "coverage")],
              seed=summary.seed)
    write_csv(paths[1], ["Design", "R", "alpha", "reject_rate", "mean_p", "median_p"],
              [[getattr(ts, name) for ts in tests]
               for name in ("design", "replications", "alpha", "reject_rate", "mean_p",
                            "median_p")],
              seed=summary.seed)
    write_csv_blocks(paths[2], ["rep", "estimator", "design", "point", "variance", "re"],
                     ([range(n_rep), [arm.estimator] * n_rep, [arm.design] * n_rep, arm.points,
                       [None] * n_rep if arm.variances is None else arm.variances,
                       100.0 * (arm.points - summary.y_true) / summary.y_true]
                      for arm in arms),  # one arm at a time
                     seed=summary.seed)

    meta_path = os.path.join(out_dir, "run_metadata.json")
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "seed": summary.seed,
                "replications": summary.replications,
                "mechanism": summary.mechanism,
                "y_true": summary.y_true,
                "level": 0.95,
                "software": {"seqdi": __version__, "numpy": np.__version__,
                             "python": platform.python_version()},
                # the last bits of a BLAS sum may depend on its thread count
                "blas_threads": {name: os.environ.get(name) for name in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            },
            handle,
            indent=2,
        )
    paths.append(meta_path)
    return paths
