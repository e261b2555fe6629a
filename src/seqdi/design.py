"""Second-stage Poisson designs on the complement stratum.

Three allocations: anticipated-variance optimal (inclusion probability
proportional to the predicted conditional standard deviation), equal
probability, and probability proportional to size.  The optimal and
equal designs enforce the probability floor of 0.01; the PPS design only
caps at 1, so it keeps the raw proportional-to-size behavior (and
its instability when tiny sizes occur).  Every allocation keeps the
expected size whenever the bounds leave room.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, Infeasible, InvalidParams, NonpositiveSize
from .numerics import RngStream
from .population import write_csv

PI_FLOOR = 0.01
FLOORS = {"optimal": PI_FLOOR, "equal": PI_FLOOR, "pps": 0.0}
DESIGN_KINDS = tuple(FLOORS)


@dataclass(frozen=True)
class SecondStageDesign:
    """Inclusion probabilities over the complement-stratum units."""

    indices: np.ndarray
    pi: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        if len(self.indices) != len(self.pi):
            raise ValueError("one probability per unit")
        # written so that a NaN probability fails them
        if not ((self.pi > 0.0) & (self.pi <= 1.0 + 1e-12)).all():
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        floor = FLOORS[self.kind]
        if not (self.pi >= floor - 1e-12).all():
            raise ValueError(f"{self.kind} design must respect the {floor} floor")


@dataclass(frozen=True)
class DrawnSample:
    """Realized Poisson sample: selected unit ids, their design probabilities and positions."""

    members: np.ndarray
    pi_realized: np.ndarray
    positions: np.ndarray  # in the design: design.indices[positions] == members

    @property
    def size(self) -> int:
        return len(self.members)


def _scale_clamp_rescale(raw: np.ndarray, n_p: float, floor: float) -> np.ndarray:
    """pi = clip(c * raw, floor, 1) with sum pi = n_p: the minimizer of
    sum (1/pi_i - 1) raw_i^2 within the bounds (Sarndal et al. 1992, ch. 12).

    c comes from Newton steps on the piecewise linear sum pi, each exact on
    its piece, kept inside a bisection bracket.  A zero floor disables the
    lower clamp."""
    n1 = len(raw)
    if not 1 <= n_p <= n1:
        raise Infeasible(f"expected size {n_p} outside [1, {n1}]")
    if floor * n1 > n_p + 1e-12:
        raise Infeasible(f"floor {floor} over {n1} units already exceeds size {n_p}")

    c = n_p / float(raw.sum())
    pi = raw * c
    if ((pi >= floor) & (pi <= 1.0)).all():
        return pi
    if n_p == n1:
        return np.ones(n1)
    lo, hi = 0.0, 1.0 / float(raw.min())  # sum pi <= n_p at lo, >= n_p at hi
    for _ in range(2 * n1 + 64):  # a Newton step per piece, then halvings
        scaled = c * raw
        at_ceiling, at_floor = scaled >= 1.0, scaled <= floor
        free = ~(at_ceiling | at_floor)
        budget = n_p - at_ceiling.sum() - floor * at_floor.sum()
        reached = float(scaled.clip(floor, 1.0).sum())
        if abs(reached - n_p) <= 1e-12 * n_p:
            break
        step = budget / float(raw[free].sum()) if free.any() else np.nan
        lo, hi = (c, hi) if reached < n_p else (lo, c)
        c = step if lo < step < hi else (lo + hi) / 2.0
    pi = np.where(at_ceiling, 1.0, floor)
    if free.any():
        pi[free] = (raw[free] * (budget / float(raw[free].sum()))).clip(floor, 1.0)
    return pi


def _design(kind: str, raw: np.ndarray, n_p: int,
            indices: np.ndarray | None) -> SecondStageDesign:
    """Design of the given kind with pi proportional to the positive raw scores,
    under that kind's floor; indices default to 0..len(raw)-1."""
    pi = _scale_clamp_rescale(raw, n_p, FLOORS[kind])
    idx = indices if indices is not None else np.arange(len(pi))
    return SecondStageDesign(indices=idx, pi=pi, kind=kind)


def optimal_probabilities(
    sigma2: np.ndarray, n_p: int, indices: np.ndarray | None = None
) -> SecondStageDesign:
    """Estimated-optimal Poisson design: pi proportional to predicted std dev.

    ``sigma2`` holds the pilot model's predicted variances of the rows
    (:func:`~seqdi.pilot.predict_sigma2`).  Minimizes anticipated variance of
    the separate regression estimator under the working variance model;
    probabilities are scale free in the outcome because the normalization
    cancels the variance scale.  Raises InvalidParams unless every variance
    is finite and positive (a pilot fit to huge outcomes can overflow).
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    usable = np.isfinite(sigma2) & (sigma2 > 0.0)
    if not usable.all():
        raise InvalidParams(f"optimal design: {np.sum(~usable)} of {usable.size} predicted "
                            "variances are not finite and positive")
    return _design("optimal", np.sqrt(sigma2), n_p, indices)


def equal_probabilities(
    n_complement: int, n_p: int, indices: np.ndarray | None = None
) -> SecondStageDesign:
    """Equal-probability Poisson design, pi = n_p / N1 for every unit."""
    return _design("equal", np.ones(n_complement), n_p, indices)


def pps_probabilities(
    size_var: np.ndarray, n_p: int, indices: np.ndarray | None = None
) -> SecondStageDesign:
    """Poisson PPS design, pi proportional to a positive size variable.

    No probability floor is applied: only truncation at 1 with rescaling,
    so small sizes produce genuinely small inclusion probabilities.
    """
    size_var = np.asarray(size_var, dtype=float)
    if np.any(size_var <= 0):
        raise NonpositiveSize("size values must all be positive")
    return _design("pps", size_var, n_p, indices)


def build_design(kind: str, x_frame: np.ndarray, n_p: int, indices: np.ndarray,
                 sigma2: np.ndarray | None = None) -> SecondStageDesign:
    """Design of one of DESIGN_KINDS over the frame rows ``x_frame``.

    The optimal design needs ``sigma2``, the pilot's predicted variances of
    the rows; pps takes x1 as its size.
    """
    if kind == "optimal":
        return optimal_probabilities(sigma2, n_p, indices=indices)
    if kind == "equal":
        return equal_probabilities(len(x_frame), n_p, indices=indices)
    if x_frame.shape[1] < 2:
        raise InvalidParams("pps design needs a size covariate x1")
    return pps_probabilities(x_frame[:, 1], n_p, indices=indices)


def poisson_draw(design: SecondStageDesign, rng: RngStream) -> DrawnSample:
    """Independent Bernoulli(pi_i) inclusion; raises EmptySample on an empty draw."""
    positions = rng.bernoulli(design.pi).nonzero()[0]
    if positions.size == 0:
        raise EmptySample("no unit selected")
    return DrawnSample(design.indices[positions], design.pi[positions], positions)


def design_to_csv(design: SecondStageDesign, path, ids) -> None:
    """Write id, pi, kind rows, with ids[k] the id of the design's k-th unit."""
    write_csv(path, ["id", "pi", "kind"], [ids, design.pi, [design.kind] * len(design.pi)])
