"""Exception types raised by the library, and :func:`stage`, which puts the
failing stage in front of an error's message."""

import contextlib


class SeqdiError(Exception):
    """Base class for all library errors."""


class NotPositiveDefinite(SeqdiError):
    """A matrix required to be SPD failed the Cholesky pivot test."""


class Separation(SeqdiError):
    """Logistic fit drifted to quasi-complete separation."""


class NoConvergence(SeqdiError):
    """Iterative fit exhausted its iteration budget."""


class Unidentifiable(SeqdiError):
    """Variance-model exponent cannot be identified from the data."""


class InvalidParams(SeqdiError):
    """Population or mechanism parameters violate their constraints."""


class OutOfBracket(SeqdiError):
    """Root bracketing interval does not contain the calibration target."""


class DegeneratePartition(SeqdiError):
    """Certainty stratum or its complement came out empty."""


class ParseError(SeqdiError):
    """Malformed input file; carries row and column location."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class MissingColumn(SeqdiError):
    """A required CSV column is absent."""


class Infeasible(SeqdiError):
    """Requested design cannot satisfy the probability bounds."""


class NonpositiveSize(SeqdiError):
    """A size variable for PPS probabilities is zero or negative."""


class EmptySample(SeqdiError):
    """A Poisson draw selected no unit."""


class SingularVariance(SeqdiError):
    """Summed coefficient variance matrix is not positive definite."""


class DegenerateMetrics(SeqdiError):
    """Summary statistics undefined: too few replications or a zero target total."""


class ConfigError(SeqdiError):
    """Experiment configuration failed schema validation."""


@contextlib.contextmanager
def stage(name):
    """Raise a SeqdiError of the block again as the same class, its message led by ``name``."""
    try:
        yield
    except SeqdiError as err:
        raise type(err)(f"{name}: {err}") from err
