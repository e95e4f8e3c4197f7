"""Exception types shared across the package.

Every error raised intentionally by this package derives from
:class:`KfacLabError`, so callers (notably the CLI) can map failure classes
to exit codes without string matching.
"""

import operator


class KfacLabError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(KfacLabError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class ArgumentError(KfacLabError, ValueError):
    """An argument value is outside the supported domain."""


class CapacityError(KfacLabError, ValueError):
    """An operation would materialize more elements than its cap allows."""


class NumericError(KfacLabError, ArithmeticError):
    """A numerical routine failed (non-SPD input, no convergence, bad values)."""


class OrderingError(KfacLabError, RuntimeError):
    """An operation was called before the state it relies on exists."""


class DataFormatError(KfacLabError, ValueError):
    """A data file does not match its documented layout."""


class ConfigError(KfacLabError, ValueError):
    """A run configuration is missing, malformed, or inconsistent."""


def at_least(n):
    """The rule that an integer value is at least ``n``."""
    return (lambda v: operator.index(v) >= n), f">= {n}"


def one_of(options: tuple):
    """The rule that a value is one of ``options``."""
    return (lambda v: v in options), f"one of {options}"


def check_fields(values, rules):
    """Raise ArgumentError for the first key of ``rules`` whose value in
    ``values`` fails its test.  ``rules`` maps a key to ``(test,
    requirement)``; comparisons are False for NaN, so a float range also
    rejects non-finite values."""
    for key, (test, requirement) in rules.items():
        try:
            passed = test(value := values[key])
        except TypeError:  # a value of the wrong type
            passed = False
        if not passed:
            raise ArgumentError(f"{key} must be {requirement}, got {value!r}")
