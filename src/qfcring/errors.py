"""Exception hierarchy.

Every error belongs to one family, and the family holds the CLI's process
exit code: `InputError` -> 2 (in a CLI run every input comes from the config
or its table file, so this covers a missing key, a non-finite or unusable
value, and a value outside a model's domain), `Infeasible` -> 3,
`NumericalError` -> 4 (including a failed verification, `StaleResult`).
"""

from __future__ import annotations


class QfcError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(QfcError):
    """An input (config value, table file, argument) is unusable."""

    exit_code = 2


class Infeasible(QfcError):
    """The inputs are valid, but no design satisfies them."""

    exit_code = 3


class NumericalError(QfcError):
    """A numerical routine failed or cannot be trusted."""

    exit_code = 4


# --- input: exit 2 ----------------------------------------------------------

class ConfigError(InputError):
    """Configuration file is missing, malformed, or violates the schema."""


class OutOfDomain(InputError):
    """Evaluation requested outside a model's validity window."""


class UnknownWidth(InputError):
    """No dispersion or coupler model exists for the requested waveguide width."""


class ParseError(InputError):
    """Malformed table file (bad row, duplicate key, out-of-range value)."""


class DomainError(InputError):
    """Inputs are structurally unusable (too few samples, zero rate, ...)."""


class NonphysicalRate(InputError):
    """A rate violates a physical ordering (e.g. kappa_ex > kappa_tot)."""


class DegenerateCoupling(InputError):
    """A coupling ratio of exactly 0 or 1 makes the requested formula singular."""


# --- infeasible: exit 3 -----------------------------------------------------

class NoResonance(Infeasible):
    """A wavelength band contains no cavity resonance."""


class NoFeasibleMatch(Infeasible):
    """Triple-resonance search found no candidate satisfying all constraints.

    Carries the best infeasible candidate for diagnostics; the message names
    the constraint it violates.
    """

    def __init__(self, message, best_candidate=None):
        super().__init__(message)
        self.best_candidate = best_candidate


class UnmatchedVariant(Infeasible):
    """A device variant lacks a triple-resonance solution."""


class CalibrationInfeasible(Infeasible):
    """No calibration satisfies the requested anchors; names the violated one."""


# --- numerical: exit 4 ------------------------------------------------------

class NumericalFailure(NumericalError):
    """A numerical routine failed to converge or produced non-finite values."""


class FitError(NumericalError):
    """Least-squares fit residual exceeded the acceptance bound."""


class StepSizeTooLarge(NumericalError):
    """Time step violates the integrator stability bound."""


class NonFinite(NumericalError):
    """Amplitudes overflowed or became NaN during integration."""


class SweepStepTooCoarse(NumericalError):
    """Temperature sweep step could skip over feasible solutions."""


class StaleResult(NumericalError):
    """A stored match result disagrees with a from-scratch re-derivation."""
