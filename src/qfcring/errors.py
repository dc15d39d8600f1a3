"""Exception hierarchy.

The CLI maps these onto process exit codes: ConfigError and the input
validation family -> 2 (in a CLI run every input comes from the config or
its table file), the infeasibility family -> 3, numerical failures -> 4.
"""

from __future__ import annotations


class QfcError(Exception):
    """Base class for all package errors."""


# --- domain / input validation -------------------------------------------

class OutOfDomain(QfcError):
    """Evaluation requested outside a model's validity window."""


class UnknownWidth(QfcError):
    """No dispersion or coupler model exists for the requested waveguide width."""


class ParseError(QfcError):
    """Malformed table file (bad row, duplicate key, out-of-range value)."""


class FitError(QfcError):
    """Least-squares fit residual exceeded the acceptance bound."""


class DomainError(QfcError):
    """Inputs are structurally unusable (too few samples, zero rate, ...)."""


class NonphysicalRate(QfcError):
    """A rate violates a physical ordering (e.g. kappa_ex > kappa_tot)."""


class DegenerateCoupling(QfcError):
    """A coupling ratio of exactly 0 or 1 makes the requested formula singular."""


# --- integrator -----------------------------------------------------------

class StepSizeTooLarge(QfcError):
    """Time step violates the integrator stability bound."""


class NonFinite(QfcError):
    """Amplitudes overflowed or became NaN during integration."""


# --- search / matching ----------------------------------------------------

class NoResonance(QfcError):
    """A wavelength band contains no cavity resonance."""


class SweepStepTooCoarse(QfcError):
    """Temperature sweep step could skip over feasible solutions."""


class NoFeasibleMatch(QfcError):
    """Triple-resonance search found no candidate satisfying all constraints.

    Carries the best infeasible candidate and its violated constraints for
    diagnostics.
    """

    def __init__(self, message, best_candidate=None, violations=None):
        super().__init__(message)
        self.best_candidate = best_candidate
        self.violations = violations or []


class StaleResult(QfcError):
    """A stored match result disagrees with a from-scratch re-derivation."""


class UnmatchedVariant(QfcError):
    """A device variant lacks a triple-resonance solution."""


class CalibrationInfeasible(QfcError):
    """No calibration satisfies the requested anchors; names the violated one."""


# --- runner ---------------------------------------------------------------

class ConfigError(QfcError):
    """Configuration file is missing, malformed, or violates the schema."""


class NumericalFailure(QfcError):
    """A numerical routine failed to converge or produced non-finite values."""


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

_INPUT = (ConfigError, OutOfDomain, UnknownWidth, ParseError, DomainError, NonphysicalRate,
          DegenerateCoupling)
_INFEASIBLE = (NoFeasibleMatch, UnmatchedVariant, CalibrationInfeasible, NoResonance)
_NUMERICAL = (NumericalFailure, FitError, StepSizeTooLarge, NonFinite, SweepStepTooCoarse)


def exit_code_for(exc: BaseException) -> int:
    """Process exit code for an exception raised by an experiment run."""
    if isinstance(exc, _INPUT):
        return EXIT_CONFIG
    if isinstance(exc, _INFEASIBLE):
        return EXIT_INFEASIBLE
    if isinstance(exc, _NUMERICAL):
        return EXIT_NUMERICAL
    return 1
