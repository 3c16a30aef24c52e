"""Exception hierarchy shared across the package.

CLI exit codes: 3 for a ValidationError, SchemaError and LogError included;
4 for a FeasibilityError; 5 for TrainingDiverged; 6 for WorkerLost. Anything
else is a bug.
"""
from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool


class PruneSpaceError(Exception):
    """Base class for all package errors."""


class ValidationError(PruneSpaceError, ValueError):
    """Bad input: an out-of-range value, a malformed document or a refused run directory."""


class SchemaError(ValidationError):
    """A JSON document does not fit its spec: unknown, missing or mistyped field, by path."""


class LogError(ValidationError):
    """A trial log is corrupt or inconsistent."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FeasibilityError(PruneSpaceError, RuntimeError):
    """A constrained search (bisection target, rejection sampling) cannot be satisfied."""

    def __init__(self, message: str, attempts: int | None = None):
        super().__init__(message)
        self.attempts = attempts


class TrainingDiverged(PruneSpaceError, RuntimeError):
    """Training produced a non-finite loss; carries where (epoch and step,
    when known) and the partial accuracy trace."""

    def __init__(
        self, message: str, trace: tuple[float, ...] = (), epoch: int | None = None, step: int | None = None
    ):
        super().__init__(message)
        self.trace = tuple(trace)
        self.epoch, self.step = epoch, step


class WorkerLost(PruneSpaceError, BrokenProcessPool):
    """A pool worker died (killed, or out of memory) before its candidates were recorded."""
