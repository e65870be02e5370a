"""Exception hierarchy for the resotrim toolkit.

Every error carries a short machine-readable ``category`` slug. The
``resotrim`` command group reports a raised error on stderr as
``category: message``, then the lines that locate the fault, and exits
with status 2.
"""


class ResotrimError(Exception):
    category = "error"
    details = ()  # the lines under ``category: message`` that locate the fault


class DomainError(ResotrimError):
    """An argument is outside the mathematical domain of an operation."""

    category = "domain"


class InvalidParamsError(ResotrimError):
    category = "invalid-params"


class UnderdeterminedError(ResotrimError):
    category = "underdetermined"


class NoResonanceError(ResotrimError):
    category = "no-resonance"


class InvalidTraceError(ResotrimError):
    category = "invalid-trace"


class ParseError(ResotrimError):
    category = "parse"

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
        self.details = [] if line is None else [f"line {line}"]


class ValidationError(ResotrimError):
    category = "validation"

    def __init__(self, message, paths=()):
        super().__init__(message)
        self.details = self.paths = list(paths)


class CutoffError(ResotrimError):
    """Charge-basis cutoff too small for the requested accuracy."""

    category = "cutoff"


class InversionError(ResotrimError):
    category = "inversion-failed"


class DirectionError(ResotrimError):
    """A trim was requested in the physically impossible direction."""

    category = "direction"


class EstimationError(ResotrimError):
    category = "estimation"


class UndefinedConditionalError(EstimationError):
    category = "undefined-conditional"

    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = condition
