"""Exception and warning types shared across the package.

A class exists here only where some code tells it apart: a caller
catches it, or its constructor formats data.  Every other failure is a
plain ``AutoRecipeError``, and its message, not its class, names what
went wrong.  The CLI maps the families to exit codes: ``GatewayError``
(``TransportError`` included) and ``SearchClientError`` exit 3; every
other ``AutoRecipeError`` exits 2; a ``StageError`` exits as the failure
it wraps.
"""

from __future__ import annotations


class AutoRecipeError(Exception):
    """Base class for every error raised by this package."""


class ValidationFailedError(AutoRecipeError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("validation failed:\n" + "\n".join(f"- {v}" for v in self.violations))


class CycleDetectedError(AutoRecipeError):
    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class MultipleRootsError(AutoRecipeError):
    def __init__(self, roots: list[str]):
        self.roots = list(roots)
        super().__init__("multiple root candidates: " + ", ".join(self.roots))


class MissingBindingError(AutoRecipeError):
    def __init__(self, names: set[str], context: str = ""):
        self.names = set(names)
        where = f" in {context}" if context else ""
        super().__init__(f"missing bindings{where}: " + ", ".join(sorted(self.names)))


class GatewayError(AutoRecipeError):
    """Base class for chat-gateway failures; ``execute`` sets the failing step index."""

    step_index: int | None = None


class TransportError(GatewayError):
    """A gateway failure that may pass on a retry: a timeout, a dropped
    connection, or an HTTP status that ``HttpGateway`` retries."""


class SearchClientError(AutoRecipeError):
    pass


class StageError(AutoRecipeError):
    """Wraps a pipeline failure with the stage it happened in."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")


class UnknownPlaceholderWarning(UserWarning):
    """Bindings contained names the template does not use."""


class NoPartsWarning(UserWarning):
    """Knowledge text had no recognizable part headings."""


class NoConfidenceWarning(UserWarning):
    """A refinement reply carried no confidence marker; treated as 0."""


class FewerClaimsWarning(UserWarning):
    """The model produced fewer parseable claims than requested."""
