"""Exception and warning types shared across the package.

An error class exists here only where code catches it, or where the
retry rule selects it (``TransportError``).  Every other failure is a
plain ``AutoRecipeError``, and its message, not its class, names what
went wrong.  A warning's class is its category, by which a filter
selects it.  The CLI maps the families to exit codes: ``GatewayError``
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


class GatewayError(AutoRecipeError):
    """Base class for chat-gateway failures."""


class TransportError(GatewayError):
    """A gateway failure that may pass on a retry: a timeout, a dropped
    connection, or an HTTP status that ``HttpGateway`` retries."""


class SearchClientError(AutoRecipeError):
    pass


class StageError(AutoRecipeError):
    """Wraps a pipeline failure; its message names the stage it happened in."""

    def __init__(self, stage: str, cause: BaseException):
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
