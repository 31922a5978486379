"""Exception and warning types shared across the package."""

from __future__ import annotations


class AutoRecipeError(Exception):
    """Base class for every error raised by this package."""


# --- taxonomy ---------------------------------------------------------------

class TaxonomyError(AutoRecipeError):
    pass


class EmptyDocumentError(TaxonomyError):
    """Document has no content to parse (also used for part-less knowledge docs)."""


class CycleDetectedError(TaxonomyError):
    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class MultipleRootsError(TaxonomyError):
    def __init__(self, roots: list[str]):
        self.roots = list(roots)
        super().__init__("multiple root candidates: " + ", ".join(self.roots))


class DanglingReferenceError(TaxonomyError):
    pass


class UnknownNodeError(TaxonomyError):
    pass


# --- prompt registry --------------------------------------------------------

class MissingBindingError(AutoRecipeError):
    def __init__(self, names: set[str], context: str = ""):
        self.names = set(names)
        where = f" in {context}" if context else ""
        super().__init__(f"missing bindings{where}: " + ", ".join(sorted(self.names)))


class UnknownPlaceholderWarning(UserWarning):
    """Bindings contained names the template does not use."""


# --- plan generation --------------------------------------------------------

class PlanError(AutoRecipeError):
    pass


class GoalUnboundError(PlanError):
    pass


class NoStepsError(PlanError):
    pass


class NoExecutionOrderError(PlanError):
    pass


class NonContiguousIndicesError(PlanError):
    pass


class UnknownStepInOrderError(PlanError):
    pass


class UnresolvableCodeStepError(PlanError):
    pass


# --- execution --------------------------------------------------------------

class ExecutionError(AutoRecipeError):
    pass


class TooFewStepsError(ExecutionError):
    pass


class MalformedFinalAnswerError(ExecutionError):
    pass


class EmptyReplyError(ExecutionError):
    pass


class NoPartsWarning(UserWarning):
    """Knowledge text had no recognizable part headings."""


# --- refinement -------------------------------------------------------------

class NoConfidenceError(AutoRecipeError):
    pass


class ConfidenceOutOfRangeError(AutoRecipeError):
    pass


class NoConfidenceWarning(UserWarning):
    """A refinement reply carried no confidence marker; treated as 0."""


# --- references -------------------------------------------------------------

class SearchClientError(AutoRecipeError):
    pass


class NliClientError(AutoRecipeError):
    pass


class FewerClaimsWarning(UserWarning):
    """The model produced fewer parseable claims than requested."""


# --- recipe store / scoring -------------------------------------------------

class ValidationFailedError(AutoRecipeError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("validation failed:\n" + "\n".join(f"- {v}" for v in self.violations))


class NotFoundError(AutoRecipeError):
    pass


class OutOfDomainError(AutoRecipeError):
    pass


class MissingSensorError(AutoRecipeError):
    pass


class NotReciprocalError(AutoRecipeError):
    pass


class NonPositiveEntryError(AutoRecipeError):
    pass


class RatioIndexUnavailableError(AutoRecipeError):
    """Consistency ratio requested for a matrix size outside the published index table."""


class NotFittedError(AutoRecipeError):
    pass


# --- text metrics -----------------------------------------------------------

class EmptyTextError(AutoRecipeError):
    pass


# --- model gateway ----------------------------------------------------------

class GatewayError(AutoRecipeError):
    """Base class for chat-gateway failures; may carry the failing step index."""

    def __init__(self, message: str, step_index: int | None = None):
        self.step_index = step_index
        super().__init__(message)


class GatewayTimeoutError(GatewayError):
    pass


class TransportError(GatewayError):
    pass


class ScriptMissError(GatewayError):
    pass


class ReplayMissError(GatewayError):
    pass


class ReplayStoreError(AutoRecipeError):
    """A replay store line is not a JSON record with string key and reply."""


# --- cli --------------------------------------------------------------------

class StageError(AutoRecipeError):
    """Wraps a pipeline failure with the stage it happened in."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")
