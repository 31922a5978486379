"""The shipped prompt templates, looked up by id.

Templates use ``${name}`` placeholders.  The set of required
placeholders is always derived from the body, never declared by hand,
so it cannot drift.  A persona is the id of the system prompt it speaks
with; that prompt holds no placeholder and is sent as it stands.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from . import presets
from .errors import AutoRecipeError, MissingBindingError, UnknownPlaceholderWarning

__all__ = [
    "PromptTemplate",
    "PromptRegistry",
    "PLACEHOLDER_PATTERN",
    "instantiate",
    "default_registry",
]

PLACEHOLDER_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str

    @property
    def required_placeholders(self) -> frozenset[str]:
        return frozenset(PLACEHOLDER_PATTERN.findall(self.body))

    def partial(self, bindings: dict[str, str]) -> "PromptTemplate":
        """Substitute only the given names, leaving other placeholders intact."""
        body = PLACEHOLDER_PATTERN.sub(
            lambda m: bindings[m.group(1)] if m.group(1) in bindings else m.group(0),
            self.body,
        )
        return PromptTemplate(self.id, body)


def instantiate(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Fill every placeholder; the result contains no placeholder syntax.

    Raises MissingBindingError when bindings do not cover the template's
    placeholders; unused binding names only warn.
    """
    required = template.required_placeholders
    missing = required - bindings.keys()
    if missing:
        raise MissingBindingError(missing, context=template.id)
    extras = bindings.keys() - required
    if extras:
        warnings.warn(
            UnknownPlaceholderWarning(
                f"{template.id}: unused bindings: {', '.join(sorted(extras))}"
            ),
            stacklevel=2,
        )
    return PLACEHOLDER_PATTERN.sub(lambda m: bindings[m.group(1)], template.body)


@dataclass(frozen=True)
class PromptRegistry:
    templates: dict[str, PromptTemplate] = field(default_factory=dict)
    roles: dict[str, str] = field(default_factory=dict)  # persona -> system prompt id

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self.templates[template_id]
        except KeyError:
            raise AutoRecipeError(f"no template registered under {template_id!r}") from None

    def role(self, name: str) -> str:
        """The id of the persona's system prompt."""
        try:
            return self.roles[name]
        except KeyError:
            raise AutoRecipeError(f"no role registered under {name!r}") from None


def default_registry() -> PromptRegistry:
    """Registry of the shipped prompt seeds and the domain-expert persona."""
    return PromptRegistry(
        templates={
            template_id: PromptTemplate(template_id, body)
            for template_id, body in presets.PROMPT_SEEDS.items()
        },
        roles={"domain-expert": "domain-expert.system"},
    )
