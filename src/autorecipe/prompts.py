"""The shipped prompt templates and role profiles, looked up by id.

Templates use ``${name}`` placeholders.  The set of required
placeholders is always derived from the body, never declared by hand,
so it cannot drift.
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
    "RoleProfile",
    "ROLE_NAMES",
    "PLACEHOLDER_PATTERN",
    "instantiate",
    "default_registry",
]

PLACEHOLDER_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

ROLE_NAMES = ("domain-expert", "data-scientist")


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    role: str  # system | user
    body: str

    def __post_init__(self):
        if self.role not in ("system", "user"):
            raise ValueError(f"template role must be system or user, got {self.role!r}")
        if not self.id:
            raise ValueError("template id must be non-empty")

    @property
    def required_placeholders(self) -> frozenset[str]:
        return frozenset(PLACEHOLDER_PATTERN.findall(self.body))

    def partial(self, bindings: dict[str, str]) -> "PromptTemplate":
        """Substitute only the given names, leaving other placeholders intact."""
        body = PLACEHOLDER_PATTERN.sub(
            lambda m: bindings[m.group(1)] if m.group(1) in bindings else m.group(0),
            self.body,
        )
        return PromptTemplate(self.id, self.role, body)


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
class RoleProfile:
    """A chat persona: its name and the system prompt it speaks with."""

    name: str
    system_prompt_id: str

    def __post_init__(self):
        if self.name not in ROLE_NAMES:
            raise ValueError(f"unknown role name {self.name!r}; expected one of {ROLE_NAMES}")


@dataclass(frozen=True)
class PromptRegistry:
    templates: dict[str, PromptTemplate] = field(default_factory=dict)
    roles: dict[str, RoleProfile] = field(default_factory=dict)

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self.templates[template_id]
        except KeyError:
            raise AutoRecipeError(f"no template registered under {template_id!r}") from None

    def role(self, name: str) -> RoleProfile:
        try:
            return self.roles[name]
        except KeyError:
            raise AutoRecipeError(f"no role profile registered under {name!r}") from None

    def resolve_role(self, profile: RoleProfile) -> PromptTemplate:
        """Return the profile's system template, checking it exists and is a system prompt."""
        template = self.get(profile.system_prompt_id)
        if template.role != "system":
            raise ValueError(
                f"role {profile.name!r} points at {template.id!r}, which is not a system prompt"
            )
        return template


def default_registry() -> PromptRegistry:
    """Registry of the shipped prompt seeds and the two role profiles."""
    return PromptRegistry(
        templates={
            template_id: PromptTemplate(template_id, role, body)
            for template_id, (role, body) in presets.PROMPT_SEEDS.items()
        },
        roles={name: RoleProfile(name, prompt_id) for name, prompt_id in presets.ROLE_SEEDS.items()},
    )
