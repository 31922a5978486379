"""The shipped prompts, looked up by id; a prompt is its text.

This module is the one reader of ``${name}`` slots.  The names a text
needs are always read from the text, never declared by hand, so they
cannot drift.  A persona is the id of the system prompt it speaks with;
that prompt holds no placeholder and is sent as it stands.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Mapping
from types import MappingProxyType

from . import presets
from ._struct import Struct, fresh
from .errors import AutoRecipeError, UnknownPlaceholderWarning

__all__ = [
    "PromptRegistry",
    "placeholders",
    "fill",
    "fill_partial",
    "instantiate",
    "default_registry",
]

_PLACEHOLDER = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def placeholders(text: str) -> frozenset[str]:
    """The names of the text's ``${name}`` slots."""
    return frozenset(_PLACEHOLDER.findall(text))


def fill_partial(text: str, bindings: Mapping[str, str]) -> str:
    """Substitute only the given names, leaving other placeholders intact."""
    return _PLACEHOLDER.sub(lambda m: bindings.get(m.group(1), m.group(0)), text)


def fill(text: str, bindings: Mapping[str, str], context: str) -> str:
    """Fill every slot with its value, verbatim and in one pass, so ``${...}``
    in a value is never read.  Slots with no value raise AutoRecipeError
    naming ``context`` and the slots (``missing bindings in step 1: foo``)."""
    missing = placeholders(text) - bindings.keys()
    if missing:
        raise AutoRecipeError(f"missing bindings in {context}: " + ", ".join(sorted(missing)))
    return _PLACEHOLDER.sub(lambda m: bindings[m.group(1)], text)


class PromptRegistry(Struct):
    templates: Mapping[str, str] = fresh(dict)  # id -> text
    roles: Mapping[str, str] = fresh(dict)  # persona -> system prompt id

    def get(self, template_id: str) -> str:
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


def instantiate(registry: PromptRegistry, template_id: str, bindings: dict[str, str]) -> str:
    """The template filled by ``fill``; unused binding names only warn."""
    text = registry.get(template_id)
    filled = fill(text, bindings, template_id)
    extras = bindings.keys() - placeholders(text)
    if extras:
        warnings.warn(
            UnknownPlaceholderWarning(
                f"{template_id}: unused bindings: {', '.join(sorted(extras))}"
            ),
            stacklevel=2,
        )
    return filled


_DEFAULT = PromptRegistry(
    templates=MappingProxyType(presets.PROMPT_SEEDS),
    roles=MappingProxyType({"domain-expert": "domain-expert.system"}),
)


def default_registry() -> PromptRegistry:
    """Read-only registry of the shipped prompt seeds and the domain-expert persona."""
    return _DEFAULT
