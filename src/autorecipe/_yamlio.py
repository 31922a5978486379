"""The one YAML loader every input goes through.

Inputs that must be mappings (configs, scripts, bundle files) go through
``load_mapping``, which checks the document's shape in one place.

Dumping stays on ``yaml.safe_dump`` at each writer, so written files do
not depend on which parser PyYAML was built with.
"""

from __future__ import annotations

import yaml

from .errors import AutoRecipeError, ValidationFailedError

if yaml.__with_libyaml__:
    from yaml.composer import Composer
    from yaml.constructor import SafeConstructor
    from yaml.cyaml import CParser
    from yaml.resolver import Resolver

    class _Loader(Composer, CParser, SafeConstructor, Resolver):
        """libyaml's C scanner and parser under PyYAML's Python composer.

        Builds the same objects as ``yaml.SafeLoader``.  ``yaml.CSafeLoader``
        composes nodes by C recursion with no depth check, so a document of
        a few tens of thousands of nested brackets overflows the C stack;
        the Python composer raises RecursionError instead.
        """

        def __init__(self, stream):
            CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)
else:
    _Loader = yaml.SafeLoader


def load_yaml(stream, source):
    """The document in ``stream`` (text, bytes or an open file), as ``yaml.safe_load``.

    A document nested too deeply for the composer, or an explicitly tagged
    scalar that PyYAML cannot build (``!!int ""``, ``!!bool x``), raises
    ``AutoRecipeError`` naming ``source``, the file path or a description
    of the document; other syntax errors stay ``yaml.YAMLError``.
    """
    try:
        return yaml.load(stream, Loader=_Loader)
    except RecursionError:
        raise AutoRecipeError(f"unreadable {source}: nested too deeply") from None
    except (LookupError, AttributeError, TypeError, ValueError) as exc:
        # SafeConstructor parses tagged scalars without checking them first.
        raise AutoRecipeError(f"unreadable {source}: bad tagged value ({exc!r})") from exc


def load_mapping(stream, source, what: str) -> dict:
    """A YAML document that must be a mapping; an empty document is ``{}``.

    Any other document raises ``ValidationFailedError`` naming ``source``
    and ``what`` the document is meant to be.
    """
    data = load_yaml(stream, source) or {}
    if not isinstance(data, dict):
        raise ValidationFailedError([f"{source}: {what} must be a mapping"])
    return data
