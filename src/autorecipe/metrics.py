"""Lexical metrics used to compare generated documents across iterations.

All metrics share one tokenizer: case-fold, then keep the maximal runs of
characters that ``str.isalnum`` accepts.  Each metric takes either a text
or the ``TokenProfile`` of one, so a caller comparing many documents
tokenizes each once.  Vocabulary comparisons are binary set containment
unless the count-weighted variant is requested.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import KeysView

from ._struct import Struct
from .errors import AutoRecipeError

__all__ = [
    "TokenProfile",
    "tokenize",
    "type_token_ratio",
    "coverage",
    "similarity",
]


class TokenProfile(Struct):
    """Token multiset of one document: the count of each token, and their sum."""

    counts: Counter
    total: int

    @property
    def vocabulary(self) -> KeysView[str]:
        return self.counts.keys()

    @property
    def unique(self) -> int:
        return len(self.counts)


# Word characters minus the underscore: exactly the characters str.isalnum accepts.
_TOKEN = re.compile(r"[^\W_]+")
# For ASCII text: every non-alphanumeric ASCII character becomes a space.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})


def tokenize(text: str) -> TokenProfile:
    """Case-fold, then keep the maximal runs of alphanumeric characters.

    ASCII text is split on a translated copy, which is several times
    faster than the regex; any other text goes through the regex.
    """
    folded = text.casefold()
    if folded.isascii():
        tokens = folded.translate(_ASCII_SEPARATORS).split()
    else:
        tokens = _TOKEN.findall(folded)
    return TokenProfile(Counter(tokens), len(tokens))


def _profile(text: str | TokenProfile) -> TokenProfile:
    return text if isinstance(text, TokenProfile) else tokenize(text)


def type_token_ratio(text: str | TokenProfile) -> float:
    """Unique token count divided by the square root of the total token count."""
    profile = _profile(text)
    if profile.total == 0:
        raise AutoRecipeError("cannot compute type-token ratio of a token-free text")
    return profile.unique / math.sqrt(profile.total)


def coverage(
    base: str | TokenProfile, other: str | TokenProfile, weighted: bool = False
) -> float:
    """Percentage of the base vocabulary that also occurs in the other text.

    The default is binary containment over vocabularies.  With
    ``weighted=True`` each covered type counts as many times as it occurs
    in the base text.
    """
    base_profile = _profile(base)
    if base_profile.total == 0:
        raise AutoRecipeError("coverage base text has no tokens")
    other_vocab = _profile(other).vocabulary
    shared = base_profile.vocabulary & other_vocab
    if weighted:
        covered = sum(base_profile.counts[t] for t in shared)
        return 100.0 * covered / base_profile.total
    return 100.0 * len(shared) / base_profile.unique


def similarity(a: str | TokenProfile, b: str | TokenProfile) -> float:
    """Cosine similarity of the two texts' term-frequency vectors.

    The vectors span the union vocabulary, so identical texts score 1.0
    regardless of length.  The sums are of integer counts, so they are exact.
    """
    pa, pb = _profile(a), _profile(b)
    if pa.total == 0 or pb.total == 0:
        raise AutoRecipeError("similarity needs tokens on both sides")
    dot = sum(n * pb.counts[t] for t, n in pa.counts.items())
    norm_a = math.sqrt(sum(n * n for n in pa.counts.values()))
    norm_b = math.sqrt(sum(n * n for n in pb.counts.values()))
    return dot / (norm_a * norm_b)
