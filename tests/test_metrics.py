from __future__ import annotations

import math
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorecipe.errors import AutoRecipeError
from autorecipe.metrics import (
    TokenProfile,
    coverage,
    similarity,
    tokenize,
    type_token_ratio,
)


def test_tokenize_casefolds_and_splits_on_non_alphanumerics():
    profile = tokenize("The pump, the PUMP; 3 pumps!")
    assert profile.total == 6
    assert profile.counts["the"] == 2
    assert profile.counts["pump"] == 2
    assert "3" in profile.vocabulary


def _tokens_by_isalnum(text: str) -> list[str]:
    """The tokenizer's definition, one character at a time."""
    parts, word = [], []
    for ch in text.casefold():
        if ch.isalnum():
            word.append(ch)
        elif word:
            parts.append("".join(word))
            word = []
    if word:
        parts.append("".join(word))
    return parts


@settings(max_examples=500, deadline=None)
@given(text=st.text(alphabet=st.characters(), max_size=300))
def test_tokenize_equals_isalnum_definition(text):
    assert tokenize(text).tokens == _tokens_by_isalnum(text)


def test_tokenize_equals_isalnum_definition_on_every_code_point():
    text = "".join(map(chr, range(0x110000)))
    assert tokenize(text).tokens == _tokens_by_isalnum(text)


# Curly quotes and dashes, letters whose case-fold changes length, and
# non-ASCII letters that fold to ASCII (Kelvin sign, long s).
_MIXED = st.sampled_from(list(string.printable) + list("é’“”—ßİﬁ\u212aſ_٣"))


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=300),
    st.text(alphabet=_MIXED, max_size=300),
))
def test_tokenize_equals_the_regex_on_ascii_and_mixed_text(text):
    assert tokenize(text).tokens == re.findall(r"[^\W_]+", text.casefold())


def test_tokenize_splits_ascii_on_every_non_alphanumeric_character():
    text = "x".join(map(chr, range(128)))
    assert tokenize(text).tokens == re.findall(r"[^\W_]+", text.casefold())


@settings(max_examples=200, deadline=None)
@given(
    a=st.text(alphabet="ab c_-1é", min_size=1, max_size=40),
    b=st.text(alphabet="ab c_-1é", min_size=1, max_size=40),
    weighted=st.booleans(),
)
def test_metrics_take_texts_or_profiles_alike(a, b, weighted):
    pa, pb = tokenize(a), tokenize(b)
    for fn in (
        lambda x, y: type_token_ratio(x),
        lambda x, y: coverage(x, y, weighted=weighted),
        similarity,
    ):
        try:
            expected = fn(a, b)
        except AutoRecipeError as exc:
            with pytest.raises(AutoRecipeError, match=f"^{re.escape(str(exc))}$"):
                fn(pa, pb)
        else:
            assert fn(pa, pb) == expected


def test_token_profile_arguments_are_not_retokenized(monkeypatch):
    import autorecipe.metrics as metrics

    profile = TokenProfile(["a", "a", "b"])
    monkeypatch.setattr(metrics, "tokenize", lambda text: pytest.fail("tokenized again"))
    assert metrics.type_token_ratio(profile) == 2 / math.sqrt(3)
    assert metrics.coverage(profile, profile) == 100.0
    assert metrics.similarity(profile, profile) == pytest.approx(1.0, abs=1e-12)


def test_ttr_hand_value():
    assert type_token_ratio("a b c d") == 2.0


def test_ttr_empty_text():
    with pytest.raises(AutoRecipeError, match="^cannot compute type-token ratio of a token-free"):
        type_token_ratio("   ")


def test_ttr_duplication_law():
    """Repeating a text keeps the vocabulary but doubles the token count,
    so the ratio shrinks by exactly sqrt(2)."""
    rng = random.Random(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for _ in range(50):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 40)))
        once = type_token_ratio(text)
        twice = type_token_ratio(text + " " + text)
        assert abs(twice - once / math.sqrt(2)) < 1e-12


def test_coverage_identity_and_subset():
    assert coverage("a b c", "c b a") == 100.0
    assert coverage("a b c d", "a b") == 50.0
    assert coverage("a b", "a b c d") == 100.0


def test_coverage_weighted_counts_tokens():
    # base has 3 'a' and 1 'b'; only 'a' is covered -> 3 of 4 tokens
    assert coverage("a a a b", "a", weighted=True) == 75.0
    assert coverage("a a a b", "a") == 50.0


def test_coverage_empty_base():
    with pytest.raises(AutoRecipeError, match="^coverage base text has no tokens$"):
        coverage("", "a")


def test_similarity_hand_value():
    # tf vectors (2,1) and (1,2): cos = 4/5
    assert abs(similarity("a a b", "a b b") - 0.8) < 1e-12


def test_similarity_symmetric_and_reflexive():
    rng = random.Random(11)
    words = ["w%d" % i for i in range(8)]
    for _ in range(100):
        a = " ".join(rng.choice(words) for _ in range(rng.randint(1, 30)))
        b = " ".join(rng.choice(words) for _ in range(rng.randint(1, 30)))
        assert abs(similarity(a, b) - similarity(b, a)) < 1e-12
        assert abs(similarity(a, a) - 1.0) < 1e-12
        assert 0.0 <= similarity(a, b) <= 1.0 + 1e-12


def test_similarity_disjoint_vocabulary_is_zero():
    assert similarity("a b", "c d") == 0.0
