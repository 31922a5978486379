from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autorecipe import presets
from autorecipe.errors import AutoRecipeError, UnknownPlaceholderWarning
from autorecipe.planning import PromptSequence, PromptStep, StepRef, materialize_sequence
from autorecipe.prompts import (
    PromptRegistry,
    default_registry,
    fill_partial,
    instantiate,
    placeholders,
)


def _one(text: str) -> PromptRegistry:
    return PromptRegistry(templates={"t": text})


def test_placeholders_derived_from_body():
    assert placeholders("Describe ${asset_class} using ${asset_description}.") == {
        "asset_class", "asset_description"}
    assert placeholders("no slots") == frozenset()


def test_instantiate_fills_every_slot():
    out = instantiate(_one("Analyze ${kpi} for ${asset_class}."),
                      "t", {"kpi": "asset health", "asset_class": "pump"})
    assert out == "Analyze asset health for pump."
    assert "${" not in out


def test_instantiate_missing_binding():
    with pytest.raises(AutoRecipeError, match="^missing bindings in t: kpi$"):
        instantiate(_one("Analyze ${kpi}."), "t", {})


def test_instantiate_extra_binding_warns():
    with pytest.warns(UnknownPlaceholderWarning, match="^t: unused bindings: stray$"):
        out = instantiate(_one("Analyze ${kpi}."), "t", {"kpi": "health", "stray": "x"})
    assert out == "Analyze health."


def test_substitution_is_literal_not_recursive():
    assert instantiate(_one("Value: ${a}"), "t", {"a": "${b}"}) == "Value: ${b}"


def test_partial_leaves_other_slots():
    half = fill_partial("${a} and ${b}", {"a": "left"})
    assert half == "left and ${b}"
    assert placeholders(half) == {"b"}


def test_registry_get_unknown():
    with pytest.raises(AutoRecipeError, match="^no template registered under 'nope'$"):
        _one("body").get("nope")


def test_default_registry_seeds(registry):
    assert registry.role("domain-expert") == "domain-expert.system"
    with pytest.raises(AutoRecipeError, match="^no role registered under 'wizard'$"):
        registry.role("wizard")
    for template_id in (
        "refinement.initial",
        "refinement.betterment",
        "claims.extract",
        "plan.enumerate-children",
        "plan.sensor-question",
    ):
        assert registry.get(template_id) == presets.PROMPT_SEEDS[template_id]


def test_default_registry_is_a_read_only_view_of_the_seeds(registry):
    assert registry.templates == presets.PROMPT_SEEDS
    with pytest.raises(TypeError):
        registry.templates["plan.collect"] = "Collect nothing."
    with pytest.raises(TypeError):
        registry.roles["domain-expert"] = "plan.collect"
    templates = registry.templates
    with pytest.raises(AttributeError, match="cannot assign to field 'templates'"):
        registry.templates = {}
    assert registry.templates is templates
    assert registry.get("plan.collect") == "Collect all the discovered factors so far."


def test_sent_system_prompts_hold_no_placeholder(registry):
    # A role's system prompt and refinement's go out as they stand, so a
    # placeholder in one would reach the model literally.
    for template_id in (*registry.roles.values(), "refinement.system"):
        assert "${" not in registry.get(template_id), template_id


# --- one filler ---------------------------------------------------------------------------

_PIECES = st.sampled_from(["${asset_class}", "${asset_description}", "${site}"]) | st.text()
_VALUE_PIECES = st.sampled_from(["${asset_class}", "${site}", "$", "{}", "{", "}", "${"]) | st.text()


def _outcome(fill):
    try:
        return "text", fill()
    except AutoRecipeError as exc:
        # "missing bindings in <context>: <names>"; only the context differs.
        if not str(exc).startswith("missing bindings in "):
            raise
        return "missing", str(exc).rpartition(": ")[2]


@given(pieces=st.lists(_PIECES, max_size=8),
       asset_class=st.lists(_VALUE_PIECES, max_size=4).map(lambda p: "pump " + "".join(p)),
       description=st.lists(_VALUE_PIECES, max_size=4).map("".join))
def test_instantiate_and_materialize_fill_alike(pieces, asset_class, description):
    """The same text and values give the same text, or the same missing names."""
    text = "Step text " + "".join(pieces)
    bindings = {"asset_class": asset_class}
    if description.strip():
        bindings["asset_description"] = description
    used = {name: value for name, value in bindings.items() if name in placeholders(text)}
    seq = PromptSequence((PromptStep(1, "export", text),), StepRef(1))
    by_id = _outcome(lambda: instantiate(_one(text), "t", used))
    by_step = _outcome(
        lambda: materialize_sequence(seq, asset_class, description).steps[0].body)
    assert by_id == by_step


# --- shipped prompt texts ------------------------------------------------------------------
# Session keys hash the prompts the pipeline sends, so changing any of these
# texts makes every recorded replay store miss.  Change a text and its hash
# here together, and only on purpose.

TEMPLATE_SHA256 = {
    "domain-expert.system": "f50247c98b8193a63a3b888b5244ff0b30509efb8299bbed67af1755a9114ce4",
    "refinement.system": "3516b878758adabd38f08bc36feb7f8543098eb90c555393d61c87ef8f230a53",
    "refinement.initial": "f6b1aa39de43274b904bc8d4e796ebfa1e561874bced58c488a5ca0e139a9aec",
    "refinement.betterment": "43fd81fecce22fc587b069d8356db77745091cf832abf3500bfa3c2f087249d6",
    "claims.extract": "bb01ec99df9e25d4fa8b6f6d2aca195482a17360ab74167c420b059e11544cdb",
    "plan.enumerate-children": "f6be7a7dc6dfd2e1db9f34a85f7360f6acf0086b6296ff88156c48fdf09d3b92",
    "plan.enumerate-self": "de27880180d2bbd2eed7cc35d7acb9bb17431615842acd052e4736f46e06ba12",
    "plan.child": "422eeb616d74834213a368587f78262d98f94910c2f34340b61e893e767aab8c",
    "plan.collect": "679c12385786156555df8f45a33694a0c4265a8738a91d311bd7eb93bcd0043d",
    "plan.specialize-asset": "42a53a907e3b054e63bf2732fa2c69688c2553c327e9fe063d4bef1bd4c219e9",
    "plan.specialize-kpis": "7a6d85f9cc1bed89629fa3b72dd6c44e7fc049b87200ac59681bc61be6028436",
    "plan.code-check": "be9364b68c5ee2d6253a3c8db6d16ce9c0df6860318cf4d6ada3f6ec49a0b6cb",
    "plan.export": "32949230d82f7f2e7b4ef72eb06ef141c4b2db002faaaf00a3dc990114a07814",
    "plan.sensor-question": "5920c8e9cb665057e9a7269007c2959ea8bd66c0dc6c415dec95ee2afe44d35e",
}

ROLE_PROMPTS = {
    "domain-expert": "domain-expert.system",
}

# Preset texts the planner and the execution strategies splice into prompts.
PRESET_SHA256 = {
    "PLANNER_TASK_INTRO": "59606cbf68d283d0fc37d26d6a39b1e36012f3696e9b280a7a0b78033da5e02b",
    "PLANNER_CONSTRAINTS": "a2897391701dec187ad792c50497290cbf32fa1fdf352131474708b11d7a0092",
    "COMPONENT_HEALTH_DEMONSTRATION": "f4fa9d6a818ee98557682fb6f8d895b29b0488396efa60c279685173d1ab7e35",
    "COT_SUFFIX": "055d95e1222cfb7822b09f10255193ad76ff1811acadb16a989cf8af3b340495",
    "REACT_HEADER": "a24aefdd8cc3ee3cd88917e1b35f1088406c1a3557fccf00f05b3203e6eb8e46",
    "REACT_FORMAT_BLOCK": "670813a92bea0bbc1f186d5b8f2e44cc375843c913cb1bc7d611630744521f53",
    "REACT_FINAL_BLOCK": "97cbbf4b422e6ca1730ede8e957a66eed9b76bbe264b416551c6edaca73c583f",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_shipped_template_bodies_are_pinned(registry):
    shipped = {template_id: _sha256(body) for template_id, body in registry.templates.items()}
    assert shipped == TEMPLATE_SHA256
    assert registry.roles == ROLE_PROMPTS


def test_shipped_preset_prompts_are_pinned():
    assert {name: _sha256(getattr(presets, name)) for name in PRESET_SHA256} == PRESET_SHA256
