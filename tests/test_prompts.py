from __future__ import annotations

import hashlib

import pytest

from autorecipe import presets
from autorecipe.errors import AutoRecipeError, MissingBindingError, UnknownPlaceholderWarning
from autorecipe.prompts import (
    ROLE_NAMES,
    PromptRegistry,
    PromptTemplate,
    RoleProfile,
    default_registry,
    instantiate,
)


def test_placeholders_derived_from_body():
    t = PromptTemplate("t", "user", "Describe ${asset_class} using ${asset_description}.")
    assert t.required_placeholders == {"asset_class", "asset_description"}
    assert PromptTemplate("t", "user", "no slots").required_placeholders == frozenset()


def test_template_role_validated():
    with pytest.raises(ValueError):
        PromptTemplate("t", "assistant", "body")
    with pytest.raises(ValueError):
        PromptTemplate("", "user", "body")


def test_instantiate_fills_every_slot():
    t = PromptTemplate("t", "user", "Analyze ${kpi} for ${asset_class}.")
    out = instantiate(t, {"kpi": "asset health", "asset_class": "pump"})
    assert out == "Analyze asset health for pump."
    assert "${" not in out


def test_instantiate_missing_binding():
    t = PromptTemplate("t", "user", "Analyze ${kpi}.")
    with pytest.raises(MissingBindingError) as excinfo:
        instantiate(t, {})
    assert excinfo.value.names == {"kpi"}


def test_instantiate_extra_binding_warns():
    t = PromptTemplate("t", "user", "Analyze ${kpi}.")
    with pytest.warns(UnknownPlaceholderWarning):
        out = instantiate(t, {"kpi": "health", "stray": "x"})
    assert out == "Analyze health."


def test_substitution_is_literal_not_recursive():
    t = PromptTemplate("t", "user", "Value: ${a}")
    assert instantiate(t, {"a": "${b}"}) == "Value: ${b}"


def test_partial_leaves_other_slots():
    t = PromptTemplate("t", "user", "${a} and ${b}")
    half = t.partial({"a": "left"})
    assert half.body == "left and ${b}"
    assert half.required_placeholders == {"b"}


def test_registry_get_unknown():
    with pytest.raises(AutoRecipeError, match="^no template registered under 'nope'$"):
        PromptRegistry(templates={"u": PromptTemplate("u", "user", "body")}).get("nope")


def test_role_profile_names_are_closed():
    with pytest.raises(ValueError):
        RoleProfile("wizard", "x.system")
    assert RoleProfile("domain-expert", "domain-expert.system").name in ROLE_NAMES


def test_resolve_role_requires_system_template():
    reg = PromptRegistry(templates={"u": PromptTemplate("u", "user", "body")})
    with pytest.raises(ValueError):
        reg.resolve_role(RoleProfile("domain-expert", "u"))


def test_default_registry_seeds(registry):
    for role in ROLE_NAMES:
        profile = registry.role(role)
        assert registry.resolve_role(profile).role == "system"
    for template_id in (
        "refinement.initial",
        "refinement.betterment",
        "claims.extract",
        "plan.enumerate-children",
        "plan.sensor-question",
    ):
        assert registry.get(template_id).body is not None
    # the data-scientist persona carries the two asset slots
    ds = registry.resolve_role(registry.role("data-scientist"))
    assert ds.required_placeholders == {"asset_class", "asset_description"}


# --- shipped prompt texts ------------------------------------------------------------------
# Session keys hash the prompts the pipeline sends, so changing any of these
# texts makes every recorded replay store miss.  Change a text and its hash
# here together, and only on purpose.

TEMPLATE_SHA256 = {
    "domain-expert.system": ("system", "f50247c98b8193a63a3b888b5244ff0b30509efb8299bbed67af1755a9114ce4"),
    "data-scientist.system": ("system", "7186e9f0c7a3c565cd73594fd1cba5dec4827300db00d0a24441efef6ca5b1d7"),
    "refinement.system": ("system", "3516b878758adabd38f08bc36feb7f8543098eb90c555393d61c87ef8f230a53"),
    "refinement.initial": ("user", "f6b1aa39de43274b904bc8d4e796ebfa1e561874bced58c488a5ca0e139a9aec"),
    "refinement.betterment": ("user", "43fd81fecce22fc587b069d8356db77745091cf832abf3500bfa3c2f087249d6"),
    "claims.extract": ("user", "bb01ec99df9e25d4fa8b6f6d2aca195482a17360ab74167c420b059e11544cdb"),
    "plan.enumerate-children": ("user", "f6be7a7dc6dfd2e1db9f34a85f7360f6acf0086b6296ff88156c48fdf09d3b92"),
    "plan.enumerate-self": ("user", "de27880180d2bbd2eed7cc35d7acb9bb17431615842acd052e4736f46e06ba12"),
    "plan.child": ("user", "422eeb616d74834213a368587f78262d98f94910c2f34340b61e893e767aab8c"),
    "plan.collect": ("user", "679c12385786156555df8f45a33694a0c4265a8738a91d311bd7eb93bcd0043d"),
    "plan.specialize-asset": ("user", "42a53a907e3b054e63bf2732fa2c69688c2553c327e9fe063d4bef1bd4c219e9"),
    "plan.specialize-kpis": ("user", "7a6d85f9cc1bed89629fa3b72dd6c44e7fc049b87200ac59681bc61be6028436"),
    "plan.code-check": ("user", "be9364b68c5ee2d6253a3c8db6d16ce9c0df6860318cf4d6ada3f6ec49a0b6cb"),
    "plan.export": ("user", "32949230d82f7f2e7b4ef72eb06ef141c4b2db002faaaf00a3dc990114a07814"),
    "plan.sensor-question": ("user", "5920c8e9cb665057e9a7269007c2959ea8bd66c0dc6c415dec95ee2afe44d35e"),
}

ROLE_PROMPTS = {
    "domain-expert": "domain-expert.system",
    "data-scientist": "data-scientist.system",
}

# Preset texts the planner and the execution strategies splice into prompts.
PRESET_SHA256 = {
    "PLANNER_TASK_INTRO": "59606cbf68d283d0fc37d26d6a39b1e36012f3696e9b280a7a0b78033da5e02b",
    "PLANNER_CONSTRAINTS": "a2897391701dec187ad792c50497290cbf32fa1fdf352131474708b11d7a0092",
    "COMPONENT_HEALTH_DEMONSTRATION": "f4fa9d6a818ee98557682fb6f8d895b29b0488396efa60c279685173d1ab7e35",
    "COT_SUFFIX": "055d95e1222cfb7822b09f10255193ad76ff1811acadb16a989cf8af3b340495",
    "REACT_HEADER": "a24aefdd8cc3ee3cd88917e1b35f1088406c1a3557fccf00f05b3203e6eb8e46",
    "REACT_FORMAT_BLOCK": "670813a92bea0bbc1f186d5b8f2e44cc375843c913cb1bc7d611630744521f53",
    "REACT_FINAL_BLOCK": "960b371a2ea7328d9bc185737921e6ff93bc326b9dbd223ae2f3f7423d9614d8",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_shipped_template_bodies_are_pinned(registry):
    shipped = {t.id: (t.role, _sha256(t.body)) for t in registry.templates.values()}
    assert shipped == TEMPLATE_SHA256
    assert {name: p.system_prompt_id for name, p in registry.roles.items()} == ROLE_PROMPTS


def test_shipped_preset_prompts_are_pinned():
    assert {name: _sha256(getattr(presets, name)) for name in PRESET_SHA256} == PRESET_SHA256
