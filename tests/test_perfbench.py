"""The benchmark harness still finds every program name it imports or patches,
and every keyword it passes.

`perfbench/trace_run.py` wraps functions and methods by name, and calls some
of them with keyword arguments, so deleting or renaming one of them breaks
`perfbench/run.py --trace` and nothing else.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import autorecipe.cli  # noqa: F401  (the tracer patches every loaded autorecipe module)
from autorecipe.planning import (
    Goal,
    generate_sequence_deterministic,
    resolve_code_steps,
    serialize_sequence,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS_MODULES = ("trace_run", "checks", "stub", "inputs", "procs")


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = {name: sys.modules.get(name) for name in HARNESS_MODULES}
    yield importlib.import_module
    for name, module in loaded.items():
        if module is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = module


def test_tracer_resolves_every_patch_target(harness):
    trace_run = harness("trace_run")
    functions = [(importlib.import_module(f"autorecipe.{m}"), attr)
                 for m, attr, _ in trace_run.FUNCTIONS]
    methods = [(getattr(importlib.import_module(f"autorecipe.{m}"), cls), method)
               for m, cls, method, _, _ in trace_run.METHODS]

    def targets():
        return ([getattr(module, attr) for module, attr in functions]
                + [cls.__dict__[method] for cls, method in methods])

    originals = targets()
    tracer = trace_run.Tracer()
    try:
        tracer.install()
        patched = targets()
    finally:
        tracer.restore()
    assert all(new is not old for new, old in zip(patched, originals))
    assert all(new is old for new, old in zip(targets(), originals))


def test_checks_and_stub_import_and_read_a_plan(harness, health_tax, tmp_path):
    checks = harness("checks")
    harness("stub")
    seq = generate_sequence_deterministic(health_tax, Goal("asset health", "asset profile"))
    seq = resolve_code_steps(seq, health_tax)
    plan = tmp_path / "plan.yaml"
    plan.write_text(serialize_sequence(seq), encoding="utf-8")
    assert checks.plan_ok(plan, len(seq.steps)) is None


def _autorecipe_calls(source: str) -> list[tuple[str, str, list[str]]]:
    """(module, name, keywords) of each call of a name imported from autorecipe."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("autorecipe"):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    return [(*imported[node.func.id], [k.arg for k in node.keywords if k.arg])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in imported]


def test_harness_passes_only_keywords_the_program_takes():
    passed = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, name, keywords in _autorecipe_calls(path.read_text(encoding="utf-8")):
            parameters = inspect.signature(getattr(importlib.import_module(module), name)).parameters
            for keyword in keywords:
                assert keyword in parameters, f"{path.name}: {name}() takes no {keyword}="
                passed.add((name, keyword))
    assert {("generate_sequence_deterministic", "registry"), ("resolve_code_steps", "registry"),
            ("execute", "registry"), ("execute", "clock"), ("ScriptedGateway", "replies"),
            ("GatewayConfig", "endpoint"), ("GatewayConfig", "max_parallel")} <= passed


def test_every_span_hook_reads_a_real_call(harness, three_part_doc):
    """Each hook the tracer declares turns the arguments and result of a real
    call, made as the program makes it, into the counts its span keeps."""
    from autorecipe import planning, presets, recipe, references, refinement, scoring, taxonomy
    from autorecipe.execution import split_parts
    from autorecipe.gateway import ScriptedGateway

    trace_run = harness("trace_run")
    hooked = ({f"{module}.{attr}" for module, attr, hook in trace_run.FUNCTIONS if hook}
              | {name for *_, name, hook in trace_run.METHODS if hook})
    claims = ["Motors convert energy.", "Scores summarize condition.", "Sensors measure wear."]
    hits = {claim: [references.SearchHit(f"https://ref{i}.example", text="Backing text.")]
            for i, claim in enumerate(claims)}
    hits[claims[1]] = [references.SearchHit("https://ref1.example", error="timeout")]
    tracer = trace_run.Tracer()
    tracer.install()
    try:
        tax = taxonomy.parse_taxonomy(presets.ASSET_HEALTH_TAXONOMY)
        seq = planning.generate_sequence_deterministic(tax, Goal("asset health", "asset profile"))
        planning.resolve_code_steps(seq, tax)
        answer = "A motor.\nConfidence: 90%"
        refinement.refine(ScriptedGateway(replies=[answer, answer]), "refinement.system",
                          "Describe the asset.", max_rounds=5)
        references.build_references(
            split_parts(three_part_doc), ScriptedGateway(replies=[f"1. {c}" for c in claims]),
            references.ScriptedSearchClient(hits), references.ConstantNliClient(True), k=1,
        )
        indicator = recipe.default_indicator_config(["age", "operating hours"])
        estimator = scoring.HealthScoreEstimator().fit(
            indicator, recipe.default_aggregation_config(["age", "operating hours"]))
        estimator.predict(recipe.generate_synthetic(indicator, 4, 0))
    finally:
        tracer.restore()
    span_fields = {"name", "run", "parent", "thread", "id", "start", "end"}
    counts = {}
    for span in tracer.spans:
        kept = {key: value for key, value in span.items() if key not in span_fields}
        if kept:
            counts.setdefault(span["name"], []).append(kept)
    assert counts == {
        "taxonomy.parse_taxonomy": [{"count": 17}],
        "planning.resolve_code_steps": [{"count": 8}],
        "refinement.refine": [{"count": 2}],
        "references.attach_references": [{"identified": 3, "validated": 2}],
        "scoring.predict": [{"count": 8}],
    }
    assert set(counts) == hooked
