"""The benchmark harness still finds every program name it imports or patches.

`perfbench/trace_run.py` wraps functions and methods by name, so deleting
or renaming one of them breaks `perfbench/run.py --trace` and nothing else.
"""

from __future__ import annotations

import importlib
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
