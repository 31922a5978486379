"""Traced in-process run: per-layer time, counts and ratios.

The workload's operations run through `autorecipe.cli.main` in this
process.  Before the traced pass the public functions the CLI reaches are
replaced by timing wrappers, in every `autorecipe` module that holds a
reference to them, and the gateway, search and entailment clients'
methods are wrapped on their classes; afterwards the originals are put
back.  No source file changes.  Each span records its name, start, end,
parent span and run id; spans stay in memory and are written once, at the
end, to `.perfbench/trace-<workload>-<seed>.jsonl`.

Self time is a span's duration minus the part of it that its child spans
cover.  Spans opened on worker threads (the evidence pool) take the span
the main thread is in as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import random
import re
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import inputs
from procs import child_env, environment, nproc, run_child
from stub import DELAY_S, StubEndpoint

STRATEGIES = ("lastq", "allq", "allqcot", "allqreact", "gitq")
MICRO_REPEATS = 15
PROBE_REPEATS = 5

# (metric, unit, better); the order is the report's order.
PER_LAYER = [
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("taxonomy.edges", "count", "higher"),
    ("taxonomy.parse_s", "s", "lower"),
    ("taxonomy.parse_s.x4", "s", "lower"),
    ("planning.bind_goal_s", "s", "lower"),
    ("planning.generate_s", "s", "lower"),
    ("planning.resolve_s", "s", "lower"),
    ("planning.steps", "count", "higher"),
    ("prompts.registry_s", "s", "lower"),
    ("prompts.registry_calls", "count", "lower"),
    ("refinement.refine_s", "s", "lower"),
    ("refinement.self_s", "s", "lower"),
    ("refinement.rounds", "count", "lower"),
    *[(f"execution.execute_s.{s}", "s", "lower") for s in STRATEGIES],
    ("execution.execute_s.gitq-stub", "s", "lower"),
    ("execution.self_s", "s", "lower"),
    ("execution.gateway_calls", "count", "lower"),
    ("references.build_s", "s", "lower"),
    ("references.self_s", "s", "lower"),
    ("references.claim_calls", "count", "lower"),
    ("references.search_calls", "count", "lower"),
    ("references.nli_calls", "count", "lower"),
    ("references.validated_ratio", "ratio", "higher"),
    ("gateway.calls", "count", "lower"),
    ("gateway.wait_s", "s", "lower"),
    ("gateway.critical_path_calls", "count", "lower"),
    ("gateway.stub_requests", "count", "lower"),
    ("gateway.replay_load_s", "s", "lower"),
    ("recipe.dataset_from_csv_s", "s", "lower"),
    ("recipe.validate_dataset_s", "s", "lower"),
    ("recipe.latest_readings_s", "s", "lower"),
    ("recipe.generate_synthetic_s", "s", "lower"),
    ("recipe.bundle_s", "s", "lower"),
    ("recipe.parse_bundle_s", "s", "lower"),
    ("scoring.fit_s", "s", "lower"),
    ("scoring.predict_s", "s", "lower"),
    ("scoring.rows_per_s", "1/s", "higher"),
    ("scoring.predict_s.x4", "s", "lower"),
    ("metrics.tokenize_s", "s", "lower"),
    ("metrics.tokenize_calls", "count", "lower"),
    ("metrics.similarity_s", "s", "lower"),
    ("metrics.coverage_s", "s", "lower"),
    ("metrics.tokenize_s.x4", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.dominant_share", "ratio", "higher"),
]

# Layers whose work the bulk workload was chosen to stress.
COMPUTE_LAYERS = ("taxonomy", "planning", "recipe", "scoring", "metrics")


def _references(args, result):
    return {"identified": sum(result.counts.urls_identified),
            "validated": sum(result.counts.urls_validated)}


# (module, attribute, hook): module-level functions, replaced wherever an
# autorecipe module holds them.  A hook turns (args, result) into counts
# kept on the span.
FUNCTIONS = [
    ("cli", "main", None),
    ("taxonomy", "parse_taxonomy", lambda a, r: {"count": len(r.edges)}),
    ("taxonomy", "traverse_top_down", None),
    ("planning", "bind_goal", None),
    ("planning", "generate_sequence_deterministic", None),
    ("planning", "resolve_code_steps", lambda a, r: {"count": len(r.steps)}),
    ("planning", "materialize_sequence", None),
    ("planning", "serialize_sequence", None),
    ("prompts", "default_registry", None),
    ("prompts", "instantiate", None),
    ("refinement", "refine", lambda a, r: {"count": r.rounds}),
    ("execution", "execute", None),
    ("execution", "split_parts", None),
    ("references", "build_references", None),
    ("references", "generate_claims", None),
    ("references", "collect_evidence", None),
    ("references", "attach_references", _references),
    ("gateway", "load_gateway_config", None),
    ("recipe", "dataset_from_csv", None),
    ("recipe", "validate_dataset", None),
    ("recipe", "latest_readings", None),
    ("recipe", "generate_synthetic", None),
    ("recipe", "bundle", None),
    ("recipe", "load_indicator_config", None),
    ("recipe", "load_aggregation_config", None),
    ("metrics", "tokenize", None),
    ("metrics", "type_token_ratio", None),
    ("metrics", "coverage", None),
    ("metrics", "similarity", None),
]
# (module, class, method, span name, hook)
METHODS = [
    ("gateway", "ScriptedGateway", "complete", "gateway.complete", None),
    ("gateway", "HttpGateway", "complete", "gateway.complete", None),
    ("gateway", "RecordingGateway", "complete", "gateway.complete", None),
    ("gateway", "ReplayGateway", "complete", "gateway.complete", None),
    ("gateway", "ReplayGateway", "__init__", "gateway.replay_load", None),
    ("references", "ScriptedSearchClient", "search", "references.search", None),
    ("references", "ScriptedNliClient", "judge", "references.judge", None),
    ("scoring", "HealthScoreEstimator", "fit", "scoring.fit", None),
    ("scoring", "HealthScoreEstimator", "predict", "scoring.predict",
     lambda a, r: {"count": len(a[1].rows)}),
]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self._main = threading.main_thread()
        self._main_stack: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            span = {"name": name, "run": tracer.run_id, "parent": parent["id"] if parent else None,
                    "thread": threading.get_ident()}
            with tracer._lock:
                span["id"] = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span.update(hook(args, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("autorecipe") and m]
        for module_name, attr, hook in FUNCTIONS:
            original = getattr(importlib.import_module(f"autorecipe.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, name, hook in METHODS:
            cls = getattr(importlib.import_module(f"autorecipe.{module_name}"), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, hook))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


# --- span analysis ---------------------------------------------------------------

def _layer(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Analysis:
    def __init__(self, spans: list[dict], run_id: str):
        self.spans = [s for s in spans if s["run"] == run_id]
        self.by_id = {s["id"]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] in self.by_id:
                children[s["parent"]].append(s)
        for s in self.spans:
            clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
            s["self"] = (s["end"] - s["start"]) - _covered([iv for iv in clipped if iv[1] > iv[0]])

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def hook_sum(self, name: str, key: str = "count") -> int:
        return sum(s.get(key, 0) for s in self.named(name))

    def layer_self(self, layer: str) -> float:
        return sum(s["self"] for s in self.spans if _layer(s) == layer)

    def owner(self, span: dict) -> str:
        """Layer of the nearest ancestor outside the gateway layer."""
        parent = self.by_id.get(span["parent"])
        while parent is not None and _layer(parent) == "gateway":
            parent = self.by_id.get(parent["parent"])
        return _layer(parent) if parent else ""

    def gateway_calls(self) -> list[dict]:
        """Outermost gateway calls: a recording gateway's inner call is not counted again."""
        calls = []
        for s in self.named("gateway.complete"):
            parent = self.by_id.get(s["parent"])
            if parent is None or parent["name"] != "gateway.complete":
                calls.append(s)
        return calls


def critical_path(calls: list[dict]) -> int:
    """Most calls that run one after another: the longest chain of disjoint intervals."""
    depth, last_end = 0, float("-inf")
    for s in sorted(calls, key=lambda s: s["end"]):
        if s["start"] >= last_end:
            depth += 1
            last_end = s["end"]
    return depth


# --- growth probes -------------------------------------------------------------------

_EDGE = re.compile(r"^(\s*- \{parent: )(.*?)(, relation: .*?, child: )(.*?)(\}\s*)$")


def replicate_taxonomy(text: str, copies: int) -> str:
    """`copies` renamed copies of every edge under the same root: same shape, more edges."""
    lines = text.splitlines()
    root = lines[0].split(":", 1)[1].strip()
    out = lines[:2]
    for i in range(copies):
        for line in lines[2:]:
            m = _EDGE.match(line)
            parent, child = m.group(2), m.group(4)
            if parent != root:
                parent = f"{parent} copy {i}"
            out.append(f"{m.group(1)}{parent}{m.group(3)}{child} copy {i}{m.group(5)}")
    return "\n".join(out) + "\n"


def replicate_csv(text: str, copies: int) -> str:
    """Every row `copies` times, under renamed assets."""
    lines = text.splitlines()
    out = lines[:1]
    for i in range(copies):
        out += [f"{line.split(',', 1)[0]}-c{i},{line.split(',', 1)[1]}" for line in lines[1:]]
    return "\n".join(out) + "\n"


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# --- the traced run ---------------------------------------------------------------------

class _Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, error) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            print(f"{label}: {error}", file=sys.stderr)


def _run_ops(cli_main, workload, counter: _Counter) -> float:
    """One op through `cli.main` in this process, checked; returns its wall time."""
    start = time.perf_counter()
    for label, argv, check in workload.commands(workload.work / "out"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        counter.record(label, f"exit code {code}" if code else check())
    return time.perf_counter() - start


def _strategy_probes(gen: dict, counter: _Counter) -> dict[str, float]:
    """Each strategy against a scripted gateway, and gitq against the stub."""
    from autorecipe.execution import ManualClock, execute
    from autorecipe.gateway import GatewayConfig, HttpGateway, ScriptedGateway
    from autorecipe.planning import (
        Goal, generate_sequence_deterministic, materialize_sequence, resolve_code_steps,
    )
    from autorecipe.prompts import default_registry
    from autorecipe.taxonomy import parse_taxonomy

    registry = default_registry()
    tax = parse_taxonomy(inputs.ASSET_HEALTH_TAXONOMY)
    goal = Goal(inputs.GENERATE_KPI, inputs.GENERATE_TARGET)
    seq = generate_sequence_deterministic(tax, goal, registry=registry)
    seq = resolve_code_steps(seq, tax, registry=registry)
    rounds = inputs.REFINEMENT_ROUNDS
    description = gen["replies"][rounds - 1].rsplit("\nConfidence", 1)[0]
    seq = materialize_sequence(seq, gen["asset_class"], description)
    role = registry.role("domain-expert")
    document = gen["document"]
    gitq = gen["replies"][rounds: rounds + inputs.GITQ_STEPS]
    replies = {
        "lastq": [document], "allq": [document], "allqcot": [document],
        "allqreact": ["Question: q\nThought: t\nAnswer: a\nFinal Answer: " + document],
        "gitq": gitq,
    }

    def run(strategy: str, gateway) -> None:
        kd, _ = execute(seq, strategy, role, gateway, registry=registry, clock=ManualClock())
        error = None if len(kd.parts) == inputs.PARTS else f"{len(kd.parts)} parts"
        counter.record(f"execute {strategy}", error)

    result = {}
    for strategy in STRATEGIES:
        result[f"execution.execute_s.{strategy}"] = _median_time(
            lambda: run(strategy, ScriptedGateway(replies=list(replies[strategy]))), MICRO_REPEATS
        )
    scripted = ScriptedGateway(replies=list(gitq))
    run("gitq", scripted)
    stub = StubEndpoint(dict(zip(scripted.calls, gitq)), DELAY_S, nproc())
    endpoint = stub.start()
    try:
        http = HttpGateway(GatewayConfig(endpoint=endpoint, max_parallel=nproc(), max_retries=2,
                                         backoff_seconds=0.05))
        result["execution.execute_s.gitq-stub"] = _median_time(lambda: run("gitq", http), 3)
    finally:
        stub.stop()
    return result


def _growth_probes(workload, bundle_dir: Path) -> dict[str, float]:
    """x4 probes: the same layer call on four copies of this workload's own input."""
    from autorecipe.metrics import tokenize
    from autorecipe.recipe import (
        dataset_from_csv, load_aggregation_config, load_indicator_config, parse_bundle,
    )
    from autorecipe.scoring import HealthScoreEstimator
    from autorecipe.taxonomy import parse_taxonomy

    s = workload.state
    if workload.name == "bulk-inputs":
        d = Path(s["dir"])
        tax_text = (d / "taxonomy.yaml").read_text(encoding="utf-8")
        csv_text = (d / "dataset.csv").read_text(encoding="utf-8")
        indicator, aggregation = d / "indicator.yaml", d / "aggregation.yaml"
        doc = (d / "doc_a.md").read_text(encoding="utf-8")
    else:
        b = Path(s["recorded"])
        tax_text = Path(s["files"]["taxonomy"]).read_text(encoding="utf-8")
        csv_text = (b / "sample_dataset.csv").read_text(encoding="utf-8")
        indicator, aggregation = b / "indicator_config.yaml", b / "aggregation_config.yaml"
        doc = (b / "knowledge_document.md").read_text(encoding="utf-8")
    repeats = 1 if workload.name == "bulk-inputs" else PROBE_REPEATS
    big_tax = replicate_taxonomy(tax_text, 4)
    dataset = dataset_from_csv(replicate_csv(csv_text, 4))
    estimator = HealthScoreEstimator().fit(
        load_indicator_config(indicator), load_aggregation_config(aggregation)
    )
    big_doc = doc * 4
    return {
        "taxonomy.parse_s.x4": _median_time(lambda: parse_taxonomy(big_tax), repeats),
        "scoring.predict_s.x4": _median_time(lambda: estimator.predict(dataset), repeats),
        "metrics.tokenize_s.x4": _median_time(lambda: tokenize(big_doc), repeats),
        "recipe.parse_bundle_s": _median_time(lambda: parse_bundle(bundle_dir), MICRO_REPEATS),
    }


def _process_probes(root: Path, work: Path) -> tuple[float, float]:
    """Median wall time of a bare interpreter and of `import autorecipe.cli`."""
    env = child_env(root)
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(run_child([sys.executable, "-c", "pass"], env, work / "probe.log")[0])
        imported.append(
            run_child([sys.executable, "-c", "import autorecipe.cli"], env, work / "probe.log")[0]
        )
    interpreter = statistics.median(bare)
    return interpreter, statistics.median(imported) - interpreter


def run_traced(workload) -> dict:
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    error = workload.setup(0)
    if error:
        raise SystemExit(f"set-up failed: {error}")
    cli = importlib.import_module("autorecipe.cli")
    counter = _Counter()
    _run_ops(cli.main, workload, counter)  # warm-up: first-call costs stay out of both timings
    untraced = _run_ops(cli.main, workload, counter)
    tracer = Tracer()
    tracer.run_id = f"{workload.name}/{workload.seed}/op"
    stub_before = workload.stub.requests if workload.stub else 0
    tracer.install()
    try:
        traced = _run_ops(cli.main, workload, counter)
    finally:
        tracer.restore()
    stub_requests = (workload.stub.requests if workload.stub else 0) - stub_before
    a = Analysis(tracer.spans, tracer.run_id)
    calls = a.gateway_calls()
    if workload.stub is not None:
        counter.record("stub requests", None if stub_requests == len(calls) else
                       f"stub served {stub_requests} requests for {len(calls)} gateway calls")

    interpreter, import_s = _process_probes(workload.root, workload.work)
    if workload.name == "bulk-inputs":
        gen = inputs.generate_inputs(random.Random(workload.seed), workload.work / "micro")
        bundle_dir = workload.work / "micro" / "bundle"
        argv = inputs.generate_args(gen, str(bundle_dir), ["--script", gen["files"]["script"]])
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        counter.record("micro bundle", f"exit code {code}" if code else None)
    else:
        gen, bundle_dir = workload.state, workload.state["recorded"]
    values = {
        "cli.interpreter_s": interpreter,
        "cli.import_s": import_s,
        **_strategy_probes(gen, counter),
        **_growth_probes(workload, bundle_dir),
    }

    identified = a.hook_sum("references.attach_references", "identified")
    validated = a.hook_sum("references.attach_references", "validated")
    predict_s = a.total("scoring.predict")
    values.update({
        "taxonomy.edges": a.hook_sum("taxonomy.parse_taxonomy"),
        "taxonomy.parse_s": a.total("taxonomy.parse_taxonomy"),
        "planning.bind_goal_s": a.total("planning.bind_goal"),
        "planning.generate_s": a.total("planning.generate_sequence_deterministic"),
        "planning.resolve_s": a.total("planning.resolve_code_steps"),
        "planning.steps": a.hook_sum("planning.resolve_code_steps"),
        "prompts.registry_s": a.total("prompts.default_registry"),
        "prompts.registry_calls": a.count("prompts.default_registry"),
        "refinement.refine_s": a.total("refinement.refine"),
        "refinement.self_s": a.layer_self("refinement"),
        "refinement.rounds": a.hook_sum("refinement.refine"),
        "execution.self_s": a.layer_self("execution"),
        "execution.gateway_calls": sum(1 for c in calls if a.owner(c) == "execution"),
        "references.build_s": a.total("references.build_references"),
        "references.self_s": a.layer_self("references"),
        "references.claim_calls": a.count("references.generate_claims"),
        "references.search_calls": a.count("references.search"),
        "references.nli_calls": a.count("references.judge"),
        "references.validated_ratio": validated / identified if identified else 0.0,
        "gateway.calls": len(calls),
        "gateway.wait_s": sum(c["end"] - c["start"] for c in calls),
        "gateway.critical_path_calls": critical_path(calls),
        "gateway.stub_requests": stub_requests,
        "gateway.replay_load_s": a.total("gateway.replay_load"),
        "recipe.dataset_from_csv_s": a.total("recipe.dataset_from_csv"),
        "recipe.validate_dataset_s": a.total("recipe.validate_dataset"),
        "recipe.latest_readings_s": a.total("recipe.latest_readings"),
        "recipe.generate_synthetic_s": a.total("recipe.generate_synthetic"),
        "recipe.bundle_s": a.total("recipe.bundle"),
        "scoring.fit_s": a.total("scoring.fit"),
        "scoring.predict_s": predict_s,
        "scoring.rows_per_s": a.hook_sum("scoring.predict") / predict_s if predict_s else 0.0,
        "metrics.tokenize_s": a.total("metrics.tokenize"),
        "metrics.tokenize_calls": a.count("metrics.tokenize"),
        "metrics.similarity_s": a.total("metrics.similarity"),
        "metrics.coverage_s": a.total("metrics.coverage"),
        "trace.overhead_s": traced - untraced,
    })
    processes = 3 if workload.name == "bulk-inputs" else 1
    startup = processes * (interpreter + import_s)
    if workload.name == "replay-generate":
        dominant, share = "cli.import_s", import_s / (interpreter + import_s + untraced)
    elif workload.name == "latency-generate":
        dominant, share = "gateway.wait_s", values["gateway.wait_s"] / (startup + traced)
    else:
        compute = sum(a.layer_self(layer) for layer in COMPUTE_LAYERS)
        dominant, share = "+".join(COMPUTE_LAYERS) + " self time", compute / (startup + traced)
    values["trace.dominant_share"] = share

    _write_spans(workload, tracer.spans)
    _report(workload, a, values, untraced, traced, dominant, share)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}
    return {"correct": counter.failed == 0, "attempted": counter.attempted,
            "failed": counter.failed, "metrics": metrics}


def _write_spans(workload, spans: list[dict]) -> None:
    path = workload.root / ".perfbench" / f"trace-{workload.name}-{workload.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            record = {k: span[k] for k in ("id", "name", "start", "end", "parent", "run")}
            fh.write(json.dumps(record) + "\n")


def _report(workload, a: Analysis, values: dict, untraced: float, traced: float,
            dominant: str, share: float) -> None:
    print(f"traced run: {workload.name} seed {workload.seed}; {environment()}")
    print(f"  in-process op {untraced:.4f} s untraced, {traced:.4f} s traced")
    print("  layer        self_s    spans")
    for layer in ("cli", "taxonomy", "planning", "prompts", "refinement", "execution", "references",
                  "gateway", "recipe", "scoring", "metrics"):
        n = sum(1 for s in a.spans if _layer(s) == layer)
        print(f"  {layer:<12} {a.layer_self(layer):8.4f} {n:8d}")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<34} {values[name]:.6g} {unit}")
    verdict = "confirmed" if share > 0.5 else "NOT confirmed"
    print(f"  dominant layer {dominant}: {share:.1%} of the op, {verdict}")
