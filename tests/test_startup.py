"""Start-up cost: each command imports only the modules it uses.

numpy loads only for AHP, requests never, and the bulk commands (plan,
score, metrics) load only their own stages.  concurrent.futures and logging
load only where a pool starts: for an HTTP gateway's overlapped model calls,
never for a scripted or replayed generate.  No command loads dataclasses or
inspect: the records are built on ``autorecipe._struct``.  Each check runs in
a fresh interpreter, since this test session itself has everything loaded.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import autorecipe
from autorecipe import presets
from autorecipe.cli import main
from conftest import THREE_PART_DOC

# Runs the commands in one interpreter and reports, after each, its exit code
# and which of the HEAVY modules are in sys.modules.
CHILD = r'''
import json
import sys

HEAVY = ("numpy", "requests", "concurrent.futures", "logging")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


from autorecipe.cli import main

commands = json.loads(sys.argv[1])
report = [["import autorecipe.cli", 0, loaded()]]
for name, argv in commands:
    report.append([name, main(argv), loaded()])

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from autorecipe.gateway import ChatMessage, HttpGateway, load_gateway_config, session_key

# The replies recorded by the scripted generate, by session key, so an HTTP
# generate gets the same answers.
recorded = {}
with open(sys.argv[3], encoding="utf-8") as fh:
    for line in fh:
        record = json.loads(line)
        recorded[record["key"]] = record["reply"]


class Echo(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        session = [ChatMessage(m["role"], m["content"]) for m in body["messages"]]
        content = recorded.get(session_key(session), "echo: " + session[-1].content)
        reply = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


server = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
threading.Thread(target=server.serve_forever, daemon=True).start()
config_path = sys.argv[2]
with open(config_path, "w", encoding="utf-8") as fh:
    fh.write(f"endpoint: http://127.0.0.1:{server.server_address[1]}/v1\nmax_retries: 0\n")
gateway = HttpGateway(load_gateway_config(config_path))
report.append(["HttpGateway()", 0, loaded()])
reply = gateway.complete([ChatMessage("user", "ping")])
report.append(["HttpGateway.complete -> " + reply, 0, loaded()])
http_generate = json.loads(sys.argv[4])
report.append(["generate --gateway-config", main(http_generate), loaded()])
server.shutdown()
print(json.dumps(report))
'''


def _write_yaml(path: Path, data) -> str:
    path.write_text(yaml.safe_dump(data, sort_keys=False, allow_unicode=True), encoding="utf-8")
    return str(path)


def _commands(tmp: Path) -> tuple[list, list]:
    """The commands run one after another, and an HTTP generate run last."""
    tax = tmp / "health.yaml"
    tax.write_text(presets.ASSET_HEALTH_TAXONOMY, encoding="utf-8")
    description = "A 75 kW induction motor driving a conveyor.\nConfidence: 90%"
    replies = [description, description] + [f"Interim guidance {i}." for i in range(1, 8)]
    # Three claims for each of the document's three parts, each found on two
    # pages, one of which backs it.
    claims = [[f"Claim {i} of part {part} holds." for i in range(1, 4)] for part in range(1, 4)]
    replies += [THREE_PART_DOC] + ["\n".join(group) for group in claims]
    script = _write_yaml(tmp / "script.yaml", {"strict": True, "replies": replies})
    statements = [claim for group in claims for claim in group]
    search = _write_yaml(tmp / "search.yaml", {"strict": True, "queries": {
        claim: [{"url": f"https://{n}.example", "text": f"Page {n} backs it."},
                {"url": "https://other.example", "text": "Unrelated page."}]
        for n, claim in enumerate(statements)
    }})
    nli = _write_yaml(tmp / "nli.yaml", {"pairs": [
        {"premise": f"Page {n} backs it.", "hypothesis": claim, "entailed": True}
        for n, claim in enumerate(statements)
    ]})
    store, recorded, replayed = tmp / "store.jsonl", tmp / "recorded", tmp / "replayed"
    goal = ["--taxonomy", str(tax), "--kpi", "asset health", "--target", "asset profile"]
    generate = ["generate", *goal, "--asset-class", "electric motor",
                "--search-script", search, "--nli-script", nli]
    sensors = ["age", "operating hours", "idle hours"]
    ahp = _write_yaml(tmp / "ahp.yaml", {
        "method": "ahp",
        "category_scores": {"poor": 0.25, "medium": 0.5, "good": 0.75, "excellent": 1.0},
        "sensors": sensors,
        "pairwise": [[1.0] * len(sensors) for _ in sensors],
    })

    def score(aggregation, out):
        return ["score", "--indicator-config", str(replayed / "indicator_config.yaml"),
                "--aggregation-config", aggregation,
                "--dataset", str(replayed / "sample_dataset.csv"), "--out", str(tmp / out)]

    http_generate = [*generate, "--gateway-config", str(tmp / "gw.yaml"),
                     "--out", str(tmp / "http")]
    return [
        ["plan", ["plan", *goal, "--out", str(tmp / "plan.yaml")]],
        ["generate --script --record",
         [*generate, "--script", script, "--record", str(store), "--out", str(recorded)]],
        ["generate --replay", [*generate, "--replay", str(store), "--out", str(replayed)]],
        ["score (weighted)", score(str(replayed / "aggregation_config.yaml"), "weighted.csv")],
        ["metrics", ["metrics", "--doc", str(replayed / "knowledge_document.md"),
                     "--doc", str(recorded / "knowledge_document.md"),
                     "--out", str(tmp / "metrics.csv")]],
        ["score (ahp)", score(ahp, "ahp.csv")],
    ], http_generate


def test_numpy_and_requests_load_only_for_the_commands_that_use_them(tmp_path):
    src = str(Path(autorecipe.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if not key.lower().endswith("_proxy")}
    env.update(PYTHONPATH=src + os.pathsep + env.get("PYTHONPATH", ""),
               NO_PROXY="127.0.0.1,localhost")
    commands, http_generate = _commands(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands), str(tmp_path / "gw.yaml"),
         str(tmp_path / "store.jsonl"), json.dumps(http_generate)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["import autorecipe.cli", 0, []],
        ["plan", 0, []],
        ["generate --script --record", 0, []],
        ["generate --replay", 0, []],
        ["score (weighted)", 0, []],
        ["metrics", 0, []],
        ["score (ahp)", 0, ["numpy"]],
        ["HttpGateway()", 0, ["numpy"]],
        ["HttpGateway.complete -> echo: ping", 0, ["numpy"]],
        ["generate --gateway-config", 0, ["numpy", "concurrent.futures", "logging"]],
    ]
    # Both generate runs cited every part: the citation stage really ran.
    for run in ("recorded", "replayed"):
        assert (tmp_path / run / "knowledge_document.md").read_text(encoding="utf-8").count(
            "References:\n1. https://") == 3
    # The HTTP run got the recorded replies through the standard-library transport.
    for name in ("knowledge_document.md", "indicator_config.yaml", "sample_dataset.csv"):
        assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "recorded" / name).read_bytes()
    # The ahp run really used the pairwise math: a uniform matrix gives the
    # equal weights the generated weighted config declares.
    assert (tmp_path / "ahp.csv").read_bytes() == (tmp_path / "weighted.csv").read_bytes()


def test_recipe_imports_neither_execution_nor_references():
    src = str(Path(autorecipe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    probe = ("import json, sys\nimport autorecipe.recipe\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('autorecipe.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = json.loads(proc.stdout)
    assert "autorecipe.recipe" in loaded
    assert "autorecipe.execution" not in loaded
    assert "autorecipe.references" not in loaded


def _relative_imports() -> dict[str, list[tuple[str, str]]]:
    """Each package module's relative imports, those inside functions too, as
    ``(module, name)`` pairs; the package itself is ``__init__``."""
    package = Path(autorecipe.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")}
    imports = {}
    for path in package.glob("*.py"):
        found = imports[path.stem] = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module:
                        found.append((node.module, alias.name))
                    else:  # from . import name: a module, or a name of the package
                        found.append((alias.name if alias.name in modules else "__init__",
                                      alias.name))
    return imports


def test_package_modules_import_one_another_without_a_cycle():
    imports = _relative_imports()
    graph = {module: {target for target, _ in found} for module, found in imports.items()}
    done, path = set(), []

    def visit(module):
        if module in path:
            pytest.fail("import cycle: " + " -> ".join([*path[path.index(module):], module]))
        if module in done:
            return
        path.append(module)
        for target in sorted(graph.get(module, ())):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
    assert "recipe" not in graph["scoring"]
    # Neither module reaches into the other's private names.
    crossing = [(module, target, name) for module, other in (("recipe", "scoring"),
                                                              ("scoring", "recipe"))
                for target, name in imports[module] if target == other and name.startswith("_")]
    assert crossing == []


def test_every_all_entry_names_what_its_module_defines():
    """A star import fails on an ``__all__`` entry that its module does not define."""
    for path in sorted(Path(autorecipe.__file__).resolve().parent.glob("*.py")):
        module = "autorecipe" if path.stem == "__init__" else f"autorecipe.{path.stem}"
        exec(f"from {module} import *", {})


# Fits, predicts and validates with scoring alone, then reports whether
# autorecipe.recipe was ever loaded.
SCORING_ALONE = r'''
import sys
from types import SimpleNamespace

from autorecipe.scoring import (
    AggregationConfig, HealthIndicatorConfig, HealthScoreEstimator, SensorConfig,
    validate_dataset,
)

ranges = {"poor": (0.0, 25.0), "medium": (25.0, 50.0), "good": (50.0, 75.0),
          "excellent": (75.0, 100.0)}
indicator = HealthIndicatorConfig(sensors=(SensorConfig("a", "percent", ranges),))
aggregation = AggregationConfig(
    category_scores={"poor": 0.25, "medium": 0.5, "good": 0.75, "excellent": 1.0},
    method="weighted", weights={"a": 1.0},
)
dataset = SimpleNamespace(rows=(("m1", "a", 60.0, "2024-01-01T00:00:00Z", "percent"),))
scores = HealthScoreEstimator().fit(indicator, aggregation).predict(dataset)
print([(s.asset_id, s.score) for s in scores], validate_dataset(dataset, indicator),
      "autorecipe.recipe" in sys.modules)
'''


def test_scoring_fits_predicts_and_validates_without_loading_recipe():
    src = str(Path(autorecipe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", SCORING_ALONE], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[('m1', 75.0)] [] False\n"


# Runs one command and reports its exit code and which autorecipe modules,
# and which of yaml, logging, dataclasses and inspect, it loaded.
LOADED = r'''
import json
import sys

from autorecipe.cli import main

code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m in ("yaml", "logging", "dataclasses", "inspect")
                               or m.startswith("autorecipe"))]))
'''
COMMON = ["autorecipe", "autorecipe._struct", "autorecipe.cli", "autorecipe.errors",
          "autorecipe.presets"]


def test_bulk_commands_load_only_their_own_stages(tmp_path):
    commands, _ = _commands(tmp_path)
    argv = dict(commands)
    # The score and metrics inputs come from a scripted generate run here.
    assert main(argv["generate --script --record"]) == 0
    recorded = tmp_path / "recorded"
    src = str(Path(autorecipe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    score = ["score", "--indicator-config", str(recorded / "indicator_config.yaml"),
             "--aggregation-config", str(recorded / "aggregation_config.yaml"),
             "--dataset", str(recorded / "sample_dataset.csv"), "--out", str(tmp_path / "s.csv")]
    metrics = ["metrics", "--doc", str(recorded / "knowledge_document.md"),
               "--doc", str(recorded / "knowledge_document.md"), "--out", str(tmp_path / "m.csv")]
    expected = {
        "plan": (argv["plan"], COMMON + [
            "autorecipe._yamlio", "autorecipe.gateway", "autorecipe.planning",
            "autorecipe.prompts", "autorecipe.taxonomy", "yaml"]),
        "score": (score, COMMON + ["autorecipe._yamlio", "autorecipe.recipe",
                                   "autorecipe.scoring", "yaml"]),
        "metrics": (metrics, COMMON + ["autorecipe.metrics"]),
    }
    loaded = {}
    for name, (command, modules) in expected.items():
        proc = subprocess.run([sys.executable, "-c", LOADED, *command], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, loaded[name] = json.loads(proc.stdout.splitlines()[-1])
        assert (code, loaded[name]) == (0, sorted(modules)), name
    for name in ("plan", "metrics"):
        assert not {"autorecipe.recipe", "autorecipe.scoring",
                    "autorecipe.references"} & set(loaded[name])
    assert "yaml" not in loaded["metrics"]


def test_scripted_and_replayed_generate_leave_metrics_unloaded(tmp_path):
    argv = dict(_commands(tmp_path)[0])
    src = str(Path(autorecipe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for name in ("generate --script --record", "generate --replay"):
        proc = subprocess.run([sys.executable, "-c", LOADED, *argv[name]], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, name
        assert "autorecipe.refinement" in loaded, name
        assert "autorecipe.metrics" not in loaded, name
        assert not {"dataclasses", "inspect"} & set(loaded), name
