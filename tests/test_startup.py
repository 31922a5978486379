"""Start-up cost: each command imports only the modules it uses.

numpy loads only for AHP, requests never, and the bulk commands (plan,
score, metrics) load only their own stages.  Each check runs in a fresh
interpreter, since this test session itself has everything loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import autorecipe
from autorecipe import presets
from autorecipe.cli import main
from conftest import THREE_PART_DOC

# Runs the commands in one interpreter and reports, after each, its exit code
# and which of numpy and requests are in sys.modules.
CHILD = r'''
import json
import sys

HEAVY = ("numpy", "requests")


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
    script = _write_yaml(tmp / "script.yaml", {"strict": True, "replies": replies + [THREE_PART_DOC]})
    store, recorded, replayed = tmp / "store.jsonl", tmp / "recorded", tmp / "replayed"
    goal = ["--taxonomy", str(tax), "--kpi", "asset health", "--target", "asset profile"]
    generate = ["generate", *goal, "--asset-class", "electric motor"]
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
        ["generate --gateway-config", 0, ["numpy"]],
    ]
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


# Runs one command and reports its exit code and which autorecipe modules,
# and whether yaml, it loaded.
LOADED = r'''
import json
import sys

from autorecipe.cli import main

code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "yaml" or m.startswith("autorecipe"))]))
'''
COMMON = ["autorecipe", "autorecipe.cli", "autorecipe.errors", "autorecipe.presets"]


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
