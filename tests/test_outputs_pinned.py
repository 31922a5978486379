"""The bytes each command writes, pinned by sha256.

A bundle, a plan, a scores table or a metrics table that changes by one
byte fails here.  Change an output and its hash together, and only on
purpose.  Scoring is pinned for the weighted method only: ahp weights go
through numpy's ``exp`` and ``log``, whose last bits may differ between
numpy versions.
"""

from __future__ import annotations

import hashlib
import random
from datetime import datetime, timedelta, timezone

import pytest
import yaml

from autorecipe import presets
from autorecipe.cli import main
from autorecipe.planning import Goal, build_planning_context
from autorecipe.recipe import BUNDLE_FILES
from autorecipe.taxonomy import parse_taxonomy
from conftest import THREE_PART_DOC

# The replies of acceptance criterion 09's scripted generate run.
_DESCRIPTION = "A 75 kW induction motor driving a conveyor.\nConfidence: 90%"
_REPLIES = [_DESCRIPTION, _DESCRIPTION, *(f"Interim guidance {i}." for i in range(1, 8)),
            THREE_PART_DOC]

GENERATE_SHA256 = {
    (0, 5): {
        "knowledge_document.md": "94e8e09d0c75e0f63a0dbc36ab63c91d4717e54205a0325d9d9f6b7509547ad5",
        "indicator_config.yaml": "b32cd50f511f0f1cf3c3dda4271f921be5b17e1d794a3c115415344a68d7bdb6",
        "aggregation_config.yaml": "ec5c6c101415d3fa4e2a843a8df3f50df750a922f26d779ab281cb617742ab1f",
        "sample_dataset.csv": "3769bf05a58f66251dddb2bb4aa0c7bd9104703c78ac2d2dbf71e6d54286e276",
        "wrapper_manifest.yaml": "3f3de9fcc91ba28d6a94bbf0149d3081b640616d25f9e2210e95a81780fcd2ce",
        "recipe.yaml": "737bcd5e069a76de17d17b3e78af99e00a7c9a8ec5e75b478204f870ca53c9fc",
        "scores.csv": "b4c4aad62c4411b56324007a9e9a57c4805d17f6bb3190057485ee39b3d26c93",
    },
    (7, 3): {
        "knowledge_document.md": "94e8e09d0c75e0f63a0dbc36ab63c91d4717e54205a0325d9d9f6b7509547ad5",
        "indicator_config.yaml": "b32cd50f511f0f1cf3c3dda4271f921be5b17e1d794a3c115415344a68d7bdb6",
        "aggregation_config.yaml": "ec5c6c101415d3fa4e2a843a8df3f50df750a922f26d779ab281cb617742ab1f",
        "sample_dataset.csv": "1e0c8feed7cd2e4ffe247f2cf8570bb28b334d6fda75a15236311d83d93b8271",
        "wrapper_manifest.yaml": "e99ea0b4a9cb66482e51ccc08f947b8b1618332a74336ef9277d5fa4017d9bfa",
        "recipe.yaml": "7d410e4fe87c2da63ff0ece7e7d292ccbb8c74b9f06752a3c8b2e8e3e9c1cb6a",
        "scores.csv": "6f0890373aac68191a0af0bc93417f2d6640d7423c1c951d20af4e7601bfe82b",
    },
}
PLAN_SHA256 = "2aa8df2f62fff75c854b9c1cc4a91617bf644b60edf363c00fda93613f6e9aef"
METRICS_SHA256 = "e8f23409a1740e11402a569884a13edd9ac10ea7ecbbc8be762c5ba42126b2c4"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def tax_file(tmp_path):
    path = tmp_path / "health.yaml"
    path.write_text(presets.ASSET_HEALTH_TAXONOMY, encoding="utf-8")
    return path


@pytest.mark.parametrize("seed, num_assets", GENERATE_SHA256)
def test_generated_bundle_and_its_scores_are_pinned(seed, num_assets, tax_file, tmp_path):
    script = tmp_path / "script.yaml"
    script.write_text(
        "strict: true\nreplies:\n"
        + "".join("- |-\n  " + reply.replace("\n", "\n  ") + "\n" for reply in _REPLIES),
        encoding="utf-8",
    )
    out = tmp_path / "bundle"
    assert main([
        "generate",
        "--taxonomy", str(tax_file),
        "--kpi", "asset health",
        "--target", "asset profile",
        "--asset-class", "electric motor",
        "--script", str(script),
        "--seed", str(seed),
        "--num-assets", str(num_assets),
        "--out", str(out),
    ]) == 0
    scores = tmp_path / "scores.csv"
    assert main([
        "score",
        "--indicator-config", str(out / "indicator_config.yaml"),
        "--aggregation-config", str(out / "aggregation_config.yaml"),
        "--dataset", str(out / "sample_dataset.csv"),
        "--out", str(scores),
    ]) == 0
    written = {name: _sha256(out / name) for name in BUNDLE_FILES}
    written["scores.csv"] = _sha256(scores)
    assert written == GENERATE_SHA256[seed, num_assets]


# The same run with citations.  Passage 1's first hit is entailed only by its
# second paragraph, its second hit is a fetch error, and its third hit's
# paragraph has no scripted verdict: a strict NLI script cites nothing for a
# pair it does not hold.  Two claims cite one url, which is listed once.
_CLAIM_REPLIES = [
    "1. A motor converts electrical energy into torque.\n"
    "2. Motors are driven by electricity.\n3. Motors need maintenance.",
    "Asset health summarizes remaining capability. It is a single number. It is read daily.",
    "- Vibration is measured by an accelerometer.\n- Health is not measured directly.\n"
    "- Accelerometers sit on the drive end.",
]
_SEARCH = {
    "A motor converts electrical energy into torque.": [
        {"url": "https://motors.example/basics",
         "text": "Motors come in many sizes.\n\nA motor turns electrical energy into torque."
                 "\n\nTorque is measured in newton metres."},
        {"url": "https://down.example", "error": "timeout"},
        {"url": "https://unscripted.example", "text": "Nothing scripted judges this page."},
    ],
    "Motors are driven by electricity.": [
        {"url": "https://unscripted.example", "text": "Nothing scripted judges this page."},
        {"url": "https://motors.example/electric", "text": "Electric motors run on electricity."},
    ],
    "Motors need maintenance.": [
        {"url": "https://motors.example/electric", "text": "Electric motors need servicing."},
    ],
    "Asset health summarizes remaining capability.": [
        {"url": "https://health.example", "text": "Health scores sum up what an asset can still do."},
    ],
    "It is a single number.": [],
    "It is read daily.": [],
    "Accelerometers sit on the drive end.": [],
    "Vibration is measured by an accelerometer.": [
        {"url": "https://sensors.example", "text": "\n\nAccelerometers pick up vibration.\n\n"},
        {"url": "https://empty.example", "text": "  "},
    ],
    "Health is not measured directly.": [
        {"url": "https://health.example", "text": "Health scores sum up what an asset can still do."},
    ],
}
_NLI_PAIRS = [
    ("Motors come in many sizes.", "A motor converts electrical energy into torque.", False),
    ("A motor turns electrical energy into torque.",
     "A motor converts electrical energy into torque.", True),
    ("Electric motors run on electricity.", "Motors are driven by electricity.", True),
    ("Electric motors need servicing.", "Motors need maintenance.", True),
    ("Health scores sum up what an asset can still do.",
     "Asset health summarizes remaining capability.", True),
    ("Accelerometers pick up vibration.", "Vibration is measured by an accelerometer.", True),
    ("Health scores sum up what an asset can still do.", "Health is not measured directly.", False),
]
CITED_GENERATE_SHA256 = {
    "knowledge_document.md": "281cacd8c9494f865566b8d06eaabaf1ce586ec91fe76db293a2c417b56728ea",
    "indicator_config.yaml": "b32cd50f511f0f1cf3c3dda4271f921be5b17e1d794a3c115415344a68d7bdb6",
    "aggregation_config.yaml": "ec5c6c101415d3fa4e2a843a8df3f50df750a922f26d779ab281cb617742ab1f",
    "sample_dataset.csv": "3769bf05a58f66251dddb2bb4aa0c7bd9104703c78ac2d2dbf71e6d54286e276",
    "wrapper_manifest.yaml": "3f3de9fcc91ba28d6a94bbf0149d3081b640616d25f9e2210e95a81780fcd2ce",
    "recipe.yaml": "67e83bdd4ddceae0bade2d67f93fa8ad89c824ff9151392bf3ef18e12855330d",
}


def test_generated_bundle_with_citations_is_pinned(tax_file, tmp_path):
    script = tmp_path / "script.yaml"
    script.write_text(yaml.safe_dump({"strict": True, "replies": _REPLIES + _CLAIM_REPLIES}),
                      encoding="utf-8")
    search = tmp_path / "search.yaml"
    search.write_text(yaml.safe_dump({"strict": True, "queries": _SEARCH}), encoding="utf-8")
    nli = tmp_path / "nli.yaml"
    nli.write_text(yaml.safe_dump({"strict": True, "pairs": [
        {"premise": p, "hypothesis": h, "entailed": e} for p, h, e in _NLI_PAIRS
    ]}), encoding="utf-8")
    out = tmp_path / "bundle"
    assert main([
        "generate",
        "--taxonomy", str(tax_file),
        "--kpi", "asset health",
        "--target", "asset profile",
        "--asset-class", "electric motor",
        "--script", str(script),
        "--search-script", str(search),
        "--nli-script", str(nli),
        "--out", str(out),
    ]) == 0
    assert {name: _sha256(out / name) for name in BUNDLE_FILES} == CITED_GENERATE_SHA256


def test_plan_is_pinned(tax_file, tmp_path):
    out = tmp_path / "plan.yaml"
    assert main(["plan", "--taxonomy", str(tax_file), "--kpi", "asset health",
                 "--out", str(out)]) == 0
    assert _sha256(out) == PLAN_SHA256


# The system message of the planning session: every taxonomy statement, in
# edge order, between the task text and the demonstration.
PLANNING_CONTEXT_SHA256 = {
    "asset health": "977e00caa4e9a9226c189e48c6a958d3a71da0565e965d07331b386b40a9c879",
    "asset sustainability": "a01f12ba0740989719c92d2c6d87129885891471f00f64c17047b4d04aa976f7",
}


@pytest.mark.parametrize("text", [presets.ASSET_HEALTH_TAXONOMY,
                                  presets.ASSET_SUSTAINABILITY_TAXONOMY])
def test_planning_context_is_pinned(text):
    tax = parse_taxonomy(text)
    goal = Goal(kpi=tax.root_label, target_node=tax.root_label)
    system, _user = build_planning_context([tax], presets.COMPONENT_HEALTH_DEMONSTRATION, goal)
    digest = hashlib.sha256(system.content.encode("utf-8")).hexdigest()
    assert digest == PLANNING_CONTEXT_SHA256[tax.root_label]


def test_metrics_table_is_pinned(tmp_path, monkeypatch):
    # The table names each document by the path it was given.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "first.md").write_text(THREE_PART_DOC, encoding="utf-8")
    (tmp_path / "second.md").write_text(presets.COMPONENT_HEALTH_DEMONSTRATION, encoding="utf-8")
    assert main(["metrics", "--doc", "first.md", "--doc", "second.md",
                 "--out", "metrics.csv"]) == 0
    assert _sha256(tmp_path / "metrics.csv") == METRICS_SHA256


# --- bulk-shaped inputs ------------------------------------------------------------
#
# A taxonomy of a few hundred edges and a dataset of a few thousand rows, drawn
# from a fixed seed.  The dataset mixes "Z" and "+00:00" timestamps, puts some
# values exactly on a category edge and holds blank lines, so the scan's fast
# and fallback routes both write into the pinned bytes.

BULK_PLAN_SHA256 = "2194201c4e4ce41040139b5d1f794b4896434a21f61c9be9b98bb34949d453fb"
BULK_SCORES_SHA256 = "c0128a6ba2613761bbfcc74cf1f11b583aea5febefa5a79f1a8d6d3550f54fb5"

_WORDS = ["bearing", "winding", "rotor", "stator", "coupling", "seal", "pump", "valve"]
_EDGES = (0.0, 25.0, 50.0, 75.0, 100.0)


def _bulk_taxonomy(rng: random.Random, n_edges: int) -> str:
    subsystems = [f"subsystem {i}" for i in range(1, 5)]
    components = [f"{s} component {j}" for s in subsystems for j in range(1, 7)]
    lines = ["kpi: fleet health", "edges:"]

    def edge(parent: str, relation: str, child: str) -> None:
        lines.append(f"  - {{parent: {parent}, relation: {relation}, child: {child}}}")

    for s in subsystems:
        edge("fleet health", "analyzed", s)
    for c in components:
        edge(c.rsplit(" component", 1)[0], "impacted", c)
    leaves: list[str] = []
    for n in range(n_edges - len(subsystems) - len(components)):
        parent = components[n % len(components)]
        if leaves and rng.random() < 0.02:
            edge(parent, "impacted", rng.choice(leaves))  # a shared leaf
            continue
        kind, relation = rng.choice([("sensor", "measured"), ("sensor", "recorded"),
                                     ("factor", "impacted"), ("factor", "influenced")])
        leaf = f"{_WORDS[n % len(_WORDS)]} {kind} {n}"
        edge(parent, relation, leaf)
        leaves.append(leaf)
    return "\n".join(lines) + "\n"


def _bulk_dataset(rng: random.Random, n_assets: int) -> str:
    sensors = [f"{word} sensor" for word in _WORDS[:4]]
    start = datetime(2024, 3, 1, tzinfo=timezone.utc)
    rows = []
    for a in range(1, n_assets + 1):
        for sensor in sensors:
            for minute in rng.sample(range(60 * 24 * 30), rng.randint(3, 7)):
                value = rng.choice(_EDGES) if rng.random() < 0.05 else round(rng.uniform(0, 100), 3)
                stamp = (start + timedelta(minutes=minute)).strftime("%Y-%m-%dT%H:%M:%S")
                stamp += rng.choice(["Z", "+00:00", ".250Z", "+02:00"])
                rows.append(f"asset-{a:04d},{sensor},{value!r},{stamp},percent")
    rng.shuffle(rows)
    for _ in range(len(rows) // 200):
        rows.insert(rng.randrange(len(rows) + 1), "")
    return "asset_id,sensor_name,value,timestamp,unit\n" + "\n".join(rows) + "\n"


def test_plan_on_a_bulk_shaped_taxonomy_is_pinned(tmp_path):
    tax = tmp_path / "taxonomy.yaml"
    tax.write_text(_bulk_taxonomy(random.Random(11), 400), encoding="utf-8")
    out = tmp_path / "plan.yaml"
    assert main(["plan", "--taxonomy", str(tax), "--kpi", "fleet health",
                 "--target", "fleet health", "--out", str(out)]) == 0
    assert _sha256(out) == BULK_PLAN_SHA256


def test_scores_on_a_bulk_shaped_dataset_are_pinned(tmp_path):
    sensors = [f"{word} sensor" for word in _WORDS[:4]]
    ranges = "".join(f"      {cat}: {{min: {low}, max: {high}}}\n" for cat, low, high
                     in zip(("poor", "medium", "good", "excellent"), _EDGES, _EDGES[1:]))
    indicator = tmp_path / "indicator.yaml"
    indicator.write_text("sensors:\n" + "".join(
        f"  - name: {name}\n    unit: percent\n    ranges:\n{ranges}" for name in sensors
    ), encoding="utf-8")
    aggregation = tmp_path / "aggregation.yaml"
    aggregation.write_text(
        "method: weighted\n"
        "category_scores: {poor: 0.1, medium: 0.4, good: 0.7, excellent: 0.95}\n"
        "weights: {" + ", ".join(f"{name}: {w}" for name, w in zip(sensors, (0.1, 0.2, 0.3, 0.4)))
        + "}\n", encoding="utf-8")
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(_bulk_dataset(random.Random(12), 150), encoding="utf-8")
    out = tmp_path / "scores.csv"
    assert main(["score", "--indicator-config", str(indicator),
                 "--aggregation-config", str(aggregation),
                 "--dataset", str(dataset), "--out", str(out)]) == 0
    assert _sha256(out) == BULK_SCORES_SHA256
