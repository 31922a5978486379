"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed, so
one seed always yields the same files.  Besides the files the program
reads, each generator returns what the benchmark needs to check the
program's output independently: the expected scores, the expected token
counts, the expected number of plan steps.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import yaml

# --- generate workloads -----------------------------------------------------------

# A copy of the asset-health preset, kept here so that a change to the
# program's presets cannot silently change the workload.
ASSET_HEALTH_TAXONOMY = """\
kpi: asset health
edges:
  - {parent: asset health, relation: analyzed, child: component quality}
  - {parent: asset health, relation: analyzed, child: historical record}
  - {parent: asset health, relation: analyzed, child: asset profile}
  - {parent: component quality, relation: impacted, child: mechanical issue}
  - {parent: component quality, relation: impacted, child: electrical issue}
  - {parent: component quality, relation: impacted, child: thermal health issue}
  - {parent: component quality, relation: impacted, child: chemical health issue}
  - {parent: mechanical issue, relation: measured, child: on-demand inspection}
  - {parent: mechanical issue, relation: measured, child: continuous sensors}
  - {parent: mechanical issue, relation: measured, child: periodic chemical sampling}
  - {parent: electrical issue, relation: measured, child: insulation}
  - {parent: historical record, relation: source, child: asset maintenance}
  - {parent: historical record, relation: source, child: failure}
  - {parent: historical record, relation: source, child: repair history}
  - {parent: asset profile, relation: recorded, child: age}
  - {parent: asset profile, relation: recorded, child: operating hours}
  - {parent: asset profile, relation: recorded, child: idle hours}
"""
GENERATE_KPI = "asset health"
GENERATE_TARGET = "asset profile"
# Steps of the asset-profile plan: enumerate-children, one per child (age,
# operating hours, idle hours), collect, two specialization steps and the
# export step.  The code step is dropped because nothing under the target
# mentions a sensor.
GITQ_STEPS = 8
REFINEMENT_ROUNDS = 4  # three distinct accepted answers, then a repeat: fixed point
CLAIMS_PER_PART = 3
PARTS = 3

ASSET_CLASSES = (
    "electric motor", "centrifugal pump", "power transformer", "air compressor",
    "wind turbine", "gas turbine", "hydraulic press", "diesel generator",
)

_WORDS = (
    "bearing", "winding", "rotor", "stator", "shaft", "coupling", "housing", "seal",
    "impeller", "gearbox", "insulation", "coolant", "lubricant", "vibration", "load",
    "temperature", "current", "voltage", "pressure", "flow", "speed", "torque", "wear",
    "fatigue", "corrosion", "alignment", "balance", "clearance", "duty", "cycle",
    "inspection", "maintenance", "failure", "repair", "service", "interval", "trend",
    "baseline", "threshold", "degradation", "efficiency", "output", "noise", "leakage",
)


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(_WORDS) for _ in range(n_words)]
    return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def _paragraph(rng: random.Random, sentences: int) -> str:
    return " ".join(_sentence(rng, rng.randint(6, 12)) for _ in range(sentences))


def _write_yaml(path: Path, data) -> str:
    path.write_text(yaml.safe_dump(data, sort_keys=False, allow_unicode=True), encoding="utf-8")
    return str(path)


def generate_inputs(rng: random.Random, out: Path) -> dict:
    """Files for a scripted `generate --record` run and its replay.

    The chat script is an ordered reply queue in call order: the
    refinement rounds, one reply per gitq step (the last is the exported
    three-part document), then one claims reply per document part.
    Search pages carry several paragraphs; the entailment verdicts mix
    entailed and not-entailed.
    """
    out.mkdir(parents=True, exist_ok=True)
    asset_class = rng.choice(ASSET_CLASSES)

    answers = [_paragraph(rng, 3) for _ in range(REFINEMENT_ROUNDS - 1)]
    answers.append(answers[-1])
    refinement = [f"{a}\nConfidence: {rng.randint(70, 95)}%" for a in answers]

    interim = [_paragraph(rng, 2) for _ in range(GITQ_STEPS - 1)]
    bodies = [_paragraph(rng, 4) for _ in range(PARTS)]
    titles = ("Introduction", "Quality factors", "Sensors")
    document = "".join(
        f"## Part {i}: {title}\n\n{body}\n\n" for i, (title, body) in enumerate(zip(titles, bodies), 1)
    )

    claims = [[_sentence(rng, rng.randint(8, 12)) for _ in range(CLAIMS_PER_PART)] for _ in bodies]
    claim_replies = ["\n".join(group) for group in claims]

    queries: dict[str, list[dict]] = {}
    pairs: list[dict] = []
    for group in claims:
        for claim in group:
            hits = []
            for rank in range(3):
                url = f"https://example.org/{asset_class.replace(' ', '-')}/{rng.randrange(10**6)}"
                if rank == 2 and rng.random() < 0.3:
                    hits.append({"url": url, "error": "fetch timed out"})
                    continue
                paragraphs = [_paragraph(rng, 2) for _ in range(rng.randint(2, 4))]
                hits.append({"url": url, "text": "\n\n".join(paragraphs)})
                for paragraph in paragraphs:
                    pairs.append({
                        "premise": paragraph, "hypothesis": claim, "entailed": rng.random() < 0.3,
                    })
            queries[claim] = hits

    replies = refinement + interim + [document] + claim_replies
    files = {
        "taxonomy": str(out / "taxonomy.yaml"),
        "script": _write_yaml(out / "replies.yaml", {"strict": True, "replies": replies}),
        "search": _write_yaml(out / "search.yaml", {"strict": True, "queries": queries}),
        "nli": _write_yaml(out / "nli.yaml", {"strict": True, "pairs": pairs}),
    }
    Path(files["taxonomy"]).write_text(ASSET_HEALTH_TAXONOMY, encoding="utf-8")
    return {
        "files": files,
        "asset_class": asset_class,
        "replies": replies,
        "document": document,
        "expected_calls": len(replies),
    }


def generate_args(inputs: dict, out_dir: str, source: list[str]) -> list[str]:
    """`autorecipe generate` arguments; `source` picks the gateway."""
    files = inputs["files"]
    return [
        "generate",
        "--taxonomy", files["taxonomy"],
        "--kpi", GENERATE_KPI,
        "--target", GENERATE_TARGET,
        "--asset-class", inputs["asset_class"],
        "--strategy", "gitq",
        "--search-script", files["search"],
        "--nli-script", files["nli"],
        "--out", out_dir,
        *source,
    ]


# --- bulk workload --------------------------------------------------------------

BULK_KPI = "fleet health"
BULK_EDGES = 3000
BULK_ROWS = 60_000
BULK_WORDS = 120_000
SENSORS = 12
CATEGORY_EDGES = (0.0, 25.0, 50.0, 75.0, 100.0)


def taxonomy_text(rng: random.Random, n_edges: int) -> tuple[str, int]:
    """A rooted taxonomy of about ``n_edges`` edges and its plan step count.

    The root has eight subsystems, each with a dozen components; the
    components carry factor leaves and measurement leaves.  Measurement
    leaves are named after sensors so the plan's code step resolves to a
    sensor question.  A few leaves are shared by two components.
    """
    subsystems = [f"subsystem {i}" for i in range(1, 9)]
    components = [f"{s} component {j}" for s in subsystems for j in range(1, 13)]
    kpi = BULK_KPI
    lines = [f"kpi: {kpi}", "edges:"]

    def edge(parent: str, relation: str, child: str) -> None:
        lines.append(f"  - {{parent: {parent}, relation: {relation}, child: {child}}}")

    for s in subsystems:
        edge(kpi, "analyzed", s)
    for c in components:
        edge(c.rsplit(" component", 1)[0], "impacted", c)
    leaves: list[str] = []
    for n in range(n_edges - len(subsystems) - len(components)):
        parent = components[n % len(components)]
        if leaves and rng.random() < 0.01:
            edge(parent, "impacted", rng.choice(leaves))  # shared leaf
            continue
        if rng.random() < 0.4:
            leaf = f"{_WORDS[n % len(_WORDS)]} sensor {n}"
            edge(parent, rng.choice(("measured", "recorded", "sampled")), leaf)
        else:
            leaf = f"{_WORDS[n % len(_WORDS)]} factor {n}"
            edge(parent, rng.choice(("impacted", "influenced")), leaf)
        leaves.append(leaf)
    # enumerate-children, one per subsystem, collect, two specializations,
    # the code step resolved to a sensor question, export
    return "\n".join(lines) + "\n", 1 + len(subsystems) + 3 + 1 + 1


def _timestamp(moment: datetime, rng: random.Random) -> str:
    text = moment.strftime("%Y-%m-%dT%H:%M:%S")
    return text + ("+00:00" if rng.random() < 0.1 else "Z")


def _category(value: float) -> int:
    for i in range(3):
        if value < CATEGORY_EDGES[i + 1]:
            return i
    return 3


def dataset(rng: random.Random, n_rows: int) -> tuple[str, list[str], dict[str, float], dict, dict]:
    """Dataset CSV, sensor names, weights, both configs.

    Each (asset, sensor) pair has three to seven readings at distinct
    times, so its latest reading is never ambiguous; rows are shuffled so
    the latest is not simply the last row.  Some values sit exactly on a
    category edge.
    """
    sensors = [f"{_WORDS[i]} sensor" for i in range(SENSORS)]
    raw = [rng.randint(1, 9) for _ in sensors]
    weights = {name: w / sum(raw) for name, w in zip(sensors, raw)}
    category_scores = sorted(rng.uniform(0.05, 1.0) for _ in range(4))
    ranges = {
        cat: {"min": CATEGORY_EDGES[i], "max": CATEGORY_EDGES[i + 1]}
        for i, cat in enumerate(("poor", "medium", "good", "excellent"))
    }
    indicator = {"sensors": [{"name": s, "unit": "percent", "ranges": ranges} for s in sensors]}
    aggregation = {
        "method": "weighted",
        "category_scores": dict(zip(("poor", "medium", "good", "excellent"), category_scores)),
        "weights": weights,
    }
    per_pair = 5
    n_assets = max(1, n_rows // (SENSORS * per_pair))
    start = datetime(2024, 3, 1, tzinfo=timezone.utc)
    rows = []
    for a in range(1, n_assets + 1):
        asset = f"asset-{a:05d}"
        for sensor in sensors:
            minutes = rng.sample(range(60 * 24 * 30), rng.randint(3, 7))
            for m in minutes:
                if rng.random() < 0.02:
                    value = rng.choice(CATEGORY_EDGES)
                else:
                    value = round(rng.uniform(0.0, 100.0), 3)
                rows.append((asset, sensor, value, _timestamp(start + timedelta(minutes=m), rng)))
    rng.shuffle(rows)
    lines = ["asset_id,sensor_name,value,timestamp,unit"]
    lines += [f"{a},{s},{v!r},{t},percent" for a, s, v, t in rows]
    return "\n".join(lines) + "\n", sensors, weights, indicator, aggregation


def expected_scores(
    csv_text: str, weights: dict[str, float], category_scores: list[float]
) -> dict[str, float]:
    """Latest reading per pair, quartile category, weighted mean; no program code."""
    latest: dict[tuple[str, str], tuple[datetime, float]] = {}
    for line in csv_text.splitlines()[1:]:
        asset, sensor, value, stamp, _unit = line.split(",")
        moment = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
        key = (asset, sensor)
        if key not in latest or moment > latest[key][0]:
            latest[key] = (moment, float(value))
    scores: dict[str, float] = {}
    for (asset, sensor), (_, value) in latest.items():
        share = weights[sensor] * category_scores[_category(value)]
        scores[asset] = scores.get(asset, 0.0) + share
    return {asset: 100.0 * total for asset, total in scores.items()}


def document(
    rng: random.Random, n_words: int, vocabulary: list[str], weights: list[float]
) -> tuple[str, list[str]]:
    """A long ASCII markdown document and the exact token list it contains."""
    tokens = rng.choices(vocabulary, cum_weights=weights, k=n_words)
    pieces = [f"# Part 1: Fleet report\n\n"]
    sentence_len = 0
    for i, token in enumerate(tokens):
        word = token.capitalize() if sentence_len == 0 else token
        sentence_len += 1
        if sentence_len >= 14 or (i + 1) % 997 == 0:
            pieces.append(word + (".\n\n" if (i + 1) % 97 == 0 else ". "))
            sentence_len = 0
        else:
            pieces.append(word + (", " if i % 11 == 5 else " "))
    heading_tokens = ["part", "1", "fleet", "report"]
    return "".join(pieces), heading_tokens + tokens


def _vocabulary(rng: random.Random, size: int) -> tuple[list[str], list[float]]:
    syllables = ["ka", "to", "ri", "mu", "sen", "vo", "la", "ne", "pi", "dro", "qu", "ex", "zu", "ba"]
    words = set()
    while len(words) < size:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        if rng.random() < 0.05:
            word += str(rng.randint(0, 99))
        words.add(word)
    vocabulary = sorted(words)
    rng.shuffle(vocabulary)
    cum, total = [], 0.0
    for rank in range(1, size + 1):
        total += 1.0 / rank  # Zipf-like frequencies
        cum.append(total)
    return vocabulary, cum


def expected_metrics(token_lists: list[list[str]]) -> list[dict]:
    """tokens, unique, ttr, coverage and similarity against the first document."""
    counts = [Counter(t.casefold() for t in tokens) for tokens in token_lists]
    base = counts[0]
    rows = []
    for tokens, c in zip(token_lists, counts):
        vocab = sorted(base.keys() | c.keys())
        dot = sum(base[t] * c[t] for t in vocab)
        norm = math.sqrt(sum(base[t] ** 2 for t in vocab)) * math.sqrt(sum(c[t] ** 2 for t in vocab))
        rows.append({
            "tokens": len(tokens),
            "unique": len(c),
            "ttr": len(c) / math.sqrt(len(tokens)),
            "coverage": 100.0 * len(base.keys() & c.keys()) / len(base),
            "similarity": dot / norm,
        })
    return rows


def bulk_inputs(rng: random.Random, out: Path) -> dict:
    """Large taxonomy, dataset and document pair, with their expected outputs."""
    out.mkdir(parents=True, exist_ok=True)
    tax_text, plan_steps = taxonomy_text(rng, BULK_EDGES)
    (out / "taxonomy.yaml").write_text(tax_text, encoding="utf-8")

    csv_text, _sensors, weights, indicator, aggregation = dataset(rng, BULK_ROWS)
    (out / "dataset.csv").write_text(csv_text, encoding="utf-8")
    _write_yaml(out / "indicator.yaml", indicator)
    _write_yaml(out / "aggregation.yaml", aggregation)
    cat_scores = list(aggregation["category_scores"].values())

    vocabulary, cum = _vocabulary(rng, 6000)
    doc_a, tokens_a = document(rng, BULK_WORDS, vocabulary, cum)
    # The second document draws on four fifths of the vocabulary, so its
    # coverage of the first and its similarity to it are both below one.
    cut = len(vocabulary) * 4 // 5
    doc_b, tokens_b = document(rng, BULK_WORDS, vocabulary[:cut], cum[:cut])
    (out / "doc_a.md").write_text(doc_a, encoding="utf-8")
    (out / "doc_b.md").write_text(doc_b, encoding="utf-8")
    return {
        "dir": str(out),
        "plan_steps": plan_steps,
        "expected_scores": expected_scores(csv_text, weights, cat_scores),
        "expected_metrics": expected_metrics([tokens_a, tokens_b]),
    }


def bulk_commands(inputs: dict, out_dir: str) -> dict[str, tuple[list[str], str]]:
    """The three bulk commands, each with the file it writes."""
    d = Path(inputs["dir"])
    o = Path(out_dir)
    return {
        "plan": ([
            "plan", "--taxonomy", str(d / "taxonomy.yaml"), "--kpi", BULK_KPI,
            "--target", BULK_KPI, "--out", str(o / "plan.yaml"),
        ], str(o / "plan.yaml")),
        "score": ([
            "score", "--indicator-config", str(d / "indicator.yaml"),
            "--aggregation-config", str(d / "aggregation.yaml"),
            "--dataset", str(d / "dataset.csv"), "--out", str(o / "scores.csv"),
        ], str(o / "scores.csv")),
        "metrics": ([
            "metrics", "--doc", str(d / "doc_a.md"), "--doc", str(d / "doc_b.md"),
            "--out", str(o / "metrics.csv"),
        ], str(o / "metrics.csv")),
    }


def digest(path: Path) -> str:
    """Content digest of a generated input tree, to prove set-ups agree."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.name.encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()
