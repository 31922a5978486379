"""Recipe assembly: datasets, configs and the on-disk bundle layout.

A bundle directory holds six files: the knowledge document (markdown),
the two configs (YAML), the sample dataset (CSV), the wrapper manifest
(YAML), and a top-level index listing each artifact's relative path and
content hash.  Every manifest field follows from the recipe, so this
module alone decides what a bundle holds.  Bundling the same recipe twice
produces byte-identical files; nothing in the layout depends on
wall-clock time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from ._yamlio import INT, NUMBER, TEXT, ListOf, MapOf, Record, dump_yaml, load_checked, load_file
from .errors import AutoRecipeError, ValidationFailedError
from .scoring import (
    CATEGORIES,
    DEFAULT_CATEGORY_SCORES,
    AggregationConfig,
    HealthIndicatorConfig,
    SensorConfig,
    _category_finder,
    _out_of_domain_message,
    validate_aggregation_config,
    validate_indicator_config,
)

__all__ = [
    "DATASET_HEADER",
    "SYNTHETIC_TIMESTAMP",
    "KNOWLEDGE_DOC_FILE",
    "INDICATOR_CONFIG_FILE",
    "AGGREGATION_CONFIG_FILE",
    "DATASET_FILE",
    "WRAPPER_MANIFEST_FILE",
    "RECIPE_INDEX_FILE",
    "BUNDLE_FILES",
    "SampleDataset",
    "Recipe",
    "parse_rfc3339",
    "format_rfc3339",
    "latest_readings",
    "validate_dataset",
    "generate_synthetic",
    "dataset_to_csv",
    "dataset_from_csv",
    "default_indicator_config",
    "default_aggregation_config",
    "load_indicator_config",
    "load_aggregation_config",
    "validate_recipe",
    "bundle",
    "parse_bundle",
]

DATASET_HEADER = ("asset_id", "sensor_name", "value", "timestamp", "unit")

# All synthetic rows share one timestamp so each (asset, sensor) pair has a
# single, unambiguous latest reading and reruns are byte-identical.
SYNTHETIC_TIMESTAMP = "2024-01-01T00:00:00Z"

KNOWLEDGE_DOC_FILE = "knowledge_document.md"
INDICATOR_CONFIG_FILE = "indicator_config.yaml"
AGGREGATION_CONFIG_FILE = "aggregation_config.yaml"
DATASET_FILE = "sample_dataset.csv"
WRAPPER_MANIFEST_FILE = "wrapper_manifest.yaml"
RECIPE_INDEX_FILE = "recipe.yaml"
# The artifact kind of each file the index lists.
_KINDS = {
    KNOWLEDGE_DOC_FILE: "knowledge-doc",
    INDICATOR_CONFIG_FILE: "indicator-config",
    AGGREGATION_CONFIG_FILE: "aggregation-config",
    DATASET_FILE: "sample-dataset",
    WRAPPER_MANIFEST_FILE: "wrapper-manifest",
}
# Where the wrapper writes its scores, and the model it runs.
_OUTPUT_FILE = "health_scores.csv"
_MODEL_NAME = "health-score-estimator"

BUNDLE_FILES = (*_KINDS, RECIPE_INDEX_FILE)


def parse_rfc3339(timestamp: str) -> datetime:
    """UTC datetime from an RFC 3339 string; 'Z' suffix accepted."""
    # Most stamps are UTC as written, which fromisoformat reads as they stand
    # (Python 3.11 reads a "Z"); anything else is tidied up first.
    try:
        moment = datetime.fromisoformat(timestamp)
        if moment.tzinfo is timezone.utc:
            return moment
    except ValueError:
        pass
    text = timestamp.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {timestamp!r} carries no timezone")
    return parsed.astimezone(timezone.utc)


def format_rfc3339(moment: datetime) -> str:
    return moment.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class SampleDataset:
    """Sensor rows as the ``(asset_id, sensor_name, value, timestamp, unit)``
    tuples that ``_csv_records`` yields, in ``DATASET_HEADER`` order."""

    rows: tuple[tuple[str, str, float, str, str], ...]


@dataclass(frozen=True)
class Recipe:
    """What one bundle holds: the knowledge document as the markdown it
    writes (citations included), the two configs, the sample dataset, and
    the seed and creation time of the run that made them."""

    kpi: str
    asset_class: str
    knowledge_doc: str
    indicator: HealthIndicatorConfig
    aggregation: AggregationConfig
    dataset: SampleDataset
    seed: int | None
    created_at: str


# --- dataset helpers -----------------------------------------------------------

def latest_readings(dataset: SampleDataset) -> dict[str, dict[str, float]]:
    """Latest value per sensor per asset; later rows win timestamp ties."""
    latest: dict[str, dict[str, tuple[datetime, float]]] = {}
    for asset_id, sensor_name, value, timestamp, _unit in dataset.rows:
        moment = parse_rfc3339(timestamp)
        per_asset = latest.setdefault(asset_id, {})
        current = per_asset.get(sensor_name)
        if current is None or moment >= current[0]:
            per_asset[sensor_name] = (moment, value)
    return {
        asset: {sensor: value for sensor, (_, value) in readings.items()}
        for asset, readings in latest.items()
    }


def validate_dataset(dataset: SampleDataset, cfg: HealthIndicatorConfig) -> list[str]:
    """Violation strings for coverage, units, timestamps, and domains."""
    return _scan_dataset(dataset.rows, cfg)[0]


def _scan_dataset(
    records, cfg: HealthIndicatorConfig
) -> tuple[list[str], dict[str, dict[str, str]]]:
    """One pass over the records: violations, and the latest category per asset and sensor.

    Each record is an ``(asset_id, sensor_name, value, timestamp, unit)``
    tuple.  Row violations come in row order, then the coverage violations
    of each asset in first-seen order.  The latest reading of a sensor is
    the one with the greatest timestamp, later rows winning ties (a tie at
    the latest timestamp is itself a violation).  Its category is None
    when its value is out of domain.
    """
    # One lookup a row: each configured sensor with its category finder.
    configured = {s.name: (s, _category_finder(s)) for s in cfg.sensors}
    violations = []
    assets: dict[str, None] = {}  # first-seen order
    # (asset, sensor) -> [latest moment, its category, rows at that moment]
    latest: dict[tuple[str, str], list] = {}
    i = 0
    for i, (asset_id, sensor_name, value, timestamp, unit) in enumerate(records, start=1):
        assets[asset_id] = None
        entry = configured.get(sensor_name)
        if entry is None:
            violations.append(f"row {i}: unknown sensor {sensor_name!r}")
            continue
        sensor, find = entry
        if unit != sensor.unit:
            violations.append(
                f"row {i}: unit {unit!r} does not match configured {sensor.unit!r}"
            )
        try:
            moment = parse_rfc3339(timestamp)
        except ValueError as exc:
            violations.append(f"row {i}: bad timestamp: {exc}")
            continue
        category = find(value)
        if category is None:
            violations.append(f"row {i}: {_out_of_domain_message(value, sensor)}")
        key = (asset_id, sensor_name)
        current = latest.get(key)
        if current is None or moment > current[0]:
            latest[key] = [moment, category, 1]
        elif moment == current[0]:
            current[1] = category
            current[2] += 1
    if not i:
        return ["dataset has no rows"], {}
    for asset in assets:
        for name in configured:
            current = latest.get((asset, name))
            if current is None:
                violations.append(f"asset {asset!r} has no reading for sensor {name!r}")
            elif current[2] > 1:
                violations.append(
                    f"asset {asset!r} sensor {name!r} has an ambiguous latest reading"
                )
    categories: dict[str, dict[str, str]] = {}
    for (asset, name), (_, category, _) in latest.items():
        categories.setdefault(asset, {})[name] = category
    return violations, categories


def generate_synthetic(cfg: HealthIndicatorConfig, n_assets: int, seed: int) -> SampleDataset:
    """Uniform draws over each sensor's domain, one row per asset and sensor."""
    if n_assets < 1:
        raise ValueError("n_assets must be at least 1")
    config_violations = validate_indicator_config(cfg)
    if config_violations:
        raise ValidationFailedError(config_violations)
    rng = random.Random(seed)
    rows = []
    for index in range(1, n_assets + 1):
        asset_id = f"asset-{index:03d}"
        for sensor in cfg.sensors:
            low, high = sensor.domain
            # rounding may cross a boundary when the domain has >4 decimals
            value = min(max(round(rng.uniform(low, high), 4), low), high)
            rows.append((asset_id, sensor.name, value, SYNTHETIC_TIMESTAMP, sensor.unit))
    return SampleDataset(rows=tuple(rows))


def dataset_to_csv(dataset: SampleDataset) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(DATASET_HEADER)
    writer.writerows(dataset.rows)
    return buffer.getvalue()


# One match per line, "\n" kept, as iterating io.StringIO(text) yields; a
# StringIO would first copy the whole text into four bytes per character.
_CSV_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def dataset_from_csv(text: str) -> SampleDataset:
    return SampleDataset(rows=tuple(_csv_records(text)))


def _csv_records(source):
    """The ``(asset_id, sensor_name, value, timestamp, unit)`` record of each CSV row.

    ``source`` is the CSV text, or its lines as a file opened in text mode
    yields them.  One leading byte-order mark is dropped, and blank lines
    are skipped.  Raises ValidationFailedError for an empty text, a wrong
    header, a line the CSV reader rejects, or a row (named by its line)
    that does not hold five fields with a numeric value.
    """
    if isinstance(source, str):
        source = map(re.Match.group, _CSV_LINE.finditer(source))
    reader = csv.reader(source)
    # csv.Error: a field longer than csv.field_size_limit(), or a stray "\r".
    try:
        header = next(reader, None)
        if header is None:
            raise ValidationFailedError(["dataset csv is empty"])
        if header:
            header[0] = header[0].removeprefix("\ufeff")
        if tuple(header) != DATASET_HEADER:
            raise ValidationFailedError(
                [f"dataset header must be {','.join(DATASET_HEADER)}, got {','.join(header)}"]
            )
        for record in reader:
            if not record:
                continue
            try:
                asset_id, sensor_name, value, timestamp, unit = record
                value = float(value)
            except ValueError:
                raise ValidationFailedError([_bad_record(record, reader.line_num)]) from None
            yield asset_id, sensor_name, value, timestamp, unit
    except csv.Error as exc:
        raise ValidationFailedError([f"dataset line {reader.line_num}: {exc}"]) from None


def _bad_record(record: list[str], line: int) -> str:
    if len(record) != len(DATASET_HEADER):
        return f"dataset line {line}: expected {len(DATASET_HEADER)} fields, got {len(record)}"
    return f"dataset line {line}: value {record[2]!r} is not a number"


# --- deterministic config defaults ----------------------------------------------

def default_indicator_config(
    sensor_names, unit: str = "percent", domain: tuple[float, float] = (0.0, 100.0)
) -> HealthIndicatorConfig:
    """Quartile category ranges over a shared domain, ascending with health."""
    names = list(sensor_names)
    if not names:
        raise ValueError("at least one sensor name is required")
    low, high = domain
    quarter = (high - low) / 4.0
    edges = [low + quarter * i for i in range(5)]
    ranges = {
        category: (edges[i], edges[i + 1]) for i, category in enumerate(CATEGORIES)
    }
    return HealthIndicatorConfig(sensors=tuple(
        SensorConfig(name=name, unit=unit, ranges=dict(ranges)) for name in names
    ))


def default_aggregation_config(sensor_names, method: str = "weighted") -> AggregationConfig:
    names = list(sensor_names)
    if not names:
        raise ValueError("at least one sensor name is required")
    if method == "weighted":
        weight = 1.0 / len(names)
        return AggregationConfig(
            category_scores=dict(DEFAULT_CATEGORY_SCORES),
            method="weighted",
            weights={name: weight for name in names},
        )
    if method == "ahp":
        identity = tuple(tuple(1.0 for _ in names) for _ in names)
        return AggregationConfig(
            category_scores=dict(DEFAULT_CATEGORY_SCORES),
            method="ahp",
            sensors=tuple(names),
            pairwise=identity,
        )
    raise ValueError(f"unknown aggregation method {method!r}")


# --- recipe validation and bundling ----------------------------------------------

def validate_recipe(recipe: Recipe) -> list[str]:
    """Every invariant violation as a string; empty means bundle-ready."""
    violations = []
    if not recipe.kpi.strip():
        violations.append("kpi must be non-empty")
    if not recipe.asset_class.strip():
        violations.append("asset class must be non-empty")
    if not recipe.knowledge_doc.strip():
        violations.append("knowledge document must be non-empty")
    violations += validate_indicator_config(recipe.indicator)
    violations += validate_aggregation_config(recipe.aggregation, recipe.indicator.sensor_names)
    violations += validate_dataset(recipe.dataset, recipe.indicator)
    return violations


def _indicator_to_mapping(cfg: HealthIndicatorConfig) -> dict:
    return {
        "sensors": [
            {
                "name": s.name,
                "unit": s.unit,
                "ranges": {
                    category: {"min": low, "max": high}
                    for category, (low, high) in s.ranges.items()
                },
            }
            for s in cfg.sensors
        ]
    }


_INDICATOR = Record(optional={"sensors": ListOf(Record(
    required={"name": TEXT, "unit": TEXT},
    optional={"ranges": MapOf(TEXT, Record(required={"min": NUMBER, "max": NUMBER}))},
))})


def _indicator_from_mapping(data: dict) -> HealthIndicatorConfig:
    return HealthIndicatorConfig(sensors=tuple(
        SensorConfig(name=sensor["name"], unit=sensor["unit"], ranges={
            category: (float(bounds["min"]), float(bounds["max"]))
            for category, bounds in (sensor.get("ranges") or {}).items()
        })
        for sensor in data.get("sensors") or []
    ))


def _aggregation_to_mapping(cfg: AggregationConfig) -> dict:
    data: dict = {
        "method": cfg.method,
        "category_scores": {c: cfg.category_scores[c] for c in CATEGORIES},
    }
    if cfg.method == "weighted":
        data["weights"] = dict(cfg.weights or {})
    else:
        data["sensors"] = list(cfg.sensors)
        data["pairwise"] = [list(row) for row in cfg.pairwise]
    return data


_AGGREGATION = Record(optional={
    "method": TEXT,
    "category_scores": MapOf(TEXT, NUMBER),
    "weights": MapOf(TEXT, NUMBER),
    "sensors": ListOf(TEXT),
    "pairwise": ListOf(ListOf(NUMBER)),
})


def _aggregation_from_mapping(data: dict) -> AggregationConfig:
    def numbers(key: str) -> dict[str, float]:
        return {name: float(value) for name, value in (data.get(key) or {}).items()}

    return AggregationConfig(
        category_scores=numbers("category_scores"),
        method=data.get("method") or "",
        weights=numbers("weights") or None,
        sensors=tuple(data.get("sensors") or ()),
        pairwise=tuple(tuple(float(x) for x in row) for row in data.get("pairwise") or ()),
    )


def _manifest(recipe: Recipe) -> dict:
    """The wrapper manifest: the layout's paths, the model and the run."""
    return {
        "indicator_config": INDICATOR_CONFIG_FILE,
        "aggregation_config": AGGREGATION_CONFIG_FILE,
        "dataset": DATASET_FILE,
        "output": _OUTPUT_FILE,
        "model": {
            "name": _MODEL_NAME,
            "method": recipe.aggregation.method,
            "version": __version__,
        },
        "run": {
            "seed": recipe.seed,
            "created_at": recipe.created_at,
            "tool_version": __version__,
        },
    }


# The bundle's index and wrapper manifest; parse_bundle then compares the
# manifest with the one the recipe derives.
_INDEX = Record(required={"kpi": TEXT, "asset_class": TEXT}, optional={
    "artifacts": ListOf(Record(required={"kind": TEXT, "path": TEXT, "sha256": TEXT})),
})
_MANIFEST = Record(required={
    "indicator_config": TEXT,
    "aggregation_config": TEXT,
    "dataset": TEXT,
    "output": TEXT,
    "model": Record(required={"name": TEXT, "method": TEXT, "version": TEXT}),
    "run": Record(required={"created_at": TEXT, "tool_version": TEXT}, optional={"seed": INT}),
})


def load_indicator_config(path) -> HealthIndicatorConfig:
    return _indicator_from_mapping(load_file(path, "indicator config", _INDICATOR))


def load_aggregation_config(path) -> AggregationConfig:
    return _aggregation_from_mapping(load_file(path, "aggregation config", _AGGREGATION))


def bundle(recipe: Recipe, out_dir) -> dict[str, Path]:
    """Write the six-file layout; returns artifact kind → path.

    Raises ValidationFailedError when the recipe is not bundle-ready;
    filesystem problems surface as the underlying OSError.
    """
    violations = validate_recipe(recipe)
    if violations:
        raise ValidationFailedError(violations)
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    contents = {
        KNOWLEDGE_DOC_FILE: recipe.knowledge_doc,
        INDICATOR_CONFIG_FILE: dump_yaml(_indicator_to_mapping(recipe.indicator)),
        AGGREGATION_CONFIG_FILE: dump_yaml(_aggregation_to_mapping(recipe.aggregation)),
        DATASET_FILE: dataset_to_csv(recipe.dataset),
        WRAPPER_MANIFEST_FILE: dump_yaml(_manifest(recipe)),
    }
    written: dict[str, Path] = {}
    artifacts = []
    for filename, text in contents.items():
        path = target / filename
        payload = text.encode("utf-8")
        path.write_bytes(payload)
        written[_KINDS[filename]] = path
        artifacts.append({
            "kind": _KINDS[filename],
            "path": filename,
            "sha256": hashlib.sha256(payload).hexdigest(),
        })
    index = {
        "kpi": recipe.kpi,
        "asset_class": recipe.asset_class,
        "artifacts": artifacts,
    }
    index_path = target / RECIPE_INDEX_FILE
    index_path.write_bytes(dump_yaml(index).encode("utf-8"))
    written["recipe-index"] = index_path
    return written


def parse_bundle(bundle_dir) -> Recipe:
    """Reconstruct a Recipe from an on-disk bundle.

    Raises ValidationFailedError unless every content hash matches, the
    manifest is the one ``bundle`` writes for the recipe, and the recipe
    passes ``validate_recipe``.
    """
    root = Path(bundle_dir)
    index_path = root / RECIPE_INDEX_FILE
    if not index_path.is_file():
        raise AutoRecipeError(f"no {RECIPE_INDEX_FILE} in {root}")
    try:
        index_text = index_path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValidationFailedError([f"{RECIPE_INDEX_FILE} is not UTF-8 text"]) from None
    index = load_checked(index_text, RECIPE_INDEX_FILE, "recipe index", _INDEX)
    payloads: dict[str, bytes] = {}
    violations = []
    for entry in index.get("artifacts") or []:
        # Only the layout's own names, so no index reads outside the bundle.
        if entry["path"] not in _KINDS:
            violations.append(f"artifact path {entry['path']!r} is not a bundle file")
            continue
        path = root / entry["path"]
        if not path.is_file():
            violations.append(f"missing artifact file {entry['path']!r}")
            continue
        payload = path.read_bytes()
        if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
            violations.append(f"content hash mismatch for {entry['path']!r}")
        payloads[entry["kind"]] = payload
    violations += [
        f"artifact missing from index: {kind}" for kind in _KINDS.values() if kind not in payloads
    ]
    if violations:
        raise ValidationFailedError(violations)

    def text(filename: str) -> str:
        try:
            return payloads[_KINDS[filename]].decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationFailedError([f"{filename} is not UTF-8 text"]) from None

    def document(filename: str, what: str, schema: Record) -> dict:
        return load_checked(text(filename), filename, what, schema)

    manifest = document(WRAPPER_MANIFEST_FILE, "wrapper manifest", _MANIFEST)
    recipe = Recipe(
        kpi=index["kpi"],
        asset_class=index["asset_class"],
        knowledge_doc=text(KNOWLEDGE_DOC_FILE),
        indicator=_indicator_from_mapping(
            document(INDICATOR_CONFIG_FILE, "indicator config", _INDICATOR)
        ),
        aggregation=_aggregation_from_mapping(
            document(AGGREGATION_CONFIG_FILE, "aggregation config", _AGGREGATION)
        ),
        dataset=dataset_from_csv(text(DATASET_FILE)),
        seed=manifest["run"].get("seed"),
        created_at=manifest["run"]["created_at"],
    )
    if manifest != _manifest(recipe):
        violations.append(f"{WRAPPER_MANIFEST_FILE} is not the manifest of this recipe")
    violations += validate_recipe(recipe)
    if violations:
        raise ValidationFailedError(violations)
    return recipe
