"""Datasets, recipe validation, configs and bundle layout."""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from datetime import datetime, timezone
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autorecipe import recipe as recipe_module
from autorecipe._struct import replace
from autorecipe.errors import AutoRecipeError, ValidationFailedError
from autorecipe.execution import split_parts
from autorecipe.recipe import (
    AGGREGATION_CONFIG_FILE,
    BUNDLE_FILES,
    DATASET_FILE,
    DATASET_HEADER,
    INDICATOR_CONFIG_FILE,
    KNOWLEDGE_DOC_FILE,
    RECIPE_INDEX_FILE,
    SYNTHETIC_TIMESTAMP,
    WRAPPER_MANIFEST_FILE,
    Recipe,
    SampleDataset,
    bundle,
    dataset_from_csv,
    dataset_to_csv,
    default_aggregation_config,
    default_indicator_config,
    format_rfc3339,
    generate_synthetic,
    latest_readings,
    load_aggregation_config,
    load_indicator_config,
    parse_bundle,
    parse_rfc3339,
    validate_dataset,
    validate_recipe,
)
from autorecipe.references import (
    CitedDocument,
    ReferenceCounts,
    attach_references,
    render_cited,
)
from autorecipe.scoring import DEFAULT_CATEGORY_SCORES, HealthScoreEstimator
from conftest import THREE_PART_DOC

SENSORS = ["temperature", "vibration"]


def _recipe() -> Recipe:
    indicator = default_indicator_config(SENSORS)
    aggregation = default_aggregation_config(SENSORS)
    dataset = generate_synthetic(indicator, 3, seed=7)
    return Recipe(
        kpi="asset health",
        asset_class="electric motor",
        knowledge_doc=THREE_PART_DOC,
        indicator=indicator,
        aggregation=aggregation,
        dataset=dataset,
        seed=7,
        created_at=SYNTHETIC_TIMESTAMP,
    )


# --- timestamps -----------------------------------------------------------------

def test_parse_rfc3339_zulu_and_offsets():
    assert parse_rfc3339("2024-01-01T00:00:00Z") == datetime(2024, 1, 1, tzinfo=timezone.utc)
    shifted = parse_rfc3339("2024-01-01T02:00:00+02:00")
    assert shifted == datetime(2024, 1, 1, tzinfo=timezone.utc)
    assert shifted.tzinfo == timezone.utc


def test_parse_rfc3339_names_a_stamp_outside_the_utc_years():
    # Converting to UTC would leave year 1; the error is a ValueError, as for
    # any other bad stamp, not the OverflowError astimezone raises.
    for stamp in ("0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-01:30"):
        with pytest.raises(ValueError, match=re.escape(f"timestamp '{stamp}' falls outside")):
            parse_rfc3339(stamp)


def test_parse_rfc3339_rejects_naive():
    with pytest.raises(ValueError):
        parse_rfc3339("2024-01-01T00:00:00")


def test_format_rfc3339_round_trip():
    moment = datetime(2024, 3, 5, 12, 30, 45, tzinfo=timezone.utc)
    assert format_rfc3339(moment) == "2024-03-05T12:30:45Z"
    assert parse_rfc3339(format_rfc3339(moment)) == moment


def _moment_or_error(parse, timestamp):
    try:
        moment = parse(timestamp)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return moment, moment.utcoffset()


@st.composite
def _timestamps(draw):
    """RFC 3339 spellings and near misses: any zone, fraction, format or padding."""
    date = draw(st.sampled_from(["2024-01-01", "2024-02-29", "2023-02-29", "0001-01-01",
                                 "9999-12-31", "20240101"]))
    time = draw(st.sampled_from(["00:00:00", "23:59:59", "12:30", "24:00:00", "123000", "7"]))
    fraction = draw(st.sampled_from(["", ".5", ".123", ".123456", ".1234567", ","]))
    zone = draw(st.sampled_from(["", "Z", "z", "+00:00", "-00:00", "+01:00", "-04:30", "+0200",
                                 "+00", "+14:00", "+24:00", "+00:00:30", " Z", "ZZ"]))
    text = date + draw(st.sampled_from(["T", "t", " "])) + time + fraction + zone
    pad = draw(st.sampled_from(["", " ", "\t", "\n"]))
    return draw(st.sampled_from([text, pad + text, text + pad, pad + text + pad]))


@settings(max_examples=400, deadline=None)
@given(timestamp=st.one_of(_timestamps(), st.text(max_size=30)))
@example(timestamp="2024-01-01T00:00:00Z")
@example(timestamp="0001-01-01T00:00:00+01:00")
def test_parse_rfc3339_reads_as_its_rewriting_route_reads(timestamp):
    # parse_rfc3339 takes a stamp that is UTC as written as fromisoformat
    # reads it; every stamp reads as it did when each one was rewritten first.
    def rewritten(timestamp):
        text = timestamp.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        parsed = datetime.fromisoformat(text)
        if parsed.tzinfo is None:
            raise ValueError(f"timestamp {timestamp!r} carries no timezone")
        try:
            return parsed.astimezone(timezone.utc)
        except OverflowError:
            raise ValueError(f"timestamp {timestamp!r} falls outside years 1-9999 in UTC") from None

    # The same instant in UTC, or the same error.
    assert _moment_or_error(parse_rfc3339, timestamp) == _moment_or_error(rewritten, timestamp)


# --- latest readings ---------------------------------------------------------------

def test_latest_readings_later_timestamp_wins():
    rows = (
        ("a", "t", 10.0, "2024-01-01T00:00:00Z", "percent"),
        ("a", "t", 20.0, "2024-01-02T00:00:00Z", "percent"),
        ("b", "t", 30.0, "2024-01-01T00:00:00Z", "percent"),
    )
    assert latest_readings(SampleDataset(rows)) == {"a": {"t": 20.0}, "b": {"t": 30.0}}


def test_latest_readings_tie_takes_later_row():
    rows = (
        ("a", "t", 10.0, "2024-01-01T00:00:00Z", "percent"),
        ("a", "t", 99.0, "2024-01-01T00:00:00Z", "percent"),
    )
    assert latest_readings(SampleDataset(rows)) == {"a": {"t": 99.0}}


# --- dataset validation ---------------------------------------------------------------

def test_validate_dataset_clean_fixture():
    indicator = default_indicator_config(SENSORS)
    dataset = generate_synthetic(indicator, 4, seed=11)
    assert validate_dataset(dataset, indicator) == []


def test_validate_dataset_violations():
    indicator = default_indicator_config(SENSORS)
    base = "2024-01-01T00:00:00Z"
    rows = (
        ("a", "pressure", 10.0, base, "percent"),
        ("a", "temperature", 10.0, base, "celsius"),
        ("a", "temperature", 10.0, "not a time", "percent"),
        ("a", "vibration", 400.0, base, "percent"),
    )
    violations = validate_dataset(SampleDataset(rows), indicator)
    assert any("unknown sensor 'pressure'" in v for v in violations)
    assert any("does not match configured" in v for v in violations)
    assert any("bad timestamp" in v for v in violations)
    assert any("outside the configured domain" in v for v in violations)


def test_validate_dataset_coverage_and_ambiguity():
    indicator = default_indicator_config(SENSORS)
    rows = (
        ("a", "temperature", 10.0, "2024-01-01T00:00:00Z", "percent"),
        ("b", "temperature", 10.0, "2024-01-01T00:00:00Z", "percent"),
        ("b", "temperature", 20.0, "2024-01-01T00:00:00Z", "percent"),
        ("b", "vibration", 20.0, "2024-01-01T00:00:00Z", "percent"),
    )
    violations = validate_dataset(SampleDataset(rows), indicator)
    assert any("'a' has no reading for sensor 'vibration'" in v for v in violations)
    assert any("ambiguous latest reading" in v for v in violations)


_ORDER_SCRIPT = """
import json
from autorecipe.recipe import SampleDataset, default_indicator_config, validate_dataset
stamp = "2024-01-01T00:00:00Z"
rows = [(f"asset-{i}", "temperature", 10.0, stamp, "percent") for i in range(12)]
rows += [("asset-3", "vibration", 10.0, stamp, "percent")] * 2
print(json.dumps(validate_dataset(SampleDataset(tuple(rows)),
                                  default_indicator_config(["temperature", "vibration"]))))
"""


def test_validate_dataset_violation_order_is_first_seen_under_any_hash_seed():
    src = str(Path(recipe_module.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT], capture_output=True,
                              text=True, env=env, check=True)
        runs.append(json.loads(proc.stdout))
    expected = [
        f"asset 'asset-{i}' has no reading for sensor 'vibration'" for i in range(12) if i != 3
    ]
    expected.insert(3, "asset 'asset-3' sensor 'vibration' has an ambiguous latest reading")
    assert runs[0] == runs[1] == expected


def test_validate_dataset_empty():
    indicator = default_indicator_config(SENSORS)
    assert validate_dataset(SampleDataset(()), indicator) == ["dataset has no rows"]


# --- synthetic data ---------------------------------------------------------------------

def test_generate_synthetic_shape():
    indicator = default_indicator_config(SENSORS)
    dataset = generate_synthetic(indicator, 5, seed=0)
    assert len(dataset.rows) == 5 * len(SENSORS)
    assert tuple(dict.fromkeys(asset_id for asset_id, *_ in dataset.rows)) == tuple(
        f"asset-{i:03d}" for i in range(1, 6)
    )
    assert {sensor_name for _, sensor_name, *_ in dataset.rows} == set(SENSORS)
    for _, _, value, timestamp, unit in dataset.rows:
        assert 0.0 <= value <= 100.0
        assert value == round(value, 4)
        assert timestamp == SYNTHETIC_TIMESTAMP
        assert unit == "percent"


def test_generate_synthetic_seeded_determinism():
    indicator = default_indicator_config(SENSORS)
    first = generate_synthetic(indicator, 5, seed=42)
    second = generate_synthetic(indicator, 5, seed=42)
    other = generate_synthetic(indicator, 5, seed=43)
    assert first == second
    assert first != other


def test_generate_synthetic_argument_checks():
    indicator = default_indicator_config(SENSORS)
    with pytest.raises(ValueError):
        generate_synthetic(indicator, 0, seed=1)
    broken = default_indicator_config(["a"])
    broken.sensors[0].ranges["medium"] = (30.0, 50.0)  # tear a gap in the tiling
    with pytest.raises(ValidationFailedError):
        generate_synthetic(broken, 2, seed=1)


def test_generate_synthetic_random_configs_always_validate():
    rng = random.Random(20240814)
    for _ in range(25):
        names = [f"s{i}" for i in range(rng.randint(1, 4))]
        low = round(rng.uniform(-50.0, 0.0), 1)
        high = low + round(rng.uniform(1.0, 100.0), 1)
        cfg = default_indicator_config(names, unit="unitless", domain=(low, high))
        dataset = generate_synthetic(cfg, rng.randint(1, 6), seed=rng.randint(0, 999))
        assert validate_dataset(dataset, cfg) == []


def test_generate_synthetic_awkward_domain_stays_in_bounds():
    cfg = default_indicator_config(["s"], domain=(0.0, 0.123456))
    dataset = generate_synthetic(cfg, 50, seed=3)
    assert validate_dataset(dataset, cfg) == []
    assert all(0.0 <= value <= 0.123456 for _, _, value, _, _ in dataset.rows)


# --- csv ------------------------------------------------------------------------------------

def test_dataset_csv_round_trip():
    indicator = default_indicator_config(SENSORS)
    dataset = generate_synthetic(indicator, 3, seed=5)
    text = dataset_to_csv(dataset)
    assert text.splitlines()[0] == ",".join(DATASET_HEADER)
    assert dataset_from_csv(text) == dataset


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), st.text(alphabet='ab,"\n\r\x0b\x0c\x1c\x85\u2028\x00')))
def test_dataset_csv_lines_are_those_a_string_buffer_yields(text):
    # dataset_from_csv hands csv.reader exactly the lines io.StringIO(text) would.
    assert [m.group() for m in recipe_module._CSV_LINE.finditer(text)] == list(io.StringIO(text))


def test_dataset_from_csv_drops_one_leading_byte_order_mark():
    header = ",".join(DATASET_HEADER)
    row = "a,temperature,1.5,2024-01-01T00:00:00Z,percent\n"
    assert dataset_from_csv(f"\ufeff{header}\n{row}") == dataset_from_csv(f"{header}\n{row}")
    with pytest.raises(ValidationFailedError) as info:
        dataset_from_csv(f"\ufeff\ufeff{header}\n{row}")
    assert info.value.violations == [f"dataset header must be {header}, got \ufeff{header}"]
    quoted = '"' + '","'.join(DATASET_HEADER) + '"'
    assert dataset_from_csv(f"\ufeff{quoted}\n{row}") == dataset_from_csv(f"{header}\n{row}")


def _records_or_violations(records):
    try:
        return list(records)
    except ValidationFailedError as exc:
        return exc.violations


# Pieces of a dataset file: fields, a quoted field holding line breaks, NUL,
# a field over csv.field_size_limit(), and every kind of line ending.
_CSV_PIECES = ["a0", "s0", "1.5", "2024-01-01T00:00:00Z", "u", ",", '"x\ny"', '"x\r\ny"',
               '"x\ry"', "\x00", "\ufeff", "é", '"', "\n", "\r\n", "\r", "\n\n"]


@st.composite
def _dataset_files(draw):
    header = draw(st.sampled_from([",".join(DATASET_HEADER), "\ufeff" + ",".join(DATASET_HEADER)]))
    body = "".join(draw(st.lists(st.sampled_from(_CSV_PIECES), max_size=40)))
    if draw(st.integers(0, 19)) == 0:
        body += "x" * 140_000
    return header + draw(st.sampled_from(["\n", "\r\n", "\r", ""])) + body


@settings(max_examples=300, deadline=None)
@given(text=_dataset_files())
def test_dataset_file_lines_give_the_records_of_its_text(tmp_path_factory, text):
    # score streams the file's lines; the text route reads it whole, as
    # Path.read_text does, with "\r\n" and "\r" read as "\n".
    path = tmp_path_factory.mktemp("csv") / "dataset.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _records_or_violations(recipe_module._csv_records(path.read_text(encoding="utf-8")))
    with open(path, encoding="utf-8") as fh:
        assert _records_or_violations(recipe_module._csv_records(fh)) == expected


def test_dataset_from_csv_rejects_bad_input():
    with pytest.raises(ValidationFailedError):
        dataset_from_csv("")
    with pytest.raises(ValidationFailedError):
        dataset_from_csv("asset,sensor,value\n")


def test_dataset_from_csv_names_the_line_of_a_bad_row():
    header = ",".join(DATASET_HEADER)
    good = "a,temperature,1.5,2024-01-01T00:00:00Z,percent"
    with pytest.raises(ValidationFailedError) as info:
        dataset_from_csv(f"{header}\n{good}\n\n\"a\nb\",temperature,1\n")
    # the bad record starts on line 4 and its quoted field ends on line 5
    assert info.value.violations == ["dataset line 5: expected 5 fields, got 3"]
    with pytest.raises(ValidationFailedError) as info:
        dataset_from_csv(f"{header}\n{good}\na,temperature,n/a,2024-01-01T00:00:00Z,percent\n")
    assert info.value.violations == ["dataset line 3: value 'n/a' is not a number"]


def test_dataset_from_csv_names_the_line_the_csv_reader_rejects():
    limit = "field larger than field limit (131072)"
    with pytest.raises(ValidationFailedError) as info:
        dataset_from_csv("x" * 140_000 + "\n")
    assert info.value.violations == [f"dataset line 1: {limit}"]
    good = "a,temperature,1.5,2024-01-01T00:00:00Z,percent"
    with pytest.raises(ValidationFailedError) as info:
        dataset_from_csv(f"{','.join(DATASET_HEADER)}\n{good}\n{good}\r{good}\n")
    assert len(info.value.violations) == 1
    assert info.value.violations[0].startswith("dataset line 3: new-line character seen")


# --- config defaults --------------------------------------------------------------------------

def test_default_indicator_config_quartiles():
    cfg = default_indicator_config(["a"], domain=(0.0, 1.0))
    ranges = cfg.sensors[0].ranges
    assert ranges["poor"] == (0.0, 0.25)
    assert ranges["medium"] == (0.25, 0.5)
    assert ranges["good"] == (0.5, 0.75)
    assert ranges["excellent"] == (0.75, 1.0)
    from autorecipe.scoring import validate_indicator_config

    assert validate_indicator_config(cfg) == []
    with pytest.raises(ValueError):
        default_indicator_config([])


def test_default_aggregation_config_methods():
    from autorecipe.scoring import validate_aggregation_config

    weighted = default_aggregation_config(SENSORS)
    assert weighted.weights == {"temperature": 0.5, "vibration": 0.5}
    assert validate_aggregation_config(weighted, tuple(SENSORS)) == []

    ahp = default_aggregation_config(SENSORS, method="ahp")
    assert ahp.pairwise == ((1.0, 1.0), (1.0, 1.0))
    assert validate_aggregation_config(ahp, tuple(SENSORS)) == []

    with pytest.raises(ValueError):
        default_aggregation_config(SENSORS, method="mystery")


def test_default_ahp_config_is_limited_to_fifteen_sensors():
    names = [f"sensor {i}" for i in range(16)]
    config = default_aggregation_config(names[:15], method="ahp")
    assert HealthScoreEstimator().fit(default_indicator_config(names[:15]), config)
    with pytest.raises(ValidationFailedError) as info:
        HealthScoreEstimator().fit(default_indicator_config(names),
                                   default_aggregation_config(names, method="ahp"))
    assert info.value.violations == [
        "pairwise matrix size 16 exceeds the supported maximum 15"
    ]


# --- recipe validation --------------------------------------------------------------------------

def test_validate_recipe_complete_fixture():
    assert validate_recipe(_recipe()) == []


def test_validate_recipe_reports_missing_artifacts():
    violations = validate_recipe(replace(_recipe(), kpi=" ", asset_class="", knowledge_doc="\n "))
    assert violations == [
        "kpi must be non-empty",
        "asset class must be non-empty",
        "knowledge document must be non-empty",
    ]


def _rewrite_manifest(out_dir: Path, edit) -> None:
    """Apply ``edit`` to the bundle's manifest and update its hash in the index."""
    import hashlib

    manifest_path = out_dir / WRAPPER_MANIFEST_FILE
    manifest = yaml.safe_load(manifest_path.read_text(encoding="utf-8"))
    edit(manifest)
    payload = yaml.safe_dump(manifest, sort_keys=False).encode("utf-8")
    manifest_path.write_bytes(payload)
    index_path = out_dir / RECIPE_INDEX_FILE
    index = yaml.safe_load(index_path.read_text(encoding="utf-8"))
    for entry in index["artifacts"]:
        if entry["path"] == WRAPPER_MANIFEST_FILE:
            entry["sha256"] = hashlib.sha256(payload).hexdigest()
    index_path.write_text(yaml.safe_dump(index, sort_keys=False), encoding="utf-8")


def test_validate_recipe_checks_wrapper_paths(tmp_path):
    # The manifest follows from the recipe, so parse_bundle rejects any other,
    # even when the index carries its updated hash.
    edits = {
        "indicator-path": lambda m: m.update(indicator_config="elsewhere.yaml"),
        "output-path": lambda m: m.update(output=" "),
        "model-method": lambda m: m["model"].update(method="ahp"),
        "tool-version": lambda m: m["run"].update(tool_version="0.0.0"),
    }
    bundle(_recipe(), tmp_path / "unedited")
    _rewrite_manifest(tmp_path / "unedited", lambda m: None)
    assert parse_bundle(tmp_path / "unedited") == _recipe()
    for name, edit in edits.items():
        bundle(_recipe(), tmp_path / name)
        _rewrite_manifest(tmp_path / name, edit)
        with pytest.raises(ValidationFailedError) as info:
            parse_bundle(tmp_path / name)
        assert info.value.violations == [
            f"{WRAPPER_MANIFEST_FILE} is not the manifest of this recipe"
        ], name
    # A key the manifest does not have fails its shape check first.
    bundle(_recipe(), tmp_path / "extra-key")
    _rewrite_manifest(tmp_path / "extra-key", lambda m: m.update(extra="field"))
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "extra-key")
    assert info.value.violations == [
        f"{WRAPPER_MANIFEST_FILE}: wrapper manifest key must be one of indicator_config, "
        "aggregation_config, dataset, output, model, run, got 'extra'"
    ]


@pytest.mark.parametrize("edit, violation", [
    (lambda m: m["run"].update(seed="7"), "run.seed must be an integer, got '7'"),
    (lambda m: m["run"].update(seed=True), "run.seed must be an integer, got True"),
    (lambda m: m["run"].update(seed=7.0), "run.seed must be an integer, got 7.0"),
    (lambda m: m["run"].pop("created_at"), "run.created_at must be a string, got None"),
    (lambda m: m.update(run=[1]), "run must be a mapping, got [1]"),
], ids=["text-seed", "bool-seed", "float-seed", "no-created-at", "run-not-a-mapping"])
def test_parse_bundle_checks_run_fields(tmp_path, edit, violation):
    bundle(_recipe(), tmp_path / "out")
    _rewrite_manifest(tmp_path / "out", edit)
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    assert info.value.violations == [f"{WRAPPER_MANIFEST_FILE}: {violation}"]


@pytest.mark.parametrize("path", [
    "indicator_config", "aggregation_config", "dataset", "output", "model", "model.name",
    "model.method", "model.version", "run.tool_version",
])
def test_parse_bundle_checks_the_kind_of_each_manifest_field(tmp_path, path):
    def edit(manifest):
        *parents, key = path.split(".")
        for parent in parents:
            manifest = manifest[parent]
        manifest[key] = 5

    bundle(_recipe(), tmp_path / "out")
    _rewrite_manifest(tmp_path / "out", edit)
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    noun = "a mapping" if path == "model" else "a string"
    assert info.value.violations == [f"{WRAPPER_MANIFEST_FILE}: {path} must be {noun}, got 5"]


@pytest.mark.parametrize("key, value", [
    ("kpi", None), ("kpi", 5), ("asset_class", ["motor"]),
], ids=["null-kpi", "int-kpi", "list-asset-class"])
def test_parse_bundle_rejects_non_text_index_fields(tmp_path, key, value):
    bundle(_recipe(), tmp_path / "out")
    index_path = tmp_path / "out" / RECIPE_INDEX_FILE
    index = yaml.safe_load(index_path.read_text(encoding="utf-8"))
    index[key] = value
    index_path.write_text(yaml.safe_dump(index, sort_keys=False), encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    assert info.value.violations == [f"{RECIPE_INDEX_FILE}: {key} must be a string, got {value!r}"]


def test_parse_bundle_reports_recipe_violations(tmp_path):
    # A bundle whose files all hash correctly still fails validate_recipe.
    bundle(_recipe(), tmp_path / "out")
    index_path = tmp_path / "out" / RECIPE_INDEX_FILE
    index = yaml.safe_load(index_path.read_text(encoding="utf-8"))
    index["kpi"] = " "
    index_path.write_text(yaml.safe_dump(index, sort_keys=False), encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    assert info.value.violations == ["kpi must be non-empty"]


def test_validate_recipe_cross_checks_dataset():
    recipe = _recipe()
    rows = (("a", "pressure", 5.0, SYNTHETIC_TIMESTAMP, "percent"),)
    broken = replace(recipe, dataset=SampleDataset(rows))
    assert any("unknown sensor" in v for v in validate_recipe(broken))


# --- bundling ---------------------------------------------------------------------------------

def test_bundle_writes_six_files(tmp_path):
    recipe = _recipe()
    written = bundle(recipe, tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(BUNDLE_FILES)
    assert set(written) == {
        "knowledge-doc", "indicator-config", "aggregation-config",
        "sample-dataset", "wrapper-manifest", "recipe-index",
    }
    assert written["recipe-index"].name == RECIPE_INDEX_FILE
    import hashlib

    import yaml

    index = yaml.safe_load(written["recipe-index"].read_text(encoding="utf-8"))
    assert index["kpi"] == "asset health"
    assert index["asset_class"] == "electric motor"
    assert len(index["artifacts"]) == 5
    for entry in index["artifacts"]:
        payload = ((tmp_path / "out") / entry["path"]).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == entry["sha256"]


def test_bundle_rejects_incomplete_recipe(tmp_path):
    rows = (("a", "pressure", 5.0, SYNTHETIC_TIMESTAMP, "percent"),)
    broken = replace(_recipe(), knowledge_doc="", dataset=SampleDataset(rows))
    with pytest.raises(ValidationFailedError) as info:
        bundle(broken, tmp_path / "out")
    assert info.value.violations == validate_recipe(broken)
    assert "knowledge document must be non-empty" in info.value.violations
    assert any("unknown sensor" in v for v in info.value.violations)
    assert not (tmp_path / "out").exists()


def test_bundle_is_byte_stable(tmp_path):
    recipe = _recipe()
    first = bundle(recipe, tmp_path / "one")
    second = bundle(recipe, tmp_path / "two")
    for kind, path in first.items():
        assert path.read_bytes() == second[kind].read_bytes()


def test_bundle_round_trip(tmp_path):
    recipe = _recipe()
    bundle(recipe, tmp_path / "one")
    parsed = parse_bundle(tmp_path / "one")
    assert parsed == recipe
    # re-bundling the parsed recipe reproduces the original bytes
    again = bundle(parsed, tmp_path / "two")
    for name in BUNDLE_FILES:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    assert set(again) == {
        "knowledge-doc", "indicator-config", "aggregation-config",
        "sample-dataset", "wrapper-manifest", "recipe-index",
    }


def test_bundle_renders_citations(tmp_path):
    recipe = _recipe()
    claims = [(1, "Motors convert energy.")]
    evidence = [(1, "https://ref.example", True)]
    cited = attach_references(split_parts(recipe.knowledge_doc), claims, evidence)
    cited_recipe = replace(recipe, knowledge_doc=render_cited(cited))
    bundle(cited_recipe, tmp_path / "out")
    text = (tmp_path / "out" / KNOWLEDGE_DOC_FILE).read_text(encoding="utf-8")
    assert "References:\n1. https://ref.example" in text
    assert text == cited_recipe.knowledge_doc
    assert parse_bundle(tmp_path / "out") == cited_recipe


# Text that YAML or CSV reads specially, mixed into generated labels.
_AWKWARD = st.sampled_from([
    "null", "~", "true", "no", "on", "1", "0x1f", "1e3", ".inf", "-.nan", "2024-01-01",
    "- a", "a: b", "? k", "#c", "&a", "*a", "!t", "%y", "@x", "`b", "|", ">", "{a}", "[1]",
    "'q'", '"q"', "a,b", 'a "b", c', "---", "...", "é", "日本", "😀", "\\", "\u00a0x",
])


def _label(text: str) -> str:
    """Whitespace-normalized as taxonomy labels are."""
    return " ".join(text.split())


_LABELS = st.lists(st.one_of(st.text(max_size=12), _AWKWARD), min_size=1, max_size=3).map(
    lambda pieces: _label(" ".join(pieces))
).filter(bool)


@st.composite
def _documents(draw) -> str:
    """Markdown from zero to three headed parts, with or without reference lists."""
    heads = draw(st.lists(_LABELS, max_size=3))
    bodies = draw(st.lists(st.text(min_size=1), min_size=len(heads) + 1,
                           max_size=len(heads) + 1))
    text = bodies[0] + "".join(f"\n## {h}\n{b}" for h, b in zip(heads, bodies[1:]))
    if not text.strip():
        text += "x"
    if not draw(st.booleans()):
        return text
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        doc = split_parts(text)
    urls = st.lists(st.text(min_size=1, max_size=20).map(_label).filter(bool), max_size=3)
    citations = tuple(tuple(draw(urls)) for _ in doc.parts)
    return render_cited(CitedDocument(doc, citations, ReferenceCounts((), (), ())))


@st.composite
def _recipes(draw) -> Recipe:
    names = draw(st.lists(_LABELS, min_size=1, max_size=6, unique=True))
    low = draw(st.floats(-1e6, 1e6))
    width = draw(st.floats(1e-3, 1e6))
    indicator = default_indicator_config(names, unit=draw(_LABELS), domain=(low, low + width))
    moment = draw(st.datetimes(min_value=datetime(1970, 1, 1), timezones=st.just(timezone.utc)))
    return Recipe(
        kpi=draw(_LABELS),
        asset_class=draw(_LABELS),
        knowledge_doc=draw(_documents()),
        indicator=indicator,
        aggregation=default_aggregation_config(names, draw(st.sampled_from(["weighted", "ahp"]))),
        dataset=generate_synthetic(indicator, draw(st.integers(1, 4)), draw(st.integers())),
        seed=draw(st.none() | st.integers()),
        created_at=draw(st.just(SYNTHETIC_TIMESTAMP) | st.just(format_rfc3339(moment))),
    )


@settings(max_examples=150, deadline=None)
@given(recipe=_recipes())
def test_random_recipes_round_trip_through_a_bundle(recipe):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        bundle(recipe, first)
        parsed = parse_bundle(first)
        assert parsed == recipe
        bundle(parsed, second)
        for name in BUNDLE_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


# Any text, with the characters a YAML reader takes as line breaks drawn often.
_ANY_TEXT = st.text(st.characters() | st.sampled_from("\x85\u2028\u2029\r\n\t "),
                    min_size=1).filter(str.strip)


@settings(max_examples=100, deadline=None)
@given(kpi=_ANY_TEXT, asset_class=_ANY_TEXT)
@example(kpi="asset\x85health", asset_class="\x85motor\x85")
@example(kpi="0", asset_class="\ud800")
def test_bundle_keeps_any_kpi_and_asset_class(kpi, asset_class):
    recipe = replace(_recipe(), kpi=kpi, asset_class=asset_class)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            (kpi + asset_class).encode("utf-8")
        except UnicodeEncodeError:
            # A lone surrogate has no UTF-8 form: the bundle is refused, not
            # written unreadable.
            with pytest.raises(ValidationFailedError, match="lone surrogate"):
                bundle(recipe, tmp)
            assert not any(Path(tmp).iterdir())
            return
        bundle(recipe, tmp)
        assert parse_bundle(tmp) == recipe


def test_parse_bundle_missing_index(tmp_path):
    with pytest.raises(AutoRecipeError, match=r"^no recipe\.yaml in "):
        parse_bundle(tmp_path)


def test_parse_bundle_detects_tampering(tmp_path):
    bundle(_recipe(), tmp_path / "out")
    target = tmp_path / "out" / DATASET_FILE
    target.write_text(target.read_text(encoding="utf-8") + "tail\n", encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    assert any("hash mismatch" in v for v in info.value.violations)


@pytest.mark.parametrize("filename", [RECIPE_INDEX_FILE, KNOWLEDGE_DOC_FILE],
                         ids=["index", "artifact"])
def test_parse_bundle_rejects_files_that_are_not_utf8(tmp_path, filename):
    import hashlib

    bundle(_recipe(), tmp_path / "out")
    target = tmp_path / "out" / filename
    payload = target.read_bytes() + "caf\xe9\n".encode("latin-1")
    target.write_bytes(payload)
    if filename != RECIPE_INDEX_FILE:
        # Keep the hash right, so only the encoding is wrong.
        index_path = tmp_path / "out" / RECIPE_INDEX_FILE
        index = yaml.safe_load(index_path.read_text(encoding="utf-8"))
        for entry in index["artifacts"]:
            if entry["path"] == filename:
                entry["sha256"] = hashlib.sha256(payload).hexdigest()
        index_path.write_text(yaml.safe_dump(index, sort_keys=False), encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    assert info.value.violations == [f"{filename} is not UTF-8 text"]


def test_parse_bundle_detects_missing_file(tmp_path):
    bundle(_recipe(), tmp_path / "out")
    (tmp_path / "out" / WRAPPER_MANIFEST_FILE).unlink()
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    assert any("missing artifact file" in v for v in info.value.violations)


@pytest.mark.parametrize("path", ["../outside.txt", "sub/knowledge_document.md", "notes.md"],
                         ids=["parent-dir", "sub-dir", "unknown-name"])
def test_parse_bundle_reads_only_the_bundle_files(tmp_path, path):
    bundle(_recipe(), tmp_path / "out")
    # A copy of the knowledge document, with the index hash still matching it.
    target = tmp_path / "out" / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes((tmp_path / "out" / KNOWLEDGE_DOC_FILE).read_bytes())
    index_path = tmp_path / "out" / RECIPE_INDEX_FILE
    index = yaml.safe_load(index_path.read_text(encoding="utf-8"))
    for entry in index["artifacts"]:
        if entry["path"] == KNOWLEDGE_DOC_FILE:
            entry["path"] = path
    index_path.write_text(yaml.safe_dump(index, sort_keys=False), encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    assert info.value.violations[0] == f"artifact path {path!r} is not a bundle file"


def test_load_config_helpers(tmp_path):
    recipe = _recipe()
    bundle(recipe, tmp_path / "out")
    indicator = load_indicator_config(tmp_path / "out" / INDICATOR_CONFIG_FILE)
    aggregation = load_aggregation_config(tmp_path / "out" / AGGREGATION_CONFIG_FILE)
    assert indicator == recipe.indicator
    assert aggregation == recipe.aggregation


@pytest.mark.parametrize("sensors, violations", [
    ([{"unit": "percent"}, {"name": "b"}],
     ["sensors.1.name must be a string, got None", "sensors.2.unit must be a string, got None"]),
    (["vibration"], ["sensors.1 must be a mapping, got 'vibration'"]),
    ([{"name": "a", "unit": "u", "ranges": [[0, 1]]}],
     ["sensors.1.ranges must be a mapping, got [[0, 1]]"]),
    ([{"name": "a", "unit": "u", "ranges": {"poor": {"min": 0}, "good": [0, 1],
                                            "excellent": {"min": "x", "max": 1}}}],
     ["sensors.1.ranges.poor.max must be a number, got None",
      "sensors.1.ranges.good must be a mapping, got [0, 1]",
      "sensors.1.ranges.excellent.min must be a number, got 'x'"]),
    (5, ["sensors must be a list, got 5"]),
    ([{"name": [1], "unit": "percent"}, {"name": "b", "unit": 7}],
     ["sensors.1.name must be a string, got [1]", "sensors.2.unit must be a string, got 7"]),
], ids=["no-name-no-unit", "not-a-mapping", "list-ranges", "bad-bounds", "scalar-sensors",
        "non-text-name-and-unit"])
def test_load_indicator_config_reports_malformed_sensors(tmp_path, sensors, violations):
    path = tmp_path / "indicator.yaml"
    path.write_text(json.dumps({"sensors": sensors}), encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        load_indicator_config(path)
    assert info.value.violations == [f"{path}: {v}" for v in violations]


@pytest.mark.parametrize("loader, what", [
    (load_indicator_config, "indicator config"),
    (load_aggregation_config, "aggregation config"),
], ids=["load_indicator_config", "load_aggregation_config"])
def test_load_configs_reject_non_mapping_documents(tmp_path, loader, what):
    path = tmp_path / "config.yaml"
    path.write_text("- just\n- a list\n", encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        loader(path)
    assert info.value.violations == [f"{path}: {what} must be a mapping, got ['just', 'a list']"]


@pytest.mark.parametrize("change, violations", [
    ({"weights": [0.5, 0.5]}, ["weights must be a mapping, got [0.5, 0.5]"]),
    ({"category_scores": "high"}, ["category_scores must be a mapping, got 'high'"]),
    ({"weights": {"a": "heavy", "b": [1]}}, ["weights.a must be a number, got 'heavy'",
                                             "weights.b must be a number, got [1]"]),
    ({"method": "ahp", "sensors": ["a", "b"], "pairwise": [[1.0, 2.0], 0.5]},
     ["pairwise.2 must be a list, got 0.5"]),
    ({"method": "ahp", "sensors": ["a", "b"], "pairwise": [[1.0, 2.0], "12"]},
     ["pairwise.2 must be a list, got '12'"]),
    ({"method": "ahp", "sensors": ["a", "b"], "pairwise": [[1.0, "x"], [None, 1.0]]},
     ["pairwise.1.2 must be a number, got 'x'", "pairwise.2.1 must be a number, got None"]),
    ({"method": "ahp", "sensors": ["a"], "pairwise": {"a": [1.0]}},
     ["pairwise must be a list, got {'a': [1.0]}"]),
    ({"method": "ahp", "sensors": 5, "pairwise": [[1.0]]},
     ["sensors must be a list, got 5"]),
    ({"method": "ahp", "sensors": [["a"]], "pairwise": [[1.0]]},
     ["sensors.1 must be a string, got ['a']"]),
    ({"method": "ahp", "sensors": "ab", "pairwise": [[1.0, 1.0], [1.0, 1.0]]},
     ["sensors must be a list, got 'ab'"]),
], ids=["list-weights", "scalar-category-scores", "non-numeric-weights", "scalar-row",
        "text-row", "non-numeric-rows", "mapping-pairwise", "scalar-sensors", "nested-sensors",
        "text-sensors"])
def test_load_aggregation_config_reports_malformed_values(tmp_path, change, violations):
    data = {"method": "weighted", "category_scores": dict(DEFAULT_CATEGORY_SCORES),
            "weights": {"a": 0.5, "b": 0.5}}
    data.update(change)
    path = tmp_path / "aggregation.yaml"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        load_aggregation_config(path)
    assert info.value.violations == [f"{path}: {v}" for v in violations]


def _first_artifact(entry):
    return lambda index: index["artifacts"].__setitem__(0, entry)


@pytest.mark.parametrize("edit, violation", [
    (_first_artifact({"kind": "sample-dataset", "sha256": ""}),
     "recipe.yaml: artifacts.1.path must be a string, got None"),
    (_first_artifact({"path": DATASET_FILE}),
     "recipe.yaml: artifacts.1.kind must be a string, got None"),
    (_first_artifact("sample_dataset.csv"),
     "recipe.yaml: artifacts.1 must be a mapping, got 'sample_dataset.csv'"),
    (lambda index: index.update(artifacts=5), "recipe.yaml: artifacts must be a list, got 5"),
    (lambda index: index["artifacts"][0].update(sha256=5),
     "recipe.yaml: artifacts.1.sha256 must be a string, got 5"),
], ids=["no-path", "no-kind", "not-a-mapping", "artifacts-not-a-list", "sha256-not-text"])
def test_parse_bundle_reports_malformed_index_entries(tmp_path, edit, violation):
    bundle(_recipe(), tmp_path / "out")
    index_path = tmp_path / "out" / RECIPE_INDEX_FILE
    index = yaml.safe_load(index_path.read_text(encoding="utf-8"))
    edit(index)
    index_path.write_text(yaml.safe_dump(index, sort_keys=False), encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        parse_bundle(tmp_path / "out")
    assert info.value.violations[0] == violation

