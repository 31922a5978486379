"""Output checks.  Each returns None when the output is right, else a reason.

Scores and lexical metrics are compared with values the input generators
computed on their own; bundles are compared with the bundle the recorded
set-up run wrote.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

BUNDLE_FILES = (
    "knowledge_document.md",
    "indicator_config.yaml",
    "aggregation_config.yaml",
    "sample_dataset.csv",
    "wrapper_manifest.yaml",
    "recipe.yaml",
)
_CREATED_AT = re.compile(r"^(  created_at: ).*$", re.MULTILINE)
_RFC3339 = re.compile(r"^  created_at: '?\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ'?$", re.MULTILINE)


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def bundle_identical(out: Path, recorded: Path) -> str | None:
    """All six files byte for byte, and nothing else in the directory."""
    names = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if names != sorted(BUNDLE_FILES):
        return f"bundle holds {names}"
    for name in BUNDLE_FILES:
        if _read(out / name) != _read(recorded / name):
            return f"{name} differs from the recorded bundle"
    return None


def bundle_identical_but_time(out: Path, recorded: Path) -> str | None:
    """As above, except the manifest's creation time and its hash in the index."""
    names = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if names != sorted(BUNDLE_FILES):
        return f"bundle holds {names}"
    for name in BUNDLE_FILES[:4]:
        if _read(out / name) != _read(recorded / name):
            return f"{name} differs from the recorded bundle"
    manifest = (out / "wrapper_manifest.yaml").read_bytes()
    recorded_manifest = (recorded / "wrapper_manifest.yaml").read_bytes()
    text = manifest.decode("utf-8")
    if not _RFC3339.search(text):
        return "wrapper manifest has no RFC 3339 created_at"
    if _CREATED_AT.sub(r"\1T", text) != _CREATED_AT.sub(r"\1T", recorded_manifest.decode("utf-8")):
        return "wrapper manifest differs beyond created_at"
    index = (out / "recipe.yaml").read_text(encoding="utf-8")
    new_hash = hashlib.sha256(manifest).hexdigest()
    old_hash = hashlib.sha256(recorded_manifest).hexdigest()
    if new_hash not in index:
        return "recipe index does not hold the manifest's hash"
    if index.replace(new_hash, old_hash) != (recorded / "recipe.yaml").read_text(encoding="utf-8"):
        return "recipe index differs beyond the manifest hash"
    return None


def plan_ok(path: Path, expected_steps: int) -> str | None:
    """Parses with parse_sequence, ends with export, no code step left."""
    from autorecipe.planning import parse_sequence

    if not path.is_file():
        return "no plan written"
    seq = parse_sequence(path.read_text(encoding="utf-8"))
    kinds = [s.kind for s in seq.steps]
    if kinds[-1] != "export":
        return f"plan ends with a {kinds[-1]} step"
    if "code" in kinds:
        return "plan keeps an unresolved code step"
    if len(kinds) != expected_steps:
        return f"plan has {len(kinds)} steps, expected {expected_steps}"
    return None


def scores_ok(path: Path, expected: dict[str, float]) -> str | None:
    if not path.is_file():
        return "no scores written"
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "asset_id,score":
        return f"bad header {lines[0]!r}"
    got = {}
    for line in lines[1:]:
        asset, score = line.split(",")
        got[asset] = float(score)
    if got.keys() != expected.keys():
        return f"scored {len(got)} assets, expected {len(expected)}"
    for asset, value in expected.items():
        if abs(got[asset] - value) > 1e-6:
            return f"{asset}: score {got[asset]} != expected {value:.9f}"
    return None


def metrics_ok(path: Path, expected: list[dict]) -> str | None:
    if not path.is_file():
        return "no metrics written"
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(expected) + 1:
        return f"{len(lines) - 1} metric rows, expected {len(expected)}"
    tolerances = {"ttr": 1e-6, "coverage": 0.006, "similarity": 1e-6}
    for line, want in zip(lines[1:], expected):
        _doc, tokens, unique, ttr, cov, sim = line.split(",")
        if int(tokens) != want["tokens"] or int(unique) != want["unique"]:
            return f"counts {tokens}/{unique}, expected {want['tokens']}/{want['unique']}"
        for name, value in zip(("ttr", "coverage", "similarity"), (ttr, cov, sim)):
            if abs(float(value) - want[name]) > tolerances[name]:
                return f"{name} {value}, expected {want[name]:.6f}"
    return None
