"""End-to-end command-line behavior: exit codes, files, and determinism."""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import yaml
import pytest

import autorecipe
from autorecipe import cli, presets
from autorecipe.cli import build_parser, main
from autorecipe.gateway import ScriptedGateway
from autorecipe.planning import parse_sequence
from autorecipe.recipe import (
    AGGREGATION_CONFIG_FILE,
    BUNDLE_FILES,
    DATASET_FILE,
    INDICATOR_CONFIG_FILE,
    SYNTHETIC_TIMESTAMP,
    SampleDataset,
    dataset_from_csv,
    parse_bundle,
)
from conftest import THREE_PART_DOC


@pytest.fixture
def tax_file(tmp_path):
    path = tmp_path / "health.yaml"
    path.write_text(presets.ASSET_HEALTH_TAXONOMY, encoding="utf-8")
    return str(path)


@pytest.fixture
def model_calls(monkeypatch):
    """Every session a scripted gateway is asked, in call order."""
    calls = []
    complete = ScriptedGateway.complete
    monkeypatch.setattr(ScriptedGateway, "complete",
                        lambda self, session: calls.append(session) or complete(self, session))
    return calls


def _write_yaml(path, data) -> str:
    path.write_text(yaml.safe_dump(data, sort_keys=False, allow_unicode=True), encoding="utf-8")
    return str(path)


def _generate_script(tmp_path, gitq_steps: int = 8, name: str = "script.yaml") -> str:
    """Scripted replies for: 2 refinement rounds, then one gitq run."""
    description = "A 75 kW induction motor driving a conveyor.\nConfidence: 90%"
    replies = [description, description]
    replies += [f"Interim guidance {i}." for i in range(1, gitq_steps)]
    replies.append(THREE_PART_DOC)
    return _write_yaml(tmp_path / name, {"strict": True, "replies": replies})


def _generate_args(tax_file, script, out_dir, extra=()):
    return [
        "generate",
        "--taxonomy", tax_file,
        "--kpi", "asset health",
        "--target", "asset profile",
        "--script", script,
        "--asset-class", "electric motor",
        "--out", str(out_dir),
        *extra,
    ]


# --- plan ------------------------------------------------------------------------

def test_plan_deterministic_to_file(tax_file, tmp_path, capsys):
    out = tmp_path / "plan.yaml"
    rc = main([
        "plan",
        "--taxonomy", tax_file,
        "--kpi", "asset health",
        "--target", "component quality",
        "--out", str(out),
    ])
    assert rc == 0
    assert "wrote 10-step plan" in capsys.readouterr().out
    seq = parse_sequence(out.read_text(encoding="utf-8"))
    assert len(seq.steps) == 10
    assert all(s.kind != "code" for s in seq.steps)
    assert seq.steps[-1].kind == "export"
    assert seq.goal.kpi == "asset health"


def test_plan_and_generate_keep_a_next_line_character(tax_file, tmp_path):
    """U+0085 is a line break to a YAML reader, so a plain or single-quoted
    scalar would fold it into a space."""
    kpi, asset_class = "asset\x85health", "electric\x85motor"
    plan = tmp_path / "plan.yaml"
    assert main(["plan", "--taxonomy", tax_file, "--kpi", kpi, "--out", str(plan)]) == 0
    assert parse_sequence(plan.read_text(encoding="utf-8")).goal.kpi == kpi
    args = _generate_args(tax_file, _generate_script(tmp_path), tmp_path / "out")
    args[args.index("asset health")] = kpi
    args[args.index("electric motor")] = asset_class
    assert main(args) == 0
    recipe = parse_bundle(tmp_path / "out")
    assert (recipe.kpi, recipe.asset_class) == (kpi, asset_class)


def test_plan_deterministic_to_stdout(tax_file, capsys):
    rc = main([
        "plan",
        "--taxonomy", tax_file,
        "--kpi", "asset health",
        "--target", "asset profile",
    ])
    assert rc == 0
    seq = parse_sequence(capsys.readouterr().out)
    assert len(seq.steps) == 8  # the code step resolves away: no sensors downstream
    assert all(s.kind != "code" for s in seq.steps)


def test_plan_from_plan_text(tax_file, tmp_path, capsys):
    plan_file = tmp_path / "demo-plan.txt"
    plan_file.write_text(presets.COMPONENT_HEALTH_DEMONSTRATION, encoding="utf-8")
    out = tmp_path / "plan.yaml"
    rc = main([
        "plan",
        "--taxonomy", tax_file,
        "--kpi", "asset health",
        "--target", "component quality",
        "--plan-text", str(plan_file),
        "--out", str(out),
    ])
    assert rc == 0
    assert "wrote 11-step plan" in capsys.readouterr().out
    seq = parse_sequence(out.read_text(encoding="utf-8"))
    assert len(seq.steps) == 11
    assert all(s.kind != "code" for s in seq.steps)


def test_plan_rejects_cyclic_taxonomy(tmp_path, capsys):
    bad = tmp_path / "cyclic.yaml"
    bad.write_text(
        "kpi: asset health\n"
        "edges:\n"
        "  - {parent: asset health, relation: analyzed, child: a}\n"
        "  - {parent: a, relation: impacted, child: b}\n"
        "  - {parent: b, relation: impacted, child: a}\n",
        encoding="utf-8",
    )
    rc = main(["plan", "--taxonomy", str(bad), "--kpi", "asset health"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_plan_unknown_kpi_is_input_error(tax_file, capsys):
    rc = main(["plan", "--taxonomy", tax_file, "--kpi", "fleet throughput"])
    assert rc == 2
    assert "fleet throughput" in capsys.readouterr().err


# --- generate ---------------------------------------------------------------------

def test_generate_writes_bundle(tax_file, tmp_path, capsys):
    script = _generate_script(tmp_path)
    out_dir = tmp_path / "bundle"
    rc = main(_generate_args(tax_file, script, out_dir))
    assert rc == 0
    assert "wrote 6 recipe files" in capsys.readouterr().out
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(BUNDLE_FILES)
    recipe = parse_bundle(out_dir)
    assert recipe.kpi == "asset health"
    assert recipe.asset_class == "electric motor"
    # asset-profile measurements drive the sensor list
    assert recipe.indicator.sensor_names == ("age", "operating hours", "idle hours")
    assert len(recipe.dataset.rows) == 5 * 3
    assert recipe.created_at == SYNTHETIC_TIMESTAMP
    assert recipe.seed == 0


def test_generate_scripted_reruns_are_byte_identical(tax_file, tmp_path):
    script = _generate_script(tmp_path)
    first = tmp_path / "bundle-1"
    second = tmp_path / "bundle-2"
    assert main(_generate_args(tax_file, script, first)) == 0
    assert main(_generate_args(tax_file, script, second)) == 0
    for name in BUNDLE_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_generate_record_then_replay_matches(tax_file, tmp_path):
    script = _generate_script(tmp_path)
    store = tmp_path / "exchanges.jsonl"
    recorded = tmp_path / "bundle-rec"
    replayed = tmp_path / "bundle-rep"
    assert main(_generate_args(
        tax_file, script, recorded, extra=["--record", str(store)]
    )) == 0
    rc = main([
        "generate",
        "--taxonomy", tax_file,
        "--kpi", "asset health",
        "--target", "asset profile",
        "--replay", str(store),
        "--asset-class", "electric motor",
        "--out", str(replayed),
    ])
    assert rc == 0
    for name in BUNDLE_FILES:
        assert (recorded / name).read_bytes() == (replayed / name).read_bytes()


def test_generate_with_explicit_description_skips_refinement(tax_file, tmp_path):
    replies = [f"Interim guidance {i}." for i in range(1, 8)] + [THREE_PART_DOC]
    script = _write_yaml(tmp_path / "script.yaml", {"strict": True, "replies": replies})
    out_dir = tmp_path / "bundle"
    rc = main(_generate_args(
        tax_file, script, out_dir,
        extra=["--asset-description", "A fixed description."],
    ))
    assert rc == 0
    assert (out_dir / DATASET_FILE).is_file()


def test_a_given_description_is_bound_once_and_needs_no_hook(tax_file, tmp_path, monkeypatch,
                                                              model_calls):
    from autorecipe import execution, planning

    plan = tmp_path / "plan.txt"
    plan.write_text("Step 1: Here is a detailed explanation: ${asset_description}.\n"
                    "Step 2: Export a markdown output as guidelines.\n"
                    "Execution Order: Step 1 AND Step 2\n", encoding="utf-8")
    script = _write_yaml(tmp_path / "script.yaml",
                         {"strict": True, "replies": ["Interim guidance.", THREE_PART_DOC]})
    materialized, executed = [], []
    materialize, execute = planning.materialize_sequence, execution.execute
    monkeypatch.setattr(planning, "materialize_sequence",
                        lambda *a, **kw: materialized.append(a) or materialize(*a, **kw))
    monkeypatch.setattr(execution, "execute",
                        lambda *a, **kw: executed.append(kw) or execute(*a, **kw))
    rc = main(_generate_args(tax_file, script, tmp_path / "bundle", extra=[
        "--plan-text", str(plan), "--asset-description", "a fixed description"]))
    assert rc == 0
    assert [a[1:] for a in materialized] == [("electric motor", "a fixed description")]
    assert [sorted(kw) for kw in executed] == [["registry"]]
    assert model_calls[0][1].content == "Here is a detailed explanation: a fixed description."


# The parser refuses a missing source before any file is read: no taxonomy is there.
def test_generate_requires_a_gateway(tmp_path, capsys):
    argv = ["generate", "--taxonomy", str(tmp_path / "missing.yaml"), "--kpi", "asset health",
            "--asset-class", "electric motor", "--out", str(tmp_path / "bundle")]
    assert _parse_error(argv, capsys) == (
        "autorecipe generate: error: one of the arguments --script --replay --gateway-config "
        "is required"
    )
    assert not (tmp_path / "bundle").exists()


def test_generate_refuses_an_empty_out_before_reading_any_file(tmp_path, capsys):
    argv = ["generate", "--taxonomy", str(tmp_path / "missing.yaml"), "--kpi", "asset health",
            "--asset-class", "electric motor", "--script", str(tmp_path / "missing-script.yaml"),
            "--out", ""]
    assert _parse_error(argv, capsys) == (
        "autorecipe generate: error: argument --out: must not be empty"
    )
    assert list(tmp_path.iterdir()) == []


def test_verify_refs_requires_a_gateway(tmp_path, capsys):
    argv = ["verify-refs", "--doc", str(tmp_path / "missing.md"),
            "--search-script", str(tmp_path / "search.yaml"),
            "--nli-script", str(tmp_path / "nli.yaml")]
    assert _parse_error(argv, capsys) == (
        "autorecipe verify-refs: error: one of the arguments --script --replay --gateway-config "
        "is required"
    )


def test_plan_record_without_a_source_reads_no_file(tax_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("autorecipe.taxonomy.parse_taxonomy",
                        lambda text: pytest.fail("taxonomy parsed"))
    store = tmp_path / "s.jsonl"
    for tax in (tmp_path / "missing.yaml", tax_file):
        argv = ["plan", "--taxonomy", str(tax), "--kpi", "asset health",
                "--record", str(store), "--out", str(tmp_path / "plan.yaml")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --record needs one of --script, --replay, or --gateway-config\n")
    assert not store.exists() and not (tmp_path / "plan.yaml").exists()


@pytest.mark.parametrize("flag", ["--search-script", "--nli-script"])
def test_generate_one_citation_script_alone_is_input_error(
    tax_file, tmp_path, capsys, monkeypatch, flag
):
    monkeypatch.setattr(ScriptedGateway, "complete", lambda self, s: pytest.fail("gateway call"))
    script = _generate_script(tmp_path)
    helper = _write_yaml(tmp_path / "helper.yaml", {"strict": True})
    out_dir = tmp_path / "bundle"
    rc = main(_generate_args(tax_file, script, out_dir, extra=[flag, helper]))
    assert rc == 2
    assert "both --search-script and --nli-script" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("case", ["num-assets-below-1", "out-is-a-file", "out-under-a-file"])
def test_generate_checks_its_inputs_before_any_model_call(
    tax_file, tmp_path, capsys, model_calls, case
):
    afile = tmp_path / "afile"
    afile.write_text("not a bundle\n", encoding="utf-8")
    out, extra, err = {
        "num-assets-below-1": (tmp_path / "bundle", ["--num-assets", "0"],
                               "autorecipe generate: error: argument --num-assets: "
                               "must be an integer of at least 1, got '0'"),
        "out-is-a-file": (afile, [], f"cannot write the bundle to {afile}: "),
        "out-under-a-file": (afile / "bundle", [], f"cannot write the bundle to {afile}/bundle: "),
    }[case]
    argv = _generate_args(tax_file, _generate_script(tmp_path), out, extra=extra)
    if case == "num-assets-below-1":
        assert (_parse_error(argv, capsys), len(model_calls)) == (err, 0)
    else:
        rc = main(argv)
        err = f"error: {err}{afile} is not a directory\n"
        assert (rc, capsys.readouterr().err, len(model_calls)) == (2, err, 0)
    assert afile.read_text(encoding="utf-8") == "not a bundle\n"
    assert not (tmp_path / "bundle").exists()


def _output_check_case(case, tax_file, tmp_path):
    """A command line whose store or ``--out`` file cannot be written, and its error."""
    script = _generate_script(tmp_path)
    store = tmp_path / "store.jsonl"
    missing = tmp_path / "nodir"
    if case.startswith("generate"):
        store = tmp_path if case == "generate-record-is-a-directory" else missing / "x.jsonl"
        argv = _generate_args(tax_file, script, tmp_path / "bundle", extra=["--record", str(store)])
        reason = "Is a directory" if store == tmp_path else "No such file or directory"
        return argv, f"cannot append to {store}: {reason}"
    out = tmp_path if case == "plan-out-is-a-directory" else missing / "out.md"
    if case.startswith("plan"):
        argv = ["plan", "--taxonomy", tax_file, "--kpi", "asset health", "--script", script]
    else:
        doc, script, search, nli = _reference_fixtures(tmp_path)
        argv = ["verify-refs", "--doc", str(doc), "--script", script,
                "--search-script", search, "--nli-script", nli]
    argv += ["--record", str(store), "--out", str(out)]
    reason = "it is a directory" if out == tmp_path else f"{missing} is not a directory"
    return argv, f"cannot write to {out}: {reason}"


# Each of these once made its model calls first, then failed to write.
@pytest.mark.parametrize("case", ["generate-record-is-a-directory",
                                  "generate-record-in-a-missing-directory",
                                  "plan-out-in-a-missing-directory", "plan-out-is-a-directory",
                                  "verify-refs-out-in-a-missing-directory"])
def test_outputs_are_checked_before_any_model_call(
    tax_file, tmp_path, capsys, model_calls, case
):
    argv, err = _output_check_case(case, tax_file, tmp_path)
    rc = main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.err, captured.out, len(model_calls)) == (2, f"error: {err}\n", "", 0)
    assert not (tmp_path / "bundle").exists() and not (tmp_path / "nodir").exists()


# Neither makes a model call, but each once read and processed all its input
# before it failed to write.
@pytest.mark.parametrize("command", ["score", "metrics"])
@pytest.mark.parametrize("where", ["in-a-missing-directory", "is-a-directory"])
def test_score_and_metrics_check_their_out_file_first(
    tmp_path, capsys, monkeypatch, command, where
):
    from autorecipe import metrics, recipe

    read = []
    if command == "score":
        argv = _score_argv(tmp_path, _DATASET)
        monkeypatch.setattr(recipe, "load_indicator_config", lambda *a: read.append(a))
    else:
        doc = tmp_path / "doc.md"
        doc.write_text(THREE_PART_DOC, encoding="utf-8")
        argv = ["metrics", "--doc", str(doc)]
        monkeypatch.setattr(metrics, "tokenize", lambda *a: read.append(a))
    missing = tmp_path / "nodir"
    out = tmp_path if where == "is-a-directory" else missing / "out.csv"
    reason = "it is a directory" if out == tmp_path else f"{missing} is not a directory"
    rc = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.err, captured.out, read) == (
        2, f"error: cannot write to {out}: {reason}\n", "", []
    )
    assert not missing.exists()


def test_a_run_that_fails_its_input_checks_may_leave_an_empty_store(
    tax_file, tmp_path, capsys, model_calls
):
    store = tmp_path / "store.jsonl"
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    argv = _generate_args(tax_file, _generate_script(tmp_path), afile,
                          extra=["--record", str(store)])
    assert (main(argv), len(model_calls)) == (2, 0)
    assert store.read_text(encoding="utf-8") == ""
    # Replayed, that store holds no records.
    capsys.readouterr()
    rc = main(["plan", "--taxonomy", tax_file, "--kpi", "asset health", "--replay", str(store)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: no recorded reply for session ")


@pytest.mark.parametrize("command, target", [
    ("generate", "autorecipe.recipe.generate_synthetic"),
    ("plan", "autorecipe.taxonomy.parse_taxonomy"),
])
def test_every_internal_error_says_so(tax_file, tmp_path, capsys, monkeypatch, command, target):
    # Inside a stage this once printed "error: stage dataset: 'sensor'".
    def broken(*args, **kwargs):
        raise KeyError("sensor")

    monkeypatch.setattr(target, broken)
    if command == "generate":
        argv = _generate_args(tax_file, _generate_script(tmp_path), tmp_path / "bundle")
        err = "internal error: stage dataset: 'sensor'\n"
    else:
        argv = ["plan", "--taxonomy", tax_file, "--kpi", "asset health"]
        err = "internal error: 'sensor'\n"
    assert (main(argv), capsys.readouterr().err) == (4, err)


def _parse_error(argv, capsys) -> str:
    """The last stderr line of a command line the parser refuses with exit 2."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


# A byte that is not UTF-8 reaches Python's argv as a lone surrogate.
NOT_UTF8 = b"motor\xff".decode("utf-8", "surrogateescape")


@pytest.mark.parametrize("command, flag", [
    ("generate", "--kpi"),
    ("generate", "--target"),
    ("generate", "--asset-class"),
    ("generate", "--asset-description"),
    ("plan", "--goal-text"),
    ("plan", "--method-phrase"),
])
def test_text_that_utf8_cannot_encode_is_refused_before_any_model_call(
    tax_file, tmp_path, capsys, model_calls, command, flag
):
    out = tmp_path / "out"
    script = _generate_script(tmp_path)
    if command == "generate":
        argv = _generate_args(tax_file, script, out, extra=[flag, NOT_UTF8])
    else:
        argv = ["plan", "--taxonomy", tax_file, "--kpi", "asset health", "--script", script,
                "--out", str(out), flag, NOT_UTF8]
    err = _parse_error(argv, capsys)
    assert (err, len(model_calls)) == (
        f"autorecipe {command}: error: argument {flag}: text that UTF-8 cannot encode", 0
    )
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "100.5", "150", "ten"])
def test_generate_refuses_a_confidence_threshold_no_reply_can_meet(
    tax_file, tmp_path, capsys, model_calls, threshold
):
    out = tmp_path / "bundle"
    argv = _generate_args(tax_file, _generate_script(tmp_path), out,
                          extra=[f"--confidence-threshold={threshold}"])
    err = _parse_error(argv, capsys)
    assert (err, len(model_calls)) == (
        "autorecipe generate: error: argument --confidence-threshold: "
        f"must be a finite number at most 100, got '{threshold}'", 0
    )
    assert not out.exists()


# With a description given, refinement never runs; a cap of 0 was once accepted there.
@pytest.mark.parametrize("rounds, extra", [
    ("0", []), ("-1", []), ("two", []), ("1.5", []), ("0", ["--asset-description", "a motor"]),
], ids=["zero", "negative", "a-word", "a-fraction", "zero-with-a-description"])
def test_generate_refuses_a_round_cap_below_one(
    tax_file, tmp_path, capsys, model_calls, rounds, extra
):
    out = tmp_path / "bundle"
    argv = _generate_args(tax_file, _generate_script(tmp_path), out,
                          extra=[f"--max-rounds={rounds}", *extra])
    err = _parse_error(argv, capsys)
    assert (err, len(model_calls)) == (
        f"autorecipe generate: error: argument --max-rounds: "
        f"must be an integer of at least 1, got '{rounds}'", 0
    )
    assert not out.exists()


# Each once failed after its inputs were read, naming no flag.
@pytest.mark.parametrize("command, flag, count", [
    ("generate", "--num-assets", "0"), ("generate", "--num-assets", "-2"),
    ("generate", "--num-assets", "five"), ("verify-refs", "--claims-per-part", "0"),
    ("verify-refs", "--claims-per-part", "-1"), ("verify-refs", "--claims-per-part", "1.5"),
])
def test_counts_below_one_are_refused_at_parse_time(
    tax_file, tmp_path, capsys, model_calls, command, flag, count
):
    out = tmp_path / "out"
    if command == "generate":
        argv = _generate_args(tax_file, _generate_script(tmp_path), out)
    else:
        doc, script, search, nli = _reference_fixtures(tmp_path)
        argv = ["verify-refs", "--doc", str(doc), "--script", script,
                "--search-script", search, "--nli-script", nli, "--out", str(out)]
    err = _parse_error([*argv, f"{flag}={count}"], capsys)
    assert (err, len(model_calls)) == (
        f"autorecipe {command}: error: argument {flag}: "
        f"must be an integer of at least 1, got '{count}'", 0
    )
    assert not out.exists()


def test_generate_accepts_a_negative_confidence_threshold(tax_file, tmp_path):
    out = tmp_path / "bundle"
    argv = _generate_args(tax_file, _generate_script(tmp_path), out,
                          extra=["--confidence-threshold", "-5"])
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(BUNDLE_FILES)


@pytest.mark.parametrize("flag", ["--goal-text", "--method-phrase"])
def test_generate_has_no_goal_phrasing_flags(tax_file, tmp_path, capsys, model_calls, flag):
    out = tmp_path / "bundle"
    argv = _generate_args(tax_file, _generate_script(tmp_path), out, extra=[flag, "anything"])
    err = _parse_error(argv, capsys)
    assert (err, len(model_calls)) == (
        f"autorecipe: error: unrecognized arguments: {flag} anything", 0
    )
    assert not out.exists()


@pytest.mark.parametrize("bad_line", ['{"key": "abc", "reply": "torn', '{"reply": "r"}'])
def test_generate_corrupt_replay_store_is_input_error(tax_file, tmp_path, capsys, bad_line):
    store = tmp_path / "exchanges.jsonl"
    assert main(_generate_args(
        tax_file, _generate_script(tmp_path), tmp_path / "rec", extra=["--record", str(store)]
    )) == 0
    lines = store.read_text(encoding="utf-8").splitlines()
    store.write_text("\n".join(lines[:2] + [bad_line]) + "\n", encoding="utf-8")
    rc = main([
        "generate",
        "--taxonomy", tax_file,
        "--kpi", "asset health",
        "--replay", str(store),
        "--asset-class", "electric motor",
        "--out", str(tmp_path / "rep"),
    ])
    assert rc == 2
    assert f"{store}:3: " in capsys.readouterr().err


def test_generate_exhausted_script_names_failing_stage(tax_file, tmp_path, capsys):
    description = "A fine motor.\nConfidence: 90%"
    script = _write_yaml(
        tmp_path / "short.yaml",
        {"strict": True, "replies": [description, description, "Interim 1."]},
    )
    rc = main(_generate_args(tax_file, script, tmp_path / "bundle"))
    assert rc == 3
    err = capsys.readouterr().err
    assert "stage execute" in err


def test_generate_low_confidence_refinement_is_input_error(tax_file, tmp_path, capsys):
    script = _write_yaml(
        tmp_path / "low.yaml",
        {"strict": True, "replies": ["Weak description.\nConfidence: 10%"]},
    )
    rc = main(_generate_args(tax_file, script, tmp_path / "bundle"))
    assert rc == 2
    assert "stage refine" in capsys.readouterr().err


# --- score -------------------------------------------------------------------------

def _scored_bundle(tax_file, tmp_path):
    script = _generate_script(tmp_path)
    out_dir = tmp_path / "bundle"
    assert main(_generate_args(tax_file, script, out_dir)) == 0
    return out_dir


def test_score_outputs_csv(tax_file, tmp_path, capsys):
    out_dir = _scored_bundle(tax_file, tmp_path)
    capsys.readouterr()
    rc = main([
        "score",
        "--indicator-config", str(out_dir / INDICATOR_CONFIG_FILE),
        "--aggregation-config", str(out_dir / AGGREGATION_CONFIG_FILE),
        "--dataset", str(out_dir / DATASET_FILE),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "asset_id,score"
    assert len(lines) == 6
    for line in lines[1:]:
        asset_id, score = line.split(",")
        assert asset_id.startswith("asset-")
        assert 0.0 <= float(score) <= 100.0


def test_score_equal_weights_match_uniform_pairwise(tax_file, tmp_path):
    out_dir = _scored_bundle(tax_file, tmp_path)
    from autorecipe.recipe import default_aggregation_config, load_indicator_config

    indicator = load_indicator_config(out_dir / INDICATOR_CONFIG_FILE)
    names = list(indicator.sensor_names)
    ahp_file = _write_yaml(tmp_path / "ahp.yaml", {
        "method": "ahp",
        "category_scores": default_aggregation_config(names).category_scores,
        "sensors": names,
        "pairwise": [[1.0] * len(names) for _ in names],
    })
    flat_out = tmp_path / "flat.csv"
    ahp_out = tmp_path / "ahp.csv"
    assert main([
        "score",
        "--indicator-config", str(out_dir / INDICATOR_CONFIG_FILE),
        "--aggregation-config", str(out_dir / AGGREGATION_CONFIG_FILE),
        "--dataset", str(out_dir / DATASET_FILE),
        "--out", str(flat_out),
    ]) == 0
    assert main([
        "score",
        "--indicator-config", str(out_dir / INDICATOR_CONFIG_FILE),
        "--aggregation-config", ahp_file,
        "--dataset", str(out_dir / DATASET_FILE),
        "--out", str(ahp_out),
    ]) == 0
    assert flat_out.read_bytes() == ahp_out.read_bytes()


def test_score_missing_file_is_input_error(tmp_path, capsys):
    rc = main([
        "score",
        "--indicator-config", str(tmp_path / "absent.yaml"),
        "--aggregation-config", str(tmp_path / "absent2.yaml"),
        "--dataset", str(tmp_path / "absent.csv"),
    ])
    assert rc == 2


def test_score_builds_no_sample_dataset(tax_file, tmp_path, capsys, monkeypatch):
    out_dir = _scored_bundle(tax_file, tmp_path)
    built = []
    init = SampleDataset.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SampleDataset, "__init__", counted)
    capsys.readouterr()
    rc = main(_score_args(out_dir / INDICATOR_CONFIG_FILE,
                          out_dir / AGGREGATION_CONFIG_FILE, out_dir / DATASET_FILE))
    assert (rc, capsys.readouterr().err) == (0, "")
    assert built == []
    # The probe counts: the dataset route holds the whole dataset.
    dataset_from_csv((out_dir / DATASET_FILE).read_text(encoding="utf-8"))
    assert len(built) == 1


def _score_argv(tmp_path, dataset) -> list[str]:
    """score's arguments for two sensors, weighted, and ``dataset`` (text or bytes)."""
    paths = {}
    for name, content in {**_SCORE_FILES, "aggregation": _WEIGHTED, "dataset": dataset}.items():
        paths[name] = tmp_path / f"{name}.input"
        paths[name].write_bytes(content if isinstance(content, bytes) else content.encode())
    return [arg.format(**paths) for arg in _SCORE]


def test_score_reads_a_dataset_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # Spreadsheet "CSV UTF-8" exports start with U+FEFF, which is invisible on
    # screen; it used to make the header mismatch and exit 2.
    assert main(_score_argv(tmp_path, "\ufeff" + _DATASET)) == 0
    assert capsys.readouterr().out == "asset_id,score\na1,40.000000\n"


def test_score_reads_a_byte_order_mark_before_a_quoted_first_field(tmp_path, capsys):
    # The mark once reached the CSV reader, which then read the opening quote
    # as a literal character and rejected the header (exit 2).
    quoted = '\ufeff"asset_id","sensor_name",value,timestamp,unit\n' + _DATASET.split("\n", 1)[1]
    assert main(_score_argv(tmp_path, quoted)) == 0
    assert capsys.readouterr().out == "asset_id,score\na1,40.000000\n"


def test_score_reports_a_stamp_outside_the_utc_years_as_a_bad_row(tmp_path, capsys):
    # Midnight of 1 January 0001 at +01:00 falls in year 0 in UTC; it once
    # exited 4 with "internal error: date value out of range".
    dataset = _DATASET.replace("2024-01-01T00:00:00Z", "0001-01-01T00:00:00+01:00", 1)
    assert main(_score_argv(tmp_path, dataset)) == 2
    assert capsys.readouterr().err == (
        "error: validation failed:\n- row 1: bad timestamp: timestamp "
        "'0001-01-01T00:00:00+01:00' falls outside years 1-9999 in UTC\n"
        "- asset 'a1' has no reading for sensor 'a'\n"
    )


def test_score_reads_its_inputs_from_fifos(tmp_path, capsys):
    """A named pipe, as ``/dev/stdin`` or ``<(cat file)`` give, cannot be read
    twice or told its position, and is read all the same."""
    contents = {**_SCORE_FILES, "aggregation": _WEIGHTED, "dataset": _DATASET}
    paths = {name: tmp_path / f"{name}.fifo" for name in contents}

    def feed(name):
        with open(paths[name], "w", encoding="utf-8") as out:
            out.write(contents[name])

    writers = []
    for name in contents:
        os.mkfifo(paths[name])
        writers.append(threading.Thread(target=feed, args=(name,), daemon=True))
        writers[-1].start()
    try:
        rc = main([arg.format(**paths) for arg in _SCORE])
    finally:
        for writer in writers:
            writer.join(timeout=10)
    assert (rc, capsys.readouterr().out) == (0, "asset_id,score\na1,40.000000\n")


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_score_reads_any_line_ending_as_a_newline(tmp_path, capsys, ending):
    assert main(_score_argv(tmp_path, _DATASET)) == 0
    expected = capsys.readouterr().out
    assert main(_score_argv(tmp_path, _DATASET.replace("\n", ending))) == 0
    assert capsys.readouterr().out == expected


def test_score_reports_text_that_is_not_utf8_past_an_early_bad_row(tmp_path, capsys):
    # score streams the file, yet the whole file is checked for UTF-8 first.
    dataset = (_DATASET + "a1,a,high\n" + "a1,a,1,x,percent\n" * 5000).encode() + b"caf\xe9\n"
    assert main(_score_argv(tmp_path, dataset)) == 2
    path = tmp_path / "dataset.input"
    assert capsys.readouterr().err == f"error: unreadable {path}: not UTF-8 text\n"


# --- metrics -----------------------------------------------------------------------

def test_metrics_identical_documents(tmp_path, capsys):
    doc_a = tmp_path / "a.md"
    doc_b = tmp_path / "b.md"
    doc_a.write_text(THREE_PART_DOC, encoding="utf-8")
    doc_b.write_text(THREE_PART_DOC, encoding="utf-8")
    rc = main(["metrics", "--doc", str(doc_a), "--doc", str(doc_b)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "doc,tokens,unique,ttr,coverage_vs_first,similarity_vs_first"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "100.00"
        assert float(fields[5]) == pytest.approx(1.0)


def test_metrics_weighted_flag(tmp_path, capsys):
    base = tmp_path / "base.md"
    other = tmp_path / "other.md"
    base.write_text("alpha alpha alpha beta\n", encoding="utf-8")
    other.write_text("alpha\n", encoding="utf-8")
    rc = main(["metrics", "--doc", str(base), "--doc", str(other), "--weighted"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2].split(",")[4] == "75.00"


def test_metrics_names_the_document_without_tokens_and_writes_nothing(tmp_path, capsys):
    doc, empty, out = tmp_path / "a.md", tmp_path / "e.md", tmp_path / "metrics.csv"
    doc.write_text("Motors wear.\n", encoding="utf-8")
    empty.write_text("--- * ---\n", encoding="utf-8")
    rc = main(["metrics", "--doc", str(doc), "--doc", str(empty), "--out", str(out)])
    assert (rc, capsys.readouterr()) == (
        2, ("", f"error: {empty} has no tokens: cannot compute its type-token ratio\n")
    )
    assert not out.exists()


def test_metrics_refuses_a_doc_path_that_utf8_cannot_encode(tmp_path, capsys, monkeypatch):
    # The path goes into the table, so it is refused before any document is read.
    doc, out = tmp_path / f"{NOT_UTF8}.md", tmp_path / "metrics.csv"
    doc.write_text(THREE_PART_DOC, encoding="utf-8")
    monkeypatch.setattr(cli, "_read_text", lambda path: pytest.fail("document read"))
    err = _parse_error(["metrics", "--doc", str(doc), "--out", str(out)], capsys)
    assert err == "autorecipe metrics: error: argument --doc: text that UTF-8 cannot encode"
    assert not out.exists()


def test_a_failed_write_leaves_the_old_out_file_whole(tmp_path, capsys, monkeypatch):
    doc, out = tmp_path / "doc.md", tmp_path / "metrics.csv"
    doc.write_text(THREE_PART_DOC, encoding="utf-8")
    out.write_text("old table\n", encoding="utf-8")
    # Text that UTF-8 cannot encode fails before the file is touched.
    with pytest.raises(UnicodeEncodeError):
        cli._write_out(str(out), "doc\udcff.md\n", "metrics table")

    def refuse(source, target):
        raise OSError("disk full")

    # A swap that fails takes its temporary file with it.
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", refuse)
        rc = main(["metrics", "--doc", str(doc), "--out", str(out)])
    assert (rc, capsys.readouterr()) == (2, ("", "error: disk full\n"))
    assert out.read_text(encoding="utf-8") == "old table\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.md", "metrics.csv"]
    # A write that succeeds replaces the file and leaves nothing beside it.
    assert main(["metrics", "--doc", str(doc), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("doc,tokens,")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.md", "metrics.csv"]


def _metrics_to(tmp_path, out) -> None:
    """Runs ``metrics`` into ``out``, then again to stdout for comparison."""
    doc = tmp_path / "doc.md"
    doc.write_text(THREE_PART_DOC, encoding="utf-8")
    assert main(["metrics", "--doc", str(doc), "--out", str(out)]) == 0
    assert main(["metrics", "--doc", str(doc)]) == 0


def test_out_keeps_the_mode_of_the_file_it_replaces(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    out.write_text("old table\n", encoding="utf-8")
    out.chmod(0o600)
    _metrics_to(tmp_path, out)
    table = capsys.readouterr().out.split("\n", 1)[1]
    assert out.read_text(encoding="utf-8") == table
    assert out.stat().st_mode & 0o777 == 0o600


def test_out_writes_through_a_symlink(tmp_path, capsys):
    target, out = tmp_path / "kept.csv", tmp_path / "link.csv"
    target.write_text("old table\n", encoding="utf-8")
    out.symlink_to(target)
    _metrics_to(tmp_path, out)
    table = capsys.readouterr().out.split("\n", 1)[1]
    assert out.is_symlink() and out.resolve() == target
    assert target.read_text(encoding="utf-8") == table


def test_out_writes_through_a_fifo(tmp_path, capsys):
    out = tmp_path / "pipe"
    os.mkfifo(out)
    # A reader opened without blocking lets the write open at once; the
    # table fits in the pipe's buffer.
    reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
    try:
        _metrics_to(tmp_path, out)
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    table = capsys.readouterr().out.split("\n", 1)[1]
    assert written.decode("utf-8") == table
    assert stat.S_ISFIFO(os.lstat(out).st_mode)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.md", "pipe"]


def test_an_out_file_in_a_directory_without_write_access_is_refused_first(
    tax_file, tmp_path, capsys, model_calls, monkeypatch
):
    locked = tmp_path / "locked"
    locked.mkdir()
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: Path(p) != locked and access(p, mode))
    out = locked / "plan.yaml"
    script = _write_yaml(tmp_path / "s.yaml", {"strict": True, "replies": ["unused"]})
    rc = main(["plan", "--taxonomy", tax_file, "--kpi", "asset health", "--script", script,
               "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.err, captured.out, len(model_calls)) == (
        2, f"error: cannot write to {out}: permission denied\n", "", 0
    )
    assert list(locked.iterdir()) == []


# --- verify-refs --------------------------------------------------------------------

def _reference_fixtures(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(THREE_PART_DOC, encoding="utf-8")
    claims = [
        "Motors convert electrical energy.",
        "Health scores summarize condition.",
        "Accelerometers measure vibration.",
    ]
    script = _write_yaml(tmp_path / "claims.yaml", {
        "strict": True,
        "replies": [f"1. {c}" for c in claims],
    })
    search = _write_yaml(tmp_path / "search.yaml", {
        "strict": True,
        "queries": {
            c: [{"url": f"https://ref{i}.example", "text": f"supporting paragraph {i}."}]
            for i, c in enumerate(claims, start=1)
        },
    })
    nli = _write_yaml(tmp_path / "nli.yaml", {
        "strict": False,
        "pairs": [
            {"premise": f"supporting paragraph {i}.", "hypothesis": c, "entailed": True}
            for i, c in enumerate(claims, start=1)
        ],
    })
    return doc, script, search, nli


def test_verify_refs_prints_counts(tmp_path, capsys):
    doc, script, search, nli = _reference_fixtures(tmp_path)
    out = tmp_path / "cited.md"
    rc = main([
        "verify-refs",
        "--doc", str(doc),
        "--script", script,
        "--search-script", search,
        "--nli-script", nli,
        "--claims-per-part", "1",
        "--out", str(out),
    ])
    assert rc == 0
    output = capsys.readouterr().out
    assert "claims per part: (1, 1, 1)" in output
    assert "urls identified per part: (1, 1, 1)" in output
    assert "urls validated per part: (1, 1, 1)" in output
    assert output.endswith(f"\nwrote cited document to {out}\n")
    cited = out.read_text(encoding="utf-8")
    assert "References:\n1. https://ref1.example" in cited


# pytest records a warning raised in its own process, so the line the CLI
# prints shows only in a process of its own.
def test_a_warning_prints_as_one_line_without_a_source_path(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("plain prose with no headings\n", encoding="utf-8")
    script = _write_yaml(tmp_path / "claims.yaml",
                         {"strict": True, "replies": ["1. Plain prose is short."]})
    search = _write_yaml(tmp_path / "search.yaml", {"strict": False, "queries": {}})
    nli = _write_yaml(tmp_path / "nli.yaml", {"pairs": []})
    src = str(Path(autorecipe.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "autorecipe.cli", "verify-refs", "--doc", str(doc),
         "--script", script, "--search-script", search, "--nli-script", nli],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, (
        "warning: no part headings found; treating text as one part\n"
        "warning: passage 1: requested 3 claims but parsed 1\n"
    ))


def test_verify_refs_search_miss_is_gateway_error(tmp_path, capsys):
    doc, script, _search, nli = _reference_fixtures(tmp_path)
    empty_search = _write_yaml(tmp_path / "empty-search.yaml", {"strict": True, "queries": {}})
    rc = main([
        "verify-refs",
        "--doc", str(doc),
        "--script", script,
        "--search-script", empty_search,
        "--nli-script", nli,
        "--claims-per-part", "1",
    ])
    assert rc == 3
    assert "no scripted results" in capsys.readouterr().err


# --- malformed inputs ----------------------------------------------------------------

DEEP = "[" * 3000 + "]" * 3000 + "\n"


def _score_args(indicator, aggregation, dataset):
    return ["score", "--indicator-config", str(indicator),
            "--aggregation-config", str(aggregation), "--dataset", str(dataset)]


def _deep_site_args(site, tmp_path, tax_file, text=DEEP):
    """A command line whose input for ``site`` is ``text``, by default a flow
    sequence nested 3000 deep."""
    deep = tmp_path / "deep.yaml"
    deep.write_text(text, encoding="utf-8")
    if site in ("indicator", "aggregation"):
        out_dir = _scored_bundle(tax_file, tmp_path)
        indicator = deep if site == "indicator" else out_dir / INDICATOR_CONFIG_FILE
        aggregation = deep if site == "aggregation" else out_dir / AGGREGATION_CONFIG_FILE
        return _score_args(indicator, aggregation, out_dir / DATASET_FILE)
    if site == "script":
        return _generate_args(tax_file, str(deep), tmp_path / "bundle")
    if site == "gateway-config":
        return ["plan", "--taxonomy", tax_file, "--kpi", "asset health",
                "--gateway-config", str(deep)]
    doc, script, search, nli = _reference_fixtures(tmp_path)
    return ["verify-refs", "--doc", str(doc), "--script", script,
            "--search-script", str(deep) if site == "search-script" else search,
            "--nli-script", str(deep) if site == "nli-script" else nli]


@pytest.mark.parametrize("site", ["indicator", "aggregation", "script", "search-script",
                                  "nli-script", "gateway-config"])
def test_deeply_nested_yaml_is_an_input_error(site, tax_file, tmp_path, capsys):
    argv = _deep_site_args(site, tmp_path, tax_file)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{tmp_path / 'deep.yaml'}: nested too deeply" in err


@pytest.mark.parametrize("site", ["indicator", "aggregation", "script", "search-script",
                                  "nli-script", "gateway-config"])
def test_bad_tagged_yaml_value_is_an_input_error(site, tax_file, tmp_path, capsys):
    argv = _deep_site_args(site, tmp_path, tax_file, text="strict: !!bool maybe\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"unreadable {tmp_path / 'deep.yaml'}: bad tagged value" in err


@pytest.mark.parametrize("site", ["indicator", "aggregation", "script", "search-script",
                                  "nli-script", "gateway-config"])
def test_unreadable_yaml_file_is_an_input_error(site, tax_file, tmp_path, capsys):
    path = tmp_path / "deep.yaml"
    argv = _deep_site_args(site, tmp_path, tax_file, text="strict: [true\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    # The marks name the file, since it is read as a stream.
    assert err.startswith(f'error: unreadable {path}: while parsing a flow sequence\n'
                          f'  in "{path}", line 1, column 9\n')
    path.write_bytes("strict: caf\u00e9\n".encode("latin-1"))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: unreadable {path}: not UTF-8 text\n"


@pytest.mark.parametrize("site, what", [
    ("script", "script"), ("search-script", "search script"), ("nli-script", "NLI script"),
])
def test_script_that_is_not_a_mapping_is_an_input_error(site, what, tax_file, tmp_path, capsys):
    argv = _deep_site_args(site, tmp_path, tax_file, text="- first reply\n- second reply\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{tmp_path / 'deep.yaml'}: {what} must be a mapping" in err


@pytest.mark.parametrize("site, text, message", [
    ("search-script", "queries: [a, b]\n", "queries must be a mapping, got ['a', 'b']"),
    ("search-script", "queries:\n  q: https://a.example\n",
     "queries.q must be a list, got 'https://a.example'"),
    ("search-script", "queries:\n  q: [https://a.example]\n",
     "queries.q.1 must be a mapping, got 'https://a.example'"),
    ("search-script", "queries:\n  q:\n    - {url: https://a.example}\n    - {text: t}\n",
     "queries.q.2.url must be a string, got None"),
    ("search-script", "queries:\n  q:\n    - {url: 7}\n",
     "queries.q.1.url must be a string, got 7"),
    ("search-script", "queries:\n  q:\n    - {url: https://a.example, text: [t]}\n",
     "queries.q.1.text must be a string, got ['t']"),
    ("nli-script", "pairs: 5\n", "pairs must be a list, got 5"),
    ("nli-script", "pairs: [just text]\n", "pairs.1 must be a mapping, got 'just text'"),
    ("nli-script", "pairs:\n  - {premise: p, hypothesis: h}\n  - {premise: p}\n",
     "pairs.2.hypothesis must be a string, got None"),
    ("nli-script", "pairs:\n  - {premise: 1, hypothesis: h}\n",
     "pairs.1.premise must be a string, got 1"),
    ("script", "replies: abc\n", "replies must be a list, got 'abc'"),
    ("script", "replies: [first, 2]\n", "replies.2 must be a string, got 2"),
    ("script", "by_key: [a, b]\n", "by_key must be a mapping, got ['a', 'b']"),
    ("script", "default: 5\n", "default must be a string, got 5"),
    ("nli-script", "pairs:\n  - {premise: p, hypothesis: h, entailed: 'false'}\n",
     "pairs.1.entailed must be true or false, got 'false'"),
    ("nli-script", "strict: 'false'\npairs: []\n", "strict must be true or false, got 'false'"),
    ("nli-script", "pairs:\n  - {premise: p, hypothesis: h, entailment: true}\n",
     "pairs.1 key must be one of premise, hypothesis, entailed, got 'entailment'"),
    ("search-script", "strict: 'false'\nqueries: {}\n",
     "strict must be true or false, got 'false'"),
    ("script", "strict: 'false'\nreplies: [a]\n", "strict must be true or false, got 'false'"),
    ("script", "by_key: {5: r}\n", "by_key key must be a string, got 5"),
    ("script", "by_key: {k: 5}\n", "by_key.k must be a string, got 5"),
    ("search-script", "queries: {5: []}\n", "queries key must be a string, got 5"),
    ("search-script", "queries: {q: [{url: u, error: 5}]}\n",
     "queries.q.1.error must be a string, got 5"),
    ("nli-script", "pairs: [{premise: p, hypothesis: 5}]\n",
     "pairs.1.hypothesis must be a string, got 5"),
], ids=["queries-list", "hits-scalar", "hit-scalar", "hit-without-url", "url-not-text",
        "text-list", "pairs-scalar", "pair-scalar", "pair-without-hypothesis",
        "premise-not-text", "replies-text", "reply-not-text", "by-key-list", "default-not-text",
        "entailed-text", "nli-strict-text", "nli-pair-unknown-key",
        "search-strict-text", "script-strict-text", "by-key-int-key", "by-key-int-reply",
        "query-not-text", "error-not-text", "hypothesis-not-text"])
def test_malformed_script_entries_are_input_errors(site, text, message, tax_file, tmp_path,
                                                   capsys):
    argv = _deep_site_args(site, tmp_path, tax_file, text=text)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: validation failed:\n- {tmp_path / 'deep.yaml'}: {message}\n"


def test_plan_text_with_deeply_nested_order_is_an_input_error(tax_file, tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    depth = 100_000
    plan.write_text(
        "Step 1: Ask.\nStep 2: Ask again.\nExecution Order: "
        + "(" * depth + "Step 1 AND Step 2" + ")" * depth + " Goal completed!\n",
        encoding="utf-8",
    )
    rc = main(["plan", "--taxonomy", tax_file, "--kpi", "asset health",
               "--plan-text", str(plan)])
    assert rc == 2
    assert "execution order nests parentheses more than 100 deep" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("method: weighted\nweights: [0.5, 0.5]\n", "weights must be a mapping, got [0.5, 0.5]"),
    ("method: weighted\ncategory_scores: [0.25, 0.5]\n",
     "category_scores must be a mapping, got [0.25, 0.5]"),
    ("method: ahp\nsensors: 5\npairwise: [[1.0]]\n", "sensors must be a list, got 5"),
    ("method: ahp\nsensors: [[a]]\npairwise: [[1.0]]\n", "sensors.1 must be a string, got ['a']"),
    ("method: 5\n", "method must be a string, got 5"),
    ("category_scores: {5: 0.1}\n", "category_scores key must be a string, got 5"),
    ("category_scores: {poor: high}\n", "category_scores.poor must be a number, got 'high'"),
    ("weights: {5: 0.5}\n", "weights key must be a string, got 5"),
], ids=["list-weights", "list-category-scores", "ahp-scalar-sensors", "ahp-nested-sensors",
        "method-not-text", "int-category", "text-category-score", "int-weight-name"])
def test_score_malformed_aggregation_config_is_an_input_error(tax_file, tmp_path, capsys,
                                                              text, message):
    argv = _deep_site_args("aggregation", tmp_path, tax_file, text=text)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: validation failed:\n- {tmp_path / 'deep.yaml'}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("modle: m\nendpoint: https://e\n",
     "gateway config key must be one of endpoint, model, timeout_seconds, max_retries, "
     "temperature, max_tokens, max_parallel, backoff_seconds, got 'modle'"),
    ("- endpoint: https://e\n",
     "gateway config must be a mapping, got [{'endpoint': 'https://e'}]"),
    ("endpoint: https://e\ntimeout_seconds: fast\n", "timeout_seconds must be a number, got 'fast'"),
    ("endpoint: file:///etc/hostname\n", "endpoint must be an http(s) URL"),
], ids=["unknown-key", "list", "wrong-type", "file-endpoint"])
def test_gateway_config_with_unknown_keys_is_an_input_error(tax_file, tmp_path, capsys,
                                                            text, message):
    config = tmp_path / "gw.yaml"
    config.write_text(text, encoding="utf-8")
    rc = main(["plan", "--taxonomy", tax_file, "--kpi", "asset health",
               "--gateway-config", str(config)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("sensors, message", [
    ([{"unit": "percent"}], "sensors.1.name must be a string, got None"),
    ([{"name": "vibration", "unit": "percent", "ranges": [[0, 25], [25, 50]]}],
     "sensors.1.ranges must be a mapping, got [[0, 25], [25, 50]]"),
    (5, "sensors must be a list, got 5"),
    ([{"name": [1], "unit": "percent"}], "sensors.1.name must be a string, got [1]"),
    ([{"name": "a", "unit": "u", "ranges": {5: {"min": 0, "max": 1}}}],
     "sensors.1.ranges key must be a string, got 5"),
    ([{"name": "a", "unit": "u", "ranges": {"poor": {"min": 0, "max": "x"}}}],
     "sensors.1.ranges.poor.max must be a number, got 'x'"),
], ids=["no-name", "list-ranges", "scalar-sensors", "list-name", "int-category", "text-max"])
def test_score_malformed_indicator_config_is_an_input_error(tmp_path, capsys, sensors, message):
    indicator = _write_yaml(tmp_path / "indicator.yaml", {"sensors": sensors})
    aggregation = _write_yaml(tmp_path / "aggregation.yaml", {"method": "weighted"})
    dataset = tmp_path / "data.csv"
    dataset.write_text("asset_id,sensor_name,value,timestamp,unit\n", encoding="utf-8")
    assert main(_score_args(indicator, aggregation, dataset)) == 2
    assert capsys.readouterr().err == f"error: validation failed:\n- {indicator}: {message}\n"


@pytest.mark.parametrize("row, message", [
    ("asset-001,vibration,12.5,2024-01-01T00:00:00Z", "dataset line 3: expected 5 fields, got 4"),
    ("asset-001,vibration,high,2024-01-01T00:00:00Z,percent",
     "dataset line 3: value 'high' is not a number"),
], ids=["four-fields", "non-numeric"])
def test_score_bad_dataset_row_names_its_line(tax_file, tmp_path, capsys, row, message):
    out_dir = _scored_bundle(tax_file, tmp_path)
    dataset = out_dir / DATASET_FILE
    lines = dataset.read_text(encoding="utf-8").splitlines()
    dataset.write_text("\n".join([*lines[:2], row, *lines[2:]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(_score_args(out_dir / INDICATOR_CONFIG_FILE,
                          out_dir / AGGREGATION_CONFIG_FILE, dataset))
    assert rc == 2
    assert message in capsys.readouterr().err


# --- parser ----------------------------------------------------------------------------

def test_parser_help_lists_subcommands():
    text = build_parser().format_help()
    for name in ("plan", "generate", "score", "metrics", "verify-refs"):
        assert name in text


def test_parser_generate_defaults():
    args = build_parser().parse_args([
        "generate",
        "--taxonomy", "t.yaml",
        "--kpi", "asset health",
        "--asset-class", "motor",
        "--script", "s.yaml",
        "--out", "bundle",
    ])
    assert args.strategy == "gitq"
    assert args.max_rounds == 10
    assert args.confidence_threshold == 50.0
    assert args.seed == 0
    assert args.num_assets == 5


def test_parser_gateway_sources_are_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args([
            "plan",
            "--taxonomy", "t.yaml",
            "--kpi", "asset health",
            "--script", "a.yaml",
            "--replay", "b.jsonl",
        ])


# --- what each failure prints ------------------------------------------------------------

_PLAN = ["plan", "--taxonomy", "{tax}", "--kpi", "asset health"]
_GENERATE = ["generate", "--taxonomy", "{tax}", "--kpi", "asset health",
             "--asset-class", "electric motor", "--script", "{script}", "--out", "{out}"]
_REACT = [*_GENERATE, "--strategy", "allqreact", "--asset-description", "A motor."]
_VERIFY = ["verify-refs", "--doc", "{doc}", "--script", "{script}",
           "--search-script", "{search}", "--nli-script", "{nli}"]
_SCORE = ["score", "--indicator-config", "{indicator}", "--aggregation-config", "{aggregation}",
          "--dataset", "{dataset}"]
_RANGES = ("{poor: {min: 0, max: 25}, medium: {min: 25, max: 50}, "
           "good: {min: 50, max: 75}, excellent: {min: 75, max: 100}}")
_SCORE_FILES = {
    "indicator": f"sensors:\n  - {{name: a, unit: percent, ranges: {_RANGES}}}\n"
                 f"  - {{name: b, unit: percent, ranges: {_RANGES}}}\n",
    "dataset": "asset_id,sensor_name,value,timestamp,unit\n",
}
_AHP = ("method: ahp\ncategory_scores: {poor: 0.1, medium: 0.4, good: 0.7, excellent: 1.0}\n"
        "sensors: [a, b]\npairwise: ")
_WEIGHTED = ("method: weighted\n"
             "category_scores: {poor: 0.1, medium: 0.4, good: 0.7, excellent: 1.0}\n"
             "weights: {a: 0.5, b: 0.5}\n")
_DATASET = ("asset_id,sensor_name,value,timestamp,unit\n"
            "a1,a,10,2024-01-01T00:00:00Z,percent\na1,b,60,2024-01-01T00:00:00Z,percent\n")
_LATIN_1 = "kpi: caf\u00e9\n".encode("latin-1")
# Nothing listens on port 9 (discard) of the loopback address.
_GATEWAY = "endpoint: http://127.0.0.1:9/v1\n"
_GATEWAY_PLAN = [*_PLAN, "--gateway-config", "{gateway}"]
_CODE_PLAN = ("Step 1: Write a python function for the zebra stripes.\n"
              "Step 2: Export a markdown output as guidelines.\n"
              "Execution Order: Step 1 AND Step 2\n")


def _replies(*replies) -> str:
    return yaml.safe_dump({"strict": True, "replies": list(replies)})


@pytest.mark.parametrize("files, argv, code, err", [
    ({"tax": ""}, _PLAN, 2, "error: taxonomy document is empty"),
    ({"tax": "kpi: asset health\nedges: {parent: asset health}\n"}, _PLAN, 2,
     "error: validation failed:\n"
     "- taxonomy document: edges must be a list, got {'parent': 'asset health'}"),
    ({"tax": "kpi: asset health\nedges:\n  - {parent: asset health, relation: analyzed}\n"},
     _PLAN, 2, "error: edge 1 has no child"),
    ({"tax": "kpi: 5\n"}, _PLAN, 2,
     "error: validation failed:\n- taxonomy document: kpi must be a string, got 5"),
    ({"tax": "kpi: a\nedges: [5]\n"}, _PLAN, 2,
     "error: validation failed:\n- taxonomy document: edges.1 must be a mapping, got 5"),
    ({"tax": "kpi: a\nedges: [{parent: 5, relation: has, child: b}]\n"}, _PLAN, 2,
     "error: validation failed:\n- taxonomy document: edges.1.parent must be a string, got 5"),
    ({"tax": "kpi: a\nedges: [{parent: a, relation: 5, child: b}]\n"}, _PLAN, 2,
     "error: validation failed:\n- taxonomy document: edges.1.relation must be a string, got 5"),
    ({}, [*_PLAN, "--target", "gearbox"], 2,
     "error: target node 'gearbox' is not in the asset health taxonomy"),
    ({"plan": "Execution Order: Step 1\n"}, [*_PLAN, "--plan-text", "{plan}"], 2,
     "error: model output declares no steps"),
    ({"plan": "Step 1: Ask.\n"}, [*_PLAN, "--plan-text", "{plan}"], 2,
     "error: model output declares no execution order"),
    ({"plan": "Step 1: Ask.\nExecution Order: (Step 1\n"}, [*_PLAN, "--plan-text", "{plan}"], 2,
     "error: unbalanced parenthesis in execution order"),
    ({"plan": "Step 1: Ask.\nStep 3: Ask.\nExecution Order: Step 1 AND Step 3\n"},
     [*_PLAN, "--plan-text", "{plan}"], 2, "error: step indices are not contiguous from 1: [1, 3]"),
    ({"plan": "Step 1: Ask.\nStep 1: Ask.\nExecution Order: Step 1\n"},
     [*_PLAN, "--plan-text", "{plan}"], 2, "error: step 1 is declared twice"),
    ({"plan": "Step 1: Ask.\nExecution Order: Step 1 AND Step 2\n"},
     [*_PLAN, "--plan-text", "{plan}"], 2, "error: execution order references undeclared step 2"),
    ({"plan": "Step 1: Ask.\nStep 2: Ask.\nExecution Order: Step 1\n"},
     [*_PLAN, "--plan-text", "{plan}"], 2, "error: execution order never references step 2"),
    ({"plan": _CODE_PLAN}, [*_PLAN, "--plan-text", "{plan}"], 2,
     "error: code step names no taxonomy node: 'Write a python function for the zebra stripes.'"),
    ({"plan": "Step 1: Write a python function for the asset age.\nExecution Order: Step 1\n"},
     [*_PLAN, "--plan-text", "{plan}"], 2, "error: resolving code steps left an empty plan"),
    ({"script": _replies("Thought: nothing to add.")}, _REACT, 2,
     "error: stage execute: reply has no Final Answer marker"),
    ({"script": _replies("Final Answer:   ")}, _REACT, 2,
     "error: stage execute: Final Answer marker carries no text"),
    ({"script": _replies(), "plan": "Step 1: Export a markdown output as guidelines.\n"
                                    "Execution Order: Step 1\n"},
     [*_REACT, "--plan-text", "{plan}"], 2,
     "error: stage execute: the reasoning scaffold needs at least two steps"),
    ({"script": _replies(" \n\t")}, [*_GENERATE, "--strategy", "lastq",
                                     "--asset-description", "A motor."], 2,
     "error: stage execute: gateway returned an empty reply for step(s) (9,)"),
    ({"script": _replies("A motor.\nConfidence: 150%")}, _GENERATE, 2,
     "error: stage refine: confidence 150.0% is outside [0, 100]"),
    ({"script": _replies()}, [*_PLAN, "--script", "{script}"], 3,
     "error: no scripted reply for session e7f35ccce675 ('Goal: Analyze the asset health')"),
    ({"store": ""}, [*_PLAN, "--replay", "{store}"], 3,
     "error: no recorded reply for session e7f35ccce675 ('Goal: Analyze the asset health')"),
    ({**_SCORE_FILES, "aggregation": _AHP + "[[1, 2], [2, 1]]\n"}, _SCORE, 2,
     "error: validation failed:\n- matrix is not reciprocal: a[i,j]*a[j,i] deviates from 1 "
     "beyond tolerance"),
    ({**_SCORE_FILES, "aggregation": _AHP + "[[1, -1], [-1, 1]]\n"}, _SCORE, 2,
     "error: validation failed:\n- pairwise matrix entries must be positive"),
    # NaN fails every comparison, so these once scored "nan" and exited 0.
    ({**_SCORE_FILES, "aggregation": _WEIGHTED.replace("a: 0.5", "a: .nan"),
      "dataset": _DATASET}, _SCORE, 2, "error: validation failed:\n- weights must be finite"),
    ({**_SCORE_FILES, "aggregation": _AHP + "[[1, .nan], [.nan, 1]]\n", "dataset": _DATASET},
     _SCORE, 2, "error: validation failed:\n- pairwise matrix entries must be finite"),
    ({**_SCORE_FILES, "aggregation": _AHP + "[[1, 2], [0.5]]\n", "dataset": _DATASET}, _SCORE, 2,
     "error: validation failed:\n- pairwise matrix must be square"),
    # The configs are checked before the dataset is read.
    ({**_SCORE_FILES, "aggregation": _AHP + "[[1, 2], [2, 1]]\n", "dataset": ""}, _SCORE, 2,
     "error: validation failed:\n- matrix is not reciprocal: a[i,j]*a[j,i] deviates from 1 "
     "beyond tolerance"),
    ({"doc": "--- * ---\n", "other": "Motors wear.\n"},
     ["metrics", "--doc", "{doc}", "--doc", "{other}"], 2,
     "error: {tmp}/doc.input has no tokens: cannot compute its type-token ratio"),
    ({"doc": " \n", "script": _replies(), "search": "queries: {}\n", "nli": "pairs: []\n"},
     _VERIFY, 2, "error: knowledge text is empty"),
    ({"doc": "## Part 1: Intro\n## Part 2: Quality\nMotors wear.\n",
      "script": _replies("1. Motors wear."), "search": "queries: {}\n", "nli": "pairs: []\n"},
     _VERIFY, 2, "error: passage 1 has an empty body; nothing to ask about"),
    ({}, [*_PLAN, "--record", "{store}"], 2,
     "error: --record needs one of --script, --replay, or --gateway-config"),
    # Every input file is read before the first model call.
    ({"script": _replies(), "search": "queries: {}\n", "nli": "pairs: 5\n"},
     [*_GENERATE, "--search-script", "{search}", "--nli-script", "{nli}"], 2,
     "error: validation failed:\n- {tmp}/nli.input: pairs must be a list, got 5"),
    # A text file that is not UTF-8 reads as a YAML one does.
    ({"tax": _LATIN_1}, _PLAN, 2, "error: unreadable {tmp}/tax.input: not UTF-8 text"),
    ({"plan": _LATIN_1}, [*_PLAN, "--plan-text", "{plan}"], 2,
     "error: unreadable {tmp}/plan.input: not UTF-8 text"),
    ({"store": _LATIN_1}, [*_PLAN, "--replay", "{store}"], 2,
     "error: unreadable {tmp}/store.input: not UTF-8 text"),
    ({**_SCORE_FILES, "aggregation": _WEIGHTED, "dataset": _LATIN_1}, _SCORE, 2,
     "error: unreadable {tmp}/dataset.input: not UTF-8 text"),
    ({"doc": _LATIN_1}, ["metrics", "--doc", "{doc}"], 2,
     "error: unreadable {tmp}/doc.input: not UTF-8 text"),
    # The first once exited 4, and the second named no file or line.
    ({**_SCORE_FILES, "aggregation": _WEIGHTED,
      "dataset": _DATASET + "x" * 140_000 + ",a,10,2024-01-01T00:00:00Z,percent\n"}, _SCORE, 2,
     "error: validation failed:\n- dataset line 4: field larger than field limit (131072)"),
    ({"store": '{"key": ' + "1" * 5000 + "}\n"}, [*_PLAN, "--replay", "{store}"], 2,
     "error: {tmp}/store.input:1: not a JSON record: Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase "
     "the limit"),
    # Gateway config values that once reached the socket, the sleep or the request body.
    ({"gateway": _GATEWAY + "timeout_seconds: .inf\n"}, _GATEWAY_PLAN, 2,
     "error: timeout_seconds must be finite"),
    ({"gateway": _GATEWAY + "timeout_seconds: .nan\n"}, _GATEWAY_PLAN, 2,
     "error: timeout_seconds must be finite"),
    ({"gateway": _GATEWAY + "backoff_seconds: .inf\n"}, _GATEWAY_PLAN, 2,
     "error: backoff_seconds must be finite"),
    ({"gateway": _GATEWAY + "backoff_seconds: -1\nmax_retries: 1\n"}, _GATEWAY_PLAN, 2,
     "error: backoff_seconds must be >= 0"),
    ({"gateway": _GATEWAY + "temperature: .nan\n"}, _GATEWAY_PLAN, 2,
     "error: temperature must be finite"),
    ({"tax": "kpi: a\nedges:\n  - {parent: a, relation: has, child: b}\n"
             "  - {parent: b, relation: has, child: c}\n"
             "  - {parent: c, relation: has, child: b}\n"}, _PLAN, 2,
     "error: cycle detected: b -> c -> b"),
    ({"tax": "kpi: a\nedges:\n  - {parent: a, relation: has, child: b}\n"
             "  - {parent: x, relation: has, child: b}\n"}, _PLAN, 2,
     "error: multiple root candidates: a, x"),
    ({"script": _replies(), "plan": "Step 1: Which site runs the ${foo}?\n"
                                    "Step 2: Export a markdown output as guidelines.\n"
                                    "Execution Order: Step 1 AND Step 2\n"},
     [*_GENERATE, "--plan-text", "{plan}"], 2,
     "error: stage materialize: missing bindings in step 1: foo"),
    # The repeated name kept one of its two weights, so this once scored
    # 66.666667 where [a, b] scores 100, and exited 0.
    ({**_SCORE_FILES, "aggregation": _AHP.replace("[a, b]", "[a, a, b]")
      + "[[1, 1, 1], [1, 1, 1], [1, 1, 1]]\n",
      "dataset": "asset_id,sensor_name,value,timestamp,unit\n"
                 "x,a,90,2024-01-01T00:00:00Z,percent\nx,b,90,2024-01-01T00:00:00Z,percent\n"},
     _SCORE, 2, "error: validation failed:\n- ahp sensor order must match the configured sensors"),
], ids=["empty-taxonomy", "edges-not-a-list", "dangling-edge", "kpi-not-text",
        "edge-not-a-record", "parent-not-text", "relation-not-text", "unknown-target",
        "plan-without-steps", "plan-without-order", "unbalanced-order", "non-contiguous-steps",
        "step-declared-twice", "undeclared-step", "unreferenced-step", "code-step-names-no-node",
        "no-step-left", "react-without-final-answer", "react-empty-final-answer",
        "react-one-step", "blank-reply", "confidence-over-100", "script-miss", "replay-miss",
        "non-reciprocal-ahp", "non-positive-ahp", "nan-weight", "nan-ahp", "ragged-ahp",
        "bad-configs-and-dataset", "token-free-metrics", "empty-knowledge-doc",
        "heading-only-part", "record-without-source", "bad-nli-script-before-model-calls",
        "latin-1-taxonomy", "latin-1-plan-text", "latin-1-store", "latin-1-dataset",
        "latin-1-doc", "oversized-csv-field", "huge-integer-in-store", "infinite-timeout",
        "nan-timeout", "infinite-backoff", "negative-backoff", "nan-temperature",
        "cyclic-taxonomy", "two-roots", "missing-binding", "ahp-sensor-named-twice"])
def test_failure_exit_code_and_message(files, argv, code, err, tmp_path, capsys):
    paths = {"tax": str(tmp_path / "tax.yaml"), "out": str(tmp_path / "bundle"),
             "store": str(tmp_path / "store.jsonl")}
    (tmp_path / "tax.yaml").write_text(presets.ASSET_HEALTH_TAXONOMY, encoding="utf-8")
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.input")
        if isinstance(text, bytes):
            (tmp_path / f"{name}.input").write_bytes(text)
        else:
            (tmp_path / f"{name}.input").write_text(text, encoding="utf-8")
    rc = main([arg.format(**paths) for arg in argv])
    err = err.replace("{tmp}", str(tmp_path))
    assert (rc, capsys.readouterr().err) == (code, err + "\n" if err else "")


# --- the process entry -------------------------------------------------------------

@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_run_turns_the_collector_off_for_main_and_freezes_it_before_exit(code, monkeypatch):
    # gc's own functions are replaced, so this process keeps its collector.
    calls = []
    monkeypatch.setattr(cli.gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))

    def fake_main(argv=None):
        calls.append(("main", argv))
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == code
    assert calls == ["disable", ("main", None), "freeze"]


def test_a_cli_process_exits_with_the_commands_code_and_error_line(tmp_path):
    empty = tmp_path / "empty.md"
    empty.write_text("--- ... ---\n", encoding="utf-8")
    src = str(Path(autorecipe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "autorecipe.cli", "metrics", "--doc", str(empty)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {empty} has no tokens: cannot compute its type-token ratio\n"
    )


def test_the_console_script_and_the_main_module_both_enter_through_run():
    # Read as text: tomllib is not in the standard library before 3.11.
    root = Path(__file__).resolve().parents[1]
    scripts = (root / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]\n")[1]
    assert scripts.split("\n\n")[0] == 'autorecipe = "autorecipe.cli:run"'
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert source.endswith('\nif __name__ == "__main__":\n    run()\n')
