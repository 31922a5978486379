"""generate runs refinement and execution as two chains.

Whatever ``max_parallel`` is, a run sends the sessions a sequential run
sends and writes the same bundle, or fails with the same error.  The
checks that need only the plan run before either chain starts, so a plan
they reject sends nothing; once refinement has failed, execution starts at
most the one call whose check raced the failure.  Replies come from a store
recorded with the scripted reply queue, served by a gateway that answers
from many threads after a random few-millisecond delay.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
import threading
import time
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from autorecipe import cli, presets
from autorecipe.cli import main
from autorecipe.errors import GatewayError, UnknownPlaceholderWarning
from autorecipe.execution import STRATEGIES, execute
from autorecipe.gateway import ScriptedGateway, session_key
from autorecipe.planning import (
    Goal,
    bind_goal,
    generate_sequence_deterministic,
    materialize_sequence,
    parse_plan,
    resolve_code_steps,
)
from autorecipe.prompts import default_registry, instantiate
from autorecipe.recipe import BUNDLE_FILES
from autorecipe.refinement import refine
from autorecipe.taxonomy import parse_taxonomy
from conftest import THREE_PART_DOC
from test_gateway import endpoint  # noqa: F401 - the fixture the socket test runs on

REFINEMENT_SYSTEM = presets.PROMPT_SEEDS["refinement.system"]
REACT_DOC = "Thought: all steps answered.\nFinal Answer: " + THREE_PART_DOC


class _ConcurrentStore:
    """Answers from a recorded store on as many threads as call it.

    Each call first sleeps a random time within ``delays``, 1-4 ms unless
    given.  The call for the session key ``fault`` raises GatewayError.
    A session the store lacks gets ``default``: a sequential run that
    failed never sent it, so the store cannot hold it.  ``events`` logs
    each call's start and end as ``(what, chain, key)`` in the order they
    happened.
    """

    def __init__(self, store: Path, max_parallel: int, fault: str = "", seed: int = 0,
                 default: str = THREE_PART_DOC, delays=(0.001, 0.004)):
        self.replies = {}
        for line in store.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            self.replies[record["key"]] = record["reply"]
        self.max_parallel = max_parallel
        self.fault = fault
        self.default = default
        self.delays = delays
        self.events: list[tuple[str, str, str]] = []
        self.in_flight = self.peak = 0
        self._random = random.Random(seed)
        self._lock = threading.Lock()

    def complete(self, session):
        key = session_key(session)
        chain = "refine" if session[0].content.startswith(REFINEMENT_SYSTEM) else "execute"
        with self._lock:
            delay = self._random.uniform(*self.delays)
            self.events.append(("start", chain, key))
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(delay)
            if key == self.fault:
                raise GatewayError("injected fault")
            return self.replies.get(key, self.default)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.events.append(("end", chain, key))

    def sent(self, chain: str) -> list[str]:
        return [key for what, c, key in self.events if what == "start" and c == chain]

    def starts_after_refinement_ended(self) -> list[str]:
        """Execution calls started after refinement's last call ended.

        Execution checks for a failed refinement before each turn, so once
        refinement has failed, at most the one turn whose check came just
        before the failure was signalled may still start."""
        ends = [n for n, (what, chain, _) in enumerate(self.events)
                if what == "end" and chain == "refine"]
        return [key for n, (what, chain, key) in enumerate(self.events)
                if what == "start" and chain == "execute" and ends and n > ends[-1]]


@contextlib.contextmanager
def _recorded_warnings():
    """Records every warning the package raises, from whichever thread, into
    the list it yields, so that none reaches pytest's own summary."""
    with warnings.catch_warnings(record=True) as caught:
        # The package's warnings all subclass UserWarning; the suite's other
        # error rules (ResourceWarning, DeprecationWarning) still apply.
        warnings.simplefilter("always", UserWarning)
        # The suite's rule, which "always" would set aside.
        warnings.filterwarnings("error", category=UnknownPlaceholderWarning)
        yield caught


def _run_warned(argv, gateway=None) -> tuple[int, str, Counter]:
    """Exit code and stderr of one command, and how often it raised each
    ``(category, message)`` warning; ``gateway`` replaces the one argv names.

    Under pytest a warning is recorded, not printed, so stderr never holds
    it; it is counted here instead.
    """
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
            _recorded_warnings() as caught:
        if gateway is None:
            code = main(argv)
        else:
            with mock.patch.object(cli, "_build_gateway", lambda args: gateway):
                code = main(argv)
    return code, stderr.getvalue(), Counter((w.category, str(w.message)) for w in caught)


def _run(argv, gateway=None) -> tuple[int, str]:
    """Exit code and stderr of one command; ``gateway`` replaces the one argv names."""
    return _run_warned(argv, gateway)[:2]


def _bundle(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in BUNDLE_FILES if (out / name).exists()}


def _chain(record: dict) -> str:
    return "refine" if record["session"][0]["content"].startswith(REFINEMENT_SYSTEM) else "execute"


def _stage_by_stage(target, plan_text, asset_class, strategy, replies, rounds) -> list[str]:
    """Session keys of a successful run, from its stages called one after another."""
    registry = default_registry()
    goal = Goal("asset health", target or "asset health")
    tax = bind_goal([parse_taxonomy(presets.ASSET_HEALTH_TAXONOMY)], goal)
    seq = (parse_plan(plan_text, goal=goal) if plan_text
           else generate_sequence_deterministic(tax, goal, registry=registry))
    seq = resolve_code_steps(seq, tax, registry=registry)
    gateway = ScriptedGateway(replies=replies)
    question = instantiate(registry, "refinement.initial", {"asset_class": asset_class})
    with _recorded_warnings():
        description = refine(gateway, "refinement.system", question,
                             max_rounds=rounds, registry=registry).final_answer
        execute(materialize_sequence(seq, asset_class, description), strategy,
                registry.role("domain-expert"), gateway, registry=registry)
    return gateway.calls


# --- drawn runs ------------------------------------------------------------------------

_STEP_BODIES = [
    "Name the factors that wear the ${asset_class}.",
    "Here is a detailed explanation: ${asset_description}. What fails first?",
    "Collect all the discovered factors so far.",
    "Compare a new ${asset_class} with this one: ${asset_description}.",
    "Which site runs the ${site_name}?",  # no binding: materialization rejects the plan
]
_ANSWERS = ["A motor.", "An induction motor with a rotor and a stator.", "A 75 kW motor.",
            "Run it with ${speed} set."]  # placeholder syntax, sent verbatim


@st.composite
def _plans(draw):
    """A target of the preset taxonomy, or a plan text with drawn steps."""
    if draw(st.booleans()):
        target = draw(st.sampled_from(["asset profile", "component quality", "historical record",
                                       "mechanical issue", ""]))
        return target, ""
    bodies = draw(st.lists(st.sampled_from(_STEP_BODIES), max_size=5))
    bodies.append("Export a markdown output as guidelines for the ${asset_class}.")
    lines = [f"Step {n}: {body}" for n, body in enumerate(bodies, start=1)]
    order = " AND ".join(f"Step {n}" for n in range(1, len(bodies) + 1))
    return "", "\n".join(lines) + f"\nExecution Order: {order}\n"


@st.composite
def _refinements(draw):
    """1-6 rounds of replies that refinement reads to the last; the last
    round accepts a new answer, repeats the one before, falls below the
    threshold, or carries no marker."""
    rounds = draw(st.integers(1, 6))
    answers: list[str] = []
    for _ in range(rounds - 1):
        answers.append(draw(st.sampled_from([a for a in _ANSWERS if answers[-1:] != [a]])))
    replies = [f"{a}\nConfidence: {draw(st.sampled_from([50, 75, 90]))}%" for a in answers]
    last = draw(st.sampled_from(["new", "repeat", "low", "missing"] if answers
                                else ["new", "low", "missing"]))
    if last == "repeat":
        replies.append(f"{answers[-1]}\nConfidence: 80%")
    else:
        answer = draw(st.sampled_from([a for a in _ANSWERS if answers[-1:] != [a]]))
        confidence = {"new": "\nConfidence: 60%", "low": "\nConfidence: 49.5%", "missing": ""}
        replies.append(answer + confidence[last])
    return replies


@settings(max_examples=40, deadline=None)
@given(plan=_plans(), strategy=st.sampled_from(STRATEGIES), refinement=_refinements(),
       execution_reply=st.sampled_from([THREE_PART_DOC, REACT_DOC, "Thought: nothing yet."]),
       asset_class=st.sampled_from(["electric motor", "electric motor", "pump ${model}"]),
       fault=st.none() | st.tuples(st.sampled_from(["refine", "execute"]), st.integers(0, 9)),
       max_parallel=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 2**16))
def test_overlapped_generate_matches_the_sequential_run(plan, strategy, refinement,
                                                        execution_reply, asset_class, fault,
                                                        max_parallel, seed):
    target, plan_text = plan
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "tax.yaml").write_text(presets.ASSET_HEALTH_TAXONOMY, encoding="utf-8")
        script = {"strict": True, "replies": refinement + [execution_reply] * 12}
        (tmp / "script.yaml").write_text(yaml.safe_dump(script), encoding="utf-8")
        store = tmp / "store.jsonl"
        store.touch()
        argv = ["generate", "--taxonomy", str(tmp / "tax.yaml"), "--kpi", "asset health",
                "--target", target, "--asset-class", asset_class, "--strategy", strategy,
                "--max-rounds", str(len(refinement))]
        if plan_text:
            (tmp / "plan.txt").write_text(plan_text, encoding="utf-8")
            argv += ["--plan-text", str(tmp / "plan.txt")]

        # The sequential run: the scripted reply queue, recorded.
        scripted = _run_warned([*argv, "--script", str(tmp / "script.yaml"),
                                "--record", str(store), "--out", str(tmp / "scripted")])
        records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
        recorded = [r["key"] for r in records]
        # The fault hits the k-th call of one chain, when that chain made one.
        fault_key = ""
        if fault is not None:
            calls = [r["key"] for r in records if _chain(r) == fault[0]]
            fault_key = calls[fault[1]] if fault[1] < len(calls) else ""

        def replayed(workers, out):
            gateway = _ConcurrentStore(store, workers, fault_key, seed, default=execution_reply)
            outcome = _run_warned([*argv, "--replay", str(store), "--out", str(tmp / out)],
                                  gateway)
            return outcome, gateway

        (code, err, raised), gateway = replayed(max_parallel, "overlapped")
        expected = replayed(1, "sequential")[0] if fault_key else scripted
        assert (code, err) == expected[:2]
        if code == 0:
            # The same warnings as a multiset: at two workers the chains may interleave them.
            assert raised == expected[2]
            assert _bundle(tmp / "overlapped") == _bundle(tmp / "scripted")
            assert recorded == _stage_by_stage(target, plan_text, asset_class, strategy,
                                               script["replies"], len(refinement))
            sent = gateway.sent("refine") + gateway.sent("execute")
            assert sorted(sent) == sorted(recorded)
        if err.startswith("error: stage refine:"):
            assert len(gateway.starts_after_refinement_ended()) <= 1
        assert gateway.peak <= min(max_parallel, 2)


# --- fixed runs --------------------------------------------------------------------------

def _preset_argv(tmp: Path) -> list[str]:
    tax = tmp / "tax.yaml"
    tax.write_text(presets.ASSET_HEALTH_TAXONOMY, encoding="utf-8")
    return ["generate", "--taxonomy", str(tax), "--kpi", "asset health",
            "--target", "asset profile", "--asset-class", "electric motor"]


def _record_preset(tmp: Path, description: str) -> Path:
    """A store of the preset run: four refinement rounds, then eight gitq turns."""
    answers = ["A motor.", "An induction motor.", "A 75 kW motor.", description]
    replies = [f"{a}\nConfidence: 90%" for a in answers] + [THREE_PART_DOC] * 8
    script = tmp / "script.yaml"
    script.write_text(yaml.safe_dump({"strict": True, "replies": replies}), encoding="utf-8")
    store = tmp / "store.jsonl"
    assert main([*_preset_argv(tmp), "--max-rounds", "4", "--script", str(script),
                 "--record", str(store), "--out", str(tmp / "scripted")]) == 0
    return store


def test_refinement_overlaps_only_the_turns_without_the_description(tmp_path):
    description = "A 75 kW induction motor driving a conveyor."
    store = _record_preset(tmp_path, description)
    gateway = _ConcurrentStore(store, max_parallel=2)
    code, err = _run([*_preset_argv(tmp_path), "--max-rounds", "4", "--replay", str(store),
                      "--out", str(tmp_path / "overlapped")], gateway)
    assert (code, err) == (0, "")
    assert _bundle(tmp_path / "overlapped") == _bundle(tmp_path / "scripted")
    assert (len(gateway.sent("refine")), len(gateway.sent("execute")), gateway.peak) == (4, 8, 2)
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    holds = {r["key"] for r in records if description in r["session"][-1]["content"]}
    # The turns that send the description wait for refinement; the first
    # turn does not.
    assert len(holds) == 2
    assert set(gateway.starts_after_refinement_ended()) >= holds
    assert gateway.sent("execute")[0] not in gateway.starts_after_refinement_ended()


def test_refinement_failure_stops_execution_and_is_the_error_reported(tmp_path):
    store = _record_preset(tmp_path, "A 75 kW induction motor driving a conveyor.")
    # The second round fails 20 ms in, with five turns free to go out at 10 ms each.
    fault = json.loads(store.read_text(encoding="utf-8").splitlines()[1])["key"]
    gateway = _ConcurrentStore(store, max_parallel=4, fault=fault, delays=(0.01, 0.01))
    code, err = _run([*_preset_argv(tmp_path), "--max-rounds", "4", "--replay", str(store),
                      "--out", str(tmp_path / "overlapped")], gateway)
    assert (code, err) == (3, "error: stage refine: injected fault\n")
    assert len(gateway.sent("refine")) == 2
    assert 1 <= len(gateway.sent("execute")) <= 3
    assert len(gateway.starts_after_refinement_ended()) <= 1
    assert gateway.in_flight == 0


_EXPORT = "Step 2: Export a markdown output as guidelines for the ${asset_class}.\n"


@pytest.mark.parametrize("plan, strategy, error", [
    ("Step 1: Name the factors.\nStep 2: Collect all the discovered factors so far.\n"
     "Execution Order: Step 1 AND Step 2\n", "gitq",
     "error: stage execute: the last step must be an export step\n"),
    ("Step 1: Which site runs the ${foo}?\n" + _EXPORT + "Execution Order: Step 1 AND Step 2\n",
     "gitq", "error: stage materialize: missing bindings in step 1: foo\n"),
    (_EXPORT.replace("Step 2", "Step 1") + "Execution Order: Step 1\n", "allqreact",
     "error: stage execute: the reasoning scaffold needs at least two steps\n"),
])
def test_a_plan_the_checks_reject_costs_no_model_call(tmp_path, plan, strategy, error):
    """The checks that need only the plan run before refinement starts."""
    replies = [f"A {n} kW motor.\nConfidence: 90%" for n in range(4)] + [THREE_PART_DOC] * 4
    script = tmp_path / "script.yaml"
    script.write_text(yaml.safe_dump({"strict": True, "replies": replies}), encoding="utf-8")
    (tmp_path / "plan.txt").write_text(plan, encoding="utf-8")
    store = tmp_path / "store.jsonl"
    argv = [*_preset_argv(tmp_path), "--max-rounds", "4", "--strategy", strategy,
            "--plan-text", str(tmp_path / "plan.txt")]
    assert _run([*argv, "--script", str(script), "--record", str(store),
                 "--out", str(tmp_path / "scripted")]) == (2, error)
    assert store.read_text(encoding="utf-8") == ""
    gateway = _ConcurrentStore(store, max_parallel=2)
    assert _run([*argv, "--replay", str(store), "--out", str(tmp_path / "overlapped")],
                gateway) == (2, error)
    assert gateway.events == []
    assert not (tmp_path / "scripted").exists() and not (tmp_path / "overlapped").exists()


@pytest.mark.parametrize("asset_class, description", [
    ("pump ${model}", "A pump with ${speed} set."),
    ("pump ${model}", "A pump."),
    ("pump", "A pump with ${speed} set."),
    ("${asset_description}", "A pump."),
])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_placeholder_syntax_in_a_value_is_sent_verbatim(tmp_path, asset_class, description,
                                                        strategy):
    """Placeholders are read in the plan's text only.  An asset class or a
    refined description that holds ``${...}`` is inserted as it is, and the
    run succeeds with the same sessions and bundle at one and two workers."""
    replies = [f"{description}\nConfidence: 90%"] * 2 + [REACT_DOC] * 8
    script = tmp_path / "script.yaml"
    script.write_text(yaml.safe_dump({"strict": True, "replies": replies}), encoding="utf-8")
    store = tmp_path / "store.jsonl"
    argv = [*_preset_argv(tmp_path), "--max-rounds", "2", "--strategy", strategy]
    argv[argv.index("electric motor")] = asset_class
    assert _run([*argv, "--script", str(script), "--record", str(store),
                 "--out", str(tmp_path / "scripted")]) == (0, "")
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    asked = {chain: [r["session"][-1]["content"] for r in records if _chain(r) == chain]
             for chain in ("refine", "execute")}
    assert len(asked["refine"]) == 2
    assert asset_class in asked["refine"][0]
    sent = "\n".join(asked["execute"])
    assert asset_class in sent
    # lastq sends only the export step, which does not hold the description.
    assert (description in sent) == (strategy != "lastq")
    for workers in (1, 2):
        gateway = _ConcurrentStore(store, workers)
        out = tmp_path / f"out-{workers}"
        assert _run([*argv, "--replay", str(store), "--out", str(out)], gateway) == (0, "")
        assert sorted(gateway.sent("refine") + gateway.sent("execute")) == sorted(
            r["key"] for r in records)
        assert _bundle(out) == _bundle(tmp_path / "scripted")


def test_generate_over_the_socket_matches_the_one_worker_run(endpoint, tmp_path):  # noqa: F811
    """The endpoint echoes each last message, so an asset class that carries
    a confidence marker makes refinement accept the echo and then stop at a
    fixed point; gitq then runs on the echoed description."""
    url = f"http://127.0.0.1:{endpoint.server_address[1]}/ok"
    runs = []
    for workers in (1, 2):
        config = tmp_path / f"gateway-{workers}.yaml"
        config.write_text(f"endpoint: {url}\nmax_retries: 0\nmax_parallel: {workers}\n",
                          encoding="utf-8")
        out, store = tmp_path / f"out-{workers}", tmp_path / f"store-{workers}.jsonl"
        argv = [*_preset_argv(tmp_path), "--gateway-config", str(config),
                "--record", str(store), "--out", str(out)]
        argv[argv.index("electric motor")] = "pump. Confidence: 90%"
        assert _run(argv) == (0, "")
        lines = store.read_text(encoding="utf-8").splitlines()
        # created_at is the wall clock on an HTTP run, so the files that
        # carry it are left out.
        runs.append((sorted(lines), {name: (out / name).read_bytes() for name in (
            "knowledge_document.md", "indicator_config.yaml", "aggregation_config.yaml",
            "sample_dataset.csv")}))
    assert len(runs[0][0]) == 2 + 8
    assert runs[1] == runs[0]
