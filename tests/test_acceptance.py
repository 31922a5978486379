"""Acceptance suite: ten numbered criteria, one test each.

Every test prints a single PASS/FAIL line with its runtime and budget, so
``pytest -v -s tests/test_acceptance.py`` reads as a checklist.  Tolerances
and time budgets are part of the contract and are asserted, not advisory.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from autorecipe import presets
from autorecipe.cli import main
from autorecipe.execution import STRATEGIES, execute, render_knowledge, split_parts
from autorecipe.gateway import ScriptedGateway
from autorecipe.metrics import coverage, similarity, type_token_ratio
from autorecipe.planning import (
    Conjunction,
    PromptSequence,
    PromptStep,
    StepRef,
    is_all_and,
    order_indices,
    parse_plan,
)
from autorecipe.recipe import (
    BUNDLE_FILES,
    dataset_to_csv,
    default_aggregation_config,
    default_indicator_config,
    generate_synthetic,
    validate_dataset,
)
from autorecipe.references import (
    ConstantNliClient,
    ScriptedSearchClient,
    SearchHit,
    build_references,
    render_cited,
)
from autorecipe.refinement import refine
from autorecipe.scoring import (
    AggregationConfig,
    ahp_weights,
    consistency_ratio,
    principal_eigen,
    weighted_score,
)
from autorecipe.taxonomy import descendant_mentions
from conftest import THREE_PART_DOC

SEED = 20240814


@contextmanager
def _criterion(number: int, budget_s: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget_s
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {verdict} ({elapsed:.2f}s / budget {budget_s:.0f}s): {label}")
    assert ok, f"criterion {number:02d} finished in {elapsed:.2f}s, over its {budget_s}s budget"


# --- 1: the shipped example plans parse with full fidelity -------------------------

def test_criterion_01_fixture_plan_fidelity():
    with _criterion(1, 1.0, "example plans parse to 11/9/10 steps, all-AND order"):
        expected = [
            (presets.COMPONENT_HEALTH_DEMONSTRATION, 11, ["question"] * 9 + ["code", "export"]),
            (presets.ASSET_PROFILE_PLAN, 9, ["question"] * 8 + ["export"]),
            (presets.ENVIRONMENTAL_IMPACT_PLAN, 10, ["question"] * 9 + ["export"]),
        ]
        for text, count, kinds in expected:
            seq = parse_plan(text)
            assert len(seq.steps) == count
            assert [s.kind for s in seq.steps] == kinds
            assert is_all_and(seq.execution_order)
            assert order_indices(seq.execution_order) == list(range(1, count + 1))
            assert seq.placeholders == {"asset_class", "asset_description"}


# --- 2: descendant keyword search agrees with brute force --------------------------

def _brute_force_mentions(tax, start: str, keyword: str) -> bool:
    needle = keyword.casefold()
    collected: set[str] = set()

    def walk(nid: str) -> None:
        for child in tax.children(nid):
            if child not in collected:
                collected.add(child)
                walk(child)

    walk(tax.node_id(start))
    return any(needle in tax.nodes[nid].label.casefold() for nid in collected)


def test_criterion_02_descendant_mentions_vs_brute_force(health_tax, sustainability_tax):
    with _criterion(2, 1.0, "descendant keyword search matches brute force on both taxonomies"):
        for tax in (health_tax, sustainability_tax):
            keywords = {"sensor", "zzz absent", "AGE", "Quality", "impact", "hours"}
            for node in tax.nodes.values():
                keywords.update(node.label.split())
            for node in tax.nodes.values():
                for keyword in keywords:
                    assert descendant_mentions(tax, node.label, keyword) == \
                        _brute_force_mentions(tax, node.label, keyword)


# --- 3: strategies ask the contracted number of turns -------------------------------

class _ConstantGateway:
    reply = "Thought: review.\nAction: summarize.\nObservation: done.\nFinal Answer: All fine."

    def complete(self, session) -> str:
        return self.reply


def _random_sequence(rng: random.Random) -> PromptSequence:
    total = rng.randint(2, 8)
    words = ["motor", "bearing", "load", "duty", "trend", "wear", "inspection"]
    steps = [
        PromptStep(i, "question", " ".join(rng.choice(words) for _ in range(6)) + ".")
        for i in range(1, total)
    ]
    steps.append(PromptStep(total, "export", "Please export a markdown output as guidelines."))
    order = Conjunction(tuple(StepRef(i) for i in range(1, total + 1)))
    return PromptSequence(tuple(steps), order)


def test_criterion_03_strategy_turn_counts(registry):
    with _criterion(3, 5.0, "turn counts over 200 random sequences match the strategy table"):
        rng = random.Random(SEED)
        role = registry.role("domain-expert")
        gateway = _ConstantGateway()
        for _ in range(200):
            seq = _random_sequence(rng)
            turns: dict[str, int] = {}
            prompts: dict[str, str] = {}
            for strategy in STRATEGIES:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    _, transcript = execute(seq, strategy, role, gateway, registry=registry)
                turns[strategy] = len(transcript.user_turns())
                prompts[strategy] = transcript.user_turns()[0].content
            assert turns == {
                "lastq": 1,
                "allq": 1,
                "allqcot": 1,
                "allqreact": 1,
                "gitq": len(seq.steps),
            }
            assert prompts["allqcot"] == prompts["allq"] + "\n\n" + presets.COT_SUFFIX


# --- 4: refinement never overruns and never returns a dropped answer ----------------

def test_criterion_04_refinement_stopping(registry):
    with _criterion(4, 1.0, "refinement bounds rounds, never returns a dropped answer"):
        role = registry.role("domain-expert")
        question = "Describe an electric motor, and its components."

        traces = [
            (["Shared answer. Confidence: 90%", "Shared answer. Confidence: 80%"],
             "fixed-point", "Shared answer."),
            (["Good start. Confidence: 75%", "Worse try. Confidence: 20%"],
             "low-confidence", "Good start."),
            (["A one. Confidence: 90%", "A two. Confidence: 90%", "A three. Confidence: 90%"],
             "max-rounds", "A three."),
        ]
        for replies, reason, answer in traces:
            result = refine(
                ScriptedGateway(replies=list(replies)), role, question,
                max_rounds=len(replies), registry=registry,
            )
            assert result.stop_reason == reason
            assert result.final_answer == answer

        rng = random.Random(SEED)
        for _ in range(200):
            replies = [
                f"Variant {rng.randint(0, 3)} body. Confidence: {rng.choice([10, 30, 50, 70, 90])}%"
                for _ in range(10)
            ]
            result = refine(
                ScriptedGateway(replies=replies), role, question,
                max_rounds=10, registry=registry,
            )
            assert len(result.records) <= 10
            accepted = [r.answer for r in result.records if r.accepted]
            if result.final_answer:
                assert result.final_answer == accepted[-1]
            else:
                assert not accepted
            dropped = [r for r in result.records if not r.accepted]
            assert len(dropped) <= 1
            if dropped:
                assert result.records[-1] is dropped[0]


# --- 5: pairwise weight recovery ------------------------------------------------------

def _consistent_matrix(rng: random.Random, n: int) -> tuple[np.ndarray, np.ndarray]:
    w = np.array([rng.uniform(0.1, 10.0) for _ in range(n)])
    w /= w.sum()
    return np.outer(w, 1.0 / w), w


def test_criterion_05_pairwise_weight_recovery():
    with _criterion(5, 10.0, "weights recovered from 1000 consistent matrices within 1e-6"):
        rng = random.Random(SEED)
        for _ in range(1000):
            matrix, w = _consistent_matrix(rng, rng.randint(2, 7))
            assert np.max(np.abs(ahp_weights(matrix) - w)) < 1e-6

        # the two derivations agree: exactly when consistent, loosely when near
        for _ in range(200):
            matrix, _ = _consistent_matrix(rng, rng.randint(2, 7))
            _, eigenvector = principal_eigen(matrix)
            assert np.max(np.abs(ahp_weights(matrix) - eigenvector)) < 1e-9
            if matrix.shape[0] >= 3:
                assert consistency_ratio(matrix) < 1e-6

        accepted = 0
        for _ in range(300):
            matrix, _ = _consistent_matrix(rng, rng.randint(3, 7))
            n = matrix.shape[0]
            for i in range(n):
                for j in range(i + 1, n):
                    matrix[i, j] *= math.exp(rng.uniform(-0.08, 0.08))
                    matrix[j, i] = 1.0 / matrix[i, j]
            if consistency_ratio(matrix) >= 0.1:
                continue
            accepted += 1
            _, eigenvector = principal_eigen(matrix)
            assert np.max(np.abs(ahp_weights(matrix) - eigenvector)) < 1e-3
        assert accepted >= 100


# --- 6: aggregated scores stay bounded and monotone ----------------------------------

def test_criterion_06_score_bounds_and_monotonicity():
    with _criterion(6, 10.0, "10000 random scores bounded and monotone; flat pairwise = equal weights"):
        rng = random.Random(SEED)
        for _ in range(10000):
            n = rng.randint(1, 5)
            names = [f"s{i}" for i in range(n)]
            raw = [rng.uniform(0.05, 1.0) for _ in names]
            weights = {name: value / sum(raw) for name, value in zip(names, raw)}
            category_scores = {c: rng.uniform(0.0, 1.0) for c in ("poor", "medium", "good", "excellent")}
            cfg = AggregationConfig(category_scores=category_scores, method="weighted", weights=weights)
            categories = {name: rng.choice(sorted(category_scores)) for name in names}
            score = weighted_score(categories, cfg).score
            assert 0.0 <= score <= 100.0

            target = rng.choice(names)
            better = [c for c in category_scores
                      if category_scores[c] > category_scores[categories[target]]]
            if better:
                improved = dict(categories)
                improved[target] = rng.choice(better)
                assert weighted_score(improved, cfg).score >= score

        for n in range(1, 8):
            names = [f"s{i}" for i in range(n)]
            flat = default_aggregation_config(names, method="ahp")
            equal = default_aggregation_config(names, method="weighted")
            for _ in range(50):
                categories = {
                    name: rng.choice(("poor", "medium", "good", "excellent")) for name in names
                }
                delta = weighted_score(categories, flat).score - weighted_score(categories, equal).score
                assert abs(delta) < 1e-9


# --- 7: lexical metrics reproduce hand-computed values --------------------------------

def test_criterion_07_metric_hand_values():
    with _criterion(7, 1.0, "type-token ratio, coverage, and similarity hand values"):
        assert type_token_ratio("a b c d") == pytest.approx(2.0, abs=1e-12)
        assert similarity("a a b", "a b b") == pytest.approx(0.8, abs=1e-12)
        assert coverage("alpha alpha alpha beta", "alpha") == pytest.approx(50.0, abs=1e-12)
        assert coverage("alpha alpha alpha beta", "alpha", weighted=True) == pytest.approx(75.0, abs=1e-12)

        docs = [THREE_PART_DOC, "one two three two", "motor bearing stator rotor load"]
        for doc in docs:
            assert coverage(doc, doc) == pytest.approx(100.0, abs=1e-12)
            assert similarity(doc, doc) == pytest.approx(1.0, abs=1e-12)
            doubled = doc + " " + doc
            assert type_token_ratio(doubled) == pytest.approx(
                type_token_ratio(doc) / math.sqrt(2.0), rel=1e-12
            )


# --- 8: reference verdicts are sound and rerunnable -----------------------------------

def _claim_replies() -> list[str]:
    return [
        "1. Motors convert electrical energy into torque.\n"
        "2. Motor condition degrades with load cycling.\n"
        "3. Stators and rotors are the main motor parts.",
        "1. Health scores summarize remaining capability.\n"
        "2. Scores support maintenance planning.",
        "1. Accelerometers measure drive-end vibration.\n"
        "2. Vibration trends expose bearing wear.\n"
        "3. Sensors sample at fixed intervals.",
    ]


def _claim_statements() -> list[str]:
    out = []
    for reply in _claim_replies():
        out.extend(line.split(". ", 1)[1] for line in reply.splitlines())
    return out


def _search_results() -> dict[str, list[SearchHit]]:
    statements = _claim_statements()
    return {
        statement: [SearchHit(url=f"https://src{i}.example", text=f"paragraph {i} support.")]
        for i, statement in enumerate(statements, start=1)
    }


def test_criterion_08_reference_soundness(registry):
    with _criterion(8, 5.0, "entailment verdicts bound citation counts; 10 reruns are identical"):
        def cited_with(nli):
            return build_references(
                split_parts(THREE_PART_DOC),
                ScriptedGateway(replies=_claim_replies()),
                ScriptedSearchClient(_search_results()),
                nli,
                k=3, registry=registry,
            )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            always = cited_with(ConstantNliClient(True))
            never = cited_with(ConstantNliClient(False))
        assert always.counts.claims == (3, 2, 3)
        assert always.counts.urls_identified == (3, 2, 3)
        assert always.counts.urls_validated == (3, 2, 3)
        assert never.counts.claims == (3, 2, 3)
        assert never.counts.urls_identified == (3, 2, 3)
        assert never.counts.urls_validated == (0, 0, 0)
        assert render_cited(never) == render_knowledge(never.document)

        baseline_text = render_cited(always)
        for _ in range(10):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rerun = cited_with(ConstantNliClient(True))
            assert rerun.counts == always.counts
            assert rerun.citations == always.citations
            assert render_cited(rerun) == baseline_text


# --- 9: scripted recipe generation replays byte for byte ------------------------------

def test_criterion_09_generate_replay_byte_identical(tmp_path):
    with _criterion(9, 30.0, "three scripted generate runs produce byte-identical bundles"):
        tax_file = tmp_path / "health.yaml"
        tax_file.write_text(presets.ASSET_HEALTH_TAXONOMY, encoding="utf-8")
        description = "A 75 kW induction motor driving a conveyor.\nConfidence: 90%"
        replies = [description, description]
        replies += [f"Interim guidance {i}." for i in range(1, 8)]
        replies.append(THREE_PART_DOC)
        script = tmp_path / "script.yaml"
        script.write_text(
            "strict: true\nreplies:\n"
            + "".join(f"- |-\n  " + reply.replace("\n", "\n  ") + "\n" for reply in replies),
            encoding="utf-8",
        )
        store = tmp_path / "exchanges.jsonl"

        def run(out_dir, gateway_args):
            rc = main([
                "generate",
                "--taxonomy", str(tax_file),
                "--kpi", "asset health",
                "--target", "asset profile",
                "--asset-class", "electric motor",
                "--out", str(out_dir),
                *gateway_args,
            ])
            assert rc == 0

        dirs = [tmp_path / f"bundle-{i}" for i in range(3)]
        run(dirs[0], ["--script", str(script), "--record", str(store)])
        run(dirs[1], ["--replay", str(store)])
        run(dirs[2], ["--replay", str(store)])
        for name in BUNDLE_FILES:
            reference = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == reference
            assert (dirs[2] / name).read_bytes() == reference


# --- 10: synthetic datasets always validate and replay under a seed --------------------

def test_criterion_10_synthetic_datasets_validate():
    with _criterion(10, 5.0, "100 random synthetic datasets validate; seeded reruns identical"):
        rng = random.Random(SEED)
        for _ in range(100):
            names = [f"sensor {i}" for i in range(rng.randint(1, 6))]
            low = rng.uniform(-100.0, 100.0)
            high = low + 10.0 ** rng.uniform(-3.0, 2.0)
            cfg = default_indicator_config(names, domain=(low, high))
            n_assets = rng.randint(1, 6)
            seed = rng.randrange(10**6)
            dataset = generate_synthetic(cfg, n_assets, seed)
            assert validate_dataset(dataset, cfg) == []
            again = generate_synthetic(cfg, n_assets, seed)
            assert dataset_to_csv(again) == dataset_to_csv(dataset)
