"""Claim extraction, search, entailment checks, and citation assembly."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorecipe.errors import (
    AutoRecipeError,
    FewerClaimsWarning,
    GatewayError,
    SearchClientError,
)
from autorecipe.execution import KnowledgeDocument, KnowledgePart, split_parts
from autorecipe.gateway import RecordingGateway, ScriptedGateway, session_key
from autorecipe.prompts import instantiate
from autorecipe.references import (
    DEFAULT_MAX_RESULTS,
    ConstantNliClient,
    ScriptedNliClient,
    ScriptedSearchClient,
    SearchHit,
    attach_references,
    build_references,
    collect_evidence,
    generate_claims,
    render_cited,
)


class _Recorder:
    def __init__(self, replies):
        self._replies = list(replies)
        self.sessions = []

    def complete(self, session):
        self.sessions.append(list(session))
        return self._replies.pop(0)


class _FaultySearch:
    def search(self, query, max_results):
        raise RuntimeError("socket closed")


class _FloodingSearch:
    """Returns more hits than asked for, and records what was asked for."""

    def __init__(self):
        self.asked = []

    def search(self, query, max_results):
        self.asked.append(max_results)
        return [SearchHit(f"https://{i}.example", text="t") for i in range(max_results + 3)]


class _JudgeRecorder:
    """Passes each judgement on, and notes its (premise, hypothesis) in order."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def judge(self, premise, hypothesis):
        self.calls.append((premise, hypothesis))
        return self.inner.judge(premise, hypothesis)


PASSAGE = "An electric motor converts energy."


# --- claim generation --------------------------------------------------------------

def test_generate_claims_numbered_list(registry):
    reply = (
        "1. Wind turbines convert wind into electricity.\n"
        "2. Gearboxes multiply rotor speed.\n"
        "3. Generators output alternating current.\n"
    )
    claims = generate_claims(1, PASSAGE, _Recorder([reply]), k=3, registry=registry)
    assert [statement for _, statement in claims] == [
        "Wind turbines convert wind into electricity.",
        "Gearboxes multiply rotor speed.",
        "Generators output alternating current.",
    ]
    assert all(passage_id == 1 for passage_id, _ in claims)


def test_generate_claims_strips_bullets_and_markdown(registry):
    reply = (
        "* The rotor converts wind energy.\n"
        "2) Gears transfer torque.\n"
        "Claim 3: **Bearings** degrade over time.\n"
    )
    claims = generate_claims(1, PASSAGE, _Recorder([reply]), k=3, registry=registry)
    assert [statement for _, statement in claims] == [
        "The rotor converts wind energy.",
        "Gears transfer torque.",
        "Bearings degrade over time.",
    ]


def test_generate_claims_splits_single_paragraph(registry):
    reply = "The hub holds blades. The tower supports the nacelle. The generator makes power."
    claims = generate_claims(1, PASSAGE, _Recorder([reply]), k=3, registry=registry)
    assert [statement for _, statement in claims] == [
        "The hub holds blades.",
        "The tower supports the nacelle.",
        "The generator makes power.",
    ]


def test_generate_claims_does_not_cut_a_claim_at_a_line_separator(registry):
    # Cut at U+2028, the first line's fragment would end in "." and pass as a claim.
    reply = "1. Vibration rises as the bearing wears, e.g.\u2028at high load\n2. Temperature tracks load."
    claims = generate_claims(1, PASSAGE, _Recorder([reply]), k=1, registry=registry)
    assert claims == [(1, "Temperature tracks load.")]


def test_generate_claims_warns_when_fewer_parse(registry):
    reply = "Only one full sentence here.\nno trailing period on this line"
    with pytest.warns(FewerClaimsWarning):
        claims = generate_claims(1, PASSAGE, _Recorder([reply]), k=3, registry=registry)
    assert len(claims) == 1


def test_generate_claims_truncates_to_k(registry):
    reply = "\n".join(f"{i}. Sentence number {i} is true." for i in range(1, 6))
    claims = generate_claims(1, PASSAGE, _Recorder([reply]), k=3, registry=registry)
    assert len(claims) == 3


def test_generate_claims_prompt_contents(registry):
    gateway = _Recorder(["1. Something is true."])
    with pytest.warns(FewerClaimsWarning):
        generate_claims(1, "The stator stays put.", gateway, k=2, registry=registry)
    session = gateway.sessions[0]
    assert session[0].role == "system"
    assert session[0].content == registry.get(registry.role("domain-expert"))
    assert "The stator stays put." in session[1].content
    assert "2" in session[1].content


def test_generate_claims_argument_validation(registry):
    with pytest.raises(ValueError):
        generate_claims(1, PASSAGE, _Recorder([]), k=0, registry=registry)
    with pytest.raises(AutoRecipeError, match="^passage 1 has an empty body; nothing to ask about"):
        generate_claims(1, "   ", _Recorder([]), registry=registry)


# --- search ---------------------------------------------------------------------------
# A claim is searched as a query inside collect_evidence and build_references.

def test_search_claim_separates_fetches_from_failures():
    claim = (1, "Motors contain bearings.")
    client = ScriptedSearchClient({
        "Motors contain bearings.": [
            SearchHit("https://a.example", text="bearing text"),
            SearchHit("https://b.example", error="timeout"),
            SearchHit("https://c.example", text="   "),
        ],
    })
    nli = _JudgeRecorder(ConstantNliClient(True))
    evidence = collect_evidence([claim], client, nli)
    assert evidence == [
        (1, "https://a.example", True),
        (1, "https://b.example", False),
        (1, "https://c.example", False),
    ]
    # A failed fetch and a blank page are never judged.
    assert nli.calls == [("bearing text", "Motors contain bearings.")]
    assert client.queries == ["Motors contain bearings."]


def test_search_claim_respects_max_results():
    client = _FloodingSearch()
    evidence = collect_evidence([(1, "q.")], client, ConstantNliClient(True))
    assert [url for _, url, _ in evidence] == [
        f"https://{i}.example" for i in range(DEFAULT_MAX_RESULTS)
    ]
    assert client.asked == [DEFAULT_MAX_RESULTS]


def test_search_claim_strict_and_lenient_misses(three_part_doc):
    claim = (1, "unknown query.")
    with pytest.raises(SearchClientError, match="no scripted results"):
        collect_evidence([claim], ScriptedSearchClient({}, strict=True), ConstantNliClient(True))
    lenient = ScriptedSearchClient({}, strict=False)
    assert collect_evidence([claim], lenient, ConstantNliClient(True)) == []

    kd, replies, _ = _pipeline_fixture(three_part_doc)
    with pytest.raises(SearchClientError, match="no scripted results"):
        build_references(
            kd, ScriptedGateway(replies=list(replies)), ScriptedSearchClient({}, strict=True),
            ConstantNliClient(True), k=2,
        )
    cited = build_references(
        kd, ScriptedGateway(replies=list(replies)), ScriptedSearchClient({}, strict=False),
        ConstantNliClient(True), k=2,
    )
    assert cited.counts.claims == (2, 2, 2)
    assert cited.counts.urls_identified == (0, 0, 0)
    assert cited.citations == ((), (), ())


def test_search_claim_wraps_provider_crashes(three_part_doc):
    with pytest.raises(SearchClientError, match="socket closed"):
        collect_evidence([(1, "q.")], _FaultySearch(), ConstantNliClient(True))
    kd, replies, _ = _pipeline_fixture(three_part_doc)
    with pytest.raises(SearchClientError, match="socket closed"):
        build_references(
            kd, ScriptedGateway(replies=list(replies)), _FaultySearch(),
            ConstantNliClient(True), k=2,
        )


# --- verification -----------------------------------------------------------------------

def _single_hit_client(text: str) -> ScriptedSearchClient:
    return ScriptedSearchClient({"c.": [SearchHit("https://a.example", text=text)]})


def test_verify_verdicts():
    claim = (1, "c.")
    client = _single_hit_client("evidence text")
    assert collect_evidence([claim], client, ConstantNliClient(True)) == [
        (1, "https://a.example", True)
    ]
    assert collect_evidence([claim], client, ConstantNliClient(False)) == [
        (1, "https://a.example", False)
    ]


def test_verify_scripted_pairs_match_after_stripping():
    client = ScriptedNliClient({("premise text", "Motors spin."): True})
    assert client.judge("  premise text  ", " Motors spin.\n") is True
    assert client.judge("premise", "Motors spin.") is False


# --- evidence collection ------------------------------------------------------------------

def test_collect_evidence_first_entailing_paragraph_wins():
    claim = (1, "c.")
    text = "first paragraph\n\nsecond paragraph\n\nthird paragraph"
    nli = _JudgeRecorder(ScriptedNliClient({
        ("second paragraph", "c."): True,
        ("third paragraph", "c."): True,
    }))
    evidence = collect_evidence([claim], _single_hit_client(text), nli)
    assert evidence == [(1, "https://a.example", True)]
    assert nli.calls == [("first paragraph", "c."), ("second paragraph", "c.")]


def test_collect_evidence_not_entailed_without_match():
    nli = _JudgeRecorder(ConstantNliClient(False))
    evidence = collect_evidence([(1, "c.")], _single_hit_client("one\n\ntwo"), nli)
    assert evidence == [(1, "https://a.example", False)]
    assert nli.calls == [("one", "c."), ("two", "c.")]


def test_collect_evidence_error_verdict_when_judgement_fails():
    # A pair the script does not hold is not entailed; judging raises nothing.
    nli = _JudgeRecorder(ScriptedNliClient({}))
    evidence = collect_evidence([(1, "c.")], _single_hit_client("one\n\ntwo"), nli)
    assert evidence == [(1, "https://a.example", False)]
    assert nli.calls == [("one", "c."), ("two", "c.")]


def test_collect_evidence_recovers_after_judgement_error():
    # An unscripted paragraph does not stop a later one from entailing the claim.
    client = ScriptedNliClient({("two", "c."): True})
    evidence = collect_evidence([(1, "c.")], _single_hit_client("one\n\ntwo"), client)
    assert evidence == [(1, "https://a.example", True)]


class _ThreadRecorder:
    """Search and NLI client that notes the thread each call runs on."""

    def __init__(self, results):
        self.search_client = ScriptedSearchClient(results)
        self.threads = set()

    def search(self, query, max_results):
        self.threads.add(threading.get_ident())
        return self.search_client.search(query, max_results)

    def judge(self, premise, hypothesis):
        self.threads.add(threading.get_ident())
        return True


def test_collect_evidence_runs_on_the_callers_thread():
    claims = [(p, f"claim {p}-{c}.") for p in (1, 2) for c in (1, 2, 3)]
    recorder = _ThreadRecorder({
        statement: [SearchHit(f"https://{r}.example", text="body text") for r in range(3)]
        for _, statement in claims
    })
    evidence = collect_evidence(claims, recorder, recorder)
    assert recorder.threads == {threading.get_ident()}
    assert recorder.search_client.queries == [statement for _, statement in claims]
    assert len(evidence) == 18
    assert all(entailed for _, _, entailed in evidence)


_PARAGRAPHS = ("alpha", "beta", "gamma")
_PAGE_TEXTS = st.one_of(
    st.sampled_from(["", "   ", "\n\n"]),
    st.lists(st.sampled_from(_PARAGRAPHS), min_size=1, max_size=3).map("\n\n".join),
)
_URLS = [f"https://hit{rank}.example" for rank in range(DEFAULT_MAX_RESULTS + 2)]
_HITS = st.lists(
    st.tuples(_PAGE_TEXTS, st.sampled_from(["", "", "fetch timed out"])), max_size=len(_URLS),
).map(lambda pages: [SearchHit(url, text, error) for url, (text, error) in zip(_URLS, pages)])


@st.composite
def _evidence_inputs(draw):
    """Claims in passage order, their hits, and a verdict map that may miss pairs."""
    claims = [
        (passage, f"claim {passage}-{index}.")
        for passage in range(1, draw(st.integers(1, 3)) + 1)
        for index in range(1, draw(st.integers(0, 3)) + 1)
    ]
    results = {statement: draw(_HITS) for _, statement in claims}
    pairs = draw(st.dictionaries(
        st.tuples(st.sampled_from(_PARAGRAPHS), st.sampled_from([statement for _, statement in claims]))
        if claims else st.nothing(),
        st.booleans(),
    ))
    return claims, results, pairs


@settings(max_examples=200, deadline=None)
@given(_evidence_inputs())
def test_collect_evidence_equals_a_nested_loop_in_claim_and_hit_order(inputs):
    claims, results, pairs = inputs
    expected, expected_calls = [], []
    for passage_id, statement in claims:
        for hit in results[statement][:DEFAULT_MAX_RESULTS]:
            entailed = False
            paragraphs = [p.strip() for p in hit.text.split("\n\n") if p.strip()]
            for paragraph in [] if hit.error else paragraphs:
                expected_calls.append((paragraph, statement))
                if pairs.get((paragraph, statement), False):
                    entailed = True
                    break
            expected.append((passage_id, hit.url, entailed))

    nli = _JudgeRecorder(ScriptedNliClient(pairs))
    assert collect_evidence(claims, ScriptedSearchClient(results), nli) == expected
    assert nli.calls == expected_calls


def test_always_true_and_always_false_judges(three_part_doc):
    kd = split_parts(three_part_doc)
    claims = [(p, f"claim for part {p}.") for p in (1, 2, 3)]
    results = {
        statement: [SearchHit(f"https://{passage_id}.example", text="para")]
        for passage_id, statement in claims
    }
    sunny = attach_references(
        kd, claims,
        collect_evidence(claims, ScriptedSearchClient(results), ConstantNliClient(True)),
    )
    assert sunny.counts.urls_validated == (1, 1, 1)
    assert sunny.citations == (
        ("https://1.example",), ("https://2.example",), ("https://3.example",),
    )
    gloomy = attach_references(
        kd, claims,
        collect_evidence(claims, ScriptedSearchClient(results), ConstantNliClient(False)),
    )
    assert gloomy.counts.urls_validated == (0, 0, 0)
    assert gloomy.citations == ((), (), ())
    assert gloomy.counts.claims == (1, 1, 1)


# --- attachment and rendering ----------------------------------------------------------------

def test_attach_references_counts_fixture(three_part_doc):
    kd = split_parts(three_part_doc)
    claims = (
        [(1, f"p1 claim {i}.") for i in (1, 2, 3)]
        + [(2, f"p2 claim {i}.") for i in (1, 2)]
        + [(3, f"p3 claim {i}.") for i in (1, 2, 3)]
    )
    evidence = [
        (1, "https://a.example", True),
        (1, "https://a.example", True),  # repeat url
        (1, "https://b.example", True),
        (1, "https://c.example", False),
        (2, "https://d.example", True),
        (2, "https://e.example", False),
        (3, "https://f.example", False),
    ]
    cited = attach_references(kd, claims, evidence)
    assert cited.counts.claims == (3, 2, 3)
    assert cited.counts.urls_identified == (3, 2, 1)
    assert cited.counts.urls_validated == (2, 1, 0)
    assert cited.citations == (
        ("https://a.example", "https://b.example"), ("https://d.example",), (),
    )
    assert (cited.counts.claims, cited.counts.urls_validated) == ((3, 2, 3), (2, 1, 0))


def test_attach_references_counts_claims_without_evidence(three_part_doc):
    kd = split_parts(three_part_doc)
    claims = [(1, "lonely claim.")]
    cited = attach_references(kd, claims, [])
    assert cited.counts.claims == (1, 0, 0)
    assert cited.counts.urls_identified == (0, 0, 0)
    assert cited.counts.urls_validated == (0, 0, 0)


def test_render_cited_appends_numbered_references(three_part_doc):
    kd = split_parts(three_part_doc)
    claims = [(1, "c1."), (3, "c3.")]
    evidence = [
        (1, "https://a.example", True),
        (1, "https://b.example", True),
        (3, "https://c.example", True),
    ]
    cited = attach_references(kd, claims, evidence)
    text = render_cited(cited)
    assert "References:\n1. https://a.example\n2. https://b.example" in text
    assert "References:\n1. https://c.example" in text
    # part 2 carries no reference block between its heading and part 3's
    middle = text[text.index("Part 2"): text.index("Part 3")]
    assert "References:" not in middle
    assert text.index("https://a.example") < text.index("Part 2")


def test_render_cited_without_citations_is_identity(three_part_doc):
    from autorecipe.execution import render_knowledge

    kd = split_parts(three_part_doc)
    cited = attach_references(kd, [], [])
    assert render_cited(cited) == render_knowledge(kd)


# --- full pipeline -----------------------------------------------------------------------

def _pipeline_fixture(three_part_doc):
    kd = split_parts(three_part_doc)
    replies = [
        "1. Motors convert energy.\n2. Motors are widely used.",
        "1. Health scores summarize condition.\n2. Scores range over percentages.",
        "1. Accelerometers measure vibration.\n2. Sensors enable monitoring.",
    ]
    statements = [line.split(". ", 1)[1] for reply in replies for line in reply.splitlines()]
    results = {
        statement: [SearchHit(f"https://ref{i}.example", text=f"supporting text {i}")]
        for i, statement in enumerate(statements)
    }
    return kd, replies, results


def test_build_references_end_to_end(three_part_doc):
    kd, replies, results = _pipeline_fixture(three_part_doc)
    cited = build_references(
        kd,
        ScriptedGateway(replies=list(replies)),
        ScriptedSearchClient(results),
        ConstantNliClient(True),
        k=2,
    )
    assert cited.counts.claims == (2, 2, 2)
    assert cited.counts.urls_validated == (2, 2, 2)
    assert all(len(urls) == 2 for urls in cited.citations)
    assert cited.document is kd


def test_build_references_asks_about_each_part_in_order(three_part_doc, registry):
    kd = split_parts(three_part_doc)
    gateway = _Recorder([f"1. Claim {i}." for i in (1, 2, 3)])
    cited = build_references(kd, gateway, ScriptedSearchClient({}, strict=False),
                             ConstantNliClient(True), k=1, registry=registry)
    bodies = [part.body.strip() for part in kd.parts]
    assert bodies[0].startswith("An electric motor")
    # Claim request i carries part i's stripped body, and its claims count for part i.
    assert [session[1].content for session in gateway.sessions] == [
        instantiate(registry, "claims.extract", {"claim_count": "1", "passage": body})
        for body in bodies
    ]
    assert cited.counts.claims == (1, 1, 1)


def test_build_references_replay_is_stable(three_part_doc):
    kd, replies, results = _pipeline_fixture(three_part_doc)
    outcomes = []
    for _ in range(10):
        cited = build_references(
            kd,
            ScriptedGateway(replies=list(replies)),
            ScriptedSearchClient(results),
            ConstantNliClient(True),
            k=2,
        )
        outcomes.append((cited.citations, cited.counts))
    assert all(outcome == outcomes[0] for outcome in outcomes)


# --- concurrent claim requests -------------------------------------------------------------

class _ParallelGateway:
    """Answers each passage's claim request, from as many threads as call it.

    ``order`` lists passages in the order their replies must finish: each
    waits until the one before it has finished.  ``fail`` maps a passage to
    the error its request raises.
    """

    def __init__(self, kd, max_parallel, order=(), fail=None):
        self.max_parallel = max_parallel
        self.bodies = [part.body.strip() for part in kd.parts]
        self.after = dict(zip(order[1:], order))
        self.fail = fail or {}
        self.finished = {i: threading.Event() for i in range(1, len(self.bodies) + 1)}
        self.in_flight = self.peak = 0
        self.done: list[int] = []
        self.threads = set()
        self._lock = threading.Lock()

    def complete(self, session):
        passage = next(i for i, body in enumerate(self.bodies, start=1)
                       if body in session[-1].content)
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.get_ident())
        try:
            if passage in self.after:
                assert self.finished[self.after[passage]].wait(10), "request never released"
            else:
                time.sleep(0.1)  # long enough for the other requests to start
            if passage in self.fail:
                raise self.fail[passage]
            return f"1. A claim of passage {passage}."
        finally:
            with self._lock:
                self.in_flight -= 1
                self.done.append(passage)
            self.finished[passage].set()


def _references_of(kd, gateway, k=1, search=None):
    search = search or ScriptedSearchClient({}, strict=False)
    return build_references(kd, gateway, search, ConstantNliClient(True), k=k)


def test_build_references_keeps_passage_order_when_replies_finish_in_reverse(three_part_doc):
    kd = split_parts(three_part_doc)
    gateway = _ParallelGateway(kd, max_parallel=3, order=(3, 2, 1))
    search = ScriptedSearchClient({}, strict=False)
    cited = _references_of(kd, gateway, search=search)
    assert gateway.done == [3, 2, 1]
    assert gateway.peak == 3 and len(gateway.threads) == 3
    assert cited.counts.claims == (1, 1, 1)
    # With one evidence worker, claims are searched in the order build_references holds them.
    assert search.queries == [f"A claim of passage {i}." for i in (1, 2, 3)]


@pytest.mark.parametrize("max_parallel, expected_peak", [(1, 1), (2, 2), (3, 3), (8, 3)])
def test_build_references_bounds_claim_requests_in_flight(three_part_doc, max_parallel,
                                                          expected_peak):
    kd = split_parts(three_part_doc)
    gateway = _ParallelGateway(kd, max_parallel=max_parallel)
    _references_of(kd, gateway)
    assert gateway.peak == expected_peak
    assert sorted(gateway.done) == [1, 2, 3]


def test_build_references_raises_the_first_failure_in_passage_order(three_part_doc):
    kd = split_parts(three_part_doc)
    gateway = _ParallelGateway(kd, max_parallel=3, order=(3, 2, 1), fail={
        2: GatewayError("second passage"), 3: GatewayError("third passage"),
    })
    with pytest.raises(GatewayError, match="second passage"):
        _references_of(kd, gateway)
    assert gateway.done == [3, 2, 1]


def test_build_references_warns_about_fewer_claims_from_worker_threads(three_part_doc):
    kd = split_parts(three_part_doc)
    gateway = _ParallelGateway(kd, max_parallel=3)
    with pytest.warns(FewerClaimsWarning) as record:
        cited = _references_of(kd, gateway, k=2)
    assert cited.counts.claims == (1, 1, 1)
    assert sorted(str(w.message) for w in record) == [
        f"passage {i}: requested 2 claims but parsed 1" for i in (1, 2, 3)
    ]


def test_recorded_concurrent_claim_requests_lose_no_record(tmp_path):
    """Many overlapping claim requests through a recording gateway, with frequent thread switches."""
    parts = 24
    kd = KnowledgeDocument(parts=tuple(
        KnowledgePart(f"## Part {i}\n", f"Body of part {i}.\n")
        for i in range(1, parts + 1)
    ))
    store = tmp_path / "store.jsonl"
    inner = _ParallelGateway(kd, max_parallel=12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cited = _references_of(kd, RecordingGateway(inner, str(store)))
    finally:
        sys.setswitchinterval(interval)
    assert inner.peak == 12
    assert cited.counts.claims == (1,) * parts
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    assert sorted(r["reply"] for r in records) == sorted(
        f"1. A claim of passage {i}." for i in range(1, parts + 1)
    )


def test_scripted_gateway_sees_claim_sessions_in_passage_order(three_part_doc, registry):
    kd, replies, results = _pipeline_fixture(three_part_doc)
    expected = _Recorder(list(replies))
    for passage_id, part in enumerate(kd.parts, start=1):
        generate_claims(passage_id, part.body.strip(), expected, k=2, registry=registry)
    gateway = ScriptedGateway(replies=list(replies))
    caller = threading.get_ident()
    threads = []
    original = gateway.complete

    def complete(session):
        threads.append(threading.get_ident())
        return original(session)

    gateway.complete = complete
    cited = build_references(kd, gateway, ScriptedSearchClient(results),
                             ConstantNliClient(True), k=2, registry=registry)
    assert gateway.calls == [session_key(s) for s in expected.sessions]
    assert threads == [caller] * 3  # no max_parallel: every call on the caller's thread
    assert cited.citations == (
        ("https://ref0.example", "https://ref1.example"),
        ("https://ref2.example", "https://ref3.example"),
        ("https://ref4.example", "https://ref5.example"),
    )


def test_scripted_clients_from_file(tmp_path):
    search_file = tmp_path / "search.yaml"
    search_file.write_text(
        "strict: true\n"
        "queries:\n"
        "  \"Motors spin.\":\n"
        "    - url: https://a.example\n"
        "      text: motor paragraph\n"
        "    - url: https://b.example\n"
        "      error: timeout\n",
        encoding="utf-8",
    )
    client = ScriptedSearchClient.from_file(search_file)
    hits = client.search("Motors spin.", 5)
    assert hits[0] == SearchHit("https://a.example", text="motor paragraph")
    assert hits[1].error == "timeout"

    nli_file = tmp_path / "nli.yaml"
    nli_file.write_text(
        "strict: false\n"
        "pairs:\n"
        "  - premise: motor paragraph\n"
        "    hypothesis: \"Motors spin.\"\n"
        "    entailed: true\n",
        encoding="utf-8",
    )
    nli = ScriptedNliClient.from_file(nli_file)
    assert nli.judge("motor paragraph", "Motors spin.") is True
    assert nli.judge("other", "Motors spin.") is False
