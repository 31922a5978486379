"""Claim extraction, search, entailment checks, and citation assembly."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from autorecipe.errors import (
    AutoRecipeError,
    FewerClaimsWarning,
    GatewayError,
    SearchClientError,
)
from autorecipe.execution import KnowledgeDocument, KnowledgePart, split_parts
from autorecipe.gateway import RecordingGateway, ScriptedGateway, session_key
from autorecipe.references import (
    DEFAULT_MAX_RESULTS,
    Claim,
    ConstantNliClient,
    Evidence,
    Passage,
    ScriptedNliClient,
    ScriptedSearchClient,
    SearchHit,
    attach_references,
    build_references,
    collect_evidence,
    generate_claims,
    render_cited,
    segment,
    verify,
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


class _CountingNli:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def judge(self, premise, hypothesis):
        self.calls += 1
        return self.inner.judge(premise, hypothesis)


def _passage(body: str = "An electric motor converts energy.") -> Passage:
    return Passage(id=1, body=body)


# --- segmentation ---------------------------------------------------------------

def test_segment_assigns_contiguous_ids(three_part_doc):
    document = split_parts(three_part_doc)
    passages = segment(document)
    assert [p.id for p in passages] == [1, 2, 3]
    assert [p.body for p in passages] == [part.body.strip() for part in document.parts]
    assert passages[0].body.startswith("An electric motor")
    assert passages[0].body == passages[0].body.strip()


def test_segment_rejects_empty_document():
    with pytest.raises(AutoRecipeError, match="^knowledge document has no parts to segment$"):
        segment(KnowledgeDocument(parts=()))


# --- claim generation --------------------------------------------------------------

def test_generate_claims_numbered_list(registry):
    reply = (
        "1. Wind turbines convert wind into electricity.\n"
        "2. Gearboxes multiply rotor speed.\n"
        "3. Generators output alternating current.\n"
    )
    claims = generate_claims(_passage(), _Recorder([reply]), k=3, registry=registry)
    assert [c.index for c in claims] == [1, 2, 3]
    assert claims[0].statement == "Wind turbines convert wind into electricity."
    assert claims[1].statement == "Gearboxes multiply rotor speed."
    assert all(c.passage_id == 1 for c in claims)


def test_generate_claims_strips_bullets_and_markdown(registry):
    reply = (
        "* The rotor converts wind energy.\n"
        "2) Gears transfer torque.\n"
        "Claim 3: **Bearings** degrade over time.\n"
    )
    claims = generate_claims(_passage(), _Recorder([reply]), k=3, registry=registry)
    assert [c.statement for c in claims] == [
        "The rotor converts wind energy.",
        "Gears transfer torque.",
        "Bearings degrade over time.",
    ]


def test_generate_claims_splits_single_paragraph(registry):
    reply = "The hub holds blades. The tower supports the nacelle. The generator makes power."
    claims = generate_claims(_passage(), _Recorder([reply]), k=3, registry=registry)
    assert [c.statement for c in claims] == [
        "The hub holds blades.",
        "The tower supports the nacelle.",
        "The generator makes power.",
    ]


def test_generate_claims_warns_when_fewer_parse(registry):
    reply = "Only one full sentence here.\nno trailing period on this line"
    with pytest.warns(FewerClaimsWarning):
        claims = generate_claims(_passage(), _Recorder([reply]), k=3, registry=registry)
    assert len(claims) == 1


def test_generate_claims_truncates_to_k(registry):
    reply = "\n".join(f"{i}. Sentence number {i} is true." for i in range(1, 6))
    claims = generate_claims(_passage(), _Recorder([reply]), k=3, registry=registry)
    assert len(claims) == 3


def test_generate_claims_prompt_contents(registry):
    gateway = _Recorder(["1. Something is true."])
    with pytest.warns(FewerClaimsWarning):
        generate_claims(_passage("The stator stays put."), gateway, k=2, registry=registry)
    session = gateway.sessions[0]
    assert session[0].role == "system"
    assert session[0].content == registry.resolve_role(registry.role("domain-expert")).body
    assert "The stator stays put." in session[1].content
    assert "2" in session[1].content


def test_generate_claims_argument_validation(registry):
    with pytest.raises(ValueError):
        generate_claims(_passage(), _Recorder([]), k=0, registry=registry)
    with pytest.raises(AutoRecipeError, match="^passage 1 has an empty body; nothing to ask about"):
        generate_claims(_passage("   "), _Recorder([]), registry=registry)


# --- search ---------------------------------------------------------------------------
# A claim is searched as a query inside collect_evidence and build_references.

def test_search_claim_separates_fetches_from_failures():
    claim = Claim(1, 1, "Motors contain bearings.")
    client = ScriptedSearchClient({
        "Motors contain bearings.": [
            SearchHit("https://a.example", text="bearing text"),
            SearchHit("https://b.example", error="timeout"),
            SearchHit("https://c.example", text="   "),
        ],
    })
    nli = _CountingNli(ConstantNliClient(True))
    evidence = collect_evidence([claim], client, nli, max_workers=1)
    assert [(e.url, e.verdict, e.snippet, e.rank) for e in evidence] == [
        ("https://a.example", "entailed", "bearing text", 0),
        ("https://b.example", "error", "", 1),
        ("https://c.example", "error", "", 2),
    ]
    assert nli.calls == 1  # failed fetches are never judged
    assert client.queries == ["Motors contain bearings."]


def test_search_claim_respects_max_results():
    client = _FloodingSearch()
    evidence = collect_evidence([Claim(1, 1, "q.")], client, ConstantNliClient(True))
    assert [e.url for e in evidence] == [f"https://{i}.example" for i in range(DEFAULT_MAX_RESULTS)]
    assert client.asked == [DEFAULT_MAX_RESULTS]


def test_search_claim_strict_and_lenient_misses(three_part_doc):
    claim = Claim(1, 1, "unknown query.")
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
        collect_evidence([Claim(1, 1, "q.")], _FaultySearch(), ConstantNliClient(True))
    kd, replies, _ = _pipeline_fixture(three_part_doc)
    with pytest.raises(SearchClientError, match="socket closed"):
        build_references(
            kd, ScriptedGateway(replies=list(replies)), _FaultySearch(),
            ConstantNliClient(True), k=2,
        )


# --- verification -----------------------------------------------------------------------

def test_verify_verdicts():
    claim = Claim(1, 1, "The sky is blue.")
    assert verify(claim, "evidence text", ConstantNliClient(True)) == "entailed"
    assert verify(claim, "evidence text", ConstantNliClient(False)) == "not-entailed"


def test_verify_error_verdict_on_strict_miss():
    claim = Claim(1, 1, "The sky is blue.")
    strict = ScriptedNliClient({}, strict=True)
    assert verify(claim, "evidence text", strict) == "error"


def test_verify_scripted_pairs_match_after_stripping():
    claim = Claim(1, 1, "Motors spin.")
    client = ScriptedNliClient({("premise text", "Motors spin."): True})
    assert verify(claim, "  premise text  ", client) == "entailed"


def test_verify_rejects_empty_candidate():
    with pytest.raises(ValueError):
        verify(Claim(1, 1, "x."), "   ", ConstantNliClient(True))


def test_evidence_validation():
    with pytest.raises(ValueError):
        Evidence(1, 1, "https://a", "", "maybe")
    with pytest.raises(ValueError):
        Evidence(1, 1, "https://a", "", "entailed")


# --- evidence collection ------------------------------------------------------------------

def _single_hit_client(text: str) -> ScriptedSearchClient:
    return ScriptedSearchClient({"c.": [SearchHit("https://a.example", text=text)]})


def test_collect_evidence_first_entailing_paragraph_wins():
    claim = Claim(1, 1, "c.")
    text = "first paragraph\n\nsecond paragraph\n\nthird paragraph"
    client = ScriptedNliClient({
        ("second paragraph", "c."): True,
        ("third paragraph", "c."): True,
    })
    evidence = collect_evidence([claim], _single_hit_client(text), client, max_workers=1)
    assert len(evidence) == 1
    assert evidence[0].verdict == "entailed"
    assert evidence[0].snippet == "second paragraph"


def test_collect_evidence_not_entailed_without_match():
    claim = Claim(1, 1, "c.")
    evidence = collect_evidence(
        [claim], _single_hit_client("one\n\ntwo"), ConstantNliClient(False), max_workers=1
    )
    assert evidence[0].verdict == "not-entailed"
    assert evidence[0].snippet == ""


def test_collect_evidence_error_verdict_when_judgement_fails():
    claim = Claim(1, 1, "c.")
    strict = ScriptedNliClient({}, strict=True)
    evidence = collect_evidence(
        [claim], _single_hit_client("one\n\ntwo"), strict, max_workers=1
    )
    assert evidence[0].verdict == "error"
    assert evidence[0].snippet == ""


def test_collect_evidence_recovers_after_judgement_error():
    claim = Claim(1, 1, "c.")
    client = ScriptedNliClient({("two", "c."): True}, strict=True)
    evidence = collect_evidence(
        [claim], _single_hit_client("one\n\ntwo"), client, max_workers=1
    )
    assert evidence[0].verdict == "entailed"
    assert evidence[0].snippet == "two"


def test_collect_evidence_sorted_and_parallel_deterministic():
    claims = [Claim(p, c, f"claim {p}-{c}.") for p in (1, 2) for c in (1, 2, 3)]
    results = {}
    for claim in claims:
        results[claim.statement] = [
            SearchHit(f"https://{claim.passage_id}-{claim.index}-{r}.example", text="body text")
            for r in range(3)
        ]
    runs = []
    for _ in range(10):
        evidence = collect_evidence(
            claims, ScriptedSearchClient(results), ConstantNliClient(True), max_workers=8
        )
        runs.append(evidence)
    serial = collect_evidence(
        claims, ScriptedSearchClient(results), ConstantNliClient(True), max_workers=1
    )
    assert all(run == runs[0] for run in runs)
    assert runs[0] == serial
    keys = [(e.passage_id, e.claim_index, e.rank) for e in serial]
    assert keys == sorted(keys)
    assert all(e.verdict == "entailed" for e in serial)


def test_always_true_and_always_false_judges(three_part_doc):
    kd = split_parts(three_part_doc)
    claims = [Claim(p, 1, f"claim for part {p}.") for p in (1, 2, 3)]
    results = {
        c.statement: [SearchHit(f"https://{c.passage_id}.example", text="para")] for c in claims
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
        [Claim(1, i, f"p1 claim {i}.") for i in (1, 2, 3)]
        + [Claim(2, i, f"p2 claim {i}.") for i in (1, 2)]
        + [Claim(3, i, f"p3 claim {i}.") for i in (1, 2, 3)]
    )
    evidence = [
        Evidence(1, 1, "https://a.example", "snip", "entailed", rank=0),
        Evidence(1, 2, "https://a.example", "snip", "entailed", rank=0),  # repeat url
        Evidence(1, 2, "https://b.example", "snip", "entailed", rank=1),
        Evidence(1, 3, "https://c.example", "", "not-entailed", rank=0),
        Evidence(2, 1, "https://d.example", "snip", "entailed", rank=0),
        Evidence(2, 2, "https://e.example", "", "error", rank=0),
        Evidence(3, 1, "https://f.example", "", "not-entailed", rank=0),
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
    claims = [Claim(1, 1, "lonely claim.")]
    cited = attach_references(kd, claims, [])
    assert cited.counts.claims == (1, 0, 0)
    assert cited.counts.urls_identified == (0, 0, 0)
    assert cited.counts.urls_validated == (0, 0, 0)


def test_render_cited_appends_numbered_references(three_part_doc):
    kd = split_parts(three_part_doc)
    claims = [Claim(1, 1, "c1."), Claim(3, 1, "c3.")]
    evidence = [
        Evidence(1, 1, "https://a.example", "s", "entailed", rank=0),
        Evidence(1, 1, "https://b.example", "s", "entailed", rank=1),
        Evidence(3, 1, "https://c.example", "s", "entailed", rank=0),
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
            max_workers=8,
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
        self.bodies = [p.body for p in segment(kd)]
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
    return build_references(kd, gateway, search, ConstantNliClient(True), k=k, max_workers=1)


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
        KnowledgePart(f"part-{i}", f"## Part {i}\n", f"Body of part {i}.\n")
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
    for passage in segment(kd):
        generate_claims(passage, expected, k=2, registry=registry)
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
