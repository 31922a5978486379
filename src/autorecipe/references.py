"""Citation pipeline for knowledge documents.

Each document part becomes one passage.  Per passage the chat gateway
produces short declarative claims, each claim is used as a web-search
query, and an entailment client judges whether a fetched page backs the
claim.  Entailed urls become the passage's citation list.

Fetched pages are checked paragraph by paragraph; the first entailing
paragraph wins for that url.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

from ._yamlio import BOOL, TEXT, ListOf, MapOf, Record, load_file
from .errors import AutoRecipeError, FewerClaimsWarning, NliClientError, SearchClientError
from .execution import KnowledgeDocument
from .gateway import ChatMessage
from .prompts import PromptRegistry, default_registry, instantiate

__all__ = [
    "VERDICTS",
    "Passage",
    "Claim",
    "Evidence",
    "SearchHit",
    "ReferenceCounts",
    "CitedDocument",
    "ScriptedSearchClient",
    "ScriptedNliClient",
    "ConstantNliClient",
    "segment",
    "generate_claims",
    "verify",
    "collect_evidence",
    "attach_references",
    "render_cited",
    "build_references",
]

VERDICTS = ("entailed", "not-entailed", "error")

DEFAULT_CLAIMS_PER_PASSAGE = 3
DEFAULT_MAX_RESULTS = 5


@dataclass(frozen=True)
class Passage:
    id: int
    body: str


@dataclass(frozen=True)
class Claim:
    passage_id: int
    index: int
    statement: str


@dataclass(frozen=True)
class Evidence:
    passage_id: int
    claim_index: int
    url: str
    snippet: str
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")
        if self.verdict == "entailed" and not self.snippet.strip():
            raise ValueError("entailed evidence requires a non-empty snippet")


@dataclass(frozen=True)
class SearchHit:
    """One search result: either fetched text or a fetch error."""

    url: str
    text: str = ""
    error: str = ""


@dataclass(frozen=True)
class ReferenceCounts:
    claims: tuple[int, ...]
    urls_identified: tuple[int, ...]
    urls_validated: tuple[int, ...]


@dataclass(frozen=True)
class CitedDocument:
    document: KnowledgeDocument
    citations: tuple[tuple[str, ...], ...]
    counts: ReferenceCounts


# --- scripted clients ---------------------------------------------------------

_SEARCH_SCRIPT = Record(optional={
    "queries": MapOf(TEXT, ListOf(Record(required={"url": TEXT},
                                         optional={"text": TEXT, "error": TEXT}))),
    "strict": BOOL,
})


class ScriptedSearchClient:
    """File- or dict-backed search results keyed by the exact query string."""

    def __init__(self, results: dict[str, list[SearchHit]], strict: bool = True):
        self.results = results
        self.strict = strict
        self.queries: list[str] = []

    @classmethod
    def from_file(cls, path) -> "ScriptedSearchClient":
        data = load_file(path, "search script", _SEARCH_SCRIPT)
        results = {
            query: [SearchHit(hit["url"], hit.get("text") or "", hit.get("error") or "")
                    for hit in hits]
            for query, hits in (data.get("queries") or {}).items()
        }
        return cls(results, strict=data.get("strict") is not False)

    def search(self, query: str, max_results: int) -> list[SearchHit]:
        self.queries.append(query)
        if query not in self.results:
            if self.strict:
                raise SearchClientError(f"no scripted results for query {query!r}")
            return []
        return list(self.results[query])[:max_results]


_NLI_SCRIPT = Record(optional={
    "pairs": ListOf(Record(required={"premise": TEXT, "hypothesis": TEXT},
                           optional={"entailed": BOOL})),
    "strict": BOOL,
})


class ScriptedNliClient:
    """Exact-match (premise, hypothesis) verdicts loaded from a file or dict."""

    def __init__(self, pairs: dict[tuple[str, str], bool], strict: bool = False):
        self.pairs = pairs
        self.strict = strict

    @classmethod
    def from_file(cls, path) -> "ScriptedNliClient":
        data = load_file(path, "NLI script", _NLI_SCRIPT)
        pairs = {
            (pair["premise"].strip(), pair["hypothesis"].strip()): bool(pair.get("entailed"))
            for pair in data.get("pairs") or []
        }
        return cls(pairs, strict=bool(data.get("strict")))

    def judge(self, premise: str, hypothesis: str) -> bool:
        key = (premise.strip(), hypothesis.strip())
        if key in self.pairs:
            return self.pairs[key]
        if self.strict:
            raise NliClientError("no scripted verdict for this premise/hypothesis pair")
        return False


class ConstantNliClient:
    def __init__(self, entailed: bool):
        self.entailed = entailed

    def judge(self, premise: str, hypothesis: str) -> bool:
        return self.entailed


# --- pipeline steps -----------------------------------------------------------

def segment(kd: KnowledgeDocument) -> list[Passage]:
    """One passage per document part, ids contiguous from 1."""
    if not kd.parts:
        raise AutoRecipeError("knowledge document has no parts to segment")
    return [
        Passage(id=i, body=part.body.strip())
        for i, part in enumerate(kd.parts, start=1)
    ]


_LIST_PREFIX = re.compile(r"^\s*(?:[-*+]|\d+[.)]|claim\s*\d+\s*:)\s*", re.IGNORECASE)
_MARKDOWN_NOISE = re.compile(r"[*_`#]+")
_SENTENCE_SPLIT = re.compile(r"(?<=\.)\s+")


def _parse_claim_sentences(reply: str) -> list[str]:
    lines = [line.strip() for line in reply.splitlines() if line.strip()]
    candidates: list[str] = []
    for line in lines:
        cleaned = _MARKDOWN_NOISE.sub("", _LIST_PREFIX.sub("", line)).strip()
        if cleaned:
            candidates.append(cleaned)
    if len(candidates) == 1:
        candidates = [s.strip() for s in _SENTENCE_SPLIT.split(candidates[0]) if s.strip()]
    return [c for c in candidates if c.endswith(".")]


def generate_claims(
    passage: Passage,
    gateway,
    k: int = DEFAULT_CLAIMS_PER_PASSAGE,
    registry: PromptRegistry | None = None,
) -> list[Claim]:
    """Up to k single-sentence claims for one passage.

    Emits a warning and returns fewer when the gateway reply yields
    fewer parseable sentences than requested.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not passage.body.strip():
        raise AutoRecipeError(f"passage {passage.id} has an empty body; nothing to ask about")
    registry = registry or default_registry()
    template = registry.get("claims.extract")
    prompt = instantiate(template, {"claim_count": str(k), "passage": passage.body})
    system = registry.get(registry.role("domain-expert")).body
    reply = gateway.complete([
        ChatMessage("system", system),
        ChatMessage("user", prompt),
    ])
    sentences = _parse_claim_sentences(reply)[:k]
    if len(sentences) < k:
        warnings.warn(
            f"passage {passage.id}: requested {k} claims but parsed {len(sentences)}",
            FewerClaimsWarning,
        )
    return [
        Claim(passage_id=passage.id, index=i, statement=s)
        for i, s in enumerate(sentences, start=1)
    ]


def _search(claim: Claim, search_client) -> list[SearchHit]:
    try:
        hits = search_client.search(claim.statement, DEFAULT_MAX_RESULTS)
    except SearchClientError:
        raise
    except Exception as exc:
        raise SearchClientError(f"search provider failed for {claim.statement!r}: {exc}") from exc
    return hits[:DEFAULT_MAX_RESULTS]


def verify(claim: Claim, candidate_text: str, nli_client) -> str:
    """Entailment verdict for premise=candidate text, hypothesis=claim."""
    if not candidate_text.strip():
        raise ValueError("candidate text must be non-empty")
    try:
        entailed = nli_client.judge(candidate_text, claim.statement)
    except NliClientError:
        return "error"
    return "entailed" if entailed else "not-entailed"


def _paragraphs(text: str) -> list[str]:
    parts = [p.strip() for p in re.split(r"\n\s*\n", text)]
    return [p for p in parts if p]


def _evidence_for_claim(claim: Claim, search_client, nli_client) -> list[Evidence]:
    evidence = []
    for hit in _search(claim, search_client):
        if hit.error or not hit.text.strip():
            verdict, snippet = "error", ""
        else:
            verdict, snippet = "not-entailed", ""
            for paragraph in _paragraphs(hit.text):
                result = verify(claim, paragraph, nli_client)
                if result == "entailed":
                    verdict, snippet = "entailed", paragraph
                    break
                if result == "error":
                    verdict = "error"
            if verdict == "error":
                snippet = ""
        evidence.append(Evidence(
            passage_id=claim.passage_id,
            claim_index=claim.index,
            url=hit.url,
            snippet=snippet,
            verdict=verdict,
        ))
    return evidence


def _map_in_order(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` threads.

    With one worker, or one item, everything runs on the caller's thread.
    Results keep input order, and the failure raised is the first in
    input order.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here, where a pool starts: it costs a one-worker run its
    # start-up time, and it loads ``logging``.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def collect_evidence(claims: Iterable[Claim], search_client, nli_client) -> list[Evidence]:
    """Search and verify every claim on the caller's thread: evidence in
    claim order, and within a claim in hit order."""
    return [e for claim in claims for e in _evidence_for_claim(claim, search_client, nli_client)]


def attach_references(
    kd: KnowledgeDocument, claims: Iterable[Claim], evidence: Iterable[Evidence]
) -> CitedDocument:
    """Unique entailed urls per passage, in discovery order."""
    n = len(kd.parts)
    claims_per_part = [0] * n
    for claim in claims:
        claims_per_part[claim.passage_id - 1] += 1
    cited: list[list[str]] = [[] for _ in range(n)]
    identified: list[set[str]] = [set() for _ in range(n)]
    for item in evidence:
        slot = item.passage_id - 1
        identified[slot].add(item.url)
        if item.verdict == "entailed" and item.url not in cited[slot]:
            cited[slot].append(item.url)
    counts = ReferenceCounts(
        claims=tuple(claims_per_part),
        urls_identified=tuple(len(s) for s in identified),
        urls_validated=tuple(len(c) for c in cited),
    )
    return CitedDocument(
        document=kd,
        citations=tuple(tuple(c) for c in cited),
        counts=counts,
    )


def render_cited(cited: CitedDocument) -> str:
    """Document text with a numbered reference list appended to each part."""
    pieces = [cited.document.preamble]
    for part, urls in zip(cited.document.parts, cited.citations):
        pieces.append(part.text)
        if urls:
            listing = "\n".join(f"{i}. {url}" for i, url in enumerate(urls, start=1))
            pieces.append(f"\nReferences:\n{listing}\n")
    return "".join(pieces)


def build_references(
    kd: KnowledgeDocument,
    gateway,
    search_client,
    nli_client,
    k: int = DEFAULT_CLAIMS_PER_PASSAGE,
    registry: PromptRegistry | None = None,
) -> CitedDocument:
    """Full pipeline: segment, claim generation, search, entailment, attach.

    Claim requests overlap up to the gateway's ``max_parallel``; a gateway
    without one is asked one passage at a time on the caller's thread.
    Claims keep passage order, and a failure raised is the first in
    passage order.  Search and entailment then run one claim at a time on
    the caller's thread.
    """
    passages = segment(kd)
    registry = registry or default_registry()

    def claims_for(passage: Passage) -> list[Claim]:
        return generate_claims(passage, gateway, k=k, registry=registry)

    batches = _map_in_order(claims_for, passages, getattr(gateway, "max_parallel", 1))
    claims = [claim for batch in batches for claim in batch]
    evidence = collect_evidence(claims, search_client, nli_client)
    return attach_references(kd, claims, evidence)
