"""Citation pipeline for knowledge documents.

Each document part becomes one passage.  Per passage the chat gateway
produces short declarative claims, each claim is used as a web-search
query, and an entailment client judges whether a fetched page backs the
claim.  Entailed urls become the passage's citation list.

Fetched pages are checked paragraph by paragraph; the first entailing
paragraph wins for that url.  Search, fetch, and verification may run
concurrently, but results are re-sorted into (passage, claim, rank)
order so output does not depend on completion order.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ._yamlio import load_mapping
from .errors import (
    AutoRecipeError,
    FewerClaimsWarning,
    NliClientError,
    SearchClientError,
    ValidationFailedError,
)
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
    part_label: str
    body: str


@dataclass(frozen=True)
class Claim:
    passage_id: int
    index: int
    statement: str

    @property
    def query(self) -> str:
        return self.statement


@dataclass(frozen=True)
class Evidence:
    passage_id: int
    claim_index: int
    url: str
    snippet: str
    verdict: str
    rank: int = 0

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

class ScriptedSearchClient:
    """File- or dict-backed search results keyed by the exact query string."""

    def __init__(self, results: dict[str, list[SearchHit]], strict: bool = True):
        self.results = results
        self.strict = strict
        self.queries: list[str] = []

    @classmethod
    def from_file(cls, path) -> "ScriptedSearchClient":
        with open(path, encoding="utf-8") as handle:
            data = load_mapping(handle, path, "search script")
        queries = data.get("queries") or {}
        if not isinstance(queries, dict):
            raise ValidationFailedError([f"{path}: search script queries must be a mapping"])
        results, violations = {}, []
        for query, hits in queries.items():
            if not isinstance(hits or [], list):
                violations.append(f"{path}: search script query {query!r}: hits must be a list")
                continue
            results[query] = []
            for n, hit in enumerate(hits or [], start=1):
                where = f"{path}: search script query {query!r} hit {n}"
                if not (isinstance(hit, dict) and isinstance(hit.get("url"), str)):
                    violations.append(f"{where} must be a mapping with a string url")
                    continue
                fields = {name: hit.get(name, "") for name in ("text", "error")}
                wrong = [name for name, value in fields.items() if not isinstance(value, str)]
                violations += [f"{where} {name} must be a string" for name in wrong]
                results[query].append(SearchHit(url=hit["url"], **fields))
        strict = data.get("strict", True)
        if not isinstance(strict, bool):
            violations.append(f"{path}: search script strict must be true or false")
        if violations:
            raise ValidationFailedError(violations)
        return cls(results, strict=strict)

    def search(self, query: str, max_results: int) -> list[SearchHit]:
        self.queries.append(query)
        if query not in self.results:
            if self.strict:
                raise SearchClientError(f"no scripted results for query {query!r}")
            return []
        return list(self.results[query])[:max_results]


_NLI_PAIR_KEYS = {"premise", "hypothesis", "entailed"}


class ScriptedNliClient:
    """Exact-match (premise, hypothesis) verdicts loaded from a file or dict."""

    def __init__(self, pairs: dict[tuple[str, str], bool], strict: bool = False):
        self.pairs = pairs
        self.strict = strict

    @classmethod
    def from_file(cls, path) -> "ScriptedNliClient":
        with open(path, encoding="utf-8") as handle:
            data = load_mapping(handle, path, "NLI script")
        entries = data.get("pairs") or []
        if not isinstance(entries, list):
            raise ValidationFailedError([f"{path}: NLI script pairs must be a list"])
        pairs, violations = {}, []
        for n, entry in enumerate(entries, start=1):
            if not (isinstance(entry, dict) and isinstance(entry.get("premise"), str)
                    and isinstance(entry.get("hypothesis"), str)):
                violations.append(f"{path}: NLI script pair {n} must be a mapping "
                                  "with string premise and hypothesis")
                continue
            unknown = sorted(str(key) for key in entry.keys() - _NLI_PAIR_KEYS)
            if unknown:
                violations.append(f"{path}: NLI script pair {n} has unknown key(s): "
                                  f"{', '.join(unknown)}")
                continue
            entailed = entry.get("entailed", False)
            if not isinstance(entailed, bool):
                violations.append(f"{path}: NLI script pair {n} entailed must be true or false")
            key = (entry["premise"].strip(), entry["hypothesis"].strip())
            pairs[key] = entailed
        strict = data.get("strict", False)
        if not isinstance(strict, bool):
            violations.append(f"{path}: NLI script strict must be true or false")
        if violations:
            raise ValidationFailedError(violations)
        return cls(pairs, strict=strict)

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
        Passage(id=i, part_label=part.label, body=part.body.strip())
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
    system = registry.resolve_role(registry.role("domain-expert"))
    reply = gateway.complete([
        ChatMessage("system", system.body),
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


def _ranked_hits(claim: Claim, search_client, max_results: int) -> list[tuple[int, SearchHit]]:
    if max_results <= 0:
        return []
    try:
        hits = search_client.search(claim.query, max_results)
    except SearchClientError:
        raise
    except Exception as exc:
        raise SearchClientError(f"search provider failed for {claim.query!r}: {exc}") from exc
    return list(enumerate(hits[:max_results]))


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


def _claim_key(claim: Claim) -> str:
    return hashlib.sha256(claim.statement.encode("utf-8")).hexdigest()


def _evidence_for_claim(
    claim: Claim,
    search_client,
    nli_client,
    max_results: int,
    cache: dict | None,
) -> list[Evidence]:
    evidence = []
    for rank, hit in _ranked_hits(claim, search_client, max_results):
        if hit.error or not hit.text.strip():
            verdict, snippet = "error", ""
        else:
            cache_key = (_claim_key(claim), hit.url)
            if cache is not None and cache_key in cache:
                verdict, snippet = cache[cache_key]
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
                if cache is not None:
                    cache[cache_key] = (verdict, snippet)
        evidence.append(Evidence(
            passage_id=claim.passage_id,
            claim_index=claim.index,
            url=hit.url,
            snippet=snippet,
            verdict=verdict,
            rank=rank,
        ))
    return evidence


def collect_evidence(
    claims: Iterable[Claim],
    search_client,
    nli_client,
    max_results: int = DEFAULT_MAX_RESULTS,
    max_workers: int = 4,
    cache: dict | None = None,
) -> list[Evidence]:
    """Search and verify every claim, in deterministic output order."""
    claims = list(claims)
    if max_workers > 1 and len(claims) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            batches = list(pool.map(
                lambda c: _evidence_for_claim(c, search_client, nli_client, max_results, cache),
                claims,
            ))
    else:
        batches = [
            _evidence_for_claim(c, search_client, nli_client, max_results, cache)
            for c in claims
        ]
    evidence = [e for batch in batches for e in batch]
    evidence.sort(key=lambda e: (e.passage_id, e.claim_index, e.rank))
    return evidence


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
    max_results: int = DEFAULT_MAX_RESULTS,
    max_workers: int = 4,
    registry: PromptRegistry | None = None,
    cache: dict | None = None,
) -> CitedDocument:
    """Full pipeline: segment, claim generation, search, entailment, attach.

    Claim requests overlap up to the gateway's ``max_parallel``; a gateway
    without one is asked one passage at a time on the caller's thread.
    Claims keep passage order, and a failure raised is the first in
    passage order.
    """
    passages = segment(kd)
    registry = registry or default_registry()

    def claims_for(passage: Passage) -> list[Claim]:
        return generate_claims(passage, gateway, k=k, registry=registry)

    workers = min(len(passages), getattr(gateway, "max_parallel", 1))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(claims_for, passages))
    else:
        batches = [claims_for(p) for p in passages]
    claims = [claim for batch in batches for claim in batch]
    evidence = collect_evidence(
        claims, search_client, nli_client,
        max_results=max_results, max_workers=max_workers, cache=cache,
    )
    return attach_references(kd, claims, evidence)
