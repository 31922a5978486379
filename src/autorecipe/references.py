"""Citation pipeline for knowledge documents.

Each document part's stripped body is one passage.  Per passage the chat
gateway produces short declarative claims, each claim is used as a
web-search query, and an entailment client judges whether a fetched page
backs the claim.  Entailed urls become the passage's citation list.

A search hit is entailed when it has no fetch error and one of its
paragraphs entails the claim.  Paragraphs are judged in page order, and
judging stops at the first that entails it.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Iterable, Sequence

from ._struct import Struct
from ._yamlio import BOOL, TEXT, ListOf, MapOf, Record, load_file
from .errors import AutoRecipeError, FewerClaimsWarning, SearchClientError
from .execution import KnowledgeDocument
from .gateway import ChatMessage, _reply_lines
from .prompts import PromptRegistry, default_registry, instantiate

__all__ = [
    "SearchHit",
    "ReferenceCounts",
    "CitedDocument",
    "ScriptedSearchClient",
    "ScriptedNliClient",
    "ConstantNliClient",
    "generate_claims",
    "collect_evidence",
    "attach_references",
    "render_cited",
    "build_references",
]

DEFAULT_CLAIMS_PER_PASSAGE = 3
DEFAULT_MAX_RESULTS = 5


class SearchHit(Struct):
    """One search result: either fetched text or a fetch error."""

    url: str
    text: str = ""
    error: str = ""


class ReferenceCounts(Struct):
    claims: tuple[int, ...]
    urls_identified: tuple[int, ...]
    urls_validated: tuple[int, ...]


class CitedDocument(Struct):
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
    # Read and checked, but it changes nothing: a pair the script does not
    # hold is never entailed.
    "strict": BOOL,
})


class ScriptedNliClient:
    """Exact-match (premise, hypothesis) verdicts loaded from a file or dict;
    a pair it does not hold is not entailed."""

    def __init__(self, pairs: dict[tuple[str, str], bool]):
        self.pairs = pairs

    @classmethod
    def from_file(cls, path) -> "ScriptedNliClient":
        data = load_file(path, "NLI script", _NLI_SCRIPT)
        return cls({
            (pair["premise"].strip(), pair["hypothesis"].strip()): bool(pair.get("entailed"))
            for pair in data.get("pairs") or []
        })

    def judge(self, premise: str, hypothesis: str) -> bool:
        return self.pairs.get((premise.strip(), hypothesis.strip()), False)


class ConstantNliClient:
    def __init__(self, entailed: bool):
        self.entailed = entailed

    def judge(self, premise: str, hypothesis: str) -> bool:
        return self.entailed


# --- pipeline steps -----------------------------------------------------------

_LIST_PREFIX = re.compile(r"^\s*(?:[-*+]|\d+[.)]|claim\s*\d+\s*:)\s*", re.IGNORECASE)
_MARKDOWN_NOISE = re.compile(r"[*_`#]+")
_SENTENCE_SPLIT = re.compile(r"(?<=\.)\s+")


def _parse_claim_sentences(reply: str) -> list[str]:
    lines = [line.strip() for line in _reply_lines(reply) if line.strip()]
    candidates: list[str] = []
    for line in lines:
        cleaned = _MARKDOWN_NOISE.sub("", _LIST_PREFIX.sub("", line)).strip()
        if cleaned:
            candidates.append(cleaned)
    if len(candidates) == 1:
        candidates = [s.strip() for s in _SENTENCE_SPLIT.split(candidates[0]) if s.strip()]
    return [c for c in candidates if c.endswith(".")]


def generate_claims(
    passage_id: int,
    passage: str,
    gateway,
    k: int = DEFAULT_CLAIMS_PER_PASSAGE,
    registry: PromptRegistry | None = None,
) -> list[tuple[int, str]]:
    """Up to k single-sentence claims for one passage, the stripped body
    of document part ``passage_id``, each a ``(passage_id, statement)``
    tuple.

    Emits a warning and returns fewer when the gateway reply yields
    fewer parseable sentences than requested.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not passage.strip():
        raise AutoRecipeError(f"passage {passage_id} has an empty body; nothing to ask about")
    registry = registry or default_registry()
    prompt = instantiate(registry, "claims.extract", {"claim_count": str(k), "passage": passage})
    system = registry.get(registry.role("domain-expert"))
    reply = gateway.complete([
        ChatMessage("system", system),
        ChatMessage("user", prompt),
    ])
    sentences = _parse_claim_sentences(reply)[:k]
    if len(sentences) < k:
        warnings.warn(
            f"passage {passage_id}: requested {k} claims but parsed {len(sentences)}",
            FewerClaimsWarning,
        )
    return [(passage_id, s) for s in sentences]


def _search(statement: str, search_client) -> list[SearchHit]:
    try:
        hits = search_client.search(statement, DEFAULT_MAX_RESULTS)
    except SearchClientError:
        raise
    except Exception as exc:
        raise SearchClientError(f"search provider failed for {statement!r}: {exc}") from exc
    return hits[:DEFAULT_MAX_RESULTS]


def _paragraphs(text: str) -> list[str]:
    parts = [p.strip() for p in re.split(r"\n\s*\n", text)]
    return [p for p in parts if p]


def _entailed(statement: str, hit: SearchHit, nli_client) -> bool:
    """Premise a paragraph of the page, hypothesis the claim; a fetch error
    is judged not at all."""
    return not hit.error and any(
        nli_client.judge(paragraph, statement) for paragraph in _paragraphs(hit.text)
    )


def _map_in_order(fn, items: Sequence, workers: int) -> list:
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


def collect_evidence(
    claims: Iterable[tuple[int, str]], search_client, nli_client
) -> list[tuple[int, str, bool]]:
    """Search and judge every ``(passage_id, statement)`` claim on the
    caller's thread: one ``(passage_id, url, entailed)`` per search hit, in
    claim order and, within a claim, in hit order."""
    return [
        (passage_id, hit.url, _entailed(statement, hit, nli_client))
        for passage_id, statement in claims
        for hit in _search(statement, search_client)
    ]


def attach_references(
    kd: KnowledgeDocument,
    claims: Iterable[tuple[int, str]],
    evidence: Iterable[tuple[int, str, bool]],
) -> CitedDocument:
    """Unique entailed urls per passage, in discovery order; ``claims`` and
    ``evidence`` hold ``generate_claims``'s and ``collect_evidence``'s tuples."""
    n = len(kd.parts)
    claims_per_part = [0] * n
    for passage_id, _ in claims:
        claims_per_part[passage_id - 1] += 1
    cited: list[list[str]] = [[] for _ in range(n)]
    identified: list[set[str]] = [set() for _ in range(n)]
    for passage_id, url, entailed in evidence:
        slot = passage_id - 1
        identified[slot].add(url)
        if entailed and url not in cited[slot]:
            cited[slot].append(url)
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
    """Full pipeline: claim generation, search, entailment, attach.

    Passage ``i`` is the stripped body of part ``i``, counted from 1.
    The claim requests overlap up to the gateway's ``max_parallel``; a gateway
    without one is asked one passage at a time on the caller's thread.
    Claims keep passage order, and a failure raised is the first in
    passage order.  Search and entailment then run one claim at a time on
    the caller's thread.
    """
    registry = registry or default_registry()

    def claims_for(passage_id: int) -> list[tuple[int, str]]:
        body = kd.parts[passage_id - 1].body.strip()
        return generate_claims(passage_id, body, gateway, k=k, registry=registry)

    passage_ids = range(1, len(kd.parts) + 1)
    batches = _map_in_order(claims_for, passage_ids, getattr(gateway, "max_parallel", 1))
    claims = [claim for batch in batches for claim in batch]
    evidence = collect_evidence(claims, search_client, nli_client)
    return attach_references(kd, claims, evidence)
