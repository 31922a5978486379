"""Rooted, labeled KPI taxonomy graphs.

A taxonomy is a rooted acyclic graph whose edges carry a relation word,
loaded from a small YAML document::

    kpi: asset health
    edges:
      - {parent: asset health, relation: analyzed, child: component quality}

Node identity is case-insensitive and whitespace-normalized; the
first-seen spelling is kept for display.  Shared subtrees (several
parents for one child) are allowed, cycles are not.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field

from ._yamlio import TEXT, ListOf, Record, load_checked
from .errors import AutoRecipeError, CycleDetectedError, MultipleRootsError

__all__ = [
    "TaxonNode",
    "TaxonEdge",
    "Taxonomy",
    "normalize_name",
    "parse_taxonomy",
    "render_statements",
    "traverse_top_down",
    "descendant_mentions",
]

# Relation stems that mark a leaf child as a measurement rather than a factor.
_MEASUREMENT_STEMS = ("measur", "record", "sampl", "source")

@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore its previous state.

    Everything a parse allocates stays alive until it ends, so on a large
    document the collector's passes rescan the growing document and
    taxonomy again and again and free nothing.  Reference counting goes on
    meanwhile; a cycle (a recursive YAML alias) waits for the next pass.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def normalize_name(name: str) -> str:
    """Canonical node identity: collapse whitespace, case-fold."""
    return " ".join(name.split()).casefold()


@dataclass(frozen=True)
class TaxonNode:
    id: str
    label: str
    kind: str  # kpi-root | factor | measurement


@dataclass(frozen=True)
class TaxonEdge:
    parent: str  # node id
    relation: str
    child: str  # node id


@dataclass(frozen=True)
class Taxonomy:
    root: str
    nodes: dict[str, TaxonNode]
    edges: tuple[TaxonEdge, ...]
    _children: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)

    @property
    def root_label(self) -> str:
        return self.nodes[self.root].label

    def node_id(self, name: str) -> str:
        nid = normalize_name(name)
        if nid not in self.nodes:
            raise AutoRecipeError(f"unknown node: {name!r}")
        return nid

    def kind(self, name: str) -> str:
        return self.nodes[self.node_id(name)].kind

    def children(self, name: str) -> tuple[str, ...]:
        """Child node ids in edge-declaration order, duplicates removed."""
        return self._children.get(self.node_id(name), ())


# Labels are strings; a blank or absent one is reported by its edge below.
_TAXONOMY = Record(optional={
    "kpi": TEXT,
    "edges": ListOf(Record(optional={"parent": TEXT, "relation": TEXT, "child": TEXT})),
})


def _require_field(record: dict, key: str, position: int) -> str:
    text = " ".join((record.get(key) or "").split())
    if not text:
        raise AutoRecipeError(f"edge {position} has no {key}")
    return text


@_collector_paused()
def parse_taxonomy(text: str) -> Taxonomy:
    """Parse and validate a taxonomy document.

    Raises CycleDetectedError naming one cycle, MultipleRootsError when
    more than one node lacks an incoming edge, ValidationFailedError for a
    document of the wrong shape, and AutoRecipeError for blank or
    root-less documents and incomplete edge records.
    """
    if not text or not text.strip():
        raise AutoRecipeError("taxonomy document is empty")
    doc = load_checked(text, "taxonomy document", "taxonomy", _TAXONOMY)
    root_label = " ".join((doc.get("kpi") or "").split())
    if not root_label:
        raise AutoRecipeError("taxonomy document declares no kpi root")

    labels: dict[str, str] = {}  # id -> first-seen display label

    def intern(label: str) -> str:
        nid = normalize_name(label)
        labels.setdefault(nid, label)
        return nid

    root = intern(root_label)

    edges: list[TaxonEdge] = []
    for i, record in enumerate(doc.get("edges") or [], 1):
        parent = intern(_require_field(record, "parent", i))
        relation = _require_field(record, "relation", i)
        child = intern(_require_field(record, "child", i))
        edges.append(TaxonEdge(parent, relation, child))

    # Ordered sets (dict keys) of children and parents, plus each child's
    # casefolded incoming relations: one pass over the edges.
    children: dict[str, dict[str, None]] = {nid: {} for nid in labels}
    parents: dict[str, dict[str, None]] = {nid: {} for nid in labels}
    relations: dict[str, list[str]] = {nid: [] for nid in labels}
    for e in edges:
        children[e.parent][e.child] = None
        parents[e.child][e.parent] = None
        relations[e.child].append(e.relation.casefold())

    _reject_cycles(labels, children, parents)

    # With no cycle, walking parents up from any node ends at a parentless
    # one; so when the root is the only such node, every node reaches it.
    extra = [labels[nid] for nid in labels if not parents[nid] and nid != root]
    if extra:
        raise MultipleRootsError([root_label] + extra)

    nodes = {
        nid: TaxonNode(nid, label, _node_kind(nid, root, relations[nid], children[nid]))
        for nid, label in labels.items()
    }
    frozen_children = {nid: tuple(kids) for nid, kids in children.items()}
    return Taxonomy(root=root, nodes=nodes, edges=tuple(edges), _children=frozen_children)


def _node_kind(nid: str, root: str, relations: list[str], children: dict[str, None]) -> str:
    """Kind of one node from its own children and casefolded incoming relations."""
    if nid == root:
        return "kpi-root"
    if not children:
        if any(stem in rel for rel in relations for stem in _MEASUREMENT_STEMS):
            return "measurement"
    return "factor"


def _reject_cycles(labels, children, parents) -> None:
    in_deg = {nid: len(parents[nid]) for nid in labels}
    queue = [nid for nid, d in in_deg.items() if d == 0]
    removed = 0
    while queue:
        nid = queue.pop()
        removed += 1
        for c in children[nid]:
            in_deg[c] -= 1
            if in_deg[c] == 0:
                queue.append(c)
    if removed == len(labels):
        return
    # Walk parents inside the residual graph until a node repeats.
    residual = {nid for nid, d in in_deg.items() if d > 0}
    node = next(iter(sorted(residual)))
    seen: list[str] = []
    while node not in seen:
        seen.append(node)
        node = next(p for p in parents[node] if p in residual)
    cycle = seen[seen.index(node):] + [node]
    cycle.reverse()  # report in parent -> child direction
    raise CycleDetectedError([labels[nid] for nid in cycle])


def render_statements(tax: Taxonomy) -> list[str]:
    """One line per fact: the root line, then '<parent> is <relation> by <child>'."""
    lines = [f"{tax.root_label} is root node"]
    for e in tax.edges:
        lines.append(f"{tax.nodes[e.parent].label} is {e.relation} by {tax.nodes[e.child].label}")
    return lines


def traverse_top_down(tax: Taxonomy, start: str) -> list[str]:
    """Depth-first pre-order labels from start, children in edge order.

    Nodes shared between branches are visited exactly once.
    """
    start_id = tax.node_id(start)
    order: list[str] = []
    visited: set[str] = set()
    stack = [start_id]
    while stack:
        nid = stack.pop()
        if nid in visited:
            continue
        visited.add(nid)
        order.append(tax.nodes[nid].label)
        # Ids on the stack are normalized already, so children() would redo that.
        stack.extend(reversed(tax._children.get(nid, ())))
    return order


def descendant_mentions(tax: Taxonomy, start: str, keyword: str) -> bool:
    """True when any strict descendant label contains the keyword (case-insensitive)."""
    needle = keyword.casefold()
    return any(needle in label.casefold() for label in traverse_top_down(tax, start)[1:])
