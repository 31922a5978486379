"""Two-round plan generation: planning context, plan parsing, code-step
resolution, and a deterministic fallback generator.

A plan is an ordered list of prompt steps plus an execution-order
expression over step indices (AND/OR).  Model output is parsed
tolerantly: "# Think:" blocks are commentary and never become steps.
"""

from __future__ import annotations

import re

from ._struct import Struct, fresh, replace
from ._yamlio import INT, TEXT, ListOf, MapOf, Record, dump_yaml, load_checked
from .errors import AutoRecipeError
from .gateway import ChatMessage, _reply_lines
from .presets import PLANNER_CONSTRAINTS, PLANNER_TASK_INTRO
from .prompts import PromptRegistry, default_registry, fill, fill_partial, placeholders
from .taxonomy import Taxonomy, descendant_mentions, normalize_name, render_statements, traverse_top_down

__all__ = [
    "Goal",
    "PromptStep",
    "PromptSequence",
    "StepRef",
    "Conjunction",
    "Disjunction",
    "parse_execution_order",
    "format_execution_order",
    "order_indices",
    "is_all_and",
    "build_planning_context",
    "parse_plan",
    "resolve_code_steps",
    "generate_sequence_deterministic",
    "materialize_sequence",
    "serialize_sequence",
    "parse_sequence",
]

STEP_KINDS = ("question", "code", "export")


class Goal(Struct):
    """What the plan is for: the KPI, the taxonomy node to start from, and
    the phrasing of the request."""

    kpi: str
    target_node: str
    method_phrase: str = ""
    text: str = ""

    @property
    def goal_text(self) -> str:
        if self.text:
            return self.text
        phrase = f" {self.method_phrase}" if self.method_phrase else ""
        return f"Analyze the {self.kpi}{phrase}"


class PromptStep(Struct):
    index: int
    kind: str  # question | code | export
    body: str

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"step kind must be one of {STEP_KINDS}, got {self.kind!r}")
        if self.index < 1:
            raise ValueError("step indices start at 1")
        if not self.body.strip():
            raise ValueError(f"step {self.index} has an empty body")

    @property
    def placeholders(self) -> frozenset[str]:
        return placeholders(self.body)


# --- execution order expressions ---------------------------------------------

class StepRef(Struct):
    index: int


class Conjunction(Struct):
    operands: tuple


class Disjunction(Struct):
    operands: tuple


_ORDER_TOKEN = re.compile(r"\(|\)|\bAND\b|\bOR\b|\bStep\s+(\d+)", re.IGNORECASE)

# The parser and the functions below recurse once per parenthesis level;
# this bound keeps them well inside the interpreter's recursion limit.
_MAX_ORDER_DEPTH = 100


def parse_execution_order(text: str):
    """Parse "(Step 1 AND Step 2) ..." into an expression tree.

    AND binds tighter than OR; trailing words like "Goal completed!" are
    ignored.  Parentheses nested more than ``_MAX_ORDER_DEPTH`` deep are
    rejected.
    """
    tokens: list = []
    depth = 0
    for match in _ORDER_TOKEN.finditer(text):
        if match.group(1) is not None:
            tokens.append(int(match.group(1)))
            continue
        token = match.group(0).upper()
        if token == "(":
            depth += 1
            if depth > _MAX_ORDER_DEPTH:
                raise AutoRecipeError(
                    f"execution order nests parentheses more than {_MAX_ORDER_DEPTH} deep"
                )
        elif token == ")":
            depth -= 1
        tokens.append(token)
    if not tokens:
        raise AutoRecipeError(f"no execution order expression in {text!r}")
    expr, pos = _parse_or(tokens, 0)
    if pos != len(tokens):
        raise AutoRecipeError(f"trailing tokens in execution order: {tokens[pos:]}")
    return expr


def _parse_or(tokens, pos):
    operand, pos = _parse_and(tokens, pos)
    operands = [operand]
    while pos < len(tokens) and tokens[pos] == "OR":
        operand, pos = _parse_and(tokens, pos + 1)
        operands.append(operand)
    return (operands[0] if len(operands) == 1 else Disjunction(tuple(operands))), pos


def _parse_and(tokens, pos):
    operand, pos = _parse_atom(tokens, pos)
    operands = [operand]
    while pos < len(tokens) and tokens[pos] == "AND":
        operand, pos = _parse_atom(tokens, pos + 1)
        operands.append(operand)
    return (operands[0] if len(operands) == 1 else Conjunction(tuple(operands))), pos


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise AutoRecipeError("execution order expression ended unexpectedly")
    token = tokens[pos]
    if token == "(":
        expr, pos = _parse_or(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise AutoRecipeError("unbalanced parenthesis in execution order")
        return expr, pos + 1
    if isinstance(token, int):
        return StepRef(token), pos + 1
    raise AutoRecipeError(f"unexpected token {token!r} in execution order")


def format_execution_order(expr) -> str:
    if isinstance(expr, StepRef):
        return f"Step {expr.index}"
    connective = " AND " if isinstance(expr, Conjunction) else " OR "
    return "(" + connective.join(format_execution_order(op) for op in expr.operands) + ")"


def order_indices(expr) -> list[int]:
    """Every step reference in the expression, in appearance order, duplicates kept."""
    if isinstance(expr, StepRef):
        return [expr.index]
    out: list[int] = []
    for op in expr.operands:
        out.extend(order_indices(op))
    return out


def is_all_and(expr) -> bool:
    if isinstance(expr, StepRef):
        return True
    if isinstance(expr, Conjunction):
        return all(is_all_and(op) for op in expr.operands)
    return False


def _renumber_order(expr, mapping: dict[int, int]):
    """Apply an index mapping; references outside the mapping are pruned."""
    if isinstance(expr, StepRef):
        return StepRef(mapping[expr.index]) if expr.index in mapping else None
    kept = tuple(
        renamed for renamed in (_renumber_order(op, mapping) for op in expr.operands)
        if renamed is not None
    )
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    return type(expr)(kept)


# --- sequences ----------------------------------------------------------------

class PromptSequence(Struct):
    steps: tuple[PromptStep, ...]
    execution_order: object
    goal: Goal | None = None
    bindings: dict[str, str] = fresh(dict)

    @property
    def placeholders(self) -> frozenset[str]:
        names: set[str] = set()
        for step in self.steps:
            names |= step.placeholders
        return frozenset(names)


def _validate_sequence(steps: list[PromptStep], order) -> None:
    indices = [s.index for s in steps]
    if sorted(indices) != list(range(1, len(steps) + 1)):
        raise AutoRecipeError(
            f"step indices must be contiguous from 1, got {sorted(indices)}"
        )
    refs = order_indices(order)
    declared = set(indices)
    for ref in refs:
        if ref not in declared:
            raise AutoRecipeError(f"execution order references undeclared step {ref}")
    seen: set[int] = set()
    for ref in refs:
        if ref in seen:
            raise AutoRecipeError(f"execution order references step {ref} twice")
        seen.add(ref)
    for index in indices:
        if index not in seen:
            raise AutoRecipeError(f"execution order never references step {index}")


def _make_sequence(steps: list[PromptStep], order, goal=None, bindings=None) -> PromptSequence:
    steps = sorted(steps, key=lambda s: s.index)
    _validate_sequence(steps, order)
    return PromptSequence(tuple(steps), order, goal, dict(bindings or {}))


# --- plan parsing ---------------------------------------------------------------

_STEP_LINE = re.compile(r"^\s*(?:\*\*)?Step\s+(\d+)(?:\*\*)?\s*:\s*(.*)$", re.IGNORECASE)
_THINK_LINE = re.compile(r"^\s*#*\s*Think\s*:", re.IGNORECASE)
_ORDER_LINE = re.compile(r"^\s*(?:\*\*)?Execution\s+Order(?:\*\*)?\s*:\s*(.*)$", re.IGNORECASE)

_CODE_REQUEST = re.compile(
    r"generate\s+(?:a\s+|an\s+|the\s+)?(?:single\s+)?(?:python\s+)?(?:code|program|script|function)"
    r"|write\s+(?:a\s+|an\s+|the\s+)?(?:python\s+)?(?:code|program|script|function)",
    re.IGNORECASE,
)
_EXPORT_REQUEST = re.compile(r"export\s+a\s+markdown\s+output|markdown\s+output\s+as\s+guidelines", re.IGNORECASE)


def classify_step(body: str) -> str:
    """question | code | export, decided by what the body asks for."""
    if _EXPORT_REQUEST.search(body):
        return "export"
    if _CODE_REQUEST.search(body):
        return "code"
    return "question"


def parse_plan(model_output: str, goal: Goal | None = None) -> PromptSequence:
    """Turn raw planner output into a validated PromptSequence.

    "# Think:" commentary is discarded; the raw text stays the audit
    record.  Step indices must be contiguous from 1 and the execution
    order must reference each step exactly once.
    """
    bodies: dict[int, list[str]] = {}
    order_pieces: list[str] | None = None
    current: list[str] | None = None  # where continuation lines go; None drops them

    for line in _reply_lines(model_output):
        line = line.rstrip("\r\n")
        step_match = _STEP_LINE.match(line)
        if step_match:
            index = int(step_match.group(1))
            if index in bodies:
                raise AutoRecipeError(f"step {index} is declared twice")
            bodies[index] = [step_match.group(2)]
            current = bodies[index]
            continue
        order_match = _ORDER_LINE.match(line)
        if order_match:
            order_pieces = [order_match.group(1)]
            current = order_pieces
            continue
        if _THINK_LINE.match(line):
            current = None
            continue
        if current is not None:
            current.append(line)

    if not bodies:
        raise AutoRecipeError("model output declares no steps")
    if order_pieces is None:
        raise AutoRecipeError("model output declares no execution order")

    indices = sorted(bodies)
    if indices != list(range(1, len(indices) + 1)):
        raise AutoRecipeError(f"step indices are not contiguous from 1: {indices}")

    steps = [
        PromptStep(i, classify_step("\n".join(bodies[i]).strip()), "\n".join(bodies[i]).strip())
        for i in indices
    ]
    order = parse_execution_order("\n".join(order_pieces))
    return _make_sequence(steps, order, goal=goal)


# --- planning context -----------------------------------------------------------

def bind_goal(taxonomies: list[Taxonomy], goal: Goal) -> Taxonomy:
    """The taxonomy whose root matches the goal KPI and contains the target node."""
    kpi_id = normalize_name(goal.kpi)
    for tax in taxonomies:
        if tax.root == kpi_id:
            if normalize_name(goal.target_node) not in tax.nodes:
                raise AutoRecipeError(
                    f"target node {goal.target_node!r} is not in the {tax.root_label} taxonomy"
                )
            return tax
    raise AutoRecipeError(f"no provided taxonomy has root {goal.kpi!r}")


def build_planning_context(
    taxonomies: list[Taxonomy], demonstration: str, goal: Goal
) -> list[ChatMessage]:
    """System message with taxonomy statements, a worked demonstration and the
    ground rules; user message carrying only the goal phrase."""
    if not demonstration or not demonstration.strip():
        raise ValueError("planning context needs a non-empty demonstration")
    if not taxonomies:
        raise ValueError("planning context needs at least one taxonomy")
    bind_goal(taxonomies, goal)

    sections = [PLANNER_TASK_INTRO]
    for tax in taxonomies:
        sections.append(f"Here is the {tax.root_label} taxonomy.")
        sections.append("\n".join(render_statements(tax)))
    sections.append(demonstration.strip())
    sections.append(PLANNER_CONSTRAINTS)
    system = "\n\n".join(sections)
    return [ChatMessage("system", system), ChatMessage("user", f"Goal: {goal.goal_text}")]


# --- code-step resolution ---------------------------------------------------------

def _find_named_node(body: str, tax: Taxonomy) -> str:
    """The taxonomy node a code step names.

    Exact label mention wins; otherwise the node sharing the most whole
    words with the body, ties broken by earliest mention then
    declaration order.

    A whole-word match implies a substring match, so each regex runs only
    after a plain ``in`` test passes; the regex alone decides the word
    boundaries.
    """
    low = body.casefold()
    labeled = [(nid, node.label.casefold()) for nid, node in tax.nodes.items()]
    for nid, label in sorted(labeled, key=lambda item: -len(item[1])):
        if label in low and re.search(rf"\b{re.escape(label)}\b", low):
            return nid

    best: tuple[int, int, int] | None = None  # (-score, first_pos, declaration_order)
    best_nid = None
    declaration = {nid: i for i, nid in enumerate(tax.nodes)}
    word_position: dict[str, int | None] = {}
    for nid, label in labeled:
        positions = []
        for word in set(label.split()):
            if word not in word_position:
                match = word in low and re.search(rf"\b{re.escape(word)}\b", low)
                word_position[word] = match.start() if match else None
            if word_position[word] is not None:
                positions.append(word_position[word])
        if not positions:
            continue
        key = (-len(positions), min(positions), declaration[nid])
        if best is None or key < best:
            best = key
            best_nid = nid
    if best_nid is None:
        raise AutoRecipeError(f"code step names no taxonomy node: {body[:80]!r}")
    return best_nid


def resolve_code_steps(
    seq: PromptSequence, tax: Taxonomy, registry: PromptRegistry | None = None
) -> PromptSequence:
    """Settle code steps offline instead of running generated code.

    A code step whose named node has sensor-mentioning descendants
    becomes a question asking for the part-3 sensor list; otherwise it
    is dropped and the remaining steps are renumbered.
    """
    registry = registry or default_registry()
    sensor_question = registry.get("plan.sensor-question")
    resolved: list[PromptStep] = []
    mapping: dict[int, int] = {}
    for step in seq.steps:
        if step.kind != "code":
            mapping[step.index] = len(resolved) + 1
            resolved.append(replace(step, index=len(resolved) + 1))
            continue
        node = _find_named_node(step.body, tax)
        if descendant_mentions(tax, node, "sensor"):
            body = fill_partial(sensor_question, {"target": tax.nodes[node].label})
            mapping[step.index] = len(resolved) + 1
            resolved.append(PromptStep(len(resolved) + 1, "question", body))
        # else: drop the step; mapping omits it so order references prune away
    if not resolved:
        raise AutoRecipeError("resolving code steps left an empty plan")
    order = _renumber_order(seq.execution_order, mapping)
    if order is None:
        raise AutoRecipeError("resolving code steps left an empty execution order")
    return _make_sequence(resolved, order, goal=seq.goal, bindings=seq.bindings)


# --- deterministic generation -------------------------------------------------------

def _enumerated_phrase(labels: list[str]) -> str:
    numbered = [f"{i}. {label}" for i, label in enumerate(labels, 1)]
    if len(numbered) == 1:
        return numbered[0]
    return ", ".join(numbered[:-1]) + ", and " + numbered[-1]


def _category_phrase(labels: list[str]) -> str:
    if len(labels) == 1:
        return labels[0]
    return ", ".join(labels[:-1]) + " and " + labels[-1]


def generate_sequence_deterministic(
    tax: Taxonomy, goal: Goal, registry: PromptRegistry | None = None
) -> PromptSequence:
    """Build a plan from the taxonomy alone, no model in the loop.

    Layout: enumerate the target's children (or itself when childless),
    one step per child subtree, collect the factors, two
    asset-specialization steps, a code step only when measurement
    descendants exist, and a closing export step.  The order is all-AND.
    """
    registry = registry or default_registry()
    if normalize_name(goal.kpi) != tax.root:
        raise AutoRecipeError(
            f"goal KPI {goal.kpi!r} does not match the {tax.root_label} taxonomy"
        )
    target_id = normalize_name(goal.target_node)
    if target_id not in tax.nodes:
        raise AutoRecipeError(
            f"target node {goal.target_node!r} is not in the {tax.root_label} taxonomy"
        )

    kpi = tax.root_label
    target = tax.nodes[target_id].label
    child_ids = tax.children(target_id)
    child_labels = [tax.nodes[c].label for c in child_ids]

    def body(template_id: str, values: dict[str, str]) -> str:
        return fill_partial(registry.get(template_id), values)

    steps: list[PromptStep] = []

    def add(kind: str, text: str) -> None:
        steps.append(PromptStep(len(steps) + 1, kind, text))

    if child_labels:
        add("question", body(
            "plan.enumerate-children",
            {"target": target, "kpi": kpi, "children": _enumerated_phrase(child_labels)},
        ))
    else:
        add("question", body("plan.enumerate-self", {"target": target, "kpi": kpi}))

    for child_id, child_label in zip(child_ids, child_labels):
        grandchildren = [tax.nodes[g].label for g in tax.children(child_id)]
        subtopics = (
            _enumerated_phrase(grandchildren)
            if grandchildren
            else f"{child_label} of {target}"
        )
        add("question", body(
            "plan.child",
            {"child": child_label, "target": target, "kpi": kpi, "subtopics": subtopics},
        ))

    add("question", body("plan.collect", {}))
    add("question", body("plan.specialize-asset", {"target": target, "kpi": kpi}))
    add("question", body("plan.specialize-kpis", {"kpi": kpi}))

    has_measurements = any(
        tax.kind(label) == "measurement" for label in traverse_top_down(tax, target)[1:]
    )
    if has_measurements:
        add("code", body("plan.code-check", {"target": target}))

    add("export", body(
        "plan.export",
        {
            "target": target,
            "kpi": kpi,
            "children": _category_phrase(child_labels or [target]),
        },
    ))

    order = Conjunction(tuple(StepRef(s.index) for s in steps)) if len(steps) > 1 else StepRef(1)
    return _make_sequence(steps, order, goal=goal)


# --- materialization ------------------------------------------------------------

def materialize_sequence(
    seq: PromptSequence, asset_class: str, asset_description: str = ""
) -> PromptSequence:
    """Fill the asset slots in every step; empty values count as missing.

    Each step's plan text goes through ``prompts.fill``, so a slot with no
    value raises AutoRecipeError naming the step and the slot, and
    ``${...}`` inside a value is never read as a placeholder, here or later.
    """
    if not asset_class or not asset_class.strip():
        raise ValueError("materialization needs a non-empty asset class")
    bindings = {"asset_class": asset_class}
    if asset_description and asset_description.strip():
        bindings["asset_description"] = asset_description
    steps = [replace(step, body=fill(step.body, bindings, f"step {step.index}"))
             for step in seq.steps]
    return _make_sequence(steps, seq.execution_order, goal=seq.goal, bindings=bindings)


# --- persistence -----------------------------------------------------------------

def serialize_sequence(seq: PromptSequence) -> str:
    doc: dict = {
        "steps": [{"index": s.index, "kind": s.kind, "body": s.body} for s in seq.steps],
        "execution_order": format_execution_order(seq.execution_order),
    }
    if seq.goal is not None:
        doc["goal"] = {
            "kpi": seq.goal.kpi,
            "target_node": seq.goal.target_node,
            "method_phrase": seq.goal.method_phrase,
            "text": seq.goal.text,
        }
    if seq.bindings:
        doc["bindings"] = dict(seq.bindings)
    return dump_yaml(doc)


_SEQUENCE = Record(
    required={
        "steps": ListOf(Record(required={"index": INT, "kind": TEXT, "body": TEXT})),
        "execution_order": TEXT,
    },
    optional={
        "goal": Record(required={"kpi": TEXT, "target_node": TEXT},
                       optional={"method_phrase": TEXT, "text": TEXT}),
        "bindings": MapOf(TEXT, TEXT),
    },
)


def parse_sequence(text: str) -> PromptSequence:
    """Read back what serialize_sequence writes; any other shape raises AutoRecipeError."""
    doc = load_checked(text, "sequence document", "sequence", _SEQUENCE)
    steps = []
    for n, entry in enumerate(doc["steps"], start=1):
        try:
            steps.append(PromptStep(entry["index"], entry["kind"], entry["body"]))
        except ValueError as exc:
            raise AutoRecipeError(f"sequence step {n}: {exc}") from None
    goal = doc.get("goal")
    if goal is not None:
        goal = Goal(goal["kpi"], goal["target_node"],
                    goal.get("method_phrase") or "", goal.get("text") or "")
    order = parse_execution_order(doc["execution_order"])
    return _make_sequence(steps, order, goal=goal, bindings=doc.get("bindings"))
