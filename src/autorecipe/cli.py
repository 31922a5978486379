"""Command-line entry point wiring the pipeline stages together.

Subcommands mirror the stages so fixtures can target any of them in
isolation: plan, generate, score, metrics, verify-refs.

Each subcommand imports the stages it runs inside its own function, so a
process loads only the modules its command needs.

Exit codes: 0 success, 2 input or validation error, 3 gateway or
client error, 4 internal error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import stat
import sys
import warnings
from pathlib import Path

from .errors import (
    AutoRecipeError,
    GatewayError,
    SearchClientError,
    StageError,
    ValidationFailedError,
)
from .presets import COMPONENT_HEALTH_DEMONSTRATION, STRATEGIES

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GATEWAY = 3
EXIT_INTERNAL = 4


def _read_text(path) -> str:
    """The file's text.  A file that is not UTF-8 reads as a YAML input file
    does; PyYAML is not imported here, since ``metrics`` must not load it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise AutoRecipeError(f"unreadable {path}: not UTF-8 text") from None


def _check_out_file(out) -> None:
    """Refuses an ``--out`` file that cannot be written, before any model call
    or input is read; an empty ``out`` is stdout."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        raise ValueError(f"cannot write to {out}: it is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"cannot write to {out}: {path.parent} is not a directory")
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise ValueError(f"cannot write to {out}: permission denied")


def _write_out(out, text: str, label: str) -> None:
    """Writes ``text`` to the ``out`` file, or to stdout when ``out`` is empty.
    The text is encoded before the file is touched. A new ``out``, or a
    regular one with one link that this user owns, is written to a sibling
    temporary file with the old mode, which then replaces it, so a write that
    fails leaves no temporary file and the old ``out`` whole. Anything else (a
    device, FIFO, symlink or hard link, another user's file, a directory this
    user cannot write) is written through, so it stays what it is."""
    if not out:
        sys.stdout.write(text)
        return
    path = Path(out)
    data = text.encode("utf-8")
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if not os.access(path.parent, os.W_OK) or old is not None and not (
        stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and old.st_uid == os.geteuid()
    ):
        path.write_bytes(data)
    else:
        partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        fh = open(partial, "xb")
        try:
            with fh:
                if old is not None:
                    os.chmod(partial, stat.S_IMODE(old.st_mode))
                fh.write(data)
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
    print(f"wrote {label} to {out}")


def _load_taxonomies(paths) -> list:
    from .taxonomy import parse_taxonomy

    return [parse_taxonomy(_read_text(p)) for p in paths]


def _goal_from_args(args, method_phrase: str = "", text: str = ""):
    from .planning import Goal

    return Goal(
        kpi=args.kpi,
        target_node=args.target or args.kpi,
        method_phrase=method_phrase,
        text=text,
    )


def _build_gateway(args):
    from .gateway import (
        HttpGateway,
        RecordingGateway,
        ReplayGateway,
        ScriptedGateway,
        load_gateway_config,
    )

    if args.script:
        gateway = ScriptedGateway.from_file(args.script)
    elif args.replay:
        gateway = ReplayGateway(args.replay)
    elif args.gateway_config:
        gateway = HttpGateway(load_gateway_config(args.gateway_config))
    else:
        return None
    if args.record:
        # Checked before the first call, so no reply is lost; the check
        # leaves an empty store behind.
        try:
            open(args.record, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValueError(f"cannot append to {args.record}: {exc.strerror}") from None
        gateway = RecordingGateway(gateway, args.record)
    return gateway


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# --- subcommands -----------------------------------------------------------------

def _plan(args, taxonomies, tax, goal, gateway=None, registry=None):
    """The plan with its code steps resolved.

    It is parsed from ``--plan-text`` when given, else asked of the
    gateway when there is one, else generated deterministically.
    """
    from .planning import (
        build_planning_context,
        generate_sequence_deterministic,
        parse_plan,
        resolve_code_steps,
    )

    if args.plan_text:
        seq = parse_plan(_read_text(args.plan_text), goal=goal)
    elif gateway is not None:
        session = build_planning_context(taxonomies, COMPONENT_HEALTH_DEMONSTRATION, goal)
        seq = parse_plan(gateway.complete(session), goal=goal)
    else:
        seq = generate_sequence_deterministic(tax, goal, registry=registry)
    return resolve_code_steps(seq, tax, registry=registry)


def cmd_plan(args) -> int:
    from .planning import bind_goal, serialize_sequence

    if args.record and not (args.script or args.replay or args.gateway_config):
        raise ValueError("--record needs one of --script, --replay, or --gateway-config")
    _check_out_file(args.out)
    taxonomies = _load_taxonomies(args.taxonomy)
    goal = _goal_from_args(args, args.method_phrase, args.goal_text)
    tax = bind_goal(taxonomies, goal)
    seq = _plan(args, taxonomies, tax, goal, gateway=_build_gateway(args))
    _write_out(args.out, serialize_sequence(seq), f"{len(seq.steps)}-step plan")
    return EXIT_OK


# Stands in for the refined description while refinement runs; a step it
# stands in for is never sent.
_PENDING_DESCRIPTION = "(pending refinement)"


class _RefinementFailed(Exception):
    """Stops execution; the error reported is refinement's own."""


def _describe_and_execute(args, seq, gateway, registry):
    """The knowledge document, from refinement and execution run as two chains.

    A given description runs execution alone, on the plan materialized
    with it.  Otherwise refinement runs first, and an execution turn waits
    for the refined description only when its text holds it, so with
    ``max_parallel`` of 2 or more the turns before the first such one
    overlap refinement.  With one worker the chains run one after the other
    on this thread, in the order of a sequential run.  A run that succeeds
    sends the sessions that order sends, and a run that fails reports the
    error it reports.  The checks that need only the plan run first, before
    either chain starts, so a plan they reject costs no model call:
    materialization's, then execution's checks of the sequence.  Then come
    refinement's errors, then execution's.  Once refinement has failed,
    execution starts no new turn.
    """
    import threading

    from .execution import check_sequence, execute
    from .planning import materialize_sequence
    from .prompts import instantiate
    from .references import _map_in_order
    from .refinement import refine

    role = registry.role("domain-expert")
    if args.asset_description:
        bound = _stage("materialize", materialize_sequence, seq, args.asset_class,
                       args.asset_description)
        doc, _transcript = _stage("execute", execute, bound, args.strategy, role, gateway,
                                  registry=registry)
        return doc

    settled = threading.Event()  # refinement has answered or failed
    described = None  # the plan with the refined description bound, once there is one

    def refinement() -> None:
        nonlocal described
        try:
            question = instantiate(
                registry, "refinement.initial", {"asset_class": args.asset_class}
            )
            result = _stage(
                "refine",
                refine,
                gateway,
                "refinement.system",
                question,
                max_rounds=args.max_rounds,
                confidence_threshold=args.confidence_threshold,
                registry=registry,
            )
            if not result.final_answer:
                raise StageError(
                    "refine", ValueError("no accepted answer to use as the asset description")
                )
            # The stand-in materialization passed these checks with a value
            # that is not blank, and neither is the answer: this cannot fail.
            described = materialize_sequence(seq, args.asset_class, result.final_answer)
        finally:
            settled.set()

    def late(step):
        waits = "asset_description" in seq.steps[step.index - 1].placeholders
        if waits:
            settled.wait()
        if settled.is_set() and described is None:
            raise _RefinementFailed()
        return described.steps[step.index - 1] if waits else step

    # While refinement runs, a stand-in takes the description's place; it
    # reaches no turn, as ``late`` swaps in the described step.
    bound = _stage("materialize", materialize_sequence, seq, args.asset_class,
                   _PENDING_DESCRIPTION)
    _stage("execute", check_sequence, bound, args.strategy)

    def execution():
        return _stage("execute", execute, bound, args.strategy, role, gateway,
                      registry=registry, late=late)

    _, (doc, _transcript) = _map_in_order(
        lambda chain: chain(), [refinement, execution], getattr(gateway, "max_parallel", 1)
    )
    return doc


def cmd_generate(args) -> int:
    from datetime import datetime, timezone

    from .execution import render_knowledge
    from .planning import bind_goal
    from .prompts import default_registry
    from .recipe import (
        SYNTHETIC_TIMESTAMP,
        Recipe,
        bundle,
        default_aggregation_config,
        default_indicator_config,
        format_rfc3339,
        generate_synthetic,
    )
    from .references import ScriptedNliClient, ScriptedSearchClient, build_references, render_cited
    from .taxonomy import traverse_top_down

    if bool(args.search_script) != bool(args.nli_script):
        raise ValueError("citations need both --search-script and --nli-script, or neither")
    taxonomies = _load_taxonomies(args.taxonomy)
    goal = _goal_from_args(args)
    tax = bind_goal(taxonomies, goal)
    gateway = _build_gateway(args)
    # Every input file is read, and every input checked, before the first model call.
    if args.search_script:
        search = ScriptedSearchClient.from_file(args.search_script)
        nli = ScriptedNliClient.from_file(args.nli_script)
    out = Path(args.out)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"cannot write the bundle to {args.out}: {existing} is not a directory")
    registry = default_registry()
    # Scripted and replay runs use a pinned creation time so rerunning
    # yields byte-identical bundles.
    deterministic = bool(args.script or args.replay)

    # The plan never goes through the model here: no gateway is passed.
    seq = _stage("plan", _plan, args, taxonomies, tax, goal, registry=registry)

    target_label = tax.nodes[tax.node_id(goal.target_node)].label
    sensors = [
        label
        for label in traverse_top_down(tax, goal.target_node)[1:]
        if tax.kind(label) == "measurement"
    ] or [target_label]
    indicator = default_indicator_config(sensors)
    aggregation = default_aggregation_config(sensors)
    dataset = _stage("dataset", generate_synthetic, indicator, args.num_assets, args.seed)

    doc = _describe_and_execute(args, seq, gateway, registry)

    if args.search_script:
        cited = _stage(
            "references", build_references, doc, gateway, search, nli, registry=registry
        )
        knowledge_doc = render_cited(cited)
    else:
        knowledge_doc = render_knowledge(doc)

    created_at = (
        SYNTHETIC_TIMESTAMP if deterministic else format_rfc3339(datetime.now(timezone.utc))
    )
    recipe = Recipe(
        kpi=goal.kpi,
        asset_class=args.asset_class,
        knowledge_doc=knowledge_doc,
        indicator=indicator,
        aggregation=aggregation,
        dataset=dataset,
        seed=args.seed,
        created_at=created_at,
    )
    written = _stage("bundle", bundle, recipe, args.out)
    print(f"wrote {len(written)} recipe files to {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    from .recipe import _csv_records, load_aggregation_config, load_indicator_config
    from .scoring import HealthScoreEstimator

    _check_out_file(args.out)
    indicator = load_indicator_config(args.indicator_config)
    aggregation = load_aggregation_config(args.aggregation_config)
    estimator = HealthScoreEstimator().fit(indicator, aggregation)
    # The configs are checked before the dataset is read; its lines then go
    # from the file through the CSV reader into the scan, without a
    # SampleDataset.  The file reads as ``_read_text`` reads it: UTF-8, with
    # "\r\n" and a lone "\r" read as "\n".
    try:
        with open(args.dataset, encoding="utf-8") as fh:
            try:
                scores = estimator._predict_records(_csv_records(fh))
            except ValidationFailedError:
                # Text that is not UTF-8 anywhere in the file wins over a bad
                # row, as it did when the file was read whole first.
                for _ in fh:
                    pass
                raise
    except UnicodeDecodeError:
        raise AutoRecipeError(f"unreadable {args.dataset}: not UTF-8 text") from None
    lines = ["asset_id,score"]
    lines += [f"{s.asset_id},{s.score:.6f}" for s in scores]
    _write_out(args.out, "\n".join(lines) + "\n", "scores")
    return EXIT_OK


def cmd_metrics(args) -> int:
    from .metrics import coverage, similarity, tokenize, type_token_ratio

    _check_out_file(args.out)
    profiles = [tokenize(_read_text(p)) for p in args.doc]
    base = profiles[0]
    lines = ["doc,tokens,unique,ttr,coverage_vs_first,similarity_vs_first"]
    for path, profile in zip(args.doc, profiles):
        if not profile.total:
            raise AutoRecipeError(f"{path} has no tokens: cannot compute its type-token ratio")
        lines.append(
            f"{path},{profile.total},{profile.unique},{type_token_ratio(profile):.6f},"
            f"{coverage(base, profile, weighted=args.weighted):.2f},"
            f"{similarity(base, profile):.6f}"
        )
    _write_out(args.out, "\n".join(lines) + "\n", "metrics table")
    return EXIT_OK


def cmd_verify_refs(args) -> int:
    from .execution import split_parts
    from .references import ScriptedNliClient, ScriptedSearchClient, build_references, render_cited

    _check_out_file(args.out)
    document = split_parts(_read_text(args.doc))
    gateway = _build_gateway(args)
    search = ScriptedSearchClient.from_file(args.search_script)
    nli = ScriptedNliClient.from_file(args.nli_script)
    cited = build_references(document, gateway, search, nli, k=args.claims_per_part)
    print(f"claims per part: {cited.counts.claims}")
    print(f"urls identified per part: {cited.counts.urls_identified}")
    print(f"urls validated per part: {cited.counts.urls_validated}")
    if args.out:
        _write_out(args.out, render_cited(cited), "cited document")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def _text(value: str) -> str:
    """Command-line text bound for a prompt, plan, bundle or table.  A byte
    that is not UTF-8 arrives as a lone surrogate, which none of them can carry."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError("text that UTF-8 cannot encode") from None
    return value


def _threshold(value: str) -> float:
    """A confidence percentage that a reply's confidence, in [0, 100], can meet."""
    try:
        threshold = float(value)
    except ValueError:
        threshold = math.nan
    if not (math.isfinite(threshold) and threshold <= 100.0):
        raise argparse.ArgumentTypeError(f"must be a finite number at most 100, got {value!r}")
    return threshold


def _not_empty(value: str) -> str:
    """A path that must name something; an empty one would be the working directory."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _at_least_one(value: str) -> int:
    """A count or a cap: an integer of at least 1."""
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {value!r}")
    return count


def _add_goal_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--taxonomy", action="append", required=True,
        help="taxonomy YAML file; repeat for multiple taxonomies",
    )
    parser.add_argument("--kpi", type=_text, required=True,
                        help="KPI name; must match a taxonomy root")
    parser.add_argument("--target", type=_text, default="",
                        help="target node (defaults to the KPI root)")
    parser.add_argument("--plan-text", default="", help="parse this plan text file instead of generating")


def _add_gateway_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--script", default="", help="scripted gateway replies (YAML)")
    source.add_argument("--replay", default="", help="replay store written by --record (JSONL)")
    source.add_argument("--gateway-config", default="", help="HTTP gateway config (YAML)")
    parser.add_argument("--record", default="", help="append every exchange to this JSONL store")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autorecipe",
        description="Generate, execute, and validate KPI solution recipes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="build a prompt sequence for a KPI goal")
    _add_goal_arguments(plan)
    plan.add_argument("--method-phrase", type=_text, default="",
                      help="phrase appended to the default goal text")
    plan.add_argument("--goal-text", type=_text, default="",
                      help="full goal text, overriding the default")
    _add_gateway_arguments(plan, required=False)
    plan.add_argument("--out", default="", help="sequence YAML path (stdout when omitted)")
    plan.set_defaults(func=cmd_plan)

    generate = sub.add_parser("generate", help="produce a full recipe bundle")
    _add_goal_arguments(generate)
    _add_gateway_arguments(generate)
    generate.add_argument("--asset-class", type=_text, required=True,
                          help="asset class the recipe targets")
    generate.add_argument(
        "--asset-description", type=_text, default="",
        help="asset description; generated through refinement when omitted",
    )
    generate.add_argument("--strategy", choices=STRATEGIES, default="gitq")
    generate.add_argument("--max-rounds", type=_at_least_one, default=10,
                          help="refinement round cap, at least 1")
    generate.add_argument(
        "--confidence-threshold", type=_threshold, default=50.0,
        help="minimum confidence percentage for accepting a refinement answer",
    )
    generate.add_argument("--seed", type=int, default=0, help="synthetic dataset seed")
    generate.add_argument("--num-assets", type=_at_least_one, default=5,
                          help="assets in the sample dataset, at least 1")
    generate.add_argument("--search-script", default="", help="scripted search results (YAML)")
    generate.add_argument("--nli-script", default="", help="scripted entailment verdicts (YAML)")
    generate.add_argument("--out", type=_not_empty, required=True, help="bundle output directory")
    generate.set_defaults(func=cmd_generate)

    score = sub.add_parser("score", help="score a dataset with the two configs")
    score.add_argument("--indicator-config", required=True)
    score.add_argument("--aggregation-config", required=True)
    score.add_argument("--dataset", required=True, help="dataset CSV path")
    score.add_argument("--out", default="", help="scores CSV path (stdout when omitted)")
    score.set_defaults(func=cmd_score)

    metrics = sub.add_parser("metrics", help="lexical metrics for one or more documents")
    metrics.add_argument("--doc", type=_text, action="append", required=True,
                         help="document path; repeatable")
    metrics.add_argument(
        "--weighted", action="store_true",
        help="weight coverage by token counts instead of unique words",
    )
    metrics.add_argument("--out", default="", help="metrics CSV path (stdout when omitted)")
    metrics.set_defaults(func=cmd_metrics)

    verify = sub.add_parser("verify-refs", help="attach citations to a knowledge document")
    verify.add_argument("--doc", required=True, help="knowledge document markdown path")
    _add_gateway_arguments(verify)
    verify.add_argument("--search-script", required=True, help="scripted search results (YAML)")
    verify.add_argument("--nli-script", required=True, help="scripted entailment verdicts (YAML)")
    verify.add_argument("--claims-per-part", type=_at_least_one, default=3,
                        help="claims drawn from each part, at least 1")
    verify.add_argument("--out", default="", help="write the cited markdown here")
    verify.set_defaults(func=cmd_verify_refs)

    return parser


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, StageError):
        exc = exc.cause
    if isinstance(exc, (GatewayError, SearchClientError)):
        return EXIT_GATEWAY
    if isinstance(exc, (AutoRecipeError, ValueError, OSError)):
        return EXIT_INPUT
    return EXIT_INTERNAL


def _format_warning(message, *_where) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A warning prints as one line, without the source file and line that
    # raised it.  Only the format changes: where warnings go, and which
    # are shown, stays as the caller set it.
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        prefix = "internal error" if code == EXIT_INTERNAL else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    finally:
        warnings.formatwarning = formatwarning


def run() -> None:
    """The entry point of an ``autorecipe`` process: ``main`` with the cyclic
    collector off, then exit with its code.  A command's objects mostly live
    until the process ends, so the collector's passes would free next to
    nothing; freezing the heap keeps teardown's final pass from traversing
    it.  Reference counting still frees all that is not in a cycle."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
