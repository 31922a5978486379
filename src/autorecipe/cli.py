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
import sys
from pathlib import Path

from .errors import (
    AutoRecipeError,
    GatewayError,
    NliClientError,
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


def _write_out(out, text: str, label: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {label} to {out}")
    else:
        sys.stdout.write(text)


def _load_taxonomies(paths) -> list:
    from .taxonomy import parse_taxonomy

    return [parse_taxonomy(_read_text(p)) for p in paths]


def _goal_from_args(args):
    from .planning import Goal

    return Goal(
        kpi=args.kpi,
        target_node=args.target or args.kpi,
        method_phrase=args.method_phrase,
        text=args.goal_text,
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
    elif args.record:
        raise ValueError("--record needs one of --script, --replay, or --gateway-config")
    else:
        return None
    if args.record:
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

    taxonomies = _load_taxonomies(args.taxonomy)
    goal = _goal_from_args(args)
    tax = bind_goal(taxonomies, goal)
    seq = _plan(args, taxonomies, tax, goal, gateway=_build_gateway(args))
    _write_out(args.out, serialize_sequence(seq), f"{len(seq.steps)}-step plan")
    return EXIT_OK


def cmd_generate(args) -> int:
    from datetime import datetime, timezone

    from .execution import execute, render_knowledge
    from .planning import bind_goal, materialize_sequence
    from .prompts import RoleProfile, default_registry, instantiate
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
    from .refinement import refine
    from .taxonomy import traverse_top_down

    if bool(args.search_script) != bool(args.nli_script):
        raise ValueError("citations need both --search-script and --nli-script, or neither")
    taxonomies = _load_taxonomies(args.taxonomy)
    goal = _goal_from_args(args)
    tax = bind_goal(taxonomies, goal)
    gateway = _build_gateway(args)
    if gateway is None:
        raise ValueError("generate needs one of --script, --replay, or --gateway-config")
    # Every input file is read before the first model call.
    if args.search_script:
        search = ScriptedSearchClient.from_file(args.search_script)
        nli = ScriptedNliClient.from_file(args.nli_script)
    registry = default_registry()
    # Scripted and replay runs use a pinned creation time so rerunning
    # yields byte-identical bundles.
    deterministic = bool(args.script or args.replay)

    # The plan never goes through the model here: no gateway is passed.
    seq = _stage("plan", _plan, args, taxonomies, tax, goal, registry=registry)

    description = args.asset_description
    if not description:
        question = instantiate(
            registry.get("refinement.initial"), {"asset_class": args.asset_class}
        )
        result = _stage(
            "refine",
            refine,
            gateway,
            RoleProfile("domain-expert", "refinement.system"),
            question,
            max_rounds=args.max_rounds,
            confidence_threshold=args.confidence_threshold,
            registry=registry,
        )
        description = result.final_answer
        if not description:
            raise StageError(
                "refine", ValueError("no accepted answer to use as the asset description")
            )

    materialized = _stage("materialize", materialize_sequence, seq, args.asset_class, description)
    doc, _transcript = _stage(
        "execute",
        execute,
        materialized,
        args.strategy,
        registry.role("domain-expert"),
        gateway,
        registry=registry,
    )

    if args.search_script:
        cited = _stage(
            "references", build_references, doc, gateway, search, nli, registry=registry
        )
        knowledge_doc = render_cited(cited)
    else:
        knowledge_doc = render_knowledge(doc)

    target_label = tax.nodes[tax.node_id(goal.target_node)].label
    sensors = [
        label
        for label in traverse_top_down(tax, goal.target_node)[1:]
        if tax.kind(label) == "measurement"
    ] or [target_label]
    indicator = default_indicator_config(sensors)
    aggregation = default_aggregation_config(sensors)
    dataset = _stage("dataset", generate_synthetic, indicator, args.num_assets, args.seed)

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

    profiles = [tokenize(_read_text(p)) for p in args.doc]
    base = profiles[0]
    lines = ["doc,tokens,unique,ttr,coverage_vs_first,similarity_vs_first"]
    for path, profile in zip(args.doc, profiles):
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

    document = split_parts(_read_text(args.doc))
    gateway = _build_gateway(args)
    if gateway is None:
        raise ValueError("verify-refs needs one of --script, --replay, or --gateway-config")
    search = ScriptedSearchClient.from_file(args.search_script)
    nli = ScriptedNliClient.from_file(args.nli_script)
    cited = build_references(document, gateway, search, nli, k=args.claims_per_part)
    print(f"claims per part: {cited.counts.claims}")
    print(f"urls identified per part: {cited.counts.urls_identified}")
    print(f"urls validated per part: {cited.counts.urls_validated}")
    if args.out:
        Path(args.out).write_text(render_cited(cited), encoding="utf-8")
        print(f"wrote cited document to {args.out}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def _add_goal_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--taxonomy", action="append", required=True,
        help="taxonomy YAML file; repeat for multiple taxonomies",
    )
    parser.add_argument("--kpi", required=True, help="KPI name; must match a taxonomy root")
    parser.add_argument("--target", default="", help="target node (defaults to the KPI root)")
    parser.add_argument("--method-phrase", default="", help="phrase appended to the default goal text")
    parser.add_argument("--goal-text", default="", help="full goal text, overriding the default")
    parser.add_argument("--plan-text", default="", help="parse this plan text file instead of generating")


def _add_gateway_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
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
    _add_gateway_arguments(plan)
    plan.add_argument("--out", default="", help="sequence YAML path (stdout when omitted)")
    plan.set_defaults(func=cmd_plan)

    generate = sub.add_parser("generate", help="produce a full recipe bundle")
    _add_goal_arguments(generate)
    _add_gateway_arguments(generate)
    generate.add_argument("--asset-class", required=True, help="asset class the recipe targets")
    generate.add_argument(
        "--asset-description", default="",
        help="asset description; generated through refinement when omitted",
    )
    generate.add_argument("--strategy", choices=STRATEGIES, default="gitq")
    generate.add_argument("--max-rounds", type=int, default=10, help="refinement round cap")
    generate.add_argument(
        "--confidence-threshold", type=float, default=50.0,
        help="minimum confidence percentage for accepting a refinement answer",
    )
    generate.add_argument("--seed", type=int, default=0, help="synthetic dataset seed")
    generate.add_argument("--num-assets", type=int, default=5, help="assets in the sample dataset")
    generate.add_argument("--search-script", default="", help="scripted search results (YAML)")
    generate.add_argument("--nli-script", default="", help="scripted entailment verdicts (YAML)")
    generate.add_argument("--out", required=True, help="bundle output directory")
    generate.set_defaults(func=cmd_generate)

    score = sub.add_parser("score", help="score a dataset with the two configs")
    score.add_argument("--indicator-config", required=True)
    score.add_argument("--aggregation-config", required=True)
    score.add_argument("--dataset", required=True, help="dataset CSV path")
    score.add_argument("--out", default="", help="scores CSV path (stdout when omitted)")
    score.set_defaults(func=cmd_score)

    metrics = sub.add_parser("metrics", help="lexical metrics for one or more documents")
    metrics.add_argument("--doc", action="append", required=True, help="document path; repeatable")
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
    verify.add_argument("--claims-per-part", type=int, default=3)
    verify.add_argument("--out", default="", help="write the cited markdown here")
    verify.set_defaults(func=cmd_verify_refs)

    return parser


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, (GatewayError, SearchClientError, NliClientError)):
        return EXIT_GATEWAY
    if isinstance(exc, (AutoRecipeError, ValueError, OSError)):
        return EXIT_INPUT
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc.cause)
    except Exception as exc:
        code = _exit_code(exc)
        prefix = "internal error" if code == EXIT_INTERNAL else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
