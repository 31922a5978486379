"""Every flag that takes a file: no content of that file makes a command exit 4.

Hypothesis writes files that are well formed (YAML, JSON lines, CSV or
markdown that parses) but wrong in content: keys of the wrong kind, stray
keys, nulls, odd numbers and labels.  Each test runs ``cli.main`` in-process
on a command line where only that file varies, and where no content of the
file can make the command succeed, so the exit code must be 2 (input error)
or 3 (gateway or client error) and stderr must start with ``error: ``.

Aggregation configs are the exception: they run against a dataset that
scores, so a config that passes every check must print a score in
[0, 100].

The ``@example``s are the shapes that once exited 4 or passed unchecked.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import warnings

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from autorecipe import presets
from autorecipe.cli import main

pytestmark = pytest.mark.filterwarnings("ignore")

_SETTINGS = settings(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# Short text with no ":" or "/": it cannot spell a URL, a session key, a
# preset node name or a sensor the fixed configs name, so a generated file
# never makes a command succeed or reach the network.
_WORD = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=":/"),
                max_size=8)
_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats() | _WORD,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORD, inner, max_size=3),
    max_leaves=6,
)


def _mostly(right):
    """Values of the right kind most of the time, and now and then of any kind."""
    return st.one_of(right, right, right, _ANY)


_TEXT = _mostly(_WORD)
_BOOL = _mostly(st.booleans())
_INT = _mostly(st.integers(-2, 5))
_NUMBER = _mostly(st.integers(-2, 5) | st.floats())


def _record(**fields):
    """Mappings with any subset of ``fields``, and sometimes a stray key."""
    return _mostly(st.fixed_dictionaries({}, optional={**fields, "stray": _ANY}))


def _list(item):
    return _mostly(st.lists(item, max_size=3))


def _map(value):
    return _mostly(st.dictionaries(_WORD, value, max_size=3))


def _yaml(shape):
    return shape.map(lambda doc: yaml.safe_dump(doc, allow_unicode=True))


_TAXONOMY = _yaml(_record(
    kpi=_TEXT, edges=_list(_record(parent=_TEXT, relation=_TEXT, child=_TEXT)),
))
_SCRIPT = _yaml(_record(replies=_list(_TEXT), by_key=_map(_TEXT), strict=_BOOL, default=_TEXT))
_SEARCH = _yaml(_record(
    queries=_map(_list(_record(url=_TEXT, text=_TEXT, error=_TEXT))), strict=_BOOL,
))
_NLI = _yaml(_record(
    pairs=_list(_record(premise=_TEXT, hypothesis=_TEXT, entailed=_BOOL)), strict=_BOOL,
))
_GATEWAY = _yaml(_record(
    endpoint=_TEXT, model=_TEXT, timeout_seconds=_NUMBER, max_retries=_INT,
    temperature=_NUMBER, max_tokens=_INT, max_parallel=_INT, backoff_seconds=_NUMBER,
))
_BOUNDS = _record(min=_NUMBER, max=_NUMBER)
_INDICATOR = _yaml(_record(sensors=_list(_record(
    name=_mostly(st.sampled_from(["vibration", "never measured"]) | _WORD), unit=_TEXT,
    ranges=_mostly(st.dictionaries(st.sampled_from(["poor", "medium", "good", "excellent"])
                                   | _WORD, _BOUNDS, max_size=4)),
))))
_AGGREGATION = _yaml(_record(
    method=_mostly(st.sampled_from(["weighted", "ahp"]) | _WORD),
    category_scores=_map(_NUMBER), weights=_map(_NUMBER),
    sensors=_list(_TEXT), pairwise=_list(_list(_NUMBER)),
))
_STORE = st.lists(
    st.one_of(
        _record(key=_TEXT, reply=_TEXT,
                session=_list(_record(role=_TEXT, content=_TEXT))).map(json.dumps),
        _ANY.map(json.dumps),
        _WORD,
    ),
    max_size=4,
).map(lambda lines: "\n".join(lines) + "\n")

# Markdown and plan text: pieces of the syntax the parsers look for.
_PIECES = st.sampled_from([
    "\n", " ", "Step 1: ", "Step 2:", "**Step 3**: ", "Step 0: ", "# Think: ",
    "Execution Order: ", "(", ")", " AND ", " OR ", "Step 1", "Step 2", " Goal completed!",
    "## Part 1: Intro\n", "## Part 2: Quality\n", "**Part 3**", "# ", "Motors wear.",
    "vibration sensor", "Write a python function for the ", "export a markdown output",
    "{asset_class}", "{nothing}", "\t", "\r\n",
])
_MARKDOWN = st.lists(st.one_of(_PIECES, _WORD), max_size=16).map("".join)

_CSV_FIELD = st.one_of(
    st.sampled_from(["a1", "a2", "vibration", "percent", "12.5", "1e999", "nan", "x", "",
                     "2024-01-01T00:00:00Z", "2024-01-01T00:00:00", "2024-02-30T00:00:00Z"]),
    _WORD,
)
_HEADER = "asset_id,sensor_name,value,timestamp,unit"


def _csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


_DATASET = st.tuples(
    st.sampled_from([_HEADER, _HEADER + ",extra", "asset_id,value"]),
    st.lists(st.lists(_CSV_FIELD, min_size=3, max_size=6), max_size=5),
).map(lambda parts: parts[0] + "\n" + _csv(parts[1]))

_RANGES = ("{poor: {min: 0, max: 25}, medium: {min: 25, max: 50}, "
           "good: {min: 50, max: 75}, excellent: {min: 75, max: 100}}")
_CATEGORY_SCORES = "category_scores: {poor: 0.1, medium: 0.4, good: 0.7, excellent: 1.0}\n"
# No fuzzed dataset row can name "never measured", so scoring always reports
# it missing; "scored" is the one dataset with a valid row for each sensor.
_FIXED = {
    "taxonomy": presets.ASSET_HEALTH_TAXONOMY,
    "indicator": f"sensors:\n  - {{name: vibration, unit: percent, ranges: {_RANGES}}}\n"
                 f"  - {{name: never measured, unit: percent, ranges: {_RANGES}}}\n",
    "aggregation": "method: weighted\n" + _CATEGORY_SCORES
                   + "weights: {vibration: 0.5, never measured: 0.5}\n",
    "dataset": _HEADER + "\n",
    "scored": _HEADER + "\na1,vibration,12.5,2024-01-01T00:00:00Z,percent\n"
              "a1,never measured,60,2024-01-01T00:00:00Z,percent\n",
    "script": "strict: true\nreplies: []\n",
    "search": "queries: {}\n",
    "nli": "pairs: []\n",
    "doc": "## Part 1: Intro\nMotors wear.\n",
    "token-free": "--- * ---\n",
}
_PLAN = ["plan", "--taxonomy", "{taxonomy}", "--kpi", "asset health"]
# The chat script has no replies, so a run that gets past its inputs fails at
# its first gateway call.
_GENERATE = ["generate", "--taxonomy", "{taxonomy}", "--kpi", "asset health",
             "--asset-class", "motor", "--asset-description", "A motor.",
             "--script", "{script}", "--out", "{out}"]
_VERIFY = ["verify-refs", "--doc", "{doc}", "--script", "{script}",
           "--search-script", "{search}", "--nli-script", "{nli}"]
_SCORE = ["score", "--indicator-config", "{indicator}", "--aggregation-config", "{aggregation}",
          "--dataset", "{dataset}"]
_SCORED = [*_SCORE[:-1], "{scored}"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Runs a command line with ``name``'s file holding ``text``; returns
    (code, stdout, stderr)."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    paths = {"out": str(root / "bundle")}
    for name, text in _FIXED.items():
        paths[name] = str(root / name)
        (root / name).write_text(text, encoding="utf-8")

    def run(argv, name, text):
        path = root / f"fuzzed-{name}"
        path.write_text(text, encoding="utf-8")
        args = [arg.format(**{**paths, name: str(path)}) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(args)
        return code, out.getvalue(), err.getvalue()

    return run


def _fails_cleanly(result):
    code, _, err = result
    assert code in (2, 3), err
    assert err.startswith("error: "), err


@_SETTINGS
@given(text=_TAXONOMY)
@example(text="kpi: asset health\nedges: {parent: asset health}\n")
@example(text="kpi: a\nedges:\n  - {parent: a, relation: has, child: 0x10}\n")
def test_taxonomy(run, text):
    _fails_cleanly(run(_PLAN, "taxonomy", text))


@_SETTINGS
@given(text=_MARKDOWN)
@example(text="Step 1: Ask.\nExecution Order: " + "(" * 20_000 + "Step 1" + ")" * 20_000 + "\n")
def test_plan_text(run, text):
    _fails_cleanly(run([*_GENERATE, "--plan-text", "{plan}"], "plan", text))


@_SETTINGS
@given(text=_SCRIPT)
@example(text="- first reply\n- second reply\n")
@example(text="replies: abc\n")
@example(text="strict: false\ndefault: 5\n")
@example(text="repiles: [a]\n")
def test_script(run, text):
    _fails_cleanly(run([*_PLAN, "--script", "{script}"], "script", text))


@_SETTINGS
@given(text=_STORE)
@example(text="[" * 100_000 + "\n")
@example(text='{"key": "abc", "reply": null}\n')
def test_replay(run, text):
    _fails_cleanly(run([*_PLAN, "--replay", "{store}"], "store", text))


@_SETTINGS
@given(text=_SEARCH)
@example(text="- first\n- second\n")
@example(text="queries: [a, b]\n")
def test_search_script(run, text):
    _fails_cleanly(run(_VERIFY, "search", text))


@_SETTINGS
@given(text=_NLI)
@example(text="- first\n- second\n")
@example(text="pairs: [just text]\n")
@example(text="pairs:\n  - {premise: p, hypothesis: h, entailment: true}\n")
def test_nli_script(run, text):
    _fails_cleanly(run(_VERIFY, "nli", text))


@_SETTINGS
@given(text=_GATEWAY)
@example(text="endpoint: https://e\ntimeout_seconds: fast\n")
@example(text="endpoint: http://127.0.0.1:9/v1\ntimeout_seconds: .inf\n")
@example(text="endpoint: http://127.0.0.1:9/v1\nbackoff_seconds: .inf\nmax_retries: 1\n")
def test_gateway_config(run, text):
    _fails_cleanly(run([*_PLAN, "--gateway-config", "{gateway}"], "gateway", text))


@_SETTINGS
@given(text=_INDICATOR)
@example(text="sensors:\n  - {unit: percent}\n")
@example(text="sensors:\n  - {name: vibration, unit: percent, "
              "ranges: {poor: {min: '0.5', max: 1}}}\n")
def test_indicator_config(run, text):
    _fails_cleanly(run(_SCORE, "indicator", text))


@_SETTINGS
@given(text=_AGGREGATION)
@example(text="method: weighted\nweights: [0.5, 0.5]\n")
@example(text="method: weighted\nweights: {vibration: 1" + "0" * 400 + "}\n")
@example(text="method: weighted\n" + _CATEGORY_SCORES
              + "weights: {vibration: .nan, never measured: 0.5}\n")
@example(text="method: ahp\n" + _CATEGORY_SCORES
              + "sensors: [vibration, never measured]\npairwise: [[1, .nan], [.nan, 1]]\n")
@example(text="method: ahp\nsensors: [vibration, never measured]\npairwise: [[1, 2], [0.5]]\n")
# Valid configs, so that the scoring branch runs.
@example(text="method: weighted\n" + _CATEGORY_SCORES
              + "weights: {vibration: 0.25, never measured: 0.75}\n")
@example(text="method: ahp\n" + _CATEGORY_SCORES
              + "sensors: [never measured, vibration]\npairwise: [[1, 4], [0.25, 1]]\n")
def test_aggregation_config(run, text):
    result = run(_SCORED, "aggregation", text)
    if result[0] != 0:
        _fails_cleanly(result)
        return
    scored = re.fullmatch(r"asset_id,score\na1,([^\n]*)\n", result[1])
    assert scored, result[1]
    # NaN and the infinities fail this comparison too.
    assert 0.0 <= float(scored[1]) <= 100.0, result[1]


@_SETTINGS
@given(text=_DATASET)
@example(text=_HEADER + "\na1,vibration,12.5,2024-01-01T00:00:00Z\n")
@example(text=_HEADER + "\na1,vibration,high,2024-01-01T00:00:00Z,percent\n")
def test_dataset(run, text):
    _fails_cleanly(run(_SCORE, "dataset", text))


@_SETTINGS
@given(text=_MARKDOWN)
@example(text="## Part 1: Intro\n## Part 2: Quality\nMotors wear.\n")
@example(text=" \n")
def test_doc(run, text):
    _fails_cleanly(run(_VERIFY, "doc", text))
    _fails_cleanly(run(["metrics", "--doc", "{doc}", "--doc", "{token-free}"], "doc", text))
